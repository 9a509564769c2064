"""Bounded measures on (Z_ell)^r stored as coherent coset-value towers.

A tower keeps, for every level n <= depth, the table of values on the
``ell**(r*n)`` cosets of level n.  The defining coherence ("distribution")
property says each value equals the sum of the ``ell**r`` values above it, so
a tower is determined by its top level.  ``MeasureTower.from_top`` is the one
construction path: every constructor here computes only its level-``depth``
table and ``_coarsen`` sums it down to the coarser levels.  A tower given from
outside, ``MeasureTower(ell, rank, levels)``, is checked: each level is
coarsened and compared.  Such a tower is never ``units_only``, a flag that only
``restrict`` sets, through ``from_top``.  Each level is stored as a tuple of
integer numerators over one denominator ``den``, the lcm of the values'
denominators, so every level sum adds integers and ``denom_exponent``, the
smallest d with every value in ``ell**(-d) * Z_(ell)``, is v_ell(den).
Fractions appear only at the boundary: ``levels``, ``value``, ``cells``
and the level sums' results.  Tower files are read without
them: a level of ASCII ``n`` and ``n/d`` values is joined once and parsed
in bulk by C-level ``int``, any other level value by value, so every
spelling that ``Fraction`` reads is accepted and every refusal keeps its
message.  A tower given by its levels has a rank r with 3^r at most
``_CELL_BUDGET``: a level-1 table at the smallest ell would fit the budget.

Cells at level n are indexed by coordinate tuples in ``[0, ell**n)**r``; the
flat index is ``sum_j c_j * (ell**n)**j`` (first coordinate fastest).
``_axes`` lists, per axis, the coordinate of every flat index; pushforward
and restriction to the units map cells through these lists, with no cell
decoded on its own.

Every integral against a tower is a level sum
``sum_x f(x) * mu(x + ell**n Z_ell**r)`` over the cells x of level n.
``_moment_sums`` contracts such a sum one axis at a time when
``f(x) = prod_j w(x_j, n_j)``: ``integrate``, the P/F transforms of
``transforms`` and ``raw_word_integral``, over its word polynomial's
monomials (w(c, e) = c^e), differ only in w and the tuples n.  The one integral
that needs no tower, ``bernoulli_unit_integral``, sums the Bernoulli
measure's closed-form values (integers plus (c-1)/2) mod ell^level, over
half the units: the measure is odd under x -> -x and the integrand even or
odd with beta, so the other half repeats the first (even beta) or cancels it
(odd beta), and the claimed ``level - 1`` digits are the same.  The
measure's half row depends only on (c, ell, level) and is cached; each
request sums it in blocks of about sqrt(units).  It and
``bernoulli_measure`` refuse more than ``_CELL_BUDGET`` cells.

Riemann sums against the closed integrand family (powers, unit inverses,
Teichmuller powers, one-unit powers) return ell-adic values carrying the
guaranteed absolute precision ``level - denom_exponent`` reduced by one per
inverse factor: every admitted factor moves points by at most their distance,
so the level-n oscillation of the integrand is at most ell**(-n).  Each
factor is evaluated as one power ``x**a * omega(x)**b`` mod ell**K.

Towers are immutable after construction; Riemann sums are exact integer
additions, so any evaluation order gives identical results.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, floordiv, mod, mul
from random import Random

from .padic import (
    PadicNum,
    smallest_regularizer,
    teichmuller,
    _check_prime,
    _exponent_residue,
    _frac_val,
    _fraction_to_padic_abs,
    _int_valuation,
)

__all__ = [
    "MeasureTower",
    "Word",
    "Factor",
    "bernoulli_measure",
    "bernoulli_unit_integral",
    "dirac_tower",
    "random_bounded_tower",
    "pushforward_linear",
    "restrict",
    "integrate",
    "raw_word_integral",
    "congruence_check",
    "CongruenceReport",
    "tower_to_json",
    "tower_from_json",
]


def _decode(idx: int, m: int, rank: int) -> tuple:
    out = []
    for _ in range(rank):
        idx, c = divmod(idx, m)
        out.append(c)
    return tuple(out)


def _encode(coords, m: int) -> int:
    idx = 0
    for c in reversed(coords):
        idx = idx * m + c
    return idx


def _axes(m: int, rank: int) -> list:
    """Per axis j, the list of coordinates x_j of the flat indices 0 ... m**rank - 1."""
    return [list(chain.from_iterable(map(repeat, range(m), repeat(m ** j)))) * m ** (rank - 1 - j)
            for j in range(rank)]


def _coarsen(table, ell: int, rank: int, n: int) -> list:
    """The level n-1 table under a level-n table: each cell sums its children.

    Axis j (slowest first) folds coordinate c onto c mod ell^(n-1): in each
    block of ell * slab cells the ell slabs are summed position by position.
    """
    small = ell ** (n - 1)
    big = small * ell
    for j in reversed(range(rank)):
        slab = small * big ** j
        block = ell * slab
        folded = []
        for start in range(0, len(table), block):
            # the slabs as a list: a tuple grown from a generator is resized,
            # and the tuple free lists would keep every odd size it leaves
            folded += map(sum, zip(*[table[i:i + slab]
                                     for i in range(start, start + block, slab)]))
        table = folded
    return table


class MeasureTower:
    """A tower whose level-n values are ``tables[n][i] / den``."""

    __slots__ = ("ell", "rank", "depth", "tables", "den", "denom_exponent", "units_only")

    def __init__(self, ell, rank, levels, den=None):
        """The levels hold rationals; with ``den`` they hold the integer
        numerators of the values over ``den``, the lcm of their denominators."""
        _check_prime(ell)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        # bounded by rank alone, so ell does not decide whether a depth-0 tower is read
        if 3 ** min(rank, 64) > _CELL_BUDGET:
            raise ValueError(f"rank too large: 3^rank must be at most {_CELL_BUDGET} cells")
        if not levels:
            raise ValueError("a tower needs at least one level")
        tables = []
        for n, table in enumerate(levels):
            size = ell ** (rank * n)
            if len(table) != size:
                raise ValueError(f"level {n} must have {size} cells, got {len(table)}")
            if den is None:
                table = [(q.numerator, q.denominator) for q in map(Fraction, table)]
            tables.append(table)
        if den is None:
            den = math.lcm(*{d for t in tables for _, d in t})
            # lists first, as in _coarsen
            tables = [[a * (den // d) for a, d in t] for t in tables]
        self._store(ell, rank, [tuple(t) for t in tables], den, False)
        self._validate()

    @classmethod
    def from_top(cls, ell, rank, depth, top, den=1, units_only=False):
        """The tower whose level-``depth`` values are ``top[i] / den`` for
        integers ``top[i]``; it is coherent by construction, every coarser
        level being summed from the one above, so nothing is checked."""
        g = math.gcd(den, *top)
        tables = [tuple(top) if g == 1 else tuple(map(floordiv, top, repeat(g)))]
        for n in range(depth, 0, -1):
            tables.append(tuple(_coarsen(tables[-1], ell, rank, n)))
        tower = cls.__new__(cls)
        tower._store(ell, rank, tables[::-1], den // g, units_only)
        return tower

    def _store(self, ell, rank, tables, den, units_only):
        self.ell = ell
        self.rank = rank
        self.depth = len(tables) - 1
        self.tables = tuple(tables)
        self.den = den
        self.units_only = units_only
        # den is the lcm of the values' denominators
        self.denom_exponent = _int_valuation(den, ell)

    def _validate(self):
        ell, rank, den = self.ell, self.rank, self.den
        for n in range(self.depth):
            acc = _coarsen(self.tables[n + 1], ell, rank, n + 1)
            for idx, v in enumerate(self.tables[n]):
                if acc[idx] != v:
                    raise ValueError(
                        f"not a distribution: level {n} cell {_decode(idx, ell ** n, rank)} "
                        f"has {Fraction(v, den)}, children sum to {Fraction(acc[idx], den)}"
                    )
        # Growth heuristic: denominators gaining an ell at every single level
        # is the signature of an unbounded family (e.g. the uniform "measure"
        # with value ell**(-r*n) on each level-n cell).
        per_level_d = [_int_valuation(den // math.gcd(den, *t), ell) for t in self.tables]
        if self.depth >= 2 and all(
            per_level_d[n] > per_level_d[n - 1] for n in range(1, self.depth + 1)
        ):
            raise ValueError("not bounded: denominator exponent grows with every level")

    # -- cell access --------------------------------------------------------

    @property
    def levels(self) -> tuple:
        """The value tables, one tuple of Fractions per level."""
        return tuple(tuple(Fraction(v, self.den) for v in t) for t in self.tables)

    def value(self, level: int, coords) -> Fraction:
        m = self.ell ** level
        coords = tuple(c % m for c in coords)
        return Fraction(self.tables[level][_encode(coords, m)], self.den)

    def cells(self, level: int):
        m = self.ell ** level
        for idx, v in enumerate(self.tables[level]):
            yield _decode(idx, m, self.rank), Fraction(v, self.den)

    def __repr__(self):
        return (
            f"MeasureTower(ell={self.ell}, rank={self.rank}, depth={self.depth}, "
            f"d={self.denom_exponent})"
        )


# -- level sums ---------------------------------------------------------------


def _moment_sums(mu: MeasureTower, indices, level: int, weight):
    """Yield (n, sum over level cells x of prod_j weight(x_j, n_j) * mu(x))
    for each index tuple n whose sum is nonzero, divided by ``den`` once.

    Axis j (slowest first) is contracted against the row weight(c, n_j),
    leaving a table over the axes before j for each needed suffix n[j:].
    """
    if not 0 <= level <= mu.depth:
        raise ValueError("level out of range")
    indices = list(indices)
    m = mu.ell ** level
    rows = {}
    partial = {(): mu.tables[level]}
    for j in reversed(range(mu.rank)):
        size = m ** j
        contracted = {}
        for n in indices:
            suffix, e = n[j:], n[j]
            if suffix in contracted:
                continue
            if e not in rows:
                rows[e] = [weight(c, e) for c in range(m)]
            row, table = rows[e], partial[n[j + 1:]]
            contracted[suffix] = [sum(map(mul, row, table[i::size])) for i in range(size)]
        partial = contracted
    for n in indices:
        acc = partial[n][0]
        if acc:
            yield n, Fraction(acc, mu.den)


# -- constructors -------------------------------------------------------------


# The most cells ell^depth that ``bernoulli_measure`` builds and
# ``bernoulli_unit_integral`` sums.  A deeper request is refused before any
# work: at ell = 5 and level 40 it would otherwise run until it is killed.
# It also bounds the rank of a tower given by its levels, whose rank-long
# lists would exhaust memory at a rank of 10^9, and the modulus m of a
# ``lfunctions.DirichletCharacter`` by m^2, the unit pairs its table check
# reads (0.2 s at m = 997).  Five more budgets refuse before any work:
# ``bernoulli._WEIGHT_BUDGET`` (4096) bounds the exact
# Bernoulli index k, the table's and the interpolation weight's, since a cold
# table costs about k^3 (0.09 s to k = 1000, 5.4 s to 4000);
# ``padic._DIGIT_BUDGET`` (1000) bounds the digits of a Teichmuller lift, one
# pow to an ell^(digits-1) exponent (at ell = 13: 0.15 s for 1000 digits,
# 3.4 s for 3000), and every work precision an L-value derives from its
# precision M (``lfunctions._check_prec``); ``padic._PRIME_BUDGET`` (2^32)
# bounds the odd n whose primality trial division decides, and so every ell
# and Z[1/m] prime (3 ms at 2^32, as is factoring ell - 1 for
# ``smallest_regularizer``); ``lfunctions._MODULUS_BUDGET`` (10^7) bounds
# the Z[1/m] modulus m = prod(primes) before any entry is tested, so no
# trial division passes sqrt(10^7) (the node costs B_k and one Euler factor
# per prime, whatever m); and ``ncseries._DEGREE_BUDGET`` (32) bounds the
# degree of the ``verify`` suites, whose costliest (``bch``) grows about as
# degree^6.
_CELL_BUDGET = 10 ** 6


def _check_bernoulli(c: int, ell: int, depth: int) -> None:
    _check_prime(ell)
    if c % ell == 0:
        raise ValueError("not a unit: c must be coprime to ell")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # ell^64 is past the budget for every ell and cheap, unlike a huge ell^depth
    if ell ** min(depth, 64) > _CELL_BUDGET:
        raise ValueError(f"depth too large: ell^depth must be at most {_CELL_BUDGET} cells")


def bernoulli_measure(c: int, ell: int, depth: int) -> MeasureTower:
    """The c-regularized first Bernoulli distribution on Z_ell.

    Level-n value at i: i/ell^n - c*<c^(-1) i>/ell^n + (c-1)/2.
    """
    _check_bernoulli(c, ell, depth)
    m = ell ** depth
    cinv = pow(c, -1, m)
    top = [2 * (i - c * (cinv * i % m)) + (c - 1) * m for i in range(m)]
    return MeasureTower.from_top(ell, 1, depth, top, 2 * m)


@functools.lru_cache(maxsize=64)
def _unit_row(c: int, ell: int, level: int) -> tuple:
    """(v_0, ..., v_(n/2-1)) for n = phi(ell^level): v_j is twice the measure
    of the unit g^j mod ell^level, for g = ``smallest_regularizer(ell)``.

    With m = ell^level and y = <c^(-1) x>, c*y = x mod m, so
    2(x - c*y)/m + c - 1 = c - 1 - 2*floor(c*y/m).  The row depends on
    neither beta nor s; ``bernoulli_unit_integral`` sums it against each
    request's weights.  64 rows cover the 33 keys of the lvalue-measure
    benchmark (11 (ell, level) classes, 3 regularisers each).  At the cell
    budget a row has at most 5*10^5 entries, so the cache holds at most
    64 * 5*10^5 = 3.2*10^7 entries: about 256 MiB of tuple slots, plus an
    int object for each entry outside CPython's small ints [-5, 256]
    (|v_j| < |c|).
    """
    m = ell ** level
    g = smallest_regularizer(ell)
    y, row = pow(c, -1, m), []
    for _ in range((m - m // ell) // 2):
        row.append(c - 1 - 2 * (c * y // m))
        y = y * g % m
    return tuple(row)


def bernoulli_unit_integral(c: int, ell: int, level: int, beta: int, s) -> PadicNum:
    """``integrate(restrict(bernoulli_measure(c, ell, level)),
    (Factor(inverse=True, teich=beta, bracket=s),), level)``, without the tower.

    At a unit x of the given level the measure is v(x)/2 for the integer
    v(x) = 2(x - c*<c^(-1) x>)/m + c - 1, m = ell^level.  The units are g^j,
    j < n = phi(m), for g = ``smallest_regularizer(ell)`` (c need not
    generate), weighted r^j: the integrand w = x^a * omega(x)^b at g^j,
    within ell^level of its value at g^j mod m and so exact to the claimed
    ``prec <= level - 1`` digits.  The value is therefore wanted only mod m,
    and the x -> -x symmetry halves the sum there:

    * v(m - x) = -v(x) exactly, as <c^(-1)(m - x)> = m - <c^(-1) x>;
    * w(-x) = (-1)^(a+b) w(x) = (-1)^(beta+1) w(x), as a + b = beta - 1
      mod 2 (``_precision_plan`` folds b mod the even ell - 1);
    * g generates the units mod m, so g^(n/2) = -1 mod m.

    The full sum of v_j r^j is thus (1 + (-1)^beta) times the sum over
    j < n/2, mod m.  Odd beta gives zero to ``prec`` digits with no sum.
    Even beta gives twice the half sum, and the integral, half the sum of
    v, is the half sum itself, with the same digits as the sum over every
    unit.  The half sum is a Horner sum, over the row
    ``_unit_row(c, ell, level)``, of blocks of about sqrt(n/2) units, each
    block one C-level sum of products against r^0 ... r^(size-1).
    """
    _check_bernoulli(c, ell, level)
    if level < 1:
        raise ValueError("region not expressible at available depth")
    factor = Factor(inverse=True, teich=beta, bracket=s)
    prec, _, [(a, b)] = _precision_plan(ell, (factor,), level, 0)
    if beta % 2:
        return _fraction_to_padic_abs(Fraction(0), ell, prec)
    m, row = ell ** level, _unit_row(c, ell, level)
    g = smallest_regularizer(ell)
    r = pow(g, a, m) * pow(teichmuller(g, ell, level).residue(level), b, m) % m
    size = math.isqrt(len(row))
    powers = [1]
    for _ in range(size):
        powers.append(powers[-1] * r % m)
    r_size = powers.pop()
    total = 0
    for q in reversed(range(0, len(row), size)):
        total = (total * r_size + sum(map(mul, row[q:q + size], powers))) % m
    return _fraction_to_padic_abs(Fraction(total), ell, prec)


def dirac_tower(point, ell: int, rank: int, depth: int) -> MeasureTower:
    point = tuple(point)
    if len(point) != rank:
        raise ValueError("rank mismatch")
    m = ell ** depth
    top = [0] * (m ** rank)
    top[_encode(tuple(p % m for p in point), m)] = 1
    return MeasureTower.from_top(ell, rank, depth, top)


def random_bounded_tower(
    ell: int, rank: int, depth: int, denom_exponent: int = 0, seed: int = 0
) -> MeasureTower:
    """Seeded synthetic bounded tower: split each value into ell^r children.

    Values stay in ell^(-denom_exponent) Z, so the result is bounded with
    exponent <= denom_exponent by construction; the tables hold the values
    times ell^denom_exponent.
    """
    rng = Random(seed)

    def rand_val():
        e = rng.randint(0, denom_exponent) if denom_exponent else 0
        return rng.randint(-9, 9) * ell ** (denom_exponent - e)

    table = [rand_val()]
    for n in range(depth):
        m = ell ** n
        big = m * ell
        child = [0] * (ell ** (rank * (n + 1)))
        last = ell ** rank - 1
        for idx, val in enumerate(table):
            coords = _decode(idx, m, rank)
            # random children, the last one taking what is left of val
            for off in range(last + 1):
                kid = [c + m * e for c, e in zip(coords, _decode(off, ell, rank))]
                v = rand_val() if off < last else val
                child[_encode(kid, big)] = v
                val -= v
        table = child
    return MeasureTower.from_top(ell, rank, depth, table, ell ** denom_exponent)


# -- pushforward / restriction ------------------------------------------------


def pushforward_linear(matrix, mu: MeasureTower) -> MeasureTower:
    """Image measure under an integer matrix acting on coordinates.

    The value on a top-level cell is the sum of values over its preimage cells
    at the same level, which is exact for any integer matrix (reduction mod
    ell^n commutes with the map), so the coarser levels follow by summation.
    """
    r = mu.rank
    matrix = [list(row) for row in matrix]
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise ValueError("matrix shape must match rank")
    m = mu.ell ** mu.depth
    # each cell's image index sum_i m^i ((matrix x)_i mod m), one row at a time
    axes = _axes(m, r)
    image = [0] * len(axes[0])
    for i, row in enumerate(matrix):
        y = repeat(0)
        for a, x in zip(row, axes):
            y = map(add, y, map(mul, x, repeat(a)))
        image = list(map(add, image, map(mul, map(mod, y, repeat(m)), repeat(m ** i))))
    top = [0] * len(image)
    for i, v in zip(image, mu.tables[mu.depth]):
        top[i] += v
    return MeasureTower.from_top(mu.ell, r, mu.depth, top, mu.den)


def restrict(mu: MeasureTower) -> MeasureTower:
    """Restriction to the units (Z_ell^x)^r, the cells with every coordinate
    prime to ell; a depth-0 tower cannot tell them apart.  The top level is
    filtered and the coarser levels are rebuilt by summation, so the result
    is again a distribution tower.
    """
    ell, r = mu.ell, mu.rank
    if mu.depth < 1:
        raise ValueError("region not expressible at available depth")
    # each top cell's coordinates mod ell
    coords = zip(*[map(mod, x, repeat(ell)) for x in _axes(ell ** mu.depth, r)])
    top = list(map(mul, mu.tables[mu.depth], map(all, coords)))
    return MeasureTower.from_top(ell, r, mu.depth, top, mu.den, True)


# -- integration ---------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One coordinate's factor: x^power * (x^-1)? * omega(x)^teich * [x]^bracket."""

    power: int = 0
    inverse: bool = False
    teich: int = 0
    bracket: object = None

    @property
    def needs_units(self) -> bool:
        return self.inverse or self.teich != 0 or self.bracket is not None


def _check_integrand(factors, rank) -> tuple:
    """The integrand's factors, one per coordinate, as a tuple."""
    factors = tuple(factors)
    if len(factors) != rank:
        raise ValueError("rank mismatch: one factor per coordinate required")
    if any(f.power < 0 for f in factors):
        raise ValueError("negative powers are spelled with inverse=True")
    return factors


def _precision_plan(ell: int, factors, level: int, denom_exponent: int):
    """(prec, K, folded) of a level sum: the guaranteed absolute precision
    ``level - denom_exponent - (#inverse factors)``, capped by the stated
    precision of any ell-adic bracket exponent; the work precision K; and per
    factor the single power x^a * omega(x)^b mod ell^K it folds into, since
    [x] = x * omega(x)^(-1): a = power - inverse + s, b = (teich - s) mod (ell - 1).
    """
    cap = min((f.bracket.abs_prec + 1 for f in factors
               if isinstance(f.bracket, PadicNum) and not f.bracket.is_exact_zero),
              default=math.inf)
    prec = min(level - sum(1 for f in factors if f.inverse), cap) - denom_exponent
    K = max(level, prec) + denom_exponent + 3

    def fold(f):
        s = _exponent_residue(f.bracket, ell, K - 1) if f.bracket is not None else 0
        return f.power - f.inverse + s, (f.teich - s) % (ell - 1)

    return prec, K, tuple(map(fold, factors))


def integrate(mu: MeasureTower, factors, level: int) -> PadicNum:
    """Level-n Riemann sum of ``prod_j factors[j](x_j)``, one ``Factor`` per
    coordinate, against the tower, at the guaranteed absolute precision that
    ``_precision_plan`` works out."""
    ell, r = mu.ell, mu.rank
    # the kernel checks the level too, but the work precision below needs a
    # valid one, and a bad level is reported before the unit checks
    if not 0 <= level <= mu.depth:
        raise ValueError("level out of range")
    factors = _check_integrand(factors, r)
    needs_units = any(f.needs_units for f in factors)
    if needs_units:
        if not mu.units_only:
            raise ValueError(
                "integrand undefined on region: restrict to units before "
                "integrating inverse/omega/bracket factors"
            )
        if level < 1:
            raise ValueError("integrand undefined on region: need level >= 1")

    prec, K, folded = _precision_plan(ell, factors, level, mu.denom_exponent)
    modK = ell ** K

    # omega(u)^b mod ell^K by u mod ell; index 0 is read only when no factor
    # needs units, and then every b is 0
    omega = [0] * ell
    if needs_units:
        omega[1:] = [teichmuller(u, ell, K).residue(K) for u in range(1, ell)]
    omega_pow = {b: [pow(w, b, modK) for w in omega] for _, b in folded}

    def weight(c, key):
        a, b = key
        u = c % ell
        if needs_units and not u:
            return 0
        return pow(c, a, modK) * omega_pow[b][u] % modK

    total = dict(_moment_sums(mu, [folded], level, weight)).get(folded, Fraction(0))
    return _fraction_to_padic_abs(total, ell, prec)


# -- word integrals -------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Exponent pattern (a0, a1, ..., ar) of X^a0 Y X^a1 Y ... Y X^ar."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) < 2:
            raise ValueError("a word needs at least one Y")
        if any(a < 0 for a in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.exponents) - 1


def raw_word_integral(mu: MeasureTower, word: Word, level: int | None = None):
    """The un-normalized word integral and its guaranteed precision exponent,
    the moments of (-x1)^a0 (x1-x2)^a1 ... (x_(r-1)-x_r)^a_(r-1) x_r^a_r
    expanded into ``{exponent tuple: coefficient}`` one binomial at a time."""
    if word.rank != mu.rank:
        raise ValueError("rank mismatch")
    if level is None:
        level = mu.depth
    a = word.exponents
    poly = {(a[0],): (-1) ** a[0]}
    for e in a[1:-1]:
        # distinct (term, j) give distinct tuples, so no terms merge
        poly = {(*n[:-1], n[-1] + e - j, j): (-1) ** j * math.comb(e, j) * c
                for n, c in poly.items() for j in range(e + 1)}
    poly = {(*n[:-1], n[-1] + a[-1]): c for n, c in poly.items()}
    total = sum((poly[n] * v for n, v in _moment_sums(mu, poly, level, pow)), Fraction(0))
    return total, level - mu.denom_exponent


# -- moment congruence checker ---------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    difference_valuation: object  # int or math.inf
    required_valuation: int
    passed: bool


def congruence_check(mu: MeasureTower, w: Word, v: Word, M: int) -> CongruenceReport:
    """Check (prod a_i!) li_w = (prod b_i!) li_v mod ell^(M+1-d) on the tower.

    Hypotheses: both words start with Y (a0 = 0), all inner exponents coprime
    to ell and congruent mod (ell-1) ell^M.  Both sides are the raw word
    integrals evaluated at the full stored depth.
    """
    ell = mu.ell
    if w.rank != mu.rank or v.rank != mu.rank:
        raise ValueError("rank mismatch")
    a, b = w.exponents, v.exponents
    if a[0] != 0 or b[0] != 0:
        raise ValueError("hypotheses not met: words must start with Y (a0 = 0)")
    step = (ell - 1) * ell ** M
    for ai, bi in zip(a[1:], b[1:]):
        if ai % ell == 0 or bi % ell == 0:
            raise ValueError("hypotheses not met: exponents must be coprime to ell")
        if (ai - bi) % step:
            raise ValueError(
                f"hypotheses not met: exponents must agree mod (ell-1)*ell^{M}"
            )
    if mu.depth < M + 1:
        raise ValueError("tower depth insufficient for the requested modulus")
    lhs, _ = raw_word_integral(mu, w)
    rhs, _ = raw_word_integral(mu, v)
    diff = lhs - rhs
    dval = math.inf if diff == 0 else _frac_val(diff, ell)
    required = M + 1 - mu.denom_exponent
    return CongruenceReport(difference_valuation=dval, required_valuation=required,
                            passed=dval >= required)


# -- serialization ----------------------------------------------------------------


def _value_str(v: int, den: int) -> str:
    """v/den (den > 0) in lowest terms, as ``n`` or ``n/d``."""
    g = math.gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _frac_from_str(text: str, name: str) -> Fraction:
    """Parse a rational given as text; ``name`` says which input it was."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational number, got {text!r}") from None


def tower_to_json(mu: MeasureTower) -> dict:
    den = mu.den
    return {
        "ell": mu.ell,
        "rank": mu.rank,
        "depth": mu.depth,
        "denom_exponent": mu.denom_exponent,
        "levels": [list(map(str, t)) if den == 1 else [_value_str(v, den) for v in t]
                   for t in mu.tables],
    }


# a level whose joined text has only these characters is read in bulk,
# unless a denominator is signed, empty or zero
_BULK = re.compile(r"[-+/,0-9]*")
_BAD_DEN = re.compile(r"/([-+]|0*(,|$))")


def _bulk_level(table: list, text: str):
    """The values of a level of ASCII ``n`` and ``n/d`` values, d > 0, joined
    by commas into ``text``, as integer numerators over the lcm of the d's;
    None for any other level."""
    values = text.split(",")
    # a comma inside a value splits it
    if len(values) != len(table) or not _BULK.fullmatch(text) or _BAD_DEN.search(text):
        return None
    try:
        if "/" not in text:
            return list(map(int, values)), 1
        nums, _, dens = zip(*map(str.partition, values, repeat("/")))
        nums = list(map(int, nums))
        # the few distinct denominators; a plain value's is empty and reads as 1
        den_of = {d: int(d or "1") for d in set(dens)}
    except ValueError:  # an empty or malformed part, or past int()'s digit limit
        return None
    lcm = math.lcm(*den_of.values())
    scale = {d: lcm // v for d, v in den_of.items()}
    return list(map(mul, nums, map(scale.__getitem__, dens))), lcm


def _read_level(table: list, text: str) -> tuple:
    """A level's values as integer numerators over the lcm of their
    denominators: in bulk where ``_bulk_level`` can, else value by value."""
    read = _bulk_level(table, text)
    if read is None:
        values = [_frac_from_str(v, "a tower value") for v in table]
        lcm = math.lcm(*(q.denominator for q in values))
        read = [q.numerator * (lcm // q.denominator) for q in values], lcm
    nums, lcm = read
    # unreduced values such as 2/4 leave a common factor
    g = math.gcd(lcm, *nums)
    return (nums, lcm) if g == 1 else (list(map(floordiv, nums, repeat(g))), lcm // g)


def tower_from_json(doc: dict) -> MeasureTower:
    if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in ("ell", "rank")):
        raise ValueError('a tower document is a JSON object with integer "ell" and "rank"')
    levels = doc.get("levels")
    shape = '"levels" must be a list of lists of value strings'
    if not isinstance(levels, list) or not all(isinstance(t, list) for t in levels):
        raise ValueError(shape)
    try:
        texts = [",".join(t) for t in levels]
    except TypeError:  # a value that is not a string
        raise ValueError(shape) from None
    # every value is read before the shape is checked
    read = list(map(_read_level, levels, texts))
    den = math.lcm(*(d for _, d in read))
    tables = [t if d == den else list(map(mul, t, repeat(den // d))) for t, d in read]
    return MeasureTower(doc["ell"], doc["rank"], tables, den)
