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
Fractions appear only at the boundary: ``levels``, ``value``, ``cells``,
``total_mass`` and the JSON codecs.

Cells at level n are indexed by coordinate tuples in ``[0, ell**n)**r``; the
flat index is ``sum_j c_j * (ell**n)**j`` (first coordinate fastest).

Every integral against a tower is a level sum
``sum_x f(x) * mu(x + ell**n Z_ell**r)`` over the nonzero cells x of level n,
and ``_moment_sums`` is the one loop that computes such sums: ``integrate``,
the word integrals and the P/F transforms of ``transforms`` differ only in f.
The one integral that is not, ``bernoulli_unit_integral``, needs no tower: the
Bernoulli measure's values are closed-form integers plus (c-1)/2, summed mod ell^K.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
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
    "zero_tower",
    "product_tower",
    "random_bounded_tower",
    "pushforward_linear",
    "successive_difference_pushforward",
    "restrict",
    "dilation_pullback",
    "integrate",
    "word_coefficient",
    "raw_word_integral",
    "mellin_multi",
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


def _coarsen(table, ell: int, rank: int, n: int) -> list:
    """The level n-1 table under a level-n table: each cell sums its children."""
    small = ell ** (n - 1)
    out = [0] * (small ** rank)
    if rank == 1:
        # the flat index is the coordinate, so the parent is idx mod ell^(n-1)
        for idx, v in enumerate(table):
            if v:
                out[idx % small] += v
        return out
    m = small * ell
    for idx, v in enumerate(table):
        if v:
            out[_encode(tuple(c % small for c in _decode(idx, m, rank)), small)] += v
    return out


class MeasureTower:
    """A tower whose level-n values are ``tables[n][i] / den``."""

    __slots__ = ("ell", "rank", "depth", "tables", "den", "denom_exponent", "units_only")

    def __init__(self, ell, rank, levels):
        _check_prime(ell)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not levels:
            raise ValueError("a tower needs at least one level")
        values = []
        for n, table in enumerate(levels):
            size = ell ** (rank * n)
            if len(table) != size:
                raise ValueError(f"level {n} must have {size} cells, got {len(table)}")
            values.append([Fraction(v) for v in table])
        den = math.lcm(*(v.denominator for table in values for v in table))
        tables = [tuple(v.numerator * (den // v.denominator) for v in t) for t in values]
        self._store(ell, rank, tables, den, False)
        self._validate()

    @classmethod
    def from_top(cls, ell, rank, depth, top, den=1, units_only=False):
        """The tower whose level-``depth`` values are ``top[i] / den`` for
        integers ``top[i]``; it is coherent by construction, every coarser
        level being summed from the one above, so nothing is checked."""
        g = math.gcd(den, *top)
        tables = [tuple(v // g for v in top)]
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

    @property
    def total_mass(self) -> Fraction:
        return Fraction(self.tables[0][0], self.den)

    def __repr__(self):
        return (
            f"MeasureTower(ell={self.ell}, rank={self.rank}, depth={self.depth}, "
            f"d={self.denom_exponent})"
        )


# -- level sums ---------------------------------------------------------------


def _moment_sums(mu: MeasureTower, indices, level: int, weight):
    """Yield (n, sum over level cells x of weight(x, n) * mu(x)) for each index
    n whose sum is nonzero; x is the cell's coordinate tuple and the integer
    weights are summed against the numerators, divided by ``den`` once."""
    if not 0 <= level <= mu.depth:
        raise ValueError("level out of range")
    m = mu.ell ** level
    cells = [
        (_decode(idx, m, mu.rank), v) for idx, v in enumerate(mu.tables[level]) if v
    ]
    for n in indices:
        acc = 0
        for x, v in cells:
            w = weight(x, n)
            if w:
                acc += w * v
        if acc:
            yield n, Fraction(acc, mu.den)


# -- constructors -------------------------------------------------------------


def _check_bernoulli(c: int, ell: int, depth: int) -> None:
    _check_prime(ell)
    if c % ell == 0:
        raise ValueError("not a unit: c must be coprime to ell")
    if depth < 0:
        raise ValueError("depth must be >= 0")


def bernoulli_measure(c: int, ell: int, depth: int) -> MeasureTower:
    """The c-regularized first Bernoulli distribution on Z_ell.

    Level-n value at i: i/ell^n - c*<c^(-1) i>/ell^n + (c-1)/2.
    """
    _check_bernoulli(c, ell, depth)
    m = ell ** depth
    cinv = pow(c, -1, m)
    top = [2 * (i - c * (cinv * i % m)) + (c - 1) * m for i in range(m)]
    return MeasureTower.from_top(ell, 1, depth, top, 2 * m)


def bernoulli_unit_integral(c: int, ell: int, level: int, beta: int, s) -> PadicNum:
    """``integrate(restrict(bernoulli_measure(c, ell, level), "units"),
    Factor(inverse=True, teich=beta, bracket=s), level)``, without the tower.

    At a unit x of level n the measure is (x - c*<c^(-1) x>)/ell^n + (c-1)/2,
    so twice the sum is an integer, wanted mod ell^K.  The units are g^j for
    g = ``smallest_regularizer(ell)`` (c need not generate), weighted r^j: the
    integrand at g^j, within ell^n of its value at g^j mod ell^n and so exact
    to the claimed ``level - 1`` digits.
    """
    _check_bernoulli(c, ell, level)
    if level < 1:
        raise ValueError("region not expressible at available depth")
    factor = Factor(inverse=True, teich=beta, bracket=s)
    prec, K, [[(a, b)]] = _precision_plan(ell, [(1, (factor,))], level, 0)
    modK, m = ell ** K, ell ** level
    g = smallest_regularizer(ell)
    r = pow(g, a, modK) * pow(teichmuller(g, ell, K).residue(K), b, modK) % modK
    x, y, w, total = 1, pow(c, -1, m), 1, 0
    for _ in range(m - m // ell):
        total += w * (2 * ((x - c * y) // m) + c - 1)
        x, y, w = x * g % m, y * g % m, w * r % modK
    return _fraction_to_padic_abs(Fraction(total % modK, 2), ell, prec)


def dirac_tower(point, ell: int, rank: int, depth: int) -> MeasureTower:
    point = tuple(point) if not isinstance(point, int) else (point,)
    if len(point) != rank:
        raise ValueError("rank mismatch")
    m = ell ** depth
    top = [0] * (m ** rank)
    top[_encode(tuple(p % m for p in point), m)] = 1
    return MeasureTower.from_top(ell, rank, depth, top)


def zero_tower(ell: int, rank: int, depth: int) -> MeasureTower:
    return MeasureTower.from_top(ell, rank, depth, [0] * (ell ** (rank * depth)))


def product_tower(mu1: MeasureTower, mu2: MeasureTower) -> MeasureTower:
    """Product measure on the concatenated coordinates."""
    if mu1.ell != mu2.ell:
        raise ValueError("prime mismatch")
    ell = mu1.ell
    rank = mu1.rank + mu2.rank
    depth = min(mu1.depth, mu2.depth)
    m = ell ** depth
    t1, t2 = mu1.tables[depth], mu2.tables[depth]
    top = [0] * (m ** rank)
    for i2, v2 in enumerate(t2):
        if not v2:
            continue
        base = i2 * m ** mu1.rank
        for i1, v1 in enumerate(t1):
            if v1:
                top[base + i1] = v1 * v2
    return MeasureTower.from_top(ell, rank, depth, top, mu1.den * mu2.den)


def random_bounded_tower(
    ell: int,
    rank: int,
    depth: int,
    denom_exponent: int = 0,
    seed: int = 0,
    zero_total: bool = False,
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

    table = [0 if zero_total else rand_val()]
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


# -- pushforward / restriction / pullback -------------------------------------


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
    top = [0] * (m ** r)
    for idx, v in enumerate(mu.tables[mu.depth]):
        if not v:
            continue
        x = _decode(idx, m, r)
        img = tuple(sum(matrix[i][j] * x[j] for j in range(r)) % m for i in range(r))
        top[_encode(img, m)] += v
    return MeasureTower.from_top(mu.ell, r, mu.depth, top, mu.den)


def successive_difference_pushforward(mu: MeasureTower) -> MeasureTower:
    """Pushforward under (x1,...,xr) -> (x1-x2, ..., x_{r-1}-x_r, x_r)."""
    r = mu.rank
    if r == 1:
        return mu
    mat = [[0] * r for _ in range(r)]
    for i in range(r - 1):
        mat[i][i] = 1
        mat[i][i + 1] = -1
    mat[r - 1][r - 1] = 1
    return pushforward_linear(mat, mu)


def restrict(mu: MeasureTower, region) -> MeasureTower:
    """Restriction to a compact-open region.

    ``region`` is either the string "units" (unit coordinates) or a pair
    ``(level, cells)`` where cells is an iterable of coordinate tuples at that
    level.  The top level is filtered and the coarser levels are rebuilt by
    summation, so the result is again a distribution tower.
    """
    ell, r = mu.ell, mu.rank
    if region == "units":
        base_level, keep = 1, None
    else:
        base_level, cells = region
        keep = {tuple(c % ell ** base_level for c in t) for t in cells}
    if base_level > mu.depth:
        raise ValueError("region not expressible at available depth")

    def kept(coords):
        if keep is None:
            return all(c % ell for c in coords)
        return tuple(c % ell ** base_level for c in coords) in keep

    m = ell ** mu.depth
    top = [
        v if v and kept(_decode(idx, m, r)) else 0
        for idx, v in enumerate(mu.tables[mu.depth])
    ]
    units_only = keep is None or all(
        all(c % ell for c in t) for t in keep
    )
    return MeasureTower.from_top(ell, r, mu.depth, top, mu.den, units_only)


def dilation_pullback(mu: MeasureTower, k) -> MeasureTower:
    """Pullback along per-coordinate scaling x_j -> ell^(k_j) x_j.

    The level-n value at c is mu of the product of cosets
    ell^(k_j) c_j + ell^(n+k_j) Z_ell, read off from level n + max(k).
    """
    ell, r = mu.ell, mu.rank
    ks = tuple(k) if not isinstance(k, int) else (k,) * r
    if len(ks) != r or any(kj < 0 for kj in ks):
        raise ValueError("scaling exponents must be nonnegative, one per coordinate")
    kmax = max(ks)
    if kmax > mu.depth:
        raise ValueError("region not expressible at available depth")
    n = mu.depth - kmax
    m = ell ** n
    big = ell ** mu.depth
    src = mu.tables[mu.depth]
    top = [0] * (m ** r)
    for idx in range(len(top)):
        coords = _decode(idx, m, r)
        total = 0
        reps = [
            [(ell ** kj * cj + ell ** (n + kj) * e) % big for e in range(ell ** (kmax - kj))]
            for cj, kj in zip(coords, ks)
        ]
        for combo in product(*reps):
            total += src[_encode(combo, big)]
        top[idx] = total
    return MeasureTower.from_top(ell, r, n, top, mu.den)


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


def _normalize_integrand(integrand, rank):
    """Returns list of (Fraction coefficient, factor tuple) terms."""
    if isinstance(integrand, Factor):
        integrand = (integrand,)
    if isinstance(integrand, tuple) and all(isinstance(f, Factor) for f in integrand):
        terms = [(Fraction(1), integrand)]
    else:
        terms = [(Fraction(c), tuple(fs)) for c, fs in integrand]
    for _, fs in terms:
        if len(fs) != rank:
            raise ValueError("rank mismatch: one factor per coordinate required")
        for f in fs:
            if f.power < 0:
                raise ValueError("negative powers are spelled with inverse=True")
    return terms


def _precision_plan(ell: int, terms, level: int, denom_exponent: int):
    """(prec, K, folded) of a level sum: the guaranteed absolute precision
    ``level - denom_exponent - (#inverse factors)``, capped by the stated
    precision of any ell-adic bracket exponent; the work precision K; and per
    factor the single power x^a * omega(x)^b mod ell^K it folds into, since
    [x] = x * omega(x)^(-1): a = power - inverse + s, b = (teich - s) mod (ell - 1).
    """
    n_inv = max(sum(1 for f in fs if f.inverse) for _, fs in terms)
    cap = math.inf
    for _, fs in terms:
        for f in fs:
            if isinstance(f.bracket, PadicNum) and not f.bracket.is_exact_zero:
                cap = min(cap, f.bracket.abs_prec + 1)
    prec = min(level - n_inv, cap) - denom_exponent
    K = max(level, prec) + denom_exponent + 3

    def fold(f):
        s = _exponent_residue(f.bracket, ell, K - 1) if f.bracket is not None else 0
        return f.power - f.inverse + s, (f.teich - s) % (ell - 1)

    return prec, K, [[fold(f) for f in fs] for _, fs in terms]


def integrate(mu: MeasureTower, integrand, level: int | None = None) -> PadicNum:
    """Level-n Riemann sum of a closed-family integrand against the tower, at
    the guaranteed absolute precision that ``_precision_plan`` works out."""
    ell, r = mu.ell, mu.rank
    if level is None:
        level = mu.depth
    # the kernel checks the level too, but the work precision below needs a
    # valid one, and a bad level is reported before the unit checks
    if not 0 <= level <= mu.depth:
        raise ValueError("level out of range")
    terms = _normalize_integrand(integrand, r)
    needs_units = any(f.needs_units for _, fs in terms for f in fs)
    if needs_units:
        if not mu.units_only:
            raise ValueError(
                "integrand undefined on region: restrict to units before "
                "integrating inverse/omega/bracket factors"
            )
        if level < 1:
            raise ValueError("integrand undefined on region: need level >= 1")

    prec, K, folded = _precision_plan(ell, terms, level, mu.denom_exponent)
    modK = ell ** K

    # omega(u) mod ell^K by u mod ell; index 0 is read only when no factor
    # needs units, and then every b is 0
    omega = [0] * ell
    if needs_units:
        omega[1:] = [teichmuller(u, ell, K).residue(K) for u in range(1, ell)]
    tables = [[(a, [pow(w, b, modK) for w in omega]) for a, b in fs] for fs in folded]

    def weight(x, t):
        if needs_units and not all(c % ell for c in x):
            return 0
        val = 1
        for c, (a, omega_b) in zip(x, tables[t]):
            val = val * pow(c, a, modK) * omega_b[c % ell] % modK
        return val

    sums = _moment_sums(mu, range(len(terms)), level, weight)
    total = sum((terms[t][0] * acc for t, acc in sums), Fraction(0))
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


def _word_poly(x, a) -> int:
    """(-x1)^a0 (x1-x2)^a1 ... (x_(r-1)-x_r)^a_(r-1) x_r^a_r at the point x."""
    inner = math.prod((p - q) ** e for p, q, e in zip(x, x[1:], a[1:]))
    return (-x[0]) ** a[0] * inner * x[-1] ** a[-1]


def raw_word_integral(mu: MeasureTower, word: Word, level: int | None = None):
    """The un-normalized word integral and its guaranteed precision exponent."""
    if word.rank != mu.rank:
        raise ValueError("rank mismatch")
    if level is None:
        level = mu.depth
    sums = _moment_sums(mu, [word.exponents], level, _word_poly)
    return sum((acc for _, acc in sums), Fraction(0)), level - mu.denom_exponent


def word_coefficient(mu: MeasureTower, word: Word, level: int | None = None) -> PadicNum:
    """Coefficient integral: (prod a_i!)^(-1) * raw word integral."""
    if level is None:
        level = mu.depth
    s, prec = raw_word_integral(mu, word, level)
    fact = 1
    for ai in word.exponents:
        fact *= math.factorial(ai)
    lost = _frac_val(fact, mu.ell)
    return _fraction_to_padic_abs(s / fact, mu.ell, prec - lost)


def mellin_multi(mu: MeasureTower, s_list, beta_list, level: int | None = None) -> PadicNum:
    """Integral of prod_i [t_i]^(s_i) t_i^(-1) omega(t_i)^(beta_i) over units."""
    if len(s_list) != mu.rank or len(beta_list) != mu.rank:
        raise ValueError("rank mismatch")
    target = mu if mu.units_only else restrict(mu, "units")
    fs = tuple(
        Factor(inverse=True, teich=b, bracket=s) for s, b in zip(s_list, beta_list)
    )
    return integrate(target, fs, level)


# -- moment congruence checker ---------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    lhs: Fraction
    rhs: Fraction
    difference: Fraction
    difference_valuation: object  # int or math.inf
    required_valuation: int
    riemann_floor: int
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
    return CongruenceReport(
        lhs=lhs,
        rhs=rhs,
        difference=diff,
        difference_valuation=dval,
        required_valuation=required,
        riemann_floor=mu.depth - mu.denom_exponent,
        passed=dval >= required,
    )


# -- serialization ----------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _frac_from_str(text: str, name: str) -> Fraction:
    """Parse a rational given as text; ``name`` says which input it was."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational number, got {text!r}") from None


def tower_to_json(mu: MeasureTower) -> dict:
    return {
        "ell": mu.ell,
        "rank": mu.rank,
        "depth": mu.depth,
        "denom_exponent": mu.denom_exponent,
        "levels": [[_frac_str(v) for v in table] for table in mu.levels],
    }


def tower_from_json(doc: dict) -> MeasureTower:
    if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in ("ell", "rank")):
        raise ValueError('a tower document is a JSON object with integer "ell" and "rank"')
    levels = doc["levels"]
    if not isinstance(levels, list) or not all(
            isinstance(t, list) and all(isinstance(v, str) for v in t) for t in levels):
        raise ValueError('"levels" must be a list of lists of value strings')
    levels = [[_frac_from_str(v, "a tower value") for v in table] for table in levels]
    return MeasureTower(doc["ell"], doc["rank"], levels)
