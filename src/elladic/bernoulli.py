"""Bernoulli numbers and polynomials as exact rationals, computed on integers.

Conventions: the generating function ``X exp(tX) / (exp X - 1)`` defines
``B_k(t)``; in particular ``B_k = B_k(0)`` and ``B_1 = -1/2``.

One integer table holds B_0, ..., B_(n-1) as numerators S_j over one common
denominator D (``_table``).  It is built from the tangent numbers in integer
arithmetic only (Knuth and Buckholtz, Math. Comp. 21, 1967), and rebuilt at
least an eighth longer when a larger index is asked for.

One integer kernel, ``_bernoulli_sums``, computes every sum of B_k(a/f) the
package reads.  It uses the identity f^k D B_k(a/f) = sum_j C(k,j) S_j f^j
a^(k-j).  That is a polynomial in a with integer coefficients, made one at
a time by one recurrence (``_coefficients``) in both of the kernel's modes.
Exact, each coefficient is fed at once to every point's Horner pass and
dropped, so no coefficient row is kept: at k = 4096 a row would hold 2049
numbers of up to k log2(f) bits each, and f is not bounded (``bernoulli
--t``).  ``bernoulli_poly`` and the exact Hurwitz and Z[1/m] nodes of
``lfunctions`` take the sums exact.

The interpolated L-values print max(ndigits, M) digits, 8 on the command
line, while a table entry at k = 500 has ~3000 bits.  So the kernel also
runs mod ell^W and returns the group numerators n_g = D f^k sum_(a in g)
B_k(a/f) mod ell^W.  There it keeps one coefficient row, since each entry
is below ell^W: the row is made once per call from the table entries
reduced mod ell^W, and each point runs one Horner loop over it.  The
reduced entries are kept per modulus (``_table_residues``), for at most
``_RESIDUE_MODULI`` moduli, each tied to the table's denominator D and
extended only up to the index asked for, so a table entry is reduced
once per modulus and D.
``_residue_node`` reads a node R / (D den), R = sum_g w_g n_g, off them to
N digits.  Its precision rule: with e = v(den) + v(D) (v(k) + v(D) + k v(f)
for a node over k D f^k), start at W = N + e + 2; when R != 0 mod ell^W
and W - v(R) >= N the node is ell^(v(R) - e) times the unit (R / ell^v(R))
(D den / ell^e)^-1 mod ell^N; when W - v(R) < N, W becomes v(R) + N; when
R = 0 mod ell^W, a node odd under a -> f - a is the exact zero, and any
other is raised once and then taken exact.  The cost is one row of k/2 + 1
entries and one Horner loop of k/2 steps per point, on numbers below
ell^W, ~N digits (only the binomial C(k,j), ~k bits, stays exact), in
place of products of the table's thousands of bits; the result is the
exact node encoded to N digits.  The Hurwitz, Z[1/m] and Dirichlet
interpolation routes go through it, and so do the class sums of
``_character_bernoulli`` whenever they are not taken exact.

Generalized Bernoulli numbers B_(k,chi) all come from one character sum,
``_character_bernoulli``.  Twisted Bernoulli numbers attached to powers of the
Teichmuller character are always formed with modulus ``ell`` (the character is
extended by zero on multiples of ``ell``), so the untwisted case automatically
carries the Euler factor ``1 - ell**(k-1)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul, pos

from .padic import _DIGIT_BUDGET, PadicNum, _int_valuation, _teichmuller_unit

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "gen_bernoulli",
]

# (D, [S_0, S_1, ...]) with B_j = S_j / D.  It is replaced as one tuple, so a
# concurrent reader never pairs a denominator with another table's numerators;
# two racing growths may leave the shorter table, which only costs a rebuild.
_TABLE: tuple[int, list[int]] = (1, [1])


def _build(n: int) -> tuple[int, list[int]]:
    """(D, S) for B_0..B_(n-1): B_(2i) = (-1)^(i-1) 2i T_i / (4^i (4^i - 1))
    from the tangent numbers T_1, T_2, ... = 1, 2, 16, ..., and B_j = 0 at odd
    j > 1; D is the lcm of the reduced denominators (2 for B_1 among them)."""
    half = (n - 1) // 2
    t = [0] * (half + 1)
    if half:
        t[1] = 1
    for i in range(2, half + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, half + 1):
        for j in range(i, half + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    dens = [4 ** i * (4 ** i - 1) for i in range(half + 1)]
    d = lcm(2, *(dens[i] // gcd(2 * i * t[i], dens[i]) for i in range(1, half + 1)))
    s = [d, -d // 2]
    for i in range(1, half + 1):
        s += [(-1) ** (i - 1) * 2 * i * t[i] * d // dens[i], 0]
        t[i] = 0  # drop each tangent number once read: the build holds about one table
    del s[n:]
    return d, s


# The largest index k the table is built to (see ``measures._CELL_BUDGET``).
_WEIGHT_BUDGET = 4096


def _table(k: int) -> tuple[int, list[int]]:
    """The table, grown to hold index k."""
    global _TABLE
    if k > _WEIGHT_BUDGET:
        raise ValueError(f"weight too large: k must be at most {_WEIGHT_BUDGET}")
    table = _TABLE
    if k >= len(table[1]):
        table = _TABLE = _build(max(k + 1, len(table[1]) * 9 // 8))
    return table


# Table residues per modulus: modulus -> (D, [S_0, ..., S_n] mod modulus).
# S_j = D B_j, so the residues hold while the table's D does, also across a
# growth.  An entry is replaced as one tuple, as ``_TABLE`` is; the cache is
# emptied when a new modulus would pass ``_RESIDUE_MODULI``.
_RESIDUES: dict[int, tuple[int, list[int]]] = {}
_RESIDUE_MODULI = 64


def _table_residues(k: int, modulus: int) -> tuple[int, list[int]]:
    """(D, [S_0, ..., S_k, ...] mod modulus): the table grown to index k,
    its entries reduced once per modulus and D and extended only up to k."""
    d, s = _table(k)
    known, res = _RESIDUES.get(modulus, (d, []))
    if known != d:
        res = []
    if len(res) <= k:
        if modulus not in _RESIDUES and len(_RESIDUES) >= _RESIDUE_MODULI:
            _RESIDUES.clear()
        res = res + [x % modulus for x in s[len(res):k + 1]]
        _RESIDUES[modulus] = (d, res)
    return d, res


def _coefficients(k: int, f: int, s, modulus: int | None = None):
    """The coefficients C(k,j) s_j f^j, j = 0, 2, ..., k, of f^k D B_k(a/f) as
    a polynomial in a^2 (the j = 1 term aside), made one at a time: exact, or
    each reduced mod ``modulus`` (the binomial itself stays exact)."""
    binom, fpow, f2 = 1, 1, f * f
    for j in range(0, k + 1, 2):
        c = binom * s[j] * fpow
        fpow *= f2
        if modulus:
            c %= modulus
            fpow %= modulus
        yield c
        binom = binom * ((k - j) * (k - j - 1)) // ((j + 1) * (j + 2))


def _bernoulli_sums(k: int, f: int, groups, modulus: int | None = None):
    """[sum over a in g of B_k(a/f) for g in groups], exact, for k >= 0 and
    f >= 1; a point may be any integer.  The even-j terms of f^k D B_k(a/f)
    form a^(k mod 2) times a polynomial in a^2, read by Horner's rule; the
    j = 1 term is k S_1 f a^(k-1).

    Exact, each coefficient is made once and fed at once to every point's
    Horner pass: no row of coefficients is kept, since at k = 4096 one would
    hold 2049 numbers of up to k log2(f) bits each, and f is not bounded.

    With a ``modulus`` it returns (D, [n_g mod modulus]), n_g = D f^k times
    the sum over g.  The coefficients are made from the table residues mod
    ``modulus`` (``_table_residues``) into one row of numbers below it, and
    each point runs one Horner loop over that row, every step reduced, so no
    product of two table-sized numbers is taken."""
    red = modulus.__rmod__ if modulus else pos
    points = [a for g in groups for a in g]
    if modulus:
        d, s = _table_residues(k, modulus)
        row = list(_coefficients(k, f, s, modulus))
        accs = []
        for a in points:
            x, acc = a * a % modulus, 0
            for c in row:
                acc = (acc * x + c) % modulus
            accs.append(acc)
    else:
        d, s = _table(k)
        squares, accs = [a * a for a in points], [0] * len(points)
        for c in _coefficients(k, f, s):
            accs = [acc * x + c for acc, x in zip(accs, squares)]
    if k:
        odd = red(k * s[1] * f)
        accs = [red((acc * a if k % 2 else acc) + odd * pow(a, k - 1, modulus))
                for acc, a in zip(accs, points)]
    values = iter(accs)
    sums = [red(sum(islice(values, len(g)))) for g in groups]
    if modulus:
        return d, sums
    den = d * f ** k
    return [Fraction(n, den) for n in sums]


def _residue_node(k: int, f: int, groups, weights, den: int, ell: int, N: int,
                  exact=None) -> PadicNum:
    """The node R / (D den) to exactly N digits, R = sum_g w_g n_g with n_g =
    D f^k sum_(a in g) B_k(a/f) the kernel's group numerators and w =
    ``weights(W)`` integers right mod ell^W, read from residues mod ell^W.
    It equals PadicNum.from_rational(node, ell, N) when the node is rational.

    Precision rule.  Let e = v(den) + v(D): for a node over k D f^k that is
    v(k) + v(D) + k v(f).  Start at W = N + e + 2.
    - If R != 0 mod ell^W and W - v(R) >= N, the node is PadicNum(ell, v(R) -
      e, unit, N): R mod ell^W fixes v(R) and the unit R / ell^v(R) mod
      ell^(W - v(R)), and D den / ell^e is a unit.
    - If W - v(R) < N, W is raised to v(R) + N.
    - If R = 0 mod ell^W: at odd k, when every group is closed under a ->
      f - a, the node is the exact zero, since B_k(1-x) = -B_k(x) (this is
      read before any sum); otherwise W is doubled once, and then the node
      is ``exact()``, encoded to N digits.  ``exact`` None marks a node
      known to be nonzero: its W is doubled until R != 0 mod ell^W.
    The cost is one kernel pass mod ell^W, about N digits, however long the
    table entries are."""
    vD = _int_valuation(_table(k)[0], ell)  # a weight past the budget is refused first
    if k % 2 and all(sorted(f - a for a in g) == sorted(g) for g in groups):
        return PadicNum.zero(ell)
    vden = _int_valuation(den, ell)
    W, raised = N + vden + vD + 2, False
    while True:
        mod = ell ** W
        d, nums = _bernoulli_sums(k, f, groups, mod)
        R = sum(map(mul, weights(W), nums)) % mod
        if R:
            v = _int_valuation(R, ell)
            if W - v >= N:
                e, known = vden + _int_valuation(d, ell), ell ** (W - v)
                unit = R // ell ** v * pow(d * den // ell ** e, -1, known)
                return PadicNum(ell, v - e, unit % known, N)
            W = v + N
        elif raised and exact is not None:
            return PadicNum.from_rational(exact(), ell, N)
        else:
            W, raised = 2 * W, True


def bernoulli_number(k: int) -> Fraction:
    """B_k, read from the integer table."""
    if k < 0:
        raise ValueError("k must be >= 0")
    d, s = _table(k)
    return Fraction(s[k], d)


def bernoulli_poly(k: int, t) -> Fraction:
    """B_k(t) for a rational t."""
    if k < 0:
        raise ValueError("k must be >= 0")
    t = Fraction(t)
    return _bernoulli_sums(k, t.denominator, [[t.numerator]])[0]


def _character_bernoulli(k: int, f: int, residue, ell: int, ndigits: int, exact: bool = True):
    """B_(k,chi) = f^(k-1) sum_(0<a<f) chi(a) B_k(a/f) for chi primitive mod f,
    chi(a) the root of unity = ``residue(a)`` mod ell: exact when chi is
    +-1-valued and ``exact`` is set, else a PadicNum of exactly ``ndigits``
    digits.  By a -> f-a it is the exact zero unless chi(-1) = (-1)^k, and
    twice the sum over a < f/2 then.  The PadicNum is read by
    ``_residue_node`` off the class sums over a < f/2 weighted by 2 omega(r),
    over D f; it is nonzero for a primitive chi of the right parity, so W is
    raised until its digits are known.  Its ndigits lies in [1,
    _DIGIT_BUDGET - 3]: the weights start at about ndigits + 3 digits."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rational = exact and {residue(a) for a in range(1, f)} <= {0, 1, ell - 1}
    if (residue(f - 1) == 1) != (k % 2 == 0):
        return Fraction(0) if rational else PadicNum.zero(ell)
    points: dict[int, list[int]] = {}
    for a in range(1, (f + 1) // 2):
        if r := residue(a):
            points.setdefault(r, []).append(a)
    if rational:
        plus, minus = _bernoulli_sums(k, f, [points.get(1, []), points.get(ell - 1, [])])
        return 2 * Fraction(f) ** (k - 1) * (plus - minus)
    if ndigits < 1:
        raise ValueError("nonzero value needs at least one digit")
    if ndigits + 3 > _DIGIT_BUDGET:
        raise ValueError(f"precision too large: ndigits must be at most {_DIGIT_BUDGET} digits")
    return _residue_node(k, f, list(points.values()),
                         lambda W: [2 * _teichmuller_unit(r, ell, W) for r in points],
                         f, ell, ndigits)


def gen_bernoulli(k: int, j: int, ell: int, ndigits: int) -> PadicNum:
    """Twisted Bernoulli number ``ell**(k-1) * sum_{a=1..ell-1} omega(a)**j *
    B_k(a/ell)`` for the j-th Teichmuller power, modulus ell (it vanishes at
    ``a = ell``), to ``ndigits`` digits; exactly zero when j, k differ in parity."""
    j %= ell - 1
    b = _character_bernoulli(k, ell, lambda a: pow(a, j, ell), ell, ndigits)
    return b if isinstance(b, PadicNum) else PadicNum.from_rational(b, ell, ndigits)
