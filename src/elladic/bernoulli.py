"""Bernoulli numbers and polynomials as exact rationals, computed on integers.

Conventions: the generating function ``X exp(tX) / (exp X - 1)`` defines
``B_k(t)``; in particular ``B_k = B_k(0)`` and ``B_1 = -1/2``.

One integer table holds B_0, ..., B_(n-1) as numerators S_j over one common
denominator D (``_table``).  It is built from the tangent numbers in integer
arithmetic only (Knuth and Buckholtz, Math. Comp. 21, 1967), and rebuilt at
least an eighth longer when a larger index is asked for.

One integer kernel, ``_bernoulli_sums``, computes every sum of B_k(a/f) the
package reads.  It uses the identity f^k D B_k(a/f) = sum_j C(k,j) S_j f^j
a^(k-j).  That is a polynomial in a with integer coefficients.  Each
coefficient is made once per call and fed at once to every point's Horner
pass, so no coefficient row is kept.
``bernoulli_poly``, the class sums of ``_character_bernoulli``, and the
Hurwitz and Z[1/m] nodes of ``lfunctions`` all go through it.

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

from .padic import PadicNum, _fraction_to_padic_abs, teichmuller

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


def _bernoulli_sums(k: int, f: int, groups) -> list[Fraction]:
    """[sum over a in g of B_k(a/f) for g in groups], exact, for k >= 0 and
    f >= 1; a point may be any integer.  The even-j terms of f^k D B_k(a/f)
    form a^(k mod 2) times a polynomial in a^2, read by one Horner pass over
    all points at once, each coefficient made once and dropped once used;
    the j = 1 term is k S_1 f a^(k-1)."""
    d, s = _table(k)
    points = [a for g in groups for a in g]
    squares, accs = [a * a for a in points], [0] * len(points)
    binom, fpow, f2 = 1, 1, f * f
    for j in range(0, k + 1, 2):
        c = binom * s[j] * fpow
        accs = [acc * x + c for acc, x in zip(accs, squares)]
        binom = binom * (k - j) * (k - j - 1) // ((j + 1) * (j + 2))
        fpow *= f2
    if k:
        odd = k * s[1] * f
        accs = [(acc * a if k % 2 else acc) + odd * a ** (k - 1) for acc, a in zip(accs, points)]
    values, den = iter(accs), d * f ** k
    return [Fraction(sum(islice(values, len(g))), den) for g in groups]


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


def _character_bernoulli(k: int, f: int, residue, ell: int, ndigits: int):
    """B_(k,chi) = f^(k-1) sum_(0<a<f) chi(a) B_k(a/f) for chi primitive mod f,
    chi(a) the root of unity = ``residue(a)`` mod ell: exact when chi is
    +-1-valued, else a PadicNum of exactly ``ndigits`` digits.  By a -> f-a it
    is the exact zero unless chi(-1) = (-1)^k, and twice the sum over a < f/2
    then.  Each sum over one value of chi has valuation >= -1; it is encoded to
    absolute precision ``ndigits + 2``, raised until the digits are known (this
    ends: B_(k,chi) != 0 for a primitive chi of the right parity)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rational = {residue(a) for a in range(1, f)} <= {0, 1, ell - 1}
    if (residue(f - 1) == 1) != (k % 2 == 0):
        return Fraction(0) if rational else PadicNum.zero(ell)
    points: dict[int, list[int]] = {}
    for a in range(1, (f + 1) // 2):
        if r := residue(a):
            points.setdefault(r, []).append(a)
    classes = dict(zip(points, _bernoulli_sums(k, f, points.values())))
    scale = 2 * Fraction(f) ** (k - 1)
    if rational:
        return scale * (classes.get(1, 0) - classes.get(ell - 1, 0))
    acc, work = PadicNum.zero(ell), ndigits + 2
    while acc.unit == 0 or acc.ndigits < ndigits:
        acc = sum((_fraction_to_padic_abs(scale * t, ell, work) * teichmuller(r, ell, work + 1)
                   for r, t in classes.items()), PadicNum.zero(ell))
        work += ndigits
    return acc.reduce_digits(ndigits)


def gen_bernoulli(k: int, j: int, ell: int, ndigits: int) -> PadicNum:
    """Twisted Bernoulli number ``ell**(k-1) * sum_{a=1..ell-1} omega(a)**j *
    B_k(a/ell)`` for the j-th Teichmuller power, modulus ell (it vanishes at
    ``a = ell``), to ``ndigits`` digits; exactly zero when j, k differ in parity."""
    j %= ell - 1
    b = _character_bernoulli(k, ell, lambda a: pow(a, j, ell), ell, ndigits)
    return b if isinstance(b, PadicNum) else PadicNum.from_rational(b, ell, ndigits)
