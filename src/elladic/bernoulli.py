"""Bernoulli numbers and polynomials as exact rationals.

Conventions: the generating function ``X exp(tX) / (exp X - 1)`` defines
``B_k(t)``; in particular ``B_k = B_k(0)`` and ``B_1 = -1/2``.

Generalized Bernoulli numbers B_(k,chi) all come from one character sum,
``_character_bernoulli``.  Twisted Bernoulli numbers attached to powers of the
Teichmuller character are always formed with modulus ``ell`` (the character is
extended by zero on multiples of ``ell``), so the untwisted case automatically
carries the Euler factor ``1 - ell**(k-1)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .padic import PadicNum, _fraction_to_padic_abs, teichmuller

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "gen_bernoulli",
]

# Memo table for B_0, B_1, ...  Concurrent readers are safe: entries are
# immutable Fractions and insertion of an already-present index is idempotent.
_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli_number(k: int) -> Fraction:
    """B_k via the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cache = _BERNOULLI_CACHE
    while len(cache) <= k:
        m = len(cache)
        if m > 1 and m % 2 == 1:
            cache.append(Fraction(0))
            continue
        s = Fraction(0)
        for j in range(m):
            if cache[j]:
                s += comb(m + 1, j) * cache[j]
        cache.append(-s / (m + 1))
    return cache[k]


def bernoulli_poly_coeffs(k: int) -> list[Fraction]:
    """Coefficients c_0..c_k of B_k(t) = sum_j c_j t^j."""
    if k < 0:
        raise ValueError("k must be >= 0")
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = comb(k, j) * bernoulli_number(j)
    return coeffs


def bernoulli_poly(k: int, t) -> Fraction:
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(bernoulli_poly_coeffs(k)):
        acc = acc * t + c
    return acc


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
    classes: dict[int, Fraction] = {}
    for a in range(1, (f + 1) // 2):
        if r := residue(a):
            classes[r] = classes.get(r, 0) + bernoulli_poly(k, Fraction(a, f))
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
