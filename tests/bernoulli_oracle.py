"""Bernoulli numbers and polynomials on Fractions, one index at a time.

This is the exact reference that ``elladic.bernoulli`` is checked against:
B_k from the defining recurrence, the coefficient list of B_k(t) and B_k(t)
by Horner's rule, all in Fraction arithmetic.  The package reads B_k from one
integer table built from the tangent numbers and evaluates every B_k(a/f) sum
with one integer kernel instead.
"""

from fractions import Fraction
from math import comb

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
