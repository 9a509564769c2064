"""The Bernoulli unit integral unit by unit.

This is the exact reference that ``elladic.measures.bernoulli_unit_integral``
is checked against: one loop over every unit g^j of level n, which steps x,
c^(-1) x and the integrand weight r^j together and adds twice the measure of
each unit times its weight.  The package sums half the units, by the
x -> -x symmetry, over one cached coefficient row per (c, ell, level), in
blocks of about sqrt(n) units.
"""

from fractions import Fraction

from elladic.measures import Factor, _check_bernoulli, _precision_plan
from elladic.padic import smallest_regularizer, teichmuller, _fraction_to_padic_abs


def bernoulli_unit_integral(c: int, ell: int, level: int, beta: int, s):
    _check_bernoulli(c, ell, level)
    if level < 1:
        raise ValueError("region not expressible at available depth")
    factor = Factor(inverse=True, teich=beta, bracket=s)
    prec, K, [(a, b)] = _precision_plan(ell, (factor,), level, 0)
    modK, m = ell ** K, ell ** level
    g = smallest_regularizer(ell)
    r = pow(g, a, modK) * pow(teichmuller(g, ell, K).residue(K), b, modK) % modK
    x, y, w, total = 1, pow(c, -1, m), 1, 0
    for _ in range(m - m // ell):
        total += w * (2 * ((x - c * y) // m) + c - 1)
        x, y, w = x * g % m, y * g % m, w * r % modK
    return _fraction_to_padic_abs(Fraction(total % modK, 2), ell, prec)
