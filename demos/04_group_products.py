"""Noncommutative series, the one-Y quotient, and the reversal pipeline.

The group product log(e^A e^B) is computed on words, then mechanically in
the quotient algebra, where it is compared with its closed form; then the full
path-reversal chain is run mechanically and found to match its closed form
coefficient by coefficient -- all in exact rational arithmetic.
"""

from fractions import Fraction

from elladic import (
    NcSeries,
    ReducedSeries,
    bch,
    bch_reduced,
    bernoulli_kernel,
    gamma_series,
    inversion_closed_form,
    inversion_pipeline,
)
from elladic.bernoulli import bernoulli_number
from math import factorial

D = 8

print("== the group product on words ==")
full = bch(NcSeries.variable("X", 2), NcSeries.variable("Y", 2))
print(f"log(e^X e^Y) degree-2 part: {full['XY']} XY + {full['YX']} YX")

print("\n== reduced mod the one-Y quotient ==")
red = bch(ReducedSeries(D, [0, 1]), ReducedSeries(D, None, [1]))
closed = bch_reduced(1, [0], 0, [1], D)
print("X o Y = X + Y * X/(e^X - 1):", red == closed)
print("b-coefficients are Bernoulli numbers over factorials:")
print("  ", [str(c) for c in red.b[:5]])

print("\n== the scaled-pair kernel ==")
chi = Fraction(3)
l_even = [
    bernoulli_number(2 * k) / (2 * factorial(2 * k)) * (1 - chi ** (2 * k))
    for k in range(1, 6)
]
out = gamma_series(chi, l_even, [Fraction(7), Fraction(-2)], 10)
print("assembled kernel equals sum B_k/k! (1-chi^k) X^(k-1):",
      out.b == bernoulli_kernel(chi, 0, 10))

print("\n== the full reversal chain ==")
a = [Fraction(1), Fraction(-2), Fraction(1, 3)]
chi, t = Fraction(2), Fraction(1, 3)
got = inversion_pipeline(a, chi, t, D)
want = inversion_closed_form(a, chi, t, D)
print("pipeline output minus closed form is identically zero:", got == want)
print("first few output coefficients:", [str(c) for c in got.b[:4]])
