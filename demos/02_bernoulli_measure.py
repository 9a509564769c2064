"""The regularized Bernoulli measure as a coset-value tower.

Shows the stored tables, the coherence property, the odd symmetry that
powers the unit-integral halving trick, and Riemann-sum integration with
tracked precision.
"""

from fractions import Fraction

from elladic import Factor, bernoulli_measure, integrate, restrict

ell, c = 5, 2
E = bernoulli_measure(c, ell, depth=4)

print(f"tower for c={c} at ell={ell}, depth {E.depth}, denominator exponent {E.denom_exponent}")
print("level 0 (total mass):", E.levels[0][0])
print("level 1 values:      ", [str(v) for v in E.levels[1]])

print("\ncoherence: each value equals the sum of its five children")
parent = E.value(1, (2,))
children = [E.value(2, (2 + 5 * j,)) for j in range(5)]
print(f"  value at 2 mod 5 = {parent} = sum{[str(v) for v in children]}")

print("\nodd symmetry E(m - i) = -E(i):")
print("  ", all(E.value(2, (25 - i,)) == -E.value(2, (i,)) for i in range(1, 25)))

print("\nintegration (unit-restricted):")
Eu = restrict(E)
m1 = integrate(Eu, (Factor(power=1),), 4)
print(f"  first moment over units: {m1}")
print(f"  closed form (1-5)(1-c^2) B_2 / 2 = "
      f"{(1 - 5) * (1 - c * c) * Fraction(1, 6) / 2}")

mellin_style = integrate(Eu, (Factor(inverse=True, teich=2, bracket=2),), 4)
print(f"  [x]^2 x^-1 omega(x)^2 integrand (simplifies to x): {mellin_style}")
