"""Fixed-precision ell-adic numbers and exact Bernoulli data.

Every value below is computed twice where a second route exists, so the
printout doubles as a correctness walk-through.
"""

from fractions import Fraction

from elladic import (
    PadicNum,
    bernoulli_number,
    bernoulli_poly,
    gen_bernoulli,
    one_unit_pow,
    teichmuller,
    unit_decompose,
)

ell = 5

print("== roots of unity ==")
om2 = teichmuller(2, ell, 6)
print(f"the (ell-1)-st root of unity congruent to 2 mod 5: {om2}")
print(f"  check: om^4 = {(om2 ** 4).residue(6)} (mod 5^6)")

print("\n== unit decomposition x = omega(x) * [x] ==")
x = PadicNum.from_rational(2, ell, 2)
om, br = unit_decompose(x)
print(f"2 = {om.residue(2)} * {br.residue(2)}  (mod 25), bracket = 1 mod 5")

print("\n== one-unit powers with ell-adic exponents ==")
u = PadicNum.from_rational(6, ell, 2)
root = one_unit_pow(u, Fraction(1, 2))
print(f"6^(1/2) mod 25 = {root.residue(2)};  check {root.residue(2)}^2 = "
      f"{pow(root.residue(2), 2, 25)} mod 25")

print("\n== Bernoulli numbers and polynomials ==")
print(f"B_12 = {bernoulli_number(12)}")
print(f"B_2(1/3) = {bernoulli_poly(2, Fraction(1, 3))}")
m, k = 6, 4
dist = Fraction(m) ** (k - 1) * sum(bernoulli_poly(k, Fraction(i, m)) for i in range(m))
print(f"distribution identity at (m,k)=({m},{k}): {dist} == B_4 = {bernoulli_number(4)}")

print("\n== twisted Bernoulli numbers (modulus ell, character omega^j) ==")
for j in (0, 1, 2):
    v = gen_bernoulli(2, j, ell, 6)
    print(f"  j={j}: {v}")
print("j=0 carries the Euler factor: (1-5)*B_2 =", (1 - 5) * bernoulli_number(2))
