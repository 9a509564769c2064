"""The quotient algebra a(X) + Y b(X) on Fraction coefficient lists.

This is the exact reference that ``elladic.ncseries`` is checked against:
the same series, group products, gamma assembly, inversion chain, scaled
pair, display formula and Bernoulli kernel, written coefficient by
coefficient in Fraction arithmetic, with B_k(t) read from the Fraction
``bernoulli_oracle.bernoulli_poly`` one weight at a time.  The package
computes them on integer numerators over one denominator instead.  It also
holds ``generic_power_sum``, the power sum over full quotient products that
the package's one-convolution sum is checked against, and ``dense_conv``,
the convolution over every pair of entries that its sparse one is checked
against.
"""

from fractions import Fraction
from math import factorial

from bernoulli_oracle import bernoulli_number, bernoulli_poly

Q0 = Fraction(0)
Q1 = Fraction(1)


def ptrim(f, D):
    f = list(f[: D + 1])
    f += [Q0] * (D + 1 - len(f))
    return f


def pmul(f, g, D):
    f, g = ptrim(f, D), ptrim(g, D)
    out = [Q0] * (D + 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j in range(0, D + 1 - i):
            if g[j]:
                out[i + j] += a * g[j]
    return out


def dense_conv(p, q, n):
    """The first n coefficients of the product of coefficient lists p and q,
    one product per pair of entries, zero or not: the reference for the
    package's sparse convolution."""
    out = [0] * n
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j < n:
                out[i + j] += a * b
    return out


def padd(f, g, D):
    f, g = ptrim(f, D), ptrim(g, D)
    return [a + b for a, b in zip(f, g)]


def pneg(f, D):
    return [-a for a in ptrim(f, D)]


def pscale(c, f, D):
    return [c * a for a in ptrim(f, D)]


def pcompose(f, g, D):
    """f(g(X)) with g(0) = 0."""
    g = ptrim(g, D)
    if g[0]:
        raise ValueError("inner series must have zero constant term")
    out = [Q0] * (D + 1)
    power = [Q1] + [Q0] * D
    for k, c in enumerate(ptrim(f, D)):
        if k:
            power = pmul(power, g, D)
        if c:
            out = padd(out, pscale(c, power, D), D)
    return out


def pexp_scalar(gamma, D):
    """exp(gamma * X)."""
    gamma = Fraction(gamma)
    return [gamma ** k / factorial(k) for k in range(D + 1)]


def p_em1_over(gamma, D):
    """(exp(gamma X) - 1)/(gamma X), equal to 1 when gamma = 0."""
    gamma = Fraction(gamma)
    return [gamma ** k / factorial(k + 1) for k in range(D + 1)]


def p_x_over_em1(gamma, D):
    """gamma X / (exp(gamma X) - 1) = sum B_k (gamma X)^k / k!; 1 when gamma = 0."""
    gamma = Fraction(gamma)
    return [bernoulli_number(k) * gamma ** k / factorial(k) for k in range(D + 1)]


def p_div_em1(num, gamma, D):
    """num / (exp(gamma X) - 1) for num with zero constant term, gamma != 0."""
    num = ptrim(num, D + 1)
    if num[0]:
        raise ValueError("numerator must vanish at 0")
    shifted = num[1:]
    return pscale(1 / Fraction(gamma), pmul(shifted, p_x_over_em1(gamma, D), D), D)


def bernoulli_kernel(chi, t, D):
    """sum_{k>=1} B_k(t) (1 - chi^k) / k! * X^(k-1), truncated at degree D."""
    chi, t = Fraction(chi), Fraction(t)
    out = []
    for k in range(1, D + 2):
        out.append(bernoulli_poly(k, t) * (1 - chi ** k) / factorial(k))
    return ptrim(out, D)


class ReducedSeries:
    __slots__ = ("degree", "a", "b")

    def __init__(self, degree: int, a=None, b=None):
        self.degree = degree
        self.a = ptrim(a or [], degree)
        self.b = ptrim(b or [], degree)

    def __add__(self, other):
        D = self.degree
        return ReducedSeries(D, padd(self.a, other.a, D), padd(self.b, other.b, D))

    def __neg__(self):
        D = self.degree
        return ReducedSeries(D, pneg(self.a, D), pneg(self.b, D))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        D = self.degree
        c = Fraction(c)
        return ReducedSeries(D, pscale(c, self.a, D), pscale(c, self.b, D))

    def __mul__(self, other):
        D = self.degree
        a = pmul(self.a, other.a, D)
        b = padd(pmul(self.b, other.a, D), pscale(self.a[0], other.b, D), D)
        return ReducedSeries(D, a, b)

    def exp(self):
        D = self.degree
        if self.a[0]:
            raise ValueError("exp needs zero constant term")
        # A^n = a^n + Y b a^(n-1), hence exp A = e^a + Y b (e^a - 1)/a
        ea = [Q0] * (D + 1)
        power = [Q1] + [Q0] * D
        tail = [Q0] * (D + 1)  # sum a^n/(n+1)!
        for n in range(D + 1):
            if n:
                power = pmul(power, self.a, D)
            ea = padd(ea, pscale(Fraction(1, factorial(n)), power, D), D)
            tail = padd(tail, pscale(Fraction(1, factorial(n + 1)), power, D), D)
        return ReducedSeries(D, ea, pmul(self.b, tail, D))

    def log(self):
        D = self.degree
        if self.a[0] != 1:
            raise ValueError("log needs constant term 1")
        wa = list(self.a)
        wa[0] = Q0
        la = [Q0] * (D + 1)
        lb_kernel = [Q0] * (D + 1)  # sum (-1)^n wa^n/(n+1)
        power = [Q1] + [Q0] * D
        for n in range(D + 1):
            if n:
                power = pmul(power, wa, D)
                la = padd(la, pscale(Fraction((-1) ** (n + 1), n), power, D), D)
            lb_kernel = padd(lb_kernel, pscale(Fraction((-1) ** n, n + 1), power, D), D)
        return ReducedSeries(D, la, pmul(self.b, lb_kernel, D))

    def truncate(self, degree: int):
        return ReducedSeries(degree, self.a[: degree + 1], self.b[: degree + 1])

    def __eq__(self, other):
        return isinstance(other, ReducedSeries) and self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"ReducedSeries[deg<={self.degree}](a={self.a}, b={self.b})"


def bch_reduced(alpha, phi1, beta, phi2, degree: int) -> ReducedSeries:
    """(alpha+beta) X + Y (phi1 E_alpha e^(beta X) + phi2 E_beta) K_(alpha+beta)."""
    D = degree
    alpha, beta = Fraction(alpha), Fraction(beta)
    phi1 = ptrim(phi1 if not isinstance(phi1, (int, Fraction)) else [phi1], D)
    phi2 = ptrim(phi2 if not isinstance(phi2, (int, Fraction)) else [phi2], D)
    part1 = pmul(pmul(phi1, p_em1_over(alpha, D), D), pexp_scalar(beta, D), D)
    part2 = pmul(phi2, p_em1_over(beta, D), D)
    b = pmul(padd(part1, part2, D), p_x_over_em1(alpha + beta, D), D)
    a = [Q0] * (D + 1)
    if D >= 1:
        a[1] = alpha + beta
    return ReducedSeries(D, a, b)


def gamma_series(chi, l_even, l_odd, degree: int) -> ReducedSeries:
    D = degree
    chi = Fraction(chi)
    ell_ser = [Q0] * (D + 1)
    for k, c in enumerate(l_even, start=1):
        if 2 * k - 1 <= D:
            ell_ser[2 * k - 1] = Fraction(c)
    for k, c in enumerate(l_odd, start=1):
        if 2 * k <= D:
            ell_ser[2 * k] = Fraction(c)
    at_z = pcompose(ell_ser, [Q0, Fraction(-1)] + [Q0] * (D - 1), D)
    mid = [Fraction(chi - 1, 2)] + [Q0] * D
    step = bch_reduced(0, pneg(at_z, D), 0, mid, D)
    return bch_reduced(0, step.b, 0, ell_ser, D)


def bch_scaled_pair(chi, t, degree: int) -> ReducedSeries:
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    phi1 = pscale(t, p_x_over_em1(1, D), D)
    phi2 = pscale(-t * chi, p_x_over_em1(chi, D), D)
    return bch_reduced(t, phi1, -t * chi, phi2, D)


def bch_scaled_pair_display(chi, t, degree: int):
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    if chi == 0:
        raise ValueError("chi must be nonzero")
    e1 = padd(pexp_scalar(t * (1 - chi), D + 1), pneg(pexp_scalar(-t * chi, D + 1), D + 1), D + 1)
    part1 = p_div_em1(e1, 1, D)
    e2 = padd(pexp_scalar(-t * chi, D + 1), pneg([Q1], D + 1), D + 1)
    part2 = p_div_em1(pscale(chi, e2, D + 1), chi, D)
    return pmul(padd(part1, part2, D), p_x_over_em1(t * (1 - chi), D), D)


def inversion_pipeline(a_coeffs, chi, t, degree: int) -> ReducedSeries:
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    a_poly = ptrim([Fraction(c) for c in a_coeffs], D)

    kernel = bernoulli_kernel(chi, 0, D)
    minus_x = [Q0, Fraction(-1)] + [Q0] * (D - 1)
    step1 = bch_reduced(0, pcompose(a_poly, minus_x, D), 0, kernel, D)

    z = ReducedSeries(D, minus_x, pneg(p_x_over_em1(1, D), D))
    conj1 = z.scale(-t).exp() * step1 * z.scale(t).exp()

    loop = bch_scaled_pair(chi, t, D)
    step3 = bch_reduced(0, conj1.b, t * (1 - chi), loop.b, D)

    ex_neg = ReducedSeries(D, pexp_scalar(-t, D), None)
    ex_pos = ReducedSeries(D, pexp_scalar(t, D), None)
    conj2 = ex_neg * step3 * ex_pos

    return bch_reduced(t * (1 - chi), conj2.b, t * (chi - 1), [Q0], D)


def inversion_closed_form(a_coeffs, chi, t, degree: int) -> ReducedSeries:
    D = degree
    a_poly = ptrim([Fraction(c) for c in a_coeffs], D)
    minus_x = [Q0, Fraction(-1)] + [Q0] * (D - 1)
    b = padd(pcompose(a_poly, minus_x, D), bernoulli_kernel(chi, t, D), D)
    return ReducedSeries(D, None, b)


def generic_power_sum(self, x, weights, wden):
    """sum_k weights[k]/wden * x^k for k <= degree + 1, x numerator rows
    over den with zero constant term.

    x^k is over den^k, so term k is weighted by den^(D+1-k) and the sum
    reduced once; the loop stops at the first power that vanishes.

    The reference for the quotient's one-convolution power sum: a method
    body for a subclass of ``elladic.ncseries.ReducedSeries``, taking every
    power as a full quotient product ``self._product``.
    """
    top, d = self.degree + 1, self.den
    power = [[0] * len(row) for row in x]
    power[0][0] = 1
    acc = [[weights[0] * d ** top * c for c in row] for row in power]
    for k in range(1, top + 1):
        power = self._product(power, x)
        if not any(map(any, power)):
            break
        w = weights[k] * d ** (top - k)
        acc = [[s + w * c for s, c in zip(r, q)] for r, q in zip(acc, power)]
    return self._make(self.degree, wden * d ** top, acc)
