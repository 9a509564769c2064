"""Truncated power series in two non-commuting letters X, Y.

Three layers:

* ``NcSeries`` — honest non-commutative series over Fraction, with exp/log and
  the group product bch(A, B) = log(exp A * exp B).  It is the exact oracle.
* ``OneYSeries`` — the same series modulo the two-sided ideal of words with
  two or more Y's, held as integer tables over one shared denominator: f[i]
  for X^i and g[i][j] for X^i Y X^j.  Its exp/log/bch run the same series
  loops as ``NcSeries``, with the two-Y part of every product dropped.
* ``ReducedSeries`` — the image in the quotient by the two-sided ideal killing
  every word with two Y's and every word containing a factor X^i Y (i > 0).
  A class is written a(X) + Y*b(X); the induced multiplication is
  (a1 + Y b1)(a2 + Y b2) = a1 a2 + Y (b1 a2 + a1(0) b2).

All scalars default to Fraction; the one-variable helpers only use +, *, / so
they accept any field-like coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

from .bernoulli import bernoulli_number, bernoulli_poly

__all__ = [
    "NcSeries",
    "OneYSeries",
    "ReducedSeries",
    "bch",
    "bch_reduced",
    "li_from_l",
    "l_from_li",
    "gamma_series",
    "inversion_pipeline",
    "inversion_closed_form",
    "bch_scaled_pair",
    "bch_scaled_pair_display",
    "bernoulli_kernel",
]

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# one-variable polynomial helpers (coefficient lists, truncated at degree D)
# ---------------------------------------------------------------------------


def ptrim(f, D):
    f = list(f[: D + 1])
    f += [Q0] * (D + 1 - len(f))
    return f


def padd(f, g, D):
    f, g = ptrim(f, D), ptrim(g, D)
    return [a + b for a, b in zip(f, g)]


def pneg(f, D):
    return [-a for a in ptrim(f, D)]


def pscale(c, f, D):
    return [c * a for a in ptrim(f, D)]


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


def pinv(f, D):
    f = ptrim(f, D)
    if not f[0]:
        raise ValueError("series not invertible: zero constant term")
    out = [Q0] * (D + 1)
    out[0] = Q1 / f[0]
    for n in range(1, D + 1):
        s = sum(f[k] * out[n - k] for k in range(1, n + 1))
        out[n] = -s / f[0]
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


# ---------------------------------------------------------------------------
# full non-commutative series
# ---------------------------------------------------------------------------


def _check_letters(word: str) -> None:
    if word.strip("XY"):
        raise ValueError("letters are X and Y")


class NcSeries:
    """Series over words in {X, Y}, truncated beyond total degree ``degree``.

    ``max_y`` optionally truncates further by the two-sided ideal of words
    with more than max_y letters Y.  Quotient maps compose, so any reduction
    that only reads words with at most some count of Y's (such as
    ``ReducedSeries.from_series``, which reads at most one) is unaffected when
    max_y >= that count.
    """

    __slots__ = ("degree", "max_y", "coeffs")

    def __init__(self, degree: int, coeffs=None, max_y: int | None = None):
        self.degree = degree
        self.max_y = max_y
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                _check_letters(w)
                if len(w) <= degree and c:
                    if max_y is not None and w.count("Y") > max_y:
                        continue
                    self.coeffs[w] = Fraction(c)

    @classmethod
    def variable(cls, name: str, degree: int, max_y: int | None = None) -> "NcSeries":
        if name not in ("X", "Y"):
            raise ValueError("letters are X and Y")
        return cls(degree, {name: Q1}, max_y)

    @classmethod
    def one(cls, degree: int, max_y: int | None = None) -> "NcSeries":
        return cls(degree, {"": Q1}, max_y)

    def __getitem__(self, word: str) -> Fraction:
        return self.coeffs.get(word, Q0)

    @property
    def constant(self) -> Fraction:
        return self.coeffs.get("", Q0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, Q0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return NcSeries(self.degree, out, self.max_y)

    def __neg__(self):
        return NcSeries(self.degree, {w: -c for w, c in self.coeffs.items()}, self.max_y)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NcSeries":
        c = Fraction(c)
        if not c:
            return NcSeries(self.degree, None, self.max_y)
        return NcSeries(self.degree, {w: c * v for w, v in self.coeffs.items()}, self.max_y)

    def __mul__(self, other):
        D = self.degree
        cap = self.max_y
        by_len: dict[int, list] = {}
        for w, c in other.coeffs.items():
            by_len.setdefault(len(w), []).append((w, c, w.count("Y")))
        out: dict[str, Fraction] = {}
        for w1, c1 in self.coeffs.items():
            room = D - len(w1)
            if room < 0:
                continue
            y1 = w1.count("Y") if cap is not None else 0
            for length, items in by_len.items():
                if length > room:
                    continue
                for w2, c2, y2 in items:
                    if cap is not None and y1 + y2 > cap:
                        continue
                    w = w1 + w2
                    v = out.get(w, Q0) + c1 * c2
                    if v:
                        out[w] = v
                    else:
                        out.pop(w, None)
        return NcSeries(D, out, cap)

    def exp(self) -> "NcSeries":
        if self.constant:
            raise ValueError("exp needs zero constant term")
        acc = NcSeries.one(self.degree, self.max_y)
        term = NcSeries.one(self.degree, self.max_y)
        for n in range(1, self.degree + 1):
            term = (term * self).scale(Fraction(1, n))
            if not term.coeffs:
                break
            acc = acc + term
        return acc

    def log(self) -> "NcSeries":
        if self.constant != 1:
            raise ValueError("log needs constant term 1")
        w = self - NcSeries.one(self.degree, self.max_y)
        acc = NcSeries(self.degree, None, self.max_y)
        term = NcSeries.one(self.degree, self.max_y)
        for n in range(1, self.degree + 1):
            term = term * w
            if not term.coeffs:
                break
            acc = acc + term.scale(Fraction((-1) ** (n + 1), n))
        return acc

    def __eq__(self, other):
        return isinstance(other, NcSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        items = sorted(self.coeffs.items(), key=lambda t: (len(t[0]), t[0]))
        body = " + ".join(f"{c}*{w or '1'}" for w, c in items[:8])
        more = "" if len(items) <= 8 else f" ... ({len(items)} terms)"
        return f"NcSeries[deg<={self.degree}]({body}{more})"


# ---------------------------------------------------------------------------
# series with at most one Y, on integer tables
# ---------------------------------------------------------------------------


def _conv(p, q, n):
    """The first n coefficients of the product of coefficient lists p and q."""
    out = [0] * n
    for i, a in enumerate(p[:n]):
        if a:
            for j, b in enumerate(q[: n - i], i):
                out[j] += a * b
    return out


class OneYSeries:
    """``NcSeries(degree, ..., max_y=1)`` on dense integer tables.

    ``f[i]`` is the numerator of X^i (i <= degree) and ``g[i][j]`` that of
    X^i Y X^j (i + j + 1 <= degree, so row ``degree`` is empty), all over one
    positive denominator ``den`` whose gcd with the numerators is 1, so equal
    series have equal tables.  The product is f1 f2 + f1 g2 + g1 f2: the
    words of g1 g2 have two Y's and die.
    """

    __slots__ = ("degree", "den", "f", "g")

    def __init__(self, degree: int, coeffs=None):
        f = [Q0] * (degree + 1)
        g = [[Q0] * (degree - i) for i in range(degree + 1)]
        for w, c in (coeffs or {}).items():
            _check_letters(w)
            if len(w) > degree or w.count("Y") > 1:
                continue
            i = w.find("Y")
            if i < 0:
                f[len(w)] = Fraction(c)
            else:
                g[i][len(w) - 1 - i] = Fraction(c)
        self._fill(degree, f, g)

    @classmethod
    def from_tables(cls, degree: int, f=(), g=()) -> "OneYSeries":
        """sum f[i] X^i + sum g[i][j] X^i Y X^j over rational entries; entries
        beyond the degree window are dropped and missing ones read as 0."""
        out = cls.__new__(cls)
        out._fill(degree, f, g)
        return out

    def _fill(self, degree, f, g):
        f = [Fraction(c) for c in f[: degree + 1]]
        g = [[Fraction(c) for c in row[: degree - i]] for i, row in enumerate(g[: degree + 1])]
        den = lcm(*(c.denominator for c in chain(f, *g)))

        def numerators(row, n):
            return [c.numerator * (den // c.denominator) for c in row] + [0] * (n - len(row))

        self.degree, self.den = degree, den
        self.f = numerators(f, degree + 1)
        self.g = [numerators(g[i] if i < len(g) else [], degree - i) for i in range(degree + 1)]

    @classmethod
    def _make(cls, degree, den, f, g) -> "OneYSeries":
        """The series with numerators f, g over den > 0, reduced by one gcd."""
        d = gcd(den, *f, *chain.from_iterable(g))
        if d > 1:
            den //= d
            f = [c // d for c in f]
            g = [[c // d for c in row] for row in g]
        out = cls.__new__(cls)
        out.degree, out.den, out.f, out.g = degree, den, f, g
        return out

    @classmethod
    def variable(cls, name: str, degree: int) -> "OneYSeries":
        if name not in ("X", "Y"):
            raise ValueError("letters are X and Y")
        return cls(degree, {name: Q1})

    @classmethod
    def one(cls, degree: int) -> "OneYSeries":
        return cls.from_tables(degree, [Q1])

    def __getitem__(self, word: str) -> Fraction:
        _check_letters(word)
        if len(word) > self.degree or word.count("Y") > 1:
            return Q0
        i = word.find("Y")
        return Fraction(self.f[len(word)] if i < 0 else self.g[i][len(word) - 1 - i], self.den)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.f[0], self.den)

    def __bool__(self):
        return any(self.f) or any(map(any, self.g))

    def _check_degree(self, other):
        if other.degree != self.degree:
            raise ValueError("degrees differ")

    def __add__(self, other):
        self._check_degree(other)
        den = lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        f = [u * a + v * b for a, b in zip(self.f, other.f)]
        g = [[u * a + v * b for a, b in zip(r, s)] for r, s in zip(self.g, other.g)]
        return OneYSeries._make(self.degree, den, f, g)

    def __neg__(self):
        return OneYSeries._make(self.degree, self.den, [-c for c in self.f],
                                [[-c for c in row] for row in self.g])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "OneYSeries":
        c = Fraction(c)
        p = c.numerator
        return OneYSeries._make(self.degree, self.den * c.denominator, [p * a for a in self.f],
                                [[p * a for a in row] for row in self.g])

    def __mul__(self, other):
        self._check_degree(other)
        D = self.degree
        f1, g1, f2, g2 = self.f, self.g, other.f, other.g
        g = []
        for i in range(D + 1):
            row = _conv(f2, g1[i], D - i)  # X^i Y X^j * X^b
            for a in range(i + 1):  # X^a * X^(i-a) Y X^j
                c = f1[a]
                if c:
                    row = [r + c * v for r, v in zip(row, g2[i - a])]
            g.append(row)
        return OneYSeries._make(D, self.den * other.den, _conv(f1, f2, D + 1), g)

    def exp(self) -> "OneYSeries":
        if self.f[0]:
            raise ValueError("exp needs zero constant term")
        acc = term = OneYSeries.one(self.degree)
        for n in range(1, self.degree + 1):
            term = (term * self).scale(Fraction(1, n))
            if not term:
                break
            acc = acc + term
        return acc

    def log(self) -> "OneYSeries":
        if self.constant != 1:
            raise ValueError("log needs constant term 1")
        w = self - OneYSeries.one(self.degree)
        acc = OneYSeries.from_tables(self.degree)
        term = OneYSeries.one(self.degree)
        for n in range(1, self.degree + 1):
            term = term * w
            if not term:
                break
            acc = acc + term.scale(Fraction((-1) ** (n + 1), n))
        return acc

    def __eq__(self, other):
        return (isinstance(other, OneYSeries) and self.den == other.den
                and self.f == other.f and self.g == other.g)

    def __repr__(self):
        return f"OneYSeries[deg<={self.degree}](den={self.den}, f={self.f}, g={self.g})"


def bch(a, b):
    """log(exp(a) * exp(b)), truncated; a and b are both ``NcSeries`` or both
    ``OneYSeries``."""
    if a.constant or b.constant:
        raise ValueError("bch needs zero constant terms")
    return (a.exp() * b.exp()).log()


# ---------------------------------------------------------------------------
# the quotient algebra a(X) + Y b(X)
# ---------------------------------------------------------------------------


class ReducedSeries:
    __slots__ = ("degree", "a", "b")

    def __init__(self, degree: int, a=None, b=None):
        self.degree = degree
        self.a = ptrim(a or [], degree)
        self.b = ptrim(b or [], degree)

    @classmethod
    def from_series(cls, s) -> "ReducedSeries":
        """Quotient map: words with two Y's or an X-before-Y factor die.

        Survivors are X^j (into a) and Y X^j (into b); of a ``OneYSeries``
        these are its tables f and g[0].  Note the total-degree window of the
        input: a degree-D series carries Y X^j only for j <= D-1, so when
        comparing against the one-variable calculus compute the full route
        one degree higher and ``truncate``.
        """
        if isinstance(s, OneYSeries):
            return cls(s.degree, [Fraction(c, s.den) for c in s.f],
                       [Fraction(c, s.den) for c in s.g[0]])
        a = [Q0] * (s.degree + 1)
        b = [Q0] * (s.degree + 1)
        for w, c in s.coeffs.items():
            if "Y" not in w:
                a[len(w)] += c
            elif w[0] == "Y" and "Y" not in w[1:]:
                b[len(w) - 1] += c
        return cls(s.degree, a, b)

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

    def exp(self) -> "ReducedSeries":
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

    def log(self) -> "ReducedSeries":
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

    def truncate(self, degree: int) -> "ReducedSeries":
        """Forget coefficients beyond X-degree ``degree`` in both parts."""
        return ReducedSeries(degree, self.a[: degree + 1], self.b[: degree + 1])

    def __eq__(self, other):
        return (
            isinstance(other, ReducedSeries)
            and self.a == other.a
            and self.b == other.b
        )

    def __repr__(self):
        return f"ReducedSeries[deg<={self.degree}](a={self.a}, b={self.b})"


def bch_reduced(alpha, phi1, beta, phi2, degree: int) -> ReducedSeries:
    """Closed form of the group product of alpha*X + Y phi1 and beta*X + Y phi2.

    Result: (alpha+beta) X + Y (phi1 * E_alpha * e^(beta X) + phi2 * E_beta)
    * K_(alpha+beta), where E_g = (e^(gX)-1)/(gX) and K_g = gX/(e^(gX)-1),
    both read as 1 at g = 0.
    """
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


# ---------------------------------------------------------------------------
# polylog-style coefficient calculus
# ---------------------------------------------------------------------------


def li_from_l(l_scalar, l_coeffs, degree: int):
    """Turn (l, l_1..l_D) into li_1..li_D.

    The li generating series is the l generating series times
    (exp(l X) - 1)/(l X); the coefficient of X^(n-1) is li_n.
    """
    D = degree - 1
    ser = ptrim([Fraction(c) for c in l_coeffs], D)
    out = pmul(ser, p_em1_over(Fraction(l_scalar), D), D)
    return out


def l_from_li(l_scalar, li_coeffs, degree: int):
    D = degree - 1
    ser = ptrim([Fraction(c) for c in li_coeffs], D)
    return pmul(ser, pinv(p_em1_over(Fraction(l_scalar), D), D), D)


# ---------------------------------------------------------------------------
# the loop-reversal calculus in the quotient algebra
# ---------------------------------------------------------------------------


def gamma_series(chi, l_even, l_odd, degree: int) -> ReducedSeries:
    """Group-product assembly of the inversion loop's log series.

    Inputs: even-index coefficients l_2, l_4, ... and free odd-index
    coefficients l_3, l_5, ... of a one-Y log series sum l_k Y X^(k-1)
    (l_1 = 0).  Computes (-log S(Z,Y)) o ((chi-1)/2 * Y) o (log S(X,Y)) in the
    quotient, where Z = -X - Y X/(e^X - 1).  The odd coefficients cancel.
    """
    D = degree
    chi = Fraction(chi)
    ell_ser = [Q0] * (D + 1)  # coefficient of X^(k-1) is l_k
    for k, c in enumerate(l_even, start=1):
        if 2 * k - 1 <= D:
            ell_ser[2 * k - 1] = Fraction(c)
    for k, c in enumerate(l_odd, start=1):
        if 2 * k <= D:
            ell_ser[2 * k] = Fraction(c)
    # log S(Z,Y) reduces to Y * L(z_a) with z_a = -X
    at_z = pcompose(ell_ser, [Q0, Fraction(-1)] + [Q0] * (D - 1), D)
    mid = [Fraction(chi - 1, 2)] + [Q0] * D
    step = bch_reduced(0, pneg(at_z, D), 0, mid, D)
    return bch_reduced(0, step.b, 0, ell_ser, D)


def bch_scaled_pair(chi, t, degree: int) -> ReducedSeries:
    """log of the commutator-free loop: (t*(X o Y)) o (-t*(chi X o chi Y)).

    This is the group-product recomputation that the display formula
    ``bch_scaled_pair_display`` is checked against.
    """
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    phi1 = pscale(t, p_x_over_em1(1, D), D)
    phi2 = pscale(-t * chi, p_x_over_em1(chi, D), D)
    return bch_reduced(t, phi1, -t * chi, phi2, D)


def bch_scaled_pair_display(chi, t, degree: int):
    """The multi-line closed expression for the same series (b-part only)."""
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
    """Mechanical group-product chain computing the reversed-path log series.

    a_coeffs are the coefficients of A(X) = sum a_k X^(k-1); chi and t are
    rational scalars.  All conjugations and group products are carried out in
    the quotient algebra; nothing is taken from the closed form (which lives
    in ``inversion_closed_form`` for comparison).
    """
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    a_poly = ptrim([Fraction(c) for c in a_coeffs], D)

    kernel = bernoulli_kernel(chi, 0, D)  # 1/(e^X-1) - chi/(e^(chi X)-1)
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
    """A(-X) + e^(tX)/(e^X - 1) - chi e^(t chi X)/(e^(chi X) - 1), as Y-part."""
    D = degree
    a_poly = ptrim([Fraction(c) for c in a_coeffs], D)
    minus_x = [Q0, Fraction(-1)] + [Q0] * (D - 1)
    b = padd(pcompose(a_poly, minus_x, D), bernoulli_kernel(chi, t, D), D)
    return ReducedSeries(D, None, b)
