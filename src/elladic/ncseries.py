"""Truncated power series in two non-commuting letters X, Y.

One oracle and two table series on one core:

* ``NcSeries`` — honest non-commutative series over Fraction, with exp/log and
  the group product bch(A, B) = log(exp A * exp B).  It is the exact oracle.
* ``_TableSeries`` — the core of the other two: rows of integer numerators
  over one positive denominator, reduced by one gcd.  It alone reduces, adds,
  scales and compares tables, and its one power sum sum_k w_k x^k gives exp
  (w_k = 1/k!) and log (w_k = (-1)^(k+1)/k).  A subclass gives its row
  shapes and the product of two numerator tables.
* ``OneYSeries`` — ``NcSeries`` modulo the two-sided ideal of words with two
  or more Y's: rows f[i] for X^i and g[i][j] for X^i Y X^j; the product is
  f1 f2 + f1 g2 + g1 f2.
* ``ReducedSeries`` — the image in the quotient by the two-sided ideal killing
  every word with two Y's and every word containing a factor X^i Y (i > 0).
  A class is written a(X) + Y*b(X), rows a and b; the induced multiplication
  is (a1 + Y b1)(a2 + Y b2) = a1 a2 + Y (b1 a2 + a1(0) b2).  The closed group
  product, the gamma assembly and the path-reversal chain are built on it.

One-variable series come in two forms.  A Fraction coefficient list serves
``pmul`` and the li/l helpers.  An integer table ``(nums, den)``, the
coefficients ``nums[k] / den`` with ``den > 0``, serves the quotient algebra;
the exponential, (e^X - 1)/X and X/(e^X - 1) series at gamma X are one
rescaling of a per-degree table of numerators, built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, gcd, lcm

from .bernoulli import bernoulli_number

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
# one-variable helpers on Fraction lists, truncated at degree D
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# one-variable series as integer tables (nums, den), den > 0
# ---------------------------------------------------------------------------


def _conv(p, q, n):
    """The first n coefficients of the product of coefficient lists p and q."""
    out = [0] * n
    for i, a in enumerate(p[:n]):
        if a:
            for j, b in enumerate(q[: n - i], i):
                out[j] += a * b
    return out


def _table(coeffs, n):
    """Rational coefficients as numerators over their least common
    denominator, truncated or padded with zeros to n entries."""
    coeffs = [Fraction(c) for c in coeffs][:n]
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs] + [0] * (n - len(coeffs)), den


def _fractions(table):
    nums, den = table
    return [Fraction(c, den) for c in nums]


def _add(x, y):
    (p, d), (q, e) = x, y
    g = gcd(d, e)
    u, v = e // g, d // g
    return [u * a + v * b for a, b in zip(p, q)], d * u


def _scale(x, c):
    c = Fraction(c)
    return [c.numerator * a for a in x[0]], x[1] * c.denominator


def _mul(x, y, n):
    return _conv(x[0], y[0], n), x[1] * y[1]


def _at(x, gamma):
    """The table of f(gamma X) for the table x of f: entry k times gamma^k,
    over the denominator times q^top for gamma = p/q."""
    gamma = Fraction(gamma)
    p, q = gamma.numerator, gamma.denominator
    top = max(len(x[0]) - 1, 0)
    out, pk, qk = [], 1, q ** top
    for c in x[0]:
        out.append(c * pk * qk)
        pk *= p
        qk //= q
    return out, x[1] * q ** top


@cache
def _factorial_table(n, shift):
    """Numerators of 1/(k + shift)! for k < n, over (n - 1 + shift)!."""
    top = factorial(n - 1 + shift)
    return tuple(top // factorial(k + shift) for k in range(n)), top


@cache
def _bernoulli_table(n):
    """Numerators of B_k/k! for k < n, over their least common denominator."""
    nums, den = _table([bernoulli_number(k) / factorial(k) for k in range(n)], n)
    return tuple(nums), den


def pexp_scalar(gamma, D):
    """exp(gamma * X) up to X^D, as an integer table."""
    return _at(_factorial_table(D + 1, 0), gamma)


def p_em1_over(gamma, D):
    """(exp(gamma X) - 1)/(gamma X) up to X^D, equal to 1 when gamma = 0."""
    return _at(_factorial_table(D + 1, 1), gamma)


def p_x_over_em1(gamma, D):
    """gamma X / (exp(gamma X) - 1) = sum B_k (gamma X)^k / k! up to X^D; 1 when
    gamma = 0."""
    return _at(_bernoulli_table(D + 1), gamma)


def p_div_em1(num, gamma, D):
    """num / (exp(gamma X) - 1) up to X^D, for a table num of D + 2 entries with
    zero constant term, gamma != 0."""
    nums, den = num
    if nums[0]:
        raise ValueError("numerator must vanish at 0")
    return _mul(_scale((nums[1:], den), 1 / Fraction(gamma)), p_x_over_em1(gamma, D), D + 1)


def _kernel_table(chi, t, D):
    """``bernoulli_kernel`` as a table: the coefficients of
    e^(tX) X/(e^X - 1) = sum B_k(t) X^k/k! minus their chi^k-scaled copy,
    shifted down by one."""
    c = _mul(pexp_scalar(t, D + 1), p_x_over_em1(1, D + 1), D + 2)
    nums, den = _add(c, _scale(_at(c, chi), -1))
    return nums[1:], den


def bernoulli_kernel(chi, t, D):
    """sum_{k>=1} B_k(t) (1 - chi^k) / k! * X^(k-1), truncated at degree D."""
    return _fractions(_kernel_table(chi, t, D))


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
# series on integer tables: rows of numerators over one denominator
# ---------------------------------------------------------------------------


class _TableSeries:
    """A series held as ``rows`` of integer numerators over one positive
    denominator ``den`` whose gcd with them is 1, so equal series have equal
    tables; ``rows[0][0]`` is the constant term.

    A subclass fixes the row shapes and ``_product``, the product of two
    numerator tables (over the product of their denominators).  Reduction,
    sums, scaling, comparison and exp/log live here.
    """

    __slots__ = ("degree", "den", "rows")

    def _fill(self, degree, rows):
        """Set the series from rows of rational entries."""
        nums, self.den = _table(chain.from_iterable(rows), sum(map(len, rows)))
        nums = iter(nums)
        self.degree, self.rows = degree, [[next(nums) for _ in row] for row in rows]

    @classmethod
    def _make(cls, degree, den, rows):
        """The series with numerator rows over den > 0, reduced by one gcd."""
        d = gcd(den, *chain.from_iterable(rows))
        if d > 1:
            den //= d
            rows = [[c // d for c in row] for row in rows]
        out = cls.__new__(cls)
        out.degree, out.den, out.rows = degree, den, rows
        return out

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
        if other.degree != self.degree:
            raise ValueError("degrees differ")

    def __add__(self, other):
        self._check(other)
        g = gcd(self.den, other.den)
        u, v = other.den // g, self.den // g
        return self._make(self.degree, self.den * u,
                          [[u * x + v * y for x, y in zip(r, s)]
                           for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        p = c.numerator
        return self._make(self.degree, self.den * c.denominator,
                          [[p * x for x in row] for row in self.rows])

    def __mul__(self, other):
        self._check(other)
        return self._make(self.degree, self.den * other.den, self._product(self.rows, other.rows))

    def _power_sum(self, x, weights, wden):
        """sum_k weights[k]/wden * x^k for k <= degree + 1, x numerator rows
        over den with zero constant term.

        The sum runs one power past the degree: in the quotient algebra the
        Y-part of x^(D+1) is Y b a^D, which reaches X^D.  x^k is over den^k,
        so term k is weighted by den^(D+1-k) and the sum reduced once.
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

    def exp(self):
        if self.rows[0][0]:
            raise ValueError("exp needs zero constant term")
        weights, top = _factorial_table(self.degree + 2, 0)
        return self._power_sum(self.rows, weights, top)

    def log(self):
        if self.rows[0][0] != self.den:
            raise ValueError("log needs constant term 1")
        n = self.degree + 2
        top = lcm(*range(1, n))
        weights = [0] + [(-1) ** (k + 1) * (top // k) for k in range(1, n)]
        return self._power_sum([[0] + self.rows[0][1:]] + self.rows[1:], weights, top)

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self.rows == other.rows

    def __repr__(self):
        return f"{type(self).__name__}[deg<={self.degree}](den={self.den}, rows={self.rows})"


# ---------------------------------------------------------------------------
# series with at most one Y
# ---------------------------------------------------------------------------


class OneYSeries(_TableSeries):
    """``NcSeries(degree, ..., max_y=1)`` on dense integer tables.

    ``f[i]`` is the numerator of X^i (i <= degree) and ``g[i][j]`` that of
    X^i Y X^j (i + j + 1 <= degree, so row ``degree`` is empty); the rows are
    f, g[0], ..., g[degree].  The product is f1 f2 + f1 g2 + g1 f2: the words
    of g1 g2 have two Y's and die.
    """

    __slots__ = ()

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
        self._fill(degree, [f, *g])

    @classmethod
    def from_tables(cls, degree: int, f=(), g=()) -> "OneYSeries":
        """sum f[i] X^i + sum g[i][j] X^i Y X^j over rational entries; entries
        beyond the degree window are dropped and missing ones read as 0."""
        out = cls.__new__(cls)
        g = list(g) + [()] * (degree + 1 - len(g))
        out._fill(degree, [ptrim(f, degree)] + [ptrim(g[i], degree - i - 1) for i in range(degree + 1)])
        return out

    @classmethod
    def variable(cls, name: str, degree: int) -> "OneYSeries":
        if name not in ("X", "Y"):
            raise ValueError("letters are X and Y")
        return cls(degree, {name: Q1})

    @property
    def f(self) -> list:
        return self.rows[0]

    @property
    def g(self) -> list:
        return self.rows[1:]

    def __getitem__(self, word: str) -> Fraction:
        _check_letters(word)
        if len(word) > self.degree or word.count("Y") > 1:
            return Q0
        i = word.find("Y")
        return Fraction(self.rows[0][len(word)] if i < 0 else self.rows[1 + i][len(word) - 1 - i],
                        self.den)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.rows[0][0], self.den)

    def _product(self, p, q):
        D = self.degree
        f1, f2 = p[0], q[0]
        rows = [_conv(f1, f2, D + 1)]
        for i in range(D + 1):
            row = _conv(f2, p[1 + i], D - i)  # X^i Y X^j * X^b
            for a in range(i + 1):  # X^a * X^(i-a) Y X^j
                c = f1[a]
                if c:
                    row = [r + c * v for r, v in zip(row, q[1 + i - a])]
            rows.append(row)
        return rows


def bch(a, b):
    """log(exp(a) * exp(b)), truncated; a and b are both ``NcSeries`` or both
    ``OneYSeries``."""
    if a.constant or b.constant:
        raise ValueError("bch needs zero constant terms")
    return (a.exp() * b.exp()).log()


# ---------------------------------------------------------------------------
# the quotient algebra a(X) + Y b(X)
# ---------------------------------------------------------------------------


class ReducedSeries(_TableSeries):
    """a(X) + Y b(X) up to X^degree in both parts.

    The rows are ``an`` and ``bn``, the numerators of a and b; ``a`` and
    ``b`` read them as Fraction lists.  The product is
    (a1 + Y b1)(a2 + Y b2) = a1 a2 + Y (b1 a2 + a1(0) b2).
    """

    __slots__ = ()

    def __init__(self, degree: int, a=None, b=None):
        self._fill(degree, [ptrim(a or [], degree), ptrim(b or [], degree)])

    @classmethod
    def _of(cls, degree, a=None, b=None) -> "ReducedSeries":
        """The series with tables a and b of degree + 1 entries; None is 0."""
        zero = ([0] * (degree + 1), 1)
        (an, da), (bn, db) = a or zero, b or zero
        g = gcd(da, db)
        u, v = db // g, da // g
        return cls._make(degree, da * u, [[u * c for c in an], [v * c for c in bn]])

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
            return cls._make(s.degree, s.den, [list(s.rows[0]), s.rows[1] + [0]])
        a = [Q0] * (s.degree + 1)
        b = [Q0] * (s.degree + 1)
        for w, c in s.coeffs.items():
            if "Y" not in w:
                a[len(w)] += c
            elif w[0] == "Y" and "Y" not in w[1:]:
                b[len(w) - 1] += c
        return cls(s.degree, a, b)

    @property
    def an(self) -> list:
        return self.rows[0]

    @property
    def bn(self) -> list:
        return self.rows[1]

    @property
    def a(self) -> list:
        return _fractions((self.an, self.den))

    @property
    def b(self) -> list:
        return _fractions((self.bn, self.den))

    def _product(self, p, q):
        n = self.degree + 1
        b = _conv(p[1], q[0], n)
        c = p[0][0]
        if c:
            b = [x + c * y for x, y in zip(b, q[1])]
        return [_conv(p[0], q[0], n), b]

    def truncate(self, degree: int) -> "ReducedSeries":
        """Forget coefficients beyond X-degree ``degree`` in both parts."""
        pad = [0] * (degree - self.degree)
        return ReducedSeries._make(degree, self.den, [(row + pad)[: degree + 1] for row in self.rows])


def _bch(alpha, phi1, beta, phi2, D) -> ReducedSeries:
    """``bch_reduced`` for rational alpha, beta and tables phi1, phi2 of D + 1
    entries."""
    n, gamma = D + 1, alpha + beta
    part1 = _mul(_mul(p_em1_over(alpha, D), phi1, n), pexp_scalar(beta, D), n)
    part2 = _mul(p_em1_over(beta, D), phi2, n)
    b = _mul(p_x_over_em1(gamma, D), _add(part1, part2), n)
    a = [0] * n
    if D >= 1:
        a[1] = gamma.numerator
    return ReducedSeries._of(D, (a, gamma.denominator), b)


def bch_reduced(alpha, phi1, beta, phi2, degree: int) -> ReducedSeries:
    """Closed form of the group product of alpha*X + Y phi1 and beta*X + Y phi2.

    Result: (alpha+beta) X + Y (phi1 * E_alpha * e^(beta X) + phi2 * E_beta)
    * K_(alpha+beta), where E_g = (e^(gX)-1)/(gX) and K_g = gX/(e^(gX)-1),
    both read as 1 at g = 0.
    """
    n = degree + 1
    phi1, phi2 = ([phi] if isinstance(phi, (int, Fraction)) else phi for phi in (phi1, phi2))
    return _bch(Fraction(alpha), _table(phi1, n), Fraction(beta), _table(phi2, n), degree)


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
    return pmul(ser, _fractions(p_em1_over(l_scalar, D)), D)


def l_from_li(l_scalar, li_coeffs, degree: int):
    D = degree - 1
    ser = ptrim([Fraction(c) for c in li_coeffs], D)
    return pmul(ser, _fractions(p_x_over_em1(l_scalar, D)), D)


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
    ell = _table(ell_ser, D + 1)
    # log S(Z,Y) reduces to Y * L(z_a) with z_a = -X
    at_z = _at(ell, -1)
    mid = _table([(chi - 1) / 2], D + 1)
    step = _bch(Q0, _scale(at_z, -1), Q0, mid, D)
    return _bch(Q0, (step.bn, step.den), Q0, ell, D)


def bch_scaled_pair(chi, t, degree: int) -> ReducedSeries:
    """log of the commutator-free loop: (t*(X o Y)) o (-t*(chi X o chi Y)).

    This is the group-product recomputation that the display formula
    ``bch_scaled_pair_display`` is checked against.
    """
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    phi1 = _scale(p_x_over_em1(1, D), t)
    phi2 = _scale(p_x_over_em1(chi, D), -t * chi)
    return _bch(t, phi1, -t * chi, phi2, D)


def bch_scaled_pair_display(chi, t, degree: int):
    """The multi-line closed expression for the same series (b-part only)."""
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    if chi == 0:
        raise ValueError("chi must be nonzero")
    e1 = _add(pexp_scalar(t * (1 - chi), D + 1), _scale(pexp_scalar(-t * chi, D + 1), -1))
    part1 = p_div_em1(e1, 1, D)
    e2 = _add(pexp_scalar(-t * chi, D + 1), ([-1] + [0] * (D + 1), 1))
    part2 = p_div_em1(_scale(e2, chi), chi, D)
    return _fractions(_mul(_add(part1, part2), p_x_over_em1(t * (1 - chi), D), D + 1))


def inversion_pipeline(a_coeffs, chi, t, degree: int) -> ReducedSeries:
    """Mechanical group-product chain computing the reversed-path log series.

    a_coeffs are the coefficients of A(X) = sum a_k X^(k-1); chi and t are
    rational scalars.  All conjugations and group products are carried out in
    the quotient algebra; nothing is taken from the closed form (which lives
    in ``inversion_closed_form`` for comparison).
    """
    D = degree
    n = D + 1
    chi, t = Fraction(chi), Fraction(t)
    a_poly = _table(a_coeffs, n)

    kernel = _kernel_table(chi, 0, D)  # 1/(e^X-1) - chi/(e^(chi X)-1)
    step1 = _bch(Q0, _at(a_poly, -1), Q0, kernel, D)

    minus_x = ([0, -1] + [0] * D)[:n]
    z = ReducedSeries._of(D, (minus_x, 1), _scale(p_x_over_em1(1, D), -1))
    conj1 = z.scale(-t).exp() * step1 * z.scale(t).exp()

    loop = bch_scaled_pair(chi, t, D)
    step3 = _bch(Q0, (conj1.bn, conj1.den), t * (1 - chi), (loop.bn, loop.den), D)

    ex_neg = ReducedSeries._of(D, pexp_scalar(-t, D))
    ex_pos = ReducedSeries._of(D, pexp_scalar(t, D))
    conj2 = ex_neg * step3 * ex_pos

    return _bch(t * (1 - chi), (conj2.bn, conj2.den), t * (chi - 1), ([0] * n, 1), D)


def inversion_closed_form(a_coeffs, chi, t, degree: int) -> ReducedSeries:
    """A(-X) + e^(tX)/(e^X - 1) - chi e^(t chi X)/(e^(chi X) - 1), as Y-part."""
    b = _add(_at(_table(a_coeffs, degree + 1), -1), _kernel_table(chi, t, degree))
    return ReducedSeries._of(degree, None, b)
