"""Truncated power series in two non-commuting letters X, Y.

One oracle and two table series on one core:

* ``NcSeries`` — honest non-commutative series over Fraction, with exp/log and
  the group product bch(A, B) = log(exp A * exp B).  It is the exact oracle.
* ``_TableSeries`` — the core of the other two: rows of integer numerators
  over one positive denominator, reduced by one gcd.  It alone reduces, adds,
  scales, compares and stacks tables.  A subclass gives the product of two
  numerator tables.
* ``_Poly`` — a one-variable series f(X), one row left unreduced; the product
  is the truncated convolution.  Every closed form in X is one: e^(gamma X),
  (e^(gamma X) - 1)/(gamma X) and gamma X/(e^(gamma X) - 1) are one rescaling
  ``at(gamma)`` of a cached per-degree series, and the Bernoulli kernel is
  built from them.
* ``ReducedSeries`` — the image in the quotient by the two-sided ideal killing
  every word with two Y's and every word containing a factor X^i Y (i > 0).
  A class is written a(X) + Y*b(X), rows a and b; the induced multiplication
  is (a1 + Y b1)(a2 + Y b2) = a1 a2 + Y (b1 a2 + a1(0) b2).  The closed group
  product, the gamma assembly and the path-reversal chain are built on it,
  with a and b as ``_Poly``; ``verify bch`` runs the mechanical
  log(e^A e^B) on it too, since the quotient map and the X-degree window
  commute with the truncated exp and log power sums.  Its one power sum
  sum_k w_k x^k gives exp (w_k = 1/k!) and log (w_k = (-1)^(k+1)/k) at one
  convolution per power: x^k = a^k + Y b a^(k-1) when a(0) = 0.

Cost model: work follows the series' nonzero terms.  A convolution costs one
multiplication per pair of nonzero entries whose degrees sum below the cut,
and the power sum adds each power of a into its two sums at that power's
nonzero entries only; so the exp of a linear a = c X costs O(D) per power
(the exps of ``verify bch`` and of the inversion chain's t Z), and a dense
log costs what dense convolutions cost.  No product by 0 or 1 is taken: the
group product skips the factors of a zero scalar (E_0 = e^0 = K_0 = 1) and of
a zero series, and the kernel at t = 0 skips e^(0 X).  ``inversion_parts``
builds the chain's (chi, t)-only parts once, for a caller to share among
the checks of one (chi, t).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import factorial, gcd, lcm

from .bernoulli import bernoulli_number

__all__ = [
    "NcSeries",
    "ReducedSeries",
    "bch",
    "bch_reduced",
    "gamma_series",
    "inversion_parts",
    "inversion_pipeline",
    "inversion_closed_form",
    "bch_scaled_pair",
    "bernoulli_kernel",
]

Q0 = Fraction(0)
Q1 = Fraction(1)

# The highest X-degree the ``verify`` suites check (see
# ``measures._CELL_BUDGET``).  ``verify bch``, the costliest suite, grows
# about as degree^6: 0.4 s at degree 32 and 1.1 s at 40 (py3.11, one core
# of a shared 2-core box).
_DEGREE_BUDGET = 32


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


def _rational(c):
    """c as an int or Fraction, rebuilt only if it is neither: ``Fraction(c)``
    costs an abstract-class check, a large share of a small table operation."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _conv(p, q, n):
    """The first n coefficients of the product of coefficient lists p and q,
    at one multiplication per pair of nonzero entries that lands below n."""
    out = [0] * n
    terms = [(j, b) for j, b in enumerate(q[:n]) if b]
    for i, a in enumerate(p[:n]):
        if a:
            for j, b in terms:
                j += i
                if j >= n:
                    break
                out[j] += a * b
    return out


class _TableSeries:
    """A series held as ``rows`` of integer numerators over one positive
    denominator ``den`` whose gcd with them is 1, so equal series have equal
    tables (``_Poly`` alone skips the gcd); ``rows[0][0]`` is the constant
    term.

    A subclass fixes ``_product``, the product of two numerator tables
    (over the product of their denominators).  Reduction, sums, scaling,
    comparison and stacking live here.
    """

    __slots__ = ("degree", "den", "rows")

    def _fill(self, degree, rows):
        """Set the series from rows of rational entries, each cut at or
        padded with zeros to degree + 1 entries."""
        n = degree + 1
        rows = [list(map(_rational, islice(row, max(n, 0)))) for row in rows]
        self.degree = degree
        self.den = den = lcm(*(c.denominator for row in rows for c in row))
        self.rows = [[c.numerator * (den // c.denominator) for c in row] + [0] * (n - len(row))
                     for row in rows]

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

    @classmethod
    def _stack(cls, *parts):
        """The series whose rows are those of the series ``parts``, in order,
        over their least common denominator."""
        den, rows = lcm(*(p.den for p in parts)), []
        for p in parts:
            u = den // p.den
            rows += [[u * c for c in row] for row in p.rows]
        return cls._make(parts[0].degree, den, rows)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.rows[0][0], self.den)

    def _row(self, i):
        """Row i as a one-variable series."""
        row = self.rows[i]
        return _Poly._make(len(row) - 1, self.den, [row])

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
        c = _rational(c)
        p = c.numerator
        return self._make(self.degree, self.den * c.denominator,
                          [[p * x for x in row] for row in self.rows])

    def __mul__(self, other):
        self._check(other)
        return self._make(self.degree, self.den * other.den, self._product(self.rows, other.rows))

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self.rows == other.rows

    def __repr__(self):
        return f"{type(self).__name__}[deg<={self.degree}](den={self.den}, rows={self.rows})"


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------


class _Poly(_TableSeries):
    """f(X) up to X^degree: one row of degree + 1 numerators, not reduced (a
    gcd after each product made the inversion chain about a fifth slower);
    ``_stack`` reduces it into a ``ReducedSeries``, and ``==`` cross-multiplies.
    """

    __slots__ = ()

    def __init__(self, degree: int, coeffs=()):
        self._fill(degree, [coeffs])

    @classmethod
    def _make(cls, degree, den, rows):
        out = cls.__new__(cls)
        out.degree, out.den, out.rows = degree, den, rows
        return out

    def __eq__(self, other):
        return (type(other) is _Poly
                and [c * other.den for c in self.rows[0]] == [c * self.den for c in other.rows[0]])

    def _product(self, p, q):
        return [_conv(p[0], q[0], self.degree + 1)]

    @property
    def coeffs(self) -> list:
        return [Fraction(c, self.den) for c in self.rows[0]]

    def at(self, gamma) -> "_Poly":
        """f(gamma X): entry k times gamma^k, over the denominator times
        q^degree for gamma = p/q."""
        gamma = _rational(gamma)
        p, q = gamma.numerator, gamma.denominator
        top = max(self.degree, 0)
        row, pk, qk = [], 1, q ** top
        for c in self.rows[0]:
            row.append(c * pk * qk)
            pk *= p
            qk //= q
        return self._make(self.degree, self.den * q ** top, [row])

    def div_x(self) -> "_Poly":
        """f(X)/X, one degree lower, for f vanishing at 0."""
        if self.rows[0][0]:
            raise ValueError("numerator must vanish at 0")
        return self._make(self.degree - 1, self.den, [self.rows[0][1:]])


@cache
def _factorial_table(n, shift):
    """sum X^k/(k + shift)! for k < n, over (n - 1 + shift)!."""
    top = factorial(n - 1 + shift)
    return _Poly._make(n - 1, top, [[top // factorial(k + shift) for k in range(n)]])


@cache
def _bernoulli_table(n):
    """sum B_k X^k/k! for k < n."""
    return _Poly(n - 1, [bernoulli_number(k) / factorial(k) for k in range(n)])


def pexp_scalar(gamma, D):
    """exp(gamma * X) up to X^D."""
    return _factorial_table(D + 1, 0).at(gamma)


def p_em1_over(gamma, D):
    """(exp(gamma X) - 1)/(gamma X) up to X^D, equal to 1 when gamma = 0."""
    return _factorial_table(D + 1, 1).at(gamma)


def p_x_over_em1(gamma, D):
    """gamma X / (exp(gamma X) - 1) = sum B_k (gamma X)^k / k! up to X^D; 1 when
    gamma = 0."""
    return _bernoulli_table(D + 1).at(gamma)


def p_div_em1(num, gamma):
    """num / (exp(gamma X) - 1), one degree below num, for num with zero
    constant term and gamma != 0."""
    return num.div_x().scale(1 / Fraction(gamma)) * p_x_over_em1(gamma, num.degree - 1)


def _kernel_table(chi, t, D):
    """``bernoulli_kernel`` as a series: e^(tX) X/(e^X - 1) = sum B_k(t) X^k/k!
    minus its chi^k-scaled copy, divided by X."""
    c = p_x_over_em1(1, D + 1)
    if t:
        c = pexp_scalar(t, D + 1) * c
    return (c - c.at(chi)).div_x()


def bernoulli_kernel(chi, t, D):
    """sum_{k>=1} B_k(t) (1 - chi^k) / k! * X^(k-1), truncated at degree D."""
    return _kernel_table(chi, t, D).coeffs


def bch(a, b):
    """log(exp(a) * exp(b)), truncated; a and b are both ``NcSeries`` or both
    ``ReducedSeries``, of one degree."""
    if a.constant or b.constant:
        raise ValueError("bch needs zero constant terms")
    return (a.exp() * b.exp()).log()


# ---------------------------------------------------------------------------
# the quotient algebra a(X) + Y b(X)
# ---------------------------------------------------------------------------


class ReducedSeries(_TableSeries):
    """a(X) + Y b(X) up to X^degree in both parts.

    ``rows`` holds the numerators of a and b; ``a`` and ``b`` read them as
    Fraction lists.  The product is
    (a1 + Y b1)(a2 + Y b2) = a1 a2 + Y (b1 a2 + a1(0) b2).
    """

    __slots__ = ()

    def __init__(self, degree: int, a=None, b=None):
        self._fill(degree, [a or [], b or []])

    @classmethod
    def from_series(cls, s) -> "ReducedSeries":
        """Quotient map: words with two Y's or an X-before-Y factor die.

        Survivors are X^j (into a) and Y X^j (into b) of an ``NcSeries``.
        Note the total-degree window of the input: a degree-D series carries
        Y X^j only for j <= D-1, so when comparing against the one-variable
        calculus compute the full route one degree higher and ``truncate``.
        """
        a = [Q0] * (s.degree + 1)
        b = [Q0] * (s.degree + 1)
        for w, c in s.coeffs.items():
            if "Y" not in w:
                a[len(w)] += c
            elif w[0] == "Y" and "Y" not in w[1:]:
                b[len(w) - 1] += c
        return cls(s.degree, a, b)

    @property
    def a(self) -> list:
        return self._row(0).coeffs

    @property
    def b(self) -> list:
        return self._row(1).coeffs

    def _product(self, p, q):
        n = self.degree + 1
        b = _conv(p[1], q[0], n)
        c = p[0][0]
        if c:
            b = [x + c * y for x, y in zip(b, q[1])]
        return [_conv(p[0], q[0], n), b]

    def _power_sum(self, x, weights, wden):
        """sum_k weights[k]/wden * x^k for k <= degree + 1, x numerator rows
        over den with zero constant term, at one convolution per power.

        For x = a + Y b with a(0) = 0 and k >= 1, x^k = a^k + Y b a^(k-1):
        the a1(0) b2 term of x^(k-1) * x vanishes.  So the sum is
        sum_k w_k a^k + Y b * sum_(k>=1) w_k a^(k-1).  a^(D+1) vanishes up to
        X^D, but the sum runs one power past the degree, since the Y-part of
        x^(D+1) is Y b a^D, which reaches X^D.  x^k is over den^k, so term k
        is weighted by den^(D+1-k) and the sum reduced once; each power is
        added at its nonzero entries only, and the loop stops at the first
        power of a that vanishes.
        """
        n, d = self.degree + 1, self.den
        a, b = x
        acc = [weights[0] * d ** n] + [0] * (n - 1)
        tail = [weights[1] * d ** (n - 1)] + [0] * (n - 1)
        power = a
        for k in range(1, n):
            if k > 1:
                power = _conv(power, a, n)
            terms = [(i, c) for i, c in enumerate(power) if c]
            if not terms:
                break
            w, v = weights[k] * d ** (n - k), weights[k + 1] * d ** (n - k - 1)
            for i, c in terms:
                acc[i] += w * c
                tail[i] += v * c
        return self._make(self.degree, wden * d ** n, [acc, _conv(b, tail, n)])

    def exp(self):
        if self.rows[0][0]:
            raise ValueError("exp needs zero constant term")
        w = _factorial_table(self.degree + 2, 0)
        return self._power_sum(self.rows, w.rows[0], w.den)

    def log(self):
        if self.rows[0][0] != self.den:
            raise ValueError("log needs constant term 1")
        n = self.degree + 2
        top = lcm(*range(1, n))
        weights = [0] + [(-1) ** (k + 1) * (top // k) for k in range(1, n)]
        return self._power_sum([[0] + self.rows[0][1:]] + self.rows[1:], weights, top)

    def truncate(self, degree: int) -> "ReducedSeries":
        """Forget coefficients beyond X-degree ``degree`` in both parts; the
        coefficients above the series' own degree are unknown, so a higher
        ``degree`` is refused."""
        if degree > self.degree:
            raise ValueError(f"cannot truncate a degree-{self.degree} series to degree {degree}")
        return ReducedSeries._make(degree, self.den, [row[: degree + 1] for row in self.rows])


def _bch(alpha, phi1, beta, phi2) -> ReducedSeries:
    """``bch_reduced`` for rational alpha, beta and one-variable series phi1,
    phi2 of one degree.  E_0 = e^0 = K_0 = 1, so a zero scalar skips its
    factors; most calls of the gamma assembly and the inversion chain have
    one.  A zero phi skips its factors too: the chain's last step has one."""
    D, gamma = phi1.degree, alpha + beta
    if any(phi1.rows[0]):
        if alpha:
            phi1 = phi1 * p_em1_over(alpha, D)
        if beta:
            phi1 = phi1 * pexp_scalar(beta, D)
    if beta and any(phi2.rows[0]):
        phi2 = phi2 * p_em1_over(beta, D)
    b = phi1 + phi2
    if gamma:
        b = b * p_x_over_em1(gamma, D)
    return ReducedSeries._stack(_Poly(D, [0, gamma]), b)


def bch_reduced(alpha, phi1, beta, phi2, degree: int) -> ReducedSeries:
    """Closed form of the group product of alpha*X + Y phi1 and beta*X + Y phi2.

    Result: (alpha+beta) X + Y (phi1 * E_alpha * e^(beta X) + phi2 * E_beta)
    * K_(alpha+beta), where E_g = (e^(gX)-1)/(gX) and K_g = gX/(e^(gX)-1),
    both read as 1 at g = 0.
    """
    phi1, phi2 = ([phi] if isinstance(phi, (int, Fraction)) else phi for phi in (phi1, phi2))
    return _bch(Fraction(alpha), _Poly(degree, phi1), Fraction(beta), _Poly(degree, phi2))


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
    ell = _Poly(D, ell_ser)
    # log S(Z,Y) reduces to Y * L(z_a) with z_a = -X
    step = _bch(Q0, ell.at(-1).scale(-1), Q0, _Poly(D, [(chi - 1) / 2]))
    return _bch(Q0, step._row(1), Q0, ell)


def bch_scaled_pair(chi, t, degree: int) -> ReducedSeries:
    """log of the commutator-free loop: (t*(X o Y)) o (-t*(chi X o chi Y)).

    This is the group-product recomputation that the display formula
    ``_display_table`` is checked against.
    """
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    phi1 = p_x_over_em1(1, D).scale(t)
    phi2 = p_x_over_em1(chi, D).scale(-t * chi)
    return _bch(t, phi1, -t * chi, phi2)


def _display_table(chi, t, degree: int) -> _Poly:
    """The multi-line closed expression for ``bch_scaled_pair`` (b-part only),
    as a one-variable series."""
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    if chi == 0:
        raise ValueError("chi must be nonzero")
    e = pexp_scalar(-t * chi, D + 1)
    part1 = p_div_em1(pexp_scalar(t * (1 - chi), D + 1) - e, 1)
    part2 = p_div_em1((e - _Poly(D + 1, [1])).scale(chi), chi)
    return (part1 + part2) * p_x_over_em1(t * (1 - chi), D)


def inversion_parts(chi, t, degree: int) -> tuple:
    """The parts of ``inversion_pipeline`` that depend on (chi, t, degree)
    alone, for a caller that runs the chain on many A: the kernel
    1/(e^X-1) - chi/(e^(chi X)-1), exp(-t Z) and exp(t Z) for
    Z = -X - Y X/(e^X-1), and e^(-tX) and e^(tX) as quotient series."""
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    zero = _Poly(D)
    z = ReducedSeries._stack(_Poly(D, [0, -1]), p_x_over_em1(1, D).scale(-1))
    return (_kernel_table(chi, 0, D), z.scale(-t).exp(), z.scale(t).exp(),
            ReducedSeries._stack(pexp_scalar(-t, D), zero),
            ReducedSeries._stack(pexp_scalar(t, D), zero))


def inversion_pipeline(a_coeffs, chi, t, degree: int, loop=None, parts=None) -> ReducedSeries:
    """Mechanical group-product chain computing the reversed-path log series.

    a_coeffs are the coefficients of A(X) = sum a_k X^(k-1); chi and t are
    rational scalars.  All conjugations and group products are carried out in
    the quotient algebra; nothing is taken from the closed form (which lives
    in ``inversion_closed_form`` for comparison).  ``loop`` is
    ``bch_scaled_pair(chi, t, degree)`` and ``parts`` is
    ``inversion_parts(chi, t, degree)`` when the caller has them already.
    """
    D = degree
    chi, t = Fraction(chi), Fraction(t)
    kernel, z_neg, z_pos, ex_neg, ex_pos = parts or inversion_parts(chi, t, D)
    step1 = _bch(Q0, _Poly(D, a_coeffs).at(-1), Q0, kernel)
    conj1 = z_neg * step1 * z_pos

    if loop is None:
        loop = bch_scaled_pair(chi, t, D)
    step3 = _bch(Q0, conj1._row(1), t * (1 - chi), loop._row(1))
    conj2 = ex_neg * step3 * ex_pos

    return _bch(t * (1 - chi), conj2._row(1), t * (chi - 1), _Poly(D))


def inversion_closed_form(a_coeffs, chi, t, degree: int) -> ReducedSeries:
    """A(-X) + e^(tX)/(e^X - 1) - chi e^(t chi X)/(e^(chi X) - 1), as Y-part."""
    b = _Poly(degree, a_coeffs).at(-1) + _kernel_table(chi, t, degree)
    return ReducedSeries._stack(_Poly(degree), b)
