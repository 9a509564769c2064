"""ell-adic L-functions built on the Bernoulli measure and its relatives.

Evaluation strategies:

* measure route — regularized unit-group integral against the Bernoulli
  measure for the zeta-type family, summed as integers mod ell^level over
  half the units of one level with no tower built (``bernoulli_unit_integral``:
  the x -> -x symmetry gives the other half, so the digits are the same);
* interpolation route — pick the integer weight k >= 1 with k = beta mod
  (ell-1) and k = s mod ell^M, evaluate the closed Bernoulli expression there.
  Kummer-type congruences make the result correct to M digits (minus the
  valuation drop of the value itself).  Every family is read off its node,
  a function of k alone, by the one helper ``_read_off``; a weight past the
  Bernoulli table's budget is refused before any work.

Each node is sign * front * Euler * (1/k) sum_(0<=a<F) w(a) B_k(a/F), with
w = 0 off the classes named:

    family     F  w(a)                Euler factor                  front    sign
    kl         1  1 at 0              1 - ell^(k-1)                 1        -
    minus-one  1  1 at 0              kl's times (2^(1-k) - 1)      1        -
    zinv       1  1 at 0              kl's times prod_(p | m)       1        +
                                      (p^(1-k) - 1)
    hurwitz    m  1 at i, -ell^(k-1)  1                             1        +
                  at <i/ell>
    dirichlet  m  psi(a)              1 - psi(ell) ell^(k-1)        m^(k-1)  -

So minus-one and zinv are the exact kl node times Euler factors.  The zinv
node carries prod_p (p^(1-k) - 1) exactly at the weight k; minus-one, and
``zinv_report``'s product route, read each factor at s as
p omega(p)^(-beta) [p]^(-s) - 1 (``_euler_factor``).  The Hurwitz
and Dirichlet nodes are read off Bernoulli residues mod ell^W to
max(_DIGITS, M) digits (``bernoulli._residue_node``, whose docstring has the
precision rule), never as exact rationals of thousands of bits; the result
is the exact node encoded to those digits.  The sign - is the classical
L(1-k, psi) = -B_(k,psi)/k.  Hurwitz and zinv keep +, against the classical
zeta(1-k, x) = -B_k(x)/k, because the classical sign would change every
value they print (``zinv_report``'s product route carries it: its ``sign``
is -1).  The Dirichlet front factor -omega(m)^beta [m]^s / m is read at k as
-m^(k-1): the two differ by [m]^(s-k) = 1 mod ell^(M+1), past every claimed
digit.  At beta = 0 and s = 0, the pole of L_ell(1-s, omega^0), every
family but dirichlet (a primitive psi != 1 has no pole) is refused before
any work (``_check_pole``); near the pole, at beta = 0 and a weight
divisible by ell, the same families lose v(k) digits to it and dirichlet
does not.

At an exact weight (an integer s >= 1 with s = beta mod (ell-1)) k = s and
the value is the node, to ``_DIGITS`` (8) digits, or the exact zero when the
node vanishes.  Only ``kl_node`` and ``dirichlet_node`` take another digit
count, as ``ndigits``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernoulli import (
    _WEIGHT_BUDGET,
    _bernoulli_sums,
    _character_bernoulli,
    _residue_node,
    bernoulli_number,
    gen_bernoulli,
)
from .measures import _CELL_BUDGET, bernoulli_unit_integral
from .padic import _DIGIT_BUDGET, PadicNum, is_odd_prime, one_unit_pow, residue_mod, smallest_regularizer, teichmuller, unit_decompose, _angle_from_scalar, _check_prime, _frac_val

__all__ = [
    "SigmaDependentError",
    "DirichletCharacter",
    "interpolation_weight",
    "kl_node",
    "kl_node_rational",
    "kubota_leopoldt",
    "minus_one_l",
    "hurwitz_node",
    "hurwitz_l",
    "classical_dirichlet_special",
    "dirichlet_node",
    "dirichlet_l",
    "zinv_node",
    "zinv_l",
    "zinv_report",
]


# The digits of a value at an exact weight, and the default digits of the
# nodes; every interpolated node is worked to at least this many.
_DIGITS = 8

# The largest modulus m = prod(primes) of a Z[1/m] L-value (see
# ``measures._CELL_BUDGET``).
_MODULUS_BUDGET = 10 ** 7


class SigmaDependentError(ValueError):
    """Raised when a requested variant has no path-independent value."""


# ---------------------------------------------------------------------------
# Dirichlet characters with values among the (ell-1)-st roots of unity
# ---------------------------------------------------------------------------


class DirichletCharacter:
    """Character mod m realized through Teichmuller lifts at the prime ell.

    The table maps each unit a mod m to an integer v coprime to ell; the
    actual value is the root of unity congruent to v mod ell.  Values at
    non-units are zero.  The table and ``residue`` are the whole interface:
    a value is ``teichmuller(psi.residue(a), ell, ndigits)``, exactly +-1
    when the residue is 1 or ell - 1.
    """

    __slots__ = ("modulus", "ell", "_residues")

    def __init__(self, modulus: int, values: dict, ell: int):
        _check_prime(ell)
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if modulus % ell == 0:
            raise ValueError("m divisible by ell")
        # the multiplicativity check below reads every pair of units
        if modulus ** 2 > _CELL_BUDGET:
            raise ValueError(f"modulus too large: m^2 must be at most {_CELL_BUDGET}")
        units = [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]
        for a, v in values.items():
            if a not in units:
                raise ValueError(f"value table entry {a}={v}: {a} is not a unit in [1, {modulus})")
        res = {}
        for a in units:
            if a not in values:
                raise ValueError(f"value table incomplete: missing {a}")
            v = values[a] % ell
            if v == 0:
                raise ValueError("character values outside Z_ell: not a unit")
            res[a] = v
        for a in units:
            for b in units:
                if res[a] * res[b] % ell != res[a * b % modulus]:
                    raise ValueError(
                        "character values outside Z_ell: table is not "
                        "multiplicative into the (ell-1)-st roots of unity"
                    )
        self.modulus = modulus
        self.ell = ell
        self._residues = res
        if not self._is_primitive():
            raise ValueError("character is not primitive")

    def _is_primitive(self) -> bool:
        m = self.modulus
        return not any(
            all(v == 1 for a, v in self._residues.items() if a % f == 1 % f)
            for f in range(1, m) if m % f == 0
        )

    def residue(self, a: int) -> int:
        """Value mod ell (0 at non-units)."""
        return self._residues.get(a % self.modulus, 0)


# ---------------------------------------------------------------------------
# weight selection and the zeta-type family
# ---------------------------------------------------------------------------


def _exact_weight(beta: int, s, ell: int) -> bool:
    return isinstance(s, int) and s >= 1 and (s - beta) % (ell - 1) == 0


def interpolation_weight(beta: int, s, ell: int, M: int) -> int:
    """The integer k >= 1 with k = beta mod (ell-1) and k = s mod ell^M.

    A k past ``_WEIGHT_BUDGET`` is refused.  For s = a/b a k inside it needs
    ell^M | k b - a (k b = a would make s an exact weight), so ell^M <= reach;
    a larger ell^M is refused before it is built.
    """
    if M < 0:
        raise ValueError("precision M must be >= 0")
    if isinstance(s, PadicNum):  # k reads only its M digits
        s = _angle_from_scalar(s, ell, M)
    if _exact_weight(beta, s, ell):
        return s
    q = Fraction(s)
    reach = _WEIGHT_BUDGET * q.denominator + abs(q.numerator)
    n = min(M, reach.bit_length())  # past it ell^n > reach as well
    lm, sv = ell ** n, _angle_from_scalar(s, ell, n)
    if lm <= reach:  # so n = M
        t = (beta - sv) * pow(lm, -1, ell - 1) % (ell - 1)
        k = sv + lm * t or (ell - 1) * lm
        if k <= _WEIGHT_BUDGET:
            return k
    raise ValueError(f"precision too large: the weight k = s mod ell^M must be at most "
                     f"{_WEIGHT_BUDGET}")


def _check_pole(beta: int, s) -> None:
    """Refuse beta = 0 and s = 0, the pole of L_ell(1-s, omega^0)."""
    if beta == 0 and (s.is_exact_zero if isinstance(s, PadicNum) else s == 0):
        raise ValueError("pole: L_ell(1-s, omega^beta) has a pole at beta = 0, s = 0")


def _check_prec(M: int, extra: int = 0) -> None:
    """Refuse a precision M whose work precision M + extra would pass
    ``_DIGIT_BUDGET``, before any ell^M is built: ``_read_off``'s nodes work at
    max(ndigits, M) digits, ``dirichlet_l``'s Teichmuller weights at M + 3,
    ``minus_one_l``'s Euler factor at M + 4 and ``zinv_report`` at M + _DIGITS + 6."""
    if M + extra > _DIGIT_BUDGET:
        raise ValueError(f"precision too large: --prec must be at most {_DIGIT_BUDGET - extra}")


def _read_off(node, beta: int, s, ell: int, M: int, ndigits: int = _DIGITS, *,
              pole: bool = True) -> PadicNum:
    """The interpolated value at 1-s, read off ``node(k, N)`` at the weight k.

    The node is worked to N = max(ndigits, M) digits: an exact Fraction,
    encoded with N digits (a zero Fraction is the exact zero), or a PadicNum.
    At an exact weight the value is the node, to ndigits digits.  Otherwise
    Kummer-type stability gives M digits, less the valuation drop of the
    value itself; a family with the classical simple pole at beta = 0
    (``pole``: every family but dirichlet) is refused at the pole, and its
    two 1/weight terms cost another v(k) near it, when the weight is
    divisible by ell.  Beta and the pole are checked first, and M against
    the digit budget once the weight is chosen, all before the node.
    """
    if not 0 <= beta < ell - 1:
        raise ValueError("beta must lie in [0, ell-1)")
    if pole:
        _check_pole(beta, s)
    k = interpolation_weight(beta, s, ell, M)
    _check_prec(M)
    N = max(ndigits, M)
    v = node(k, N)
    if not isinstance(v, PadicNum):
        v = PadicNum.from_rational(v, ell, N)
    if _exact_weight(beta, s, ell):
        return v.reduce_digits(ndigits)
    prec = M + (min(0, v.valuation) if v.unit else 0)
    if pole and beta == 0:
        prec -= _frac_val(k, ell)
    return v.reduce_abs(prec)


def _twist(c: int, beta: int, s, ell: int, K: int) -> PadicNum:
    """omega(c)^beta [c]^s to K digits, for an integer c prime to ell."""
    om, br = unit_decompose(PadicNum.from_rational(c, ell, K))
    return om ** beta * one_unit_pow(br, s)


def _euler_factor(p: int, beta: int, s, ell: int, K: int) -> PadicNum:
    """p omega(p)^(-beta) [p]^(-s) - 1 to K digits, for a prime p != ell: the
    Euler factor p^(1-k) - 1 read at s."""
    return p * _twist(p, beta, s, ell, K).invert() - 1


def kl_node(k: int, beta: int, ell: int, ndigits: int = _DIGITS) -> PadicNum:
    """Closed special value -(1/k) B_{k, omega^(beta-k)} as an ell-adic number."""
    return -gen_bernoulli(k, beta - k, ell, ndigits) / k


def kl_node_rational(k: int, ell: int) -> Fraction:
    """-(1 - ell^(k-1)) B_k / k, the value when k matches beta mod ell-1."""
    return -(1 - Fraction(ell) ** (k - 1)) * bernoulli_number(k) / k


def kubota_leopoldt(
    beta: int,
    s,
    ell: int,
    c: int | None = None,
    level: int = 6,
    method: str = "measure",
    M: int = 2,
) -> PadicNum:
    """The regularized unit-group L-value at 1-s for the beta-th twist.

    method "measure": the unit integral of [x]^s x^(-1) omega(x)^beta against the
    Bernoulli measure for c, summed mod ell^level over half the units
    (``bernoulli_unit_integral``), over omega(c)^beta [c]^s - 1.
    method "interp": the rational node ``kl_node_rational`` at the interpolation
    weight (omega^(beta-k) is trivial there).
    """
    _check_prime(ell)
    if method == "interp":
        return _read_off(lambda k, N: kl_node_rational(k, ell), beta, s, ell, M)
    if not 0 <= beta < ell - 1:
        raise ValueError("beta must lie in [0, ell-1)")
    _check_pole(beta, s)
    if method != "measure":
        raise ValueError("method must be 'measure' or 'interp'")
    if c is None:
        c = smallest_regularizer(ell)
    if c % ell == 0:
        raise ValueError("not a unit")
    if pow(c, ell - 1, ell * ell) == 1:
        raise ValueError("regularizer degenerate (increase precision or change c)")
    integral = bernoulli_unit_integral(c, ell, level, beta, s)
    denom = _twist(c, beta, s, ell, level + 2) - 1
    if denom.unit == 0:
        raise ValueError("regularizer degenerate (increase precision or change c)")
    return integral / denom


def minus_one_l(
    beta: int,
    s,
    ell: int,
    c: int | None = None,
    level: int = 6,
    method: str = "measure",
    M: int = 2,
) -> PadicNum:
    """The z = -1 variant: the zeta family times the Euler factor at 2.

    Only even beta has a path-independent value; odd beta is refused.  The
    factor is worked to 4 digits past the route's own: max(level, M, _DIGITS)
    on the measure route, max(M, _DIGITS) on the interpolation route, which
    reads no level.
    """
    if beta % 2:
        raise SigmaDependentError(
            "sigma-dependent; Euler-factor formula not applicable for odd beta"
        )
    _check_prec(M, 4)
    base = kubota_leopoldt(beta, s, ell, c=c, level=level, method=method, M=M)
    digits = max(M, _DIGITS) if method == "interp" else max(level, M, _DIGITS)
    return _euler_factor(2, beta, s, ell, digits + 4) * base


# ---------------------------------------------------------------------------
# Hurwitz-type analogues and Dirichlet L-series
# ---------------------------------------------------------------------------


def _check_node(k: int, m: int, ell: int) -> None:
    _check_prime(ell)
    if m % ell == 0:
        raise ValueError("m divisible by ell")
    if k < 1:
        raise ValueError("k must be >= 1")


def _hurwitz_node(k: int, i: int, m: int, ell: int, N: int | None = None):
    """``hurwitz_node``, its arguments checked; with N it is read off the
    Bernoulli residues to N digits by ``_residue_node``, which falls back to
    the exact node when the residues cannot tell it from 0."""
    _check_node(k, m, ell)
    if not 0 < i < m:
        raise ValueError("index must satisfy 0 < i < m")
    if math.gcd(i, m) != 1:
        raise ValueError("alpha not coprime to m")
    groups, weights = [[i], [residue_mod(Fraction(i, ell), m)]], [1, -ell ** (k - 1)]
    if N is not None:
        return _residue_node(k, m, groups, lambda W: weights, k * m ** k, ell, N,
                             lambda: _hurwitz_node(k, i, m, ell))
    b, b_shifted = _bernoulli_sums(k, m, groups)
    return (b - ell ** (k - 1) * b_shifted) / k


def hurwitz_node(k: int, i: int, m: int, ell: int) -> Fraction:
    """(1/k) (B_k(<i>/m) - ell^(k-1) B_k(<i/ell>/m)), exact."""
    return _hurwitz_node(k, i, m, ell)


def hurwitz_l(beta: int, s, i: int, m: int, ell: int, M: int = 2) -> PadicNum:
    """Interpolated Hurwitz-type value at 1-s for the pair (i, m)."""
    return _read_off(lambda k, N: _hurwitz_node(k, i, m, ell, N), beta, s, ell, M)


def classical_dirichlet_special(psi: DirichletCharacter, k: int) -> Fraction:
    """L(1-k, psi) = -B_(k,psi)/k exactly, for a character with values +-1;
    another psi is refused before any Bernoulli work, after a k < 1."""
    if k >= 1 and not {psi.residue(a) for a in range(1, psi.modulus)} <= {0, 1, psi.ell - 1}:
        raise ValueError("exact route needs a character with values +-1")
    return -_character_bernoulli(k, psi.modulus, psi.residue, psi.ell, 1) / k


def _dirichlet_node(psi: DirichletCharacter, k: int, ell: int, ndigits: int, exact: bool):
    """``dirichlet_node``, or with ``exact`` unset always a PadicNum of ndigits
    digits: then B_(k,psi) is read off residues even when psi is rational."""
    _check_node(k, psi.modulus, ell)
    if psi.ell != ell:
        raise ValueError("character realized at a different prime")
    # psi(ell) is exact when it is +-1 (never 0: ell does not divide m)
    r = psi.residue(ell)
    at_ell = 1 if r == 1 else -1 if r == ell - 1 else teichmuller(r, ell, ndigits)
    b = _character_bernoulli(k, psi.modulus, psi.residue, ell, ndigits, exact)
    return (1 - at_ell * ell ** (k - 1)) * -b / k


def dirichlet_node(psi: DirichletCharacter, k: int, ell: int, ndigits: int = _DIGITS):
    """(1 - psi(ell) ell^(k-1)) L(1-k, psi), the classical value -B_(k,psi)/k with
    its Euler factor at ell removed: exact when psi is rational, else ndigits
    digits; the exact zero on a parity mismatch or at k = 1 and psi(ell) = 1."""
    return _dirichlet_node(psi, k, ell, ndigits, True)


def dirichlet_l(psi: DirichletCharacter, beta: int, s, ell: int, M: int = 2) -> PadicNum:
    """Interpolated Dirichlet L-value: ``dirichlet_node`` at the interpolation
    weight, whose front factor -m^(k-1) stands for -omega(m)^beta [m]^s / m."""
    _check_prec(M, 3)
    return _read_off(lambda k, N: _dirichlet_node(psi, k, ell, N, False), beta, s, ell, M,
                     pole=False)


# ---------------------------------------------------------------------------
# L-functions of Z[1/m]
# ---------------------------------------------------------------------------


def zinv_node(k: int, primes, ell: int) -> Fraction:
    """(1 - ell^(k-1))/k sum_(gcd(a,m)=1) B_k(a/m), m = prod(primes): the sum
    of the Hurwitz nodes over the units mod m (i -> i/ell permutes them).  By
    the distribution relation sum_(a<d) B_k(a/d) = d^(1-k) B_k and Moebius
    inversion over d | m it is -prod_p (p^(1-k) - 1) kl_node_rational(k).
    The modulus is bounded before any entry is tested for primality."""
    primes = list(primes)
    if not primes:
        raise ValueError("at least one prime required (the modulus must exceed 1)")
    m = math.prod(primes)
    if m > _MODULUS_BUDGET:
        raise ValueError(f"modulus too large: m must be at most {_MODULUS_BUDGET}")
    for p in primes:
        if p != 2 and not is_odd_prime(p):
            raise ValueError(f"every entry of primes must be a prime, got {p}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    if ell in primes:
        raise ValueError("primes must differ from ell")
    _check_node(k, m, ell)
    # prod_p (p^(1-k) - 1) over the one denominator m^(k-1)
    factor = Fraction(math.prod(1 - p ** (k - 1) for p in primes), m ** (k - 1))
    return -factor * kl_node_rational(k, ell)


def zinv_l(beta: int, s, primes, ell: int, M: int = 2) -> PadicNum:
    """Interpolated Z[1/m] value: ``zinv_node`` at the interpolation weight."""
    return _read_off(lambda k, N: zinv_node(k, primes, ell), beta, s, ell, M)


def zinv_report(beta: int, s, primes, ell: int, M: int = 2) -> dict:
    """The Z[1/m] value (``zinv_l``) vs the Euler-product route, with sign verdict.

    The product route multiplies the zeta-family value at s, read off
    ``kl_node_rational`` like ``kubota_leopoldt``'s interpolation route but
    to the work digits, by prod_j ``_euler_factor``(p_j), which interpolates
    prod_j (p_j^(1-k) - 1) at the nodes k.  Against the value, whose node
    keeps the sign +, its global sign is -1 for every prime count, as
    ``zinv_node`` derives.
    """
    _check_prec(M, _DIGITS + 6)
    value = zinv_l(beta, s, primes, ell, M=M)
    work = _DIGITS + M + 6
    base = _read_off(lambda k, N: kl_node_rational(k, ell), beta, s, ell, M, work)
    product_route = math.prod((_euler_factor(p, beta, s, ell, work) for p in primes), start=base)
    # ratio of the two routes, when both are nonzero to working precision
    sign = None
    if value.unit and product_route.unit:
        ratio = product_route / value
        if ratio.congruent(1):
            sign = 1
        elif ratio.congruent(-1):
            sign = -1
    return {
        "definition_route": value,
        "product_route": product_route,
        "sign": sign,
        "magnitude_matches": sign is not None,
    }
