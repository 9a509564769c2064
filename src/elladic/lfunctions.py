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
  Bernoulli table's budget is refused before any work.  The Hurwitz, Z[1/m]
  and Dirichlet nodes are read off Bernoulli residues mod ell^W to
  max(_DIGITS, M) digits (``bernoulli._residue_node``, whose docstring has
  the precision rule), never as exact rationals of thousands of bits; each
  family has one spec (checks, groups, weights, denominator) shared with
  its exact node, and the result is that node encoded to those digits.

At an exact weight (an integer s >= 1 with s = beta mod (ell-1)) k = s and
the value is the node, to ``_DIGITS`` (8) digits, or the exact zero when the
node vanishes.  That digit count is the one module constant; only
``kubota_leopoldt`` and the nodes ``kl_node`` and ``dirichlet_node`` take
another, as ``ndigits``.  The kl and Dirichlet nodes are -B_(k,chi)/k, the
exact zero when chi(-1) != (-1)^k; the Dirichlet node's Euler factor
1 - psi(ell) ell^(k-1) is an exact 0 at k = 1 and psi(ell) = 1.  Its front
factor is read at k as -m^(k-1): it differs from -omega(m)^beta [m]^s / m by
[m]^(s-k) = 1 mod ell^(M+1), past every claimed digit.  The twist omega(c)^beta [c]^s of the
measure route and the Euler-type factors is built by ``_twist``.
"""

from __future__ import annotations

import itertools
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

# The most Horner steps m * (floor(k/2) + 1) of a Z[1/m] node, one Horner
# loop of floor(k/2) + 1 steps per unit below m (see ``measures._CELL_BUDGET``).
_STEP_BUDGET = 10 ** 7


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


def _check_prec(M: int, extra: int = 0) -> None:
    """Refuse a precision M whose work precision M + extra would pass
    ``_DIGIT_BUDGET``, before any ell^M is built: ``_read_off`` works at
    max(ndigits, M) digits, ``dirichlet_l``'s Teichmuller weights at M + 3,
    ``minus_one_l``'s twist at M + 4 and ``zinv_report`` at M + _DIGITS + 6."""
    if M + extra > _DIGIT_BUDGET:
        raise ValueError(f"precision too large: --prec must be at most {_DIGIT_BUDGET - extra}")


def _read_off(node, beta: int, s, ell: int, M: int, ndigits: int = _DIGITS) -> PadicNum:
    """The interpolated value at 1-s, read off ``node(k)`` at the weight k.

    A node is an exact Fraction, encoded with max(ndigits, M) digits (a zero
    Fraction is the exact zero), or a PadicNum.  At an exact weight the value
    is the node, to ndigits digits.  Otherwise Kummer-type stability gives M
    digits, less the valuation drop of the value itself; the branch beta = 0
    mod (ell-1) carries the classical simple pole, whose two 1/weight terms
    cost another v(k) when the weight is divisible by ell.  Beta is checked
    first, and M against the digit budget once the weight is chosen, both
    before the node.
    """
    if not 0 <= beta < ell - 1:
        raise ValueError("beta must lie in [0, ell-1)")
    k = interpolation_weight(beta, s, ell, M)
    _check_prec(M)
    v = node(k)
    if not isinstance(v, PadicNum):
        v = PadicNum.from_rational(v, ell, max(ndigits, M))
    if _exact_weight(beta, s, ell):
        return v.reduce_digits(ndigits)
    prec = M + (min(0, v.valuation) if v.unit else 0)
    if beta % (ell - 1) == 0:
        prec -= _frac_val(k, ell)
    return v.reduce_abs(prec)


def _twist(c: int, beta: int, s, ell: int, K: int) -> PadicNum:
    """omega(c)^beta [c]^s to K digits, for an integer c prime to ell."""
    om, br = unit_decompose(PadicNum.from_rational(c, ell, K))
    return om ** beta * one_unit_pow(br, s)


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
    ndigits: int = _DIGITS,
) -> PadicNum:
    """The regularized unit-group L-value at 1-s for the beta-th twist.

    method "measure": the unit integral of [x]^s x^(-1) omega(x)^beta against the
    Bernoulli measure for c, summed over residues mod ell^K, over omega(c)^beta [c]^s - 1.
    method "interp": the rational node ``kl_node_rational`` at the interpolation
    weight (omega^(beta-k) is trivial there).
    """
    _check_prime(ell)
    if not 0 <= beta < ell - 1:
        raise ValueError("beta must lie in [0, ell-1)")
    if method == "interp":
        return _read_off(lambda k: kl_node_rational(k, ell), beta, s, ell, M, ndigits)
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
    """The z = -1 variant, as an explicit Euler-type factor times the zeta family.

    Only even beta has a path-independent value; odd beta is refused.  The
    twist is worked to 4 digits past the route's own: max(level, M, _DIGITS)
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
    t = _twist(2, beta, s, ell, digits + 4) / 2
    return (1 - t) / t * base


# ---------------------------------------------------------------------------
# Hurwitz-type analogues and Dirichlet L-series
# ---------------------------------------------------------------------------


def _check_node(k: int, m: int, ell: int) -> None:
    _check_prime(ell)
    if m % ell == 0:
        raise ValueError("m divisible by ell")
    if k < 1:
        raise ValueError("k must be >= 1")


def _node(spec, k: int, ell: int, N: int | None = None):
    """The node of a family's spec (f, groups, weights, den), sum_g w_g
    sum_(a in g) B_k(a/f) times f^k / den: exact when N is None, else read
    off residues mod ell^W to N digits by ``_residue_node``, which falls back
    to the exact node when the residues cannot tell it from 0."""
    f, groups, weights, den = spec
    if N is None:
        sums = _bernoulli_sums(k, f, groups)
        return sum(w * b for w, b in zip(weights, sums)) * Fraction(f ** k, den)
    return _residue_node(k, f, groups, lambda W: weights, den, ell, N,
                         lambda: _node(spec, k, ell))


def _hurwitz_spec(k: int, i: int, m: int, ell: int):
    """``hurwitz_node``'s spec, its arguments checked."""
    _check_node(k, m, ell)
    if not 0 < i < m:
        raise ValueError("index must satisfy 0 < i < m")
    if math.gcd(i, m) != 1:
        raise ValueError("alpha not coprime to m")
    return m, [[i], [residue_mod(Fraction(i, ell), m)]], [1, -ell ** (k - 1)], k * m ** k


def hurwitz_node(k: int, i: int, m: int, ell: int) -> Fraction:
    """(1/k) (B_k(<i>/m) - ell^(k-1) B_k(<i/ell>/m)), exact."""
    return _node(_hurwitz_spec(k, i, m, ell), k, ell)


def hurwitz_l(beta: int, s, i: int, m: int, ell: int, M: int = 2) -> PadicNum:
    """Interpolated Hurwitz-type value at 1-s for the pair (i, m)."""
    N = max(_DIGITS, M)
    return _read_off(lambda k: _node(_hurwitz_spec(k, i, m, ell), k, ell, N),
                     beta, s, ell, M)


def classical_dirichlet_special(psi: DirichletCharacter, k: int) -> Fraction:
    """L(1-k, psi) = -B_(k,psi)/k exactly, for a character with values +-1."""
    b = _character_bernoulli(k, psi.modulus, psi.residue, psi.ell, 1)
    if isinstance(b, PadicNum):
        raise ValueError("exact route needs a character with values +-1")
    return -b / k


def _dirichlet_node(psi: DirichletCharacter, k: int, ell: int, ndigits: int, exact: bool):
    """``dirichlet_node``, or with ``exact`` unset always a PadicNum of ndigits
    digits: then B_(k,psi) is read off residues even when psi is rational."""
    _check_node(k, psi.modulus, ell)
    if psi.ell != ell:
        raise ValueError("prime mismatch")
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
    if psi.ell != ell:
        raise ValueError("character realized at a different prime")
    _check_prec(M, 3)
    N = max(_DIGITS, M)
    return _read_off(lambda k: _dirichlet_node(psi, k, ell, N, False), beta, s, ell, M)


# ---------------------------------------------------------------------------
# L-functions of Z[1/m]
# ---------------------------------------------------------------------------


def _zinv_modulus(primes, k: int) -> int:
    """m = prod(primes), its entries checked after the Horner steps it costs."""
    primes = list(primes)
    if not primes:
        raise ValueError("at least one prime required (the modulus must exceed 1)")
    m = math.prod(primes)
    if m * (k // 2 + 1) > _STEP_BUDGET:
        raise ValueError(f"modulus too large: m * (k // 2 + 1) must be at most "
                         f"{_STEP_BUDGET} Horner steps")
    for p in primes:
        if p != 2 and not is_odd_prime(p):
            raise ValueError(f"every entry of primes must be a prime, got {p}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    return m


def _zinv_units(m: int, primes) -> list:
    """The a in [1, m) prime to m = prod(primes), by a sieve over the primes."""
    mask = bytearray(b"\x01") * m
    for p in primes:
        mask[::p] = bytes(len(range(0, m, p)))
    return list(itertools.compress(range(m), mask))


def _zinv_spec(k: int, primes, ell: int):
    """``zinv_node``'s spec, its arguments checked."""
    m = _zinv_modulus(primes, k)
    if any(p == ell for p in primes):
        raise ValueError("primes must differ from ell")
    _check_node(k, m, ell)
    return m, [_zinv_units(m, primes)], [1 - ell ** (k - 1)], k * m ** k


def zinv_node(k: int, primes, ell: int) -> Fraction:
    """Sum of Hurwitz nodes over the residues coprime to m = prod(primes):
    (1 - ell^(k-1))/k sum_i B_k(i/m), since i -> i/ell permutes those residues."""
    return _node(_zinv_spec(k, primes, ell), k, ell)


def zinv_l(beta: int, s, primes, ell: int, M: int = 2) -> PadicNum:
    """Definition-route value: the coprime Hurwitz sum at the interpolation weight."""
    N = max(_DIGITS, M)
    return _read_off(lambda k: _node(_zinv_spec(k, primes, ell), k, ell, N),
                     beta, s, ell, M)


def zinv_report(beta: int, s, primes, ell: int, M: int = 2) -> dict:
    """Definition-route value vs the Euler-product shortcut, with sign verdict.

    The product shortcut multiplies the zeta-family value by
    prod_j (p_j [p_j]^(-s) omega(p_j)^(-beta) - 1), which interpolates
    prod_j (p_j^(1-k) - 1) at the nodes k.  Its global sign is -1 against
    the definition route for every prime count: the distribution relation
    sum_(a<d) B_k(a/d) = d^(1-k) B_k and Moebius inversion over d | m give
    sum_(gcd(a,m)=1) B_k(a/m) = B_k prod_j (p_j^(1-k) - 1), so
    zinv_node(k) = -prod_j (p_j^(1-k) - 1) * kl_node_rational(k), the sign
    coming from kl_node_rational = -(1 - ell^(k-1)) B_k/k.  The report
    carries both values and the ratio.
    """
    _check_prec(M, _DIGITS + 6)
    value = zinv_l(beta, s, primes, ell, M=M)
    work = _DIGITS + M + 6
    base = kubota_leopoldt(beta, s, ell, method="interp", M=M, ndigits=work)
    prod = PadicNum.from_rational(1, ell, work)
    for p in primes:
        prod = prod * (p * _twist(p, beta, s, ell, work).invert() - 1)
    product_route = prod * base
    # ratio of the two routes, when both are nonzero to working precision
    ratio = None
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
        "ratio": ratio,
        "sign": sign,
        "magnitude_matches": sign is not None,
    }
