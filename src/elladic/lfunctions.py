"""ell-adic L-functions built on the Bernoulli measure and its relatives.

Evaluation strategies:

* measure route — regularized unit-group integral against the Bernoulli
  measure for the zeta-type family, summed as integers mod ell^K over the
  units of one level with no tower built (``bernoulli_unit_integral``);
* interpolation route — pick the integer weight k >= 1 with k = beta mod
  (ell-1) and k = s mod ell^M, evaluate the closed Bernoulli expression there.
  Kummer-type congruences make the result correct to M digits (minus the
  valuation drop of the value itself).  Every family is read off its node,
  a function of k alone, by the one helper ``_read_off``.

At an exact weight (an integer s >= 1 with s = beta mod (ell-1)) k = s and
the value is the node, to ndigits digits, or the exact zero when the node
vanishes.  The kl and Dirichlet nodes are -B_(k,chi)/k, the exact zero when
chi(-1) != (-1)^k; the Dirichlet node's Euler factor 1 - psi(ell) ell^(k-1)
is an exact 0 at k = 1 and psi(ell) = 1.  Its front factor is read at k as
-m^(k-1): it differs from -omega(m)^beta [m]^s / m by [m]^(s-k) = 1 mod
ell^(M+1), past every claimed digit.  The twist omega(c)^beta [c]^s of the
measure route and the Euler-type factors is built by ``_twist``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernoulli import _character_bernoulli, bernoulli_number, bernoulli_poly, gen_bernoulli
from .measures import bernoulli_unit_integral
from .padic import PadicNum, is_odd_prime, one_unit_pow, residue_mod, smallest_regularizer, teichmuller, unit_decompose, _angle_from_scalar, _check_prime, _frac_val

__all__ = [
    "SigmaDependentError",
    "DirichletCharacter",
    "smallest_regularizer",
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


class SigmaDependentError(ValueError):
    """Raised when a requested variant has no path-independent value."""


# ---------------------------------------------------------------------------
# Dirichlet characters with values among the (ell-1)-st roots of unity
# ---------------------------------------------------------------------------


class DirichletCharacter:
    """Character mod m realized through Teichmuller lifts at the prime ell.

    The table maps each unit a mod m to an integer v coprime to ell; the
    actual value is the root of unity congruent to v mod ell.  Values at
    non-units are zero.
    """

    __slots__ = ("modulus", "ell", "_residues")

    def __init__(self, modulus: int, values: dict, ell: int):
        _check_prime(ell)
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if modulus % ell == 0:
            raise ValueError("m divisible by ell")
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

    @property
    def order(self) -> int:
        out = 1
        for v in self._residues.values():
            k, x = 1, v
            while x != 1:
                x = x * v % self.ell
                k += 1
            out = out * k // math.gcd(out, k)
        return out

    def residue(self, a: int) -> int:
        """Value mod ell (0 at non-units)."""
        return self._residues.get(a % self.modulus, 0)

    def rational_value(self, a: int):
        """The exact value when the character is quadratic-or-trivial."""
        r = self.residue(a)
        if r == 0:
            return Fraction(0)
        if r == 1:
            return Fraction(1)
        if r == self.ell - 1:
            return Fraction(-1)
        return None

    @property
    def is_rational(self) -> bool:
        return all(v in (1, self.ell - 1) for v in self._residues.values())

    def value(self, a: int, ndigits: int) -> PadicNum:
        r = self.residue(a)
        if r == 0:
            return PadicNum.zero(self.ell)
        return teichmuller(r, self.ell, ndigits)


# ---------------------------------------------------------------------------
# weight selection and the zeta-type family
# ---------------------------------------------------------------------------


def _exact_weight(beta: int, s, ell: int) -> bool:
    return isinstance(s, int) and s >= 1 and (s - beta) % (ell - 1) == 0


def interpolation_weight(beta: int, s, ell: int, M: int) -> int:
    """The integer k >= 1 with k = beta mod (ell-1) and k = s mod ell^M."""
    if M < 0:
        raise ValueError("precision M must be >= 0")
    if _exact_weight(beta, s, ell):
        return s
    lm = ell ** M
    sv = _angle_from_scalar(s, ell, M)
    t = (beta - sv) * pow(lm, -1, ell - 1) % (ell - 1)
    k = sv + lm * t
    return k if k else (ell - 1) * lm


def _read_off(node, beta: int, s, ell: int, M: int, ndigits: int) -> PadicNum:
    """The interpolated value at 1-s, read off ``node(k)`` at the weight k.

    A node is an exact Fraction, encoded with max(ndigits, M) digits (a zero
    Fraction is the exact zero), or a PadicNum.  At an exact weight the value
    is the node, to ndigits digits.  Otherwise Kummer-type stability gives M
    digits, less the valuation drop of the value itself; the branch beta = 0
    mod (ell-1) carries the classical simple pole, whose two 1/weight terms
    cost another v(k) when the weight is divisible by ell.
    """
    k = interpolation_weight(beta, s, ell, M)
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
    om, br = unit_decompose(PadicNum.from_int(c, ell, K))
    return om ** beta * one_unit_pow(br, s)


def kl_node(k: int, beta: int, ell: int, ndigits: int = 8) -> PadicNum:
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
    ndigits: int = 8,
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
    ndigits: int = 8,
) -> PadicNum:
    """The z = -1 variant, as an explicit Euler-type factor times the zeta family.

    Only even beta has a path-independent value; odd beta is refused.
    """
    if beta % 2:
        raise SigmaDependentError(
            "sigma-dependent; Euler-factor formula not applicable for odd beta"
        )
    base = kubota_leopoldt(beta, s, ell, c=c, level=level, method=method, M=M, ndigits=ndigits)
    t = _twist(2, beta, s, ell, max(level, M, ndigits) + 4) / 2
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


def hurwitz_node(k: int, i: int, m: int, ell: int) -> Fraction:
    """(1/k) (B_k(<i>/m) - ell^(k-1) B_k(<i/ell>/m)), exact."""
    _check_node(k, m, ell)
    if not 0 < i < m:
        raise ValueError("index must satisfy 0 < i < m")
    if math.gcd(i, m) != 1:
        raise ValueError("alpha not coprime to m")
    shifted = residue_mod(Fraction(i, ell), m)
    return (
        bernoulli_poly(k, Fraction(i, m))
        - Fraction(ell) ** (k - 1) * bernoulli_poly(k, Fraction(shifted, m))
    ) / k


def hurwitz_l(
    beta: int, s, i: int, m: int, ell: int, M: int = 2, ndigits: int = 8
) -> PadicNum:
    """Interpolated Hurwitz-type value at 1-s for the pair (i, m)."""
    return _read_off(lambda k: hurwitz_node(k, i, m, ell), beta, s, ell, M, ndigits)


def classical_dirichlet_special(psi: DirichletCharacter, k: int) -> Fraction:
    """L(1-k, psi) = -B_(k,psi)/k exactly, for a character with values +-1."""
    if not psi.is_rational:
        raise ValueError("exact route needs a character with values +-1")
    return -_character_bernoulli(k, psi.modulus, psi.residue, psi.ell, 1) / k


def dirichlet_node(psi: DirichletCharacter, k: int, ell: int, ndigits: int = 8):
    """(1 - psi(ell) ell^(k-1)) L(1-k, psi), the classical value -B_(k,psi)/k with
    its Euler factor at ell removed: exact when psi is rational, else ndigits
    digits; the exact zero on a parity mismatch or at k = 1 and psi(ell) = 1."""
    _check_node(k, psi.modulus, ell)
    if psi.ell != ell:
        raise ValueError("prime mismatch")
    # psi(ell) is exact when it is +-1 (never 0: ell does not divide m)
    at_ell = psi.rational_value(ell) or psi.value(ell, ndigits)
    b = _character_bernoulli(k, psi.modulus, psi.residue, ell, ndigits)
    return (1 - at_ell * ell ** (k - 1)) * -b / k


def dirichlet_l(
    psi: DirichletCharacter,
    beta: int,
    s,
    ell: int,
    M: int = 2,
    epsilon: int | None = None,
    ndigits: int = 8,
) -> PadicNum:
    """Interpolated Dirichlet L-value: ``dirichlet_node`` at the interpolation
    weight, whose front factor -m^(k-1) stands for -omega(m)^beta [m]^s / m."""
    if psi.ell != ell:
        raise ValueError("character realized at a different prime")
    if epsilon is None:
        epsilon = (-1) ** beta
    if epsilon != (-1) ** beta:
        raise SigmaDependentError(
            "sigma-dependent: the sign must match the parity of beta"
        )
    return _read_off(
        lambda k: dirichlet_node(psi, k, ell, max(ndigits, M)), beta, s, ell, M, ndigits
    )


# ---------------------------------------------------------------------------
# L-functions of Z[1/m]
# ---------------------------------------------------------------------------


def _zinv_modulus(primes) -> int:
    primes = list(primes)
    if not primes:
        raise ValueError("at least one prime required (the modulus must exceed 1)")
    for p in primes:
        if p != 2 and not is_odd_prime(p):
            raise ValueError(f"every entry of primes must be a prime, got {p}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    return math.prod(primes)


def zinv_node(k: int, primes, ell: int) -> Fraction:
    """Sum of Hurwitz nodes over the residues coprime to m = prod(primes):
    (1 - ell^(k-1))/k sum_i B_k(i/m), since i -> i/ell permutes those residues."""
    m = _zinv_modulus(primes)
    if any(p == ell for p in primes):
        raise ValueError("primes must differ from ell")
    _check_node(k, m, ell)
    total = sum(bernoulli_poly(k, Fraction(a, m)) for a in range(1, m) if math.gcd(a, m) == 1)
    return (1 - Fraction(ell) ** (k - 1)) / k * total


def zinv_l(beta: int, s, primes, ell: int, M: int = 2, ndigits: int = 8) -> PadicNum:
    """Definition-route value: the coprime Hurwitz sum at the interpolation weight."""
    return _read_off(lambda k: zinv_node(k, primes, ell), beta, s, ell, M, ndigits)


def zinv_report(beta: int, s, primes, ell: int, M: int = 2, ndigits: int = 8) -> dict:
    """Definition-route value vs the Euler-product shortcut, with sign verdict.

    The product shortcut multiplies the zeta-family value by
    prod_j (p_j [p_j]^(-s) omega(p_j)^(-beta) - 1); its global sign differs
    from the definition route (observed factor -1 for every prime count), so
    the report carries both values and the ratio.
    """
    value = zinv_l(beta, s, primes, ell, M=M, ndigits=ndigits)
    work = ndigits + M + 6
    base = kubota_leopoldt(beta, s, ell, method="interp", M=M, ndigits=work)
    prod = PadicNum.from_int(1, ell, work)
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
