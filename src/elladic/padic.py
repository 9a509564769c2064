"""Fixed-precision ell-adic arithmetic.

A value is stored as ``ell**valuation * unit`` with ``unit`` a residue in
``[1, ell**ndigits)`` coprime to ``ell``; the value is known to absolute
precision ``ell**(valuation + ndigits)``.  Two degenerate states exist:

* exact zero (``unit == 0``, ``valuation is None``), and
* "zero to precision" ``O(ell**m)`` (``unit == 0``, ``valuation == m``,
  ``ndigits == 0``), produced when addition cancels every known digit.

Arithmetic never claims digits it cannot guarantee: every operation returns
the weakest absolute precision implied by its operands.  All values are
immutable, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "PadicNum",
    "is_odd_prime",
    "teichmuller",
    "unit_decompose",
    "one_unit_pow",
    "angle_repr",
    "residue_mod",
    "smallest_regularizer",
]


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(ell: int) -> None:
    if not is_odd_prime(ell):
        raise ValueError(f"ell must be an odd prime >= 3, got {ell}")


def _int_valuation(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _frac_val(q, ell: int) -> int:
    """ell-adic valuation of a nonzero int or Fraction (ValueError on 0)."""
    return _int_valuation(q.numerator, ell) - _int_valuation(q.denominator, ell)


class PadicNum:
    __slots__ = ("ell", "valuation", "unit", "ndigits")

    def __init__(self, ell: int, valuation, unit: int, ndigits: int):
        _check_prime(ell)
        if unit == 0:
            # exact zero (valuation None) or O(ell^valuation)
            if valuation is not None and not isinstance(valuation, int):
                raise ValueError("zero valuation must be None or int")
            ndigits = 0
        else:
            if ndigits < 1:
                raise ValueError("nonzero value needs at least one digit")
            unit %= ell ** ndigits
            if unit % ell == 0:
                raise ValueError("unit residue must be coprime to ell")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "ndigits", ndigits)

    def __setattr__(self, *a):
        raise AttributeError("PadicNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ell: int) -> "PadicNum":
        return cls(ell, None, 0, 0)

    @classmethod
    def zero_to_precision(cls, ell: int, abs_exp: int) -> "PadicNum":
        """The state O(ell^abs_exp): known to vanish mod ell^abs_exp only."""
        return cls(ell, abs_exp, 0, 0)

    @classmethod
    def from_int(cls, n: int, ell: int, ndigits: int) -> "PadicNum":
        return cls.from_rational(n, ell, ndigits)

    @classmethod
    def from_rational(cls, q, ell: int, ndigits: int) -> "PadicNum":
        q = Fraction(q)
        if q == 0:
            return cls.zero(ell)
        if ndigits < 1:
            raise ValueError("nonzero value needs at least one digit")
        v = _frac_val(q, ell)
        m = ell ** ndigits
        # q is in lowest terms, so the ell-power sits in one of its two parts
        num, den = q.numerator // ell ** max(v, 0), q.denominator // ell ** max(-v, 0)
        return cls(ell, v, num * pow(den, -1, m) % m, ndigits)

    # -- state predicates --------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.valuation is None

    @property
    def is_zero_to_precision(self) -> bool:
        return self.unit == 0 and self.valuation is not None

    @property
    def abs_prec(self):
        """Exponent of the known absolute precision (math.inf for exact 0)."""
        if self.is_exact_zero:
            return math.inf
        if self.is_zero_to_precision:
            return self.valuation
        return self.valuation + self.ndigits

    def valuation_at_least(self, k: int) -> bool:
        """True when the value is certainly divisible by ell^k."""
        if self.is_exact_zero:
            return True
        if self.is_zero_to_precision:
            if self.valuation >= k:
                return True
            raise ValueError(
                f"insufficient precision: O({self.ell}^{self.valuation}) "
                f"cannot decide divisibility by {self.ell}^{k}"
            )
        return self.valuation >= k

    # -- precision management ----------------------------------------------

    def reduce_abs(self, abs_exp: int) -> "PadicNum":
        """Clamp to absolute precision ell^abs_exp (never raises claimed digits)."""
        if self.abs_prec <= abs_exp:
            return self
        if self.unit == 0 or self.valuation >= abs_exp:
            return PadicNum.zero_to_precision(self.ell, abs_exp)
        return PadicNum(self.ell, self.valuation, self.unit, abs_exp - self.valuation)

    def reduce_digits(self, ndigits: int) -> "PadicNum":
        if self.unit == 0:
            return self
        if ndigits >= self.ndigits:
            return self
        return PadicNum(self.ell, self.valuation, self.unit, ndigits)

    # -- arithmetic ----------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, PadicNum):
            if other.ell != self.ell:
                raise ValueError("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            nd = self.ndigits if self.ndigits else 1
            extra = _frac_val(other, self.ell) if other else 0
            nd += abs(extra) + 2
            if not self.is_exact_zero:  # reach the precision this operand states
                nd = max(nd, self.abs_prec - extra)
            return PadicNum.from_rational(other, self.ell, nd)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        m = min(self.abs_prec, other.abs_prec)
        if self.unit == 0 or other.unit == 0:
            # at least one operand is O(ell^?): only divisibility survives
            x = other if self.unit == 0 else self
            return x.reduce_abs(m) if x.unit else PadicNum.zero_to_precision(self.ell, m)
        v0 = min(self.valuation, other.valuation)
        mod = self.ell ** (m - v0)
        total = (
            self.unit * self.ell ** (self.valuation - v0)
            + other.unit * self.ell ** (other.valuation - v0)
        ) % mod
        if total == 0:
            return PadicNum.zero_to_precision(self.ell, m)
        dv = _int_valuation(total, self.ell)
        return PadicNum(self.ell, v0 + dv, total // self.ell ** dv, m - v0 - dv)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicNum(
            self.ell, self.valuation, -self.unit % self.ell ** self.ndigits, self.ndigits
        )

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNum.zero(self.ell)
        if self.unit == 0 or other.unit == 0:
            return PadicNum.zero_to_precision(self.ell, self.valuation + other.valuation)
        nd = min(self.ndigits, other.ndigits)
        return PadicNum(
            self.ell,
            self.valuation + other.valuation,
            self.unit * other.unit % self.ell ** nd,
            nd,
        )

    __rmul__ = __mul__

    def invert(self) -> "PadicNum":
        if self.is_exact_zero:
            raise ZeroDivisionError("inverse of exact zero")
        if self.unit == 0:
            raise ZeroDivisionError(
                f"cannot invert O({self.ell}^{self.valuation}): value may be zero"
            )
        m = self.ell ** self.ndigits
        return PadicNum(self.ell, -self.valuation, pow(self.unit, -1, m), self.ndigits)

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, k: int):
        """self^k: valuation v*k and unit^k mod ell^ndigits (k < 0 inverts)."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return PadicNum.from_int(1, self.ell, self.ndigits or 1)
        if self.is_exact_zero:
            return self
        if self.unit == 0:
            return PadicNum.zero_to_precision(self.ell, self.valuation * k)
        m = self.ell ** self.ndigits
        return PadicNum(self.ell, self.valuation * k, pow(self.unit, k, m), self.ndigits)

    # -- comparisons and readout ---------------------------------------------

    def congruent(self, other, abs_exp=None) -> bool:
        """Equality mod ell^abs_exp (default: the weaker stated precision).

        Raises ValueError when the known digits cannot decide it.
        """
        o = self._coerce_other(other)
        d = self - o
        if abs_exp is None:
            abs_exp = min(self.abs_prec, o.abs_prec)
            if abs_exp is math.inf:
                return d.is_exact_zero
        return d.valuation_at_least(abs_exp)

    def residue(self, k: int) -> int:
        """The integer in [0, ell^k) congruent to the value mod ell^k."""
        if self.is_exact_zero:
            return 0
        if self.abs_prec < k:
            raise ValueError(f"value known only mod {self.ell}^{self.abs_prec}")
        if self.unit == 0:
            return 0
        if self.valuation < 0:
            raise ValueError("negative valuation: not an ell-adic integer")
        return self.ell ** self.valuation * self.unit % self.ell ** k

    def to_json(self) -> dict:
        if self.is_exact_zero:
            return {"ell": self.ell, "zero": True}
        return {
            "ell": self.ell,
            "valuation": self.valuation,
            "unit": self.unit,
            "precision": self.ndigits,
        }

    def __eq__(self, other):
        if not isinstance(other, PadicNum):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.ndigits == other.ndigits
        )

    def __hash__(self):
        return hash((self.ell, self.valuation, self.unit, self.ndigits))

    def __repr__(self):
        if self.is_exact_zero:
            return f"PadicNum(0; ell={self.ell})"
        if self.unit == 0:
            return f"PadicNum(O({self.ell}^{self.valuation}))"
        return (
            f"PadicNum({self.unit}*{self.ell}^{self.valuation}"
            f" + O({self.ell}^{self.abs_prec}))"
        )


# -- unit-group structure ------------------------------------------------------


def teichmuller(u, ell: int, ndigits: int) -> PadicNum:
    """The (ell-1)-st root of unity congruent to u mod ell.

    omega(u) is the limit of u^(ell^n), and u^(ell^(ndigits-1)) already agrees
    with it mod ell^ndigits: that power is one modular pow.
    """
    _check_prime(ell)
    if ndigits < 1:
        raise ValueError("nonzero value needs at least one digit")
    m = ell ** ndigits
    if isinstance(u, PadicNum):
        if u.is_exact_zero or u.unit == 0 or u.valuation != 0:
            raise ValueError("not a unit")
        u = u.residue(min(ndigits, u.ndigits))
    u %= m
    if u % ell == 0:
        raise ValueError("not a unit")
    return PadicNum(ell, 0, pow(u, ell ** (ndigits - 1), m), ndigits)


def smallest_regularizer(ell: int) -> int:
    """Smallest c >= 2 generating the units mod ell^2 (so c^(ell-1) != 1)."""
    _check_prime(ell)
    m = ell * ell
    target = ell * (ell - 1)
    for c in range(2, m):
        if c % ell == 0:
            continue
        k, x = 1, c % m
        while x != 1:
            x = x * c % m
            k += 1
        if k == target:
            return c


def unit_decompose(x: PadicNum):
    """Split a unit as (root of unity, one-unit): x = omega * bracket."""
    if not isinstance(x, PadicNum) or x.unit == 0 or x.valuation != 0:
        raise ValueError("not a unit")
    om = teichmuller(x.unit, x.ell, x.ndigits)
    br = x * om.invert()
    return om, br


def _angle_from_scalar(s, ell: int, k: int) -> int:
    """Integer representative of s in [0, ell^k); s may be int, Fraction, PadicNum."""
    m = ell ** k
    if isinstance(s, PadicNum):
        if s.ell != ell:
            raise ValueError("prime mismatch")
        if s.is_exact_zero:
            return 0
        if not s.valuation_at_least(0):
            raise ValueError("exponent not integral")
        return s.residue(k)
    s = Fraction(s)
    if s.denominator % ell == 0:
        raise ValueError("not integral")
    return s.numerator * pow(s.denominator, -1, m) % m


def _exponent_residue(s, ell: int, k: int) -> int:
    """An exponent s mod ell^k; a PadicNum gives only the digits it knows."""
    if isinstance(s, PadicNum):
        if s.ell != ell:
            raise ValueError("prime mismatch")
        return s.residue(min(k, s.abs_prec))
    return _angle_from_scalar(s, ell, k)


def _fraction_to_padic_abs(s, ell: int, abs_exp: int) -> PadicNum:
    """Encode an exactly-known rational at claimed absolute precision ell^abs_exp."""
    v = _frac_val(s, ell) if s else abs_exp
    if v >= abs_exp:
        return PadicNum.zero_to_precision(ell, abs_exp)
    return PadicNum.from_rational(s, ell, abs_exp - v)


def one_unit_pow(u: PadicNum, s) -> PadicNum:
    """u^s for u = 1 mod ell and s an ell-adic integer.

    For odd ell the one-units mod ell^n form a group of exponent ell^(n-1), so
    u^s mod ell^n is u^a for any integer a = s mod ell^(n-1): one modular pow.
    """
    if not isinstance(u, PadicNum) or u.unit == 0 or u.valuation != 0:
        raise ValueError("not a one-unit")
    ell, nd = u.ell, u.ndigits
    if u.unit % ell != 1:
        raise ValueError("not a one-unit")
    if isinstance(s, PadicNum):
        if not s.valuation_at_least(0):
            raise ValueError("exponent not integral")
        nd = min(nd, s.abs_prec + 1)  # u^(s + O(ell^A)) known mod ell^(A+1)
    a = _exponent_residue(s, ell, nd - 1)
    return PadicNum(ell, 0, pow(u.unit, a, ell ** nd), nd)


def angle_repr(q, n: int, ell: int | None = None) -> int:
    """The integer in [0, ell^n) congruent to q mod ell^n (q integral)."""
    if isinstance(q, PadicNum):
        ell = q.ell
    if ell is None:
        raise ValueError("ell required for non-padic input")
    _check_prime(ell)
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        # still validates integrality
        _angle_from_scalar(q, ell, 1)
        return 0
    return _angle_from_scalar(q, ell, n)


def residue_mod(q, m: int) -> int:
    """Representative of a rational q in [0, m) for an auxiliary modulus m.

    Requires the denominator of q to be coprime to m.
    """
    q = Fraction(q)
    if math.gcd(q.denominator, m) != 1:
        raise ValueError("denominator not coprime to modulus")
    return q.numerator * pow(q.denominator, -1, m) % m
