import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from elladic.bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    gen_bernoulli,
)
from elladic.padic import PadicNum, teichmuller


def akiyama_tanigawa(n):
    """Independent oracle for B_0..B_n (second convention gives B1 = +1/2,
    so flip the sign of B1 to land on the generating-function convention)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1] if n >= 1 else None
    return out


def gen_bernoulli_loop(k, j, ell, ndigits):
    """Oracle: ell^(k-1) sum_a omega(a)^j B_k(a/ell) as a PadicNum loop over
    the Teichmuller values, worked to ndigits + k + 3 digits."""
    j %= ell - 1
    work = ndigits + k + 3
    acc = PadicNum.zero(ell)
    for a in range(1, ell):
        term = PadicNum.from_rational(bernoulli_poly(k, Fraction(a, ell)), ell, work)
        if j:
            term = term * teichmuller(a, ell, work) ** j
        acc = acc + term
    out = acc * PadicNum.from_int(ell, ell, work) ** (k - 1)
    return out.reduce_digits(ndigits)


class TestBernoulliNumbers:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_oracle_up_to_30(self):
        oracle = akiyama_tanigawa(30)
        for k in range(31):
            assert bernoulli_number(k) == oracle[k], k

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolys:
    def test_value_at_zero_is_number(self):
        for k in range(11):
            assert bernoulli_poly(k, 0) == bernoulli_number(k)

    def test_examples(self):
        assert bernoulli_poly(2, Fraction(1, 3)) == Fraction(-1, 18)
        assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
        assert bernoulli_poly(5, Fraction(1, 4)) == Fraction(-25, 1024)

    @pytest.mark.parametrize("k", [-1, -2, -5])
    def test_negative_index_refused(self, k):
        with pytest.raises(ValueError, match="k must be >= 0"):
            bernoulli_poly_coeffs(k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            bernoulli_poly(k, Fraction(1, 2))

    def test_coeffs_consistent(self):
        t = Fraction(3, 7)
        for k in range(8):
            coeffs = bernoulli_poly_coeffs(k)
            assert sum(c * t ** j for j, c in enumerate(coeffs)) == bernoulli_poly(k, t)

    @pytest.mark.parametrize("m", range(2, 9))
    @pytest.mark.parametrize("k", range(0, 11))
    def test_distribution_identity(self, m, k):
        total = sum(bernoulli_poly(k, Fraction(i, m)) for i in range(m))
        assert Fraction(m) ** (k - 1) * total == bernoulli_number(k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.fractions(max_denominator=30))
    def test_reflection(self, k, x):
        assert bernoulli_poly(k, 1 - x) == (-1) ** k * bernoulli_poly(k, x)

    @pytest.mark.parametrize("m", [6, 10, 15, 30])
    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_coprime_sum_euler_product(self, m, k):
        # sum over residues coprime to m of B_k(i/m) carries one Euler factor
        # (1 - p^(k-1))/p^(k-1) per prime divisor
        total = sum(
            bernoulli_poly(k, Fraction(i, m))
            for i in range(1, m)
            if math.gcd(i, m) == 1
        )
        expected = bernoulli_number(k)
        p, mm = 2, m
        while mm > 1:
            if mm % p == 0:
                expected *= Fraction(1 - p ** (k - 1), p ** (k - 1))
                while mm % p == 0:
                    mm //= p
            p += 1
        assert total == expected


class TestGenBernoulli:
    def test_trivial_twist_carries_euler_factor(self):
        v = gen_bernoulli(2, 0, 5, 6)
        assert v.congruent(Fraction(-2, 3))

    def test_quadratic_twist(self):
        v = gen_bernoulli(2, 2, 5, 6)
        assert v.valuation == -1
        assert v.congruent(Fraction(4, 5))

    def test_parity_vanishing(self):
        v = gen_bernoulli(2, 1, 5, 6)
        assert v.unit == 0 and v.abs_prec >= 6

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_trivial_twist_closed_form(self, ell, k):
        want = (1 - Fraction(ell) ** (k - 1)) * bernoulli_number(k)
        assert gen_bernoulli(k, 0, ell, 6).congruent(want)

    def test_weight_below_one_refused(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                gen_bernoulli(k, 0, 5, 6)

    @pytest.mark.parametrize("j,k", [(0, 2), (2, 2), (1, 3)], ids=["trivial", "quadratic", "order 4"])
    def test_digit_count_below_one_refused(self, j, k):
        for nd in (0, -1):
            with pytest.raises(ValueError, match="nonzero value needs at least one digit"):
                gen_bernoulli(k, j, 5, nd)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 11),
           st.integers(1, 60), st.integers(1, 12))
    def test_one_character_sum(self, ell, j, k, nd):
        # the exact zero exactly on a parity mismatch; a +-1-valued omega^j
        # gives the exact sum, any other exactly nd digits of the loop's value
        got = gen_bernoulli(k, j, ell, nd)
        assert got.is_exact_zero == ((-1) ** j != (-1) ** k)
        if got.is_exact_zero:
            return
        signs = {a: pow(a, j, ell) for a in range(1, ell)}
        if set(signs.values()) <= {1, ell - 1}:
            exact = Fraction(ell) ** (k - 1) * sum(
                (1 if r == 1 else -1) * bernoulli_poly(k, Fraction(a, ell))
                for a, r in signs.items()
            )
            assert got == PadicNum.from_rational(exact, ell, nd)
        else:
            assert got.ndigits == nd
            assert got.congruent(gen_bernoulli_loop(k, j, ell, nd)), (ell, j, k, nd)
