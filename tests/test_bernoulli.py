import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bernoulli_oracle as oracle
from bernoulli_oracle import bernoulli_poly_coeffs
from elladic import bernoulli
from elladic.bernoulli import (
    _bernoulli_sums,
    _character_bernoulli,
    bernoulli_number,
    bernoulli_poly,
    gen_bernoulli,
)
from elladic.lfunctions import hurwitz_node, zinv_node
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
    the Teichmuller values, worked to ndigits + k + 3 digits, with B_k(a/ell)
    from the Fraction oracle."""
    j %= ell - 1
    work = ndigits + k + 3
    acc = PadicNum.zero(ell)
    for a in range(1, ell):
        term = PadicNum.from_rational(oracle.bernoulli_poly(k, Fraction(a, ell)), ell, work)
        if j:
            term = term * teichmuller(a, ell, work) ** j
        acc = acc + term
    out = acc * PadicNum.from_rational(ell, ell, work) ** (k - 1)
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

    def test_index_past_the_weight_budget_is_refused_before_the_build(self, monkeypatch):
        """The budget decides, not the length of the table already built."""
        monkeypatch.setattr(bernoulli, "_TABLE", bernoulli._build(80))
        monkeypatch.setattr(bernoulli, "_WEIGHT_BUDGET", 60)
        assert bernoulli_number(60) == akiyama_tanigawa(60)[60]
        for k in (61, 79, 10 ** 9):
            with pytest.raises(ValueError, match="^weight too large: k must be at most 60$"):
                bernoulli_number(k)
        with pytest.raises(ValueError, match="^weight too large"):
            bernoulli_poly(61, Fraction(1, 3))


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

    def test_digit_count_bound_names_the_largest_served(self):
        # the Teichmuller weights start 3 digits past ndigits, whose budget is 1000
        assert gen_bernoulli(2, 0, 5, 997).ndigits == 997
        with pytest.raises(ValueError,
                           match="^precision too large: ndigits must be at most 997 digits$"):
            gen_bernoulli(2, 0, 5, 998)

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


@functools.cache
def akiyama_tanigawa_table():
    return akiyama_tanigawa(400)


def oracle_sum(k, f, points):
    """sum over the points a of B_k(a/f), each from the Fraction oracle."""
    return sum((oracle.bernoulli_poly(k, Fraction(a, f)) for a in points), Fraction(0))


def characters():
    """(f, residues, ell): a character mod f by its residues mod ell (0 off
    the units).  The Teichmuller powers mod ell that ``gen_bernoulli`` uses,
    every character of each prime modulus f != ell with values among the
    (ell-1)-st roots of unity, and the odd character mod 4."""
    primes = [3, 5, 7, 11, 13]
    out = []
    for ell in primes:
        out += [(ell, {a: pow(a, j, ell) for a in range(1, ell)}, ell) for j in range(ell - 1)]
        out.append((4, {1: 1, 3: ell - 1}, ell))
        for f in primes:
            if f == ell:
                continue
            g = next(g for g in range(2, f) if len({pow(g, i, f) for i in range(f - 1)}) == f - 1)
            for r in range(2, ell):
                if pow(r, f - 1, ell) == 1:
                    out.append((f, {pow(g, i, f): pow(r, i, ell) for i in range(f - 1)}, ell))
    return out


CHARACTERS = characters()


class TestIntegerTable:
    """The tangent-number table against the Fraction recurrence and
    Akiyama-Tanigawa, read from a table of any length."""

    def test_every_index_to_400(self):
        at = akiyama_tanigawa_table()
        for k in range(401):
            assert bernoulli_number(k) == oracle.bernoulli_number(k) == at[k], k

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 330), st.integers(-1, 70))
    def test_read_at_and_past_the_table_length(self, n, step):
        # a table of n entries asked for index n - 1 (the last it holds), n
        # (the first it lacks), n + 1 and further on
        k = min(n + step, 400)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bernoulli, "_TABLE", bernoulli._build(n))
            got = bernoulli_number(k)
            grown = len(bernoulli._TABLE[1])
        assert got == oracle.bernoulli_number(k) == akiyama_tanigawa_table()[k]
        assert grown == (n if k < n else max(k + 1, n * 9 // 8))


class TestKernel:
    """One integer kernel for every sum of B_k(a/f), against the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 30),
           st.lists(st.lists(st.integers(-40, 70), max_size=3), min_size=1, max_size=3))
    @example(0, 1, [[0]])
    @example(1, 7, [[0, -3, 9], []])
    @example(2, 30, [[-30, 30, 31]])
    def test_group_sums(self, k, f, groups):
        # points may be 0, negative or at least f
        assert _bernoulli_sums(k, f, groups) == [oracle_sum(k, f, g) for g in groups]

    @settings(max_examples=60, deadline=None)
    # t is drawn inside [-9, 9], ends included, not filtered down to it
    @given(st.integers(0, 200), st.fractions(min_value=-9, max_value=9, max_denominator=40))
    @example(200, Fraction(-9))
    @example(200, Fraction(9))
    def test_bernoulli_poly(self, k, t):
        assert bernoulli_poly(k, t) == oracle.bernoulli_poly(k, t)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 600), st.integers(1, 40),
           st.lists(st.lists(st.integers(-60, 100), max_size=4), min_size=1, max_size=3),
           st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 40))
    @example(456, 12, [[1], [2]], 5, 12)
    @example(1, 6, [[0, -6, 6], []], 13, 1)
    @example(600, 40, [[-60, 0, 40, 100]], 3, 40)
    def test_residues_are_the_exact_numerators_reduced(self, k, f, groups, ell, W):
        # points may be 0, negative or at least f
        modulus = ell ** W
        exact = _bernoulli_sums(k, f, groups)
        d = bernoulli._TABLE[0]
        scale = d * f ** k
        assert all((scale * x).denominator == 1 for x in exact)
        want = [int(scale * x) % modulus for x in exact]
        assert _bernoulli_sums(k, f, groups, modulus) == (d, want)

    def test_residues_follow_a_grown_table(self, monkeypatch):
        # B_0..B_9 have D = 210; the table grown to index 40 has another D,
        # so every S_j changes and residues read from the short table are
        # stale.  B_0..B_13 and B_0..B_15 share D = 30030 (15 is not prime),
        # so that growth keeps them.
        modulus, groups = 7 ** 9, [[1, 5], [-2]]
        monkeypatch.setattr(bernoulli, "_TABLE", bernoulli._build(10))
        monkeypatch.setattr(bernoulli, "_RESIDUES", {})
        short = bernoulli._TABLE
        before = _bernoulli_sums(8, 6, groups, modulus)
        grown = _bernoulli_sums(40, 6, groups, modulus)
        assert bernoulli._TABLE[0] != short[0]
        again = _bernoulli_sums(8, 6, groups, modulus)
        assert bernoulli._RESIDUES[modulus][0] == bernoulli._TABLE[0]
        calls = [(8, before), (40, grown), (8, again)]
        monkeypatch.setattr(bernoulli, "_TABLE", bernoulli._build(14))
        calls.append((12, _bernoulli_sums(12, 6, groups, modulus)))
        calls.append((15, _bernoulli_sums(15, 6, groups, modulus)))
        assert bernoulli._TABLE[0] == 30030 == bernoulli._RESIDUES[modulus][0]
        assert len(bernoulli._TABLE[1]) == 16 == len(bernoulli._RESIDUES[modulus][1])
        for k, (d, got) in calls:
            scale = d * 6 ** k
            assert got == [int(scale * x) % modulus for x in _bernoulli_sums(k, 6, groups)]
        assert before[0] == short[0] and again[0] == grown[0]

    def test_residue_cache_holds_at_most_its_bound(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_RESIDUES", {})
        bound = bernoulli._RESIDUE_MODULI
        sizes = []
        for ell in (3, 5, 7, 11, 13):
            for W in range(1, 31):
                _bernoulli_sums(20, 6, [[1]], ell ** W)
                sizes.append(len(bernoulli._RESIDUES))
        assert bound == 64 and max(sizes) == bound
        assert all(len(s) == 21 for _, s in bernoulli._RESIDUES.values())


class TestNodes:
    """Each reader of the kernel against values built from the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(CHARACTERS), st.integers(1, 120), st.integers(1, 8))
    def test_character_bernoulli(self, char, k, nd):
        f, residues, ell = char
        residue = lambda a: residues.get(a % f, 0)  # noqa: E731
        got = _character_bernoulli(k, f, residue, ell, nd)
        classes = {}
        for a in range(1, f):
            if r := residue(a):
                classes[r] = classes.get(r, 0) + oracle.bernoulli_poly(k, Fraction(a, f))
        scale = Fraction(f) ** (k - 1)
        if set(classes) <= {1, ell - 1}:
            assert got == scale * (classes.get(1, 0) - classes.get(ell - 1, 0))
            return
        work = nd + k + 4
        want = PadicNum.zero(ell)
        for r, t in classes.items():
            want = want + PadicNum.from_rational(scale * t, ell, work) * teichmuller(r, ell, work)
        if got.is_exact_zero:
            assert residue(f - 1) == 1 if k % 2 else residue(f - 1) == ell - 1
            assert want.unit == 0
        else:
            assert got.ndigits == nd
            assert got.congruent(want)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(2, 30), st.integers(1, 150), st.data())
    def test_hurwitz_node(self, ell, m, k, data):
        assume(m % ell)
        i = data.draw(st.sampled_from([a for a in range(1, m) if math.gcd(a, m) == 1]))
        shifted = i * pow(ell, -1, m) % m
        want = (oracle_sum(k, m, [i]) - Fraction(ell) ** (k - 1) * oracle_sum(k, m, [shifted])) / k
        assert hurwitz_node(k, i, m, ell) == want

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]),
           st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True),
           st.integers(1, 120))
    def test_zinv_node(self, ell, primes, k):
        assume(ell not in primes)
        m = math.prod(primes)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        assert zinv_node(k, primes, ell) == (1 - Fraction(ell) ** (k - 1)) / k * oracle_sum(k, m, units)
