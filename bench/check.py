"""Response checks, run after the timed loop so they are in no metric.

The expected values come from this file's own exact arithmetic, not from
elladic: Bernoulli numbers from tangent numbers, Bernoulli polynomials as one
integer sum, Teichmuller lifts by fixed-point iteration, and Riemann sums,
pushforwards and moment sums over the benchmark's own towers.  Residues are
compared directly; ``PadicNum.congruent`` is not used because it answers False
when it cannot decide.

A request also fails when it claims fewer digits than the seed commit claimed
for it: recorded per request in floors.json for the measure route, and given
by the README's precision model for interpolated values and Riemann sums.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from math import comb, factorial

from workloads import (coarsen, decode, denom_exponent, encode, frac_str, interp_weight,
                       measure_floor_key)

INF = math.inf

# --prec used for the interpolation value that measure-route L-values are
# checked against: the largest M with (ell-1)*ell^M <= 500.
MEASURE_CHECK_PREC = {3: 5, 5: 3, 7: 2}
EXACT_DIGITS = 8  # significant digits the CLI reports at exact weights


# -- exact rationals ----------------------------------------------------------


class Bernoulli:
    """B_n (B_1 = -1/2) from tangent numbers (Knuth-Buckholtz), and B_k(t)."""

    def __init__(self):
        self.b = [Fraction(1), Fraction(-1, 2)]
        self.lcm = 2
        self.scaled = [2, -1]  # lcm * B_j

    def _grow(self, n):
        half = n // 2 + 1
        t = [0] * (half + 1)
        t[1] = 1
        for k in range(2, half + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, half + 1):
            for j in range(k, half + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        b = [Fraction(1), Fraction(-1, 2)]
        for i in range(1, half + 1):
            four = 4 ** i
            b.append(Fraction((-1) ** (i - 1) * 2 * i * t[i], four * (four - 1)))
            b.append(Fraction(0))
        self.b = b
        self.lcm = math.lcm(*(q.denominator for q in b))
        self.scaled = [q.numerator * (self.lcm // q.denominator) for q in b]

    def number(self, n):
        if n >= len(self.b) - 1:
            self._grow(max(n, 2 * len(self.b)))
        return self.b[n]

    def poly(self, k, t: Fraction):
        """B_k(a/b) = sum_j C(k,j) B_j a^(k-j) b^j / b^k, as one integer sum."""
        self.number(k)
        a, b = t.numerator, t.denominator
        apow = [1]
        for _ in range(k):
            apow.append(apow[-1] * a)
        total, binom, bpow = 0, 1, 1
        for j in range(k + 1):
            if self.scaled[j]:
                total += binom * self.scaled[j] * apow[k - j] * bpow
            binom = binom * (k - j) // (j + 1)
            bpow *= b
        return Fraction(total, self.lcm * b ** k)


def vint(n: int, ell: int) -> int:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def vfrac(q: Fraction, ell: int):
    """ell-adic valuation; infinite for 0."""
    return vint(q.numerator, ell) - vint(q.denominator, ell) if q else INF


def residue(q: Fraction, ell: int, shift: int, n: int) -> int:
    """ell^shift * q mod ell^n, for ell^shift * q ell-integral."""
    q = q * Fraction(ell) ** shift
    mod = ell ** n
    return q.numerator * pow(q.denominator, -1, mod) % mod


def teich(r: int, ell: int, n: int) -> int:
    """The (ell-1)-st root of unity congruent to r mod ell, mod ell^n."""
    mod = ell ** n
    x = r % mod
    for _ in range(n + 1):
        y = pow(x, ell, mod)
        if y == x:
            break
        x = y
    return x


def node_prec(v, prec, beta, k, ell):
    """Digits an interpolated value of valuation v carries (README,
    "Precision model"): prec less the valuation drop of the value, and v(k)
    more on the pole branch."""
    p = prec + min(0, v)
    if beta % (ell - 1) == 0:
        p -= vint(k, ell)
    return p


# -- ell-adic JSON values -------------------------------------------------------


def claimed(doc) -> float:
    """Absolute precision exponent an ell-adic JSON value claims."""
    if doc.get("zero"):
        return INF
    if doc["unit"] == 0:
        return doc["valuation"]
    return doc["valuation"] + doc["precision"]


def _doc_residue(doc, shift, n):
    if doc.get("zero") or doc["unit"] == 0:
        return 0
    return doc["unit"] * doc["ell"] ** (doc["valuation"] + shift) % doc["ell"] ** n


def _shift_for(doc, *vals):
    low = list(vals)
    if not doc.get("zero") and doc["unit"]:
        low.append(doc["valuation"])
    return max([0] + [-v for v in low])


def agrees_rational(doc, q: Fraction, prec) -> bool:
    """doc == q modulo ell^min(claimed, prec)."""
    ell = doc["ell"]
    a = min(claimed(doc), prec)
    if a == INF:
        return bool(doc.get("zero")) and q == 0
    shift = _shift_for(doc, vfrac(q, ell))
    n = a + shift
    if n <= 0:
        return True
    return _doc_residue(doc, shift, n) == residue(q, ell, shift, n)


def agrees_residue(doc, expected: int, shift, a) -> bool:
    """doc == expected / ell^shift modulo ell^a (expected known mod ell^(a+shift))."""
    ell = doc["ell"]
    extra = _shift_for(doc) - shift
    if extra > 0:  # the response has digits below ell^-shift; compare on a finer scale
        expected *= ell ** extra
        shift += extra
    n = a + shift
    if n <= 0:
        return True
    return _doc_residue(doc, shift, n) == expected % ell ** n


# -- the checker ----------------------------------------------------------------


class Checker:
    def __init__(self, floors_path):
        with open(floors_path) as fh:
            self.measure_floors = json.load(fh)["lvalue-measure"]
        self.bern = Bernoulli()
        self.cache = {}

    def check(self, req, rc, out):
        """None when the response is right, else a reason."""
        try:
            doc = json.loads(out)
        except ValueError:
            return f"exit {rc}, output is not one JSON document"
        if rc != 0:
            return f"exit {rc}: {out.strip()[:200]}"
        key = (req.key, out)
        if key not in self.cache:
            self.cache[key] = getattr(self, "_" + req.kind.replace("-", "_"))(req, doc)
        return self.cache[key]

    # L-values -----------------------------------------------------------------

    def kl_node(self, k, ell):
        """-(1 - ell^(k-1)) B_k / k, the L-value at weight k."""
        return -(1 - Fraction(ell) ** (k - 1)) * self.bern.number(k) / k

    def hurwitz_node(self, k, i, m, ell):
        shifted = i * pow(ell, -1, m) % m
        b = self.bern
        return (b.poly(k, Fraction(i, m))
                - Fraction(ell) ** (k - 1) * b.poly(k, Fraction(shifted, m))) / k

    def _floor(self, doc, floor):
        if claimed(doc) < floor:
            return f"claims {claimed(doc)} digits, seed commit claimed {floor}"
        return None

    def _measure_lvalue(self, req, doc):
        p = req.info
        ell, beta, s = p["ell"], p["beta"], p["s"]
        prec = MEASURE_CHECK_PREC[ell]
        k, exact = interp_weight(beta, s, ell, prec)
        node = self.kl_node(k, ell)
        want_prec = INF if exact else node_prec(vfrac(node, ell), prec, beta, k, ell)
        want = node
        if p["cmd"] == "minus-one":
            # Euler factor (1-t)/t, t = omega(2)^beta <2>^s / 2 = 2^(k-1) at weight k;
            # moving from k to s changes it by ell^(prec+1).
            f = Fraction(2) ** (1 - k) - 1
            if not exact:
                vf = min(vfrac(f, ell), prec + 1)
                vn = min(vfrac(node, ell), want_prec)
                want_prec = min(vf + want_prec, prec + 1 + vn)
            want = f * node
        if not agrees_rational(doc["value"], want, want_prec):
            return f"value disagrees with the interpolation node at k={k}"
        return self._floor(doc["value"], self.measure_floors[measure_floor_key(req)])

    def _interp_floor(self, req, doc, node_v, k, exact):
        p = req.info
        if exact:
            floor = (0 if node_v == INF else node_v) + EXACT_DIGITS
        else:
            floor = node_prec(node_v, p["prec"], p["beta"], k, p["ell"])
        return self._floor(doc, floor)

    def _rational_lvalue(self, req, doc, node, k, exact):
        ell = req.info["ell"]
        if not agrees_rational(doc, node, INF):
            return f"value disagrees with the exact node at k={k}"
        return self._interp_floor(req, doc, vfrac(node, ell), k, exact)

    def _interp_kl(self, req, doc):
        p = req.info
        k, exact = interp_weight(p["beta"], p["s"], p["ell"], p["prec"])
        return self._rational_lvalue(req, doc["value"], self.kl_node(k, p["ell"]), k, exact)

    def _interp_hurwitz(self, req, doc):
        p = req.info
        k, exact = interp_weight(p["beta"], p["s"], p["ell"], p["prec"])
        node = self.hurwitz_node(k, p["i"], p["m"], p["ell"])
        return self._rational_lvalue(req, doc["value"], node, k, exact)

    def _interp_zinv(self, req, doc):
        p = req.info
        ell, beta, prec = p["ell"], p["beta"], p["prec"]
        k, exact = interp_weight(beta, p["s"], ell, prec)
        m = math.prod(p["primes"])
        node = sum((self.hurwitz_node(k, i, m, ell) for i in range(1, m) if math.gcd(i, m) == 1),
                   Fraction(0))
        bad = self._rational_lvalue(req, doc["value"], node, k, exact)
        if bad:
            return bad
        # product route: prod_p (p <p>^-s omega(p)^-beta - 1) * L, which is
        # prod_p (p^(1-k) - 1) * kl_node(k) at weight k.
        kl = self.kl_node(k, ell)
        factors = [Fraction(q) ** (1 - k) - 1 for q in p["primes"]]
        want = kl * math.prod(factors)
        want_prec = INF
        if not exact:
            vf = [min(vfrac(f, ell), prec + 1) for f in factors]
            vk = vfrac(kl, ell)
            base_prec = node_prec(vk, prec, beta, k, ell)
            want_prec = min([sum(vf) + base_prec] +
                            [prec + 1 + sum(vf) - v + vk for v in vf])
        if not agrees_rational(doc["product_route"], want, want_prec):
            return f"product route disagrees with the exact node at k={k}"
        if doc["magnitude_matches"] != (doc["sign"] is not None):
            return "magnitude_matches and sign disagree"
        return None

    def _interp_dirichlet(self, req, doc):
        p = req.info
        ell, beta, prec, m = p["ell"], p["beta"], p["prec"], p["m"]
        k, exact = interp_weight(beta, p["s"], ell, prec)
        value = doc["value"]
        # -m^(k-1) sum_a omega(psi(a)) H_a(k); at s the front factor differs by
        # <m>^(s-k) = 1 mod ell^(prec+1).
        h = {a: self.hurwitz_node(k, a, m, ell) for a in p["psi"]}
        shift = max([0] + [-vfrac(q, ell) for q in h.values()])
        shift = max(shift, _shift_for(value))
        top = claimed(value)
        n = (top if top != INF else 40) + shift + prec + 2
        mod = ell ** n
        acc = sum(teich(p["psi"][a], ell, n) * residue(q, ell, shift, n) for a, q in h.items())
        expected = -pow(m, k - 1, mod) * acc % mod
        node_v = vint(expected, ell) - shift if expected else INF
        want_prec = INF if exact else min(node_v, n - shift) + prec + 1
        a = min(top, want_prec, n - shift)
        if not agrees_residue(value, expected, shift, a):
            return f"value disagrees with the exact character sum at k={k}"
        return self._interp_floor(req, value, node_v, k, exact)

    # identities -------------------------------------------------------------

    def _verify(self, req, doc):
        p = req.info
        if doc.get("suite") != p["suite"] or doc.get("degree") != p["degree"]:
            return "suite or degree not echoed"
        if doc.get("all_pass") is not True or not doc["checks"]:
            return "verification failed"
        if not all(c["pass"] for c in doc["checks"]):
            return "a check failed under all_pass"
        return None

    # towers -------------------------------------------------------------------

    def _tower_validate(self, req, doc):
        t = req.info["tower"]
        want = {"action": "validate", "valid": True, "rank": t["rank"], "depth": t["depth"],
                "denom_exponent": denom_exponent(t["levels"], t["ell"])}
        return None if doc == want else "validate document differs"

    def _tower_pushforward(self, req, doc):
        t, matrix = req.info["tower"], req.info["matrix"]
        ell, r = t["ell"], t["rank"]
        levels = []
        for n, table in enumerate(t["levels"]):
            m = ell ** n
            out = [Fraction(0)] * (m ** r)
            for idx, v in enumerate(table):
                if v:
                    x = decode(idx, m, r)
                    out[encode(tuple(sum(a * b for a, b in zip(row, x)) % m for row in matrix), m)] += v
            levels.append(out)
        want = {"ell": ell, "rank": r, "depth": t["depth"],
                "denom_exponent": denom_exponent(levels, ell),
                "levels": [[frac_str(v) for v in tab] for tab in levels]}
        if doc.get("matrix") != matrix or doc.get("tower") != want:
            return "pushforward tower differs from the exact image"
        with open(req.info["out"]) as fh:
            if json.load(fh) != want:
                return "--out file differs from the printed tower"
        return None

    def _tower_integrate(self, req, doc):
        p = req.info
        t = p["tower"]
        ell, r, depth = t["ell"], t["rank"], t["depth"]
        levels = t["levels"]
        if p["units"]:
            levels = [[v if all(c % ell for c in decode(i, ell ** n, r)) else Fraction(0)
                       for i, v in enumerate(tab)] if n else None
                      for n, tab in enumerate(levels)]
            levels[0] = coarsen(levels[1], ell, r, 1)
        d = denom_exponent(levels, ell)
        floor = p["level"] - sum(p["inv"]) - d
        value = doc["value"]
        # Compare with the finest Riemann sum, which is within ell^(depth-d)
        # of the integral: this checks the claimed digits, not just the sum.
        a = min(claimed(value), depth - d)
        shift = d
        n = max(a + shift, 1)
        mod = ell ** n
        total = 0
        scale = ell ** d
        for idx, wt in enumerate(levels[depth]):
            if not wt:
                continue
            val = 1
            for x, pw, tc, iv, br in zip(decode(idx, ell ** depth, r), p["powers"],
                                         p["teich"], p["inv"], p["bracket"]):
                f = pow(x, pw, mod)
                if p["units"]:
                    om = teich(x % ell, ell, n)
                    if iv:
                        f = f * pow(x, -1, mod)
                    f = f * pow(om, tc, mod)
                    if br is not None:
                        sres = br.numerator * pow(br.denominator, -1, mod) % mod
                        f = f * pow(x * pow(om, -1, mod) % mod, sres, mod)
                val = val * f % mod
            total += val * residue(wt * scale, ell, 0, n)
        if not agrees_residue(value, total % mod, shift, a):
            return "integral disagrees with the exact Riemann sum"
        return self._floor(value, floor)

    def _tower_transform(self, req, doc):
        t, kind = req.info["tower"], req.info["kind"]
        ell, r, depth, degree = t["ell"], t["rank"], t["depth"], t["degree"]
        cells = [(decode(i, ell ** depth, r), v) for i, v in enumerate(t["levels"][depth]) if v]
        coeffs = {}
        for n in _multi_indices(r, degree):
            acc = Fraction(0)
            for x, v in cells:
                w = 1
                for c, nj in zip(x, n):
                    w *= comb(c, nj) if kind == "p" else c ** nj
                acc += w * v
            if kind == "f":
                acc /= math.prod(factorial(nj) for nj in n)
            if acc:
                coeffs[",".join(map(str, n))] = frac_str(acc)
        want = {"action": "transform", "kind": kind, "degree": degree, "level": depth,
                "coeffs": coeffs}
        return None if doc == want else "transform coefficients differ from the exact moments"


def _multi_indices(rank, degree):
    if rank == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _multi_indices(rank - 1, degree - head):
            yield (head,) + tail


def default_floors_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "floors.json")
