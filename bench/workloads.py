"""Seeded request generators for the benchmark workloads.

Each workload is an endless stream of *rounds*.  A round holds one request per
request class (a class fixes the structural size of the request: prime, level,
tower shape, verification degree); the seed draws everything else.  Because
every round has the same class mix, whole rounds cost about the same whatever
the seed, which keeps throughput comparable between seeds.

Only valid requests are generated: error paths (including the traceback on a
negative ``--prec``) are covered by the test suite, not by the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random


@dataclass
class Request:
    kind: str            # which checker handles the response
    argv: list           # what the CLI receives
    info: dict = field(default_factory=dict)  # parameters the checker needs

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _s_arg(s: Fraction) -> str:
    # "--s -3/2" would be read as a flag by argparse, so values that may be
    # negative are always passed as "--flag=value".
    return f"--s={s}"


# -- lvalue-measure -----------------------------------------------------------

# (ell, level): top tables of 81 .. 15625 cells.  An odd number of classes puts
# the latency median inside one class rather than between two.
MEASURE_CLASSES = [(3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
                   (5, 3), (5, 4), (5, 5), (5, 6), (7, 3), (7, 4)]
MEASURE_S = ["-3", "-2", "-1", "1", "2", "3", "5", "7", "1/2", "-3/2", "2/3", "-5/4"]


def measure_s_values(ell):
    return [Fraction(s) for s in MEASURE_S if Fraction(s).denominator % ell]


def measure_regularisers(ell):
    """None (the CLI default) and the two smallest valid c >= 7 (units whose
    (ell-1)-st power is not 1 mod ell^2)."""
    extra = [c for c in range(7, 60) if c % ell and pow(c, ell - 1, ell * ell) != 1][:2]
    return [None] + extra


def measure_request(cmd, ell, level, beta, s, c) -> Request:
    argv = [cmd, "--ell", str(ell), "--beta", str(beta), _s_arg(s),
            "--level", str(level), "--method", "measure"]
    if c is not None:
        argv += ["--c", str(c)]
    return Request("measure-lvalue", argv,
                   {"cmd": cmd, "ell": ell, "level": level, "beta": beta, "s": s, "c": c})


def measure_floor_key(req) -> str:
    p = req.info
    return f"{p['cmd']} {p['ell']} {p['level']} {p['beta']} {p['s']} {p['c'] or '-'}"


def measure_universe():
    """Every request the lvalue-measure workload can send (finite, so the
    claimed digits of each can be recorded once)."""
    for ell, level in MEASURE_CLASSES:
        for beta in range(ell - 1):
            cmds = ["kl", "minus-one"] if beta % 2 == 0 else ["kl"]
            for cmd in cmds:
                for s in measure_s_values(ell):
                    for c in measure_regularisers(ell):
                        yield measure_request(cmd, ell, level, beta, s, c)


class LvalueMeasure:
    name = "lvalue-measure"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)

    def round(self):
        rng = self.rng
        out = []
        for ell, level in MEASURE_CLASSES:
            beta = rng.randrange(ell - 1)
            cmd = rng.choice(["kl", "minus-one"]) if beta % 2 == 0 else "kl"
            s = rng.choice(measure_s_values(ell))
            c = rng.choice(measure_regularisers(ell))
            out.append(measure_request(cmd, ell, level, beta, s, c))
        rng.shuffle(out)
        return out


# -- lvalue-interp ------------------------------------------------------------

# (ell, --prec) pairs.  The interpolation weight is below (ell-1)*ell^prec,
# so no Bernoulli index is far above 500.
INTERP_PREC = [(3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 1), (13, 1)]
# A round has one request of each kind in each weight band.  A request's cost
# grows with its weight, so fixing the bands keeps rounds and the latency
# distribution alike across seeds.  dirichlet skips the top band: there its
# one-unit power at k+14 digits would make padic, not bernoulli, the main layer.
INTERP_BANDS = [(1, 170), (170, 340), (340, 501)]
INTERP_SLOTS = ([(kind, band) for kind in ("kl", "hurwitz", "zinv") for band in INTERP_BANDS]
                + [("dirichlet", band) for band in INTERP_BANDS[:2]])


def interp_weight(beta, s: Fraction, ell, prec):
    """(k, exact): the interpolation weight k >= 1 with k = beta mod ell-1 and
    k = s mod ell^prec; exact when s itself is such a weight."""
    if s.denominator == 1 and s >= 1 and (s - beta) % (ell - 1) == 0:
        return int(s), True
    mod = ell ** prec
    sv = s.numerator * pow(s.denominator, -1, mod) % mod
    k = next(sv + mod * t for t in range(ell - 1) if (sv + mod * t - beta) % (ell - 1) == 0)
    return k or (ell - 1) * mod, False


def _units(m):
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def _primitive(values, m):
    for f in range(1, m):
        if m % f == 0 and all(v == 1 for a, v in values.items() if a % f == 1 % f):
            return False
    return True


def characters(ell, max_modulus=12):
    """Primitive characters mod m (m coprime to ell) with values among the
    (ell-1)-st roots of unity, each as {unit: residue mod ell}."""
    out = []
    for m in range(3, max_modulus + 1):
        if m % ell == 0:
            continue
        units = _units(m)
        gens, span = [], {1}
        for a in units:
            if a not in span:
                gens.append(a)
                span = _closure(span | {a}, m)
        for vals in itertools.product(range(1, ell), repeat=len(gens)):
            table = _extend(gens, vals, m, ell)
            if table is not None and _primitive(table, m):
                out.append((m, table))
    return out


def _closure(elems, m):
    elems = set(elems)
    while True:
        new = {a * b % m for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def _extend(gens, vals, m, ell):
    """The character with the given values on the generators, or None when
    they do not define one.  Every (unit, generator) product is checked once,
    which makes the map multiplicative."""
    table = {1: 1}
    frontier = [1]
    while frontier:
        nxt = []
        for a in frontier:
            for g, v in zip(gens, vals):
                b, w = a * g % m, table[a] * v % ell
                if b not in table:
                    table[b] = w
                    nxt.append(b)
                elif table[b] != w:
                    return None
        frontier = nxt
    return table


def psi_spec(m, table):
    return f"{m}:" + ",".join(f"{a}={table[a]}" for a in sorted(table))


def zinv_prime_sets(ell):
    primes = [p for p in (2, 3, 5, 7) if p != ell]
    return [[p] for p in primes] + [[p, q] for p, q in ([2, 3], [2, 5]) if ell not in (p, q)]


class LvalueInterp:
    name = "lvalue-interp"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)
        self.chars = {ell: characters(ell) for ell, _ in INTERP_PREC}

    def _s(self, ell, beta):
        rng = self.rng
        if rng.random() < 0.1:
            # exact weight: a positive integer congruent to beta mod ell-1
            return Fraction(beta + (ell - 1) * rng.randint(0 if beta else 1, 40 // (ell - 1)))
        den = rng.choice([d for d in range(1, 10) if d % ell])
        return Fraction(rng.choice([n for n in range(-20, 21) if n]), den)

    def request(self, kind, band):
        rng = self.rng
        low, high = band
        pairs = [(ell, prec) for ell, prec in INTERP_PREC if (ell - 1) * ell ** prec > low]
        while True:
            ell, prec = rng.choice(pairs)
            beta = rng.randrange(ell - 1)
            s = self._s(ell, beta)
            if low <= interp_weight(beta, s, ell, prec)[0] < high:
                break
        info = {"ell": ell, "beta": beta, "s": s, "prec": prec}
        head = ["--ell", str(ell), "--beta", str(beta), _s_arg(s)]
        tail = ["--prec", str(prec)]
        if kind == "kl":
            return Request("interp-kl", ["kl"] + head + ["--method", "interp"] + tail, info)
        if kind == "hurwitz":
            m = rng.choice([m for m in range(2, 13) if m % ell])
            i = rng.choice(_units(m))
            info.update(i=i, m=m)
            return Request("interp-hurwitz",
                           ["hurwitz"] + head + ["--i", str(i), "--m", str(m)] + tail, info)
        if kind == "dirichlet":
            m, table = rng.choice(self.chars[ell])
            info.update(m=m, psi=table)
            return Request("interp-dirichlet",
                           ["dirichlet"] + head + ["--psi", psi_spec(m, table)] + tail, info)
        primes = rng.choice(zinv_prime_sets(ell))
        info.update(primes=primes)
        return Request("interp-zinv",
                       ["zinv"] + head + ["--primes", ",".join(map(str, primes))] + tail, info)

    def round(self):
        out = [self.request(kind, band) for kind, band in INTERP_SLOTS]
        self.rng.shuffle(out)
        return out


# -- identities ---------------------------------------------------------------

# (suite, degree, pass --chi).  A given --chi changes the cost (gamma checks
# one chi instead of three), so each slot fixes whether it is given.  verify
# gamma fails at every odd degree (verify_gamma passes degree // 2 even
# coefficients, one short); see README.md.
IDENTITY_ROUND = ([("bch", d, False) for d in (8, 9, 10)]
                  + [("inversion", d, d % 2 == 1) for d in range(6, 13)]
                  + [("gamma", d, d % 4 == 0) for d in range(4, 17, 2)])
CHI_CHOICES = ["2", "3", "-1", "5", "1/2", "-2/3", "3/2"]


class Identities:
    name = "identities"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)

    def round(self):
        rng = self.rng
        out = []
        for suite, degree, with_chi in IDENTITY_ROUND:
            argv = ["verify", suite, "--degree", str(degree), "--seed", str(rng.randrange(10 ** 6))]
            if with_chi:
                argv.append("--chi=" + rng.choice(CHI_CHOICES))
                if suite == "inversion":
                    argv.append(f"--t={Fraction(rng.randint(1, 5), rng.choice([2, 3, 7]))}")
            out.append(Request("verify", argv, {"suite": suite, "degree": degree}))
        rng.shuffle(out)
        return out


# -- towers ---------------------------------------------------------------------

# (ell, rank, depth, transform degree): top tables of 243 .. 729 cells.
TOWER_CLASSES = [(3, 1, 5, 8), (5, 1, 4, 8), (7, 1, 3, 8),
                 (3, 2, 3, 5), (5, 2, 2, 5), (3, 3, 2, 3)]


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decode(idx, m, rank):
    out = []
    for _ in range(rank):
        idx, c = divmod(idx, m)
        out.append(c)
    return tuple(out)


def encode(coords, m):
    idx = 0
    for c in reversed(coords):
        idx = idx * m + c
    return idx


def coarsen(table, ell, rank, n):
    """Level n-1 table from the level-n table: sum the ell^rank children."""
    m = ell ** (n - 1)
    out = [Fraction(0)] * (m ** rank)
    for idx, v in enumerate(table):
        if v:
            coords = decode(idx, m * ell, rank)
            out[encode(tuple(c % m for c in coords), m)] += v
    return out


def make_tower(rng, ell, rank, depth):
    """A coherent bounded tower: random top level (a quarter of the cells zero,
    denominators at most ell), coarser levels by summation."""
    with_denoms = rng.random() < 0.5
    top = []
    for _ in range(ell ** (rank * depth)):
        v = Fraction(rng.randint(-9, 9)) if rng.random() < 0.75 else Fraction(0)
        if with_denoms and rng.random() < 0.3:
            v /= ell
        top.append(v)
    levels = [top]
    for n in range(depth, 0, -1):
        levels.append(coarsen(levels[-1], ell, rank, n))
    levels.reverse()
    return levels


def denom_exponent(levels, ell):
    d = 0
    for table in levels:
        for v in table:
            den = v.denominator
            e = 0
            while den % ell == 0:
                den //= ell
                e += 1
            d = max(d, e)
    return d


class Towers:
    name = "towers"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)
        self.workdir = workdir
        self.towers = []
        for i, (ell, rank, depth, degree) in enumerate(TOWER_CLASSES):
            levels = make_tower(self.rng, ell, rank, depth)
            path = os.path.join(workdir, f"tower{i}.json")
            doc = {"ell": ell, "rank": rank, "depth": depth,
                   "denom_exponent": denom_exponent(levels, ell),
                   "levels": [[frac_str(v) for v in t] for t in levels]}
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.towers.append({"path": path, "ell": ell, "rank": rank, "depth": depth,
                                "degree": degree, "levels": levels})
        self.outputs = 0

    def _integrate(self, t):
        rng = self.rng
        ell, rank, depth = t["ell"], t["rank"], t["depth"]
        level = rng.randint(1, depth)
        powers = [rng.randint(0, 3) for _ in range(rank)]
        argv = ["measure", "integrate", "--in", t["path"], "--level", str(level),
                "--powers", ",".join(map(str, powers))]
        info = {"tower": t, "level": level, "powers": powers, "units": False,
                "teich": [0] * rank, "inv": [0] * rank, "bracket": [None] * rank}
        if rng.random() < 0.6:
            teich = [rng.randrange(ell - 1) for _ in range(rank)]
            inv = [rng.randint(0, 1) for _ in range(rank)]
            bracket = [None if rng.random() < 0.3 else
                       Fraction(rng.randint(-7, 7), rng.choice([d for d in (1, 2, 3, 4) if d % ell]))
                       for _ in range(rank)]
            argv += ["--units", "--teich", ",".join(map(str, teich)),
                     "--inv", ",".join(map(str, inv)),
                     "--bracket=" + ",".join("-" if b is None else str(b) for b in bracket)]
            info.update(units=True, teich=teich, inv=inv, bracket=bracket)
        return Request("tower-integrate", argv, info)

    def requests_for(self, t):
        rng = self.rng
        rank = t["rank"]
        matrix = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        out_path = os.path.join(self.workdir, f"out{self.outputs}.json")
        self.outputs += 1
        return [
            Request("tower-validate", ["measure", "validate", "--in", t["path"]], {"tower": t}),
            Request("tower-pushforward",
                    ["measure", "pushforward", "--in", t["path"], "--out", out_path,
                     "--matrix=" + ";".join(",".join(map(str, row)) for row in matrix)],
                    {"tower": t, "matrix": matrix, "out": out_path}),
            self._integrate(t),
            Request("tower-transform",
                    ["measure", "transform", "--in", t["path"], "--kind", "p",
                     "--degree", str(t["degree"])], {"tower": t, "kind": "p"}),
            Request("tower-transform",
                    ["measure", "transform", "--in", t["path"], "--kind", "f",
                     "--degree", str(t["degree"])], {"tower": t, "kind": "f"}),
        ]

    def round(self):
        out = []
        for t in self.towers:
            out += self.requests_for(t)
        self.rng.shuffle(out)
        return out


WORKLOADS = {w.name: w for w in (LvalueMeasure, LvalueInterp, Identities, Towers)}
