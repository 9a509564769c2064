"""Batch command-line front end.

Every invocation prints a single JSON document (sorted keys, so identical
requests give byte-identical output).  Exit status: 0 on success and when all
verification checks pass, 1 on a domain error (structured error JSON), 2 on
usage errors (argparse).

Each request is parsed once, by its command's parser: ``main`` hands an argv
whose first token names a command straight to that command's parser, and the
top-level parser answers only an argv that names no command (no argv, ``-h``,
an option first, an unknown command) and refuses the tokens a command's
parser leaves over, with the messages ``build_parser()``'s ``parse_args``
gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import factorial
from random import Random

from .bernoulli import bernoulli_number, bernoulli_poly
from .lfunctions import (
    DirichletCharacter,
    dirichlet_l,
    hurwitz_l,
    kubota_leopoldt,
    minus_one_l,
    zinv_report,
)
from .measures import (
    Factor,
    _frac_from_str,
    integrate,
    pushforward_linear,
    restrict,
    tower_from_json,
    tower_to_json,
)
from .ncseries import (
    _DEGREE_BUDGET,
    ReducedSeries,
    _display_table,
    _kernel_table,
    _Poly,
    bch,
    bch_reduced,
    bch_scaled_pair,
    gamma_series,
    inversion_closed_form,
    inversion_parts,
    inversion_pipeline,
)
from .padic import smallest_regularizer, teichmuller
from .transforms import f_transform, p_transform


def _parse_s(text: str):
    """The --s argument: an int when integral, else a Fraction."""
    s = _frac_from_str(text, "--s")
    return int(s) if s.denominator == 1 else s


def _parse_csv(text: str, option: str) -> list[int]:
    """A comma-separated list of integers; empty entries are skipped."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated integers, got '{text}'") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _parse_psi(spec: str, ell: int) -> DirichletCharacter:
    """--psi m:a=v,...: the character mod m with value v (mod ell) at each unit a."""
    head, _, body = spec.partition(":")
    pairs = []
    try:
        m = int(head)
        for item in filter(None, body.split(",")):
            a, _, v = item.partition("=")
            pairs.append((int(a), int(v)))
    except ValueError:
        raise ValueError(f"--psi must be m:a=v,... in integers, got '{spec}'") from None
    values = {}
    for a, v in pairs:
        if a in values:
            raise ValueError(f"--psi repeats residue {a}: {a}={values[a]} and {a}={v}")
        values[a] = v
    return DirichletCharacter(m, values, ell)


# -- verification suites -------------------------------------------------------


def _first_discrepancy(r1, r2):
    """None when the series are equal, else the first differing coefficient;
    series that agree on every common coefficient differ in degree."""
    if r1 == r2:
        return None
    for i, (x, y) in enumerate(zip(r1.a, r2.a)):
        if x != y:
            return f"X^{i}"
    for i, (x, y) in enumerate(zip(r1.b, r2.b)):
        if x != y:
            return f"Y*X^{i}"
    return f"degree {r1.degree} vs {r2.degree}"


def _check(name, got, want) -> dict:
    disc = _first_discrepancy(got, want)
    return {"name": name, "pass": disc is None, "discrepancy": disc}


def _random_poly(rng: Random, degree: int):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(degree + 1)]


def verify_bch(degree: int = 10, seed: int = 7) -> dict:
    """log(e^A e^B) by exp and log power sums vs the closed form
    ``bch_reduced``, for A = alpha X + Y phi1(X) and B = beta X + Y phi2(X):
    A = X and B = Y both ways round, then 20 random pairs.

    The power sums run on ``ReducedSeries`` at ``degree``, where the check
    reads them: the quotient map and the X-degree window form an algebra map,
    which commutes with the truncated exp and log.  The closed form shares
    only the table core: one-variable products and ``_stack``.
    """
    rng = Random(seed)
    x = ReducedSeries(degree, [0, 1])
    y = ReducedSeries(degree, None, [1])
    checks = [_check("xy-closed-form", bch(x, y), bch_reduced(1, [0], 0, [1], degree)),
              _check("yx-closed-form", bch(y, x), bch_reduced(0, [1], 1, [0], degree))]
    for i in range(20):
        alpha = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.randint(1, 3))
        beta = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.randint(1, 3))
        phi1 = _random_poly(rng, 4)
        phi2 = _random_poly(rng, 4)
        got = bch(ReducedSeries(degree, [0, alpha], phi1), ReducedSeries(degree, [0, beta], phi2))
        want = bch_reduced(alpha, phi1, beta, phi2, degree)
        checks.append(_check(f"random-{i}", got, want))
    return {"suite": "bch", "degree": degree, "seed": seed, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


def verify_gamma(degree: int = 10, seed: int = 7, chis=None) -> dict:
    rng = Random(seed)
    chis = chis or [Fraction(2), Fraction(3), Fraction(1, 2)]
    checks = []
    for chi in chis:
        l_even = [
            bernoulli_number(2 * k) / (2 * factorial(2 * k)) * (1 - chi ** (2 * k))
            for k in range(1, (degree + 1) // 2 + 1)
        ]
        l_odd = [Fraction(rng.randint(-5, 5)) for _ in range(degree // 2 + 1)]
        out = gamma_series(chi, l_even, l_odd, degree)
        ok = out == ReducedSeries._stack(_Poly(degree), _kernel_table(chi, 0, degree))
        b = out._row(1)
        for trial in range(5):
            other_odd = [Fraction(rng.randint(-5, 5)) for _ in range(degree // 2 + 1)]
            again = gamma_series(chi, l_even, other_odd, degree)
            ok = ok and again._row(1) == b
        checks.append({"name": f"chi={chi}", "pass": ok})
    return {"suite": "gamma", "degree": degree, "seed": seed, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


def verify_inversion(degree: int = 8, seed: int = 7, chi=None, t=None) -> dict:
    """The group-product chain ``inversion_pipeline`` vs its closed form, and
    the scaled-pair loop vs its display formula, for 10 random A.

    The loop, its display check and the chain's other (chi, t)-only parts
    (``inversion_parts``: the chi kernel, exp(-t Z), exp(t Z), e^(-tX) and
    e^(tX)) are computed once per distinct (chi, t), so once per call with
    ``chi`` and ``t``; each check then costs one chain on its A and one
    closed form, which builds its own kernel at t and shares nothing with
    the chain."""
    rng = Random(seed)
    checks = []
    pairs = {}
    for i in range(10):
        a = _random_poly(rng, degree)
        ci = Fraction(chi) if chi is not None else Fraction(rng.choice([2, 3, -1, 5]), rng.choice([1, 2]))
        ti = Fraction(t) if t is not None else Fraction(rng.randint(1, 5), rng.choice([2, 3, 7]))
        if (ci, ti) not in pairs:
            loop = bch_scaled_pair(ci, ti, degree)
            pairs[ci, ti] = (loop, inversion_parts(ci, ti, degree),
                             ci == 0 or loop._row(1) == _display_table(ci, ti, degree))
        loop, parts, disp_ok = pairs[ci, ti]
        got = inversion_pipeline(a, ci, ti, degree, loop, parts)
        want = inversion_closed_form(a, ci, ti, degree)
        disc = _first_discrepancy(got, want)
        checks.append(
            {"name": f"random-{i}", "chi": str(ci), "t": str(ti),
             "pass": disc is None and disp_ok, "discrepancy": disc}
        )
    return {"suite": "inversion", "degree": degree, "seed": seed, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


# -- subcommand handlers ---------------------------------------------------------


def _cmd_bernoulli(args) -> dict:
    if args.t is not None:
        val = bernoulli_poly(args.k, _frac_from_str(args.t, "--t"))
        return {"k": args.k, "t": args.t, "value": str(val)}
    return {"k": args.k, "value": str(bernoulli_number(args.k))}


def _cmd_teichmuller(args) -> dict:
    val = teichmuller(args.u, args.ell, args.prec)
    return {"ell": args.ell, "u": args.u, "value": val.to_json()}


def _cmd_kl(args) -> dict:
    c = args.c if args.c is not None else smallest_regularizer(args.ell)
    s = _parse_s(args.s)
    val = kubota_leopoldt(
        args.beta, s, args.ell, c=c, level=args.level, method=args.method,
        M=args.prec,
    )
    return {
        "ell": args.ell, "beta": args.beta, "s": str(s), "c": c,
        "level": args.level, "method": args.method, "value": val.to_json(),
    }


def _cmd_minus_one(args) -> dict:
    s = _parse_s(args.s)
    val = minus_one_l(args.beta, s, args.ell, c=args.c, level=args.level,
                      method=args.method, M=args.prec)
    return {"ell": args.ell, "beta": args.beta, "s": str(s),
            "value": val.to_json()}


def _cmd_hurwitz(args) -> dict:
    s = _parse_s(args.s)
    val = hurwitz_l(args.beta, s, args.i, args.m, args.ell, M=args.prec)
    return {"ell": args.ell, "beta": args.beta, "s": str(s), "i": args.i,
            "m": args.m, "value": val.to_json()}


def _cmd_dirichlet(args) -> dict:
    psi = _parse_psi(args.psi, args.ell)
    s = _parse_s(args.s)
    val = dirichlet_l(psi, args.beta, s, args.ell, M=args.prec)
    return {"ell": args.ell, "beta": args.beta, "s": str(s),
            "psi": args.psi, "value": val.to_json()}


def _cmd_zinv(args) -> dict:
    primes = _parse_csv(args.primes, "--primes")
    s = _parse_s(args.s)
    rep = zinv_report(args.beta, s, primes, args.ell, M=args.prec)
    return {
        "ell": args.ell, "beta": args.beta, "s": str(s), "primes": primes,
        "value": rep["definition_route"].to_json(),
        "product_route": rep["product_route"].to_json(),
        "sign": rep["sign"],
        "magnitude_matches": rep["magnitude_matches"],
    }


def _cmd_measure(args) -> dict:
    with open(args.infile) as fh:
        mu = tower_from_json(json.load(fh))
    if args.ell is not None and args.ell != mu.ell:
        raise ValueError(f"tower file is for ell={mu.ell}, not {args.ell}")
    if args.action == "validate":
        return {"action": "validate", "valid": True,
                "denom_exponent": mu.denom_exponent, "depth": mu.depth,
                "rank": mu.rank}
    if args.action == "pushforward":
        if args.matrix is None:
            raise ValueError("pushforward needs --matrix")
        rows = [_parse_csv(row, "--matrix row") for row in args.matrix.split(";")]
        out = pushforward_linear(rows, mu)
        doc = tower_to_json(out)
        if args.outfile:
            with open(args.outfile, "w") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
        return {"action": "pushforward", "matrix": rows, "tower": doc}
    if args.action == "integrate":
        level = args.level if args.level is not None else mu.depth
        powers = _parse_csv(args.powers, "--powers") if args.powers else [0] * mu.rank
        teich = _parse_csv(args.teich, "--teich") if args.teich else [0] * mu.rank
        inv = _parse_csv(args.inv, "--inv") if args.inv else [0] * mu.rank
        brackets = (
            [None if b == "-" else _frac_from_str(b, "--bracket")
             for b in args.bracket.split(",")]
            if args.bracket
            else [None] * mu.rank
        )
        for name, values in (("powers", powers), ("inv", inv), ("teich", teich),
                             ("bracket", brackets)):
            if len(values) != mu.rank:
                raise ValueError(f"rank mismatch: a rank-{mu.rank} tower needs "
                                 f"{mu.rank} --{name} entries, got {len(values)}")
        if args.units:
            mu = restrict(mu, "units")
        factors = tuple(
            Factor(power=p, inverse=bool(iv), teich=tc, bracket=br)
            for p, iv, tc, br in zip(powers, inv, teich, brackets)
        )
        val = integrate(mu, factors, level)
        return {"action": "integrate", "level": level, "value": val.to_json()}
    level = args.level if args.level is not None else mu.depth
    if args.kind == "p":
        ser = p_transform(mu, args.degree, level)
    else:
        ser = f_transform(mu, args.degree, level)
    coeffs = {",".join(map(str, k)): str(v) for k, v in sorted(ser.coeffs.items())}
    return {"action": "transform", "kind": args.kind, "degree": args.degree,
            "level": level, "coeffs": coeffs}


def _cmd_verify(args) -> dict:
    if args.degree is not None and args.degree < 0:
        raise ValueError("degree must be >= 0")
    if args.degree is not None and args.degree > _DEGREE_BUDGET:
        raise ValueError(f"degree too large: --degree must be at most {_DEGREE_BUDGET}")
    chi = _frac_from_str(args.chi, "--chi") if args.chi else None
    chis = None if chi is None else [chi]
    t = _frac_from_str(args.t, "--t") if args.t else None
    series_degree = 10 if args.degree is None else args.degree
    inversion_degree = 8 if args.degree is None else args.degree
    if args.suite == "bch":
        doc = verify_bch(series_degree, args.seed)
    elif args.suite == "gamma":
        doc = verify_gamma(series_degree, args.seed, chis)
    elif args.suite == "inversion":
        doc = verify_inversion(inversion_degree, args.seed, chi=chi, t=t)
    else:  # "all"
        parts = [verify_bch(series_degree, args.seed),
                 verify_gamma(series_degree, args.seed, chis),
                 verify_inversion(min(inversion_degree, 8), args.seed, chi=chi, t=t)]
        doc = {"suite": "all", "parts": parts,
               "all_pass": all(p["all_pass"] for p in parts)}
    return doc


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level argument parser and its command map (name -> the
    command's parser, the ``choices`` of its subparsers action), built once:
    ``main`` reuses them on every call."""
    ap = argparse.ArgumentParser(prog="elladic")
    sub = ap.add_subparsers(dest="command", required=True)
    # --json is accepted everywhere and changes nothing: output is always JSON
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    l_value = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    l_value.add_argument("--ell", type=int, required=True)
    l_value.add_argument("--beta", type=int, required=True)
    l_value.add_argument("--s", type=str, required=True)
    l_value.add_argument("--prec", type=int, default=2)

    p = sub.add_parser("bernoulli", parents=[json_flag])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=str, default=None)

    p = sub.add_parser("teichmuller", parents=[json_flag])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--prec", type=int, default=8)

    for name in ("kl", "minus-one"):
        p = sub.add_parser(name, parents=[l_value])
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--level", type=int, default=6)
        p.add_argument("--method", choices=["measure", "interp"], default="measure")

    p = sub.add_parser("hurwitz", parents=[l_value])
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("dirichlet", parents=[l_value])
    p.add_argument("--psi", type=str, required=True)

    p = sub.add_parser("zinv", parents=[l_value])
    p.add_argument("--primes", type=str, required=True)

    p = sub.add_parser("measure", parents=[json_flag])
    p.add_argument("action", choices=["validate", "pushforward", "integrate", "transform"])
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--matrix", type=str, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--kind", choices=["p", "f"], default="p")
    p.add_argument("--powers", type=str, default=None)
    p.add_argument("--teich", type=str, default=None)
    p.add_argument("--inv", type=str, default=None)
    p.add_argument("--bracket", type=str, default=None)
    p.add_argument("--units", action="store_true")

    p = sub.add_parser("verify", parents=[json_flag])
    p.add_argument("suite", choices=["bch", "gamma", "inversion", "all"])
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--chi", type=str, default=None)
    p.add_argument("--t", type=str, default=None)

    return ap, sub.choices


_HANDLERS = {
    "bernoulli": _cmd_bernoulli,
    "teichmuller": _cmd_teichmuller,
    "kl": _cmd_kl,
    "minus-one": _cmd_minus_one,
    "hurwitz": _cmd_hurwitz,
    "dirichlet": _cmd_dirichlet,
    "zinv": _cmd_zinv,
    "measure": _cmd_measure,
    "verify": _cmd_verify,
}


def _serve(parser: argparse.ArgumentParser, args) -> int:
    """Run the parsed request and print its one JSON document; the exit status."""
    # Python 3.11's argparse reads "--opt=--" as an option with no value
    if [] in vars(args).values():
        parser.error("an option given as --opt=-- has no value")
    try:
        doc = _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        _emit({"error": str(exc), "command": args.command})
        return 1
    _emit(doc)
    if args.command == "verify":
        return 0 if doc["all_pass"] else 1
    return 0


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # what the top-level parser would do, less its own pass over the
        # tokens: the command's parser reads the rest, and the top-level
        # parser refuses what that leaves
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    return _serve(parser, args)


if __name__ == "__main__":
    sys.exit(main())
