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

A handler reads its options, calls the library and shapes its answer; the
``verify`` suites live beside the series they check, in ``ncseries``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
from .ncseries import _DEGREE_BUDGET, verify_bch, verify_gamma, verify_inversion
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
    level = args.level if args.level is not None else mu.depth
    if args.action == "integrate":
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
            mu = restrict(mu)
        factors = tuple(
            Factor(power=p, inverse=bool(iv), teich=tc, bracket=br)
            for p, iv, tc, br in zip(powers, inv, teich, brackets)
        )
        val = integrate(mu, factors, level)
        return {"action": "integrate", "level": level, "value": val.to_json()}
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
