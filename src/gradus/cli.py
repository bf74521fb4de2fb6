"""gradus command line: point sampling, ideal construction, invariants,
and the scripted experiments, with JSON-file pipelines between commands.

Exit codes: 0 success, 1 computational error, 2 usage error (bad flags,
malformed input text, unreadable files).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .betti import graded_betti, render_betti
from .errors import GradusError, ParseError
from .experiments import (
    ALL_CASES,
    monomial_artinian_study,
    reproduce_reference,
    socle_scan_report,
)
from .field import DEFAULT_PRIME, field_from_string
from .groebner import Ideal, equal_ideals
from .hilbert import hilbert_report, hilbert_values, is_artinian, socle_degree
from .hom import hom_graded_dims
from .points import PointSet, random_general_points, vanishing_ideal, vanishing_ideal_oracle
from .ring import RingSpec, order_from_string, parse_poly, poly_to_str

SCHEMA_VERSION = 1


def _default_field() -> str:
    return os.environ.get("GRADUS_FIELD", str(DEFAULT_PRIME))


def _emit(payload: dict, out_path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _config(args, **extra) -> dict:
    cfg = {"field": getattr(args, "field", None), "schema": SCHEMA_VERSION}
    cfg.update(extra)
    return {k: v for k, v in cfg.items() if v is not None}


def _cmd_points(args) -> int:
    field = field_from_string(args.field)
    X = random_general_points(args.s, args.n, args.seed, field)
    payload = X.to_json()
    payload["config"] = _config(args, seed=args.seed)
    _emit(payload, args.out)
    return 0


def _cmd_ideal(args) -> int:
    if args.points:
        X = PointSet.from_json(_load_json(args.points))
        I = vanishing_ideal(X)
        oracle_agrees = None
        if args.oracle:
            oracle_agrees = equal_ideals(I, vanishing_ideal_oracle(X))
    elif args.gens:
        field = field_from_string(args.field)
        ring = RingSpec(args.nvars, field, order_from_string(args.order))
        I = Ideal(ring, [parse_poly(ring, g) for g in args.gens])
        oracle_agrees = None
    else:
        raise ParseError("ideal needs --points or --gens")
    payload = I.to_json()
    payload["groebner"] = [poly_to_str(g) for g in I.groebner()]
    if oracle_agrees is not None:
        payload["oracle_agrees"] = oracle_agrees
    payload["config"] = _config(args)
    _emit(payload, args.out)
    return 0


def _cmd_hilbert(args) -> int:
    I = Ideal.from_json(_load_json(args.ideal))
    payload = hilbert_report(I, args.max_degree, args.probe_limit)
    payload["config"] = _config(args, max_degree=args.max_degree)
    _emit(payload, args.out)
    return 0


def _cmd_betti(args) -> int:
    I = Ideal.from_json(_load_json(args.ideal))
    table = graded_betti(I, args.max_degree)
    if args.format == "json":
        payload = table.to_json()
        payload["config"] = _config(args)
        _emit(payload, args.out)
    else:
        text = render_betti(table)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return 0


def _cmd_socle(args) -> int:
    I = Ideal.from_json(_load_json(args.ideal))
    rep = socle_degree(I)
    payload = {
        "artinian": rep.artinian,
        "socle_degree": rep.socle_degree,
        "initial_degree": rep.initial_degree,
        "config": _config(args),
    }
    _emit(payload, args.out)
    return 0


def _cmd_artinian(args) -> int:
    I = Ideal.from_json(_load_json(args.ideal))
    payload = {
        "artinian": is_artinian(I),
        "hilbert_head": hilbert_values(I, args.max_degree),
        "config": _config(args),
    }
    _emit(payload, args.out)
    return 0


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_range(text: str) -> range:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ParseError(f"bad range {text!r}; expected like 0:6") from None
    if hi < lo:
        raise ParseError(f"bad range {text!r}; lo must not exceed hi")
    return range(lo, hi + 1)


def _cmd_hom(args) -> int:
    X = PointSet.from_json(_load_json(args.points))
    J = Ideal.from_json(_load_json(args.ideal))
    degrees = _parse_range(args.range) if args.range else range(0, X.delta() + 4)
    profile = hom_graded_dims(J, X, degrees)
    payload = profile.to_json()
    payload["config"] = _config(args, range=[degrees.start, degrees.stop - 1])
    _emit(payload, args.out)
    return 0


def _emit_report(report, args) -> int:
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        text = report.to_text()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return 0 if report.passed else 1


def _cmd_experiment(args) -> int:
    if args.kind == "socle-groups":
        report = socle_scan_report((2, args.max_s), args.trials, args.seed)
    elif args.kind == "reproduce":
        report = reproduce_reference(args.case, seed=args.seed)
    elif args.kind == "monomial":
        report = monomial_artinian_study(args.s1, args.s2, seed=args.seed)
    else:  # unreachable through argparse
        raise ParseError(f"unknown experiment {args.kind!r}")
    return _emit_report(report, args)


def _cmd_parse_check(args) -> int:
    field = field_from_string(args.field)
    ring = RingSpec(args.nvars, field, order_from_string(args.order))
    f = parse_poly(ring, args.poly)
    canonical = poly_to_str(f)
    payload = {
        "input": args.poly,
        "canonical": canonical,
        "roundtrip": parse_poly(ring, canonical) == f,
        "homogeneous": f.is_homogeneous(),
        "degree": f.degree(),
        "config": _config(args),
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gradus",
        description="exact commutative algebra for point sets in projective space",
    )
    top.add_argument("--version", action="version",
                     version=f"gradus {__version__} (schema {SCHEMA_VERSION})")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        if field:
            p.add_argument("--field", default=_default_field(),
                           help="coefficient field: a prime, or Q (default %(default)s)")
        p.add_argument("--out", help="write JSON/text here instead of stdout")

    p = sub.add_parser("points", help="sample general-position points")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("ideal", help="vanishing ideal of points, or an ideal from generators")
    p.add_argument("--points", help="PointSet JSON file")
    p.add_argument("--gens", nargs="+", help="generator polynomials as text")
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--order", default="grevlex")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the intersection-of-points oracle")
    common(p)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("hilbert", help="Hilbert function and polynomial of R/I")
    p.add_argument("--ideal", required=True)
    p.add_argument("--max-degree", type=_non_negative, default=12)
    p.add_argument("--probe-limit", type=_non_negative, default=40)
    common(p, field=False)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("betti", help="graded Betti diagram of R/I")
    p.add_argument("--ideal", required=True)
    p.add_argument("--max-degree", type=_non_negative, default=None,
                   help="compute beta_{i,j} for j up to this degree (default: the "
                        "proven bound above which every entry is zero); below that "
                        "bound the table is flagged truncated, as it is not proven "
                        "complete")
    p.add_argument("--format", choices=["text", "json"], default="text")
    common(p, field=False)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("socle", help="Artinian flag, socle degree, initial degree")
    p.add_argument("--ideal", required=True)
    common(p, field=False)
    p.set_defaults(func=_cmd_socle)

    p = sub.add_parser("artinian", help="Artinian test with a Hilbert-function head")
    p.add_argument("--ideal", required=True)
    p.add_argument("--max-degree", type=_non_negative, default=12)
    common(p, field=False)
    p.set_defaults(func=_cmd_artinian)

    p = sub.add_parser("hom", help="graded dimensions of Hom(J, R_X)")
    p.add_argument("--points", required=True)
    p.add_argument("--ideal", required=True, help="J given by lifts, as ideal JSON")
    p.add_argument("--range", help="degree range lo:hi (default 0:delta+3)")
    common(p, field=False)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("experiment", help="scripted reproductions")
    ex = p.add_subparsers(dest="kind", required=True)

    q = ex.add_parser("socle-groups", help="socle-degree offset grouping scan")
    q.add_argument("--max-s", type=int, default=25)
    q.add_argument("--trials", type=int, default=3)
    q.add_argument("--seed", type=int, default=7)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_experiment)

    q = ex.add_parser("reproduce", help="one named reproduction case")
    q.add_argument("--case", required=True, choices=ALL_CASES)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_experiment)

    q = ex.add_parser("monomial", help="leading-term-ideal Artinian study")
    q.add_argument("--s1", type=int, default=15)
    q.add_argument("--s2", type=int, default=21)
    q.add_argument("--seed", type=int, default=11)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("parse-check", help="parse a polynomial and round-trip it")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--order", default="grevlex")
    common(p)
    p.set_defaults(func=_cmd_parse_check)

    return top


def _glue_range(argv: list[str]) -> list[str]:
    """`--range LO:HI` as the one token `--range=LO:HI`: argparse reads a
    value that starts with '-' (a negative LO) as an option."""
    out, rest = [], list(argv)
    while rest:
        arg = rest.pop(0)
        out.append(f"--range={rest.pop(0)}" if arg == "--range" and rest else arg)
    return out


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_range(argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"gradus: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gradus: io error: {exc}", file=sys.stderr)
        return 2
    except (GradusError, ValueError, ZeroDivisionError) as exc:
        print(f"gradus: compute error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
