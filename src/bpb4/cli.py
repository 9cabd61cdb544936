"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 precondition/domain error
on otherwise well-formed input, 3 usage error (bad arguments, unreadable or
malformed files).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serial
from .certify import correct, verify_certificate
from .errors import DomainError, PreconditionError, SizeError, UnsupportedSpaceError
from .fixes import dispatch_fix
from .harness import GenSpec, SweepFailure, brute_ahsp_search, gen_quad, sweep
from .quadop import active_sum_norm, check_membership
from .scalars import parse_scalar, scalar_to_json, tol_of
from .spaces import SpaceDescriptor


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_space(text: str) -> SpaceDescriptor:
    """Parse the compact space syntax: r | l1:N | l1:inf | sup:N | lp:P:N."""
    parts = text.split(":")
    family = parts[0]
    try:
        if family == "r":
            if len(parts) != 1:
                raise ValueError("r takes no arguments")
            return SpaceDescriptor("r")
        if family in ("l1", "sup"):
            if len(parts) != 2:
                raise ValueError(f"{family} needs a dimension")
            dim = None if parts[1] == "inf" else int(parts[1])
            return SpaceDescriptor(family, dim=dim)
        if family == "lp":
            if len(parts) != 3:
                raise ValueError("lp needs an exponent and a dimension")
            return SpaceDescriptor("lp", p=parse_scalar(parts[1]), dim=int(parts[2]))
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad space {text!r}: {exc}") from exc
    raise UsageError(f"unknown space family {family!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(data, out: str = None):
    text = json.dumps(data, indent=2)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    cert = serial.certificate_from_json(_load_json(args.certificate),
                                        args.backend)
    report = verify_certificate(cert)
    for name, ok, value, bound in report.checks:
        value = scalar_to_json(value) if isinstance(value, Fraction) else value
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value} (bound {bound})")
    return 0 if report.ok else 1


def _cmd_correct(args) -> int:
    data = _load_json(args.instance)
    T, x0 = serial.instance_from_json(data, args.backend)
    eps = parse_scalar(args.eps, args.backend)
    cert = correct(T, x0, eps)
    report = verify_certificate(cert)
    _emit(serial.certificate_to_json(cert, args.backend), args.out)
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    space = parse_space(args.space)
    spec = GenSpec(space, args.seed, args.mode,
                   parse_scalar(args.slack) if args.slack else Fraction(1, 10))
    q = gen_quad(spec)
    _emit(serial.quad_to_json(q, args.backend), args.out)
    return 0


def _cmd_sweep(args) -> int:
    space = parse_space(args.space)
    eps_list = [parse_scalar(e, args.backend) for e in args.eps.split(",") if e]
    try:
        rows, csv_text = sweep(space, eps_list, args.count, args.seed,
                               timing=args.timing)
    except SweepFailure as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        json.dump(exc.instance_json, sys.stderr, indent=2)
        print(file=sys.stderr)
        return 1
    _write(args.out, csv_text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_check_ahsp(args) -> int:
    request = serial.fix_request_from_json(_load_json(args.request), args.backend)
    result = dispatch_fix(request)
    report = check_membership(result.corrected)
    attained = active_sum_norm(result.corrected, result.certified)
    ok = (report.member
          and abs(attained - len(result.certified)) <= tol_of(attained)
          and request.active <= result.certified
          and all(d < request.eps for d in result.displacements))
    _emit(serial.fix_result_to_json(result, args.backend), args.out)
    return 0 if ok else 1


def _cmd_brute_search(args) -> int:
    q, active, eps = serial.search_from_json(_load_json(args.instance),
                                             args.backend)
    found = brute_ahsp_search(q, active, eps, resolution=args.grid)
    if found is None:
        _emit({"found": False}, args.out)
        return 1
    _emit({"found": True, "quad": serial.quad_to_json(found, args.backend)},
          args.out)
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="bpb4", description=__doc__)
    parser.add_argument("--backend", choices=("rational", "float"),
                        default="rational")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="re-verify a correction certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("correct", help="correct a near-attaining instance")
    p.add_argument("instance")
    p.add_argument("--eps", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("gen", help="generate a deterministic quadruple")
    p.add_argument("--space", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("interior", "boundary", "near-face",
                                      "constant"), default="interior")
    p.add_argument("--slack")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="run a correction sweep and write a CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", required=True, help="comma-separated list")
    p.add_argument("--count", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check-ahsp", help="run a correction request and audit it")
    p.add_argument("request")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_ahsp)

    p = sub.add_parser("brute-search", help="grid search for a nearby attainer")
    p.add_argument("instance")
    p.add_argument("--grid", type=int, default=25)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_brute_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, DomainError, UnsupportedSpaceError,
            SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed input: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
