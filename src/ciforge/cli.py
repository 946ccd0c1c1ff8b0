"""Command-line interface.

Exit status convention, shared by all subcommands:

* 0 — complete intersection / check passed
* 3 — not a complete intersection / check refuted
* 2 — precondition violated (point off the variety, point not smooth, ...)
* 1 — usage, parse, or timeout problems

Reports go to standard output; diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .certificates import (
    CICertificate,
    NonCICertificate,
    parse_certificate,
    serialize_certificate,
)
from .decide import (
    GeneratorSystem,
    check_condition_iv,
    reduce_to_ci,
    trivially_contains,
    verify_certificate,
)
from .errors import BuchbergerTimeout, ParseError
from .groebner import Ideal, basis_time_limit
from .ideal_file import IdealFile, parse_ideal_file
from .poly import ProjectivePoint
from .parse import parse_polynomial

DEFAULT_TIMEOUT_SECS = 300.0
TIMEOUT_ENV_VAR = "CIFORGE_TIMEOUT_SECS"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="ciforge",
        description="Decide whether a homogeneous ideal with a smooth point "
        "is a complete intersection, with checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, point: bool = False, poly: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a .ideal file")
        p.add_argument("--field", help="override the field line: q or fp:<p>")
        if point:
            p.add_argument("--point", help="override the point line: e.g. \"1,1,1,1\"")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial expression")
        return p

    p = add("decide", "run the reduction and write a certificate", point=True)
    p.add_argument("--out", help="write the certificate JSON to this path")
    p.set_defaults(handler=_cmd_decide)

    p = add("groebner", "print the reduced grevlex basis")
    p.set_defaults(handler=_cmd_groebner)

    p = add("dim", "print the projective dimension of the zero locus")
    p.set_defaults(handler=_cmd_dim)

    p = add("member", "test ideal membership of --poly", poly=True)
    p.set_defaults(handler=_cmd_member)

    p = add("trivial", "test trivial containment of --poly", poly=True)
    p.set_defaults(handler=_cmd_trivial)

    p = add("check-iv", "tangent-space containment test for --poly", point=True, poly=True)
    p.add_argument(
        "--family",
        default="",
        help="semicolon-separated lower-degree ideal members (may be empty)",
    )
    p.set_defaults(handler=_cmd_check_iv)

    p = add("verify", "re-check a certificate against the input", point=True)
    p.add_argument("--cert", required=True, help="path to a certificate JSON file")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _load(args: argparse.Namespace) -> IdealFile:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {args.file}: {exc}") from exc
    return parse_ideal_file(
        text,
        field_override=args.field,
        point_override=getattr(args, "point", None),
    )


def _need_point(loaded: IdealFile) -> ProjectivePoint:
    if loaded.point is None:
        raise _UsageError("this command needs a point (point: line or --point)")
    return loaded.point


def _system(loaded: IdealFile) -> GeneratorSystem:
    return GeneratorSystem.from_polynomials(loaded.gens, loaded.ring)


def _cmd_decide(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    x = _need_point(loaded)
    system = _system(loaded)
    if loaded.ring.field.characteristic:
        print(
            f"warning: over F_{loaded.ring.field.characteristic} the smooth-point "
            "precondition means exactly 'Jacobian rank equals codimension'",
            file=sys.stderr,
        )
    cert = reduce_to_ci(system, x)
    payload = serialize_certificate(cert)
    lines = [f"codimension: {cert.codim}"]
    if cert.trace:
        lines.append("trace: " + " ".join(str(t) for t in cert.trace))
    if isinstance(cert, CICertificate):
        lines += ["decision: complete intersection"]
        lines += [f"generator: {g}" for g in cert.final_gens]
        code = 0
    else:
        lines += ["decision: not a complete intersection", f"witness: {cert.witness}"]
        code = 3
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return lines, code


def _cmd_groebner(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    return [str(g) for g in Ideal(loaded.gens, ring=loaded.ring).basis.elements], 0


def _cmd_dim(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    return [str(Ideal(loaded.gens, ring=loaded.ring).dimension())], 0


def _cmd_member(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    f = parse_polynomial(args.poly, loaded.ring)
    member, record = Ideal(loaded.gens, ring=loaded.ring).member(f)
    if not member:
        return ["member: no", f"remainder: {record.remainder}"], 3
    return ["member: yes"] + [
        f"cofactor of {g}: {q}"
        for g, q in zip(loaded.gens, record.quotients)
        if not q.is_zero()
    ], 0


def _cmd_trivial(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    f = parse_polynomial(args.poly, loaded.ring)
    result = trivially_contains(Ideal(loaded.gens, ring=loaded.ring), f)
    if result.trivial:
        return ["trivial: yes"] + [
            f"member {psi} cofactor {cof}"
            for psi, cof in zip(result.members, result.cofactors)
        ], 0
    return ["trivial: no", f"remainder: {result.remainder}"], 3


def _cmd_check_iv(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    x = _need_point(loaded)
    f = parse_polynomial(args.poly, loaded.ring)
    family = [
        parse_polynomial(piece, loaded.ring)
        for piece in args.family.split(";")
        if piece.strip()
    ]
    contained = check_condition_iv(f, family, x, Ideal(loaded.gens, ring=loaded.ring))
    # Tangent containment at the point is exactly what the criterion forbids.
    return [f"contained: {'yes' if contained else 'no'}"], 3 if contained else 0


def _cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    loaded = _load(args)
    try:
        cert_text = Path(args.cert).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {args.cert}: {exc}") from exc
    cert = parse_certificate(cert_text)
    if loaded.point is not None:
        x = loaded.point
    elif isinstance(cert, NonCICertificate):
        x = cert.point
    else:
        raise _UsageError("verifying this certificate needs a point")
    system = _system(loaded)
    verdict = verify_certificate(cert, system, x)
    return [f"verified: {'yes' if verdict else 'no'}"], 0 if verdict else 3


def _timeout_seconds() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return DEFAULT_TIMEOUT_SECS
    try:
        value = float(raw)
        if not math.isfinite(value) or value <= 0:
            raise ValueError
    except ValueError:
        print(
            f"warning: ignoring bad {TIMEOUT_ENV_VAR}={raw!r}; "
            f"using {DEFAULT_TIMEOUT_SECS:g}",
            file=sys.stderr,
        )
        return DEFAULT_TIMEOUT_SECS
    return value


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        # The whole report is built before any of it is printed, so a run
        # that fails part-way (say, on a value too long to print) leaves
        # nothing on stdout.
        with basis_time_limit(_timeout_seconds()):
            lines, code = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BuchbergerTimeout, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Precondition violations: point off the variety, not smooth, improper
        # ideal, non-member input, certificate/input mismatch, a computed
        # value with more digits than Python prints, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


def console_main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
