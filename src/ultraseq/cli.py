"""Command-line surface: generation, verification, differencing,
closed-form comparison, enumeration, approximation reports, classical
reference sequences, and import/export of sequence documents."""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import families, reference, seqcore
from .errors import UltraseqError
from .families import (
    approx_report,
    build_family,
    descriptor_growth_m,
    parse_range,
    pi_closed,
    tau_enumerate,
)
from .seqcore import SeqWindow, from_csv, from_json, to_csv, to_document, to_json

USAGE_ERROR = 2


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _format_rows(w: SeqWindow, lo: int, hi: int, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(w, lo, hi)
    if fmt == "json":
        restricted = SeqWindow(lo, w.slice(lo, hi))
        return to_json(restricted)
    width = max(len(str(k)) for k in (lo, hi))
    return "\n".join(f"{k:>{width}}  {w.value_at(k)}"
                     for k in range(lo, hi + 1)) + "\n"


def _add_common(p: argparse.ArgumentParser, family=True, rng=True) -> None:
    if family:
        p.add_argument("--family", required=True,
                       help="family descriptor, e.g. pi:m=1 or "
                            "tau:m=2,P=6;9,N=1;3")
    if rng:
        p.add_argument("--range", required=True, dest="range_",
                       metavar="A..B", help="inclusive index range")
    p.add_argument("--format", choices=("csv", "json", "table"),
                   default="table")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraseq",
        description="construct, transform, verify and enumerate "
                    "self-referential integer sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate family values over a range")
    _add_common(p)

    p = sub.add_parser("verify", help="check the self-generation equation")
    p.add_argument("--family", default=None)
    p.add_argument("--input", default=None,
                   help="JSON sequence document to verify instead of a family")
    p.add_argument("--range", required=True, dest="range_", metavar="A..B")
    p.add_argument("--strict", action="store_true",
                   help="treat uncheckable positions as failures")
    p.add_argument("--format", choices=("csv", "json", "table"),
                   default="table")
    p.add_argument("--output", default=None)

    p = sub.add_parser("diff", help="k-fold forward difference of a family")
    _add_common(p)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("closed-form",
                       help="compare iterative generation with closed forms")
    _add_common(p)

    p = sub.add_parser("enumerate", help="enumerate periodic placements")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--canonical", action="store_true",
                   help="one representative per rotation class")
    p.add_argument("--format", choices=("csv", "json", "table"),
                   default="table")
    p.add_argument("--output", default=None)

    p = sub.add_parser("approx", help="two-point growth approximation report")
    p.add_argument("--family", required=True)
    p.add_argument("--base", type=int, default=8,
                   help="index of the first base value")
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--format", choices=("csv", "json", "table"),
                   default="table")
    p.add_argument("--output", default=None)

    p = sub.add_parser("reference", help="classical strange recursions")
    p.add_argument("--sequence", choices=("q", "conway"), required=True)
    p.add_argument("--count", type=int, default=17)
    p.add_argument("--format", choices=("csv", "json", "table"),
                   default="table")
    p.add_argument("--output", default=None)

    p = sub.add_parser("export",
                       help="convert between sequence documents and formats")
    p.add_argument("--family", default=None)
    p.add_argument("--input", default=None,
                   help="existing document (.json or .csv) to re-export")
    p.add_argument("--range", default=None, dest="range_", metavar="A..B")
    p.add_argument("--format", choices=("csv", "json"), required=True)
    p.add_argument("--output", default=None)

    return parser


def _load_input(path: str) -> SeqWindow:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return from_csv(text)
    return from_json(text)


def _cmd_gen(args) -> int:
    lo, hi = parse_range(args.range_)
    w = build_family(args.family, lo, hi)
    _emit(_format_rows(w, lo, hi, args.format), args.output)
    return 0


def _cmd_verify(args) -> int:
    lo, hi = parse_range(args.range_)
    if (args.family is None) == (args.input is None):
        raise ValueError("verify needs exactly one of --family / --input")
    if args.family is not None:
        w = build_family(args.family, lo, hi)
    else:
        w = _load_input(args.input)
    report = seqcore.verify_O_range(w, lo, hi)
    lines = [f"{report.ok_count} ok, {report.violation_count} violations, "
             f"{report.uncheckable_count} uncheckable"]
    for e in report.violations():
        lines.append(f"violation at {e.position}: expected {e.expected}, "
                     f"got {e.actual}")
    _emit("\n".join(lines) + "\n", args.output)
    if report.violation_count > 0:
        return 1
    if args.strict and report.uncheckable_count > 0:
        return 1
    return 0


def _cmd_diff(args) -> int:
    lo, hi = parse_range(args.range_)
    k = args.order
    if k < 1:
        raise ValueError("--order must be >= 1")
    w = build_family(args.family, lo, hi + k)
    d = seqcore.difference(w, k)
    _emit(_format_rows(d, lo, hi, args.format), args.output)
    return 0


def _cmd_closed_form(args) -> int:
    lo, hi = parse_range(args.range_)
    if lo < 0:
        raise ValueError("closed forms are defined for indices >= 0")
    kind, _, body = args.family.partition(":")
    if kind != "pi":
        raise ValueError("closed-form comparison supports pi families")
    m = int(families._split_params(body)["m"])
    w = families.pi_window(m, hi + 1)
    rows = [("index", "iterative", "fib_form", "quad_form")]
    mismatch = False
    for n in range(lo, hi + 1):
        it = w.value_at(n)
        f = pi_closed(m, n, "fib")
        q = pi_closed(m, n, "quad")
        mismatch |= not (it == f == q)
        rows.append((n, it, f, q))
    if args.format == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    elif args.format == "json":
        text = json.dumps([dict(zip(rows[0], r)) for r in rows[1:]], indent=2)
    else:
        text = "\n".join("  ".join(str(c) for c in row) for row in rows) + "\n"
    _emit(text, args.output)
    return 1 if mismatch else 0


def _cmd_enumerate(args) -> int:
    configs = tau_enumerate(args.m, canonical=args.canonical)
    descriptors = [c.descriptor() for c in configs]
    if args.format == "json":
        text = json.dumps({"count": len(descriptors),
                           "configs": descriptors}, indent=2)
    elif args.format == "csv":
        text = "descriptor\n" + "\n".join(descriptors) + "\n"
    else:
        text = "\n".join(descriptors) + f"\n{len(descriptors)} configurations\n"
    _emit(text, args.output)
    return 0


def _cmd_approx(args) -> int:
    m = descriptor_growth_m(args.family)
    hi = args.base + args.rmax + 2
    w = build_family(args.family, 0, hi)
    report = approx_report(w, m, args.base, args.rmax)
    lines = [f"xi = {report.model.xi}, phi_m = {report.model.phi_m:.6f}",
             f"empirical ratio = {report.empirical_ratio:.6f} "
             f"(relative error {report.ratio_rel_error:.4%})"]
    for row in report.rows:
        lines.append(f"r={row.r}  predicted={row.predicted:.3f}  "
                     f"exact={row.exact}  rel_error={row.rel_error:.4%}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_reference(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.sequence == "q":
        table = reference.hofstadter_q_table(max(args.count, 2))
    else:
        table = reference.conway_table(max(args.count, 2))
    pairs = [(n, table[n]) for n in range(1, args.count + 1)]
    if args.format == "csv":
        text = "index,value\n" + "\n".join(f"{n},{v}" for n, v in pairs) + "\n"
    elif args.format == "json":
        text = json.dumps([{"index": n, "value": str(v)} for n, v in pairs],
                          indent=2)
    else:
        text = "\n".join(f"{n}  {v}" for n, v in pairs) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_export(args) -> int:
    if (args.family is None) == (args.input is None):
        raise ValueError("export needs exactly one of --family / --input")
    if args.input is not None:
        w = _load_input(args.input)
    else:
        if args.range_ is None:
            raise ValueError("--range is required with --family")
        lo, hi = parse_range(args.range_)
        w = build_family(args.family, lo, hi)
    if args.format == "json":
        _emit(json.dumps(to_document(w), indent=2), args.output)
    else:
        if args.range_ is not None:
            lo, hi = parse_range(args.range_)
        else:
            lo, hi = w.lo, w.hi
        _emit(to_csv(w, lo, hi), args.output)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "diff": _cmd_diff,
    "closed-form": _cmd_closed_form,
    "enumerate": _cmd_enumerate,
    "approx": _cmd_approx,
    "reference": _cmd_reference,
    "export": _cmd_export,
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, UltraseqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
