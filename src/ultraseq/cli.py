"""Command-line surface: generation, verification, differencing,
closed-form comparison, enumeration, approximation reports, classical
reference sequences, and import/export of sequence documents."""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from typing import Optional, Sequence

from . import families, reference, seqcore
from .errors import UltraseqError, brief
from .exactmath import fixed_point
from .families import (
    approx_report,
    build_family,
    parse_family,
    parse_range,
    pi_closed,
    tau_enumerate,
)
from .seqcore import (
    SeqWindow,
    from_csv,
    from_json,
    json_table,
    json_text,
    to_csv,
    to_json,
)

USAGE_ERROR = 2


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render(header: Sequence[str], rows, fmt: str) -> str:
    """csv with a header row, or json as a list of objects keyed by it."""
    if fmt == "json":
        return json_table(header, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _decimal(value: Optional[int]) -> Optional[str]:
    return None if value is None else str(value)


def _format_rows(w: SeqWindow, lo: int, hi: int, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(w, lo, hi)
    values = w.slice(lo, hi)
    if fmt == "json":
        return to_json(SeqWindow(lo, values))
    width = max(len(str(k)) for k in (lo, hi))
    return "".join(f"{k:>{width}}  {v}\n"
                   for k, v in zip(range(lo, hi + 1), values))


def _command(sub, name: str, run, summary: str,
             formats=("csv", "json", "table")) -> argparse.ArgumentParser:
    """A subcommand with the shared --format and --output, and its handler,
    which returns the text to emit and the exit code; without a table
    format, --format is required."""
    p = sub.add_parser(name, help=summary)
    table = "table" in formats
    p.add_argument("--format", choices=formats, required=not table,
                   default="table" if table else None)
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(run=run)
    return p


def _add_family_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="family descriptor, e.g. pi:m=1 or "
                        "tau:m=2,P=6;9,N=1;3")
    p.add_argument("--range", required=True, dest="range_",
                   metavar="A..B", help="inclusive index range")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraseq",
        description="construct, transform, verify and enumerate "
                    "self-referential integer sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen", _cmd_gen, "generate family values over a range")
    _add_family_range(p)

    p = _command(sub, "verify", _cmd_verify,
                 "check the self-generation equation")
    p.add_argument("--family", default=None)
    p.add_argument("--input", default=None,
                   help="JSON sequence document to verify instead of a family")
    p.add_argument("--range", required=True, dest="range_", metavar="A..B")
    p.add_argument("--strict", action="store_true",
                   help="treat uncheckable positions as failures")

    p = _command(sub, "diff", _cmd_diff, "k-fold forward difference of a family")
    _add_family_range(p)
    p.add_argument("--order", type=int, default=1)

    p = _command(sub, "closed-form", _cmd_closed_form,
                 "compare iterative generation with closed forms")
    _add_family_range(p)

    p = _command(sub, "enumerate", _cmd_enumerate,
                 "enumerate periodic placements")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--canonical", action="store_true",
                   help="one representative per rotation class")

    p = _command(sub, "approx", _cmd_approx,
                 "two-point growth approximation report")
    p.add_argument("--family", required=True)
    p.add_argument("--base", type=int, default=8,
                   help="index of the first base value")
    p.add_argument("--rmax", type=int, default=6)

    p = _command(sub, "reference", _cmd_reference,
                 "classical strange recursions")
    p.add_argument("--sequence", choices=("q", "conway"), required=True)
    p.add_argument("--count", type=int, default=17)

    p = _command(sub, "export", _cmd_export,
                 "convert between sequence documents and formats",
                 formats=("csv", "json"))
    p.add_argument("--family", default=None)
    p.add_argument("--input", default=None,
                   help="existing document (.json or .csv) to re-export")
    p.add_argument(
        "--range", default=None, dest="range_", metavar="A..B",
        help="inclusive index range; csv writes these rows only.  With "
             "--format json, --family writes the whole window the family "
             "builds to cover A..B (a pi row runs from 0 to B+2) and "
             "--input refuses a range: a cut document could not keep its "
             "periodic tail rules exact")

    return parser


def _load_input(path: str) -> SeqWindow:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return from_csv(text)
    return from_json(text)


def _cmd_gen(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    w = build_family(args.family, lo, hi)
    return _format_rows(w, lo, hi, args.format), 0


def _cmd_verify(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    if (args.family is None) == (args.input is None):
        raise ValueError("verify needs exactly one of --family / --input")
    if args.family is not None:
        w = build_family(args.family, lo, hi)
    else:
        w = _load_input(args.input)
    report = seqcore.verify_O_range(w, lo, hi)
    if args.format == "table":
        lines = [f"{report.ok_count} ok, {report.violation_count} violations, "
                 f"{report.uncheckable_count} uncheckable"]
        for e in report.violations():
            lines.append(f"violation at {e.position}: expected {e.expected}, "
                         f"got {e.actual}")
        text = "\n".join(lines) + "\n"
    else:
        text = _render(
            ("position", "expected", "actual", "status"),
            [(e.position, _decimal(e.expected), _decimal(e.actual), e.status)
             for e in report.entries], args.format)
    failed = report.violation_count or (args.strict and report.uncheckable_count)
    return text, 1 if failed else 0


def _cmd_diff(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    k = args.order
    if k < 1:
        raise ValueError("--order must be >= 1")
    w = build_family(args.family, lo, hi + k)
    return _format_rows(seqcore.difference(w, k), lo, hi, args.format), 0


def _cmd_closed_form(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    if lo < 0:
        raise ValueError("closed forms are defined for indices >= 0")
    family = parse_family(args.family)
    if family.kind != "pi":
        raise ValueError("closed-form comparison supports pi families")
    m = family.values["m"]
    w = families.pi_window(m, hi + 1)
    header = ("index", "iterative", "fib_form", "quad_form")
    quad = families.pi_quad_row(m, lo, hi)
    rows = [(n, w.value_at(n), pi_closed(m, n, "fib"), quad[n - lo])
            for n in range(lo, hi + 1)]
    mismatch = any(not (it == f == q) for _, it, f, q in rows)
    if args.format == "table":
        text = "\n".join("  ".join(str(c) for c in row)
                         for row in [header, *rows]) + "\n"
    else:
        text = _render(header, rows, args.format)
    return text, 1 if mismatch else 0


def _cmd_enumerate(args) -> tuple[str, int]:
    descriptors = tau_enumerate(args.m, canonical=args.canonical).descriptors
    if args.format == "json":
        text = json_text({"count": len(descriptors), "configs": descriptors})
    elif args.format == "csv":
        text = _render(("descriptor",), [(d,) for d in descriptors], "csv")
    else:
        text = "\n".join(descriptors) + f"\n{len(descriptors)} configurations\n"
    return text, 0


def _cmd_approx(args) -> tuple[str, int]:
    family = parse_family(args.family)
    if family.growth_m is None:
        raise ValueError(f"family {brief(args.family)} has no periodic left "
                         "tail to approximate")
    if args.rmax < 0:
        raise ValueError("--rmax must be >= 0")
    w = family.window(0, args.base + args.rmax + 2)
    report = approx_report(w, family.growth_m, args.base, args.rmax)
    rows = [(row.r, fixed_point(row.predicted, 3), str(row.exact),
             row.rel_error) for row in report.rows]
    if args.format != "table":
        return _render(("r", "predicted", "exact", "rel_error"), rows,
                       args.format), 0
    lines = [f"xi = {report.model.xi}, phi_m = {report.model.phi_m:.6f}",
             f"empirical ratio = {report.empirical_ratio:.6f} "
             f"(relative error {report.ratio_rel_error:.4%})"]
    lines += [f"r={r}  predicted={p}  exact={e}  rel_error={x:.4%}"
              for r, p, e, x in rows]
    return "\n".join(lines) + "\n", 0


def _cmd_reference(args) -> tuple[str, int]:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    seqcore.check_window_len(args.count, "table")
    if args.sequence == "q":
        table = reference.hofstadter_q_table(args.count)
    else:
        table = reference.conway_table(args.count)
    pairs = [(n, str(table[n])) for n in range(1, args.count + 1)]
    if args.format == "table":
        text = "\n".join(f"{n}  {v}" for n, v in pairs) + "\n"
    else:
        text = _render(("index", "value"), pairs, args.format)
    return text, 0


def _cmd_export(args) -> tuple[str, int]:
    if (args.family is None) == (args.input is None):
        raise ValueError("export needs exactly one of --family / --input")
    rng = parse_range(args.range_) if args.range_ is not None else None
    if args.input is not None:
        if rng is not None and args.format == "json":
            # the periodic extension rules are phased to the document's own
            # span, so a cut document could not keep them exact
            raise ValueError("--range cannot cut a JSON document; use "
                             "--format csv or drop --range")
        w = _load_input(args.input)
    elif rng is None:
        raise ValueError("--range is required with --family")
    else:
        w = build_family(args.family, *rng)
    if args.format == "json":
        return to_json(w), 0
    return to_csv(w, *(rng or (w.lo, w.hi))), 0


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        text, code = args.run(args)
        _emit(text, args.output)
        return code
    except (ValueError, KeyError, OSError, UltraseqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
