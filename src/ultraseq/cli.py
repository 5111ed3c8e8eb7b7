"""Command-line surface: generation, verification, differencing,
closed-form comparison, enumeration, approximation reports, classical
reference sequences, and import/export of sequence documents."""
from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Sequence

from . import reference, seqcore
from .errors import brief
from .exactmath import fixed_point
from .families import (
    approx_report,
    build_family,
    parse_family,
    parse_range,
    tau_enumerate,
)
from .seqcore import (
    SeqWindow,
    from_csv,
    from_json,
    to_csv,
    to_json,
)

USAGE_ERROR = 2


def _emit(text: str, output: str | None) -> None:
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
    values = w.slice(lo, hi)
    if fmt == "json":
        return to_json(SeqWindow(lo, values))
    width = max(len(str(k)) for k in (lo, hi))
    return seqcore.int_rows((range(lo, hi + 1), values), f"%{width}d  %d\n")


def _load(args, rng: tuple[int, int] | None, command: str) -> SeqWindow:
    """The window ``command`` reads: ``--family`` built to cover ``rng``, or
    the ``--input`` document, whose JSON text is freed once it is parsed,
    before its values are converted; exactly one of the two is given."""
    if (args.family is None) == (args.input is None):
        raise ValueError(f"{command} needs exactly one of --family / --input")
    if args.input is None:
        if rng is None:
            raise ValueError("--range is required with --family")
        return build_family(args.family, *rng)
    with open(args.input, encoding="utf-8") as fh:
        # the reader gets the only reference to the text
        return (from_csv if args.input.endswith(".csv")
                else from_json)(fh.read())


def _cmd_gen(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    w = build_family(args.family, lo, hi)
    return _format_rows(w, lo, hi, args.format), 0


#: a ``verify`` record by status; an uncheckable position has no values
_VERIFY_CELLS = {status: {"position": "%d", "expected": value, "actual": value,
                          "status": f'"{status}"'}
                 for status, value in ((seqcore.OK, '"%d"'),
                                       (seqcore.VIOLATION, '"%d"'),
                                       (seqcore.UNCHECKABLE, None))}
_VIOLATION = "violation at %d: expected %d, got %d\n"


def _cmd_verify(args) -> tuple[str, int]:
    lo, hi = parse_range(args.range_)
    w = _load(args, (lo, hi), "verify")
    report = seqcore.verify_O_range(w, lo, hi)
    ok, violations, uncheckable = map(report.count, (
        seqcore.OK, seqcore.VIOLATION, seqcore.UNCHECKABLE))
    if args.format == "table":
        # the violations' position, expected and actual columns, or three
        # empty ones: a clean report writes its summary alone
        columns = (tuple(zip(*report.violations()))[:3] if violations
                   else ((),) * 3)
        text = seqcore.int_rows(
            columns, _VIOLATION,
            f"{ok} ok, {violations} violations, {uncheckable} uncheckable\n")
    else:
        text = seqcore.records(args.format, (range(lo, hi + 1),
                                             report._expected, report._actual),
                               _VERIFY_CELLS, report._statuses)
    failed = violations or (args.strict and uncheckable)
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
    names, values = parse_family(args.family).closed_row(lo, hi)
    cells = dict.fromkeys(("index", *names), "%d")
    columns = (range(lo, hi + 1), *values)
    mismatch = any(col != values[0] for col in values[1:])
    if args.format == "table":
        text = seqcore.int_rows(columns, "  ".join(cells.values()) + "\n",
                                "  ".join(cells) + "\n")
    else:
        text = seqcore.records(args.format, columns, cells)
    return text, 1 if mismatch else 0


#: ``enumerate --format json``, as the indented JSON encoder writes it; a
#: descriptor holds no character that JSON escapes
_ENUMERATION = '{\n  "count": %d,\n  "configs": [\n    "%s"\n  ]\n}'


def _cmd_enumerate(args) -> tuple[str, int]:
    placements = tau_enumerate(args.m, canonical=args.canonical)
    # one descriptor a line, each holding commas but no quote or newline
    lines = placements.text
    if args.format == "json":
        text = _ENUMERATION % (len(placements),
                               lines.replace("\n", '",\n    "'))
    elif args.format == "csv":
        text = 'descriptor\n"' + lines.replace("\n", '"\n"') + '"\n'
    else:
        text = f"{lines}\n{len(placements)} configurations\n"
    return text, 0


#: an ``approx`` record: ``predicted`` is ``fixed_point`` text and
#: ``rel_error`` a finite float, whose ``%r`` is the encoder's text
_APPROX_CELLS = {"r": "%d", "predicted": '"%s"', "exact": '"%d"',
                 "rel_error": "%r"}


def _cmd_approx(args) -> tuple[str, int]:
    family = parse_family(args.family)
    if family.growth_m is None:
        raise ValueError(f"family {brief(args.family)} has no periodic left "
                         "tail to approximate")
    if args.rmax < 0:
        raise ValueError("--rmax must be >= 0")
    w = family.window(0, args.base + args.rmax + 2)
    report = approx_report(w, family.growth_m, args.base, args.rmax)
    *columns, rel_error = zip(*(
        (row.r, fixed_point(row.predicted, 3), row.exact, row.rel_error)
        for row in report.rows))
    if args.format != "table":
        return seqcore.records(args.format, (*columns, rel_error),
                               _APPROX_CELLS), 0
    # "%.4f%%" of 100 * x is the text of f"{x:.4%}"
    return seqcore.int_rows(
        (*columns, [100 * x for x in rel_error]),
        "r=%d  predicted=%s  exact=%d  rel_error=%.4f%%\n",
        f"xi = {report.model.xi}, phi_m = {report.model.phi_m:.6f}\n"
        f"empirical ratio = {report.empirical_ratio:.6f} "
        f"(relative error {report.ratio_rel_error:.4%})\n"), 0


def _cmd_reference(args) -> tuple[str, int]:
    n = args.count
    if n < 1:
        raise ValueError("--count must be >= 1")
    seqcore.check_window_len(n, "table")
    table = (reference.hofstadter_q_table if args.sequence == "q"
             else reference.conway_table)(n)
    columns = (range(1, n + 1), table[1:])
    if args.format == "table":
        return seqcore.int_rows(columns, "%d  %d\n"), 0
    return seqcore.records(args.format, columns, seqcore.INDEX_VALUE), 0


def _cmd_export(args) -> tuple[str, int]:
    rng = parse_range(args.range_) if args.range_ is not None else None
    if args.input is not None and rng is not None and args.format == "json":
        # the periodic extension rules are phased to the document's own
        # span, so a cut document could not keep them exact
        raise ValueError("--range cannot cut a JSON document; use "
                         "--format csv or drop --range")
    w = _load(args, rng, "export")
    if args.format == "json":
        return to_json(w), 0
    return to_csv(w, *(rng or (w.lo, w.hi))), 0


def _io(formats=("csv", "json", "table")) -> dict[str, dict]:
    """The shared --format and --output; without a table format, --format
    is required."""
    table = "table" in formats
    return {"--format": {"choices": formats, "required": not table,
                         "default": "table" if table else None},
            "--output": {"default": None,
                         "help": "output path (default stdout)"}}


_FAMILY_RANGE = {
    "--family": {"required": True,
                 "help": "family descriptor, e.g. pi:m=1 or "
                         "tau:m=2,P=6;9,N=1;3"},
    "--range": {"required": True, "dest": "range_", "metavar": "A..B",
                "help": "inclusive index range"}}

#: each command by name: its handler, which returns the text to emit and
#: the exit code, its summary, and its options in ``--help`` order, each
#: with the keyword arguments of argparse's ``add_argument``
_COMMANDS = {
    "gen": (_cmd_gen, "generate family values over a range",
            {**_io(), **_FAMILY_RANGE}),
    "verify": (_cmd_verify, "check the self-generation equation", {
        **_io(), "--family": {"default": None},
        "--input": {"default": None, "help": "JSON sequence document to "
                                             "verify instead of a family"},
        "--range": {"required": True, "dest": "range_", "metavar": "A..B"},
        "--strict": {"action": "store_true",
                     "help": "treat uncheckable positions as failures"}}),
    "diff": (_cmd_diff, "k-fold forward difference of a family", {
        **_io(), **_FAMILY_RANGE, "--order": {"type": int, "default": 1}}),
    "closed-form": (_cmd_closed_form,
                    "compare iterative generation with closed forms",
                    {**_io(), **_FAMILY_RANGE}),
    "enumerate": (_cmd_enumerate, "enumerate periodic placements", {
        **_io(), "--m": {"type": int, "required": True},
        "--canonical": {"action": "store_true",
                        "help": "one representative per rotation class"}}),
    "approx": (_cmd_approx, "two-point growth approximation report", {
        **_io(), "--family": {"required": True},
        "--base": {"type": int, "default": 8,
                   "help": "index of the first base value"},
        "--rmax": {"type": int, "default": 6}}),
    "reference": (_cmd_reference, "classical strange recursions", {
        **_io(), "--sequence": {"choices": ("q", "conway"), "required": True},
        "--count": {"type": int, "default": 17}}),
    "export": (_cmd_export, "convert between sequence documents and formats", {
        **_io(("csv", "json")), "--family": {"default": None},
        "--input": {"default": None, "help": "existing document (.json or "
                                             ".csv) to re-export"},
        "--range": {
            "default": None, "dest": "range_", "metavar": "A..B",
            "help": "inclusive index range; csv writes these rows only.  "
                    "With --format json, --family writes the whole window "
                    "the family builds to cover A..B (a pi row runs from 0 "
                    "to B+2) and --input refuses a range: a cut document "
                    "could not keep its periodic tail rules exact"}}),
}


@functools.cache
def _view(command: str) -> tuple[dict, dict, frozenset]:
    """The reader's table of ``command``: each option's dest, converter
    (None for a flag, which takes no value) and choices; the namespace's
    defaults, ``run`` included; and the required dests."""
    run, _, options = _COMMANDS[command]
    table, defaults, required = {}, {"run": run}, set()
    for option, kw in options.items():
        dest = kw.get("dest", option[2:].replace("-", "_"))
        flag = kw.get("action") == "store_true"
        table[option] = (dest, None if flag else kw.get("type", str),
                         kw.get("choices"))
        defaults[dest] = kw.get("default", False if flag else None)
        if kw.get("required"):
            required.add(dest)
    return table, defaults, frozenset(required)


def _read(command: str, argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace the parser of ``command`` gives a well-formed
    ``argv``, read in one loop: exact long options, as ``--opt value`` or
    ``--opt=value``, and bare flags, each value converted by the option's
    ``type`` and checked against its ``choices``, the last of a repeated
    option winning.  None hands ``argv`` to argparse: an abbreviation,
    ``-h``, ``--``, a positional, a value missing, given to a flag or
    refused by its type or choices, a separate value that starts with "-"
    (argparse's negative-number rule decides those), or a required option
    left out."""
    options, defaults, required = _view(command)
    args = argparse.Namespace()
    values = vars(args)
    values.update(defaults)  # not its __init__'s setattr loop
    seen = set()
    argv = iter(argv)
    for arg in argv:
        option, eq, value = arg.partition("=")
        spec = options.get(option)
        if spec is None:
            return None
        dest, convert, choices = spec
        if convert is None:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(argv, None)
                if value is None or value.startswith("-"):
                    return None
            try:
                value = convert(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(dest)
    return args if required <= seen else None


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree of ``_COMMANDS``, which writes every help text and
    refusal, and each command's own parser by name; built on first use."""
    parser = argparse.ArgumentParser(
        prog="ultraseq",
        description="construct, transform, verify and enumerate "
                    "self-referential integer sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (run, summary, options) in _COMMANDS.items():
        command = commands[name] = sub.add_parser(name, help=summary)
        command.set_defaults(run=run)
        for option, kw in options.items():
            command.add_argument(option, **kw)
    return parser, commands


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of one command, read directly; argparse parses what
    the reader hands over, an empty argv, an option or an unknown command."""
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return _parser()[0].parse_args(argv) if args is None else args


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        text, code = args.run(args)
        _emit(text, args.output)
        return code
    except Exception as exc:  # every failure, a MemoryError too, exits 2
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
