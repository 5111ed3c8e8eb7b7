"""Seeded op lists for the three workloads and the checks of their outputs.

Every workload is a fixed list of ops built from ``--seed``.  A seed picks
parameters (rows, placements, offsets, injected faults) and moves sizes by
at most 1% along fixed ladders, so each seed costs about the same and the
run-to-run spread measures the program, not the draw.  CLI ops run
in-process through ``ultraseq.cli.dispatch``; ``transform`` ops call its
public functions.  Each op's output is checked against ``oracle``, never
against the package under test.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import oracle
from oracle import Seq, Undefined, bit_total

#: size ladders: per op group, (ops, smallest size, largest size).  Sizes
#: are spaced geometrically, so the latency distribution has no gaps for a
#: percentile to jump across.
LADDERS = {
    "grow": {
        "gen_pi": (32, 40, 450),
        "gen_composite": (32, 100, 1300),
        "closed_form": (12, 20, 220),
        "diff": (12, 40, 450),
        "export": (16, 80, 450),
        "reference": (16, 400, 4500),
    },
    "check": {
        "verify_pi": (16, 200, 2200),
        "verify_composite": (16, 200, 2200),
        "verify_tau_periods": (16, 2, 30),
        "verify_opower_periods": (16, 2, 30),
        "apply_tau_periods": (18, 2, 10),
        "apply_pi_n": (8, 12, 19),
        "opower_r": (12, 3, 7),
        "approx_base": (12, 40, 900),
        "approx_base_past_float": (4, 1300, 1700),
    },
    # m ladder with plain and canonical repeats per m, then (ops, smallest
    # m, largest m) of the verify sample; the counts put the 90th
    # percentile inside the plain m=3 ops rather than at a cluster edge
    "enumerate": {
        "m": (1, 2, 3, 4),
        "plain": (10, 10, 8, 2),
        "canonical": (10, 10, 5, 2),
        "verify_sample": (66, 1, 3),
    },
}

#: composite rows kept per tail parameter and kind
COMPOSITE_POOL = 48

#: every INJECTED_SHARE-th document of each ladder carries an injected
#: violation
INJECTED_SHARE = 4


class Mismatch(Exception):
    """An op's output disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Op:
    kind: str
    call: Callable     # call(pkg) -> outcome; may raise
    check: Callable    # check(outcome) -> work units; raises Mismatch


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def cli_call(argv: list[str]) -> Callable:
    def call(pkg):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = pkg.cli.dispatch(list(argv))
        return CliResult(rc, out.getvalue(), err.getvalue())
    return call


def sizes(rng, ladder) -> list[int]:
    """``count`` sizes spaced geometrically from the ladder's bottom to its
    top, each moved by at most 1% by the seed.  Sizes set most of an op's
    cost, so seeds vary everything else and keep the cost distribution."""
    count, lo, hi = ladder
    return [round(lo * (hi / lo) ** (i / (count - 1))
                  * (1 + rng.uniform(-0.01, 0.01) * (0 < i < count - 1)))
            for i in range(count)]


def _rc(res: CliResult, want: int) -> None:
    expect(isinstance(res, CliResult), f"not a CLI result: {res!r}")
    expect(res.rc == want, f"exit code {res.rc}, expected {want}: "
                           f"{res.err.strip()[:200]}")


# --- output checks ------------------------------------------------------------

def check_csv_rows(text: str, lo: int, hi: int, value) -> int:
    lines = text.splitlines()
    expect(lines and lines[0] == "index,value", "missing index,value header")
    expect(len(lines) - 1 == hi - lo + 1, "wrong number of rows")
    got = []
    for k, line in zip(range(lo, hi + 1), lines[1:]):
        idx, _, val = line.partition(",")
        expect(int(idx) == k, f"row index {idx}, expected {k}")
        v = int(val)
        expect(v == value(k), f"value at {k} differs")
        got.append(v)
    return bit_total(got)


def _unit_of(rule):
    if rule["kind"] == "undefined":
        return None
    expect(rule["kind"] == "periodic", f"unknown rule {rule['kind']!r}")
    return [int(v) for v in rule["unit"]]


def check_document(text: str, lo: int, hi: int, value) -> int:
    """A sequence document must define lo..hi; every value it holds, tails
    included for two periods, must equal the oracle's."""
    doc = json.loads(text)
    seq = Seq(int(doc["lo"]), doc["values"], left=_unit_of(doc["left"]),
              right=_unit_of(doc["right"]))
    expect(seq.defined(lo) and seq.defined(hi),
           "document does not cover the range")
    left = len(seq.left) if seq.left else 0
    right = len(seq.right) if seq.right else 0
    for k in range(min(lo, seq.lo - 2 * left), max(hi, seq.hi + 2 * right) + 1):
        try:
            want = value(k)
        except Undefined:
            raise Mismatch(f"document defines {k}, where the sequence is "
                           "undefined")
        expect(seq.value(k) == want, f"value at {k} differs")
    return bit_total(seq.values)


def window_value(w, k: int):
    """Value of an ultraseq window at k from its public fields, or None."""
    hi = w.lo + len(w.values) - 1
    if w.lo <= k <= hi:
        return w.values[k - w.lo]
    rule = w.left if k < w.lo else w.right
    if rule is None:
        return None
    offset = k - w.lo if k < w.lo else k - hi - 1
    return rule.unit[offset % len(rule.unit)]


def check_window(w, lo: int, hi: int, expected) -> int:
    """Positions lo..hi of a result window must match ``expected(k)``,
    undefined (None) positions included."""
    expect(hasattr(w, "values"), f"not a window: {w!r}")
    bits = 0
    for k in range(lo, hi + 1):
        want = expected(k)
        got = window_value(w, k)
        expect(got == want, f"position {k}: got {got}, expected {want}")
        if want is not None:
            bits += abs(want).bit_length()
    return bits


# --- descriptors ----------------------------------------------------------------

def tau_descriptor(m: int, pos, neg) -> str:
    return (f"tau:m={m},P={';'.join(map(str, sorted(pos)))},"
            f"N={';'.join(map(str, sorted(neg)))}")


@cache
def config_set(m: int) -> set:
    return oracle.tau_configs(m)


@cache
def sorted_configs(m: int) -> list:
    return sorted(config_set(m))


@cache
def composite_pool(m: int, growing: bool) -> list:
    """Composite rows over a tau tail of parameter m whose forward
    generation is deterministic: heads that turn <= -2 leave their successor
    open, which the family then rejects.  A growing row rises like phi_m; a
    row that is not growing has collapsed to zeros.  Candidates are tried in
    a fixed order, once per process, so a seed's draw from the pool costs
    the same whatever the seed."""
    mids = (None, (-2, 4), (-4, 6), (-6, 8))
    candidates = list(itertools.product(sorted_configs(m), mids, range(1, 5)))
    random.Random(m).shuffle(candidates)
    pool = []
    for (pos, neg), mid, seed in candidates:
        try:
            row = oracle.composite_seq(m, set(pos), set(neg), mid, seed, 64)
        except ValueError:
            continue
        if growing == (0 < row.values[-2] < row.values[-1]):
            pool.append((pos, neg, mid, seed))
            if len(pool) == COMPOSITE_POOL:
                break
    return pool


def pick_composite(rng, m: int, growing: bool = True):
    """A seeded composite row from the pool: its descriptor and parameters.
    The growth rate depends on m only, so callers fix m per ladder slot and
    the seed picks the rest."""
    pos, neg, mid, seed = rng.choice(composite_pool(m, growing))
    desc = f"composite:left={tau_descriptor(m, pos, neg)}"
    if mid:
        desc += f",mid=omega:{mid[0]}..{mid[1]}"
    return desc + f",seed={seed}", (m, set(pos), set(neg), mid, seed)


def composite_oracle(params, steps: int) -> Seq:
    m, pos, neg, mid, seed = params
    return oracle.composite_seq(m, pos, neg, mid, seed, steps)


def pi_oracle(m: int, hi: int) -> Seq:
    return Seq(0, oracle.pi_values(m, 0, hi), left=[-2])


# --- grow -----------------------------------------------------------------------

def _gen_op(kind, argv, lo, hi, fmt, seq_fn, whole_doc=False):
    """A command that prints rows lo..hi as csv, or a json document that
    covers them (the whole built window for ``export``).  The oracle row is
    rebuilt for each check rather than kept, so the benchmark's own memory
    stays small next to the program's."""
    def check(res):
        _rc(res, 0)
        value = seq_fn().value
        if fmt == "csv":
            return check_csv_rows(res.out, lo, hi, value)
        bits = check_document(res.out, lo, hi, value)
        return bits if whole_doc else bit_total(value(k)
                                                for k in range(lo, hi + 1))
    return Op(kind, cli_call(argv), check)


def grow_ops(rng, pkg, workdir: Path) -> list[Op]:
    L = LADDERS["grow"]
    ops = []
    for j, hi in enumerate(sizes(rng, L["gen_pi"])):
        m, lo, fmt = rng.randint(1, 9), rng.randint(-3, 2), ("csv", "json")[j % 2]
        ops.append(_gen_op(
            f"gen.pi.{fmt}",
            ["gen", "--family", f"pi:m={m}", f"--range={lo}..{hi}",
             "--format", fmt],
            lo, hi, fmt, lambda m=m, hi=hi: pi_oracle(m, hi + 2)))
    for j, hi in enumerate(sizes(rng, L["gen_composite"])):
        desc, params = pick_composite(rng, 1 + j % 2)
        lo, fmt = rng.randint(-12, 0), ("csv", "json")[j // 2 % 2]
        ops.append(_gen_op(
            f"gen.composite.{fmt}",
            ["gen", "--family", desc, f"--range={lo}..{hi}", "--format", fmt],
            lo, hi, fmt, lambda p=params, hi=hi: composite_oracle(p, hi)))
    for hi in sizes(rng, L["closed_form"]):
        m, lo = rng.randint(1, 9), rng.randint(0, 5)
        ops.append(Op("closed-form", cli_call(
            ["closed-form", "--family", f"pi:m={m}", f"--range={lo}..{hi}",
             "--format", "csv"]), _closed_form_check(m, lo, hi)))
    for j, hi in enumerate(sizes(rng, L["diff"])):
        m, k, lo, fmt = (rng.randint(1, 9), rng.randint(1, 4),
                         rng.randint(-3, 3), ("csv", "json")[j % 2])
        ops.append(_gen_op(
            f"diff.{fmt}",
            ["diff", "--family", f"pi:m={m}", f"--range={lo}..{hi}",
             "--order", str(k), "--format", fmt],
            lo, hi, fmt,
            lambda m=m, hi=hi, k=k: _DiffSeq(pi_oracle(m, hi + k + 2), k)))
    for j, hi in enumerate(sizes(rng, L["export"])):
        fmt = ("json", "csv")[j % 2]
        if j // 2 % 2 == 0:
            m = rng.randint(1, 9)
            desc, lo = f"pi:m={m}", rng.randint(-3, 2)
            seq_fn = lambda m=m, hi=hi: pi_oracle(m, hi + 2)
        else:
            desc, params = pick_composite(rng, 1 + j // 4 % 2)
            lo = rng.randint(-12, 0)
            seq_fn = lambda p=params, hi=hi: composite_oracle(p, hi)
        ops.append(_gen_op(
            f"export.{fmt}",
            ["export", "--family", desc, f"--range={lo}..{hi}", "--format", fmt],
            lo, hi, fmt, seq_fn, whole_doc=True))
    for j, n in enumerate(sizes(rng, L["reference"])):
        name, fmt = ("q", "conway")[j % 2], ("csv", "json")[j // 2 % 2]
        ops.append(Op(f"reference.{name}", cli_call(
            ["reference", "--sequence", name, "--count", str(n),
             "--format", fmt]), _reference_check(name, n, fmt)))
    rng.shuffle(ops)
    return ops


class _DiffSeq:
    """k-th forward difference of an oracle sequence."""

    def __init__(self, seq: Seq, k: int):
        self.seq, self.k = seq, k

    def value(self, n: int) -> int:
        return oracle.difference_value(self.seq, self.k, n)


def _closed_form_check(m, lo, hi):
    expected = cache(lambda: oracle.pi_values(m, lo, hi))

    def check(res):
        _rc(res, 0)
        lines = res.out.splitlines()
        expect(lines[0] == "index,iterative,fib_form,quad_form",
               "closed-form header")
        expect(len(lines) - 1 == hi - lo + 1, "closed-form row count")
        want = expected()
        for k, line in zip(range(lo, hi + 1), lines[1:]):
            cells = [int(c) for c in line.split(",")]
            v = want[k - lo]
            expect(cells == [k, v, v, v], f"closed-form row {k} differs")
        return 3 * bit_total(want)
    return check


def _reference_check(name, n, fmt):
    expected = cache(lambda: (oracle.hofstadter_q if name == "q"
                             else oracle.conway)(n))

    def check(res):
        _rc(res, 0)
        want = expected()
        if fmt == "csv":
            return check_csv_rows(res.out, 1, n, lambda k: want[k - 1])
        rows = json.loads(res.out)
        expect([(r["index"], int(r["value"])) for r in rows]
               == list(zip(range(1, n + 1), want)), "reference values differ")
        return bit_total(want)
    return check


# --- check ----------------------------------------------------------------------

def _random_opower(rng, r: int) -> tuple[str, ...]:
    plus = rng.randint(1, (r - 1) // 2)
    tokens = ["+"] * plus + ["-"] * (plus + 1) + ["0"] * (r - 2 * plus - 1)
    rng.shuffle(tokens)
    return tuple(tokens)


def pick_injection(rng, seq: Seq) -> tuple[int, int]:
    """A position right after a positive head, and a change to its value:
    that head reads only positions before the change, so its equation must
    fail.  On rows every later head reads back across the change and fails
    too, so the position is drawn from the last tenth of the block to keep
    the size of the violation report the same for every seed."""
    candidates = [k for k in range(seq.lo + 1, seq.hi + 1)
                  if seq.value(k - 1) > 0]
    return (rng.choice(candidates[-max(1, len(candidates) // 10):]),
            rng.choice((-1, 1, 2)))


def inject(seq: Seq, k: int, delta: int) -> Seq:
    values = list(seq.values)
    values[k - seq.lo] += delta
    return Seq(seq.lo, values, left=seq.left, right=seq.right)


def _verify_op(kind, argv, make, lo: int, hi: int, bits: bool = True) -> Op:
    """``verify`` of lo..hi of the sequence ``make()`` rebuilds; only the
    verdict and the bit count are kept.  The op's work is the bits of the
    values checked, or none where the workload counts other work."""
    @cache
    def expected():
        seq = make()
        want = oracle.verify(seq, lo, hi)
        want["bits"] = bit_total(seq.value(k) for k in range(lo, hi + 2)
                                 if seq.defined(k))
        return want

    def check(res):
        want = expected()
        _rc(res, 1 if want["violations"] else 0)
        lines = res.out.splitlines()
        m = re.match(r"(\d+) ok, (\d+) violations, (\d+) uncheckable", lines[0])
        expect(m is not None, "verify summary line")
        expect(tuple(map(int, m.groups())) == (
            want["ok"], len(want["violations"]), want["uncheckable"]),
            f"verify counts {m.groups()} differ from {want['ok']}, "
            f"{len(want['violations'])}, {want['uncheckable']}")
        positions = [int(p) for p in
                     re.findall(r"^violation at (-?\d+):", res.out, re.M)]
        expect(positions == want["violations"],
               "violation positions differ (first expected "
               f"{want['violations'][:1]}, got {positions[:1]})")
        return want["bits"] if bits else 0
    return Op(kind, cli_call(argv + [f"--range={lo}..{hi}"]), check)


def _to_window(pkg, seq: Seq):
    sc = pkg.seqcore
    rule = (lambda u: None if u is None else sc.Periodic(u))
    return sc.SeqWindow(seq.lo, seq.values, left=rule(seq.left),
                        right=rule(seq.right))


def _transform_op(kind, pkg, seq: Seq, fn, lo, hi, expected_seq) -> Op:
    w = _to_window(pkg, seq)
    expected = cache(expected_seq)

    def check(out):
        want = expected()
        return check_window(out, lo, hi, want)
    return Op(kind, lambda p: fn(p, w), check)


def _approx_op(rng, base: int, m: int) -> Op:
    desc, params = pick_composite(rng, m)
    rmax = rng.randint(4, 8)
    # u[base + r] for r = 0..rmax + 1; the row itself is not kept
    values = cache(lambda: composite_oracle(params, base + rmax + 2)
                  .values[-rmax - 3:-1])

    def check(res):
        _rc(res, 0)
        u = values()
        lines = res.out.splitlines()
        xi = Fraction(2) - Fraction(1, 2 * m + 1)
        phi = (float(xi) + math.sqrt((float(xi) - 2) ** 2 + 4)) / 2
        head = re.match(r"xi = (\S+), phi_m = (\S+)", lines[0])
        expect(head is not None and head.group(1) == str(xi)
               and abs(float(head.group(2)) - phi) < 1e-6, "approx model line")
        ratio = re.match(r"empirical ratio = (\S+)", lines[1])
        exact_ratio = Fraction(u[1], u[0])
        expect(ratio is not None
               and abs(float(ratio.group(1)) - float(exact_ratio)) < 1e-6,
               "approx empirical ratio")
        rows = [re.match(r"r=(\d+)\s+predicted=(\S+)\s+exact=(-?\d+)\s+"
                         r"rel_error=(\S+)%", line) for line in lines[2:]]
        expect(len(rows) == rmax + 1 and all(rows), "approx rows")
        exact = []
        for r, row in enumerate(rows):
            want = u[r]
            expect(int(row.group(1)) == r and int(row.group(3)) == want,
                   f"approx exact value at r={r}")
            rel = abs(Fraction(row.group(2)) - want) / abs(want)
            expect(rel <= Fraction(1, 20) and float(row.group(4)) <= 5.0,
                   f"approx prediction off at r={r}")
            exact.append(want)
        return bit_total(exact)
    return Op("approx", cli_call(["approx", "--family", desc, "--base",
                                  str(base), "--rmax", str(rmax)]), check)


def _usage_error(res) -> int:
    _rc(res, 2)
    return 0


def check_ops(rng, pkg, workdir: Path) -> list[Op]:
    L = LADDERS["check"]
    recipes = []  # (kind, make, lo, hi); each make() rebuilds one sequence
    for hi in sizes(rng, L["verify_pi"]):
        make = lambda m=rng.randint(1, 9), hi=hi: pi_oracle(m, hi)
        recipes.append(("verify.pi", make, rng.randint(-6, 0),
                        hi - rng.randint(0, 1)))
    for j, steps in enumerate(sizes(rng, L["verify_composite"])):
        _, params = pick_composite(rng, 1 + j % 3)
        make = lambda p=params, n=steps: composite_oracle(p, n)
        m, mid = params[0], params[3]
        tail_start = -(mid[1] - mid[0] + 2) if mid else -1
        recipes.append(("verify.composite", make,
                        tail_start - rng.randint(0, 2 * (4 * m + 2)),
                        steps - rng.randint(0, 1)))
    for j, periods in enumerate(sizes(rng, L["verify_tau_periods"])):
        m = 1 + j % 3
        pos, neg = rng.choice(sorted_configs(m))
        make = lambda m=m, pos=set(pos), neg=set(neg), n=periods: \
            oracle.tau_seq(m, pos, neg, n)
        p = 4 * m + 2
        recipes.append(("verify.tau", make, 1 - rng.randint(0, 2 * p),
                        periods * p + rng.randint(0, 2 * p)))
    for j, periods in enumerate(sizes(rng, L["verify_opower_periods"])):
        r = (3, 5, 7, 9)[j % 4]
        make = lambda u=_random_opower(rng, r), n=periods: oracle.opower_seq(u, n)
        recipes.append(("verify.opower", make, 1 - rng.randint(0, 2 * r),
                        periods * r + rng.randint(0, 2 * r)))
    ops = []
    for i, (kind, make, lo, hi) in enumerate(recipes):
        seq = make()
        if i % INJECTED_SHARE == INJECTED_SHARE - 1:
            k, delta = pick_injection(rng, seq)
            make = lambda base=make, k=k, d=delta: inject(base(), k, d)
            seq, kind = make(), kind + ".injected"
        path = workdir / f"doc-{i}.json"
        path.write_text(json.dumps(seq.document()), encoding="utf-8")
        ops.append(_verify_op(kind, ["verify", "--input", str(path)], make,
                              lo, hi))

    apply_O = lambda p, w: p.transform.apply_O(w)
    apply_H = lambda p, w: p.transform.apply_H(p.transform.O_SLOTS, w)
    for j, periods in enumerate(sizes(rng, L["apply_tau_periods"])):
        m = 1 + j % 3
        name, fn = (("apply_O", apply_O), ("apply_H", apply_H))[j // 3 % 2]
        pos, neg = rng.choice(sorted_configs(m))
        seq = oracle.tau_seq(m, set(pos), set(neg), periods)
        p = len(seq.left)
        ops.append(_transform_op(
            f"{name}.tau", pkg, seq, fn, seq.lo - 2 * p, seq.hi + 2 * p,
            lambda s=seq, p=p: oracle.o_map_periodic(s, p).value))
    for j, n in enumerate(sizes(rng, L["apply_pi_n"])):
        name, fn = (("apply_O", apply_O), ("apply_H", apply_H))[j % 2]
        # the row's cost grows with m: fixed per slot, not drawn
        seq = pi_oracle(1 + j // 2 % 4, n)
        ops.append(_transform_op(
            f"{name}.pi", pkg, seq, fn, seq.lo - 3, seq.hi + 2,
            lambda s=seq: lambda q: oracle.o_map_value(s, q)))
    count, r_lo, r_hi = L["opower_r"]
    for j in range(count):
        r = range(r_lo, r_hi + 1, 2)[j % 3]
        seq = oracle.opower_seq(_random_opower(rng, r), 3)
        if j < count // 2:
            fn, kind, times = apply_O, "apply_O.opower", 1
        else:
            fn, kind, times = (lambda p, w, r=r: p.transform.iterate(
                p.transform.apply_O, r, w)), "iterate.opower", r
        ops.append(_transform_op(
            kind, pkg, seq, fn, seq.lo - 2 * r, seq.hi + 2 * r,
            lambda s=seq, r=r, t=times: _iterate_periodic(s, r, t).value))
    for j, base in enumerate(sizes(rng, L["approx_base"])):
        ops.append(_approx_op(rng, base, 1 + j % 2))
    # bases whose values no longer fit a float: a correct report is still
    # expected, so these ops fail for as long as the program overflows
    for j, base in enumerate(sizes(rng, L["approx_base_past_float"])):
        ops.append(_approx_op(rng, base, 1 + j % 2))
    # a row that has collapsed to zeros has no growth to fit: the CLI
    # contract asks for exit code 2 with a message, not a traceback
    desc, _ = pick_composite(rng, 2, growing=False)
    ops.append(Op("approx.collapsed", cli_call(
        ["approx", "--family", desc, "--base", str(rng.randint(100, 400))]),
        _usage_error))
    rng.shuffle(ops)
    return ops


def _iterate_periodic(seq: Seq, period: int, times: int) -> Seq:
    for _ in range(times):
        seq = oracle.o_map_periodic(seq, period)
    return seq


# --- enumerate ------------------------------------------------------------------

_TAU = re.compile(r"tau:m=(\d+),P=([\d;]+),N=([\d;]+)$")


def _parse_tau(desc: str):
    m = _TAU.match(desc)
    expect(m is not None, f"bad descriptor {desc!r}")
    return (int(m.group(1)), tuple(sorted(int(v) for v in m.group(2).split(";"))),
            tuple(sorted(int(v) for v in m.group(3).split(";"))))


def _enumerate_check(m: int, canonical: bool):
    def check(res):
        _rc(res, 0)
        doc = json.loads(res.out)
        configs = [_parse_tau(d) for d in doc["configs"]]
        expect(doc["count"] == len(configs), "count field")
        expect(all(c[0] == m for c in configs), "wrong m")
        if canonical:
            expect(len(configs) == oracle.tau_canonical_count(m),
                   f"{len(configs)} classes, expected "
                   f"{oracle.tau_canonical_count(m)}")
            expect(all(oracle.placement_valid(m, p, n) for _, p, n in configs),
                   "invalid representative")
            keys = {oracle.rotation_key(m, p, n) for _, p, n in configs}
            expect(len(keys) == len(configs), "two representatives of a class")
        else:
            expect(len(configs) == oracle.tau_count(m),
                   f"{len(configs)} configs, expected {oracle.tau_count(m)}")
            expect({(p, n) for _, p, n in configs} == config_set(m),
                   "config set differs")
        return len(configs)
    return check


def _family_verify_op(m, pos, neg, rng) -> Op:
    period = 4 * m + 2
    return _verify_op(
        "verify.family", ["verify", "--family", tau_descriptor(m, pos, neg)],
        lambda: oracle.tau_seq(m, set(pos), set(neg), 3),
        1 - rng.randint(0, period), 3 * period + rng.randint(0, period),
        bits=False)


def enumerate_ops(rng, pkg, workdir: Path) -> list[Op]:
    L = LADDERS["enumerate"]
    ops = []
    for m, plain, canonical in zip(L["m"], L["plain"], L["canonical"]):
        argv = ["enumerate", "--m", str(m), "--format", "json"]
        ops += [Op("enumerate", cli_call(argv), _enumerate_check(m, False))
                for _ in range(plain)]
        ops += [Op("enumerate.canonical", cli_call(argv + ["--canonical"]),
                   _enumerate_check(m, True)) for _ in range(canonical)]
    count, m_lo, m_hi = L["verify_sample"]
    for j in range(count):
        m = m_lo + j % (m_hi - m_lo + 1)
        pos, neg = rng.choice(sorted_configs(m))
        ops.append(_family_verify_op(m, pos, neg, rng))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"grow": grow_ops, "check": check_ops, "enumerate": enumerate_ops}

#: the unit of ``work_per_s`` on each workload
WORK_UNITS = {"grow": "output bits emitted", "check": "bits of values checked",
              "enumerate": "configurations emitted"}
