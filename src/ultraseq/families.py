"""Constructors, closed forms, identities and enumeration for every
sequence family: the seeded rows (pi), their sparse-left variant (pi*),
the fully periodic placements (tau), the arithmetic placement sequence
(omega), composite seeded rows, the shift-eigen periodic family, and the
two-point growth approximation model.
"""
from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional, Sequence

from .errors import (
    DegenerateBase,
    IdentityViolation,
    InvalidConfig,
    TooLarge,
    brief,
    clip,
)
from .exactmath import closed_form_affine_row, fib, lucas
from .seqcore import (
    MAX_WINDOW_ENV,
    Periodic,
    SeqWindow,
    breve,
    concat,
    constant,
    difference,
    extend_right_by_O,
    check_window_len,
    max_window_len,
)


# --- the pi family ------------------------------------------------------------

def pi_window(m: int, n_max: int) -> SeqWindow:
    """Constant -2 left tail, seed m at index 0, generated forward.

    Construction is cross-checked against the running-sum identity
    u[n+1] = S_n + 2n + 2, S_n the sum of u[0..n-1]; a failure raises
    IdentityViolation.  The identity implies the affine two-term
    recurrence: subtracting it at n = p-2 from it at n = p-1 gives
    u[p] - u[p-1] = S_{p-1} - S_{p-2} + 2 = u[p-2] + 2 for every p in
    2..n_max, so that recurrence needs no check of its own.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    w = SeqWindow(0, (m,), left=constant(-2))
    if n_max > 0:
        w = extend_right_by_O(w, n_max)
    u = w.values  # u[n] is the value at index n
    s = 0  # S_n, the sum of the values at 0..n-1
    for n in range(0, n_max):
        if u[n + 1] != s + 2 * n + 2:
            raise IdentityViolation(
                f"running-sum identity failed at m={m}, n={n}")
        s += u[n]
    return w


def pi_closed(m: int, n: int, method: str = "fib") -> int:
    """Closed form for the pi row value at index n.

    method 'fib' evaluates m*F(n-1) + 2*F(n+2) - 2 in integers; 'quad'
    evaluates B*phi^n + C*psi^n - 2 exactly in Q(sqrt 5) as the affine
    two-term closed form with L_0 = m, L_1 = 2 and eps = 2, and asserts the
    irrational part vanishes.  Both agree for all inputs.
    """
    if m < 1 or n < 0:
        raise ValueError("require m >= 1 and n >= 0")
    if method == "fib":
        return m * fib(n - 1) + 2 * fib(n + 2) - 2
    if method == "quad":
        return pi_quad_row(m, n, n)[0]
    raise ValueError(f"unknown method {method!r}")


def pi_quad_row(m: int, lo: int, hi: int) -> list[int]:
    """``pi_closed(m, n, 'quad')`` for n = lo..hi, in one pass: the constants
    and the powers at lo are computed once, then two multiplications per
    index."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return closed_form_affine_row(m, 2, 2, lo, hi)


def pi_row_relation(m: int, t: int, n: int) -> int:
    """Value at index n of row m expressed through row t."""
    if m < 1 or t < 1:
        raise ValueError("rows must be >= 1")
    value = pi_closed(t, n) + (m - t) * fib(n - 1)
    if value != pi_closed(m, n):
        raise IdentityViolation(
            f"row relation failed at m={m}, t={t}, n={n}")
    return value


def pi_two_point(m: int, t: int, e: int, n: int) -> int:
    """Value at index n of row m from two consecutive values of row t."""
    if e < 0 or n < 0:
        raise ValueError("require e >= 0 and n >= 0")
    value = (pi_closed(t, e) * fib(n - e - 1)
             + pi_closed(t, e + 1) * fib(n - e)
             + 2 * fib(n - e + 1)
             + (m - t) * fib(n - 1) - 2)
    if value != pi_closed(m, n):
        raise IdentityViolation(
            f"two-point relation failed at m={m}, t={t}, e={e}, n={n}")
    return value


def delta_identities(m: int, k: int, n: int) -> dict:
    """Check the difference-sequence identities at one point.

    Verifies, against the actual k-fold difference of the generated row:
    the Fibonacci-combination form (n > 0), the two-term recurrence
    (n >= k+1), the shift-by-k relation (1 <= k <= n-1), and for
    m in {1, 2, 6} the Lucas/Fibonacci special forms.  Raises
    IdentityViolation with a counterexample on any failure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = pi_window(m, max(n, 0) + k + 2)
    dk = difference(w, k)
    val = dk.value_at(n)
    checked = {"value": val}

    def fail(name, expected):
        raise IdentityViolation(
            f"{name} failed at m={m}, k={k}, n={n}: "
            f"difference value {val}, expected {expected}")

    if n > 0:
        expected = m * fib(n - 1 - k) + 2 * fib(n + 2 - k)
        if val != expected:
            fail("Fibonacci-combination form", expected)
        checked["fib_form"] = expected
    if n >= k + 1:
        expected = dk.value_at(n - 1) + dk.value_at(n - 2)
        if val != expected:
            fail("difference recurrence", expected)
        checked["recurrence"] = expected
    if 1 <= k <= n - 1:
        expected = pi_closed(m, n - k) + 2
        if val != expected:
            fail("shift-by-k relation", expected)
        checked["shift_form"] = expected
    if m == 1:
        expected = lucas(n + 2 - k)
        if val != expected:
            fail("row-1 Lucas form", expected)
        checked["special_form"] = expected
    elif m == 2:
        # one index higher than the row-6 form; this is the index that
        # matches the generated difference values at every n
        expected = 4 * fib(n + 1 - k)
        if val != expected:
            fail("row-2 Fibonacci form", expected)
        checked["special_form"] = expected
    elif m == 6:
        expected = 4 * lucas(n - k)
        if val != expected:
            fail("row-6 Lucas form", expected)
        checked["special_form"] = expected
    return checked


# --- the pi* family -----------------------------------------------------------

def _pi_star_right(m: int, n_max: int,
                   reach: Optional[int] = None) -> list[int]:
    """Right-side values at indices 0..n_max (doubling at even indices,
    +4 at odd indices after the first four values).

    With ``reach``, the values run on past n_max, two indices at a time,
    until the mirror of the last odd-index value lies at or left of index
    reach.  The window then holds more values than any odd-index value, so
    one over the window cap is refused before the next value is computed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    right = [m, 2, m + 4, m + 8]
    while True:
        idx, j = len(right), (len(right) - 2) | 1  # j: the last odd index
        if reach is not None:
            check_window_len(right[j] + 1, f"pistar m={m} window")
        if idx > n_max:
            if reach is None or j - right[j] <= reach:
                return right
            n_max += 2
        right.append(2 * right[-1] - 2 if idx % 2 == 0 else right[-1] + 4)


def pi_star_window(m: int, n_max: int, reach: int = 0) -> SeqWindow:
    """Sparse-left variant: doubling growth on the right, with each odd-index
    value v at position j mirrored as -v at position -(v - j); -2 elsewhere
    on the materialized left side.  The right side runs past n_max when the
    left side must reach further, to index ``reach``; a window over the cap
    is refused before it is built."""
    right = _pi_star_right(m, n_max, reach)
    placements = {}
    for j in range(3, len(right), 2):
        placements[-(right[j] - j)] = -right[j]
    lo = min(placements)
    left_vals = [placements.get(kk, -2) for kk in range(lo, 0)]
    return SeqWindow(lo, left_vals + right)


def pi_star_even_closed(m: int, n: int) -> int:
    """Closed form for the even-index values, asserted against construction."""
    if m < 1 or 2 * n < 4:
        raise ValueError("require m >= 1 and 2n >= 4")
    value = 2 ** (n - 1) * (m + 10) - 6
    if _pi_star_right(m, 2 * n)[2 * n] != value:
        raise IdentityViolation(
            f"even-index closed form failed at m={m}, n={n}")
    return value


# --- the tau family -----------------------------------------------------------

@dataclass(frozen=True)
class TauConfig:
    """Placement of m values +(4m+2) and m values -(4m+2) in a period of
    4m+2 positions, no two placements cyclically adjacent."""

    m: int
    pos: frozenset[int]
    neg: frozenset[int]

    def __init__(self, m: int, pos, neg):
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "pos", frozenset(map(int, pos)))
        object.__setattr__(self, "neg", frozenset(map(int, neg)))
        self._validate()

    def _validate(self):
        m, period = self.m, self.period
        if m < 1:
            raise InvalidConfig("m must be >= 1")
        if len(self.pos) != m or len(self.neg) != m:
            raise InvalidConfig(f"need exactly {m} positive and {m} negative "
                                "placements")
        if self.pos & self.neg:
            raise InvalidConfig("placements must be disjoint")
        q = sorted(self.pos | self.neg)
        if not 1 <= q[0] <= q[-1] <= period:
            raise InvalidConfig(f"placements must lie in [1, {period}]")
        for a, b in zip(q, q[1:] + [q[0] + period]):
            if b - a == 1:
                raise InvalidConfig(f"placements {a} and {b % period or period}"
                                    " are cyclically adjacent")

    @property
    def period(self) -> int:
        return 4 * self.m + 2

    def unit(self) -> tuple[int, ...]:
        """One-period values at positions 1..4m+2."""
        amp = self.period
        return tuple(amp if j in self.pos else -amp if j in self.neg else -2
                     for j in range(1, amp + 1))

    def descriptor(self) -> str:
        p = ";".join(str(v) for v in sorted(self.pos))
        n = ";".join(str(v) for v in sorted(self.neg))
        return f"tau:m={self.m},P={p},N={n}"


def tau_window(c: TauConfig | OPowerConfig, periods: int = 1) -> SeqWindow:
    """``periods`` copies of the config's unit from index 1, continued
    periodically on both sides."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    unit = c.unit()
    return SeqWindow(1, unit * periods,
                     left=Periodic(unit), right=Periodic(unit))


class Placements(abc.Sequence):
    """Read-only tau placements, held as their ``descriptors``; each item is
    the validated ``TauConfig`` its descriptor parses to, built when read."""

    __slots__ = ("descriptors",)

    def __init__(self, descriptors):
        self.descriptors: tuple[str, ...] = tuple(descriptors)

    def __len__(self) -> int:
        return len(self.descriptors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Placements(self.descriptors[i])
        return parse_family(self.descriptors[i]).config

    def __iter__(self):
        return (parse_family(d).config for d in self.descriptors)


def _check_enumeration_size(m: int, canonical: bool) -> None:
    """Refuse an m whose output passes the window cap: count placements of
    4m+2 values each, and about count values with ``canonical`` (the
    classes number about count/(4m+2)).  The output grows with m, so k runs
    up from 1 and stops at the first size over the cap, after O(log cap)
    small binomials however large m is."""
    cap = max_window_len()
    for k in range(1, m + 1):
        size = (2 * k + 1) ** 2 * math.comb(2 * k, k)
        if size * (1 if canonical else 4 * k + 2) > cap:
            raise TooLarge(f"the m={m} enumeration outputs more than the cap "
                           f"of {cap} values; raise {MAX_WINDOW_ENV} to "
                           "override")


def _halves(m: int, first: int) -> list[tuple]:
    """Every half unit over the 2m+1 slots from ``first``, in unit order:
    no two placements adjacent and at most m of each sign.  Each half is
    (positives, negatives, starts on a placement, ends on one, P, N), with
    P and N its slots of each sign as ``;``-joined text."""
    halves = [(0, 0, False, False, (), ())]
    for slot in range(first, first + 2 * m + 1):
        opening, name = slot == first, str(slot)
        grown = []
        for pos, neg, starts, ends, p, n in halves:
            if not ends and neg < m:
                grown.append((pos, neg + 1, starts or opening, True,
                              p, n + (name,)))
            grown.append((pos, neg, starts, False, p, n))
            if not ends and pos < m:
                grown.append((pos + 1, neg, starts or opening, True,
                              p + (name,), n))
        halves = grown
    return [(*h[:4], ";".join(h[4]), ";".join(h[5])) for h in halves]


def _plain_descriptors(m: int) -> list[str]:
    """Every placement, in unit order, by joining a left half (slots
    1..2m+1) to each right half that completes its counts and places
    nothing next to it, at the join or across the wrap.  The left half is
    the more significant, so taking the lefts in order and each one's
    rights in order writes the units in order, at one f-string each."""
    accepting = {}  # (positives, negatives, left starts, left ends) -> [(P, N)]
    for pos, neg, starts, ends, p, n in _halves(m, 2 * m + 2):
        # a right half that ends on a placement takes only lefts that do not
        # start on one (the wrap), and one that starts on a placement only
        # lefts that do not end on one (the join)
        for left_starts in (False,) if ends else (False, True):
            for left_ends in (False,) if starts else (False, True):
                accepting.setdefault((pos, neg, left_starts, left_ends),
                                     []).append((p, n))
    out = []
    for pos, neg, starts, ends, p, n in _halves(m, 1):
        rights = accepting.get((m - pos, m - neg, starts, ends), ())
        # a ';' only between two nonempty sides
        head = f"tau:m={m},P={p}{';' if 0 < pos < m else ''}"
        mid = f",N={n}{';' if 0 < neg < m else ''}"
        out += [f"{head}{rp}{mid}{rn}" for rp, rn in rights]
    return out


#: a slot read as one token, its gap of -2s then the next slot's sign, as a
#: character indexed by the gap; token order is then unit order:
#: (1,-) < (2,-) < (3,-) < (3,+) < (2,+) < (1,+)
_MINUS_TOKEN, _PLUS_TOKEN = " abc", " fed"
#: how far each token moves on to the next slot: its gap plus one
_STEP = {"a": 2, "b": 3, "c": 4, "d": 4, "e": 3, "f": 2}


def _canonical_descriptors(m: int) -> list[str]:
    """One placement per rotation class, the least rotation of its unit.

    The 2m placements split the 2m+2 values -2 into 2m gaps of at least
    one: one gap of 3 and the others 1 (d = 0 below), or two gaps of 2 at
    cyclic distance d = 1..m.  Each gap pattern, held in place, with each
    sign word of m minuses from ``combinations`` is a candidate class; only
    at d = m are two of them one class (a word and its half turn), which
    the set merges.  A unit read from a -(4m+2) on is its tokens, so its
    least rotation is its least token rotation that starts right after a
    "-" token: one ``min`` over m slices of the doubled tokens.
    """
    n = 2 * m
    classes = set()
    for d in range(m + 1):
        gaps = [1] * n  # two more -2s, in gaps n-1-d and n-1
        gaps[n - 1 - d] += 1
        gaps[n - 1] += 1
        minus = [_MINUS_TOKEN[g] for g in gaps]
        plus = [_PLUS_TOKEN[g] for g in gaps]
        for negs in combinations(range(n), m):
            word = plus[:]
            for i in negs:
                word[i] = minus[i]
            tokens = "".join(word) * 2
            classes.add(min([tokens[i + 1:i + 1 + n] for i in negs]))
    names = [str(j) for j in range(4 * m + 3)]
    out = []
    for tokens in sorted(classes):
        at, p, neg = 1, [], ["1"]  # the first slot is a -(4m+2) at 1
        for t in tokens[:-1]:
            at += _STEP[t]
            if t < "d":
                neg.append(names[at])
            else:
                p.append(names[at])
        out.append(f"tau:m={m},P={';'.join(p)},N={';'.join(neg)}")
    return out


def tau_enumerate(m: int, canonical: bool = False) -> Placements:
    """All valid placements, sorted by unit; with ``canonical``, one
    representative per rotation class, the least rotation of its unit.

    Plain placements join precomputed half units (``_plain_descriptors``),
    so after O(halves) set-up each costs one string join; ``canonical``
    builds each rotation class from its gap pattern and sign word
    (``_canonical_descriptors``), with no search.  Each placement is
    written as its descriptor once; ``TauConfig`` objects are built only
    when items of the returned ``Placements`` are read.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_enumeration_size(m, canonical)
    return Placements(_canonical_descriptors(m) if canonical
                      else _plain_descriptors(m))


# --- the omega sequence ---------------------------------------------------------

def omega_value(j: int) -> int:
    """Value of the arithmetic-placement sequence at position j."""
    if j >= 3 and j % 2 == 1:
        return 2 * j
    if j <= -2 and j % 2 == 0:
        return 2 * j - 2
    return -2


def omega_slice(a: int, b: int) -> list[int]:
    check_window_len(b - a + 1, "omega slice")
    return [omega_value(j) for j in range(a, b + 1)]


def omega_window(half_extent: int) -> SeqWindow:
    if half_extent < 2:
        raise ValueError("half_extent must be >= 2")
    lo = -2 * half_extent
    hi = 2 * half_extent + 2
    return SeqWindow(lo, omega_slice(lo, hi))


# --- composite seeded rows -------------------------------------------------------

def composite_row(c: TauConfig, mid: Sequence[int], seed: int,
                  steps: int) -> SeqWindow:
    """A left-infinite tail of c's unit, a finite middle segment and a
    positive seed at index 0, then ``steps`` values generated forward."""
    if seed < 1:
        raise ValueError("seed must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    mid = list(mid)
    w = concat(breve(c.unit(), beta=-len(mid) - 1), mid + [seed])
    return extend_right_by_O(w, steps)


# --- growth approximation ---------------------------------------------------------

@dataclass(frozen=True)
class ApproxModel:
    m: int
    xi: Fraction
    phi_m: float
    base_n: int
    u_n: int
    u_n1: int


def build_approx_model(m: int, base_n: int, u_n: int, u_n1: int) -> ApproxModel:
    """Two-point growth model through consecutive exact values u_n, u_{n+1};
    ``phi_m`` is a float for display only."""
    if m < 1:
        raise ValueError("m must be >= 1")
    xi = Fraction(2) - Fraction(1, 2 * m + 1)
    phi = (float(xi) + math.sqrt((float(xi) - 2) ** 2 + 4)) / 2
    return ApproxModel(m, xi, phi, base_n, u_n, u_n1)


def _predictions(a: ApproxModel) -> abc.Iterator[Fraction]:
    """P(r) for r = 0, 1, ...: the sum of multiples of phi^r and psi^r, the
    roots of x^2 = xi*x + (2 - xi), through P(0) = u_n and P(1) = u_{n+1}.
    It obeys P(r+2) = xi*P(r+1) + (2 - xi)*P(r), so each value is exact."""
    p, q = Fraction(a.u_n), Fraction(a.u_n1)
    while True:
        yield p
        p, q = q, a.xi * q + (2 - a.xi) * p


def approx_predict(a: ApproxModel, r: int) -> Fraction:
    if r < 0:
        raise ValueError("r must be >= 0")
    return next(islice(_predictions(a), r, None))


@dataclass(frozen=True)
class ApproxReportRow:
    r: int
    predicted: Fraction
    exact: int
    rel_error: float


@dataclass(frozen=True)
class ApproxReport:
    model: ApproxModel
    rows: tuple[ApproxReportRow, ...]
    empirical_ratio: float

    @property
    def ratio_rel_error(self) -> float:
        return abs(self.empirical_ratio - self.model.phi_m) / self.model.phi_m


def approx_report(w: SeqWindow, m: int, base_n: int, r_max: int) -> ApproxReport:
    """Compare two-point predictions against exact values of a window."""
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    exact = w.slice(base_n, base_n + max(r_max, 1))
    if exact[0] == 0:
        raise DegenerateBase(
            f"value at base index {base_n} is 0: the row has no growth to fit")
    model = build_approx_model(m, base_n, *exact[:2])
    rows = tuple(ApproxReportRow(r, p, u, float(abs(p - u) / max(1, abs(u))))
                 for r, p, u in zip(range(r_max + 1), _predictions(model),
                                    exact))
    return ApproxReport(model, rows, model.u_n1 / model.u_n)


# --- the shift-eigen periodic family ------------------------------------------------

@dataclass(frozen=True)
class OPowerConfig:
    """Period-r placement over {+, -, 0}; every nonzero value has magnitude
    r+1 and one period sums to -(r+1)."""

    r: int
    placement: tuple[str, ...]

    def __init__(self, r: int, placement: Sequence[str]):
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "placement", tuple(placement))
        if self.r < 1:
            raise InvalidConfig("r must be >= 1")
        if len(self.placement) != self.r:
            raise InvalidConfig(f"placement must have length {self.r}")
        if any(tok not in ("+", "-", "0") for tok in self.placement):
            raise InvalidConfig("placement tokens must be '+', '-' or '0'")
        if sum(self.unit()) != -(self.r + 1):
            raise InvalidConfig(
                f"one period must sum to {-(self.r + 1)}, got "
                f"{sum(self.unit())}")

    def unit(self) -> tuple[int, ...]:
        amp = self.r + 1
        return tuple(amp if t == "+" else -amp if t == "-" else 0
                     for t in self.placement)

    def descriptor(self) -> str:
        return f"opower:r={self.r},unit={','.join(self.placement)}"


o_power_window = tau_window


def canonical_o_power_config(m: int) -> OPowerConfig:
    """m values of 2m+2 and m+1 values of -(2m+2) over period 2m+1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return OPowerConfig(2 * m + 1, ("+",) * m + ("-",) * (m + 1))


# --- family descriptors --------------------------------------------------------------

def parse_range(text: str) -> tuple[int, int]:
    """Inclusive index range written ``a..b``."""
    a, sep, b = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like 'a..b', got {brief(text)}")
    lo, hi = int(a), int(b)
    if lo > hi:
        raise ValueError(f"range start {brief(lo)} exceeds end {brief(hi)}")
    return lo, hi


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(";")]


def _body(kind: str, text: str) -> str:
    """The body of a value that must be a ``kind:...`` descriptor."""
    head, _, body = text.partition(":")
    if head != kind:
        raise ValueError(f"expected {kind}:..., got {brief(text)}")
    return body


#: each kind's keys, with the conversion of each value
_KEYS = {
    "pi": {"m": int},
    "pistar": {"m": int},
    "tau": {"m": int, "P": _ints, "N": _ints},
    "omega": {"extent": int},
    "opower": {"r": int, "unit": lambda t: t.split(",")},
    "composite": {
        "left": lambda t: parse_family("tau:" + _body("tau", t)).config,
        "mid": lambda t: parse_range(_body("omega", t)),
        "seed": int, "steps": int},
}
#: keys that may be left out; a composite runs ``steps`` to the range end
_OPTIONAL = {"mid", "steps"}


@dataclass(frozen=True)
class Family:
    """A parsed family descriptor: its kind, each key's converted value, and
    the config of a tau or opower family."""

    kind: str
    values: dict = field(hash=False)
    config: TauConfig | OPowerConfig | None = None

    @property
    def growth_m(self) -> Optional[int]:
        """The left-tail parameter governing growth, for approximation
        reports; None for a family without a periodic left tail."""
        tau = self.config if self.kind == "tau" else self.values.get("left")
        return tau and tau.m

    def window(self, lo: int, hi: int) -> SeqWindow:
        """A window covering [lo, hi] where the family allows."""
        v = self.values
        if self.config is not None:
            return tau_window(self.config, periods=3)
        if self.kind == "pi":
            return pi_window(v["m"], max(hi + 2, 1))
        if self.kind == "pistar":
            return pi_star_window(v["m"], max(hi + 2, 5), reach=lo)
        if self.kind == "omega":
            return omega_window(max(v["extent"], -(lo // 2), (hi - 1) // 2, 2))
        mid = omega_slice(*v["mid"]) if "mid" in v else []
        return composite_row(v["left"], mid, v["seed"],
                             max(v.get("steps", hi), 1))


def parse_family(text: str) -> Family:
    """Parse a descriptor ``kind:key=value,...`` against the kind's keys.

    A comma fragment without '=' continues the value before it
    (``unit=+,-,-``), and so does a key this kind does not take when that
    value is itself a descriptor (``left=tau:m=1,P=5,N=1``).  A missing,
    unknown or repeated key, or a value that does not convert, raises
    ValueError naming the kind's keys.
    """
    kind, _, body = text.partition(":")
    if kind not in _KEYS:
        raise ValueError(f"unknown family descriptor {brief(text)}; kinds "
                         f"are {', '.join(_KEYS)}")
    keys, raw, last = _KEYS[kind], {}, None
    try:
        for part in map(str.strip, body.split(",") if body else []):
            key, eq, val = part.partition("=")
            if eq and key in keys and key not in raw:
                raw[key], last = val, key
            elif last and (not eq or "=" in raw[last]):
                raw[last] += "," + part
            else:
                raise ValueError(f"{'repeated' if key in raw else 'unknown'}"
                                 f" key {brief(key)}")
        missing = [k for k in keys if k not in raw and k not in _OPTIONAL]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        v = {key: keys[key](val) for key, val in raw.items()}
    except ValueError as exc:
        accepted = ", ".join(k + " (optional)" * (k in _OPTIONAL)
                             for k in keys)
        raise ValueError(f"bad descriptor {brief(text)}: {clip(str(exc))}; "
                         f"{kind} takes {accepted}") from None
    config = (TauConfig(v["m"], v["P"], v["N"]) if kind == "tau" else
              OPowerConfig(v["r"], v["unit"]) if kind == "opower" else None)
    return Family(kind, v, config)


def build_family(descriptor: str, lo: int, hi: int) -> SeqWindow:
    """Construct a family window covering [lo, hi] where the family allows."""
    return parse_family(descriptor).window(lo, hi)
