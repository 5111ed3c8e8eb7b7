"""Constructors, closed forms, identities and enumeration for every
sequence family: the seeded rows (pi), their sparse-left variant (pi*),
the fully periodic placements (tau), the arithmetic placement sequence
(omega), composite seeded rows, the shift-eigen periodic family, and the
two-point growth approximation model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import DegenerateBase, IdentityViolation, InvalidConfig, TooLarge
from .exactmath import closed_form_affine, fib, lucas
from .seqcore import (
    Periodic,
    SeqWindow,
    breve,
    concat,
    constant,
    difference,
    extend_right_by_O,
)


# --- the pi family ------------------------------------------------------------

def pi_window(m: int, n_max: int) -> SeqWindow:
    """Constant -2 left tail, seed m at index 0, generated forward.

    Construction is cross-checked against the running-sum identity
    (value at n+1 equals S_n + 2n + 2) and against the affine two-term
    recurrence; a failure raises IdentityViolation.
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
    for p in range(2, n_max + 1):
        if u[p] != u[p - 1] + u[p - 2] + 2:
            raise IdentityViolation(
                f"two-term affine recurrence failed at m={m}, p={p}")
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
        return closed_form_affine(m, 2, 2, n)
    raise ValueError(f"unknown method {method!r}")


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

def _pi_star_right(m: int, n_max: int) -> list[int]:
    """Right-side values at indices 0..n_max (doubling at even indices,
    +4 at odd indices after the first four values)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    right = [m, 2, m + 4, m + 8]
    for idx in range(4, n_max + 1):
        if idx % 2 == 0:
            right.append(2 * right[idx - 1] - 2)
        else:
            right.append(right[idx - 1] + 4)
    return right


def pi_star_window(m: int, n_max: int) -> SeqWindow:
    """Sparse-left variant: doubling growth on the right, with each odd-index
    value v at position j mirrored as -v at position -(v - j); -2 elsewhere
    on the materialized left side."""
    right = _pi_star_right(m, n_max)
    placements = {}
    for j in range(3, n_max + 1, 2):
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
        object.__setattr__(self, "pos", frozenset(int(v) for v in pos))
        object.__setattr__(self, "neg", frozenset(int(v) for v in neg))
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
        q = self.pos | self.neg
        if not all(1 <= v <= period for v in q):
            raise InvalidConfig(f"placements must lie in [1, {period}]")
        for qi in q:
            for qj in q:
                if (qi - qj) % period == 1:
                    raise InvalidConfig(
                        f"placements {qj} and {qi} are cyclically adjacent")

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


def tau_window(c: TauConfig, periods: int = 1) -> SeqWindow:
    if periods < 1:
        raise ValueError("periods must be >= 1")
    unit = c.unit()
    if sum(unit) != -4 * c.m - 4:
        raise InvalidConfig("period sum is off")  # unreachable by construction
    return SeqWindow(1, unit * periods,
                     left=Periodic(unit), right=Periodic(unit))


def _min_rotation(unit: tuple[int, ...]) -> tuple[int, ...]:
    p = len(unit)
    return min(tuple(unit[(j + t) % p] for j in range(p)) for t in range(p))


def tau_enumerate(m: int, canonical: bool = False) -> list[TauConfig]:
    """All valid placements; with ``canonical``, one representative per
    rotation class (the lexicographically least rotation of the unit)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    period = 4 * m + 2
    if period > 30:
        raise TooLarge(f"period {period} exceeds the enumeration guard (30)")
    configs = []
    slots = range(1, period + 1)
    for q in combinations(slots, 2 * m):
        qset = set(q)
        if any((a - b) % period == 1 for a in qset for b in qset):
            continue
        for p in combinations(q, m):
            configs.append(TauConfig(m, p, qset - set(p)))
    configs.sort(key=lambda c: c.unit())
    if not canonical:
        return configs
    by_class: dict[tuple[int, ...], TauConfig] = {}
    for c in configs:
        key = _min_rotation(c.unit())
        if key not in by_class:
            amp = period
            by_class[key] = TauConfig(
                m,
                pos={j + 1 for j, v in enumerate(key) if v == amp},
                neg={j + 1 for j, v in enumerate(key) if v == -amp},
            )
    return sorted(by_class.values(), key=lambda c: c.unit())


# --- the omega sequence ---------------------------------------------------------

def omega_value(j: int) -> int:
    """Value of the arithmetic-placement sequence at position j."""
    if j >= 3 and j % 2 == 1:
        return 2 * j
    if j <= -2 and j % 2 == 0:
        return 2 * j - 2
    return -2


def omega_slice(a: int, b: int) -> list[int]:
    return [omega_value(j) for j in range(a, b + 1)]


def omega_window(half_extent: int) -> SeqWindow:
    if half_extent < 2:
        raise ValueError("half_extent must be >= 2")
    lo = -2 * half_extent
    hi = 2 * half_extent + 2
    return SeqWindow(lo, omega_slice(lo, hi))


# --- composite seeded rows -------------------------------------------------------

def composite_seed(left: SeqWindow, mid: Sequence[int], seed: int,
                   steps: int) -> SeqWindow:
    """Concatenate a left-infinite periodic tail, a finite middle segment
    and a positive seed, then generate ``steps`` values forward."""
    if seed < 1:
        raise ValueError("seed must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    w = concat(left, list(mid))
    w = concat(w, [seed])
    return extend_right_by_O(w, steps)


def composite_row(c: TauConfig, mid: Sequence[int], seed: int,
                  steps: int) -> SeqWindow:
    """Composite anchored so the seed sits at index 0."""
    mid = list(mid)
    left = breve(c.unit(), beta=-len(mid) - 1)
    return composite_seed(left, mid, seed, steps)


# --- growth approximation ---------------------------------------------------------

@dataclass(frozen=True)
class ApproxModel:
    m: int
    xi: Fraction
    phi_m: float
    kappa_plus: float
    kappa_minus: float
    base_n: int
    u_n: int
    u_n1: int


def build_approx_model(m: int, base_n: int, u_n: int, u_n1: int) -> ApproxModel:
    """Two-point growth model from consecutive exact values u_n, u_{n+1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    xi = Fraction(2) - Fraction(1, 2 * m + 1)
    xif = float(xi)
    disc = math.sqrt((xif - 2) ** 2 + 4)
    phi = (xif + disc) / 2
    kappa_plus = (u_n1 - (xif - phi) * u_n) / disc
    kappa_minus = (phi * u_n - u_n1) / disc
    model = ApproxModel(m, xi, phi, kappa_plus, kappa_minus, base_n, u_n, u_n1)
    for r, exact in ((0, u_n), (1, u_n1)):
        pred = approx_predict(model, r)
        if abs(pred - exact) > 1e-9 * max(1.0, abs(float(exact))):
            raise DegenerateBase(
                f"two-point system inconsistent at r={r}: {pred} vs {exact}")
    return model


def approx_predict(a: ApproxModel, r: int) -> float:
    if r < 0:
        raise ValueError("r must be >= 0")
    return (a.kappa_plus * a.phi_m ** r
            + a.kappa_minus * (float(a.xi) - a.phi_m) ** r)


@dataclass(frozen=True)
class ApproxReportRow:
    r: int
    predicted: float
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
    u_n, u_n1 = w.value_at(base_n), w.value_at(base_n + 1)
    if u_n == 0:
        raise DegenerateBase(
            f"value at base index {base_n} is 0: the row has no growth to fit")
    model = build_approx_model(m, base_n, u_n, u_n1)
    rows = []
    for r in range(r_max + 1):
        exact = w.value_at(base_n + r)
        pred = approx_predict(model, r)
        rel = abs(pred - exact) / max(1.0, abs(float(exact)))
        rows.append(ApproxReportRow(r, pred, exact, rel))
    ratio = u_n1 / u_n
    return ApproxReport(model, tuple(rows), ratio)


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


def o_power_window(c: OPowerConfig, periods: int = 1) -> SeqWindow:
    if periods < 1:
        raise ValueError("periods must be >= 1")
    unit = c.unit()
    return SeqWindow(1, unit * periods,
                     left=Periodic(unit), right=Periodic(unit))


def canonical_o_power_config(m: int) -> OPowerConfig:
    """m values of 2m+2 and m+1 values of -(2m+2) over period 2m+1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return OPowerConfig(2 * m + 1, ("+",) * m + ("-",) * (m + 1))


# --- family descriptors --------------------------------------------------------------

def _split_params(body: str) -> dict[str, str]:
    """Parse ``key=value`` pairs; comma tokens without '=' extend the last
    value (needed for comma-separated unit lists)."""
    params: dict[str, str] = {}
    last: Optional[str] = None
    for part in body.split(","):
        if "=" in part:
            key, _, val = part.partition("=")
            params[key.strip()] = val.strip()
            last = key.strip()
        elif last is not None:
            params[last] += "," + part.strip()
        else:
            raise ValueError(f"cannot parse parameter fragment {part!r}")
    return params


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive index range written ``a..b``."""
    a, sep, b = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like 'a..b', got {text!r}")
    lo, hi = int(a), int(b)
    if lo > hi:
        raise ValueError(f"range start {lo} exceeds end {hi}")
    return lo, hi


def parse_tau_descriptor(text: str) -> TauConfig:
    kind, _, body = text.partition(":")
    if kind != "tau":
        raise ValueError(f"expected a tau descriptor, got {text!r}")
    params = _split_params(body)
    return TauConfig(
        int(params["m"]),
        (int(v) for v in params["P"].split(";")),
        (int(v) for v in params["N"].split(";")),
    )


def _split_composite(body: str) -> dict[str, str]:
    # the left descriptor itself contains commas; split only before keys
    import re
    parts = re.split(r",(?=(?:left|mid|seed|steps)=)", body)
    out = {}
    for part in parts:
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"cannot parse composite fragment {part!r}")
        out[key] = val
    return out


def build_family(descriptor: str, lo: int, hi: int) -> SeqWindow:
    """Construct a family window covering [lo, hi] where the family allows."""
    kind, _, body = descriptor.partition(":")
    if kind == "pi":
        params = _split_params(body)
        return pi_window(int(params["m"]), max(hi + 2, 1))
    if kind == "pistar":
        params = _split_params(body)
        m = int(params["m"])
        n_max = max(hi + 2, 5)
        w = pi_star_window(m, n_max)
        while w.lo > lo and n_max < 400:
            n_max += 2
            w = pi_star_window(m, n_max)
        return w
    if kind == "tau":
        return tau_window(parse_tau_descriptor(descriptor), periods=3)
    if kind == "omega":
        params = _split_params(body)
        extent = int(params["extent"])
        needed = max(-(lo // 2), (hi - 1) // 2, 2)
        return omega_window(max(extent, needed))
    if kind == "opower":
        params = _split_params(body)
        c = OPowerConfig(int(params["r"]), params["unit"].split(","))
        return o_power_window(c, periods=3)
    if kind == "composite":
        parts = _split_composite(body)
        tau = parse_tau_descriptor(parts["left"])
        mid: list[int] = []
        if "mid" in parts:
            mk, _, mbody = parts["mid"].partition(":")
            if mk != "omega":
                raise ValueError("composite mid must be an omega slice")
            a, b = parse_range(mbody)
            mid = omega_slice(a, b)
        seed = int(parts["seed"])
        steps = int(parts.get("steps", max(hi, 1)))
        return composite_row(tau, mid, seed, max(steps, 1))
    raise ValueError(f"unknown family descriptor {descriptor!r}")


def descriptor_growth_m(descriptor: str) -> int:
    """The left-tail parameter governing growth, for approximation reports."""
    kind, _, body = descriptor.partition(":")
    if kind == "tau":
        return parse_tau_descriptor(descriptor).m
    if kind == "composite":
        return parse_tau_descriptor(_split_composite(body)["left"]).m
    raise ValueError(
        f"family {descriptor!r} has no periodic left tail to approximate")
