"""Independent reference implementations that every benchmark op is checked
against.  Nothing here imports ultraseq: the values come from closed forms,
plain prefix-sum generators and direct counting formulas.

Sequences follow the document convention of the program's JSON format: a
materialized block starting at ``lo``, an optional left unit with
``value(k) = left[(k - lo) % P]`` for ``k < lo``, and an optional right unit
with ``value(k) = right[(k - hi - 1) % P]`` for ``k > hi``.
"""
from __future__ import annotations

import math
from itertools import combinations


class Undefined(Exception):
    """A position outside the sequence's defined domain was read."""


# --- Fibonacci and the pi rows ----------------------------------------------

def fib_table(n: int) -> list[int]:
    """F(0..n) by the plain recurrence."""
    f = [0, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-2])
    return f[:max(n + 1, 1)]


def pi_values(m: int, lo: int, hi: int) -> list[int]:
    """Row m at indices lo..hi: -2 left of 0, m*F(n-1) + 2*F(n+2) - 2 from 0."""
    f = fib_table(max(hi + 2, 2))
    out = []
    for n in range(lo, hi + 1):
        if n < 0:
            out.append(-2)
        elif n == 0:
            out.append(m)  # m*F(-1) + 2*F(2) - 2 with F(-1) = 1
        else:
            out.append(m * f[n - 1] + 2 * f[n + 2] - 2)
    return out


# --- sequences with periodic tails --------------------------------------------

def _cyclic_sum(unit: list[int], prefix: list[int], t0: int, t1: int) -> int:
    """Sum of unit[t % P] for t in t0..t1."""
    if t0 > t1:
        return 0
    p = len(unit)

    def upto(t):  # sum over 0..t-1, any integer t >= 0
        q, r = divmod(t, p)
        return q * prefix[p] + prefix[r]

    shift = (-t0 // p + 1) * p if t0 < 0 else 0
    return upto(t1 + shift + 1) - upto(t0 + shift)


class Seq:
    """A finite block with optional periodic tails and O(1) range sums."""

    def __init__(self, lo: int, values, left=None, right=None):
        self.lo = lo
        self.values = [int(v) for v in values]
        self.hi = lo + len(self.values) - 1
        self.left = list(left) if left is not None else None
        self.right = list(right) if right is not None else None
        self._prefix = [0]
        for v in self.values:
            self._prefix.append(self._prefix[-1] + v)
        self._lp = _unit_prefix(self.left)
        self._rp = _unit_prefix(self.right)

    def defined(self, k: int) -> bool:
        if k < self.lo:
            return self.left is not None
        if k > self.hi:
            return self.right is not None
        return True

    def value(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self.values[k - self.lo]
        if not self.defined(k):
            raise Undefined(k)
        if k < self.lo:
            return self.left[(k - self.lo) % len(self.left)]
        return self.right[(k - self.hi - 1) % len(self.right)]

    def range_sum(self, a: int, b: int) -> int:
        if a > b:
            return 0
        if not (self.defined(a) and self.defined(b)):
            raise Undefined(a if not self.defined(a) else b)
        total = 0
        if a < self.lo:
            total += _cyclic_sum(self.left, self._lp, a - self.lo,
                                 min(b, self.lo - 1) - self.lo)
        ma, mb = max(a, self.lo), min(b, self.hi)
        if ma <= mb:
            total += self._prefix[mb - self.lo + 1] - self._prefix[ma - self.lo]
        if b > self.hi:
            total += _cyclic_sum(self.right, self._rp,
                                 max(a, self.hi + 1) - self.hi - 1,
                                 b - self.hi - 1)
        return total

    def o_value(self, p: int) -> int:
        """The self-generation map at p: |u| plus the |u| values the head
        u = value(p) reads, backward when positive and forward otherwise."""
        u = self.value(p)
        if u >= 0:
            return u + self.range_sum(p - u + 1, p)
        return -u + self.range_sum(p, p - u - 1)

    def document(self) -> dict:
        def rule(unit):
            if unit is None:
                return {"kind": "undefined"}
            return {"kind": "periodic", "unit": [str(v) for v in unit]}
        return {"lo": self.lo, "values": [str(v) for v in self.values],
                "left": rule(self.left), "right": rule(self.right)}


def _unit_prefix(unit):
    if unit is None:
        return None
    out = [0]
    for v in unit:
        out.append(out[-1] + v)
    return out


def verify(seq: Seq, a: int, b: int) -> dict:
    """Check u[p+1] = O(u)[p+1] at every p in a..b."""
    ok = uncheckable = 0
    violations = []
    for p in range(a, b + 1):
        try:
            actual = seq.value(p + 1)
            expected = seq.o_value(p)
        except Undefined:
            uncheckable += 1
            continue
        if actual == expected:
            ok += 1
        else:
            violations.append(p)
    return {"ok": ok, "violations": violations, "uncheckable": uncheckable}


def o_map_value(seq: Seq, q: int):
    """O(u) at position q, or None where a reference is undefined."""
    try:
        return seq.o_value(q - 1)
    except Undefined:
        return None


def o_map_periodic(seq: Seq, period: int) -> Seq:
    """O applied to a sequence periodic on both sides with the given period."""
    unit = [seq.o_value(q - 1) for q in range(seq.lo, seq.lo + period)]
    return Seq(seq.lo, unit, left=unit, right=unit)


# --- families -----------------------------------------------------------------

def tau_unit(m: int, pos, neg) -> list[int]:
    period = 4 * m + 2
    return [period if j in pos else -period if j in neg else -2
            for j in range(1, period + 1)]


def tau_seq(m: int, pos, neg, periods: int) -> Seq:
    unit = tau_unit(m, pos, neg)
    return Seq(1, unit * periods, left=unit, right=unit)


def opower_unit(placement) -> list[int]:
    amp = len(placement) + 1
    return [amp if t == "+" else -amp if t == "-" else 0 for t in placement]


def opower_seq(placement, periods: int) -> Seq:
    unit = opower_unit(placement)
    return Seq(1, unit * periods, left=unit, right=unit)


def omega_value(j: int) -> int:
    if j >= 3 and j % 2 == 1:
        return 2 * j
    if j <= -2 and j % 2 == 0:
        return 2 * j - 2
    return -2


def generate_forward(lo: int, values: list[int], left, steps: int) -> Seq:
    """Append ``steps`` values by the rule with a running prefix sum; only
    heads >= 1, 0 and -1 determine their successor."""
    unit = list(left)
    period = len(unit)
    unit_sum = sum(unit)
    vals = list(values)
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + v)

    def tail_sum(a: int) -> int:  # sum of the left tail over a..lo-1
        n = lo - a
        full, rem = divmod(n, period)
        return full * unit_sum + sum(unit[(-1 - j) % period]
                                     for j in range(rem))

    for _ in range(steps):
        hi = lo + len(vals) - 1
        head = vals[-1]
        if head >= 1:
            a = hi - head + 1
            if a >= lo:
                s = prefix[-1] - prefix[a - lo]
            else:
                s = prefix[-1] + tail_sum(a)
            nxt = head + s
        elif head in (0, -1):
            nxt = 0
        else:
            raise ValueError(f"head {head} at {hi} does not determine its "
                             "successor")
        vals.append(nxt)
        prefix.append(prefix[-1] + nxt)
    return Seq(lo, vals, left=unit)


def composite_seq(m: int, pos, neg, mid_range, seed: int, steps: int) -> Seq:
    """Left tau tail phased to end at -len(mid)-1, an omega middle, the seed
    at index 0, then ``steps`` generated values."""
    unit = tau_unit(m, pos, neg)
    mid = ([omega_value(j) for j in range(mid_range[0], mid_range[1] + 1)]
           if mid_range else [])
    beta = -len(mid) - 1
    left = [unit[(j - 1) % len(unit)] for j in range(len(unit))]
    return generate_forward(beta, [unit[-1]] + mid + [seed], left, steps)


def difference_value(seq: Seq, k: int, n: int) -> int:
    return sum((-1) ** (k - j) * math.comb(k, j) * seq.value(n + j)
               for j in range(k + 1))


# --- classical recursions -----------------------------------------------------

def hofstadter_q(count: int) -> list[int]:
    q = [0, 1, 1]
    for n in range(3, count + 1):
        q.append(q[n - q[n - 1]] + q[n - q[n - 2]])
    return q[1:count + 1]


def conway(count: int) -> list[int]:
    c = [0, 1, 1]
    for n in range(3, count + 1):
        c.append(c[c[n - 1]] + c[n - c[n - 1]])
    return c[1:count + 1]


# --- placement enumeration ----------------------------------------------------

def cyclic_independent_sets(g: int, j: int) -> int:
    """j-subsets of a g-cycle with no two cyclically consecutive members."""
    if j == 0:
        return 1
    if 2 * j > g:
        return 0
    return g * math.comb(g - j, j) // (g - j)


def tau_count(m: int) -> int:
    """(2m+1)^2 supports times C(2m, m) ways to sign them."""
    return (2 * m + 1) ** 2 * math.comb(2 * m, m)


def tau_canonical_count(m: int) -> int:
    """Rotation classes by Burnside's lemma: a rotation of order n/g fixes a
    placement exactly when the placement repeats every g positions."""
    n = 4 * m + 2
    total = 0
    for g in range(1, n + 1):
        if n % g or m % (n // g):
            continue
        k = m * g // n
        fixed = cyclic_independent_sets(g, 2 * k) * math.comb(2 * k, k)
        total += _totient(n // g) * fixed
    return total // n


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def tau_supports(m: int) -> list[tuple[int, ...]]:
    """Every 2m-subset of the period with no two cyclically adjacent slots,
    by filtering all subsets (the brute force the counts are checked by)."""
    n = 4 * m + 2
    out = []
    for q in combinations(range(1, n + 1), 2 * m):
        if all((q[i + 1] - q[i]) >= 2 for i in range(len(q) - 1)) and \
                (q[0] + n - q[-1]) >= 2:
            out.append(q)
    return out


def tau_configs(m: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (positive, negative) placement pair, as sorted tuples."""
    out = set()
    for q in tau_supports(m):
        for p in combinations(q, m):
            out.add((p, tuple(v for v in q if v not in p)))
    return out


def rotation_key(m: int, pos, neg) -> tuple[int, ...]:
    unit = tau_unit(m, set(pos), set(neg))
    return min(tuple(unit[t:] + unit[:t]) for t in range(len(unit)))


def placement_valid(m: int, pos, neg) -> bool:
    n = 4 * m + 2
    q = set(pos) | set(neg)
    return (len(pos) == m and len(neg) == m and len(q) == 2 * m
            and all(1 <= v <= n for v in q)
            and not any((a - b) % n == 1 for a in q for b in q))


def bit_total(values) -> int:
    """Bits of the integers, the unit of work the benchmark reports."""
    return sum(abs(v).bit_length() for v in values)
