"""Self-tests of the benchmark's oracles against the README's headline
tables and the known placement counts.

    python3 -m pytest -q perfbench/test_oracles.py

These import nothing from ultraseq: they pin the oracles the benchmark
checks the package against.
"""
import itertools
import random

import oracle
import workloads

# the headline tables, as the acceptance tests pin them
PI_MATRIX = [
    [1, 2, 5, 9, 16, 27, 45, 74],
    [2, 2, 6, 10, 18, 30, 50, 82],
    [3, 2, 7, 11, 20, 33, 55, 90],
    [4, 2, 8, 12, 22, 36, 60, 98],
    [5, 2, 9, 13, 24, 39, 65, 106],
    [6, 2, 10, 14, 26, 42, 70, 114],
    [7, 2, 11, 15, 28, 45, 75, 122],
    [8, 2, 12, 16, 30, 48, 80, 130],
]
SEED_COLUMN = [321, 398, 731, 820, 793, 798]
LONG_ROW_M2 = [1, 2, 5, 21, 48, 83, 169, 302, 589, 1121, 2128, 4075, 7753]
LONG_ROW_M3 = [1, 2, 5, 25, 60, 103, 201, 402, 749, 1477, 2852, 5495, 10641]
Q_FIRST_17 = [1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 6, 8, 8, 8, 10, 9, 10]
CONWAY_FIRST_17 = [1, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8, 8, 9]
#: (configurations, rotation classes) for m = 1..4
TAU_COUNTS = {1: (18, 3), 2: (150, 16), 3: (980, 70), 4: (5670, 318)}


def test_pi_rows_match_the_matrix_and_the_recurrence():
    for m, row in enumerate(PI_MATRIX, start=1):
        assert oracle.pi_values(m, 0, 7) == row
        values = oracle.pi_values(m, -3, 300)
        assert values[:3] == [-2, -2, -2]
        u = values[3:]
        assert all(u[n] == u[n - 1] + u[n - 2] + 2 for n in range(2, 301))


def test_composite_rows_match_the_tables():
    r2 = oracle.composite_seq(2, {6, 9}, {1, 3}, (-4, 6), 1, 12)
    assert [r2.value(k) for k in range(13)] == LONG_ROW_M2
    r3 = oracle.composite_seq(3, {8, 11, 13}, {1, 3, 6}, (-6, 8), 1, 12)
    assert [r3.value(k) for k in range(13)] == LONG_ROW_M3
    column = [oracle.composite_seq(1, {5}, {1}, None, seed, 8).value(8)
              for seed in range(1, 7)]
    assert column == SEED_COLUMN


def test_generated_rows_verify_and_tau_windows_are_fixed_points():
    row = oracle.composite_seq(2, {6, 9}, {1, 3}, (-4, 6), 1, 200)
    report = oracle.verify(row, row.lo - 20, row.hi)
    assert report["violations"] == [] and report["uncheckable"] == 1
    for m in (1, 2, 3):
        for pos, neg in sorted(oracle.tau_configs(m))[:20]:
            seq = oracle.tau_seq(m, set(pos), set(neg), 2)
            fixed = oracle.o_map_periodic(seq, 4 * m + 2)
            assert [fixed.value(k) for k in range(-30, 30)] == \
                [seq.value(k) for k in range(-30, 30)]


def test_o_acts_as_the_shift_on_opower_windows():
    for r, placement in ((3, "+--"), (5, "+0-0-"), (7, "++-0-0-")):
        seq = oracle.opower_seq(tuple(placement), 1)
        image = seq
        for step in range(1, r + 1):
            image = oracle.o_map_periodic(image, r)
            shifted = [seq.value(k - step) for k in range(-20, 20)]
            assert [image.value(k) for k in range(-20, 20)] == shifted


def test_injected_violation_is_found_at_or_before_the_change():
    rng = random.Random(7)
    for _ in range(20):
        seq = oracle.tau_seq(2, {6, 9}, {1, 3}, 4)
        bad = workloads.inject(seq, *workloads.pick_injection(rng, seq))
        changed = next(k for k in range(seq.lo, seq.hi + 1)
                       if seq.value(k) != bad.value(k))
        report = oracle.verify(bad, bad.lo - 10, bad.hi + 10)
        assert report["violations"] and report["violations"][0] <= changed - 1
        assert changed - 1 in report["violations"]


def test_classical_recursions():
    assert oracle.hofstadter_q(17) == Q_FIRST_17
    assert oracle.conway(17) == CONWAY_FIRST_17


def test_tau_counts_closed_form_burnside_and_brute_force():
    for m, (configs, classes) in TAU_COUNTS.items():
        assert oracle.tau_count(m) == configs
        assert oracle.tau_canonical_count(m) == classes
        assert len(oracle.tau_supports(m)) == (2 * m + 1) ** 2
    for m in (1, 2, 3):
        period = 4 * m + 2
        brute = set()
        for q in itertools.combinations(range(1, period + 1), 2 * m):
            if any((a - b) % period == 1 for a in q for b in q):
                continue
            for p in itertools.combinations(q, m):
                brute.add((p, tuple(v for v in q if v not in p)))
        assert brute == oracle.tau_configs(m)
        assert all(oracle.placement_valid(m, p, n) for p, n in brute)
        keys = {oracle.rotation_key(m, p, n) for p, n in brute}
        assert len(keys) == oracle.tau_canonical_count(m)


def test_cyclic_sums_cross_the_origin():
    unit = [3, -1, 4, -1, 5]
    seq = oracle.Seq(0, [7], left=unit, right=unit)
    for a in range(-23, 3):
        for b in range(a, 12):
            assert seq.range_sum(a, b) == sum(seq.value(k)
                                              for k in range(a, b + 1))


def test_ladder_sizes_span_the_ladder_geometrically():
    sizes = workloads.sizes(random.Random(3), (16, 100, 1600))
    assert sizes[0] == 100 and sizes[-1] == 1600
    assert all(1.18 < b / a < 1.23 for a, b in zip(sizes, sizes[1:]))
