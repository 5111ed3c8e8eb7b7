"""Classical strange recursions used as cross-checks."""
import pytest
from hypothesis import given, strategies as st

from ultraseq.errors import IndexUnderflow
from ultraseq.reference import (
    conway,
    conway_table,
    hofstadter_q,
    hofstadter_q_table,
)

Q_FIRST_17 = [1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 6, 8, 8, 8, 10, 9, 10]
CONWAY_FIRST_17 = [1, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8, 8, 9]


class TestHofstadterQ:
    def test_first_seventeen(self):
        table = hofstadter_q_table(17)
        assert [table[n] for n in range(1, 18)] == Q_FIRST_17
        assert hofstadter_q(12) == 8

    def test_satisfies_its_own_recurrence(self):
        table = hofstadter_q_table(300)
        for n in range(3, 301):
            assert table[n] == table[n - table[n - 1]] + table[n - table[n - 2]]

    def test_validation(self):
        with pytest.raises(ValueError):
            hofstadter_q_table(0)


class TestConway:
    def test_first_seventeen(self):
        table = conway_table(17)
        assert [table[n] for n in range(1, 18)] == CONWAY_FIRST_17
        assert conway(9) == 5

    def test_satisfies_its_own_recurrence(self):
        table = conway_table(300)
        for n in range(3, 301):
            assert table[n] == table[table[n - 1]] + table[n - table[n - 1]]

    @given(st.integers(min_value=2, max_value=400))
    def test_bounded_by_index_and_monotone(self, n):
        table = conway_table(n + 1)
        assert table[n] <= n
        assert table[n] <= table[n + 1] <= table[n] + 1

    def test_midpoint_values_are_powers_of_two(self):
        table = conway_table(256)
        for k in range(1, 9):
            assert table[2 ** k] == 2 ** (k - 1)


class TestTables:
    def test_indices_below_one_are_refused(self):
        # a list would wrap a negative index around silently
        for bad in (0, -1, -5):
            with pytest.raises(IndexUnderflow):
                hofstadter_q(bad)
            with pytest.raises(IndexUnderflow):
                conway(bad)

    def test_tables_are_one_indexed(self):
        assert hofstadter_q_table(1)[1] == 1
        assert conway_table(5)[1:] == CONWAY_FIRST_17[:5]

    def test_determinism(self):
        a = hofstadter_q_table(120)
        b = hofstadter_q_table(120)
        assert [a[n] for n in range(1, 121)] == [b[n] for n in range(1, 121)]
