"""Classical strange-recursion generators used as cross-checks.

Each table is a list with slot 0 unused, so ``table[n]`` is the value at n.
A computed index below 1 raises ``IndexUnderflow``, where a list would wrap
around.
"""
from __future__ import annotations

from .errors import IndexUnderflow


def _index(n: int) -> int:
    """A computed index, refused below 1."""
    if n < 1:
        raise IndexUnderflow(n)
    return n


def hofstadter_q_table(n: int) -> list[int]:
    """Table of Q values 1..n; Q_n = Q_{n-Q_{n-1}} + Q_{n-Q_{n-2}}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = [0, 1, 1]
    before, last = 1, 1  # the values at k - 2 and k - 1
    for k in range(3, n + 1):
        i = k - last
        j = k - before
        if i < 1 or j < 1:
            raise IndexUnderflow(i if i < 1 else j)
        before, last = last, table[i] + table[j]
        table.append(last)
    return table


def hofstadter_q(n: int) -> int:
    return hofstadter_q_table(_index(n))[n]


def conway_table(n: int) -> list[int]:
    """Table of Conway values 1..n; C_n = C_{C_{n-1}} + C_{n-C_{n-1}}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = [0, 1, 1]
    c = 1  # the value at k - 1
    for k in range(3, n + 1):
        if k - c < 1:
            raise IndexUnderflow(k - c)
        c = table[c] + table[k - c]
        table.append(c)
    return table


def conway(n: int) -> int:
    return conway_table(_index(n))[n]
