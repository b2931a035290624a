"""Increasing index tuples and wedge insertion signs.

Everything downstream (exterior bases, stacked coefficient vectors,
principal-minor sums) iterates increasing tuples in the lexicographic
order produced by :func:`enumerate_tuples`; that order is the single
canonical basis order of the package.

Tuples are plain 1-based ``tuple``s of ints; array offsets are their
entries minus one.
"""

from __future__ import annotations

import itertools


def enumerate_tuples(m: int, k: int) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples from {1..m}, lexicographic.

    The k = 0 case is allowed and yields the single empty tuple.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if k < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return list(itertools.combinations(range(1, m + 1), k))


def insertion_sign(j: int, sigma) -> int:
    """Sign of sorting e_j into the increasing tuple sigma; 0 if j already there.

    Equals (-1)**(number of entries of sigma smaller than j).  This is the
    only source of signs for wedge-operator entries in the whole package.
    """
    if j in sigma:
        return 0
    smaller = sum(1 for s in sigma if s < j)
    return -1 if smaller % 2 else 1
