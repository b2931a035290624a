"""Increasing index tuples, principal compressions, and wedge insertion signs.

Everything downstream (exterior bases, stacked coefficient vectors,
principal-minor sums) iterates increasing tuples in the lexicographic
order produced by :func:`enumerate_tuples`; that order is the single
canonical basis order of the package.

Tuples are 1-based externally.  Code that needs array offsets should go
through :attr:`IndexTuple.zero_based` instead of subtracting one ad hoc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IndexTuple:
    """A strictly increasing tuple of 1-based indices, bounded by ``ambient``."""

    entries: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if self.ambient <= 0:
            raise ValueError(f"ambient bound must be positive, got {self.ambient}")
        for a, b in zip(self.entries, self.entries[1:]):
            if a >= b:
                raise ValueError(f"entries must be strictly increasing, got {self.entries}")
        if self.entries:
            if self.entries[0] < 1:
                raise ValueError(f"entries are 1-based, got {self.entries}")
            if self.entries[-1] > self.ambient:
                raise ValueError(
                    f"entry {self.entries[-1]} exceeds ambient bound {self.ambient}"
                )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __contains__(self, j):
        return j in self.entries

    @property
    def zero_based(self) -> tuple[int, ...]:
        return tuple(e - 1 for e in self.entries)

    def drop(self, j: int) -> "IndexTuple":
        """Remove entry j (must be present)."""
        if j not in self.entries:
            raise ValueError(f"{j} is not an entry of {self.entries}")
        return IndexTuple(tuple(e for e in self.entries if e != j), self.ambient)


def enumerate_tuples(m: int, k: int) -> list[IndexTuple]:
    """All strictly increasing k-tuples from {1..m}, lexicographic.

    The k = 0 case is allowed and yields the single empty tuple.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if k < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return [IndexTuple(t, m) for t in itertools.combinations(range(1, m + 1), k)]


def insertion_sign(j: int, sigma) -> int:
    """Sign of sorting e_j into the increasing tuple sigma; 0 if j already there.

    Equals (-1)**(number of entries of sigma smaller than j).  This is the
    only source of signs for wedge-operator entries in the whole package.
    """
    entries = sigma.entries if isinstance(sigma, IndexTuple) else tuple(sigma)
    if j in entries:
        return 0
    smaller = sum(1 for s in entries if s < j)
    return -1 if smaller % 2 else 1


def compress(B: np.ndarray, pi) -> np.ndarray:
    """Principal submatrix of B at the rows/columns listed in pi.

    B may be a (..., m, m) stack; every slice is compressed alike.
    """
    entries = pi.entries if isinstance(pi, IndexTuple) else tuple(pi)
    idx = [j - 1 for j in entries]
    B = np.asarray(B)
    return B[(Ellipsis, *np.ix_(idx, idx))]
