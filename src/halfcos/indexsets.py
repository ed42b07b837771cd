"""Multi-index arithmetic and hyperbolic crosses.

Multi-indices are plain tuples of ints. Index sets keep their members in
lexicographic order so that coefficient vectors are reproducible run to run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "plus_l1",
    "IndexSet",
    "hyperbolic_cross",
    "cross_size",
]


def plus_l1(k: tuple) -> int:
    """Sum of max(k_i, 0); the level weight used by sequence norms."""
    return sum(max(int(x), 0) for x in k)


@dataclass(frozen=True)
class IndexSet:
    """Finite ordered collection of multi-indices of a fixed dimension.
    Members are stored sorted lexicographically and deduplicated."""

    d: int
    members: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        uniq = sorted(set(tuple(int(x) for x in m) for m in self.members))
        for m in uniq:
            if len(m) != self.d:
                raise ValueError("member dimension mismatch")
        object.__setattr__(self, "members", tuple(uniq))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, k):
        key = tuple(int(x) for x in k)
        i = bisect.bisect_left(self.members, key)
        return i < len(self.members) and self.members[i] == key

    def as_array(self) -> np.ndarray:
        """Members as an (n, d) integer array in lexicographic order."""
        if not self.members:
            return np.zeros((0, self.d), dtype=np.int64)
        return np.array(self.members, dtype=np.int64)


def _enumerate_cross(d: int, budget: int, signed: bool):
    """All k in Z^d (or N_0^d) with prod(1+|k_i|) <= budget."""
    if d == 0:
        yield ()
        return
    kmax = budget - 1
    lo = -kmax if signed else 0
    for k in range(lo, kmax + 1):
        rest = budget // (1 + abs(k))
        for tail in _enumerate_cross(d - 1, rest, signed):
            yield (k,) + tail


def hyperbolic_cross(N: int, d: int, signed: bool = True) -> IndexSet:
    """Frequencies k with prod_i (1 + |k_i|) <= N.

    With signed=False the set is its nonnegative part, which is also its
    image under componentwise absolute value and indexes the half-period
    cosine system; the enumeration meets each member once.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    members = tuple(_enumerate_cross(d, N, signed))
    return IndexSet(d=d, members=members)


def cross_size(N: int, d: int) -> int:
    """Number of members of hyperbolic_cross(N, d, signed=False), counted on
    Python ints without enumerating them: the d-tuples of positive integers
    1 + k_i whose product is at most N. Takes about N (log N)^(d-2) steps."""
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    if d == 1:
        return N
    return sum(cross_size(N // a, d - 1) for a in range(1, N + 1))
