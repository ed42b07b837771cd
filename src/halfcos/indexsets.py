"""Multi-index arithmetic and hyperbolic crosses.

Multi-indices are plain tuples of ints. Index sets keep their members in
lexicographic order so that coefficient vectors are reproducible run to run.
One walk over the axes, with no recursion and no sort, counts and builds the cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import _check_int, _check_size

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
        _check_int(self.d, 1, "dimension d")
        uniq = sorted(set(tuple(int(x) for x in m) for m in self.members))
        for m in uniq:
            if len(m) != self.d:
                raise ConfigError("member dimension mismatch")
        object.__setattr__(self, "members", tuple(uniq))

    @classmethod
    def _sorted(cls, d: int, members: tuple) -> IndexSet:
        """An IndexSet over members already sorted, distinct and of dimension d, unchecked."""
        out = cls(d)
        object.__setattr__(out, "members", members)
        return out

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def as_array(self) -> np.ndarray:
        """Members as an (n, d) integer array in lexicographic order."""
        if not self.members:
            return np.zeros((0, self.d), dtype=np.int64)
        return np.array(self.members, dtype=np.int64)


def _walk(N, d, signed: bool, build: bool):
    """The cross of order N in d dimensions, one axis at a time. Each row, a prefix of a
    member, holds its budget N // prod (1 + |k_i|) and takes the k with 1 + |k| <= budget in
    ascending order, so rows stay lexicographic; a stage, never larger than the cross, is
    refused before np.repeat makes it. Returns the count, or with build the members."""
    N = _check_int(N, 1, "cross order N")
    d = _check_int(d, 1, "dimension d")
    # the cross holds the N members (k, 0, ..., 0); this also keeps every array in int64
    _check_size(N, f"cross order N={N}", f"a cross of at least {N} members in d={d}")
    budget, stages = np.array([N], dtype=np.int64), []
    for axis in range(d):
        n = 2 * budget - 1 if signed else budget
        total = int(n.sum())  # before the last axis, a lower bound on the cross
        least = "at least " if axis < d - 1 else ""
        _check_size(total, f"cross order N={N}", f"a cross of {least}{total} members in d={d}")
        if axis == d - 1 and not build:
            return total
        parent = np.repeat(np.arange(len(n)), n)
        lo = 1 - budget if signed else 0
        k = np.arange(total) - (np.cumsum(n) - n - lo)[parent]
        budget = budget[parent] // (1 + np.abs(k))
        stages.append((parent, k))
    columns, at = [], np.arange(total)
    for parent, k in reversed(stages):  # one gather per column, from the last stage back
        columns.append(k[at].tolist())
        at = parent[at]
    return tuple(zip(*reversed(columns)))


def hyperbolic_cross(N: int, d: int, signed: bool = True) -> IndexSet:
    """Frequencies k with prod_i (1 + |k_i|) <= N, in lexicographic order (_walk).

    With signed=False the set is its nonnegative part, which is also its
    image under componentwise absolute value and indexes the half-period
    cosine system. ConfigError unless N and d are ints >= 1 and the cross
    holds at most 2^24 members.
    """
    return IndexSet._sorted(d, _walk(N, d, signed, build=True))


def cross_size(N: int, d: int) -> int:
    """Number of members of hyperbolic_cross(N, d, signed=False), counted by
    the same walk without building its last axis, with the same refusals."""
    return _walk(N, d, False, build=False)
