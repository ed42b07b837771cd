"""Multi-index arithmetic and hyperbolic crosses.

Multi-indices are plain tuples of ints. Index sets keep their members in
lexicographic order so that coefficient vectors are reproducible run to run.
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

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

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


def _count(N: int, d: int, signed: bool) -> int:
    """Number of members of hyperbolic_cross(N, d, signed), counted on Python
    ints without enumerating them: the d-tuples of positive integers
    a_i = 1 + |k_i| whose product is at most N, each a_i > 1 weighed by 2
    (k_i = +-(a_i - 1)) when signed. Takes about N (log N)^(d-2) steps."""
    w = 2 if signed else 1
    if d == 1:
        return 1 + w * (N - 1)
    return _count(N, d - 1, signed) + w * sum(_count(N // a, d - 1, signed) for a in range(2, N + 1))


def _checked_count(N, d, signed: bool) -> int:
    """_count, once N and d are ints >= 1 and the cross fits _check_size.
    The cross holds the N members (k, 0, ..., 0), so a larger N is refused
    before it is counted."""
    N = _check_int(N, 1, "cross order N")
    d = _check_int(d, 1, "dimension d")
    _check_size(N, f"cross order N={N}", f"a cross of at least {N} members in d={d}")
    count = _count(N, d, signed)
    _check_size(count, f"cross order N={N}", f"a cross of {count} members in d={d}")
    return count


def hyperbolic_cross(N: int, d: int, signed: bool = True) -> IndexSet:
    """Frequencies k with prod_i (1 + |k_i|) <= N.

    With signed=False the set is its nonnegative part, which is also its
    image under componentwise absolute value and indexes the half-period
    cosine system; the enumeration meets each member once. ConfigError
    unless N and d are ints >= 1 and the cross holds at most 2^24 members.
    """
    _checked_count(N, d, signed)
    return IndexSet(d=d, members=tuple(_enumerate_cross(d, N, signed)))


def cross_size(N: int, d: int) -> int:
    """Number of members of hyperbolic_cross(N, d, signed=False), with the
    checks and refusals of hyperbolic_cross."""
    return _checked_count(N, d, False)
