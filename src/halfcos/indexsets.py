"""Multi-index arithmetic, hyperbolic crosses, and dyadic block supports.

Multi-indices are plain tuples of ints. Index sets keep their members in
lexicographic order so that coefficient vectors are reproducible run to run.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "nonneg_part",
    "abs_index",
    "l1_norm",
    "plus_l1",
    "IndexSet",
    "hyperbolic_cross",
    "cross_cardinality_check",
    "dyadic_support",
]


def nonneg_part(k: tuple) -> tuple:
    """Componentwise max(k_i, 0)."""
    return tuple(max(int(x), 0) for x in k)


def abs_index(k: tuple) -> tuple:
    """Componentwise |k_i|."""
    return tuple(abs(int(x)) for x in k)


def l1_norm(k: tuple) -> int:
    """Sum of |k_i|."""
    return sum(abs(int(x)) for x in k)


def plus_l1(k: tuple) -> int:
    """Sum of max(k_i, 0); the level weight used by sequence norms."""
    return sum(max(int(x), 0) for x in k)


@dataclass(frozen=True)
class IndexSet:
    """Finite ordered collection of multi-indices of a fixed dimension.

    kind is one of 'hyperbolic-cross', 'dyadic-block', 'explicit'. Members
    are stored sorted lexicographically and deduplicated.
    """

    d: int
    kind: str
    members: tuple = field(default_factory=tuple)
    N: int = 0

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

    def to_text(self) -> str:
        lines = [f"# d={self.d} kind={self.kind} N={self.N}"]
        lines += [" ".join(str(x) for x in m) for m in self.members]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IndexSet":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = lines[0]
        if not header.startswith("#"):
            raise ValueError("missing header line")
        fields = dict(tok.split("=", 1) for tok in header[1:].split())
        d = int(fields["d"])
        kind = fields.get("kind", "explicit")
        N = int(fields.get("N", 0))
        members = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        return cls(d=d, kind=kind, members=tuple(members), N=N)


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
    return IndexSet(d=d, kind="hyperbolic-cross", members=members, N=N)


def cross_cardinality_check(N_list, d: int):
    """Rows (N, |cross|, |cross| / (N (1+log N)^(d-1))) for increasing N."""
    rows = []
    for N in N_list:
        card = len(hyperbolic_cross(int(N), d, signed=True))
        ratio = card / (N * (1.0 + math.log(N)) ** (d - 1))
        rows.append((int(N), card, ratio))
    return rows


def _axis_support(j: int, decomp) -> list:
    """Integers k >= 0 with phi_j(k) != 0 for one decomposition level."""
    lo, hi = (0, 2) if j == 0 else (2 ** (j - 1), 2 ** (j + 1))
    return [k for k in range(lo, hi + 1) if decomp.phi(j, float(k)) != 0.0]


def dyadic_support(jbar: tuple, decomp) -> IndexSet:
    """All k in N_0^d with phi_jbar(k) = prod_i phi_{j_i}(k_i) nonzero."""
    jbar = tuple(int(j) for j in jbar)
    if any(j < 0 for j in jbar):
        raise ValueError("levels must be >= 0")
    axes = [_axis_support(j, decomp) for j in jbar]
    members = [()]
    for ax in axes:
        members = [m + (k,) for m in members for k in ax]
    return IndexSet(d=len(jbar), kind="dyadic-block", members=tuple(members))
