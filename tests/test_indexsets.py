"""Index-set enumeration against brute-force box scans."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfcos.besov import phi
from halfcos.errors import ConfigError
from halfcos.indexsets import IndexSet, cross_size, hyperbolic_cross, plus_l1
from closed_forms import cross_cardinality_check


def brute_cross(N, d, signed):
    rng = range(-N, N + 1) if signed else range(0, N + 1)
    return [k for k in itertools.product(rng, repeat=d) if math.prod(1 + abs(x) for x in k) <= N]


def test_small_helpers():
    assert plus_l1((-1, 0, 2)) == 2


@pytest.mark.parametrize("N,d,signed", [(4, 1, True), (4, 2, True), (4, 2, False), (6, 3, False), (8, 2, True),
                                        (6, 4, True), (9, 4, False)])
def test_cross_matches_box_scan(N, d, signed):
    got = hyperbolic_cross(N, d, signed=signed).members
    assert list(got) == brute_cross(N, d, signed)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cross_size_counts_the_unsigned_cross(d):
    for N in range(1, 40):
        assert cross_size(N, d) == len(hyperbolic_cross(N, d, signed=False))
    for N in range(1, 8 if d == 4 else 12):
        assert len(hyperbolic_cross(N, d, signed=True)) == len(brute_cross(N, d, True))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_walk_yields_members_sorted_and_distinct(d):
    # hyperbolic_cross skips IndexSet's sort and dedup, trusting the walk's order
    for N in range(1, 25):
        for signed in (True, False):
            members = hyperbolic_cross(N, d, signed=signed).members
            assert members == tuple(sorted(set(members)))


def test_a_cross_of_order_two_holds_the_axes_and_the_origin():
    # a bound of N (1 + ln N)^(d-1) members would refuse it
    assert len(hyperbolic_cross(2, 40, signed=True)) == 81
    assert cross_size(2, 40) == 41
    # a recursion over the axes raised RecursionError here
    assert cross_size(1, 5000) == 1
    assert len(hyperbolic_cross(1, 5000)) == 1
    assert len(hyperbolic_cross(2, 2000)) == 4001


# (2**40, 1) raised MemoryError and (2**40, 2) counted 2^40 divisors; the
# exact count of (2**21, 2) is over the limit, unsigned and signed
@pytest.mark.parametrize("N,d", [(5, 0), (0, 2), (-3, 1), (0, 0), (2**40, 1), (2**40, 2),
                                 (2**21, 2)])
def test_cross_size_refuses_what_hyperbolic_cross_refuses(N, d):
    # d = 0 recursed without end; N < 1 counted an empty cross
    least = "at least " if N > 2**24 else ""
    message = (f"(cross order N|dimension d) must be >= 1, got"
               f"|cross order N={N} asks for a cross of {least}[0-9]+ members in d={d}")
    for count in (cross_size, hyperbolic_cross):
        with pytest.raises(ConfigError, match=message):
            count(N, d)


def test_signed_cross_cardinality_d2():
    # 1 center + 2*3 on-axis per axis + 4 corners (1+|k|)(1+|l|)<=4
    assert len(hyperbolic_cross(4, 2, signed=True)) == 17


def test_unsigned_is_abs_image_of_signed():
    signed = hyperbolic_cross(6, 2, signed=True)
    unsigned = hyperbolic_cross(6, 2, signed=False)
    assert set(unsigned.members) == {tuple(abs(x) for x in k) for k in signed.members}


@pytest.mark.parametrize("N,d,signed", [(6, 1, True), (9, 2, True), (12, 2, False), (8, 3, False)])
def test_membership_agrees_with_set_lookup(N, d, signed):
    K = hyperbolic_cross(N, d, signed=signed)
    members = set(K.members)
    span = range(-N - 1, N + 2)
    for k in np.ndindex(*([len(span)] * d)):
        key = tuple(span[i] for i in k)
        assert (key in K) == (key in members)
    assert (0,) * (d + 1) not in K


def test_cardinality_growth_band():
    rows = cross_cardinality_check([8, 16, 32, 64, 128], 2)
    ratios = [r for _, _, r in rows]
    # N (1 + log N)^{d-1} normalization keeps the counts in a narrow band
    assert max(ratios) / min(ratios) < 2.0


def test_nesting():
    small = set(hyperbolic_cross(4, 2).members)
    large = set(hyperbolic_cross(8, 2).members)
    assert small < large


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), st.integers(1, 3))
def test_cross_symmetry_and_membership(N, d):
    K = hyperbolic_cross(N, d, signed=True)
    members = set(K.members)
    for k in list(members)[:50]:
        assert tuple(-x for x in k) in members
        prod = 1
        for x in k:
            prod *= 1 + abs(x)
        assert prod <= N


def test_dyadic_support_levels():
    ks = np.arange(20.0)
    assert set(np.flatnonzero(phi(0, ks))) == {0, 1}
    # phi_2 vanishes at 2 and at 8 exactly (plateau edges)
    assert set(np.flatnonzero(phi(2, ks))) == set(range(3, 8))
    # phi_(0,2)(k) = phi_0(k_1) phi_2(k_2) is nonzero on the 2 x 5 product
    block = np.multiply.outer(phi(0, ks), phi(2, ks))
    assert set(zip(*np.nonzero(block))) == {(a, b) for a in (0, 1) for b in range(3, 8)}


def test_index_set_dedup_and_order():
    K = IndexSet(d=1, members=((3,), (1,), (3,)))
    assert K.members == ((1,), (3,))
