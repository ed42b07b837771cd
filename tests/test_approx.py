"""Cross projection and least-squares recovery against span membership,
mask predicates, and closed-form coefficient tails."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from halfcos.approx import (
    _design_matrix,
    error_transfer_check,
    exact_projection_error,
    ls_error_experiment,
    ls_recover,
    project_dense,
    projection_error_rate,
)
from halfcos.corpus import KINK_A, get_member, kink_coeff
from halfcos.errors import AliasingError, ConditionError, ConfigError
from halfcos.grids import (
    UNIT,
    CoefficientMap,
    GridFunction,
    hpc_basis_1d,
    hpc_synthesize,
)
from halfcos.indexsets import cross_size, hyperbolic_cross
from closed_forms import evenization_check, hpc_coefficient

INF = float("inf")


def poly_on_grid(entries, d, m):
    cf = CoefficientMap("hpc", d, entries)
    return hpc_synthesize(cf, m), cf


def test_projection_reproduces_span_members():
    f, cf = poly_on_grid({(0,): 0.4, (1,): -0.3, (3,): 0.2}, 1, 6)
    approx, dense = project_dense(f, N=4)
    assert (f - approx).lp_norm(INF) < 1e-13
    for key, v in cf.entries.items():
        assert dense[key] == pytest.approx(v, abs=1e-13)


def test_projection_is_idempotent():
    g = GridFunction.from_callable(get_member("kink1"), 1, 8, UNIT)
    once, dense1 = project_dense(g, 6)
    twice, dense2 = project_dense(once, 6)
    assert np.max(np.abs(once.values - twice.values)) < 1e-14
    assert np.max(np.abs(dense1 - dense2)) < 1e-13


def test_retained_tensor_obeys_the_cross_predicate():
    g = GridFunction.from_callable(get_member("kink2"), 2, 5, UNIT)
    _, dense = project_dense(g, N=6)
    from halfcos.grids import hpc_analyze_dense

    full = hpc_analyze_dense(g)
    assert dense.shape == (6, 6)  # the box k_i < N that holds the cross
    for kbar in np.ndindex(*dense.shape):
        prod = 1.0
        for k in kbar:
            prod *= 1.0 + k
        if prod <= 6.0:
            assert dense[kbar] == full[kbar]
        else:
            assert dense[kbar] == 0.0


def test_projection_errors_decrease_in_n():
    g = GridFunction.from_callable(get_member("kink1"), 1, 12, UNIT)
    errs = [(g - project_dense(g, N)[0]).lp_norm(2.0) for N in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[0] == pytest.approx(0.0538, abs=5e-3)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("N", [3, 8])
def test_error_transfer_identity_2d(p, N):
    g = GridFunction.from_callable(get_member("kink2"), 2, 5, UNIT)
    lhs, rhs = error_transfer_check(g, N, p)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_error_transfer_identity_1d():
    g = GridFunction.from_callable(get_member("exp1"), 1, 7, UNIT)
    for N in (2, 4, 8):
        lhs, rhs = error_transfer_check(g, N, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_evenization_routes_agree():
    g = GridFunction.from_callable(get_member("kink1"), 1, 7, UNIT)
    a, b, c = evenization_check(g, 5)
    assert a == pytest.approx(b, rel=1e-13)
    assert b == pytest.approx(c, rel=1e-13)


def test_ls_recovers_span_members_exactly():
    entries = {(0, 0): 0.5, (1, 0): -0.2, (0, 2): 0.3, (1, 1): 0.1}
    cf = CoefficientMap("hpc", 2, entries)
    K = hyperbolic_cross(6, 2, signed=False)
    rng = np.random.default_rng(4)
    pts = rng.random((200, 2))

    def f(x, y):
        acc = np.zeros_like(x)
        for (k1, k2), v in entries.items():
            b1 = np.sqrt(2.0) * np.cos(np.pi * k1 * x) if k1 else np.ones_like(x)
            b2 = np.sqrt(2.0) * np.cos(np.pi * k2 * y) if k2 else np.ones_like(y)
            acc += v * b1 * b2
        return acc

    got, info = ls_recover(pts, f(pts[:, 0], pts[:, 1]), K)
    for kbar in K.as_array():
        key = tuple(int(t) for t in kbar)
        assert got.entries.get(key, 0.0) == pytest.approx(cf.entries.get(key, 0.0), abs=1e-10)
    assert info["normal_residual"] < 1e-9
    assert info["condition"] < 1e3
    assert info["rank"] == len(K.members)


def test_ls_zero_data_gives_zero_coefficients():
    K = hyperbolic_cross(4, 1, signed=False)
    pts = np.linspace(0.05, 0.95, 40).reshape(-1, 1)
    got, _ = ls_recover(pts, np.zeros(40), K)
    assert all(abs(v) < 1e-14 for v in got.entries.values())


def test_ls_degenerate_designs_raise():
    K = hyperbolic_cross(4, 1, signed=False)
    pts = np.full((12, 1), 0.3)
    with pytest.raises(ConditionError):
        ls_recover(pts, np.ones(12), K)
    few = np.array([[0.2], [0.4]])
    with pytest.raises(ConditionError):
        ls_recover(few, np.ones(2), K)


def test_ls_experiment_is_seeded_and_near_projection():
    out = ls_error_experiment(get_member("bspline2_1"), N=8, seed=3, grid_level=9)
    again = ls_error_experiment(get_member("bspline2_1"), N=8, seed=3, grid_level=9)
    assert out == again
    assert out["dim"] == 8 and out["samples"] >= out["dim"]
    assert out["ls_error"] <= 3.0 * out["projection_error"]
    other = ls_error_experiment(get_member("bspline2_1"), N=8, seed=4, grid_level=9)
    assert other["ls_error"] != out["ls_error"]


def test_exact_tail_matches_grid_projection_error():
    kink = get_member("kink1")
    g = GridFunction.from_callable(kink, 1, 12, UNIT)
    approx, _ = project_dense(g, 8)
    grid_route = (g - approx).lp_norm(2.0)
    tail_route = exact_projection_error(kink, 8, kmax=4096)
    assert grid_route == pytest.approx(tail_route, rel=1e-4)


def test_projection_rate_recovers_coefficient_decay():
    # univariate k^-2 coefficients give an N^{-3/2} tail in L2
    fit = projection_error_rate(
        get_member("monomial1"), [2, 4, 8, 16, 32, 64], kmax=2048
    )
    assert fit.slope == pytest.approx(-1.5, abs=0.1)
    assert fit.ns == [2, 4, 8, 16, 32, 64]  # d=1 cross has N members
    assert fit.residual < 0.05
    errs = fit.errors
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_projection_rate_evaluates_the_closed_forms_once_per_table():
    calls = []

    def counted(k):
        calls.append(k)
        return kink_coeff(KINK_A, k)

    member = dataclasses.replace(get_member("kink2"), factor_coeff=[counted] * 2)
    N_list = [2, 4, 8, 16]
    fit = projection_error_rate(member, N_list, kmax=64)
    assert len(calls) == 65  # one vector for both axes and every N
    ref = [exact_projection_error(get_member("kink2"), N, 64) for N in N_list]
    assert [e.hex() for e in fit.errors] == [e.hex() for e in ref]


def box_walk_terms(member, kmax):
    """Reference: a scalar walk over the coefficient box, term by term; it
    gives each prod (1 + k_i) with the squared coefficient at kbar."""
    terms = []
    for kbar in np.ndindex(*([kmax + 1] * member.d)):
        prod = 1.0
        for k in kbar:
            prod *= 1.0 + k
        terms.append((prod, hpc_coefficient(member, kbar) ** 2))
    return terms


# Each list holds an N <= kmax in d >= 2, where the bound left for the last
# axes reaches 0, and one N >= (kmax + 1)^d, whose tail is empty. The boxes
# are large enough that a sequential sum over them misses fsum by up to 1.4e-13.
@pytest.mark.parametrize(
    "name, kmax, N_list",
    [("kink1", 600, [1, 2, 7, 64, 601]), ("kink2", 300, [1, 2, 11, 64, 90601]),
     ("exp3", 40, [3, 20, 68921]), ("const2", 9, [1, 4, 100]),
     ("smoothper2", 30, [1, 3, 17, 100, 961])],
)
def test_exact_tail_matches_fsum_of_the_box_walk(name, kmax, N_list):
    member = get_member(name)
    terms = box_walk_terms(member, kmax)
    for N in N_list:
        ref = math.sqrt(math.fsum(sq for prod, sq in terms if prod > N))
        got = exact_projection_error(member, N, kmax)
        if N >= (kmax + 1) ** member.d or ref == 0.0:
            assert got == ref == 0.0
        else:
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def _former_cross_tail(squares, suffix, rest, bound, ax):
    """The tail recursion as it stood with a vectorised last-but-one axis."""
    n = min(bound, len(squares[ax]))
    inner = bound // np.arange(1, n + 1)
    if ax + 2 == len(squares):
        inner = suffix[-1][np.minimum(inner, len(suffix[-1]) - 1)]
    else:
        inner = np.array([_former_cross_tail(squares, suffix, rest, int(b), ax + 1) for b in inner])
    return float(np.sum(squares[ax][:n] * inner)) + suffix[ax][n] * rest[ax + 1]


def _former_exact_projection_error(member, N, kmax):
    """exact_projection_error with its separate d = 1 branch, kept as the oracle."""
    squares = [np.square(c) for c in member.coefficient_vectors(kmax)]
    suffix = [np.append(np.cumsum(sq[::-1])[::-1], 0.0) for sq in squares]
    rest = [math.prod(float(s[0]) for s in suffix[i:]) for i in range(member.d + 1)]
    if member.d == 1:
        return math.sqrt(suffix[0][min(N, kmax + 1)])
    return math.sqrt(_former_cross_tail(squares, suffix, rest, N, 0))


@pytest.mark.parametrize("name, kmax", [("kink1", 4096), ("kink2", 512), ("exp3", 40)])
def test_one_tail_recursion_equals_the_two_branch_form_bit_for_bit(name, kmax):
    # the last axis is the recursion's own base case in every d; N runs from
    # 1, where the whole box but c_0^d is tail, past kmax
    member = get_member(name)
    vectors = member.coefficient_vectors(kmax)  # once, as projection_error_rate reads them
    table = SimpleNamespace(d=member.d, coefficient_vectors=lambda _: vectors)
    for N in range(1, kmax + 3):
        got = exact_projection_error(table, N, kmax)
        assert got.hex() == _former_exact_projection_error(table, N, kmax).hex(), N


@pytest.mark.parametrize("d, N", [(1, 9), (2, 12), (3, 10)])
def test_design_matrix_matches_the_column_loop(d, N):
    pts = np.random.default_rng(d).random((40, d))
    K = hyperbolic_cross(N, d, signed=False)
    ref = np.ones((40, len(K)))
    for j, kbar in enumerate(K.as_array()):
        col = np.ones(40)
        for ax in range(d):
            col = col * hpc_basis_1d(int(kbar[ax]), pts[:, ax])
        ref[:, j] = col
    assert np.array_equal(_design_matrix(pts, K), ref)


def _per_frequency_design(points, K):
    """The former design build: one cosine row per distinct frequency of an
    axis, gathered by fancy indexing into a product started from ones."""
    arr = K.as_array()
    n, d = points.shape
    cols = np.ones((n, len(arr)))
    for ax in range(d):
        ks, inverse = np.unique(arr[:, ax], return_inverse=True)
        table = np.empty((n, len(ks)))
        for j, k in enumerate(ks):
            table[:, j] = hpc_basis_1d(int(k), points[:, ax])
        cols *= table[:, inverse]
    return cols


# the LS sizes of the rates benchmark, with the samples ls_error_experiment draws
@pytest.mark.parametrize("N", [16, 32, 64])
def test_design_matrix_equals_the_per_frequency_loop_in_c_order(N):
    card = cross_size(N, 2)
    pts = np.random.default_rng(N).random((math.ceil(4.0 * card * (1.0 + math.log(card))), 2))
    K = hyperbolic_cross(N, 2, signed=False)
    got = _design_matrix(pts, K)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _per_frequency_design(pts, K))


def test_rate_entry_points_reject_bad_input():
    with pytest.raises(ConfigError, match="N must be >= 1"):
        projection_error_rate(get_member("kink1"), [4, 0])
    with pytest.raises(ConfigError, match="N must be >= 1"):
        ls_error_experiment(get_member("kink1"), N=0)
    with pytest.raises(ConfigError, match="cross order N must be an int, got 2.5"):
        projection_error_rate(get_member("kink2"), [2.5, 4, 8])
    with pytest.raises(ConfigError, match="cross order N must be an int, got 2.5"):
        ls_error_experiment(get_member("kink1"), N=2.5, seed=1)
    with pytest.raises(ConfigError, match="no closed-form coefficients"):
        projection_error_rate(get_member("bspline2_1"), [2, 4, 8])
    for n_list in ([2, 3], [2]):
        with pytest.raises(ConfigError, match="not enough positive errors"):
            projection_error_rate(get_member("kink1"), n_list, kmax=64)


def test_ls_experiment_checks_aliasing_and_sample_count():
    with pytest.raises(AliasingError):
        ls_error_experiment(get_member("kink1"), N=4, seed=1, grid_level=0)
    for oversample in (0.0, 0.01):
        with pytest.raises(ConfigError, match="underdetermined"):
            ls_error_experiment(get_member("kink1"), N=2, seed=1, oversample=oversample)
    for oversample in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="oversample must be finite"):
            ls_error_experiment(get_member("kink1"), N=2, seed=1, oversample=oversample)


def test_ls_experiment_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        ls_error_experiment(get_member("kink1"), N=4, seed=-1)


def test_ls_recover_names_an_underdetermined_design():
    K = hyperbolic_cross(4, 1, signed=False)
    for n in (0, 3):
        with pytest.raises(ConditionError, match="underdetermined design"):
            ls_recover(np.full((n, 1), 0.3), np.ones(n), K)


def test_ls_recover_refuses_points_of_another_dimension():
    # one column used to end in a ConditionError, three in an IndexError
    K = hyperbolic_cross(4, 2, signed=False)
    for cols in (1, 3):
        pts = np.full((50, cols), 0.3)
        with pytest.raises(ConfigError, match=f"points have {cols} columns, but the index set has d=2"):
            ls_recover(pts, np.ones(50), K)


def test_exact_projection_error_refuses_a_negative_box():
    with pytest.raises(ConfigError, match="kmax must be >= 0, got -1"):
        exact_projection_error(get_member("kink2"), 4, kmax=-1)


def test_coefficient_box_entry_points_refuse_a_non_int_kmax():
    kink1 = get_member("kink1")
    for call in (lambda: kink1.hpc_map(2.5), lambda: exact_projection_error(kink1, 3, 2.5),
                 lambda: projection_error_rate(kink1, [2, 4, 8], kmax=2.5)):
        with pytest.raises(ConfigError, match="coefficient box kmax must be an int, got 2.5"):
            call()
