"""Spline wavelet machinery against exact rational (sympy) oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from halfcos import grids, wavelets
from halfcos.corpus import get_member
from halfcos.errors import ConfigError, TruncationError
from halfcos.grids import CoefficientMap, GridFunction, UNIT
from halfcos.wavelets import (
    PiecewiseLinear,
    _shift_range,
    biorthogonality_residual_1d,
    bspline_value,
    cw_analyze,
    cw_analyze_1d,
    cw_synthesize,
    dual_coefficients,
    dual_father_closed_form,
    dual_piecewise,
    father,
    gram_sequence,
    mother,
    product_integral,
    psi_eval,
    psi_piecewise,
    psi_support,
)
from closed_forms import mother_from_qcoeffs

R = sp.Rational

# the mother wavelet with exact rational data, for sympy-side integrals
_MOTHER_BP_R = [R(i, 2) for i in range(7)]
_MOTHER_VAL_R = [0, R(1, 12), R(-1, 2), R(5, 6), R(-1, 2), R(1, 12), 0]
_FATHER_BP_R = [0, 1, 2]
_FATHER_VAL_R = [0, 1, 0]


def sympy_product_integral(bp1, v1, bp2, v2, shift=0):
    """Exact integral of two rational piecewise-linear functions."""
    x = sp.symbols("x")
    bp2 = [b + shift for b in bp2]
    cuts = sorted(set(bp1) | set(bp2))
    total = R(0)

    def seg_val(bp, v, a, b, t):
        for lo, hi, va, vb in zip(bp[:-1], bp[1:], v[:-1], v[1:]):
            if lo <= a and b <= hi:
                return va + (vb - va) * (t - lo) / (hi - lo)
        return R(0)

    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= max(bp1[0], bp2[0]) or a >= min(bp1[-1], bp2[-1]):
            continue
        f1 = seg_val(bp1, v1, a, b, x)
        f2 = seg_val(bp2, v2, a, b, x)
        total += sp.integrate(f1 * f2, (x, a, b))
    return total


def test_mother_equals_q_coefficient_assembly():
    a, b = mother(), mother_from_qcoeffs()
    assert a.breakpoints == b.breakpoints
    assert np.allclose(a.values, b.values, atol=1e-15)


def test_mother_breakpoint_values():
    w = mother()
    assert w.support == (0.0, 3.0)
    assert np.allclose(
        w(np.arange(7) / 2.0),
        [0.0, 1.0 / 12.0, -0.5, 5.0 / 6.0, -0.5, 1.0 / 12.0, 0.0],
    )


def test_vanishing_moments_exact():
    w = mother()
    assert abs(w.moment(0)) < 1e-15
    assert abs(w.moment(1)) < 1e-15
    assert abs(w.moment(2)) > 1e-3  # exactly two vanishing moments
    with pytest.raises(ValueError):
        w.moment(3)


def test_bspline_values():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.allclose(bspline_value(2, x), [0.0, 1.0, 0.0, 0.0, 0.0])
    n4 = bspline_value(4, x)
    assert np.allclose(n4, [0.0, 1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0, 0.0])


def _former_bspline_value(order, x):
    """The former Cox-de Boor recursion over every point, kept as the
    reference of the support-restricted evaluation."""
    x = np.asarray(x, dtype=float)
    if order == 1:
        return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)
    m = order
    lower = _former_bspline_value
    return (x * lower(m - 1, x) + (m - x) * lower(m - 1, x - 1.0)) / (m - 1)


def _spline_arguments():
    """Knots with their neighbours, both zeros, and width * x - shift for the
    corpus widths and shifts on a torus grid moved by difference shifts."""
    knots = np.arange(-3.0, 9.0)
    near = np.concatenate([np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    x = -1.0 + np.arange(2**8) * 2.0**-7
    nodes = np.polynomial.legendre.leggauss(8)[0]
    moved = [x + l * h * 2.0**-j for l in range(4) for h in nodes[::3] for j in (1, 4, 8)]
    corpus = [w * 2**s * y - k for w in (4.0, 8.0, 16.0) for s in (0, 1, 2)
              for k in (1, 2, 3, 6) for y in moved[::5]]
    return np.concatenate([knots, near, [0.0, -0.0], *corpus])


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bspline_support_evaluation_equals_the_former_recursion(order):
    u = _spline_arguments()
    got, ref = bspline_value(order, u), _former_bspline_value(order, u)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    off = (u < 0.0) | (u >= order) | ((u == 0.0) & (order > 1))  # N_1(0) = 1
    assert np.all(got[off] == 0.0) and not np.any(np.signbit(got[off]))
    for v in (-1.5, -0.0, 0.0, 0.5, 1.0, order - 0.25, float(order), order + 2.0):
        a, b = bspline_value(order, v), _former_bspline_value(order, v)
        assert np.shape(a) == () and a == b and np.signbit(a) == np.signbit(b)
    nan = [np.nan]
    got, ref = bspline_value(order, nan), _former_bspline_value(order, nan)
    assert np.array_equal(got, ref, equal_nan=True)


def test_bspline_is_zero_at_infinity():
    # the recursion itself gives nan there (inf * 0.0); the support test gives 0
    assert np.array_equal(bspline_value(4, [-np.inf, np.inf]), [0.0, 0.0])


@pytest.mark.parametrize("eps", [-1, 0])
def test_gram_sequence_matches_sympy(eps):
    if eps == -1:
        bp, vals = _FATHER_BP_R, _FATHER_VAL_R
    else:
        bp, vals = _MOTHER_BP_R, _MOTHER_VAL_R
    got = gram_sequence(eps)
    width = int(bp[-1])
    for n in range(-width, width + 1):
        exact = sympy_product_integral(bp, vals, bp, vals, shift=n)
        assert abs(got.get(n, 0.0) - float(exact)) < 1e-15
    if eps == -1:
        assert got == pytest.approx({-1: 1 / 6, 0: 2 / 3, 1: 1 / 6})


def test_product_integral_matches_sympy_cross_pair():
    exact = sympy_product_integral(
        _FATHER_BP_R, _FATHER_VAL_R, _MOTHER_BP_R, _MOTHER_VAL_R, shift=0
    )
    got = product_integral(father(), mother())
    assert abs(got - float(exact)) < 1e-16


def test_dual_father_closed_form_agreement():
    seq = dual_coefficients(-1, n_max=40)
    for n in range(-20, 21):
        assert abs(seq.a(n) - dual_father_closed_form(n)) < 1e-9


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("n_max", [10, 20, 40, 60])
def test_dual_solve_equals_scipy_solve_toeplitz(eps, n_max):
    g = gram_sequence(eps)
    col = np.array([g.get(n, 0.0) for n in range(2 * n_max + 1)])
    rhs = np.zeros(col.size)
    rhs[n_max] = 1.0
    ref = scipy.linalg.solve_toeplitz((col, col), rhs)
    got = dual_coefficients(eps, n_max=n_max, tol=1.0).coefficients
    assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()


def test_dual_decay_base():
    seq = dual_coefficients(-1, n_max=40)
    assert abs(seq.decay_base - (2.0 + math.sqrt(3.0))) < 1e-6
    assert seq.tail_bound < 1e-10


@pytest.mark.parametrize("n_max", [-1, 0, 3, 4, 5])
def test_dual_solve_needs_two_fit_abscissae(n_max):
    # the fit window 2 <= |n| <= n_max // 2 holds one |n| or none: a bare
    # TypeError or ValueError from polyfit, or a RankWarning, before
    with pytest.raises(ConfigError, match="n_max must be >= 6"):
        dual_coefficients(-1, n_max=n_max)


def test_generators_are_the_level_minus_one_and_zero_wavelets():
    # the hat and the mother wavelet come from psi_piecewise; the Gram
    # sequence of any level from 0 up is the mother's, and a level below -1
    # (identically zero) has no dual
    assert father().breakpoints == (0.0, 1.0, 2.0) and father().values == (0.0, 1.0, 0.0)
    assert mother().breakpoints == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    assert mother().values == (0.0, 1 / 12, -0.5, 5 / 6, -0.5, 1 / 12, 0.0)
    assert gram_sequence(3) == gram_sequence(0) != gram_sequence(-1)
    assert gram_sequence(-2) == {}
    with pytest.raises(ConfigError, match="level -2 is identically zero"):
        dual_coefficients(-2)


def test_dual_solve_raises_when_the_tail_exceeds_the_tolerance():
    # the fitted tail at n_max = 16 is about 4.5e-10
    with pytest.raises(TruncationError, match="above tolerance 1.0e-10 at n_max=16"):
        dual_coefficients(-1, n_max=16)
    assert dual_coefficients(-1, n_max=16, tol=1e-9).tail_bound < 1e-9


def test_psi_eval_levels():
    x = np.linspace(-1.0, 4.0, 41)
    assert np.allclose(psi_eval(-1, 0, x), father()(x))
    assert np.allclose(psi_eval(0, 0, x), mother()(x))
    assert np.allclose(psi_eval(-2, 0, x), 0.0)
    # dyadic compression: psi_{l,k}(x) = psi(2^l x - k)
    assert np.allclose(psi_eval(2, 3, x), mother()(4.0 * x - 3.0))


def test_psi_support_bounds():
    for l, k in [(-1, 2), (0, -1), (2, 5)]:
        lo, hi = psi_support(l, k)
        w = psi_piecewise(l, k)
        assert (lo, hi) == w.support
        eps = 1e-9
        assert w(np.array([lo - eps, hi + eps])).tolist() == [0.0, 0.0]


def test_biorthogonality_residual_small():
    res = biorthogonality_residual_1d(range(-1, 3), range(-3, 4), n_max=40)
    assert res < 1e-9


def test_biorthogonality_2d_generic_route():
    # dual analysis of a tensor primal wavelet through the generic 2-D
    # quadrature path returns a single unit coefficient
    jbar, kbar = (1, 0), (1, 0)

    def f(x, y):
        return psi_eval(jbar[0], kbar[0], x) * psi_eval(jbar[1], kbar[1], y)

    got = cw_analyze(
        f=f,
        J=2,
        box=((-2.0, 3.0), (-1.0, 4.0)),
        kind="dual",
        f_breaks=(psi_piecewise(*map(int, (jbar[0], kbar[0]))).breakpoints,
                  psi_piecewise(*map(int, (jbar[1], kbar[1]))).breakpoints),
        prune=1e-9,
    )
    assert abs(got.get((jbar, kbar)) - 1.0) < 1e-9
    others = [v for key, v in got.entries.items() if key != (jbar, kbar)]
    assert not others


def test_tensor_route_matches_generic_2d():
    f1 = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    f2 = lambda x: np.asarray(x, dtype=float)
    tens = cw_analyze(
        J=1,
        box=((0.0, 1.0), (0.0, 1.0)),
        kind="dual",
        tensor_factors=[f1, f2],
        f_breaks=[(0.25, 0.5, 0.75), ()],
    )
    gen = cw_analyze(
        f=lambda x, y: f1(x) * f2(y),
        J=1,
        box=((0.0, 1.0), (0.0, 1.0)),
        kind="dual",
        f_breaks=((0.25, 0.5, 0.75), ()),
    )
    keys = set(tens.entries) | set(gen.entries)
    worst = max(abs(tens.get(key) - gen.get(key)) for key in keys)
    assert worst < 1e-12


def _former_cw_tensor(factors, J, box, breaks, kind="dual"):
    """The former tensor route: one 1-D table per axis, products in the
    order of nested loops over the tables."""
    tables = [cw_analyze_1d(f, J, b, kind, fb) for f, b, fb in zip(factors, box, breaks)]
    entries = {((), ()): 1.0}
    for t in tables:
        entries = {(j + (l,), k + (kk,)): v * tv for (j, k), v in entries.items()
                   for (l, kk), tv in t.items()}
    return entries


_HAT = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
_LIN = lambda x: np.asarray(x, dtype=float)


@pytest.mark.parametrize(
    "factors, box, breaks, tables",
    [
        ([_HAT, _HAT], ((0.0, 1.0),) * 2, [(0.25, 0.5, 0.75)] * 2, 1),
        ([_HAT, _LIN], ((0.0, 1.0),) * 2, [(0.25, 0.5, 0.75), ()], 2),
        ([_HAT, _HAT], ((0.0, 1.0), (0.0, 0.5)), [(0.25, 0.5, 0.75)] * 2, 2),
        ([_HAT, _HAT], ((0.0, 1.0),) * 2, [(0.25, 0.5, 0.75), (0.5,)], 2),
    ],
    ids=["same", "two_factors", "two_boxes", "two_breaks"],
)
def test_cw_tensor_route_builds_one_table_per_distinct_factor(monkeypatch, factors, box,
                                                              breaks, tables):
    ref = _former_cw_tensor(factors, 3, box, breaks)
    calls = []
    real = wavelets.cw_analyze_1d
    monkeypatch.setattr(wavelets, "cw_analyze_1d", lambda *a: calls.append(a) or real(*a))
    got = cw_analyze(J=3, box=box, kind="dual", tensor_factors=factors, f_breaks=breaks)
    assert len(calls) == tables
    assert list(got.entries) == list(ref) and got.entries == ref


def test_dual_analysis_primal_synthesis_reconstructs_spline():
    # piecewise-linear f with knots on the level-2 grid lies in the span
    # of wavelets up to level 1; the expansion reproduces it exactly
    f = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    breaks = tuple(np.arange(-8, 13) / 4.0)
    lam = cw_analyze(
        J=1, box=((0.0, 1.0),), kind="dual", tensor_factors=[f], f_breaks=[breaks]
    )
    rec = cw_synthesize(lam, 6, using="primal")
    ref = GridFunction.from_callable(f, 1, 6, UNIT)
    assert np.max(np.abs(rec.values - ref.values)) < 1e-12


def _former_cw_synthesis(coeffs, m, using, n_max=40):
    """The former synthesis loop: full-grid broadcast products, term by term."""
    d = coeffs.d
    x = np.arange(2**m + 1) * 2.0**-m
    out = np.zeros((x.size,) * d)
    cache = {}
    for (j, k), v in coeffs.items_sorted():
        acc = None
        for ax in range(d):
            key = (int(j[ax]), int(k[ax]))
            if key not in cache:
                primal = using == "primal"
                cache[key] = psi_eval(*key, x) if primal else dual_piecewise(*key, n_max)(x)
            t = cache[key].reshape((1,) * ax + (-1,) + (1,) * (d - ax - 1))
            acc = t if acc is None else acc * t
        out += float(np.real(v)) * acc
    return out


# (1, 17) spans three blocks of the shared term loop, the last of one row;
# (2, 9) spans five; the others fit in one.
@pytest.mark.parametrize("using", ["primal", "dual"])
@pytest.mark.parametrize("kind", ["primal", "dual"])
@pytest.mark.parametrize("d, m", [(1, 6), (2, 5), (1, 17), (2, 9)])
def test_cw_synthesis_equals_the_former_per_term_loop(d, m, kind, using):
    tf = get_member(f"kink{d}")
    lam = cw_analyze(J=3 - d, box=((0.0, 1.0),) * d, kind=kind, tensor_factors=tf.factors,
                     f_breaks=tf.factor_breaks)
    got = cw_synthesize(lam, m, using=using).values
    assert np.array_equal(got, _former_cw_synthesis(lam, m, using))
    if m >= 9:
        assert 8 * (2**m + 1) ** d > 2 * grids._SYNTH_BLOCK_BYTES


def test_lambda_scale_invariance():
    # lambda_{l+1,k}(f(2.)) = lambda_{l,k}(f): the 2^{l_+} factor in the
    # dual pairing absorbs dyadic refinement
    f = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    f2 = lambda x: f(2.0 * np.asarray(x, dtype=float))
    b1 = tuple(np.arange(0, 5) / 4.0)
    b2 = tuple(np.arange(0, 5) / 8.0)
    lam1 = cw_analyze(J=1, box=((0.0, 1.0),), kind="dual", tensor_factors=[f], f_breaks=[b1])
    lam2 = cw_analyze(J=2, box=((0.0, 0.5),), kind="dual", tensor_factors=[f2], f_breaks=[b2])
    for l in (0, 1):
        for k in range(-2, 8):
            a = lam1.get(((l,), (k,)))
            b = lam2.get(((l + 1,), (k,)))
            assert abs(a - b) < 1e-10


def test_dual_piecewise_father_integer_grid():
    w = dual_piecewise(-1, 0, n_max=30)
    # sum_n a_n N_2(x - n) interpolates a at the hat peaks x = n + 1
    for n in range(-5, 6):
        assert abs(w(np.array([n + 1.0]))[0] - dual_father_closed_form(n)) < 1e-8


def test_analyze_accepts_array_breakpoints():
    # f_breaks given as numpy arrays must behave like tuples in every branch
    f = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    breaks = np.arange(-8, 13) / 4.0
    lam_t = cw_analyze(
        J=1, box=((0.0, 1.0),), kind="dual", tensor_factors=[f], f_breaks=[breaks]
    )
    lam_f = cw_analyze(f=f, J=1, box=((0.0, 1.0),), kind="dual", f_breaks=breaks)
    keys = set(lam_t.entries) | set(lam_f.entries)
    assert max(abs(lam_t.get(k) - lam_f.get(k)) for k in keys) < 1e-10
    g = lambda x, y: f(x) * f(y)
    lam2 = cw_analyze(
        f=g,
        J=1,
        box=((0.0, 1.0), (0.0, 1.0)),
        kind="dual",
        f_breaks=(breaks, breaks),
    )
    for (l, k), v in lam_f.entries.items():
        for (l2, k2), v2 in lam_f.entries.items():
            got = lam2.get(((l[0], l2[0]), (k[0], k2[0])))
            assert abs(got - v * v2) < 1e-9


def _wavelet(kind, l, k):
    return psi_piecewise(l, k) if kind == "primal" else dual_piecewise(l, k)


def _per_coefficient_reference(f, J, box, kind, f_breaks, order=8):
    """One Gauss panel set per (l, k): the wavelet's cells clipped to the
    box and split at the breakpoints of f."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    table = {}
    for l in range(-1, J + 1):
        for k in _shift_range(l, box):
            w = _wavelet(kind, l, k)
            lo, hi = max(w.support[0], box[0]), min(w.support[1], box[1])
            if hi <= lo:
                continue
            cuts = sorted({lo, hi} | {b for b in w.breakpoints + tuple(f_breaks) if lo < b < hi})
            a, b = np.array(cuts[:-1]), np.array(cuts[1:])
            nodes = a[:, None] + 0.5 * (b - a)[:, None] * (xg + 1.0)
            weights = 0.5 * (b - a)[:, None] * wg
            table[(l, k)] = 2.0 ** max(l, 0) * float(np.sum(weights * f(nodes) * w(nodes)))
    return table


@pytest.mark.parametrize("kind", ["primal", "dual"])
@pytest.mark.parametrize(
    "box, f",
    [
        ((0.0, 1.0), PiecewiseLinear((0.0, 0.3, 0.55, 0.8, 1.0), (0.0, 1.0, -0.5, 0.7, 0.0))),
        ((-0.7, 1.9), PiecewiseLinear((-0.7, 0.1, 0.9, 1.9), (0.4, 1.0, -0.6, 0.3))),
    ],
)
def test_analysis_of_piecewise_linear_is_exact(kind, box, f):
    # f * w is piecewise quadratic on the split panels: Gauss is exact, so
    # the hat-moment route must match the exact product integrals
    got = cw_analyze_1d(f, 4, box, kind, f.breakpoints)
    worst = 0.0
    for l in range(-1, 5):
        for k in _shift_range(l, box):
            exact = 2.0 ** max(l, 0) * product_integral(f, _wavelet(kind, l, k))
            worst = max(worst, abs(got.get((l, k), 0.0) - exact))
    assert worst <= 1e-14
    assert {l for l, _ in got} == set(range(-1, 5))


@pytest.mark.parametrize("kind", ["primal", "dual"])
def test_analysis_matches_per_coefficient_quadrature(kind):
    box, breaks = (0.2, 1.3), (0.45, 1.0)
    f = lambda x: np.exp(np.asarray(x)) * (np.asarray(x) > 0.45)
    got = cw_analyze_1d(f, 6, box, kind, breaks)
    ref = _per_coefficient_reference(f, 6, box, kind, breaks)
    # relative to the largest coefficient: the small fine-level ones carry
    # the absolute round-off of quadrature sums of size O(max |f|)
    scale = max(abs(v) for v in ref.values())
    for key in set(got) | set(ref):
        assert abs(got.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-14 * scale, key
    assert {key for key, v in ref.items() if abs(v) > 1e-15} <= set(got)


@pytest.mark.parametrize("l, k", [(-1, 0), (-1, 3), (0, -2), (0, 5), (3, 7)])
def test_dual_piecewise_is_the_dual_sequence_expansion(l, k):
    seq = dual_coefficients(min(l, 0), n_max=40)
    lo, hi = dual_piecewise(l, k).support
    x = np.random.default_rng(5).uniform(lo, hi, 200)
    expansion = sum(seq.a(n) * psi_eval(l, k + n, x) for n in range(-40, 41))
    assert np.max(np.abs(dual_piecewise(l, k)(x) - expansion)) <= 1e-14


@pytest.mark.parametrize("box", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_analysis_rejects_a_box_that_is_not_an_interval(box):
    with pytest.raises(ConfigError, match="not a finite interval"):
        cw_analyze_1d(np.cos, 2, box)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(tensor_factors=[np.cos, np.cos]), "2 axes need as many boxes .* got 1 and 2"),
        (dict(tensor_factors=[np.cos, np.cos], box=((0.0, 1.0),) * 2, f_breaks=[()]),
         "2 axes need as many boxes .* got 2 and 1"),
        (dict(f=lambda x, y, z: x * y * z, box=((0.0, 1.0),) * 3), "d <= 2"),
        (dict(box=(), tensor_factors=[]), "zero axes"),
    ],
    ids=["factors-longer-than-box", "factors-longer-than-breaks", "generic-d3", "zero-axes"],
)
def test_analysis_rejects_mismatched_axes(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        cw_analyze(J=2, **kwargs)
