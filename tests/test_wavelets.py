"""Spline wavelet machinery against exact rational (sympy) oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from halfcos import grids, wavelets
from halfcos.besov import BesovParams, seq_norm_report
from halfcos.corpus import get_member
from halfcos.errors import ConfigError, DivergentTailError, TruncationError
from halfcos.grids import CoefficientMap, GridFunction, UNIT
from halfcos.wavelets import (
    PiecewiseLinear,
    _LevelAxis,
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
from halfcos.suite import norm_comparison
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
    with pytest.raises(ConfigError, match="Simpson is exact only up to cubic"):
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
def test_dual_is_biorthogonal_to_the_gram_sequence(eps):
    g = gram_sequence(eps)
    seq = dual_coefficients(eps)
    for m in range(-20, 21):
        conv = sum(seq.a(n) * g.get(m - n, 0.0) for n in range(m - 2, m + 3))
        assert abs(conv - (m == 0)) <= 1e-15, m


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("n_max", [10, 20, 40, 60])
def test_dual_solve_equals_scipy_solve_toeplitz(eps, n_max):
    # scipy's solve of the truncated Toeplitz system differs from the
    # bi-infinite dual by a boundary layer below the dropped tail's mass,
    # which shrinks geometrically in n_max: 2.4e-7 / 3.6e-7 (hat / mother)
    # at n_max = 10, round-off from 40 on
    g = gram_sequence(eps)
    col = np.array([g.get(n, 0.0) for n in range(2 * n_max + 1)])
    rhs = np.zeros(col.size)
    rhs[n_max] = 1.0
    ref = scipy.linalg.solve_toeplitz((col, col), rhs)
    got = dual_coefficients(eps, n_max=n_max, tol=1.0)
    gap = np.max(np.abs(got.coefficients - ref))
    assert gap <= got.tail_bound + 1e-15, (gap, got.tail_bound)


@pytest.mark.parametrize("eps", [-1, 0])
@pytest.mark.parametrize("n_max", [10, 20, 40])
def test_dual_tail_bound_covers_the_summed_tail(eps, n_max):
    # the hat's single root makes the bound equal to its tail up to round-off
    long = dual_coefficients(eps, n_max=400)
    tail = math.fsum(abs(long.a(n)) for n in range(-400, 401) if abs(n) > n_max)
    bound = dual_coefficients(eps, n_max=n_max, tol=1.0).tail_bound
    assert tail <= bound * (1.0 + 1e-12) and bound <= 1.01 * tail, (tail, bound)


def test_dual_decay_base():
    # the mother's roots inside the disc are -(2 - sqrt(3)) and (2 - sqrt(3))^2
    for eps in (-1, 0, 1):
        seq = dual_coefficients(eps, n_max=40)
        assert abs(seq.decay_base - (2.0 + math.sqrt(3.0))) <= 1e-12, eps
        assert seq.tail_bound < 1e-10, eps


@pytest.mark.parametrize(
    "kwargs, error, message",
    [({"n_max": -1}, ConfigError, "n_max must be >= 0, got -1"),
     ({"n_max": 2.5}, ConfigError, "n_max must be an int, got 2.5")]
    + [({"n_max": n}, TruncationError, f"above tolerance 1.0e-10 at n_max={n}") for n in range(6)]
    + [({"n_max": 0, "tol": tol}, ConfigError, f"tol must be > 0, got {tol}")
       for tol in (math.nan, -1.0, 0.0)]
    + [({"eps": 0.5, "n_max": 20, "tol": 1.0}, ConfigError,
        "dual level eps must be an int, got 0.5")],
    ids=[str(n) for n in (-1, 2.5, *range(6))] + ["tol-nan", "tol-1", "tol0", "eps0.5"],
)
def test_dual_n_max_contract(kwargs, error, message):
    # n_max not an int >= 0, a level that is not an int and a tol that is
    # not > 0 (NaN too) are config errors; fewer than six terms a side leave
    # a tail above the default tolerance
    with pytest.raises(error, match=message):
        dual_coefficients(**{"eps": -1, **kwargs})


def test_dual_refuses_a_large_n_max_before_allocating(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("Gram sequence built before the size check")

    monkeypatch.setattr(wavelets, "gram_sequence", reached)
    with pytest.raises(ConfigError, match="n_max=1099511627776 asks for 2199023255553 dual"):
        dual_coefficients(-1, n_max=2**40)


def test_generators_are_the_level_minus_one_and_zero_wavelets():
    # the hat and the mother wavelet come from psi_piecewise; the Gram
    # sequence of any level from 0 up is the mother's, and a level below -1
    # (identically zero) has no dual
    assert father().breakpoints == (0.0, 1.0, 2.0) and father().values == (0.0, 1.0, 0.0)
    assert mother().breakpoints == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    assert mother().values == (0.0, 1 / 12, -0.5, 5 / 6, -0.5, 1 / 12, 0.0)
    assert gram_sequence(3) == gram_sequence(0) != gram_sequence(-1)
    assert gram_sequence(-2) == {}
    with pytest.raises(ConfigError, match="dual level eps must be >= -1, got -2"):
        dual_coefficients(-2)


def test_dual_solve_raises_when_the_tail_exceeds_the_tolerance():
    # the tail at n_max = 16 is 8.95e-10
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
    res = biorthogonality_residual_1d(range(-1, 3), range(-3, 4))
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
    assert abs(got.entries.get((jbar, kbar), 0.0) - 1.0) < 1e-9
    others = [v for key, v in got.entries.items() if key != (jbar, kbar)]
    assert not others


def test_tensor_route_matches_generic_2d():
    # the cw norm route multiplies 1-D coefficients: the generic 2-D
    # analysis of f1(x) f2(y) gives the products of the 1-D tables
    f1 = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    f2 = lambda x: np.asarray(x, dtype=float)
    tens = _former_cw_tensor([f1, f2], 1, ((0.0, 1.0),) * 2, [(0.25, 0.5, 0.75), ()])
    gen = cw_analyze(
        f=lambda x, y: f1(x) * f2(y),
        J=1,
        box=((0.0, 1.0), (0.0, 1.0)),
        kind="dual",
        f_breaks=((0.25, 0.5, 0.75), ()),
    )
    keys = set(tens) | set(gen.entries)
    worst = max(abs(tens.get(key, 0.0) - gen.entries.get(key, 0.0)) for key in keys)
    assert worst < 1e-12


def _former_cw_tensor(factors, J, box, breaks, kind="dual", prune=0.0):
    """The former tensor route of cw_analyze: one 1-D table per axis,
    products in the order of nested loops over the tables, magnitudes
    above prune kept."""
    tables = [cw_analyze_1d(f, J, b, kind, fb) for f, b, fb in zip(factors, box, breaks)]
    entries = {((), ()): 1.0}
    for t in tables:
        entries = {(j + (l,), k + (kk,)): v * tv for (j, k), v in entries.items()
                   for (l, kk), tv in t.items()}
    return {key: v for key, v in entries.items() if abs(v) > prune}


def _tail_kind(t):
    return 0 if t == 0.0 else (math.inf if t == math.inf else 1)


@pytest.mark.parametrize("name", ["kink2", "bspline2_2", "bspline4_2", "exp2", "smoothper2",
                                  "mode4_2", "monomial2", "const2"])
def test_cw_route_matches_the_former_tensor_expansion(name):
    # The cw route multiplies the factors' 1-D level terms. The former one
    # expanded the 2-D map, pruned its products <= 1e-13 and grouped it by
    # level; pruning the factors instead moves p = 1 values by ~1e-10 and
    # adds level terms that are round-off next to the largest one.
    J, tf = 6, get_member(name)
    lam = CoefficientMap("cw-dual", 2, _former_cw_tensor(tf.factors, J, ((0.0, 1.0),) * 2,
                                                         tf.factor_breaks, prune=1e-13))
    for p in (1.0, 2.0, math.inf):
        value_tol, term_tol, tail_tol = (1e-9, 1e-8, 1e-6) if p == 1.0 else (1e-14,) * 3
        for q in (1.0, 2.0, math.inf):
            for r in (1.25, 1.5, 1.75):
                params = BesovParams(r, p, q)
                old = seq_norm_report(lam, params, strict=False, J=J)
                new = norm_comparison(tf, params, ("cw",), J=J, strict=False)["cw"]
                case = (p, q, r)
                assert new.J_max == old.J_max, case
                assert _tail_kind(new.tail_bound) == _tail_kind(old.tail_bound), case
                if _tail_kind(old.tail_bound) == 1:
                    assert new.tail_bound == pytest.approx(old.tail_bound, rel=tail_tol), case
                assert new.value == pytest.approx(old.value, rel=value_tol), case
                big = max(old.level_terms.values())
                assert old.level_terms.keys() <= new.level_terms.keys(), case
                for key, t in new.level_terms.items():
                    assert abs(t - old.level_terms.get(key, 0.0)) <= term_tol * big, (case, key)
                    if key not in old.level_terms:
                        assert t <= 1e-15 * big, (case, key)


def test_cw_route_raises_the_strict_tail_error_of_the_former_expansion():
    J, tf, params = 6, get_member("monomial2"), BesovParams(1.5, 2.0, 2.0)
    lam = CoefficientMap("cw-dual", 2, _former_cw_tensor(tf.factors, J, ((0.0, 1.0),) * 2,
                                                         tf.factor_breaks, prune=1e-13))
    with pytest.raises(DivergentTailError) as old:
        seq_norm_report(lam, params, strict=True, J=J)
    with pytest.raises(DivergentTailError) as new:
        norm_comparison(tf, params, ("cw",), J=J, strict=True)
    assert str(new.value) == str(old.value)


def test_dual_analysis_primal_synthesis_reconstructs_spline():
    # piecewise-linear f with knots on the level-2 grid lies in the span
    # of wavelets up to level 1; the expansion reproduces it exactly
    f = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    breaks = tuple(np.arange(-8, 13) / 4.0)
    lam = cw_analyze(f, J=1, box=((0.0, 1.0),), kind="dual", f_breaks=breaks)
    rec = cw_synthesize(lam, 6, using="primal")
    ref = GridFunction.from_callable(f, 1, 6, UNIT)
    assert np.max(np.abs(rec.values - ref.values)) < 1e-12


def _former_cw_synthesis(coeffs, m, using):
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
                cache[key] = psi_eval(*key, x) if primal else dual_piecewise(*key)(x)
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
    breaks = tf.factor_breaks if d == 2 else tf.factor_breaks[0]
    lam = cw_analyze(tf, J=3 - d, box=((0.0, 1.0),) * d, kind=kind, f_breaks=breaks)
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
    lam1 = cw_analyze(f, J=1, box=((0.0, 1.0),), kind="dual", f_breaks=b1)
    lam2 = cw_analyze(f2, J=2, box=((0.0, 0.5),), kind="dual", f_breaks=b2)
    for l in (0, 1):
        for k in range(-2, 8):
            a = lam1.entries.get(((l,), (k,)), 0.0)
            b = lam2.entries.get(((l + 1,), (k,)), 0.0)
            assert abs(a - b) < 1e-10


def test_dual_piecewise_father_integer_grid():
    w = dual_piecewise(-1, 0)
    # sum_n a_n N_2(x - n) interpolates a at the hat peaks x = n + 1
    for n in range(-5, 6):
        assert abs(w(np.array([n + 1.0]))[0] - dual_father_closed_form(n)) < 1e-8


def test_analyze_accepts_array_breakpoints():
    # f_breaks given as numpy arrays must behave like tuples in every branch
    f = lambda x: np.maximum(0.0, 1.0 - np.abs(4.0 * x - 2.0))
    breaks = np.arange(-8, 13) / 4.0
    lam_t = cw_analyze(f, J=1, box=((0.0, 1.0),), kind="dual", f_breaks=tuple(breaks))
    lam_f = cw_analyze(f=f, J=1, box=((0.0, 1.0),), kind="dual", f_breaks=breaks)
    assert lam_t.entries == lam_f.entries
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
            got = lam2.entries.get(((l[0], l2[0]), (k[0], k2[0])), 0.0)
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


def _former_apply(self, vals, axis):
    """_LevelAxis.apply as the former loop with one numpy step per tap of the
    generator: out += g * window[t : t + stride * n : stride]."""
    vals = np.moveaxis(vals, axis, 0)
    col = (-1,) + (1,) * (vals.ndim - 1)
    wf = self.weights.reshape(col) * vals
    frac = self.frac.reshape(col)
    n, s = len(self.shifts), self.stride
    window = np.zeros((s * n + len(self.gen),) + vals.shape[1:])
    window[self.cells] += np.add.reduceat(wf * (1.0 - frac), self.starts, axis=0)
    window[self.cells + 1] += np.add.reduceat(wf * frac, self.starts, axis=0)
    out = np.zeros((n,) + vals.shape[1:])
    for t, g in enumerate(self.gen):
        out += g * window[t : t + s * n : s]
    return np.moveaxis(out, 0, axis)


def _level_axis(l, box, kind, f_breaks=()):
    eps = min(l, 0)
    gen = psi_piecewise(eps, 0) if kind == "primal" else dual_piecewise(eps, 0)
    return _LevelAxis(l, box, f_breaks, gen)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _kinked(x):
    # zero off (0.2, 0.7), negative on part of it, kinked at 0.45
    return np.where((x > 0.2) & (x < 0.7), np.cos(7.0 * x) - np.abs(x - 0.45), 0.0)


@pytest.mark.parametrize("kind", ["primal", "dual"])
@pytest.mark.parametrize("box", [(0.0, 1.0), (0.0, 0.5), (-1.0, 2.0), (0.3, 0.3 + 2.0**-11)],
                         ids=["unit", "half", "wide", "sub-cell"])
def test_level_correlation_keeps_the_bits_of_the_per_tap_loop(kind, box):
    for l in range(-1, 9):
        axis = _level_axis(l, box, kind, (0.2, 0.45, 0.7))
        vals = _kinked(axis.nodes)
        _assert_same_bits(axis.apply(vals, 0), _former_apply(axis, vals, 0))


@pytest.mark.parametrize("kind", ["primal", "dual"])
@pytest.mark.parametrize("levels", [(5, 2), (0, 5), (-1, 3), (4, 4)])
def test_level_correlation_keeps_the_bits_in_2d(kind, levels):
    first, second = (_level_axis(l, (0.0, 1.0), kind) for l in levels)
    vals = np.exp(first.nodes)[:, None] * np.sin(3.0 * second.nodes) + np.abs(
        first.nodes[:, None] - 0.3) * second.nodes
    if kind == "dual":  # the rule gives chunks of len(nodes) // len(shifts) taps: four or more
        assert len(first.nodes) // len(first.shifts) < len(first.gen) // 4
    lam = first.apply(vals, 0)
    _assert_same_bits(lam, _former_apply(first, vals, 0))
    _assert_same_bits(second.apply(lam, 1), _former_apply(second, lam, 1))


def _analysis_peak():
    f2d = lambda x, y: np.exp(x) * np.sin(3.0 * y) + np.abs(x - 0.3) * y
    cw_analyze(f2d, J=1, box=((0.0, 1.0), (0.0, 1.0)), kind="dual")  # builds the dual once
    tracemalloc.start()
    try:
        cw_analyze(f2d, J=5, box=((0.0, 1.0), (0.0, 1.0)), kind="dual")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_correlation_keeps_the_memory_of_the_per_tap_loop(monkeypatch):
    peak = _analysis_peak()
    monkeypatch.setattr(_LevelAxis, "apply", _former_apply)
    assert peak <= 1.5 * _analysis_peak()


@pytest.mark.parametrize("box", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_analysis_rejects_a_box_that_is_not_an_interval(box):
    with pytest.raises(ConfigError, match="not a finite interval"):
        cw_analyze_1d(np.cos, 2, box)


def test_analysis_refuses_a_large_level_before_allocating(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("level axis made before the size check")

    monkeypatch.setattr(wavelets, "_LevelAxis", reached)
    with pytest.raises(ConfigError, match="level J=40 asks for a grid of about 2.2e[+]12 cells"):
        cw_analyze(np.cos, 40)
    with pytest.raises(ConfigError, match="level J=5000 asks"):
        cw_analyze_1d(np.cos, 5000, (0.0, 1.0))
    with pytest.raises(ConfigError, match="level J=30 asks"):
        cw_analyze(lambda x, y: x * y, 30, box=((0.0, 1.0), (0.0, 0.5)))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(f=lambda x, y: x * y, box=((0.0, 1.0),) * 2, f_breaks=[()]),
         "2 axes need as many f_breaks entries; got 1"),
        (dict(f=lambda x, y, z: x * y * z, box=((0.0, 1.0),) * 3), "d <= 2"),
        (dict(f=np.cos, box=()), "zero axes"),
    ],
    ids=["box-longer-than-breaks", "generic-d3", "zero-axes"],
)
def test_analysis_rejects_mismatched_axes(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        cw_analyze(J=2, **kwargs)


@pytest.mark.parametrize("side", ["bogus", "Dual", "", None])
def test_wavelet_side_is_primal_or_dual(side):
    # no other value may fall through to either analysis
    with pytest.raises(ConfigError, match="kind must be 'primal' or 'dual'"):
        cw_analyze(np.cos, J=1, kind=side)
    with pytest.raises(ConfigError, match="kind must be 'primal' or 'dual'"):
        cw_analyze_1d(np.cos, 1, (0.0, 1.0), kind=side)
    lam = CoefficientMap("cw-primal", 1, {((0,), (0,)): 1.0})
    with pytest.raises(ConfigError, match="using must be 'primal' or 'dual'"):
        cw_synthesize(lam, 4, using=side)
