"""Grid transforms against direct quadrature sums and exact index maps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from halfcos.errors import (
    AliasingError,
    ConfigError,
    DomainError,
    HalfcosError,
    ResolutionMismatchError,
)
from halfcos.grids import (
    SYM,
    UNIT,
    CoefficientMap,
    GridFunction,
    coefficient_decay_report,
    cos_basis,
    exp_basis,
    fourier_analyze_dense,
    fourier_synthesize_dense,
    hpc_analyze_dense,
    hpc_basis_1d,
    hpc_synthesize,
    hpc_synthesize_dense,
    periodize,
    rho,
    signed_fft_freqs,
    tent,
)
from halfcos import approx, besov, grids
from halfcos.wavelets import cw_synthesize, psi_eval
from halfcos.corpus import corpus, get_member, gibbs_demo
from halfcos.indexsets import hyperbolic_cross
from closed_forms import evenize


def test_point_maps():
    x = np.linspace(0.0, 1.0, 9)
    assert np.allclose(tent(x), 1.0 - np.abs(2.0 * x - 1.0))
    y = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(rho(y), np.abs(y))
    assert np.allclose(rho(y + 2.0), rho(y))
    assert np.allclose(rho(-y), rho(y))
    with pytest.raises(DomainError):
        tent(np.array([1.5]))
    with pytest.raises(DomainError):
        tent(np.array([0.5, np.nan]))
    # tent = rho after the affine chart t -> 2t - 1
    assert np.allclose(tent(x), 1.0 - rho(2.0 * x - 1.0))


def test_tent_matches_the_out_of_place_formula():
    x = np.random.default_rng(3).random((257, 3))
    x[:4, 0] = 0.0, 0.5, 1.0, np.nextafter(1.0, 0.0)
    assert np.array_equal(tent(x), 1.0 - np.abs(2.0 * x - 1.0))
    assert np.array_equal(tent(x[:, 1]), 1.0 - np.abs(2.0 * x[:, 1] - 1.0))
    before = x.copy()
    tent(x)
    assert np.array_equal(x, before)  # the input is not mutated
    for t in (0.0, 0.3, 1.0):
        got = tent(t)
        assert isinstance(got, np.float64) and got == 1.0 - abs(2.0 * t - 1.0)


def test_periodize_is_composition_with_rho():
    f0 = lambda x: np.exp(x) + x**2
    f = GridFunction.from_callable(f0, 1, 5, UNIT)
    via_rho = GridFunction.from_callable(lambda x: f0(rho(x)), 1, 5, SYM)
    assert np.array_equal(periodize(f).values, via_rho.values)


def _restrict(g: GridFunction) -> np.ndarray:
    """Values of a torus grid function at the unit-cube nodes: torus node
    n + i (n = 2^m) is unit node i, and node 2n wraps to torus node 0."""
    n = 2**g.m
    idx = (n + np.arange(n + 1)) % (2 * n)
    return g.values[np.ix_(*[idx] * g.d)]


def test_restrict_inverts_periodize_exactly():
    rng = np.random.default_rng(1)
    for d in (1, 2):
        f = GridFunction(UNIT, 4, rng.normal(size=(17,) * d))
        assert np.array_equal(_restrict(periodize(f)), f.values)


def test_scalar_product_relation_exact_for_arbitrary_values():
    # the 2-to-1 node preimage count makes this an identity of weights,
    # not an approximation statement
    rng = np.random.default_rng(2)
    for d in (1, 2):
        f = GridFunction(UNIT, 4, rng.normal(size=(17,) * d))
        g = GridFunction(UNIT, 4, rng.normal(size=(17,) * d))
        lhs = f.inner(g)
        rhs = 2.0**-d * periodize(f).inner(periodize(g))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_evenize_projector():
    rng = np.random.default_rng(3)
    g = GridFunction(SYM, 4, rng.normal(size=(32, 32)))
    e = evenize(g)
    assert np.allclose(evenize(e).values, e.values)
    n = g.axis_size
    idx = (n - np.arange(n)) % n
    assert np.allclose(e.values, e.values[idx, :])
    assert np.allclose(e.values, e.values[:, idx])
    # periodized functions are d-fold even already
    f = GridFunction(UNIT, 4, rng.normal(size=(17, 17)))
    pf = periodize(f)
    assert np.array_equal(evenize(pf).values, pf.values)


def test_hpc_analyze_matches_direct_quadrature():
    # independent route: explicit weighted sums, no fft
    m = 7
    f = GridFunction.from_callable(lambda x: np.exp(x), 1, m, UNIT)
    x = f.axis_points()
    w = f.axis_weights()
    dense = hpc_analyze_dense(f)
    for k in range(6):
        direct = float(np.sum(w * f.values * hpc_basis_1d(k, x)))
        assert abs(dense[k] - direct) < 1e-13


def test_hpc_round_trip_exact_on_cosine_polynomials():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        K = hyperbolic_cross(6, d, signed=False)
        coeffs = CoefficientMap(
            "hpc", d, {k: rng.normal() for k in K.members}
        )
        f = hpc_synthesize(coeffs, 5)
        dense = hpc_analyze_dense(f)
        for k in K.members:
            assert abs(dense[k] - coeffs.entries[k]) < 1e-12
        total = sum(abs(v) for v in coeffs.entries.values())
        outside = float(np.sum(np.abs(dense))) - sum(
            abs(dense[k]) for k in K.members
        )
        assert outside < 1e-10 * total


def test_orthonormality_gram_small():
    # half-period cosines are orthonormal; grid quadrature reproduces the
    # Gram matrix exactly below the aliasing threshold
    m, kmax = 5, 7
    x = np.arange(2**m + 1) * 2.0**-m
    w = np.full(x.size, 2.0**-m)
    w[0] *= 0.5
    w[-1] *= 0.5
    V = np.stack([hpc_basis_1d(k, x) for k in range(kmax + 1)], axis=1)
    G = V.T @ (w[:, None] * V)
    assert np.max(np.abs(G - np.eye(kmax + 1))) < 1e-13


def test_fourier_analyze_matches_direct_sum():
    m = 5
    g = GridFunction.from_callable(lambda x: np.exp(np.cos(np.pi * x)), 1, m, SYM)
    x = g.axis_points()
    h = 2.0**-m
    dense = fourier_analyze_dense(g)
    for k in (-3, 0, 2):
        direct = h * np.sum(g.values * np.conj(exp_basis((k,), x)))
        assert abs(dense[k] - direct) < 1e-13


def test_fourier_synthesize_dense_round_trip():
    rng = np.random.default_rng(5)
    m = 4
    n = 2 ** (m + 1)
    g = GridFunction(SYM, m, rng.normal(size=(n, n)))
    coeff = fourier_analyze_dense(g)
    back = fourier_synthesize_dense(coeff, m)
    assert np.max(np.abs(back.values - g.values)) < 1e-12


def test_signed_fft_freqs_layout():
    assert list(signed_fft_freqs(8)) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_basis_table_over_an_array_of_frequencies_equals_the_scalar_calls():
    x = np.random.default_rng(3).random(50)
    ks = np.array([0, 1, 2, 5, 17, 64, 0, 3])
    table = hpc_basis_1d(ks, x[:, None])
    assert table.shape == (50, 8)
    assert np.array_equal(table, np.stack([hpc_basis_1d(int(k), x) for k in ks], axis=1))
    assert np.array_equal(hpc_basis_1d(0, x), np.ones(50))
    assert np.array_equal(hpc_basis_1d(17, x), np.sqrt(2.0) * np.cos(np.pi * 17 * x))


def test_cosine_reflection_of_basis():
    m = 5
    x = -1.0 + np.arange(2 ** (m + 1)) * 2.0**-m
    for kbar in [(0,), (3,)]:
        f = hpc_synthesize(CoefficientMap("hpc", 1, {kbar: 1.0}), m)
        nnz = sum(1 for k in kbar if k)
        rhs = 2.0 ** ((nnz + 1) / 2.0) * cos_basis(kbar, x)
        assert np.max(np.abs(periodize(f).values - rhs)) < 1e-14


def test_aliasing_guard():
    # 2^m >= 4 kmax: a level-4 grid carries frequencies up to 4, not 5
    f = GridFunction.from_callable(np.exp, 1, 4, UNIT)
    assert len(coefficient_decay_report(f, 4)) == 5
    with pytest.raises(AliasingError, match="m=4 too low for frequencies up to 5"):
        coefficient_decay_report(f, 5)
    assert len(gibbs_demo(get_member("exp1"), 4, grid_level=4)) == 4
    with pytest.raises(AliasingError, match="m=4 too low for frequencies up to 5"):
        gibbs_demo(get_member("exp1"), 5, grid_level=4)


def test_decay_report_refuses_a_negative_box():
    f = GridFunction.from_callable(np.exp, 1, 4, UNIT)
    with pytest.raises(ConfigError, match="kmax must be >= 0, got -1"):
        coefficient_decay_report(f, -1)


def test_synthesis_refuses_a_large_grid_before_allocating(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("grid axis made before the size check")

    monkeypatch.setattr(grids, "_grid_axis", reached)
    with pytest.raises(ConfigError, match="grid level m=40 asks for a level-40 grid in d=1"):
        hpc_synthesize(CoefficientMap("hpc", 1, {(3,): 1.0}), 40)


@pytest.mark.parametrize("call, message", [
    (lambda: hpc_synthesize_dense(np.ones((3, 3)), -1), "grid level m must be >= 0, got -1"),
    (lambda: hpc_synthesize_dense(np.ones((3, 3)), 2.5), "grid level m must be an int, got 2.5"),
    (lambda: hpc_synthesize_dense(np.ones((3, 3)), 40), "m=40 asks for a level-40 grid in d=2"),
    (lambda: hpc_synthesize_dense(np.array(1.0), 3), "a grid needs d >= 1 axes, got d=0"),
    (lambda: fourier_synthesize_dense(np.ones((3, 3)), 40), "m=40 asks for a level-40 grid in d=2"),
    (lambda: fourier_synthesize_dense(np.ones(3), 2.5), "grid level m must be an int, got 2.5"),
    (lambda: hpc_analyze_dense(GridFunction(UNIT, 1, np.ones(3)), 2.5),
     "coefficient box size must be an int, got 2.5"),
    (lambda: GridFunction.from_callable(np.cos, 1, 40), "m=40 asks for a level-40 grid in d=1"),
    (lambda: GridFunction.from_callable(np.cos, 0, 3), "a grid needs d >= 1 axes, got d=0"),
    (lambda: hpc_analyze_dense(GridFunction(UNIT, 3, np.exp(1j * np.arange(9))), 3),
     "hpc_analyze_dense needs real samples, got a complex grid function"),
    (lambda: hpc_synthesize_dense(np.ones(3, dtype=complex), 3),
     "hpc_synthesize_dense needs real coefficients, got a complex tensor"),
], ids=["synth-m-1", "synth-m2.5", "synth-m40", "synth-0d", "fourier-m40", "fourier-m2.5",
        "analyze-size2.5", "sample-m40", "sample-0d", "analyze-complex", "synth-complex"])
def test_dense_layer_refuses_bad_input_before_allocating(call, message):
    # each refusal comes before any grid-sized array: an 8 TiB request would
    # be a MemoryError, and nothing past a few KB is traced
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=message):
            call()
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()


def test_grid_size_limit_admits_the_largest_grids_in_use():
    # the cosine blocks of `norms --fn kink2 --J 8` (2049^2), the ls_N64
    # benchmark item (1025^2), `identities --d 4` (64^4 = 2^24 exactly)
    for m, d, domain in ((11, 2, UNIT), (10, 2, UNIT), (5, 4, SYM), (23, 1, UNIT)):
        grids._check_grid_size(m, d, domain, "size")
    for m, d, domain in ((12, 2, UNIT), (24, 1, UNIT), (5, 5, SYM), (10**9, 1, UNIT),
                         (0, 10**9, UNIT)):
        with pytest.raises(ConfigError, match=f"--flag asks for a level-{m} grid in d={d}"):
            grids._check_grid_size(m, d, domain, "--flag")


def test_grid_level_must_be_nonnegative():
    with pytest.raises(ConfigError, match="grid level m must be >= 0, got -1"):
        GridFunction(UNIT, -1, np.zeros(2))
    with pytest.raises(ConfigError, match="grid level"):
        GridFunction.from_callable(np.cos, 1, -2, SYM)


def test_from_callable_names_both_shapes_of_an_output_that_does_not_broadcast():
    with pytest.raises(ResolutionMismatchError, match=r"f gave shape \(3,\), not broadcastable to \(9,\)"):
        GridFunction.from_callable(lambda x: np.ones(3), 1, 3)
    with pytest.raises(ResolutionMismatchError, match=r"shape \(2, 9\), not broadcastable to \(9, 9\)"):
        GridFunction.from_callable(lambda x, y: np.ones((2, 9)), 2, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_single_mode_synthesis_analyzes_back(k1, k2):
    coeffs = CoefficientMap("hpc", 2, {(k1, k2): 1.0})
    f = hpc_synthesize(coeffs, 5)
    dense = hpc_analyze_dense(f)
    assert abs(dense[k1, k2] - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_dense_analysis_gives_back_a_synthesized_tensor_off_slot_2m(d, m, seed):
    n = 2**m + 1
    coeff = np.random.default_rng(seed).normal(size=(n,) * d)
    top = np.ones(n)
    top[-1] = 2.0  # the trapezoid rule gives c_{2^m} the squared norm 2
    back = hpc_analyze_dense(hpc_synthesize_dense(coeff, m))
    doubled = grids._weigh(coeff, [top] * d)
    assert np.max(np.abs(back - doubled)) < 1e-13 * np.max(np.abs(doubled))
    for ax in range(d):
        coeff[grids._axis_index(ax, -1)] = 0.0
    back = hpc_analyze_dense(hpc_synthesize_dense(coeff, m))
    assert np.max(np.abs(back - coeff)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_restrict_of_periodize_is_bit_equal(d, m, seed):
    # any bit pattern, NaNs, infinities and -0.0 included
    bits = np.random.default_rng(seed).integers(0, 2**64, (2**m + 1,) * d, dtype=np.uint64)
    f = GridFunction(UNIT, m, bits.view(float))
    assert np.array_equal(_bits(_restrict(periodize(f))), bits)


def test_lp_norms_against_closed_forms():
    f = GridFunction.from_callable(lambda x: x, 1, 10, UNIT)
    assert abs(f.lp_norm(np.inf) - 1.0) < 1e-15
    assert abs(f.lp_norm(2.0) - math.sqrt(1.0 / 3.0)) < 1e-6
    assert abs(f.lp_norm(1.0) - 0.5) < 1e-15


# (2, 10) and (3, 7) span several blocks of the synthesis (17 and 43 of
# them), (2, 10) with a ragged last block; the others fit in one.
@pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (3, 3), (2, 10), (3, 7)])
def test_synthesis_matches_the_per_term_grid_loop(d, m):
    rng = np.random.default_rng(10 + d)
    entries = {
        tuple(int(k) for k in rng.integers(0, 3 * 2**m, size=d)): float(rng.normal())
        for _ in range(10)
    }
    entries[(0,) * d] = 0.5
    entries[(2**m,) * d] = -0.25  # folds onto the Nyquist row of the grid
    n = 2**m + 1
    x = np.arange(n) * 2.0**-m
    ref = np.zeros((n,) * d)
    for k, v in sorted(entries.items()):
        piece = np.ones((n,) * d)
        for ax, ki in enumerate(k):
            shape = [1] * d
            shape[ax] = -1
            piece = piece * hpc_basis_1d(ki, x).reshape(shape)
        ref += v * piece
    got = hpc_synthesize(CoefficientMap("hpc", d, entries), m).values
    assert np.array_equal(got, ref)
    if m >= 7:  # the block cases must not fit in one block
        assert 8 * n**d > 2 * grids._SYNTH_BLOCK_BYTES


def _former_synthesize_terms(items, row, n, d):
    """The term loop of hpc_synthesize as it was when its last outer product
    was np.multiply.outer(..., out=buf), kept as the reference."""
    rows, terms = {}, []
    for keys, v in items:
        for key in keys:
            if key not in rows:
                rows[key] = row(key)
        terms.append((keys[0], [rows[key] for key in keys[1:]], np.real(v)))
    out = np.zeros((n,) * d)
    step = max(1, grids._SYNTH_BLOCK_BYTES // (out.itemsize * n ** (d - 1)))
    for lo in range(0, n, step):
        block = out[lo : lo + step]
        buf = np.empty_like(block)
        lead = rows if step >= n else {key: r[lo : lo + step] for key, r in rows.items()}
        for key, factors, v in terms:
            piece = lead[key]
            for factor in factors[:-1]:
                piece = np.multiply.outer(piece, factor)
            if factors:
                piece = np.multiply.outer(piece, factors[-1], out=buf)
            np.multiply(piece, v, out=buf)
            block += buf
    return out


def _cw_keys(d, rng):
    """Twelve random (levels, shifts) keys of a d-dimensional wavelet map,
    with repeated rows."""
    return [(tuple(int(l) for l in rng.integers(-1, 3, size=d)),
             tuple(int(k) for k in rng.integers(-2, 4, size=d))) for _ in range(12)]


# (2, 10) and (3, 7) span several blocks of the synthesis; the others fit in one.
@pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (3, 3), (2, 10), (3, 7)])
@pytest.mark.parametrize("keys", ["random", "cross", "leading", "negzero", "cw"])
def test_synthesis_is_bit_identical_to_the_former_outer_products(d, m, keys):
    rng = np.random.default_rng(20 + d)
    x = np.arange(2**m + 1) * 2.0**-m
    if keys == "cw":  # wavelet rows, none of them all ones
        coeffs = CoefficientMap("cw-primal", d, {key: float(rng.normal()) for key in _cw_keys(d, rng)})
        items = [(tuple(zip(j, k)), v) for (j, k), v in coeffs.items_sorted()]
        ref = _former_synthesize_terms(items, lambda key: psi_eval(*key, x), x.size, d)
        assert not any(np.all(psi_eval(*key, x) == 1.0) for pairs, _ in items for key in pairs)
        got = cw_synthesize(coeffs, m).values
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        return
    if keys == "random":  # with repeated rows, the Nyquist row and aliased keys
        kbars = [tuple(int(k) for k in rng.integers(0, 3 * 2**m, size=d)) for _ in range(12)]
        kbars += [(0,) * d, (2**m,) * d]
    elif keys == "leading":  # every k_0 = 0: the map is one leading run
        kbars = [(0,) + tuple(int(k) for k in rng.integers(0, 2**m, size=d - 1)) for _ in range(12)]
    else:  # the cross, for negzero too; it spans several blocks at (3, 7)
        kbars = [tuple(int(k) for k in kbar) for kbar in hyperbolic_cross(9, d, signed=False).as_array()]
    vals = rng.normal(size=len(kbars))
    if keys == "negzero":  # -0.0 terms, whose products are signed zeros
        vals[::2] = -0.0
    coeffs = CoefficientMap("hpc", d, dict(zip(kbars, vals.tolist())))
    ref = _former_synthesize_terms(coeffs.items_sorted(), lambda k: hpc_basis_1d(k, x), x.size, d)
    got = hpc_synthesize(coeffs, m).values
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_synthesis_sums_the_leading_run_once_on_the_slab(monkeypatch):
    # k_0 = 0 terms come first in key order; each run is summed one axis down
    calls = []
    sum_terms = grids._sum_terms

    def recorded(terms, n, d):
        calls.append((len(terms), d))
        return sum_terms(terms, n, d)

    monkeypatch.setattr(grids, "_sum_terms", recorded)
    coeffs = CoefficientMap("hpc", 3, {(0, 0, 1): 1.0, (0, 0, 2): 1.0, (0, 1, 1): 1.0,
                                       (1, 0, 0): 1.0, (2, 2, 2): 1.0})
    hpc_synthesize(coeffs, 3)
    assert calls == [(5, 3), (3, 2), (2, 1)]


@pytest.mark.parametrize("d, m, kmax", [(1, 7, 32), (2, 6, 16), (3, 4, 4)])
def test_decay_report_matches_the_box_walk(d, m, kmax):
    f = GridFunction.from_callable(lambda *xs: np.exp(sum(xs)), d, m, UNIT)
    dense = hpc_analyze_dense(f)
    ref = []
    for k in np.ndindex(*([kmax + 1] * d)):
        weight = 1.0
        for ki in k:
            weight *= max(1, ki) ** 2
        ref.append((k, abs(float(dense[k])) * weight))
    assert coefficient_decay_report(f, kmax) == ref


# Reference routes kept here to pin the separable kernels bit for bit:
# one dctn over the zero-padded scaled tensor, sign-vector multiplies,
# np.take mirroring and full meshgrids.


def _dctn_synthesis(coeff, m):
    d = coeff.ndim
    n = 2**m + 1
    full = np.zeros((n,) * d)
    sl = tuple(slice(0, min(s, n)) for s in coeff.shape)
    full[sl] = coeff[sl]
    scale = np.full(n, 0.5)
    scale[0] = scale[-1] = 1.0
    norm = np.ones(n)
    norm[1:] = np.sqrt(2.0)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = -1
        full = full * (norm * scale).reshape(shape)
    return scipy.fft.dctn(full, type=1)


def _sign_multiply(coeff):
    n = coeff.shape[0]
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    for ax in range(coeff.ndim):
        shape = [1] * coeff.ndim
        shape[ax] = -1
        coeff = coeff * sign.reshape(shape)
    return coeff


@pytest.mark.parametrize("d, m", [(1, 7), (2, 5), (3, 3)])
@pytest.mark.parametrize("extra", [-5, 0, 3])
def test_pruned_synthesis_matches_one_dctn(d, m, extra):
    rng = np.random.default_rng(100 * d + extra)
    n = 2**m + 1
    for shape in [(n + extra,) * d, tuple(n + extra - 2 * ax for ax in range(d))]:
        coeff = rng.normal(size=shape)
        coeff[coeff < -0.5] = 0.0  # exact zeros, as in the cosine blocks
        got = hpc_synthesize_dense(coeff, m).values
        assert got.shape == (n,) * d
        assert np.array_equal(got, _dctn_synthesis(coeff, m))


_DENSE_SHAPES = [(1, m) for m in range(12)] + [(2, m) for m in range(11)] + [
    (3, m) for m in range(7)
]


def _same_bits(got, ref):
    """Equal values and equal zero signs: the bytes of the two arrays."""
    return np.array_equal(got, ref) and got.tobytes() == ref.tobytes()


def _with_zero_lines(values, rng):
    """values with one whole line of +0.0 and one of -0.0 along each axis:
    the +0.0 lines are skipped by the transforms, the -0.0 ones are not."""
    values = values.copy()
    for ax in range(values.ndim):
        for zero in (0.0, -0.0):
            index = [int(rng.integers(s)) for s in values.shape]
            index[ax] = slice(None)
            values[tuple(index)] = zero
    return values


@pytest.mark.parametrize("d, m", _DENSE_SHAPES)
def test_dense_cosine_transforms_equal_scipy_dctn(d, m):
    rng = np.random.default_rng(10 * d + m)
    n = 2**m + 1
    h = 2.0**-m
    g = GridFunction(UNIT, m, _with_zero_lines(rng.normal(size=(n,) * d), rng))
    norm = np.ones(n)
    norm[1:] = np.sqrt(2.0)
    ref = scipy.fft.dctn(g.values, type=1) * (h / 2.0) ** d
    for ax in range(d):
        ref = ref * grids._along(norm, ax, d)
    assert _same_bits(hpc_analyze_dense(g), ref)
    ragged = tuple(max(1, n - 3 * ax - m % 3) for ax in range(d))
    for shape in [(n,) * d, (max(1, n - 2),) * d, ragged, (n + 2,) * d]:
        coeff = _with_zero_lines(rng.normal(size=shape), rng)
        coeff[coeff < -1.0] = 0.0  # scattered exact zeros, as in the cosine blocks
        assert _same_bits(hpc_synthesize_dense(coeff, m).values, _dctn_synthesis(coeff, m))


def _cosine_sum_synthesis(coeff, m):
    """sum_k coeff[k] c_k(x) on the level-m grid, term by term."""
    x = grids._grid_axis(UNIT, m)
    out = np.zeros((x.size,) * coeff.ndim)
    for k in np.ndindex(*coeff.shape):
        term = coeff[k]
        for ax, ki in enumerate(k):
            term = term * grids._along(hpc_basis_1d(ki, x), ax, coeff.ndim)
        out = out + term
    return out


@pytest.mark.parametrize("d, m, size", [(1, 0, 2), (1, 4, 9), (1, 6, 65), (2, 3, 5), (3, 2, 3)])
def test_dense_cosine_transforms_match_cosine_sums(d, m, size):
    rng = np.random.default_rng(m + d)
    coeff = rng.normal(size=(size,) * d)
    coeff[(0,) * (d - 1)] = 0.0  # one exact-zero line
    ref = _cosine_sum_synthesis(coeff, m)
    g = hpc_synthesize_dense(coeff, m)
    assert np.allclose(g.values, ref, rtol=0.0, atol=1e-13 * np.abs(coeff).sum())
    # Analysis by trapezoid quadrature against each c_k: the DCT-I inverts
    # the synthesis for frequencies below 2^m.
    back = hpc_analyze_dense(g)[(slice(0, size),) * d]
    keep = coeff[(slice(0, min(size, 2**m)),) * d]
    assert np.allclose(back[(slice(0, keep.shape[0]),) * d], keep, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (3, 3)])
def test_pruned_cosine_analysis_is_the_slice_of_the_full_one(d, m):
    rng = np.random.default_rng(30 + d)
    n = 2**m + 1
    g = GridFunction(UNIT, m, _with_zero_lines(rng.normal(size=(n,) * d), rng))
    full = hpc_analyze_dense(g)
    for size in (1, n // 2, n, n + 3):
        got = hpc_analyze_dense(g, size)
        assert got.shape == (min(size, n),) * d
        assert np.array_equal(_bits(got), _bits(full[(slice(0, size),) * d]))
    for size in (0, -1):
        with pytest.raises(ConfigError, match=f"box size must be >= 1, got {size}"):
            hpc_analyze_dense(g, size)


@pytest.mark.parametrize("d, m", [(1, 5), (2, 4), (3, 2), (3, 5)])
def test_fourier_dense_signs_match_the_sign_vector(d, m):
    rng = np.random.default_rng(d)
    n = 2 ** (m + 1)
    h = 2.0**-m
    g = GridFunction(SYM, m, rng.normal(size=(n,) * d))
    ref = _sign_multiply(scipy.fft.fftn(g.values.astype(complex)) * h**d * 2.0 ** (-d / 2.0))
    assert np.array_equal(fourier_analyze_dense(g), ref)

    coeff = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
    kept = coeff.copy()
    ref = scipy.fft.ifftn(_sign_multiply(coeff)) / (h**d * 2.0 ** (-d / 2.0))
    assert np.array_equal(fourier_synthesize_dense(coeff, m).values, ref)
    assert np.array_equal(coeff, kept)  # the caller's tensor is not touched


def _slot_cases(n, d, rng):
    """Per-axis masks of kept slots: random proper subsets, one slot, all slots."""
    masks = np.zeros((3, d, n), dtype=bool)
    for ax in range(d):
        masks[0, ax, rng.choice(n, size=rng.integers(1, n), replace=False)] = True
    masks[1, :, rng.integers(n)] = True
    masks[2] = True
    return [list(case) for case in masks]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_pruned_fourier_transforms_equal_the_full_ones_bit_for_bit(d, m):
    rng = np.random.default_rng(10 * d + m)
    n = 2 ** (m + 1)
    g = GridFunction(SYM, m, rng.normal(size=(n,) * d))
    full = fourier_analyze_dense(g)
    for slots in _slot_cases(n, d, rng):
        kept = np.ix_(*slots)
        assert np.array_equal(_bits(fourier_analyze_dense(g, slots)), _bits(full[kept]))
        small = rng.normal(size=full[kept].shape) + 1j * rng.normal(size=full[kept].shape)
        scattered = np.zeros((n,) * d, dtype=complex)
        scattered[kept] = small
        pruned = fourier_synthesize_dense(small, m, slots).values
        assert np.array_equal(_bits(pruned), _bits(fourier_synthesize_dense(scattered, m).values))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_unit_input_is_analysed_as_its_periodization_bit_for_bit(d, m):
    rng = np.random.default_rng(100 + 10 * d + m)
    n = 2**m + 1
    values = _with_zero_lines(rng.normal(size=(n,) * d), rng)
    values[rng.random(values.shape) < 0.1] = -0.0
    values[rng.random(values.shape) < 0.1] = 0.0
    f = GridFunction(UNIT, m, values)
    for slots in [None] + _slot_cases(2 * n - 2, d, rng):
        got = fourier_analyze_dense(f, slots)
        assert np.array_equal(_bits(got), _bits(fourier_analyze_dense(periodize(f), slots)))


def _former_synthesize(coeff, m, slots):
    """fourier_synthesize_dense as it was with the scaling in two passes,
    1/n^d and then 1/(h^d 2^(-d/2)): the reference for its one division."""
    d, n, h = coeff.ndim, 2 ** (m + 1), 2.0**-m
    vals = np.array(coeff, dtype=complex)
    grids._negate_odd(vals, slots)
    for ax, keep in enumerate(slots):
        full = np.zeros(vals.shape[:ax] + (n,) + vals.shape[ax + 1 :], dtype=complex)
        full[grids._axis_index(ax, keep)] = vals
        vals = full
        np.fft.ifft(vals, axis=ax, norm="forward", out=vals)
    vals *= 1.0 / vals.size
    vals /= h**d * 2.0 ** (-d / 2.0)
    return vals


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_synthesis_scales_as_the_two_pass_form_bit_for_bit(d, m):
    rng = np.random.default_rng(200 + 10 * d + m)
    n = 2 ** (m + 1)
    for slots in _slot_cases(n, d, rng):
        shape = tuple(np.count_nonzero(keep) for keep in slots)
        coeff = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coeff[rng.random(shape) < 0.2] = 0.0
        coeff[rng.random(shape) < 0.2] = -0.0
        got = fourier_synthesize_dense(coeff, m, slots).values
        assert np.array_equal(_bits(got), _bits(_former_synthesize(coeff, m, slots)))


@pytest.mark.parametrize("d, m", [(1, 2), (2, 3), (3, 5)])
def test_cosine_polynomial_inside_the_slots_round_trips(d, m):
    rng = np.random.default_rng(d + m)
    n = 2 ** (m + 1)
    freqs = signed_fft_freqs(n)
    mesh = np.ix_(*[grids._grid_axis(SYM, m)] * d)
    # each axis keeps the slots of +-k of every term, and one slot more
    slots, values = np.zeros((d, n), dtype=bool), np.zeros((n,) * d)
    slots[:, n // 2] = True
    for _ in range(4):
        kbar = tuple(int(k) for k in rng.integers(0, 2**m, size=d))
        values = values + rng.normal() * cos_basis(kbar, *mesh)
        for ax, k in enumerate(kbar):
            slots[ax] |= np.abs(freqs) == k
    slots = list(slots)
    g = GridFunction(SYM, m, values)
    back = fourier_synthesize_dense(fourier_analyze_dense(g, slots), m, slots)
    assert np.max(np.abs(back.values - g.values)) < 1e-12 * np.max(np.abs(g.values))


_MASK = np.ones(8, dtype=bool)


@pytest.mark.parametrize(
    "slots",
    [
        [_MASK[:7]],  # wrong length
        [np.ones(9, dtype=bool)],
        [[0, 1]],  # slot indices, not a mask: wrong dtype
        [np.ones(8)],
        [np.ones(8, dtype=np.int8)],
        [_MASK, _MASK],  # wrong axis count
        [[_MASK]],
    ],
)
def test_bad_kept_slots_raise(slots):
    g = GridFunction(SYM, 2, np.ones(8))
    with pytest.raises(HalfcosError):
        fourier_analyze_dense(g, slots)
    with pytest.raises(HalfcosError):
        fourier_synthesize_dense(np.ones(2, dtype=complex), 2, slots)


def test_kept_tensor_of_the_wrong_shape_raises():
    with pytest.raises(ResolutionMismatchError):
        fourier_synthesize_dense(np.ones((3, 2)), 2, [np.arange(8) % 4 == 1] * 2)
    with pytest.raises(ResolutionMismatchError):
        fourier_synthesize_dense(np.ones((8, 7)), 2)


def _fft_lines(monkeypatch):
    """Record (function, axis, lines transformed) of every np.fft.fft and
    np.fft.ifft call."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, axis=-1, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append((_name, axis % a.ndim, a.size // a.shape[axis]))
            return _fn(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_torus_projection_transforms_only_the_cross_slots(monkeypatch):
    d, m, N = 3, 5, 4  # |k_i| <= 3: 7 of 64 slots per axis
    g = periodize(hpc_synthesize(CoefficientMap("hpc", d, {(1, 2, 0): 1.0}), m))
    calls = _fft_lines(monkeypatch)
    approx._torus_projection(g, N)
    assert calls == [("fft", 0, 64 * 64), ("fft", 1, 64 * 7), ("fft", 2, 7 * 7),
                     ("ifft", 0, 7 * 7), ("ifft", 1, 64 * 7), ("ifft", 2, 64 * 64)]


def test_torus_projection_of_unit_samples_transforms_only_their_distinct_lines(monkeypatch):
    # each axis is mirrored just before its own FFT, so until then it holds
    # its 33 distinct lines; the synthesis is full-grid, as for torus input
    d, m, N = 3, 5, 4
    f = hpc_synthesize(CoefficientMap("hpc", d, {(1, 2, 0): 1.0}), m)
    ref = approx._torus_projection(periodize(f), N)
    calls = _fft_lines(monkeypatch)
    got = approx._torus_projection(f, N)
    assert calls == [("fft", 0, 33 * 33), ("fft", 1, 7 * 33), ("fft", 2, 7 * 7),
                     ("ifft", 0, 7 * 7), ("ifft", 1, 64 * 7), ("ifft", 2, 64 * 64)]
    assert np.array_equal(_bits(got.values), _bits(ref.values))


def _dct_lines(monkeypatch):
    """Record [axis, lines transformed] of every _dct1 call: the rows of
    the real FFTs it runs."""
    calls = []
    rfft, dct1 = np.fft.rfft, grids._dct1

    def counted_rfft(a, *args, **kwargs):
        calls[-1][1] += a.shape[0]
        return rfft(a, *args, **kwargs)

    def counted_dct1(x, axis, *args, **kwargs):
        calls.append([axis, 0])
        return dct1(x, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(grids, "_dct1", counted_dct1)
    return calls


def test_cosine_projection_transforms_only_the_lines_of_the_box(monkeypatch):
    d, m, N = 3, 5, 4  # k_i <= 3: 4 of 33 slots per axis
    g = GridFunction(UNIT, m, np.random.default_rng(3).normal(size=(33,) * d))
    calls = _dct_lines(monkeypatch)
    approx.project_dense(g, N)
    # analysis keeps 4 slots per axis; the synthesis transforms the 8 live
    # lines of the cross box, (1 + k_1)(1 + k_2) <= 4, then pads
    assert calls == [[0, 33 * 33], [1, 4 * 33], [2, 4 * 4],
                     [0, 8], [1, 33 * 4], [2, 33 * 33]]


def test_block_identity_transforms_only_the_support_of_the_blocks(monkeypatch):
    # phi_0 keeps 3 and phi_3 keeps 22 of the 64 slots; the unit samples
    # are analysed through their mirror index, so axis 0 has 33 lines
    calls = _fft_lines(monkeypatch)
    besov.periodization_block_identity(
        CoefficientMap("hpc", 2, {(0, 6): 1.0, (1, 9): 0.5}), (0, 3), 2.0, grid_level=5
    )
    assert calls == [("fft", 0, 33), ("fft", 1, 3), ("ifft", 0, 22), ("ifft", 1, 64)]


def _former_dct1(x, axis, n=None, keep=None):
    """The DCT-I kernel before batches of live lines by index: a 2-D tiling
    of (lead, trail) boxes, each moved by slices when all its lines are
    live, by index when some are, and skipped when none are."""
    x = np.asarray(x, dtype=float)
    size = x.shape[axis]
    n = size if n is None else n
    keep = n if keep is None else keep
    lead, trail = x.shape[:axis], x.shape[axis + 1 :]
    pre, post = math.prod(lead), math.prod(trail)
    x3 = x.reshape(pre, size, post)
    out = np.zeros(lead + (keep,) + trail)
    out3 = out.reshape(pre, keep, post)
    live = np.any(x3.view(np.uint64), axis=1)
    if not live.any():
        return out
    ext = 2 * (n - 1)
    top = min(size, n - 1)
    batch = max(1, 256 * 1024 // (ext * x.itemsize))
    height, width = max(1, batch // post), min(post, batch)
    buf = np.zeros((min(batch, pre * post), ext))
    spec = np.empty((buf.shape[0], n), dtype=complex)
    for p in range(0, pre, height):
        for c in range(0, post, width):
            lines = live[p : p + height, c : c + width]
            k = np.count_nonzero(lines)
            if k == lines.size:
                box, rows, order = np.s_[p : p + height, :, c : c + width], lines.shape, (0, 2, 1)
            elif k:
                i, j = np.nonzero(lines)
                box, rows, order = (i + p, slice(None), j + c), (k,), (0, 1)
            else:
                continue
            b, s = buf[:k], spec[:k]
            b.reshape(rows + (ext,))[..., :size] = x3[box].transpose(order)
            b[:, ext - top + 1 :] = b[:, top - 1 : 0 : -1]
            np.fft.rfft(b, axis=-1, out=s)
            out3[box] = s.real[:, :keep].reshape(rows + (keep,)).transpose(order)
    return out


@pytest.mark.parametrize("batch_bytes", [1024, grids._DCT_BATCH_BYTES])
@pytest.mark.parametrize("shape", [(7,), (9, 6), (5, 6, 7), (33, 33, 9)])
def test_batched_dct1_equals_the_former_kernel_bit_for_bit(monkeypatch, batch_bytes, shape):
    # every axis, padded (n > size) and truncated (keep < n), with a line of
    # +0.0 (skipped) and one of -0.0 (transformed), and an all-zero input;
    # 1 KiB batches split the lines into several, the last one partial
    monkeypatch.setattr(grids, "_DCT_BATCH_BYTES", batch_bytes)
    rng = np.random.default_rng(len(shape) + shape[0])
    x = _with_zero_lines(rng.normal(size=shape), rng)
    x[x < -1.2] = 0.0
    rows, rfft = [], np.fft.rfft

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    batches = []  # the rows of each batch, per call
    for ax, size in enumerate(shape):
        live = np.count_nonzero(np.any(np.moveaxis(x, ax, -1).view(np.uint64), axis=-1))
        for n, keep in [(None, None), (None, 2), (size + 4, None), (size + 4, 3)]:
            for values, lines in ((x, live), (np.zeros(shape), 0)):
                rows.clear()
                got = grids._dct1(values, ax, n, keep)
                batches.append(list(rows))
                assert sum(rows) == lines, (ax, n, keep)
                assert _same_bits(got, _former_dct1(values, ax, n, keep)), (ax, n, keep)
    if batch_bytes == 1024 and len(shape) > 1:
        assert any(len(b) > 2 and b[-1] < b[0] for b in batches)  # a partial last batch


def _scratch_bytes(run):
    """Peak traced bytes of run() less those of the array it returns."""
    run()  # plans and caches are made once, outside the measurement
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


def test_dense_cosine_transforms_keep_their_scratch_to_a_few_batches():
    # a 1025^2 analysis kept to 64^2 and a 64^2 synthesis onto the 1025^2
    # grid: the 64 x 1025 tensor between the two axes and a few batches
    # of lines, where a transform of all 1025 lines at once takes 16 MB
    rng = np.random.default_rng(5)
    g = GridFunction(UNIT, 10, rng.normal(size=(1025, 1025)))
    coeff = rng.normal(size=(64, 64))
    limit = 4 * grids._DCT_BATCH_BYTES
    assert _scratch_bytes(lambda: hpc_analyze_dense(g, 64)) <= limit
    assert _scratch_bytes(lambda: hpc_synthesize_dense(coeff, 10).values) <= limit


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3), (3, 2)])
def test_periodize_matches_index_mirroring(d, m):
    f = GridFunction(UNIT, m, np.random.default_rng(m).normal(size=(2**m + 1,) * d))
    n = 2**m
    ref = f.values
    for ax in range(d):
        ref = np.take(ref, np.abs(np.arange(2 * n) - n), axis=ax)
    assert np.array_equal(periodize(f).values, ref)


@pytest.mark.parametrize("kbar", [(3,), (2, 5), (0, 4, 7), (-3, 1, 2)])
def test_bases_on_open_mesh_match_full_meshgrid(kbar):
    x = -1.0 + np.arange(32) * 2.0**-4
    full = np.meshgrid(*[x] * len(kbar), indexing="ij")
    open_mesh = np.ix_(*[x] * len(kbar))
    assert np.array_equal(cos_basis(kbar, *open_mesh), cos_basis(kbar, *full))
    assert np.array_equal(exp_basis(kbar, *open_mesh), exp_basis(kbar, *full))


@pytest.mark.parametrize("dtype", [float, np.float32, complex, np.int64])
def test_lp_norm_matches_the_out_of_place_power(dtype):
    vals = (np.random.default_rng(4).normal(size=(9, 9)) * 7).astype(dtype)
    f = GridFunction(UNIT, 3, vals.copy())
    for p in (1.0, 1.5, 2.0, 3.0):
        powed = GridFunction(UNIT, 3, np.abs(vals) ** p)
        assert f.lp_norm(p) == float(powed.integrate()) ** (1.0 / p)
    assert np.array_equal(f.values, vals)


def _meshgrid_samples(f, d, m, domain):
    """Samples of f on full np.meshgrid arrays of the grid."""
    n = 2**m + 1 if domain == UNIT else 2 ** (m + 1)
    ax = GridFunction(domain, m, np.zeros(n)).axis_points()
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    return np.broadcast_to(np.asarray(f(*mesh)), mesh[0].shape)


@pytest.mark.parametrize("domain", [UNIT, SYM])
@pytest.mark.parametrize("name", sorted(corpus()))
def test_open_mesh_sampling_matches_full_meshgrid(name, domain):
    member = corpus()[name]
    for d in (1, 2, 3):
        power = [member.factors[0]] * d
        mixed = [member.factors[0], np.exp, np.sin][:d]  # tells the axes apart
        m = 5 if d == 3 else 7
        for factors in (power, mixed):
            tf = dataclasses.replace(member, d=d, factors=factors)
            got = GridFunction.from_callable(tf, d, m, domain).values
            assert np.array_equal(got, _meshgrid_samples(tf, d, m, domain)), (name, d)


def test_alias_free_level_equals_the_former_float_formulas():
    # hpc_besov_norm used floor 4; hpc_map_numeric and `coeffs --mode decay` floor 6
    ks = list(range(2**16 + 1)) + [2**e + s for e in range(17, 41) for s in (-1, 0, 1)]
    for k in ks:
        for floor in (4, 6):
            want = max(floor, math.ceil(math.log2(4 * max(k, 1))))
            assert grids._alias_free_level(k, floor) == want, (k, floor)
    for k in (0, 1, 16, 17, 2**20):
        level = grids._alias_free_level(k, 0)
        grids._check_aliasing(level, k)  # admitted, and one level lower is not
        with pytest.raises(AliasingError):
            grids._check_aliasing(level - 1, k)


# Grids of the oracle tests: (domain, m) with 33, 64 and 1025 points per axis.
_ORACLE_GRIDS = [(d, domain, m) for d in (1, 2, 3) for domain, m in ((UNIT, 5), (SYM, 5))]
_ORACLE_GRIDS += [(d, UNIT, 10) for d in (1, 2)]


def _oracle_values(d, n, complex_, seed):
    """Random samples with +0.0, -0.0 and NaN entries, in C order, again with the NaN
    replaced, transposed, reversed along axis 0, and as every other entry of a wider array."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(n,) * (d - 1) + (2 * n,))
    if complex_:
        wide = wide + 1j * rng.normal(size=wide.shape)
    flat = wide.reshape(-1)
    flat[rng.integers(0, flat.size, 4)] = 0.0
    flat[rng.integers(0, flat.size, 4)] = -0.0
    flat[rng.integers(0, flat.size, 2)] = np.nan
    c_order = np.ascontiguousarray(wide[..., ::2])
    clean = np.nan_to_num(c_order, nan=1.5)  # an integral that is a number, too
    return [c_order, clean, c_order.T, c_order[::-1], wide[..., ::2]]


def _bytes(x) -> bytes:
    return np.asarray(x).tobytes()


def _tensordot_integral(values, w):
    out = values
    for _ in range(values.ndim):
        out = np.tensordot(out, w, axes=([-1], [0]))
    return complex(out) if np.iscomplexobj(values) else float(out)


@pytest.mark.parametrize("d, domain, m", _ORACLE_GRIDS)
def test_integrate_and_inner_equal_the_tensordot_formulas_byte_for_byte(d, domain, m):
    n = 2**m + 1 if domain == UNIT else 2 ** (m + 1)
    w = GridFunction(domain, m, np.zeros((n,) * d)).axis_weights()
    for complex_ in (False, True):
        for seed, a in enumerate(_oracle_values(d, n, complex_, 10 * d + m)):
            f = GridFunction(domain, m, a)
            assert _bytes(f.integrate()) == _bytes(_tensordot_integral(a, w))
            for b in _oracle_values(d, n, seed % 2 == 1, seed)[:3]:
                want = _tensordot_integral(a * np.conj(b), w)
                assert _bytes(f.inner(GridFunction(domain, m, b))) == _bytes(want)
            assert np.array_equal(f.values, a, equal_nan=True)  # no argument is written


@pytest.mark.parametrize("kbar", [(3,), (-2,), (2, -5), (0, 4, 7), (-3, 1, 2)])
def test_exp_basis_equals_the_out_of_place_scaling_byte_for_byte(kbar):
    d = len(kbar)
    x = -1.0 + np.arange(64) * 2.0**-5
    x[[3, 7, 11]] = 0.0, -0.0, np.nan
    for axes in (np.ix_(*[x] * d), np.meshgrid(*[x] * d, indexing="ij"), [0.25] * d, [-0.0] * d):
        out = None
        for k, t in zip(kbar, axes):
            e = np.exp(1j * np.pi * k * np.asarray(t, dtype=float))
            out = e if out is None else out * e
        got = exp_basis(kbar, *axes)
        assert _bytes(got) == _bytes(2.0 ** (-d / 2) * out)
        assert np.ndim(got) == 0 or (got.flags.writeable and got.flags.owndata)


def test_phi_tables_are_cached_read_only_and_phi_stays_fresh():
    ks = signed_fft_freqs(64).astype(float)
    table = besov._phi_table(2, 64, True)
    assert besov._phi_table(2, 64, True) is table and not table.flags.writeable
    assert _bytes(table) == _bytes(besov.phi(2, ks))
    assert _bytes(besov._phi_table(3, 17, False)) == _bytes(besov.phi(3, np.arange(17.0)))
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert besov._phi_table.cache_info().maxsize == 64
    fresh = besov.phi(2, ks)
    assert fresh.flags.writeable and fresh is not besov.phi(2, ks)
    # the blocks weighted by the tables are new, writeable grids
    box = CoefficientMap("hpc", 2, {(3, 5): 1.0, (0, 1): -2.0}).dense(5)
    block = besov._dense_block(box, (1, 2), 5).values
    assert block.flags.writeable and not np.shares_memory(block, table)
