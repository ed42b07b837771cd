"""Dyadic block norms against hand-weighted quadrature and closed forms."""

import math

import numpy as np
import pytest

from halfcos.besov import (
    _lp,
    _norm_report,
    BesovParams,
    DecompositionOfUnity,
    SeqNormSpec,
    default_level_cap,
    difference_seminorm,
    holder_pairing_check,
    hpc_besov_norm,
    hpc_block,
    periodization_block_identity,
    phi0_eval,
    rectangular_mean_1d,
    seq_norm,
    seq_norm_report,
    smooth_sigma,
)
from halfcos.corpus import band_family, get_member
from halfcos.errors import ConfigError, DivergentTailError
from halfcos.grids import CoefficientMap
from halfcos.indexsets import plus_l1
from halfcos.wavelets import cw_analyze

INF = float("inf")


def hpc_map(entries, d=1):
    return CoefficientMap("hpc", d, entries)


def cw_map(entries, d=1):
    return CoefficientMap("cw-primal", d, entries)


# ---------------------------------------------------------------- cutoffs


def test_smooth_sigma_values():
    assert smooth_sigma(-1.0) == 0.0
    assert smooth_sigma(0.0) == 0.0
    assert smooth_sigma(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert smooth_sigma(0.5, power=2) == pytest.approx(math.exp(-4.0), rel=1e-15)


@pytest.mark.parametrize("power", [1, 2])
def test_phi0_plateau_and_support(power):
    x = np.array([-3.0, -2.0, -1.0, -0.4, 0.0, 0.7, 1.0, 2.0, 5.0])
    v = phi0_eval(x, power)
    on = np.abs(x) <= 1.0
    off = np.abs(x) >= 2.0
    assert np.all(v[on] == 1.0)
    assert np.all(v[off] == 0.0)
    mid = phi0_eval(np.linspace(1.2, 1.8, 31), power)
    assert np.all((0.0 < mid) & (mid < 1.0))
    assert np.all(np.diff(mid) < 0.0)
    assert np.all(np.diff(phi0_eval(np.linspace(1.0, 2.0, 101), power)) <= 0.0)
    # even cutoff: exp(-1/(2-1.5)) balances exp(-1/(1.5-1)) exactly
    assert phi0_eval(1.5, power) == pytest.approx(0.5, abs=1e-15)


def test_level_peaks_and_telescoping():
    dec = DecompositionOfUnity()
    for j in range(1, 6):
        assert dec.phi(j, float(2**j)) == 1.0
        assert dec.phi(j, float(2 ** (j - 1))) == 0.0
        assert dec.phi(j, float(2 ** (j + 1))) == 0.0
    assert np.all(dec.phi(-1, np.arange(5.0)) == 0.0)
    x = np.linspace(-40.0, 40.0, 401)
    for J in (0, 2, 4):
        got = dec.partition_sum(J, x)
        assert np.max(np.abs(got - phi0_eval(2.0**-J * x))) < 1e-15
    inside = np.abs(x) <= 2.0**4
    assert np.all(dec.partition_sum(4, x)[inside] == 1.0)


def test_symmetric_weights_are_even():
    dec = DecompositionOfUnity()
    x = np.linspace(-9.0, 9.0, 181)
    for j in range(4):
        assert np.array_equal(dec.symmetric(j, x), dec.symmetric(j, -x))


# ------------------------------------------------------------- parameters


def test_params_validation_and_sigma():
    with pytest.raises(ConfigError):
        BesovParams(1.0, 0.0, 2.0)
    with pytest.raises(ConfigError):
        BesovParams(1.0, 2.0, -1.0)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="r must be finite"):
            BesovParams(r, 2.0, 2.0)
    assert BesovParams(1.0, 2.0, 2.0).sigma_p == 0.0
    assert BesovParams(1.0, 0.5, 2.0).sigma_p == 1.0
    assert BesovParams(1.0, INF, 2.0).inv_p == 0.0


@pytest.mark.parametrize(
    "params, expect",
    [
        ((1.5, 2.0, 2.0), (-1.5, 2.0, 2.0)),
        ((1.0, 1.0, INF), (-1.0, INF, 1.0)),
        ((0.5, 4.0, 1.5), (-0.5, 4.0 / 3.0, 3.0)),
        ((1.0, 0.5, 2.0), (0.0, INF, 2.0)),
    ],
)
def test_conjugation_rules(params, expect):
    c = BesovParams(*params).conjugate()
    assert (c.r, c.p, c.q) == pytest.approx(expect)


def test_regime_windows():
    assert BesovParams(1.0, 2.0, 2.0).in_cw_regime()
    assert BesovParams(1.0, 2.0, 2.0).in_hpc_regime()
    # r = 1/p + 1 sits on the boundary and is excluded
    assert not BesovParams(1.5, 2.0, 2.0).in_cw_regime()
    assert not BesovParams(1.5, 2.0, 2.0).in_hpc_regime()
    assert BesovParams(-1.0, 2.0, 2.0).in_cw_regime()
    assert not BesovParams(-1.0, 2.0, 2.0).in_hpc_regime()
    assert BesovParams(2.5, 2.0, 2.0).in_cw_regime() is False


def test_dual_shift_adds_one_to_conjugate_r():
    spec = SeqNormSpec(BesovParams(1.5, 2.0, 2.0), "dual")
    eff = spec.effective()
    assert (eff.r, eff.p, eff.q) == (-0.5, 2.0, 2.0)
    std = SeqNormSpec(BesovParams(1.5, 2.0, 2.0), "standard").effective()
    assert std == BesovParams(1.5, 2.0, 2.0)


# --------------------------------------------------------- sequence norms


def test_seq_norm_hand_values():
    spec = SeqNormSpec(BesovParams(1.5, 2.0, 2.0))
    assert seq_norm(cw_map({((3,), (5,)): 2.0}), spec) == 16.0
    # father level carries weight 1
    assert seq_norm(cw_map({((-1,), (0,)): 3.0}), spec) == 3.0
    two = cw_map({((-1,), (0,)): 3.0, ((2,), (1,)): 1.0})
    assert seq_norm(two, spec) == pytest.approx(5.0, rel=1e-15)
    # mixed level in d=2 weights by the positive part of the level sum
    assert seq_norm(cw_map({((2, -1), (1, 0)): 1.0}, d=2), spec) == 4.0


def test_seq_norm_inner_outer_exponents():
    level = {((1,), (0,)): 3.0, ((1,), (4,)): 4.0}
    base = BesovParams(1.5, 2.0, 2.0)
    assert seq_norm(cw_map(level), SeqNormSpec(base)) == 10.0
    assert seq_norm(cw_map(level), BesovParams(1.5, INF, 2.0)) == pytest.approx(
        2.0 ** (1.5) * 4.0
    )
    assert seq_norm(cw_map(level), BesovParams(1.5, 1.0, 2.0)) == pytest.approx(
        2.0**0.5 * 7.0
    )
    levels = {((0,), (0,)): 1.0, ((1,), (0,)): 1.0}
    assert seq_norm(cw_map(levels), BesovParams(1.0, 2.0, INF)) == pytest.approx(
        2.0**0.5
    )


def test_seq_norm_homogeneity_and_empty():
    spec = SeqNormSpec(BesovParams(0.7, 1.5, 3.0))
    entries = {((j,), (k,)): 0.1 * j - 0.03 * k for j in range(3) for k in range(4)}
    base = seq_norm(cw_map(entries), spec)
    scaled = seq_norm(cw_map({key: 2.5 * v for key, v in entries.items()}), spec)
    assert scaled == pytest.approx(2.5 * base, rel=1e-14)
    assert seq_norm(cw_map({}), spec) == 0.0


def _seq_norm_report_by_entry(coeffs, params, strict, J):
    """The per-entry loop that seq_norm_report replaced: the oracle for
    its grouped form."""
    groups, top = {}, -1
    for (j, k), v in coeffs.entries.items():
        jt = tuple(int(t) for t in j)
        top = max(top, max(jt))
        groups.setdefault(jt, []).append(abs(v))
    level_terms = {
        j: 2.0 ** (plus_l1(j) * (params.r - params.inv_p)) * _lp(block, params.p)
        for j, block in groups.items()
    }
    exact = J is not None and top < J
    return _norm_report("cw-seq", params, top, level_terms, exact=exact, strict=strict)


def _interleaved_levels_map():
    # Entries of one level are not contiguous, and levels first appear out
    # of sorted order, so grouping must keep both orders.
    rng = np.random.default_rng(8)
    keys = [((j1, j2), (k, k)) for k in range(3) for j1 in (2, -1, 0) for j2 in (1, -1)]
    return cw_map({key: rng.standard_normal() for key in keys}, d=2)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("q", [1.0, 2.0, INF])
def test_seq_norm_report_equals_the_per_entry_loop(p, q):
    maps = [(_interleaved_levels_map(), 3)]
    for name, J in (("kink2", 3), ("bspline4_2", 3), ("exp1", 5)):
        tf = get_member(name)
        lam = cw_analyze(J=J, box=((0.0, 1.0),) * tf.d, kind="dual",
                         tensor_factors=tf.factors, f_breaks=tf.factor_breaks or None)
        maps.append((lam, J))
    for lam, J in maps:
        for r in (0.5, 1.5):
            params = BesovParams(r, p, q)
            got = seq_norm_report(lam, params, strict=False, J=J)
            ref = _seq_norm_report_by_entry(lam, params, strict=False, J=J)
            assert (got.value, got.tail_bound, got.J_max) == (ref.value, ref.tail_bound, ref.J_max)
            assert list(got.level_terms.items()) == list(ref.level_terms.items())


def test_seq_norm_q_monotone_and_triangle():
    rng = np.random.default_rng(3)
    keys = [((j,), (k,)) for j in range(4) for k in range(2 * 2**j)]
    a = {key: rng.standard_normal() for key in keys}
    b = {key: rng.standard_normal() for key in keys}
    r, p = 0.9, 2.0
    vals = [seq_norm(cw_map(a), BesovParams(r, p, q)) for q in (1.0, 1.5, 2.0, INF)]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    for q in (1.0, 2.0, INF):
        params = BesovParams(r, p, q)
        lhs = seq_norm(cw_map({key: a[key] + b[key] for key in keys}), params)
        rhs = seq_norm(cw_map(a), params) + seq_norm(cw_map(b), params)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_seq_report_matches_norm_and_tail_closed_form():
    spec = SeqNormSpec(BesovParams(0.5, 2.0, 2.0))
    entries = {((L,), (0,)): 4.0**-L for L in range(6)}
    rep = seq_norm_report(cw_map(entries), spec)
    assert rep.value == seq_norm(cw_map(entries), spec)
    assert rep.norm_kind == "cw-seq"
    assert rep.J_max == 5
    # weights cancel (r = 1/p), level sums are 4^-L: geometric with rho 1/4
    last, rho = 4.0**-5, 0.25
    assert rep.tail_bound == pytest.approx(
        math.sqrt(last**2 * rho**2 / (1.0 - rho**2)), rel=1e-12
    )
    assert set(rep.level_terms) == {(L,) for L in range(6)}


def test_seq_report_divergent_tail():
    entries = {((L,), (0,)): 2.0**L for L in range(5)}
    spec = SeqNormSpec(BesovParams(0.5, 2.0, 2.0))
    with pytest.raises(DivergentTailError, match="cw-seq level sums do not decay"):
        seq_norm_report(cw_map(entries), spec, strict=True)
    # levels reach the requested top level J = 4: still a real divergence
    with pytest.raises(DivergentTailError, match="cw-seq"):
        seq_norm_report(cw_map(entries), spec, strict=True, J=4)
    rep = seq_norm_report(cw_map(entries), spec, strict=False)
    assert rep.tail_bound == INF
    assert rep.value == seq_norm(cw_map(entries), spec)


def test_seq_report_missing_top_levels_are_exact_zeros():
    # levels 5..8 were requested and hold no coefficient: the expansion is
    # finite, so growing low levels are no evidence of divergence
    entries = {((L,), (0,)): 2.0**L for L in range(5)}
    spec = SeqNormSpec(BesovParams(0.5, 2.0, 2.0))
    rep = seq_norm_report(cw_map(entries), spec, strict=True, J=8)
    assert rep.tail_bound == 0.0 and rep.J_max == 4
    assert rep.value == seq_norm(cw_map(entries), spec)


def test_seq_report_short_history_has_zero_tail():
    rep = seq_norm_report(cw_map({((0,), (0,)): 1.0, ((1,), (2,)): 0.5}),
                          SeqNormSpec(BesovParams(1.0, 2.0, 2.0)))
    assert rep.tail_bound == 0.0


# -------------------------------------------------------- pairing duality


def test_holder_single_coefficient_is_sharp():
    # conjugation makes the weights cancel exactly on any single level
    for p in (0.5, 1.0, 1.5, 2.0, INF):
        for q in (1.0, 2.0, INF):
            params = BesovParams(0.8, p, q)
            lam = cw_map({((3,), (2,)): 1.7})
            mu = cw_map({((3,), (2,)): -0.6})
            lhs, rhs = holder_pairing_check(lam, mu, params)
            assert lhs == pytest.approx(1.7 * 0.6, rel=1e-14)
            assert rhs == pytest.approx(lhs, rel=1e-12)


def test_holder_random_pairs():
    rng = np.random.default_rng(11)
    grid = [1.0, 1.5, 2.0, INF]
    for _ in range(200):
        d = int(rng.integers(1, 3))
        keys = set()
        for _ in range(12):
            j = tuple(int(t) for t in rng.integers(-1, 4, size=d))
            k = tuple(int(t) for t in rng.integers(0, 5, size=d))
            keys.add((j, k))
        lam = cw_map({key: rng.standard_normal() for key in keys}, d=d)
        mu_keys = list(keys)[: len(keys) // 2 + 1]
        mu = cw_map({key: rng.standard_normal() for key in mu_keys}, d=d)
        params = BesovParams(
            float(rng.uniform(-1.0, 2.0)), grid[rng.integers(4)], grid[rng.integers(4)]
        )
        lhs, rhs = holder_pairing_check(lam, mu, params)
        assert lhs <= rhs * (1.0 + 1e-9)


# ------------------------------------------------------ cosine block norm


def test_single_dyadic_mode_values():
    params = BesovParams(1.5, 2.0, 2.0)
    # k = 2^j meets exactly one level weight, at value one
    assert hpc_besov_norm(hpc_map({(4,): 1.0}), params).value == pytest.approx(
        8.0, rel=1e-13
    )
    assert hpc_besov_norm(hpc_map({(8,): 1.0}), params).value == pytest.approx(
        2.0**4.5, rel=1e-13
    )
    assert hpc_besov_norm(
        hpc_map({(4, 4): 1.0}, d=2), params
    ).value == pytest.approx(64.0, rel=1e-13)
    # k = 3 splits half and half between levels 1 and 2
    assert hpc_besov_norm(hpc_map({(3,): 1.0}), params).value == pytest.approx(
        math.sqrt((2.0**1.5 / 2.0) ** 2 + (2.0**3 / 2.0) ** 2), rel=1e-13
    )


def test_single_mode_other_integrabilities():
    one = hpc_map({(4,): 1.0})
    got = hpc_besov_norm(one, BesovParams(1.5, INF, 2.0), grid_level=10).value
    assert got == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-13)
    got = hpc_besov_norm(one, BesovParams(1.5, 1.0, 2.0), grid_level=12).value
    # trapezoid rule meets the |cos| kinks: h^2 accuracy only
    assert got == pytest.approx(8.0 * math.sqrt(2.0) * 2.0 / math.pi, rel=2e-6)


def test_block_norm_matches_hand_weighted_quadrature():
    entries = {(0,): 0.3, (1,): -0.7, (3,): 0.41, (5,): 0.2, (9,): -0.11}
    params = BesovParams(1.2, 2.0, 2.0)
    m = 7
    rep = hpc_besov_norm(hpc_map(entries), params, grid_level=m)
    # independent route: weight coefficients by hand, synthesize with raw
    # numpy cosines, integrate with trapezoid weights
    x = np.arange(2**m + 1) / 2.0**m
    w = np.full(x.size, 2.0**-m)
    w[0] *= 0.5
    w[-1] *= 0.5
    dec = DecompositionOfUnity()
    total = 0.0
    terms = {}
    for j in range(default_level_cap(hpc_map(entries)) + 1):
        vals = np.zeros_like(x)
        for (k,), c in entries.items():
            base = np.sqrt(2.0) * np.cos(np.pi * k * x) if k else np.ones_like(x)
            vals += float(dec.phi(j, float(k))) * c * base
        block = math.sqrt(float(np.sum(w * vals**2)))
        if block > 0.0:
            terms[(j,)] = 2.0 ** (params.r * j) * block
            total += terms[(j,)] ** 2
    assert rep.value == pytest.approx(math.sqrt(total), rel=1e-12)
    assert rep.tail_bound == 0.0
    for key, term in terms.items():
        assert rep.level_terms[key] == pytest.approx(term, rel=1e-11)


def test_block_norm_homogeneity_and_level_cap():
    entries = {(1,): 0.4, (5,): -0.2, (12,): 0.05}
    params = BesovParams(0.9, 2.0, 2.0)
    base = hpc_besov_norm(hpc_map(entries), params, grid_level=8).value
    scaled = hpc_besov_norm(
        hpc_map({k: -3.0 * v for k, v in entries.items()}), params, grid_level=8
    ).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-13)
    cap = default_level_cap(hpc_map(entries))
    assert cap == 5  # highest frequency 12 < 2^4
    wide = hpc_besov_norm(hpc_map(entries), params, J_max=cap + 4, grid_level=8)
    assert wide.value == pytest.approx(base, rel=1e-14)
    assert wide.tail_bound == 0.0


def test_block_norm_decomposition_profile_band():
    entries = {(0,): 0.3, (1,): -0.7, (3,): 0.41, (5,): 0.2, (9,): -0.11}
    params = BesovParams(1.5, 2.0, 2.0)
    a = hpc_besov_norm(hpc_map(entries), params).value
    b = hpc_besov_norm(
        hpc_map(entries), params, decomp=DecompositionOfUnity(power=2)
    ).value
    # different cutoff profiles give equivalent norms; here within 2 percent
    assert 0.5 < a / b < 2.0
    assert a / b == pytest.approx(1.0, abs=0.05)


def test_block_norm_divergent_tail_paths():
    slow = hpc_map({(k,): 1.0 / k for k in range(1, 65)})
    params = BesovParams(1.0, 2.0, 2.0)
    with pytest.raises(DivergentTailError, match="hpc level sums do not decay"):
        hpc_besov_norm(slow, params, J_max=4)
    rep = hpc_besov_norm(slow, params, J_max=4, strict=False)
    assert rep.tail_bound == INF
    exact = hpc_besov_norm(slow, params)
    assert exact.tail_bound == 0.0
    assert exact.value > rep.value


def test_block_synthesis_is_the_weighted_mode():
    dec = DecompositionOfUnity()
    g = hpc_block(hpc_map({(3,): 1.0}), (2,), dec, 6)
    x = g.axis_points()
    expect = float(dec.phi(2, 3.0)) * np.sqrt(2.0) * np.cos(3.0 * np.pi * x)
    assert np.max(np.abs(g.values - expect)) < 1e-12


def test_report_csv_row_shape():
    rep = hpc_besov_norm(hpc_map({(4,): 1.0}), BesovParams(1.5, 2.0, 2.0))
    row = rep.csv_row()
    kind, r, p, q, J, value, tail = row.split(",")
    assert kind == "hpc" and r == "1.5" and p == "2" and q == "2"
    assert float(value) == pytest.approx(8.0, rel=1e-11)
    assert float(tail) == 0.0
    assert rep.csv_header().startswith("norm_kind,")


# -------------------------------------------------- periodization blocks


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("jbar", [(0,), (1,), (2,)])
def test_block_periodization_identity_1d(p, jbar):
    f = hpc_map({(0,): 0.3, (1,): -0.7, (3,): 0.41, (5,): 0.2})
    lhs, rhs = periodization_block_identity(f, jbar, p, grid_level=7)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_block_periodization_identity_2d(p):
    f = hpc_map({(0, 0): 0.2, (1, 2): 0.5, (3, 1): -0.3, (2, 4): 0.15}, d=2)
    for jbar in [(0, 0), (1, 2), (2, 1)]:
        lhs, rhs = periodization_block_identity(f, jbar, p, grid_level=6)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


# ------------------------------------------------------- difference route


def test_difference_annihilates_constants():
    rep = difference_seminorm(
        params=BesovParams(1.5, 2.0, 2.0),
        m=2,
        J_max=4,
        grid_level=6,
        tensor_factors=[lambda x: np.full_like(np.asarray(x, dtype=float), 0.7)],
    )
    assert set(rep.level_terms) == {(0,)}
    assert rep.value == pytest.approx(0.7, rel=1e-14)
    assert rep.tail_bound == 0.0


def test_difference_annihilates_affine():
    rep = difference_seminorm(
        f=lambda x: 0.3 + 0.5 * np.asarray(x, dtype=float),
        params=BesovParams(1.0, 2.0, 2.0),
        m=2,
        J_max=4,
        grid_level=6,
        d=1,
    )
    # point evaluations round before cancelling, so dust may survive
    lead = rep.level_terms[(0,)]
    for key, term in rep.level_terms.items():
        if key != (0,):
            assert term < 1e-13 * lead
    assert rep.value == pytest.approx(lead, rel=1e-12)


def test_difference_cosine_levels_decay_at_order_two():
    rep = difference_seminorm(
        params=BesovParams(0.0, 2.0, 2.0),
        m=2,
        J_max=8,
        grid_level=7,
        tensor_factors=[lambda x: np.cos(np.pi * x)],
    )
    terms = rep.level_terms
    for j in range(4, 8):
        ratio = math.log2(terms[(j,)] / terms[(j - 1,)])
        assert -2.05 < ratio < -1.9
    assert rep.tail_bound < INF


def test_difference_tensor_equals_generic_2d():
    g = lambda x: np.cos(np.pi * np.asarray(x, dtype=float))
    h = lambda y: np.sin(np.pi * np.asarray(y, dtype=float))
    params = BesovParams(1.0, 2.0, 2.0)
    a = difference_seminorm(
        params=params, m=2, J_max=3, grid_level=5, gauss=6, tensor_factors=[g, h]
    )
    b = difference_seminorm(
        f=lambda x, y: g(x) * h(y),
        params=params,
        m=2,
        J_max=3,
        grid_level=5,
        gauss=6,
        d=2,
    )
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert set(a.level_terms) == set(b.level_terms)
    for key in a.level_terms:
        assert a.level_terms[key] == pytest.approx(b.level_terms[key], rel=1e-11)


# The two former difference routes, kept as the reference of the one kernel:
# rectangular means of each tensor factor, and the nested Gauss/shift loop
# over full meshgrids for a generic callable.


def _former_rectangular_mean_1d(f, m, t, x, gauss):
    nodes, weights = np.polynomial.legendre.leggauss(gauss)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    out = np.zeros_like(x)
    for h, w in zip(nodes, weights):
        acc = np.zeros_like(x)
        for l in range(m + 1):
            acc += signs[l] * np.asarray(f(x + l * h * t), dtype=float)
        out += w * np.abs(acc)
    return out


def _former_difference_terms(f, tensor_factors, r, p, m, J_max, grid_level, d, gauss):
    x1 = -1.0 + np.arange(2 ** (grid_level + 1)) * 2.0**-grid_level

    def grid_lp(values):
        a = np.abs(np.asarray(values, dtype=float))
        return float(a.max()) if p == INF else float(np.mean(a**p) ** (1.0 / p))

    terms = {}
    if tensor_factors is not None:
        tables = []
        for fi in tensor_factors:
            col = {0: np.asarray(fi(x1), dtype=float)}
            for j in range(1, J_max + 1):
                col[j] = _former_rectangular_mean_1d(fi, m, 2.0**-j, x1, gauss)
            tables.append({j: grid_lp(v) for j, v in col.items()})
        for jbar in np.ndindex(*([J_max + 1] * len(tensor_factors))):
            val = 1.0
            for i, j in enumerate(jbar):
                val *= tables[i][j]
            if 2.0 ** (r * sum(jbar)) * val > 0.0:
                terms[jbar] = 2.0 ** (r * sum(jbar)) * val
        return terms
    axes = [x1] * d
    nodes, weights = np.polynomial.legendre.leggauss(gauss)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    for jbar in np.ndindex(*([J_max + 1] * d)):
        e = [i for i in range(d) if jbar[i] != 0]
        if not e:
            mesh = np.meshgrid(*axes, indexing="ij") if d > 1 else [axes[0]]
            term = grid_lp(np.asarray(f(*mesh), dtype=float))
            if term > 0.0:
                terms[jbar] = term
            continue
        acc = np.zeros((x1.size,) * d)
        for combo in np.ndindex(*([gauss] * len(e))):
            wq = 1.0
            diff = np.zeros((x1.size,) * d)
            for shifts in np.ndindex(*([m + 1] * len(e))):
                coeff = 1.0
                moved = list(axes)
                for pos, ci, l in zip(e, combo, shifts):
                    coeff *= signs[l]
                    moved[pos] = axes[pos] + l * nodes[ci] * 2.0 ** (-jbar[pos])
                mesh = np.meshgrid(*moved, indexing="ij") if d > 1 else [moved[0]]
                diff += coeff * np.asarray(f(*mesh), dtype=float)
            for ci in combo:
                wq *= weights[ci]
            acc += wq * np.abs(diff)
        term = 2.0 ** (r * sum(jbar)) * grid_lp(acc)
        if term > 0.0:
            terms[jbar] = term
    return terms


_BAND = {tf.name: tf for s in (0, 2) for tf in band_family(s)}


@pytest.mark.parametrize("p", [2.0, 1.5, INF])
@pytest.mark.parametrize("name", ["hat8_3@s0", "n4w16_6@s0", "dip@s2", "n4_plus_fine@s2",
                                  "kink2", "bspline4_2"])
def test_difference_tables_equal_the_former_rectangular_means(name, p):
    tf = _BAND[name] if "@" in name else get_member(name)
    args = dict(m=3, J_max=5, grid_level=7, gauss=8)
    rep = difference_seminorm(params=BesovParams(1.5, p, 2.0), tensor_factors=tf.factors, **args)
    ref = _former_difference_terms(None, tf.factors, 1.5, p, d=tf.d, **args)
    assert rep.level_terms == ref


_GENERIC = {
    "kink1": get_member("kink1"),
    "exp1": get_member("exp1"),
    "kink2": get_member("kink2"),
    "bspline2_2": get_member("bspline2_2"),
    "cos_x_plus_2y": lambda x, y: np.cos(np.pi * (x + 2.0 * y)),
}


@pytest.mark.parametrize("p", [2.0, INF])
@pytest.mark.parametrize("name", sorted(_GENERIC))
def test_difference_generic_route_equals_the_former_meshgrid_loop(name, p):
    f = _GENERIC[name]
    d = 1 if name.endswith("1") else 2
    args = dict(m=2, J_max=3 if d == 1 else 2, grid_level=6 if d == 1 else 4, gauss=4)
    rep = difference_seminorm(f, params=BesovParams(1.0, p, 2.0), d=d, **args)
    assert rep.level_terms == _former_difference_terms(f, None, 1.0, p, d=d, **args)


def test_rectangular_mean_1d_keeps_the_shape_of_x():
    x = np.linspace(-1.0, 1.0, 12)
    got = rectangular_mean_1d(np.sin, 3, 0.25, x.reshape(3, 4), gauss=6)
    assert np.array_equal(got, _former_rectangular_mean_1d(np.sin, 3, 0.25, x, 6).reshape(3, 4))


def _route_report(route, params):
    if route == "hpc":
        return hpc_besov_norm(hpc_map({(0,): 0.3, (1,): -0.7, (3,): 0.41, (5,): 0.2}), params)
    if route == "cw-seq":
        entries = {((L,), (k,)): 0.5**L * (k + 1) for L in range(-1, 5) for k in range(3)}
        return seq_norm_report(cw_map(entries), params, strict=False)
    return difference_seminorm(
        params=params,
        m=2,
        J_max=4,
        grid_level=6,
        tensor_factors=[lambda x: np.cos(np.pi * x)],
    )


@pytest.mark.parametrize("q", [INF, 2.0], ids=["qinf", "q2"])
@pytest.mark.parametrize("route", ["hpc", "cw-seq", "diff"])
def test_norm_value_is_the_lq_norm_of_the_level_terms(route, q):
    rep = _route_report(route, BesovParams(0.5, 2.0, q))
    assert rep.norm_kind == route and len(rep.level_terms) > 1
    if q == INF:
        assert rep.value == max(rep.level_terms.values())
    else:
        assert rep.value == _lp(list(rep.level_terms.values()), q)


def test_difference_order_must_exceed_smoothness():
    with pytest.raises(ConfigError):
        difference_seminorm(
            params=BesovParams(2.5, 2.0, 2.0),
            m=2,
            tensor_factors=[lambda x: np.cos(np.pi * x)],
        )
    with pytest.raises(ConfigError):
        difference_seminorm(f=lambda x: x, m=2)


def test_difference_needs_a_function():
    with pytest.raises(ConfigError, match="f or tensor_factors required"):
        difference_seminorm(params=BesovParams(1.0, 2.0, 2.0))


def test_difference_generic_callable_needs_d_at_most_two():
    with pytest.raises(ConfigError, match="d <= 2"):
        difference_seminorm(
            f=lambda x, y, z: x * y * z, params=BesovParams(1.0, 2.0, 2.0), d=3
        )
