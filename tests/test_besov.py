"""Dyadic block norms against hand-weighted quadrature and closed forms."""

import itertools
import math

import numpy as np
import pytest

from halfcos.besov import (
    _dense_block,
    _level_cap,
    _lp,
    _norm_report,
    _rectangular_mean,
    _tail_from_level_sums,
    _tensor_report,
    BesovParams,
    NormReport,
    difference_seminorm,
    holder_pairing_check,
    hpc_besov_norm,
    periodization_block_identity,
    phi,
    phi0_eval,
    seq_norm,
    seq_norm_report,
    smooth_sigma,
)
from halfcos.corpus import band_family, corpus, get_member
from halfcos.errors import ConfigError, DivergentTailError
from halfcos.grids import SYM, UNIT, CoefficientMap, _alias_free_level, _grid_axis, signed_fft_freqs
from halfcos.indexsets import plus_l1
from halfcos.wavelets import cw_analyze
from closed_forms import partition_sum

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


def test_phi0_plateau_and_support():
    x = np.array([-3.0, -2.0, -1.0, -0.4, 0.0, 0.7, 1.0, 2.0, 5.0])
    v = phi0_eval(x)
    on = np.abs(x) <= 1.0
    off = np.abs(x) >= 2.0
    assert np.all(v[on] == 1.0)
    assert np.all(v[off] == 0.0)
    mid = phi0_eval(np.linspace(1.2, 1.8, 31))
    assert np.all((0.0 < mid) & (mid < 1.0))
    assert np.all(np.diff(mid) < 0.0)
    assert np.all(np.diff(phi0_eval(np.linspace(1.0, 2.0, 101))) <= 0.0)
    # even cutoff: exp(-1/(2-1.5)) balances exp(-1/(1.5-1)) exactly
    assert phi0_eval(1.5) == pytest.approx(0.5, abs=1e-15)


def test_level_peaks_and_telescoping():
    for j in range(1, 6):
        assert phi(j, float(2**j)) == 1.0
        assert phi(j, float(2 ** (j - 1))) == 0.0
        assert phi(j, float(2 ** (j + 1))) == 0.0
    assert np.all(phi(-1, np.arange(5.0)) == 0.0)
    x = np.linspace(-40.0, 40.0, 401)
    for J in (0, 2, 4):
        got = partition_sum(J, x)
        assert np.max(np.abs(got - phi0_eval(2.0**-J * x))) < 1e-15
    inside = np.abs(x) <= 2.0**4
    assert np.all(partition_sum(4, x)[inside] == 1.0)


def test_symmetric_weights_are_even():
    # bit for bit, so the torus block weights phi_j(k) of signed frequencies
    # equal phi_j(|k|) exactly
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    for x in (np.linspace(-50.0, 50.0, 10001), signed_fft_freqs(2**9).astype(float),
              _grid_axis(SYM, 7), _grid_axis(UNIT, 7)):
        for j in range(-1, 12):
            assert np.array_equal(bits(phi(j, x)), bits(phi(j, -x)))
            assert np.array_equal(bits(phi(j, x)), bits(phi(j, np.abs(x))))


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
    dual = BesovParams(1.5, 2.0, 2.0).dual()
    assert (dual.r, dual.p, dual.q) == (-0.5, 2.0, 2.0)
    c = BesovParams(0.5, 4.0, 1.0).conjugate()
    assert BesovParams(0.5, 4.0, 1.0).dual() == BesovParams(c.r + 1.0, c.p, c.q)


# --------------------------------------------------------- sequence norms


def test_seq_norm_hand_values():
    params = BesovParams(1.5, 2.0, 2.0)
    assert seq_norm(cw_map({((3,), (5,)): 2.0}), params) == 16.0
    # father level carries weight 1
    assert seq_norm(cw_map({((-1,), (0,)): 3.0}), params) == 3.0
    two = cw_map({((-1,), (0,)): 3.0, ((2,), (1,)): 1.0})
    assert seq_norm(two, params) == pytest.approx(5.0, rel=1e-15)
    # mixed level in d=2 weights by the positive part of the level sum
    assert seq_norm(cw_map({((2, -1), (1, 0)): 1.0}, d=2), params) == 4.0


def test_seq_norm_inner_outer_exponents():
    level = {((1,), (0,)): 3.0, ((1,), (4,)): 4.0}
    base = BesovParams(1.5, 2.0, 2.0)
    assert seq_norm(cw_map(level), base) == 10.0
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
    params = BesovParams(0.7, 1.5, 3.0)
    entries = {((j,), (k,)): 0.1 * j - 0.03 * k for j in range(3) for k in range(4)}
    base = seq_norm(cw_map(entries), params)
    scaled = seq_norm(cw_map({key: 2.5 * v for key, v in entries.items()}), params)
    assert scaled == pytest.approx(2.5 * base, rel=1e-14)
    assert seq_norm(cw_map({}), params) == 0.0


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
    return _norm_report("cw-seq", params, top, level_terms, 0.0, exact=exact, strict=strict)


def _interleaved_levels_map(d):
    # Entries of one level are not contiguous, and levels first appear out
    # of sorted order, so grouping must keep both orders.
    rng = np.random.default_rng(8)
    if d == 2:
        levels = [(j1, j2) for j1 in (2, -1, 0) for j2 in (1, -1)]
    else:
        levels = [(2,), (-1,), (4,), (0,)]
    keys = [(j, (k,) * d) for k in range(3) for j in levels]
    return cw_map({key: rng.standard_normal() for key in keys}, d=d)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("q", [1.0, 2.0, INF])
def test_seq_norm_report_equals_the_per_entry_loop(p, q):
    maps = [(_interleaved_levels_map(2), 3), (_interleaved_levels_map(1), 5)]
    for name, J in (("kink2", 3), ("bspline4_2", 3), ("exp1", 5)):
        tf = get_member(name)
        breaks = tf.factor_breaks if tf.d == 2 else tf.factor_breaks[0]
        lam = cw_analyze(tf, J=J, box=((0.0, 1.0),) * tf.d, kind="dual", f_breaks=breaks)
        maps.append((lam, J))
    # the 1-D factor tables that norm_comparison's cw route passes in
    for name in ("kink1", "bspline4_1", "gibbs"):
        tf = get_member(name)
        breaks = tf.factor_breaks[0]
        lam = cw_analyze(tf.factors[0], J=8, kind="dual", f_breaks=breaks, prune=1e-13)
        maps.append((lam, 8))
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
    params = BesovParams(0.5, 2.0, 2.0)
    entries = {((L,), (0,)): 4.0**-L for L in range(6)}
    rep = seq_norm_report(cw_map(entries), params)
    assert rep.value == seq_norm(cw_map(entries), params)
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
    params = BesovParams(0.5, 2.0, 2.0)
    with pytest.raises(DivergentTailError, match="cw-seq level sums do not decay"):
        seq_norm_report(cw_map(entries), params, strict=True)
    # levels reach the requested top level J = 4: still a real divergence
    with pytest.raises(DivergentTailError, match="cw-seq"):
        seq_norm_report(cw_map(entries), params, strict=True, J=4)
    rep = seq_norm_report(cw_map(entries), params, strict=False)
    assert rep.tail_bound == INF
    assert rep.value == seq_norm(cw_map(entries), params)


def test_seq_report_missing_top_levels_are_exact_zeros():
    # levels 5..8 were requested and hold no coefficient: the expansion is
    # finite, so growing low levels are no evidence of divergence
    entries = {((L,), (0,)): 2.0**L for L in range(5)}
    params = BesovParams(0.5, 2.0, 2.0)
    rep = seq_norm_report(cw_map(entries), params, strict=True, J=8)
    assert rep.tail_bound == 0.0 and rep.J_max == 4
    assert rep.value == seq_norm(cw_map(entries), params)


def test_seq_report_short_history_has_zero_tail():
    rep = seq_norm_report(cw_map({((0,), (0,)): 1.0, ((1,), (2,)): 0.5}),
                          BesovParams(1.0, 2.0, 2.0))
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
    total = 0.0
    terms = {}
    for j in range(6):  # up to the level cap 5: frequency 9 < 2^4
        vals = np.zeros_like(x)
        for (k,), c in entries.items():
            base = np.sqrt(2.0) * np.cos(np.pi * k * x) if k else np.ones_like(x)
            vals += float(phi(j, float(k))) * c * base
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
    cap = 5  # highest frequency 12 < 2^4
    wide = hpc_besov_norm(hpc_map(entries), params, J_max=cap + 4, grid_level=8)
    assert wide.value == pytest.approx(base, rel=1e-14)
    assert wide.tail_bound == 0.0


def test_block_norm_past_the_level_cap_adds_no_term():
    # the blocks past the cap are zero, and so are blocks whose weights meet
    # no coefficient (level 2 here): no term is kept for either
    f = hpc_map({(0, 1): 0.5, (1, 0): -0.25, (9, 1): 0.125, (0, 9): 0.3}, d=2)
    params = BesovParams(1.25, 1.5, 2.0)
    at_cap = hpc_besov_norm(f, params, grid_level=7)
    assert at_cap.J_max == 5 and at_cap.tail_bound == 0.0
    assert (2, 0) not in at_cap.level_terms and max(map(max, at_cap.level_terms)) == 4
    past = hpc_besov_norm(f, params, J_max=8, grid_level=7)
    assert list(past.level_terms.items()) == list(at_cap.level_terms.items())
    assert (past.value, past.tail_bound, past.J_max) == (at_cap.value, 0.0, 8)


def test_block_routes_refuse_negative_frequencies():
    # a negative key must not index the dense box from its end
    params = BesovParams(1.5, 2.0, 2.0)
    assert hpc_besov_norm(hpc_map({(3,): 1.0}), params).value == pytest.approx(3 * math.sqrt(2))
    for f in (hpc_map({(-3,): 1.0}), hpc_map({(2, 0): 1.0, (1, -1): 0.5}, d=2)):
        with pytest.raises(ConfigError, match="cosine frequencies must be >= 0"):
            hpc_besov_norm(f, params)
        with pytest.raises(ConfigError, match="cosine frequencies must be >= 0"):
            periodization_block_identity(f, (0,) * f.d, 2.0, grid_level=5)


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


def test_block_routes_refuse_a_large_box_or_grid_before_allocating(monkeypatch):
    import halfcos.besov as besov

    def reached(*args, **kwargs):
        raise AssertionError("dense box or grid made before the size check")

    monkeypatch.setattr(besov.CoefficientMap, "dense", reached)
    monkeypatch.setattr(besov, "hpc_synthesize_dense", reached)
    params = BesovParams(1.5, 2.0, 2.0)
    # 5001^2 entries in the box; at J_max=6 the grid itself would be small
    with pytest.raises(ConfigError, match="a dense box of 25010001 entries in d=2"):
        hpc_besov_norm(hpc_map({(5000, 5000): 1.0}, d=2), params, J_max=6)
    # a 4001^2 box fits; its level cap 13 asks for a level-14 grid of 16385^2 points
    with pytest.raises(ConfigError, match="grid_level 14 asks for a level-14 grid in d=2"):
        hpc_besov_norm(hpc_map({(4000, 4000): 1.0}, d=2), params)


def test_periodization_identity_checks_p_and_the_torus_grid_first(monkeypatch):
    import halfcos.besov as besov

    f = hpc_map({(0, 0): 0.2, (1, 2): 0.5}, d=2)
    for p in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="p must lie in"):
            periodization_block_identity(f, (0, 1), p, grid_level=4)

    def reached(*args, **kwargs):
        raise AssertionError("grid made before the size check")

    monkeypatch.setattr(besov, "hpc_synthesize_dense", reached)
    # the level-12 torus grid of 8192^2 points is the largest the identity makes
    with pytest.raises(ConfigError, match="grid_level 12 asks for a level-12 grid in d=2"):
        periodization_block_identity(f, (0, 1), 2.0, grid_level=12)


def test_block_synthesis_is_the_weighted_mode():
    g = _dense_block(hpc_map({(3,): 1.0}).dense(3), (2,), 6)
    x = g.axis_points()
    expect = float(phi(2, 3.0)) * np.sqrt(2.0) * np.cos(3.0 * np.pi * x)
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
        params=BesovParams(1.0, 2.0, 2.0),
        m=2,
        J_max=4,
        grid_level=6,
        tensor_factors=[lambda x: 0.3 + 0.5 * np.asarray(x, dtype=float)],
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
    args = dict(m=2, J_max=3, grid_level=5)
    a = difference_seminorm(params=params, tensor_factors=[g, h], **args)
    b = _former_difference_terms(lambda x, y: g(x) * h(y), None, 1.0, 2.0, d=2, **args)
    assert a.value == pytest.approx(_lp(list(b.values()), 2.0), rel=1e-12)
    assert set(a.level_terms) == set(b)
    for key in a.level_terms:
        assert a.level_terms[key] == pytest.approx(b[key], rel=1e-11)


# Two reference computations of the difference route: rectangular means of
# each tensor factor, and the nested Gauss/shift loop over full meshgrids of
# the product (f given, tensor_factors None).


def _former_rectangular_mean_1d(f, m, t, x, gauss=8):
    nodes, weights = np.polynomial.legendre.leggauss(gauss)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    out = np.zeros_like(x)
    for h, w in zip(nodes, weights):
        acc = np.zeros_like(x)
        for l in range(m + 1):
            acc += signs[l] * np.asarray(f(x + l * h * t), dtype=float)
        out += w * np.abs(acc)
    return out


def _former_difference_terms(f, tensor_factors, r, p, m, J_max, grid_level, d, gauss=8):
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


_SMALL = dict(m=3, J_max=5, grid_level=7)
_SMALL4 = dict(m=4, J_max=5, grid_level=7)  # l = 4 reuses l = 2, which reuses l = 1
_WORKLOAD = dict(m=3, J_max=8, grid_level=11)  # the band members of norms


@pytest.mark.parametrize("p", [2.0, 1.5, INF])
@pytest.mark.parametrize(
    "name, args",
    [pytest.param(name, _SMALL, id=name)
     for name in ("hat8_3@s0", "n4w16_6@s0", "dip@s2", "n4_plus_fine@s2", "kink2", "bspline4_2")]
    + [pytest.param(name, _WORKLOAD, id=f"{name}-J8")
       for name in ("hat8_3@s0", "n4_plus_fine@s2")]
    + [pytest.param(name, _SMALL4, id=f"{name}-m4") for name in ("hat8_3@s0", "dip@s2", "kink2")]
    + [pytest.param("n4_plus_fine@s2", dict(_WORKLOAD, m=4), id="n4_plus_fine@s2-J8-m4")],
)
def test_difference_tables_equal_the_former_rectangular_means(name, args, p):
    tf = _BAND[name] if "@" in name else get_member(name)
    rep = difference_seminorm(params=BesovParams(1.5, p, 2.0), tensor_factors=tf.factors, **args)
    ref = _former_difference_terms(None, tf.factors, 1.5, p, d=tf.d, **args)
    assert rep.level_terms == ref


class _Counting:
    """A factor that counts its evaluations."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_difference_route_evaluates_a_factor_137_times_at_level_8():
    # f(x) once; per level 8 nodes at each odd l, and at level 1 also at each
    # even l, which later levels take from the l/2 shifts of the level before:
    # at m = 3, 1 + 24 + 7 * 16 = 137 evaluations in place of 1 + 8 * 32 = 257.
    for m, calls in ((2, 73), (3, 137), (4, 145)):
        f = _Counting(_BAND["hat8_3@s0"].factors[0])
        args = dict(m=m, J_max=8, grid_level=6)
        rep = difference_seminorm(params=BesovParams(1.5, 2.0, 2.0), tensor_factors=[f], **args)
        assert f.calls == calls
        assert rep.level_terms == _former_difference_terms(None, [f], 1.5, 2.0, d=1, **args)


def test_difference_route_builds_one_table_per_distinct_factor():
    args = dict(m=3, J_max=8, grid_level=6)
    params = BesovParams(1.5, 2.0, 2.0)
    f = _Counting(_BAND["hat8_3@s0"].factors[0])
    g = _Counting(_BAND["n4w8_2@s0"].factors[0])
    rep = difference_seminorm(params=params, tensor_factors=[f, f], **args)
    assert f.calls == 137
    assert rep.level_terms == _former_difference_terms(None, [f, f], 1.5, 2.0, d=2, **args)
    f.calls = 0
    rep = difference_seminorm(params=params, tensor_factors=[f, g], **args)
    assert f.calls == g.calls == 137
    assert rep.level_terms == _former_difference_terms(None, [f, g], 1.5, 2.0, d=2, **args)


@pytest.mark.parametrize("p", [2.0, INF])
@pytest.mark.parametrize("name", ["bspline2_2", "exp1", "kink1", "kink2"])
def test_difference_generic_route_equals_the_former_meshgrid_loop(name, p):
    # the tensor route on a corpus member against the meshgrid loop on the member itself
    f = get_member(name)
    args = dict(m=2, J_max=3 if f.d == 1 else 2, grid_level=6 if f.d == 1 else 4)
    rep = difference_seminorm(params=BesovParams(1.0, p, 2.0), tensor_factors=f.factors, **args)
    ref = _former_difference_terms(f, None, 1.0, p, d=f.d, **args)
    assert set(rep.level_terms) == set(ref)
    for key, term in rep.level_terms.items():
        assert term == pytest.approx(ref[key], rel=1e-12)


def test_rectangular_mean_equals_the_former_one_level_loop():
    x = np.linspace(-1.0, 1.0, 12)
    _, _, got = _rectangular_mean(np.sin, 3, 2, x)
    assert np.array_equal(got, _former_rectangular_mean_1d(np.sin, 3, 0.25, x))


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
    with pytest.raises(ConfigError, match="must exceed"):
        difference_seminorm(
            params=BesovParams(2.0, 2.0, 2.0),
            m=2,
            tensor_factors=[lambda x: np.cos(np.pi * x)],
        )


def test_difference_refuses_a_negative_level_or_no_difference():
    factors = [lambda x: np.cos(np.pi * x)]
    with pytest.raises(ConfigError, match="J_max must be >= 0, got -1"):
        difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=factors, J_max=-1)
    # with r < 0, m > r alone would admit m = 0: an L_p mean with no difference
    with pytest.raises(ConfigError, match="difference order m must be >= 1, got 0"):
        difference_seminorm(params=BesovParams(-0.5, 2.0, 2.0), tensor_factors=factors, m=0)
    rep = difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=factors, J_max=0)
    assert list(rep.level_terms) == [(0,)]


def test_difference_refuses_a_large_grid_before_allocating(monkeypatch):
    import halfcos.besov as besov

    def reached(*args, **kwargs):
        raise AssertionError("grid axis made before the size check")

    monkeypatch.setattr(besov, "_grid_axis", reached)
    factors = [lambda x: np.cos(np.pi * x)]
    with pytest.raises(ConfigError, match="grid_level 40 asks for a level-40 grid in d=1"):
        difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=factors,
                            grid_level=40)


def test_difference_refuses_binomial_weights_past_the_float_range(monkeypatch):
    import halfcos.besov as besov

    comb = math.comb

    def bounded_comb(n, k):
        assert n < 2048, "a binomial past every float formed"
        return comb(n, k)

    monkeypatch.setattr(math, "comb", bounded_comb)
    monkeypatch.setattr(besov, "_grid_axis", lambda *a: pytest.fail("grid axis made first"))
    factors = [lambda x: np.cos(np.pi * x)]
    for m in (1030, 2047, 2048, 10**12):
        with pytest.raises(ConfigError, match=f"m={m} has binomial weights past the float range"):
            difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=factors, m=m)
    monkeypatch.undo()
    # C(1029, 514) is the last largest weight that is a float
    rep = difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=factors,
                              m=1029, J_max=0)
    assert list(rep.level_terms) == [(0,)]


@pytest.mark.parametrize("r, q", [(200.0, 1.0), (100.0, 2.0)])
def test_tensor_report_refuses_terms_past_the_float_range(r, q):
    # r = 200: the weight 2^(200 * 6) of level (3, 3), the last one, overflows;
    # r = 100: every weight is a float, but the squares in the ell_2 sum are not
    table = {(j,): 1.5**-j for j in range(4)}
    rep = _tensor_report("hpc", BesovParams(100.0, 2.0, 1.0), 3, [table, table], 100.0,
                         exact=True, strict=False)
    assert len(rep.level_terms) == 16
    for jbar, term in rep.level_terms.items():  # finite terms keep the bits of the formula
        assert term == 2.0 ** (100.0 * plus_l1(jbar)) * math.prod(table[(j,)] for j in jbar)
    with pytest.raises(ConfigError, match=rf"r={r}: the terms up to level \(3, 3\) leave the float"):
        _tensor_report("hpc", BesovParams(r, 2.0, q), 3, [table, table], r, exact=True, strict=False)


def test_every_route_refuses_terms_past_the_float_range():
    # hpc: level 6 of frequency 40 weighs 2^(100 * 6), a float whose square is not
    with pytest.raises(ConfigError, match=r"r=100: the terms up to level \(6,\) leave the float"):
        hpc_besov_norm(hpc_map({(40,): 1.0}), BesovParams(100, 2, 2))
    # cw-seq: the weight 2^(5 * 1199.5) of level 5 is past the float range
    with pytest.raises(ConfigError, match=r"r=1200: the terms up to level \(5,\) leave the float"):
        seq_norm_report(cw_map({((5,), (3,)): 1.0}), BesovParams(1200, 2, 2))
    # a product of two float factors is inf, where a float power would raise
    with pytest.raises(ConfigError, match=r"r=1.0: the terms up to level \(0, 0\) leave the float"):
        _tensor_report("diff", BesovParams(1.0, 2.0, 1.0), 0, [{(0,): 1e200}, {(0,): 1e200}], 1.0,
                       exact=True, strict=False)
    # each term 1e308 is a float, but the ell_1 sum of the first two, up to level (0, 1), is not
    table = {(0,): 1e154, (1,): 1e154}
    with pytest.raises(ConfigError, match=r"r=1.0: the terms up to level \(0, 1\) leave the float"):
        _tensor_report("diff", BesovParams(1.0, 2.0, 1.0), 1, [table, table], 0.0,
                       exact=True, strict=False)


def test_difference_needs_a_function():
    with pytest.raises(ConfigError, match="zero axes"):
        difference_seminorm(params=BesovParams(1.0, 2.0, 2.0), tensor_factors=[])


# The three weighting loops that _norm_report took over, and the summation
# they handed their terms to: the oracles of its parity tests.
def _former_norm_report(kind, params, J_max, level_terms, exact, strict):
    q = params.q
    level_sums = {}
    for j, t in level_terms.items():
        L = plus_l1(j)
        if q == INF:
            level_sums[L] = max(level_sums.get(L, 0.0), t)
        else:
            level_sums[L] = level_sums.get(L, 0.0) + t**q
    if q != INF:
        level_sums = {L: s ** (1.0 / q) for L, s in level_sums.items()}
    tail = 0.0
    if not exact:
        tail, rho = _tail_from_level_sums(level_sums, q)
        if tail == INF and strict:
            raise DivergentTailError(f"{kind} level sums do not decay")
    value = _lp(list(level_terms.values()), q)
    return NormReport(kind, params.r, params.p, q, J_max, value, tail, level_terms)


def _former_hpc_besov_norm(f_coeffs, params, J_max=None, grid_level=None, strict=True):
    """hpc drops terms != 0."""
    kmax = f_coeffs.top_frequency()
    exact_cap = _level_cap(kmax)
    J = exact_cap if J_max is None else int(J_max)
    if grid_level is None:
        grid_level = _alias_free_level(min(2 ** (J + 1), max(kmax, 1)), 4)
    base = f_coeffs.dense(kmax)
    level_terms = {}
    for jbar in np.ndindex(*([J + 1] * f_coeffs.d)):
        g = _dense_block(base, jbar, grid_level)
        term = 2.0 ** (params.r * sum(jbar)) * g.lp_norm(params.p)
        if term != 0.0:
            level_terms[tuple(int(t) for t in jbar)] = term
    return _former_norm_report("hpc", params, J, level_terms, J >= exact_cap, strict)


def _former_seq_norm_report(coeffs, params, strict=True, J=None):
    """seq keeps every level, all-zero ones too."""
    groups = {}
    for (j, _), v in coeffs.entries.items():
        groups.setdefault(j, []).append(v)
    level_terms, top = {}, -1
    for j, vals in groups.items():
        j = tuple(int(t) for t in j)
        top = max(top, *j)
        level_terms[j] = 2.0 ** (plus_l1(j) * (params.r - params.inv_p)) * _lp(vals, params.p)
    return _former_norm_report("cw-seq", params, top, level_terms, J is not None and top < J, strict)


def _former_tensor_report(kind, params, J_max, axis_terms, slope, exact, strict):
    """tensor drops terms that are not > 0."""
    level_terms = {}
    for keys in itertools.product(*axis_terms):
        jbar = tuple(j for (j,) in keys)
        term = 2.0 ** (slope * plus_l1(jbar)) * math.prod(t[k] for t, k in zip(axis_terms, keys))
        if term > 0.0:
            level_terms[jbar] = term
    return _former_norm_report(kind, params, J_max, level_terms, exact, strict)


def _bits(rep):
    """A report as uint64 words: value, tail bound, then each level term in order."""
    floats = [rep.value, rep.tail_bound, *rep.level_terms.values()]
    return (rep.norm_kind, rep.J_max, list(rep.level_terms),
            np.array(floats, dtype=float).view(np.uint64).tolist())


def _signed_zeros(rng, values):
    """values with about a third of them set to +0.0 or -0.0."""
    return [v if u > 1 / 3 else (0.0 if u > 1 / 6 else -0.0) for v, u in zip(values, rng.random(len(values)))]


PARITY_PARAMS = [(1.25, 2.0, 2.0), (0.5, 1.0, 1.0), (1.5, 1.5, 3.0), (0.75, INF, 2.0),
                 (1.0, 2.0, INF), (-0.5, 0.5, 0.75)]


@pytest.mark.parametrize("r, p, q", PARITY_PARAMS)
def test_the_builder_keeps_the_bits_of_the_former_tensor_and_hpc_loops(r, p, q):
    rng = np.random.default_rng(29)
    params = BesovParams(r, p, q)
    for d in (1, 2, 3):
        for _ in range(4):
            tables = []
            for _axis in range(d):
                values = _signed_zeros(rng, rng.exponential(size=6))
                values[rng.integers(6)] = 0.0  # a level that is zero on this axis
                tables.append({(j,): v for j, v in zip(range(-1, 5), values)})
            slope, exact = rng.uniform(-1.0, 2.0), bool(rng.integers(2))
            got = _tensor_report("t", params, 4, tables, slope, exact, strict=False)
            assert _bits(got) == _bits(_former_tensor_report("t", params, 4, tables, slope, exact, False))
    for d, kmax in ((1, 40), (2, 9)):
        for J_max in (None, 2):
            keys = list(np.ndindex(*([kmax + 1] * d)))
            values = _signed_zeros(rng, rng.standard_normal(len(keys)))
            f = hpc_map(dict(zip(keys, values)), d=d)
            got = hpc_besov_norm(f, params, J_max=J_max, strict=False)
            assert _bits(got) == _bits(_former_hpc_besov_norm(f, params, J_max=J_max, strict=False))


@pytest.mark.parametrize("r, p, q", PARITY_PARAMS)
def test_the_builder_keeps_the_former_seq_loop_but_drops_all_zero_levels(r, p, q):
    rng = np.random.default_rng(30)
    params = BesovParams(r, p, q)
    for d in (1, 2):
        levels = list(itertools.product(range(-1, 4), repeat=d))
        for _ in range(4):
            entries, zero = {}, set()
            for j in levels:
                shifts = range(int(rng.integers(1, 4)))
                values = _signed_zeros(rng, rng.standard_normal(len(shifts)))
                if rng.random() < 0.3:  # an all-zero level, besides those the zeros make
                    values = [0.0 if s else -0.0 for s in shifts]
                if not any(values):
                    zero.add(j)
                entries.update({(j, (k,) * d): v for k, v in zip(shifts, values)})
            lam = cw_map(entries, d=d)
            got = seq_norm_report(lam, params, strict=False, J=3)
            old = _former_seq_norm_report(lam, params, strict=False, J=3)
            assert all(old.level_terms[j] == 0.0 for j in zero)
            old.level_terms = {j: t for j, t in old.level_terms.items() if j not in zero}
            # the value sums fewer zeros, in numpy's pairwise order: equal up to that order
            assert got.value == pytest.approx(old.value, rel=1e-15, abs=0.0)
            old.value = got.value
            assert _bits(got) == _bits(old)


def test_norm_comparison_keeps_the_bits_of_the_former_loops(monkeypatch):
    import halfcos.besov as besov
    import halfcos.suite as suite

    members = [m for m in corpus().values() if m.d <= 2] + band_family(0) + band_family(1)
    params = [BesovParams(*rpq) for rpq in (PARITY_PARAMS[0], *PARITY_PARAMS[3:5])]

    def reports():
        return [_bits(rep) for m in members for prm in params
                for rep in suite.norm_comparison(m, prm, J=5, strict=False).values()]

    new = reports()
    monkeypatch.setattr(suite, "hpc_besov_norm", _former_hpc_besov_norm)
    monkeypatch.setattr(suite, "seq_norm_report", _former_seq_norm_report)
    monkeypatch.setattr(suite, "_tensor_report", _former_tensor_report)
    monkeypatch.setattr(besov, "_tensor_report", _former_tensor_report)
    assert new == reports()
