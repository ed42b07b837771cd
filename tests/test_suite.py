"""Orchestration layer: identity residuals at round-off, consistent norm
truncation, and the band ratio table."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import halfcos.suite as suite
import halfcos.wavelets as wavelets
from halfcos.besov import (
    BesovParams,
    NormReport,
    difference_seminorm,
    hpc_besov_norm,
    seq_norm_report,
)
from halfcos.corpus import band_family, corpus, get_member
from halfcos.errors import ConfigError, DivergentTailError
from halfcos.suite import (
    identity_suite,
    norm_comparison,
    random_cosine_polynomial,
    ratio_table,
    route_ratios,
)
from halfcos.wavelets import cw_analyze

IDENTITIES = [
    "cosine-reflection",
    "scalar-product",
    "coefficient-relation",
    "approx-transfer",
    "cubature-transfer",
    "block-identity",
]


def test_random_polynomial_shape():
    rng = np.random.default_rng(0)
    cf = random_cosine_polynomial(2, rng)
    assert cf.d == 2 and cf.basis == "hpc"
    assert (0, 0) in cf.entries
    assert all(len(k) == 2 for k in cf.entries)
    assert all(0 <= t <= 8 for k in cf.entries for t in k)
    again = random_cosine_polynomial(2, np.random.default_rng(0))
    assert again.entries == random_cosine_polynomial(2, np.random.default_rng(0)).entries
    assert again.entries.keys() == cf.entries.keys()


@pytest.mark.parametrize("d", [1, 2])
def test_identity_suite_at_roundoff(d):
    res = identity_suite(d, seed=42, n_funcs=4)
    assert sorted(res) == sorted(IDENTITIES)
    for name, residual in res.items():
        assert residual < 1e-12, name


def test_identity_suite_rejects_dimension_zero():
    with pytest.raises(ConfigError, match="d must be >= 1"):
        identity_suite(0, seed=1)


@pytest.mark.parametrize("n_funcs", [0, -3])
def test_identity_suite_rejects_an_empty_sample(n_funcs):
    # zero functions would report six residuals of exactly 0.0
    with pytest.raises(ConfigError, match="n_funcs must be >= 1"):
        identity_suite(1, seed=1, n_funcs=n_funcs)


def test_identity_suite_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        identity_suite(1, seed=-1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cubature_transfer_residual_is_exactly_zero(d):
    # both sides integrate the same numpy-summed integrand at bit-equal nodes
    for seed in range(16):
        assert identity_suite(d, seed, n_funcs=2)["cubature-transfer"] == 0.0


# float.hex of identity_suite(3, seed, n_funcs=2, m=5): the 3-D torus side
# (pruned FFTs of the mirrored unit samples) keeps its bits to the last one
_D3_RESIDUALS = {
    1: {"cosine-reflection": "0x1.6a09e667f3bccp-52", "scalar-product": "0x1.a107a2b3d06e2p-51",
        "coefficient-relation": "0x1.3852debb7887cp-59", "approx-transfer": "0x1.2fa25e223cac2p-53",
        "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.159960a126c22p-113"},
    2: {"cosine-reflection": "0x1.ffffffffffffep-54", "scalar-product": "0x1.32cbe70f46251p-50",
        "coefficient-relation": "0x1.063618e57bf3ap-58", "approx-transfer": "0x1.4d49946d4afcfp-53",
        "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.aa34669e3c98cp-54"},
}


@pytest.mark.parametrize("seed", sorted(_D3_RESIDUALS))
def test_identity_suite_in_three_dimensions_keeps_its_bits(seed):
    res = identity_suite(3, seed, n_funcs=2, m=5)
    assert {name: value.hex() for name, value in res.items()} == _D3_RESIDUALS[seed]


# float.hex of identity_suite(d, seed, n_funcs=4) in d = 1 and 2: the tables
# the suite reuses and the steps it runs in place leave every bit where it was
_D12_RESIDUALS = {
    (1, 1): {"cosine-reflection": "0x0.0p+0", "scalar-product": "0x0.0p+0",
             "coefficient-relation": "0x1.ef434d516a8bfp-54", "approx-transfer": "0x1.ba50957824035p-53",
             "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.ba73bd7aa4f8cp-53"},
    (1, 2): {"cosine-reflection": "0x0.0p+0", "scalar-product": "0x1.ee51d19ce9257p-52",
             "coefficient-relation": "0x1.132a50a54e928p-55", "approx-transfer": "0x1.df71c490d1057p-52",
             "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.12dabaa58d2b9p-54"},
    (2, 1): {"cosine-reflection": "0x1.0000000000000p-52", "scalar-product": "0x1.8c3cfaa1d7a63p-50",
             "coefficient-relation": "0x1.13ed7ec720fd8p-56", "approx-transfer": "0x1.a93faeea1d934p-53",
             "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.91ca3410d07a7p-53"},
    (2, 2): {"cosine-reflection": "0x1.0000000000000p-52", "scalar-product": "0x1.87afec5283e4ap-52",
             "coefficient-relation": "0x1.26d38646675d6p-56", "approx-transfer": "0x1.eed82a20d894ap-53",
             "cubature-transfer": "0x0.0p+0", "block-identity": "0x1.a359700d9711dp-108"},
}


@pytest.mark.parametrize("d, seed", sorted(_D12_RESIDUALS))
def test_identity_suite_in_one_and_two_dimensions_keeps_its_bits(d, seed):
    res = identity_suite(d, seed, n_funcs=4)
    assert {name: value.hex() for name, value in res.items()} == _D12_RESIDUALS[(d, seed)]


def test_identity_suite_is_deterministic():
    a = identity_suite(1, seed=7, n_funcs=3)
    b = identity_suite(1, seed=7, n_funcs=3)
    assert a == b


def test_norm_comparison_reports():
    reps = norm_comparison(
        get_member("bspline2_1"), BesovParams(1.5, 2.0, 2.0), strict=False
    )
    assert set(reps) == {"cw", "diff", "hpc"}
    assert all(isinstance(r, NormReport) for r in reps.values())
    # the hat lives in the level-1 spline space: wavelet expansion terminates
    assert reps["cw"].J_max == 1 and reps["cw"].tail_bound == 0.0
    assert reps["cw"].value == pytest.approx(1.1656680873647938, rel=1e-9)
    assert reps["hpc"].value == pytest.approx(1.9931882028676746, rel=1e-9)
    assert reps["diff"].value == pytest.approx(9.033334916168457, rel=1e-6)


def test_norm_comparison_subset_and_guard():
    reps = norm_comparison(
        get_member("exp1"), BesovParams(1.0, 2.0, 2.0), compare=("hpc",)
    )
    assert set(reps) == {"hpc"}
    with pytest.raises(ConfigError):
        norm_comparison(get_member("exp3"), BesovParams(1.0, 2.0, 2.0))
    with pytest.raises(ConfigError, match="J must be >= 0"):
        norm_comparison(get_member("exp1"), BesovParams(1.0, 2.0, 2.0), J=-1)


def test_a_nan_factor_is_refused_on_every_route():
    # the prunes keep NaN coefficients, and the report builder refuses a NaN
    # term, so no route reports a silent zero
    from halfcos.corpus import TestFunction  # imported here, so pytest does not collect it

    nan = lambda x: np.full(np.shape(x), np.nan)
    params = BesovParams(1.25, 2.0, 2.0)
    for d in (1, 2):
        member = TestFunction(f"nan{d}", d, [nan] * d, 0.0, "NaN everywhere")
        assert math.isnan(member.hpc_map_numeric(4).entries[(0,) * d])
        for kind, route in (("cw", "cw-seq"), ("diff", "diff"), ("hpc", "hpc")):
            with pytest.raises(ConfigError, match=rf"{route}: the term of level \(.*\) is NaN"):
                norm_comparison(member, params, compare=(kind,), J=4, strict=False)
    lam = cw_analyze(nan, J=2, kind="dual", prune=1e-13)
    assert lam.entries and all(math.isnan(v) for v in lam.entries.values())
    with pytest.raises(ConfigError, match=r"diff: the term of level \(0,\) is NaN"):
        difference_seminorm(params=params, tensor_factors=[nan])


def test_norm_comparison_finite_expansion_is_not_divergent():
    # hat8_1 at scale 1 lies in the level-3 spline space: levels 4..8 are
    # exact zeros that the prune drops, and the tail is exactly zero
    member = band_family(1)[0]
    rep = norm_comparison(member, BesovParams(1.5, 2.0, 2.0), ("cw",), J=8)["cw"]
    assert rep.J_max == 3 and rep.tail_bound == 0.0


def _coefficients(member, kmax):
    if member.factor_coeff is not None:
        return member.hpc_map(kmax)
    return member.hpc_map_numeric(kmax)


def _tail_kind(tail):
    return "zero" if tail == 0.0 else "infinite" if tail == math.inf else "finite"


# The d-dimensional hpc_besov_norm is the oracle. The dense numeric map of
# bspline4_2 prunes coefficient products below 1e-15, which the factor
# tables keep, so its top-level terms differ by more than round-off.
_PARITY = (
    [pytest.param(name, 5, 1e-13, id=name)
     for name in ("kink2", "bspline2_2", "exp2", "smoothper2", "mode4_2", "monomial2", "const2")]
    + [pytest.param("bspline4_2", 5, 1e-9, id="bspline4_2")]
    + [pytest.param(name, 2, 1e-13, id=name) for name in ("exp3", "monomial3", "const3")]
)


@pytest.mark.parametrize("name, J, rel", _PARITY)
def test_factor_tables_match_the_d_dimensional_block_norm(name, J, rel):
    member = get_member(name)
    coeffs = _coefficients(member, 2 ** (J + 1))
    for p in (1.0, 2.0, math.inf):
        for r in (1.25, 1.5, 1.75):
            params = BesovParams(r, p, 2.0)
            want = hpc_besov_norm(coeffs, params, J_max=J, strict=False)
            got = norm_comparison(member, params, ("hpc",), J=J, strict=False)["hpc"]
            assert set(got.level_terms) == set(want.level_terms)
            for key, term in want.level_terms.items():
                assert got.level_terms[key] == pytest.approx(term, rel=rel)
            assert got.value == pytest.approx(want.value, rel=rel)
            assert _tail_kind(got.tail_bound) == _tail_kind(want.tail_bound)
            if _tail_kind(want.tail_bound) == "finite":
                assert got.tail_bound == pytest.approx(want.tail_bound, rel=rel)
            if name in ("mode4_2", "const2", "const3"):  # truncations that are exact
                assert got.tail_bound == 0.0


def test_factor_tables_raise_the_strict_tail_error_of_the_d_dimensional_route():
    member, J, params = get_member("monomial3"), 2, BesovParams(1.5, 2.0, 2.0)
    with pytest.raises(DivergentTailError) as want:
        hpc_besov_norm(member.hpc_map(2 ** (J + 1)), params, J_max=J)
    with pytest.raises(DivergentTailError) as got:
        norm_comparison(member, params, ("hpc",), J=J)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["kink2", "bspline4_2", "exp3"])
def test_block_norms_are_taken_once_per_distinct_factor(monkeypatch, name):
    calls = []

    def counting(coeffs, *args, **kwargs):
        calls.append(coeffs.d)
        return hpc_besov_norm(coeffs, *args, **kwargs)

    monkeypatch.setattr(suite, "hpc_besov_norm", counting)
    norm_comparison(get_member(name), BesovParams(1.5, 2.0, 2.0), ("hpc",), J=3, strict=False)
    assert calls == [1]


@pytest.mark.parametrize("name", ["kink2", "bspline4_2"])
def test_cw_route_analyses_each_distinct_factor_once(monkeypatch, name):
    calls = []
    real = wavelets.cw_analyze_1d
    monkeypatch.setattr(wavelets, "cw_analyze_1d", lambda *a: calls.append(a) or real(*a))
    norm_comparison(get_member(name), BesovParams(1.5, 2.0, 2.0), ("cw",), J=3, strict=False)
    assert len(calls) == 1


def test_univariate_routes_equal_the_direct_calls_bit_for_bit():
    J, params = 6, BesovParams(1.5, 2.0, 2.0)
    members = [tf for tf in corpus().values() if tf.d == 1] + band_family(0)
    for member in members:
        reps = norm_comparison(member, params, ("hpc", "cw", "diff"), J=J, strict=False)
        lam = cw_analyze(member.factors[0], J=J, kind="dual", f_breaks=member.factor_breaks[0],
                         prune=1e-13)
        direct = {
            "hpc": hpc_besov_norm(_coefficients(member, 2 ** (J + 1)), params, J_max=J,
                                  strict=False),
            "cw": seq_norm_report(lam, params, strict=False, J=J),
            "diff": difference_seminorm(params=params, m=3, J_max=J, grid_level=J + 4,
                                        tensor_factors=member.factors),
        }
        for kind, want in direct.items():
            got = reps[kind]
            assert (got.value, got.tail_bound, got.J_max) == (
                want.value, want.tail_bound, want.J_max), (kind, member.name)
            assert got.level_terms == want.level_terms, (kind, member.name)


def test_ratio_table_rows():
    rows = ratio_table(BesovParams(1.0, 2.0, 2.0), scales=(0,), J=4)
    assert len(rows) == 20
    assert all(row["scale"] == 0 for row in rows)
    assert len({row["name"] for row in rows}) == 20
    for row in rows:
        assert set(row) == {
            "scale", "name", "hpc", "cw", "diff", "cw_ratio", "diff_ratio"
        }
        assert row["cw_ratio"] == pytest.approx(row["cw"] / row["hpc"], rel=1e-15)
        assert 0.0 < row["cw_ratio"] < 100.0
        assert 0.0 < row["diff_ratio"] < 100.0


def test_ratio_table_matches_norm_comparison():
    # every row holds the three routes of norm_comparison and their route_ratios
    params = BesovParams(1.0, 2.0, 2.0)
    rows = ratio_table(params, scales=(0,), J=4)
    for member in band_family(0)[::7]:
        reps = norm_comparison(member, params, J=4, strict=False)
        row = next(r for r in rows if r["name"] == member.name)
        assert {kind: row[kind] for kind in ("cw", "diff", "hpc")} == {
            kind: rep.value for kind, rep in reps.items()}
        ratios = route_ratios(reps)
        assert (row["cw_ratio"], row["diff_ratio"]) == (ratios["cw"], ratios["diff"])


def test_unknown_route_names_are_refused():
    params = BesovParams(1.5, 2.0, 2.0)
    with pytest.raises(ConfigError, match="unknown norm kind 'hcp' in --compare"):
        norm_comparison(get_member("kink1"), params, compare=("hcp",))


def test_route_ratios_need_a_positive_hpc_value():
    rep = lambda v: SimpleNamespace(value=v)
    reports = {"diff": rep(3.0), "hpc": rep(2.0), "cw": rep(1.0)}
    got = route_ratios(reports)
    assert list(got.items()) == [("cw", 0.5), ("diff", 1.5)]
    assert route_ratios({"hpc": rep(2.0)}) == {}
    assert route_ratios({"cw": rep(1.0), "diff": rep(3.0)}) == {}
    for bad in (0.0, -1.0, float("nan")):
        assert route_ratios({"cw": rep(1.0), "hpc": rep(bad)}) == {}
