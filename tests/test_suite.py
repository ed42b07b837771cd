"""Orchestration layer: identity residuals at round-off, consistent norm
truncation, and the band ratio table."""

import numpy as np
import pytest

from halfcos.besov import BesovParams, NormReport
from halfcos.corpus import get_member
from halfcos.errors import ConfigError
from halfcos.suite import (
    identity_suite,
    norm_comparison,
    random_cosine_polynomial,
    ratio_table,
)

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
    cf = random_cosine_polynomial(2, rng, kmax=5, terms=8)
    assert cf.d == 2 and cf.basis == "hpc"
    assert (0, 0) in cf.entries
    assert all(len(k) == 2 for k in cf.entries)
    assert all(0 <= t <= 5 for k in cf.entries for t in k)
    again = random_cosine_polynomial(2, np.random.default_rng(0), kmax=5, terms=8)
    assert again.entries == random_cosine_polynomial(
        2, np.random.default_rng(0), kmax=5, terms=8
    ).entries
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
    with pytest.raises(ConfigError, match="kmax must be >= 0"):
        norm_comparison(get_member("exp1"), BesovParams(1.0, 2.0, 2.0), kmax=-1)
    # kmax=0 keeps the constant term alone; it is not replaced by 2^(J+1)
    only = norm_comparison(get_member("exp1"), BesovParams(1.0, 2.0, 2.0), ("hpc",), kmax=0)
    assert set(only["hpc"].level_terms) == {(0,)}


def test_norm_comparison_finite_expansion_is_not_divergent():
    # hat8_1 at scale 1 lies in the level-3 spline space: levels 4..8 are
    # exact zeros that the prune drops, and the tail is exactly zero
    from halfcos.corpus import band_family

    member = band_family(1)[0]
    rep = norm_comparison(member, BesovParams(1.5, 2.0, 2.0), ("cw",), J=8)["cw"]
    assert rep.J_max == 3 and rep.tail_bound == 0.0


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
    rows = ratio_table(
        BesovParams(1.0, 2.0, 2.0), scales=(0,), J=4, compare=("hpc", "cw")
    )
    from halfcos.corpus import band_family

    member = band_family(0)[0]
    reps = norm_comparison(
        member, BesovParams(1.0, 2.0, 2.0), J=4, compare=("hpc", "cw"), strict=False
    )
    row = next(r for r in rows if r["name"] == member.name)
    assert row["hpc"] == reps["hpc"].value
    assert row["cw"] == reps["cw"].value
    assert "diff" not in row
