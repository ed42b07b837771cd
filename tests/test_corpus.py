"""Registry metadata against adaptive quadrature and the dense transform."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfcos.errors import AliasingError, ConfigError
from halfcos.grids import UNIT, GridFunction, hpc_analyze_dense
from halfcos.corpus import (
    KINK_A,
    band_family,
    corpus,
    exp_coeff,
    get_member,
    gibbs_demo,
    h2_family,
    kink_coeff,
    linear_coeff,
    smoothper_coeff,
)
from closed_forms import hpc_coefficient, self_check

SQ = math.sqrt(2.0)


def test_every_member_self_checks():
    for tf in corpus().values():
        assert self_check(tf) < 1e-12, tf.name


def test_closed_form_spot_values():
    assert linear_coeff(0) == 0.5
    assert linear_coeff(1) == pytest.approx(-2.0 * SQ / math.pi**2, rel=1e-15)
    assert linear_coeff(2) == 0.0
    assert exp_coeff(0) == math.e - 1.0
    assert smoothper_coeff(0) == 1.0
    assert smoothper_coeff(2) == 0.0
    assert smoothper_coeff(1) == pytest.approx(2.0 * SQ / (3.0 * math.pi), rel=1e-15)
    assert kink_coeff(KINK_A, 0) == (1.0 - KINK_A) ** 2 / 2.0


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_closed_forms_against_adaptive_quadrature(k):
    got, _ = quad(
        lambda x: max(x - KINK_A, 0.0) * SQ * math.cos(math.pi * k * x),
        0.0, 1.0, points=[KINK_A],
    )
    assert got == pytest.approx(kink_coeff(KINK_A, k), abs=1e-12)
    got, _ = quad(lambda x: math.exp(x) * SQ * math.cos(math.pi * k * x), 0.0, 1.0)
    assert got == pytest.approx(exp_coeff(k), abs=1e-12)
    got, _ = quad(
        lambda x: (1.0 + 0.5 * math.sin(2.0 * math.pi * x))
        * SQ * math.cos(math.pi * k * x),
        0.0, 1.0,
    )
    assert got == pytest.approx(smoothper_coeff(k), abs=1e-12)
    got, _ = quad(lambda x: x * SQ * math.cos(math.pi * k * x), 0.0, 1.0)
    assert got == pytest.approx(linear_coeff(k), abs=1e-12)


def test_closed_map_matches_numeric_transform():
    for name in ("monomial1", "exp1", "kink1", "smoothper1", "mode4_1", "const1"):
        tf = get_member(name)
        a = tf.hpc_map(12).entries
        b = tf.hpc_map_numeric(12, grid_level=12).entries
        for key in set(a) | set(b):
            # dense transform is trapezoid-based: h^2 accuracy at level 12
            assert a.get(key, 0.0) == pytest.approx(b.get(key, 0.0), abs=2e-7), name


@pytest.mark.parametrize(
    "name, kmax",
    [("kink2", 20), ("exp3", 6), ("smoothper2", 9), ("mode4_1", 7), ("const3", 3)],
)
def test_closed_map_matches_the_box_walk(name, kmax):
    tf = get_member(name)
    ref = {}
    for kbar in np.ndindex(*([kmax + 1] * tf.d)):
        v = hpc_coefficient(tf, kbar)
        if v != 0.0:
            ref[kbar] = v
    assert list(tf.hpc_map(kmax).entries.items()) == list(ref.items())
    with pytest.raises(ConfigError, match="kmax must be >= 0"):
        tf.hpc_map(-1)


def test_coefficient_vectors_evaluate_each_function_once():
    calls = []

    def counted(k):
        calls.append(k)
        return kink_coeff(KINK_A, k)

    tf = dataclasses.replace(get_member("kink2"), factor_coeff=[counted] * 2)
    vectors = tf.coefficient_vectors(10)
    assert len(calls) == 11
    assert [v.tolist() for v in vectors] == [[kink_coeff(KINK_A, k) for k in range(11)]] * 2
    for name in ("kink2", "exp3", "smoothper2"):  # the same bits as one call per axis
        tf = get_member(name)
        ref = [np.array([c(k) for k in range(17)], dtype=float) for c in tf.factor_coeff]
        got = tf.coefficient_vectors(16)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def test_numeric_map_matches_the_box_walk():
    tf = get_member("bspline2_2")
    g = GridFunction.from_callable(tf, 2, 6, UNIT)
    dense = hpc_analyze_dense(g)
    ref = {}
    for kbar in np.ndindex(9, 9):
        if abs(float(dense[kbar])) > 1e-15:
            ref[kbar] = float(dense[kbar])
    assert list(tf.hpc_map_numeric(8, grid_level=6).entries.items()) == list(ref.items())
    with pytest.raises(AliasingError):
        tf.hpc_map_numeric(40, grid_level=5)
    with pytest.raises(AliasingError, match="m=0"):  # level 0 is sampled, not replaced
        tf.hpc_map_numeric(8, grid_level=0)
    with pytest.raises(ConfigError, match="kmax must be >= 0"):
        tf.hpc_map_numeric(-1)


def test_numeric_map_without_closed_form():
    tf = get_member("bspline2_1")
    with pytest.raises(ValueError, match="no closed-form coefficients"):
        tf.coefficient_vectors(1)
    ent = tf.hpc_map_numeric(8, grid_level=10).entries
    # the hat is symmetric about 1/2, so odd coefficients vanish
    assert (1,) not in ent
    got, _ = quad(
        lambda x: tf.factors[0](np.array([x]))[0] * SQ * math.cos(2.0 * math.pi * x),
        0.0, 1.0, points=list(tf.factor_breaks[0]),
    )
    assert ent[(2,)] == pytest.approx(got, abs=1e-6)


def test_tensor_members_factorize():
    k1, k2 = get_member("kink1"), get_member("kink2")
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(0.0, 1.0, 7)
    mx, my = np.meshgrid(x, y, indexing="ij")
    assert np.array_equal(k2(mx, my), k1(mx) * k1(my))
    assert hpc_coefficient(k2, (3, 5)) == pytest.approx(
        hpc_coefficient(k1, (3,)) * hpc_coefficient(k1, (5,)), rel=1e-15
    )
    assert k2.integral == pytest.approx(k1.integral**2, rel=1e-15)


def test_aliases_and_unknown_names():
    assert get_member("kink1d").name == "kink1"
    assert get_member("kink2d").name == "kink2"
    assert get_member("bspline2").name == "bspline2_1"
    assert get_member("bspline4").name == "bspline4_1"
    with pytest.raises(KeyError, match="testfns list"):
        get_member("nosuch")


def test_registry_contents():
    reg = corpus()
    for d in (1, 2, 3):
        for stem in ("const", "monomial", "exp"):
            assert f"{stem}{d}" in reg and reg[f"{stem}{d}"].d == d
    for d in (1, 2):
        for stem in ("mode4_", "kink", "smoothper", "bspline2_", "bspline4_"):
            assert f"{stem}{d}" in reg
    assert reg["gibbs"].tag.startswith("step-like")
    assert all(tf.name == name for name, tf in reg.items())


@pytest.mark.parametrize("scale", [0, 1])
def test_band_family_members(scale):
    fam = band_family(scale)
    assert len(fam) == 20
    names = [tf.name for tf in fam]
    assert len(set(names)) == 20
    assert all(name.endswith(f"@s{scale}") for name in names)
    for tf in fam:
        assert tf.d == 1
        assert self_check(tf) < 1e-12, tf.name
        # boundary-vanishing: supports sit inside the open interval
        assert tf(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_band_family_scaling_relation():
    f0 = {tf.name.split("@")[0]: tf for tf in band_family(0)}
    f1 = {tf.name.split("@")[0]: tf for tf in band_family(1)}
    x = np.linspace(0.0, 0.499, 113)
    for name, tf1 in f1.items():
        tf0 = f0[name]
        assert np.max(np.abs(tf1(x) - tf0(2.0 * x))) < 1e-14, name
        assert tf1.integral == pytest.approx(tf0.integral / 2.0, rel=1e-15)


def test_h2_family_is_smooth_nonperiodic_2d():
    fam = h2_family()
    assert [tf.name for tf in fam] == ["exp2", "monomial2", "smoothper2"]
    assert all(tf.d == 2 and tf.factor_coeff is not None for tf in fam)


def test_gibbs_columns():
    rows = gibbs_demo(get_member("gibbs").factors[0], 8)
    assert [r[0] for r in rows] == list(range(1, 9))
    for k, sine_k, cos_k2 in rows:
        # periodization of x jumps at the seam: sine column pins at 1/pi
        assert sine_k == pytest.approx(1.0 / math.pi, abs=1e-4)
        if k % 2:
            assert cos_k2 == pytest.approx(2.0 * SQ / math.pi**2, abs=1e-4)
        else:
            assert abs(cos_k2) < 1e-12


def test_gibbs_columns_smooth_function_decay():
    rows = gibbs_demo(get_member("smoothper1").factors[0], 6)
    assert rows[0][1] > 0.4  # the single sine mode
    for k, sine_k, cos_k2 in rows[1:]:
        assert sine_k < 1e-6
