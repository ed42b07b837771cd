"""Lattice and net rules against exact node sets, counting properties, and
closed-form error rates."""

import math

import numpy as np
import pytest

from halfcos.cubature import (
    _NET_TABLE,
    _direction_integers,
    CubatureRule,
    convergence_experiment,
    digital_net,
    fibonacci_number,
    fibonacci_rule,
    integrate,
    random_shift,
    rank1_lattice,
    tent_transform_rule,
)
from halfcos.errors import ConfigError
from halfcos.grids import tent


def test_fibonacci_numbers():
    got = [fibonacci_number(n) for n in range(1, 10)]
    assert got == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(ConfigError):
        fibonacci_number(0)


def test_fibonacci_rule_nodes_exact():
    rule = fibonacci_rule(5)
    assert rule.n == 5 and rule.d == 2
    j = np.arange(5)
    assert np.array_equal(rule.nodes[:, 0], j / 5.0)
    assert np.array_equal(rule.nodes[:, 1], (3 * j % 5) / 5.0)
    with pytest.raises(ConfigError):
        fibonacci_rule(1)


def test_fibonacci_is_the_rank1_lattice():
    assert np.array_equal(fibonacci_rule(6).nodes, rank1_lattice((1, 5), 8).nodes)


def test_character_exactness_brute_force():
    # rank-1 rule integrates exp(2 pi i k.x) to its exact value (one when
    # k.z = 0 mod n, zero otherwise); scan every pair with |k_i| <= 10
    rule = fibonacci_rule(7)  # n = 13, z = (1, 8)
    for k1 in range(-10, 11):
        for k2 in range(-10, 11):
            got = integrate(
                rule, lambda x, y: np.exp(2j * np.pi * (k1 * x + k2 * y))
            )
            want = 1.0 if (k1 + 8 * k2) % 13 == 0 else 0.0
            assert abs(got - want) < 1e-12


def test_radical_inverse_column():
    rule = digital_net(3, 1)
    want = [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
    assert np.array_equal(rule.nodes[:, 0], np.array(want))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_net_equidistribution_counting(m):
    # every dyadic box of volume 2^-m holds exactly one node, for all splits
    rule = digital_net(m, 2)
    for a in range(m + 1):
        b = m - a
        ix = np.floor(rule.nodes[:, 0] * 2**a).astype(int)
        iy = np.floor(rule.nodes[:, 1] * 2**b).astype(int)
        assert len(set(zip(ix.tolist(), iy.tolist()))) == 2**m


def test_interlaced_net_digits():
    # order-2 interlacing alternates the digits of an underlying 2d net
    base = digital_net(3, 2)
    z = digital_net(3, 1, alpha=2).nodes[:, 0]
    x, y = base.nodes[:, 0], base.nodes[:, 1]
    assert np.array_equal(np.floor(4 * z), 2 * np.floor(2 * x) + np.floor(2 * y))
    assert np.array_equal(
        np.floor(16 * z) % 4, 2 * (np.floor(4 * x) % 2) + (np.floor(4 * y) % 2)
    )
    assert np.all((0.0 <= z) & (z < 1.0))


NET_DIMS = len(_NET_TABLE) + 1  # every dimension the direction-number table allows
REF_LEVEL = 13


def _reference_net_ints():
    """Point i, axis a of the base-2 sequence, one point at a time: the XOR
    of the direction integers v_k of axis a over the set bits k of i."""
    v = [[int(x) for x in _direction_integers(a)] for a in range(NET_DIMS)]
    rows = []
    for i in range(2**REF_LEVEL):
        row = []
        for a in range(NET_DIMS):
            acc = 0
            for k in range(REF_LEVEL):
                if (i >> k) & 1:
                    acc ^= v[a][k]
            row.append(acc)
        rows.append(row)
    return rows


def _interlace(u: int, w: int) -> int:
    """Digits of two 32-bit integers alternated, u's digit first."""
    out = 0
    for k in range(32):
        out |= ((u >> (31 - k)) & 1) << (63 - 2 * k)
        out |= ((w >> (31 - k)) & 1) << (62 - 2 * k)
    return out


@pytest.fixture(scope="module")
def reference_nets():
    ints = _reference_net_ints()
    pairs = [[_interlace(r[2 * i], r[2 * i + 1]) for i in range(NET_DIMS // 2)] for r in ints]
    plain = np.array([[float(x) * 2.0**-32 for x in r] for r in ints])
    interlaced = np.array([[float(x) * 2.0**-64 for x in r] for r in pairs])
    return {1: plain, 2: interlaced}


def test_digital_net_matches_the_per_point_reference(reference_nets):
    # mixed level order: a level must not depend on the levels built before it
    for m in (13, 0, 7, 1, 13, 7):
        for alpha, ref in reference_nets.items():
            for d in range(1, ref.shape[1] + 1):
                got = digital_net(m, d, alpha).nodes
                assert np.array_equal(got, ref[: 2**m, :d]), (m, d, alpha)


def test_net_argument_guards():
    with pytest.raises(ConfigError):
        digital_net(21, 2)
    with pytest.raises(ConfigError):
        digital_net(4, 2, alpha=3)
    with pytest.raises(ConfigError):
        digital_net(4, 14)
    with pytest.raises(ConfigError):
        digital_net(4, 7, alpha=2)  # needs a 14-dimensional table


def test_weights_are_rational_and_uniform():
    for rule in (fibonacci_rule(7), digital_net(5, 3)):
        assert np.all(rule.weights == 1.0 / rule.n)


@pytest.mark.parametrize(
    "make, message",
    [(lambda: rank1_lattice((1, 3), 0), "n >= 1"),  # was ZeroDivisionError
     (lambda: rank1_lattice((1, 3), -3), "n >= 1"),  # was ValueError
     (lambda: rank1_lattice((), 8), "nonempty z"),  # was a 0-D rule
     (lambda: digital_net(3, 0), "got 0"),  # was a 0-D rule
     (lambda: digital_net(3, -1), "got -1"),  # was ValueError
     (lambda: digital_net(3, 0, alpha=2), "got 0")],
)
def test_empty_rules_raise(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


def test_rank1_generator_is_reduced_mod_n():
    # j * z wrapped in int64 for large z, and z >= 2^63 raised OverflowError
    for z in ((1, 2**62 + 7), (1, 2**70 + 3), (-1, -3)):
        want = np.array([[(j * t) % 1000 / 1000 for t in z] for j in range(1000)])
        assert np.array_equal(rank1_lattice(z, 1000).nodes, want)


def test_rule_sizes_past_the_limit_are_refused():
    # 2 b_35 = 18454930 > 2^24 node coordinates; index 10^6 must not form b_index
    for index in (35, 60, 100, 10**6):
        with pytest.raises(ConfigError, match=f"Fibonacci index {index} asks for a rule of 2 x b_"):
            fibonacci_rule(index)
    with pytest.raises(ConfigError, match="rank-1 lattice n=8388609 asks for 8388609 x 2"):
        rank1_lattice((1, 3), 2**23 + 1)
    assert fibonacci_rule(19).n == fibonacci_number(19) == 4181


def _integrate_reference(rule, f):
    """The sum of the weights 1/n times the values, as integrate forms it."""
    vals = np.asarray(f(*[rule.nodes[:, i] for i in range(rule.d)]))
    total = np.sum(np.full(rule.n, 1.0 / rule.n) * vals)
    return complex(total).real if np.iscomplexobj(vals) else float(total)


def test_integrate_is_the_mean_with_weights_one_over_n():
    rules = [rank1_lattice((1, 5, 7), 31), fibonacci_rule(11), digital_net(7, 3),
             digital_net(6, 2, alpha=2)]
    rules += [random_shift(r, np.random.default_rng(3)) for r in rules]
    rules += [tent_transform_rule(r) for r in rules]
    integrands = [lambda *x: np.exp(sum(x)), lambda *x: np.exp(2j * np.pi * (x[0] - x[-1])),
                  lambda *x: 0.7]
    for rule in rules:
        for f in integrands:
            got, want = integrate(rule, f), _integrate_reference(rule, f)
            assert type(got) is float and got.hex() == want.hex()


def test_tent_rule_is_composition():
    # transforming the nodes and periodizing the integrand are the same sum
    rule = digital_net(6, 2)
    f = lambda x, y: np.exp(x) * (y - 0.3) ** 2
    a = integrate(tent_transform_rule(rule), f)
    b = integrate(rule, lambda x, y: f(tent(x), tent(y)))
    assert a == b


def test_integrate_closed_forms():
    rule = rank1_lattice((1,), 64)
    assert integrate(rule, lambda x: np.ones_like(x)) == 1.0
    got = integrate(rule, lambda x: x)
    assert got == pytest.approx(63.0 / 128.0, rel=1e-15)
    cplx = integrate(digital_net(4, 1), lambda x: np.exp(2j * np.pi * 0 * x))
    assert isinstance(cplx, float) and cplx == 1.0


def test_random_shift_is_the_modular_sum():
    # y - floor(y) must equal np.mod(y, 1.0) bit for bit, here also on
    # nodes outside [0, 1) and at the edges where the sum is an integer
    nodes = np.random.default_rng(1).random((300, 3))
    nodes[:6, 0] = 0.0, 1.0, -0.0, -2.5, np.nextafter(1.0, 0.0), 7.25
    rule = CubatureRule(nodes)
    for seed in range(4):
        shift = np.random.default_rng(seed).random(3)
        got = random_shift(rule, np.random.default_rng(seed)).nodes
        want = np.mod(nodes + shift[None, :], 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for net in (digital_net(10, 3), tent_transform_rule(digital_net(10, 2, alpha=2))):
        got = random_shift(net, np.random.default_rng(7)).nodes
        want = np.mod(net.nodes + np.random.default_rng(7).random(net.d)[None, :], 1.0)
        assert np.array_equal(got, want)


def _shifted_mean_error(rule, f, exact, shifts, seed):
    """Mean absolute error over `shifts` random shifts from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    errs = [abs(integrate(random_shift(rule, rng), f) - exact) for _ in range(shifts)]
    return float(np.mean(errs))


def test_random_shift_and_mean_error_are_seeded():
    rule = fibonacci_rule(8)
    a = random_shift(rule, np.random.default_rng(5))
    b = random_shift(rule, np.random.default_rng(5))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.all((0.0 <= a.nodes) & (a.nodes < 1.0))
    f = lambda x, y: np.exp(x + y)
    exact = (math.e - 1.0) ** 2
    e1 = _shifted_mean_error(rule, f, exact, shifts=4, seed=9)
    e2 = _shifted_mean_error(rule, f, exact, shifts=4, seed=9)
    assert e1 == e2 and e1 > 0.0


def test_shift_counts_below_the_minimum_raise():
    f = lambda x, y: np.exp(x + y)
    exact = (math.e - 1.0) ** 2
    with pytest.raises(ConfigError, match="shifts must be >= 0"):
        convergence_experiment(fibonacci_rule, f, exact, range(5, 9), shifts=-2)
    # shifts=0 still means no shift
    fit = convergence_experiment(fibonacci_rule, f, exact, range(5, 9), shifts=0)
    assert fit.errors == [abs(integrate(fibonacci_rule(i), f) - exact) for i in range(5, 9)]


def test_rate_fit_recovers_exact_rectangle_rate():
    # left rectangle rule on f(x) = x errs by exactly 1/(2n): slope -1
    fit = convergence_experiment(
        lambda i: rank1_lattice((1,), 2**i), lambda x: x, 0.5, range(2, 9)
    )
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-9)
    assert fit.residual < 1e-9
    assert fit.ns == [2**i for i in range(2, 9)]
    for n, e in zip(fit.ns, fit.errors):
        assert e == pytest.approx(0.5 / n, rel=1e-12)


def test_rate_fit_log_correction_steepens_slope():
    base = convergence_experiment(
        lambda i: rank1_lattice((1,), 2**i), lambda x: x, 0.5, range(2, 9)
    )
    corr = convergence_experiment(
        lambda i: rank1_lattice((1,), 2**i),
        lambda x: x,
        0.5,
        range(2, 9),
        log_exponent=1.0,
    )
    assert corr.slope < base.slope
    assert corr.log_exponent == 1.0


def test_rate_fit_rejects_exact_integrands():
    with pytest.raises(ConfigError):
        convergence_experiment(
            lambda i: digital_net(i, 1), lambda x: np.ones_like(x), 1.0, range(2, 7)
        )


def test_tent_gains_an_order_on_smooth_nonperiodic():
    f = lambda x, y: np.exp(x + y)
    exact = (math.e - 1.0) ** 2
    plain = convergence_experiment(fibonacci_rule, f, exact, range(6, 13))
    tented = convergence_experiment(
        fibonacci_rule, f, exact, range(6, 13), transform="tent"
    )
    assert -1.15 < plain.slope < -0.85
    assert tented.slope < plain.slope - 0.4


def test_shifted_experiment_path():
    f = lambda x, y: np.exp(x + y)
    exact = (math.e - 1.0) ** 2
    fit = convergence_experiment(
        fibonacci_rule, f, exact, range(5, 10), transform="tent", shifts=3, seed=2
    )
    again = convergence_experiment(
        fibonacci_rule, f, exact, range(5, 10), transform="tent", shifts=3, seed=2
    )
    assert fit.errors == again.errors
    assert all(e > 0.0 for e in fit.errors)


def test_shifted_experiment_averages_as_shifted_mean_error():
    f = lambda x, y: np.exp(x + y)
    exact = (math.e - 1.0) ** 2
    plain = convergence_experiment(
        fibonacci_rule, f, exact, range(5, 10), shifts=3, seed=4, skip_smallest=0
    )
    tented = convergence_experiment(
        fibonacci_rule, f, exact, range(5, 10), transform="tent", shifts=3, seed=4,
        skip_smallest=0,
    )
    for i, err, err_tent in zip(range(5, 10), plain.errors, tented.errors):
        rule = fibonacci_rule(i)
        assert err == _shifted_mean_error(rule, f, exact, shifts=3, seed=4)
        rng = np.random.default_rng(4)
        errs = [abs(integrate(tent_transform_rule(random_shift(rule, rng)), f) - exact)
                for _ in range(3)]
        assert err_tent == float(np.mean(errs))


def test_rate_fit_csv():
    fit = convergence_experiment(
        lambda i: rank1_lattice((1,), 2**i), lambda x: x, 0.5, range(2, 6)
    )
    lines = fit.csv_rows().strip().split("\n")
    assert lines[0] == "n,error,log2n,log2err"
    assert len(lines) == 5
    n, err, l2n, l2e = lines[1].split(",")
    assert int(n) == 4 and float(err) == pytest.approx(0.125)
    assert float(l2n) == 2.0 and float(l2e) == -3.0
