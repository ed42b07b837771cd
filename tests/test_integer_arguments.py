"""Every count, order, level, index and seed of the public API goes through
one check, grids._check_int: a float such as 2.5 and a value below the least
legal one are ConfigErrors naming the argument, and a numpy int at a legal
value is taken as the int it equals."""

import math

import numpy as np
import pytest

from halfcos.approx import exact_projection_error, ls_error_experiment
from halfcos.besov import BesovParams, difference_seminorm, hpc_besov_norm
from halfcos.corpus import band_family, get_member
from halfcos.cubature import (
    convergence_experiment,
    digital_net,
    fibonacci_number,
    fibonacci_rule,
    fit_rate,
    rank1_lattice,
)
from halfcos.errors import ConfigError
from halfcos.indexsets import IndexSet, cross_size, hyperbolic_cross
from halfcos.suite import identity_suite, norm_comparison
from halfcos.wavelets import cw_analyze, dual_coefficients

PARAMS = BesovParams(1.0, 2.0, 2.0)
COS = [lambda x: np.cos(np.pi * x)]


def _integrand(x, y):
    return x * y


def _converge(**kwargs):
    return convergence_experiment(fibonacci_rule, _integrand, 0.25, range(5, 9), **kwargs)


# (id, call of the one argument, a legal value, the least legal value, the
# name that the refusal gives)
CASES = [
    ("identity_suite-d", lambda v: identity_suite(v, 1, n_funcs=1), 1, 1, "dimension d"),
    ("identity_suite-seed", lambda v: identity_suite(1, v, n_funcs=1), 1, 0, "seed"),
    ("identity_suite-n_funcs", lambda v: identity_suite(1, 1, n_funcs=v), 1, 1, "n_funcs"),
    ("norm_comparison-J",
     lambda v: norm_comparison(get_member("mode4_1"), PARAMS, compare=("hpc",), J=v), 2, 0,
     "truncation level J"),
    ("ls_error_experiment-seed",
     lambda v: ls_error_experiment(get_member("kink1"), 4, seed=v, grid_level=6), 1, 0, "seed"),
    ("exact_projection_error-N",
     lambda v: exact_projection_error(get_member("kink1"), v, 16), 4, 1, "cross order N"),
    ("difference_seminorm-m",
     lambda v: difference_seminorm(params=PARAMS, tensor_factors=COS, m=v, J_max=2, grid_level=5),
     2, 1, "difference order m"),
    ("difference_seminorm-J_max",
     lambda v: difference_seminorm(params=PARAMS, tensor_factors=COS, J_max=v, grid_level=5),
     2, 0, "truncation level J_max"),
    ("hpc_besov_norm-J_max",
     lambda v: hpc_besov_norm(get_member("mode4_1").hpc_map(8), PARAMS, J_max=v), 2, 0,
     "truncation level J_max"),
    ("band_family-scale", band_family, 0, 0, "band_family scale"),
    ("sample-grid_level", lambda v: get_member("kink1").sample(8, grid_level=v), 6, 0,
     "grid level m"),
    ("sample-kmax", lambda v: get_member("kink1").sample(v), 8, 0, "coefficient box kmax"),
    ("fibonacci_number-n", fibonacci_number, 5, 1, "Fibonacci index n"),
    ("rank1_lattice-n", lambda v: rank1_lattice((1, 2), v), 5, 1, "rank-1 lattice size n"),
    ("fibonacci_rule-index", fibonacci_rule, 5, 2, "Fibonacci rule index"),
    ("digital_net-m", lambda v: digital_net(v, 2), 3, 0, "net level m"),
    ("digital_net-d", lambda v: digital_net(4, v), 2, 1, "dimension d"),
    ("digital_net-alpha", lambda v: digital_net(4, 2, alpha=v), 2, 1, "interlacing factor alpha"),
    ("fit_rate-skip_smallest", lambda v: fit_rate([2, 4, 8], [1.0, 0.5, 0.25], 0.0, v), 0, 0,
     "skip"),
    ("convergence_experiment-shifts", lambda v: _converge(shifts=v, skip_smallest=0), 1, 0,
     "shifts"),
    ("convergence_experiment-seed", lambda v: _converge(shifts=1, seed=v), 1, 0, "seed"),
    ("IndexSet-d", lambda v: IndexSet(v, ((0,),)), 1, 1, "dimension d"),
    ("hyperbolic_cross-N", lambda v: hyperbolic_cross(v, 2), 3, 1, "cross order N"),
    ("hyperbolic_cross-d", lambda v: hyperbolic_cross(3, v), 2, 1, "dimension d"),
    ("cross_size-N", lambda v: cross_size(v, 2), 3, 1, "cross order N"),
    ("cross_size-d", lambda v: cross_size(3, v), 2, 1, "dimension d"),
    ("dual_coefficients-n_max", lambda v: dual_coefficients(-1, n_max=v), 40, 0, "n_max"),
    ("cw_analyze-J", lambda v: cw_analyze(lambda x: x, J=v), 1, -1, "wavelet level J"),
    ("dual_coefficients-eps", lambda v: dual_coefficients(v, n_max=40), 0, -1, "dual level eps"),
]


@pytest.mark.parametrize("call, legal, least, name", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_integer_arguments_have_one_check(call, legal, least, name):
    with pytest.raises(ConfigError, match=f"{name} must be an int, got 2.5"):
        call(2.5)
    with pytest.raises(ConfigError, match=f"{name} must be >= {least}, got {least - 1}"):
        call(least - 1)
    call(np.int64(legal))


def test_numpy_ints_are_taken_as_the_ints_they_equal():
    # n_max = np.int64(40) was refused; large numpy ints wrapped in the size
    # arithmetic: a dual of garbage, a band family of 0-wide members, a
    # ValueError, and an LS design check passed on to count a cross of 2^40
    want = dual_coefficients(-1)
    got = dual_coefficients(-1, n_max=np.int64(40))
    assert got.n_max == 40 and np.array_equal(got.coefficients, want.coefficients)
    assert got.tail_bound == want.tail_bound and got.decay_base == want.decay_base
    assert cross_size(np.int64(30), np.int64(3)) == cross_size(30, 3)
    for call in (lambda: dual_coefficients(-1, n_max=np.int64(2**62)),
                 lambda: band_family(np.int64(60)),
                 lambda: rank1_lattice((1, 2), np.int64(2**62)),
                 lambda: ls_error_experiment(get_member("kink2"), np.int64(2**40), seed=1)):
        with pytest.raises(ConfigError, match="over the limit"):
            call()


def test_convergence_experiment_refuses_an_unknown_transform():
    # "Tent" ran the plain rule: exp2 over Fibonacci indices 9-13 gave the
    # plain slope -0.998, where "tent" gives -3.963
    exp2 = get_member("exp2")
    for transform in ("Tent", "tent ", "none", None):
        with pytest.raises(ConfigError, match="transform must be 'plain' or 'tent'"):
            convergence_experiment(fibonacci_rule, exp2, exp2.integral, range(9, 14),
                                   transform=transform)
    slopes = {t: convergence_experiment(fibonacci_rule, exp2, exp2.integral, range(9, 14),
                                        transform=t).slope for t in ("plain", "tent")}
    assert math.isclose(slopes["plain"], -0.998, abs_tol=5e-4)
    assert math.isclose(slopes["tent"], -3.963, abs_tol=5e-4)
