"""Property harness of the three norm routes (ROADMAP item 3(f)) on random
continuous piecewise-linear factors with 1 to 4 breaks in (0.05, 0.95), and
on products of two of them. Draws are derandomized, so every run checks the
same inputs.

Asserted here, at p = q = 2 and r = 1.25:
- the hpc value does not change under the mirror x -> 1 - x;
- every route returns a finite value;
- the factor-table hpc route of norm_comparison equals hpc_besov_norm on the
  outer product of the two factor maps (no prune of small products).
The cw and diff routes are not mirror invariant yet (item 3(a)); their gaps
are not asserted.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from halfcos import corpus
from halfcos.besov import BesovParams, hpc_besov_norm
from halfcos.grids import CoefficientMap
from halfcos.suite import norm_comparison

J = 6
PARAMS = BesovParams(1.25, 2.0, 2.0)
HARNESS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _ramp_sum(breaks, slopes, value):
    """value + slopes[0] x + sum_i (slopes[i + 1] - slopes[i]) (x - breaks[i])_+:
    continuous, linear between the breaks, with slope slopes[i] left of
    breaks[i]; the formula continues it past [0, 1]."""

    def f(x):
        x = np.asarray(x, dtype=float)
        out = value + slopes[0] * x
        for b, left, right in zip(breaks, slopes, slopes[1:]):
            out = out + (right - left) * np.maximum(x - b, 0.0)
        return out

    return f


# Rounded, so that no draw is so small that its squares underflow.
_coef = st.floats(-4.0, 4.0).map(lambda s: round(s, 6))


@st.composite
def _factor(draw):
    """(callable, breaks) of a random continuous piecewise-linear factor."""
    breaks = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True)))
    slopes = draw(st.lists(_coef, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    value = draw(_coef)
    return _ramp_sum(breaks, slopes, value), tuple(breaks)


def _member(factors) -> corpus.TestFunction:
    return corpus.TestFunction(name="random", d=len(factors), factors=[f for f, _ in factors],
                               integral=math.nan, tag="random piecewise linear",
                               factor_breaks=[b for _, b in factors])


def _mirror(factor):
    f, breaks = factor
    return (lambda x: f(1.0 - np.asarray(x, dtype=float))), tuple(sorted(1.0 - b for b in breaks))


_members = st.lists(_factor(), min_size=1, max_size=2)


@HARNESS
@given(_members)
def test_hpc_value_is_mirror_invariant(factors):
    value = norm_comparison(_member(factors), PARAMS, compare=("hpc",), J=J, strict=False)
    mirrored = norm_comparison(_member([_mirror(f) for f in factors]), PARAMS,
                               compare=("hpc",), J=J, strict=False)
    a, b = value["hpc"].value, mirrored["hpc"].value
    assert abs(a - b) <= 1e-13 * max(a, b, 1e-300)


@HARNESS
@given(_members)
def test_every_route_returns_a_finite_value(factors):
    reports = norm_comparison(_member(factors), PARAMS, J=J, strict=False)
    assert sorted(reports) == ["cw", "diff", "hpc"]
    assert all(math.isfinite(rep.value) for rep in reports.values()), reports


@settings(HARNESS, max_examples=10)
@given(_factor(), _factor())
def test_factor_tables_equal_the_2d_block_norm(f1, f2):
    member = _member([f1, f2])
    tables = norm_comparison(member, PARAMS, compare=("hpc",), J=J, strict=False)["hpc"]
    maps = [member.factor_member(i).hpc_map_numeric(2 ** (J + 1)) for i in range(2)]
    box = np.multiply.outer(*(c.dense(c.top_frequency()) for c in maps))
    oracle = hpc_besov_norm(CoefficientMap.from_box(box, box != 0.0), PARAMS, J_max=J,
                            strict=False)
    assert abs(tables.value - oracle.value) <= 1e-12 * max(oracle.value, 1e-300)
