"""Registry of test functions with exactly known integrals and, where a
closed form exists, half-period cosine coefficients. Every experiment and
acceptance test draws its inputs from here.

Closed forms used (a in (0,1), k >= 1, all by integration by parts):
    x           -> sqrt(2) ((-1)^k - 1) / (pi k)^2,          mean 1/2
    (x - a)_+   -> sqrt(2) ((-1)^k - cos(pi k a)) / (pi k)^2, mean (1-a)^2/2
    e^x         -> sqrt(2) (e (-1)^k - 1) / (1 + (pi k)^2),   mean e - 1
    1+sin(2pi x)/2 -> 2 sqrt(2) / (pi (4 - k^2)) for odd k,   mean 1
B-spline members are evaluated by Cox-de Boor recursion (bspline_value) and
have exact integrals; aliasing-checked transforms give their coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import (
    UNIT,
    CoefficientMap,
    GridFunction,
    _alias_free_level,
    _check_aliasing,
    _check_grid_size,
    _check_int,
    _check_kmax,
    _check_size,
    _per_factor,
    _weigh,
    hpc_analyze_dense,
    hpc_basis_1d,
)
from .wavelets import bspline_value

__all__ = [
    "TestFunction",
    "corpus",
    "get_member",
    "band_family",
    "h2_family",
    "kink_coeff",
    "linear_coeff",
    "exp_coeff",
    "smoothper_coeff",
    "gibbs_demo",
    "KINK_A",
]

SQRT2 = math.sqrt(2.0)
KINK_A = 1.0 / math.pi  # irrational knot, avoids grid alignment


def linear_coeff(k: int) -> float:
    return kink_coeff(0.0, k)  # x is the kink (x - a)_+ at a = 0


def kink_coeff(a: float, k: int) -> float:
    if k == 0:
        return (1.0 - a) ** 2 / 2.0
    return SQRT2 * ((-1.0) ** k - math.cos(math.pi * k * a)) / (math.pi * k) ** 2


def exp_coeff(k: int) -> float:
    if k == 0:
        return math.e - 1.0
    return SQRT2 * (math.e * (-1.0) ** k - 1.0) / (1.0 + (math.pi * k) ** 2)


def smoothper_coeff(k: int) -> float:
    if k == 0:
        return 1.0
    if k % 2 == 0:
        return 0.0
    return 2.0 * SQRT2 / (math.pi * (4.0 - k * k))


@dataclass
class TestFunction:
    """Tensor-product test function on [0,1]^d with exact metadata.

    factors: univariate vectorized evaluators (len d). factor_coeff:
    optional per-axis closed-form coefficient functions. factor_breaks:
    per-axis breakpoints of piecewise factors (empty for smooth ones).
    """

    name: str
    d: int
    factors: list
    integral: float
    tag: str
    factor_coeff: list = None
    factor_breaks: list = field(default_factory=list)

    def __call__(self, *axes):
        if len(axes) != self.d:
            raise ConfigError(f"{self.name} takes d={self.d} coordinate arrays, got {len(axes)}")
        out = None
        for fi, x in zip(self.factors, axes):
            t = np.asarray(fi(np.asarray(x, dtype=float)), dtype=float)
            out = t if out is None else out * t
        return out

    def factor_member(self, i: int) -> "TestFunction":
        """The univariate member of axis i: the same callable, closed-form
        coefficients and breaks. A univariate member is its own factor. The
        integral is math.nan, as no norm route reads it; factor members are
        not registered."""
        if self.d == 1:
            return self
        return TestFunction(
            name=f"{self.name}[{i}]",
            d=1,
            factors=[self.factors[i]],
            integral=math.nan,
            tag=self.tag,
            factor_coeff=None if self.factor_coeff is None else [self.factor_coeff[i]],
            factor_breaks=self.factor_breaks[i : i + 1],
        )

    def coefficient_vectors(self, kmax: int) -> list:
        """Per-axis closed-form coefficients c_i(0), ..., c_i(kmax). Each
        distinct coefficient function is evaluated once, and axes that share
        it share its vector."""
        if self.factor_coeff is None:
            raise ConfigError(f"{self.name} has no closed-form coefficients")
        return _per_factor(self.factor_coeff, lambda i: np.array(
            [self.factor_coeff[i](k) for k in range(kmax + 1)], dtype=float))

    def hpc_map(self, kmax: int) -> CoefficientMap:
        """Closed-form coefficients on the full box |kbar|_inf <= kmax."""
        _check_kmax(kmax)
        box = _weigh(np.ones((kmax + 1,) * self.d), self.coefficient_vectors(kmax))
        return CoefficientMap.from_box(box, box != 0.0)

    def sample(self, kmax: int, grid_level: int = None) -> GridFunction:
        """Samples on the level-grid_level unit-cube grid, by default the
        least alias-free level >= 6, for coefficients up to kmax (an int >= 0).
        The size is checked before sampling and the aliasing after, so that a
        fractional or negative level is the ConfigError of the sampling."""
        kmax = _check_kmax(kmax)
        if grid_level is None:
            m, source = _alias_free_level(kmax, 6), f"--kmax {kmax}"
        else:
            m, source = grid_level, f"--grid-level {grid_level}"
        _check_grid_size(m, self.d, UNIT, source)
        g = GridFunction.from_callable(self, self.d, m, UNIT)
        _check_aliasing(m, kmax)
        return g

    def hpc_map_numeric(self, kmax: int, grid_level: int = None) -> CoefficientMap:
        """Coefficients by aliasing-checked dense transform on the box."""
        box = hpc_analyze_dense(self.sample(kmax, grid_level), kmax + 1)
        return CoefficientMap.from_box(box, ~(np.abs(box) <= 1e-15))  # keeps NaN


def _spline(order: int, width: float, shift: float):
    return lambda x: bspline_value(order, width * x - shift)


def _combo(parts):
    """parts: list of (coef, callable); returns their linear combination."""

    def f(x):
        acc = None
        for c, g in parts:
            t = c * np.asarray(g(x), dtype=float)
            acc = t if acc is None else acc + t
        return acc

    return f


def _dyadic_breaks(width: int) -> tuple:
    return tuple(np.arange(width + 1) / width)


def _tensor(name, d, factor, integral_1d, tag, coeff=None, breaks=()):
    return TestFunction(
        name=name,
        d=d,
        factors=[factor] * d,
        integral=integral_1d**d,
        tag=tag,
        factor_coeff=[coeff] * d if coeff else None,
        factor_breaks=[breaks] * d,
    )


def corpus() -> dict:
    """Name -> TestFunction registry used by experiments and the CLI."""
    members = {}

    def add(tf: TestFunction):
        members[tf.name] = tf

    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    lin = lambda x: np.asarray(x, dtype=float)
    kink = lambda x: np.maximum(np.asarray(x, dtype=float) - KINK_A, 0.0)
    mode4 = lambda x: hpc_basis_1d(4, x)
    sper = lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    eexp = lambda x: np.exp(np.asarray(x, dtype=float))

    for d in (1, 2, 3):
        add(_tensor(f"const{d}", d, one, 1.0, "constant",
                    coeff=lambda k: 1.0 if k == 0 else 0.0))
        add(_tensor(f"monomial{d}", d, lin, 0.5, "H2-nonperiodic (boundary)",
                    coeff=linear_coeff))
        add(_tensor(f"exp{d}", d, eexp, math.e - 1.0, "H2-nonperiodic (smooth)",
                    coeff=exp_coeff))
    for d in (1, 2):
        add(_tensor(f"mode4_{d}", d, mode4, 0.0, "single cosine mode",
                    coeff=lambda k: 1.0 if k == 4 else 0.0))
        add(_tensor(f"kink{d}", d, kink, (1.0 - KINK_A) ** 2 / 2.0,
                    "r~3/2 in L2 scale (kink)",
                    coeff=lambda k: kink_coeff(KINK_A, k), breaks=(KINK_A,)))
        add(_tensor(f"smoothper{d}", d, sper, 1.0, "smooth periodic",
                    coeff=smoothper_coeff))
        add(_tensor(f"bspline2_{d}", d, _spline(2, 4.0, 1.0), 0.25,
                    "r~3/2 in L2 scale (hat)", breaks=_dyadic_breaks(4)))
        add(_tensor(f"bspline4_{d}", d, _spline(4, 8.0, 2.0), 0.125,
                    "r~7/2 in L2 scale (cubic spline)", breaks=_dyadic_breaks(8)))
    add(TestFunction(name="gibbs", d=1, factors=[lin], integral=0.5,
                     tag="step-like: f(0) != f(1)", factor_coeff=[linear_coeff],
                     factor_breaks=[()]))
    return members


# Dimension-suffixed and order-only spellings accepted on the command line.
_ALIASES = {
    "kink1d": "kink1",
    "kink2d": "kink2",
    "bspline2": "bspline2_1",
    "bspline4": "bspline4_1",
}


def get_member(name: str) -> TestFunction:
    reg = corpus()
    name = _ALIASES.get(name, name)
    if name not in reg:
        raise ConfigError(f"unknown test function {name!r}; see testfns list")
    return reg[name]


def band_family(scale: int = 0) -> list:
    """Twenty univariate boundary-vanishing spline members at the given
    dyadic refinement scale; member i at scale s is member i at scale 0
    composed with x -> 2^s x (supports shrink, shapes persist).

    Each part is (coef, order, width, shift): coef * N_order(width x - shift),
    supported in (0,1), with exact integral coef / width. A negative scale
    would move supports off [0, 1], and is refused."""
    scale = _check_int(scale, 0, "band_family scale")
    count = 16 * 2**scale + 1 if scale <= 64 else math.inf  # 2^scale takes scale bits
    _check_size(count, f"band_family scale {scale}", f"{count} breakpoints per member")
    w4, w8, w16 = 4 * 2**scale, 8 * 2**scale, 16 * 2**scale
    specs = []
    for k in range(1, 6):
        specs.append((f"hat8_{k}", [(1.0, 2, w8, k)]))
    for k in (1, 2):
        specs.append((f"hat4_{k}", [(1.0, 2, w4, k)]))
    specs.append(("hat16_3", [(1.0, 2, w16, 3)]))
    for k in range(1, 5):
        specs.append((f"n4w8_{k}", [(1.0, 4, w8, k)]))
    for k in (2, 6):
        specs.append((f"n4w16_{k}", [(1.0, 4, w16, k)]))
    specs.append(("two_bumps", [(1.0, 2, w8, 1), (1.0, 2, w8, 3)]))
    specs.append(("dip", [(1.0, 2, w8, 2), (-0.5, 2, w8, 4)]))
    specs.append(("mix_smooth_kink", [(1.0, 4, w8, 1), (1.0, 2, w8, 4)]))
    specs.append(("wide_narrow", [(1.0, 2, w4, 1), (-1.0, 2, w8, 2)]))
    specs.append(("n4_plus_fine", [(1.0, 4, w8, 2), (0.25, 2, w16, 3)]))
    specs.append(("three_bumps", [(1.0, 2, w8, 1), (1.0, 2, w8, 2),
                                  (1.0, 2, w8, 3)]))

    out = []
    for name, parts in specs:
        callables = [(c, _spline(order, w, k)) for c, order, w, k in parts]
        out.append(
            TestFunction(
                name=f"{name}@s{scale}",
                d=1,
                factors=[_combo(callables)],
                integral=sum(c / w for c, order, w, k in parts),
                tag="band corpus (spline)",
                factor_breaks=[_dyadic_breaks(w16)],
            )
        )
    return out


def h2_family() -> list:
    """Smooth non-periodic d=2 members for the cubature rate experiments."""
    reg = corpus()
    return [reg["exp2"], reg["monomial2"], reg["smoothper2"]]


def gibbs_demo(member: TestFunction, k_max: int, grid_level: int = None) -> list:
    """Rows (k, |periodic sine coefficient| * k, |cosine coefficient| * k^2)
    for k = 1..k_max: the first column stays bounded away from zero for a
    step-like member (periodization jump), the second stays bounded. The
    samples are member.sample(k_max, grid_level), at level 12 if grid_level
    is None, with its refusals; ConfigError for a member with d != 1."""
    if member.d != 1:
        raise ConfigError("gibbs mode needs a univariate function")
    g = member.sample(k_max, 12 if grid_level is None else grid_level)
    x, vals = g.axis_points(), g.values
    w = g.axis_weights()
    dense = hpc_analyze_dense(g, k_max + 1)
    rows = []
    for k in range(1, k_max + 1):
        sine = 2.0 * float(np.sum(w * vals * np.sin(2.0 * np.pi * k * x)))
        rows.append((k, abs(sine) * k, abs(float(dense[k])) * k * k))
    return rows
