"""Order-2 spline wavelets (piecewise-linear, two vanishing moments),
their exponential-decay duals, and analysis/synthesis over the index set
N_{-1}^d x Z^d.

Level -1 holds the integer shifts of the hat function N_2; level l >= 0
holds psi(2^l x - k) where psi is the mother wavelet supported on [0,3].
Levels below -1 are identically zero by convention. All inner products of
piecewise-linear functions are computed exactly: the product is piecewise
quadratic, so per-cell Simpson is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError
from .grids import (
    UNIT,
    CoefficientMap,
    GridFunction,
    _check_size,
    _gauss_legendre,
    _grid_axis,
    _synthesize_terms,
)

__all__ = [
    "PiecewiseLinear",
    "DualCoefficientSequence",
    "mother",
    "father",
    "bspline_value",
    "psi_eval",
    "psi_piecewise",
    "psi_support",
    "dual_coefficients",
    "dual_father_closed_form",
    "dual_piecewise",
    "cw_analyze_1d",
    "cw_analyze",
    "cw_synthesize",
    "gram_sequence",
    "biorthogonality_residual_1d",
]

SQRT3 = math.sqrt(3.0)
_GAUSS_ORDER = 8  # Gauss-Legendre nodes per analysis panel


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function, zero outside its breakpoints."""

    breakpoints: tuple
    values: tuple

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.breakpoints, self.values, left=0.0, right=0.0)

    @property
    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])

    def moment(self, s: int) -> float:
        """Exact integral of x^s f(x) for s <= 2 (Simpson per cell)."""
        if s > 2:
            raise ConfigError("Simpson is exact only up to cubic integrands")
        b = np.asarray(self.breakpoints)
        v = np.asarray(self.values)
        mid = 0.5 * (b[1:] + b[:-1])
        vmid = 0.5 * (v[1:] + v[:-1])
        h = np.diff(b)
        term = b[:-1] ** s * v[:-1] + 4.0 * mid**s * vmid + b[1:] ** s * v[1:]
        return float(np.sum(h / 6.0 * term))


def product_integral(f: PiecewiseLinear, g: PiecewiseLinear) -> float:
    """Exact integral of f*g over the real line."""
    lo = max(f.breakpoints[0], g.breakpoints[0])
    hi = min(f.breakpoints[-1], g.breakpoints[-1])
    if hi <= lo:
        return 0.0
    pts = np.union1d(np.asarray(f.breakpoints), np.asarray(g.breakpoints))
    pts = pts[(pts >= lo) & (pts <= hi)]
    mid = 0.5 * (pts[1:] + pts[:-1])
    h = np.diff(pts)
    pa = f(pts[:-1]) * g(pts[:-1])
    pm = f(mid) * g(mid)
    pb = f(pts[1:]) * g(pts[1:])
    return float(np.sum(h / 6.0 * (pa + 4.0 * pm + pb)))


# Mother wavelet at its breakpoints 0, 1/2, ..., 3: antisymmetric about x = 3/2.
_MOTHER_VAL = (0.0, 1.0 / 12.0, -0.5, 5.0 / 6.0, -0.5, 1.0 / 12.0, 0.0)


def mother() -> PiecewiseLinear:
    """The order-2 mother wavelet in explicit piecewise form."""
    return psi_piecewise(0, 0)


def father() -> PiecewiseLinear:
    """The hat function N_2 on [0,2]."""
    return psi_piecewise(-1, 0)


def _cox_de_boor(order: int, x: np.ndarray) -> np.ndarray:
    """N_order(x) by N_k(y) = (y N_{k-1}(y) + (k - y) N_{k-1}(y - 1)) / (k - 1),
    with each N_k at each y = x - 1 - ... - 1 computed once, not once per
    branch of the recursion tree that reaches it."""
    ys = [x]
    for _ in range(order - 1):
        ys.append(ys[-1] - 1.0)
    vals = [np.where((y >= 0.0) & (y < 1.0), 1.0, 0.0) for y in ys]
    for k in range(2, order + 1):
        vals = [(y * a + (k - y) * b) / (k - 1) for y, a, b in zip(ys, vals, vals[1:])]
    return vals[0]


def bspline_value(order: int, x) -> np.ndarray:
    """Cardinal B-spline N_order on [0, order] by Cox-de Boor recursion.

    For order >= 2 the recursion runs only where 0 < x < order (and at
    NaN). Elsewhere the value is +0.0, which is what the recursion gives at
    finite x: off the support each step adds two zeros, one of them +0.0."""
    x = np.asarray(x, dtype=float)
    if order == 1:
        return _cox_de_boor(1, x)
    inside = ~((x <= 0.0) | (x >= order))
    out = np.zeros(x.shape)
    out[inside] = _cox_de_boor(order, x[inside])
    return out[()]


def psi_support(l: int, k: int):
    """Support interval of the level-l, shift-k wavelet."""
    if l < -1:
        return (0.0, 0.0)
    if l == -1:
        return (float(k), float(k + 2))
    return (k / 2.0**l, (k + 3) / 2.0**l)


def psi_eval(l: int, k: int, x):
    """Pointwise wavelet value; levels below -1 are identically zero."""
    x = np.asarray(x, dtype=float)
    if l < -1:
        return np.zeros_like(x)
    if l == -1:
        return father()(x - k)
    return mother()(2.0**l * x - k)


def psi_piecewise(l: int, k: int) -> PiecewiseLinear:
    if l < -1:
        return PiecewiseLinear((0.0, 0.0), (0.0, 0.0))
    if l == -1:
        return PiecewiseLinear((k + 0.0, k + 1.0, k + 2.0), (0.0, 1.0, 0.0))
    bp = (k + np.arange(7) / 2.0) / 2.0**l
    return PiecewiseLinear(tuple(bp), _MOTHER_VAL)


def gram_sequence(eps: int) -> dict:
    """Exact shift Gram sequence n -> <psi, psi(. - n)> of the generator
    psi = psi_{min(eps, 0), 0}: the hat at eps = -1, the mother at eps >= 0."""
    gen = psi_piecewise(min(eps, 0), 0)
    width = int(math.ceil(gen.support[1]))
    out = {}
    for n in range(-width, width + 1):
        shifted = PiecewiseLinear(
            tuple(np.asarray(gen.breakpoints) + n), gen.values
        )
        val = product_integral(gen, shifted)
        if val != 0.0:
            out[n] = val
    return out


@dataclass
class DualCoefficientSequence:
    """Two-sided coefficient sequence, a_n for |n| <= n_max, of a dual
    generator expanded in primal shifts, with the exact decay base of the
    bi-infinite sequence and a closed-form bound on sum_{|n|>n_max} |a_n|,
    the part that the truncation drops."""

    eps: int
    n_max: int
    coefficients: np.ndarray  # index n + n_max
    decay_base: float
    tail_bound: float

    def a(self, n: int) -> float:
        if abs(n) > self.n_max:
            return 0.0
        return float(self.coefficients[n + self.n_max])


def dual_coefficients(eps: int, n_max: int = 40, tol: float = 1e-10) -> DualCoefficientSequence:
    """The bi-infinite solution of sum_n a_n g_{m-n} = delta_{m,0}, kept for
    |n| <= n_max, by partial fractions of the Gram symbol (Chui, An
    Introduction to Wavelets, 1992, ch. 6).

    With w = max{n : g_n != 0} (1 for the hat, 2 for the mother) and
    P(z) = z^w G(z) = sum_n g_n z^(n+w), the dual symbol is
    1/G(z) = z^w / P(z). Its residues at the roots r of P inside the unit
    disc give a_n = sum_r r^(w+|n|-1) / P'(r), so the decay base is
    1 / max|r| and the dropped tail is at most
    2 sum_r |r^(w-1) / P'(r)| |r|^(n_max+1) / (1 - |r|), with equality for
    the hat's single root. Raises TruncationError when that bound is at or
    above tol; ConfigError for a non-int eps or a tol not > 0, NaN included.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise ConfigError(f"n_max must be an int >= 0, got {n_max!r}")
    _check_size(2 * n_max + 1, f"n_max={n_max}", f"{2 * n_max + 1} dual coefficients")
    if not isinstance(eps, (int, np.integer)) or not tol > 0:
        raise ConfigError(f"a dual needs an int level and a tol > 0, got eps={eps!r}, tol={tol!r}")
    if eps < -1:
        raise ConfigError(f"level {eps} is identically zero and has no dual")
    g = gram_sequence(eps)
    w = max(g)
    poly = np.array([g[n] for n in range(w, -w - 1, -1)])  # P, highest power first
    roots = np.roots(poly)
    r = roots[np.abs(roots) < 1.0]
    dp = np.polyval(np.polyder(poly), r)
    ns = np.abs(np.arange(-n_max, n_max + 1))
    a = np.sum(r[:, None] ** (w - 1 + ns) / dp[:, None], axis=0).real
    mod = np.abs(r)
    tail = 2.0 * float(np.sum(np.abs(r ** (w - 1) / dp) * mod ** (n_max + 1) / (1.0 - mod)))
    if tail >= tol:
        raise TruncationError(
            f"dual tail {tail:.3e} above tolerance {tol:.1e} at n_max={n_max}"
        )
    return DualCoefficientSequence(
        eps=eps, n_max=n_max, coefficients=a, decay_base=1.0 / float(mod.max()), tail_bound=tail
    )


def dual_father_closed_form(n: int) -> float:
    """Independent closed form sqrt(3) (sqrt(3)-2)^|n| for the hat dual."""
    return SQRT3 * (SQRT3 - 2.0) ** abs(n)


_DUAL_CACHE: dict = {}


def dual_piecewise(l: int, k: int) -> PiecewiseLinear:
    """Truncated dual wavelet as an exact piecewise-linear function: the
    dilate and shift dual_{min(l,0),0}(2^l x - k) (x - k at level -1) of a
    generator sum_n a_n psi_{min(l,0),n}, built once per level kind from
    dual_coefficients at its default truncation."""
    if l < -1:
        return psi_piecewise(l, k)
    key = min(l, 0)
    if key not in _DUAL_CACHE:
        seq = dual_coefficients(key)
        n_max = seq.n_max
        gen = psi_piecewise(key, 0)
        step = gen.breakpoints[1]  # grid of the primal shifts: 1 or 1/2
        bp = -n_max + step * np.arange(round((2 * n_max + gen.support[1]) / step) + 1)
        vals = np.zeros_like(bp)
        for n in range(-n_max, n_max + 1):
            vals += seq.a(n) * gen(bp - n)
        _DUAL_CACHE[key] = PiecewiseLinear(tuple(bp), tuple(vals))
    gen = _DUAL_CACHE[key]
    scale = 1.0 if l == -1 else 2.0**l
    return PiecewiseLinear(tuple((k + np.asarray(gen.breakpoints)) / scale), gen.values)


def _shift_range(l: int, box):
    lo, hi = box
    if l == -1:
        return range(int(math.floor(lo)) - 1, int(math.ceil(hi)) + 1)
    return range(int(math.floor(2.0**l * lo)) - 2, int(math.ceil(2.0**l * hi)) + 1)


class _LevelAxis:
    """Analysis at level l along one axis of the box.

    Level-l wavelets, primal or dual, are piecewise linear on the cells of
    width h = 2^-(l+1) (h = 1 at level -1), so <f, w> = sum_p w(p h) M_p
    with hat moments M_p = <f, N_2(x/h - p + 1)>. Gauss panels on the cells,
    clipped to the box and split at the breakpoints of f, give every M_p
    with the panels a per-coefficient quadrature would use. The shifts of
    the generator w_{l,0} then turn M into coefficients by one correlation
    with stride 2 (1 at level -1): a strided view of M times the generator
    fills a C-ordered table, tap axis outermost, summed over that axis from 0
    in the order of a per-tap loop, by chunks of taps that each start from
    the running sum and hold at most as many products as the samples or as
    one line's taps (so one chunk in 1-D).
    """

    def __init__(self, l: int, box, f_breaks, gen: PiecewiseLinear):
        lo, hi = box
        self.level, self.shifts = l, _shift_range(l, box)
        self.stride = 1 if l == -1 else 2
        self.gen = np.asarray(gen.values)
        h = 1.0 if l == -1 else 2.0 ** -(l + 1)
        grid = h * np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
        cuts = np.unique(np.concatenate(([lo, hi], grid, np.asarray(f_breaks, dtype=float))))
        a, b = cuts[(cuts >= lo) & (cuts < hi)], cuts[(cuts > lo) & (cuts <= hi)]
        xg, wg = _gauss_legendre(_GAUSS_ORDER)
        self.nodes = (a[:, None] + 0.5 * (b - a)[:, None] * (xg + 1.0)).ravel()
        self.weights = (0.5 * (b - a)[:, None] * wg).ravel()
        cell = np.repeat(np.floor(0.5 * (a + b) / h), _GAUSS_ORDER)
        self.frac = self.nodes / h - cell
        # apply's window[i] = M_p at p = base + i; base lies below the box's first cell (the
        # shift range reaches past the box), so cells, each panel's window index, are >= 0
        base = self.stride * self.shifts.start + round(self.stride * gen.breakpoints[0])
        self.cells, self.starts = np.unique(cell.astype(int) - base, return_index=True)

    def apply(self, vals: np.ndarray, axis: int) -> np.ndarray:
        """Replace axis of vals, the samples of f at self.nodes, by the
        inner products with w_{l,k} for k in self.shifts."""
        vals = np.moveaxis(vals, axis, 0)
        col = (-1,) + (1,) * (vals.ndim - 1)
        wf = self.weights.reshape(col) * vals
        frac = self.frac.reshape(col)
        n, s, G = len(self.shifts), self.stride, len(self.gen)
        window = np.zeros((s * n + G,) + vals.shape[1:])
        window[self.cells] += np.add.reduceat(wf * (1.0 - frac), self.starts, axis=0)
        window[self.cells + 1] += np.add.reduceat(wf * frac, self.starts, axis=0)
        out, st = np.zeros((n,) + vals.shape[1:]), window.strides
        # taps[t, i] = window[t + s * i], a view (as_strided views held memory over long runs)
        taps = np.ndarray((G,) + out.shape, buffer=window, strides=(st[0], s * st[0]) + st[1:])
        step = max(vals.size, G * n, out.size) // max(out.size, 1)
        table = np.empty((min(step, G) + 1,) + out.shape)
        for t in range(0, G, step):
            rows = table[: min(step, G - t) + 1]
            rows[0] = out
            np.multiply(taps[t : t + step].T, self.gen[t : t + step], out=rows[1:].T)
            np.add.reduce(rows, axis=0, out=out)
        return np.moveaxis(out, 0, axis)


def _check_side(value, name: str):
    if value not in ("primal", "dual"):
        raise ConfigError(f"{name} must be 'primal' or 'dual', got {value!r}")


def _analyze(f, J: int, box, kind: str, f_breaks, prune: float) -> dict:
    """(jbar, kbar) -> 2^{|jbar_+|} <f, w_{jbar,kbar}> over |jbar|_inf <= J
    for the primal or dual tensor wavelets, keeping magnitudes above prune
    and NaN values, which the norm routes refuse."""
    _check_side(kind, "kind")
    for b in box:  # each axis's finest grid, 2^(J+1) cells per unit, before any is made
        if not -math.inf < b[0] <= b[1] < math.inf:
            raise ConfigError(f"analysis box {b} is not a finite interval")
        cells = (b[1] - b[0]) * 2.0 ** min(J + 1, 1023)  # a larger J is refused all the same
        _check_size(cells, f"analysis level J={J}", f"a grid of about {cells:.3g} cells on {b}")
    gens = [psi_piecewise(eps, 0) if kind == "primal" else dual_piecewise(eps, 0)
            for eps in range(-1, min(J, 0) + 1)]
    axes = [[_LevelAxis(l, b, fb, gens[min(l, 0) + 1]) for l in range(-1, J + 1)]
            for b, fb in zip(box, f_breaks)]
    entries = {}
    for idx in np.ndindex(*(len(a) for a in axes)):
        level = [axes[i][j] for i, j in enumerate(idx)]
        vals = np.asarray(f(*np.ix_(*(a.nodes for a in level))), dtype=float)
        lam = np.broadcast_to(vals, tuple(len(a.nodes) for a in level))
        for ax, a in enumerate(level):
            lam = a.apply(lam, ax)
        lam *= 2.0 ** sum(max(a.level, 0) for a in level)
        jbar = tuple(a.level for a in level)
        for pos in zip(*np.nonzero(~(np.abs(lam) <= prune))):
            entries[(jbar, tuple(a.shifts[i] for a, i in zip(level, pos)))] = float(lam[pos])
    return entries


def cw_analyze_1d(f, J: int, box, kind: str = "primal", f_breaks=()) -> dict:
    """Univariate coefficient table (l, k) -> 2^{l_+} <f, psi_{l,k}>.

    f is a vectorized callable supported in box. Panels are split at all
    wavelet breakpoints and at the supplied breakpoints of f, so the
    quadrature is exact whenever f is piecewise polynomial of moderate
    degree.
    """
    entries = _analyze(f, J, (box,), kind, (f_breaks,), 0.0)
    return {(j[0], k[0]): v for (j, k), v in entries.items()}


def cw_analyze(
    f,
    J: int = 3,
    box=((0.0, 1.0),),
    kind: str = "primal",
    f_breaks=None,
    prune: float = 0.0,
) -> CoefficientMap:
    """Coefficients lambda_{jbar,kbar}(f) = 2^{|jbar_+|} <f, psi_{jbar,kbar}>
    for all levels |jbar|_inf <= J whose wavelet meets the support box,
    keeping magnitudes above prune.

    f is a vectorized callable of d = len(box) <= 2 variables; in d = 1 the
    map is the cw_analyze_1d table. f_breaks holds per-axis breakpoints, or
    a flat list when d = 1. norm_comparison multiplies the level terms of a
    product's factors and builds no d-dimensional map.
    """
    basis = "cw-primal" if kind == "primal" else "cw-dual"
    d = len(box)
    if d == 0:
        raise ConfigError("cw_analyze got zero axes; give one box per axis")
    if d > 2:
        raise ConfigError(f"cw_analyze takes d <= 2 axes, got {d}")
    if d == 1 and f_breaks is not None:
        f_breaks = (f_breaks,)
    if f_breaks is None or len(f_breaks) == 0:
        f_breaks = ((),) * d
    if len(f_breaks) != d:
        raise ConfigError(f"{d} axes need as many f_breaks entries; got {len(f_breaks)}")
    if d == 1:
        table = cw_analyze_1d(f, J, box[0], kind, f_breaks[0])
        entries = {((l,), (k,)): v for (l, k), v in table.items() if not abs(v) <= prune}
    else:
        entries = _analyze(f, J, box, kind, f_breaks, prune)
    return CoefficientMap(basis=basis, d=d, entries=entries)


def cw_synthesize(coeffs: CoefficientMap, m: int, using: str = "primal") -> GridFunction:
    """Evaluate sum of coeff * psi_{jbar,kbar} (or dual wavelets) on the
    closed unit-cube grid at level m, term by term in key order with one
    cached row per (level, shift), as hpc_synthesize sums its terms."""
    _check_side(using, "using")
    x = _grid_axis(UNIT, m)

    def row(key):
        l, k = key
        return psi_eval(l, k, x) if using == "primal" else dual_piecewise(l, k)(x)

    items = ((tuple(zip(map(int, j), map(int, k))), v) for (j, k), v in coeffs.items_sorted())
    return GridFunction(UNIT, m, _synthesize_terms(items, row, x.size, coeffs.d))


def biorthogonality_residual_1d(levels, shifts) -> float:
    """Max deviation of exact pairings <psi_{j,k}, dual_{l,m}> from
    2^{-(j_+ + l_+)/2} delta_{j,l} delta_{k,m}."""
    worst = 0.0
    duals = {(l, mm): dual_piecewise(l, mm) for l in levels for mm in shifts}
    for j in levels:
        for k in shifts:
            pw = psi_piecewise(j, k)
            for (l, mm), dw in duals.items():
                val = product_integral(pw, dw)
                expect = (
                    2.0 ** (-(max(j, 0) + max(l, 0)) / 2.0)
                    if (j == l and k == mm)
                    else 0.0
                )
                worst = max(worst, abs(val - expect))
    return worst
