"""The dyadic decomposition of unity, frequency-block building blocks, and the
three (quasi-)norms used throughout: the cosine-block norm on the unit cube,
the weighted sequence norm over wavelet indices, and a difference-based
seminorm oracle on tensor factors only.

The block norm truncates an infinite level sum. For cosine polynomials the
default level cap makes the truncation exact; otherwise the geometric
behaviour of the level terms is fitted and reported as a tail bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergentTailError
from .grids import (
    SYM,
    UNIT,
    CoefficientMap,
    GridFunction,
    _alias_free_level,
    _check_grid_size,
    _check_int,
    _gauss_legendre,
    _grid_axis,
    _per_factor,
    _weigh,
    fourier_analyze_dense,
    fourier_synthesize_dense,
    hpc_synthesize_dense,
    signed_fft_freqs,
)
from .indexsets import plus_l1

__all__ = [
    "smooth_sigma",
    "phi0_eval",
    "phi",
    "BesovParams",
    "NormReport",
    "hpc_besov_norm",
    "seq_norm",
    "seq_norm_report",
    "holder_pairing_check",
    "periodization_block_identity",
    "difference_seminorm",
]

INF = math.inf
_GAUSS_ORDER = 8  # Gauss-Legendre nodes per axis of the difference route's h-integral


def smooth_sigma(t):
    """exp(-1/t) for t > 0, zero otherwise; C^inf on R."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def phi0_eval(x):
    """Even C^inf cutoff: 1 on [-1,1], 0 outside (-2,2), monotone between."""
    ax = np.abs(np.asarray(x, dtype=float))
    up = smooth_sigma(2.0 - ax)
    down = smooth_sigma(ax - 1.0)
    total = up + down
    return np.where(total > 0.0, up / np.where(total > 0.0, total, 1.0), 0.0)


def phi(j: int, x):
    """Level j of the dyadic decomposition of unity: phi_0 = phi0_eval and
    phi_j(x) = phi_0(2^{-j} x) - phi_0(2^{-j+1} x) for j >= 1, zero for
    j < 0. Even bit for bit, as phi0_eval takes |x| first and scaling by a
    power of two commutes exactly with abs; so it also gives the weights of
    the signed frequencies on the torus."""
    x = np.asarray(x, dtype=float)
    if j == 0:
        return phi0_eval(x)
    if j < 0:
        return np.zeros_like(x)
    return phi0_eval(2.0**-j * x) - phi0_eval(2.0 ** (-j + 1) * x)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness/integrability triple with the usual conjugation rules."""

    r: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ConfigError(f"smoothness r must be finite, got {self.r}")
        if not (0.0 < self.p <= INF) or not (0.0 < self.q <= INF):
            raise ConfigError("p and q must lie in (0, inf]")

    @property
    def sigma_p(self) -> float:
        return max(0.0, 1.0 / self.p - 1.0)

    @property
    def inv_p(self) -> float:
        return 0.0 if self.p == INF else 1.0 / self.p

    def conjugate(self) -> "BesovParams":
        """(r', p', q') with r' = -r + sigma_p; exponents <= 1 conjugate to inf."""

        def conj(u: float) -> float:
            if u == INF:
                return 1.0
            if u <= 1.0:
                return INF
            return u / (u - 1.0)

        return BesovParams(r=-self.r + self.sigma_p, p=conj(self.p), q=conj(self.q))

    def dual(self) -> "BesovParams":
        """(r' + 1, p', q'): the weights of the dual side of the Holder pairing."""
        c = self.conjugate()
        return BesovParams(r=c.r + 1.0, p=c.p, q=c.q)

    def in_cw_regime(self) -> bool:
        """Parameter window in which wavelet coefficients characterize the norm."""
        return 1.0 / self.p - 2.0 < self.r < min(1.0 / self.p + 1.0, 2.0)

    def in_hpc_regime(self) -> bool:
        return self.sigma_p < self.r < min(1.0 + 1.0 / self.p, 2.0)


@dataclass
class NormReport:
    norm_kind: str
    r: float
    p: float
    q: float
    J_max: int
    value: float
    tail_bound: float
    level_terms: dict = field(default_factory=dict, repr=False)

    def csv_row(self) -> str:
        return (
            f"{self.norm_kind},{self.r:g},{self.p:g},{self.q:g},"
            f"{self.J_max},{self.value:.12g},{self.tail_bound:.6g}"
        )

    @staticmethod
    def csv_header() -> str:
        return "norm_kind,r,p,q,J_max,value,tail_bound"


def _lp(values, p: float, mean: bool = False) -> float:
    """ell_p norm of the values; with mean, their L_p norm under equal
    weights of total mass 1, as on the torus grid."""
    a = np.abs(np.asarray(values, dtype=float))
    if a.size == 0:
        return 0.0
    if p == INF:
        return float(a.max())
    return float((np.mean(a**p) if mean else np.sum(a**p)) ** (1.0 / p))


@functools.lru_cache(maxsize=64)
def _phi_table(j: int, size: int, torus: bool) -> np.ndarray:
    """phi_j at the cosine frequencies 0..size-1, or with torus at the signed
    FFT frequencies of a torus axis of size nodes: a read-only 1-D table,
    built once per key and the same bits as phi builds."""
    table = phi(j, (signed_fft_freqs(size) if torus else np.arange(size)).astype(float))
    table.flags.writeable = False
    return table


def _dense_block(dense: np.ndarray, jbar, grid_level: int) -> GridFunction:
    """Block jbar of a cosine map from its dense box: the weighted cosine
    sum  sum_k phi_jbar(k) fhat(k) c_k  on the unit grid of grid_level."""
    weights = [_phi_table(int(j), dense.shape[0], False) for j in jbar]
    return hpc_synthesize_dense(_weigh(dense, weights), grid_level)


def _level_cap(kmax: int) -> int:
    """Level cap J with every frequency up to kmax below 2^{J-1}: the
    levels beyond J are exactly zero for such coefficients."""
    return int(math.floor(math.log2(max(kmax, 1)))) + 2


def _tail_from_level_sums(level_sums: dict, q: float):
    """Geometric extrapolation of the per-|jbar|_1 contributions."""
    ls = [level_sums[L] for L in sorted(level_sums)]
    ls = [t for t in ls if t > 0.0]
    if len(ls) < 3:
        return 0.0, 0.0
    ratios = [b / a for a, b in zip(ls[-3:-1], ls[-2:]) if a > 0.0]
    rho = max(ratios) if ratios else 0.0
    last = ls[-1]
    if rho >= 1.0:
        return INF, rho
    if q == INF:
        return last * rho / (1.0 - rho), rho
    tail_q = last**q * rho**q / (1.0 - rho**q)
    return tail_q ** (1.0 / q), rho


def _norm_report(kind: str, params: BesovParams, J_max: int, bare_terms: dict, slope: float,
                 exact: bool, strict: bool) -> NormReport:
    """NormReport of one route from its bare level terms, keyed by jbar.

    The term of jbar is 2^{slope |jbar_+|_1} times its bare term; exact
    zeros are dropped. A NaN term, or a running ell_q sum of the terms past
    the float range, is a ConfigError naming its level. The value is the
    ell_q norm of the terms. Unless the truncation is exact, the tail is
    fitted to the per-|jbar_+|_1 level sums (level maxima at q = inf); a
    non-decaying fit raises when strict, and an infinite tail bound otherwise."""
    q, total = params.q, 0.0
    level_terms, level_sums = {}, {}
    for j, t in bare_terms.items():
        L = plus_l1(j)
        try:
            t = 2.0 ** (slope * L) * t
            s = t if q == INF else t**q
        except OverflowError:  # float powers raise; a product of floats gives inf instead
            s = INF
        total = max(total, s) if q == INF else total + s
        if math.isnan(s):
            raise ConfigError(f"{kind}: the term of level {j} is NaN")
        if total == INF:
            raise ConfigError(f"r={params.r}: the terms up to level {j} leave the float range")
        if t != 0.0:
            level_terms[j], acc = t, level_sums.get(L, 0.0)
            level_sums[L] = max(acc, s) if q == INF else acc + s
    if q != INF:
        level_sums = {L: s ** (1.0 / q) for L, s in level_sums.items()}
    tail = 0.0
    if not exact:
        tail, rho = _tail_from_level_sums(level_sums, q)
        if tail == INF and strict:
            raise DivergentTailError(
                f"{kind} level sums do not decay (ratio {rho:.3f}) at J_max={J_max}"
            )
    value = _lp(list(level_terms.values()), q)
    return NormReport(kind, params.r, params.p, q, J_max, value, tail, level_terms)


def _tensor_report(kind: str, params: BesovParams, J_max: int, axis_terms, slope: float,
                   exact: bool, strict: bool) -> NormReport:
    """_norm_report of a tensor-product function from one table per axis:
    axis_terms[i] maps (j,), j >= -1, to factor i's bare level term. The bare
    term of jbar, in the order of nested loops over the tables, is the
    product of axis_terms[i][(j_i,)] in axis order."""
    bare = {tuple(j for (j,) in keys): math.prod(t[k] for t, k in zip(axis_terms, keys))
            for keys in itertools.product(*axis_terms)}
    return _norm_report(kind, params, J_max, bare, slope, exact, strict)


def hpc_besov_norm(
    f_coeffs: CoefficientMap,
    params: BesovParams,
    J_max=None,
    grid_level=None,
    strict: bool = True,
) -> NormReport:
    """Truncated quasi-norm  (sum_jbar 2^{r q |jbar|_1} ||f_jbar||_{L_p}^q)^{1/q}
    over blocks of half-period cosine coefficients.

    For inputs whose frequencies all lie below 2^{J_max - 1} the truncation
    is exact and the tail bound is zero. Otherwise the per-level sums are
    fitted geometrically; a non-decaying fit raises unless strict=False, in
    which case the value is the bare truncation and the tail bound is inf.
    The box and the grid are size-checked before CoefficientMap.dense runs.
    Every block is synthesized on the full d-dimensional grid;
    norm_comparison multiplies the 1-D tables of a product's factors instead.
    """
    d = f_coeffs.d
    kmax = f_coeffs.top_frequency()
    exact_cap = _level_cap(kmax)
    J = _check_int(exact_cap if J_max is None else J_max, 0, "truncation level J_max")
    if grid_level is None:
        kmax_used = min(2 ** (J + 1), max(kmax, 1))
        grid_level = _alias_free_level(kmax_used, 4)
    _check_grid_size(grid_level, d, UNIT, f"grid_level {grid_level}")
    base = f_coeffs.dense(kmax)

    bare = {jbar: _dense_block(base, jbar, grid_level).lp_norm(params.p)
            for jbar in np.ndindex(*([J + 1] * d))}
    return _norm_report("hpc", params, J, bare, params.r, J >= exact_cap, strict)


def seq_norm(coeffs: CoefficientMap, params: BesovParams) -> float:
    """Weighted ell_q(ell_p) norm of wavelet coefficients: level jbar carries
    2^{(sum_i max(j_i,0)) (r - 1/p)}; shift sums inside, level sum outside."""
    return seq_norm_report(coeffs, params, strict=False).value


def seq_norm_report(
    coeffs: CoefficientMap, params: BesovParams, strict: bool = True, J: int = None
) -> NormReport:
    """seq_norm packaged with per-|jbar_+|_1 level sums and the same
    geometric tail extrapolation used for the cosine-block norm.

    J, when given, is the top level per axis that the coefficients were
    requested up to; requested levels with no entry are exact zeros. If no
    entry reaches level J the expansion is finite and the tail is 0."""
    groups: dict = {}  # levels in first-appearance order, values in entry order
    for (j, _), v in coeffs.entries.items():
        groups.setdefault(tuple(int(t) for t in j), []).append(v)
    top = max((max(j) for j in groups), default=-1)
    bare = {j: _lp(vals, params.p) for j, vals in groups.items()}
    return _norm_report("cw-seq", params, top, bare, params.r - params.inv_p,
                        J is not None and top < J, strict)


def holder_pairing_check(lam: CoefficientMap, mu: CoefficientMap, params: BesovParams):
    """Both sides of  sum |lam mu| <= ||lam||_{r,p,q} ||mu||_{r'+1,p',q'}."""
    lhs = 0.0
    for key, v in lam.entries.items():
        w = mu.entries.get(key)
        if w is not None:
            lhs += abs(v) * abs(w)
    return lhs, seq_norm(lam, params) * seq_norm(mu, params.dual())


def periodization_block_identity(f_coeffs: CoefficientMap, jbar, p: float, grid_level: int = 7):
    """Left: ||block of the periodization||^p over the torus, via sampling,
    FFT analysis, symmetric weights and FFT synthesis. Right:
    2^d ||cosine block||^p over the unit cube, via weighted DCT synthesis.
    The pipelines share no transform code; equality is the periodization
    principle for blocks. The torus side reads the unit samples through
    their mirror index and transforms only the slots where phi_{j_i} is
    nonzero (pruned FFTs), never the DCT-I. The phi_j weights of both sides
    come from _phi_table, built once per level and size with phi's bits, so
    per input only the transforms and the norms run. p = inf compares sup
    values (no 2^d factor). p and the torus grid, the largest, are checked
    first."""
    d = f_coeffs.d
    if not 0.0 < p <= INF:
        raise ConfigError(f"p must lie in (0, inf], got {p}")
    _check_grid_size(grid_level, d, SYM, f"grid_level {grid_level}")
    box = f_coeffs.dense(f_coeffs.top_frequency())
    g_unit = hpc_synthesize_dense(box, grid_level)
    weights = [_phi_table(int(j), 2 ** (grid_level + 1), True) for j in jbar]  # phi_j is even
    slots = [w != 0.0 for w in weights]
    dense = fourier_analyze_dense(g_unit, slots)
    weighted = _weigh(dense, [w[keep] for w, keep in zip(weights, slots)])
    block_t = fourier_synthesize_dense(weighted, grid_level, slots)

    block_u = _dense_block(box, jbar, grid_level)
    if p == INF:
        return block_t.lp_norm(INF), block_u.lp_norm(INF)
    return block_t.lp_norm(p) ** p, 2.0**d * block_u.lp_norm(p) ** p


def _rectangular_mean(f, m: int, J: int, x):
    """Yield |f(x)|, then, for each level j = 1..J, the integral over [-1,1]
    of |Delta^m f(x)| dh by Gauss quadrature of _GAUSS_ORDER nodes on the
    axis x: the difference moves x by l h 2^-j, l = 0..m.

    The shifts follow the dilation: for even l, l h 2^-j equals
    (l/2) h 2^-(j-1) exactly in floating point, so level j takes those
    evaluations from level j - 1, and f(x) is evaluated once. Only the
    evaluations with 2l <= m are kept for the next level, each until its
    one use there. The sums run as if every evaluation were made afresh.
    """
    nodes, weights = _gauss_legendre(_GAUSS_ORDER)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    fx = np.asarray(f(x), dtype=float)
    yield np.abs(fx)
    last = {(n, 0): fx for n in range(len(nodes))}  # (node, l) -> values
    for j in range(1, J + 1):
        acc, kept = np.zeros(x.shape), {}
        for n, (h, w) in enumerate(zip(nodes, weights)):
            diff = np.zeros(x.shape)
            for l in range(m + 1):
                vals = last.pop((n, l // 2), None) if l % 2 == 0 else None
                if vals is None:
                    vals = np.asarray(f(x + l * h * 2.0**-j), dtype=float)
                if 2 * l <= m:
                    kept[n, l] = vals
                diff += signs[l] * vals
            acc += w * np.abs(diff)
        last = kept
        yield acc


def difference_seminorm(
    *, tensor_factors, params: BesovParams, m: int = 2, J_max: int = 5, grid_level: int = 7
) -> NormReport:
    """Truncated (sum_jbar 2^{r q |jbar|_1} ||R^{e(jbar)}_m(f,2^{-jbar},.)||_p^q)^{1/q}
    for a continuous periodic f on the torus, with the difference applied
    only along the active axes e(jbar) = {i : j_i != 0}.

    Tensor factors only: f is the product of tensor_factors, one univariate
    periodic callable per axis, and the computation factorizes exactly in
    any dimension. L_p norms use the normalized torus measure, so for
    reflection-symmetric periodizations the values match unit-cube norms
    of the underlying function. The rectangular means are taken once per
    distinct factor, by Gauss quadrature of _GAUSS_ORDER nodes; f(x) is
    evaluated once, and the shift l h 2^-j of an even l is the shift
    (l/2) h 2^-(j-1) of the level before, so level j reuses the evaluations
    with 2l <= m of level j - 1. _tensor_report multiplies the factors'
    tables of L_p norms over the levels; level 0 takes no difference.
    """
    if not tensor_factors:
        raise ConfigError("tensor_factors has zero axes; give one factor per axis")
    _check_int(m, 1, "difference order m")
    _check_int(J_max, 0, "truncation level J_max")
    if m <= params.r:
        raise ConfigError(f"difference order m={m} must exceed r={params.r}")
    top = np.finfo(float)  # C(m, m // 2) >= 2^m / (m + 1) > top.max once m >= 2 top.maxexp
    if m >= 2 * top.maxexp or math.comb(m, m // 2) > float(top.max):
        raise ConfigError(f"difference order m={m} has binomial weights past the float range")
    _check_grid_size(grid_level, 1, SYM, f"grid_level {grid_level}")  # the 1-D axes it makes
    x1 = _grid_axis(SYM, grid_level)

    def table(i):
        means = _rectangular_mean(tensor_factors[i], m, J_max, x1)
        return {(j,): _lp(v, params.p, mean=True) for j, v in enumerate(means)}

    tables = _per_factor(tensor_factors, table)
    return _tensor_report("diff", params, J_max, tables, params.r, exact=False, strict=False)
