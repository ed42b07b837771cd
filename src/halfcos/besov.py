"""The dyadic decomposition of unity, frequency-block building blocks, and the
three (quasi-)norms used throughout: the cosine-block norm on the unit cube,
the weighted sequence norm over wavelet indices, and a difference-based
seminorm oracle on tensor factors only.

The block norm truncates an infinite level sum. For cosine polynomials the
default level cap makes the truncation exact; otherwise the geometric
behaviour of the level terms is fitted and reported as a tail bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergentTailError
from .grids import (
    SYM,
    CoefficientMap,
    GridFunction,
    _alias_free_level,
    _gauss_legendre,
    _grid_axis,
    _weigh,
    fourier_analyze_dense,
    fourier_synthesize_dense,
    hpc_synthesize_dense,
    periodize,
    signed_fft_freqs,
)
from .indexsets import plus_l1

__all__ = [
    "smooth_sigma",
    "phi0_eval",
    "phi",
    "BesovParams",
    "NormReport",
    "hpc_block",
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


def _hpc_dense(coeffs: CoefficientMap) -> np.ndarray:
    """Dense nonnegative-frequency tensor from a cosine coefficient map,
    of side 1 + the largest frequency, built in one pass over the keys."""
    keys = np.array(list(coeffs.entries), dtype=np.int64).reshape(-1, coeffs.d)
    out = np.zeros((int(np.abs(keys).max(initial=0)) + 1,) * coeffs.d)
    out[tuple(keys.T)] = np.real(np.array(list(coeffs.entries.values())))
    return out


def hpc_block(f_coeffs: CoefficientMap, jbar, grid_level: int) -> GridFunction:
    """Weighted cosine sum  sum_k phi_jbar(k) fhat(k) c_k  on the unit grid."""
    dense = _hpc_dense(f_coeffs)
    ks = np.arange(dense.shape[0], dtype=float)
    return hpc_synthesize_dense(_weigh(dense, [phi(int(j), ks) for j in jbar]), grid_level)


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


def _norm_report(
    kind: str, params: BesovParams, J_max: int, level_terms: dict, exact: bool, strict: bool
) -> NormReport:
    """NormReport of one route from its level terms, keyed by jbar.

    The value is the ell_q norm of the terms. Unless the truncation is
    exact, the tail is fitted to the per-|jbar_+|_1 level sums (level
    maxima at q = inf); a non-decaying fit raises when strict, and is
    reported as an infinite tail bound otherwise."""
    q = params.q
    level_sums: dict = {}
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
            raise DivergentTailError(
                f"{kind} level sums do not decay (ratio {rho:.3f}) at J_max={J_max}"
            )
    value = _lp(list(level_terms.values()), q)
    return NormReport(kind, params.r, params.p, q, J_max, value, tail, level_terms)


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
    """
    d = f_coeffs.d
    base = _hpc_dense(f_coeffs)
    kmax = base.shape[0] - 1
    exact_cap = _level_cap(kmax)
    J = exact_cap if J_max is None else int(J_max)
    if grid_level is None:
        kmax_used = min(2 ** (J + 1), max(kmax, 1))
        grid_level = _alias_free_level(kmax_used, 4)

    ks = np.arange(kmax + 1, dtype=float)
    axis_w = []
    for j in range(J + 1):
        w = phi(j, ks)
        axis_w.append(w if np.any(w != 0.0) else None)

    level_terms = {}
    for jbar in np.ndindex(*([J + 1] * d)):
        if any(axis_w[j] is None for j in jbar):
            continue
        block = _weigh(base, [axis_w[j] for j in jbar])
        if not np.any(block):
            continue
        g = hpc_synthesize_dense(block, grid_level)
        term = 2.0 ** (params.r * sum(jbar)) * g.lp_norm(params.p)
        if term != 0.0:
            level_terms[tuple(int(t) for t in jbar)] = term
    return _norm_report("hpc", params, J, level_terms, exact=J >= exact_cap, strict=strict)


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
    groups: dict = {}
    for (j, _), v in coeffs.entries.items():
        groups.setdefault(j, []).append(v)
    # One array of |values|, level after level in first-appearance order,
    # each level's values in entry order; a level's block is a slice of it.
    absval = np.abs(np.fromiter(itertools.chain.from_iterable(groups.values()), dtype=float,
                                count=len(coeffs.entries)))
    level_terms, top, start = {}, -1, 0
    for j, vals in groups.items():
        j = tuple(int(t) for t in j)
        top = max(top, *j)
        block = absval[start : start + len(vals)]
        start += len(vals)
        level_terms[j] = 2.0 ** (plus_l1(j) * (params.r - params.inv_p)) * _lp(block, params.p)
    exact = J is not None and top < J
    return _norm_report("cw-seq", params, top, level_terms, exact=exact, strict=strict)


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
    principle for blocks. The torus side transforms only the slots where
    phi_{j_i} is nonzero (pruned FFTs), but never goes through the DCT-I.
    p = inf compares sup values (no 2^d factor)."""
    d = f_coeffs.d

    g_unit = hpc_synthesize_dense(_hpc_dense(f_coeffs), grid_level)
    freqs = signed_fft_freqs(2 ** (grid_level + 1)).astype(float)  # phi_j is even: phi_j(|k|)
    weights = [phi(int(j), freqs) for j in jbar]
    slots = [w != 0.0 for w in weights]
    dense = fourier_analyze_dense(periodize(g_unit), slots)
    weighted = _weigh(dense, [w[keep] for w, keep in zip(weights, slots)])
    block_t = fourier_synthesize_dense(weighted, grid_level, slots)

    block_u = hpc_block(f_coeffs, jbar, grid_level)
    if p == INF:
        return block_t.lp_norm(INF), block_u.lp_norm(INF)
    return block_t.lp_norm(p) ** p, 2.0**d * block_u.lp_norm(p) ** p


def _rectangular_mean(f, m: int, steps, x):
    """Yield, for each step t in steps, the integral over [-1,1] of
    |Delta^m f(x)| dh by Gauss quadrature of _GAUSS_ORDER nodes on the
    axis x: the difference moves x by l h t, l = 0..m. A step None gives
    |f(x)|.

    Each evaluation of f is keyed by its shift, so equal shifts give the
    same values; a zero shift counts as no shift (None). f(x) is kept for
    the whole call, and so is, until the next step, every evaluation that
    step uses: over the dyadic steps 2^-j, f(x) is evaluated once and the
    l = 2 shift at step 2^-j is the l = 1 shift at step 2^-(j-1) (2 h 2^-j
    equals h 2^-(j-1) exactly in floating point). The sums run as if every
    evaluation were made afresh.
    """
    nodes, weights = _gauss_legendre(_GAUSS_ORDER)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    # (Gauss weight, [(sign, shift)]) per node; a step None has one node
    plans = [
        [(1.0, [(1.0, None)])] if t is None
        else [(w, [(signs[l], l * h * t or None) for l in range(m + 1)])
              for h, w in zip(nodes, weights)]
        for t in steps
    ]
    kept = {}
    for terms, after in zip(plans, plans[1:] + [[]]):
        following = {key for _, shifts in after for _, key in shifts}
        acc = np.zeros(x.shape)
        for wq, shifts in terms:
            diff = np.zeros(x.shape)
            for sign, key in shifts:
                vals = kept.pop(key, None)
                if vals is None:
                    vals = np.asarray(f(x if key is None else x + key), dtype=float)
                if key is None or key in following:
                    kept[key] = vals
                diff += sign * vals
            acc += wq * np.abs(diff)
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
    distinct factor, by Gauss quadrature of _GAUSS_ORDER nodes; f(x) and
    dilated shifts shared across levels (the l = 2 shift at level j is the
    l = 1 shift at level j - 1) are evaluated once.
    """
    if not tensor_factors:
        raise ConfigError("tensor_factors has zero axes; give one factor per axis")
    if m <= params.r:
        raise ConfigError(f"difference order m={m} must exceed r={params.r}")
    x1 = _grid_axis(SYM, grid_level)
    steps = [None] + [2.0**-j for j in range(1, J_max + 1)]  # level 0: no difference
    built = {}  # id of a factor -> its table over the levels
    for fi in tensor_factors:
        if id(fi) not in built:
            means = _rectangular_mean(fi, m, steps, x1)
            built[id(fi)] = [_lp(v, params.p, mean=True) for v in means]
    tables = [built[id(fi)] for fi in tensor_factors]
    level_terms = {}
    for jbar in np.ndindex(*([J_max + 1] * len(tables))):
        val = 1.0
        for table, j in zip(tables, jbar):
            val *= table[j]
        term = 2.0 ** (params.r * sum(jbar)) * val
        if term > 0.0:
            level_terms[tuple(int(t) for t in jbar)] = term
    return _norm_report("diff", params, J_max, level_terms, exact=False, strict=False)
