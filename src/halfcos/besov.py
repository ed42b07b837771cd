"""Dyadic decompositions of unity, frequency-block building blocks, and the
three (quasi-)norms used throughout: the cosine-block norm on the unit cube,
the weighted sequence norm over wavelet indices, and a difference-based
seminorm oracle.

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
    "DecompositionOfUnity",
    "BesovParams",
    "SeqNormSpec",
    "NormReport",
    "hpc_block",
    "hpc_besov_norm",
    "seq_norm",
    "holder_pairing_check",
    "periodization_block_identity",
    "difference_seminorm",
    "rectangular_mean_1d",
]

INF = math.inf


def smooth_sigma(t, power: int = 1):
    """exp(-1/t^power) for t > 0, zero otherwise; C^inf on R."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos] ** power)
    return out


def phi0_eval(x, power: int = 1):
    """Even C^inf cutoff: 1 on [-1,1], 0 outside (-2,2), monotone between."""
    ax = np.abs(np.asarray(x, dtype=float))
    up = smooth_sigma(2.0 - ax, power)
    down = smooth_sigma(ax - 1.0, power)
    total = up + down
    return np.where(total > 0.0, up / np.where(total > 0.0, total, 1.0), 0.0)


class DecompositionOfUnity:
    """phi_0 plateau cutoff and its telescoped dyadic levels
    phi_j(x) = phi_0(2^{-j} x) - phi_0(2^{-j+1} x) for j >= 1."""

    def __init__(self, power: int = 1):
        self.power = power

    def phi0(self, x):
        return phi0_eval(x, self.power)

    def phi(self, j: int, x):
        x = np.asarray(x, dtype=float)
        if j == 0:
            return self.phi0(x)
        if j < 0:
            return np.zeros_like(x)
        return self.phi0(2.0**-j * x) - self.phi0(2.0 ** (-j + 1) * x)

    def symmetric(self, j: int, x):
        """psi_j(x) = phi_j(|x|); the even weights used on the torus."""
        return self.phi(j, np.abs(np.asarray(x, dtype=float)))

    def partition_sum(self, J: int, x):
        """sum_{j<=J} phi_j = phi_0(2^{-J} x) exactly, by telescoping."""
        acc = self.phi(0, x)
        for j in range(1, J + 1):
            acc = acc + self.phi(j, x)
        return acc


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

    def in_cw_regime(self) -> bool:
        """Parameter window in which wavelet coefficients characterize the norm."""
        return 1.0 / self.p - 2.0 < self.r < min(1.0 / self.p + 1.0, 2.0)

    def in_hpc_regime(self) -> bool:
        return self.sigma_p < self.r < min(1.0 + 1.0 / self.p, 2.0)


@dataclass(frozen=True)
class SeqNormSpec:
    params: BesovParams
    shift: str = "standard"  # or "dual": conjugate parameters with r'+1

    def effective(self) -> BesovParams:
        if self.shift == "standard":
            return self.params
        c = self.params.conjugate()
        return BesovParams(r=c.r + 1.0, p=c.p, q=c.q)


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


def hpc_block(
    f_coeffs: CoefficientMap, jbar, decomp: DecompositionOfUnity, grid_level: int
) -> GridFunction:
    """Weighted cosine sum  sum_k phi_jbar(k) fhat(k) c_k  on the unit grid."""
    dense = _hpc_dense(f_coeffs)
    ks = np.arange(dense.shape[0], dtype=float)
    return hpc_synthesize_dense(_weigh(dense, [decomp.phi(int(j), ks) for j in jbar]), grid_level)


def _level_cap(kmax: int) -> int:
    return int(math.floor(math.log2(max(kmax, 1)))) + 2


def default_level_cap(f_coeffs: CoefficientMap) -> int:
    """Smallest J with every retained frequency < 2^{J-1}: levels beyond J
    are exactly zero for this coefficient set."""
    return _level_cap(max((abs(int(t)) for k in f_coeffs.entries for t in k), default=0))


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
    decomp: DecompositionOfUnity = None,
    strict: bool = True,
) -> NormReport:
    """Truncated quasi-norm  (sum_jbar 2^{r q |jbar|_1} ||f_jbar||_{L_p}^q)^{1/q}
    over blocks of half-period cosine coefficients.

    For inputs whose frequencies all lie below 2^{J_max - 1} the truncation
    is exact and the tail bound is zero. Otherwise the per-level sums are
    fitted geometrically; a non-decaying fit raises unless strict=False, in
    which case the value is the bare truncation and the tail bound is inf.
    """
    decomp = decomp or DecompositionOfUnity()
    d = f_coeffs.d
    base = _hpc_dense(f_coeffs)
    kmax = base.shape[0] - 1
    exact_cap = _level_cap(kmax)
    J = exact_cap if J_max is None else int(J_max)
    if grid_level is None:
        kmax_used = min(2 ** (J + 1), max(kmax, 1))
        grid_level = max(4, int(math.ceil(math.log2(4 * kmax_used))))

    ks = np.arange(kmax + 1, dtype=float)
    axis_w = []
    for j in range(J + 1):
        w = decomp.phi(j, ks)
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


def seq_norm(coeffs: CoefficientMap, spec) -> float:
    """Weighted ell_q(ell_p) norm of wavelet coefficients: level jbar carries
    2^{(sum_i max(j_i,0)) (r - 1/p)}; shift sums inside, level sum outside."""
    return seq_norm_report(coeffs, spec, strict=False).value


def seq_norm_report(
    coeffs: CoefficientMap, spec, strict: bool = True, J: int = None
) -> NormReport:
    """seq_norm packaged with per-|jbar_+|_1 level sums and the same
    geometric tail extrapolation used for the cosine-block norm.

    J, when given, is the top level per axis that the coefficients were
    requested up to; requested levels with no entry are exact zeros. If no
    entry reaches level J the expansion is finite and the tail is 0."""
    params = spec.effective() if isinstance(spec, SeqNormSpec) else spec
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
    rhs = seq_norm(lam, SeqNormSpec(params, "standard")) * seq_norm(
        mu, SeqNormSpec(params, "dual")
    )
    return lhs, rhs


def periodization_block_identity(
    f_coeffs: CoefficientMap,
    jbar,
    p: float,
    grid_level: int = 7,
    decomp: DecompositionOfUnity = None,
):
    """Left: ||block of the periodization||^p over the torus, via sampling,
    FFT analysis, symmetric weights and FFT synthesis. Right:
    2^d ||cosine block||^p over the unit cube, via weighted DCT synthesis.
    The pipelines share no transform code; equality is the periodization
    principle for blocks. p = inf compares sup values (no 2^d factor)."""
    decomp = decomp or DecompositionOfUnity()
    d = f_coeffs.d

    g_unit = hpc_synthesize_dense(_hpc_dense(f_coeffs), grid_level)
    dense = fourier_analyze_dense(periodize(g_unit))
    freqs = signed_fft_freqs(dense.shape[0]).astype(float)  # even block weights psi_j
    weighted = _weigh(dense, [decomp.symmetric(int(j), freqs) for j in jbar])
    block_t = fourier_synthesize_dense(weighted, grid_level)

    block_u = hpc_block(f_coeffs, jbar, decomp, grid_level)
    if p == INF:
        return block_t.lp_norm(INF), block_u.lp_norm(INF)
    return block_t.lp_norm(p) ** p, 2.0**d * block_u.lp_norm(p) ** p


def _rectangular_mean(f, m: int, steps, axes, gauss: int) -> np.ndarray:
    """int over [-1,1]^e of |Delta^m f(x)| dh by tensor Gauss quadrature on
    the open mesh np.ix_(*axes), which f must broadcast. The difference
    moves axis i by l h_i steps[i], l = 0..m, along each active axis, those
    whose step is not None; with no active axis the result is |f|."""
    nodes, weights = np.polynomial.legendre.leggauss(gauss)
    signs = [(-1.0) ** (m - l) * math.comb(m, l) for l in range(m + 1)]
    active = [i for i, t in enumerate(steps) if t is not None]
    mesh, shape = np.ix_(*axes), tuple(len(x) for x in axes)
    all_shifts = list(np.ndindex(*([m + 1] * len(active))))
    acc = np.zeros(shape)
    for combo in np.ndindex(*([gauss] * len(active))):
        diff = np.zeros(shape)
        for shifts in all_shifts:
            coeff, moved = 1.0, list(mesh)
            for i, ci, l in zip(active, combo, shifts):
                coeff *= signs[l]
                moved[i] = mesh[i] + l * nodes[ci] * steps[i]
            diff += coeff * np.asarray(f(*moved), dtype=float)
        wq = 1.0
        for ci in combo:
            wq *= weights[ci]
        acc += wq * np.abs(diff)
    return acc


def rectangular_mean_1d(f, m: int, t: float, x: np.ndarray, gauss: int = 8):
    """R_m(f,t,x) = int_{-1}^{1} |Delta^m_{h t} f(x)| dh by Gauss quadrature,
    at points x of any shape."""
    x = np.asarray(x, dtype=float)
    return _rectangular_mean(f, m, (t,), (x.ravel(),), gauss).reshape(x.shape)


def difference_seminorm(
    f=None,
    params: BesovParams = None,
    m: int = 2,
    J_max: int = 5,
    grid_level: int = 7,
    d: int = 1,
    tensor_factors=None,
    gauss: int = 8,
) -> NormReport:
    """Truncated (sum_jbar 2^{r q |jbar|_1} ||R^{e(jbar)}_m(f,2^{-jbar},.)||_p^q)^{1/q}
    for a continuous periodic f on the torus, with the difference applied
    only along the active axes e(jbar) = {i : j_i != 0}.

    L_p norms use the normalized torus measure, so for reflection-symmetric
    periodizations the values match unit-cube norms of the underlying
    function. tensor_factors (univariate periodic callables) factorize the
    computation exactly in any dimension: each factor's rectangular mean is
    taken once per level. A generic callable f needs d <= 2 and uses tensor
    Gauss quadrature for the h-integral, once per jbar; it gets the grid
    axes as an open mesh (np.ix_), as in GridFunction.from_callable, so it
    must broadcast its arguments against each other.
    """
    if params is None:
        raise ConfigError("params required")
    if f is None and tensor_factors is None:
        raise ConfigError("f or tensor_factors required")
    if m <= params.r:
        raise ConfigError(f"difference order m={m} must exceed r={params.r}")
    if tensor_factors is None and d > 2:
        raise ConfigError(f"difference route for a generic callable needs d <= 2, got d={d}")
    x1 = _grid_axis(SYM, grid_level)
    steps = [None] + [2.0**-j for j in range(1, J_max + 1)]  # level 0: no difference
    grid_lp = lambda values: _lp(values, params.p, mean=True)
    if tensor_factors is not None:
        d = len(tensor_factors)
        tables = [[grid_lp(_rectangular_mean(fi, m, (t,), (x1,), gauss)) for t in steps]
                  for fi in tensor_factors]
    level_terms = {}
    for jbar in np.ndindex(*([J_max + 1] * d)):
        if tensor_factors is not None:
            val = 1.0
            for i, j in enumerate(jbar):
                val *= tables[i][j]
        else:
            val = grid_lp(_rectangular_mean(f, m, [steps[j] for j in jbar], [x1] * d, gauss))
        term = 2.0 ** (params.r * sum(jbar)) * val
        if term > 0.0:
            level_terms[tuple(int(t) for t in jbar)] = term
    return _norm_report("diff", params, J_max, level_terms, exact=False, strict=False)
