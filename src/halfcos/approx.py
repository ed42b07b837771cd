"""Hyperbolic-cross projection in the half-period cosine basis, the exact
transfer of its error to the periodic problem under tent composition, and
least-squares recovery from point samples.

Projections of sampled functions are computed by aliasing-checked dense
transforms; the exact projection error of a corpus member is a tail sum of
its closed-form coefficients, read from per-axis suffix sums. The transfer
identity holds to round-off on matched grids: the torus side reads the
unit samples through their mirror index, so the values coincide node by node.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .cubature import fit_rate
from .errors import ConditionError, ConfigError
from .grids import (
    _MAX_GRID_POINTS,
    UNIT,
    CoefficientMap,
    GridFunction,
    _check_grid_size,
    _check_int,
    _check_kmax,
    _check_size,
    _weigh,
    fourier_analyze_dense,
    fourier_synthesize_dense,
    hpc_analyze_dense,
    hpc_basis_1d,
    hpc_synthesize,
    hpc_synthesize_dense,
    periodize,
    signed_fft_freqs,
)
from .indexsets import IndexSet, cross_size, hyperbolic_cross

__all__ = [
    "project_dense",
    "error_transfer_check",
    "ls_recover",
    "ls_error_experiment",
    "projection_error_rate",
    "exact_projection_error",
]


def _cross_mask(freqs, N: int) -> np.ndarray:
    """Mask of the hyperbolic cross prod (1 + |k_i|) <= N on the tensor
    spanned by the per-axis frequency vectors."""
    prod = _weigh(np.ones(tuple(len(k) for k in freqs)), [1.0 + np.abs(k) for k in freqs])
    return prod <= N


def project_dense(f: GridFunction, N: int):
    """Dense-transform projection onto the cross of order N; returns the
    approximant on f's grid and the retained coefficients on the box
    k_i < N that holds the cross (cut at the grid), the only box analysed."""
    box = hpc_analyze_dense(f, N)
    freqs = [np.arange(size, dtype=float) for size in box.shape]
    box = np.where(_cross_mask(freqs, N), box, 0.0)
    return hpc_synthesize_dense(box, f.m), box


def _torus_projection(g: GridFunction, N: int) -> GridFunction:
    """FFT-masking projection onto the signed cross of a torus grid function
    or of the periodization of a unit-cube one (never built). The cross lies
    in |k_i| <= N - 1 per axis, so only those slots are transformed."""
    freqs = signed_fft_freqs(2 ** (g.m + 1))
    slots = [np.abs(freqs) <= N - 1] * g.d
    dense = fourier_analyze_dense(g, slots)
    kept = [freqs[keep].astype(float) for keep in slots]
    return fourier_synthesize_dense(np.where(_cross_mask(kept, N), dense, 0.0), g.m, slots)


def error_transfer_check(f: GridFunction, N: int, p: float):
    """Left: ||f - (cross projection of f)||_{L_p} on the unit cube.
    Right: the same quantity computed entirely on the torus: periodize the
    samples, project onto the signed cross by FFT masking, and take the
    normalized-measure L_p error. Equal to round-off on matched grids."""
    lhs = (f - project_dense(f, N)[0]).lp_norm(p)
    rhs = (periodize(f) - _torus_projection(f, N)).lp_norm(p)
    if p != math.inf:
        rhs *= 2.0 ** (-f.d / p)
    return lhs, rhs


def _design_matrix(points: np.ndarray, K: IndexSet) -> np.ndarray:
    """Columns prod_i c_{k_i}(x_i) for kbar in K, multiplied in axis order;
    each axis evaluates one table over its distinct frequencies. np.take
    gathers its columns in C order, the layout the LS solve rounds by."""
    arr = K.as_array()
    for ax in range(points.shape[1]):
        ks, inverse = np.unique(arr[:, ax], return_inverse=True)
        factor = np.take(hpc_basis_1d(ks, points[:, ax, None]), inverse, axis=1)
        cols = factor if ax == 0 else np.multiply(cols, factor, out=cols)
    return cols


# Largest design condition number ls_recover accepts.
_COND_LIMIT = 1e8


def ls_recover(points: np.ndarray, values: np.ndarray, K: IndexSet):
    """Least-squares fit of cosine coefficients on the index set.

    Solves min sum_i |values_i - sum_k c_k c_kbar(x_i)|^2 by orthogonal
    factorization. Returns (CoefficientMap, info dict with condition number
    and the max normal-equation residual). A design matrix with condition
    above _COND_LIMIT raises instead of silently regularizing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != K.d:
        raise ConfigError(f"points have {points.shape[1]} columns, but the index set has d={K.d}")
    values = np.asarray(values, dtype=float)
    A = _design_matrix(points, K)
    if len(values) < A.shape[1]:
        raise ConditionError(f"underdetermined design: {len(values)} samples, {A.shape[1]} unknowns")
    coef, _, rank, svals = np.linalg.lstsq(A, values, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if cond > _COND_LIMIT or rank < A.shape[1]:
        raise ConditionError(
            f"design matrix condition {cond:.3e} exceeds {_COND_LIMIT:.1e}"
        )
    normal_resid = float(np.max(np.abs(A.T @ (A @ coef - values))))
    entries = dict(zip(K.members, coef.tolist()))
    info = {"condition": cond, "normal_residual": normal_resid, "rank": int(rank)}
    return CoefficientMap(basis="hpc", d=points.shape[1], entries=entries), info


def ls_error_experiment(
    member,
    N: int,
    oversample: float = 4.0,
    seed: int = 0,
    grid_level: int = 10,
):
    """Recovery error of iid-uniform sampling with logarithmic oversampling
    against the projection error of the same cross; returns a dict with both
    errors, the sample count, and the design condition number."""
    N = _check_int(N, 1, "cross order N")
    _check_grid_size(grid_level, member.d, UNIT, f"--grid-level {grid_level}")
    if not math.isfinite(oversample):
        raise ConfigError(f"oversample must be finite, got {oversample}")
    d = member.d
    # The design is held whole: it may have as many cells as a dense grid has
    # points. It has at least |cross|^2 >= N^2 of them once it is determined,
    # so a larger N is refused before the cross is counted.
    _check_size(N * N, f"--N {N}", f"a least-squares design of at least N^2 = {N * N} cells")
    card = cross_size(N, d)
    n_samples = int(math.ceil(oversample * card * (1.0 + math.log(card))))
    if n_samples < card:
        raise ConfigError(
            f"oversample={oversample}: {n_samples} samples for {card} unknowns, an underdetermined design"
        )
    cells = n_samples * card
    _check_size(cells, f"--N {N} with --oversample {oversample}",
                f"a least-squares design of {n_samples} x {card} = {cells} cells")
    _check_int(seed, 0, "seed")
    K = hyperbolic_cross(N, d, signed=False)
    rng = np.random.default_rng(seed)
    pts = rng.random((n_samples, d))
    vals = member(*[pts[:, i] for i in range(d)])
    coeffs, info = ls_recover(pts, vals, K)
    g = member.sample(N - 1, grid_level)
    ls_err = (g - hpc_synthesize(coeffs, grid_level)).lp_norm(2.0)
    approx, _ = project_dense(g, N)
    proj_err = (g - approx).lp_norm(2.0)
    return {
        "N": N,
        "dim": card,
        "samples": n_samples,
        "ls_error": ls_err,
        "projection_error": proj_err,
        "condition": info["condition"],
        "normal_residual": info["normal_residual"],
    }


def _cross_tail(squares, suffix, rest, bound: int, ax: int) -> float:
    """Sum of prod_{i >= ax} squares[i][k_i] over the box indices of axes
    ax.. with prod_{i >= ax} (1 + k_i) > bound, for an integer bound >= 0.

    The last axis gives its suffix sum from k = bound (cut at the box). On
    another, indices k_ax >= bound leave a bound of 0 that every later index
    exceeds: suffix[ax][bound] times the total rest[ax + 1] of later axes.
    Each k_ax < bound recurses on the next axis with bound // (1 + k_ax)."""
    n = min(bound, len(squares[ax]))
    if ax + 1 == len(squares):
        return suffix[ax][n]
    inner = np.array([_cross_tail(squares, suffix, rest, bound // a, ax + 1) for a in range(1, n + 1)])
    return float(np.sum(squares[ax][:n] * inner)) + suffix[ax][n] * rest[ax + 1]


def exact_projection_error(member, N: int, kmax: int) -> float:
    """L_2 projection error from closed-form coefficients: the tail
    ell_2 norm over the complement of the cross, computed on a box large
    enough that the remainder beyond kmax is negligible for k^{-2} decay.

    The tail sum over prod (1 + k_i) > N of prod c_i(k_i)^2 is one recursion
    (_cross_tail) for every d: each axis passes the integer bounds N // prod
    (1 + k_i) on, the last reads a suffix sum of c_d^2, accumulated from the
    largest k down, and once a bound is 0 the rest is the product of the
    per-axis totals. The work is O(d kmax + size of the cross), not
    O((kmax + 1)^d), and for decaying coefficients the sum stays within about
    1e-15 relative of the correctly rounded one, as suffix sums add smallest first.
    """
    _check_int(N, 1, "cross order N")
    _check_kmax(kmax)
    squares = [np.square(c) for c in member.coefficient_vectors(kmax)]
    # suffix[i][j] is the sum of squares[i][j:], with suffix[i][kmax + 1] = 0
    suffix = [np.append(np.cumsum(sq[::-1])[::-1], 0.0) for sq in squares]
    rest = [math.prod(float(s[0]) for s in suffix[i:]) for i in range(member.d + 1)]
    return math.sqrt(_cross_tail(squares, suffix, rest, N, 0))


def projection_error_rate(
    member,
    N_list,
    kmax: int = 512,
    log_exponent: float = 0.0,
    skip_smallest: int = 1,
):
    """L2 errors against dim(cross) with a least-squares slope fit in log2
    coordinates; a positive log_exponent divides (log2 n)^e out first."""
    for N in N_list:
        _check_int(N, 1, "cross order N")
    _check_kmax(kmax)
    # an input bound on --kmax; the tail walks the cross, not this box
    box = (kmax + 1) ** member.d
    _check_size(box, f"--kmax {kmax}", f"a coefficient box of {box} entries in d={member.d}")
    for N in N_list:  # the cross has at most N (1 + ln N)^(d-1) members
        # an N past the limit is refused as it is: a huge int times a float overflows
        bound = N if N > _MAX_GRID_POINTS else N * (1.0 + math.log(N)) ** (member.d - 1)
        _check_size(bound, f"--N-list {N}",
                    f"a cross of up to N (1 + ln N)^(d-1) members in d={member.d}")
    dims = [cross_size(N, member.d) for N in N_list]
    vectors = member.coefficient_vectors(kmax)  # once for the table, read by each N
    table = SimpleNamespace(d=member.d, coefficient_vectors=lambda _: vectors)
    errors = [exact_projection_error(table, N, kmax) for N in N_list]
    return fit_rate(dims, errors, log_exponent, skip_smallest)
