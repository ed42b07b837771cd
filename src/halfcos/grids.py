"""Grid functions on the unit cube and the symmetric torus, and the
half-period cosine / torus Fourier transforms between samples and
coefficients.

Two grid conventions are used throughout:

* unit cube [0,1]^d: closed uniform tensor grid with 2^m + 1 points per
  axis (endpoints included, trapezoidal quadrature weights). Half-period
  cosines do not vanish at 0 and 1, so the endpoints carry information.
* symmetric torus [-1,1]^d: half-open periodic grid with 2^(m+1) points
  per axis at -1 + i 2^-m (equal quadrature weights, no duplicated
  endpoint).

Both grids share the spacing 2^-m. Every torus node maps under the
reflection rho onto a unit-cube node, with interior nodes covered exactly
twice; the discrete pairing identity <f,g> = 2^-d <Pf,Pg> therefore holds
to round-off, not just asymptotically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ConfigError, DomainError, ResolutionMismatchError


__all__ = [
    "UNIT",
    "SYM",
    "GridFunction",
    "CoefficientMap",
    "tent",
    "rho",
    "periodize",
    "restrict",
    "hpc_basis_1d",
    "cos_basis",
    "exp_basis",
    "hpc_analyze_dense",
    "hpc_synthesize",
    "hpc_synthesize_dense",
    "fourier_analyze_dense",
    "fourier_synthesize_dense",
    "signed_fft_freqs",
    "coefficient_decay_report",
    "slab_keys",
]

UNIT = "unit"
SYM = "sym"


def _along(vec, ax: int, d: int) -> np.ndarray:
    """vec as a d-dimensional array that varies along axis ax only."""
    return np.reshape(vec, (1,) * ax + (-1,) + (1,) * (d - ax - 1))


def _weigh(t: np.ndarray, vectors) -> np.ndarray:
    """t times vectors[ax] along each axis ax, one axis at a time in axis
    order. The first product is a new array and the others run in place in
    it, so t stays untouched and no other array of its size is made."""
    out = t * _along(vectors[0], 0, t.ndim)
    for ax, v in enumerate(vectors[1:], 1):
        out *= _along(v, ax, t.ndim)
    return out


def _grid_axis(domain: str, m: int) -> np.ndarray:
    """Node coordinates of one axis of the level-m grid on the domain."""
    if domain == UNIT:
        return np.arange(2**m + 1) * 2.0**-m
    if domain == SYM:
        return -1.0 + np.arange(2 ** (m + 1)) * 2.0**-m
    raise DomainError(f"unknown domain {domain!r}")


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _axis_index(ax: int, index) -> tuple:
    """Index tuple that applies index to axis ax and keeps the axes before it whole."""
    return (slice(None),) * ax + (index,)


def tent(x):
    """Componentwise tent map t -> 1 - |2t - 1| on [0,1]^d. Each step runs
    in place on one copy of x, with the same values as the out-of-place
    formula; a scalar input gives a NumPy scalar."""
    t = np.array(x, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):  # written so that NaN fails too
        raise DomainError("tent expects points in [0,1]^d")
    t *= 2.0
    t -= 1.0
    np.abs(t, out=t)
    np.subtract(1.0, t, out=t)
    return t[()]


def rho(x):
    """2-periodic even reflection, min{x mod 2, (-x) mod 2}; equals |x| on [-1,1]."""
    x = np.asarray(x, dtype=float)
    return np.minimum(np.mod(x, 2.0), np.mod(-x, 2.0))


@dataclass
class GridFunction:
    """Samples of a function on one of the two tensor grids.

    domain is 'unit' or 'sym'; m is the dyadic spacing level (grid step
    2^-m on both domains); values is the dense sample tensor.
    """

    domain: str
    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.m < 0:
            raise ConfigError(f"grid level m must be >= 0, got {self.m}")
        self.values = np.asarray(self.values)
        n = self.axis_size
        if self.values.shape != (n,) * self.d:
            raise ResolutionMismatchError(
                f"expected shape {(n,) * self.d}, got {self.values.shape}"
            )

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def axis_size(self) -> int:
        if self.domain == UNIT:
            return 2**self.m + 1
        if self.domain == SYM:
            return 2 ** (self.m + 1)
        raise DomainError(f"unknown domain {self.domain!r}")

    def axis_points(self) -> np.ndarray:
        return _grid_axis(self.domain, self.m)

    def axis_weights(self) -> np.ndarray:
        w = np.full(self.axis_size, 2.0**-self.m)
        if self.domain == UNIT:  # trapezoidal endpoints
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    @classmethod
    def from_callable(cls, f, d: int, m: int, domain: str = UNIT) -> "GridFunction":
        """Sample a vectorized callable on the tensor grid.

        f gets the d grid axes as an open mesh (np.ix_): axis i has shape
        (1, ..., n, ..., 1), so f must broadcast its arguments against each
        other, as numpy's elementwise functions do. A product of 1-D
        factors, such as a TestFunction, then evaluates each factor on n
        points rather than n^d, and the broadcast product gives the same
        values as on a full meshgrid.
        """
        ax = _grid_axis(domain, m)
        vals = f(*np.ix_(*([ax] * d)))
        vals = np.broadcast_to(np.asarray(vals), (ax.size,) * d).copy()
        return cls(domain=domain, m=m, values=vals)

    def integrate(self) -> complex:
        w = self.axis_weights()
        out = self.values
        for _ in range(self.d):
            out = np.tensordot(out, w, axes=([-1], [0]))
        return complex(out) if np.iscomplexobj(self.values) else float(out)

    def inner(self, other: "GridFunction"):
        """Quadrature approximation of the integral of f times conj(g)."""
        if (self.domain, self.m) != (other.domain, other.m):
            raise ResolutionMismatchError("grids do not match")
        prod = GridFunction(self.domain, self.m, self.values * np.conj(other.values))
        return prod.integrate()

    def lp_norm(self, p) -> float:
        """L_p quadrature norm; p = inf is the grid maximum of |f|."""
        a = np.abs(self.values)
        if p == np.inf or p == "inf":
            return float(a.max())
        if a.dtype.kind == "f":
            a **= float(p)  # in place: one grid-sized temporary per call, not two
        else:
            a = a ** float(p)
        return float(GridFunction(self.domain, self.m, a).integrate()) ** (1.0 / float(p))

    def __sub__(self, other):
        if (self.domain, self.m) != (other.domain, other.m):
            raise ResolutionMismatchError("grids do not match")
        return GridFunction(self.domain, self.m, self.values - other.values)


def periodize(f: GridFunction) -> GridFunction:
    """Reflection periodization P: f -> f o rho restricted to [-1,1]^d.

    Exact index mirroring: the torus node -1 + i 2^-m reflects onto the
    unit node |i - 2^m| 2^-m, so each axis is the reversed slice 2^m..1
    followed by the slice 0..2^m - 1.
    """
    if f.domain != UNIT:
        raise DomainError("periodize expects a unit-cube grid function")
    n = 2**f.m
    vals = f.values
    for ax in range(f.d):
        mirror = vals[_axis_index(ax, slice(n, 0, -1))]
        vals = np.concatenate((mirror, vals[_axis_index(ax, slice(0, n))]), axis=ax)
    return GridFunction(SYM, f.m, vals)


def restrict(g: GridFunction) -> GridFunction:
    """Restriction R: g -> g on [0,1]^d (torus node x=1 identified with -1)."""
    if g.domain != SYM:
        raise DomainError("restrict expects a torus grid function")
    n = 2**g.m
    idx = (n + np.arange(n + 1)) % (2 * n)
    vals = g.values
    for ax in range(g.d):
        vals = np.take(vals, idx, axis=ax)
    return GridFunction(UNIT, g.m, vals)


def hpc_basis_1d(k: int, x):
    """Half-period cosine c_k: 1 for k=0, sqrt(2) cos(pi k x) otherwise."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    return np.sqrt(2.0) * np.cos(np.pi * k * x)


def cos_basis(kbar, *axes):
    """Tensor cosine 2^(-d/2) prod cos(pi k_i x_i) on the torus. The axes
    broadcast against each other: an open mesh (np.ix_) gives the tensor
    grid from 1-D factors."""
    d = len(kbar)
    out = 2.0 ** (-d / 2.0)
    for k, x in zip(kbar, axes):
        out = out * np.cos(np.pi * k * np.asarray(x, dtype=float))
    return out


def exp_basis(kbar, *axes):
    """Tensor exponential 2^(-d/2) exp(i pi k . x) on the torus; the axes
    broadcast as in cos_basis."""
    d = len(kbar)
    out = None
    for k, x in zip(kbar, axes):
        t = np.exp(1j * np.pi * k * np.asarray(x, dtype=float))
        out = t if out is None else out * t
    return 2.0 ** (-d / 2.0) * out


@dataclass
class CoefficientMap:
    """Sparse map from multi-index to coefficient.

    basis: 'hpc' (keys in N_0^d), 'torus-exp' (keys in Z^d), or
    'cw-primal'/'cw-dual' (keys are (jbar, kbar) pairs over
    N_{-1}^d x Z^d). Absent key means coefficient zero.
    """

    basis: str
    d: int
    entries: dict

    def get(self, key):
        return self.entries.get(self._norm_key(key), 0.0)

    def _norm_key(self, key):
        if self.basis in ("cw-primal", "cw-dual"):
            j, k = key
            return (tuple(int(x) for x in j), tuple(int(x) for x in k))
        return tuple(int(x) for x in key)

    def items_sorted(self):
        return sorted(self.entries.items())


# Most points a dense grid may hold: 2^24 doubles are 128 MB.
_MAX_GRID_POINTS = 2**24


def _check_size(count, source: str, what: str):
    """Raise ConfigError when count, the size of what source (the setting
    that chose it) asks for, exceeds _MAX_GRID_POINTS."""
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"{source} asks for {what}, over the limit of {_MAX_GRID_POINTS} = 2^24")


def _check_grid_size(m: int, d: int, domain: str, source: str):
    """_check_size of the level-m grid on the domain in d dimensions. The
    count is made on Python ints, and levels or dimensions past 24 are
    refused before 2^m is formed, so the check allocates nothing."""
    count = math.inf if m > 24 or d > 24 else (2 ** (m + 1) if domain == SYM else 2**m + 1) ** d
    _check_size(count, source, f"a level-{m} grid in d={d}")


def _check_aliasing(m: int, kmax: int):
    # Margin factor 4 guards quadrature of products of basis functions.
    if 2**m < 4 * max(kmax, 1):
        raise AliasingError(
            f"grid level m={m} too low for frequencies up to {kmax}; need 2^m >= {4 * kmax}"
        )


def _alias_free_level(kmax: int, floor: int) -> int:
    """The least level m >= floor that _check_aliasing admits for kmax."""
    return max(floor, (4 * max(kmax, 1) - 1).bit_length())


def hpc_analyze_dense(f: GridFunction) -> np.ndarray:
    """Full tensor of half-period cosine coefficients up to the grid cutoff.

    The closed-grid trapezoidal quadrature of f against c_kbar coincides
    with a type-I DCT, so the whole tensor costs O(M^d log M). Entry [kbar]
    approximates the integral of f times c_kbar; exact to round-off for
    cosine polynomials with per-axis frequency below 2^m. The DCT-I runs
    one axis at a time in axis order (see _dct1), so the values are those
    of pocketfft's d-dimensional DCT-I.
    """
    if f.domain != UNIT:
        raise DomainError("hpc_analyze_dense expects a unit-cube grid function")
    h = 2.0**-f.m
    coeff = f.values
    for ax in range(f.d):
        coeff = _dct1(coeff, ax)
    coeff = coeff * (h / 2.0) ** f.d
    norm = np.ones(f.axis_size)
    norm[1:] = np.sqrt(2.0)
    return _weigh(coeff, [norm] * f.d)


# Bytes of the even-extension buffer of _dct1: one box of lines stays in L2.
_DCT_BATCH_BYTES = 256 * 1024


def _dct1(x: np.ndarray, axis: int, n: int = None) -> np.ndarray:
    """Unnormalized DCT-I, y_k = x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1}
    x_j cos(pi j k / (n-1)), of every line of x along axis, each line
    zero-padded to length n >= its length first (n defaults to it).

    With x seen as (lead, axis, trail), lines go a box of lead and trail
    indices at a time, about _DCT_BATCH_BYTES once extended. The box's
    lines are written with their even extension [x, x[n-2:0:-1]] into one
    buffer, and the real part of the buffer's real FFT is kept: the same
    pocketfft plan and arithmetic as scipy.fft.dct(type=1), so the values
    are bit-identical to it. The padding and its mirror image stay zero in
    the buffer from box to box. Lines whose bits are all zero (+0.0 only)
    are not transformed: their DCT-I is +0.0, which the output holds. A
    box with no such line is moved by slices, any other by index.
    """
    x = np.asarray(x, dtype=float)
    size = x.shape[axis]
    n = size if n is None else n
    lead, trail = x.shape[:axis], x.shape[axis + 1 :]
    pre, post = math.prod(lead), math.prod(trail)
    x3 = x.reshape(pre, size, post)
    out = np.zeros(lead + (n,) + trail)
    out3 = out.reshape(pre, n, post)
    live = np.any(x3.view(np.uint64), axis=1)  # live[p, c]: line x3[p, :, c] has a bit set
    if not live.any():
        return out
    ext = 2 * (n - 1)
    top = min(size, n - 1)  # the extension ends with x[top-1:0:-1]; zeros come before it
    batch = max(1, _DCT_BATCH_BYTES // (ext * x.itemsize))
    height, width = max(1, batch // post), min(post, batch)
    buf = np.zeros((min(batch, pre * post), ext))
    spec = np.empty((buf.shape[0], n), dtype=complex)
    for p in range(0, pre, height):
        for c in range(0, post, width):
            lines = live[p : p + height, c : c + width]
            k = np.count_nonzero(lines)
            if k == lines.size:  # the whole box, by slices
                box, rows, order = np.s_[p : p + height, :, c : c + width], lines.shape, (0, 2, 1)
            elif k:  # its live lines only, by index
                i, j = np.nonzero(lines)
                box, rows, order = (i + p, slice(None), j + c), (k,), (0, 1)
            else:
                continue
            b, s = buf[:k], spec[:k]
            b.reshape(rows + (ext,))[..., :size] = x3[box].transpose(order)
            b[:, ext - top + 1 :] = b[:, top - 1 : 0 : -1]
            np.fft.rfft(b, axis=-1, out=s)
            out3[box] = s.real.reshape(rows + (n,)).transpose(order)
    return out


# Output bytes per block of _synthesize_terms: a block and its buffer fit in L2.
_SYNTH_BLOCK_BYTES = 512 * 1024


def _synthesize_terms(items, row, n: int, d: int) -> np.ndarray:
    """sum of v * (outer product of row(key_1), ..., row(key_d)) over the
    (keys, v) of items, on the (n,)^d tensor grid.

    row(key) is one 1-D row of n values, computed once per key. Terms are
    added one at a time in items order, each outer product multiplied left
    to right and then scaled by the real part of v. The sum runs in blocks
    of leading-axis rows, each about _SYNTH_BLOCK_BYTES of the output, so a
    block and its scratch buffer stay in cache through the term loop; each
    grid value gets the same operations in the same order either way.
    """
    rows, terms = {}, []
    for keys, v in items:
        for key in keys:
            if key not in rows:
                rows[key] = row(key)
        terms.append((keys[0], [rows[key] for key in keys[1:]], np.real(v)))
    out = np.zeros((n,) * d)
    step = max(1, _SYNTH_BLOCK_BYTES // (out.itemsize * n ** (d - 1)))
    for lo in range(0, n, step):
        block = out[lo : lo + step]
        buf = np.empty_like(block)
        # the leading-axis rows of this block, sliced once per key
        lead = rows if step >= n else {key: r[lo : lo + step] for key, r in rows.items()}
        for key, factors, v in terms:
            piece = lead[key]
            for factor in factors[:-1]:
                piece = np.multiply.outer(piece, factor)
            if factors:  # the same correctly rounded products as multiply.outer, faster
                piece = np.einsum("...,j->...j", piece, factors[-1], out=buf)
            np.multiply(piece, v, out=buf)
            block += buf
    return out


def hpc_synthesize(coeffs: CoefficientMap, m: int) -> GridFunction:
    """Evaluate the finite expansion sum of coeff * c_kbar on the closed grid.

    _synthesize_terms adds the terms one at a time in key order, from one
    basis row per frequency. This per-term sum is kept on purpose:
    scattering the coefficients into a dense tensor and running one DCT-I
    would be faster, but it rounds differently, and `halfcos identities`
    prints residuals at exactly that round-off.
    """
    if coeffs.basis != "hpc":
        raise ValueError("expected half-period cosine coefficients")
    x = _grid_axis(UNIT, m)
    row = lambda k: hpc_basis_1d(k, x)
    return GridFunction(UNIT, m, _synthesize_terms(coeffs.items_sorted(), row, x.size, coeffs.d))


def hpc_synthesize_dense(coeff: np.ndarray, m: int) -> GridFunction:
    """The sum of coeff[kbar] c_kbar on the closed level-m grid, for a full
    coefficient tensor (padded or truncated to the grid size); used by the
    block machinery. hpc_analyze_dense gives coeff back only where no axis
    holds slot 2^m: the trapezoid rule gives c_{2^m} the squared norm 2,
    so an entry comes back doubled once per axis at that slot.

    Sum_k z_k cos(pi k j / 2^m) equals an unnormalized DCT-I after halving
    the interior coefficients. The d-dimensional DCT-I is run one axis at
    a time by _dct1, which zero-pads each axis to the grid only in its own
    transform, so the earlier axes never see the lines that would hold
    only padding (FFT pruning). _dct1 also skips every line that is
    exactly +0.0, padded or not: such a line transforms to +0.0. Every
    other line is transformed as one DCT-I of the whole padded tensor
    would transform it, in the same axis order, so the values are
    identical to that transform.
    """
    d = coeff.ndim
    n = 2**m + 1
    work = np.asarray(coeff[(slice(0, n),) * d], dtype=float)
    weight = np.full(n, np.sqrt(2.0) * 0.5)  # c_k normalization times the halving
    weight[[0, -1]] = 1.0, np.sqrt(2.0)
    work = _weigh(work, [weight[:size] for size in work.shape])
    for ax in range(d):
        work = _dct1(work, ax, n)
    return GridFunction(UNIT, m, work)


def _check_slots(slots, d: int, n: int) -> list:
    """The kept FFT slots of each of the d axes as boolean masks of length
    n; every slot of every axis when slots is None. ConfigError unless
    slots holds d such masks."""
    if slots is None:
        return [np.ones(n, dtype=bool)] * d
    slots = [np.asarray(keep) for keep in slots]
    if len(slots) != d or any(keep.dtype != bool or keep.shape != (n,) for keep in slots):
        raise ConfigError(f"kept slots must be {d} boolean masks of length {n}")
    return slots


def _negate_odd(a: np.ndarray, slots) -> None:
    """Multiply a in place by (-1)^(k_1 + ... + k_d), where k_i is the slot
    that position i of axis i holds: the positions of odd slots are negated
    one axis at a time, which is exact."""
    for ax, keep in enumerate(slots):
        index = _axis_index(ax, (np.arange(keep.size) % 2 == 1)[keep])
        a[index] = np.negative(a[index])


def fourier_analyze_dense(g: GridFunction, slots=None) -> np.ndarray:
    """Torus Fourier coefficients in FFT layout, at the kept slots only.

    slots holds, per axis, a boolean mask of the 2^(m+1) slots that are
    kept; None keeps every slot, which gives the full tensor. Entry
    [i_1, ..., i_d] of the result is the coefficient at the i_1-th kept
    slot of axis 0, and so on. The FFT runs in place along axis
    0 on every line, then only that axis's kept slots stay before axis 1
    is transformed, and so on in axis order (FFT pruning). The scaling and
    the node sign (-1)^k, with k the slot and not the position, are applied
    to the kept tensor. numpy's FFT computes each line on its own, so every
    kept line, and with it every value, has the same bits as in the full
    transform.
    """
    if g.domain != SYM:
        raise DomainError("fourier_analyze_dense expects a torus grid function")
    slots = _check_slots(slots, g.d, g.axis_size)
    h = 2.0**-g.m
    coeff = np.array(g.values, dtype=complex)
    for ax, keep in enumerate(slots):  # in place, then one copy of the kept slots per axis
        np.fft.fft(coeff, axis=ax, out=coeff)
        coeff = coeff[_axis_index(ax, keep)]
    coeff *= h**g.d
    coeff *= 2.0 ** (-g.d / 2.0)
    # Node offset -1 per axis contributes the alternating sign (-1)^k.
    _negate_odd(coeff, slots)
    return coeff


def signed_fft_freqs(n: int) -> np.ndarray:
    """Signed frequency of each FFT-layout slot, centered on [-n/2, n/2)."""
    return (np.arange(n) + n // 2) % n - n // 2


def fourier_synthesize_dense(coeff: np.ndarray, m: int, slots=None) -> GridFunction:
    """Inverse of fourier_analyze_dense: the torus grid function whose
    coefficients are coeff at the kept slots and zero elsewhere.

    slots is as in fourier_analyze_dense, and coeff holds one entry per
    kept slot of each axis; None means the full FFT-layout tensor. The
    sign (-1)^k of each slot k is applied to coeff. Then each axis, in axis
    order 0, ..., d-1 as in the full transform, is scattered to its full
    length of zeros just before its own unnormalized inverse FFT runs in
    place, so the earlier axes never transform the lines that would hold
    only zeros. The other lines are transformed as the full transform would
    transform them, each on its own, so the values are identical to that
    transform. The 1/n^d follows as one multiplication; n^d is a power of
    two, so that is exact.
    """
    d = coeff.ndim
    n = 2 ** (m + 1)
    slots = _check_slots(slots, d, n)
    kept = tuple(np.count_nonzero(keep) for keep in slots)
    if coeff.shape != kept:
        raise ResolutionMismatchError(
            f"dense Fourier tensor has shape {coeff.shape}, expected {kept} for the kept slots"
        )
    h = 2.0**-m
    vals = np.array(coeff, dtype=complex)  # coeff is not touched
    _negate_odd(vals, slots)
    for ax, keep in enumerate(slots):
        full = np.zeros(vals.shape[:ax] + (n,) + vals.shape[ax + 1 :], dtype=complex)
        full[_axis_index(ax, keep)] = vals
        vals = full
        np.fft.ifft(vals, axis=ax, norm="forward", out=vals)
    vals *= 1.0 / vals.size
    vals /= h**d * 2.0 ** (-d / 2.0)
    return GridFunction(SYM, m, vals)


def slab_keys(mask: np.ndarray) -> list:
    """Multi-indices of the True entries of mask, in lexicographic order,
    as tuples of Python ints."""
    return list(zip(*(ix.tolist() for ix in np.nonzero(mask))))


def coefficient_decay_report(f: GridFunction, k_max: int):
    """Rows (kbar, |coef| * prod max(1,|k_i|)^2) over the box |kbar|_inf <= k_max.

    For restrictions of twice continuously differentiable functions the
    second column is bounded in terms of derivative sup-norms up to order
    2 per axis.
    """
    _check_aliasing(f.m, k_max)
    box = np.abs(hpc_analyze_dense(f)[(slice(0, k_max + 1),) * f.d])
    weight = np.maximum(1, np.arange(k_max + 1)) ** 2
    vals = box * _weigh(np.ones(box.shape), [weight] * f.d)
    return list(zip(np.ndindex(vals.shape), vals.ravel().tolist()))
