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


def _per_factor(factors, table) -> list:
    """[table(i) for each axis i], calling table once per distinct factor
    (by id): the 2-D corpus members repeat one factor on both axes."""
    built = {}
    for i, fi in enumerate(factors):
        if id(fi) not in built:
            built[id(fi)] = table(i)
    return [built[id(fi)] for fi in factors]


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
        _check_level(m, d, domain)
        ax = _grid_axis(domain, m)
        vals, shape = np.asarray(f(*np.ix_(*([ax] * d)))), (ax.size,) * d
        try:
            vals = np.broadcast_to(vals, shape).copy()
        except ValueError:
            raise ResolutionMismatchError(
                f"f gave shape {vals.shape}, not broadcastable to {shape}") from None
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
        if p == np.inf:
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


def _mirror(vals: np.ndarray, ax: int, m: int) -> np.ndarray:
    """vals with unit-cube axis ax read onto the torus: torus index i holds
    unit index |i - 2^m|, the reversed slice 2^m..1, then the slice 0..2^m - 1."""
    parts = vals[_axis_index(ax, slice(2**m, 0, -1))], vals[_axis_index(ax, slice(0, 2**m))]
    return np.concatenate(parts, axis=ax)


def periodize(f: GridFunction) -> GridFunction:
    """Reflection periodization P: f -> f o rho restricted to [-1,1]^d, by
    exact index mirroring of each axis (_mirror)."""
    if f.domain != UNIT:
        raise DomainError("periodize expects a unit-cube grid function")
    vals = f.values
    for ax in range(f.d):
        vals = _mirror(vals, ax, f.m)
    return GridFunction(SYM, f.m, vals)


def hpc_basis_1d(k, x):
    """Half-period cosine c_k(x): 1 where k = 0, sqrt(2) cos(pi k x)
    elsewhere. An array of frequencies broadcasts against the points: k of
    shape (K,) and x of shape (n, 1) give the (n, K) table."""
    x = np.asarray(x, dtype=float)
    return np.where(np.asarray(k) == 0, 1.0, np.sqrt(2.0) * np.cos(np.pi * k * x))


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

    basis: 'hpc' (keys in N_0^d) or 'cw-primal'/'cw-dual' (keys are
    (jbar, kbar) pairs over N_{-1}^d x Z^d). Absent key means
    coefficient zero. Cosine maps and their dense boxes (entry [kbar] holds
    the coefficient of kbar) convert here only: from_box reads a box, and
    top_frequency then dense write one, with a grid check between if need be.
    """

    basis: str
    d: int
    entries: dict

    @classmethod
    def from_box(cls, box: np.ndarray, keep: np.ndarray) -> "CoefficientMap":
        """Cosine map of the entries of box where the mask keep is True,
        keyed in lexicographic order; keys and values are Python numbers."""
        keys = zip(*(ix.tolist() for ix in np.nonzero(keep)))
        return cls(basis="hpc", d=box.ndim, entries=dict(zip(keys, box[keep].tolist())))

    def top_frequency(self) -> int:
        """Largest frequency on any axis of a cosine map (0 when it is empty).
        ConfigError for a negative frequency, and for a map whose dense box,
        of side one more, would hold over _MAX_GRID_POINTS entries."""
        ks = [int(t) for key in self.entries for t in key]
        if min(ks, default=0) < 0:
            raise ConfigError(f"cosine frequencies must be >= 0, got {min(ks)}")
        kmax = max(ks, default=0)
        box = (kmax + 1) ** self.d
        _check_size(box, f"a cosine map of top frequency {kmax}",
                    f"a dense box of {box} entries in d={self.d}")
        return kmax

    def dense(self, kmax: int) -> np.ndarray:
        """The dense box of side kmax + 1 (kmax from top_frequency), in one pass over the keys."""
        keys = np.array(list(self.entries), dtype=np.int64).reshape(-1, self.d)
        out = np.zeros((kmax + 1,) * self.d)
        out[tuple(keys.T)] = np.real(np.array(list(self.entries.values())))
        return out

    def items_sorted(self):
        return sorted(self.entries.items())


# Most points a dense grid may hold: 2^24 doubles are 128 MB.
_MAX_GRID_POINTS = 2**24


def _check_size(count, source: str, what: str):
    """Raise ConfigError when count, the size of what source (the setting
    that chose it) asks for, exceeds _MAX_GRID_POINTS."""
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"{source} asks for {what}, over the limit of {_MAX_GRID_POINTS} = 2^24")


def _check_int(value, least: int, what: str) -> int:
    """ConfigError, naming the argument what, unless value is an int (numpy's
    included) >= least. Returns it as a Python int: sizes formed from that cannot wrap."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")
    return int(value)


def _check_kmax(kmax: int) -> int:
    return _check_int(kmax, 0, "coefficient box kmax")


def _check_grid_size(m: int, d: int, domain: str, source: str):
    """_check_size of the level-m grid on the domain in d dimensions. The
    count is made on Python ints, and levels or dimensions past 24 are
    refused before 2^m is formed, so the check allocates nothing."""
    count = math.inf if m > 24 or d > 24 else (2 ** (m + 1) if domain == SYM else 2**m + 1) ** d
    _check_size(count, source, f"a level-{m} grid in d={d}")


def _check_level(m, d: int, domain: str):
    """ConfigError, before any array is made, unless m is an int >= 0 and
    the level-m grid on the domain in d >= 1 dimensions passes _check_grid_size."""
    _check_int(m, 0, "grid level m")
    if d < 1:
        raise ConfigError(f"a grid needs d >= 1 axes, got d={d}")
    _check_grid_size(m, d, domain, f"grid level m={m}")


def _check_aliasing(m: int, kmax: int):
    # Margin factor 4 guards quadrature of products of basis functions.
    if 2**m < 4 * max(kmax, 1):
        raise AliasingError(
            f"grid level m={m} too low for frequencies up to {kmax}; need 2^m >= {4 * kmax}"
        )


def _alias_free_level(kmax: int, floor: int) -> int:
    """The least level m >= floor that _check_aliasing admits for kmax."""
    return max(floor, (4 * max(kmax, 1) - 1).bit_length())


def hpc_analyze_dense(f: GridFunction, size: int = None) -> np.ndarray:
    """Half-period cosine coefficients of a real f on the box of the first size
    per axis (ConfigError unless an int >= 1), or up to the grid cutoff.

    The closed-grid trapezoidal quadrature of f against c_kbar is a DCT-I,
    so the tensor costs O(M^d log M). Entry [kbar] approximates the
    integral of f times c_kbar; exact to round-off for cosine polynomials
    with per-axis frequency below 2^m. _dct1 runs one axis at a time in
    axis order and keeps the first size outputs, so later axes transform
    only the lines that feed the box (FFT pruning), each as the full
    transform would: the values are pocketfft's DCT-I, sliced.
    """
    if f.domain != UNIT:
        raise DomainError("hpc_analyze_dense expects a unit-cube grid function")
    if np.iscomplexobj(f.values):
        raise ConfigError("hpc_analyze_dense needs real samples, got a complex grid function")
    if size is not None:
        _check_int(size, 1, "coefficient box size")
    size = f.axis_size if size is None else min(size, f.axis_size)
    h = 2.0**-f.m
    coeff = f.values
    for ax in range(f.d):
        coeff = _dct1(coeff, ax, keep=size)
    coeff = coeff * (h / 2.0) ** f.d
    norm = np.ones(size)
    norm[1:] = np.sqrt(2.0)
    return _weigh(coeff, [norm] * f.d)


# Bytes of one batch of _dct1, even extensions and spectra: it stays in L2.
_DCT_BATCH_BYTES = 256 * 1024


def _dct1(x: np.ndarray, axis: int, n: int = None, keep: int = None) -> np.ndarray:
    """Unnormalized DCT-I, y_k = x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1}
    x_j cos(pi j k / (n-1)), of every line of x along axis, each line
    zero-padded to length n >= its length first (n defaults to it); only
    y_0, ..., y_{keep-1} are returned (keep defaults to n).

    With x seen as (lead, axis, trail), the lines with a bit set are
    gathered by index, a batch at a time, into one buffer with their even
    extensions [x, x[n-2:0:-1]], and the real part of its real FFT is
    scattered back: pocketfft's plan and arithmetic for scipy.fft.dct(type=1),
    bit for bit. A batch's extensions and spectra take about
    _DCT_BATCH_BYTES. The padding and its mirror stay zero in the buffer
    from batch to batch. A line of +0.0 only is not transformed: its DCT-I
    is +0.0, which the output holds.
    """
    x = np.asarray(x, dtype=float)
    size = x.shape[axis]
    n = size if n is None else n
    keep = n if keep is None else keep
    x3 = x.reshape(math.prod(x.shape[:axis]), size, math.prod(x.shape[axis + 1 :]))
    out3 = np.zeros((x3.shape[0], keep, x3.shape[2]))
    p, c = np.nonzero(x3.view(np.uint64).any(axis=1))  # the live lines x3[p, :, c]
    ext = 2 * (n - 1)
    top = min(size, n - 1)  # the extension ends with x[top-1:0:-1]; zeros come before it
    batch = max(1, _DCT_BATCH_BYTES // ((ext + 2 * n) * x.itemsize))
    buf = np.zeros((min(batch, p.size), ext))
    spec = np.empty((buf.shape[0], n), dtype=complex)
    for lo in range(0, p.size, batch):
        i, j = p[lo : lo + batch], c[lo : lo + batch]
        b, s = buf[: i.size], spec[: i.size]
        b[:, :size] = x3[i, :, j]
        b[:, ext - top + 1 :] = b[:, top - 1 : 0 : -1]
        np.fft.rfft(b, axis=-1, out=s)
        out3[i, :, j] = s.real[:, :keep]
    return out3.reshape(x.shape[:axis] + (keep,) + x.shape[axis + 1 :])


# Output bytes per block of _synthesize_terms: a block and its buffer fit in L2.
_SYNTH_BLOCK_BYTES = 512 * 1024


def _synthesize_terms(items, row, n: int, d: int) -> np.ndarray:
    """sum of v * (outer product of row(key_1), ..., row(key_d)) over the
    (keys, v) of items, on the (n,)^d tensor grid.

    row(key) is one 1-D row of n values, computed once per key. Terms are
    added one at a time in items order, each product of rows taken left to
    right and then scaled by the real part of v. A row exactly 1.0
    everywhere (c_0) multiplies exactly, so it is kept as None: _sum_terms
    broadcasts along its axis instead, with the same values.
    """
    rows, terms = {}, []
    for keys, v in items:
        for key in keys:
            if key not in rows:
                r = row(key)
                rows[key] = None if np.all(r == 1.0) else r
        terms.append(([rows[key] for key in keys], np.real(v)))
    return _sum_terms(terms, n, d)


def _sum_terms(terms, n: int, d: int) -> np.ndarray:
    """The sum of _synthesize_terms over its terms (rows, v).

    The leading run of terms with no row on axis 0 is equal on every axis-0
    slice: it is summed once, by this routine, on the (d-1)-dim slab that
    starts every slice. The other terms are added in blocks of leading-axis
    rows, each about _SYNTH_BLOCK_BYTES of the output, so a block and its
    scratch buffer stay in cache through the term loop. A term with a row
    on every axis is formed in the buffer, any other broadcast. Each grid
    value gets the same operations in the same order as in a plain sum.
    """
    out = np.zeros((n,) * d)
    run = next((i for i, (r, _) in enumerate(terms) if r[0] is not None), len(terms))
    run = run if d > 1 else 0
    if run:
        out[...] = _sum_terms([(rows[1:], v) for rows, v in terms[:run]], n, d - 1)
    step = max(1, _SYNTH_BLOCK_BYTES // (out.itemsize * n ** (d - 1)))
    for lo in range(0, n, step):
        block = out[lo : lo + step]
        buf = np.empty_like(block)
        for rows, v in terms[run:]:
            lead = None if rows[0] is None else rows[0][lo : lo + step]  # this block's rows
            if any(r is None for r in rows):
                factors = [_along(r, ax, d) for ax, r in enumerate([lead] + rows[1:]) if r is not None]
                block += functools.reduce(np.multiply, factors, 1.0) * v
                continue
            piece = lead
            for factor in rows[1:-1]:
                piece = np.multiply.outer(piece, factor)
            if d > 1:  # the same correctly rounded products as multiply.outer, faster
                piece = np.einsum("...,j->...j", piece, rows[-1], out=buf)
            np.multiply(piece, v, out=buf)
            block += buf
    return out


def hpc_synthesize(coeffs: CoefficientMap, m: int) -> GridFunction:
    """Evaluate the finite expansion sum of coeff * c_kbar on the closed grid.

    _synthesize_terms adds the terms one at a time in key order, from one
    basis row per frequency, on the structure of a cross: c_0 rows are not
    multiplied, and the terms with k_0 = 0 (first in key order) are summed
    once on a (d-1)-dim slab. This per-term sum is kept on purpose:
    scattering the coefficients into a dense tensor and running one DCT-I
    would be faster, but it rounds differently, and `halfcos identities`
    prints residuals at exactly that round-off.
    """
    if coeffs.basis != "hpc":
        raise ConfigError("expected half-period cosine coefficients")
    _check_level(m, coeffs.d, UNIT)
    x = _grid_axis(UNIT, m)
    row = lambda k: hpc_basis_1d(k, x)
    return GridFunction(UNIT, m, _synthesize_terms(coeffs.items_sorted(), row, x.size, coeffs.d))


def hpc_synthesize_dense(coeff: np.ndarray, m: int) -> GridFunction:
    """The sum of coeff[kbar] c_kbar on the closed level-m grid, for a full
    real coefficient tensor of d >= 1 axes, padded or truncated to the grid.
    hpc_analyze_dense gives coeff back only where no axis holds slot 2^m:
    the trapezoid rule gives c_{2^m} the squared norm 2, so an entry comes
    back doubled once per axis at that slot.

    Sum_k z_k cos(pi k j / 2^m) is an unnormalized DCT-I after halving the
    interior coefficients. _dct1 runs it one axis at a time in axis order
    and zero-pads each axis to the grid only in its own transform, so the
    earlier axes never see the lines of padding (FFT pruning); it skips
    every line of +0.0, which transforms to +0.0. Every other line is
    transformed as the DCT-I of the whole padded tensor would transform
    it, so the values are identical to that transform.
    """
    d = coeff.ndim
    if np.iscomplexobj(coeff):
        raise ConfigError("hpc_synthesize_dense needs real coefficients, got a complex tensor")
    _check_level(m, d, UNIT)
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
    """Torus Fourier coefficients in FFT layout, at the kept slots only, of
    a torus grid function or of the periodization of a unit-cube one.

    slots holds, per axis, a boolean mask of the 2^(m+1) slots kept; None
    keeps every slot. Entry [i_1, ..., i_d] is the coefficient at the i_1-th
    kept slot of axis 0, and so on. Axis by axis, in axis order, the FFT
    runs in place on every line and only the kept slots stay (FFT pruning).
    A unit-cube axis is mirrored onto the torus (_mirror) just before its
    own FFT, so until then it holds only its 2^m + 1 distinct lines. The
    scaling and the node sign (-1)^k, k the slot, act on the kept tensor.
    numpy's FFT computes each line on its own, and each line holds the
    values of its line of the torus tensor, so every value has the bits of
    the full transform of that tensor.
    """
    m, unit = g.m, g.domain == UNIT
    slots = _check_slots(slots, g.d, 2 ** (m + 1))
    coeff = np.array(g.values, dtype=complex)
    for ax, keep in enumerate(slots):  # in place, then one copy of the kept slots per axis
        if unit:
            coeff = _mirror(coeff, ax, m)
        np.fft.fft(coeff, axis=ax, out=coeff)
        coeff = coeff[_axis_index(ax, keep)]
    coeff *= 2.0 ** (-m * g.d) * 2.0 ** (-g.d / 2.0)  # h^d 2^(-d/2), h = 2^-m: exact
    # Node offset -1 per axis contributes the alternating sign (-1)^k.
    _negate_odd(coeff, slots)
    return coeff


def signed_fft_freqs(n: int) -> np.ndarray:
    """Signed frequency of each FFT-layout slot, centered on [-n/2, n/2)."""
    return (np.arange(n) + n // 2) % n - n // 2


def fourier_synthesize_dense(coeff: np.ndarray, m: int, slots=None) -> GridFunction:
    """Inverse of fourier_analyze_dense: the torus grid function whose
    coefficients are coeff at the kept slots (slots as there) and zero
    elsewhere. The sign (-1)^k of each slot k is applied to coeff; then,
    in axis order, each axis is scattered to its full length of zeros just
    before its own unnormalized inverse FFT runs in place, so earlier axes
    never transform the lines that would hold only zeros. Every other line
    is transformed on its own as in the full transform, so the values are
    identical to it. One division by h^d 2^(-d/2) n^d, h = 2^-m, scales
    exactly, as n^d is a power of two. The output is full-grid: its lines
    are not bit-symmetric, so none can be mirrored.
    """
    d = coeff.ndim
    _check_level(m, d, SYM)
    n = 2 ** (m + 1)
    slots = _check_slots(slots, d, n)
    kept = tuple(np.count_nonzero(keep) for keep in slots)
    if coeff.shape != kept:
        raise ResolutionMismatchError(
            f"dense Fourier tensor has shape {coeff.shape}, expected {kept} for the kept slots"
        )
    vals = np.array(coeff, dtype=complex)  # coeff is not touched
    _negate_odd(vals, slots)
    for ax, keep in enumerate(slots):
        full = np.zeros(vals.shape[:ax] + (n,) + vals.shape[ax + 1 :], dtype=complex)
        full[_axis_index(ax, keep)] = vals
        vals = full
        np.fft.ifft(vals, axis=ax, norm="forward", out=vals)
    vals /= 2.0 ** (-m * d) * 2.0 ** (-d / 2.0) * vals.size
    return GridFunction(SYM, m, vals)


def coefficient_decay_report(f: GridFunction, k_max: int):
    """Rows (kbar, |coef| * prod max(1,|k_i|)^2) over the box |kbar|_inf <= k_max.

    For restrictions of twice continuously differentiable functions the
    second column is bounded in terms of derivative sup-norms up to order
    2 per axis.
    """
    _check_kmax(k_max)
    _check_aliasing(f.m, k_max)
    box = np.abs(hpc_analyze_dense(f, k_max + 1))
    weight = np.maximum(1, np.arange(k_max + 1)) ** 2
    vals = box * _weigh(np.ones(box.shape), [weight] * f.d)
    return list(zip(np.ndindex(vals.shape), vals.ravel().tolist()))
