"""Equal-weight cubature rules on [0,1)^d: Fibonacci and general rank-1
lattices, base-2 digital nets with optional order-2 digit interlacing, tent
transformation of node sets, randomized shifts, and rate-fit experiments.

The tent-transformed rule applied to f is algebraically identical to the
plain rule applied to the tent-periodized f; tests exploit that identity,
and the rate experiments quantify the one-order gain it buys on
non-periodic integrands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import _check_int, _check_size, tent

__all__ = [
    "CubatureRule",
    "RateFit",
    "fibonacci_number",
    "fibonacci_rule",
    "rank1_lattice",
    "digital_net",
    "tent_transform_rule",
    "integrate",
    "random_shift",
    "convergence_experiment",
    "fit_rate",
]


@dataclass(frozen=True)
class CubatureRule:
    nodes: np.ndarray  # (n, d), entries in [0, 1); every weight is 1/n

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)


def fibonacci_number(n: int) -> int:
    """b_1 = b_2 = 1, b_n = b_{n-1} + b_{n-2}."""
    _check_int(n, 1, "Fibonacci index n")
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def rank1_lattice(z, n: int) -> CubatureRule:
    """Nodes {frac(j z / n) : j = 0..n-1}, weights 1/n."""
    n = _check_int(n, 1, "rank-1 lattice size n")
    if np.ndim(z) != 1 or len(z) == 0:
        raise ConfigError(f"a rank-1 lattice needs a nonempty z, got z={z}")
    _check_size(n * len(z), f"rank-1 lattice n={n}", f"{n} x {len(z)} node coordinates")
    z = np.asarray([int(t) % n for t in z], dtype=np.int64)  # so that j * z fits in int64
    j = np.arange(n, dtype=np.int64)
    return CubatureRule(((j[:, None] * z[None, :]) % n) / float(n))


def _check_fibonacci_index(index: int) -> None:
    """Raise ConfigError unless fibonacci_rule(index) is admitted."""
    _check_int(index, 2, "Fibonacci rule index")
    # 2 b_index node coordinates; past index 40 (b_40 > 10^8) b_index is not formed
    count = 2 * fibonacci_number(index) if index <= 40 else math.inf
    _check_size(count, f"Fibonacci index {index}", f"a rule of 2 x b_{index} node coordinates")


def fibonacci_rule(index: int) -> CubatureRule:
    """The d=2 lattice with b_index points and generator (1, b_{index-1})."""
    _check_fibonacci_index(index)
    return rank1_lattice((1, fibonacci_number(index - 1)), fibonacci_number(index))


# Direction-number table for the base-2 generator (degree, coefficient bits,
# initial odd values), standard published values for dimensions 2..13;
# dimension 1 is the radical-inverse column.
_NET_TABLE = [
    (1, 0, [1]),
    (2, 1, [1, 3]),
    (3, 1, [1, 3, 1]),
    (3, 2, [1, 1, 1]),
    (4, 1, [1, 1, 3, 3]),
    (4, 4, [1, 3, 5, 13]),
    (5, 2, [1, 1, 5, 5, 17]),
    (5, 4, [1, 1, 5, 5, 5]),
    (5, 7, [1, 1, 7, 11, 19]),
    (5, 11, [1, 1, 5, 1, 1]),
    (5, 13, [1, 1, 1, 3, 11]),
    (5, 14, [1, 3, 5, 5, 31]),
]

_NBITS = 32


def _direction_integers(dim: int) -> np.ndarray:
    """Direction integers v_k (as k-shifted _NBITS-bit values) for one axis."""
    if dim == 0:
        return np.array([1 << (_NBITS - 1 - k) for k in range(_NBITS)], dtype=np.uint64)
    s, a, m_init = _NET_TABLE[dim - 1]
    m = list(m_init)
    for k in range(s, _NBITS):
        new = m[k - s] ^ (m[k - s] << s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                new ^= m[k - i] << i
        m.append(new)
    return np.array(
        [np.uint64(m[k]) << np.uint64(_NBITS - 1 - k) for k in range(_NBITS)],
        dtype=np.uint64,
    )


@functools.lru_cache(maxsize=None)
def _generating_integers(d: int, alpha: int) -> np.ndarray:
    """Generating integers v_k of a d-dimensional net, shape (_NBITS, d):
    the direction integers for alpha=1, and for alpha=2 the digit-interlaced
    pairs of those of a 2d-dimensional net. Built once per (d, alpha) and
    returned read-only."""
    dims = alpha * d
    if dims > len(_NET_TABLE) + 1:
        raise ConfigError(
            f"direction-number table covers 1 to {len(_NET_TABLE) + 1} dimensions, got {dims}"
        )
    v = np.zeros((_NBITS, dims), dtype=np.uint64)
    for axis in range(dims):
        v[:, axis] = _direction_integers(axis)
    v = v if alpha == 1 else _interlace_pairs(v)
    v.flags.writeable = False
    return v


def _net_points_int(m: int, v: np.ndarray) -> np.ndarray:
    """First 2^m points of the digital sequence with generating integers v,
    as integers in direct binary (index-XOR) order; shape (2^m, d).

    Point i is the XOR of v_k over the set bits k of i. The table is built
    by doubling: row 0 is zero, and rows [2^k, 2^(k+1)) are rows [0, 2^k)
    XOR v_k, so level m costs 2^m row XORs in all and every level is a
    prefix of the next. Interlacing moves digits without mixing them, so it
    commutes with XOR: the points of interlaced generating integers are the
    interlaced points of the 2d-dimensional net."""
    out = np.zeros((2**m, v.shape[1]), dtype=np.uint64)
    for k in range(m):
        np.bitwise_xor(out[: 2**k], v[k], out=out[2**k : 2 ** (k + 1)])
    return out


def _interlace_pairs(ints: np.ndarray) -> np.ndarray:
    """Digit-interlace consecutive columns: two 32-bit inputs produce one
    64-bit output whose digits alternate between them, the first input's
    digit leading. Bit b of the first input goes to bit 2b+1 of the
    output, and bit b of the second to bit 2b."""
    bits = np.arange(_NBITS, dtype=np.uint64)
    digits = (ints[..., None] >> bits) & np.uint64(1)
    spread = np.bitwise_or.reduce(digits << (bits + bits), axis=-1)
    return (spread[:, 0::2] << np.uint64(1)) | spread[:, 1::2]


def _check_net_level(m: int) -> None:
    """Raise ConfigError unless digital_net admits m."""
    if _check_int(m, 0, "net level m") > 20:
        raise ConfigError("m must lie in 0..20")


def digital_net(m: int, d: int, alpha: int = 1) -> CubatureRule:
    """Base-2 net with 2^m points; alpha=2 interlaces a 2d-dimensional net
    into d dimensions, the canonical order-2 construction."""
    _check_net_level(m)
    _check_int(d, 1, "dimension d")
    if _check_int(alpha, 1, "interlacing factor alpha") > 2:
        raise ConfigError("interlacing factor must be 1 or 2")
    nodes = _net_points_int(m, _generating_integers(d, alpha)).astype(np.float64)
    nodes *= 2.0 ** (-alpha * _NBITS)
    return CubatureRule(nodes)


def tent_transform_rule(rule: CubatureRule) -> CubatureRule:
    """Map every node componentwise through t -> 1 - |2t - 1|."""
    return CubatureRule(tent(rule.nodes))


def random_shift(rule: CubatureRule, rng) -> CubatureRule:
    """The rule with its nodes shifted by rng.random(d) modulo 1.

    The nodes are shifted one column at a time, and y - floor(y) takes the
    place of np.mod(y, 1.0): for finite y the two are equal bit for bit
    (fmod is exact, and both round the same exact value once). One column
    buffer holds the floors, so the call allocates little beyond the new
    node array."""
    shift = rng.random(rule.d)
    nodes = np.empty(rule.nodes.shape)
    floors = np.empty(rule.n)
    for j, s in enumerate(shift):
        col = nodes[:, j]
        np.add(rule.nodes[:, j], s, out=col)
        col -= np.floor(col, out=floors)
    return CubatureRule(nodes)


def integrate(rule: CubatureRule, f) -> float:
    """Sum of w_j f(x_j); f must accept d coordinate arrays."""
    cols = [rule.nodes[:, i] for i in range(rule.d)]
    vals = np.asarray(f(*cols))
    total = np.sum(rule.weights * vals)
    return complex(total).real if np.iscomplexobj(vals) else float(total)


@dataclass
class RateFit:
    ns: list
    errors: list
    slope: float
    intercept: float
    residual: float

    def csv_rows(self) -> str:
        lines = ["n,error,log2n,log2err"]
        for n, e in zip(self.ns, self.errors):
            l2e = math.log2(e) if e > 0 else float("-inf")
            lines.append(f"{n},{e:.12e},{math.log2(n):.10f},{l2e:.10f}")
        return "\n".join(lines) + "\n"


def fit_rate(ns, errors, log_exponent: float, skip_smallest: int) -> RateFit:
    """Least-squares line through (log2 n, log2 err) after dropping the
    skip_smallest first points and every zero error; a positive
    log_exponent divides err by (log2 n)^exponent first. ConfigError unless
    log_exponent is finite, skip_smallest an int >= 0 and two points remain."""
    if not math.isfinite(log_exponent):
        raise ConfigError(f"log_exponent must be finite, got {log_exponent}")
    _check_int(skip_smallest, 0, "skip")
    xs, ys = [], []
    for n, e in zip(ns[skip_smallest:], errors[skip_smallest:]):
        if e <= 0.0:
            continue
        try:  # (log2 1)^exponent is 0; the power or the quotient may leave the float range
            ys.append(math.log2(e / (math.log2(n) ** log_exponent if log_exponent else 1.0)))
        except (ArithmeticError, ValueError):
            raise ConfigError(f"log_exponent={log_exponent} cannot correct the error at n={n}")
        xs.append(math.log2(n))
    if len(xs) < 2:
        raise ConfigError(
            f"not enough positive errors to fit a rate: {len(xs)} of "
            f"{len(ns)} points remain after skipping {skip_smallest}, need 2"
        )
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(
        np.sqrt(np.mean((np.polyval([slope, intercept], xs) - np.asarray(ys)) ** 2))
    )
    return RateFit(ns=ns, errors=errors, slope=float(slope), intercept=float(intercept),
                   residual=resid)


def convergence_experiment(
    rule_for_n,
    f,
    exact: float,
    n_indices,
    transform: str = "plain",
    shifts: int = 0,
    seed: int = 0,
    log_exponent: float = 0.0,
    skip_smallest: int = 2,
) -> RateFit:
    """Error table and least-squares slope of log2(err) against log2(n).

    rule_for_n maps an index to a CubatureRule; transform is 'plain' or
    'tent', which wraps each rule; shifts > 0 averages the absolute errors of
    that many random shifts of each rule, drawn from a fresh default_rng(seed)
    per rule (shift first, then tent). A positive log_exponent divides errors
    by (log2 n)^exponent before fitting. The smallest points are excluded
    from the fit to suppress preasymptotics.
    """
    if transform not in ("plain", "tent"):
        raise ConfigError(f"transform must be 'plain' or 'tent', got {transform!r}")
    _check_int(shifts, 0, "shifts")
    if shifts > 0:
        _check_int(seed, 0, "seed")
    ns, errors = [], []
    for idx in n_indices:
        rule = rule_for_n(idx)
        draws = [rule]
        if shifts > 0:
            rng = np.random.default_rng(seed)
            draws = (random_shift(rule, rng) for _ in range(shifts))
        errs = []
        for used in draws:
            if transform == "tent":
                used = tent_transform_rule(used)
            errs.append(abs(integrate(used, f) - exact))
        ns.append(rule.n)
        errors.append(float(np.mean(errs)))
    return fit_rate(ns, errors, log_exponent, skip_smallest)
