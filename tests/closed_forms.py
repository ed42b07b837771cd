"""Closed-form checks of the paper's identities that only the tests run.

Each helper computes, by a route of its own, a quantity that the library
or the paper gives in closed form: declared integrals and coefficients of
the corpus members, the growth of the hyperbolic cross, the telescoping of
the dyadic decomposition of unity, the q-coefficient assembly of the mother
wavelet, and the evenization route of the error transfer.
"""

import math

import numpy as np

from halfcos import approx
from halfcos.approx import error_transfer_check
from halfcos.besov import phi
from halfcos.grids import UNIT, GridFunction, _gauss_legendre, periodize
from halfcos.indexsets import hyperbolic_cross
from halfcos.wavelets import PiecewiseLinear, bspline_value, father


def self_check(tf, panels: int = 64, order: int = 10) -> float:
    """|declared integral - product of per-axis panel-Gauss quadratures| of
    a corpus member, with panels split at its declared breakpoints."""
    xg, wg = _gauss_legendre(order)
    q = 1.0
    for i, fi in enumerate(tf.factors):
        breaks = tf.factor_breaks[i] if i < len(tf.factor_breaks) else ()
        cuts = np.union1d(np.linspace(0.0, 1.0, panels + 1), np.asarray(breaks))
        cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
        a, b = cuts[:-1], cuts[1:]
        half = 0.5 * (b - a)
        nodes = a[:, None] + half[:, None] * (xg[None, :] + 1.0)
        q *= float(np.sum(half[:, None] * wg[None, :] * fi(nodes)))
    return abs(q - tf.integral)


def hpc_coefficient(tf, kbar) -> float:
    """Closed-form cosine coefficient of a corpus member at kbar: the
    product of its per-axis coefficients, multiplied in axis order."""
    val = 1.0
    for c, k in zip(tf.factor_coeff, kbar):
        val *= c(int(k))
    return val


def cross_cardinality_check(N_list, d: int):
    """Rows (N, |cross|, |cross| / (N (1+log N)^(d-1))) for increasing N."""
    rows = []
    for N in N_list:
        card = len(hyperbolic_cross(int(N), d, signed=True))
        ratio = card / (N * (1.0 + math.log(N)) ** (d - 1))
        rows.append((int(N), card, ratio))
    return rows


def partition_sum(J: int, x):
    """sum_{j<=J} phi_j, which telescopes to phi_0(2^{-J} x)."""
    acc = phi(0, x)
    for j in range(1, J + 1):
        acc = acc + phi(j, x)
    return acc


def mother_from_qcoeffs() -> PiecewiseLinear:
    """The mother wavelet assembled as sum_l q_l N_2(2x - l) with
    q_l = (-1)^l / 2 * sum_i C(2,i) N_4(l - i + 1)."""
    q = []
    for l in range(5):
        s = sum(math.comb(2, i) * float(bspline_value(4, l - i + 1)) for i in range(3))
        q.append((-1.0) ** l / 2.0 * s)
    bp = np.arange(7) / 2.0
    hat = father()
    vals = np.zeros(7)
    for l, ql in enumerate(q):
        vals += ql * hat(2.0 * bp - l)
    return PiecewiseLinear(tuple(bp), tuple(vals))


def evenize(f: GridFunction) -> GridFunction:
    """Average of f over all componentwise reflections, exactly on indices:
    x_i -> 1 - x_i on the unit cube, x_i -> -x_i on the torus."""
    if f.domain == UNIT:
        flip = lambda v, ax: np.flip(v, axis=ax)
    else:
        flip = lambda v, ax: np.roll(np.flip(v, axis=ax), 1, axis=ax)
    out = np.zeros_like(np.asarray(f.values))
    for mask in range(2**f.d):
        v = f.values
        for ax in range(f.d):
            if (mask >> ax) & 1:
                v = flip(v, ax)
        out = out + v
    return GridFunction(f.domain, f.m, out / 2**f.d)


def evenization_check(f: GridFunction, N: int):
    """L_2 errors of three routes that must agree for reflection-even data:
    the unit-cube cross projection, the torus cross projection of the
    periodization, and the explicitly evenized torus projection."""
    lhs, rhs = error_transfer_check(f, N, 2.0)
    g = periodize(f)
    third = 2.0 ** (-f.d / 2.0) * (g - evenize(approx._torus_projection(g, N))).lp_norm(2.0)
    return lhs, rhs, third
