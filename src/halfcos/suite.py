"""Orchestration of the exact-identity checks on randomized inputs.

Each entry pits two independently computed quantities against each other:
reflection of cosine basis functions, discrete scalar products, coefficient
relations between the cosine and exponential systems, the approximation and
cubature error transfers under tent composition, and the frequency-block
periodization identity. All residuals are relative and should sit at
round-off level; the CLI and the acceptance gate both consume this table.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import (
    BesovParams,
    _level_cap,
    _tensor_report,
    difference_seminorm,
    hpc_besov_norm,
    periodization_block_identity,
    seq_norm_report,
)
from .corpus import band_family
from .errors import ConfigError
from .cubature import fibonacci_rule, digital_net, integrate, tent_transform_rule
from .approx import _design_matrix, error_transfer_check
from .grids import (
    SYM,
    UNIT,
    CoefficientMap,
    GridFunction,
    _check_grid_size,
    _check_int,
    _grid_axis,
    _per_factor,
    cos_basis,
    exp_basis,
    hpc_synthesize,
    periodize,
    tent,
)
from .indexsets import IndexSet
from .wavelets import cw_analyze

__all__ = [
    "random_cosine_polynomial",
    "identity_suite",
    "norm_comparison",
    "ratio_table",
    "route_ratios",
]


def random_cosine_polynomial(d: int, rng) -> CoefficientMap:
    """A constant term plus ten terms at random frequencies in {0..8}^d,
    all with standard normal coefficients (a repeated frequency keeps the
    last one)."""
    entries = {(0,) * d: rng.normal()}
    for _ in range(10):
        k = tuple(int(t) for t in rng.integers(0, 9, size=d))
        entries[k] = rng.normal()
    return CoefficientMap(basis="hpc", d=d, entries=entries)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def identity_suite(d: int, seed: int, n_funcs: int = 10, m: int = 5) -> dict:
    """Max relative residual per identity over n_funcs random inputs."""
    _check_int(d, 1, "dimension d")
    _check_int(n_funcs, 1, "n_funcs")
    _check_grid_size(m, d, SYM, f"--d {d}")  # the periodized grid, the largest
    _check_int(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    res = {
        "cosine-reflection": 0.0,
        "scalar-product": 0.0,
        "coefficient-relation": 0.0,
        "approx-transfer": 0.0,
        "cubature-transfer": 0.0,
        "block-identity": 0.0,
    }
    mesh = np.ix_(*[_grid_axis(SYM, m)] * d)  # open mesh: the bases broadcast 1-D factors
    rule = fibonacci_rule(7) if d == 2 else digital_net(6, d)

    for _ in range(n_funcs):
        kbar = tuple(int(t) for t in rng.integers(0, 9, size=d))
        gk = hpc_synthesize(CoefficientMap(basis="hpc", d=d, entries={kbar: 1.0}), m)
        lhs = periodize(gk).values
        nnz = sum(1 for t in kbar if t != 0)
        rhs = 2.0 ** ((nnz + d) / 2.0) * cos_basis(kbar, *mesh)
        res["cosine-reflection"] = max(
            res["cosine-reflection"],
            float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(rhs))),
        )

        cf = random_cosine_polynomial(d, rng)
        cg = random_cosine_polynomial(d, rng)
        # Residuals of vanishing quantities are measured against the
        # function scale, not against themselves.
        fscale = math.sqrt(sum(abs(v) ** 2 for v in cf.entries.values()))
        f = hpc_synthesize(cf, m)
        g = hpc_synthesize(cg, m)
        pf = periodize(f)
        lhs = f.inner(g)
        rhs = 2.0**-d * pf.inner(periodize(g))
        res["scalar-product"] = max(res["scalar-product"], _rel(lhs, rhs))

        signed = tuple(int(s) * int(t) for s, t in zip(rng.choice([-1, 1], d), kbar))
        ip_cos = f.inner(gk)
        eb = GridFunction(SYM, m, exp_basis(signed, *mesh))
        ip_exp = pf.inner(eb)
        res["coefficient-relation"] = max(
            res["coefficient-relation"],
            abs(ip_cos - 2.0 ** ((nnz - d) / 2.0) * ip_exp.real)
            / max(abs(ip_cos), fscale),
        )

        lhs, rhs = error_transfer_check(f, 4, 2.0)
        res["approx-transfer"] = max(res["approx-transfer"], _rel(lhs, rhs))

        # summed by numpy, not BLAS, so that both sides see bit-equal integrands
        K = IndexSet(d, tuple(cf.entries))
        coef = np.array([cf.entries[k] for k in K])
        feval = lambda *pts: np.sum(_design_matrix(np.stack(pts, axis=1), K) * coef, axis=1)
        exact = float(np.real(cf.entries.get((0,) * d, 0.0)))
        e_lhs = abs(integrate(tent_transform_rule(rule), feval) - exact)
        e_rhs = abs(integrate(rule, lambda *pts: feval(*map(tent, pts))) - exact)
        res["cubature-transfer"] = max(
            res["cubature-transfer"], abs(e_lhs - e_rhs) / max(e_lhs, 1e-30)
        )

        jbar = tuple(int(t) for t in rng.integers(0, 4, size=d))
        bl, br = periodization_block_identity(cf, jbar, 2.0, grid_level=m)
        res["block-identity"] = max(
            res["block-identity"], abs(bl - br) / max(bl, br, fscale**2)
        )
    return res


def norm_comparison(
    member,
    params: BesovParams,
    compare=("cw", "diff", "hpc"),
    J: int = 6,
    m_order: int = 3,
    strict: bool = True,
) -> dict:
    """The three norm routes for one corpus member, truncated consistently:
    cosine blocks up to level J (coefficient box kmax = 2^{J+1} per axis),
    wavelet levels up to J, difference dyadics up to J. Values are the
    truncated quasi-norms; each report carries its own geometric tail
    estimate. The blocks, the trapezoid L_p quadrature and the wavelet
    coefficients of f_1 x ... x f_d all factor, so each route takes one
    table of bare 1-D level terms per distinct factor (_per_factor) and
    multiplies them (_tensor_report): hpc_besov_norm at r = 0,
    seq_norm_report at r = 1/p, or the difference means. The hpc product is
    exact when every factor's truncation is, the cw one when no factor
    reaches level J."""
    for kind in compare:
        if kind not in ("cw", "diff", "hpc"):
            raise ConfigError(f"unknown norm kind {kind!r} in --compare")
    _check_int(J, 0, "truncation level J")
    # Input bounds, kept so that no exit code moves: the routes below work on
    # 1-D tables in any d and build no level-(J + 3) grid in d dimensions.
    if member.d > 2 and "cw" in compare:
        raise ConfigError("wavelet route implemented for d <= 2")
    _check_grid_size(J + 3, member.d, UNIT, f"--J {J}")
    kmax = 2 ** (J + 1)
    out = {}
    if "hpc" in compare:
        bare = BesovParams(0.0, params.p, params.q)  # terms without the 2^{r j} weight

        def hpc_table(i):
            f1 = member.factor_member(i)
            coeffs = f1.hpc_map(kmax) if f1.factor_coeff is not None else f1.hpc_map_numeric(kmax)
            terms = hpc_besov_norm(coeffs, bare, J_max=J, strict=False).level_terms
            return terms, J >= _level_cap(coeffs.top_frequency())

        tables, exact = zip(*_per_factor(member.factors, hpc_table))
        out["hpc"] = _tensor_report("hpc", params, J, tables, params.r, all(exact), strict)
    if "cw" in compare:
        bare = BesovParams(params.inv_p, params.p, params.q)  # weight exponent r - 1/p = 0

        def cw_table(i):
            breaks = member.factor_breaks[i] if member.factor_breaks else None
            lam = cw_analyze(member.factors[i], J=J, kind="dual", f_breaks=breaks, prune=1e-13)
            return seq_norm_report(lam, bare, strict=False, J=J)

        reports = _per_factor(member.factors, cw_table)
        top = max(rep.J_max for rep in reports)
        out["cw"] = _tensor_report("cw-seq", params, top, [rep.level_terms for rep in reports],
                                   params.r - params.inv_p, top < J, strict)
    if "diff" in compare:
        out["diff"] = difference_seminorm(
            params=params,
            m=m_order,
            J_max=J,
            grid_level=min(J + 4, 11),
            tensor_factors=member.factors,
        )
    return out


def route_ratios(reports: dict) -> dict:
    """cw/hpc and diff/hpc, for the routes in reports, when the hpc value
    is present and positive; keys 'cw' and 'diff' in that order."""
    if not ("hpc" in reports and reports["hpc"].value > 0.0):
        return {}
    return {kind: reports[kind].value / reports["hpc"].value
            for kind in ("cw", "diff") if kind in reports}


def ratio_table(
    params: BesovParams,
    scales=(0, 1, 2),
    J: int = 6,
    strict: bool = False,
) -> list:
    """Rows (scale, name, hpc, cw, diff, cw/hpc, diff/hpc) over the
    twenty-member family at each dyadic scale; the ratios are route_ratios."""
    rows = []
    for s in scales:
        for member in band_family(s):
            reports = norm_comparison(member, params, J=J, strict=strict)
            row = {"scale": s, "name": member.name}
            for kind, rep in reports.items():
                row[kind] = rep.value
            for kind, ratio in route_ratios(reports).items():
                row[f"{kind}_ratio"] = ratio
            rows.append(row)
    return rows
