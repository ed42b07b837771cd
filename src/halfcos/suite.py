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
    DecompositionOfUnity,
    NormReport,
    SeqNormSpec,
    difference_seminorm,
    hpc_besov_norm,
    periodization_block_identity,
    seq_norm_report,
)
from .corpus import _check_kmax, band_family, get_member
from .errors import ConfigError
from .cubature import fibonacci_rule, digital_net, integrate, tent_transform_rule
from .approx import error_transfer_check
from .grids import (
    SYM,
    CoefficientMap,
    GridFunction,
    _grid_axis,
    cos_basis,
    exp_basis,
    hpc_synthesize,
    periodize,
    tent,
)
from .wavelets import cw_analyze

__all__ = [
    "random_cosine_polynomial",
    "identity_suite",
    "norm_comparison",
    "ratio_table",
]


def random_cosine_polynomial(
    d: int, rng, kmax: int = 8, terms: int = 10
) -> CoefficientMap:
    entries = {(0,) * d: rng.normal()}
    for _ in range(terms):
        k = tuple(int(t) for t in rng.integers(0, kmax + 1, size=d))
        entries[k] = rng.normal()
    return CoefficientMap(basis="hpc", d=d, entries=entries)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def identity_suite(d: int, seed: int, n_funcs: int = 10, m: int = 5) -> dict:
    """Max relative residual per identity over n_funcs random inputs."""
    if d < 1:
        raise ConfigError(f"dimension d must be >= 1, got {d}")
    if n_funcs < 1:
        raise ConfigError(f"n_funcs must be >= 1, got {n_funcs}: no function would be checked")
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
    decomp = DecompositionOfUnity()
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

        def feval(*pts, _c=cf):
            out = None
            for k, v in _c.items_sorted():
                term = np.real(v) * np.ones_like(pts[0])
                for ax, ki in enumerate(k):
                    if ki:
                        term = term * math.sqrt(2.0) * np.cos(np.pi * ki * pts[ax])
                out = term if out is None else out + term
            return out

        exact = float(np.real(cf.entries.get((0,) * d, 0.0)))
        e_lhs = abs(integrate(tent_transform_rule(rule), feval) - exact)
        e_rhs = abs(
            integrate(rule, lambda *pts: feval(*[tent(t) for t in pts])) - exact
        )
        res["cubature-transfer"] = max(
            res["cubature-transfer"], abs(e_lhs - e_rhs) / max(e_lhs, 1e-30)
        )

        jbar = tuple(int(t) for t in rng.integers(0, 4, size=d))
        bl, br = periodization_block_identity(cf, jbar, 2.0, grid_level=m, decomp=decomp)
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
    kmax=None,
    strict: bool = True,
    prune: float = 1e-13,
) -> dict:
    """The three norm routes for one corpus member, truncated consistently:
    cosine blocks up to level J (coefficient box kmax = 2^{J+1}), wavelet
    levels up to J, difference dyadics up to J. Values are the truncated
    quasi-norms; each report carries its own geometric tail estimate."""
    if J < 0:
        raise ConfigError(f"truncation level J must be >= 0, got {J}")
    if member.d > 2 and "cw" in compare:
        raise ConfigError("wavelet route implemented for d <= 2")
    kmax = 2 ** (J + 1) if kmax is None else kmax
    _check_kmax(kmax)
    out = {}
    if "hpc" in compare:
        if member.factor_coeff is not None:
            coeffs = member.hpc_map(kmax)
        else:
            coeffs = member.hpc_map_numeric(kmax)
        out["hpc"] = hpc_besov_norm(coeffs, params, J_max=J, strict=strict)
    if "cw" in compare:
        lam = cw_analyze(
            J=J,
            box=((0.0, 1.0),) * member.d,
            kind="dual",
            tensor_factors=member.factors,
            f_breaks=member.factor_breaks or None,
            prune=prune,
        )
        out["cw"] = seq_norm_report(lam, SeqNormSpec(params), strict=strict, J=J)
    if "diff" in compare:
        out["diff"] = difference_seminorm(
            params=params,
            m=m_order,
            J_max=J,
            grid_level=min(J + 4, 11),
            d=member.d,
            tensor_factors=member.factors,
        )
    return out


def ratio_table(
    params: BesovParams,
    scales=(0, 1, 2),
    J: int = 6,
    m_order: int = 3,
    compare=("cw", "diff", "hpc"),
    strict: bool = False,
) -> list:
    """Rows (scale, name, hpc, cw, diff, cw/hpc, diff/hpc) over the
    twenty-member family at each dyadic scale."""
    rows = []
    for s in scales:
        for member in band_family(s):
            reports = norm_comparison(
                member, params, compare=compare, J=J, m_order=m_order, strict=strict
            )
            row = {"scale": s, "name": member.name}
            for kind, rep in reports.items():
                row[kind] = rep.value
            if "hpc" in reports:
                for kind in ("cw", "diff"):
                    if kind in reports:
                        row[f"{kind}_ratio"] = reports[kind].value / reports["hpc"].value
            rows.append(row)
    return rows
