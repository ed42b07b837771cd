"""Acceptance gate: ten criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every criterion prints exactly one PASS/FAIL line with its measured numbers
before asserting.
"""

import hashlib
import math
import time

import numpy as np

from halfcos import cli
from halfcos.approx import ls_error_experiment, projection_error_rate
from halfcos.besov import BesovParams, holder_pairing_check, seq_norm
from halfcos.corpus import band_family, get_member, gibbs_demo, h2_family
from halfcos.cubature import convergence_experiment, fibonacci_rule
from halfcos.grids import (
    UNIT,
    CoefficientMap,
    GridFunction,
    coefficient_decay_report,
    hpc_basis_1d,
)
from halfcos.indexsets import hyperbolic_cross
from halfcos.suite import identity_suite, norm_comparison, ratio_table
from halfcos.wavelets import (
    biorthogonality_residual_1d,
    cw_analyze,
    dual_coefficients,
    dual_father_closed_form,
    mother,
    psi_eval,
    psi_piecewise,
)

INF = float("inf")


def _verdict(idx: int, ok: bool, detail: str):
    print(f"\ncriterion {idx:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {idx}: {detail}"


def test_criterion_1_exact_identities():
    t0 = time.time()
    worst = 0.0
    for d, seed in ((1, 11), (2, 22), (3, 33)):
        res = identity_suite(d, seed, n_funcs=50)
        worst = max(worst, max(res.values()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    _verdict(1, ok, f"six identities on 150 random polynomials: "
                    f"max rel residual {worst:.3e} (<=1e-10), {elapsed:.1f}s (<=60s)")


def test_criterion_2_orthonormality():
    worst = 0.0
    cards = []
    for d in (1, 2, 3):
        K = hyperbolic_cross(16, d, signed=False).as_array()
        cards.append(len(K))
        m = 5
        x = np.arange(2**m + 1) / 2.0**m
        w1 = np.full(x.size, 2.0**-m)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        cols = []
        for kbar in K:
            t = hpc_basis_1d(int(kbar[0]), x)
            for k in kbar[1:]:
                t = np.multiply.outer(t, hpc_basis_1d(int(k), x))
            cols.append(t.ravel())
        V = np.stack(cols, axis=1)
        wfull = w1.copy()
        for _ in range(d - 1):
            wfull = np.multiply.outer(wfull, w1).ravel()
        G = V.T @ (wfull[:, None] * V)
        worst = max(worst, float(np.max(np.abs(G - np.eye(len(K))))))
    ok = worst <= 1e-10
    _verdict(2, ok, f"Gram over the cross of order 16, cards {cards}: "
                    f"max deviation from identity {worst:.3e} (<=1e-10)")


def test_criterion_3_biorthogonality():
    res_1d = biorthogonality_residual_1d(range(-1, 3), range(-4, 5))

    jbar, kbar = (1, 0), (1, 0)
    got = cw_analyze(
        f=lambda x, y: psi_eval(jbar[0], kbar[0], x) * psi_eval(jbar[1], kbar[1], y),
        J=2,
        box=((-2.0, 3.0), (-1.0, 4.0)),
        kind="dual",
        f_breaks=(psi_piecewise(jbar[0], kbar[0]).breakpoints,
                  psi_piecewise(jbar[1], kbar[1]).breakpoints),
    )
    res_2d = abs(got.entries.get((jbar, kbar), 0.0) - 1.0)
    for key, v in got.entries.items():
        if key != (jbar, kbar):
            res_2d = max(res_2d, abs(v))

    m0 = abs(mother().moment(0))
    m1 = abs(mother().moment(1))
    ok = res_1d <= 1e-7 and res_2d <= 1e-7 and m0 <= 1e-14 and m1 <= 1e-14
    _verdict(3, ok, f"biorthogonality residual {res_1d:.3e} (1d) / {res_2d:.3e} (2d) "
                    f"(<=1e-7); vanishing moments {m0:.1e}, {m1:.1e} (<=1e-14)")


def test_criterion_4_dual_closed_form():
    seq = dual_coefficients(-1, n_max=40)
    worst = max(
        abs(seq.a(n) - dual_father_closed_form(n)) for n in range(-20, 21)
    )
    ok = worst <= 1e-9
    _verdict(4, ok, f"dual father coefficients vs sqrt(3)(sqrt(3)-2)^|n|, "
                    f"|n|<=20: max deviation {worst:.3e} (<=1e-9)")


def test_criterion_5_coefficient_decay():
    ratios = {}
    for name in ("exp1", "smoothper1", "bspline4_1", "exp2"):
        tf = get_member(name)
        sups = []
        for kmax, lvl in ((32, 8), (64, 9)):
            g = GridFunction.from_callable(tf, tf.d, lvl, UNIT)
            sups.append(max(w for _, w in coefficient_decay_report(g, kmax)))
        ratios[name] = sups[1] / sups[0]
    stable = all(0.5 < r < 2.0 and math.isfinite(r) for r in ratios.values())

    rows = gibbs_demo(get_member("gibbs"), 64)
    col1 = [r[1] for r in rows]
    col2 = [r[2] for r in rows]
    jump_persists = min(col1) >= 0.1 * max(col1)
    smooth_bounded = max(col2) < 1.0
    ok = stable and jump_persists and smooth_bounded
    worst_ratio = max(ratios.values())
    _verdict(5, ok, f"weighted-coefficient sup ratio on range doubling "
                    f"<= {worst_ratio:.4f} (<2); gibbs col1 min/max "
                    f"{min(col1) / max(col1):.3f} (>=0.1), col2 max "
                    f"{max(col2):.3f} (bounded)")


def test_criterion_6_cubature_rates():
    t0 = time.time()
    slopes = {}
    for tf in h2_family():
        tent = convergence_experiment(
            fibonacci_rule, tf, tf.integral, range(9, 20), transform="tent"
        )
        plain = convergence_experiment(
            fibonacci_rule, tf, tf.integral, range(9, 20), transform="plain"
        )
        slopes[tf.name] = (tent.slope, plain.slope)
    elapsed = time.time() - t0
    ok = elapsed <= 300.0 and all(
        t <= -1.8 and p >= -1.2 for t, p in slopes.values()
    )
    text = ", ".join(f"{k}: tent {t:.2f}/plain {p:.2f}" for k, (t, p) in slopes.items())
    _verdict(6, ok, f"Fibonacci b_9..b_19 slopes (tent<=-1.8, plain>=-1.2): "
                    f"{text}; {elapsed:.1f}s (<=300s)")


def test_criterion_7_approximation_rates():
    n_list = [2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128]
    s1 = projection_error_rate(get_member("kink1"), n_list, kmax=4096).slope
    s2 = projection_error_rate(
        get_member("kink2"), n_list, kmax=512, log_exponent=1.5, skip_smallest=2
    ).slope
    r1 = ls_error_experiment(get_member("kink1"), N=16, seed=101, grid_level=10)
    r2 = ls_error_experiment(get_member("kink2"), N=8, seed=101, grid_level=8)
    q1 = r1["ls_error"] / r1["projection_error"]
    q2 = r2["ls_error"] / r2["projection_error"]
    ok = (
        abs(s1 + 1.5) <= 0.2
        and abs(s2 + 1.5) <= 0.25
        and q1 <= 3.0
        and q2 <= 3.0
    )
    _verdict(7, ok, f"kink slopes {s1:.3f} (d=1, -1.5+-0.2) / {s2:.3f} "
                    f"(d=2 log-corrected, -1.5+-0.25); least-squares vs "
                    f"projection {q1:.3f}, {q2:.3f} (<=3)")


def test_criterion_8_norm_equivalence_bands():
    params = BesovParams(1.5, 2.0, 2.0)
    rows = ratio_table(params, scales=(0, 1, 2), J=8, strict=False)
    cw = [row["cw_ratio"] for row in rows]
    diff = [row["diff_ratio"] for row in rows]
    cw_band = max(cw) / min(cw)
    diff_band = max(diff) / min(diff)

    outside = BesovParams(2.5, 2.0, 2.0)
    escapes = []
    for s in (0, 1, 2):
        member = next(tf for tf in band_family(s) if tf.name.startswith("hat4_1@"))
        reps = norm_comparison(
            member, outside, compare=("cw", "hpc"), J=8, strict=False
        )
        escapes.append(min(cw) / (reps["cw"].value / reps["hpc"].value))
    ok = cw_band <= 10.0 and diff_band <= 10.0 and all(e >= 10.0 for e in escapes)
    _verdict(8, ok, f"60-row bands at (1.5,2,2): cw/hpc width {cw_band:.2f}, "
                    f"diff/hpc width {diff_band:.2f} (<=10); hat4_1 at r=2.5 "
                    f"escapes by {min(escapes):.0f}x (>=10x across scales)")


def test_criterion_9_holder_pairing():
    rng = np.random.default_rng(2024)
    grid = [1.0, 1.5, 2.0, INF]
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 3))
        keys = set()
        for _ in range(10):
            j = tuple(int(t) for t in rng.integers(-1, 5, size=d))
            k = tuple(int(t) for t in rng.integers(0, 6, size=d))
            keys.add((j, k))
        lam = CoefficientMap("cw-primal", d,
                             {key: rng.standard_normal() for key in keys})
        mu_keys = list(keys)[: max(1, len(keys) // 2)]
        mu = CoefficientMap("cw-primal", d,
                            {key: rng.standard_normal() for key in mu_keys})
        params = BesovParams(
            float(rng.uniform(-1.0, 2.0)),
            grid[rng.integers(4)],
            grid[rng.integers(4)],
        )
        lhs, rhs = holder_pairing_check(lam, mu, params)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    _verdict(9, ok, f"1000 random pairs over (p,q) in {{1,1.5,2,inf}}^2: "
                    f"{violations} violations of lhs <= rhs")


def test_criterion_10_determinism(tmp_path):
    digests = []
    for tag in ("a", "b"):
        f1 = tmp_path / f"ident_{tag}.csv"
        f2 = tmp_path / f"recov_{tag}.csv"
        assert cli.main(["identities", "--d", "2", "--seed", "7",
                         "--funcs", "5", "--out", str(f1)]) == 0
        assert cli.main(["recover", "--fn", "bspline2_2", "--N", "8",
                         "--seed", "11", "--out", str(f2)]) == 0
        digests.append(
            (hashlib.sha256(f1.read_bytes()).hexdigest(),
             hashlib.sha256(f2.read_bytes()).hexdigest())
        )
    ok = digests[0] == digests[1]
    _verdict(10, ok, f"sha256 of repeated seeded runs: identities "
                     f"{digests[0][0][:12]}.., recover {digests[0][1][:12]}.. "
                     f"(equal: {ok})")
