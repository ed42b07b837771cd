"""Item pools, runners and reference checks of the four benchmark workloads.

Every workload is a finite pool of items grouped into kinds. A kind is a
timing stratum: its items cost about the same, so the median time per kind
is steady while the inputs differ from pass to pass. Each pass of a run
holds one item of every kind, drawn and then shuffled by a generator seeded
with the workload name and the benchmark seed.

Why each workload exists:
  norms       the three-route norm comparison; wavelet quadrature, block
              norms and the dense DCT-I of the 2-D members do the work.
  identities  the exact-identity suite; many small FFTs, per-coefficient
              synthesis loops and basis evaluation on meshgrids.
  rates       approximation, recovery and cubature rate tables; the scalar
              projection loop, the LS design and solve, node generation.
  cli-readme  the README `halfcos` examples, each in a fresh interpreter;
              cold start and the cli layer dominate.

Each runner returns (outputs, health). Outputs are compared with the
reference recorded from the seed commit under perfbench/reference; health
values are only reported by the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("norms", "identities", "rates", "cli-readme")

# Sizes are chosen so that one pass takes a few seconds: a run then holds
# several passes, and every kind gets more than one sample.
BAND_J, TWO_D_J = 8, 6
TWO_D = ("kink2", "bspline2_2", "bspline4_2", "exp2", "smoothper2")
IDENTITY_FUNCS = {1: 50, 2: 50, 3: 10}
IDENTITY_SEEDS = range(16)
IDENTITY_BOUND = 1e-10
# The N list is the acceptance gate's. Each kink2 item takes a window of
# five consecutive values, since every value costs one (kmax+1)^2 loop.
N_LIST = [2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128]
KINK2_WINDOWS = [N_LIST[i : i + 5] for i in range(len(N_LIST) - 4)]
# One member per LS size: peak memory depends on the member (evaluating a
# cubic spline on a 1025^2 grid needs the most), so a seeded member choice
# would make peak memory differ between seeds.
LS_CASES = {16: ("kink2", 9), 32: ("bspline2_2", 9), 64: ("bspline4_2", 10)}
LS_SEEDS = range(8)
NET_MEMBERS = {2: ("exp2", "monomial2", "smoothper2"), 3: ("exp3", "monomial3")}
NET_SEEDS = range(4)
NET_LEVELS = range(8, 17)
NET_SHIFTS = 8

README_EXAMPLES = {
    "testfns": ["testfns"],
    "identities": ["identities", "--d", "2", "--seed", "7", "--funcs", "10"],
    "coeffs": ["coeffs", "--fn", "kink1d", "--kmax", "32"],
    "norms": ["norms", "--fn", "bspline2", "--r", "1.5", "--p", "2", "--q", "2"],
    "cubature": ["cubature", "--rule", "fibonacci", "--tent", "--fn", "kink2d",
                 "--nmax", "13"],
    "approx": ["approx", "--fn", "kink1d", "--kmax", "4096"],
    "recover": ["recover", "--fn", "bspline2", "--N", "8", "--seed", "11"],
}

RUN_ENV = {
    "HPC_BESOV_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, one transform thread and one BLAS thread."""
    env = dict(os.environ, **RUN_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Item:
    key: str
    kind: str
    run: object  # callable () -> (outputs, health)


class Pool:
    """kinds maps each kind to the items it may draw from."""

    kinds: dict

    def add(self, kind, key, run):
        self.kinds.setdefault(kind, []).append(Item(key, kind, run))

    def all_items(self):
        for items in self.kinds.values():
            yield from items

    def draw_pass(self, rng):
        return [rng.choice(items) for items in self.kinds.values()]


def rate_outputs(fit) -> dict:
    return {"ns": list(fit.ns), "errors": list(fit.errors), "slope": fit.slope}


def close_tree(ref, got) -> bool:
    """Integers and strings exactly; floats to round-off. Cubature and
    projection errors are sums of up to 2^16 terms of size O(1), so a
    reordered sum may move them by about 1e-13 absolute."""
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and set(ref) == set(got)
            and all(close_tree(ref[k], got[k]) for k in ref)
        )
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(close_tree(a, b) for a, b in zip(ref, got))
        )
    if isinstance(ref, float):
        return math.isclose(float(got), ref, rel_tol=1e-9, abs_tol=1e-13)
    return ref == got


class NormsPool(Pool):
    def __init__(self, hc):
        self.hc, self.kinds = hc, {}
        inside = hc.besov.BesovParams(1.5, 2.0, 2.0)
        outside = hc.besov.BesovParams(2.5, 2.0, 2.0)
        routes = ("cw", "diff", "hpc")
        # Band members at all three scales, in three kinds of like cost:
        # single hats, single cubic splines, and sums of several pieces.
        for s in (0, 1, 2):
            for tf in hc.corpus.band_family(s):
                base = tf.name.split("@")[0]
                kind = "hat" if base.startswith("hat") else "n4" if base.startswith("n4w") else "mix"
                self._add(f"band_{kind}", f"band/{tf.name}", tf, inside, routes, BAND_J)
                if base == "hat4_1":
                    self._add("escape", f"escape/{tf.name}", tf, outside, ("cw", "hpc"), BAND_J)
        for name in TWO_D:
            tf = hc.corpus.get_member(name)
            self._add(f"2d_{name}", f"2d/{name}", tf, inside, routes, TWO_D_J)

    def _add(self, kind, key, member, params, compare, J):
        def run():
            reps = self.hc.suite.norm_comparison(
                member, params, compare=compare, J=J, strict=False
            )
            outputs = {k: reps[k].value for k in compare}
            return outputs, {"tail_bound": {k: reps[k].tail_bound for k in compare}}

        self.add(kind, key, run)

    @staticmethod
    def check(ref, got):
        return set(ref) == set(got) and all(
            math.isclose(got[k], ref[k], rel_tol=1e-9) for k in ref
        )


class IdentitiesPool(Pool):
    def __init__(self, hc):
        self.hc, self.kinds = hc, {}
        for d, n_funcs in IDENTITY_FUNCS.items():
            for seed in IDENTITY_SEEDS:
                self._add(d, seed, n_funcs)

    def _add(self, d, seed, n_funcs):
        def run():
            return dict(self.hc.suite.identity_suite(d, seed, n_funcs=n_funcs, m=5)), {}

        self.add(f"d{d}", f"d{d}/seed{seed}", run)

    @staticmethod
    def check(ref, got):
        # Residuals sit at round-off; a reordered sum may move them, but
        # never past the identity bound.
        return set(ref) == set(got) and all(
            got[k] <= IDENTITY_BOUND and abs(got[k] - ref[k]) <= 1e-12 for k in ref
        )


class RatesPool(Pool):
    check = staticmethod(close_tree)

    def __init__(self, hc):
        self.hc, self.kinds = hc, {}
        member = hc.corpus.get_member
        self._projection("proj_kink1", "proj/kink1", member("kink1"), N_LIST, {"kmax": 4096})
        for w in KINK2_WINDOWS:
            self._projection(
                "proj_kink2", f"proj/kink2/N{w[0]}-{w[-1]}", member("kink2"), w,
                {"kmax": 512, "log_exponent": 1.5, "skip_smallest": 2},
            )
        for N, (name, level) in LS_CASES.items():
            for seed in LS_SEEDS:
                self._ls(f"ls/{name}/N{N}/seed{seed}", member(name), N, level, seed)
        self._fibonacci(hc.corpus.h2_family())
        for d, names in NET_MEMBERS.items():
            for alpha in (1, 2):
                for name in names:
                    for seed in NET_SEEDS:
                        self._net(d, alpha, name, member(name), seed)

    def _projection(self, kind, key, member, n_list, kwargs):
        def run():
            fit = self.hc.approx.projection_error_rate(member, n_list, **kwargs)
            return rate_outputs(fit), {"rate_residual": fit.residual}

        self.add(kind, key, run)

    def _ls(self, key, member, N, level, seed):
        def run():
            row = self.hc.approx.ls_error_experiment(member, N, seed=seed, grid_level=level)
            outputs = {k: row[k] for k in ("dim", "samples", "ls_error", "projection_error")}
            return outputs, {"condition": row["condition"]}

        self.add(f"ls_N{N}", key, run)

    def _fibonacci(self, members):
        def run():
            cub = self.hc.cubature
            outputs, residuals = {}, {}
            for tf in members:
                for transform in ("tent", "plain"):
                    fit = cub.convergence_experiment(
                        cub.fibonacci_rule, tf, tf.integral, range(9, 20), transform=transform
                    )
                    outputs[f"{tf.name}/{transform}"] = rate_outputs(fit)
                    residuals[f"{tf.name}/{transform}"] = fit.residual
            return outputs, {"rate_residual": residuals}

        self.add("fibonacci", "fibonacci", run)

    def _net(self, d, alpha, name, member, seed):
        def run():
            cub = self.hc.cubature
            fit = cub.convergence_experiment(
                lambda m: cub.digital_net(m, d, alpha), member, member.integral,
                NET_LEVELS, transform="tent", shifts=NET_SHIFTS, seed=seed,
            )
            return rate_outputs(fit), {"rate_residual": fit.residual}

        self.add(f"net_d{d}_a{alpha}", f"net/d{d}/a{alpha}/{name}/seed{seed}", run)


class CliPool(Pool):
    def __init__(self, hc):
        self.kinds = {}
        self.env = child_env()
        self.trace_dir = None  # set by a traced run: children write spans there
        for name, argv in README_EXAMPLES.items():
            self._add(name, argv)

    def _add(self, name, argv):
        def run():
            env = self.env
            if self.trace_dir is not None:
                env = dict(env, PERFBENCH_TRACE=str(Path(self.trace_dir) / f"{name}.json"))
            proc = subprocess.run(
                [sys.executable, str(HERE / "cli_child.py"), *argv],
                cwd=ROOT, env=env, capture_output=True, timeout=60,
            )
            outputs = {
                "exit_code": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            }
            return outputs, {}

        self.add(name, f"cli/{name}", run)

    @staticmethod
    def check(ref, got):
        return ref == got


POOLS = {
    "norms": NormsPool,
    "identities": IdentitiesPool,
    "rates": RatesPool,
    "cli-readme": CliPool,
}


def import_library(workload):
    """Import the library from the checkout, as a user's fresh interpreter
    would for this workload; returns a namespace of its modules."""
    import importlib
    import types

    sys.path.insert(0, str(ROOT / "src"))
    names = ("approx", "besov", "corpus", "cubature", "grids", "indexsets",
             "suite", "wavelets")
    hc = types.SimpleNamespace(
        **{n: importlib.import_module(f"halfcos.{n}") for n in names}
    )
    if workload == "cli-readme":
        hc.cli = importlib.import_module("halfcos.cli")
    return hc


def passes(pool, workload: str, seed: int):
    """Endless sequence of passes; pass contents and order come from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        items = pool.draw_pass(rng)
        rng.shuffle(items)
        yield items


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)
