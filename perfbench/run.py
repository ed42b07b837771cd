"""halfcos benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload norms --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
Workloads: norms, identities, rates, cli-readme (workloads.py says what
each holds and why). Every process the benchmark starts runs with one
transform thread (HPC_BESOV_THREADS=1) and one BLAS thread.

With --trace 0 the end-to-end metrics are printed:
  wall_s       wall time of one pass over the workload: the sum over item
               kinds of the median time of that kind in this run;
  setup_s      time from starting a fresh interpreter to the workload's
               inputs being built: the median of six starts, three before
               the measured worker and three after;
  peak_rss_mb  peak resident memory of the workload process, or of its
               largest child for cli-readme (getrusage).
Both times are scaled to reference host speed by the probe of speed.py,
timed before and after each measured interval on the same CPU: the
benchmark pins itself and its children to one CPU, since a probe on one
CPU does not tell the speed of another. The `#` lines also give the times
unscaled. A line of its own gives fail_ratio: the items whose output
differed from the reference or that raised, over the items attempted; the
result line carries it as `failed` and `attempted`.

With --trace 1 the first pass runs twice untraced (warm-up, baseline) and
once with spans around the public functions of every library module, and
the per-layer metrics are printed: layer times as measured, trace.*_s
scaled like wall_s. Spans and per-item health values go to
perfbench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # fresh interpreters timed before, and again after, the worker
TIME_LIMIT = 170.0


def worker(args, *extra, timeout):
    """Start a worker interpreter; returns (start time, its result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(),
                              stdout=subprocess.PIPE, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def pin_to_one_cpu():
    """Keep the benchmark and every process it starts on one CPU, so that
    the speed probe runs where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def median_sum(times: dict) -> float:
    return sum(statistics.median(v) for v in times.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = time.monotonic()
    pin_to_one_cpu()
    if not (ROOT / "src" / "halfcos" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no halfcos sources under {ROOT / 'src'}")

    def remaining():
        return TIME_LIMIT - (time.monotonic() - t_begin)

    def setup_sample():
        """(seconds as measured, scaled seconds) of one fresh start."""
        before = speed.probe()
        start, res = worker(args, "--setup-only", timeout=min(60.0, remaining()))
        seconds = res["ready"] - start
        return seconds, speed.scale(seconds, before, speed.probe())

    print(f"# halfcos benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        _, res = worker(args, timeout=remaining())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        print(f"# env: {json.dumps(res['env'])}")
        print(f"# spans and health: {res['trace_file']}")
    else:
        setups = [setup_sample() for _ in range(SETUP_PROBES)]
        _, res = worker(args, timeout=remaining())
        setups += [setup_sample() for _ in range(SETUP_PROBES)]
        times, raw = res["times"], res["raw_times"]
        metrics = {
            "wall_s": {"value": median_sum(times), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# env: {json.dumps(res['env'])}")
        print(f"# unscaled: wall_s {median_sum(raw):.4f} s, setup samples "
              + " ".join(f"{s:.4f}" for s, _ in setups) + " s")
        for kind in sorted(times):
            print(f"# kind {kind}: n={len(times[kind])}, median {statistics.median(times[kind]):.4f} s"
                  f" (unscaled {statistics.median(raw[kind]):.4f} s)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
