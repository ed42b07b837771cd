"""One workload run in a fresh interpreter; started by run.py.

`--setup-only` stops once the inputs are built and prints the moment it got
there, so the parent can time set-up from process start. Otherwise the
worker runs passes until `--seconds` have gone (always one whole pass) and
prints one JSON line: the item times per kind, the item counts, the failures
and the peak resident memory. With `--trace 1` it runs the first pass twice
untraced (warm-up, then baseline) and once traced, and prints the per-layer
metrics instead.
"""

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads


def _malloc_trim():
    """Return freed heap memory to the system (glibc only). Called between
    items, so that peak memory does not depend on which item ran before:
    glibc keeps freed large arrays in the heap once its adaptive mmap
    threshold has risen."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return lambda: libc.malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        return lambda: None


class Runner:
    """Runs items, checks their outputs and times them, both as measured
    and scaled to reference host speed by the probes before and after."""

    def __init__(self, pool, reference):
        import speed

        self.pool, self.reference, self.speed = pool, reference, speed
        self.trim = _malloc_trim()
        self.before = speed.probe()
        self.attempted = self.failed = 0

    def run(self, item):
        """(seconds, scaled seconds, health)."""
        t0 = time.perf_counter()
        try:
            outputs, health = item.run()
            dt = time.perf_counter() - t0
            ok = self.pool.check(self.reference[item.key], outputs)
            if not ok:
                print(f"perfbench: output mismatch on {item.key}: {outputs}", file=sys.stderr)
        except Exception:
            dt, ok, health = time.perf_counter() - t0, False, {}
            traceback.print_exc()
        after = self.speed.probe()
        scaled = self.speed.scale(dt, self.before, after)
        self.before = after
        self.trim()
        self.attempted += 1
        self.failed += not ok
        return dt, scaled, health


def timed_run(runner, schedule, first, seconds):
    """The first pass runs whole; later passes run each item that is
    expected, from its kind's median so far, to end before the deadline.
    Returns the measured and the scaled item times per kind."""
    raw, scaled = {}, {}
    deadline = time.perf_counter() + seconds
    items = first
    while True:
        ran = False
        for item in items:
            if item.kind in raw and time.perf_counter() + statistics.median(raw[item.kind]) > deadline:
                continue
            dt, st, _ = runner.run(item)
            raw.setdefault(item.kind, []).append(dt)
            scaled.setdefault(item.kind, []).append(st)
            ran = True
        if not ran or time.perf_counter() >= deadline:
            return raw, scaled
        items = next(schedule)


def traced_run(args, runner, pool, items):
    import tracing

    out_dir = workloads.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # The first pass warms caches and allocators; the second is the
    # untraced baseline the traced third pass is compared with.
    walls = {}
    for _ in range(2):
        for item in items:
            walls[item.key] = runner.run(item)[1]

    tracer = tracing.Tracer()
    tracer.install()
    child_dir = out_dir / f"cli-{args.seed}"
    if args.workload == "cli-readme":
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.mkdir()
        pool.trace_dir = child_dir
    measured, traced_walls, health = {}, {}, {}
    for item in items:
        tracer.begin_item(item.key)
        measured[item.key], traced_walls[item.key], h = runner.run(item)
        health[item.key] = dict(h, kind=item.kind)
        if args.workload == "cli-readme":
            with open(child_dir / f"{item.kind}.json") as fh:
                tracer.merge(json.load(fh)["spans"], item.key)
    shutil.rmtree(child_dir, ignore_errors=True)

    missing = tracing.missing_calls(tracer.spans, args.workload)
    if missing:
        raise SystemExit(
            f"perfbench: traced {args.workload} never called {', '.join(missing)}; "
            f"patched bindings: {tracer.patched}"
        )
    metrics = tracing.layer_metrics(tracer.spans, measured)
    traced, untraced = sum(traced_walls.values()), sum(walls.values())
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    for key, h in tracing.item_health(tracer.spans).items():
        health.setdefault(key, {}).update(h)

    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(
            tracing.jsonable({
                "workload": args.workload,
                "seed": args.seed,
                "env": environment(),
                "patched": tracer.patched,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "items": [
                    {"key": it.key, "kind": it.kind, "measured_s": measured[it.key],
                     "wall_s": traced_walls[it.key], "untraced_wall_s": walls[it.key],
                     "health": health[it.key]}
                    for it in items
                ],
                "spans": tracer.span_dicts(),
            }),
            fh,
        )
    return metrics, str(path.relative_to(workloads.ROOT))


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    env.update({k: os.environ.get(k) for k in workloads.RUN_ENV})
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    hc = workloads.import_library(args.workload)
    pool = workloads.POOLS[args.workload](hc)
    schedule = workloads.passes(pool, args.workload, args.seed)
    first = next(schedule)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    src = os.path.realpath(workloads.ROOT / "src")
    if not os.path.realpath(hc.suite.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: halfcos imported from {hc.suite.__file__}, not {src}")
    runner = Runner(pool, workloads.load_reference(args.workload))
    result = {"env": environment()}
    if args.trace:
        metrics, path = traced_run(args, runner, pool, first)
        result.update(metrics=metrics, trace_file=path)
    else:
        raw, scaled = timed_run(runner, schedule, first, args.seconds)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(raw_times=raw, times=scaled, peak_rss_mb=max(self_kb, child_kb) / 1024.0)
    result.update(attempted=runner.attempted, failed=runner.failed)
    import tracing

    print(json.dumps(tracing.jsonable(result)))


if __name__ == "__main__":
    main()
