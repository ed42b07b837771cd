"""Run one `halfcos` command the way the console script does:
`python3 perfbench/cli_child.py identities --d 2 --seed 7`.

With PERFBENCH_TRACE=FILE set, the library's public functions are wrapped
after import and the spans of the command are written to FILE as JSON;
stdout and the exit code are the same either way.
"""

import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import halfcos.cli

    t1 = time.perf_counter()
    out_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if out_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_item("cli")
        tracer.add_span("cli.import", t0, t1)
    try:
        code = halfcos.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(out_path)
    sys.exit(code)
