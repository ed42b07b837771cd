"""Record the reference outputs of every item in every workload pool:
`python3 perfbench/make_reference.py [workload ...]`.

The files under perfbench/reference were written from the seed commit of
the benchmark; the benchmark checks every item it runs against them. Run
this again only when a change is meant to alter the outputs.
"""

import json
import os
import sys

import workloads


def main(names):
    os.environ.update(workloads.RUN_ENV)
    for name in names or workloads.WORKLOADS:
        hc = workloads.import_library(name)
        pool = workloads.POOLS[name](hc)
        ref = {}
        for item in pool.all_items():
            outputs, _ = item.run()
            ref[item.key] = outputs
            print(name, item.key, flush=True)
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
