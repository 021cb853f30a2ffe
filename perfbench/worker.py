"""One fresh interpreter of the benchmark, started by run.py.

    python3 -I perfbench/worker.py ROOT setup
    python3 -I perfbench/worker.py ROOT run WORKLOAD SEED SECONDS TRACE

It imports fibpoly from ROOT/src and builds the CLI parser before anything
else, then writes "ready": run.py times set-up from the spawn to that line.
In "run" mode it goes on to run the workload (see measure.py) and prints a
JSON summary as its last line.
"""

import json
import os
import sys

if __name__ == "__main__":
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    import fibpoly
    from fibpoly import cli

    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    if sys.argv[2] == "run":
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import measure

        workload, seed, seconds, trace = sys.argv[3:7]
        summary = measure.run(root, fibpoly, cli, workload, int(seed), float(seconds), trace == "1")
        print(json.dumps(summary))
