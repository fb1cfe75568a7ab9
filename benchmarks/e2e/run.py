"""Entry point named in ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Takes the ``run`` options, with ``--trace 0|1`` in place of ``--traced``
(``--workload --seed --seconds --trace``), and finds the package and the
program under test relative to this file, so it needs no ``PYTHONPATH``.
Without the program's sources next to it (``src/repro``) it exits with
status 2 before measuring anything.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Replace this script's own directory, whose module names would shadow others.
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no program under test: src/repro is missing", file=sys.stderr)
        sys.exit(2)
    from benchmarks.e2e.cli import main

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    known, rest = parser.parse_known_args()
    sys.exit(main(["run"] + rest + (["--traced"] if known.trace else [])))
