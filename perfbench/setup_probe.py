"""Set-up time of one CLI-style invocation, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED TINY OUT_DIR``
(TINY is 0 or 1).  Prints the seconds taken to import ``ringlat`` and
``ringlat.cli`` and to generate the workload's inputs.  Nothing but
``os``, ``sys`` and ``time`` is imported before the clock starts.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]


def main() -> None:
    workload, seed, tiny, out_dir = sys.argv[1:5]
    start = time.perf_counter()
    import ringlat  # noqa: F401
    import ringlat.cli  # noqa: F401

    from pathlib import Path

    import workloads

    inputs = workloads.make_inputs(workload, int(seed), tiny == "1")
    workloads.prepare(workload, inputs, Path(out_dir))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
