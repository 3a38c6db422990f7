"""One set-up sample in a fresh interpreter.

Imports the program and builds a workload's inputs under the sampled
pure-Python probe (see timing.py), then prints one JSON line:
``setup_s`` (drift-corrected) and ``import_s`` (raw wall time of
``import torus_hartree``).  Run by ``run.py``; by hand:

    python3 perfbench/setup_child.py --workload scan_dense --seed 1 --workdir DIR
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import timing  # noqa: E402  (standard library only)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    import_s = []

    def setup():
        t = time.perf_counter()
        import torus_hartree  # noqa: F401
        import_s.append(time.perf_counter() - t)
        from perfbench.workloads import WORKLOADS
        WORKLOADS[args.workload](args.workdir, args.seed)

    rep = timing.time_sampled(setup, timing.PythonProbe())
    print(json.dumps({"setup_s": rep.normalized_s, "import_s": import_s[0],
                      "wall_s": rep.wall_s}))


if __name__ == "__main__":
    main()
