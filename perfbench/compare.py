"""Run a workload in two sets of runs and check that the sets agree.

    python3 perfbench/compare.py --workload scan_dense --runs 10

Each set runs ``perfbench/run.py`` once per seed (seeds 1..runs, the
same seeds in both sets, ``run_seconds`` of BENCHMARK.json each), one run
after another.  For each end-to-end metric in BENCHMARK.json it prints
both sets' quartiles, the spread (q3 - q1) / median of each set, and
whether

- each set's spread is within the metric's bound,
- the two sets' medians differ by no more than the bound, in either
  direction,
- the share of failed operations is the same in every run.

Raw results are kept in ``.perfbench-out/compare-<workload>.json``.
Exit status is 0 when everything agrees and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first, second, better):
    """Relative worsening of ``second`` against ``first`` (negative = better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None):
    p = argparse.ArgumentParser(description="two sets of runs of one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    sets = []
    for label in ("A", "B"):
        results = []
        for seed in seeds:
            res = one_run(args.workload, seed, seconds)
            results.append(res)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"set {label} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {shown}",
                  file=sys.stderr, flush=True)
        sets.append(results)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"compare-{args.workload}.json").write_text(
        json.dumps({"seeds": seeds, "seconds": seconds, "sets": sets}, indent=1))

    ok = all(r["correct"] for s in sets for r in s)
    print(f"workload {args.workload}: {args.runs} runs per set, {seconds:g} s each, "
          f"all correct: {ok}")
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
        spreads = [(q3 - q1) / med for q1, med, q3 in stats]
        drift = worse_by(stats[0][1], stats[1][1], better)
        agree = all(sp <= bound for sp in spreads) and abs(drift) <= bound
        ok &= agree
        print(f"  {name} [{metric['unit']}] bound {bound:g}: "
              + "  ".join(f"set {lab} q1 {q1:.5g} median {med:.5g} q3 {q3:.5g} "
                          f"spread {sp:.3f}"
                          for lab, (q1, med, q3), sp in zip("AB", stats, spreads))
              + f"  B worse than A by {drift:+.3f}  {'agree' if agree else 'DISAGREE'}")
    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
    per_run = {r["failed"] / r["attempted"] for s in sets for r in s}
    same_share = len(per_run) == 1
    ok &= same_share
    print(f"  failed share: set A {shares[0]:.6g}, set B {shares[1]:.6g}, "
          f"{'same in every run' if same_share else 'DIFFERS between runs'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
