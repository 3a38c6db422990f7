"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_dense --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, solve_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, and the
traced repetitions' spans are also written under ``.perfbench-out/``.
The program is imported from ``src/`` next to this directory; the run
fails (nonzero exit, no result) when that source is missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the scan's two workers already use every core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5


def import_program():
    """Import torus_hartree from this checkout's src/, or exit with a message."""
    src = ROOT / "src" / "torus_hartree"
    if not (src / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import torus_hartree
    if Path(torus_hartree.__file__).resolve().parent != src.resolve():
        sys.exit(f"perfbench: torus_hartree imported from {torus_hartree.__file__}, "
                 f"not from {src}")
    return torus_hartree


def measure_setup(workload, seed, workdir):
    """Set-up and import times, one sample per fresh interpreter.

    The first child is discarded: in a fresh checkout it also compiles
    the bytecode caches, which users pay once, not per run.
    """
    setups, imports = [], []
    for i in range(SETUP_SAMPLES + 1):
        cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir / f"setup{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            setups.append(sample["setup_s"])
            imports.append(sample["import_s"])
    return setups, imports


def unit_of(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("concurrency"):
        return "ratio"
    return "count"


def checked(check):
    """A check's failures; a check that raises (say, on a missing file) fails."""
    try:
        return check()
    except Exception as exc:  # unreadable output is a failed check
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def run(args, package, workdir):
    from perfbench import timing, tracing
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setups, imports = measure_setup(args.workload, args.seed, workdir)
    main_dir = workdir / "main"
    main_dir.mkdir()
    work = cls(str(main_dir), args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(package)
        tracer.install()
    if cls.timing == "sampled":
        probe = timing.Probe()

        def timed_call():
            return timing.time_sampled(work.call, probe,
                                       on_sample=tracer.probe_span if tracer else None)
    else:
        probe = timing.ThreadedProbe(cls.WORKERS)

        def timed_call():
            return timing.time_bracketed(work.call, probe)
    try:
        return measure(args, cls, work, timed_call, tracer, setups, imports)
    finally:
        if cls.timing != "sampled":
            probe.close()


def measure(args, cls, work, timed_call, tracer, setups, imports):
    from perfbench import tracing

    failures = []
    attempted, failed = 1, 0
    try:  # first repetition: lazy set-up happens here; its outputs get every check
        work.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        failed += 1
        failures.append(f"first repetition: {type(exc).__name__}: {exc}")
    # peak memory of set-up plus one call, before checks or later
    # repetitions (whose count varies with the machine's speed) add to it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not failed:
        failures += checked(work.check_full)

    reps, layers = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        attempted += 1
        if tracer:
            tracer.reset()
            tracer.active = True
        try:
            rep = timed_call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            failures.append(f"repetition: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer:
                tracer.active = False
        reps.append(rep)
        if tracer:
            layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
        if work.reference is not None:
            failures += checked(work.check_repeat)
    if not reps:
        sys.exit("perfbench: no repetition succeeded:\n" + "\n".join(failures[:5]))

    solve_s = statistics.median([r.normalized_s for r in reps])
    if tracer is None:
        values = {"setup_s": statistics.median(setups), "solve_s": solve_s,
                  "peak_rss_mb": peak_rss_mb}
    else:
        tracer.uninstall()
        values = {name: statistics.median([m[name] for m in layers])
                  for name in layers[0]}
        values.update({
            "cli.import_s": statistics.median(imports),
            "trace.solve_s": solve_s,
            "trace.wall_s": statistics.median([r.wall_s for r in reps]),
            "trace.probe_ms": 1e3 * statistics.median([r.probe_s for r in reps]),
            "trace.reps": len(reps),
        })
        values = {name: values[name] for name in tracing.LAYER_METRICS}
        dump_trace(args, layers, tracer.spans)
    unique = list(dict.fromkeys(failures))
    for line in unique[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} timing={cls.timing} reps={len(reps)} "
          f"nproc={os.cpu_count()} "
          + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
          + f" python={platform.python_version()} numpy={sys.modules['numpy'].__version__}")
    return {
        "correct": not unique,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }


def dump_trace(args, layers, spans):
    """Per-repetition layer metrics and the last repetition's spans."""
    from perfbench.tracing import END, NAME, PARENT, START
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s[START] for s in spans), default=0.0)
    doc = {"workload": args.workload, "seed": args.seed, "repetitions": layers,
           "last_repetition_spans": [
               {"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                "parent": index.get(id(s[PARENT]))} for s in spans]}
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w",
              encoding="ascii") as fh:
        json.dump(doc, fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["scan_dense", "simulate_sparse", "picard_oracle"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    package = import_program()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args, package, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
