"""Per-call cost of the integrator layers at M = 4, 8, 16, from traced runs.

    python3 perfbench/layer_table.py

For each cutoff M (with L = M, a perturbed condensate and the unit
gaussian potential) this runs ``evolve`` for 4 steps at stride 1 with
the Strang and the RK4 scheme under the benchmark's tracer and prints
the inclusive milliseconds per call of step_split, step_rk4,
make_record and autocorrelation, plus the median time of
``timing.Probe`` around the runs (1 ms is the reference speed that
solve_s is scaled to).  The columns are those of the layer table in
ROADMAP.md.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import torus_hartree  # noqa: E402
from torus_hartree import evolution, field  # noqa: E402

from perfbench import timing, tracing  # noqa: E402

STEPS = 4
COLUMNS = ("evolution.step_split", "evolution.step_rk4", "diagnostics.make_record",
           "field.autocorrelation")


def main():
    probe = timing.Probe()
    tracer = tracing.Tracer(torus_hartree)
    tracer.install()
    print("| M (L=M) | G | " + " | ".join(c.split(".")[-1] for c in COLUMNS)
          + " | probe |")
    print("| --- " * (len(COLUMNS) + 3) + "|")
    try:
        for M in (4, 8, 16):
            model = torus_hartree.GaussianPotential()
            state = field.make_state("perturbed", field.TorusLattice(float(M), M), 10.0,
                                     eps=0.05, s=6.0, seed=1)
            G = evolution._get_kernel(model, state.lattice, True).G
            probes = [probe.once() for _ in range(20)]
            tracer.reset()
            tracer.active = True
            for method in ("split_strang", "rk4"):
                cfg = evolution.IntegratorConfig(method=method, dt=1e-4)
                evolution.evolve(state, model, STEPS * 1e-4, cfg, keep_states=False)
            tracer.active = False
            probes += [probe.once() for _ in range(20)]
            per_call = tracing.per_call_ms(tracer.spans)
            print(f"| {M} | {G} | "
                  + " | ".join(f"{per_call[c]:.3g} ms" for c in COLUMNS)
                  + f" | {1e3 * statistics.median(probes):.3g} ms |")
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    main()
