"""Iterated-limit scan: box size first, then density.

Runs a small (rho, L) grid with the perturbation shrinking like
eps0/sqrt(rho), then reads the summary the way the iterated limit is
meant to be taken: for each rho keep the largest-L value as the proxy
for L->inf, then look at the trend of those proxies along the rho
ladder.  Both condensation gaps should fall; the condensate fraction
should rise toward 1.
"""

import tempfile
import json
import os

from torus_hartree import GaussianPotential, ScanPlan, run_scan


def main():
    b = GaussianPotential().b
    plan = ScanPlan(potential={"family": "gaussian"},
                    rho_values=[10.0, 100.0, 1000.0],
                    L_values=[4.0, 8.0, 16.0],
                    family="perturbed",
                    family_params={"eps0": 0.1, "s": 6.0},
                    t_final=0.1 / b, dt=5e-4, stride=4, master_seed=7,
                    write_trajectories=False)

    with tempfile.TemporaryDirectory(prefix="torus_scan_") as out:
        records = run_scan(plan, out_dir=out, workers=4)
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)

    print(f"{'rho':>7} {'L':>4} {'M':>4} {'beta_gap':>12} {'energy gap':>12} "
          f"{'cond. frac':>12} {'runtime':>9}")
    for r in records:
        print(f"{r.rho:7g} {r.L:4g} {r.M:4d} {r.beta_gap:12.4e} "
              f"{r.energy_gap:12.4e} {r.condensate_fraction:12.9f} "
              f"{r.runtime_s:8.2f}s")

    print()
    print("largest-L proxies and their trend along the rho ladder:")
    for col in ("beta_gap", "energy_gap", "condensate_fraction"):
        entry = summary["columns"].get(col)
        if entry is None:
            continue
        values = ", ".join(f"{p['value']:.3e}" for p in entry["proxies"])
        print(f"  {col:22s} [{values}]  -> {entry['trend']}")


if __name__ == "__main__":
    main()
