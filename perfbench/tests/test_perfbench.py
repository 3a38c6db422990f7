"""Tests of the benchmark's own code: each check passes on the program's
real output and fails on a deliberately corrupted one.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import signal

import numpy as np
import pytest

from perfbench import checks, timing, tracing, workloads
import torus_hartree
from torus_hartree import (GaussianPotential, TorusLattice, energy_per_particle, load_state,
                           make_state, save_state, step_split)

B = (2.0 * math.pi) ** 1.5


def perturbed(L=4.0, M=3, seed=4):
    return make_state("perturbed", TorusLattice(L, M), 10.0, eps=0.1, s=4.0, seed=seed)


# --- independent energy quadrature ----------------------------------------

@pytest.mark.parametrize("k0,L", [((0, 0, 0), 4.0), ((1, -2, 0), 4.0), ((3, 3, -1), 7.5)])
def test_quadrature_plane_wave_is_kinetic_plus_half_b(k0, L):
    alpha = checks.plane_wave(3, k0, theta=0.7)
    expected = 4.0 * math.pi**2 * float(np.dot(k0, k0)) / L**2 + 0.5 * B
    assert checks.energy_per_particle(alpha, L) == pytest.approx(expected, rel=1e-13)


def test_quadrature_matches_program_energy():
    state = perturbed()
    ref = energy_per_particle(state, GaussianPotential())
    assert checks.check_energy(state.alpha, state.lattice.L, ref, "state") == []


def test_energy_check_fails_on_perturbed_coefficient_and_wrong_energy():
    state = perturbed()
    ref = energy_per_particle(state, GaussianPotential())
    bad = state.alpha.copy()
    bad[3, 3, 4] += 1e-6
    assert checks.check_energy(bad, state.lattice.L, ref, "state")
    assert checks.check_energy(state.alpha, state.lattice.L, ref * (1 + 1e-9), "state")


# --- snapshots, trajectories, tables ----------------------------------------

def test_read_snapshot_decodes_program_snapshot(tmp_path):
    state = perturbed(M=4)
    path = tmp_path / "s.json"
    save_state(state, path)
    doc, alpha = checks.read_snapshot(path)
    assert doc["M"] == 4
    assert np.array_equal(alpha, state.alpha)
    doc["data"] = doc["data"][:-8]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        checks.read_snapshot(path)


def _rows(n=4, dt=0.5, mass=1.0, energy=2.0):
    return [{"t": repr(k * dt), "mass": repr(mass), "energy": repr(energy)} for k in range(n)]


def test_trajectory_check():
    times = [k * 0.5 for k in range(4)]
    assert checks.check_trajectory(_rows(), times, "t") == []
    assert checks.check_trajectory(_rows()[:-1], times, "t")            # dropped row
    assert checks.check_trajectory(_rows(mass=1 + 1e-8), times, "t")    # lost mass
    drifting = _rows()
    drifting[-1]["energy"] = repr(2.0 * (1 + 1e-5))
    assert checks.check_trajectory(drifting, times, "t")
    shifted = _rows()
    shifted[2]["t"] = "1.5"
    assert checks.check_trajectory(shifted, times, "t")


def test_scan_table_check():
    row = {"rho": "10", "L": "2", "status": "ok", "max_mass_dev": "1e-15",
           "max_energy_drift": "1e-12", "n_particles": "80"}
    assert checks.check_scan_table([row], [10.0], [2.0]) == []
    assert checks.check_scan_table([dict(row, status="failed: X")], [10.0], [2.0])
    assert checks.check_scan_table([dict(row, n_particles="81")], [10.0], [2.0])
    assert checks.check_scan_table([dict(row, max_energy_drift="1e-5")], [10.0], [2.0])
    assert checks.check_scan_table([row], [10.0], [2.0, 3.0])


def test_same_outputs_ignores_runtime_only():
    a = {"table.csv": "rho,runtime_s,x\n1,0.5,2\n", "traj.csv": "t\n0\n"}
    assert checks.check_same_outputs(a, dict(a, **{"table.csv": "rho,runtime_s,x\n1,0.7,2\n"}),
                                      "x") == []
    assert checks.check_same_outputs(a, dict(a, **{"table.csv": "rho,runtime_s,x\n1,0.5,3\n"}),
                                     "x")
    assert checks.check_same_outputs(a, dict(a, **{"traj.csv": "t\n1\n"}), "x")


def test_plane_wave_exact_and_reverse():
    M, L, k0 = 2, 4.0, (1, 0, -1)
    model = GaussianPotential()
    state = make_state("plane_wave", TorusLattice(L, M), 10.0, k0=k0, theta=0.3)
    s = state
    for _ in range(10):
        s = step_split(s, model, 1e-3)
    exact = checks.plane_wave_exact(M, L, k0, 0.3, B, 10 * 1e-3)
    assert checks.check_distance(s.alpha, exact, 1e-10, "pw") == []
    assert checks.check_distance(s.alpha, checks.plane_wave(M, k0, 0.3), 1e-10, "pw")
    assert np.array_equal(checks.reverse(checks.reverse(state.alpha)), state.alpha)


# --- workloads: checks pass on real output, fail on corrupted output ----------

class SmallSimulate(workloads.SimulateSparse):
    L, M, STEPS = 4.0, 4, 4


class SmallScan(workloads.ScanDense):
    RHO, L = (10.0, 100.0), (2.0, 3.0)
    STEPS = 4


def test_scan_checks_catch_dropped_row(tmp_path):
    work = SmallScan(str(tmp_path), 3)
    work.call()
    assert work.check_full() == []
    work.call()
    assert work.check_repeat() == []
    path = os.path.join(work.out_dir, "traj_rho100_L3.csv")
    lines = open(path).read().splitlines(keepends=True)
    open(path, "w").write("".join(lines[:-1]))
    assert work.check_repeat()
    assert any("records" in f for f in work.check_full())


def test_simulate_checks_catch_wrong_energy(tmp_path):
    work = SmallSimulate(str(tmp_path), 5)
    work.call()
    assert work.check_full() == []
    rows = checks.read_csv(work.outputs["traj"])
    text = open(work.outputs["traj"]).read()
    epp = rows[0]["energy_per_particle"]
    open(work.outputs["traj"], "w").write(text.replace(epp, repr(float(epp) * (1 + 1e-9)), 1))
    assert any("initial record" in f for f in work.check_full())


def test_simulate_round_trip_catches_perturbed_snapshot(tmp_path):
    work = SmallSimulate(str(tmp_path), 5)
    work.call()
    state = load_state(work.outputs["final"])
    alpha = state.alpha.copy()
    alpha[0, 0, 0] += 1e-6
    alpha /= math.sqrt(float(np.sum(np.abs(alpha) ** 2)))
    save_state(state.with_alpha(alpha), work.outputs["final"])
    fails = work.check_full()
    assert any("round trip" in f for f in fails)
    assert any("final record" in f for f in fails)


def test_picard_checks_catch_perturbed_result(tmp_path):
    work = workloads.PicardOracle(str(tmp_path), 2)
    work.call()
    assert work.check_full() == []
    work.call()
    assert work.check_repeat() == []
    work.results[1] = work.results[1] + 1e-6
    assert work.check_repeat()
    assert any("Strang" in f for f in work.check_full())


# --- timing and tracing ----------------------------------------------------

def test_time_sampled_subtracts_probes_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = timing.Probe()
    rep = timing.time_sampled(lambda: [probe.once() for _ in range(200)], probe,
                              interval=0.005)
    assert 0.0 < rep.work_s < rep.wall_s
    assert rep.probe_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_covered_merges_overlaps():
    assert tracing._covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing._covered([]) == 0.0


def test_tracer_counts_layers_and_uninstalls():
    originals = (torus_hartree.step_split, torus_hartree.evolution._Kernel.field)
    tracer = tracing.Tracer(torus_hartree)
    tracer.install()
    try:
        model = GaussianPotential()
        state = perturbed(M=2)
        tracer.active = True
        torus_hartree.evolution.step_split(state, model, 1e-3)
        tracer.active = False
        m = tracing.layer_metrics(tracer.spans, tracer.counts)
    finally:
        tracer.uninstall()
    assert m["evolution.step_split.calls"] == 1
    assert m["evolution.steps"] == 1
    assert m["evolution.kernel.field.calls"] == 1
    assert m["evolution.kernel.builds"] == 1
    assert m["evolution.kernel.grid_points"] == 10**3
    assert 0.0 < m["evolution.step_split.self_s"]
    assert (torus_hartree.step_split, torus_hartree.evolution._Kernel.field) == originals
    assert set(m) | {"cli.import_s", "trace.solve_s", "trace.wall_s", "trace.probe_ms",
                     "trace.reps"} == set(tracing.LAYER_METRICS)
