"""The benchmark's workloads: inputs, the timed call, and output checks.

Constructing a workload is its set-up: it builds the inputs (plan,
snapshot, initial state) from the seed into a work directory.  ``call``
is the timed operation, run once per repetition with identical inputs.
``check_full`` runs after the first repetition, outside the timed
section; ``check_repeat`` compares every later repetition's outputs with
the first one's.  Both return lists of failure messages.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np
from numpy.random import SeedSequence

# Program functions are reached through their modules, so that the
# tracer's wrappers (installed on the modules) see the calls.
from torus_hartree import cli, evolution, field
from torus_hartree.evolution import LifespanGuardError
from torus_hartree.field import TorusLattice
from torus_hartree.potential import GaussianPotential

from . import checks

GAUSSIAN = {"family": "gaussian"}


def _run_cli(argv):
    """cli.main with its stdout swallowed; a nonzero exit is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"torus-hartree {argv[0]} exited with code {code}")


def _read_texts(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "r", encoding="ascii") as fh:
            out[name] = fh.read()
    return out


class ScanDense:
    """``torus-hartree scan`` on a 3x3 rho x L ladder, a record every step."""

    name = "scan_dense"
    timing = "bracketed"
    RHO = (10.0, 100.0, 1000.0)
    L = (2.0, 3.0, 4.0)          # kappa = 1, so M = 2, 3, 4
    DT = 5e-4
    STEPS = 10
    EPS0 = 0.1
    S = 6.0
    WORKERS = 2

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = int(seed)
        self.plan = {
            "potential": GAUSSIAN,
            "rho_values": list(self.RHO),
            "L_values": list(self.L),
            "family": "perturbed",
            "family_params": {"eps0": self.EPS0, "s": self.S},
            "t_final": self.STEPS * self.DT,
            "dt": self.DT,
            "stride": 1,
            "master_seed": self.seed,
        }
        self.plan_path = os.path.join(workdir, "plan.json")
        with open(self.plan_path, "w", encoding="ascii") as fh:
            json.dump(self.plan, fh)
        self.out_dir = os.path.join(workdir, "scan")
        self.reference = None

    def _argv(self, out_dir, workers):
        return ["scan", "--plan", self.plan_path, "--out", out_dir,
                "--workers", str(workers)]

    def call(self):
        _run_cli(self._argv(self.out_dir, self.WORKERS))

    def _outputs(self, out_dir):
        names = ["table.csv"] + [f"traj_rho{r:g}_L{L:g}.csv"
                                 for r in self.RHO for L in self.L]
        return _read_texts(out_dir, names)

    def check_full(self):
        table = checks.read_csv(os.path.join(self.out_dir, "table.csv"))
        fails = checks.check_scan_table(table, self.RHO, self.L)
        times = [k * self.DT for k in range(self.STEPS + 1)]
        for i, rho in enumerate(self.RHO):
            for j, L in enumerate(self.L):
                label = f"traj_rho{rho:g}_L{L:g}.csv"
                rows = checks.read_csv(os.path.join(self.out_dir, label))
                fails += checks.check_trajectory(rows, times, label)
                if not rows:
                    continue
                M = math.ceil(L)
                state = field.make_state("perturbed", TorusLattice(L, M), rho,
                                   eps=self.EPS0 / math.sqrt(rho), s=self.S,
                                   seed=SeedSequence([self.seed, i, j]))
                fails += checks.check_energy(state.alpha, L, rows[0]["energy_per_particle"],
                                             f"{label} first record")
        with open(os.path.join(self.out_dir, "summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        if summary["points_total"] != len(self.RHO) * len(self.L) or summary["points_failed"]:
            fails.append(f"summary.json: {summary['points_total']} points, "
                         f"{summary['points_failed']} failed")
        self.reference = self._outputs(self.out_dir)
        serial = os.path.join(self.workdir, "scan_workers1")
        _run_cli(self._argv(serial, 1))
        fails += checks.check_same_outputs(self.reference, self._outputs(serial),
                                           "workers 2 vs workers 1")
        return fails

    def check_repeat(self):
        return checks.check_same_outputs(self.reference, self._outputs(self.out_dir),
                                         "repetition vs first")


class SimulateSparse:
    """``torus-hartree simulate`` resuming a snapshot at L=16, M=16, records at the ends."""

    name = "simulate_sparse"
    timing = "sampled"
    L = 16.0
    M = 16
    RHO = 10.0
    DT = 2e-4
    STEPS = 40
    EPS = 0.05
    S = 6.0

    def __init__(self, workdir, seed):
        self.workdir = workdir
        state = field.make_state("perturbed", TorusLattice(self.L, self.M), self.RHO,
                           eps=self.EPS, s=self.S, seed=int(seed))
        self.snapshot = os.path.join(workdir, "initial.json")
        field.save_state(state, self.snapshot, family="perturbed", seed=int(seed))
        self.t_final = self.STEPS * self.DT
        self.config = self._write_config("run.json", self.snapshot)
        self.outputs = {k: os.path.join(workdir, f"{k}.out")
                        for k in ("traj", "audit", "final")}
        self.reference = None

    def _write_config(self, name, snapshot):
        path = os.path.join(self.workdir, name)
        cfg = {"potential": GAUSSIAN, "state": {"snapshot": snapshot},
               "dt": self.DT, "t_final": self.t_final, "stride": self.STEPS,
               "method": "split_strang"}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(cfg, fh)
        return path

    def _argv(self, config, outputs):
        return ["simulate", "--config", config, "--out", outputs["traj"],
                "--audit", outputs["audit"], "--final-state", outputs["final"]]

    def call(self):
        _run_cli(self._argv(self.config, self.outputs))

    def _texts(self):
        return _read_texts(self.workdir, [os.path.basename(p) for p in self.outputs.values()])

    def check_full(self):
        rows = checks.read_csv(self.outputs["traj"])
        fails = checks.check_trajectory(rows, [0.0, self.t_final], "trajectory")
        _, alpha0 = checks.read_snapshot(self.snapshot)
        doc, alpha1 = checks.read_snapshot(self.outputs["final"])
        if len(rows) == 2:
            fails += checks.check_energy(alpha0, self.L, rows[0]["energy_per_particle"],
                                         "initial record")
            fails += checks.check_energy(alpha1, self.L, rows[1]["energy_per_particle"],
                                         "final record vs final snapshot")
        if doc["t"] != self.t_final:
            fails.append(f"final snapshot t = {doc['t']!r}, expected {self.t_final!r}")
        with open(self.outputs["audit"], encoding="ascii") as fh:
            audit = json.load(fh)
        if not audit["passed"]:
            fails.append(f"envelope audit failed with {audit['flags']} flags")
        self.reference = self._texts()

        # time-reversal round trip: reverse the final state, run the same
        # simulate call again, reverse, and compare with the initial state
        reversed_path = os.path.join(self.workdir, "reversed.json")
        final = field.load_state(self.outputs["final"])
        field.save_state(field.time_reversal(final), reversed_path)
        back = {k: os.path.join(self.workdir, f"back_{k}.out") for k in self.outputs}
        _run_cli(self._argv(self._write_config("back.json", reversed_path), back))
        _, alpha_back = checks.read_snapshot(back["final"])
        fails += checks.check_distance(checks.reverse(alpha_back), alpha0,
                                       checks.ROUND_TRIP_TOL, "time-reversal round trip")
        return fails

    def check_repeat(self):
        return checks.check_same_outputs(self.reference, self._texts(), "repetition vs first")


class PicardOracle:
    """``picard_solve`` at a ladder of fractions of the lifespan guard, M=3."""

    name = "picard_oracle"
    timing = "sampled"
    L = 4.0
    M = 3
    RHO = 10.0
    EPS = 0.05
    S = 6.0
    FRACTIONS = (0.05, 0.1, 0.2, 0.3)
    STRANG_STEPS = 256

    def __init__(self, workdir, seed):
        self.model = GaussianPotential()  # for the guard and the checks
        lattice = TorusLattice(self.L, self.M)
        self.state = field.make_state("perturbed", lattice, self.RHO, eps=self.EPS, s=self.S,
                                seed=int(seed))
        self.guard = evolution.lifespan_guard(self.state, self.model).guard
        self.times = [f * self.guard for f in self.FRACTIONS]
        rng = np.random.default_rng(int(seed))
        self.k0 = tuple(int(k) for k in rng.integers(-self.M, self.M + 1, size=3))
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.wave = field.make_state("plane_wave", lattice, self.RHO, k0=self.k0,
                                     theta=self.theta)
        self.results = None
        self.reference = None

    def call(self):
        # a new model per repetition, as every CLI call makes one, so that
        # each repetition builds its kernel (the kernel cache is keyed by
        # model identity)
        model = GaussianPotential()
        self.results = [evolution.picard_solve(self.state, model, t).alpha
                        for t in self.times]

    def check_full(self):
        fails = []
        for t, f, alpha in zip(self.times, self.FRACTIONS, self.results):
            fine = self.state
            for _ in range(self.STRANG_STEPS):
                fine = evolution.step_split(fine, self.model, t / self.STRANG_STEPS)
            fails += checks.check_distance(alpha, fine.alpha, checks.STRANG_TOL,
                                           f"picard vs {self.STRANG_STEPS}-step Strang at "
                                           f"{f:g} guard")
        wave_guard = evolution.lifespan_guard(self.wave, self.model).guard
        for f in self.FRACTIONS:
            t = f * wave_guard
            got = evolution.picard_solve(self.wave, self.model, t).alpha
            exact = checks.plane_wave_exact(self.M, self.L, self.k0, self.theta,
                                            checks.gaussian_vhat(0.0), t)
            fails += checks.check_distance(got, exact, checks.PLANE_WAVE_TOL,
                                           f"plane wave k0={self.k0} at {f:g} guard")
        for mult in (1.0, 2.0):
            try:
                evolution.picard_solve(self.state, self.model, mult * self.guard)
                fails.append(f"picard_solve at {mult:g} x guard returned a result")
            except LifespanGuardError:
                pass
        self.reference = [a.copy() for a in self.results]
        return fails

    def check_repeat(self):
        if all(np.array_equal(a, b) for a, b in zip(self.reference, self.results)):
            return []
        return ["picard results differ from the first repetition"]


WORKLOADS = {w.name: w for w in (ScanDense, SimulateSparse, PicardOracle)}
