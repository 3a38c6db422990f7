"""Thermodynamic-limit scan harness.

A plan fixes a potential, ascending rho and L ladders, a cutoff rule
M = ceil(kappa L), an initial-state family, and integrator settings.
Every (rho, L) point runs independently with a seed derived from the
master seed and the ladder indices, so tables are bit-reproducible for
any worker count.  The summary reports, for each monitored column, the
value at the largest L per rho (a proxy for the L limit) and the trend
across the rho ladder; no extrapolation is attempted.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from numpy.random import SeedSequence

from . import diagnostics
from .evolution import IntegratorConfig, Trajectory, evolve
from .field import STATE_FAMILIES, TorusLattice, as_mode, make_state
from .potential import as_bool, as_int, as_real, as_reals, make_potential

__all__ = [
    "ScanPlan",
    "ScanRecord",
    "SCAN_COLUMNS",
    "load_plan",
    "run_scan",
    "write_scan_csv",
    "iterated_limit_summary",
]

DEFAULT_SUMMARY_COLUMNS = ("beta_gap", "energy_gap", "condensate_fraction",
                           "kinetic_tail", "tail_half_M")


@dataclass
class ScanPlan:
    potential: dict
    rho_values: list
    L_values: list
    family: str
    family_params: dict
    t_final: float
    dt: float
    method: str = "split_strang"
    kappa: float = 1.0
    stride: int = 1
    master_seed: int = 0
    dealiasing: bool = True
    write_trajectories: bool = True
    summary_columns: tuple = DEFAULT_SUMMARY_COLUMNS

    def __post_init__(self):
        for name in ("rho_values", "L_values"):
            vals = as_reals(getattr(self, name), name, positive=True)
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            setattr(self, name, vals)
        self.kappa = as_real(self.kappa, "kappa", positive=True)
        # the integrator's own checks, so a bad method fails before any point runs
        config = IntegratorConfig(method=self.method, dt=self.dt, dealiasing=self.dealiasing)
        self.method, self.dt, self.dealiasing = config.method, config.dt, config.dealiasing
        self.write_trajectories = as_bool(self.write_trajectories, "write_trajectories")
        self.t_final = as_real(self.t_final, "t_final")
        if self.t_final < 0.0:
            raise ValueError("t_final must be non-negative")
        self.stride = as_int(self.stride, "stride")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.master_seed = as_int(self.master_seed, "master_seed")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not (isinstance(self.family, str) and self.family in STATE_FAMILIES):
            raise ValueError(f"unknown state family {self.family!r}")
        if not isinstance(self.family_params, dict):
            raise ValueError("family_params must be a JSON object")
        if "seed" in self.family_params:
            raise ValueError("per-point seeds come from master_seed; "
                             "remove 'seed' from family_params")
        if "k0" in self.family_params:
            k0 = as_mode(self.family_params["k0"], "family_params.k0")
            self.family_params = {**self.family_params, "k0": k0}
        numeric = [f.name for f in fields(ScanRecord) if f.type in ("float", "int")]
        if (not isinstance(self.summary_columns, (list, tuple))
                or any(c not in numeric for c in self.summary_columns)):
            raise ValueError(f"summary_columns must be a list of numeric table columns "
                             f"({', '.join(numeric)}), got {self.summary_columns!r}")

    def cutoff(self, L: float) -> int:
        return int(math.ceil(self.kappa * L))

    def resolve_params(self, rho: float) -> dict:
        """Apply per-point parameter rules (currently the eps rule)."""
        params = dict(self.family_params)
        rule = params.pop("eps_rule", None)
        if "eps0" in params:
            eps0 = as_real(params.pop("eps0"), "eps0")
            rule = rule or "inv_sqrt_rho"
            if rule == "inv_sqrt_rho":
                params["eps"] = eps0 / math.sqrt(rho)
            elif rule == "fixed":
                params["eps"] = eps0
            else:
                raise ValueError(f"unknown eps_rule {rule!r}")
        elif rule is not None:
            raise ValueError("eps_rule requires eps0")
        return params


def load_plan(path) -> ScanPlan:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: plan must be a JSON object")
    known = set(ScanPlan.__dataclass_fields__)
    extra = set(doc) - known
    if extra:
        raise ValueError(f"{path}: unknown plan keys {sorted(extra)}")
    missing = {"potential", "rho_values", "L_values", "family",
               "family_params", "t_final", "dt"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing plan keys {sorted(missing)}")
    return ScanPlan(**doc)


@dataclass
class ScanRecord:
    """One row of table.csv; the fields are its columns, in order."""

    rho: float
    L: float
    M: int
    seed: str
    n_particles: float = math.nan
    status: str = "ok"
    final_t: float = math.nan
    mass: float = math.nan
    energy: float = math.nan
    energy_per_particle: float = math.nan
    energy_gap: float = math.nan
    S: float = math.nan
    T: float = math.nan
    k_star: tuple = ()
    condensate_fraction: float = math.nan
    l1_dev: float = math.nan
    l2_dev: float = math.nan
    tail_half_M: float = math.nan
    beta_gap: float = math.nan
    kinetic_tail: float = math.nan
    u_mass_sq: float = math.nan
    max_mass_dev: float = math.nan
    max_energy_drift: float = math.nan
    min_s_margin: float = math.nan
    min_t_margin: float = math.nan
    runtime_s: float = math.nan


SCAN_COLUMNS = [f.name for f in fields(ScanRecord)]


def _trajectory_filename(rho: float, L: float) -> str:
    return f"traj_rho{rho:g}_L{L:g}.csv"


def _run_point(plan: ScanPlan, model, i_rho: int, i_L: int, out_dir) -> ScanRecord:
    rho = plan.rho_values[i_rho]
    L = plan.L_values[i_L]
    M = plan.cutoff(L)
    seed_label = f"{plan.master_seed}:{i_rho}:{i_L}"
    rec = ScanRecord(rho=rho, L=L, M=M, seed=seed_label)
    started = time.perf_counter()
    try:
        lattice = TorusLattice(L, M)
        seed = SeedSequence([plan.master_seed, i_rho, i_L])
        params = plan.resolve_params(rho)
        if STATE_FAMILIES[plan.family] == "perturbed_condensate":
            params["seed"] = seed
        state = make_state(plan.family, lattice, rho, **params)

        if plan.t_final > 0.0:
            config = IntegratorConfig(method=plan.method, dt=plan.dt,
                                      dealiasing=plan.dealiasing)
            traj = evolve(state, model, plan.t_final, config,
                          stride=plan.stride, keep_states=False)
        else:
            ctx = diagnostics.TrajectoryContext.from_state(state, model)
            traj = Trajectory(records=[diagnostics.make_record(state, model, ctx)],
                              final_state=state, context=ctx)

        records = traj.records
        final = records[-1]
        for name in SCAN_COLUMNS:
            if name in diagnostics.DiagnosticsRecord.__dataclass_fields__:
                setattr(rec, name, getattr(final, name))
        rec.n_particles = rho * L**3
        rec.final_t = final.t
        rec.energy_gap = abs(final.energy_per_particle - 0.5 * model.b)
        rec.max_mass_dev = max(abs(r.mass - 1.0) for r in records)
        e0 = records[0].energy
        if math.isfinite(e0) and e0 != 0.0:
            rec.max_energy_drift = max(abs(r.energy - e0) / abs(e0)
                                       for r in records)
        audit = diagnostics.envelope_audit(traj)
        s_margins = [e["s_margin"] for e in audit["records"] if e.get("in_domain")]
        t_margins = [e["t_margin"] for e in audit["records"] if e.get("in_domain")]
        if s_margins:
            rec.min_s_margin = min(s_margins)
            rec.min_t_margin = min(t_margins)

        if out_dir is not None and plan.write_trajectories:
            diagnostics.write_trajectory_csv(
                records, os.path.join(out_dir, _trajectory_filename(rho, L)))
    except Exception as exc:  # failure isolation: the scan must continue
        rec.status = f"failed: {type(exc).__name__}: {exc}"
    rec.runtime_s = time.perf_counter() - started
    return rec


# A pool worker's (plan, model, out_dir), set once per worker process by
# _init_worker.  Fork hands the parent's objects over without pickling.
_worker_scan = None


def _init_worker(plan, model, out_dir):
    global _worker_scan
    _worker_scan = (plan, model, out_dir)


def _run_worker_point(i_rho: int, i_L: int) -> ScanRecord:
    plan, model, out_dir = _worker_scan
    return _run_point(plan, model, i_rho, i_L, out_dir)


def run_scan(plan: ScanPlan, out_dir=None, workers: int = 1) -> list:
    """Execute all plan points; rows come back rho-major, then L.

    Per-point failures are recorded in the row's status and do not stop
    the scan.  When ``out_dir`` is given, writes table.csv, summary.json,
    and one trajectory CSV per point.

    With ``workers`` > 1 the points run on that many forked worker
    processes (at most one per point), largest M first, and the rows are
    put back in plan order.  A worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool`` and nothing more is
    written.  Fork is required: a spawned worker would pay the package
    import (~0.35 s) again.  Fork copies only the calling thread, so no
    other thread of the caller may hold a lock the points take (the
    kernel cache's, say) while the pool starts.
    """
    workers = as_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError("workers > 1 needs the fork start method, "
                         "which this platform does not offer")
    model = make_potential(plan.potential)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    points = [(i_rho, i_L)
              for i_rho in range(len(plan.rho_values))
              for i_L in range(len(plan.L_values))]
    if workers == 1:
        records = [_run_point(plan, model, i, j, out_dir) for i, j in points]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(points)),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(plan, model, out_dir)) as pool:
            # the largest (slowest) points first, so none starts last
            by_cost = sorted(points, key=lambda ij: -plan.cutoff(plan.L_values[ij[1]]))
            futures = {ij: pool.submit(_run_worker_point, *ij) for ij in by_cost}
            records = [futures[ij].result() for ij in points]

    if out_dir is not None:
        write_scan_csv(records, os.path.join(out_dir, "table.csv"))
        summary = iterated_limit_summary(records, plan.summary_columns)
        with open(os.path.join(out_dir, "summary.json"), "w",
                  encoding="ascii") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return records


def write_scan_csv(records, path):
    diagnostics.write_csv(records, SCAN_COLUMNS, path)


def iterated_limit_summary(records, columns=DEFAULT_SUMMARY_COLUMNS) -> dict:
    """Largest-L value per rho for each column, plus the trend across rho.

    Trends are classified as decreasing, increasing, flat (relative
    changes below 1e-9), mixed, or undefined (missing data).
    """
    ok = [r for r in records if r.status == "ok"]
    rhos = sorted({r.rho for r in ok})
    out_columns = {}
    for col in columns:
        proxies = []
        for rho in rhos:
            rows = [r for r in ok if r.rho == rho]
            if not rows:
                continue
            best = max(rows, key=lambda r: r.L)
            proxies.append({"rho": rho, "L": best.L,
                            "value": getattr(best, col)})
        values = [p["value"] for p in proxies]
        if len(values) < 2 or any(not math.isfinite(v) for v in values):
            trend = "undefined"
        else:
            scale = max(abs(v) for v in values)
            tol = 1e-9 * scale
            diffs = [b - a for a, b in zip(values, values[1:])]
            if all(abs(d) <= tol for d in diffs):
                trend = "flat"
            elif all(d < -tol for d in diffs):
                trend = "decreasing"
            elif all(d > tol for d in diffs):
                trend = "increasing"
            else:
                trend = "mixed"
        entry = {"proxies": proxies, "trend": trend}
        if trend == "flat":
            entry["value"] = values[0]
        out_columns[col] = entry
    return {
        "rho_values": rhos,
        "points_total": len(records),
        "points_failed": sum(1 for r in records if r.status != "ok"),
        "columns": out_columns,
    }
