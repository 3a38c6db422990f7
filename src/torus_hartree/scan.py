"""Thermodynamic-limit scan harness, and run_config, the one run path.

A plan fixes a potential, ascending rho and L ladders, a cutoff rule
M = ceil(kappa L), an initial-state family, and integrator settings.
Each (rho, L) point is the simulate config point_config returns, with a
seed from the master seed and the ladder indices, run by run_config as
``simulate`` runs it, so tables are bit-reproducible for any worker
count.  The summary reports, per monitored column, the value at the
largest L per rho (a proxy for the L limit) and the trend across rho.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import MISSING, dataclass, fields

from . import diagnostics
from .evolution import IntegratorConfig, Trajectory, check_run, evolve
from .field import (FAMILY_PARAMS, STATE_FAMILIES, TorusLattice, as_mode,
                    check_family_keys, load_state, make_state)
from .potential import as_bool, as_int, as_real, as_reals, make_potential

__all__ = [
    "ScanPlan",
    "ScanRecord",
    "SCAN_COLUMNS",
    "load_plan",
    "point_config",
    "run_config",
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
    write_trajectories: bool = True
    summary_columns: tuple = DEFAULT_SUMMARY_COLUMNS

    def __post_init__(self):
        self.write_trajectories = as_bool(self.write_trajectories, "write_trajectories")
        for name in ("rho_values", "L_values"):
            vals = as_reals(getattr(self, name), name, positive=True)
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            # :g rounds monotonically, so equal trajectory file names are neighbours
            for a, b in zip(vals, vals[1:]):
                if self.write_trajectories and f"{a:g}" == f"{b:g}":
                    raise ValueError(f"{name} {a!r} and {b!r} share the trajectory "
                                     f"file name spelling {a:g}")
            setattr(self, name, vals)
        self.kappa = as_real(self.kappa, "kappa", positive=True)
        if not math.isfinite(self.kappa * self.L_values[-1]):
            raise ValueError(f"cutoff kappa * L = {self.kappa!r} * {self.L_values[-1]!r} "
                             "is beyond the float range")
        # simulate's own run checks, so a plan fails at load on what simulate refuses
        self.t_final, self.stride = check_run(self.t_final, self.stride,
                                              IntegratorConfig(method=self.method, dt=self.dt),
                                              0.0)
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
        params = dict(self.family_params)
        if "k0" in params:
            params["k0"] = as_mode(params["k0"], "family_params.k0")
        for key in ("eps0", "s", "theta", "escape_exponent"):
            if key in params:
                params[key] = as_real(params[key], f"family_params.{key}", positive=key == "s")
        if "eps_rule" in params:
            if params["eps_rule"] not in ("inv_sqrt_rho", "fixed"):
                raise ValueError(f"unknown eps_rule {params['eps_rule']!r}; "
                                 "known: inv_sqrt_rho, fixed")
            if "eps0" not in params:
                raise ValueError("eps_rule requires eps0")
        # a plan spells eps as eps0 with an optional eps_rule; seeds come from master_seed
        family = STATE_FAMILIES[self.family]
        takes = {("eps0" if k == "eps" else k): required
                 for k, required in FAMILY_PARAMS[family].items() if k != "seed"}
        if "eps0" in takes:
            takes["eps_rule"] = False
        check_family_keys(family, params, takes, "family_params")
        self.family_params = params
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
        rule = params.pop("eps_rule", "inv_sqrt_rho")
        if "eps0" in params:
            eps0 = params.pop("eps0")
            params["eps"] = eps0 / math.sqrt(rho) if rule == "inv_sqrt_rho" else eps0
        return params


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def _require(doc, key, where):
    if key not in doc:
        raise ValueError(f"{where}: missing required key {key!r}")
    return doc[key]


def load_plan(path) -> ScanPlan:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: plan must be a JSON object")
    extra = set(doc) - {f.name for f in fields(ScanPlan)}
    if extra:
        raise ValueError(f"{path}: unknown plan keys {sorted(extra)}")
    missing = {f.name for f in fields(ScanPlan) if f.default is MISSING} - set(doc)
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


def run_config(cfg: dict, model, where: str = "config") -> Trajectory:
    """Run a ``simulate`` config dict on model, records only; ``where`` names it in errors."""
    integrator_keys = IntegratorConfig.__dataclass_fields__.keys()
    extra = set(cfg) - {"potential", "state", "rho", "L", "M", "t_final",
                        "stride"} - integrator_keys
    if extra:
        raise ValueError(f"{where}: unknown config keys {sorted(extra)}")

    block = _require(cfg, "state", where)
    if not isinstance(block, dict):
        raise ValueError(f"{where}: state must be a JSON object")
    params = dict(block)
    if "snapshot" in params:
        path = params.pop("snapshot")
        if params:
            raise ValueError(f"{where}: a snapshot state takes no other keys {sorted(params)}")
        state = load_state(path)
        # a top-level rho, L or M must agree with the snapshot it would describe
        for key, have in (("rho", state.rho), ("L", state.lattice.L), ("M", state.lattice.M)):
            if key in cfg:
                given = (as_int if key == "M" else as_real)(cfg[key], key)
                if given != have:
                    raise ValueError(f"{where}: {key} = {given!r} disagrees with the "
                                     f"snapshot's {key} = {have!r}")
    else:
        lattice = TorusLattice(_require(cfg, "L", where), _require(cfg, "M", where))
        family = params.pop("family", None)
        if family is None:
            raise ValueError(f"{where}: state block needs 'family' or 'snapshot'")
        state = make_state(family, lattice, _require(cfg, "rho", where), **params)

    _require(cfg, "dt", where)
    config = IntegratorConfig(**{k: cfg[k] for k in integrator_keys if k in cfg})
    return evolve(state, model, _require(cfg, "t_final", where), config,
                  stride=cfg.get("stride", 1), keep_states=False)


def point_config(plan: ScanPlan, i_rho: int, i_L: int) -> dict:
    """Point (i_rho, i_L) as a simulate config, seeded [master_seed, i_rho, i_L] if perturbed."""
    rho = plan.rho_values[i_rho]
    L = plan.L_values[i_L]
    state = {"family": plan.family, **plan.resolve_params(rho)}
    if STATE_FAMILIES[plan.family] == "perturbed_condensate":
        state["seed"] = [plan.master_seed, i_rho, i_L]
    return {"potential": plan.potential, "state": state, "rho": rho, "L": L,
            "M": plan.cutoff(L), "dt": plan.dt, "t_final": plan.t_final,
            "method": plan.method, "stride": plan.stride}


def _run_point(plan: ScanPlan, model, i_rho: int, i_L: int, out_dir) -> ScanRecord:
    cfg = point_config(plan, i_rho, i_L)
    rho, L = cfg["rho"], cfg["L"]
    rec = ScanRecord(rho=rho, L=L, M=cfg["M"], seed=f"{plan.master_seed}:{i_rho}:{i_L}")
    started = time.perf_counter()
    try:
        traj = run_config(cfg, model)
        final = traj.records[-1]
        for source in (final, diagnostics.run_report(traj)):
            for name in SCAN_COLUMNS:
                if name in source.__dataclass_fields__:
                    setattr(rec, name, getattr(source, name))
        rec.n_particles = rho * L**3
        rec.final_t = final.t
        rec.energy_gap = abs(final.energy_per_particle - 0.5 * model.b)

        if out_dir is not None and plan.write_trajectories:
            diagnostics.write_trajectory_csv(
                traj.records, os.path.join(out_dir, _trajectory_filename(rho, L)))
    except Exception as exc:  # failure isolation: the scan must continue
        rec.status = f"failed: {type(exc).__name__}: {exc}"
    rec.runtime_s = time.perf_counter() - started
    return rec


def _run_share(plan: ScanPlan, model, share, out_dir, conn):
    """A forked worker's body: run its points and send the (point, row) pairs home."""
    conn.send([(ij, _run_point(plan, model, *ij, out_dir)) for ij in share])


def run_scan(plan: ScanPlan, out_dir=None, workers: int = 1) -> list:
    """Execute all plan points; rows come back rho-major, then L.

    Per-point failures are recorded in the row's status and do not stop
    the scan.  When ``out_dir`` is given, writes table.csv, summary.json,
    and one trajectory CSV per point.

    With ``workers`` = n > 1, min(n, points) forked children run the
    points: sorted largest M first, child k takes every n-th one from the
    k-th, and the rows are put back in plan order.  A child that dies
    raises ``ChildProcessError`` and nothing more is written.  Fork is
    required: a spawned child would pay the package import (~0.2 s,
    mostly numpy's) again.  Fork copies only the calling thread, so no
    other thread of the caller may hold a lock the points take (the
    kernel cache's, say) while the children start.
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

    points = [(i, j) for i in range(len(plan.rho_values)) for j in range(len(plan.L_values))]
    if workers == 1:
        records = [_run_point(plan, model, i, j, out_dir) for i, j in points]
    else:
        # the largest (slowest) points first, dealt round robin, so none starts last
        by_cost = sorted(points, key=lambda ij: -plan.cutoff(plan.L_values[ij[1]]))
        n = min(workers, len(points))
        children, done = [], {}
        for share in (by_cost[k::n] for k in range(n)):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_run_share, args=(plan, model, share, out_dir, send))
            child.start()
            send.close()  # the child then holds the only copy, so its death reads as EOF
            children.append((child, recv))
        for child, recv in children:  # a child blocks on send until its pipe is read
            with recv, contextlib.suppress(EOFError):
                done.update(recv.recv())
            child.join()
        codes = [child.exitcode for child, _ in children]
        if any(codes) or len(done) < len(points):
            raise ChildProcessError(f"worker exit codes {codes}")
        records = [done[ij] for ij in points]

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
    best = {rho: max((r for r in ok if r.rho == rho), key=lambda r: r.L) for rho in rhos}
    out_columns = {}
    for col in columns:
        proxies = [{"rho": rho, "L": r.L, "value": getattr(r, col)} for rho, r in best.items()]
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
