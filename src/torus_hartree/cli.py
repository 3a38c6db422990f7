"""Command-line frontend.

All numerics live in the library modules; this is a thin shell mapping subcommands
to them (bound-report reads a potential and a state as simulate does, and
diagnostics.bound_inputs derives its constants).  Exit codes: 0 success, 1 IO error,
a scan worker process that died or memory exhaustion, 2 invalid flags or config
(unknown keys and non-finite numbers included), 3 verification failure or a numerical
failure (instability, Picard contraction or convergence), a simulate run whose report
is not ok or a scan with any row whose status is not ok (outputs are written first).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from . import diagnostics
from .diagnostics import (bound_inputs, excitation_bound, format_float,
                          omega_coefficient, quasi_vacuum_energy_bound,
                          run_report, write_trajectory_csv)
from .evolution import (ContractionError, ConvergenceError, InstabilityError,
                        IntegratorConfig, evolve, lifespan_guard,
                        picard_solve, rhs, step_split)
from .field import (FAMILY_PARAMS, STATE_FAMILIES, TorusLattice, _load_json, _require,
                    make_state, pointwise_product, random_state, save_state,
                    time_reversal, wiener_norm)
from .potential import GaussianPotential, _positive_finite, as_real, make_potential
from .scan import config_state, load_plan, run_config, run_scan

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _parse_k0(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--k0 expects three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--k0 expects integers: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

# make-state's optional flags and the make_state parameter each one sets
_STATE_FLAGS = {"theta": "theta", "eps": "eps", "s": "s", "seed": "seed",
                "escape": "escape_exponent"}


def _cmd_make_state(args):
    lattice = TorusLattice(args.L, args.M)
    params = {key: getattr(args, flag) for flag, key in _STATE_FLAGS.items()
              if getattr(args, flag) is not None}
    takes = FAMILY_PARAMS[STATE_FAMILIES[args.family]]
    unused = [f"--{flag}" for flag, key in _STATE_FLAGS.items()
              if key in params and key not in takes]
    if unused:
        raise ValueError(f"--family {args.family} takes no {', '.join(unused)}")
    missing = [f"--{flag}" for flag, key in _STATE_FLAGS.items()
               if takes.get(key) and key not in params]
    if missing:
        raise ValueError(f"--family {args.family} requires {', '.join(missing)}")
    state = make_state(args.family, lattice, args.rho, k0=_parse_k0(args.k0), **params)
    save_state(state, args.out, family=args.family, seed=args.seed)

    report = diagnostics.assumption_check(state)
    frac = float(np.max(np.abs(state.alpha)) ** 2)
    print(f"snapshot: {args.out}")
    print(f"mass: {format_float(state.mass)}")
    print(f"S: {format_float(report['S'])}")
    print(f"T: {format_float(report['T'])}")
    print(f"condensate_fraction: {format_float(frac)}")
    if args.family == "two-mode":
        w = args.rho / (args.rho + 1.0)
        print(f"weights: {format_float(w)} {format_float(1.0 - w)}")
    for entry in report["tails"]:
        print(f"tail({entry['radius']:g}): {format_float(entry['value'])}")
    kt = report["kinetic_tail"]
    print(f"kinetic_tail(c={kt['c']:g}): {format_float(kt['value'])}")
    return EXIT_OK


def _cmd_simulate(args):
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    model = make_potential(_require(cfg, "potential", args.config))
    traj, report = run_config(cfg, model, args.config)

    write_trajectory_csv(traj.records, args.out)
    if args.audit:
        with open(args.audit, "w", encoding="ascii") as fh:
            json.dump(report.flat(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.final_state:
        save_state(traj.final_state, args.final_state)

    final = traj.records[-1]
    print(f"wrote {args.out} ({len(traj.records)} records)")
    print(f"final: t={format_float(final.t)} mass={format_float(final.mass)} "
          f"energy={format_float(final.energy)} "
          f"condensate_fraction={format_float(final.condensate_fraction)}")
    if report.status != "ok":
        print(f"error: {report.status}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_bound_report(args):
    doc = _load_json(args.inputs)
    if not isinstance(doc, dict):
        raise ValueError(f"{args.inputs}: inputs must be a JSON object")
    scalars = ("n", "e", "h_xi", "horizon", "t")
    extra = set(doc) - {"potential", "state", "rho", "L", "M", *scalars}
    if extra:
        raise ValueError(f"{args.inputs}: unknown input keys {sorted(extra)}")
    n, e, h_xi, horizon, t = (as_real(_require(doc, key, args.inputs), key) for key in scalars)
    model = make_potential(_require(doc, "potential", args.inputs))
    inputs = bound_inputs(config_state(doc, args.inputs), model, n, e, h_xi)
    # each value is >= 1/rho > 0, so a bound that overflows is refused, never printed
    omega = _positive_finite(lambda: omega_coefficient(
        inputs.s_inf, inputs.d_inf, inputs.b, inputs.v2, model.C, horizon), "omega")
    if t > horizon:  # omega takes the envelopes at the horizon
        raise ValueError(f"t = {t!r} is past horizon = {horizon!r}, where omega ends")
    report = {
        "omega": omega,
        "excitation_bound": _positive_finite(
            lambda: excitation_bound(inputs, omega, t), "excitation_bound"),
        "quasi_vacuum_energy_bound": _positive_finite(
            lambda: quasi_vacuum_energy_bound(inputs), "quasi_vacuum_energy_bound"),
    }
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args):
    checks = SUITES[args.suite]()
    failed = 0
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed in suite {args.suite!r}")
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_scan(args):
    plan = load_plan(args.plan)
    records = run_scan(plan, out_dir=args.out, workers=args.workers)
    failed = sum(1 for r in records if r.status != "ok")
    print(f"wrote {args.out}/table.csv ({len(records)} rows, {failed} failed)")
    for rec in records:
        if rec.status != "ok":
            print(f"  rho={rec.rho:g} L={rec.L:g}: {rec.status}")
    if failed:
        print(f"error: {failed} of {len(records)} scan points did not run ok",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites: small fixed deterministic scenarios

def _suite_conservation():
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.05, s=6.0, seed=11)
    report = run_report(evolve(state, model, 0.02, IntegratorConfig(dt=1e-3),
                               stride=4, keep_states=False))
    return [
        ("mass conservation", report.max_mass_dev <= 1e-9,
         f"max |mass - 1| = {report.max_mass_dev:.3e}"),
        ("energy conservation", report.max_energy_drift <= 1e-6,
         f"max relative energy drift = {report.max_energy_drift:.3e}"),
    ]


def _suite_oracle():
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 2), 10.0,
                       eps=0.05, s=6.0, seed=5)
    d = rhs(state, model, "direct")
    f = rhs(state, model, "fft")
    err = float(np.max(np.abs(d - f)))

    t = 0.05 * lifespan_guard(state, model).guard
    fine = state
    for _ in range(256):
        fine = step_split(fine, model, t / 256.0)
    oracle = picard_solve(state, model, t)
    dist = float(np.sqrt(np.sum(np.abs(oracle.alpha - fine.alpha) ** 2)))
    return [
        ("rhs direct vs fft", err <= 1e-10, f"max coefficient diff = {err:.3e}"),
        ("picard vs fine split-step", dist <= 1e-7, f"l2 distance = {dist:.3e}"),
    ]


def _suite_envelopes():
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.05, s=6.0, seed=7)
    report = run_report(evolve(state, model, 0.1 / model.b, IntegratorConfig(dt=2.5e-4),
                               stride=5, keep_states=False))
    return [
        ("S/T Gronwall envelopes", report.audit["passed"],
         f"{report.audit['flags']} flags, min S margin = {report.min_s_margin:.3e}"),
    ]


def _suite_symmetry():
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.08, s=6.0, seed=3)
    cfg = IntegratorConfig(dt=1e-3)
    fwd = evolve(state, model, 0.02, cfg, keep_states=False).final_state
    back = evolve(time_reversal(fwd), model, 0.02, cfg,
                  keep_states=False).final_state
    loop = time_reversal(back)
    dist = float(np.sqrt(np.sum(np.abs(loop.alpha - state.alpha) ** 2)))
    return [
        ("time-reversal round trip", dist <= 1e-8, f"l2 distance = {dist:.3e}"),
    ]


def _suite_algebra():
    lat = TorusLattice(4.0, 2)
    worst = -np.inf
    for seed in range(20):
        f = random_state(lat, seed=seed)
        g = random_state(lat, seed=1000 + seed)
        lhs = wiener_norm(pointwise_product(f, g), 2)
        bound = (4.0 / 3.0) * wiener_norm(f, 2) * wiener_norm(g, 2) + 1e-9
        worst = max(worst, lhs - bound)

    ext_lat = TorusLattice(2.0 * np.pi * np.sqrt(2.0), 1)
    f = make_state("plane_wave", ext_lat, 1.0, k0=(1, 0, 0))
    ratio = wiener_norm(pointwise_product(f, f), 2) / wiener_norm(f, 2) ** 2
    return [
        ("Banach algebra inequality", worst <= 0.0,
         f"max (norm - bound) over 20 pairs = {worst:.3e}"),
        ("near-extremal pair ratio", ratio >= 1.2, f"ratio = {ratio:.6f}"),
    ]


SUITES = {
    "conservation": _suite_conservation,
    "oracle": _suite_oracle,
    "envelopes": _suite_envelopes,
    "symmetry": _suite_symmetry,
    "algebra": _suite_algebra,
}


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torus-hartree",
        description="Spectral simulation and bound verification for the "
                    "Hartree equation on a periodic box.")
    sub = p.add_subparsers(dest="command", required=True)

    ms = sub.add_parser("make-state",
                        help="construct an initial state and write a snapshot")
    ms.add_argument("--family", required=True,
                    choices=["plane-wave", "two-mode", "perturbed"])
    ms.add_argument("--k0", default="0,0,0",
                    help="condensate mode as three comma-separated integers")
    ms.add_argument("--rho", type=float, required=True, help="density")
    ms.add_argument("--L", type=float, required=True, help="box side length")
    ms.add_argument("--M", type=int, required=True, help="lattice cutoff")
    ms.add_argument("--theta", type=float,
                    help="condensate phase (plane-wave, perturbed; default 0)")
    ms.add_argument("--eps", type=float, help="perturbation amplitude")
    ms.add_argument("--s", type=float, help="perturbation tail exponent")
    ms.add_argument("--seed", type=int, help="perturbation RNG seed")
    ms.add_argument("--escape", type=float,
                    help="escape exponent a for the two-mode family")
    ms.add_argument("--out", required=True, help="snapshot path to write")

    sim = sub.add_parser("simulate",
                         help="run a configured evolution, write trajectory CSV")
    sim.add_argument("--config", required=True, help="run config JSON")
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--audit", help="also write the run report JSON here")
    sim.add_argument("--final-state", dest="final_state",
                     help="also write the final snapshot here")

    ver = sub.add_parser("verify", help="run a built-in invariant suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))

    br = sub.add_parser("bound-report",
                        help="evaluate the closed-form bounds for a model and state")
    br.add_argument("--inputs", required=True, help="potential, state and scalars JSON")
    br.add_argument("--out", help="optional JSON output path")

    sc = sub.add_parser("scan", help="run a thermodynamic-limit scan plan")
    sc.add_argument("--plan", required=True, help="scan plan JSON")
    sc.add_argument("--out", required=True, help="output directory")
    sc.add_argument("--workers", type=int, default=1,
                    help="worker processes: this one runs the heaviest share and "
                         "min(n, points) - 1 forked children the rest; a one-point plan "
                         "forks nothing; rows stay in plan order (default: 1)")
    return p


_DISPATCH = {
    "make-state": _cmd_make_state,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "bound-report": _cmd_bound_report,
    "scan": _cmd_scan,
}


def _keep_freed_heap():
    """Let glibc keep freed step temporaries (2-5 MB grids at M=16) in the heap.

    By default it maps such arrays with mmap and trims freed heap, so every
    Strang step faulted its memory in again page by page.  Here arrays up to
    32 MiB come from the heap and up to 256 MiB of freed heap stays with the
    process; forked scan workers inherit this.  Without glibc it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help and flag errors
        code = exc.code
        return 0 if code is None else int(code)
    _keep_freed_heap()
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InstabilityError, ContractionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ChildProcessError as exc:  # an OSError, so caught first
        print(f"error: scan worker process died; no table.csv or summary.json "
              f"written ({exc})", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
