"""Acceptance gate: end-to-end checks of the toolkit's core guarantees.

Each test is one gate with frozen parameters and tolerances.  They are
ordered from integrator basics to the full scan harness; all must pass
for a release.  Scenario constants are deliberately inlined so a change
in behavior cannot hide behind a shared helper.
"""

import math
import time

import numpy as np
import pytest

from torus_hartree import (
    IntegratorConfig,
    ScanPlan,
    TorusLattice,
    autocorrelation,
    energy_per_particle,
    envelope_audit,
    evolve,
    lifespan_guard,
    make_state,
    picard_solve,
    plane_wave_comparison,
    pointwise_product,
    random_state,
    rhs,
    run_scan,
    step_split,
    t_sum,
    time_reversal,
    to_physical,
    wiener_norm,
)
from torus_hartree.scan import _trajectory_filename

from hartree_reference import B_GAUSS


def test_01_mass_and_energy_conservation(gaussian):
    started = time.perf_counter()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 4), 10.0,
                       eps=0.1, s=4.0, seed=2)
    horizon = 0.1 / B_GAUSS
    drift = {}
    for dt in (1e-3, 5e-4):
        traj = evolve(state, gaussian, horizon, IntegratorConfig(dt=dt),
                      keep_states=False)
        mass_dev = max(abs(r.mass - 1.0) for r in traj.records)
        e0 = traj.records[0].energy
        drift[dt] = max(abs(r.energy - e0) / abs(e0) for r in traj.records)
        assert mass_dev <= 1e-9
        assert drift[dt] <= 1e-6
    order = math.log2(drift[1e-3] / drift[5e-4])
    assert order >= 1.9
    assert time.perf_counter() - started <= 60.0
    print(f"PASS conservation: drift={drift[1e-3]:.3e}, order={order:.2f}")


def test_02_plane_wave_phase(gaussian):
    lat = TorusLattice(4.0, 2)
    state = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0))
    dt, n_steps = 1e-4, 10_000
    for _ in range(n_steps):
        state = step_split(state, gaussian, dt)
    omega = 4 * math.pi**2 / 16.0 + B_GAUSS
    exact = np.exp(-1j * omega * dt * n_steps)
    idx = lat.index_of((1, 0, 0))
    err = abs(state.alpha[idx] - exact)
    assert err <= 1e-10
    rest = state.alpha.copy()
    rest[idx] = 0.0
    assert np.max(np.abs(rest)) <= 1e-10
    print(f"PASS plane wave: phase error {err:.3e} after {n_steps} steps")


def test_03_integrator_oracles(gaussian):
    started = time.perf_counter()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.05, s=6.0, seed=5)
    t = 0.1 * lifespan_guard(state, gaussian).guard
    fine = state
    for _ in range(256):
        fine = step_split(fine, gaussian, t / 256.0)
    oracle = picard_solve(state, gaussian, t)
    dist = float(np.sqrt(np.sum(np.abs(oracle.alpha - fine.alpha) ** 2)))
    assert dist <= 1e-7

    wide = make_state("perturbed_condensate", TorusLattice(4.0, 4), 10.0,
                      eps=0.05, s=6.0, seed=6)
    err = float(np.max(np.abs(rhs(wide, gaussian, "direct")
                              - rhs(wide, gaussian, "fft"))))
    assert err <= 1e-10
    assert time.perf_counter() - started <= 120.0
    print(f"PASS oracles: picard vs split {dist:.3e}, rhs routes {err:.3e}")


def test_04_autocorrelation_identities():
    lat = TorusLattice(4.0, 2)
    worst = {"center": 0.0, "hermitian": 0.0, "bound": -np.inf, "quartic": 0.0}
    for seed in range(100):
        state = random_state(lat, rho=10.0, seed=seed)
        corr = autocorrelation(state)
        beta = corr.beta
        mags = np.abs(beta)
        center = corr.lattice.index_of((0, 0, 0))
        worst["center"] = max(worst["center"], abs(beta[center] - 1.0))
        worst["hermitian"] = max(worst["hermitian"], float(np.max(np.abs(
            beta - np.conj(beta[::-1, ::-1, ::-1])))))
        worst["bound"] = max(worst["bound"], float(np.max(mags)) - 1.0)
        psi = to_physical(state, g=2)
        quartic = float(np.mean(np.abs(psi) ** 4)) * lat.L**3 \
            / (state.rho**2 * lat.L**3)
        lhs = float(np.sum(mags**2))
        worst["quartic"] = max(worst["quartic"],
                               abs(lhs - quartic) / quartic)
    assert worst["center"] <= 1e-12
    assert worst["hermitian"] <= 1e-14
    assert worst["bound"] <= 1e-12
    assert worst["quartic"] <= 1e-12
    print(f"PASS autocorrelation: worst deviations {worst}")


def test_05_product_norm_inequality():
    lat = TorusLattice(4.0, 2)
    worst = -np.inf
    for seed in range(100):
        f = random_state(lat, seed=seed)
        g = random_state(lat, seed=10_000 + seed)
        lhs = wiener_norm(pointwise_product(f, g), 2)
        bound = (4.0 / 3.0) * wiener_norm(f, 2) * wiener_norm(g, 2) + 1e-9
        worst = max(worst, lhs - bound)
    assert worst <= 0.0

    ext = TorusLattice(2.0 * math.pi * math.sqrt(2.0), 1)
    f = make_state("plane_wave", ext, 1.0, k0=(1, 0, 0))
    ratio = wiener_norm(pointwise_product(f, f), 2) / wiener_norm(f, 2) ** 2
    assert ratio >= 1.2
    print(f"PASS product norm: margin {worst:.3e}, extremal ratio {ratio:.4f}")


def test_06_growth_envelopes(gaussian):
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.05, s=6.0, seed=9)
    traj = evolve(state, gaussian, 0.2 / B_GAUSS,
                  IntegratorConfig(dt=2.5e-4), stride=4, keep_states=True)
    audit = envelope_audit(traj)
    assert audit["passed"]
    assert audit["flags"] == 0
    assert all(e["in_domain"] for e in audit["records"])

    ctx = traj.context
    cmp = plane_wave_comparison(traj, ctx.k0, ctx.theta, gaussian)
    u, env, ts = cmp["u_mass_sq"], cmp["mass_envelope"], cmp["t"]
    assert np.all(u <= env + 1e-12)
    literal = u[0] * np.exp(
        6 * B_GAUSS * ts
        + (2 - 2 * np.sqrt(1 - 2 * ctx.s0**2 * B_GAUSS * ts)) / ctx.s0)
    np.testing.assert_allclose(env, literal, rtol=1e-12)
    print(f"PASS envelopes: {len(audit['records'])} records, "
          f"max u/envelope = {np.max(u / env):.6f}")


def test_07_escaping_mode_energy_ladder(gaussian):
    rho, a = 10.0, 0.375
    kin_limit = 4 * math.pi**2 * rho**0.75 / (rho + 1.0)
    t_limit = 4 * math.pi**2 * rho**0.75 / math.sqrt(rho + 1.0)
    kin_ratios, t_ratios = [], []
    for L in (8.0, 16.0, 32.0):
        n_esc = math.floor(rho**a * L)
        lat = TorusLattice(L, n_esc + 1)
        state = make_state("two_mode", lat, rho, escape_exponent=a)
        kinetic = float(lat.ordered_sum(lat.omega * np.abs(state.alpha) ** 2))
        kin_ratios.append(kinetic / kin_limit)
        t_ratios.append(t_sum(state) / t_limit)
    # floor(rho^a L) / (rho^a L) -> 1, so the ladder climbs toward the limit
    assert kin_ratios == sorted(kin_ratios)
    assert t_ratios == sorted(t_ratios)
    assert abs(kin_ratios[-1] - 1.0) <= 0.05
    assert abs(t_ratios[-1] - 1.0) <= 0.05

    pw = make_state("plane_wave", TorusLattice(4.0, 2), 10.0, k0=(1, 0, 0))
    expected = 4 * math.pi**2 / 16.0 + B_GAUSS / 2.0
    assert abs(energy_per_particle(pw, gaussian) - expected) <= 1e-10
    print(f"PASS energy ladder: kinetic ratios {kin_ratios}")


def test_08_density_ladder_trends(tmp_path):
    started = time.perf_counter()
    plan = ScanPlan(potential={"family": "gaussian"},
                    rho_values=[10.0, 100.0, 1000.0],
                    L_values=[4.0, 8.0, 16.0],
                    family="perturbed",
                    family_params={"eps0": 0.1, "s": 6.0},
                    t_final=0.1 / B_GAUSS, dt=5e-4, stride=4, master_seed=7,
                    write_trajectories=False)
    records = run_scan(plan, out_dir=tmp_path / "scan", workers=4)
    assert all(r.status == "ok" for r in records)
    largest_L = [r for r in records if r.L == 16.0]
    assert [r.rho for r in largest_L] == [10.0, 100.0, 1000.0]
    beta_gaps = [r.beta_gap for r in largest_L]
    energy_gaps = [r.energy_gap for r in largest_L]
    assert beta_gaps[0] > beta_gaps[1] > beta_gaps[2]
    assert energy_gaps[0] > energy_gaps[1] > energy_gaps[2]
    assert time.perf_counter() - started <= 600.0
    print(f"PASS trends: beta_gap {beta_gaps}, energy_gap {energy_gaps}")


def test_09_time_reversal_round_trip(gaussian):
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.08, s=6.0, seed=3)
    config = IntegratorConfig(dt=1e-3)
    forward = evolve(state, gaussian, 0.02, config,
                     keep_states=False).final_state
    back = evolve(time_reversal(forward), gaussian, 0.02, config,
                  keep_states=False).final_state
    loop = time_reversal(back)
    dist = float(np.sqrt(np.sum(np.abs(loop.alpha - state.alpha) ** 2)))
    assert dist <= 1e-8
    print(f"PASS time reversal: round-trip distance {dist:.3e}")


def test_10_scan_determinism(tmp_path):
    plan = ScanPlan(potential={"family": "gaussian"},
                    rho_values=[1.0, 2.0], L_values=[2.0, 4.0],
                    family="perturbed",
                    family_params={"eps0": 0.2, "s": 6.0},
                    t_final=2e-3, dt=1e-3, master_seed=3)
    outputs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        run_scan(plan, out_dir=out, workers=workers)
        outputs[workers] = out
    for rho in (1.0, 2.0):
        for L in (2.0, 4.0):
            name = _trajectory_filename(rho, L)
            a = (outputs[1] / name).read_bytes()
            b = (outputs[4] / name).read_bytes()
            assert a == b, f"trajectory {name} differs across worker counts"
    strip = lambda text: [line.rsplit(",", 1)[0]
                          for line in text.splitlines()]
    assert strip((outputs[1] / "table.csv").read_text()) == \
        strip((outputs[4] / "table.csv").read_text())
    print("PASS determinism: 4 trajectories byte-identical for 1 vs 4 workers")
