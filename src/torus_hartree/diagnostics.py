"""Scalar observables, analytic envelopes, and closed-form bound calculators.

Everything here is a pure function of states and model constants.  The
per-time observables are collected in DiagnosticsRecord; the Gronwall
envelopes and the excitation/energy bound calculators take plain scalars
so synthetic inputs can be audited independently of any simulation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, dataclass, fields as dataclass_fields

import numpy as np
import scipy.fft

from .field import SpectralState, _get_kernel, s_sum, t_sum, to_physical
from .potential import PotentialModel, as_real, vhat_grid

__all__ = [
    "DiagnosticsRecord",
    "TrajectoryContext",
    "BoundInputs",
    "EnvelopeDomainError",
    "CSV_COLUMNS",
    "energy",
    "energy_per_particle",
    "energy_physical",
    "s_envelope",
    "t_envelope",
    "u_mass_envelope",
    "envelope_audit",
    "plane_wave_comparison",
    "omega_coefficient",
    "excitation_bound",
    "quasi_vacuum_energy_bound",
    "tail_sum",
    "kinetic_tail",
    "assumption_check",
    "make_record",
    "format_float",
    "write_csv",
    "write_trajectory_csv",
]


class EnvelopeDomainError(ValueError):
    """Envelope evaluated at or beyond its blow-up time."""


# ---------------------------------------------------------------------------
# energy

def _energy_and_beta_sq(state: SpectralState, model: PotentialModel):
    """Energy per particle and |beta|^2 from one synthesis on the integrator's grid.

    The kernel grid (G >= 4M+2) resolves the density |phi|^2 of the
    unit-density field without aliasing, so beta = fftn(|phi|^2) / G^3 is
    the exact autocorrelation; |beta|^2 is returned flat, beta(0) first.
    """
    lat = state.lattice
    kernel = _get_kernel(model, lat)
    phi = kernel.field(state.alpha)
    beta = scipy.fft.fftn(phi.real**2 + phi.imag**2, norm="forward")
    beta_sq = beta.real**2 + beta.imag**2
    kinetic = lat.ordered_sum(lat.omega * np.abs(state.alpha) ** 2)
    return kinetic + 0.5 * float(np.sum(kernel.vhat * beta_sq)), beta_sq.ravel()


def energy_per_particle(state: SpectralState, model: PotentialModel) -> float:
    """E / (rho L^3): kinetic sum plus half the Vhat-weighted |beta|^2 sum."""
    return _energy_and_beta_sq(state, model)[0]


def energy(state: SpectralState, model: PotentialModel) -> float:
    """Hartree energy rho L^3 sum_n [omega_n |alpha|^2 + Vhat |beta|^2 / 2]."""
    return state.rho * state.lattice.L**3 * energy_per_particle(state, model)


def energy_physical(state: SpectralState, model: PotentialModel, g: int = 2) -> float:
    """Grid-quadrature route to the same energy, used as a cross-check.

    Integrates |grad Psi|^2 plus (V_L * |Psi|^2) |Psi|^2 / (2 rho) on the
    g-times oversampled collocation grid (g = 2 is alias-free for the
    quartic term).
    """
    lat = state.lattice
    G = int(g) * lat.size
    idx = lat.embed_indexer(G)
    psi = to_physical(state, g)

    grad_sq = np.zeros(psi.shape, dtype=float)
    scale = math.sqrt(state.rho) * G**3
    pref = 2j * math.pi / lat.L
    n = lat.n1d
    for axis_modes in (n[:, None, None], n[None, :, None], n[None, None, :]):
        cube = np.zeros((G, G, G), dtype=complex)
        cube[idx] = state.alpha * (pref * axis_modes)
        d = scale * np.fft.ifftn(cube)
        grad_sq += np.abs(d) ** 2

    dens = np.abs(psi) ** 2
    vhat = vhat_grid(model, lat.L, np.fft.fftfreq(G, 1.0 / G), limit=2 * lat.M)
    w = np.fft.ifftn(np.fft.fftn(dens) * vhat).real

    vol = lat.L**3
    kinetic = vol * float(np.mean(grad_sq))
    interaction = vol * float(np.mean(w * dens)) / (2.0 * state.rho)
    return kinetic + interaction


# ---------------------------------------------------------------------------
# envelopes

def _gamma(s0: float, b: float, t: float) -> float:
    g = 1.0 - 2.0 * s0 * s0 * b * t
    if g <= 0.0:
        raise EnvelopeDomainError(
            f"t = {t:.6g} at or beyond envelope blow-up time "
            f"{1.0 / (2.0 * s0 * s0 * b):.6g}")
    return g


def s_envelope(s0: float, b: float, t: float) -> float:
    """Absolute-sum envelope S0 / sqrt(1 - 2 S0^2 b t); valid below blow-up."""
    return s0 / math.sqrt(_gamma(s0, b, t))


def t_envelope(s0: float, t0: float, b: float, c: float, t: float) -> float:
    """Kinetic-sum envelope T0/g + (8C/27b) S0 (g^-3/2 - g^-1), g = 1-2 S0^2 b t."""
    g = _gamma(s0, b, t)
    return t0 / g + (8.0 * c / (27.0 * b)) * s0 * (g**-1.5 - 1.0 / g)


def u_mass_envelope(u0_mass_sq: float, s0: float, b: float, t: float) -> float:
    """Comparison-mass envelope u0 * exp(6 b t + (2 - 2 sqrt(g)) / S0)."""
    g = _gamma(s0, b, t)
    return u0_mass_sq * math.exp(6.0 * b * t + (2.0 - 2.0 * math.sqrt(g)) / s0)


# ---------------------------------------------------------------------------
# tails and condensate metrics

def tail_sum(state: SpectralState, m_prime: float) -> float:
    """sum of |alpha(m)| over Euclidean radius |m| > m_prime."""
    lat = state.lattice
    mask = lat.norm_sq > float(m_prime) ** 2
    return lat.ordered_sum(np.abs(state.alpha) * mask)


def kinetic_tail(state: SpectralState, c: float = 1.0) -> float:
    """sum of omega_m |alpha(m)| over |m| > c L.

    The constant c is existential in the underlying assumption, so it is
    exposed as a parameter rather than chosen here.
    """
    lat = state.lattice
    mask = lat.norm_sq > (float(c) * lat.L) ** 2
    return lat.ordered_sum(lat.omega * np.abs(state.alpha) * mask)


def assumption_check(state: SpectralState, m_list=None, c: float = 1.0) -> dict:
    """Tabulate tail sums and the kinetic tail for initial-data screening."""
    lat = state.lattice
    if m_list is None:
        m_list = sorted({math.ceil(lat.M / 4), math.ceil(lat.M / 2), lat.M})
    return {
        "S": s_sum(state),
        "T": t_sum(state),
        "tails": [{"radius": float(m), "value": tail_sum(state, m)} for m in m_list],
        "kinetic_tail": {"c": float(c), "threshold": float(c) * lat.L,
                         "value": kinetic_tail(state, c)},
    }


# ---------------------------------------------------------------------------
# per-time record

@dataclass(frozen=True)
class DiagnosticsRecord:
    """Observables at one instant; the fields without a default are the
    trajectory CSV columns, in order."""

    t: float
    mass: float
    energy: float
    energy_per_particle: float
    S: float
    T: float
    k_star: tuple
    condensate_fraction: float
    l1_dev: float
    l2_dev: float
    tail_half_M: float
    beta_gap: float
    s_envelope: float
    t_envelope: float
    u_mass_sq: float
    u_mass_envelope: float
    kinetic_tail: float = math.nan


CSV_COLUMNS = [f.name for f in dataclass_fields(DiagnosticsRecord)
               if f.default is MISSING]


@dataclass(frozen=True)
class TrajectoryContext:
    """Reference data frozen at the start time t0 for envelopes and the
    comparison wave; both are evaluated at the elapsed time t - t0, so a
    run resumed from a snapshot counts from the snapshot's t."""

    s0: float
    t0_kin: float
    b: float
    c_decay: float
    k0: tuple
    theta: float
    u0_mass_sq: float
    t0: float = 0.0

    @classmethod
    def from_state(cls, state: SpectralState, model: PotentialModel,
                   k0=None, theta=None) -> "TrajectoryContext":
        lat = state.lattice
        a = np.abs(state.alpha)
        if k0 is None:
            k0 = _argmax_mode(lat, a)
        idx = lat.index_of(k0)
        if theta is None:
            theta = float(np.angle(state.alpha[idx]))
        u0 = lat.ordered_sum(_wave_deviation(lat, state.alpha, k0, theta) ** 2)
        return cls(s0=s_sum(state), t0_kin=t_sum(state), b=model.b,
                   c_decay=model.C, k0=tuple(int(v) for v in np.asarray(k0).reshape(3)),
                   theta=float(theta), u0_mass_sq=u0, t0=state.t)


def _wave_deviation(lattice, alpha, k, phase):
    """|alpha - exp(i phase) delta_k| per site: distance to a plane wave."""
    u = alpha.copy()
    u[lattice.index_of(k)] -= np.exp(1j * phase)
    return np.abs(u)


def _comparison_wave(state: SpectralState, ctx: TrajectoryContext):
    """omega_L = 4 pi^2 |k0|^2 / L^2 + b and the per-site |u|^2 at state.t,
    where u = alpha - exp(i (theta - omega_L (t - t0))) delta_k0."""
    lat = state.lattice
    k0 = np.asarray(ctx.k0)
    omega_l = 4.0 * math.pi**2 * float(k0 @ k0) / lat.L**2 + ctx.b
    phase = ctx.theta - omega_l * (state.t - ctx.t0)
    return omega_l, _wave_deviation(lat, state.alpha, k0, phase) ** 2


def _argmax_mode(lattice, a_abs):
    flat = int(np.argmax(a_abs))
    i, j, k = np.unravel_index(flat, lattice.shape)
    M = lattice.M
    return (int(i) - M, int(j) - M, int(k) - M)


def make_record(state: SpectralState, model: PotentialModel,
                context: TrajectoryContext | None = None) -> DiagnosticsRecord:
    lat = state.lattice
    a = state.alpha
    a_abs = np.abs(a)
    mass = lat.ordered_sum(a_abs**2)
    k_star = _argmax_mode(lat, a_abs)
    idx = lat.index_of(k_star)
    a_star = float(a_abs[idx])
    theta_star = float(np.angle(a[idx]))
    dabs = _wave_deviation(lat, a, k_star, theta_star)
    l1_dev = lat.ordered_sum(dabs)
    l2_dev = math.sqrt(lat.ordered_sum(dabs**2))

    tail_half = tail_sum(state, math.ceil(lat.M / 2))
    ktail = kinetic_tail(state, 1.0)

    epp, beta_sq = _energy_and_beta_sq(state, model)
    e_total = state.rho * lat.L**3 * epp
    beta_gap = float(np.sum(beta_sq[1:]) + abs(beta_sq[0] - 1.0))

    s_env = t_env = u_env = u_mass = math.nan
    if context is not None:
        elapsed = state.t - context.t0
        try:
            s_env = s_envelope(context.s0, context.b, elapsed)
            t_env = t_envelope(context.s0, context.t0_kin, context.b,
                               context.c_decay, elapsed)
            u_env = u_mass_envelope(context.u0_mass_sq, context.s0,
                                    context.b, elapsed)
        except EnvelopeDomainError:
            pass  # past blow-up the envelopes carry no information
        _, uabs2 = _comparison_wave(state, context)
        u_mass = lat.ordered_sum(uabs2)

    return DiagnosticsRecord(
        t=state.t, mass=mass, energy=e_total, energy_per_particle=epp,
        S=s_sum(state), T=t_sum(state), k_star=k_star,
        condensate_fraction=a_star**2, l1_dev=l1_dev, l2_dev=l2_dev,
        tail_half_M=tail_half, beta_gap=beta_gap,
        s_envelope=s_env, t_envelope=t_env,
        u_mass_sq=u_mass, u_mass_envelope=u_env, kinetic_tail=ktail,
    )


def _drift(records):
    """(max |mass - 1|, max relative energy drift) over a record stream; the
    drift is NaN when the first energy is 0 or not finite."""
    e0 = records[0].energy
    drift = math.nan
    if math.isfinite(e0) and e0 != 0.0:
        drift = max(abs(r.energy - e0) / abs(e0) for r in records)
    return max(abs(r.mass - 1.0) for r in records), drift


# ---------------------------------------------------------------------------
# envelope audit and comparison wave

def envelope_audit(trajectory, tolerance_base: float = 1e-6) -> dict:
    """Compare recorded S, T against their envelopes.

    The per-record tolerance is tolerance_base plus the reported
    truncation tail (truncated sums underestimate the full ones), and
    both raw and tail-corrected margins are reported.  The envelopes run
    from the context's start time t0, so blowup_time, on the record clock,
    is t0 + 1 / (2 S0^2 b); records at or beyond it are skipped.
    """
    ctx = trajectory.context
    lifespan = 1.0 / (2.0 * ctx.s0**2 * ctx.b)
    entries = []
    flags = 0
    for rec in trajectory.records:
        elapsed = rec.t - ctx.t0
        if elapsed >= lifespan:
            entries.append({"t": rec.t, "in_domain": False})
            continue
        tol = tolerance_base + rec.tail_half_M
        s_margin = s_envelope(ctx.s0, ctx.b, elapsed) - rec.S
        t_margin = t_envelope(ctx.s0, ctx.t0_kin, ctx.b, ctx.c_decay, elapsed) - rec.T
        s_flag = s_margin < -tol
        t_flag = t_margin < -tol
        flags += int(s_flag) + int(t_flag)
        entries.append({
            "t": rec.t, "in_domain": True, "tolerance": tol,
            "s_margin": s_margin, "s_margin_corrected": s_margin + tol,
            "t_margin": t_margin, "t_margin_corrected": t_margin + tol,
            "s_flag": s_flag, "t_flag": t_flag,
        })
    return {"passed": flags == 0, "flags": flags, "blowup_time": ctx.t0 + lifespan,
            "records": entries}


def plane_wave_comparison(trajectory, k0, theta: float, model: PotentialModel) -> dict:
    """Deviation from the exact plane-wave solution along a trajectory.

    The comparison wave is sqrt(rho) exp(i (2 pi k0 x / L - omega_L t + theta))
    with omega_L = 4 pi^2 |k0|^2 / L^2 + b.  Returns per-time arrays of
    the squared mass and gradient of u = Psi - Phi (per rho L^3) and the
    Gronwall mass envelope seeded by the first state; t in both counts
    from the first state's time.
    """
    states = trajectory.states
    if not states:
        raise ValueError("trajectory carries no states; rerun with keep_states")
    ctx = TrajectoryContext.from_state(states[0], model, k0, theta)
    lat = states[0].lattice

    ts, masses, grads, envs = [], [], [], []
    for st in states:
        omega_l, uabs2 = _comparison_wave(st, ctx)
        ts.append(st.t)
        masses.append(lat.ordered_sum(uabs2))
        grads.append(lat.ordered_sum(lat.omega * uabs2))
        envs.append(u_mass_envelope(ctx.u0_mass_sq, ctx.s0, ctx.b, st.t - ctx.t0))
    return {"t": np.array(ts), "u_mass_sq": np.array(masses),
            "u_grad_sq": np.array(grads), "mass_envelope": np.array(envs),
            "omega_l": omega_l, "u0_mass_sq": ctx.u0_mass_sq}


# ---------------------------------------------------------------------------
# scalar bound calculators

@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs for the excitation and quasi-vacuum bounds.

    n: excitation fraction, e: energy-consistency gap per particle,
    h_xi: quasi-vacuum energy per rho L^3, s_inf and d_inf: sup norms of
    the field and its Laplacian over sqrt(rho), b and v2: potential
    norms, plus rho and L.  All are finite and >= 0; rho and b are > 0.
    """

    n: float
    e: float
    h_xi: float
    s_inf: float
    d_inf: float
    b: float
    v2: float
    rho: float
    L: float

    def __post_init__(self):
        for f in dataclass_fields(self):
            v = as_real(getattr(self, f.name), f"BoundInputs.{f.name}")
            object.__setattr__(self, f.name, v)
            if v < 0.0:
                raise ValueError(f"BoundInputs.{f.name} must be non-negative")
            if v == 0.0 and f.name in ("rho", "b"):
                raise ValueError(f"BoundInputs.{f.name} must be positive")


def omega_coefficient(s0: float, t0: float, b: float, v2: float,
                      c: float, horizon: float) -> float:
    """Gronwall rate max(1, h) with the envelope values at the horizon.

    h collects the generator brackets: 4(2b+v2^2) b^2 S^6 + 4 b^2 S^4
    + (16 b + 33 v2^2 / 8) S^2 + 4 (2b+v2^2) T^2 + 6 b S T.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    s = s_envelope(s0, b, horizon)
    tk = t_envelope(s0, t0, b, c, horizon)
    v2sq = v2 * v2
    h = (4.0 * (2.0 * b + v2sq) * b * b * s**6
         + 4.0 * b * b * s**4
         + (16.0 * b + (33.0 / 8.0) * v2sq) * s**2
         + 4.0 * (2.0 * b + v2sq) * tk * tk
         + 6.0 * b * s * tk)
    return max(1.0, h)


def excitation_bound(inputs: BoundInputs, omega: float, t: float) -> float:
    """Excitation-number fraction bound e^{wt}(2 h_xi + ((5b + v2^2/4) s_inf^2
    + 1) n) + (2 e^{wt} - 1)/rho."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    ewt = math.exp(omega * t)
    core = 2.0 * inputs.h_xi + ((5.0 * inputs.b + inputs.v2**2 / 4.0)
                                * inputs.s_inf**2 + 1.0) * inputs.n
    return ewt * core + (2.0 * ewt - 1.0) / inputs.rho


def quasi_vacuum_energy_bound(inputs: BoundInputs, e: float | None = None) -> float:
    """Quasi-vacuum energy fraction bound 2e + 1/rho + (14b + v2^2) s_inf^2 n
    + 2 (d_inf + b s_inf^3) sqrt(n); e defaults to inputs.e."""
    e_val = inputs.e if e is None else float(e)
    return (2.0 * e_val + 1.0 / inputs.rho
            + (14.0 * inputs.b + inputs.v2**2) * inputs.s_inf**2 * inputs.n
            + 2.0 * (inputs.d_inf + inputs.b * inputs.s_inf**3) * math.sqrt(inputs.n))


# ---------------------------------------------------------------------------
# CSV serialization of record streams

def format_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):  # a lattice mode such as k_star
        return " ".join(str(int(v)) for v in value)
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def write_csv(records, columns, path):
    """Header plus one row per record, taking each column from the attribute
    of that name: floats with 17 significant digits ("nan" for NaN), ints
    and strings verbatim, modes as space-separated integers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(getattr(rec, c)) for c in columns]
                         for rec in records)


def write_trajectory_csv(records, path):
    """One row per DiagnosticsRecord, columns CSV_COLUMNS."""
    write_csv(records, CSV_COLUMNS, path)
