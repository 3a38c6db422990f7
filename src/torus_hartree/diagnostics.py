"""Scalar observables, analytic envelopes, and closed-form bound calculators.

Everything here is a pure function of states and model constants.  The
per-time observables are collected in DiagnosticsRecord; the Gronwall
envelopes and the excitation/energy bound calculators take plain scalars
so synthetic inputs can be audited independently of any simulation.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import MISSING, dataclass, fields as dataclass_fields

import numpy as np

from .field import (MASS_TOLERANCE, SpectralState, _get_kernel, _row_sums, s_sum, t_sum,
                    to_physical)
from .potential import GaussianPotential, _positive_finite, as_real, potential_l2, vhat_grid

__all__ = [
    "DiagnosticsRecord",
    "TrajectoryContext",
    "BoundInputs",
    "bound_inputs",
    "EnvelopeDomainError",
    "CSV_COLUMNS",
    "energy_per_particle",
    "energy_physical",
    "s_envelope",
    "t_envelope",
    "u_mass_envelope",
    "AUDIT_TOLERANCE",
    "MASS_TOLERANCE",
    "envelope_audit",
    "RunReport",
    "run_report",
    "plane_wave_comparison",
    "omega_coefficient",
    "excitation_bound",
    "quasi_vacuum_energy_bound",
    "tail_sum",
    "kinetic_tail",
    "assumption_check",
    "make_record",
    "make_records",
    "format_float",
    "write_csv",
    "write_trajectory_csv",
]


class EnvelopeDomainError(ValueError):
    """Envelope evaluated at or beyond its blow-up time."""


# ---------------------------------------------------------------------------
# energy

def _interactions_and_beta_gaps(alphas, kernel):
    """Interaction energy per particle and beta_gap of each array of an
    (R, n, n, n) coefficient stack, from one synthesis and one density pass
    on the record kernel's grid.

    The record grid (G >= 4M+1) resolves the density |phi|^2 of the
    unit-density field without aliasing, so beta = fftn(|phi|^2) / G^3 is
    the exact autocorrelation, and no spectrum is needed.  The interaction
    takes the step's circulant convolution of that density: half
    sum_k Vhat |beta|^2 is sum(|phi|^2 conv) / (2 G^3).  By Parseval,
    beta(0) = sum |phi|^2 / G^3 and sum_{k != 0} |beta|^2 =
    sum (|phi|^2 - beta(0))^2 / G^3.  The field and the convolution keep each
    cube's bits on a stack, and each sum is one _row_sums call for the batch.
    """
    phi = kernel.field(alphas)
    dens = np.square(phi.real)
    dens += np.square(phi.imag, out=phi.imag)  # phi is ours: square in place
    del phi  # before the convolution allocates its two R G^3 buffers
    conv = kernel.convolve(dens, np.empty_like(dens))
    n = kernel.G**3
    conv *= dens
    interactions = [0.5 * v / n for v in _row_sums(conv)]
    del conv
    beta0 = [v / n for v in _row_sums(dens)]
    for cube, b0 in zip(dens, beta0):
        cube -= b0
    # carry beta0's rounding as the residual mean r, so the gap keeps its digits near 0
    r = [v / n for v in _row_sums(dens)]
    squares = _row_sums(np.square(dens, out=dens))
    gaps = []
    for b0, ri, sq in zip(beta0, r, squares):
        off = (b0 - 1.0) + ri
        gaps.append(sq / n - ri * ri + abs(off * (2.0 + off)))
    return interactions, gaps


def energy_per_particle(state: SpectralState, model: GaussianPotential) -> float:
    """E / (rho L^3): kinetic sum plus half the Vhat-weighted |beta|^2 sum,
    the interaction taken by make_records' route."""
    lat = state.lattice
    kinetic = lat.ordered_sum(lat.omega * np.abs(state.alpha) ** 2)
    kernel = _get_kernel(model, lat).record
    return kinetic + _interactions_and_beta_gaps(state.alpha[None], kernel)[0][0]


def energy_physical(state: SpectralState, model: GaussianPotential, g: int = 2) -> float:
    """Grid-quadrature route to the same energy, used as a cross-check.

    Integrates |grad Psi|^2 plus (V_L * |Psi|^2) |Psi|^2 / (2 rho) on the
    g-times oversampled collocation grid (g = 2 is alias-free for the
    quartic term).
    """
    psi = to_physical(state, g)  # reads g with as_int
    lat = state.lattice
    G = psi.shape[0]
    idx = lat.embed_indexer(G)

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

@functools.lru_cache(maxsize=8)  # each record takes two, at ceil(M / 2) and at L
def _beyond(lat, radius: float):
    """Read-only per-site mask of the modes of Euclidean radius |m| > radius."""
    mask = lat.norm_sq > float(radius) ** 2
    mask.setflags(write=False)
    return mask


def tail_sum(state: SpectralState, m_prime: float) -> float:
    """sum of |alpha(m)| over Euclidean radius |m| > m_prime."""
    lat = state.lattice
    return lat.ordered_sum(np.abs(state.alpha) * _beyond(lat, float(m_prime)))


def kinetic_tail(state: SpectralState, c: float = 1.0) -> float:
    """sum of omega_m |alpha(m)| over |m| > c L.

    The constant c is existential in the underlying assumption, so it is
    exposed as a parameter rather than chosen here.
    """
    lat = state.lattice
    return lat.ordered_sum(lat.omega * np.abs(state.alpha) * _beyond(lat, float(c) * lat.L))


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
    def from_state(cls, state: SpectralState, model: GaussianPotential,
                   k0=None, theta=None) -> "TrajectoryContext":
        s0 = _positive_finite(lambda: s_sum(state), "S0 = sum |alpha|")
        lat = state.lattice
        if k0 is None:
            k0 = _argmax_modes(lat, np.abs(state.alpha)[None])[1][0]
        idx = lat.index_of(k0)
        if theta is None:
            theta = float(np.angle(state.alpha[idx]))
        site = np.ravel_multi_index(idx, lat.shape)
        u0 = lat.ordered_sum(_wave_deviations(state.alpha[None], [site], [theta]) ** 2)
        return cls(s0=s0, t0_kin=t_sum(state), b=model.b,
                   c_decay=model.C, k0=tuple(int(v) for v in np.asarray(k0).reshape(3)),
                   theta=float(theta), u0_mass_sq=u0, t0=state.t)

    @property
    def blowup_time(self) -> float:
        """The envelopes' blow-up time on the record clock, t0 + 1 / (2 S0^2 b)."""
        return self.t0 + 1.0 / (2.0 * self.s0**2 * self.b)


def _envelopes(ctx: TrajectoryContext, t: float):
    """The (S, T, u-mass) envelopes at record time t, counted from ctx.t0, or
    all NaN at or past blow-up: the one test of the envelopes' domain.  At
    blowup_time 1 - 2 S0^2 b (t - t0) can round above 0, so t is tested first."""
    if t >= ctx.blowup_time:
        return math.nan, math.nan, math.nan
    elapsed = t - ctx.t0
    try:
        return (s_envelope(ctx.s0, ctx.b, elapsed),
                t_envelope(ctx.s0, ctx.t0_kin, ctx.b, ctx.c_decay, elapsed),
                u_mass_envelope(ctx.u0_mass_sq, ctx.s0, ctx.b, elapsed))
    except EnvelopeDomainError:
        return math.nan, math.nan, math.nan


def _wave_deviations(alphas, sites, phases):
    """|alpha - exp(i phase) delta_k| per site of each array of an (R, n, n, n)
    stack, k the mode at C-order site sites[r] of array r: distance to a plane wave."""
    u = alphas.copy()
    for row, site, phase in zip(u.reshape(len(u), -1), sites, phases):
        row[site] -= np.exp(1j * phase)
    return np.abs(u)


def _comparison_waves(states, alphas, ctx):
    """omega_L = 4 pi^2 |k0|^2 / L^2 + b and the per-site |u| of each state, whose
    coefficients are the arrays of alphas, where
    u = alpha - exp(i (theta - omega_L (t - t0))) delta_k0 at the state's t."""
    lat = states[0].lattice
    idx = tuple(v + lat.M for v in ctx.k0)  # from_state checked k0's three ints
    if not all(0 <= i < lat.size for i in idx):
        raise ValueError(f"mode {ctx.k0} outside cutoff M={lat.M}")
    omega_l = 4.0 * math.pi**2 * float(sum(v * v for v in ctx.k0)) / lat.L**2 + ctx.b
    phases = [ctx.theta - omega_l * (st.t - ctx.t0) for st in states]
    site = np.ravel_multi_index(idx, lat.shape)
    return omega_l, _wave_deviations(alphas, [site] * len(states), phases)


def _argmax_modes(lattice, a_abs):
    """The C-order site of largest |alpha| of each array of an (R, n, n, n)
    stack, the first on ties, and its mode."""
    sites = a_abs.reshape(len(a_abs), -1).argmax(axis=1)
    n, M = lattice.size, lattice.M
    return sites, [(i // (n * n) - M, i // n % n - M, i % n - M) for i in sites.tolist()]


def _record_sums(states, alphas, context):
    """make_records' lattice sums from one ordered_sums call, then each record's
    k_star and |alpha(k_star)|.  Row j of the (k, R, n, n, n) stack holds, for
    every state, the per-site array of: mass, l1 and l2^2 deviation, tail_sum at
    ceil(M / 2), kinetic_tail at c = 1, kinetic energy, S, T and, with a context,
    the u mass.  Each array is its function's, bit for bit, written in place."""
    lat = states[0].lattice
    R = len(states)
    stack = np.empty((8 if context is None else 9, R, *lat.shape))
    abs_sq, dabs, dabs_sq, tail, ktail, kinetic, a_abs, t_site = stack[:8]
    np.abs(alphas, out=a_abs)
    sites, k_stars = _argmax_modes(lat, a_abs)
    at_star = (np.arange(R), sites)
    phases = np.angle(alphas.reshape(R, -1)[at_star]).tolist()
    dabs[...] = _wave_deviations(alphas, sites.tolist(), phases)
    np.square(a_abs, out=abs_sq)
    np.square(dabs, out=dabs_sq)
    np.multiply(a_abs, _beyond(lat, math.ceil(lat.M / 2)), out=tail)
    np.multiply(lat.omega, a_abs, out=t_site)
    np.multiply(t_site, _beyond(lat, lat.L), out=ktail)
    np.multiply(lat.omega, abs_sq, out=kinetic)
    if context is not None:
        np.square(_comparison_waves(states, alphas, context)[1], out=stack[8])
    sums = lat.ordered_sums(stack.reshape(-1, *lat.shape))
    return [sums[r::R] for r in range(R)], k_stars, a_abs.reshape(R, -1)[at_star].tolist()


def make_records(states, model: GaussianPotential,
                 context: TrajectoryContext | None = None) -> list:
    """The DiagnosticsRecord of each state, all on one lattice, in one pass:
    one field and one convolve call on the (R, G, G, G) record-grid stack, and
    every record's lattice rows from one ordered_sums call.  Each record has
    the bits of make_record of its state alone.  A batch of R states peaks at
    R times one record's memory: 24 G^3 bytes of grid plus 72 n^3 bytes of
    sum rows per state, G the record grid and n = 2M + 1."""
    states = list(states)
    if not states:
        return []
    lat = states[0].lattice
    if any(st.lattice != lat for st in states):
        raise ValueError("make_records takes states of one lattice")
    # one state takes a view: a record at R = 1 allocates no coefficient stack
    alphas = states[0].alpha[None] if len(states) == 1 else np.stack([st.alpha for st in states])
    # the sums' arrays are freed on return, before the energy pass allocates
    sums, k_stars, a_stars = _record_sums(states, alphas, context)
    interactions, gaps = _interactions_and_beta_gaps(alphas, _get_kernel(model, lat).record)
    records = []
    for st, row, k_star, a_star, interaction, beta_gap in zip(
            states, sums, k_stars, a_stars, interactions, gaps):
        mass, l1_dev, l2_sq, tail_half, ktail, kinetic, s, t_kin = row[:8]
        epp = kinetic + interaction
        s_env = t_env = u_env = u_mass = math.nan
        if context is not None:
            s_env, t_env, u_env = _envelopes(context, st.t)
            u_mass = row[8]
        records.append(DiagnosticsRecord(
            t=st.t, mass=mass, energy=st.rho * lat.L**3 * epp, energy_per_particle=epp,
            S=s, T=t_kin, k_star=k_star,
            condensate_fraction=a_star**2, l1_dev=l1_dev, l2_dev=math.sqrt(l2_sq),
            tail_half_M=tail_half, beta_gap=beta_gap,
            s_envelope=s_env, t_envelope=t_env,
            u_mass_sq=u_mass, u_mass_envelope=u_env, kinetic_tail=ktail,
        ))
    return records


def make_record(state: SpectralState, model: GaussianPotential,
                context: TrajectoryContext | None = None) -> DiagnosticsRecord:
    """The DiagnosticsRecord of one state: make_records([state], ...)[0]."""
    return make_records([state], model, context)[0]


# ---------------------------------------------------------------------------
# envelope audit, run report and comparison wave

AUDIT_TOLERANCE = 1e-6
# MASS_TOLERANCE, imported from field: a run whose max |mass - 1| exceeds it
# has left the normalised flow, and load_state refuses such a snapshot


def envelope_audit(trajectory) -> dict:
    """Compare recorded S, T against their envelopes.

    The per-record tolerance is AUDIT_TOLERANCE plus the reported
    truncation tail (truncated sums underestimate the full ones), and
    both raw and tail-corrected margins are reported.  The envelopes run
    from the context's start time t0; the reported blowup_time is the
    context's, and records at or past it (NaN envelopes) are skipped.
    """
    ctx = trajectory.context
    entries = []
    flags = 0
    for rec in trajectory.records:
        s_env, t_env, _ = _envelopes(ctx, rec.t)
        if math.isnan(s_env):
            entries.append({"t": rec.t, "in_domain": False})
            continue
        tol = AUDIT_TOLERANCE + rec.tail_half_M
        s_margin, t_margin = s_env - rec.S, t_env - rec.T
        s_flag, t_flag = s_margin < -tol, t_margin < -tol
        flags += int(s_flag) + int(t_flag)
        entries.append({
            "t": rec.t, "in_domain": True, "tolerance": tol,
            "s_margin": s_margin, "s_margin_corrected": s_margin + tol,
            "t_margin": t_margin, "t_margin_corrected": t_margin + tol,
            "s_flag": s_flag, "t_flag": t_flag,
        })
    return {"passed": flags == 0, "flags": flags, "records": entries,
            "blowup_time": ctx.blowup_time}


@dataclass(frozen=True)
class RunReport:
    """Run-wide numbers of one trajectory.  The energy drift is relative to the first
    energy, NaN when that is 0 or not finite; the min margins are NaN when no record is
    in the envelopes' domain, and records_past_blowup counts the rest; status is "ok",
    or "unhealthy: ..." when max_mass_dev > MASS_TOLERANCE; audit is envelope_audit's."""

    max_mass_dev: float
    max_energy_drift: float
    min_s_margin: float
    min_t_margin: float
    records_past_blowup: int
    status: str
    audit: dict

    def flat(self) -> dict:
        """The audit's keys, passed only if status is ok too, and every other field."""
        doc = {f.name: getattr(self, f.name) for f in dataclass_fields(self) if f.name != "audit"}
        return {**self.audit, **doc, "passed": self.audit["passed"] and self.status == "ok"}


def run_report(trajectory) -> RunReport:
    """Drift, envelope margins, the envelope audit and the verdict, from one audit pass."""
    records = trajectory.records
    e0 = records[0].energy
    drift = math.nan
    if math.isfinite(e0) and e0 != 0.0:
        drift = max(abs(r.energy - e0) / abs(e0) for r in records)
    audit = envelope_audit(trajectory)
    scored = [e for e in audit["records"] if e["in_domain"]]
    mass_dev = float(np.max([abs(r.mass - 1.0) for r in records]))  # NaN if any is NaN
    status = "ok" if mass_dev <= MASS_TOLERANCE else (
        f"unhealthy: max |mass - 1| = {mass_dev:.3e} > MASS_TOLERANCE = {MASS_TOLERANCE:g}")
    margins = [min((e[k] for e in scored), default=math.nan) for k in ("s_margin", "t_margin")]
    return RunReport(mass_dev, drift, *margins, len(records) - len(scored), status, audit)


def plane_wave_comparison(trajectory, k0, theta: float, model: GaussianPotential) -> dict:
    """Deviation from the exact plane-wave solution along a trajectory.

    The comparison wave is sqrt(rho) exp(i (2 pi k0 x / L - omega_L t + theta))
    with omega_L = 4 pi^2 |k0|^2 / L^2 + b.  Returns per-time arrays of
    the squared mass and gradient of u = Psi - Phi (per rho L^3) and the
    Gronwall mass envelope seeded by the first state, NaN at and after its
    blow-up as in the records; t in both counts from the first state's time.
    """
    states = trajectory.states
    if not states:
        raise ValueError("trajectory carries no states; rerun with keep_states")
    ctx = TrajectoryContext.from_state(states[0], model, k0, theta)
    lat = states[0].lattice

    ts, masses, grads, envs = [], [], [], []
    for st in states:  # one state at a time: a run's states may fill the memory
        omega_l, u = _comparison_waves([st], st.alpha[None], ctx)
        uabs2 = np.square(u, out=u)
        ts.append(st.t)
        masses.append(lat.ordered_sum(uabs2))
        grads.append(lat.ordered_sum(lat.omega * uabs2))
        envs.append(_envelopes(ctx, st.t)[2])
    return {"t": np.array(ts), "u_mass_sq": np.array(masses),
            "u_grad_sq": np.array(grads), "mass_envelope": np.array(envs),
            "omega_l": omega_l, "u0_mass_sq": ctx.u0_mass_sq}


# ---------------------------------------------------------------------------
# scalar bound calculators

@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs for the excitation and quasi-vacuum bounds.

    n: excitation fraction, e: energy-consistency gap per particle,
    h_xi: quasi-vacuum energy per rho L^3, s_inf and d_inf: bounds on the sup norms of the
    field and its Laplacian over sqrt(rho) (S and T are; the bounds grow with both), b and
    v2: potential norms, plus rho.  All are finite and >= 0; rho and b are > 0.
    """

    n: float
    e: float
    h_xi: float
    s_inf: float
    d_inf: float
    b: float
    v2: float
    rho: float

    def __post_init__(self):
        for f in dataclass_fields(self):
            v = as_real(getattr(self, f.name), f"BoundInputs.{f.name}")
            object.__setattr__(self, f.name, v)
            if v < 0.0:
                raise ValueError(f"BoundInputs.{f.name} must be non-negative")
            if v == 0.0 and f.name in ("rho", "b"):
                raise ValueError(f"BoundInputs.{f.name} must be positive")


def bound_inputs(state: SpectralState, model: GaussianPotential, n, e, h_xi) -> BoundInputs:
    """BoundInputs of a state under model: S0 and T0 as s_inf and d_inf, v2 over all of Z^3."""
    return BoundInputs(n=n, e=e, h_xi=h_xi, s_inf=s_sum(state), d_inf=t_sum(state), b=model.b,
                       v2=potential_l2(model, state.lattice.L), rho=state.rho)


def omega_coefficient(s0: float, t0: float, b: float, v2: float,
                      c: float, horizon: float) -> float:
    """Gronwall rate max(1, h) with the envelope values at the horizon.

    h collects the generator brackets: 4(2b+v2^2) b^2 S^6 + 4 b^2 S^4
    + (16 b + 33 v2^2 / 8) S^2 + 4 (2b+v2^2) T^2 + 6 b S T.  S0, T0, C and
    the horizon must be non-negative.
    """
    for name, value in (("S0", s0), ("T0", t0), ("C", c), ("horizon", horizon)):
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative")
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


def quasi_vacuum_energy_bound(inputs: BoundInputs) -> float:
    """Quasi-vacuum energy fraction bound 2e + 1/rho + (14b + v2^2) s_inf^2 n
    + 2 (d_inf + b s_inf^3) sqrt(n)."""
    return (2.0 * inputs.e + 1.0 / inputs.rho
            + (14.0 * inputs.b + inputs.v2**2) * inputs.s_inf**2 * inputs.n
            + 2.0 * (inputs.d_inf + inputs.b * inputs.s_inf**3) * math.sqrt(inputs.n))


# ---------------------------------------------------------------------------
# CSV serialization of record streams

def format_float(x) -> str:
    return f"{float(x):.17g}"  # NaN prints as "nan"


def _cell(value) -> str:
    if isinstance(value, float):  # the common cell first
        return f"{value:.17g}"
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
