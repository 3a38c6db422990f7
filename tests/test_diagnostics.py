"""Observables, envelopes, audits, and the scalar bound calculators."""

import csv
import math
import tracemalloc
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from torus_hartree import (
    BoundInputs,
    DiagnosticsRecord,
    EnvelopeDomainError,
    IntegratorConfig,
    SpectralState,
    TorusLattice,
    Trajectory,
    TrajectoryContext,
    assumption_check,
    autocorrelation,
    energy_per_particle,
    energy_physical,
    envelope_audit,
    evolve,
    excitation_bound,
    kinetic_tail,
    make_state,
    omega_coefficient,
    plane_wave_comparison,
    quasi_vacuum_energy_bound,
    random_state,
    run_report,
    s_envelope,
    s_sum,
    t_envelope,
    t_sum,
    tail_sum,
    u_mass_envelope,
)
from torus_hartree import diagnostics
from torus_hartree.diagnostics import (
    CSV_COLUMNS,
    format_float,
    make_record,
    write_trajectory_csv,
)
from torus_hartree.field import _get_kernel
from torus_hartree.potential import vhat_grid

from hartree_reference import B_GAUSS


class TestEnergy:
    def test_plane_wave_closed_form(self, gaussian):
        # single mode: E/(rho L^3) = 4 pi^2 |k0|^2 / L^2 + b/2
        lat = TorusLattice(4.0, 2)
        st = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0))
        expected = 4 * math.pi**2 / 16.0 + B_GAUSS / 2.0
        assert energy_per_particle(st, gaussian) == pytest.approx(
            expected, abs=1e-10)

    def test_two_mode_closed_form(self, gaussian):
        # escape mode at momentum ~17 makes its Vhat weight vanish, so
        # E/(rho L^3) ~ omega_esc / (rho + 1) + b/2
        lat = TorusLattice(8.0, 23)
        st = make_state("two_mode", lat, 16.0, escape_exponent=0.375)
        omega_esc = 4 * math.pi**2 * 22**2 / 64.0
        expected = omega_esc / 17.0 + B_GAUSS / 2.0
        assert energy_per_particle(st, gaussian) == pytest.approx(
            expected, rel=1e-12)

    def test_spectral_route_matches_grid_quadrature(self, gaussian):
        st = random_state(TorusLattice(4.0, 3), rho=10.0, seed=44)
        spectral = st.rho * st.lattice.L**3 * energy_per_particle(st, gaussian)
        grid = energy_physical(st, gaussian)
        assert spectral == pytest.approx(grid, rel=1e-10)

    @pytest.mark.parametrize("g", [True, 2.5, math.nan, 0])
    def test_grid_route_rejects_bad_grid_factor(self, gaussian, g):
        st = random_state(TorusLattice(4.0, 1), rho=10.0, seed=44)
        with pytest.raises(ValueError):
            energy_physical(st, gaussian, g)

    def test_interaction_scales_inversely_with_density(self, gaussian):
        lat = TorusLattice(4.0, 2)
        a = make_state("plane_wave", lat, 10.0)
        b_ = make_state("plane_wave", lat, 1000.0)
        # normalized dynamics sees no rho: per-particle energy is equal
        assert energy_per_particle(a, gaussian) == pytest.approx(
            energy_per_particle(b_, gaussian), rel=1e-14)


class TestEnvelopes:
    def test_s_envelope_reference_point(self):
        # gamma = 1/4 at t = 3 / (8 b S0^2): envelope doubles
        for b in (1.0, B_GAUSS):
            assert s_envelope(1.0, b, 3.0 / (8.0 * b)) == pytest.approx(
                2.0, rel=1e-14)

    def test_s_envelope_blowup(self):
        with pytest.raises(EnvelopeDomainError):
            s_envelope(1.0, 1.0, 0.5)
        with pytest.raises(EnvelopeDomainError):
            s_envelope(2.0, 1.0, 0.126)  # blow-up at 1/8

    def test_t_envelope_reference_point(self):
        # b = 1, C = 27/8, s0 = 1, t0 = 1/2, t = 3/8: gamma = 1/4,
        # t0/gamma = 2 and (8 C / 27 b) s0 (8 - 4) = 4
        assert t_envelope(1.0, 0.5, 1.0, 27.0 / 8.0, 0.375) == pytest.approx(
            6.0, rel=1e-14)

    def test_t_envelope_at_zero_is_t0(self):
        assert t_envelope(1.3, 0.7, 2.0, 5.0, 0.0) == pytest.approx(0.7)

    def test_u_mass_envelope_reference_point(self):
        # gamma = 1/4: exp(6 b t + 2 - 2 sqrt(1/4)) = exp(9/4 + 1)
        b = 1.0
        assert u_mass_envelope(1.0, 1.0, b, 0.375) == pytest.approx(
            math.exp(3.25), rel=1e-14)
        assert u_mass_envelope(0.0, 1.0, b, 0.1) == 0.0


class TestTails:
    def test_tail_uses_euclidean_radius(self):
        lat = TorusLattice(4.0, 2)
        alpha = np.zeros(lat.shape, dtype=complex)
        alpha[lat.index_of((2, 0, 0))] = 0.6  # |m|^2 = 4
        alpha[lat.index_of((1, 1, 1))] = 0.8  # |m|^2 = 3
        st = SpectralState(lat, 1.0, 0.0, alpha)
        assert tail_sum(st, 1.8) == pytest.approx(0.6)  # excludes |m|^2 = 3
        assert tail_sum(st, 1.7) == pytest.approx(1.4)
        assert tail_sum(st, 2.0) == pytest.approx(0.0)

    def test_kinetic_tail_threshold(self):
        lat = TorusLattice(2.0, 3)  # c L = 2 keeps |m| > 2
        alpha = np.zeros(lat.shape, dtype=complex)
        alpha[lat.index_of((3, 0, 0))] = 0.5
        alpha[lat.index_of((1, 1, 1))] = 0.5
        st = SpectralState(lat, 1.0, 0.0, alpha / math.sqrt(0.5))
        w = 4 * math.pi**2 / 4.0
        expected = w * 9 * 0.5 / math.sqrt(0.5)
        assert kinetic_tail(st, 1.0) == pytest.approx(expected, rel=1e-13)
        assert kinetic_tail(st, 2.0) == pytest.approx(0.0)

    def test_assumption_check_shape(self):
        st = make_state("perturbed", TorusLattice(4.0, 4), 10.0,
                        eps=0.1, s=5.0, seed=1)
        report = assumption_check(st)
        assert [e["radius"] for e in report["tails"]] == [1.0, 2.0, 4.0]
        vals = [e["value"] for e in report["tails"]]
        assert vals[0] >= vals[1] >= vals[2] >= 0.0
        assert report["S"] >= 1.0
        assert report["kinetic_tail"]["threshold"] == 4.0


class TestRecord:
    def test_condensate_metrics(self, gaussian):
        lat = TorusLattice(4.0, 3)
        st = make_state("perturbed", lat, 10.0, k0=(1, 0, 0),
                        eps=0.1, s=6.0, seed=3)
        rec = make_record(st, gaussian)
        assert rec.k_star == (1, 0, 0)
        a_star = math.sqrt(rec.condensate_fraction)
        # pure-phase removal: |alpha - e^{i theta*} delta|^2 = 2 - 2 a*
        assert rec.l2_dev == pytest.approx(
            math.sqrt(2.0 - 2.0 * a_star), rel=1e-10)
        assert rec.mass == pytest.approx(1.0, abs=1e-12)
        assert rec.tail_half_M == pytest.approx(tail_sum(st, 2.0), rel=1e-14)

    def test_beta_gap_vanishes_for_plane_wave(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 2), 10.0, k0=(1, 0, 0))
        rec = make_record(st, gaussian)
        assert rec.beta_gap < 1e-13
        assert rec.condensate_fraction == pytest.approx(1.0, abs=1e-14)
        assert rec.l1_dev < 1e-13

    def test_without_context_envelopes_are_nan(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        rec = make_record(st, gaussian)
        assert math.isnan(rec.s_envelope)
        assert math.isnan(rec.u_mass_sq)

    def test_past_blowup_envelopes_are_nan_but_u_is_not(self, gaussian):
        lat = TorusLattice(4.0, 1)
        st = make_state("plane_wave", lat, 1.0)
        late = st.with_alpha(st.alpha, t=1.0)  # far past 1/(2b)
        ctx = TrajectoryContext(s0=1.0, t0_kin=0.0, b=B_GAUSS, c_decay=16.0,
                                k0=(0, 0, 0), theta=0.0, u0_mass_sq=0.0)
        rec = make_record(late, gaussian, ctx)
        assert math.isnan(rec.s_envelope)
        assert not math.isnan(rec.u_mass_sq)

    def test_context_from_state_picks_dominant_mode(self, gaussian):
        st = make_state("perturbed", TorusLattice(4.0, 2), 10.0, k0=(0, 1, 0),
                        eps=0.05, s=6.0, seed=8, theta=0.4)
        ctx = TrajectoryContext.from_state(st, gaussian)
        assert ctx.k0 == (0, 1, 0)
        assert ctx.theta == pytest.approx(0.4, abs=1e-12)
        assert ctx.b == B_GAUSS
        assert ctx.s0 == pytest.approx(
            float(np.sum(np.abs(st.alpha))), rel=1e-13)

    def test_drift(self):
        # every record sits past blow-up (1/(2b) ~ 0.032), so only the drift is read
        ctx = TrajectoryContext(s0=1.0, t0_kin=0.0, b=B_GAUSS, c_decay=16.0,
                                k0=(0, 0, 0), theta=0.0, u0_mass_sq=0.0)

        def report(recs):
            return run_report(Trajectory(records=recs, final_state=None, context=ctx))

        recs = [SimpleNamespace(t=t, mass=m, energy=e)
                for t, m, e in ((1.0, 1.0, 2.0), (2.0, 1.25, 2.5), (3.0, 0.5, 1.0))]
        got = report(recs)
        assert (got.max_mass_dev, got.max_energy_drift) == (0.5, 0.5)
        for e0 in (0.0, math.nan, math.inf):
            got = report([SimpleNamespace(t=0.5, mass=1.0, energy=e0), *recs])
            assert got.max_mass_dev == 0.5 and math.isnan(got.max_energy_drift)

    def test_status_judges_the_mass_not_the_energy(self):
        ctx = TrajectoryContext(s0=1.0, t0_kin=0.0, b=B_GAUSS, c_decay=16.0,
                                k0=(0, 0, 0), theta=0.0, u0_mass_sq=0.0)

        def report(mass):
            recs = [SimpleNamespace(t=1.0, mass=1.0, energy=2.0),
                    SimpleNamespace(t=2.0, mass=mass, energy=3.0)]  # 50% energy drift
            return run_report(Trajectory(records=recs, final_state=None, context=ctx))

        tol = diagnostics.MASS_TOLERANCE
        assert tol == 1e-6
        for mass in (1.0, 1.0 - 0.5 * tol, 1.0 + 0.5 * tol):
            got = report(mass)
            assert got.status == "ok" and got.max_energy_drift == 0.5
        got = report(1.0 - 2.0 * tol)
        assert got.status == (f"unhealthy: max |mass - 1| = {got.max_mass_dev:.3e} "
                              "> MASS_TOLERANCE = 1e-06")
        assert report(math.nan).status.startswith("unhealthy:")


def record_reference(state, model, ctx):
    """make_record's fields, each lattice sum taken from its own array by
    ordered_sum or the public function that names it."""
    lat = state.lattice
    a = state.alpha
    a_abs = np.abs(a)
    k_star = tuple(int(v) for v in np.argwhere(a_abs == a_abs.max())[0] - lat.M)
    idx = lat.index_of(k_star)
    u = a.copy()
    u[idx] -= np.exp(1j * float(np.angle(a[idx])))
    dabs = np.abs(u)
    epp = energy_per_particle(state, model)
    fields = dict(
        t=state.t, mass=lat.ordered_sum(a_abs**2), energy=state.rho * lat.L**3 * epp,
        energy_per_particle=epp, S=s_sum(state), T=t_sum(state), k_star=k_star,
        condensate_fraction=float(a_abs[idx]) ** 2, l1_dev=lat.ordered_sum(dabs),
        l2_dev=math.sqrt(lat.ordered_sum(dabs**2)),
        tail_half_M=tail_sum(state, math.ceil(lat.M / 2)),
        beta_gap=diagnostics._interaction_and_beta_gap(state, model)[1],
        s_envelope=math.nan, t_envelope=math.nan, u_mass_sq=math.nan,
        u_mass_envelope=math.nan, kinetic_tail=kinetic_tail(state, 1.0))
    if ctx is not None:
        elapsed = state.t - ctx.t0
        k0 = np.asarray(ctx.k0)
        omega_l = 4.0 * math.pi**2 * float(k0 @ k0) / lat.L**2 + ctx.b
        w = a.copy()
        w[lat.index_of(ctx.k0)] -= np.exp(1j * (ctx.theta - omega_l * elapsed))
        fields.update(s_envelope=s_envelope(ctx.s0, ctx.b, elapsed),
                      t_envelope=t_envelope(ctx.s0, ctx.t0_kin, ctx.b, ctx.c_decay, elapsed),
                      u_mass_sq=lat.ordered_sum(np.abs(w) ** 2),
                      u_mass_envelope=u_mass_envelope(ctx.u0_mass_sq, ctx.s0, ctx.b, elapsed))
    return DiagnosticsRecord(**fields)


class TestRecordSums:
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_every_field_equals_the_per_array_reference(self, gaussian, m):
        # make_record takes its sums from one gathered stack; each must keep
        # the bits of its own ordered_sum, with a context and without one
        st0 = make_state("perturbed", TorusLattice(4.0, m), 10.0, k0=(1, 0, -1),
                         eps=0.2, s=3.0, seed=m)
        ctx = TrajectoryContext.from_state(st0, gaussian)
        later = st0.with_alpha(np.roll(st0.alpha, 1, axis=2) * np.exp(0.3j), t=1e-3)
        for st in (st0, later, random_state(st0.lattice, 10.0, seed=m)):
            for c in (None, ctx):
                assert repr(make_record(st, gaussian, c)) == repr(
                    record_reference(st, gaussian, c))

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_public_sums_equal_the_record_bit_for_bit(self, gaussian, m):
        # one per-site formula per number: the state's mass and the public
        # sums are the record's fields, not the same value at another rounding
        lat = TorusLattice(4.0, m)
        perturbed = make_state("perturbed", lat, 10.0, k0=(1, 0, -1), eps=0.2, s=3.0, seed=m)
        for seed in range(10):
            for st in (random_state(lat, 10.0, seed=seed),
                       perturbed.with_alpha(perturbed.alpha * np.exp(0.1j * seed))):
                rec = make_record(st, gaussian)
                assert (st.mass, s_sum(st), t_sum(st), tail_sum(st, math.ceil(m / 2)),
                        kinetic_tail(st)) == (rec.mass, rec.S, rec.T, rec.tail_half_M,
                                              rec.kinetic_tail)


def two_pass_interaction_and_beta_gap(state, model):
    """The record's interaction and beta_gap by two density passes, one
    inside the convolution and one for the Parseval sums, each sum an np.sum:
    the bit reference for the record's one density pass."""
    kernel = _get_kernel(model, state.lattice).record
    phi = kernel.field(state.alpha)
    G = kernel.G
    dens = np.square(phi.real)
    dens += np.square(phi.imag)
    y = np.matmul(kernel.bC, dens.transpose(1, 0, 2))
    np.matmul(y.reshape(G * G, G), kernel.C, out=dens.reshape(G * G, G))
    conv = np.matmul(kernel.C, dens.transpose(1, 0, 2), out=y)
    dens = np.square(phi.real)
    dens += np.square(phi.imag, out=phi.imag)
    n = dens.size
    conv *= dens
    interaction = 0.5 * float(np.sum(conv)) / n
    beta0 = float(np.sum(dens)) / n
    dens -= beta0
    r = float(np.sum(dens)) / n
    off = (beta0 - 1.0) + r
    variance = float(np.sum(np.square(dens, out=dens))) / n - r * r
    return interaction, variance + abs(off * (2.0 + off))


def per_row_record_sums(state, context):
    """The record's lattice sums with each row reduced alone, its masks,
    k_star index and comparison wave built on every call: the bit reference
    for the cached masks and the one row reduce."""
    lat = state.lattice
    a = state.alpha
    stack = np.empty((8 if context is None else 9, *lat.shape))
    abs_sq, dabs, dabs_sq, tail, ktail, kinetic, a_abs, t_site = stack[:8]
    np.abs(a, out=a_abs)
    idx = np.unravel_index(int(np.argmax(a_abs)), lat.shape)
    u = a.copy()
    u[idx] -= np.exp(1j * float(np.angle(a[idx])))
    dabs[...] = np.abs(u)
    np.square(a_abs, out=abs_sq)
    np.square(dabs, out=dabs_sq)
    np.multiply(a_abs, lat.norm_sq > float(math.ceil(lat.M / 2)) ** 2, out=tail)
    np.multiply(lat.omega, a_abs, out=t_site)
    np.multiply(t_site, lat.norm_sq > float(lat.L) ** 2, out=ktail)
    np.multiply(lat.omega, abs_sq, out=kinetic)
    if context is not None:
        k0 = np.asarray(context.k0)
        omega_l = 4.0 * math.pi**2 * float(k0 @ k0) / lat.L**2 + context.b
        w = a.copy()
        w[lat.index_of(k0)] -= np.exp(1j * (context.theta - omega_l * (state.t - context.t0)))
        stack[8] = np.abs(w) ** 2
    sums = [float(np.add.reduce(row)) for row in stack.reshape(len(stack), -1)]
    return sums, tuple(int(i) - lat.M for i in idx), float(a_abs[idx])


def two_pass_record(state, model, context):
    """make_record built from the two references above."""
    lat = state.lattice
    sums, k_star, a_star = per_row_record_sums(state, context)
    mass, l1_dev, l2_sq, tail_half, ktail, kinetic, s, t_kin = sums[:8]
    interaction, beta_gap = two_pass_interaction_and_beta_gap(state, model)
    epp = kinetic + interaction
    s_env = t_env = u_env = u_mass = math.nan
    if context is not None:
        s_env, t_env, u_env = diagnostics._envelopes(context, state.t)
        u_mass = sums[8]
    return DiagnosticsRecord(
        t=state.t, mass=mass, energy=state.rho * lat.L**3 * epp, energy_per_particle=epp,
        S=s, T=t_kin, k_star=k_star, condensate_fraction=a_star**2, l1_dev=l1_dev,
        l2_dev=math.sqrt(l2_sq), tail_half_M=tail_half, beta_gap=beta_gap,
        s_envelope=s_env, t_envelope=t_env, u_mass_sq=u_mass, u_mass_envelope=u_env,
        kinetic_tail=ktail)


class TestRecordBits:
    @pytest.mark.parametrize("L,m", [(2.0, 2), (3.0, 3), (4.0, 4),  # K < 2M
                                     (4.0, 2),  # K = 2M: the record kernel is the step's
                                     (16.0, 16)])
    def test_every_field_equals_the_two_pass_reference(self, gaussian, L, m):
        lat = TorusLattice(L, m)
        kernel = _get_kernel(gaussian, lat)
        assert (kernel.record is kernel) == (kernel.K == 2 * m) == ((L, m) == (4.0, 2))
        for k0 in ((0, 0, 0), (1, -1, 0)):  # centred and off-centre condensates
            st0 = make_state("perturbed", lat, 10.0, k0=k0, eps=0.2, s=3.0, seed=m)
            ctx = TrajectoryContext.from_state(st0, gaussian)
            later = st0.with_alpha(np.roll(st0.alpha, 1, axis=0) * np.exp(0.7j), t=2e-3)
            past_blowup = st0.with_alpha(st0.alpha, t=2.0 * ctx.blowup_time)
            for st in (st0, later, past_blowup):
                for c in (None, ctx):
                    got, want = make_record(st, gaussian, c), two_pass_record(st, gaussian, c)
                    # repr keeps every bit and makes NaN equal to NaN
                    assert {f.name: repr(getattr(got, f.name)) for f in dataclass_fields(got)} \
                        == {f.name: repr(getattr(want, f.name)) for f in dataclass_fields(want)}

    @pytest.mark.parametrize("k0", [(3, 0, 0), (0, -3, 0), (0, 0, -4)])
    def test_context_mode_outside_the_lattice_is_refused(self, gaussian, k0):
        # a context made on a larger lattice: its k0 must not wrap to another site
        big = make_state("plane_wave", TorusLattice(4.0, 4), 10.0, k0=k0)
        ctx = TrajectoryContext.from_state(big, gaussian)
        st = make_state("perturbed", TorusLattice(4.0, 2), 10.0, eps=0.2, s=3.0, seed=1)
        with pytest.raises(ValueError, match=r"outside cutoff M=2"):
            make_record(st, gaussian, ctx)

    @pytest.mark.parametrize("m", [8, 16])
    def test_peak_memory(self, gaussian, m):
        # phi is dropped before the convolution's two buffers: 24 G^3 bytes
        # at the peak, 1.5 complex G^3 cubes; with phi alive it would be 2.5
        st = make_state("perturbed", TorusLattice(float(m), m), 10.0, eps=0.2, s=3.0, seed=m)
        ctx = TrajectoryContext.from_state(st, gaussian)
        make_record(st, gaussian, ctx)  # builds the kernels and the masks
        G = _get_kernel(gaussian, st.lattice).record.G
        tracemalloc.start()
        try:
            make_record(st, gaussian, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 9 * st.alpha.size * 8  # the record's nine lattice-sized sum rows
        assert peak <= 1.5 * 16 * G**3 + stack


def direct_route(state, model):
    """Energy per particle and beta_gap from the explicit shifted-sum beta
    and Vhat on the difference lattice, independent of any FFT grid."""
    lat = state.lattice
    corr = autocorrelation(state, "direct")
    dl = corr.lattice
    vhat = model.fourier_profile_radial((2.0 * math.pi / lat.L) * np.sqrt(dl.norm_sq))
    g2 = np.abs(corr.beta) ** 2
    kinetic = float(np.sum(lat.omega * np.abs(state.alpha) ** 2))
    g0 = g2[dl.index_of((0, 0, 0))]
    gap = float(np.sum(g2) - g0 + abs(g0 - 1.0))
    return kinetic + 0.5 * float(np.sum(vhat * g2)), gap


def full_spectrum_route(state, model):
    """Energy per particle and beta_gap from the complex fftn of the density
    on the kernel grid, summed over the whole spectrum."""
    lat = state.lattice
    kernel = _get_kernel(model, lat)
    phi = kernel.field(state.alpha)
    beta_sq = np.abs(scipy.fft.fftn(np.abs(phi) ** 2, norm="forward")).ravel() ** 2
    kinetic = lat.ordered_sum(lat.omega * np.abs(state.alpha) ** 2)
    gap = float(np.sum(beta_sq[1:]) + abs(beta_sq[0] - 1.0))
    G = kernel.G
    vhat = vhat_grid(model, lat.L, np.fft.fftfreq(G, 1.0 / G), limit=2 * lat.M)
    return kinetic + 0.5 * float(np.sum(vhat.ravel() * beta_sq)), gap


def exact_parseval_gap(state, model):
    """beta_gap of the record grid's density by Parseval, summed exactly.

    Each density value is an integer times 2^-k, so with s1 and s2 the
    integer sums of those integers and of their squares, beta(0) is
    s1 / (n 2^k) and the k != 0 sum of |beta|^2 is (n s2 - s1^2) / (n 2^k)^2.
    """
    phi = _get_kernel(model, state.lattice).record.field(state.alpha)
    dens = (phi.real**2 + phi.imag**2).ravel()
    k = 53 - int(np.min(np.frexp(dens)[1]))
    ints = [int(v) for v in np.ldexp(dens, k).tolist()]
    n, s1, s2 = len(ints), sum(ints), sum(i * i for i in ints)
    beta0 = Fraction(s1, n << k)
    return float(Fraction(n * s2 - s1 * s1, (n << k) ** 2) + abs(beta0 * beta0 - 1))


class TestRecordOracle:
    @pytest.mark.parametrize("m", [2, 3, 6, 8, 16])  # G = 10, 14, 27, 35, 66
    def test_grid_route_matches_full_spectrum(self, gaussian, m):
        st = make_state("perturbed", TorusLattice(float(m), m), 10.0,
                        eps=0.2, s=3.0, seed=m)
        epp, _ = full_spectrum_route(st, gaussian)
        rec = make_record(st, gaussian)
        assert rec.energy_per_particle == pytest.approx(epp, rel=1e-14, abs=0.0)
        assert rec.beta_gap == pytest.approx(exact_parseval_gap(st, gaussian),
                                             rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_near_condensate_gap_keeps_its_digits(self, gaussian, m):
        # the gap is ~1e-6 here, so one rounding of beta(0) would cost ~1e-10 of it
        st = make_state("perturbed", TorusLattice(float(m), m), 10.0,
                        eps=1e-3, s=3.0, seed=m)
        assert make_record(st, gaussian).beta_gap == pytest.approx(
            exact_parseval_gap(st, gaussian), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("rho", [1.0, 10.0, 1e3, 1e6])
    def test_random_state_matches_direct_route(self, gaussian, m, rho):
        st = random_state(TorusLattice(1.5 * m, m), rho=rho, seed=31 * m)
        epp, gap = direct_route(st, gaussian)
        rec = make_record(st, gaussian)
        assert rec.energy_per_particle == pytest.approx(epp, rel=1e-12, abs=0.0)
        assert rec.energy == pytest.approx(rho * (1.5 * m) ** 3 * epp, rel=1e-12)
        assert abs(rec.beta_gap - gap) <= 1e-14
        assert energy_per_particle(st, gaussian) == rec.energy_per_particle

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_quasi_condensate_matches_direct_route(self, gaussian, m):
        st = make_state("perturbed", TorusLattice(4.0, m), 100.0,
                        eps=0.2, s=2.0, seed=m)
        epp, gap = direct_route(st, gaussian)
        rec = make_record(st, gaussian)
        assert rec.energy_per_particle == pytest.approx(epp, rel=1e-12, abs=0.0)
        assert abs(rec.beta_gap - gap) <= 1e-14
        assert rec.beta_gap > 1e-6

    def test_mass_drift_enters_beta_gap(self, gaussian):
        # beta(0) = mass, so a drifted state pays ||beta(0)|^2 - 1| in the gap
        st = random_state(TorusLattice(3.0, 2), rho=10.0, seed=3)
        drifted = st.with_alpha(1.05 * st.alpha)
        epp, gap = direct_route(drifted, gaussian)
        rec = make_record(drifted, gaussian)
        assert rec.beta_gap >= 1.05**4 - 1.0
        assert abs(rec.beta_gap - gap) <= 1e-14
        assert rec.energy_per_particle == pytest.approx(epp, rel=1e-12, abs=0.0)


class TestEnvelopeAudit:
    def test_quasi_condensate_run_passes(self, gaussian):
        st = make_state("perturbed", TorusLattice(4.0, 3), 10.0,
                        eps=0.05, s=6.0, seed=7)
        traj = evolve(st, gaussian, 0.1 / B_GAUSS, IntegratorConfig(dt=2.5e-4),
                      stride=8, keep_states=False)
        audit = envelope_audit(traj)
        assert audit["passed"]
        assert audit["flags"] == 0
        assert all(e["in_domain"] for e in audit["records"])
        assert audit["blowup_time"] == pytest.approx(
            1.0 / (2.0 * traj.context.s0**2 * B_GAUSS), rel=1e-13)
        report = run_report(traj)
        assert report.audit == audit
        assert report.records_past_blowup == 0 and report.status == "ok"
        assert report.min_s_margin == min(e["s_margin"] for e in audit["records"])
        assert report.min_t_margin == min(e["t_margin"] for e in audit["records"])

    def synthetic_trajectory(self, records):
        st = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        ctx = TrajectoryContext(s0=1.0, t0_kin=0.0, b=B_GAUSS, c_decay=16.0,
                                k0=(0, 0, 0), theta=0.0, u0_mass_sq=0.0)
        return Trajectory(records=records, final_state=st, context=ctx)

    def fake_record(self, t, s_val, t_val=0.0, tail=0.0):
        nan = math.nan
        return DiagnosticsRecord(
            t=t, mass=1.0, energy=nan, energy_per_particle=nan, S=s_val,
            T=t_val, k_star=(0, 0, 0), condensate_fraction=1.0, l1_dev=0.0,
            l2_dev=0.0, tail_half_M=tail, beta_gap=0.0, s_envelope=nan,
            t_envelope=nan, u_mass_sq=nan, u_mass_envelope=nan)

    def test_violation_is_flagged(self):
        traj = self.synthetic_trajectory([
            self.fake_record(0.0, 1.0),
            self.fake_record(1e-3, 1.05),  # envelope allows only ~1.016
        ])
        audit = envelope_audit(traj)
        assert not audit["passed"]
        assert audit["flags"] == 1
        assert audit["records"][1]["s_flag"]

    def test_tail_correction_absorbs_small_deficit(self):
        envelope = s_envelope(1.0, B_GAUSS, 1e-3)
        traj = self.synthetic_trajectory([
            self.fake_record(1e-3, envelope + 5e-3, tail=1e-2),
        ])
        assert envelope_audit(traj)["passed"]

    def test_post_blowup_records_are_skipped(self):
        traj = self.synthetic_trajectory([
            self.fake_record(0.0, 1.0),
            self.fake_record(1.0, 99.0),  # past 1/(2b) ~ 0.032
        ])
        audit = envelope_audit(traj)
        assert audit["passed"]
        assert audit["records"][1]["in_domain"] is False

    def test_report_margins_are_nan_past_blowup(self):
        traj = self.synthetic_trajectory([
            self.fake_record(1.0, 99.0),
            self.fake_record(2.0, 99.0),
        ])
        report = run_report(traj)
        assert math.isnan(report.min_s_margin) and math.isnan(report.min_t_margin)
        assert report.max_mass_dev == 0.0
        assert report.records_past_blowup == 2 and report.status == "ok"
        assert report.audit["passed"]
        assert [e["in_domain"] for e in report.audit["records"]] == [False, False]

    def test_record_one_ulp_before_blowup_is_out_of_domain(self, gaussian):
        # 1 - 2 S0^2 b t rounds to 0 one ulp below 1/(2 S0^2 b): the record
        # and the audit must agree that the envelopes are undefined there
        ctx = TrajectoryContext(s0=1.694260211794545, b=3.201084487995624,
                                t0_kin=0.0, c_decay=16.0, k0=(0, 0, 0),
                                theta=0.0, u0_mass_sq=0.0)
        t = math.nextafter(1.0 / (2.0 * ctx.s0**2 * ctx.b), 0.0)
        st = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        rec = make_record(st.with_alpha(st.alpha, t=t), gaussian, ctx)
        assert math.isnan(rec.s_envelope)
        audit = envelope_audit(Trajectory(records=[rec], final_state=st, context=ctx))
        assert audit["passed"]
        assert audit["records"] == [{"t": t, "in_domain": False}]

    def test_record_at_blowup_time_is_out_of_domain(self, gaussian):
        # here 1 - 2 S0^2 b t rounds to 1.1e-16 > 0 at t = blowup_time
        ctx = TrajectoryContext(s0=4.726171232503297, b=3.873921953113303,
                                t0_kin=0.0, c_decay=16.0, k0=(0, 0, 0),
                                theta=0.0, u0_mass_sq=0.0)
        t = ctx.blowup_time
        assert 1.0 - 2.0 * ctx.s0 * ctx.s0 * ctx.b * t > 0.0
        st = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        rec = make_record(st.with_alpha(st.alpha, t=t), gaussian, ctx)
        assert math.isnan(rec.s_envelope) and math.isnan(rec.t_envelope)
        assert math.isnan(rec.u_mass_envelope)
        audit = envelope_audit(Trajectory(records=[rec], final_state=st, context=ctx))
        assert audit["passed"] and audit["blowup_time"] == t
        assert audit["records"] == [{"t": t, "in_domain": False}]


class TestPlaneWaveComparison:
    def test_exact_solution_has_zero_deviation(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 2), 10.0,
                        k0=(1, 0, 0), theta=0.3)
        traj = evolve(st, gaussian, 5e-3, IntegratorConfig(dt=1e-3))
        cmp = plane_wave_comparison(traj, (1, 0, 0), 0.3, gaussian)
        assert np.max(cmp["u_mass_sq"]) < 1e-20
        assert np.max(cmp["u_grad_sq"]) < 1e-19
        assert cmp["omega_l"] == pytest.approx(
            4 * math.pi**2 / 16.0 + B_GAUSS, rel=1e-14)

    def test_opposite_phase_reference(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 1), 10.0,
                        k0=(0, 0, 0), theta=0.0)
        traj = evolve(st, gaussian, 2e-3, IntegratorConfig(dt=1e-3))
        cmp = plane_wave_comparison(traj, (0, 0, 0), math.pi, gaussian)
        # |e^{i theta} - e^{i(theta+pi)}|^2 = 4 at every time
        np.testing.assert_allclose(cmp["u_mass_sq"], 4.0, rtol=1e-12)

    def test_matches_the_records(self, gaussian):
        st = make_state("perturbed", TorusLattice(4.0, 2), 10.0,
                        eps=0.05, s=6.0, seed=4)
        traj = evolve(st, gaussian, 3e-3, IntegratorConfig(dt=1e-3))
        ctx = traj.context
        cmp = plane_wave_comparison(traj, ctx.k0, ctx.theta, gaussian)
        assert cmp["u0_mass_sq"] == ctx.u0_mass_sq
        assert cmp["u_mass_sq"].tolist() == [r.u_mass_sq for r in traj.records]
        assert cmp["mass_envelope"].tolist() == [r.u_mass_envelope for r in traj.records]

    def test_envelope_is_nan_past_blowup_as_in_the_records(self, gaussian):
        st = make_state("perturbed", TorusLattice(4.0, 3), 10.0, eps=0.05, s=6.0, seed=7)
        blowup = TrajectoryContext.from_state(st, gaussian).blowup_time
        traj = evolve(st, gaussian, 1.5 * blowup, IntegratorConfig(dt=blowup / 4))
        ctx = traj.context
        cmp = plane_wave_comparison(traj, ctx.k0, ctx.theta, gaussian)
        np.testing.assert_array_equal(cmp["mass_envelope"],
                                      [r.u_mass_envelope for r in traj.records])
        assert np.isnan(cmp["mass_envelope"][cmp["t"] >= blowup]).all()
        assert np.isfinite(cmp["mass_envelope"][cmp["t"] < blowup]).all()

    def test_requires_states(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        traj = evolve(st, gaussian, 2e-3, IntegratorConfig(dt=1e-3),
                      keep_states=False)
        with pytest.raises(ValueError):
            plane_wave_comparison(traj, (0, 0, 0), 0.0, gaussian)


class TestResumedRun:
    """A run that starts at t0 > 0 evaluates its envelopes, blow-up test and
    comparison wave at the elapsed time t - t0."""

    def test_plane_wave_resumed_at_half(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 2), 10.0, k0=(1, 0, 0))
        cfg = IntegratorConfig(dt=1e-3)
        ref = evolve(st, gaussian, 0.004, cfg)
        traj = evolve(st.with_alpha(st.alpha, t=0.5), gaussian, 0.004, cfg)
        assert traj.context.t0 == 0.5 and ref.context.t0 == 0.0
        assert [r.t for r in traj.records] == [0.5 + r.t for r in ref.records]
        assert max(r.u_mass_sq for r in traj.records) <= 1e-28
        for name in ("s_envelope", "t_envelope", "u_mass_envelope"):
            got = [getattr(r, name) for r in traj.records]
            assert all(math.isfinite(v) for v in got)
            np.testing.assert_allclose(got, [getattr(r, name) for r in ref.records],
                                       rtol=1e-12, atol=0.0)
        audit, ref_audit = envelope_audit(traj), envelope_audit(ref)
        assert audit["passed"]
        assert all(e["in_domain"] for e in audit["records"])
        assert audit["blowup_time"] == 0.5 + ref_audit["blowup_time"]
        for e, e_ref in zip(audit["records"], ref_audit["records"]):
            assert e["s_margin"] == pytest.approx(e_ref["s_margin"], rel=1e-12, abs=1e-15)
        cmp = plane_wave_comparison(traj, (1, 0, 0), 0.0, gaussian)
        assert np.max(cmp["u_mass_sq"]) <= 1e-28
        np.testing.assert_allclose(
            cmp["mass_envelope"],
            plane_wave_comparison(ref, (1, 0, 0), 0.0, gaussian)["mass_envelope"],
            rtol=1e-12)


class TestBoundCalculators:
    def test_omega_at_zero_horizon(self):
        # S = s0 = 1, T = t0 = 0, v2 = 0, b = 1:
        # h = 4*2 + 4 + 16 = 28
        assert omega_coefficient(1.0, 0.0, 1.0, 0.0, 1.0, 0.0) == 28.0

    def test_omega_floors_at_one(self):
        assert omega_coefficient(0.0, 0.0, 1.0, 0.0, 1.0, 0.0) == 1.0

    def test_omega_grows_with_horizon(self):
        lo = omega_coefficient(1.0, 0.1, B_GAUSS, 2.36, 16.0, 0.0)
        hi = omega_coefficient(1.0, 0.1, B_GAUSS, 2.36, 16.0, 1e-3)
        assert hi > lo

    def test_excitation_bound_at_zero_time(self):
        inputs = BoundInputs(n=5.0, e=0.0, h_xi=0.0, s_inf=0.0, d_inf=0.0,
                             b=B_GAUSS, v2=2.36, rho=100.0)
        assert excitation_bound(inputs, 40000.0, 0.0) == pytest.approx(5.01)

    def test_excitation_bound_formula(self):
        inputs = BoundInputs(n=0.1, e=0.0, h_xi=0.2, s_inf=1.5, d_inf=0.0,
                             b=2.0, v2=1.0, rho=50.0)
        omega, t = 3.0, 0.01
        ewt = math.exp(omega * t)
        expected = (ewt * (2 * 0.2 + ((5 * 2.0 + 0.25) * 1.5**2 + 1) * 0.1)
                    + (2 * ewt - 1) / 50.0)
        assert excitation_bound(inputs, omega, t) == pytest.approx(
            expected, rel=1e-14)

    def test_quasi_vacuum_bound_formula(self):
        inputs = BoundInputs(n=0.04, e=0.3, h_xi=0.0, s_inf=1.2, d_inf=0.7,
                             b=2.0, v2=1.5, rho=25.0)
        expected = (2 * 0.3 + 1 / 25.0 + (14 * 2.0 + 2.25) * 1.44 * 0.04
                    + 2 * (0.7 + 2.0 * 1.2**3) * 0.2)
        assert quasi_vacuum_energy_bound(inputs) == pytest.approx(
            expected, rel=1e-14)

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            BoundInputs(n=-0.1, e=0.0, h_xi=0.0, s_inf=0.0, d_inf=0.0,
                        b=1.0, v2=0.0, rho=1.0)
        inputs = BoundInputs(n=0.0, e=0.0, h_xi=0.0, s_inf=0.0, d_inf=0.0,
                             b=1.0, v2=0.0, rho=1.0)
        with pytest.raises(ValueError):
            excitation_bound(inputs, 1.0, -1.0)
        for key in ("rho", "b"):
            with pytest.raises(ValueError, match=f"BoundInputs.{key} must be positive"):
                BoundInputs(**{**inputs.__dict__, key: 0.0})
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            omega_coefficient(1.0, 0.0, 1.0, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("key,value", [
        ("n", math.nan), ("s_inf", math.inf), ("rho", True), ("b", None)])
    def test_inputs_must_be_finite_numbers(self, key, value):
        kwargs = dict(n=0.1, e=0.0, h_xi=0.0, s_inf=1.0, d_inf=0.0,
                      b=1.0, v2=0.0, rho=10.0)
        with pytest.raises(ValueError, match=f"BoundInputs.{key} must be a finite number"):
            BoundInputs(**{**kwargs, key: value})


class TestCsv:
    def test_round_trip_preserves_floats(self, gaussian, tmp_path):
        st = make_state("perturbed", TorusLattice(4.0, 2), 10.0,
                        eps=0.1, s=5.0, seed=2)
        traj = evolve(st, gaussian, 3e-3, IntegratorConfig(dt=1e-3),
                      keep_states=False)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj.records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.records)
        for row, rec in zip(rows, traj.records):
            assert float(row["t"]) == rec.t
            assert float(row["energy"]) == rec.energy
            assert float(row["S"]) == rec.S
            assert row["k_star"] == " ".join(str(v) for v in rec.k_star)

    def test_header_matches_contract(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trajectory_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert CSV_COLUMNS[:6] == ["t", "mass", "energy",
                                   "energy_per_particle", "S", "T"]

    def test_columns_follow_readme(self):
        assert CSV_COLUMNS == [
            "t", "mass", "energy", "energy_per_particle", "S", "T", "k_star",
            "condensate_fraction", "l1_dev", "l2_dev", "tail_half_M",
            "beta_gap", "s_envelope", "t_envelope", "u_mass_sq",
            "u_mass_envelope"]

    def test_format_float(self):
        assert format_float(math.nan) == "nan"
        for x in (0.1, 1.0 / 3.0, 1e300, -2.5e-17):
            assert float(format_float(x)) == x
