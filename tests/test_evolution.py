"""Integrators: exactness, convergence order, guards, reversibility."""

import gc
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

from torus_hartree import (
    ContractionError,
    ConvergenceError,
    GaussianPotential,
    InstabilityError,
    IntegratorConfig,
    LifespanGuardError,
    SpectralState,
    TorusLattice,
    TrajectoryContext,
    autocorrelation,
    evolve,
    lifespan_guard,
    make_record,
    make_state,
    picard_solve,
    pointwise_product,
    random_state,
    rhs,
    step_rk4,
    step_split,
    time_reversal,
)
import torus_hartree
from torus_hartree import diagnostics, evolution, field
from numpy.polynomial.legendre import leggauss

from torus_hartree.evolution import (
    _Kernel,
    _doubling,
    _get_kernel,
    _integration_matrix,
    _interpolation_matrix,
    _quadrature,
)
from torus_hartree.potential import vhat_grid

from hartree_reference import B_GAUSS


def quasi_condensate(m=2, L=4.0, rho=10.0, eps=0.1, s=6.0, seed=1):
    return make_state("perturbed", TorusLattice(L, m), rho,
                      eps=eps, s=s, seed=seed)


def l2_dist(a, b):
    return float(np.sqrt(np.sum(np.abs(a.alpha - b.alpha) ** 2)))


def picard_per_node(state, model, t, tau=1.5, tol=1e-10, max_iter=100):
    """picard_solve's fixed point with one array per node and explicit
    sums over nodes: the reference for its stacked node algebra."""
    lat = state.lattice
    kernel = _get_kernel(model, lat)
    omega, w2 = lat.omega, lat.a2_weight

    def a2norm(arr):
        return lat.ordered_sum(w2 * np.abs(arr))

    a0 = state.alpha
    ball = tau * a2norm(a0)
    prev_end = None
    for q in (4, 8, 16, 32, 64):
        nodes, weights = leggauss(q)  # built here, not taken from picard_solve's cache
        Q = 0.5 * t * _integration_matrix(nodes)
        rot = [np.exp(1j * s * omega) for s in 0.5 * t * (nodes + 1.0)]
        g = [a0.copy() for _ in range(q)]

        def node_terms(g_list):
            return [rot[i] * kernel.nonlinear(np.conj(rot[i]) * g_list[i])
                    for i in range(q)]

        for _ in range(max_iter):
            h = node_terms(g)
            g_new = [a0 - 1j * sum(Q[i, j] * h[j] for j in range(q)) for i in range(q)]
            delta = max(a2norm(g_new[i] - g[i]) for i in range(q))
            g = g_new
            assert max(a2norm(gi) for gi in g) <= ball
            if delta < tol:
                break
        else:
            raise AssertionError("reference did not converge")
        h = node_terms(g)
        integral = sum((0.5 * t * weights[j]) * h[j] for j in range(q))
        end = np.exp(-1j * omega * t) * (a0 - 1j * integral)
        if prev_end is not None and a2norm(end - prev_end) < 0.1 * tol:
            return end
        prev_end = end
    raise AssertionError("reference quadrature did not settle")


class TestRhs:
    def test_plane_wave_closed_form(self, gaussian):
        # single mode: beta = delta_0, so d alpha/dt = -i (omega + b) alpha
        lat = TorusLattice(4.0, 2)
        st = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0), theta=0.7)
        omega = 4 * math.pi**2 / 16.0
        expected = -1j * (omega + gaussian.b) * st.alpha
        for method in ("fft", "direct"):
            np.testing.assert_allclose(rhs(st, gaussian, method), expected,
                                       atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_direct_matches_fft(self, gaussian, m):
        # the kernel's circulant products against the direct sum; M = 6 gives the odd G = 27
        st = random_state(TorusLattice(4.0, m), rho=10.0, seed=m)
        np.testing.assert_allclose(rhs(st, gaussian, "direct"),
                                   rhs(st, gaussian, "fft"), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 6, 8, 16])
    def test_gaussian_convolution_matches_half_spectrum(self, gaussian, m):
        kernel = _get_kernel(gaussian, TorusLattice(float(m), m))
        assert not kernel.C.flags.writeable and not kernel.bC.flags.writeable
        assert np.array_equal(kernel.C, kernel.C.T)
        phi = kernel.field(random_state(kernel.lattice, seed=m).alpha)
        dens = np.abs(phi) ** 2
        G = kernel.G
        vhat = vhat_grid(gaussian, float(m), np.fft.fftfreq(G, 1.0 / G), limit=2 * m)
        ref = scipy.fft.irfftn(scipy.fft.rfftn(dens) * vhat[:, :, :G // 2 + 1], s=dens.shape)
        got = kernel.convolved_density(phi)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_unknown_method(self, gaussian):
        with pytest.raises(ValueError):
            rhs(quasi_condensate(), gaussian, "spectral")


class TestSplitStep:
    def test_plane_wave_is_exact(self, gaussian):
        lat = TorusLattice(4.0, 2)
        st = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0))
        omega_l = 4 * math.pi**2 / 16.0 + gaussian.b
        dt = 1e-3
        cur = st
        for _ in range(100):
            cur = step_split(cur, gaussian, dt)
        expected = np.exp(-1j * omega_l * 100 * dt)
        got = cur.alpha[lat.index_of((1, 0, 0))]
        assert abs(got - expected) < 1e-12
        off = cur.alpha.copy()
        off[lat.index_of((1, 0, 0))] = 0.0
        assert np.max(np.abs(off)) < 1e-12  # other modes stay at FFT dust

    def test_mass_conserved_per_step(self, gaussian):
        st = quasi_condensate(m=3)
        stepped = step_split(st, gaussian, 1e-3)
        assert abs(stepped.mass - st.mass) < 1e-12

    def test_energy_conserved_over_run(self, gaussian):
        traj = evolve(quasi_condensate(m=3), gaussian, 0.02,
                      IntegratorConfig(dt=1e-3), keep_states=False)
        e = [r.energy for r in traj.records]
        assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-9

    def test_second_order_convergence(self, gaussian):
        # Richardson triple; in the spectrally resolved regime the
        # symmetric composition converges at its design order
        st = quasi_condensate(m=2, eps=0.1, s=4.0)
        t = 0.05

        def end(dt):
            cur = st
            for _ in range(round(t / dt)):
                cur = step_split(cur, gaussian, dt)
            return cur

        a, b, c = end(2e-3), end(1e-3), end(5e-4)
        order = math.log2(l2_dist(a, b) / l2_dist(b, c))
        assert order > 1.9

    def test_phase_matches_complex_exponential(self, gaussian):
        # the step builds exp(-i dt V) as cos + i sin of a real angle
        st = quasi_condensate(m=3, eps=0.3, s=2.0)
        dt = 1e-2
        kernel = _get_kernel(gaussian, st.lattice)
        half = kernel.half_kinetic_phase(dt)
        phi = kernel.field(half * st.alpha)
        phi = phi * np.exp(-1j * dt * kernel.convolved_density(phi))
        expected = half * kernel.crop(phi)
        got = step_split(st, gaussian, dt).alpha
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("m", [8, 16])
    def test_products_keep_written_operand_order(self, gaussian, m):
        # numpy computes x * temporary as temporary * x once the temporary
        # has 256 KiB, and a complex multiply need not be bitwise
        # commutative: the reference names every operand, so it multiplies
        # in the written order at every size (G^3 above that size at M >= 6,
        # the cropped (2M+1)^3 at M >= 13)
        st = quasi_condensate(m=m, L=float(m))
        dt = 1e-3
        kernel = _get_kernel(gaussian, st.lattice)
        half = kernel.half_kinetic_phase(dt)
        alpha = st.alpha
        a = half * alpha
        phi = kernel.field(a)
        density = kernel.convolved_density(phi)
        half_theta = -0.5 * dt * density
        tan = np.tan(half_theta)
        tan_sq = tan * tan
        one_minus = 1.0 - tan_sq
        one_plus = tan_sq + 1.0
        cos = one_minus / one_plus
        two_tan = tan + tan
        sin = two_tan / one_plus
        isin = 1j * sin
        phase = cos + isin
        turned = phi * phase
        cropped = kernel.crop(turned)
        expected = half * cropped
        np.testing.assert_array_equal(step_split(st, gaussian, dt).alpha, expected)

    @pytest.mark.parametrize("m, L", [(8, 4.0), (8, 8.0), (16, 16.0)])
    @pytest.mark.parametrize("dt", [0.02, 0.0025])
    def test_step_grid_matches_the_record_grid(self, gaussian, monkeypatch, m, L, dt):
        # the step grid drops Vhat beyond K only where its weight is at roundoff
        def end():
            cur = quasi_condensate(m=m, L=L, eps=0.2, s=3.0)
            for _ in range(10):
                cur = step_split(cur, gaussian, dt)
            return cur

        kernel = _get_kernel(gaussian, TorusLattice(L, m))
        assert kernel.G < kernel.record.G
        narrow = end()
        monkeypatch.setattr(evolution, "_get_kernel", lambda model, lat: kernel.record)
        assert l2_dist(narrow, end()) <= 1e-13

    def test_capped_bandwidth_step_covers_the_phase(self, gaussian, monkeypatch):
        # at K = 2M the pointwise phase's second-order modes reach M + 2K and alias
        # onto the crop: the kernel's _fast_len(4M + 2) = 10 meets G = 15, alias-free
        # to second order, at roundoff, and the minimal _fast_len(4M + 1) = 9 does not
        st = quasi_condensate(m=2, L=4.0, eps=0.2, s=3.0)
        kernel = _get_kernel(gaussian, st.lattice)
        assert (kernel.K, kernel.G) == (4, 10)
        kept = step_split(st, gaussian, 0.02)

        def step_on(G):
            monkeypatch.setattr(field, "_fast_len", lambda n: G)
            grid = _Kernel(st.lattice, kernel.b, kernel.g, kernel.K)
            monkeypatch.setattr(evolution, "_get_kernel", lambda model, lat: grid)
            return step_split(st, gaussian, 0.02)

        wide, narrow = step_on(15), step_on(9)
        assert l2_dist(kept, wide) <= 2e-15
        assert l2_dist(narrow, wide) >= 2e-14

    def test_tangent_phase_matches_cos_and_sin(self):
        # the step's phase for prescribed angles: a unit field, a density
        # of -theta at dt = 1, and a crop that keeps what it is given
        model = GaussianPotential()
        st = make_state("plane_wave", TorusLattice(4.0, 1), 10.0)
        kernel = _get_kernel(model, st.lattice)
        listed = [s * x for x in (1e-4, 1.0, math.pi / 2, math.pi, 1e3, 1e6) for s in (1, -1)]
        spread = np.random.default_rng(5).choice([-1.0, 1.0], kernel.G**3 - len(listed))
        spread *= 10.0 ** np.linspace(-8.0, 6.0, spread.size)
        theta = np.concatenate([listed, spread]).reshape((kernel.G,) * 3)
        phases = []
        kernel.field = lambda a: np.ones(theta.shape, dtype=complex)
        kernel.convolved_density = lambda phi: -theta
        kernel.crop = lambda phi: phases.append(phi.copy()) or np.zeros(st.lattice.shape, complex)
        step_split(st, model, 1.0)
        phase, = phases
        assert np.max(np.abs(phase.real - np.cos(theta))) <= 4.5e-16
        assert np.max(np.abs(phase.imag - np.sin(theta))) <= 4.5e-16
        assert np.max(np.abs(phase.real**2 + phase.imag**2 - 1.0)) <= 1e-15


class TestRk4:
    def test_fourth_order_convergence(self, gaussian):
        # rhs is the exact projected vector field, so the classical order
        # holds even for states saturating the cutoff
        st = quasi_condensate(m=2, eps=0.5, s=2.0)
        t = 0.02

        def end(dt):
            cur = st
            for _ in range(round(t / dt)):
                cur = step_rk4(cur, gaussian, dt)
            return cur

        a, b, c = end(2e-3), end(1e-3), end(5e-4)
        order = math.log2(l2_dist(a, b) / l2_dist(b, c))
        assert order > 3.7

    def test_blowup_detected(self, gaussian):
        st = quasi_condensate(m=2, eps=0.5, s=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError):
                cur = st
                for _ in range(5):
                    cur = step_rk4(cur, gaussian, 1e6)


class TestReversibility:
    @pytest.mark.parametrize("stepper", [step_split, step_rk4])
    def test_conjugate_reflection_reverses_flow(self, gaussian, stepper):
        # R step(dt) R equals step(-dt) to roundoff for either scheme
        st = quasi_condensate(m=2, eps=0.2, s=3.0)
        via_reversal = time_reversal(stepper(time_reversal(st), gaussian, 1e-3))
        directly = stepper(st, gaussian, -1e-3)
        assert l2_dist(via_reversal, directly) < 1e-13

    def test_round_trip_on_quasi_condensate(self, gaussian):
        st = quasi_condensate(m=2, eps=0.1, s=6.0)
        cur = st
        for _ in range(20):
            cur = step_split(cur, gaussian, 1e-3)
        cur = time_reversal(cur)
        for _ in range(20):
            cur = step_split(cur, gaussian, 1e-3)
        loop = time_reversal(cur)
        assert l2_dist(loop, st) < 1e-8


class TestLifespanGuard:
    def test_zero_mode_reference_value(self, gaussian):
        st = make_state("plane_wave", TorusLattice(4.0, 2), 10.0, k0=(0, 0, 0))
        guard = lifespan_guard(st, gaussian)
        assert guard.guard == pytest.approx(1.0 / (12.0 * B_GAUSS), rel=1e-13)
        assert guard.t_star == guard.guard  # weight 1 at the zero mode

    def test_moving_condensate_shrinks_guard(self, gaussian):
        lat = TorusLattice(4.0, 2)
        rest = make_state("plane_wave", lat, 10.0, k0=(0, 0, 0))
        moving = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0))
        w = 1.0 + 4 * math.pi**2 / 16.0
        assert lifespan_guard(moving, gaussian).guard == pytest.approx(
            lifespan_guard(rest, gaussian).guard / w**2, rel=1e-13)

    def test_guard_independent_of_rho_for_normalized_states(self, gaussian):
        lat = TorusLattice(4.0, 2)
        a = make_state("perturbed", lat, 10.0, eps=0.1, s=5.0, seed=3)
        b = make_state("perturbed", lat, 1000.0, eps=0.1, s=5.0, seed=3)
        assert lifespan_guard(a, gaussian).guard == pytest.approx(
            lifespan_guard(b, gaussian).guard, rel=1e-14)

    @pytest.mark.parametrize("call, name", [
        (lambda z, m: evolve(z, m, 2e-3, IntegratorConfig(dt=1e-3)), "S0"),
        (lambda z, m: evolve(z, m, 2e-3, IntegratorConfig(dt=1e-3, method="rk4")), "S0"),
        (lambda z, m: evolve(z, m, 2e-3, IntegratorConfig(dt=1e-3, method="picard")), "W2"),
        (lambda z, m: picard_solve(z, m, 1e-3), "W2"),
        (lambda z, m: lifespan_guard(z, m), "W2"),
    ], ids=["split_strang", "rk4", "picard", "picard_solve", "lifespan_guard"])
    def test_zero_state_is_refused(self, gaussian, call, name):
        zero = SpectralState(TorusLattice(4.0, 2), 10.0, 0.0, np.zeros((5, 5, 5)))
        with pytest.raises(ValueError, match=f"^{name} = .* must be positive and finite"):
            call(zero, gaussian)


class TestPicard:
    def test_plane_wave_closed_form(self, gaussian):
        lat = TorusLattice(4.0, 2)
        st = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0), theta=0.2)
        t = 0.3 * lifespan_guard(st, gaussian).guard
        out = picard_solve(st, gaussian, t)
        omega_l = 4 * math.pi**2 / 16.0 + gaussian.b
        got = out.alpha[lat.index_of((1, 0, 0))]
        assert abs(got - np.exp(1j * (0.2 - omega_l * t))) < 1e-12

    def test_matches_fine_split_step(self, gaussian):
        st = quasi_condensate(m=3)
        t = 0.1 * lifespan_guard(st, gaussian).guard
        oracle = picard_solve(st, gaussian, t)
        cur = st
        for _ in range(256):
            cur = step_split(cur, gaussian, t / 256.0)
        assert l2_dist(oracle, cur) < 1e-7

    @pytest.mark.parametrize("q", [8, 16])
    def test_collocation_matrix_integrates_polynomials(self, q):
        # (Q p(s))_i = int_0^{s_i} p for every p of degree < q; u = s / t in [0, 1]
        t = 0.7
        nodes, _, S = _quadrature(q)
        u = 0.5 * (nodes + 1.0)
        Q = (0.5 * t) * S
        for k in range(q):
            np.testing.assert_allclose(Q @ u**k, t * u ** (k + 1) / (k + 1),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("q", [8, 16])
    def test_interpolation_matrix_reproduces_polynomials(self, q):
        # (P p(s))_i = p(s'_i) for every p of degree < q, from q to 2q nodes
        nodes, new_nodes = _quadrature(q)[0], _quadrature(2 * q)[0]
        P = _doubling(q)
        u, new_u = 0.5 * (nodes + 1.0), 0.5 * (new_nodes + 1.0)
        for k in range(q):
            np.testing.assert_allclose(P @ u**k, new_u**k, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
    def test_quadrature_cache_is_read_only_and_uncached_equal(self, q):
        # picard_solve's per-q data equals a fresh build, bit for bit, and
        # cannot be written through, so no solve can corrupt the next one
        nodes, weights, S = _quadrature(q)
        assert _quadrature(q)[2] is S
        fresh_nodes, fresh_weights = leggauss(q)
        built = [(nodes, fresh_nodes), (weights, fresh_weights),
                 (S, _integration_matrix(fresh_nodes))]
        if q < 64:
            built.append((_doubling(q), _interpolation_matrix(fresh_nodes, leggauss(2 * q)[0])))
        for cached, fresh in built:
            assert np.array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0

    @staticmethod
    def count_calls(monkeypatch):
        # the list gets one entry per kernel.nonlinear call
        calls = []
        nonlinear = _Kernel.nonlinear

        def counted(kernel, alpha):
            calls.append(None)
            return nonlinear(kernel, alpha)

        monkeypatch.setattr(_Kernel, "nonlinear", counted)
        return calls

    def test_doubled_passes_start_warm(self, gaussian, monkeypatch):
        # q = 4 sweeps from the free flight; q = 8 starts from its solution
        # and settles in one sweep, and each endpoint reuses its pass's last
        # sweep: 4 sweeps + 8 * 1 kernel calls
        calls = self.count_calls(monkeypatch)
        st = quasi_condensate(m=3, eps=0.05)
        guard = lifespan_guard(st, gaussian).guard
        counts = []
        for frac in (0.05, 0.1, 0.2, 0.3):
            calls.clear()
            picard_solve(st, gaussian, frac * guard)
            counts.append(len(calls))
        assert counts == [24, 28, 28, 32]

    def test_tight_tolerance_climbs_the_ladder(self, gaussian, monkeypatch):
        # near the guard and at tol = 1e-14 the q = 4 and 8 endpoints differ
        # by more than 0.1 tol, so the solve goes on to q = 16 and 32; a
        # _doubling build asks for no q above the pass that needs it, so the
        # largest q asked for is the top pass
        calls = self.count_calls(monkeypatch)
        rungs = []
        quadrature = evolution._quadrature

        def recorded(q):
            rungs.append(q)
            return quadrature(q)

        monkeypatch.setattr(evolution, "_quadrature", recorded)
        st = quasi_condensate(m=3, eps=0.05)
        t = 0.9 * lifespan_guard(st, gaussian).guard
        out = picard_solve(st, gaussian, t, tol=1e-14)
        assert rungs[0] == 4 and max(rungs) == 32
        assert len(calls) == 116
        assert np.max(np.abs(out.alpha - picard_per_node(st, gaussian, t, tol=1e-14))) <= 1e-14

    def test_bit_identical_across_blas_threads(self):
        src = os.path.dirname(os.path.dirname(torus_hartree.__file__))
        code = textwrap.dedent("""
            import hashlib
            from torus_hartree import (GaussianPotential, TorusLattice, autocorrelation,
                                       lifespan_guard, make_state, picard_solve, step_split)
            from torus_hartree.diagnostics import make_record
            model = GaussianPotential()
            for m in (3, 8):
                st = make_state("perturbed", TorusLattice(4.0, m), 10.0, eps=0.05, s=6.0, seed=1)
                for frac in (0.05, 0.3):
                    out = picard_solve(st, model, frac * lifespan_guard(st, model).guard)
                    print(m, frac, hashlib.sha256(out.alpha.tobytes()).hexdigest())
            st = make_state("perturbed", TorusLattice(8.0, 8), 10.0, eps=0.2, s=3.0, seed=2)
            print("beta", hashlib.sha256(autocorrelation(st).beta.tobytes()).hexdigest())
            st = make_state("perturbed", TorusLattice(16.0, 16), 10.0, eps=0.2, s=3.0, seed=3)
            for _ in range(3):
                st = step_split(st, model, 1e-3)
            print("strang", hashlib.sha256(st.alpha.tobytes()).hexdigest())
            record = make_record(st, model)
            print("record", repr(record.energy_per_particle), repr(record.beta_gap))
            for m in (25, 32):  # step grids G = 88 and 112
                st = make_state("perturbed", TorusLattice(float(m), m), 10.0,
                                eps=0.2, s=3.0, seed=m)
                st = step_split(st, model, 1e-3)
                print("strang", m, hashlib.sha256(st.alpha.tobytes()).hexdigest())
            """)
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        outputs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=path,
                                                      OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2", "4")]
        assert len(outputs[0].splitlines()) == 9
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("frac", [0.1, 0.3, 0.6, 0.9])
    def test_matches_per_node_reference(self, gaussian, m, frac):
        lat = TorusLattice(4.0, m)
        states = [quasi_condensate(m=m), random_state(lat, 10.0, seed=m),
                  make_state("plane_wave", lat, 10.0, k0=(1, 0, -1), theta=0.4)]
        for st in states:
            t = frac * lifespan_guard(st, gaussian).guard
            got = picard_solve(st, gaussian, t).alpha
            assert np.max(np.abs(got - picard_per_node(st, gaussian, t))) <= 1e-14

    def test_zero_horizon_is_identity(self, gaussian):
        st = quasi_condensate()
        out = picard_solve(st, gaussian, 0.0)
        assert out is st

    def test_guard_enforced(self, gaussian):
        st = quasi_condensate()
        guard = lifespan_guard(st, gaussian).guard
        with pytest.raises(LifespanGuardError, match="t_target = .* is not below") as err:
            picard_solve(st, gaussian, guard)
        assert err.value.guard == pytest.approx(guard)
        picard_solve(st, gaussian, 0.99 * guard)  # just inside is fine

    def test_contraction_ball_enforced(self, gaussian):
        st = quasi_condensate()
        t = 0.5 * lifespan_guard(st, gaussian).guard
        with pytest.raises(ContractionError):
            picard_solve(st, gaussian, t, tau=1.0 + 1e-12)

    def test_iteration_budget_enforced(self, gaussian):
        st = quasi_condensate()
        t = 0.5 * lifespan_guard(st, gaussian).guard
        with pytest.raises(ConvergenceError):
            picard_solve(st, gaussian, t, max_iter=1)

    def test_argument_validation(self, gaussian):
        st = quasi_condensate()
        with pytest.raises(ValueError):
            picard_solve(st, gaussian, -1.0)
        with pytest.raises(ValueError):
            picard_solve(st, gaussian, 1e-3, tau=0.9)
        with pytest.raises(ValueError):
            picard_solve(st, gaussian, 1e-3, tol=0.0)
        for max_iter in (0, -3, True, 2.5):
            with pytest.raises(ValueError, match="max_iter must be"):
                picard_solve(st, gaussian, 1e-3, max_iter=max_iter)
        for t_target in (math.nan, math.inf, True, "1e-3"):
            with pytest.raises(ValueError, match="t_target must be"):
                picard_solve(st, gaussian, t_target)
        # an infinite tol or tau would return an uncertified result
        with pytest.raises(ValueError, match="tol must be"):
            picard_solve(st, gaussian, 1e-3, tol=math.inf)
        with pytest.raises(ValueError, match="tau must be"):
            picard_solve(st, gaussian, 1e-3, tau=math.inf)


class TestEvolve:
    def test_record_times_are_exact_grid_points(self, gaussian):
        st = quasi_condensate()
        traj = evolve(st, gaussian, 0.0105, IntegratorConfig(dt=1e-3))
        times = [r.t for r in traj.records]
        assert times == [k * 1e-3 for k in range(11)] + [0.0105]
        assert traj.final_state.t == 0.0105

    def test_stride(self, gaussian):
        st = quasi_condensate()
        traj = evolve(st, gaussian, 0.01, IntegratorConfig(dt=1e-3), stride=3)
        times = [r.t for r in traj.records]
        assert times == [k * 1e-3 for k in (0, 3, 6, 9, 10)]
        # a shortened last step is recorded, the full step before it is not
        traj = evolve(st, gaussian, 0.0105, IntegratorConfig(dt=1e-3), stride=4)
        assert [r.t for r in traj.records] == [0.0, 4e-3, 8e-3, 0.0105]
        traj = evolve(st, gaussian, 5e-4, IntegratorConfig(dt=1e-3), stride=4)
        assert [r.t for r in traj.records] == [0.0, 5e-4]

    def test_t_final_zero_records_the_state(self, gaussian):
        st = quasi_condensate()
        traj = evolve(st, gaussian, 0.0)
        assert traj.records == [make_record(st, gaussian,
                                            TrajectoryContext.from_state(st, gaussian))]
        assert traj.final_state is st
        assert traj.states == [st]

    def test_states_align_with_records(self, gaussian):
        st = quasi_condensate()
        traj = evolve(st, gaussian, 5e-3, IntegratorConfig(dt=1e-3), stride=2)
        assert len(traj.states) == len(traj.records)
        for s, r in zip(traj.states, traj.records):
            assert s.t == r.t
        traj2 = evolve(st, gaussian, 5e-3, IntegratorConfig(dt=1e-3),
                       keep_states=False)
        assert traj2.states is None

    def test_methods_agree_on_short_horizon(self, gaussian):
        st = quasi_condensate(m=2)
        t = 2e-3
        ends = {}
        for method in ("split_strang", "rk4", "picard"):
            cfg = IntegratorConfig(method=method, dt=1e-4)
            ends[method] = evolve(st, gaussian, t, cfg,
                                  keep_states=False).final_state
        assert l2_dist(ends["split_strang"], ends["picard"]) < 1e-8
        assert l2_dist(ends["rk4"], ends["picard"]) < 1e-10

    def test_picard_method_guards_full_horizon(self, gaussian):
        st = quasi_condensate()
        guard = lifespan_guard(st, gaussian).guard
        with pytest.raises(LifespanGuardError, match="t_final = .* is not below"):
            evolve(st, gaussian, 2 * guard,
                   IntegratorConfig(method="picard", dt=guard / 4))

    def test_argument_validation(self, gaussian):
        st = quasi_condensate()
        with pytest.raises(ValueError):
            evolve(st, gaussian, -1e-3)
        with pytest.raises(ValueError):
            evolve(st, gaussian, 1e-3, stride=0)
        for t_final in (math.nan, math.inf, float("1e999")):
            with pytest.raises(ValueError, match="finite"):
                evolve(st, gaussian, t_final)
        for stride in (math.nan, math.inf, 1.5):
            with pytest.raises(ValueError, match="stride must be an integer"):
                evolve(st, gaussian, 1e-3, stride=stride)
        for t_final in ([1], None, True, "1e-3"):
            with pytest.raises(ValueError, match="t_final must be a finite number"):
                evolve(st, gaussian, t_final)
        for t_final, dt in ((1e308, 1e-3), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="t_final / dt .* beyond the float range"):
                evolve(st, gaussian, t_final, IntegratorConfig(dt=dt))

    def test_refuses_a_record_clock_that_cannot_advance(self, gaussian, monkeypatch):
        steps = []
        monkeypatch.setattr(evolution, "step_split",
                            lambda *args: steps.append(None) or step_split(*args))
        st = quasi_condensate()
        # at 2**40 the float spacing is 2**-12: a 1e-3 step advances the
        # clock, the shortened 5e-5 last step does not, and steps of 1.5e-4
        # (between half a spacing and one) advance on some steps only
        for t0, t_final, dt in ((1e16, 5e-3, 1e-3), (1e308, 5e-3, 1e-3),
                                (2.0**40, 1.05e-3, 1e-3), (2.0**40, 4.5e-4, 1.5e-4)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the record clock cannot advance from t = {t0!r} by steps of dt = {dt!r}")):
                evolve(st.with_alpha(st.alpha, t=t0), gaussian, t_final,
                       IntegratorConfig(dt=dt))
        assert steps == []
        traj = evolve(st.with_alpha(st.alpha, t=2.0**40), gaussian, 2e-3)
        assert len(steps) == 2 and len(traj.records) == 3

    def test_t_final_below_the_rounding_slack_is_one_step(self, gaussian):
        # the 1e-12 dt slack absorbs the rounding of t_final / dt; it must
        # not swallow a t_final shorter than the slack itself
        st = quasi_condensate()
        cfg = IntegratorConfig(dt=1e-3)
        traj = evolve(st, gaussian, 1e-16, cfg)
        assert [r.t for r in traj.records] == [0.0, 1e-16]
        assert traj.final_state.t == 1e-16 and traj.final_state is not st
        # within the slack of a multiple of dt, no extra step is taken
        traj = evolve(st, gaussian, 2e-3 + 1e-16, cfg)
        assert [r.t for r in traj.records] == [0.0, 1e-3, 2e-3]
        # and the one step is held to the record-clock check
        with pytest.raises(ValueError, match="the record clock cannot advance"):
            evolve(st.with_alpha(st.alpha, t=1.0), gaussian, 1e-16, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="leapfrog")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(picard_tau=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(picard_max_iter=0)
        for bad in (math.nan, math.inf):
            for name in ("dt", "picard_tol", "picard_tau"):
                with pytest.raises(ValueError, match="finite"):
                    IntegratorConfig(**{name: bad})
        for bad in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match="picard_max_iter must be an integer"):
                IntegratorConfig(picard_max_iter=bad)
        for bad in (True, "0.001", None, [1e-3], 10**400):
            for name in ("dt", "picard_tol", "picard_tau"):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    IntegratorConfig(**{name: bad})
        with pytest.raises(ValueError, match="picard_max_iter must be an integer"):
            IntegratorConfig(picard_max_iter=10**400)

    def test_config_coerces_json_numbers(self):
        cfg = IntegratorConfig(dt=1, picard_tau=2, picard_max_iter=50.0)
        assert [type(v) for v in (cfg.dt, cfg.picard_tau, cfg.picard_max_iter)] \
            == [float, float, int]


class TestKernelCache:
    def test_phase_cache_keeps_two_step_sizes(self, gaussian):
        # evolve needs dt and its shortened last step; a caller looping
        # over step sizes must not grow the cache without limit
        kernel = _get_kernel(gaussian, TorusLattice(4.0, 2))
        for k in range(1000):
            kernel.half_kinetic_phase(1e-3 * (1 + k))
        assert len(kernel._phases) <= 2
        first = kernel.half_kinetic_phase(1e-3)
        assert kernel.half_kinetic_phase(1e-3) is first
        np.testing.assert_array_equal(first, np.exp(-0.5j * 1e-3 * kernel.lattice.omega))

    def test_threads_share_the_phase_cache(self, gaussian):
        # a lost update only costs a recomputation: every phase stays right
        kernel = _get_kernel(gaussian, TorusLattice(4.0, 1))
        steps = [1e-3 * (1 + k % 5) for k in range(400)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(kernel.half_kinetic_phase, steps, timeout=30))
        finally:
            sys.setswitchinterval(old_interval)
        for dt, phase in zip(steps, got):
            np.testing.assert_array_equal(phase, np.exp(-0.5j * dt * kernel.lattice.omega))
        assert len(kernel._phases) <= 2

    def test_kernel_is_shared_per_model_and_lattice(self, gaussian):
        lat = TorusLattice(4.0, 2)
        kernel = _get_kernel(gaussian, lat)
        assert _get_kernel(gaussian, TorusLattice(4.0, 2)) is kernel
        assert _get_kernel(GaussianPotential(), lat) is not kernel

    def test_kernel_dies_with_its_model(self):
        model = GaussianPotential()
        st = quasi_condensate()
        step_split(st, model, 1e-3)
        ref = weakref.ref(_get_kernel(model, st.lattice))
        del model
        gc.collect()
        assert ref() is None

    def test_concurrent_lookups_build_one_kernel(self):
        # scan workers share the cache: racing first lookups must agree
        workers = 8
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for m in range(1, 21):
                    model, lat = GaussianPotential(), TorusLattice(4.0, 1 + m % 3)
                    barrier = threading.Barrier(workers, timeout=10)

                    def lookup(_):
                        barrier.wait()
                        return _get_kernel(model, lat)

                    kernels = list(pool.map(lookup, range(workers), timeout=30))
                    assert all(k is kernels[0] for k in kernels)
        finally:
            sys.setswitchinterval(old_interval)

    def test_concurrent_records_build_one_kernel(self):
        # the record grid is built on first use: racing first records must agree
        workers = 8
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in range(10):
                    kernel = _get_kernel(GaussianPotential(), TorusLattice(4.0, 3))
                    barrier = threading.Barrier(workers, timeout=10)

                    def lookup(_):
                        barrier.wait()
                        return kernel.record

                    records = list(pool.map(lookup, range(workers), timeout=30))
                    assert records[0] is not kernel and records[0].G == 14
                    assert all(r is records[0] for r in records)
        finally:
            sys.setswitchinterval(old_interval)

    def test_threads_share_one_kernel(self, gaussian):
        # a kernel holds no scratch buffers, so concurrent calls cannot mix
        lat = TorusLattice(4.0, 3)
        kernel = _get_kernel(gaussian, lat)
        inputs = [random_state(lat, seed=seed).alpha for seed in range(12)]
        serial = [kernel.nonlinear(a) for a in inputs]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for _ in range(5):
                    got = list(pool.map(kernel.nonlinear, inputs, timeout=30))
                    for g, want in zip(got, serial):
                        np.testing.assert_array_equal(g, want)
        finally:
            sys.setswitchinterval(old_interval)


def test_hot_path_uses_no_full_grid_numpy_fft(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("full-grid np.fft call on the hot path")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    model = GaussianPotential()  # fresh model: the kernel is built under the patch
    st = quasi_condensate(m=3)
    step_split(st, model, 1e-3)
    step_rk4(st, model, 1e-3)
    context = diagnostics.TrajectoryContext.from_state(st, model)
    diagnostics.make_record(st, model, context)
    autocorrelation(st)
    pointwise_product(st, st)
