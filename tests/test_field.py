"""Lattice states, auto-correlation, Wiener sums, snapshots."""

import json
import math
import re
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import next_fast_len

from torus_hartree import (
    GaussianPotential,
    IntegratorConfig,
    SpectralState,
    TorusLattice,
    autocorrelation,
    difference_lattice,
    evolve,
    lifespan_guard,
    load_state,
    make_record,
    make_state,
    picard_solve,
    pointwise_product,
    random_state,
    s_sum,
    save_state,
    t_sum,
    time_reversal,
    to_physical,
    wiener_norm,
)
from torus_hartree.field import (_dft_analysis, _dft_synthesis, _fast_len, _get_kernel,
                                 _transform)
from torus_hartree.potential import vhat_grid


class TestLattice:
    def test_basic_geometry(self):
        lat = TorusLattice(4.0, 2)
        assert lat.size == 5  # points per axis
        assert lat.shape == (5, 5, 5)
        np.testing.assert_array_equal(lat.n1d, [-2, -1, 0, 1, 2])
        assert lat.norm_sq[0, 0, 0] == 12  # (-2,-2,-2)
        assert lat.norm_sq[2, 2, 2] == 0
        assert lat.omega[2, 2, 3] == pytest.approx(4 * math.pi**2 / 16.0)

    def test_index_of(self):
        lat = TorusLattice(4.0, 2)
        assert lat.index_of((0, 0, 0)) == (2, 2, 2)
        assert lat.index_of((-2, 1, 2)) == (0, 3, 4)
        with pytest.raises(ValueError):
            lat.index_of((3, 0, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusLattice(0.0, 2)
        with pytest.raises(ValueError):
            TorusLattice(4.0, -1)
        for L in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                TorusLattice(L, 2)
        # 4 pi^2 / L^2 or L^3 would overflow, underflow to 0 or divide by 0
        for L in (1e308, 1e103, 1e-160, 1e-308, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"at L = {L!r}")):
                TorusLattice(L, 2)
        for M in (math.nan, math.inf, 2.5, "3", [3], True):
            with pytest.raises(ValueError, match="M must be an integer"):
                TorusLattice(4.0, M)
        for L in (True, "4.0", [2.0], None):
            with pytest.raises(ValueError, match="L must be positive and finite"):
                TorusLattice(L, 2)
        assert TorusLattice(4.0, 4.0).M == 4

    def test_order_visits_shells_then_lex(self):
        lat = TorusLattice(4.0, 1)
        n = lat.n1d
        triples = np.stack(np.meshgrid(n, n, n, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        ordered = triples[lat.order]
        norms = (ordered**2).sum(axis=1)
        assert np.all(np.diff(norms) >= 0)
        # first entry is the origin, then the |n|^2 = 1 shell in lex order
        np.testing.assert_array_equal(ordered[0], [0, 0, 0])
        np.testing.assert_array_equal(ordered[1], [-1, 0, 0])

    @pytest.mark.parametrize("m", range(1, 13))
    def test_order_equals_the_four_key_lexsort(self, m):
        # the stable sort by |n|^2 is the permutation of a lexsort on
        # (|n|^2, n_0, n_1, n_2), so snapshot bytes do not move
        lat = TorusLattice(4.0, m)
        g = np.broadcast_arrays(*np.ix_(lat.n1d, lat.n1d, lat.n1d))
        keys = (g[2].ravel(), g[1].ravel(), g[0].ravel(), lat.norm_sq.ravel())
        assert np.array_equal(lat.order, np.lexsort(keys))

    def test_ordered_sum_matches_fsum(self, rng):
        lat = TorusLattice(4.0, 3)
        x = rng.normal(size=lat.shape)
        expected = math.fsum(x.ravel())
        assert lat.ordered_sum(x) == pytest.approx(expected, abs=1e-13)

    def test_ordered_sum_reproducible(self, rng):
        lat = TorusLattice(4.0, 3)
        x = rng.normal(size=lat.shape)
        assert lat.ordered_sum(x) == lat.ordered_sum(x.copy())

    @pytest.mark.parametrize("m", [*range(1, 17), 24, 32])
    def test_ordered_sums_match_ordered_sum_bit_for_bit(self, m):
        # magnitudes over 2^52, so a sum in any other order or blocking
        # would differ in the last bits
        lat = TorusLattice(4.0, m)
        stack = np.random.default_rng(m).uniform(-26.0, 26.0, (64, *lat.shape))
        np.exp2(stack, out=stack)
        for height in (1, 8, 64):
            got = lat.ordered_sums(stack[:height])
            assert got == [lat.ordered_sum(x) for x in stack[:height]]
            assert all(type(v) is float for v in got)

    def test_ordered_sums_refuse_a_stack_of_the_wrong_size(self):
        lat = TorusLattice(4.0, 2)
        for bad in (np.zeros((3, 5, 5, 4)), np.zeros((5, 5, 5)), np.float64(1.0),
                    np.zeros((2, 5 ** 3 + 1))):
            with pytest.raises(ValueError, match="array does not match lattice size"):
                lat.ordered_sums(bad)
        assert lat.ordered_sums(np.zeros((2, 5 ** 3))) == [0.0, 0.0]


class TestStates:
    def test_plane_wave(self):
        lat = TorusLattice(4.0, 2)
        st_ = make_state("plane_wave", lat, 10.0, k0=(1, 0, 0), theta=0.5)
        assert st_.mass == pytest.approx(1.0, abs=1e-15)
        assert st_.alpha[lat.index_of((1, 0, 0))] == pytest.approx(
            np.exp(0.5j), abs=1e-15)
        assert s_sum(st_) == pytest.approx(1.0, abs=1e-15)
        assert t_sum(st_) == pytest.approx(4 * math.pi**2 / 16.0, rel=1e-13)

    def test_two_mode_weights(self):
        # rho = 16, L = 8, exponent 3/8: escape mode floor(16^0.375 * 8) = 22
        lat = TorusLattice(8.0, 23)
        st_ = make_state("two_mode", lat, 16.0, k0=(0, 0, 0),
                         escape_exponent=0.375)
        w0 = abs(st_.alpha[lat.index_of((0, 0, 0))]) ** 2
        w1 = abs(st_.alpha[lat.index_of((22, 0, 0))]) ** 2
        assert w0 == pytest.approx(16.0 / 17.0, rel=1e-14)
        assert w1 == pytest.approx(1.0 / 17.0, rel=1e-14)
        assert st_.mass == pytest.approx(1.0, abs=1e-14)

    def test_two_mode_escape_outside_lattice(self):
        lat = TorusLattice(8.0, 4)
        with pytest.raises(ValueError):
            make_state("two_mode", lat, 16.0, escape_exponent=0.375)

    def test_two_mode_collision(self):
        lat = TorusLattice(4.0, 3)
        # rho^0 * L = 4 -> escape mode (4,0,0); with k0 = (4,0,0) it collides
        lat = TorusLattice(4.0, 5)
        with pytest.raises(ValueError):
            make_state("two_mode", lat, 1.0, k0=(4, 0, 0), escape_exponent=0.0)

    def test_perturbed_condensate_profile(self):
        lat = TorusLattice(4.0, 3)
        st_ = make_state("perturbed_condensate", lat, 10.0, k0=(0, 0, 0),
                         eps=0.1, s=6.0, seed=5)
        assert st_.mass == pytest.approx(1.0, abs=1e-13)
        mags = np.abs(st_.alpha)
        center = lat.index_of((0, 0, 0))
        assert mags[center] > 0.99
        # magnitudes follow eps (1+|n|)^(-s) up to the common normalization
        scale = mags[lat.index_of((1, 0, 0))] / (0.1 * 2.0**-6.0)
        far = mags[lat.index_of((2, 2, 1))]
        assert far == pytest.approx(scale * 0.1 * 4.0**-6.0, rel=1e-12)

    def test_perturbed_seed_determinism(self):
        lat = TorusLattice(4.0, 2)
        a = make_state("perturbed", lat, 10.0, eps=0.1, s=4.0, seed=9)
        b = make_state("perturbed", lat, 10.0, eps=0.1, s=4.0, seed=9)
        c = make_state("perturbed", lat, 10.0, eps=0.1, s=4.0, seed=10)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert np.any(a.alpha != c.alpha)

    def test_family_aliases(self):
        lat = TorusLattice(4.0, 1)
        a = make_state("plane-wave", lat, 1.0, k0=(1, 0, 0))
        b = make_state("plane_wave", lat, 1.0, k0=(1, 0, 0))
        np.testing.assert_array_equal(a.alpha, b.alpha)

    @pytest.mark.parametrize("family,canonical", [
        ("plane_wave", "plane_wave"), ("plane-wave", "plane_wave"),
        ("two_mode", "two_mode"), ("two-mode", "two_mode"),
        ("perturbed_condensate", "perturbed_condensate"),
        ("perturbed-condensate", "perturbed_condensate"),
        ("perturbed", "perturbed_condensate"),
    ])
    def test_family_spelling(self, family, canonical):
        lat = TorusLattice(2.0, 2)
        params = {"plane_wave": {"k0": (1, 0, 0), "theta": 0.5},
                  "two_mode": {"escape_exponent": 0.1},
                  "perturbed_condensate": {"eps": 0.1, "s": 4.0, "seed": 9},
                  }[canonical]
        np.testing.assert_array_equal(
            make_state(family, lat, 10.0, **params).alpha,
            make_state(canonical, lat, 10.0, **params).alpha)

    def test_non_finite_rho(self):
        lat = TorusLattice(4.0, 1)
        for rho in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                make_state("plane_wave", lat, rho)
            with pytest.raises(ValueError, match="finite"):
                SpectralState(lat, rho, 0.0, np.ones(lat.shape))

    def test_rejections(self):
        lat = TorusLattice(4.0, 1)
        with pytest.raises(ValueError):
            make_state("vortex", lat, 1.0)
        with pytest.raises(ValueError):
            make_state("plane_wave", lat, 1.0, k0=(0, 0, 0), phase=1.0)
        with pytest.raises(ValueError):
            make_state("plane_wave", lat, -1.0)
        with pytest.raises(ValueError):
            make_state("perturbed", lat, 1.0, eps=1.0, s=2.0, seed=0)
        with pytest.raises(ValueError, match="unknown state family"):
            make_state(["perturbed"], lat, 1.0, eps=0.1, s=2.0, seed=0)
        for rho in (None, "1.0", True):
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                make_state("plane_wave", lat, rho)
        for k0 in (5, [1.5, 0, 0], [1, 2], "100", [[1], [0], [0]]):
            for family, params in (("plane_wave", {}),
                                   ("two_mode", {"escape_exponent": 0.5}),
                                   ("perturbed", {"eps": 0.1, "s": 2.0, "seed": 0})):
                with pytest.raises(ValueError, match="k0 must be"):
                    make_state(family, lat, 1.0, k0=k0, **params)
        for name, value in (("eps", None), ("s", "2.0"), ("theta", math.nan),
                            ("seed", 1.5)):
            params = {"eps": 0.1, "s": 2.0, "seed": 0, name: value}
            with pytest.raises(ValueError, match=name):
                make_state("perturbed", lat, 1.0, **params)

    def test_family_keys(self):
        # each family's keys come from FAMILY_PARAMS, checked before any value
        lat = TorusLattice(4.0, 1)
        for family, params, message in (
                ("two_mode", {}, "'two_mode' requires parameters ['escape_exponent']"),
                ("perturbed", {"eps": 0.1, "s": 2.0},
                 "'perturbed_condensate' requires parameters ['seed']"),
                ("plane-wave", {"eps": "x", "s": None},
                 "'plane_wave' takes no parameters ['eps', 's']; it takes k0, theta")):
            with pytest.raises(ValueError, match=re.escape(message)):
                make_state(family, lat, 1.0, **params)

    def test_k0_read_as_integers(self):
        lat = TorusLattice(4.0, 1)
        for k0 in ([1.0, 0, -1], np.array([1, 0, -1])):
            st_ = make_state("plane_wave", lat, 1.0, k0=k0)
            assert st_.alpha[lat.index_of((1, 0, -1))] == 1.0

    def test_alpha_is_immutable(self):
        st_ = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        with pytest.raises(ValueError):
            st_.alpha[0, 0, 0] = 1.0


def direct_autocorrelation_oracle(state):
    """O(size^2) literal definition, kept independent of the library paths."""
    lat = state.lattice
    n = lat.n1d
    diff = difference_lattice(lat)
    beta = np.zeros(diff.shape, dtype=complex)
    coeffs = {tuple(v): state.alpha[lat.index_of(v)]
              for v in np.stack(np.meshgrid(n, n, n, indexing="ij"),
                                axis=-1).reshape(-1, 3)}
    for i, k1 in enumerate(diff.n1d):
        for j, k2 in enumerate(diff.n1d):
            for k, k3 in enumerate(diff.n1d):
                acc = 0.0 + 0.0j
                for (m1, m2, m3), a in coeffs.items():
                    shifted = (m1 + k1, m2 + k2, m3 + k3)
                    if shifted in coeffs:
                        acc += np.conj(a) * coeffs[shifted]
                beta[i, j, k] = acc
    return beta


class TestAutocorrelation:
    def test_fft_matches_literal_definition(self):
        st_ = random_state(TorusLattice(4.0, 1), seed=3)
        oracle = direct_autocorrelation_oracle(st_)
        np.testing.assert_allclose(autocorrelation(st_, "fft").beta, oracle,
                                   atol=1e-13)
        np.testing.assert_allclose(autocorrelation(st_, "direct").beta, oracle,
                                   atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2))
    def test_fft_matches_direct(self, seed, m):
        st_ = random_state(TorusLattice(4.0, m), seed=seed)
        fft = autocorrelation(st_, "fft").beta
        direct = autocorrelation(st_, "direct").beta
        np.testing.assert_allclose(fft, direct, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_fft_matches_direct_and_full_cube(self, M):
        # G = next_fast_len(4M+1) is 5, 9, 14, 18, 21: odd and even grids
        st_ = random_state(TorusLattice(4.0, M), seed=40 + M)
        fft = autocorrelation(st_).beta
        assert_rel_close(fft, autocorrelation(st_, "direct").beta)
        assert_rel_close(fft, full_cube_autocorrelation(st_))

    def test_two_mode_closed_form(self):
        lat = TorusLattice(8.0, 23)
        st_ = make_state("two_mode", lat, 16.0, escape_exponent=0.375)
        ac = autocorrelation(st_)
        diff = ac.lattice
        expected = np.zeros(diff.shape, dtype=complex)
        expected[diff.index_of((0, 0, 0))] = 1.0
        expected[diff.index_of((22, 0, 0))] = 4.0 / 17.0
        expected[diff.index_of((-22, 0, 0))] = 4.0 / 17.0
        np.testing.assert_allclose(ac.beta, expected, atol=1e-14)

    def test_properties_on_random_state(self):
        st_ = random_state(TorusLattice(3.0, 2), rho=5.0, seed=17)
        ac = autocorrelation(st_)
        beta = ac.beta
        center = ac.lattice.index_of((0, 0, 0))
        assert beta[center] == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(beta, np.conj(beta[::-1, ::-1, ::-1]),
                                   atol=1e-14)
        assert np.max(np.abs(beta)) <= 1.0 + 1e-12

    def test_quartic_mass_identity(self):
        # sum_k |beta(k)|^2 == integral |Psi|^4 / (rho^2 L^3)
        st_ = random_state(TorusLattice(3.0, 2), rho=7.0, seed=123)
        ac = autocorrelation(st_)
        psi = to_physical(st_, g=2)
        quartic = float(np.mean(np.abs(psi) ** 4)) * st_.lattice.L**3
        expected = quartic / (st_.rho**2 * st_.lattice.L**3)
        assert float(np.sum(np.abs(ac.beta) ** 2)) == pytest.approx(
            expected, rel=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            autocorrelation(random_state(TorusLattice(4.0, 1)), "magic")


def full_cube_autocorrelation(state):
    """beta by the padded numpy route: ifftn(|fftn(cube)|^2) on a 4M+1 grid."""
    lat = state.lattice
    G = next_fast_len(4 * lat.M + 1)
    cube = np.zeros((G, G, G), dtype=complex)
    cube[lat.embed_indexer(G)] = state.alpha
    corr = np.fft.ifftn(np.abs(np.fft.fftn(cube)) ** 2)
    return corr[difference_lattice(lat).embed_indexer(G)]


class TestNorms:
    def test_weight_by_hand(self):
        lat = TorusLattice(2.0 * math.pi, 2)  # 2 pi / L = 1
        alpha = np.zeros(lat.shape, dtype=complex)
        alpha[lat.index_of((1, 0, 0))] = 0.6
        alpha[lat.index_of((0, -2, 0))] = 0.8j
        st_ = SpectralState(lat, 1.0, 0.0, alpha)
        assert wiener_norm(st_, 0) == pytest.approx(1.4, rel=1e-14)
        assert wiener_norm(st_, 2) == pytest.approx(
            0.6 * 2.0 + 0.8 * 5.0, rel=1e-14)
        assert s_sum(st_) == pytest.approx(1.4, rel=1e-14)
        assert t_sum(st_) == pytest.approx(0.6 + 0.8 * 4.0, rel=1e-14)

    def test_r_validation(self):
        st_ = random_state(TorusLattice(4.0, 1))
        with pytest.raises(ValueError):
            wiener_norm(st_, 1)

    def test_sup_norm_bound(self):
        # ||Psi||_inf <= sqrt(rho) * S
        st_ = random_state(TorusLattice(4.0, 9.0), rho=9.0, seed=2)
        psi = to_physical(st_)
        assert np.max(np.abs(psi)) <= math.sqrt(st_.rho) * s_sum(st_) + 1e-12


class TestPhysicalSpace:
    def test_parseval(self):
        st_ = random_state(TorusLattice(4.0, 2), rho=10.0, seed=8)
        psi = to_physical(st_, g=2)
        assert float(np.mean(np.abs(psi) ** 2)) == pytest.approx(10.0, rel=1e-12)

    def test_plane_wave_is_uniform_density(self):
        st_ = make_state("plane_wave", TorusLattice(4.0, 2), 7.0, k0=(1, 1, 0))
        psi = to_physical(st_)
        np.testing.assert_allclose(np.abs(psi) ** 2, 7.0, rtol=1e-12)

    @pytest.mark.parametrize("g", [2.9, True, math.nan, math.inf, "2", 0])
    def test_rejects_bad_grid_factor(self, g):
        st_ = random_state(TorusLattice(4.0, 1), seed=8)
        with pytest.raises(ValueError):
            to_physical(st_, g)


def full_grid_reference(kernel, model, alpha):
    """Unpruned numpy route through the kernel's G^3 grid: phi, V*|phi|^2, P_M term."""
    lat, G = kernel.lattice, kernel.G
    idx = lat.embed_indexer(G)
    cube = np.zeros((G, G, G), dtype=complex)
    cube[idx] = alpha
    phi = G**3 * np.fft.ifftn(cube)
    vhat = vhat_grid(model, lat.L, np.fft.fftfreq(G, 1.0 / G), limit=2 * lat.M)
    conv = np.fft.ifftn(np.fft.fftn(np.abs(phi) ** 2) * vhat).real
    return phi, conv, np.fft.fftn(conv * phi)[idx] / G**3


def assert_rel_close(actual, expected, rel=1e-13):
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestKernel:
    """The pruned transforms against the full-cube numpy reference."""

    def check(self, M, seed):
        lat = TorusLattice(float(M), M)
        model = GaussianPotential()
        step = _get_kernel(model, lat)
        for kernel in (step, step.record):
            self.check_kernel(kernel, model, seed)
        return step

    def check_kernel(self, kernel, model, seed):
        lat = kernel.lattice
        alpha = random_state(lat, seed=seed).alpha
        phi_ref, conv_ref, nl_ref = full_grid_reference(kernel, model, alpha)
        phi = kernel.field(alpha)
        assert_rel_close(phi, phi_ref)
        assert_rel_close(kernel.crop(phi), alpha)
        assert np.max(np.abs(kernel.crop(phi) - alpha)) <= 1e-14
        assert_rel_close(kernel.convolved_density(phi), conv_ref)
        assert_rel_close(kernel.nonlinear(alpha), nl_ref)
        grid = np.random.default_rng(seed).normal(size=(kernel.G,) * 3 + (2,))
        grid = grid[..., 0] + 1j * grid[..., 1]
        assert_rel_close(kernel.crop(grid),
                         np.fft.fftn(grid)[lat.embed_indexer(kernel.G)] / kernel.G**3)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 8])
    def test_matches_full_grid(self, M):
        # M = 8 gives the odd record grid G = 35.
        kernel = self.check(M, seed=M)
        K = kernel.K
        assert kernel.G == next_fast_len(4 * M + 2 if K == 2 * M else 2 * M + K + 1)
        assert kernel.record.G == next_fast_len(4 * M + 2)

    @pytest.mark.parametrize("M", range(1, 13))
    @pytest.mark.parametrize("L_is_M", [True, False])
    def test_grid_rule(self, M, L_is_M):
        # L = M (kappa 1) and L = 4: the step grid is next_fast_len(2M + K + 1) below
        # K = 2M, and the record kernel (K = 2M) takes next_fast_len(4M + 2)
        lat = TorusLattice(float(M) if L_is_M else 4.0, M)
        kernel = _get_kernel(GaussianPotential(), lat)
        K = kernel.K
        assert kernel.G == _fast_len(4 * M + 2 if K == 2 * M else 2 * M + K + 1)
        assert kernel.record.G == _fast_len(4 * M + 2)
        assert kernel.record.K == 2 * M
        assert (kernel.record is kernel) == (K == 2 * M)

    @pytest.mark.parametrize("M, L, K, G", [(16, 16.0, 23, 56), (8, 8.0, 11, 28),
                                            (2, 4.0, 4, 10)])
    def test_bandwidth_is_the_least_at_roundoff(self, M, L, K, G):
        # the dropped weight (a + d)^3 - a^3 of the kernel's float g, in exact arithmetic
        kernel = _get_kernel(GaussianPotential(), TorusLattice(L, M))
        weights = [Fraction(g) * (2 if f else 1) for f, g in enumerate(kernel.g.tolist())]
        total, roundoff = sum(weights), Fraction(1, 2**53)

        def dropped(k):
            return total**3 - sum(weights[:k + 1]) ** 3

        assert (kernel.K, kernel.G) == (K, G)
        assert dropped(K) <= roundoff < dropped(K - 1)
        assert (kernel.record is kernel) == (K == 2 * M)

    def test_fast_len_is_scipy_next_fast_len(self):
        n = range(1, 2001)
        assert [_fast_len(k) for k in n] == [next_fast_len(k) for k in n]

    @settings(max_examples=20, deadline=None)
    @given(M=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_grid_property(self, M, seed):
        self.check(M, seed)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_transforms_on_kernel_and_odd_grids(self, M):
        # pointwise_product's grid (odd for M = 1, 2, 5), the kernel's record grid
        # (even for M <= 5), an odd padded one and the unpadded odd one, against
        # the full numpy transforms
        lat = TorusLattice(4.0, M)
        alpha = random_state(lat, seed=60 + M).alpha
        rng = np.random.default_rng(M)
        for G in (next_fast_len(4 * M + 1), next_fast_len(4 * M + 2), 4 * M + 3, lat.size):
            F = _dft_synthesis(M, G)
            A = _dft_analysis(F)
            assert not F.flags.writeable and not A.flags.writeable
            assert np.array_equal(F[:, ::-1], np.conj(F))  # conjugate-symmetric roots
            assert np.array_equal(A, np.conj(F.T) / G)
            idx = lat.embed_indexer(G)
            cube = np.zeros((G, G, G), dtype=complex)
            cube[idx] = alpha
            phi = _transform(alpha, F)
            assert_rel_close(phi, G**3 * np.fft.ifftn(cube))
            assert np.max(np.abs(_transform(phi, A) - alpha)) <= 1e-14
            grid = rng.normal(size=(G, G, G)) + 1j * rng.normal(size=(G, G, G))
            assert_rel_close(_transform(grid, A), np.fft.fftn(grid)[idx] / G**3)
            assert_rel_close(_transform(grid.real, A), np.fft.fftn(grid.real)[idx] / G**3)


class TestPointwiseProduct:
    def test_single_modes_add(self):
        lat = TorusLattice(4.0, 1)
        f = make_state("plane_wave", lat, 1.0, k0=(1, 0, 0))
        g = make_state("plane_wave", lat, 1.0, k0=(0, 1, 0))
        prod = pointwise_product(f, g)
        assert prod.lattice.M == 2
        expected = np.zeros(prod.lattice.shape, dtype=complex)
        expected[prod.lattice.index_of((1, 1, 0))] = 1.0
        np.testing.assert_allclose(prod.alpha, expected, atol=1e-14)

    def test_matches_physical_space_product(self):
        lat = TorusLattice(4.0, 2)
        f = random_state(lat, seed=1)
        g = random_state(lat, seed=2)
        prod = pointwise_product(f, g)

        def unit_field(state, grid):
            # literal Fourier synthesis on grid points x_j = j L / grid
            e = np.exp(2j * math.pi
                       * np.outer(np.arange(grid), state.lattice.n1d) / grid)
            return np.einsum("abc,ia,jb,kc->ijk", state.alpha, e, e, e)

        grid = 4 * lat.M + 2
        lhs = unit_field(prod, grid)
        rhs = unit_field(f, grid) * unit_field(g, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 8])
    def test_matches_full_cube(self, M):
        lat = TorusLattice(4.0, M)
        f = random_state(lat, seed=M)
        g = random_state(lat, seed=100 + M)
        G = next_fast_len(2 * lat.size - 1)
        idx = lat.embed_indexer(G)
        ca = np.zeros((G, G, G), dtype=complex)
        cb = np.zeros_like(ca)
        ca[idx] = f.alpha
        cb[idx] = g.alpha
        ref = np.fft.ifftn(np.fft.fftn(ca) * np.fft.fftn(cb))
        prod = pointwise_product(f, g)
        assert_rel_close(prod.alpha, ref[prod.lattice.embed_indexer(G)])

    def test_algebra_constant_extremal_pair(self):
        # two modes at euclidean radius 1 with L = 2 pi sqrt(2): the
        # product at radius 2 has weight 1 + (2pi/L)^2 * 4 = 3, each
        # factor 1 + 1/2, so the ratio is exactly 4/3
        lat = TorusLattice(2.0 * math.pi * math.sqrt(2.0), 1)
        f = make_state("plane_wave", lat, 1.0, k0=(1, 0, 0))
        ratio = wiener_norm(pointwise_product(f, f), 2) / wiener_norm(f, 2) ** 2
        assert ratio == pytest.approx(4.0 / 3.0, rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_algebra_inequality(self, seed):
        lat = TorusLattice(4.0, 2)
        f = random_state(lat, seed=seed)
        g = random_state(lat, seed=seed + 2**31)
        lhs = wiener_norm(pointwise_product(f, g), 2)
        assert lhs <= (4.0 / 3.0) * wiener_norm(f, 2) * wiener_norm(g, 2) + 1e-9

    def test_mismatched_lattices(self):
        f = random_state(TorusLattice(4.0, 1))
        g = random_state(TorusLattice(8.0, 1))
        with pytest.raises(ValueError):
            pointwise_product(f, g)


class TestTimeReversal:
    def test_involution(self):
        st_ = random_state(TorusLattice(4.0, 2), seed=4)
        np.testing.assert_array_equal(time_reversal(time_reversal(st_)).alpha,
                                      st_.alpha)

    def test_reflects_and_conjugates(self):
        lat = TorusLattice(4.0, 2)
        st_ = make_state("plane_wave", lat, 1.0, k0=(1, 0, -2), theta=0.3)
        rev = time_reversal(st_)
        assert rev.alpha[lat.index_of((-1, 0, 2))] == pytest.approx(
            np.exp(-0.3j), abs=1e-15)


class TestSnapshots:
    def test_only_snapshot_io_builds_the_shell_lex_order(self, tmp_path):
        # sums reduce the array they are given; the shell-lex order is the
        # snapshot's file order and nothing else
        model = GaussianPotential()
        lat = TorusLattice(4.0, 2)
        st_ = make_state("perturbed", lat, 10.0, eps=0.1, s=5.0, seed=3)
        evolve(st_, model, 3e-3, IntegratorConfig(dt=1e-3), stride=1)
        make_record(st_, model)
        picard_solve(st_, model, 0.1 * lifespan_guard(st_, model).guard)
        assert "order" not in lat.__dict__
        save_state(st_, tmp_path / "state.json")
        assert "order" in lat.__dict__

    def test_round_trip_bit_exact(self, tmp_path):
        st_ = make_state("perturbed", TorusLattice(4.0, 2), 10.0,
                         eps=0.1, s=5.0, seed=31)
        path = tmp_path / "state.json"
        save_state(st_, path, family="perturbed", seed=31)
        loaded = load_state(path)
        np.testing.assert_array_equal(loaded.alpha, st_.alpha)
        assert loaded.lattice == st_.lattice
        assert loaded.rho == st_.rho
        assert loaded.t == st_.t

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), L=st.floats(1e-3, 1e3), M=st.integers(1, 3),
           rho=st.floats(0.0, exclude_min=True, allow_infinity=False),
           t=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, data, L, M, rho, t):
        """save_state then load_state returns every number bit for bit,
        signed zeros and subnormals included."""
        lat = TorusLattice(L, M)
        parts = data.draw(hnp.arrays(float, (2, *lat.shape), elements=st.floats(-1.0, 1.0)))
        alpha = np.empty(lat.shape, dtype=complex)
        alpha.real, alpha.imag = parts
        alpha[lat.index_of((0, 0, 0))] = 1.0  # keeps the mass away from 0
        alpha = alpha / math.sqrt(SpectralState(lat, 1.0, 0.0, alpha).mass)
        state = SpectralState(lat, rho, t, alpha)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            save_state(state, path)
            loaded = load_state(path)
        assert loaded.alpha.tobytes() == state.alpha.tobytes()
        bits = struct.Struct("<3d")
        assert bits.pack(loaded.rho, loaded.t, loaded.lattice.L) == bits.pack(rho, t, lat.L)
        assert type(loaded.lattice.M) is int and loaded.lattice.M == M

    def test_header_contents(self, tmp_path):
        st_ = make_state("plane_wave", TorusLattice(4.0, 1), 2.0)
        path = tmp_path / "state.json"
        save_state(st_, path, family="plane_wave", seed=None)
        doc = json.loads(path.read_text())
        assert doc["format"] == "torus-hartree-state"
        assert doc["version"] == 1
        assert doc["L"] == 4.0 and doc["M"] == 1 and doc["rho"] == 2.0
        assert doc["family"] == "plane_wave"

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ValueError):
            load_state(path)

    def test_rejects_truncated_payload(self, tmp_path):
        st_ = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        path = tmp_path / "state.json"
        save_state(st_, path)
        doc = json.loads(path.read_text())
        doc["data"] = doc["data"][: len(doc["data"]) // 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_state(path)

    def test_rejects_wrongly_typed_numbers(self, tmp_path):
        st_ = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        path = tmp_path / "state.json"
        save_state(st_, path)
        good = json.loads(path.read_text())
        for key, value in (("rho", None), ("t", "0.0"), ("L", [4.0]), ("rho", True)):
            path.write_text(json.dumps({**good, key: value}))
            with pytest.raises(ValueError, match=f"{key} must be"):
                load_state(path)

    def test_rejects_wrongly_typed_header(self, tmp_path):
        st_ = make_state("plane_wave", TorusLattice(4.0, 1), 1.0)
        path = tmp_path / "state.json"
        save_state(st_, path)
        good = json.loads(path.read_text())
        path.write_text(json.dumps([good]))
        with pytest.raises(ValueError, match="not a state snapshot"):
            load_state(path)
        for data in (None, 5, [good["data"]], {}):
            path.write_text(json.dumps({**good, "data": data}))
            with pytest.raises(ValueError, match="data must be a base64 string"):
                load_state(path)

    def test_rejects_denormalized_state(self, tmp_path):
        lat = TorusLattice(4.0, 1)
        alpha = np.zeros(lat.shape, dtype=complex)
        alpha[lat.index_of((0, 0, 0))] = 0.5
        st_ = SpectralState(lat, 1.0, 0.0, alpha)
        path = tmp_path / "state.json"
        save_state(st_, path)
        with pytest.raises(ValueError):
            load_state(path)
