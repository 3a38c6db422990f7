"""Potential models: Fourier profiles, periodization, decay certificates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import torus_hartree
from torus_hartree import (
    ConsistencyError,
    DecayViolationError,
    GaussianPotential,
    TableRangeError,
    TabulatedRadialPotential,
    TorusLattice,
    check_decay,
    fourier_profile,
    make_potential,
    make_state,
    make_record,
    periodized_eval,
    potential_l1,
    potential_l2,
    step_split,
)
from torus_hartree.field import _get_kernel
from torus_hartree.potential import vhat_grid

from conftest import B_GAUSS


# every float, NaN, infinities and subnormals included, with positive values drawn
# as often again so that many draws reach the computation of b and C
ANY_FLOAT = st.floats() | st.floats(min_value=0.0, exclude_min=True)


def quad_fourier_oracle(profile, p, r_max=30.0):
    """Radial Fourier transform by adaptive quadrature, independent route."""
    if p == 0.0:
        val, _ = integrate.quad(lambda r: 4 * math.pi * r**2 * profile(r), 0, r_max)
        return val
    val, _ = integrate.quad(
        lambda r: 4 * math.pi * r * profile(r) * math.sin(p * r) / p, 0, r_max,
        limit=200)
    return val


class TestGaussian:
    def test_zero_momentum_value(self, gaussian):
        # (2 pi sigma^2)^{3/2} A at A = sigma = 1
        assert gaussian.b == pytest.approx((2 * math.pi) ** 1.5, abs=1e-14)
        assert gaussian.b == pytest.approx(B_GAUSS, abs=1e-12)
        assert potential_l1(gaussian, 4.0) == gaussian.b
        assert potential_l1(gaussian, 32.0) == gaussian.b  # L-independent

    def test_fourier_profile_closed_form(self, gaussian):
        p = np.array([0.0, 0.5, 1.0, 2.0, 7.0])
        expected = B_GAUSS * np.exp(-0.5 * p**2)
        np.testing.assert_allclose(fourier_profile(gaussian, p), expected,
                                   rtol=1e-13)

    def test_fourier_profile_against_quadrature(self, gaussian):
        for p in (0.0, 0.7, 1.3, 3.0):
            oracle = quad_fourier_oracle(lambda r: math.exp(-r**2 / 2), p)
            assert fourier_profile(gaussian, float(p)) == pytest.approx(
                oracle, rel=1e-9)

    def test_vector_argument_uses_euclidean_norm(self, gaussian):
        vecs = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 3.0]])
        np.testing.assert_allclose(
            fourier_profile(gaussian, vecs),
            fourier_profile(gaussian, np.array([3.0, 3.0])), rtol=1e-14)

    def test_scaling_in_amplitude_and_width(self):
        model = GaussianPotential(amplitude=2.0, sigma=0.5)
        assert model.b == pytest.approx(2 * (2 * math.pi * 0.25) ** 1.5, rel=1e-14)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            GaussianPotential(amplitude=0.0)
        with pytest.raises(ValueError):
            GaussianPotential(sigma=-1.0)

    def test_rejects_non_finite_parameters(self):
        for bad in (math.nan, math.inf, -math.inf, 10**400, "1.0", [1.0], True):
            for name in ("amplitude", "sigma", "C", "delta1", "delta2"):
                with pytest.raises(ValueError, match=f"{name} must be"):
                    make_potential({"family": "gaussian", name: bad})

    @pytest.mark.parametrize("params,message", [
        ({"sigma": 1e200}, "potential integral b is beyond the float range"),
        ({"sigma": 1e-200}, "potential integral b must be positive and finite"),
        ({"amplitude": 1e300, "sigma": 1e3},
         "potential integral b must be positive and finite"),
        ({"sigma": 1e-100}, "decay constant C is beyond the float range"),
        ({"delta2": 1e308}, "decay constant C must be positive and finite")])
    def test_rejects_extreme_parameters(self, params, message):
        # finite settings whose b or C leaves the float range
        with pytest.raises(ValueError, match=message):
            make_potential({"family": "gaussian", **params})

    def test_decay_constant_with_huge_polynomial_factor(self):
        # (1 + r)^(3 + delta1) alone overflows at the peak; the peak itself fits
        model = make_potential({"family": "gaussian", "sigma": 0.0033, "delta1": 9997})
        assert 1e214 < model.C < 1e215

    def test_decay_constant_matches_product_form(self, gaussian):
        def peak(prefactor, expo, a):
            r = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * expo / a))
            return prefactor * (1.0 + r) ** expo * math.exp(-0.5 * a * r * r)

        product_form = max(peak(gaussian.amplitude, 3.0 + gaussian.delta1, 1.0),
                           peak(gaussian.b, 3.0 + gaussian.delta2, 1.0))
        assert gaussian.C == pytest.approx(product_form, rel=1e-13, abs=0.0)

    @settings(max_examples=400, deadline=None)
    @given(amplitude=ANY_FLOAT, sigma=ANY_FLOAT, c=st.none() | ANY_FLOAT,
           delta1=ANY_FLOAT, delta2=ANY_FLOAT)
    def test_any_float_parameters_give_finite_constants(self, amplitude, sigma, c,
                                                        delta1, delta2):
        config = {"family": "gaussian", "amplitude": amplitude, "sigma": sigma,
                  "delta1": delta1, "delta2": delta2}
        if c is not None:
            config["C"] = c
        try:
            model = make_potential(config)
        except ValueError:
            return
        assert 0.0 < model.b < math.inf
        assert 0.0 < model.C < math.inf


class TestDecayEnvelope:
    def test_auto_constant_is_tight(self, gaussian):
        # independent oracle: grid scan of sup_p (1 + p)^(3 + delta2) vhat(p)
        p = np.linspace(0.0, 12.0, 2_000_001)
        scanned = np.max((1.0 + p) ** 8 * fourier_profile(gaussian, p))
        assert gaussian.C == pytest.approx(scanned, rel=1e-8)
        report = check_decay(gaussian)
        assert report["passed"]
        assert report["fourier_margin_min"] >= 0.0

    def test_small_constant_fails_fourier_side(self):
        # C = 16 parses but cannot dominate the transform (sup is ~1.6e4)
        model = GaussianPotential(c=16.0)
        with pytest.raises(DecayViolationError, match="decay violated"):
            check_decay(model)

    def test_tiny_constant_fails_at_origin(self):
        model = GaussianPotential(c=0.1)
        with pytest.raises(DecayViolationError):
            check_decay(model)

    def test_integrability_exponent_is_validated(self):
        with pytest.raises(ValueError):
            GaussianPotential(delta2=3.0)
        with pytest.raises(ValueError):
            GaussianPotential(delta2=4.0)
        GaussianPotential(delta2=4.0 + 1e-12)  # boundary is open


class _WrongProfileGaussian(GaussianPotential):
    """Image route lies by a factor 2; only used to arm the cross-check."""

    def profile(self, r):
        return 2.0 * super().profile(r)


class TestPeriodization:
    def image_sum_oracle(self, x, L, window=4):
        shifts = np.arange(-window, window + 1) * L
        total = 0.0
        for a in shifts:
            for b_ in shifts:
                for c in shifts:
                    d2 = (x[0] + a) ** 2 + (x[1] + b_) ** 2 + (x[2] + c) ** 2
                    total += math.exp(-d2 / 2)
        return total

    @pytest.mark.parametrize("L", [4.0, 6.0])
    @pytest.mark.parametrize("x", [
        (0.0, 0.0, 0.0),
        (0.3, -0.2, 0.1),
        (1.9, 1.9, -1.9),
    ])
    def test_routes_agree_on_gaussian(self, gaussian, x, L):
        val = periodized_eval(gaussian, x, L)
        assert val == pytest.approx(self.image_sum_oracle(x, L), rel=1e-9)

    def test_periodicity(self, gaussian):
        x = np.array([0.4, -1.1, 0.9])
        shifted = x + np.array([4.0, -8.0, 12.0])
        assert periodized_eval(gaussian, x, 4.0) == pytest.approx(
            periodized_eval(gaussian, shifted, 4.0), rel=1e-13)

    def test_route_disagreement_raises(self):
        # at L = 6 the certified tails are small enough that a factor-2
        # lie in the image route must be caught
        with pytest.raises(ConsistencyError):
            periodized_eval(_WrongProfileGaussian(), (0.0, 0.0, 0.0), 6.0)

    def test_argument_validation(self, gaussian):
        with pytest.raises(ValueError):
            periodized_eval(gaussian, (0.0, 0.0, 0.0), 4.0, image_shells=0)
        with pytest.raises(ValueError):
            periodized_eval(gaussian, (0.0, 0.0, 0.0), -4.0)

    def test_positive_on_sample(self, gaussian):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.0, 2.0, size=(10, 3)):
            assert periodized_eval(gaussian, x, 4.0) > 0.0


class TestMomentumGrid:
    def test_l2_truncation_approaches_whole_space_norm(self, gaussian):
        # ||V_infty||_2 = pi^{3/4} for the unit gaussian
        target = math.pi ** 0.75
        vals = [potential_l2(gaussian, L, M) for L, M in
                [(4.0, 4), (8.0, 16), (16.0, 48)]]
        errs = [abs(v - target) for v in vals]
        assert errs[-1] < 1e-6
        assert errs[0] > errs[-1]

    def test_l2_single_site(self, gaussian):
        # M = 0 keeps only the zero mode: vhat(0)/L^{3/2}
        L = 4.0
        assert potential_l2(gaussian, L, 0) == pytest.approx(
            gaussian.b / L**1.5, rel=1e-13)

    def test_l2_rejects_bad_arguments(self, gaussian):
        with pytest.raises(ValueError):
            potential_l2(gaussian, 0.0, 4)
        with pytest.raises(ValueError):
            potential_l2(gaussian, 4.0, -1)


    def test_vhat_grid_limit_zeroes_outer_frequencies(self, gaussian):
        k1 = np.fft.fftfreq(10, 1.0 / 10)
        full = vhat_grid(gaussian, 4.0, k1)
        boxed = vhat_grid(gaussian, 4.0, k1, limit=3)
        inside = np.ix_(*(np.abs(k1) <= 3,) * 3)
        np.testing.assert_array_equal(boxed[inside], full[inside])
        assert np.count_nonzero(boxed) == 7**3
        assert full[0, 0, 0] == gaussian.b

    def test_kernel_vhat_stops_at_twice_the_cutoff(self, gaussian):
        kernel = _get_kernel(gaussian, TorusLattice(4.0, 2), True)
        assert kernel.G >= 10
        assert np.count_nonzero(kernel.vhat) == 9**3


class TestTabulated:
    def radii(self):
        return np.linspace(0.0, 8.0, 1601)

    def test_matches_gaussian_source(self, gaussian):
        r = self.radii()
        table = TabulatedRadialPotential(r, np.exp(-r**2 / 2), c=20000.0)
        p = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(fourier_profile(table, p),
                                   fourier_profile(gaussian, p),
                                   rtol=5e-6, atol=5e-6)
        assert table.b == pytest.approx(gaussian.b, rel=1e-7)

    def test_range_violation(self):
        r = self.radii()
        table = TabulatedRadialPotential(r, np.exp(-r**2 / 2), c=20000.0)
        with pytest.raises(TableRangeError):
            fourier_profile(table, np.array([table.p_limit * 1.5]))

    def test_cutoff_state_steps_inside_table_range(self):
        # |k|_inf <= 2M reaches |p| = 2 pi sqrt(3) 8 / 4 = 21.8 < p_max,
        # while the corners of the padded G = 18 grid sit at |p| = 24.5
        r = np.linspace(0.0, 8.0, 161)
        table = TabulatedRadialPotential(r, np.exp(-r**2 / 2), p_max=22.0)
        lat = TorusLattice(4.0, 4)
        st = make_state("perturbed", lat, 10.0, eps=0.05, s=6.0, seed=1)
        k1 = np.arange(-2 * lat.M, 2 * lat.M + 1)
        beta = torus_hartree.autocorrelation(st, "direct").beta
        expected = st.rho * lat.L**3 * (
            np.sum(lat.omega * np.abs(st.alpha) ** 2)
            + 0.5 * np.sum(vhat_grid(table, lat.L, k1) * np.abs(beta) ** 2))
        e0 = make_record(st, table).energy
        assert e0 == pytest.approx(expected, rel=1e-12)
        after = step_split(st, table, 1e-3)
        assert after.mass == pytest.approx(1.0, abs=1e-12)
        assert make_record(after, table).energy == pytest.approx(e0, rel=1e-12)

    def test_sign_changing_transform_rejected(self):
        # a thin spherical shell has an oscillating transform
        r = self.radii()
        vals = np.where((r > 2.0) & (r < 2.5), 1.0, 0.0)
        with pytest.raises(ValueError):
            TabulatedRadialPotential(r, vals, c=100.0)

    def test_rejects_non_finite_samples(self):
        r, v = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.1, 0.0]
        for bad in (math.nan, math.inf, 10**400, "1.0", None):
            with pytest.raises(ValueError, match="radii must be"):
                TabulatedRadialPotential(r[:3] + [bad], v)
            with pytest.raises(ValueError, match="values must be"):
                TabulatedRadialPotential(r, v[:3] + [bad])
            with pytest.raises(ValueError, match="p_max must be"):
                TabulatedRadialPotential(r, v, p_max=bad)
        for bad in (1.5, math.nan, 10**400, "2049", 1):
            with pytest.raises(ValueError, match="fourier_samples must be"):
                TabulatedRadialPotential(r, v, fourier_samples=bad)
        with pytest.raises(ValueError, match="values must be a list of numbers"):
            TabulatedRadialPotential(r, "abcd")

    def test_rejects_out_of_range_constants(self):
        r = self.radii()
        with pytest.raises(ValueError, match="potential integral b must be positive"):
            TabulatedRadialPotential(r, np.zeros_like(r))
        # (1 + p)^(3 + delta2) overflows on the tabulated momenta, so C would be inf
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="decay constant C must be positive and finite"):
                TabulatedRadialPotential(r, np.exp(-r**2 / 2), delta2=300.0)

    def test_requires_monotone_radii(self):
        with pytest.raises(ValueError):
            TabulatedRadialPotential(np.array([0.0, 1.0, 0.5]),
                                     np.ones(3), c=10.0)


class TestFactory:
    def test_gaussian_roundtrip(self):
        model = make_potential({"family": "gaussian", "amplitude": 2.0,
                                "sigma": 1.5})
        assert isinstance(model, GaussianPotential)
        assert model.amplitude == 2.0 and model.sigma == 1.5

    def test_explicit_decay_constant_is_forwarded(self):
        model = make_potential({"family": "gaussian", "C": 16.0})
        assert model.C == 16.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_potential({"family": "yukawa"})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="sigm"):
            make_potential({"family": "gaussian", "sigm": 1.0})


def test_package_import_leaves_out_quadrature_modules():
    # scipy.integrate/interpolate load only when a tabulated model is built
    src = os.path.dirname(os.path.dirname(torus_hartree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, torus_hartree; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
