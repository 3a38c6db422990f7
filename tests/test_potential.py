"""Potential models: Fourier profiles, periodization, decay constants."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import torus_hartree
from torus_hartree import (
    GaussianPotential,
    TorusLattice,
    make_potential,
    potential_l2,
)
from torus_hartree.field import _get_kernel, _Kernel
from torus_hartree.potential import vhat_grid

from hartree_reference import B_GAUSS


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

    def test_fourier_profile_closed_form(self, gaussian):
        p = np.array([0.0, 0.5, 1.0, 2.0, 7.0])
        expected = B_GAUSS * np.exp(-0.5 * p**2)
        np.testing.assert_allclose(gaussian.fourier_profile_radial(p), expected,
                                   rtol=1e-13)

    def test_fourier_profile_against_quadrature(self, gaussian):
        for p in (0.0, 0.7, 1.3, 3.0):
            oracle = quad_fourier_oracle(lambda r: math.exp(-r**2 / 2), p)
            assert gaussian.fourier_profile_radial(float(p)) == pytest.approx(
                oracle, rel=1e-9)

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
            for name in ("amplitude", "sigma", "delta1", "delta2"):
                with pytest.raises(ValueError, match=f"{name} must be"):
                    make_potential({"family": "gaussian", name: bad})
            with pytest.raises(ValueError, match=re.escape("unknown potential keys ['C']")):
                make_potential({"family": "gaussian", "C": bad})

    @pytest.mark.parametrize("params,message", [
        ({"sigma": 1e200}, "potential integral b is beyond the float range"),
        ({"sigma": 1e-200}, "potential integral b must be positive and finite"),
        ({"amplitude": 1e300, "sigma": 1e3},
         "potential integral b must be positive and finite"),
        ({"sigma": 1e-100}, "decay constant C is beyond the float range"),
        ({"delta2": 1e308}, "decay constant C must be positive and finite"),
        ({"amplitude": 5e-324}, "1 / b must be positive and finite"),
        ({"sigma": 1e-108}, "1 / b must be positive and finite")])
    def test_rejects_extreme_parameters(self, params, message):
        # finite settings whose b, 1 / b or C leaves the float range
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
    @given(amplitude=ANY_FLOAT, sigma=ANY_FLOAT, delta1=ANY_FLOAT, delta2=ANY_FLOAT)
    def test_any_float_parameters_give_finite_constants(self, amplitude, sigma,
                                                        delta1, delta2):
        config = {"family": "gaussian", "amplitude": amplitude, "sigma": sigma,
                  "delta1": delta1, "delta2": delta2}
        try:
            model = make_potential(config)
        except ValueError:
            return
        assert 0.0 < model.b < math.inf and 1.0 / model.b < math.inf
        assert 0.0 < model.C < math.inf


class TestDecayEnvelope:
    def test_auto_constant_is_tight(self, gaussian):
        # independent oracle: grid scan of sup_p (1 + p)^(3 + delta2) vhat(p)
        p = np.linspace(0.0, 12.0, 2_000_001)
        scanned = np.max((1.0 + p) ** 8 * gaussian.fourier_profile_radial(p))
        assert gaussian.C == pytest.approx(scanned, rel=1e-8)

    def test_integrability_exponent_is_validated(self):
        with pytest.raises(ValueError):
            GaussianPotential(delta2=3.0)
        with pytest.raises(ValueError):
            GaussianPotential(delta2=4.0)
        GaussianPotential(delta2=4.0 + 1e-12)  # boundary is open


class TestPeriodization:
    """V_L as the Fourier series of vhat_grid, the kernel's route, against
    the image sum of the whole-space profile (Poisson summation)."""

    def fourier_series(self, model, x, L):
        k1 = np.arange(-2 * math.ceil(L), 2 * math.ceil(L) + 1)
        ph = [np.exp((2j * math.pi / L) * k1 * xi) for xi in x]
        return float(np.einsum("ijk,i,j,k->", vhat_grid(model, L, k1), *ph).real) / L**3

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
        val = self.fourier_series(gaussian, x, L)
        assert val == pytest.approx(self.image_sum_oracle(x, L), rel=1e-9)

    def test_positive_on_sample(self, gaussian):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.0, 2.0, size=(10, 3)):
            assert self.fourier_series(gaussian, x, 4.0) > 0.0


class TestMomentumGrid:
    def test_l2_truncation_approaches_whole_space_norm(self, gaussian):
        # ||V_infty||_2 = pi^{3/4} for the unit gaussian
        target = math.pi ** 0.75
        vals = [potential_l2(gaussian, L, M) for L, M in
                [(4.0, 4), (8.0, 16), (16.0, 48)]]
        errs = [abs(v - target) for v in vals]
        assert errs[-1] < 1e-6
        assert errs[0] > errs[-1]

    @staticmethod
    def whole_lattice_l2(model, L):
        # Vhat^2 = b^2 exp(-a |k|^2) factors by axis; the axis sum runs until its terms underflow
        a = (2.0 * math.pi * model.sigma / L) ** 2
        f = np.arange(-int(40.0 / math.sqrt(a)) - 1, int(40.0 / math.sqrt(a)) + 2)
        return model.b / L**1.5 * math.fsum(np.exp(-a * f * f)) ** 1.5

    @pytest.mark.parametrize("L, M", [(4.0, 3), (8.0, 8), (16.0, 16), (32.0, 8), (100.0, 10)])
    def test_l2_bounds_the_whole_lattice_norm(self, gaussian, L, M):
        # the |f| > M tail is bounded, not dropped: (100, 10) once gave 1.2347 against 2.35973
        whole = self.whole_lattice_l2(gaussian, L)
        for m in (0, M, 2 * M):
            assert potential_l2(gaussian, L, m) >= whole * (1.0 - 1e-15)
        assert potential_l2(gaussian, L, 0) > potential_l2(gaussian, L, M)

    @pytest.mark.parametrize("L, M", [(4.0, 3), (8.0, 8), (16.0, 16)])
    def test_l2_is_the_whole_lattice_norm_once_the_tail_vanishes(self, gaussian, L, M):
        # at 2M, the cutoff bound_inputs takes, 2 pi M sigma / L >= 6 at these points
        cube = vhat_grid(gaussian, L, np.arange(-3 * M, 3 * M + 1))
        whole = math.sqrt(math.fsum(np.square(cube).ravel()) / L**3)
        assert potential_l2(gaussian, L, 2 * M) == pytest.approx(whole, rel=1e-14, abs=0.0)
        assert self.whole_lattice_l2(gaussian, L) == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_l2_rejects_bad_arguments(self, gaussian):
        with pytest.raises(ValueError):
            potential_l2(gaussian, 0.0, 4)
        with pytest.raises(ValueError):
            potential_l2(gaussian, 4.0, -1)

    @pytest.mark.parametrize("L, M", [(math.nan, 2), (math.inf, 2), (True, 2),
                                      (4.0, 2.7), (4.0, math.nan), (4.0, True)])
    def test_l2_rejects_non_finite_and_non_integral(self, gaussian, L, M):
        with pytest.raises(ValueError):
            potential_l2(gaussian, L, M)


    def test_vhat_grid_limit_zeroes_outer_frequencies(self, gaussian):
        k1 = np.fft.fftfreq(10, 1.0 / 10)
        full = vhat_grid(gaussian, 4.0, k1)
        boxed = vhat_grid(gaussian, 4.0, k1, limit=3)
        inside = np.ix_(*(np.abs(k1) <= 3,) * 3)
        np.testing.assert_array_equal(boxed[inside], full[inside])
        assert np.count_nonzero(boxed) == 7**3
        assert full[0, 0, 0] == gaussian.b

    @pytest.mark.parametrize("L, M", [(4.0, 1), (4.0, 2), (6.0, 6), (8.0, 8), (16.0, 16)])
    def test_gaussian_circulant_from_the_vhat_grid_column(self, gaussian, L, M):
        # the circulant as built from the G^3 vhat_grid cube, bit for bit
        kernel = _get_kernel(gaussian, TorusLattice(L, M))
        G = kernel.G
        vhat = vhat_grid(gaussian, L, np.fft.fftfreq(G, 1.0 / G), limit=kernel.K)
        column = np.fft.ifft(vhat[:, 0, 0] / gaussian.b).real
        column[G // 2 + 1:] = column[1:(G + 1) // 2][::-1]
        ref = column[np.subtract.outer(np.arange(G), np.arange(G)) % G]
        np.testing.assert_array_equal(kernel.C, ref)
        np.testing.assert_array_equal(kernel.bC, gaussian.b * ref)

    def test_gaussian_kernel_holds_no_cube(self, monkeypatch):
        model = GaussianPotential()
        profile, points = model.fourier_profile_radial, []
        monkeypatch.setattr(model, "fourier_profile_radial",
                            lambda p: points.append(np.size(p)) or profile(p))
        kernel = _Kernel(TorusLattice(16.0, 16), model)
        held = {name: (v if v.base is None else v.base).size
                for name, v in vars(kernel).items() if isinstance(v, np.ndarray)}
        assert held and max(held.values()) < kernel.G**3, held
        assert 0 < sum(points) <= kernel.G


class TestFactory:
    def test_gaussian_roundtrip(self):
        model = make_potential({"family": "gaussian", "amplitude": 2.0,
                                "sigma": 1.5})
        assert isinstance(model, GaussianPotential)
        assert model.amplitude == 2.0 and model.sigma == 1.5

    def test_unknown_family(self):
        # the tabulated family of earlier versions is refused like any other name
        for family in ("yukawa", "tabulated_radial", ["gaussian"]):
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown potential family {family!r}; known: gaussian")):
                make_potential({"family": family})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="sigm"):
            make_potential({"family": "gaussian", "sigm": 1.0})


def run_python(code, *args):
    """Run code in a fresh interpreter on this package; its stdout's last line."""
    src = os.path.dirname(os.path.dirname(torus_hartree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI runs where importing it fails
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "potential": {"family": "gaussian"},
        "state": {"family": "perturbed", "eps": 0.05, "s": 6.0, "seed": 11},
        "rho": 10.0, "L": 4.0, "M": 2, "dt": 1e-3, "t_final": 3e-3}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "potential": {"family": "gaussian"}, "rho_values": [1.0, 4.0],
        "L_values": [2.0], "family": "perturbed",
        "family_params": {"eps0": 0.2, "s": 6.0}, "t_final": 2e-3, "dt": 1e-3}))
    code = ("import sys; sys.modules['scipy'] = None; from torus_hartree import cli; "
            "print(cli.main(sys.argv[1:]))")
    for argv in (["simulate", "--config", str(cfg), "--out", str(tmp_path / "traj.csv"),
                  "--audit", str(tmp_path / "audit.json")],
                 ["scan", "--plan", str(plan), "--out", str(tmp_path / "scan"),
                  "--workers", "2"],
                 ["verify", "--suite", "oracle"]):
        assert run_python(code, *argv) == "0", argv
    assert json.loads((tmp_path / "audit.json").read_text())["passed"]
    assert (tmp_path / "scan" / "table.csv").exists()


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


class TestGaussianRunsLoadNoScipy:
    """scipy is a test-only dependency: no run imports it."""

    def test_cli_import(self):
        assert run_python("import sys, torus_hartree.cli; " + LOADED_SCIPY) == "[]"

    def test_simulate_with_audit(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "potential": {"family": "gaussian"},
            "state": {"family": "perturbed", "eps": 0.05, "s": 6.0, "seed": 11},
            "rho": 10.0, "L": 4.0, "M": 2, "dt": 1e-3, "t_final": 3e-3}))
        code = ("import sys; from torus_hartree import cli; "
                "assert cli.main(sys.argv[1:]) == 0; " + LOADED_SCIPY)
        assert run_python(code, "simulate", "--config", str(cfg),
                          "--out", str(tmp_path / "traj.csv"),
                          "--audit", str(tmp_path / "audit.json")) == "[]"
        assert json.loads((tmp_path / "audit.json").read_text())["passed"]
