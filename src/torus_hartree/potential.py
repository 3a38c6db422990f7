"""Pair potentials on the torus.

A whole-space radial profile V(r) with radial Fourier transform Vhat(p)
is wrapped onto the box [-L/2, L/2)^3 in two equivalent ways: sampling
Vhat at the discrete momenta 2*pi*k/L (the defining Fourier series) or
summing translated images V(x + n*L) (Poisson summation).  Both routes
are implemented and cross-checked; the Fourier route is authoritative.

Every model carries decay constants (C, delta1, delta2) certifying

    0 <= V(y)    <= C / (1 + |y|)**(3 + delta1)   for all y,
    0 <= Vhat(p) <= C / (1 + |p|)**(3 + delta2)   for all p,

on which the well-posedness guards downstream rely.  delta2 > 4 is
required and enforced at construction.  When C is not supplied it is
set to the smallest constant satisfying both envelopes, so that
``check_decay`` passes by construction.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "PotentialModel",
    "GaussianPotential",
    "TabulatedRadialPotential",
    "make_potential",
    "fourier_profile",
    "vhat_grid",
    "periodized_eval",
    "potential_l1",
    "potential_l2",
    "check_decay",
    "DecayViolationError",
    "ConsistencyError",
    "TableRangeError",
]


def _is_finite_real(value) -> bool:
    """A real number, not a bool, that fits a finite float: the bound is
    False for NaN and infinities, and compares an int exactly."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)


def as_int(value, name: str) -> int:
    """An integer setting from a number; JSON may spell 4 as 4.0.

    Rejects booleans, non-numbers, NaN, infinities, values beyond the
    float range and non-integral values with ValueError rather than
    truncating them.
    """
    if not _is_finite_real(value) or value != math.floor(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str, positive: bool = False) -> float:
    """A real setting from a number: rejects booleans, non-numbers, NaN,
    infinities and values beyond the float range (and, if positive,
    values <= 0) with ValueError."""
    if not _is_finite_real(value) or (positive and value <= 0):
        what = "positive and finite" if positive else "a finite number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return float(value)


def as_bool(value, name: str) -> bool:
    """A switch: only true or false, so that "no" or 0 is not read as a truth value."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _positive_finite(compute, name: str) -> float:
    """compute() as a float that must be positive and finite.  Extreme
    settings can make the float arithmetic overflow or divide by zero;
    that raises ValueError too."""
    try:
        value = float(compute())
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} is beyond the float range for these settings") from exc
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite for these settings, got {value!r}")
    return value


def as_reals(value, name: str, positive: bool = False) -> list:
    """A list of real settings, each read with as_real."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return [as_real(v, name, positive) for v in value]


class DecayViolationError(ValueError):
    """A decay envelope C/(1+r)**(3+delta) fails at a sampled point."""


class ConsistencyError(RuntimeError):
    """Fourier-series and image-sum evaluations of V_L disagree."""


class TableRangeError(ValueError):
    """A tabulated profile was queried beyond its sampled range."""


class PotentialModel:
    """Base class: radial pair potential with certified decay data.

    Subclasses implement ``_integral`` (b, the integral of V, equal to
    Vhat(0)), ``profile`` and ``fourier_profile_radial``; b and C must
    come out positive and finite.  ``p_limit`` is None for analytic
    families and the largest admissible |p| for tabulated ones.
    """

    family = "abstract"
    p_limit: float | None = None

    def __init__(self, c=None, delta1=5.0, delta2=5.0):
        self.delta1 = as_real(delta1, "delta1", positive=True)
        self.delta2 = as_real(delta2, "delta2")
        if self.delta2 <= 4.0:
            # the contraction estimates need summable p^2 * Vhat tails
            raise ValueError(f"delta2 must exceed 4, got {self.delta2}")
        self.b = _positive_finite(self._integral, "potential integral b")
        self.C = as_real(c, "C") if c is not None else _positive_finite(
            self._tight_decay_constant, "decay constant C")
        if self.C <= 0.0:
            raise ValueError("decay constant C must be positive")

    def profile(self, r):
        """Real-space radial profile V(|y|); vectorized in r."""
        raise NotImplementedError

    def fourier_profile_radial(self, p):
        """Radial Fourier transform Vhat(|p|); vectorized in p."""
        raise NotImplementedError

    def _integral(self):
        raise NotImplementedError

    def _tight_decay_constant(self):
        raise NotImplementedError

    def __repr__(self):
        return (f"{type(self).__name__}(b={self.b:.6g}, C={self.C:.6g}, "
                f"delta1={self.delta1:g}, delta2={self.delta2:g})")


class GaussianPotential(PotentialModel):
    """V(y) = A exp(-|y|^2 / (2 sigma^2)).

    Closed forms: Vhat(p) = A (2 pi sigma^2)^{3/2} exp(-sigma^2 p^2 / 2)
    and b = Vhat(0).  Both V and Vhat are strictly positive, so every
    hypothesis of the well-posedness theory holds.
    """

    family = "gaussian"

    def __init__(self, amplitude=1.0, sigma=1.0, c=None, delta1=5.0, delta2=5.0):
        self.amplitude = as_real(amplitude, "amplitude", positive=True)
        self.sigma = as_real(sigma, "sigma", positive=True)
        super().__init__(c=c, delta1=delta1, delta2=delta2)

    def _integral(self):
        return self.amplitude * (2.0 * math.pi * self.sigma**2) ** 1.5

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * np.exp(-(r * r) / (2.0 * self.sigma**2))

    def fourier_profile_radial(self, p):
        p = np.asarray(p, dtype=float)
        return self.b * np.exp(-0.5 * (self.sigma * p) ** 2)

    def _tight_decay_constant(self):
        # sup over r of (1+r)^(3+delta) exp(-a r^2 / 2) sits at the root
        # of r (1+r) = (3+delta)/a; both envelopes have this shape.
        def peak(prefactor, expo, a):
            r = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * expo / a))
            # one exponential: (1+r)^expo alone can overflow where the peak fits
            return prefactor * math.exp(expo * math.log1p(r) - 0.5 * a * r * r)

        c_real = peak(self.amplitude, 3.0 + self.delta1, 1.0 / self.sigma**2)
        c_fourier = peak(self.b, 3.0 + self.delta2, self.sigma**2)
        # np.maximum keeps a NaN (inf * 0 at extreme deltas) for the caller to reject
        return np.maximum(c_real, c_fourier)


class TabulatedRadialPotential(PotentialModel):
    """Radial profile given by samples (r_j, V(r_j)); V = 0 beyond the table.

    The real-space profile is PCHIP-interpolated (shape preserving, so
    non-negative samples stay non-negative).  The Fourier transform is
    precomputed on a dense radial momentum grid by quadrature of

        Vhat(p) = 4 pi / p * int_0^rmax r sin(p r) V(r) dr

    and cubic-spline interpolated in |p| up to ``p_max``; queries beyond
    that raise TableRangeError.
    """

    family = "tabulated_radial"

    def __init__(self, radii, values, c=None, delta1=5.0, delta2=5.0,
                 p_max=64.0, fourier_samples=2049):
        # scipy.integrate/interpolate are slow to import and only needed here
        from scipy.integrate import simpson
        from scipy.interpolate import CubicSpline, PchipInterpolator

        radii = np.array(as_reals(radii, "radii"))
        values = np.array(as_reals(values, "values"))
        if radii.shape != values.shape or radii.size < 4:
            raise ValueError("need matching 1-D radii/values with >= 4 samples")
        if radii[0] != 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must start at 0 and increase strictly")
        if np.any(values < 0.0):
            raise ValueError("profile samples must be non-negative")
        self.p_limit = as_real(p_max, "p_max", positive=True)
        fourier_samples = as_int(fourier_samples, "fourier_samples")
        if fourier_samples < 2:
            raise ValueError("fourier_samples must be >= 2")
        self.radii = radii
        self.values = values
        self.r_max = float(radii[-1])
        self._real = PchipInterpolator(radii, values, extrapolate=False)

        # dense radial quadrature grid; sinc handles the p -> 0 limit
        rr = np.linspace(0.0, self.r_max, 8 * (radii.size - 1) + 1)
        vv = self._real(rr)
        pp = np.linspace(0.0, self.p_limit, fourier_samples)
        integrand = (rr * rr * vv)[None, :] * np.sinc(pp[:, None] * rr[None, :] / math.pi)
        vhat = 4.0 * math.pi * simpson(integrand, x=rr, axis=-1)
        neg = vhat.min()
        if neg < -1e-9 * max(vhat[0], 1e-300):
            raise ValueError(
                f"tabulated profile has sign-changing Fourier transform "
                f"(min Vhat = {neg:.3g}); such potentials are not supported")
        np.clip(vhat, 0.0, None, out=vhat)
        self._fourier = CubicSpline(pp, vhat)
        self._vhat_table = vhat
        self._p_table = pp
        super().__init__(c=c, delta1=delta1, delta2=delta2)

    def _integral(self):
        return self._vhat_table[0]

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        out = self._real(np.minimum(r, self.r_max))
        return np.where(r > self.r_max, 0.0, np.maximum(out, 0.0))

    def fourier_profile_radial(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p > self.p_limit * (1.0 + 1e-12)):
            raise TableRangeError(
                f"momentum {float(np.max(p)):.6g} beyond tabulated range "
                f"{self.p_limit:g}")
        return np.maximum(self._fourier(np.minimum(p, self.p_limit)), 0.0)

    def _tight_decay_constant(self):
        rr = np.linspace(0.0, self.r_max, 16 * (self.radii.size - 1) + 1)
        c_real = np.max(self.profile(rr) * (1.0 + rr) ** (3.0 + self.delta1))
        c_fourier = np.max(self._vhat_table *
                           (1.0 + self._p_table) ** (3.0 + self.delta2))
        # scanned maxima can undershoot the true sup between samples
        return float(max(c_real, c_fourier)) * (1.0 + 1e-9)


_FAMILIES = {
    "gaussian": (GaussianPotential,
                 {"amplitude", "sigma", "C", "delta1", "delta2"}),
    "tabulated_radial": (TabulatedRadialPotential,
                         {"radii", "values", "C", "delta1", "delta2",
                          "p_max", "fourier_samples"}),
}


def make_potential(config: dict) -> PotentialModel:
    """Build a model from a JSON-style mapping with a ``family`` key.

    Gaussian block: {"family": "gaussian", "amplitude": 1.0, "sigma": 1.0,
    "C": 16.0, "delta1": 5.0, "delta2": 5.0}; C is optional (tight value
    computed when absent).  Tabulated block replaces amplitude/sigma with
    "radii" and "values" arrays plus optional "p_max".
    """
    if not isinstance(config, dict) or "family" not in config:
        raise ValueError("potential config must be a mapping with a 'family' key")
    family = config["family"]
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown potential family {family!r}; known: {known}")
    cls, allowed = _FAMILIES[family]
    kwargs = {k: v for k, v in config.items() if k != "family"}
    extra = set(kwargs) - allowed
    if extra:
        raise ValueError(f"unknown potential keys {sorted(extra)} for family "
                         f"{family!r}; allowed: {sorted(allowed)}")
    if "C" in kwargs:
        kwargs["c"] = kwargs.pop("C")
    return cls(**kwargs)


def fourier_profile(model: PotentialModel, p):
    """Vhat at momentum ``p``.

    ``p`` may be a scalar radius, an array of radii, or an array of
    3-vectors (last axis of length 3); the transform is radial so only
    |p| matters.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim >= 1 and p.shape[-1] == 3:
        radii = np.linalg.norm(p, axis=-1)
    else:
        radii = np.abs(p)
    return model.fourier_profile_radial(radii)


def vhat_grid(model: PotentialModel, L, k1, limit=None):
    """Vhat(2 pi |k| / L) on the grid k1^3 of integer frequencies k1 (any order).

    With ``limit``, sites with |k|_inf > limit are 0 and Vhat is not evaluated there.
    """
    k1 = np.asarray(k1)
    radii = (2.0 * math.pi / float(L)) * np.sqrt(
        k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2)
    if limit is None:
        return model.fourier_profile_radial(radii)
    inside = np.ix_(*(np.abs(k1) <= limit,) * 3)
    out = np.zeros(radii.shape)
    out[inside] = model.fourier_profile_radial(radii[inside])
    return out


def _fourier_tail_bound(model, L, trunc):
    d2 = model.delta2
    return (26.0 * model.C / L**3) * (L / (2.0 * math.pi)) ** (3.0 + d2) \
        / (d2 * trunc**d2)


def _image_tail_bound(model, L, shells):
    d1 = model.delta1
    return 26.0 * model.C * 2.0 ** (3.0 + d1) / (L ** (3.0 + d1) * d1 * shells**d1)


def periodized_eval(model: PotentialModel, x, L, truncation=None, image_shells=3):
    """Pointwise value of the periodized potential V_L at position ``x``.

    Evaluates the truncated Fourier series (the definition) and the
    truncated image sum and requires agreement within the analytic tail
    bound implied by the decay constants (floored at 1e-10); returns the
    Fourier value.  ``x`` is wrapped into the fundamental box first.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    L = float(L)
    if L <= 0.0:
        raise ValueError("L must be positive")
    if truncation is None:
        truncation = 2 * math.ceil(L)
    truncation = int(truncation)
    image_shells = int(image_shells)
    if truncation < 1 or image_shells < 1:
        raise ValueError("truncation and image_shells must be >= 1")
    x = (x + 0.5 * L) % L - 0.5 * L

    k1 = np.arange(-truncation, truncation + 1)
    vhat = vhat_grid(model, L, k1)
    ph = [np.exp((2j * math.pi / L) * k1 * xi) for xi in x]
    series = float(np.einsum("ijk,i,j,k->", vhat, ph[0], ph[1], ph[2]).real) / L**3

    s1 = np.arange(-image_shells, image_shells + 1) * L
    dist = np.sqrt((x[0] + s1[:, None, None]) ** 2
                   + (x[1] + s1[None, :, None]) ** 2
                   + (x[2] + s1[None, None, :]) ** 2)
    images = float(np.sum(model.profile(dist)))

    tol = max(1e-10, _fourier_tail_bound(model, L, truncation)
              + _image_tail_bound(model, L, image_shells))
    if abs(series - images) > tol:
        raise ConsistencyError(
            f"V_L({tuple(x)}) routes disagree: series {series:.12g} vs "
            f"images {images:.12g}, tolerance {tol:.3g}; increase truncation")
    if series < -tol:
        raise ConsistencyError(f"V_L({tuple(x)}) = {series:.3g} < 0 beyond tolerance")
    return series


def potential_l1(model: PotentialModel, L) -> float:
    """L1 norm of V_L over the box.

    V >= 0 makes V_L >= 0, so the norm equals the integral, which is the
    zero-momentum Fourier coefficient b regardless of L.
    """
    if float(L) <= 0.0:
        raise ValueError("L must be positive")
    return model.b


def potential_l2(model: PotentialModel, L, M) -> float:
    """Truncated-Parseval L2 norm sqrt((1/L^3) sum_{|k|_inf<=M} Vhat(2 pi k/L)^2)."""
    L = float(L)
    M = int(M)
    if L <= 0.0:
        raise ValueError("L must be positive")
    if M < 0:
        raise ValueError("M must be >= 0")
    vhat = vhat_grid(model, L, np.arange(-M, M + 1))
    return float(math.sqrt(np.sum(vhat * vhat) / L**3))


def check_decay(model: PotentialModel, r_max=20.0, p_max=None, num=4001) -> dict:
    """Scan both decay envelopes on radial grids and report worst margins.

    Margins are envelope minus value; any negative margin (or a negative
    profile value) raises DecayViolationError naming the offending point.
    For tabulated models the momentum grid is clipped to the table range.
    """
    if p_max is None:
        p_max = 20.0
    if model.p_limit is not None:
        p_max = min(float(p_max), model.p_limit)
    num = int(num)
    if num < 2:
        raise ValueError("need at least 2 grid points")

    rr = np.linspace(0.0, float(r_max), num)
    vals_r = np.asarray(model.profile(rr), dtype=float)
    margins_r = model.C / (1.0 + rr) ** (3.0 + model.delta1) - vals_r
    if np.any(vals_r < 0.0):
        bad = rr[int(np.argmin(vals_r))]
        raise DecayViolationError(f"V({bad:.6g}) < 0")
    i = int(np.argmin(margins_r))
    if margins_r[i] < 0.0:
        raise DecayViolationError(
            f"real-space decay violated at |y| = {rr[i]:.6g}: "
            f"V = {vals_r[i]:.6g} exceeds envelope by {-margins_r[i]:.3g}")

    pp = np.linspace(0.0, float(p_max), num)
    vals_p = np.asarray(model.fourier_profile_radial(pp), dtype=float)
    margins_p = model.C / (1.0 + pp) ** (3.0 + model.delta2) - vals_p
    j = int(np.argmin(margins_p))
    if margins_p[j] < 0.0:
        raise DecayViolationError(
            f"Fourier decay violated at |p| = {pp[j]:.6g}: "
            f"Vhat = {vals_p[j]:.6g} exceeds envelope by {-margins_p[j]:.3g}")

    return {
        "passed": True,
        "C": model.C,
        "delta1": model.delta1,
        "delta2": model.delta2,
        "real_margin_min": float(margins_r[i]),
        "real_argmin": float(rr[i]),
        "fourier_margin_min": float(margins_p[j]),
        "fourier_argmin": float(pp[j]),
        "points": num,
    }
