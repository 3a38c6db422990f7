"""The Gaussian pair potential on the torus.

The whole-space profile V(r) = A exp(-r^2 / (2 sigma^2)) with radial
Fourier transform Vhat(p) is wrapped onto the box [-L/2, L/2)^3 by
sampling Vhat at the discrete momenta 2*pi*k/L (the defining Fourier
series).  It is the one family: its Vhat factors by axis, the route the
step kernel's convolution takes, and by Maxwell's theorem no other
radial Vhat does.

The model carries decay constants (C, delta1, delta2) certifying

    0 <= V(y)    <= C / (1 + |y|)**(3 + delta1)   for all y,
    0 <= Vhat(p) <= C / (1 + |p|)**(3 + delta2)   for all p,

on which the well-posedness guards downstream rely.  delta2 > 4 is
required and enforced at construction.  C is always the smallest
constant satisfying both envelopes, computed by the constructor: a
larger one would only loosen the envelopes that the audit checks.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "GaussianPotential",
    "make_potential",
    "vhat_grid",
    "potential_l2",
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


class GaussianPotential:
    """V(y) = A exp(-|y|^2 / (2 sigma^2)) with certified decay data.

    Closed forms: Vhat(p) = A (2 pi sigma^2)^{3/2} exp(-sigma^2 p^2 / 2)
    and b = Vhat(0), the integral of V.  Both V and Vhat are strictly
    positive, so every hypothesis of the well-posedness theory holds.
    b, 1 / b and C must come out positive and finite.
    """

    def __init__(self, amplitude=1.0, sigma=1.0, delta1=5.0, delta2=5.0):
        self.amplitude = as_real(amplitude, "amplitude", positive=True)
        self.sigma = as_real(sigma, "sigma", positive=True)
        self.delta1 = as_real(delta1, "delta1", positive=True)
        self.delta2 = as_real(delta2, "delta2")
        if self.delta2 <= 4.0:
            # the contraction estimates need summable p^2 * Vhat tails
            raise ValueError(f"delta2 must exceed 4, got {self.delta2}")
        self.b = _positive_finite(self._integral, "potential integral b")
        _positive_finite(lambda: 1.0 / self.b, "1 / b")  # blow-up times scale as 1 / b
        self.C = _positive_finite(self._tight_decay_constant, "decay constant C")

    def _integral(self):
        return self.amplitude * (2.0 * math.pi * self.sigma**2) ** 1.5

    def fourier_profile_radial(self, p):
        """Radial Fourier transform Vhat(|p|); vectorized in p."""
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

    def __repr__(self):
        return (f"{type(self).__name__}(b={self.b:.6g}, C={self.C:.6g}, "
                f"delta1={self.delta1:g}, delta2={self.delta2:g})")


_GAUSSIAN_KEYS = {"amplitude", "sigma", "delta1", "delta2"}


def make_potential(config: dict) -> GaussianPotential:
    """Build a model from a JSON-style mapping with a ``family`` key.

    The one family is {"family": "gaussian", "amplitude": 1.0, "sigma":
    1.0, "delta1": 5.0, "delta2": 5.0}; the decay constant C is not a
    key, since the model always computes the tight one.
    """
    if not isinstance(config, dict) or "family" not in config:
        raise ValueError("potential config must be a mapping with a 'family' key")
    family = config["family"]
    if family != "gaussian":
        raise ValueError(f"unknown potential family {family!r}; known: gaussian")
    kwargs = {k: v for k, v in config.items() if k != "family"}
    extra = set(kwargs) - _GAUSSIAN_KEYS
    if extra:
        raise ValueError(f"unknown potential keys {sorted(extra)} for family "
                         f"{family!r}; allowed: {sorted(_GAUSSIAN_KEYS)}")
    return GaussianPotential(**kwargs)


def vhat_grid(model: GaussianPotential, L, k1, limit=None):
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


def potential_l2(model: GaussianPotential, L, M) -> float:
    """Upper bound on sqrt((1/L^3) sum_k Vhat(2 pi k/L)^2), k over all Z^3: the sum is b^2 (sum_f
    exp(-a f^2))^3, a = (2 pi sigma/L)^2, exact over |f| <= M plus sqrt(pi/a) erfc(M sqrt(a))."""
    L = as_real(L, "L", positive=True)
    M = as_int(M, "M")
    if M < 0:
        raise ValueError("M must be >= 0")
    root_a = 2.0 * math.pi * model.sigma / L
    with np.errstate(over="ignore"):  # a term past the float range is exp(-inf) = 0
        exact = 1.0 + 2.0 * float(np.sum(np.exp(-np.square(root_a * np.arange(1.0, M + 1.0)))))
    return _positive_finite(lambda: model.b / L**1.5 * (
        exact + math.sqrt(math.pi) / root_a * math.erfc(M * root_a)) ** 1.5, "potential L2 norm")
