"""Time integration of the momentum-space Hartree flow.

The coefficient ODE is

    i d/dt alpha(n) = (4 pi^2 |n|^2 / L^2) alpha(n)
                      + sum_k alpha(n-k) Vhat(2 pi k / L) beta(k),

truncated to |n|_inf <= M by projecting the nonlinear term back onto the
cutoff.  Three interchangeable schemes are provided: Strang splitting
(both sub-flows exact: the kinetic one is a diagonal phase, the
nonlinear one is an exact phase because the convolution potential only
sees |Psi|^2, which a phase multiplication preserves), classical RK4 on
the same right-hand side, and a Picard/Duhamel collocation solver used
as an oracle inside its certified contraction horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from . import diagnostics
from .field import _Kernel  # noqa: F401  (perfbench/tracing.py wraps evolution._Kernel)
from .field import SpectralState, _get_kernel, autocorrelation, wiener_norm
from .potential import PotentialModel, as_int, as_real, vhat_grid

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "Lifespan",
    "InstabilityError",
    "LifespanGuardError",
    "ContractionError",
    "ConvergenceError",
    "rhs",
    "step_split",
    "step_rk4",
    "picard_solve",
    "lifespan_guard",
    "lifespan_guard_value",
    "evolve",
]


class InstabilityError(RuntimeError):
    """Non-finite coefficients appeared during a step."""


class LifespanGuardError(ValueError):
    """Requested horizon at or beyond the certified contraction time."""

    def __init__(self, message, guard):
        super().__init__(message)
        self.guard = guard


class ContractionError(RuntimeError):
    """Picard iterates left the contraction ball."""


class ConvergenceError(RuntimeError):
    """Picard iteration or its quadrature failed to converge."""


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "split_strang"
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_tau: float = 1.5
    picard_max_iter: int = 100

    def __post_init__(self):
        for f in fields(self):  # JSON configs may give 1 for 1.0 and vice versa
            value = getattr(self, f.name)
            if type(f.default) is int:
                value = as_int(value, f.name)
            elif type(f.default) is float:  # dt, picard_tol and picard_tau are all > 0
                value = as_real(value, f.name, positive=True)
            object.__setattr__(self, f.name, type(f.default)(value))
        if self.method not in ("split_strang", "rk4", "picard"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.picard_tau > 1.0:
            raise ValueError("contraction factor tau must exceed 1")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")


def rhs(state: SpectralState, model: PotentialModel, method: str = "fft"):
    """d alpha / dt as a complex array on the lattice.

    'fft' computes the nonlinearity pseudospectrally on the padded kernel
    grid; 'direct' performs the explicit double sum through the
    autocorrelation and serves as the oracle.
    """
    lat = state.lattice
    if method == "fft":
        nl = _get_kernel(model, lat).nonlinear(state.alpha)
    elif method == "direct":
        M2 = 2 * lat.M
        coeff = (vhat_grid(model, lat.L, np.arange(-M2, M2 + 1))
                 * autocorrelation(state, "direct").beta)
        a = state.alpha
        n = lat.size
        nl = np.zeros_like(a)
        for k1 in range(-M2, M2 + 1):
            b1lo, b1hi = max(0, k1), min(n - 1, n - 1 + k1)
            for k2 in range(-M2, M2 + 1):
                b2lo, b2hi = max(0, k2), min(n - 1, n - 1 + k2)
                for k3 in range(-M2, M2 + 1):
                    b3lo, b3hi = max(0, k3), min(n - 1, n - 1 + k3)
                    c = coeff[k1 + M2, k2 + M2, k3 + M2]
                    nl[b1lo:b1hi + 1, b2lo:b2hi + 1, b3lo:b3hi + 1] += (
                        c * a[b1lo - k1:b1hi - k1 + 1,
                              b2lo - k2:b2hi - k2 + 1,
                              b3lo - k3:b3hi - k3 + 1])
    else:
        raise ValueError(f"unknown rhs method {method!r}")
    return -1j * (lat.omega * state.alpha + nl)


def _check_finite(alpha, t):
    if not np.all(np.isfinite(alpha.view(float))):
        raise InstabilityError(f"non-finite coefficients at t = {t:.9g}")


def step_split(state: SpectralState, model: PotentialModel, dt: float) -> SpectralState:
    """One Strang step: half kinetic phase, exact nonlinear phase, half kinetic."""
    kernel = _get_kernel(model, state.lattice)
    half = kernel.half_kinetic_phase(dt)
    a = half * state.alpha
    phi = kernel.field(a)
    theta = kernel.convolved_density(phi)
    np.multiply(theta, -dt, out=theta)
    # exp(i theta) goes straight into the real and imaginary halves of one
    # buffer, so the phase costs no G^3 temporaries; its bits are those of
    # cos(theta) + 1j*sin(theta).  Complex products are explicit ufunc calls
    # in the written order: numpy computes x * temporary as temporary * x once
    # the temporary has 256 KiB, and a complex multiply is not bitwise
    # commutative.
    phase = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    phi = np.multiply(phi, phase, out=phase)
    a = kernel.crop(phi)
    np.multiply(half, a, out=a)
    t1 = state.t + dt
    _check_finite(a, t1)
    return state.with_alpha(a, t=t1)


def step_rk4(state: SpectralState, model: PotentialModel, dt: float) -> SpectralState:
    """Classical RK4 on the coefficient ODE; no renormalization applied."""
    kernel = _get_kernel(model, state.lattice)
    omega = state.lattice.omega

    def f(a):
        return -1j * (omega * a + kernel.nonlinear(a))

    a0 = state.alpha
    k1 = f(a0)
    k2 = f(a0 + (0.5 * dt) * k1)
    k3 = f(a0 + (0.5 * dt) * k2)
    k4 = f(a0 + dt * k3)
    a1 = a0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t1 = state.t + dt
    _check_finite(a1, t1)
    return state.with_alpha(a1, t=t1)


class Lifespan(NamedTuple):
    guard: float
    t_star: float


def lifespan_guard_value(rho: float, b: float, psi_a2_norm_sq: float) -> float:
    """Guard rho / (12 b |Psi|_{A^2}^2) from the raw physical norm."""
    return float(rho) / (12.0 * float(b) * float(psi_a2_norm_sq))


def lifespan_guard(state: SpectralState, model: PotentialModel) -> Lifespan:
    """Certified contraction horizon for the state, plus the density-free
    reference horizon t_star = 1/(12 b).

    The physical A^2 norm is sqrt(rho) times the coefficient norm, so rho
    cancels and the guard is 1 / (12 b wiener_norm(state, 2)^2).
    """
    w2 = wiener_norm(state, 2)
    return Lifespan(guard=lifespan_guard_value(state.rho, model.b, state.rho * w2 * w2),
                    t_star=1.0 / (12.0 * model.b))


def _check_guard(state, model, t, name):
    """Raise LifespanGuardError unless the horizon ``name`` = t is below the guard."""
    guard = lifespan_guard(state, model).guard
    if t >= guard:
        raise LifespanGuardError(
            f"{name} = {t:.6g} is not below the lifespan guard {guard:.6g}", guard)


def _collocation_matrix(nodes, t):
    """Integration matrix Q with (Q h)_i = int_0^{s_i} interpolant(h) ds."""
    q = nodes.size
    vander = legvander(nodes, q)  # columns P_0 .. P_q
    B = np.empty((q, q))
    B[:, 0] = nodes + 1.0
    for m in range(1, q):
        B[:, m] = (vander[:, m + 1] - vander[:, m - 1]) / (2 * m + 1)
    return 0.5 * t * np.linalg.solve(vander[:, :q].T, B.T).T


def _interpolation_matrix(nodes, new_nodes):
    """Matrix P with (P g)_i = interpolant(g)(new_nodes[i]), where the
    interpolant is the degree q-1 polynomial through the values g at nodes."""
    q = nodes.size
    return np.linalg.solve(legvander(nodes, q - 1).T, legvander(new_nodes, q - 1).T).T


def picard_solve(state: SpectralState, model: PotentialModel, t_target: float,
                 tau: float = 1.5, tol: float = 1e-10,
                 max_iter: int = 100) -> SpectralState:
    """Solve the Duhamel fixed point up to t_target by collocation.

    Works in the rotating frame g(s) = exp(i omega s) alpha(s), where the
    Duhamel map reads g = alpha0 - i int_0^t exp(i omega s) NL(alpha(s)) ds.
    The integral is evaluated on Gauss-Legendre nodes through the exact
    integration matrix of the degree q-1 interpolant, with q doubling
    until the endpoint moves by less than 0.1 tol.  The q = 8 pass starts
    at the free flight (g = alpha0); each doubled pass starts from the
    previous pass's solution, interpolated to its nodes.  Every iterate,
    the interpolated starts included, must stay inside the contraction
    ball of radius tau times the initial A^2 norm.

    A pass's endpoint is the Gauss quadrature of the node terms of its
    converging sweep, so it belongs to the collocation polynomial of the
    returned iterate and costs no further kernel calls.  A solve that
    settles at q = 16 after k sweeps at q = 8 makes 8 k + 16 calls.
    """
    t = as_real(t_target, "t_target")
    if t < 0.0:
        raise ValueError("t_target must be non-negative")
    tau = as_real(tau, "tau")
    if not tau > 1.0:
        raise ValueError("contraction factor tau must exceed 1")
    tol = as_real(tol, "tol", positive=True)
    max_iter = as_int(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if t == 0.0:
        return state
    _check_guard(state, model, t, "t_target")

    lat = state.lattice
    kernel = _get_kernel(model, lat)
    omega = lat.omega
    w2 = lat.a2_weight

    def a2norm(arr):
        return lat.ordered_sum(w2 * np.abs(arr))

    a0 = state.alpha
    ball = tau * a2norm(a0)

    def check_ball(g):
        worst = max(map(a2norm, g))
        if worst > ball:
            raise ContractionError(
                f"iterate norm {worst:.6g} left the contraction ball "
                f"{ball:.6g} (tau = {tau})")

    prev_end = None
    for q in (8, 16, 32, 64):
        nodes, weights = leggauss(q)
        Q = _collocation_matrix(nodes, t)
        # node axis first: rot[i] = exp(i omega s_i), g[i] is the iterate at s_i
        rot = np.exp((0.5j * t) * (nodes + 1.0)[:, None, None, None] * omega)
        if prev_end is None:
            g = np.array([a0] * q)
        else:
            g = np.tensordot(_interpolation_matrix(prev_nodes, nodes), g, 1)
            check_ball(g)
        prev_nodes = nodes

        def node_terms(g):
            terms = np.array([kernel.nonlinear(a) for a in np.conj(rot) * g])
            return np.multiply(rot, terms, out=terms)  # operand order: see step_split

        for _ in range(max_iter):
            h = node_terms(g)
            g_new = a0 - 1j * np.tensordot(Q, h, 1)
            delta = max(map(a2norm, g_new - g))
            g = g_new
            check_ball(g)
            if delta < tol:
                break
        else:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations (last delta "
                f"{delta:.3g}, tol {tol:.3g})")

        # the converging sweep's terms: g is within tol of the iterate they were taken at;
        # einsum, not a BLAS gemv, whose threaded reduction order varies with thread count
        integral = np.einsum("j,j...->...", (0.5 * t) * weights, h)
        end = np.exp(-1j * omega * t) * (a0 - 1j * integral)
        if prev_end is not None and a2norm(end - prev_end) < 0.1 * tol:
            return state.with_alpha(end, t=state.t + t)
        prev_end = end
    raise ConvergenceError("Duhamel quadrature did not settle at 64 nodes")


@dataclass
class Trajectory:
    """Recorded output of evolve: diagnostics stream plus optional states."""

    records: list
    final_state: SpectralState
    context: "diagnostics.TrajectoryContext"
    states: list | None = None

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("record times must increase strictly")


def evolve(state: SpectralState, model: PotentialModel, t_final: float,
           config: IntegratorConfig | None = None, stride: int = 1,
           keep_states: bool = True) -> Trajectory:
    """Advance by fixed steps, emitting a record every ``stride`` steps.

    The first and final instants are always recorded; a shortened final
    step covers any remainder of t_final.  Record times are t0 + k * dt,
    computed from the step index, not accumulated, where t0 is the state's
    time; a t0 so large that a step might not advance them raises
    ValueError before the first step.
    """
    if config is None:
        config = IntegratorConfig()
    t_final = as_real(t_final, "t_final", positive=True)
    stride = as_int(stride, "stride")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if config.method == "picard":
        _check_guard(state, model, t_final, "t_final")

        def step(s, h):
            return picard_solve(s, model, h, tau=config.picard_tau,
                                tol=config.picard_tol,
                                max_iter=config.picard_max_iter)
    else:
        scheme = step_split if config.method == "split_strang" else step_rk4

        def step(s, h):
            return scheme(s, model, h)

    dt = config.dt
    t0 = state.t
    n_dt = t_final / dt
    if not math.isfinite(n_dt):
        raise ValueError(f"t_final / dt = {t_final!r} / {dt!r} is beyond the float range")
    n_full = int(math.floor(n_dt + 1e-12))
    remainder = t_final - n_full * dt
    n_steps = n_full + (remainder > 1e-12 * dt)  # step n_full + 1 is the shortened one

    def record_time(k):
        return t0 + (t_final if k > n_full else k * dt)

    # Every k dt and t0 + k dt lies within |t0| + t_final, where the float
    # spacing is at most s: rounding k dt costs each increment up to s and
    # rounding the sum needs a gap above s, so increments above 2 s make
    # every record time, the shortened step's included, advance.
    s = np.spacing(abs(t0) + t_final)
    if not (dt > 2 * s and (n_steps == n_full or remainder > 2 * s)):
        raise ValueError(f"the record clock cannot advance from t = {t0!r} "
                         f"by steps of dt = {dt!r}")

    context = diagnostics.TrajectoryContext.from_state(state, model)
    records = [diagnostics.make_record(state, model, context)]
    states = [state] if keep_states else None

    current = state
    for k in range(1, n_steps + 1):
        short = k > n_full
        current = step(current, remainder if short else dt)
        current = current.with_alpha(current.alpha, t=record_time(k))
        if k % stride == 0 or k == n_steps:
            records.append(diagnostics.make_record(current, model, context))
            if keep_states:
                states.append(current)

    return Trajectory(records=records, final_state=current,
                      context=context, states=states)
