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

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .field import _Kernel  # noqa: F401  (perfbench/tracing.py wraps evolution._Kernel)
from .field import SpectralState, _get_kernel, autocorrelation, wiener_norm
from .potential import GaussianPotential, _positive_finite, as_int, as_real, vhat_grid

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
    "check_run",
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


def rhs(state: SpectralState, model: GaussianPotential, method: str = "fft"):
    """d alpha / dt as a complex array on the lattice.

    'fft' computes the nonlinearity pseudospectrally on the kernel's step
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


def step_split(state: SpectralState, model: GaussianPotential, dt: float) -> SpectralState:
    """One Strang step: half kinetic phase, exact nonlinear phase, half kinetic.

    The nonlinear phase exp(i theta), theta = -dt (V_L * |phi|^2), comes
    from one tangent t = tan(theta / 2) through the half-angle identities
    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2 t / (1 + t^2).
    One tan costs less than a cos and a sin (at G = 66 on an AVX-512 Xeon,
    where numpy vectorises float64 tan, 0.8 ms against 4 ms or more), and
    the identities hold for every finite theta: |t| stays below ~1.6e16,
    so t^2 cannot overflow.
    """
    kernel = _get_kernel(model, state.lattice)
    half = kernel.half_kinetic_phase(dt)
    a = half * state.alpha
    phi = kernel.field(a)
    t = kernel.convolved_density(phi)
    np.multiply(t, -0.5 * dt, out=t)
    np.tan(t, out=t)
    # exp(i theta) is built in the real and imaginary halves of one buffer,
    # so the phase costs no G^3 temporaries; dividing by 1 + t^2 rounds once
    # where multiplying by its reciprocal would round twice.  Complex
    # products are explicit ufunc calls in the written order: numpy computes
    # x * temporary as temporary * x once the temporary has 256 KiB, and a
    # complex multiply is not bitwise commutative.
    phase = np.empty(t.shape, dtype=complex)
    cos, sin = phase.real, phase.imag
    np.square(t, out=sin)
    np.subtract(1.0, sin, out=cos)
    np.add(sin, 1.0, out=sin)
    np.divide(cos, sin, out=cos)
    np.add(t, t, out=t)
    np.divide(t, sin, out=sin)
    phi = np.multiply(phi, phase, out=phase)
    a = kernel.crop(phi)
    np.multiply(half, a, out=a)
    t1 = state.t + dt
    _check_finite(a, t1)
    return state.with_alpha(a, t=t1)


def step_rk4(state: SpectralState, model: GaussianPotential, dt: float) -> SpectralState:
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


def lifespan_guard(state: SpectralState, model: GaussianPotential) -> Lifespan:
    """Certified contraction horizon for the state, plus the density-free
    reference horizon t_star = 1/(12 b).

    The physical A^2 norm is sqrt(rho) times the coefficient norm, so rho
    cancels and the guard is 1 / (12 b wiener_norm(state, 2)^2); a state
    whose W2 is not positive and finite, such as all zeros, is refused.
    """
    w2 = _positive_finite(lambda: wiener_norm(state, 2), "W2 = wiener_norm(state, 2)")
    return Lifespan(guard=state.rho / (12.0 * model.b * (state.rho * w2 * w2)),
                    t_star=1.0 / (12.0 * model.b))


def _check_guard(state, model, t, name):
    """Raise LifespanGuardError unless the horizon ``name`` = t is below the guard."""
    guard = lifespan_guard(state, model).guard
    if t >= guard:
        raise LifespanGuardError(
            f"{name} = {t:.6g} is not below the lifespan guard {guard:.6g}", guard)


def _integration_matrix(nodes):
    """The t-free integration matrix S: with s_i = t (nodes_i + 1) / 2,
    Q = (0.5 t) S has (Q h)_i = int_0^{s_i} interpolant(h) ds."""
    from numpy.polynomial.legendre import legvander  # ~3 ms to import; only Picard needs it
    q = nodes.size
    vander = legvander(nodes, q)  # columns P_0 .. P_q
    B = np.empty((q, q))
    B[:, 0] = nodes + 1.0
    for m in range(1, q):
        B[:, m] = (vander[:, m + 1] - vander[:, m - 1]) / (2 * m + 1)
    return np.linalg.solve(vander[:, :q].T, B.T).T


def _interpolation_matrix(nodes, new_nodes):
    """Matrix P with (P g)_i = interpolant(g)(new_nodes[i]), where the
    interpolant is the degree q-1 polynomial through the values g at nodes."""
    from numpy.polynomial.legendre import legvander
    q = nodes.size
    return np.linalg.solve(legvander(nodes, q - 1).T, legvander(new_nodes, q - 1).T).T


@functools.cache
def _quadrature(q):
    """Read-only (nodes, weights, S) of the q-point Gauss-Legendre rule, S
    from _integration_matrix; none depends on t, so each q is built once."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(q)
    out = nodes, weights, _integration_matrix(nodes)
    for a in out:
        a.setflags(write=False)
    return out


@functools.cache
def _interpolation(q, r):
    """The read-only interpolation matrix from the q to the r Gauss nodes."""
    P = _interpolation_matrix(_quadrature(q)[0], _quadrature(r)[0])
    P.setflags(write=False)
    return P


# picard_solve's Gauss rules: q = 3 is certified against q = 4, then doubling
_RULES = (3, 4, 8, 16, 32, 64)
# a pass whose sweep delta has not halved over this many sweeps has stalled at
# its roundoff floor, above tol; converging passes fall 100x or more per sweep
_STALL_SWEEPS = 3


def picard_solve(state: SpectralState, model: GaussianPotential, t_target: float,
                 tau: float = 1.5, tol: float = 1e-10,
                 max_iter: int = 100) -> SpectralState:
    """Solve the Duhamel fixed point up to t_target by collocation.

    Works in the mean-field frame g(s) = exp(i (omega + c) s) alpha(s), where
    g = alpha0 - i int_0^t (exp(i (omega + c) s) NL(alpha(s)) - c g(s)) ds.
    For every real constant c this is an exact change of variables whose
    phases are A^2 isometries, so neither the fixed point nor the ball check
    depends on c.  c = b mass, the k = 0 term of V * |alpha|^2, is constant
    since mass is, and takes out the phase all modes share: a plane wave's
    node terms vanish.  The integral is evaluated on Gauss-Legendre nodes
    through the exact integration matrix of the degree q-1 interpolant, with
    q climbing the rules _RULES = (3, 4, 8, 16, 32, 64) until the endpoint
    moves by less than 0.1 tol from the previous rule's.  The q = 3 pass
    starts from a two-call predictor: with h0 and h_m the node terms at 0
    and at the Euler midpoint m = t/2, node s starts at
    alpha0 - i (s h0 + s^2 / (2 m) (h_m - h0)), the exact integral of the
    terms' linear interpolant, third order in t.  A predictor outside the
    contraction ball is dropped for the free flight (g = alpha0), so it
    refuses no solve.  Each later pass starts from the previous pass's
    solution, interpolated to its nodes.  Every iterate, the interpolated
    starts included, must stay inside the contraction ball of radius tau
    times the initial A^2 norm.  A pass refuses with ConvergenceError after
    max_iter sweeps, or sooner once its sweep delta has not halved over
    _STALL_SWEEPS = 3 sweeps: it has stalled at its roundoff floor above tol.

    A sweep evaluates its q node terms in one kernel call on the (q, n, n, n)
    stack, each node with the bits of its own call, and a pass's endpoint is
    the Gauss quadrature of its converging sweep's node terms, at no further
    kernel call.  A solve that settles at q = 4 after k sweeps at q = 3 takes
    2 + 3 k + 4 node terms in 2 + k + 1 kernel calls: k = 1 for a plane wave,
    1-2 for a perturbed M = 3 state at 0.05-0.3 of the guard.  The frame
    phases exp(i (omega + c) s) depend on |n|^2 alone, so they are taken once
    per shell of TorusLattice.shells and gathered to the sites.  Nodes,
    weights and matrices are built once per rule; the ball and delta norms
    of all q nodes take one ordered_sums call.  tau, tol and max_iter are
    checked by IntegratorConfig, as in evolve.
    """
    t = as_real(t_target, "t_target")
    if t < 0.0:
        raise ValueError("t_target must be non-negative")
    config = IntegratorConfig("picard", picard_tol=tol, picard_tau=tau, picard_max_iter=max_iter)
    tau, tol, max_iter = config.picard_tau, config.picard_tol, config.picard_max_iter
    if t == 0.0:
        return state
    _check_guard(state, model, t, "t_target")

    lat = state.lattice
    kernel = _get_kernel(model, lat)
    c = model.b * state.mass  # the k = 0 term of V * |alpha|^2, constant along the flow
    # phases exp(i (omega + c) s) depend on |n|^2 only: taken once per shell, then gathered
    first, index = lat.shells
    freq_sh = lat.omega.ravel()[first] + c
    w2 = lat.a2_weight

    def a2norm(arr):
        return lat.ordered_sum(w2 * np.abs(arr))

    def max_a2norm(stack):  # the largest node's norm, from one ordered_sums call
        return max(lat.ordered_sums(w2 * np.abs(stack)))

    a0 = state.alpha
    ball = tau * a2norm(a0)

    def check_ball(g):
        worst = max_a2norm(g)
        if worst > ball:
            raise ContractionError(
                f"iterate norm {worst:.6g} left the contraction ball "
                f"{ball:.6g} (tau = {tau})")

    prev_end = None
    for q in _RULES:
        nodes, weights, S = _quadrature(q)
        Q = (0.5 * t) * S
        # node axis first: rot[i] = exp(i (omega + c) s_i), g[i] is the iterate at s_i
        rot = np.exp((0.5j * t) * (nodes + 1.0)[:, None] * freq_sh)[..., index]
        if prev_end is None:
            # the docstring's two-call predictor, or the free flight outside the ball
            m = 0.5 * t
            h0 = kernel.nonlinear(a0) - c * a0
            rot_m = np.exp((1j * m) * freq_sh)[index]
            g_m = a0 - (1j * m) * h0
            h_m = rot_m * kernel.nonlinear(np.conj(rot_m) * g_m) - c * g_m
            s = (0.5 * t) * (nodes + 1.0)[:, None, None, None]
            g = a0 - 1j * (s * h0 + (s * s / t) * (h_m - h0))  # s^2 / (2 m) = s^2 / t
            if max_a2norm(g) > ball:
                g = np.array([a0] * q)
        else:
            p = len(g)
            g = (_interpolation(p, q) @ g.reshape(p, -1)).reshape(q, *lat.shape)
            check_ball(g)

        def node_terms(g):
            terms = kernel.nonlinear(np.conj(rot) * g)
            return np.multiply(rot, terms, out=terms) - c * g  # operand order: see step_split

        deltas = []
        for sweep in range(1, max_iter + 1):
            h = node_terms(g)
            g_new = a0 - 1j * (Q @ h.reshape(q, -1)).reshape(q, *lat.shape)
            delta = max_a2norm(g_new - g)
            g = g_new
            check_ball(g)
            if delta < tol:
                break
            deltas.append(delta)
            if sweep > _STALL_SWEEPS and delta > 0.5 * deltas[-1 - _STALL_SWEEPS]:
                raise ConvergenceError(
                    f"no fixed point: delta {delta:.3g} did not halve in the last "
                    f"{_STALL_SWEEPS} of {sweep} iterations at {q} nodes (tol {tol:.3g})")
        else:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations (last delta "
                f"{delta:.3g}, tol {tol:.3g})")

        # the converging sweep's terms: g is within tol of the iterate they were taken at;
        # einsum, not a BLAS gemv, whose threaded reduction order varies with thread count
        integral = np.einsum("j,j...->...", (0.5 * t) * weights, h)
        end = np.exp(-1j * freq_sh * t)[index] * (a0 - 1j * integral)
        if prev_end is not None and a2norm(end - prev_end) < 0.1 * tol:
            return state.with_alpha(end, t=state.t + t)
        prev_end = end
    raise ConvergenceError(f"Duhamel quadrature did not settle at {_RULES[-1]} nodes")


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


def _schedule(t_final, dt):
    """(n_full, remainder, n_steps): n_full steps of dt, then one shortened
    step of the remainder if it is above the slack; t_final 0 takes none."""
    # the 1e-12 slack absorbs the rounding of t_final / dt; a remainder, or a
    # positive t_final below the slack, is one more, shortened step n_full + 1
    n_full = int(math.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    return n_full, remainder, max(int(t_final > 0.0), n_full + (remainder > 1e-12 * dt))


def check_run(t_final, stride, config: IntegratorConfig, t0: float) -> tuple:
    """Evolve's checks that need no state but its time t0; returns
    (t_final, stride) as float and int."""
    t_final = as_real(t_final, "t_final")
    if t_final < 0.0:
        raise ValueError(f"t_final must be non-negative, got {t_final!r}")
    stride = as_int(stride, "stride")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dt = config.dt
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt = {t_final!r} / {dt!r} is beyond the float range")
    n_full, remainder, n_steps = _schedule(t_final, dt)
    # Every k dt and t0 + k dt lies within |t0| + t_final, where the float
    # spacing is at most s: rounding k dt costs each increment up to s and
    # rounding the sum needs a gap above s, so increments above 2 s make
    # every record time, the shortened step's included, advance.
    s = np.spacing(abs(t0) + t_final)
    if n_steps and not (dt > 2 * s and (n_steps == n_full or remainder > 2 * s)):
        raise ValueError(f"the record clock cannot advance from t = {t0!r} "
                         f"by steps of dt = {dt!r}")
    return t_final, stride


# Grid points of a record batch: evolve passes R = max(1, this // G^3) due
# states to make_records at once, G the record grid, so R = 49, 17, 8, 4, 2 at
# M = 2-6 and 1 from M = 7 up.  Measured by 10-step stride-1 runs on a 2-vCPU
# AVX-512 VM, with and without the CLI's heap policy: 0.63-0.97 of the run time
# of one record per call at M = 2-5, about 1 at M = 6; 1 << 16 made M = 7
# (R = 2) 1.3x slower without the heap policy.
_RECORD_BATCH_POINTS = 3 << 14


def evolve(state: SpectralState, model: GaussianPotential, t_final: float,
           config: IntegratorConfig = IntegratorConfig(), stride: int = 1,
           keep_states: bool = True) -> Trajectory:
    """Advance by fixed steps, emitting a record every ``stride`` steps.

    The first and final instants are always recorded (once for a t_final of
    0, which takes no step); a shortened final step covers any remainder of
    t_final.  Record times are t0 + k * dt, computed from the step index,
    where t0 is the state's time; a t0 so large that a step might not
    advance them raises ValueError before the first step.  The states due
    for a record are passed to make_records R = max(1, _RECORD_BATCH_POINTS //
    G^3) at a time, G the record grid, and the rest at the end; when R = 1
    (from M = 7 up) each record is made as soon as its state is due.
    """
    t_final, stride = check_run(t_final, stride, config, state.t)
    if config.method == "picard":
        _check_guard(state, model, t_final, "t_final")

        def step(s, h):
            return picard_solve(s, model, h, tau=config.picard_tau, tol=config.picard_tol,
                                max_iter=config.picard_max_iter)
    else:
        scheme = step_split if config.method == "split_strang" else step_rk4

        def step(s, h):
            return scheme(s, model, h)

    dt = config.dt
    t0 = state.t
    n_full, remainder, n_steps = _schedule(t_final, dt)

    def record_time(k):
        return t0 + (t_final if k > n_full else k * dt)

    context = diagnostics.TrajectoryContext.from_state(state, model)
    batch = max(1, _RECORD_BATCH_POINTS // _get_kernel(model, state.lattice).record.G**3)
    records, due = [], []

    def record(s, last):
        due.append(s)
        if len(due) == batch or last:
            records.extend(diagnostics.make_records(due, model, context))
            due.clear()

    record(state, n_steps == 0)
    states = [state] if keep_states else None

    current = state
    for k in range(1, n_steps + 1):
        short = k > n_full
        current = step(current, remainder if short else dt)
        current = current.with_alpha(current.alpha, t=record_time(k))
        if k % stride == 0 or k == n_steps:
            record(current, k == n_steps)
            if keep_states:
                states.append(current)

    return Trajectory(records=records, final_state=current,
                      context=context, states=states)
