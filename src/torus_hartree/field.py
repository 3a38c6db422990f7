"""Momentum-space representation of the order parameter.

The order parameter on the box [-L/2, L/2)^3 at density rho is carried
as truncated Fourier coefficients alpha(n), |n|_inf <= M, normalized so
that sum |alpha|^2 = 1 (the physical field is then sqrt(rho) times the
unit-density synthesis).  All scalar reductions run in one fixed order,
shells of |n|^2 then lexicographic, so results are bit-reproducible
across runs and thread counts.
"""

from __future__ import annotations

import base64
import json
import math
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from numpy.random import Generator, Philox, SeedSequence
from scipy.fft import next_fast_len

from .potential import _positive_finite, as_int, as_real, vhat_grid

__all__ = [
    "TorusLattice",
    "SpectralState",
    "AutoCorrelation",
    "autocorrelation",
    "wiener_norm",
    "s_sum",
    "t_sum",
    "to_physical",
    "to_spectral",
    "STATE_FAMILIES",
    "FAMILY_PARAMS",
    "make_state",
    "random_state",
    "time_reversal",
    "pointwise_product",
    "save_state",
    "load_state",
]

SNAPSHOT_FORMAT = "torus-hartree-state"
SNAPSHOT_VERSION = 1


def as_mode(value, name: str = "k0") -> tuple:
    """A lattice mode: a sequence of three integers, each read with as_int."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{name} must be a list of three integers, got {value!r}")
    return tuple(as_int(v, name) for v in value)


@dataclass(frozen=True)
class TorusLattice:
    """Cubic truncation {n in Z^3 : |n|_inf <= M} of the momentum lattice.

    Arrays indexed by lattice site use axis index n_i + M.
    """

    L: float
    M: int

    def __post_init__(self):
        L = as_real(self.L, "L", positive=True)
        # the kinetic symbol and the box volume must be positive finite floats
        _positive_finite(lambda: 4.0 * math.pi**2 / L**2, f"4 pi^2 / L^2 at L = {L!r}")
        _positive_finite(lambda: L**3, f"L^3 at L = {L!r}")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "M", as_int(self.M, "M"))
        if self.M < 1:
            raise ValueError("M must be >= 1")

    @property
    def size(self) -> int:
        return 2 * self.M + 1

    @property
    def shape(self):
        return (self.size,) * 3

    @cached_property
    def n1d(self):
        a = np.arange(-self.M, self.M + 1)
        a.setflags(write=False)
        return a

    @cached_property
    def norm_sq(self):
        n = self.n1d
        out = (n[:, None, None] ** 2 + n[None, :, None] ** 2
               + n[None, None, :] ** 2).astype(float)
        out.setflags(write=False)
        return out

    @cached_property
    def omega(self):
        """Kinetic symbol 4 pi^2 |n|^2 / L^2 per site."""
        out = (4.0 * math.pi**2 / self.L**2) * self.norm_sq
        out.setflags(write=False)
        return out

    @cached_property
    def a2_weight(self):
        """Order-2 Wiener weight 1 + (2 pi |n| / L)^2 per site."""
        out = 1.0 + (2.0 * math.pi / self.L) ** 2 * self.norm_sq
        out.setflags(write=False)
        return out

    @cached_property
    def order(self):
        """Flat-index permutation: |n|^2 shells, then lexicographic n."""
        n = self.n1d
        g = np.broadcast_arrays(n[:, None, None], n[None, :, None],
                                n[None, None, :])
        perm = np.lexsort((g[2].ravel(), g[1].ravel(), g[0].ravel(),
                           self.norm_sq.ravel()))
        perm.setflags(write=False)
        return perm

    def ordered_sum(self, values) -> float:
        """Reduce a per-site array in the fixed deterministic order."""
        v = np.asarray(values)
        if v.size != self.size**3:
            raise ValueError("array does not match lattice size")
        return float(np.sum(v.ravel()[self.order]))

    def index_of(self, n):
        """Array index triple of lattice vector n; raises if outside."""
        n = np.asarray(n, dtype=int).reshape(3)
        if np.any(np.abs(n) > self.M):
            raise ValueError(f"mode {tuple(int(v) for v in n)} outside cutoff M={self.M}")
        return tuple(int(v) + self.M for v in n)

    def embed_indexer(self, G: int):
        """Fancy index placing lattice data into a size-G FFT cube."""
        if G < self.size:
            raise ValueError(f"grid size {G} too small for cutoff M={self.M}")
        w = self.n1d % G
        return np.ix_(w, w, w)


@dataclass(frozen=True)
class SpectralState:
    """Coefficients alpha on a lattice, at density rho and time t.

    The constructor does not force sum |alpha|^2 = 1: integrator
    internals legitimately hold unnormalized intermediates, and mass
    drift is itself a diagnostic.  State builders and snapshot loading
    do validate normalization.
    """

    lattice: TorusLattice
    rho: float
    t: float
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "t", float(self.t))
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        a = np.ascontiguousarray(self.alpha, dtype=complex)
        if a.shape != self.lattice.shape:
            raise ValueError(f"alpha shape {a.shape} != lattice shape {self.lattice.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def mass(self) -> float:
        """sum |alpha|^2 in the deterministic order (1 when normalized)."""
        a = self.alpha
        return self.lattice.ordered_sum(a.real**2 + a.imag**2)

    def with_alpha(self, alpha, t=None) -> "SpectralState":
        return SpectralState(self.lattice, self.rho,
                             self.t if t is None else float(t), alpha)


@dataclass(frozen=True)
class AutoCorrelation:
    """beta(k) = sum_m conj(alpha(m)) alpha(m+k) on the difference lattice.

    The difference lattice shares L and has cutoff 2M, on which beta is
    exact for truncated alpha.
    """

    lattice: TorusLattice
    beta: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.beta, dtype=complex)
        if b.shape != self.lattice.shape:
            raise ValueError("beta shape does not match difference lattice")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)


def _dft_synthesis(M: int, G: int):
    """The read-only (G, 2M+1) pruned DFT matrix from the modes |k| <= M
    to a size-G grid: F[j, k] = exp(2 pi i ((j k) mod G) / G).

    It maps a mode axis to grid points x_j = j L / G.  Entries are taken
    from one table of the G roots of unity, made conjugate-symmetric
    (roots[G - m] = conj(roots[m])), and indexed by j k reduced mod G.
    The unreduced phase 2 pi j k / G reaches 99 rad at M = 16, G = 66, and
    a synthesis through it was off from np.fft by 8e-15 of max |phi|,
    against 7e-16 with the reduced one.
    """
    half = np.exp((2j * math.pi / G) * np.arange(G // 2 + 1))
    if G % 2 == 0:
        half[-1] = -1.0  # its own conjugate
    roots = np.concatenate([half, np.conj(half[(G + 1) // 2 - 1:0:-1])])
    F = roots[np.outer(np.arange(G), np.arange(-M, M + 1)) % G]
    F.setflags(write=False)
    return F


def _dft_analysis(F):
    """The read-only (2M+1, G) analysis matrix A = conj(F).T / G that maps
    a size-G grid axis back to the modes of the synthesis matrix F."""
    A = np.conj(F.T) / F.shape[0]
    A.setflags(write=False)
    return A


def _synthesize(alpha, F):
    """G^3 ifftn of the (n, n, n) array alpha embedded at its modes' grid
    indices, for the (G, n) synthesis matrix F of _dft_synthesis.

    Pruned (FFTW's "pruned FFTs"): one axis at a time, each a matrix
    product (BLAS zgemm) that maps only the n = 2M+1 rows that can be
    nonzero.  At these sizes three products beat three pocketfft passes:
    each scipy.fft call costs ~15-20 us of overhead even on a 14^3 grid,
    and each pass would transform rows of which about half are padding.
    With F from the lattice's M this is the unit-density field of alpha
    on the grid x_j = j L / G.
    """
    G, n = F.shape
    f = (F @ alpha.reshape(n, n * n)).reshape(G, n, n)
    f = np.matmul(F, f)  # (G, G, n): F times each (n, n) slab
    return (f.reshape(G * G, n) @ F.T).reshape(G, G, G)


def _analyze(f, A):
    """fftn(f)[modes] / G^3 for a G^3 grid array f and the (n, G) analysis
    matrix A of _dft_analysis: _synthesize's products in mirror order."""
    n, G = A.shape
    f = (np.reshape(f, (G * G, G)) @ A.T).reshape(G, G, n)
    f = np.matmul(A, f)  # (G, n, n): A times each (G, n) slab
    return (A @ f.reshape(G, n * n)).reshape(n, n, n)


class _Kernel:
    """FFT workspace for one (lattice, model) combination.

    The grid has at least 4M+2 points per axis, which makes the projected
    nonlinear term and the quartic energy exact for cutoff-M data.  Vhat
    is stored only on |k|_inf <= 2M, the frequencies a cutoff-M density
    can reach, and is 0 elsewhere.

    field and crop are the module's pruned transforms _synthesize and
    _analyze, three BLAS matrix products each against the read-only DFT
    pair F = _dft_synthesis(M, G), A = _dft_analysis(F), built here once
    per kernel; they map only the 2M+1 modes of each axis, so no call
    pays for padding rows or per-axis FFT overhead.  The density is real, so its convolution with
    V uses scipy.fft.rfftn and the half-spectrum vhat_half.  The kernel
    keeps no scratch buffers, so threads of one process may share it:
    each call allocates its own.  (Scan worker processes each build
    their own kernels.)
    """

    def __init__(self, lattice: TorusLattice, model):
        self.lattice = lattice
        self.G = G = next_fast_len(2 * lattice.size)
        self.F = _dft_synthesis(lattice.M, G)
        self.A = _dft_analysis(self.F)
        self.vhat = vhat_grid(model, lattice.L, scipy.fft.fftfreq(G, 1.0 / G),
                              limit=2 * lattice.M)
        self.vhat_half = self.vhat[:, :, :G // 2 + 1]  # the rfftn half-spectrum
        self._phases = {}

    def field(self, alpha):
        """Unit-density field on the G^3 grid: G^3 ifftn of the embedded alpha."""
        return _synthesize(alpha, self.F)

    def crop(self, phi):
        """Lattice coefficients of a grid field: fftn(phi)[lattice] / G^3."""
        return _analyze(phi, self.A)

    def convolved_density(self, phi):
        """(V_L * |phi|^2)(x) on the grid, as a new array the caller may
        overwrite; phi is the unit-density field."""
        dens = np.square(phi.real)
        dens += np.square(phi.imag)
        spec = scipy.fft.rfftn(dens)
        spec *= self.vhat_half
        return scipy.fft.irfftn(spec, s=dens.shape, overwrite_x=True)

    def nonlinear(self, alpha):
        """Projected convolution term P_M[(V_L * |phi|^2) phi] in coefficients."""
        phi = self.field(alpha)
        return self.crop(self.convolved_density(phi) * phi)

    def half_kinetic_phase(self, dt):
        key = float(dt)
        if key not in self._phases:
            self._phases[key] = np.exp(-0.5j * key * self.lattice.omega)
        return self._phases[key]


# model -> {lattice: kernel}; an entry lives as long as its model.
# A library caller's threads may share it, so lookups and builds hold the lock.
_KERNELS = weakref.WeakKeyDictionary()
_KERNELS_LOCK = threading.Lock()


def _get_kernel(model, lattice: TorusLattice) -> _Kernel:
    with _KERNELS_LOCK:
        kernels = _KERNELS.setdefault(model, {})
        if lattice not in kernels:
            kernels[lattice] = _Kernel(lattice, model)
        return kernels[lattice]


def difference_lattice(lattice: TorusLattice) -> TorusLattice:
    return TorusLattice(lattice.L, 2 * lattice.M)


def autocorrelation(state: SpectralState, method: str = "fft") -> AutoCorrelation:
    """Compute beta on the difference lattice.

    'fft' synthesizes the field on a grid of at least 4M+1 points per
    axis, so no two differences of cutoff-M modes alias, and reads beta
    off the transform of |phi|^2.  'direct' performs the explicit
    shifted sum and serves as the oracle.
    """
    lat = state.lattice
    M = lat.M
    diff = difference_lattice(lat)
    if method == "fft":
        G = next_fast_len(4 * M + 1)
        phi = _synthesize(state.alpha, _dft_synthesis(M, G))
        A = _dft_analysis(_dft_synthesis(diff.M, G))
        return AutoCorrelation(diff, _analyze(phi.real**2 + phi.imag**2, A))
    if method == "direct":
        a = state.alpha
        n = lat.size
        beta = np.empty(diff.shape, dtype=complex)
        for k1 in range(-2 * M, 2 * M + 1):
            lo1, hi1 = max(0, -k1), min(n - 1, n - 1 - k1)
            for k2 in range(-2 * M, 2 * M + 1):
                lo2, hi2 = max(0, -k2), min(n - 1, n - 1 - k2)
                for k3 in range(-2 * M, 2 * M + 1):
                    lo3, hi3 = max(0, -k3), min(n - 1, n - 1 - k3)
                    left = a[lo1:hi1 + 1, lo2:hi2 + 1, lo3:hi3 + 1]
                    right = a[lo1 + k1:hi1 + k1 + 1,
                              lo2 + k2:hi2 + k2 + 1,
                              lo3 + k3:hi3 + k3 + 1]
                    beta[k1 + 2 * M, k2 + 2 * M, k3 + 2 * M] = np.vdot(left, right)
        return AutoCorrelation(diff, beta)
    raise ValueError(f"unknown autocorrelation method {method!r}")


def wiener_norm(state: SpectralState, r: int) -> float:
    """Weighted coefficient-space Wiener norm of order r in {0, 2}.

    r = 0 is the plain absolute sum (coinciding with s_sum); r = 2 uses
    the weight 1 + (2 pi |n| / L)^2.  This is the norm of the
    unit-density field; multiply by sqrt(rho) for the physical one.
    """
    if r not in (0, 2):
        raise ValueError("wiener_norm supports r in {0, 2}")
    if r == 0:
        return s_sum(state)
    return state.lattice.ordered_sum(state.lattice.a2_weight * np.abs(state.alpha))


def s_sum(state: SpectralState) -> float:
    """S = sum |alpha(n)|; controls the sup of the unit-density field."""
    return state.lattice.ordered_sum(np.abs(state.alpha))


def t_sum(state: SpectralState) -> float:
    """T = sum (4 pi^2 |n|^2 / L^2) |alpha(n)|; controls the Laplacian sup."""
    return state.lattice.ordered_sum(state.lattice.omega * np.abs(state.alpha))


def to_physical(state: SpectralState, g: int = 2) -> np.ndarray:
    """Synthesize the field on a (g*(2M+1))^3 collocation grid.

    Grid points are x_j = j L / G.  g = 2 is alias-free for quartic
    quantities.  Returns the physical-scale field (includes sqrt(rho)).
    """
    g = int(g)
    if g < 1:
        raise ValueError("grid factor g must be >= 1")
    lat = state.lattice
    G = g * lat.size
    cube = np.zeros((G, G, G), dtype=complex)
    cube[lat.embed_indexer(G)] = state.alpha
    return math.sqrt(state.rho) * G**3 * np.fft.ifftn(cube)


def to_spectral(field, lattice: TorusLattice, rho: float, t: float = 0.0) -> SpectralState:
    """Project physical-grid values back onto the truncated lattice."""
    field = np.asarray(field, dtype=complex)
    if field.ndim != 3 or len(set(field.shape)) != 1:
        raise ValueError("field must be a cube")
    G = field.shape[0]
    if G < lattice.size:
        raise ValueError(f"grid size {G} too small for cutoff M={lattice.M}")
    hat = np.fft.fftn(field)
    alpha = hat[lattice.embed_indexer(G)] / (G**3 * math.sqrt(rho))
    return SpectralState(lattice, rho, t, alpha)


def pointwise_product(a: SpectralState, b: SpectralState) -> SpectralState:
    """Coefficients of the pointwise product of two unit-density fields.

    Exact linear convolution of the coefficient arrays, returned on the
    doubled lattice (cutoff 2M).  Normalization is not preserved; the
    result is a Wiener-algebra element, not a physical state.
    """
    if a.lattice != b.lattice:
        raise ValueError("operands must share a lattice")
    lat = a.lattice
    G = next_fast_len(2 * lat.size - 1)
    F = _dft_synthesis(lat.M, G)
    prod = _synthesize(a.alpha, F) * _synthesize(b.alpha, F)
    diff = difference_lattice(lat)
    A = _dft_analysis(_dft_synthesis(diff.M, G))
    return SpectralState(diff, a.rho, a.t, _analyze(prod, A))


def _normalize(alpha, where: str):
    norm = math.sqrt(float(np.sum(np.abs(alpha) ** 2)))
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError(f"{where}: state is not normalizable (norm {norm})")
    return alpha / norm


# Every spelling of a state family that make_state accepts, mapped to its
# canonical name; the CLI, scan plans and simulate configs all resolve here.
STATE_FAMILIES = {
    "plane_wave": "plane_wave", "plane-wave": "plane_wave",
    "two_mode": "two_mode", "two-mode": "two_mode",
    "perturbed_condensate": "perturbed_condensate",
    "perturbed-condensate": "perturbed_condensate",
    "perturbed": "perturbed_condensate",
}

# The parameters each canonical state family takes, mapped to whether they
# are required.  make_state and scan plans both check keys against this table.
FAMILY_PARAMS = {
    "plane_wave": {"k0": False, "theta": False},
    "two_mode": {"k0": False, "escape_exponent": True},
    "perturbed_condensate": {"k0": False, "theta": False, "eps": True, "s": True,
                             "seed": True},
}


def check_family_keys(family: str, given, takes=None, where: str = "parameters"):
    """Refuse keys the canonical family does not take, then missing required
    ones, naming the keys and the family.  takes defaults to FAMILY_PARAMS[family]."""
    takes = FAMILY_PARAMS[family] if takes is None else takes
    extra = sorted(set(given) - set(takes))
    if extra:
        raise ValueError(f"state family {family!r} takes no {where} {extra}; "
                         f"it takes {', '.join(takes)}")
    missing = [k for k, required in takes.items() if required and k not in given]
    if missing:
        raise ValueError(f"state family {family!r} requires {where} {missing}")


def make_state(family: str, lattice: TorusLattice, rho: float, **params) -> SpectralState:
    """Construct a normalized initial state.

    Families:
      plane_wave(k0, theta=0): alpha = exp(i theta) delta_{k0}.
      two_mode(k0=(0,0,0), escape_exponent): weights sqrt(rho/(rho+1))
        on k0 and sqrt(1/(rho+1)) on (floor(rho**a * L), 0, 0).
      perturbed_condensate(k0=(0,0,0), theta=0, eps, s, seed): condensate
        phase exp(i theta) at k0 plus random-phase tail with magnitudes
        eps (1 + |n - k0|)**(-s), then renormalized.
    """
    if not isinstance(family, str) or family not in STATE_FAMILIES:
        raise ValueError(f"unknown state family {family!r}; known: "
                         f"{', '.join(dict.fromkeys(STATE_FAMILIES.values()))}")
    family = STATE_FAMILIES[family]
    check_family_keys(family, params)
    rho = as_real(rho, "rho", positive=True)
    k0 = as_mode(params.get("k0", (0, 0, 0)))
    alpha = np.zeros(lattice.shape, dtype=complex)

    if family == "plane_wave":
        theta = as_real(params.get("theta", 0.0), "theta")
        alpha[lattice.index_of(k0)] = np.exp(1j * theta)
        return SpectralState(lattice, rho, 0.0, alpha)

    if family == "two_mode":
        a_exp = as_real(params["escape_exponent"], "escape_exponent")
        n_esc = (math.floor(_positive_finite(lambda: rho**a_exp * lattice.L,
                                             "escape mode rho**a * L")), 0, 0)
        if n_esc == k0:
            raise ValueError("escape mode collides with the condensate mode")
        alpha[lattice.index_of(k0)] = math.sqrt(rho / (rho + 1.0))
        alpha[lattice.index_of(n_esc)] = math.sqrt(1.0 / (rho + 1.0))
        return SpectralState(lattice, rho, 0.0, alpha)

    # perturbed_condensate
    theta = as_real(params.get("theta", 0.0), "theta")
    eps = as_real(params["eps"], "eps")
    s = as_real(params["s"], "s", positive=True)
    seed = params["seed"]
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    idx0 = lattice.index_of(k0)
    if not isinstance(seed, SeedSequence):
        seed = as_int(seed, "seed")
    rng = Generator(Philox(seed))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=lattice.shape)
    n = lattice.n1d
    dist = np.sqrt((n[:, None, None] - k0[0]) ** 2
                   + (n[None, :, None] - k0[1]) ** 2
                   + (n[None, None, :] - k0[2]) ** 2)
    alpha = eps * (1.0 + dist) ** (-s) * np.exp(1j * phases)
    alpha[idx0] = np.exp(1j * theta)
    return SpectralState(lattice, rho, 0.0, _normalize(alpha, "perturbed_condensate"))


def random_state(lattice: TorusLattice, rho: float = 1.0, seed=0) -> SpectralState:
    """Normalized state with iid complex-gaussian coefficients (test utility)."""
    rng = Generator(Philox(seed if isinstance(seed, SeedSequence) else int(seed)))
    alpha = rng.normal(size=lattice.shape) + 1j * rng.normal(size=lattice.shape)
    return SpectralState(lattice, float(rho), 0.0, _normalize(alpha, "random_state"))


def time_reversal(state: SpectralState) -> SpectralState:
    """The conjugate-reflection alpha(n) -> conj(alpha(-n)).

    Conjugating a flow by this map reverses its time direction, so
    evolve, reverse, evolve, reverse returns the initial state.
    """
    return state.with_alpha(np.conj(state.alpha[::-1, ::-1, ::-1]))


def save_state(state: SpectralState, path, family=None, seed=None):
    """Write a snapshot: JSON header plus base64 coefficient block.

    Coefficients are little-endian float64 pairs (re, im) in the
    deterministic lattice order.
    """
    lat = state.lattice
    flat = state.alpha.ravel()[lat.order]
    buf = np.empty(2 * flat.size, dtype="<f8")
    buf[0::2] = flat.real
    buf[1::2] = flat.imag
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "L": lat.L,
        "M": lat.M,
        "rho": state.rho,
        "t": state.t,
        "family": family,
        "seed": seed,
        "encoding": "base64/float64-le",
        "order": "shell-lex",
        "data": base64.b64encode(buf.tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_state(path) -> SpectralState:
    """Read a snapshot written by save_state; validates normalization."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a state snapshot")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {doc.get('version')}")
    lat = TorusLattice(doc["L"], doc["M"])
    if not isinstance(doc["data"], str):
        raise ValueError(f"{path}: data must be a base64 string")
    buf = np.frombuffer(base64.b64decode(doc["data"]), dtype="<f8")
    if buf.size != 2 * lat.size**3:
        raise ValueError(f"{path}: coefficient block has wrong length")
    if not np.all(np.isfinite(buf)):
        raise ValueError(f"{path}: coefficient block has non-finite values")
    alpha = np.empty(lat.size**3, dtype=complex)
    alpha[lat.order] = buf.view("<c16")  # the (re, im) pairs, bit for bit
    state = SpectralState(lat, as_real(doc["rho"], "rho", positive=True),
                          as_real(doc["t"], "t"), alpha.reshape(lat.shape))
    if not abs(state.mass - 1.0) <= 1e-9:  # a NaN mass fails too
        raise ValueError(f"{path}: snapshot mass {state.mass!r} deviates from 1")
    return state
