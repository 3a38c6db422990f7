"""Momentum-space representation of the order parameter.

The order parameter on the box [-L/2, L/2)^3 at density rho is carried
as truncated Fourier coefficients alpha(n), |n|_inf <= M, normalized so
that sum |alpha|^2 = 1 (the physical field is then sqrt(rho) times the
unit-density synthesis).  Lattice sums are rows of one np.add.reduce over a
C-contiguous (k, n) stack, each bit for bit its row's reduce alone, in an
order fixed by n, so results are bit-reproducible across runs and threads.
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
from numpy.random import Generator, Philox, SeedSequence

from .potential import GaussianPotential, _positive_finite, as_int, as_real

__all__ = [
    "TorusLattice",
    "SpectralState",
    "AutoCorrelation",
    "autocorrelation",
    "difference_lattice",
    "wiener_norm",
    "s_sum",
    "t_sum",
    "to_physical",
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
SNAPSHOT_LAYOUT = {"encoding": "base64/float64-le", "order": "shell-lex"}
# max |mass - 1| of a healthy run (diagnostics.run_report) and of a snapshot
# load_state accepts, so every healthy run's final state can be resumed
MASS_TOLERANCE = 1e-6


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
    def shells(self):
        """Read-only (first, index) of the |n|^2 shells in increasing order:
        first[j] is the flat index of shell j's first site and index, of the
        lattice's shape, each site's shell, so f(|n|^2) evaluated once per
        shell on x.ravel()[first] is f(x) per site as f_shell[..., index]."""
        _, first, index = np.unique(self.norm_sq, return_index=True, return_inverse=True)
        index = index.reshape(self.shape)
        for a in (first, index):
            a.setflags(write=False)
        return first, index

    @cached_property
    def a2_weight(self):
        """Order-2 Wiener weight 1 + (2 pi |n| / L)^2 per site."""
        out = 1.0 + (2.0 * math.pi / self.L) ** 2 * self.norm_sq
        out.setflags(write=False)
        return out

    @cached_property
    def order(self):
        """Snapshot order, a flat-index permutation: |n|^2 shells, then lexicographic
        n, which is C order, so one stable sort by |n|^2 <= 3 M^2 gives it."""
        # integer keys of the least type: a radix sort up to 16 bits, 3x float's at M = 16
        keys = self.norm_sq.ravel().astype(np.min_scalar_type(3 * self.M**2))
        perm = np.argsort(keys, kind="stable")
        perm.setflags(write=False)
        return perm

    def ordered_sums(self, stack) -> list:
        """Sum each per-site array of a (k, ...) stack in C order by one
        np.add.reduce(rows, axis=1) over the C-contiguous (k, n) stack, bit for
        bit each row's own np.add.reduce, past numpy's 8192-element buffer too."""
        v = np.ascontiguousarray(stack)
        n = self.size**3
        if v.ndim < 1 or v.size != len(v) * n:
            raise ValueError("array does not match lattice size")
        return np.add.reduce(v.reshape(len(v), n), axis=1, dtype=float).tolist()

    def ordered_sum(self, values) -> float:
        """Sum a per-site array as one row of ordered_sums."""
        return self.ordered_sums(np.asarray(values).reshape(1, -1))[0]

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
        """sum |alpha|^2 (1 when normalized), summed as make_record's mass."""
        return self.lattice.ordered_sum(np.square(np.abs(self.alpha)))

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


def _fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, as scipy.fft.next_fast_len(n)."""
    n = max(n, 1)
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


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


def _transform(f, T):
    """The pruned transform of a (..., q, q, q) stack of cubes to a
    (..., p, p, p) one by the (p, q) matrix T: F of _dft_synthesis gives the
    G^3 ifftn of the modes embedded at their grid indices, the unit-density
    field on x_j = j L / G, and A of _dft_analysis gives fftn(f)[modes] / G^3.

    Pruned (FFTW's "pruned FFTs"): each product T @ f.reshape(-1, q).T maps
    the last axis alone and puts its new axis first, so three whole-array
    products (3 BLAS calls per cube; T on the left, as the tall
    f.reshape(q, -1).T @ T.T is slower) end in C order.  A stack takes the
    same products per cube, so each cube's bits are its own transform's.
    """
    p, q = T.shape
    lead = f.shape[:-3]
    for _ in range(3):
        f = np.matmul(T, f.reshape(*lead, -1, q).swapaxes(-1, -2))
    return f.reshape(*lead, p, p, p)


def _bandwidth(g) -> int:
    """The least k <= 2M whose dropped Gaussian weight is at roundoff, for
    the axis profile g[f] = Vhat(2 pi f / L) / b on f = 0..2M.

    With a = sum_{|f|<=k} g(f) and d = sum_{k<|f|<=2M} g(f), the weight
    that the box |k|_inf <= k drops from |k|_inf <= 2M is (a+d)^3 - a^3,
    taken in its tail form d (3a^2 + 3ad + d^2): the difference of cubes
    cancels in float64.  The least k with that weight <= 2^-53 is K.
    """
    two_sided = np.concatenate([g[:1], 2.0 * g[1:]])  # weight of |f| = k
    a = np.cumsum(two_sided)
    d = np.append(np.cumsum(two_sided[:0:-1])[::-1], 0.0)  # the tail, smallest terms first
    return int(np.argmax(d * (3.0 * a * a + 3.0 * a * d + d * d) <= 2.0**-53))


class _Kernel:
    """DFT matrices and a circulant for one lattice and Gaussian profile:
    its transforms and convolution are matrix products, not FFTs.

    The Gaussian's Vhat(2 pi k / L) = b g(k1) g(k2) g(k3), and the box
    |k|_inf <= K factors by axis too, so the density convolution is
    b (C x C x C) applied to the density: three real matrix products
    against the symmetric circulant C whose first column is ifft(g), g
    set to 0 beyond K.  By Maxwell's theorem no other radial Vhat factors
    by axis, which is why the Gaussian is the one potential family.

    The grid.  Cutoff-M data has a density with modes |k|_inf <= 2M; on
    G >= 2M + K + 1 its aliases land beyond K, where g is 0, and the crop
    of a product with modes <= M + K onto |k|_inf <= M is alias-free, so
    picard_solve and rhs are exact.  _get_kernel takes K = _bandwidth(g),
    the least K <= 2M whose dropped Gaussian weight is at most 2^-53 (as
    |beta_k| <= beta_0 = 1, the dropped part of V * |phi|^2 is then at most
    2^-53 b in sup norm), and G = _fast_len(2M + K + 1).  The Strang step's
    crop of exp(i theta) phi also aliases the phase's second-order modes,
    up to M + 2K: at roundoff while g is tiny near K, not always once
    K = 2M (8.3e-14 at L = 4, M = 2 on G = 9, 5e-16 on 10).  So the K = 2M
    kernel, which records take as record (Parseval over |k|_inf <= 2M
    needs G >= 4M + 1), is on _fast_len(4M + 2).

    field and crop are _transform against the read-only DFT pair
    F = _dft_synthesis(M, G), A = _dft_analysis(F); convolve takes a grid
    density, |phi|^2 from convolved_density or a record's.  field, crop,
    convolved_density, convolve and nonlinear take (..., n, n, n) stacks,
    n = 2M + 1 or G, and give each array of a stack the bits it gets alone,
    so picard_solve evaluates all its nodes in one call.  The kernel keeps no
    scratch buffers and not its model, so threads of one process may share
    it (each call allocates its own; scan workers build their own) and it
    dies with the model.
    """

    def __init__(self, lattice: TorusLattice, b: float, g, K: int):
        """g is the read-only axis profile Vhat(2 pi f / L) / b on f = 0..2M."""
        self.lattice, self.b, self.g, self.K = lattice, b, g, K
        M = lattice.M
        self.G = G = _fast_len(4 * M + 2 if K == 2 * M else 2 * M + K + 1)
        self.F = _dft_synthesis(M, G)
        self.A = _dft_analysis(self.F)
        # g on the grid frequencies, 0 beyond K
        f = np.minimum(np.arange(G), G - np.arange(G))
        column = np.fft.ifft(np.where(f <= K, g[np.minimum(f, K)], 0.0)).real
        # g is even, so its column is too; mirror it exactly so C = C.T bit for bit
        column[G // 2 + 1:] = column[1:(G + 1) // 2][::-1]
        # the circulant C[j, m] = column[(j - m) mod G]
        self.C = column[np.subtract.outer(np.arange(G), np.arange(G)) % G]
        self.bC = b * self.C
        self.C.setflags(write=False)
        self.bC.setflags(write=False)
        self._phases = ()
        self._record = None

    @property
    def record(self) -> "_Kernel":
        """The kernel with K = 2M and this one's b and g: self if K = 2M,
        else built on first use and kept."""
        K = 2 * self.lattice.M
        if self.K == K:
            return self
        with _KERNELS_LOCK:
            if self._record is None:
                self._record = _Kernel(self.lattice, self.b, self.g, K)
            return self._record

    def field(self, alpha):
        """Unit-density field on the G^3 grid: G^3 ifftn of the embedded alpha."""
        return _transform(alpha, self.F)

    def crop(self, phi):
        """Lattice coefficients of a grid field: fftn(phi)[lattice] / G^3."""
        return _transform(phi, self.A)

    def convolved_density(self, phi):
        """(V_L * |phi|^2)(x) on the grid, as a new array the caller may
        overwrite; phi is the unit-density field."""
        dens = np.square(phi.real)
        dens += np.square(phi.imag)
        return self.convolve(dens, dens)

    def convolve(self, dens, scratch):
        """V_L * dens = b (C x C x C) dens as a new array, per G^3 cube of a
        (..., G, G, G) stack; scratch, a C-contiguous array of dens's shape
        that may be dens itself, is overwritten."""
        # Axis 0, then 2, then 1, ping-ponging between two buffers: as left
        # products C @ y.reshape(-1, G).T the bits vary with the BLAS thread count
        # at G >= 35, and as tall y.reshape(G, -1).T @ C it is slower at M >= 8.
        # The axis-2 product stays one (G^2, G) product per cube: folding a
        # stack into one taller product changes its bits (G = 28, 3 cubes).
        G = self.G
        lead = dens.shape[:-3]
        y = np.matmul(self.bC, dens.swapaxes(-3, -2))  # (..., j, i', k)
        np.matmul(y.reshape(*lead, G * G, G), self.C,
                  out=scratch.reshape(*lead, G * G, G))  # (..., j, i', k')
        return np.matmul(self.C, scratch.swapaxes(-3, -2), out=y)  # (..., i', j', k')

    def nonlinear(self, alpha):
        """Projected convolution term P_M[(V_L * |phi|^2) phi] in coefficients."""
        phi = self.field(alpha)
        # the product, in written operand order, goes into phi: one stack-sized
        # buffer fewer keeps glibc's default heap policy from trimming and
        # refaulting the heap top on every call (up to ~330 page faults per
        # four-solve M = 3 Picard ladder without it, depending on heap layout)
        return self.crop(np.multiply(self.convolved_density(phi), phi, out=phi))

    def half_kinetic_phase(self, dt):
        """exp(-i dt omega / 2) on the lattice.  The last two step sizes
        are kept, which covers evolve's dt and its shortened last step; the
        cache is one tuple, replaced whole, so threads may share it."""
        key = float(dt)
        for k, phase in self._phases:
            if k == key:
                return phase
        phase = np.exp(-0.5j * key * self.lattice.omega)
        self._phases = self._phases[-1:] + ((key, phase),)
        return phase


# model -> {lattice: kernel}; an entry lives as long as its model.
# A library caller's threads may share it, so lookups and builds hold the lock.
_KERNELS = weakref.WeakKeyDictionary()
_KERNELS_LOCK = threading.Lock()


def _get_kernel(model: GaussianPotential, lattice: TorusLattice) -> _Kernel:
    with _KERNELS_LOCK:
        kernels = _KERNELS.setdefault(model, {})
        if lattice not in kernels:
            # g(f) = Vhat(2 pi f / L) / b on f = 0..2M, the one Vhat evaluation
            g = model.fourier_profile_radial(
                (2.0 * math.pi / lattice.L) * np.arange(2 * lattice.M + 1.0)) / model.b
            g.setflags(write=False)
            kernels[lattice] = _Kernel(lattice, model.b, g, _bandwidth(g))
        return kernels[lattice]


def difference_lattice(lattice: TorusLattice) -> TorusLattice:
    return TorusLattice(lattice.L, 2 * lattice.M)


def autocorrelation(state: SpectralState, method: str = "fft") -> AutoCorrelation:
    """Compute beta on the difference lattice.

    beta holds the coefficients of |phi|^2 = conj(phi) phi, and conj(phi)
    is the field of time_reversal(state), so 'fft' is the pointwise_product
    of the two.  'direct' performs the explicit shifted sum and serves as
    the oracle.
    """
    lat = state.lattice
    M = lat.M
    diff = difference_lattice(lat)
    if method == "fft":
        return AutoCorrelation(diff, pointwise_product(time_reversal(state), state).alpha)
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
    g = as_int(g, "g")
    if g < 1:
        raise ValueError("grid factor g must be >= 1")
    lat = state.lattice
    G = g * lat.size
    cube = np.zeros((G, G, G), dtype=complex)
    cube[lat.embed_indexer(G)] = state.alpha
    return math.sqrt(state.rho) * G**3 * np.fft.ifftn(cube)


def pointwise_product(a: SpectralState, b: SpectralState) -> SpectralState:
    """Coefficients of the pointwise product of two unit-density fields.

    Exact linear convolution of the coefficient arrays, returned on the
    doubled lattice (cutoff 2M).  Normalization is not preserved; the
    result is a Wiener-algebra element, not a physical state.
    """
    if a.lattice != b.lattice:
        raise ValueError("operands must share a lattice")
    lat = a.lattice
    G = _fast_len(2 * lat.size - 1)
    F = _dft_synthesis(lat.M, G)
    prod = _transform(a.alpha, F) * _transform(b.alpha, F)
    diff = difference_lattice(lat)
    A = _dft_analysis(_dft_synthesis(diff.M, G))
    return SpectralState(diff, a.rho, a.t, _transform(prod, A))


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
        eps (1 + |n - k0|)**(-s), then renormalized.  seed is a
        non-negative integer, a list of them or a SeedSequence.
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
    if isinstance(seed, list):  # SeedSequence entropy, as a JSON config spells it
        seed = [as_int(v, "seed") for v in seed]
    elif not isinstance(seed, SeedSequence):
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
    lattice's shell-lex order.
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
        **SNAPSHOT_LAYOUT,
        "data": base64.b64encode(buf.tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def _require(doc, key, where):
    if key not in doc:
        raise ValueError(f"{where}: missing required key {key!r}")
    return doc[key]


def load_state(path) -> SpectralState:
    """Read a snapshot in save_state's one layout; validates normalization."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a state snapshot")
    version = doc.get("version")
    if type(version) is not int or version != SNAPSHOT_VERSION:  # not True or 1.0
        raise ValueError(f"{path}: unsupported snapshot version {version!r}")
    for key, value in SNAPSHOT_LAYOUT.items():  # the only layout save_state writes
        if _require(doc, key, path) != value:
            raise ValueError(f"{path}: unsupported snapshot {key} {doc[key]!r}")
    lat = TorusLattice(_require(doc, "L", path), _require(doc, "M", path))
    data = _require(doc, "data", path)
    if not isinstance(data, str):
        raise ValueError(f"{path}: data must be a base64 string")
    buf = np.frombuffer(base64.b64decode(data), dtype="<f8")
    if buf.size != 2 * lat.size**3:
        raise ValueError(f"{path}: coefficient block has wrong length")
    if not np.all(np.isfinite(buf)):
        raise ValueError(f"{path}: coefficient block has non-finite values")
    alpha = np.empty(lat.size**3, dtype=complex)
    alpha[lat.order] = buf.view("<c16")  # the (re, im) pairs, bit for bit
    state = SpectralState(lat, as_real(_require(doc, "rho", path), "rho", positive=True),
                          as_real(_require(doc, "t", path), "t"), alpha.reshape(lat.shape))
    if not abs(state.mass - 1.0) <= MASS_TOLERANCE:  # a NaN mass fails too
        raise ValueError(f"{path}: snapshot mass {state.mass!r} deviates from 1")
    return state
