"""Correctness checks computed apart from the program under test.

Nothing here imports ``torus_hartree``.  Energies come from a plain
numpy quadrature on a 4M+2 grid, snapshots are decoded from their
documented byte layout, and trajectory and scan outputs are read back
from the files the CLI wrote.  Every check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import base64
import csv
import json
import math

import numpy as np

# Tolerances (the README repeats them with their reasons).
ENERGY_RTOL = 1e-12      # program energy vs the independent quadrature
MASS_TOL = 1e-9          # |mass - 1| on every record
DRIFT_TOL = 1e-6         # relative energy drift over a run
ROUND_TRIP_TOL = 1e-8    # l2 distance after forward, reverse, backward, reverse
PLANE_WAVE_TOL = 1e-9    # l2 distance of a Picard solve to the exact plane wave
STRANG_TOL = 1e-7        # l2 distance of a Picard solve to a fine Strang run
TIME_RTOL = 1e-12        # record times are t0 + k * dt from the step index


def gaussian_vhat(p):
    """Fourier transform of the unit gaussian exp(-r^2 / 2) at radial momentum p."""
    p = np.asarray(p, dtype=float)
    return (2.0 * math.pi) ** 1.5 * np.exp(-0.5 * p**2)


def lattice_modes(M):
    n = np.arange(-M, M + 1)
    return n, (n[:, None, None] ** 2 + n[None, :, None] ** 2
               + n[None, None, :] ** 2).astype(float)


def energy_per_particle(alpha, L):
    """sum omega |alpha|^2 + 0.5 mean((V * |phi|^2) |phi|^2) on a 4M+2 grid.

    phi is the unit-density field; the grid resolves |phi|^2 (modes up to
    2M) and the quartic product without aliasing, so the mean is exact.
    """
    alpha = np.asarray(alpha, dtype=complex)
    M = (alpha.shape[0] - 1) // 2
    n, nsq = lattice_modes(M)
    kinetic = float(np.sum((4.0 * math.pi**2 / L**2) * nsq * np.abs(alpha) ** 2))
    G = 4 * M + 2
    cube = np.zeros((G, G, G), dtype=complex)
    w = n % G
    cube[np.ix_(w, w, w)] = alpha
    phi = G**3 * np.fft.ifftn(cube)
    dens = np.abs(phi) ** 2
    f = np.fft.fftfreq(G, 1.0 / G)
    radii = (2.0 * math.pi / L) * np.sqrt(
        f[:, None, None] ** 2 + f[None, :, None] ** 2 + f[None, None, :] ** 2)
    conv = np.fft.ifftn(np.fft.fftn(dens) * gaussian_vhat(radii)).real
    return kinetic + 0.5 * float(np.mean(conv * dens))


def plane_wave(M, k0, theta=0.0):
    alpha = np.zeros((2 * M + 1,) * 3, dtype=complex)
    alpha[tuple(int(k) + M for k in k0)] = np.exp(1j * theta)
    return alpha


def plane_wave_exact(M, L, k0, theta, b, t):
    """The Hartree plane wave at time t: phase exp(-i(4 pi^2 |k0|^2 / L^2 + b) t)."""
    w = 4.0 * math.pi**2 * float(np.dot(k0, k0)) / L**2 + b
    return plane_wave(M, k0, theta - w * t)


def reverse(alpha):
    """Conjugate reflection alpha(n) -> conj(alpha(-n))."""
    return np.conj(np.asarray(alpha)[::-1, ::-1, ::-1])


def l2(a, b):
    return float(np.sqrt(np.sum(np.abs(np.asarray(a) - np.asarray(b)) ** 2)))


def read_snapshot(path):
    """Decode a state snapshot from its documented layout.

    Returns (header dict, alpha).  Sites are stored in shell-lex order:
    sorted by |n|^2, then lexicographically by (n1, n2, n3).
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    M = int(doc["M"])
    n, nsq = lattice_modes(M)
    g = np.broadcast_arrays(n[:, None, None], n[None, :, None], n[None, None, :])
    order = np.lexsort((g[2].ravel(), g[1].ravel(), g[0].ravel(), nsq.ravel()))
    buf = np.frombuffer(base64.b64decode(doc["data"]), dtype="<f8")
    if buf.size != 2 * order.size:
        raise ValueError(f"{path}: payload holds {buf.size} floats, "
                         f"expected {2 * order.size}")
    alpha = np.empty(order.size, dtype=complex)
    alpha[order] = buf[0::2] + 1j * buf[1::2]
    return doc, alpha.reshape((2 * M + 1,) * 3)


def read_csv(path):
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# checks

def check_energy(alpha, L, reported, label):
    """Reported energy per particle against the independent quadrature."""
    ref = energy_per_particle(alpha, L)
    err = abs(float(reported) - ref) / abs(ref)
    if not err <= ENERGY_RTOL:
        return [f"{label}: energy per particle {float(reported)!r} vs quadrature "
                f"{ref!r} (relative error {err:.3g} > {ENERGY_RTOL:g})"]
    return []


def check_trajectory(rows, times, label):
    """Record count and times, mass conservation, relative energy drift."""
    if len(rows) != len(times):
        return [f"{label}: {len(rows)} records, expected {len(times)}"]
    out = []
    for row, t in zip(rows, times):
        if not abs(float(row["t"]) - t) <= TIME_RTOL * max(1.0, abs(t)):
            out.append(f"{label}: record time {row['t']} != {t!r}")
            break
    mass_dev = max(abs(float(r["mass"]) - 1.0) for r in rows)
    if not mass_dev <= MASS_TOL:
        out.append(f"{label}: max |mass - 1| = {mass_dev:.3g} > {MASS_TOL:g}")
    e0 = float(rows[0]["energy"])
    drift = max(abs(float(r["energy"]) - e0) / abs(e0) for r in rows)
    if not drift <= DRIFT_TOL:
        out.append(f"{label}: relative energy drift {drift:.3g} > {DRIFT_TOL:g}")
    return out


def check_distance(a, b, tol, label):
    d = l2(a, b)
    if not d <= tol:
        return [f"{label}: l2 distance {d:.3g} > {tol:g}"]
    return []


def check_scan_table(rows, rho_values, L_values):
    """Every point ok, conserved within tolerance, n_particles = rho L^3."""
    expected = [(r, L) for r in rho_values for L in L_values]
    got = [(float(row["rho"]), float(row["L"])) for row in rows]
    if got != expected:
        return [f"table.csv: points {got} != plan ladder {expected}"]
    out = []
    for row in rows:
        where = f"table.csv rho={row['rho']} L={row['L']}"
        if row["status"] != "ok":
            out.append(f"{where}: status {row['status']!r}")
            continue
        if not float(row["max_mass_dev"]) <= MASS_TOL:
            out.append(f"{where}: max_mass_dev {row['max_mass_dev']} > {MASS_TOL:g}")
        if not float(row["max_energy_drift"]) <= DRIFT_TOL:
            out.append(f"{where}: max_energy_drift {row['max_energy_drift']} > {DRIFT_TOL:g}")
        n_expected = float(row["rho"]) * float(row["L"]) ** 3
        if float(row["n_particles"]) != n_expected:
            out.append(f"{where}: n_particles {row['n_particles']} != {n_expected!r}")
    return out


def strip_column(text, column):
    """CSV text with one named column removed (for table.csv minus runtime_s)."""
    rows = list(csv.reader(text.splitlines()))
    drop = rows[0].index(column)
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows)


def check_same_outputs(files_a, files_b, label):
    """Two output sets {name: text} are identical, ignoring table.csv's runtime_s."""
    if sorted(files_a) != sorted(files_b):
        return [f"{label}: file sets differ: {sorted(files_a)} vs {sorted(files_b)}"]
    out = []
    for name in sorted(files_a):
        a, b = files_a[name], files_b[name]
        if name == "table.csv":
            a, b = strip_column(a, "runtime_s"), strip_column(b, "runtime_s")
        if a != b:
            out.append(f"{label}: {name} differs")
    return out
