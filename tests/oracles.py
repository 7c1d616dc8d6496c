"""Oracles the tests build inputs with or compare against: a physical
sample grid and the forward spatial transform, the windowed time transform,
the free Schrodinger trajectory, and a 1-d Besov norm.  No command reaches
them, so they live beside the tests rather than in the package."""

import math

import numpy as np

from gblab.lattice import (
    SQRT_TWO_PI,
    FrequencyLattice,
    LatticeError,
    SpacetimeSpectrum,
    SpectralField,
    Trajectory,
)
from gblab.norms import _lp_levels, lp_bump


def x_grid(lattice: FrequencyLattice, n: int) -> np.ndarray:
    """Uniform sample grid on [0, 2*pi*lam)."""
    return np.arange(n) * (lattice.circumference / n)


def forward_transform(samples: np.ndarray, lattice: FrequencyLattice) -> SpectralField:
    """Fourier coefficients (2*pi)^(-1/2) * integral e^{-ikx} phi(x) dx of sampled phi.

    Exact for inputs band-limited to the lattice; sample count must be at least
    the mode count so the discrete transform is alias-free.  Stacked samples
    (..., n) give stacked coefficient rows (..., modes) instead of a field.
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    if n < lattice.modes:
        raise LatticeError(f"need >= {lattice.modes} samples, got {n}")
    X = np.fft.fft(samples, axis=-1)
    J = lattice.half_modes
    neg = X[..., n - J:]
    pos = X[..., : J + 1]
    coeff = np.concatenate([neg, pos], axis=-1) * (SQRT_TWO_PI * lattice.lam / n)
    if samples.ndim == 1:
        return SpectralField(lattice, coeff)
    return coeff


def time_transform(traj: Trajectory, window, tau_grid: np.ndarray) -> SpacetimeSpectrum:
    """Windowed time transform u~(tau,k) = (2*pi)^(-1/2) * dt * sum_m e^{-i tau t_m} w(t_m) u(t_m,k).

    The window must be supported inside the trajectory's time grid, otherwise the
    discrete integral silently truncates mass.
    """
    w = np.asarray([window(t) for t in traj.t], dtype=np.float64)
    if abs(w[0]) > 1e-12 or abs(w[-1]) > 1e-12:
        raise LatticeError("window support exceeds the time grid")
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    weighted = traj.coeff * w[:, None]
    kernel = np.exp(-1j * np.outer(tau_grid, traj.t))
    coeff = kernel @ weighted * (traj.dt / SQRT_TWO_PI)
    return SpacetimeSpectrum(traj.lattice, tau_grid, coeff)


def free_trajectory(u0: SpectralField, t: np.ndarray) -> Trajectory:
    k2 = u0.lattice.k ** 2
    coeff = np.exp(-1j * np.outer(np.asarray(t), k2)) * u0.coeff[None, :]
    return Trajectory(u0.lattice, np.asarray(t, dtype=np.float64), coeff)


def besov_1d(values: np.ndarray, grid: np.ndarray, sigma: float, measure: float) -> float:
    """1-d Besov B^sigma_{2,1} norm of spectral data on a uniform grid."""
    levels = _lp_levels(grid)
    abs2 = np.abs(values) ** 2
    total = 0.0
    for j in range(levels + 1):
        w = lp_bump(j, grid) ** 2
        total += 2.0 ** (sigma * j) * math.sqrt(float(np.sum(w * abs2) * measure))
    return total
