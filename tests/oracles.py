"""Oracles the tests build inputs with or compare against: a physical
sample grid and the forward spatial transform, the windowed time transform,
the free Schrodinger trajectory, a 1-d Besov norm, the nonlinearity over the
full spectrum and the reference integrator that takes every stage's phase
afresh.  No command reaches them, so they live beside the tests rather than
in the package."""

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
from gblab.solver import (
    _DP_A,
    _DP_C,
    _DP_E,
    _LOCAL_ERROR_CAP,
    StepSizeRejection,
    _product_plan,
    time_grid,
)


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


def nonlinearity_full_spectrum(rows, lattice, lam, include_linear=True, include_quadratic=True):
    """F(u) over stacked spectra, its linear term taken on every mode and the
    square's modes -J..-1 as the conjugates of its modes 1..J."""
    rows = np.atleast_2d(rows)
    out = np.empty(rows.shape, dtype=np.complex128)
    J = lattice.half_modes
    if include_linear:
        # (u - conj u) on the spectral side: u_hat(k) - conj(u_hat(-k))
        np.subtract(rows, np.conj(rows[:, ::-1]), out=out)
        out /= 2.0 * lam * lam
    else:
        out.fill(0.0)
    if include_quadratic:
        n, mult = _product_plan(lattice, lam)
        w = rows[:, J:] + np.conj(rows[:, J::-1])  # spectrum of u + conj(u), j >= 0
        phys = np.fft.irfft(w, n, axis=-1)
        phys *= phys
        sq = np.fft.rfft(phys, axis=-1)[:, : J + 1]
        sq *= mult
        out[:, J:] += sq
        out[:, :J] += np.conj(sq[:, J:0:-1])
    return out


def reference_stagewise(u0: SpectralField, cfg) -> Trajectory:
    """Dormand-Prince 5(4) in the interaction picture, each stage's phase
    e^{-i k^2 t} taken from its own time and each step from the grid's own
    spacing; a step costs six right-hand sides and seven exponentials."""
    t = time_grid(cfg)
    lattice = u0.lattice
    k2 = lattice.k ** 2

    def rhs(time, v):
        e = np.exp(-1j * k2 * time)
        F = nonlinearity_full_spectrum(
            (v * e)[None, :], lattice, cfg.lam, cfg.include_linear, cfg.include_quadratic
        )[0]
        return -1j * F * np.conj(e)

    coeff = np.zeros((t.size, lattice.modes), dtype=np.complex128)
    coeff[0] = u0.coeff
    stages = np.empty((7, lattice.modes), dtype=np.complex128)
    v = u0.coeff.astype(np.complex128)
    stages[0] = rhs(t[0], v)
    for i in range(t.size - 1):
        h = t[i + 1] - t[i]
        for s in range(1, 7):
            w = v + h * (_DP_A[s, :s] @ stages[:s])
            stages[s] = rhs(t[i] + _DP_C[s] * h, w)
        err = float(np.abs(h * (_DP_E @ stages)).max())
        if err > _LOCAL_ERROR_CAP * max(1.0, float(np.abs(v).max())):
            raise StepSizeRejection(f"local error {err:.3e} at t={t[i]:.6g}; reduce dt")
        v = w
        stages[0] = stages[6]
        coeff[i + 1] = v * np.exp(-1j * k2 * t[i + 1])
    return Trajectory(lattice, t, coeff)
