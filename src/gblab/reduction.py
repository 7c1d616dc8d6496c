"""Change of variables between the second-order wave form and its first-order
Schrodinger form, the smoothing multiplier that replaces -dxx/(1-dxx), and
lambda-rescaling of initial data with the accompanying Sobolev bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    FrequencyLattice,
    LatticeError,
    SpectralField,
    make_lattice,
)
from .norms import h_norm, sobolev_weight


@dataclass(frozen=True, eq=False)
class GBState:
    """Position/velocity pair (v0, v1); real-valued states have conjugate-symmetric spectra."""

    v0: SpectralField
    v1: SpectralField

    def __post_init__(self):
        if not self.v0.lattice.same_grid(self.v1.lattice):
            raise LatticeError("v0 and v1 must live on the same lattice")


def gb_to_qnls(state: GBState) -> SpectralField:
    """u0 = v0 + i (1 - dxx)^(-1) v1, applied mode-wise as v1_hat/(1+k^2)."""
    k = state.v0.lattice.k
    coeff = state.v0.coeff + 1j * state.v1.coeff / (1.0 + k * k)
    return SpectralField(state.v0.lattice, coeff)


def qnls_to_gb(u: SpectralField) -> GBState:
    """v = Re u, v1 = (1 - dxx) Im u, computed spectrally."""
    k = u.lattice.k
    rev = np.conj(u.coeff[::-1])  # spectrum of the conjugate field
    v0 = (u.coeff + rev) / 2.0
    v1 = (1.0 + k * k) * (u.coeff - rev) / 2j
    return GBState(SpectralField(u.lattice, v0), SpectralField(u.lattice, v1))


def omega_multiplier(lattice: FrequencyLattice, lam: float | None = None) -> np.ndarray:
    """m(k) = lam^2 k^2 / (1 + lam^2 k^2); kills k=0 and is >= 1/2 on the
    physical lam-lattice.  A lam below the lattice's own period parameter
    evaluates the same symbol on a refined grid (the line emulation)."""
    if lam is None or lam == lattice.lam:
        j2 = lattice.j.astype(np.float64) ** 2
        return j2 / (1.0 + j2)
    x2 = (lam * lattice.k) ** 2
    return x2 / (1.0 + x2)


@dataclass(frozen=True)
class RescaleReport:
    lam: float
    s: float
    norm_original: float
    norm_rescaled: float
    bound: float
    bound_holds: bool


def rescale_data(u0: SpectralField, lam: float, s: float) -> tuple[SpectralField, RescaleReport]:
    """Exact pushforward of u0^lam(x) = lam^-2 u0(x/lam) to the lam-lattice.

    On the spectral side the unit-lattice integer mode n lands at frequency
    n/lam with coefficient lam^-1 u0_hat(n).  For s < 0 and lam >= 1 the
    rescaled H^s norm is bounded by lam^(-s-3/2) times the original.
    """
    if u0.lattice.lam != 1.0:
        raise LatticeError("rescale_data expects data on the lam=1 lattice")
    if lam < 1.0:
        raise LatticeError("lam must be >= 1")
    if s >= 0.0:
        raise LatticeError("the rescaling bound is only guaranteed for s < 0")
    target = make_lattice(lam, u0.lattice.K)
    coeff = np.zeros(target.modes, dtype=np.complex128)
    j_unit = u0.lattice.j
    # unit mode n sits at target index n + target.half_modes (frequency n/lam)
    coeff[j_unit + target.half_modes] = u0.coeff / lam
    out = SpectralField(target, coeff)
    n_orig = h_norm(u0, s)
    n_resc = h_norm(out, s)
    bound = lam ** (-s - 1.5) * n_orig
    report = RescaleReport(
        lam=lam,
        s=s,
        norm_original=n_orig,
        norm_rescaled=n_resc,
        bound=bound,
        bound_holds=bool(n_resc <= bound * (1.0 + 1e-12)),
    )
    return out, report


def rescaled_norm_sq_identity(u0: SpectralField, lam: float, s: float) -> float:
    """Closed form lam^-3 sum_n <n/lam>^(2s) |u0_hat(n)|^2 for cross-checking."""
    w = sobolev_weight(u0.lattice.j / lam, s)
    return float(np.sum(w * np.abs(u0.coeff) ** 2) / lam**3)
