"""Discrete frequency lattices on the 2*pi*lam torus, spatial and space-time
spectra, the inverse transform to physical samples, and binary dumps.

Conventions: the lattice Z/lam carries the normalized counting measure
(1/lam)*sum, the forward transform is (2*pi)^(-1/2) * integral of e^{-ikx},
and tau-integrals are dtau-weighted sums on a uniform symmetric grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FrequencyLattice:
    """Frequencies j/lam for integer |j| <= half_modes, spacing exactly 1/lam."""

    lam: float
    K: float
    half_modes: int

    @property
    def modes(self) -> int:
        return 2 * self.half_modes + 1

    @property
    def j(self) -> np.ndarray:
        """Integer indices -half_modes..half_modes (ascending)."""
        return np.arange(-self.half_modes, self.half_modes + 1)

    @property
    def k(self) -> np.ndarray:
        """Frequencies j/lam (ascending, 0 is always present)."""
        return self.j / self.lam

    @property
    def circumference(self) -> float:
        return TWO_PI * self.lam

    def index_of(self, freq: float) -> int:
        """Array index of a lattice frequency; rejects off-lattice values."""
        j = round(freq * self.lam)
        if abs(j - freq * self.lam) > 1e-9 * max(1.0, abs(j)):
            raise LatticeError(f"{freq} is not a lattice frequency for lam={self.lam}")
        if abs(j) > self.half_modes:
            raise LatticeError(f"frequency {freq} beyond truncation K={self.K}")
        return j + self.half_modes

    def same_grid(self, other: "FrequencyLattice") -> bool:
        return (
            self.lam == other.lam
            and self.K == other.K
            and self.half_modes == other.half_modes
        )


def make_lattice(lam: float, K: float) -> FrequencyLattice:
    if not (np.isfinite(lam) and np.isfinite(K)):
        raise LatticeError("lam and K must be finite")
    if lam < 1.0:
        raise LatticeError("lam must be >= 1")
    if K <= 0.0:
        raise LatticeError("K must be > 0")
    return FrequencyLattice(lam=float(lam), K=float(K), half_modes=int(math.ceil(K * lam)))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients of one spatial function, truncated to the lattice."""

    lattice: FrequencyLattice
    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=np.complex128)
        if c.shape != (self.lattice.modes,):
            raise LatticeError(
                f"coeff shape {c.shape} does not match lattice modes {self.lattice.modes}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)


def zero_field(lattice: FrequencyLattice) -> SpectralField:
    return SpectralField(lattice, np.zeros(lattice.modes, dtype=np.complex128))


def field_from_modes(lattice: FrequencyLattice, modes: dict) -> SpectralField:
    """Field with prescribed coefficients, e.g. {1.0: 1.0, -0.5: 2j}."""
    c = np.zeros(lattice.modes, dtype=np.complex128)
    for freq, val in modes.items():
        c[lattice.index_of(freq)] = val
    return SpectralField(lattice, c)


def pad_size(J: int) -> int:
    """Smallest 2^a 3^b 5^c >= 3J + 1.

    A product of two fields on |j| <= J spans |j| <= 2J; one of its aliases
    lands on a kept mode |j| <= J only if the grid has at most 3J points, so
    any n >= 3J + 1, odd or even, gives the kept modes exactly.  numpy's FFT
    runs lengths with no prime factor above 5 at full speed, and they sit
    much closer to 3J + 1 than the next power of two.
    """
    need = 3 * J + 1
    best = 1 << (3 * J).bit_length()  # the power of two bounds the search
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times 3^b 5^c that reaches need
            best = min(best, p35 << (-(-need // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def inverse_rows(rows: np.ndarray, lattice: FrequencyLattice, n: int) -> np.ndarray:
    """Physical samples of stacked spectra (..., modes) on the uniform n-point
    grid of [0, 2*pi*lam); the inverse of the forward transform for n >= modes."""
    if n < lattice.modes:
        raise LatticeError(f"need >= {lattice.modes} samples, got {n}")
    J = lattice.half_modes
    spec = np.zeros(rows.shape[:-1] + (n,), dtype=np.complex128)
    spec[..., : J + 1] = rows[..., J:]
    spec[..., n - J:] = rows[..., :J]
    return np.fft.ifft(spec, axis=-1) * (n / (SQRT_TWO_PI * lattice.lam))


def _freeze_grid(obj, axis: str, label: str, rows: str) -> None:
    """Check that obj's `axis` array is a uniform 1-d grid of >= 2 points and
    that its coeff is (grid size, modes), then freeze both in place; the
    errors name the grid by `label` and its size by `rows`."""
    t = np.asarray(getattr(obj, axis), dtype=np.float64)
    c = np.asarray(obj.coeff, dtype=np.complex128)
    if t.ndim != 1 or t.size < 2:
        raise LatticeError(f"{label} grid must be 1-d with >= 2 points")
    d = np.diff(t)
    if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * max(abs(d[0]), 1e-300)):
        raise LatticeError(f"{label} grid must be uniform")
    if c.shape != (t.size, obj.lattice.modes):
        raise LatticeError(f"coeff shape {c.shape} != ({rows}, modes)")
    t.setflags(write=False)
    c.setflags(write=False)
    object.__setattr__(obj, axis, t)
    object.__setattr__(obj, "coeff", c)


@dataclass(frozen=True, eq=False)
class SpacetimeSpectrum:
    """Space-time Fourier data u~(tau, k) on a uniform symmetric tau grid.

    The given arrays are frozen in place, not copied.  A spectrum built by
    `from_cells` also keeps its cell list (tau index, k index, value), which
    the bilinear image and `ws_norm` sum over instead of the grid."""

    lattice: FrequencyLattice
    tau: np.ndarray
    coeff: np.ndarray
    _cells: tuple | None = field(default=None, init=False)

    @classmethod
    def from_cells(cls, lattice, tau, it, ik, values) -> "SpacetimeSpectrum":
        """Spectrum that is zero off the given cells; values on a repeated
        cell add up.  The dense grid comes from np.zeros, whose pages are
        not resident until touched."""
        tau = np.asarray(tau, dtype=np.float64)
        it = np.ravel(np.asarray(it, dtype=np.int64))
        ik = np.ravel(np.asarray(ik, dtype=np.int64))
        modes = lattice.modes
        if it.size and (min(it.min(), ik.min()) < 0 or it.max() >= tau.size or ik.max() >= modes):
            raise LatticeError("cell index outside the (n_tau, modes) grid")
        flat, where = np.unique(it * modes + ik, return_inverse=True)
        summed = np.zeros(flat.size, dtype=np.complex128)
        np.add.at(summed, where, np.ravel(values))
        coeff = np.zeros((tau.size, modes), dtype=np.complex128)
        coeff.flat[flat] = summed
        cells = (flat // modes, flat % modes, summed)
        for a in cells:
            a.setflags(write=False)
        spec = cls(lattice, tau, coeff)
        object.__setattr__(spec, "_cells", cells)
        return spec

    def __post_init__(self):
        _freeze_grid(self, "tau", "tau", "n_tau")

    @property
    def dtau(self) -> float:
        return float(self.tau[1] - self.tau[0])

    def with_coeff(self, coeff: np.ndarray) -> "SpacetimeSpectrum":
        return SpacetimeSpectrum(self.lattice, self.tau, coeff)


def make_tau_grid(tau_max: float, dtau: float) -> np.ndarray:
    """Symmetric uniform grid covering [-tau_max, tau_max]."""
    n = int(math.ceil(tau_max / dtau))
    return np.arange(-n, n + 1) * dtau


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed spectral fields on one lattice and a uniform time grid."""

    lattice: FrequencyLattice
    t: np.ndarray
    coeff: np.ndarray

    def __post_init__(self):
        _freeze_grid(self, "t", "time", "n_t")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def field_at(self, i: int) -> SpectralField:
        return SpectralField(self.lattice, self.coeff[i])

    def index_of_time(self, time: float) -> int:
        i = int(round((time - self.t[0]) / self.dt))
        if i < 0 or i >= self.t.size or abs(self.t[i] - time) > 1e-9 * max(1.0, abs(time)):
            raise LatticeError(f"t={time} is not on the trajectory grid")
        return i


# Binary spectrum dump: little-endian header (lam f64, K f64, mode count u64,
# tau/time row count u64 or 0), then interleaved (re, im) f64 row-major (tau, k).
_HEADER = struct.Struct("<ddQQ")


def dump_spectrum(obj, path) -> None:
    if isinstance(obj, SpectralField):
        rows, data = 0, obj.coeff[None, :]
    elif isinstance(obj, SpacetimeSpectrum):
        rows, data = obj.tau.size, obj.coeff
    elif isinstance(obj, Trajectory):
        rows, data = obj.t.size, obj.coeff
    else:
        raise LatticeError(f"cannot dump object of type {type(obj).__name__}")
    lattice = obj.lattice
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(lattice.lam, lattice.K, lattice.modes, rows))
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def load_spectrum(path):
    """Returns (lattice, rows, coeff): rows == 0 means a single spatial field."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            raw = fh.read()
    except OSError as exc:
        raise LatticeError(f"cannot read spectrum dump {path}: {exc.strerror}") from None
    if len(header) < _HEADER.size:
        raise LatticeError(
            f"{path}: {len(header)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    lam, K, modes, rows = _HEADER.unpack(header)
    n_rows = max(int(rows), 1)
    expected = n_rows * int(modes) * 16
    if len(raw) != expected:
        raise LatticeError(
            f"{path}: body of {len(raw)} bytes, expected {n_rows} rows x {modes} modes"
            f" x 16 = {expected}"
        )
    lattice = make_lattice(lam, K)
    if lattice.modes != modes:
        raise LatticeError(f"mode count {modes} inconsistent with lam={lam}, K={K}")
    coeff = np.frombuffer(raw, dtype="<c16").reshape(n_rows, int(modes)).astype(np.complex128)
    return lattice, int(rows), coeff


def load_field(path) -> SpectralField:
    lattice, rows, coeff = load_spectrum(path)
    if rows != 0:
        raise LatticeError("dump holds a space-time object, not a single field")
    return SpectralField(lattice, coeff[0])


def load_spacetime(path, tau_max: float) -> SpacetimeSpectrum:
    """Rebuild a space-time spectrum; the dump header does not carry the tau
    range, so it must be supplied (usually from the run manifest)."""
    lattice, rows, coeff = load_spectrum(path)
    if rows == 0:
        raise LatticeError("dump holds a single field, not a space-time object")
    if rows % 2 == 0:
        raise LatticeError("expected an odd symmetric tau grid")
    if rows < 3:
        raise LatticeError(f"{rows} tau rows in the dump; a symmetric tau grid needs at least 3")
    half = (rows - 1) // 2
    tau = np.arange(-half, half + 1) * (tau_max / half)
    return SpacetimeSpectrum(lattice, tau, coeff)
