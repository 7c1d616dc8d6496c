"""Empirical probes of the key bilinear estimate: the smoothed bilinear image
with its three conjugation patterns, ratio sweeps whose fitted lambda slopes
measure the loss, and the L4/dispersive-norm ratio probe."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .lattice import (
    SQRT_TWO_PI,
    TWO_PI,
    LatticeError,
    SpacetimeSpectrum,
    inverse_rows,
    make_lattice,
    make_tau_grid,
    pad_size,
)
from .norms import modulation, ws_norm, xsb_norm
from .reduction import omega_multiplier

KINDS = ("u vbar", "u v", "ubar vbar")


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain 2-d convolution, truncated back to the common centered grid."""
    n_tau, modes = a.shape
    # the linear product sits on slots [0, 4h] per axis and the kept block on
    # [h, 3h]; on pad_size(h) >= 3h + 1 slots, odd or even, no alias reaches
    # the kept block
    h_t, h_k = (n_tau - 1) // 2, (modes - 1) // 2
    shape = (pad_size(h_t), pad_size(h_k))
    spec = np.fft.fft2(a, shape) * np.fft.fft2(b, shape)
    # invert along tau first, so the k transforms run on the kept rows only
    rows = np.fft.ifft(spec, axis=0)[h_t : h_t + n_tau]
    return np.fft.ifft(rows, axis=1)[:, h_k : h_k + modes]


def _flip(coeff: np.ndarray) -> np.ndarray:
    """conj(c)(-tau, -k) on the centered grid."""
    return np.conj(coeff)[::-1, ::-1]


def _flip_cells(cells, shape):
    """conj(c)(-tau, -k) of a cell list on a centered grid of the given shape."""
    it, ik, c = cells
    return shape[0] - 1 - it, shape[1] - 1 - ik, np.conj(c)


def _convolve_cells(a, b, shape):
    """Convolution of two cell lists, one product per pair of cells: products
    landing off the centered grid are dropped, and products landing on one
    cell stay separate entries, for from_cells to add up."""
    (it_a, ik_a, c_a), (it_b, ik_b, c_b) = a, b
    # offsets from the center add: (i - h) + (j - h) = (i + j - h) - h
    it = (it_a[:, None] + it_b[None, :] - (shape[0] - 1) // 2).ravel()
    ik = (ik_a[:, None] + ik_b[None, :] - (shape[1] - 1) // 2).ravel()
    on = (it >= 0) & (it < shape[0]) & (ik >= 0) & (ik < shape[1])
    return it[on], ik[on], (c_a[:, None] * c_b[None, :]).ravel()[on]


def bilinear_image(
    u: SpacetimeSpectrum, v: SpacetimeSpectrum, kind: str
) -> SpacetimeSpectrum:
    """Space-time convolution with the kind's conjugation pattern, then the
    smoothing multiplier m(k) and the inverse modulation weight <tau+k^2>^-1.

    When both inputs carry a cell list the image is summed pair by pair and
    carries its own; otherwise it is a padded FFT product on the grid."""
    if kind not in KINDS:
        raise LatticeError(f"unknown bilinear kind {kind}")
    if not u.lattice.same_grid(v.lattice) or u.tau.shape != v.tau.shape:
        raise LatticeError("bilinear image needs matching grids")
    if abs(u.dtau - v.dtau) > 1e-12 * u.dtau:
        raise LatticeError("bilinear image needs matching tau spacings")
    shape = u.coeff.shape
    cells = u._cells is not None and v._cells is not None
    if cells:
        a, b = u._cells, v._cells
        conv, flip = partial(_convolve_cells, shape=shape), partial(_flip_cells, shape=shape)
    else:
        a, b, conv, flip = u.coeff, v.coeff, _convolve, _flip
    if kind == "u v":
        raw = conv(a, b)
    elif kind == "ubar vbar":
        raw = flip(conv(a, b))
    else:
        # cross term: sum over x of u[x] conj(v[x - d]) = conv(u, flip(conj v))
        raw = conv(a, flip(b))
    if cells:
        it, ik, raw = raw
        tau = u.tau[it]
    else:
        tau, ik = u.tau[:, None], np.arange(shape[1])
    scale = u.dtau / (TWO_PI * u.lattice.lam)
    img = raw * scale * omega_multiplier(u.lattice)[ik] / modulation(tau, u.lattice.k[ik])
    if cells:
        # the weights are per cell, so from_cells may add the weighted products
        return SpacetimeSpectrum.from_cells(u.lattice, u.tau, it, ik, img)
    return u.with_coeff(img)


def _probe_grids(lam: float, generator: str):
    if generator == "adversarial-omega4":
        n1 = max(8.0, 0.625 * lam)
        K = n1 + 2.0
        tau_max = n1 * n1 + 4.0 * n1 + 50.0
        dtau = max(0.25, tau_max / 1600.0)
    else:
        n1 = 8.0
        K = 4.0
        tau_max = 60.0
        dtau = 0.5
    lattice = make_lattice(lam, K)
    tau = make_tau_grid(tau_max, dtau)
    return lattice, tau, n1


def _cluster(lattice, tau, center_k, rng, n_cells=3, amp=1.0):
    """A few unit cells hugging the dispersive curve near center_k."""
    it, ik, values = [], [], []
    j0 = round(center_k * lattice.lam)
    for step in range(n_cells):
        j = j0 + step
        if abs(j) > lattice.half_modes:
            continue
        k = j / lattice.lam
        it.append(int(np.argmin(np.abs(tau + k * k))))
        ik.append(j + lattice.half_modes)
        values.append(amp * np.exp(1j * rng.uniform(0.0, TWO_PI)))
    return SpacetimeSpectrum.from_cells(lattice, tau, it, ik, values)


def _dense_random(lattice, tau, rng, n_bumps=6):
    """Random smooth continuum profile (sum of Gaussian bumps hugging the
    dispersive curve) sampled on the lattice: refining lambda then converges
    to a fixed function, so norm ratios admit a lambda -> infinity limit."""
    k = lattice.k
    coeff = np.zeros((tau.size, lattice.modes), dtype=np.complex128)
    for _ in range(n_bumps):
        kc = rng.uniform(-2.5, 2.5)
        tc = -kc * kc + rng.uniform(-5.0, 5.0)
        sk = rng.uniform(0.4, 1.5)
        st = rng.uniform(0.8, 4.0)
        amp = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        gk = np.exp(-((k - kc) ** 2) / (2 * sk * sk))
        gt = np.exp(-((tau - tc) ** 2) / (2 * st * st))
        coeff += amp * np.outer(gt, gk)
    return SpacetimeSpectrum(lattice, tau, coeff)


def generate_pair(kind: str, generator: str, lam: float, rng):
    """Input pair for one probe trial; adversarial clusters are placed so the
    kind's product lands in the low-frequency band [1/lam, 1]."""
    lattice, tau, n1 = _probe_grids(lam, generator)
    if generator == "random":
        return _dense_random(lattice, tau, rng), _dense_random(lattice, tau, rng)
    if generator == "adversarial-omega4":
        u = _cluster(lattice, tau, n1, rng)
        v_center = n1 if kind == "u vbar" else -n1
        v = _cluster(lattice, tau, v_center + 1.0 / lam, rng)
        return u, v
    raise LatticeError(f"unknown generator {generator}")


@dataclass(frozen=True)
class ProbeReport:
    kind: str
    generator: str
    s: float
    lam: float
    ratios: list
    max_ratio: float
    skipped: int
    seed: int


def ratio_probe(
    s: float,
    lam: float,
    kind: str,
    generator: str = "random",
    n_trials: int = 6,
    seed: int = 2024,
) -> ProbeReport:
    """Ratio ||image||_W / (||u||_W ||v||_W) over seeded trials."""
    tag = zlib.crc32(f"{kind}|{generator}|{s}|{lam}".encode())
    rng = np.random.default_rng(seed + tag)
    ratios = []
    skipped = 0
    for _ in range(n_trials):
        u, v = generate_pair(kind, generator, lam, rng)
        nu, nv = ws_norm(u, s), ws_norm(v, s)
        if nu == 0.0 or nv == 0.0:
            skipped += 1
            continue
        img = bilinear_image(u, v, kind)
        ratios.append(ws_norm(img, s) / (nu * nv))
    return ProbeReport(
        kind=kind,
        generator=generator,
        s=s,
        lam=lam,
        ratios=ratios,
        max_ratio=max(ratios) if ratios else float("nan"),
        skipped=skipped,
        seed=seed,
    )


def fitted_slope(lams, values) -> float:
    """Least-squares slope of log(value) against log(lam)."""
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def slope_sweep(
    kind: str,
    s: float,
    lams=(4.0, 16.0, 64.0),
    generator: str = "adversarial-omega4",
    n_trials: int = 4,
    seed: int = 2024,
) -> dict:
    """Max-ratio per lambda and the fitted log-log slope, JSON-ready."""
    reports = [
        ratio_probe(s, lam, kind, generator=generator, n_trials=n_trials, seed=seed)
        for lam in lams
    ]
    maxes = [r.max_ratio for r in reports]
    return {
        "kind": kind,
        "generator": generator,
        "s": s,
        "lambdas": list(lams),
        "max_ratios": maxes,
        "slope": fitted_slope(lams, maxes),
        "seed": seed,
        "ratios": [r.ratios for r in reports],
    }


def physical_samples(u: SpacetimeSpectrum):
    """Physical-space samples on the dual (t, x) grid, t covering one period
    2*pi/dtau; twice the grid per axis makes |u|^4 quadrature alias-free."""
    n_tau, modes = u.coeff.shape
    # |u|^4 spans +-4h per axis (n = 2h + 1), so its mean over 2n = 4h + 2
    # points keeps only the zero mode: the L4 sum is exact
    n_t = 2 * n_tau
    n_x = 2 * modes
    half_t = (n_tau - 1) // 2
    # k -> x per tau row, then the tau rows on the padded FFT grid
    rows = inverse_rows(u.coeff, u.lattice, n_x)
    spec = np.zeros((n_t, n_x), dtype=np.complex128)
    spec[: n_tau - half_t] = rows[half_t:]
    spec[n_t - half_t :] = rows[:half_t]
    # dtau sum over tau with its 1/sqrt(2pi)
    phys = np.fft.ifft(spec, axis=0) * (n_t * u.dtau / SQRT_TWO_PI)
    dt = TWO_PI / (n_t * u.dtau)
    dx = u.lattice.circumference / n_x
    return phys, dt, dx


def l4_ratio(u: SpacetimeSpectrum) -> float:
    """||u||_{L4_{t,x}} / ||u||_{X^{0,3/8}} via grid quadrature of the inverse
    transform over one time period."""
    denom = xsb_norm(u, 0.0, 0.375)
    if denom == 0.0:
        return float("nan")
    phys, dt, dx = physical_samples(u)
    l4 = (np.sum(np.abs(phys) ** 4) * dt * dx) ** 0.25
    return float(l4 / denom)
