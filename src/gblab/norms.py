"""Sobolev, dispersive, and Besov-type norms on lattice spectra.
The weights <k>^(2s) and <tau+k^2> and the Littlewood-Paley bump are defined
here once, for every module that weighs a spectrum.

Region conventions of the glued norm (fixed so the pieces form a genuine
partition): "at most comparable" is <= with constant 1, "much greater" is
> 4x, and the dyadic modulation shells [M, 2M) of the tail
<tau+k^2> > <k>^2 are binned by M = 2^floor(log2 <tau+k^2>), so the M = 1
shell takes everything below 2.  Any fixed constants give equivalent norms;
determinism across runs is what matters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeError, SpacetimeSpectrum, SpectralField

MUCH_GREATER = 4.0
FAMILIES = ("Hs", "Xsb", "Ys", "Ws", "Besov")  # the norms NormSpec names
WS_S_RANGE = (-0.5, -0.25)  # the s for which ws_norm glues its pieces


def _bracket(x: np.ndarray) -> np.ndarray:
    """Japanese bracket <x> = (1 + x^2)^(1/2)."""
    return np.sqrt(1.0 + np.asarray(x, dtype=np.float64) ** 2)


def sobolev_weight(k: np.ndarray, s: float) -> np.ndarray:
    """<k>^(2s), the weight of |u_hat(k)|^2 in the squared H^s norm."""
    return _bracket(k) ** (2.0 * s)


def modulation(tau: np.ndarray, k: np.ndarray) -> np.ndarray:
    """<tau + k^2>, the distance of (tau, k) from the dispersive curve;
    tau and k broadcast against each other."""
    return _bracket(tau + k * k)


def bump_psi(t):
    """Smooth cutoff: 1 on [-1,1], exp(1 - 1/(1-(|t|-1)^2)) on 1<|t|<2, 0 outside."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    edge = (a > 1.0) & (a < 2.0)
    x = a[edge] - 1.0
    out[edge] = np.exp(1.0 - 1.0 / (1.0 - x * x))
    if np.ndim(t) == 0:
        return float(out)
    return out


def h_norm(phi: SpectralField, s: float) -> float:
    """Sobolev norm ((1/lam) sum_k <k>^(2s) |phi_hat(k)|^2)^(1/2)."""
    w = sobolev_weight(phi.lattice.k, s)
    return float(np.sqrt(np.sum(w * np.abs(phi.coeff) ** 2) / phi.lattice.lam))


def xsb_norm(u: SpacetimeSpectrum, s: float, b: float) -> float:
    """Weighted l2_k L2_tau norm with weights <k>^s <tau+k^2>^b."""
    k = u.lattice.k
    w = sobolev_weight(k, s)[None, :] * modulation(u.tau[:, None], k) ** (2.0 * b)
    total = np.sum(w * np.abs(u.coeff) ** 2) * u.dtau / u.lattice.lam
    return float(np.sqrt(total))


def ys_norm(u: SpacetimeSpectrum, s: float) -> float:
    """l2_k L1_tau norm with <k>^s weight; controls sup-in-time Sobolev norms."""
    l1 = np.sum(np.abs(u.coeff), axis=0) * u.dtau
    w = sobolev_weight(u.lattice.k, s)
    return float(np.sqrt(np.sum(w * l1**2) / u.lattice.lam))


def grid_mod_cap(u: SpacetimeSpectrum) -> float:
    """Smallest dyadic M whose shell family covers every grid cell."""
    top = float(modulation(np.abs(u.tau).max(), u.lattice.k.max()))
    return 2.0 ** math.ceil(math.log2(max(top, 1.0)))


def _tail_shells(u: SpacetimeSpectrum, mod, brk, a2, k_power: float, m_max: float | None):
    """The tail <tau+k^2> > <k>^2 and the sums of a2 <k>^k_power over its
    dyadic shells M <= <tau+k^2> < 2M for M = 1, 2, 4, ... up to m_max
    (default `grid_mod_cap(u)`); mod, brk and a2 broadcast as in ws_norm.

    Returns (tail mask, sums, count): sums runs up to the last populated
    shell, count is the number of shells up to m_max."""
    if m_max is None:
        m_max = grid_mod_cap(u)
    tail = mod > brk**2
    count = max(math.floor(math.log2(m_max)) + 1, 0)
    midx = np.floor(np.log2(mod[tail])).astype(np.int64)
    keep = midx < count
    # gathered per tail cell, so no full-grid weight array is built
    weight = a2[tail] * np.broadcast_to(brk, tail.shape)[tail] ** k_power
    return tail, np.bincount(midx[keep], weights=weight[keep]), count


@dataclass(frozen=True)
class NormSpec:
    """Serializable description of one norm evaluation (for reports/CLI)."""

    family: str  # Hs | Xsb | Ys | Ws | Besov
    s: float
    b: float | None = None
    m_max: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise LatticeError(f"unknown norm family {self.family}")
        if self.m_max is not None:
            m = self.m_max
            if m < 1 or 2 ** round(math.log2(m)) != m:
                raise LatticeError("m_max must be a power of 2 >= 1")


def ws_norm(u: SpacetimeSpectrum, s: float, m_max: float | None = None) -> float:
    """Glued modulation norm: strong (X^{s,1}) at low modulation, a derivative
    gain (X^{s+1,0}) at high modulation, L1-in-tau control at very high
    modulation, and at s = -1/2 an l1 sum over dyadic modulation shells.

    One pass over the spectrum's cells: its cell list when it has one, the
    whole grid otherwise.
    """
    if not (WS_S_RANGE[0] <= s <= WS_S_RANGE[1]):
        raise LatticeError("ws_norm requires -1/2 <= s <= -1/4")
    if u._cells is None:
        tau, ik, c = u.tau[:, None], np.arange(u.lattice.modes), u.coeff
    else:
        it, ik, c = u._cells
        tau = u.tau[it]
    # tau, ik and c broadcast against each other: (n_tau, 1), (modes,) and the
    # grid for a dense spectrum, three gathered 1-d arrays for a cell list
    absc = np.abs(c)
    k = u.lattice.k[ik]
    brk = _bracket(k)
    mod = modulation(tau, k)
    a2 = absc**2
    meas = u.dtau / u.lattice.lam
    mask_low = mod <= brk
    wk_s = sobolev_weight(k, s)
    x_low = math.sqrt(float(np.sum((a2 * mod**2)[mask_low] * np.broadcast_to(wk_s, a2.shape)[mask_low])) * meas)
    mask_very = mod > MUCH_GREATER * brk**2
    # per-k l1 in tau: sum out the grid's tau axis (a cell list has none),
    # then add up by k index
    very = np.sum(absc * mask_very, axis=tuple(range(absc.ndim - 1)))
    l1 = np.bincount(ik, weights=very, minlength=u.lattice.modes) * u.dtau
    wk_all = sobolev_weight(u.lattice.k, s)
    y_very = math.sqrt(float(np.sum(wk_all * l1**2)) / u.lattice.lam)
    if s > -0.5:
        x_high = math.sqrt(
            float(np.sum((a2 * ~mask_low) * sobolev_weight(k, s + 1.0))) * meas
        )
        return x_low + x_high + y_very
    mask_tail, sums, _ = _tail_shells(u, mod, brk, a2, 1.0, m_max)
    mask_mid = ~mask_low & ~mask_tail
    x_mid = math.sqrt(float(np.sum((a2 * mask_mid) * brk)) * meas)
    # l1 in M over the tail's dyadic shells
    shell_sum = float(np.sum(np.sqrt(sums * meas)))
    return x_low + x_mid + shell_sum + y_very


def lp_bump(j: int, x: np.ndarray) -> np.ndarray:
    """p_0 = psi, p_j = psi(2^-j x) - psi(2^-(j-1) x): smooth dyadic partition."""
    x = np.asarray(x, dtype=np.float64)
    if j == 0:
        return bump_psi(x)
    return bump_psi(x / 2.0**j) - bump_psi(x / 2.0 ** (j - 1))


def _lp_levels(values: np.ndarray) -> int:
    top = float(np.abs(values).max()) if values.size else 1.0
    return max(1, math.ceil(math.log2(max(top, 1.0))) + 2)


def besov_norm(u: SpacetimeSpectrum, s: float, b: float) -> float:
    """l1-in-blocks Besov norm: sum_j sum_q 2^(sj) 2^(bq) ||p_j(k) p_q(tau) u~||_L2."""
    k = u.lattice.k
    tau = u.tau
    jmax = _lp_levels(k)
    qmax = _lp_levels(tau)
    total = 0.0
    abs2 = np.abs(u.coeff) ** 2
    meas = u.dtau / u.lattice.lam
    pj = [lp_bump(j, k) for j in range(jmax + 1)]
    pq = [lp_bump(q, tau) for q in range(qmax + 1)]
    for j in range(jmax + 1):
        wj = pj[j] ** 2
        if not wj.any():
            continue
        for q in range(qmax + 1):
            wq = pq[q] ** 2
            if not wq.any():
                continue
            block = np.sqrt(np.sum(wq[:, None] * wj[None, :] * abs2) * meas)
            total += 2.0 ** (s * j) * 2.0 ** (b * q) * block
    return float(total)


def norm_report(u: SpacetimeSpectrum, spec: NormSpec) -> dict:
    """JSON-ready record {family, s, b, lambda, value, shells}."""
    shells = []
    if spec.family == "Hs":
        raise LatticeError("Hs norms act on spatial fields; use h_norm")
    if spec.family == "Xsb":
        value = xsb_norm(u, spec.s, spec.b if spec.b is not None else 0.0)
    elif spec.family == "Ys":
        value = ys_norm(u, spec.s)
    elif spec.family == "Ws":
        value = ws_norm(u, spec.s, spec.m_max)
        # the L2 mass of each tail shell, 0.0 past the last populated one
        k = u.lattice.k
        mod = modulation(u.tau[:, None], k)
        _, sums, count = _tail_shells(u, mod, _bracket(k), np.abs(u.coeff) ** 2, 0.0, spec.m_max)
        sums = np.concatenate([sums, np.zeros(count - sums.size)])
        shells = [
            {"M": 2.0**i, "value": math.sqrt(v * u.dtau / u.lattice.lam)}
            for i, v in enumerate(sums)
        ]
    else:  # Besov, the last family NormSpec admits
        value = besov_norm(u, spec.s, spec.b if spec.b is not None else 0.5)
    return {
        "family": spec.family,
        "s": spec.s,
        "b": spec.b,
        "lambda": u.lattice.lam,
        "value": value,
        "shells": shells,
    }
