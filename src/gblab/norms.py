"""Sobolev, dispersive, and Besov-type norms on lattice spectra, plus the
modulation/frequency projections and dyadic shell decompositions they use.
The weights <k>^(2s) and <tau+k^2> and the Littlewood-Paley bump are defined
here once, for every module that weighs a spectrum.

Region conventions (fixed so the pieces form a genuine partition): the "at
most comparable" comparisons in region predicates are implemented as <= with
constant 1, and "much greater" as > 4x.  Any fixed constants give equivalent
norms; determinism across runs is what matters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeError, SpacetimeSpectrum, SpectralField

MUCH_GREATER = 4.0
FAMILIES = ("Hs", "Xsb", "Ys", "Ws", "Besov")  # the norms NormSpec names


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


@dataclass(frozen=True)
class RegionPredicate:
    """Comparison region in (tau, k): a*<tau+k^2> vs thresholds built from
    <k>, <k>^2, dyadic shells, and |k| bands.  Conjunctions compose with &."""

    description: str
    _terms: tuple = field(default_factory=tuple)

    def mask(self, u: SpacetimeSpectrum) -> np.ndarray:
        k = u.lattice.k
        mod = modulation(u.tau[:, None], k)
        out = np.ones(mod.shape, dtype=bool)
        for kind, lo, hi in self._terms:
            if kind == "mod_shell":
                if lo is not None:
                    out &= mod >= lo
                out &= mod < hi
                continue
            if kind == "mod_vs_k":
                ref = np.broadcast_to(_bracket(k)[None, :], mod.shape)
            elif kind == "mod_vs_k2":
                ref = np.broadcast_to((_bracket(k) ** 2)[None, :], mod.shape)
            elif kind == "absk":
                ref = None
            else:
                raise ValueError(kind)
            if kind == "absk":
                v = np.broadcast_to(np.abs(k)[None, :], mod.shape)
                out &= (v >= lo) & (v < hi)
            else:
                r = mod / ref
                if lo is not None:
                    out &= r > lo
                if hi is not None:
                    out &= r <= hi
        return out

    def __and__(self, other: "RegionPredicate") -> "RegionPredicate":
        return RegionPredicate(
            description=f"({self.description}) and ({other.description})",
            _terms=self._terms + other._terms,
        )


def mod_le_k() -> RegionPredicate:
    return RegionPredicate("<tau+k^2> <= <k>", (("mod_vs_k", None, 1.0),))


def mod_gt_k() -> RegionPredicate:
    return RegionPredicate("<tau+k^2> > <k>", (("mod_vs_k", 1.0, None),))


def mod_le_k2() -> RegionPredicate:
    return RegionPredicate("<tau+k^2> <= <k>^2", (("mod_vs_k2", None, 1.0),))


def mod_gt_k2() -> RegionPredicate:
    return RegionPredicate("<tau+k^2> > <k>^2", (("mod_vs_k2", 1.0, None),))


def mod_much_gt_k2() -> RegionPredicate:
    return RegionPredicate(
        f"<tau+k^2> > {MUCH_GREATER:g}<k>^2", (("mod_vs_k2", MUCH_GREATER, None),)
    )


def mod_shell(M: float) -> RegionPredicate:
    """Dyadic shell <tau+k^2> in [M, 2M); M=1 takes everything below 2."""
    lo = None if M <= 1 else float(M)
    return RegionPredicate(
        f"<tau+k^2> ~ {M:g}", (("mod_shell", lo, 2.0 * M),)
    )


def k_band(lo: float, hi: float) -> RegionPredicate:
    return RegionPredicate(f"|k| in [{lo:g},{hi:g})", (("absk", lo, hi),))


def everything() -> RegionPredicate:
    return RegionPredicate("all", ())


def project(u: SpacetimeSpectrum, predicate: RegionPredicate) -> SpacetimeSpectrum:
    """Zero all cells outside the region; idempotent by construction."""
    return u.with_coeff(np.where(predicate.mask(u), u.coeff, 0.0))


def dyadic_shells(u: SpacetimeSpectrum, m_max: float | None = None):
    """[(M, projection onto <tau+k^2> ~ M)] for M = 1, 2, 4, ... up to m_max."""
    if m_max is None:
        m_max = grid_mod_cap(u)
    shells = []
    M = 1.0
    while M <= m_max:
        shells.append((M, project(u, mod_shell(M))))
        M *= 2.0
    return shells


def grid_mod_cap(u: SpacetimeSpectrum) -> float:
    """Smallest dyadic M whose shell family covers every grid cell."""
    top = float(modulation(np.abs(u.tau).max(), u.lattice.k.max()))
    return 2.0 ** math.ceil(math.log2(max(top, 1.0)))


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
    whole grid otherwise.  Equivalent to projecting with the region
    predicates and summing the corresponding component norms.
    """
    if not (-0.5 <= s <= -0.25):
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
    mask_tail = mod > brk**2
    mask_mid = ~mask_low & ~mask_tail
    x_mid = math.sqrt(float(np.sum((a2 * mask_mid) * brk)) * meas)
    # dyadic shells [M, 2M) on the tail, l1 in M up to the cap
    if m_max is None:
        m_max = grid_mod_cap(u)
    tail_w = (a2 * brk)[mask_tail]
    if tail_w.size:
        midx = np.floor(np.log2(mod[mask_tail])).astype(np.int64)
        keep = midx <= math.floor(math.log2(m_max))
        sums = np.bincount(midx[keep], weights=tail_w[keep])
        shell_sum = float(np.sum(np.sqrt(sums * meas)))
    else:
        shell_sum = 0.0
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


def besov_1d(values: np.ndarray, grid: np.ndarray, sigma: float, measure: float) -> float:
    """1-d Besov B^sigma_{2,1} norm of spectral data on a uniform grid."""
    levels = _lp_levels(grid)
    abs2 = np.abs(values) ** 2
    total = 0.0
    for j in range(levels + 1):
        w = lp_bump(j, grid) ** 2
        total += 2.0 ** (sigma * j) * math.sqrt(float(np.sum(w * abs2) * measure))
    return total


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
        shells = [
            {"M": M, "value": xsb_norm(piece, 0.0, 0.0)}
            for M, piece in dyadic_shells(project(u, mod_gt_k2()), spec.m_max)
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
