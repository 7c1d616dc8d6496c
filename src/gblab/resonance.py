"""Exact evaluation of the bilinear counting quantities behind the refined
L4-type estimates: for a fixed dual point the lattice sum of weighted
interval-intersection lengths, split into an exceptional thin set and its
complement, plus sweep drivers that certify sup bounds over sampled points.

Set conventions: the "at most comparable to M" constraints are implemented as
<= 2M, so a bracket constraint <x> <= 2M means |x| <= sqrt(4 M^2 - 1).
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass

import numpy as np

LEMMAS = ("RB1", "RB2", "DRB1", "DRB2")
SIDES = ("complement", "exceptional")

# quadratic-window kernels: RB1 and DRB2; linear-window kernels: RB2 and DRB1
_QUADRATIC = {"RB1", "DRB2"}


class CountingError(ValueError):
    pass


def _is_dyadic(m: float) -> bool:
    return m >= 1 and 2.0 ** round(math.log2(m)) == m


@dataclass(frozen=True)
class CountingCase:
    """One counting estimate: lemma id, side, dyadic sizes, lattice parameter.

    For RB1/RB2 the point handed to cell_measure is the output pair (tau, k);
    for the dual estimates DRB1/DRB2 it is the input pair playing the sup
    role, and M1 doubles as their single output-window size 'M'.
    """

    lemma: str
    side: str
    M1: float
    M2: float
    lam: float
    deriv_weight: bool = True

    def __post_init__(self):
        if self.lemma not in LEMMAS:
            raise CountingError(f"unknown lemma {self.lemma}")
        if self.side not in SIDES:
            raise CountingError(f"unknown side {self.side}")
        if not (_is_dyadic(self.M1) and _is_dyadic(self.M2)):
            raise CountingError("M1, M2 must be dyadic powers of two >= 1")
        if self.lam < 1:
            raise CountingError("lam must be >= 1")

    @property
    def bound(self) -> float:
        """The estimate's right-hand side: M1*M2 or lam^-1 min(M1, M2)."""
        if self.side == "complement":
            return self.M1 * self.M2
        return min(self.M1, self.M2) / self.lam


def _radius(m: float) -> float:
    """Half-width of the modulation window 'at most comparable to m'.

    Cutting |tau + k^2| at exactly 2m (rather than the bracket at 2m, whose
    half-width sqrt(4m^2-1) sags at m=1) keeps the recorded constants directly
    comparable across the dyadic grid."""
    return 2.0 * m


_K1_CAP = 10**8


def _kernel_quadratic(case, tau, k, k1):
    """RB1/DRB2 geometry for arrays of k1: interval offsets, gates, weights.

    Returns (offset D, gate mask for the exceptional set, weight array).
    D is the separation of the two tau1-interval centers; the intersection is
    nonempty iff |D| <= r1 + r2.
    """
    z = 2.0 * k1 - k
    y = -(tau + 0.5 * k * k)  # sets become nonempty for y >= 0
    D = 0.5 * z * z - y
    s = np.sqrt(np.complex128(2.0 * y))
    gate = np.minimum(np.abs(z - s), np.abs(z + s)) <= 1.0 / case.lam
    weight = np.sqrt(1.0 + z * z)
    return D, gate, weight


def _kernel_linear(case, tau, k, k1):
    """RB2/DRB1 geometry: D is linear in k1, the gate is the thin diagonal set."""
    D = -(tau - k * k + 2.0 * k * k1)
    gate = np.abs(tau - k * k + 2.0 * k * k1) <= abs(k) / case.lam
    weight = np.full_like(np.asarray(k1, dtype=float), abs(k))
    return D, gate, weight


def _admissible_k1(case: CountingCase, tau: float, k: float) -> np.ndarray:
    """Lattice k1 whose tau1 intervals can overlap, solved from the membership
    conditions rather than scanned."""
    lam = case.lam
    R = _radius(case.M1) + _radius(case.M2)
    if case.lemma in _QUADRATIC:
        y = -(tau + 0.5 * k * k)
        hi = y + R
        if hi < 0:
            return np.array([], dtype=np.int64)
        b = math.sqrt(2.0 * hi)
        lo = y - R
        ranges = []
        if lo <= 0:
            ranges.append((-b, b))
        else:
            a = math.sqrt(2.0 * lo)
            ranges.append((-b, -a))
            ranges.append((a, b))
        js = []
        for z_lo, z_hi in ranges:
            # z = 2 k1 - k, k1 = j/lam
            j_lo = math.ceil((z_lo + k) / 2.0 * lam - 1e-12)
            j_hi = math.floor((z_hi + k) / 2.0 * lam + 1e-12)
            if j_hi - j_lo > _K1_CAP:
                raise CountingError("admissible k1 range exceeds the safety cap")
            if j_hi >= j_lo:
                js.append(np.arange(j_lo, j_hi + 1))
        if not js:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(js))
    # linear kernel: |tau - k^2 + 2 k k1| <= R
    if k == 0.0:
        raise CountingError("linear-window cases need a nonzero sup frequency")
    c = (k * k - tau) / (2.0 * k)
    half = R / (2.0 * abs(k))
    j_lo = math.ceil((c - half) * lam - 1e-12)
    j_hi = math.floor((c + half) * lam + 1e-12)
    if j_hi - j_lo > _K1_CAP:
        raise CountingError("admissible k1 range exceeds the safety cap")
    return np.arange(j_lo, j_hi + 1)


def cell_measure(case: CountingCase, tau: float, k: float) -> float:
    """(1/lam) sum over lattice k1 of [weight] * |tau1-interval intersection|,
    restricted to the exceptional set or its complement.

    Interval lengths are closed-form; the k1 sum is enumerated from the
    quadratic membership conditions.
    """
    if case.lemma not in _QUADRATIC and k == 0.0:
        # the weighted estimate is trivially zero; the unweighted thin-set sum
        # degenerates, so the sweep never samples it
        return 0.0
    j = _admissible_k1(case, tau, k)
    if j.size == 0:
        return 0.0
    k1 = j / case.lam
    kernel = _kernel_quadratic if case.lemma in _QUADRATIC else _kernel_linear
    D, gate, weight = kernel(case, tau, k, k1)
    r1, r2 = _radius(case.M1), _radius(case.M2)
    length = np.clip(
        np.minimum(np.minimum(2.0 * r1, 2.0 * r2), r1 + r2 - np.abs(D)), 0.0, None
    )
    if case.side == "exceptional":
        mask = gate
        w = np.ones_like(length)
    else:
        mask = ~gate
        w = weight if case.deriv_weight else np.ones_like(length)
    return float(np.sum(w * length * mask) / case.lam)


def _critical_taus(case: CountingCase, k: float) -> np.ndarray:
    """tau values where the sets change topology: interval tangencies and
    exceptional-gate alignments at lattice points."""
    lam = case.lam
    r1, r2 = _radius(case.M1), _radius(case.M2)
    R = r1 + r2
    outs = [np.array([0.0])]
    if case.lemma in _QUADRATIC:
        zmax = math.sqrt(2.0 * (8.0 * R)) + 4.0 / lam
        j = np.arange(0, int(zmax * lam / 2.0) + 2)
        z = (2 * j - round(k * lam) % 2) / lam
        base = -0.5 * k * k - 0.5 * z * z
        for shift in (0.0, R, -R, r1 - r2, r2 - r1, 1.0 / lam, -1.0 / lam):
            outs.append(base + shift)
        for eps in (1.0 / lam, 0.5 / lam):
            outs.append(-0.5 * k * k - 0.5 * (z + eps) ** 2)
    else:
        j = np.arange(-int(4 * R * lam), int(4 * R * lam) + 1, max(1, int(lam)))
        k1 = j / lam
        base = k * k - 2.0 * k * k1
        for shift in (0.0, R, -R, abs(k) / lam, -abs(k) / lam):
            outs.append(base + shift)
    return np.unique(np.concatenate(outs))


# random taus reach this many cell radii below the lowest critical tau
_DEEP_FACTOR = 8.0


@dataclass(frozen=True)
class SweepSampler:
    """Sampling plan for the sup certification: topology-critical tau values
    plus uniform random fill, per sup frequency."""

    n_random: int = 100_000
    seed: int = 7

    def taus(self, case: CountingCase, k: float, rng) -> np.ndarray:
        r = _radius(case.M1) + _radius(case.M2)
        crit = _critical_taus(case, k)
        lo = float(crit.min()) - _DEEP_FACTOR * r
        hi = float(crit.max()) + 2.0 * r
        rand = rng.uniform(lo, hi, size=self.n_random)
        return np.concatenate([crit, rand])


def default_k_values(case: CountingCase) -> tuple:
    """Representative sup frequencies: the two lattice parity classes for the
    quadratic kernels (the remaining k-dependence is a tau shift the sweep
    already covers), a small/medium/large spread for the linear ones."""
    lam = case.lam
    if case.lemma in _QUADRATIC:
        return (0.0, 1.0 / lam)
    vals = [1.0 / lam, 1.0, 8.0]
    return tuple(dict.fromkeys(vals))


def _batched_values(case: CountingCase, taus: np.ndarray, k: float) -> np.ndarray:
    """cell_measure over an array of taus: closed-form window sums for the
    linear kernels, a loop over admissible k1 windows for the quadratic ones."""
    taus = np.asarray(taus, dtype=np.float64)
    if case.lemma not in _QUADRATIC:
        if k == 0.0:
            return np.zeros(taus.size)
        return _linear_values(case, taus, k)
    out = np.zeros(taus.size)
    order = np.argsort(taus)
    out[order] = _quadratic_values(case, taus[order], k)
    return out


def _quadratic_values(case: CountingCase, ts: np.ndarray, k: float) -> np.ndarray:
    """RB1/DRB2 values at ascending taus, summed window by window over k1."""
    lam = case.lam
    r1, r2 = _radius(case.M1), _radius(case.M2)
    R = r1 + r2
    cap = np.minimum(2.0 * r1, 2.0 * r2)
    # window in y = -(tau + k^2/2): [z^2/2 - R, z^2/2 + R] per z
    y = -(ts + 0.5 * k * k)
    ymax = float(y.max()) if y.size else 0.0
    if ymax + R < 0:
        return np.zeros(ts.size)
    zmax = math.sqrt(max(2.0 * (ymax + R), 0.0))
    j_lo = math.ceil((-zmax + k) / 2.0 * lam - 1e-12)
    j_hi = math.floor((zmax + k) / 2.0 * lam + 1e-12)
    if j_hi - j_lo > _K1_CAP:
        raise CountingError("sweep window exceeds the safety cap")
    ys = y[::-1]  # ascending in y
    s_all = np.sqrt(np.complex128(2.0 * ys))
    zs = (2.0 * np.arange(j_lo, j_hi + 1)) / lam - k
    cs = 0.5 * zs * zs
    lo_all = np.searchsorted(ys, cs - R, side="left")
    hi_all = np.searchsorted(ys, cs + R, side="right")
    acc = np.zeros(ys.size)
    for i in np.flatnonzero(hi_all > lo_all):
        z, lo_i, hi_i = zs[i], lo_all[i], hi_all[i]
        yy = ys[lo_i:hi_i]
        length = np.minimum(cap, R - np.abs(cs[i] - yy))
        s = s_all[lo_i:hi_i]
        gate = np.minimum(np.abs(z - s), np.abs(z + s)) <= 1.0 / lam
        if case.side == "exceptional":
            contrib = length * gate
        else:
            w = math.sqrt(1.0 + z * z) if case.deriv_weight else 1.0
            contrib = w * length * (~gate)
        acc[lo_i:hi_i] += contrib
    return acc[::-1] / lam


def _linear_values(case: CountingCase, taus: np.ndarray, k: float) -> np.ndarray:
    """RB2/DRB1 values in closed form, O(taus) with no loop over k1.

    With x = tau - k^2 and m = sign(k) j, the window offsets
    d_m = x + 2|k| m/lam form an arithmetic progression and the weight is
    constant, so the sum of the trapezoid min(cap, R - |d|) over |d| <= R is a
    flat count plus two arithmetic series.  The thin gate |d| <= |k|/lam (half
    the step) holds for at most two m next to round(-x lam / 2|k|); those
    terms are evaluated exactly as the window loop evaluates them.
    """
    lam = case.lam
    r1, r2 = _radius(case.M1), _radius(case.M2)
    R = r1 + r2
    cap = min(2.0 * r1, 2.0 * r2)
    flat = R - cap  # |d| <= flat is the plateau of the trapezoid
    x = taus - k * k
    xmin, xmax = float(x.min()), float(x.max())
    # the lattice j any tau's window reaches: -x - R <= 2 k j/lam <= -x + R
    b1 = (-(xmax) - R) / (2.0 * k)
    b2 = (-(xmin) + R) / (2.0 * k)
    j_lo = math.ceil(min(b1, b2) * lam - 1e-12)
    j_hi = math.floor(max(b1, b2) * lam + 1e-12)
    if j_hi - j_lo > _K1_CAP:
        raise CountingError("sweep window exceeds the safety cap")
    sgn = 1.0 if k > 0 else -1.0

    def offset(m):
        # d at j = sgn * m, rounded exactly as cell_measure rounds it
        return x + 2.0 * k * ((sgn * m) / lam)

    def series(m_a, m_b, sign):
        # sum of R + sign * d_m over m_a <= m <= m_b, zero where the run is empty
        n = np.maximum(m_b - m_a + 1.0, 0.0)
        ends = (R + sign * offset(m_a)) + (R + sign * offset(m_b))
        return np.where(n > 0, 0.5 * n * ends, 0.0)

    scale = lam / (2.0 * abs(k))  # lattice steps per unit of d
    top_hi = np.floor((R - x) * scale)
    flat_hi = np.floor((flat - x) * scale)
    flat_lo = np.ceil((-flat - x) * scale)
    top_lo = np.ceil((-R - x) * scale)
    total = (
        cap * np.maximum(flat_hi - flat_lo + 1.0, 0.0)
        + series(flat_hi + 1.0, top_hi, -1.0)
        + series(top_lo, flat_lo - 1.0, 1.0)
    )
    gate_half = abs(k) / lam
    gated = np.zeros(x.size)
    m0 = np.rint(-x * scale)
    for dm in (-1.0, 0.0, 1.0):
        j = sgn * (m0 + dm)
        k1 = j / lam
        d = x + 2.0 * k * k1
        c = -2.0 * k * k1
        # the gate, then the window |d| <= R as x in [c - R, c + R] (the
        # gate reaches past R when |k|/lam > R)
        hit = (
            (np.abs(d) <= gate_half)
            & (x >= c - R)
            & (x <= c + R)
            & (j >= j_lo)
            & (j <= j_hi)
        )
        gated += np.where(hit, np.minimum(cap, R - np.abs(d)), 0.0)
    if case.side == "exceptional":
        return gated / lam
    w = abs(k) if case.deriv_weight else 1.0
    return w * (total - gated) / lam


# One _batched_values call holds 0.3-0.6 MiB of temporaries at 5000 taus
# (2.2 MiB at 20000).  glibc gives a free heap top above its trim threshold
# back to the kernel, and that threshold stays at 128 KiB until the process
# first frees a block it had to mmap, so in a process that had not done so
# every call faulted its temporaries back in (7-9 thousand minor faults per
# counting suite, slower and load-dependent).  Freeing one 4 MiB block, which
# is mmapped, raises the trim threshold to 8 MiB for the process; other
# allocators just allocate and free it.  The block is never written.
np.empty(4 << 20, dtype=np.uint8)


@dataclass(frozen=True)
class SweepResult:
    case: CountingCase
    sup_value: float
    ratio: float
    witness_tau: float
    witness_k: float
    n_samples: int


def sup_sweep(case: CountingCase, sampler: SweepSampler) -> SweepResult:
    """Certified-sample sup of cell_measure and its ratio to the lemma bound."""
    tag = f"{case.lemma}|{case.side}|{case.M1}|{case.M2}|{case.lam}".encode()
    rng = np.random.default_rng(sampler.seed + zlib.crc32(tag))
    best, w_tau, w_k, n = -1.0, 0.0, 0.0, 0
    for k in default_k_values(case):
        if case.lemma not in _QUADRATIC and k == 0.0:
            continue
        taus = sampler.taus(case, k, rng)
        vals = _batched_values(case, taus, k)
        n += taus.size
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, w_tau, w_k = float(vals[i]), float(taus[i]), float(k)
    return SweepResult(
        case=case,
        sup_value=best,
        ratio=best / case.bound,
        witness_tau=w_tau,
        witness_k=w_k,
        n_samples=n,
    )


def dual_case(case: CountingCase) -> CountingCase:
    """The direct lemma whose sup quantity the dual lemma must reproduce."""
    pair = {"DRB1": "RB2", "DRB2": "RB1", "RB2": "DRB1", "RB1": "DRB2"}
    return CountingCase(
        lemma=pair[case.lemma],
        side=case.side,
        M1=case.M1,
        M2=case.M2,
        lam=case.lam,
        deriv_weight=case.deriv_weight,
    )


def write_sweep_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["lemma", "side", "lambda", "M1", "M2", "sup_value", "bound", "ratio",
             "witness_tau", "witness_k"]
        )
        for r in results:
            c = r.case
            w.writerow(
                [c.lemma, c.side, repr(c.lam), repr(c.M1), repr(c.M2),
                 repr(r.sup_value), repr(c.bound), repr(r.ratio),
                 repr(r.witness_tau), repr(r.witness_k)]
            )
