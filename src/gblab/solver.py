"""Pseudospectral machinery for the rescaled quadratic Schrodinger problem:
free propagator, dealiased right-hand side, Duhamel quadrature in the interaction
picture, Picard fixed-point iteration, a fifth-order Dormand-Prince reference
integrator, and the dual-path second-iterate operator used by the inflation
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    SQRT_TWO_PI,
    TWO_PI,
    FrequencyLattice,
    LatticeError,
    SpectralField,
    Trajectory,
    pad_size,
)
from .norms import sobolev_weight
from .reduction import omega_multiplier

# time rows per window of the Picard map and per chunk of _a2_quadrature, whose
# scratch then spans a few windows: a Picard solve of 4097 x 513 peaks at 1.06
# full-size arrays (one held), the quadrature at K = 256 traces 20 MB
_ROW_CHUNK = 64
_PLAN_CAP = 16  # product plans kept, one per (half_modes, lattice lam, lam)
_DIVERGENCE_PATIENCE = 3  # consecutive non-contracting Picard steps tolerated
_LOCAL_ERROR_CAP = 1e-8  # reference_solve's embedded-error budget, relative to max |v|
# Dormand-Prince 5(4) tableau (Dormand & Prince 1980): nodes, stage weights
# (row 6 is the fifth-order solution, so the last stage is the next step's
# first) and the fifth- minus fourth-order weights of the error estimate
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_A2_RTOL = 1e-8  # relative l2 agreement required of a2_iterate's two paths


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration failed to contract; carries the ratio history."""

    def __init__(self, ratios):
        super().__init__(f"iteration diverged, contraction ratios {ratios}")
        self.ratios = list(ratios)


class InternalConsistencyError(RuntimeError):
    """Two independent evaluation paths disagreed beyond tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    s: float
    T: float = 1.0
    dt: float = 1e-2
    max_picard: int = 40
    contraction_tol: float = 1e-10
    include_linear: bool = True
    include_quadratic: bool = True

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("T", self.T)):
            if not value > 0:
                raise LatticeError(f"{name} must be positive")
            if not math.isfinite(value):
                raise LatticeError(f"{name} must be finite")
        n = self.T / self.dt
        if abs(n - round(n)) > 1e-9:
            raise LatticeError("dt must divide the solve interval")


def time_grid(cfg: SolverConfig) -> np.ndarray:
    n = int(round(cfg.T / cfg.dt))
    return np.arange(n + 1) * cfg.dt


def free_evolve(u0: SpectralField, t: float) -> SpectralField:
    """Schrodinger group: mode k picks up the phase e^{-i k^2 t}."""
    k = u0.lattice.k
    return SpectralField(u0.lattice, u0.coeff * np.exp(-1j * k * k * t))


_plans: dict = {}


def _product_plan(lattice: FrequencyLattice, lam: float) -> tuple:
    """(pad n, multiplier on j >= 0) of the quadratic term on this lattice.

    With lam_L the lattice's own lam, the n samples of u + conj u are
    n / (sqrt(2 pi) lam_L) irfft(w) and the forward transform scales by
    sqrt(2 pi) lam_L / n, so the square's modes are
    n / (sqrt(2 pi) lam_L) rfft(irfft(w)^2); that scale and the -1/4 go into
    omega^2's multiplier.  Built on first use; the _PLAN_CAP latest are kept.
    """
    key = (lattice.half_modes, lattice.lam, lam)
    plan = _plans.get(key)
    if plan is None:
        J = lattice.half_modes
        n = pad_size(J)
        mult = omega_multiplier(lattice, lam)[J:] * (-0.25 * n / (SQRT_TWO_PI * lattice.lam))
        mult.setflags(write=False)
        if len(_plans) >= _PLAN_CAP:
            del _plans[next(iter(_plans))]
        plan = _plans[key] = (n, mult)
    return plan


def nonlinearity_rows(
    rows: np.ndarray,
    lattice: FrequencyLattice,
    lam: float,
    include_linear: bool = True,
    include_quadratic: bool = True,
) -> np.ndarray:
    """F(u) = (1/2) lam^-2 (u - conj u) - (1/4) omega^2 (u + conj u)^2 over
    stacked spectra (rows x modes), or over one spectrum (a 1-d row, which
    gives a 1-d row).

    Only the j >= 0 half is computed.  The linear term lin is
    anti-Hermitian, lin(-k) = -conj lin(k), and the quadratic term q is
    Hermitian, since u + conj u is real; so F(-k) = conj(q(k) - lin(k)).
    The square takes real transforms of the j >= 0 half of the spectrum of
    u + conj u.  Temporaries span the rows given: the Picard map passes one
    window of at most _ROW_CHUNK + 1 rows, the reference integrator one row.
    """
    out = np.empty(rows.shape, dtype=np.complex128)
    J = lattice.half_modes
    pos, neg = out[..., J:], out[..., :J]
    a = rows[..., J:]
    b = np.conj(rows[..., J::-1])  # spectrum of conj u, j >= 0
    if include_linear:
        np.subtract(a, b, out=pos)
        pos *= 1.0 / (2.0 * lam * lam)
    else:
        pos.fill(0.0)
    if include_quadratic:
        n, mult = _product_plan(lattice, lam)
        b += a  # spectrum of u + conj u, j >= 0
        phys = np.fft.irfft(b, n, axis=-1)
        phys *= phys
        sq = np.fft.rfft(phys, axis=-1)[..., : J + 1]
        sq *= mult
        np.subtract(sq[..., J:0:-1], pos[..., J:0:-1], out=neg)
        pos += sq
    else:
        np.negative(pos[..., J:0:-1], out=neg)
    np.conjugate(neg, out=neg)
    return out


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights on an odd number (>= 3) of uniform points."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd count >= 3, got {n_points}")
    w = np.zeros(n_points)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def _prefix_integrals(G: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals I[m] = int_{t_0}^{t_m} G dt of rows G sampled at
    t_0, t_0 + h, ..., fourth-order consistent; I[0] = 0.

    Even prefixes use composite Simpson pairs; odd prefixes add the 3-point
    Newton-Cotes correction for the trailing interval.  Besides the returned
    array, the only scratch is one array of half G's rows.
    """
    n = G.shape[0]
    I = np.empty_like(G)
    I[0] = 0.0
    if n == 2:
        I[1] = 0.5 * h * (G[0] + G[1])
        return I
    p = 2 * ((n - 1) // 2)
    buf = 4.0 * G[1:p:2]
    buf += G[: p - 1 : 2]
    buf += G[2::2]
    buf *= h / 3.0
    np.cumsum(buf, axis=0, out=I[2::2])
    # odd m: the interval (m-1, m) through the quadratic on (m-1, m, m+1) ...
    np.multiply(G[1:p:2], 8.0, out=buf)
    buf -= G[2::2]
    np.multiply(G[: p - 1 : 2], 5.0, out=I[1:p:2])
    buf += I[1:p:2]
    buf *= h / 12.0
    np.add(I[: p - 1 : 2], buf, out=I[1:p:2])
    if n % 2 == 0:
        # ... or, on the last row, through the quadratic on (m-2, m-1, m)
        I[-1] = I[-2] + (h / 12.0) * (-G[-3] + 8.0 * G[-2] + 5.0 * G[-1])
    return I


def _phase_block(lattice: FrequencyLattice, dt: float) -> np.ndarray:
    """e^{+i k^2 r dt} for r = 0.._ROW_CHUNK: the interaction-picture phases
    of one window relative to its first time.  The steps are uniform, so a
    window starting at t_lo has the phases block * e^{+i k^2 t_lo}.  k^2 is
    even in j, so the phases of j >= 0 give the whole block."""
    J = lattice.half_modes
    half = np.exp(1j * np.outer(np.arange(_ROW_CHUNK + 1) * dt, lattice.k[J:] ** 2))
    return np.concatenate([half[:, J:0:-1], half], axis=1)


def _windows(n: int):
    """(lo, hi) windows of rows lo..hi over a grid of n >= 2 rows, each
    starting where the one before ended, with at most _ROW_CHUNK rows past lo.

    lo is even, so a window's Simpson pairs are the whole grid's.  A last
    window of two rows would fall to the trapezoid where the whole grid takes
    the three-point end correction, so the window before it ends two rows
    early and the last one holds four.
    """
    lo = 0
    while lo < n - 1:
        hi = min(lo + _ROW_CHUNK, n - 1)
        if hi == n - 2:
            hi -= 2
        yield lo, hi
        lo = hi


def _picard_map(
    rows: np.ndarray,
    u0: SpectralField,
    block: np.ndarray,
    cfg: SolverConfig,
    out: tuple = (),
) -> float:
    """Sup-in-time H^s norm of u - Phi(u) for the trajectory u = rows, where
    Phi(u) = S(t) u0 - i int_0^t S(t - t') F(u(t')) dt' on the grid of cfg,
    whose first row is t = 0.  Phi is written into every array of out, which
    may hold rows itself.

    Phi is computed one window (_windows) at a time.  A window takes F only
    on the rows past its first: the first row's F, in the interaction
    picture, and its prefix integral come from the window before, so no
    row's F is computed twice and each row of rows is read before out
    overwrites it.  The phases are block (_phase_block) times one row at the
    window's first time.
    """
    lattice = u0.lattice
    k2 = lattice.k ** 2
    h = cfg.dt
    sups = []
    G_lo = I_lo = None
    for lo, hi in _windows(rows.shape[0]):
        first = 0 if G_lo is None else 1  # the window's first row not carried
        phases = block[: hi - lo + 1] * np.exp(1j * (lo * h) * k2)
        G = np.empty(phases.shape, dtype=np.complex128)
        G[first:] = nonlinearity_rows(
            rows[lo + first : hi + 1], lattice, cfg.lam,
            include_linear=cfg.include_linear, include_quadratic=cfg.include_quadratic,
        )
        G[first:] *= phases[first:]  # interaction picture
        if first:
            G[0] = G_lo
        G_lo = G[-1].copy()
        phi = _prefix_integrals(G, h)
        if first:
            phi += I_lo
        I_lo = phi[-1].copy()
        phi *= -1j
        phi += u0.coeff[None, :]
        # back from the interaction picture: x conj(p) = conj(conj(x) p)
        np.conjugate(phi, out=phi)
        phi *= phases
        np.conjugate(phi, out=phi)
        new = slice(lo + first, hi + 1)
        sups.append(_sup_hs(rows[new] - phi[first:], lattice, cfg))
        for a in out:
            a[new] = phi[first:]
    return float(np.max(sups))  # np.max, unlike max, keeps a NaN


def _sup_hs(rows: np.ndarray, lattice: FrequencyLattice, cfg: SolverConfig) -> float:
    """Largest H^s norm over the rows of a trajectory: h_norm of each row,
    summed without a |u|^2 temporary."""
    w = sobolev_weight(lattice.k, cfg.s)
    sq = np.einsum("ij,ij,j->i", rows.real, rows.real, w)
    sq += np.einsum("ij,ij,j->i", rows.imag, rows.imag, w)
    return float(np.sqrt(sq / cfg.lam).max())


def integral_residual(traj: Trajectory, u0: SpectralField, cfg: SolverConfig) -> float:
    """Sup-in-time H^s norm of u - Phi(u), with the Picard iteration's own Phi."""
    return _picard_map(traj.coeff, u0, _phase_block(traj.lattice, cfg.dt), cfg)


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    ratios: list
    diff_history: list
    residual: float


@dataclass(frozen=True)
class PicardResult:
    trajectory: Trajectory
    report: PicardReport
    # always empty: benchmark/layers.py::_picard_hook reads it for
    # solver.trajectory_bytes; it goes when that hook stops (ROADMAP Direction 1)
    iterates: tuple = ()


def picard_solve(u0: SpectralField, cfg: SolverConfig) -> PicardResult:
    """Fixed-point iteration u -> free(u0) - i Duhamel(F(u)) on the grid of cfg.

    Raises PicardDivergenceError after _DIVERGENCE_PATIENCE consecutive
    non-contracting steps; large data is expected to do this.

    Memory: the loop holds one rows x modes complex array, the current
    iterate, which each pass of the Picard map overwrites window by window,
    and the scratch of a few windows of _ROW_CHUNK rows; the final residual
    pass holds no more.  The solve of 4097 rows x 513 modes in
    tests/test_solver.py peaks at 1.06 of these arrays.
    """
    if u0.lattice.lam < cfg.lam:
        raise LatticeError("data lattice must be at least as fine as cfg.lam")
    t = time_grid(cfg)
    lattice = u0.lattice
    block = _phase_block(lattice, cfg.dt)  # held across iterations
    k2 = lattice.k ** 2
    current = np.empty((t.size, lattice.modes), dtype=np.complex128)
    for lo in range(0, t.size, _ROW_CHUNK):  # the free evolution e^{-i k^2 t} u0
        rows = current[lo : lo + _ROW_CHUNK]
        np.conjugate(block[: rows.shape[0]] * np.exp(1j * (lo * cfg.dt) * k2), out=rows)
        rows *= u0.coeff[None, :]
    scale = max(_sup_hs(current, lattice, cfg), 1e-300)
    ratios: list = []
    diffs: list = []
    bad_streak = 0
    converged = False
    for _ in range(cfg.max_picard):
        d = _picard_map(current, u0, block, cfg, (current,))
        diffs.append(d)
        if not np.isfinite(d):
            raise PicardDivergenceError(ratios + [float("inf")])
        if len(diffs) >= 2 and diffs[-2] > 0:
            r = diffs[-1] / diffs[-2]
            ratios.append(r)
            bad_streak = bad_streak + 1 if r >= 1.0 else 0
            if bad_streak >= _DIVERGENCE_PATIENCE:
                raise PicardDivergenceError(ratios)
        if d <= cfg.contraction_tol * scale:
            converged = True
            break
    traj = Trajectory(lattice, t, current)
    residual = integral_residual(traj, u0, cfg)
    report = PicardReport(
        iterations=len(diffs),
        converged=converged,
        ratios=ratios,
        diff_history=diffs,
        residual=residual,
    )
    return PicardResult(trajectory=traj, report=report)


class StepSizeRejection(RuntimeError):
    """Reference integrator's local error estimate exceeded its budget."""


def reference_solve(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Dormand-Prince 5(4) in the interaction picture (an exponential
    integrator: the stiff phases are handled exactly, the remainder is smooth),
    stepping forward from u0 at t = 0 across the grid of cfg.

    Every step is checked by the embedded pair's error estimate; one above
    _LOCAL_ERROR_CAP raises StepSizeRejection rather than returning polluted
    output.  A step's last stage is the next step's first, so a step costs
    six right-hand sides and one exponential: the grid is uniform, so the
    stage at t_i + c_s dt has the phase E_i S[s], with E_i = e^{-i k^2 t_i}
    taken once per step and S[s] = e^{-i k^2 c_s dt} once per solve.
    """
    if u0.lattice.lam < cfg.lam:
        raise LatticeError("data lattice must be at least as fine as cfg.lam")
    t = time_grid(cfg)
    lattice = u0.lattice
    k2 = lattice.k ** 2
    a_dt = _DP_A * cfg.dt
    e_dt = _DP_E * cfg.dt
    S = np.exp(-1j * np.outer(_DP_C * cfg.dt, k2))

    def rhs(s, v):
        # v is the interaction-picture variable e^{-it dxx} u; stages[s]
        # holds the stage's phase e, then -i conj(e) F(v e)
        e = np.multiply(E, S[s], out=stages[s])
        F = nonlinearity_rows(
            v * e, lattice, cfg.lam,
            include_linear=cfg.include_linear, include_quadratic=cfg.include_quadratic,
        )
        np.conjugate(e, out=e)
        e *= F
        e *= -1j

    coeff = np.zeros((t.size, lattice.modes), dtype=np.complex128)
    coeff[0] = u0.coeff
    stages = np.empty((7, lattice.modes), dtype=np.complex128)
    v = u0.coeff.astype(np.complex128)
    E = np.ones(lattice.modes, dtype=np.complex128)  # t_0 = 0
    rhs(0, v)
    for i in range(t.size - 1):
        for s in range(1, 7):
            w = v + a_dt[s, :s] @ stages[:s]
            rhs(s, w)
        err = float(np.abs(e_dt @ stages).max())
        if err > _LOCAL_ERROR_CAP * max(1.0, float(np.abs(v).max())):
            raise StepSizeRejection(
                f"local error {err:.3e} at t={t[i]:.6g}; reduce dt"
            )
        v = w  # the fifth-order solution, where the last stage was taken
        stages[0] = stages[6]
        E = np.exp(-1j * k2 * t[i + 1])
        coeff[i + 1] = v * E
    return Trajectory(lattice, t, coeff)


def phase_integral(theta: np.ndarray, t0: float) -> np.ndarray:
    """integral_0^{t0} e^{i theta t} dt = t0 e^{i theta t0/2} sinc(theta t0 / 2pi)."""
    x = np.asarray(theta, dtype=np.float64) * t0
    return t0 * np.exp(0.5j * x) * np.sinc(x / TWO_PI)


def _a2_closed_form(phi: SpectralField, t0: float, lam: float) -> np.ndarray:
    """Closed form of the second iterate of u*conj(u) forcing, summed over the
    pairs (a, b) of populated modes: c_a conj(c_b) feeds the output k = k_a - k_b
    with the phase integral of 2k(k - k_a); outputs beyond |k| <= K drop out.

    Temporaries scale with the number of populated modes squared: the
    inflation profiles populate 2 or 4 modes, a dense field of n modes n^2.
    """
    lattice = phi.lattice
    k = lattice.k
    c = phi.coeff
    nz = np.flatnonzero(c)
    a, b = (x.ravel() for x in np.meshgrid(nz, nz, indexing="ij"))
    out_idx = a - b + lattice.half_modes
    keep = (out_idx >= 0) & (out_idx < lattice.modes)
    a, b, out_idx = a[keep], b[keep], out_idx[keep]
    theta = 2.0 * k[out_idx] * (k[out_idx] - k[a])
    out = np.zeros(lattice.modes, dtype=np.complex128)
    np.add.at(out, out_idx, c[a] * np.conj(c[b]) * phase_integral(theta, t0))
    m = omega_multiplier(lattice, lam)
    out *= 0.5j * m * np.exp(-1j * k * k * t0) / (lattice.lam * SQRT_TWO_PI)
    return out


def _support_theta_max(phi: SpectralField) -> float:
    """Largest |2k(k-k1)| over interactions the input can actually populate."""
    lattice = phi.lattice
    occ = np.abs(phi.coeff) > 1e-14 * max(float(np.abs(phi.coeff).max()), 1e-300)
    if not occ.any():
        return 1.0
    j_occ = lattice.j[occ]
    kmax_out = (j_occ.max() - j_occ.min()) / lattice.lam  # u*conj(u) support width
    kmax_out = min(abs(kmax_out), lattice.K + 1.0 / lattice.lam)
    k1max = np.abs(j_occ).max() / lattice.lam
    return max(2.0 * kmax_out * (kmax_out + k1max), 1.0)


def _a2_quadrature(
    phi: SpectralField, t0: float, lam: float, chunk: int = _ROW_CHUNK
) -> np.ndarray:
    """Independent path: free trajectory, dealiased physical products, Simpson."""
    lattice = phi.lattice
    J = lattice.half_modes
    theta_max = _support_theta_max(phi)
    # Simpson's relative error per phase component is (theta dt)^4 / 180;
    # theta dt <= 0.03 keeps the worst component near 4.5e-9, under the 1e-8
    # cross-check tolerance.
    n_t = int(math.ceil(t0 * theta_max / 0.03))
    n_t = max(n_t, 64)
    if n_t % 2 == 1:
        n_t += 1
    ts = np.linspace(0.0, t0, n_t + 1)
    h = ts[1] - ts[0]
    w = simpson_weights(ts.size, h)
    k = lattice.k
    k2 = k * k
    m = omega_multiplier(lattice, lam)
    n_pad = pad_size(J)
    c = phi.coeff
    # the steps are uniform, so a chunk's phases are one block of in-chunk
    # phases times the phase of its first time; k^2 is even in j, so the
    # phases of j >= 0 give the whole row
    block = np.exp(-1j * np.outer(ts[: min(chunk, ts.size)] - ts[0], k2[J:]))
    acc = np.zeros(lattice.modes, dtype=np.complex128)
    for lo in range(0, ts.size, chunk):
        sl = slice(lo, min(lo + chunk, ts.size))
        half = block[: sl.stop - lo] * np.exp(-1j * ts[lo] * k2[J:])
        spec = np.zeros((half.shape[0], n_pad), dtype=np.complex128)
        spec[:, : J + 1] = half * c[J:]
        spec[:, n_pad - J:] = half[:, J:0:-1] * c[:J]
        phys = np.fft.ifft(spec, axis=-1)
        # the Simpson weights are real, so they go in before the transform
        dens = (phys * np.conj(phys)).real * w[sl, None]
        X = np.fft.rfft(dens, axis=-1)[:, : J + 1]
        # |u|^2 is real, so its mode -j is the conjugate of its mode j
        acc[J:] += (np.conj(half) * X).sum(axis=0)
        acc[:J] += np.conj((half[:, J:0:-1] * X[:, J:0:-1]).sum(axis=0))
    # ifft (scaled to the field's normalisation), squared, then fft scaled back
    acc *= n_pad / (SQRT_TWO_PI * lattice.lam)
    return 0.5j * m * np.exp(-1j * k2 * t0) * acc


def a2_iterate(phi: SpectralField, t0: float, lam: float) -> SpectralField:
    """Second Picard iterate of the u*conj(u) channel at time t0.

    Evaluated through two independent routes (closed-form phase sums and
    trajectory quadrature) which must agree to _A2_RTOL in relative l2.
    """
    if phi.lattice.lam < lam:
        raise LatticeError("the field's lattice must be at least lam-fine")
    if t0 <= 0:
        raise LatticeError("t0 must be positive")
    closed = _a2_closed_form(phi, t0, lam)
    quad = _a2_quadrature(phi, t0, lam)
    scale = float(np.linalg.norm(closed))
    if scale > 0:
        rel = float(np.linalg.norm(closed - quad)) / scale
        if rel > _A2_RTOL:
            raise InternalConsistencyError(
                f"second-iterate paths disagree: rel l2 error {rel:.3e} > {_A2_RTOL:.1e}"
            )
    return SpectralField(phi.lattice, closed)
