"""Norm-inflation experiments: the explicit two-mode (or two-interval) data
family, its admissibility conditions, the second-iterate lower bound, and the
sweep that drives the solver across a frequency list and reports how data and
solution norms move against each other below the critical regularity."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .lattice import (
    TWO_PI,
    FrequencyLattice,
    SpectralField,
    make_lattice,
)
from .norms import h_norm
from .solver import (
    PicardDivergenceError,
    SolverConfig,
    a2_iterate,
    free_evolve,
    picard_solve,
)

LOW_BAND = 1.0  # |k| <= LOW_BAND is the low band of the remainder proxy
LINE_REFINE = 20  # the line variant's lattice is this many times finer
VARIANTS = ("torus", "line")  # the data families make_phi builds


class InflationError(ValueError):
    pass


def make_phi(lam: float, N: float, variant: str = "torus",
             K: float | None = None) -> SpectralField:
    """The concentrated two-frequency profile at height N.

    torus: unit coefficients at exactly N and N + 1/lam.
    line: indicator coefficients on [N, N + 1/(10 lam)] and
    [N + 1/lam, N + 11/(10 lam)], discretized on a LINE_REFINE-times finer
    lattice (so each interval holds at least two modes).
    """
    if N <= 0:
        raise InflationError("N must be a positive lattice frequency")
    if variant == "torus":
        lattice = make_lattice(lam, K if K is not None else N + 2.0 / lam)
        if N + 1.0 / lam > lattice.K + 1e-12:
            raise InflationError(f"N + 1/lam = {N + 1/lam} beyond truncation K={lattice.K}")
        coeff = np.zeros(lattice.modes, dtype=np.complex128)
        coeff[lattice.index_of(N)] = 1.0
        coeff[lattice.index_of(N + 1.0 / lam)] = 1.0
        return SpectralField(lattice, coeff)
    if variant == "line":
        lam_f = LINE_REFINE * lam
        lattice = make_lattice(lam_f, K if K is not None else N + 2.0 / lam)
        if N + 1.1 / lam > lattice.K + 1e-12:
            raise InflationError("line profile extends beyond the truncation")
        k = lattice.k
        # half-open intervals so the discrete mass matches the interval measure
        in_first = (k >= N - 1e-12) & (k < N + 0.1 / lam - 1e-12)
        in_second = (k >= N + 1.0 / lam - 1e-12) & (k < N + 1.1 / lam - 1e-12)
        coeff = (in_first | in_second).astype(np.complex128)
        return SpectralField(lattice, coeff)
    raise InflationError(f"unknown variant {variant}")


DEFAULT_COND_FACTOR = 100.0
# the scan's narrowed phase window, inside check_cond_n's [pi/2, 3 pi/2]
SCAN_PHASE_LO = 0.75 * math.pi
SCAN_PHASE_HI = 1.25 * math.pi
A2_THRESHOLD = 0.05  # a2_lower_bound's constant c in c lam^(-1/2) / N


def check_cond_n(lam: float, N: float, t0: float,
                 factor: float = DEFAULT_COND_FACTOR) -> tuple[bool, dict]:
    """Admissibility of (lam, N, t0): positivity, the separation 2 N t0 >=
    factor * lam, and the phase 2 N t0 / lam landing in [pi/2, 3 pi/2] mod 2 pi
    (so the second iterate's oscillatory factor |e^(i theta) - 1| =
    2 |sin(theta / 2)| is at least sqrt(2))."""
    phase = (2.0 * N * t0 / lam) % TWO_PI
    diag = {
        "positive": N > 0,
        "separation": 2.0 * N * t0 >= factor * lam,
        "phase": phase,
        "phase_window": bool(math.pi / 2 <= phase <= 3 * math.pi / 2),
        "osc_factor": abs(np.exp(-2j * N * t0 / lam) - 1.0),
    }
    ok = diag["positive"] and diag["separation"] and diag["phase_window"]
    return ok, diag


def scan_cond_n(
    lam: float,
    t0: float,
    k_cap: float,
    factor: float = DEFAULT_COND_FACTOR,
    count: int = 6,
    avoid_band: tuple | None = None,
) -> list:
    """Smallest-to-largest admissible lattice frequencies below the truncation,
    roughly geometrically spaced; the scan narrows the phase window so the
    oscillatory factor is nearly maximal and flat across the list.

    avoid_band=(lo, hi) snaps targets out of a frequency band (used to dodge
    the most expensive time resolutions without changing the experiment); a
    target at the band's top edge takes the nearest admissible N above it.
    """
    j_lo = max(1, int(math.ceil(factor * lam / (2.0 * t0) * lam)))
    j_hi = int(math.floor((k_cap - 2.0 / lam) * lam))
    passing = []
    for j in range(j_lo, j_hi + 1):
        N = j / lam
        ok, diag = check_cond_n(lam, N, t0, factor)
        if ok and SCAN_PHASE_LO <= diag["phase"] <= SCAN_PHASE_HI:
            passing.append(N)
    if len(passing) < count:
        raise InflationError(
            f"only {len(passing)} admissible frequencies below K={k_cap}"
        )
    lo, hi = passing[0], passing[-1]
    raw_targets = [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
    targets = list(raw_targets)
    if avoid_band is not None:
        b_lo, b_hi = avoid_band
        targets = [
            (b_lo if t <= math.sqrt(b_lo * b_hi) else b_hi)
            if b_lo < t < b_hi
            else t
            for t in targets
        ]
    chosen: list = []
    arr = np.asarray(passing)
    for t, raw in zip(targets, raw_targets):
        attempts = (t, raw)
        if avoid_band is not None and t == b_hi and arr[-1] > b_hi:
            attempts = (float(arr[arr > b_hi][0]),) + attempts
        for attempt in attempts:
            N = float(arr[int(np.argmin(np.abs(arr - attempt)))])
            if N not in chosen:
                chosen.append(N)
                break
        else:
            unused = [n for n in passing if n not in chosen]
            if unused:
                chosen.append(min(unused, key=lambda n: abs(n - raw)))
    return sorted(chosen)


def a2_lower_bound(
    lam: float,
    N: float,
    t0: float,
    s: float,
    variant: str = "torus",
) -> tuple[float, float, bool]:
    """Sobolev size of the second iterate on the concentrated profile against
    the lam^(-1/2)/N scaling; returns (value, threshold bound, pass)."""
    ok, diag = check_cond_n(lam, N, t0)
    if not ok:
        failing = [k for k, v in diag.items() if v is False]
        raise InflationError(f"admissibility failed: {failing}, diag={diag}")
    phi = make_phi(lam, N, variant)
    value = h_norm(a2_iterate(phi, t0, lam), s)
    bound = A2_THRESHOLD * lam**-0.5 / N
    return value, bound, bool(value >= bound)


@dataclass(frozen=True)
class InflationConfig:
    s: float
    delta: float
    lam: float
    t0: float
    n_list: tuple = ()
    variant: str = "torus"
    K: float = 256.0
    cond_factor: float = DEFAULT_COND_FACTOR
    contraction_tol: float = 1e-10
    max_picard: int = 30
    dt_cap: float = 0.02
    report_s: tuple = (-0.5,)
    include_linear: bool = True

    def __post_init__(self):
        if self.delta <= 0:
            raise InflationError("delta must be positive")
        if not (0.0 < self.t0 <= 1.0):
            raise InflationError("t0 must lie in (0, 1]")
        if self.lam < 1.0:
            raise InflationError("lam must be >= 1")
        if self.variant not in VARIANTS:
            raise InflationError(f"unknown variant {self.variant}")
        for N in self.n_list:
            ok, _ = check_cond_n(self.lam, N, self.t0, self.cond_factor)
            if not ok:
                raise InflationError(f"N={N} fails the admissibility conditions")


@dataclass(frozen=True)
class InflationRow:
    N: float
    phase: float
    dt: float
    error: str | None
    norms: dict  # per reported s: data/free/second/solution/residue
    w_proxy: float | None
    w_full: float | None
    picard_iterations: int | None
    picard_residual: float | None  # sup_t |u - Phi(u)|_{H^s} of the solve; None if it diverged


@dataclass(frozen=True)
class InflationReport:
    config: InflationConfig
    rows: list
    verdict: str
    metrics: dict


def _interaction_phase_cap(N: float, lattice: FrequencyLattice) -> float:
    """Largest unwound phase rate among interactions that survive truncation.

    Squared-field products at 2N carry rates up to ~6 N^2 when 2N stays on the
    lattice; once truncated, only (high cluster) x (low band) interactions
    remain, with rates ~ 2 k_max * width.
    """
    k_max = lattice.half_modes / lattice.lam
    if 2.0 * N <= k_max:
        return 6.0 * N * N + 12.0 * N + 10.0
    return 2.2 * (k_max + 1.0) * LOW_BAND + 4.0 * N / lattice.lam


def _solver_dt(cfg: InflationConfig, N: float, lattice: FrequencyLattice) -> float:
    theta = _interaction_phase_cap(N, lattice)
    dt = min(cfg.dt_cap, 1.0 / theta, cfg.t0 / 64.0)
    n = max(64, int(math.ceil(cfg.t0 / dt)))
    if n % 2 == 1:
        n += 1
    return cfg.t0 / n


def _low_band(f: SpectralField) -> SpectralField:
    """f with every mode above |k| = LOW_BAND set to zero."""
    return SpectralField(f.lattice, np.where(np.abs(f.lattice.k) <= LOW_BAND, f.coeff, 0.0))


def inflation_sweep(cfg: InflationConfig) -> InflationReport:
    """Solve for each admissible frequency and tabulate, per reported
    regularity, the data / free / second-iterate / solution / nonlinear-residue
    norms at t0 plus the low-band remainder proxy.

    Verdict for s < -1/2: data norms decay while the nonlinear residue (and
    hence the solution) stays bounded below by a fixed multiple of
    delta^2 lam^(-1/2).  Verdict for s = -1/2: the solution/data ratio stays in
    a fixed band.
    """
    # Each solve is dropped before the next (below); its arrays would then be
    # trimmed from the heap top and faulted back in.  Freeing one mmapped
    # 16 MiB block raises glibc's trim threshold to 32 MiB (see resonance).
    np.empty(16 << 20, dtype=np.uint8)
    n_list = cfg.n_list or tuple(
        scan_cond_n(
            cfg.lam,
            cfg.t0,
            cfg.K,
            cfg.cond_factor,
            avoid_band=(cfg.K / 6.0, cfg.K / 2.0),
        )
    )
    n_list = tuple(sorted(n_list))
    s_values = tuple(dict.fromkeys((cfg.s,) + tuple(cfg.report_s)))
    rows = []
    for N in n_list:
        _, diag = check_cond_n(cfg.lam, N, cfg.t0, cfg.cond_factor)
        phi = make_phi(cfg.lam, N, cfg.variant, K=cfg.K)
        lattice = phi.lattice
        u0 = SpectralField(lattice, cfg.delta * math.sqrt(N) * phi.coeff)
        dt = _solver_dt(cfg, N, lattice)
        solver_cfg = SolverConfig(
            lam=cfg.lam,
            s=cfg.s,
            T=cfg.t0,
            dt=dt,
            max_picard=cfg.max_picard,
            contraction_tol=cfg.contraction_tol,
            include_linear=cfg.include_linear,
        )
        norms: dict = {}
        u1 = free_evolve(u0, cfg.t0)
        u2 = SpectralField(
            lattice,
            cfg.delta**2 * N * a2_iterate(phi, cfg.t0, cfg.lam).coeff,
        )
        for s in s_values:
            norms[s] = {
                "data": h_norm(u0, s),
                "free": h_norm(u1, s),
                "second": h_norm(u2, s),
            }
        try:
            result = picard_solve(u0, solver_cfg)
        except PicardDivergenceError as exc:
            rows.append(
                InflationRow(
                    N=N, phase=diag["phase"], dt=dt,
                    error=f"no contraction: ratios {exc.ratios[-3:]}",
                    norms=norms, w_proxy=None, w_full=None,
                    picard_iterations=None, picard_residual=None,
                )
            )
            continue
        iterations, converged = result.report.iterations, result.report.converged
        picard_residual = result.report.residual
        u_end = result.trajectory.field_at(result.trajectory.index_of_time(cfg.t0))
        del result  # its arrays must not sit beside the next, larger solve
        if not converged:
            rows.append(
                InflationRow(
                    N=N, phase=diag["phase"], dt=dt,
                    error=f"no convergence in {iterations} iterations",
                    norms=norms, w_proxy=None, w_full=None,
                    picard_iterations=iterations, picard_residual=picard_residual,
                )
            )
            continue
        residue = SpectralField(lattice, u_end.coeff - u1.coeff)
        w = SpectralField(lattice, u_end.coeff - u1.coeff - u2.coeff)
        u_low = _low_band(u_end)
        for s in s_values:
            norms[s]["solution"] = h_norm(u_end, s)
            norms[s]["residue"] = h_norm(residue, s)
            norms[s]["solution_low"] = h_norm(u_low, s)
        rows.append(
            InflationRow(
                N=N,
                phase=diag["phase"],
                dt=dt,
                error=None,
                norms=norms,
                w_proxy=h_norm(_low_band(w), -0.5),
                w_full=h_norm(w, -0.5),
                picard_iterations=iterations,
                picard_residual=picard_residual,
            )
        )
    return _finish_report(cfg, rows)


def _finish_report(cfg: InflationConfig, rows) -> InflationReport:
    good = [r for r in rows if r.error is None]
    metrics: dict = {"n_rows": len(rows), "n_solved": len(good)}
    verdict = "inconclusive"
    if len(good) >= 2:
        data = [r.norms[cfg.s]["data"] for r in good]
        metrics["data_decay_factor"] = data[0] / data[-1]
        metrics["data_monotone"] = bool(
            all(a > b for a, b in zip(data, data[1:]))
        )
        sol = [r.norms[cfg.s]["solution"] for r in good]
        res = [r.norms[cfg.s]["residue"] for r in good]
        low = [r.norms[cfg.s]["solution_low"] for r in good]
        floor = cfg.delta**2 * cfg.lam**-0.5
        metrics["solution_floor_const"] = min(sol) / floor
        metrics["residue_floor_const"] = min(res) / floor
        metrics["residue_band"] = max(res) / min(res)
        metrics["low_band_floor_const"] = min(low) / floor
        metrics["low_band_plateau"] = max(low) / min(low)
        ratios = [
            r.norms[cfg.s]["solution"] / r.norms[cfg.s]["data"] for r in good
        ]
        metrics["ratio_band"] = max(ratios) / min(ratios)
        if cfg.s < -0.5:
            inflation = (
                metrics["data_decay_factor"] > 1.0
                and metrics["low_band_floor_const"] > 0.01
            )
            verdict = "norm-inflation" if inflation else "no-inflation"
        else:
            verdict = "bounded" if metrics["ratio_band"] < 2.0 else "unbounded"
    return InflationReport(config=cfg, rows=rows, verdict=verdict, metrics=metrics)


def report_to_json(report: InflationReport) -> str:
    payload = {
        # the two constants stay in the record of the run's parameters
        "config": {**asdict(report.config), "low_band": LOW_BAND, "refine": LINE_REFINE},
        "verdict": report.verdict,
        "metrics": report.metrics,
        "rows": [
            {
                "N": r.N,
                "phase": r.phase,
                "dt": r.dt,
                "error": r.error,
                "norms": {repr(s): v for s, v in r.norms.items()},
                "w_proxy": r.w_proxy,
                "w_full": r.w_full,
                "picard_iterations": r.picard_iterations,
                "picard_residual": r.picard_residual,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, sort_keys=True)


def write_report_csv(report: InflationReport, path) -> None:
    s = report.config.s
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["N", "data", "free", "second", "solution", "solution_low",
             "residue", "w_proxy", "w_full", "phase", "dt", "error", "picard_residual"]
        )
        for r in report.rows:
            n = r.norms[s]
            w.writerow(
                [repr(r.N), repr(n.get("data")), repr(n.get("free")),
                 repr(n.get("second")), repr(n.get("solution")),
                 repr(n.get("solution_low")), repr(n.get("residue")),
                 repr(r.w_proxy), repr(r.w_full),
                 repr(r.phase), repr(r.dt), r.error or "", repr(r.picard_residual)]
            )


def write_plot_data(report: InflationReport, path) -> None:
    """Log-log plot columns: N against the data and solution norms."""
    s = report.config.s
    with open(path, "w") as fh:
        fh.write("N\tdata\tsolution\tresidue\n")
        for r in report.rows:
            if r.error is not None:
                continue
            n = r.norms[s]
            fh.write(
                f"{r.N!r}\t{n['data']!r}\t{n['solution']!r}\t{n['residue']!r}\n"
            )
