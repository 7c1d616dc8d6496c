"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed when it is created
(that is part of the measured set-up), runs one round of its experiment
through gblab's public entry points per ``run_round`` call, and hands one
round's outputs to the independent checks in ``checks``.  Every round of a
run repeats the same operations on the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass
class RoundResult:
    attempted: int
    failed: int
    wall: float  # seconds inside the experiment calls
    output_bytes: int = 0  # bytes the program wrote
    problems: list = field(default_factory=list)


def _write_ini(path: Path, section: str, values: dict) -> Path:
    lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _run_cli(argv) -> tuple:
    """(exit code, seconds) of one in-process gblab command."""
    from gblab import cli

    t0 = time.perf_counter()
    rc = cli.main([str(a) for a in argv])
    return rc, time.perf_counter() - t0


def _manifest_problems(out_dir: Path, rc: int, label: str) -> list:
    problems = []
    if rc != 0:
        problems.append(f"{label}: exit code {rc}")
    path = out_dir / "manifest.json"
    if not path.is_file():
        return problems + [f"{label}: no manifest written"]
    manifest = json.loads(path.read_text())
    for name, rec in manifest["checks"].items():
        if not rec["passed"]:
            problems.append(f"{label}: manifest check {name} failed: {rec['detail']}")
    return problems


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def output_fingerprint(out_dir: Path) -> dict:
    """File contents of one round, with the manifests' wall-time field
    dropped, for comparing later rounds against the checked first one."""
    out = {}
    for p in sorted(out_dir.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "manifest.json":
            payload = json.loads(data)
            payload.pop("wall_time_s", None)
            data = json.dumps(payload, sort_keys=True).encode()
        out[str(p.relative_to(out_dir))] = data
    return out


class Inflation:
    """`gblab inflate`: the norm-inflation sweep below H^(-1/2).

    The default experiment (K = 256) takes about a minute and 2.1 GB; the
    truncation K = 64 keeps the same admissibility scan (six frequencies,
    513 modes, 91 to 419 time rows each) at about 1.4 s per round.  The seed
    draws delta within 5% of the default 0.01.
    """

    name = "inflation"
    K = 64.0
    LAM = 4.0
    T0 = 0.5
    S = -0.75

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.delta = float(0.01 * (1.0 + 0.1 * (rng.random() - 0.5)))
        self.config = _write_ini(
            work_dir / "inflate.ini",
            "inflate",
            {"k": repr(self.K), "lam": repr(self.LAM), "t0": repr(self.T0),
             "s": repr(self.S), "delta": repr(self.delta)},
        )

    def run_round(self, out_dir: Path) -> RoundResult:
        rc, wall = _run_cli(["inflate", "--config", self.config, "--out-dir", out_dir])
        problems = _manifest_problems(out_dir, rc, "inflate")
        rows = self.report(out_dir)["rows"] if (out_dir / "inflation.json").is_file() else []
        failed = sum(r["error"] is not None for r in rows)
        return RoundResult(max(len(rows), 1), failed if rows else 1, wall,
                           _dir_bytes(out_dir), problems)

    @staticmethod
    def report(out_dir: Path) -> dict:
        return json.loads((out_dir / "inflation.json").read_text())

    def check(self, out_dir: Path) -> list:
        return checks.check_inflation(self.report(out_dir), self.delta, self.LAM, self.T0, self.S)


class Counting:
    """`gblab verify --suite counting` with one worker: the four counting
    lemmas, both sides, lambda in {1, 2, 4, 8}, dyadic M1, M2 <= 2, 5000
    random taus per sup frequency (128 sup sweeps, about 2.5 s).  The seed
    is the sweep sampler's seed."""

    name = "counting"
    M_CAP = 2.0
    N_RANDOM = 5000

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config = _write_ini(
            work_dir / "counting.ini",
            "counting",
            {"m_cap": repr(self.M_CAP), "n_random": str(self.N_RANDOM)},
        )

    def run_round(self, out_dir: Path) -> RoundResult:
        rc, wall = _run_cli(["verify", "--suite", "counting", "--config", self.config,
                             "--seed", self.seed, "--out-dir", out_dir])
        problems = _manifest_problems(out_dir, rc, "verify counting")
        rows = self.rows(out_dir) if (out_dir / "counting.csv").is_file() else []
        failed = sum(not math.isfinite(r["sup_value"]) or r["sup_value"] < 0 for r in rows)
        return RoundResult(max(len(rows), 1), failed if rows else 1, wall,
                           _dir_bytes(out_dir), problems)

    @staticmethod
    def rows(out_dir: Path) -> list:
        with open(out_dir / "counting.csv", newline="") as fh:
            out = []
            for rec in csv.DictReader(fh):
                row = {k: float(v) for k, v in rec.items() if k not in ("lemma", "side")}
                row["lemma"], row["side"] = rec["lemma"], rec["side"]
                out.append(row)
            return out

    def check(self, out_dir: Path) -> list:
        return checks.check_counting(self.rows(out_dir), self.seed)


class Bilinear:
    """The bilinear suite's three slope sweeps at s = -1/2, called through
    `gblab.bilinear_probe.slope_sweep`: the cross pattern on adversarial
    clusters, the other two on random continuum profiles, lambda in
    {4, 16, 32}, one trial each (about 2 s).  The seed is the probes' seed."""

    name = "bilinear"
    LAMBDAS = (4.0, 16.0, 32.0)
    N_TRIALS = 1
    S = -0.5
    SWEEPS = (("u vbar", "adversarial-omega4"), ("u v", "random"), ("ubar vbar", "random"))

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def run_round(self, out_dir: Path) -> RoundResult:
        from gblab import bilinear_probe

        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        sweeps = [
            bilinear_probe.slope_sweep(kind, self.S, self.LAMBDAS, generator, self.N_TRIALS, self.seed)
            for kind, generator in self.SWEEPS
        ]
        wall = time.perf_counter() - t0
        (out_dir / "bilinear.json").write_text(json.dumps(sweeps, sort_keys=True))
        attempted = len(self.SWEEPS) * len(self.LAMBDAS) * self.N_TRIALS
        done = sum(len(r) for sw in sweeps for r in sw["ratios"])
        return RoundResult(attempted, attempted - done, wall)

    def check(self, out_dir: Path) -> list:
        sweeps = json.loads((out_dir / "bilinear.json").read_text())
        return checks.check_bilinear(sweeps, self.seed, self.S)


class Solve:
    """`gblab solve` with the RK4 reference comparison on three seeded
    Gaussian data sets (lambda = 4, K = 16, T = 1/4, dt = 1e-3), handed to
    the program as explicit mode lists, about 1.2 s per round."""

    name = "solve"
    LAM = 4.0
    K = 16.0
    T = 0.25
    DT = 1e-3
    N_DATA = 3

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        half = math.ceil(self.K * self.LAM)
        k = np.arange(-half, half + 1) / self.LAM
        self.data = []
        self.configs = []
        for i in range(self.N_DATA):
            c = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * 0.01 / (1.0 + k * k)
            self.data.append(c)
            modes = ",".join(f"{float(kk)!r}:{complex(cc)!r}" for kk, cc in zip(k, c))
            self.configs.append(
                _write_ini(
                    work_dir / f"solve{i}.ini",
                    "solve",
                    {"lam": repr(self.LAM), "k": repr(self.K), "t": repr(self.T),
                     "dt": repr(self.DT), "data": "modes", "data_modes": modes,
                     "compare_reference": "true"},
                )
            )

    def run_round(self, out_dir: Path) -> RoundResult:
        wall, failed, problems = 0.0, 0, []
        for i, config in enumerate(self.configs):
            sub = out_dir / f"data{i}"
            rc, dt = _run_cli(["solve", "--config", config, "--out-dir", sub])
            wall += dt
            failed += rc != 0
            problems += _manifest_problems(sub, rc, f"solve data{i}")
        return RoundResult(self.N_DATA, failed, wall, _dir_bytes(out_dir), problems)

    def check(self, out_dir: Path) -> list:
        problems = []
        for i, u0 in enumerate(self.data):
            path = out_dir / f"data{i}" / "trajectory.spec"
            problems += [f"data{i}: {p}" for p in
                         checks.check_solve(path, u0, self.LAM, self.K, self.T, self.DT)]
        return problems


WORKLOADS = {w.name: w for w in (Inflation, Counting, Bilinear, Solve)}
