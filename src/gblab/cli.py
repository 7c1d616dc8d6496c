"""Batch experiment runner: solve / verify / inflate / norms subcommands with
INI-style configuration, deterministic seeded runs, and manifest emission.

Exit codes: 0 all checks pass, 1 a contractual assertion failed (a scientific
finding), 2 usage or configuration error, 3 internal fault (any other
exception, such as independent evaluation paths that disagreed)."""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bilinear_probe import l4_ratio, slope_sweep
from .illposedness import (
    InflationConfig,
    InflationError,
    inflation_sweep,
    report_to_json,
    write_plot_data,
    write_report_csv,
)
from .lattice import (
    LatticeError,
    SpectralField,
    dump_spectrum,
    field_from_modes,
    load_field,
    load_spacetime,
    make_lattice,
    make_tau_grid,
)
from .norms import NormSpec, h_norm, norm_report, ws_norm, xsb_norm, ys_norm
from .resonance import (
    CountingCase,
    SweepSampler,
    _batched_values,
    cell_measure,
    dual_case,
    sup_sweep,
    write_sweep_csv,
)
from .solver import (
    PicardDivergenceError,
    SolverConfig,
    picard_solve,
    reference_solve,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


DEFAULTS = {
    "solve": {
        "lam": "4.0",
        "s": "-0.5",
        "t": "0.5",
        "dt": "0.002",
        "k": "4.0",
        "max_picard": "40",
        "contraction_tol": "1e-10",
        "data": "modes",
        "data_modes": "1.0:0.05,-0.5:0.02j",
        "seed": "7",
        "compare_reference": "false",
    },
    "counting": {
        "lambdas": "1,2,4,8",
        "m_cap": "64",
        "n_random": "20000",
        "max_over_median": "10.0",
        "kendall_cap": "0.3",
    },
    "embeddings": {
        "lambdas": "1,2,4,8,16",
        "s_values": "-0.5,-0.25",
        "thetas": "0.25,0.5,0.75",
        "n_fields": "500",
        "growth_cap": "1.10",
        "seed": "11",
    },
    "bilinear": {
        "lambdas": "4,16,64",
        "s": "-0.5",
        "n_trials": "4",
        "adversarial_slope_lo": "0.0",
        "adversarial_slope_hi": "0.7",
        "flat_slope_cap": "0.2",
    },
    "l4": {
        "lambdas": "1,4,16",
        "n_fields": "100",
        "band_cap": "3.0",
        "seed": "23",
    },
    "inflate": {
        "s": "-0.75",
        "delta": "0.01",
        "lam": "4.0",
        "t0": "0.5",
        "k": "256.0",
        "cond_factor": "2.0",
        "n_list": "",
        "variant": "torus",
        "report_s": "-0.5",
    },
    "norms": {
        "family": "Ws",
        "s": "-0.5",
        "b": "",
        "m_max": "",
        "tau_max": "",
    },
}


def print_defaults() -> None:
    cp = configparser.ConfigParser()
    for section, values in DEFAULTS.items():
        cp[section] = values
    cp.write(sys.stdout)


def load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    for section, values in DEFAULTS.items():
        cp[section] = dict(values)
    if path:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    return cp


class ConfigError(ValueError):
    pass


def _floats(text: str) -> list:
    return [float(x) for x in text.replace(" ", "").split(",") if x]


def _parse_modes(text: str) -> dict:
    out = {}
    for item in text.replace(" ", "").split(","):
        if not item:
            continue
        try:
            freq, val = item.split(":")
            out[float(freq)] = complex(val)
        except ValueError as exc:
            raise ConfigError(f"bad mode entry {item!r}") from exc
    return out


class Manifest:
    """Run record: config snapshot, seed, outputs, per-check results."""

    def __init__(self, command: str, config: dict, seed: int):
        self.command = command
        self.config = config
        self.seed = seed
        self.outputs: list = []
        self.checks: dict = {}
        self._start = time.monotonic()

    def add_output(self, path) -> None:
        self.outputs.append(Path(path).name)

    def check(self, name: str, passed: bool, detail=None) -> None:
        self.checks[name] = {"passed": bool(passed), "detail": detail}

    def write(self, out_dir: Path) -> Path:
        payload = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": __version__,
            "outputs": sorted(self.outputs),
            "checks": self.checks,
            "wall_time_s": time.monotonic() - self._start,
        }
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        return path

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.checks.values())


def cmd_solve(cp: configparser.ConfigParser, out_dir: Path, seed: int | None) -> int:
    """Solve from the configured data; the data seed is --seed when given,
    else the config's [solve] seed."""
    sec = cp["solve"]
    seed = seed if seed is not None else sec.getint("seed")
    manifest = Manifest("solve", dict(sec), seed)
    lam = sec.getfloat("lam")
    K = sec.getfloat("k")
    lattice = make_lattice(lam, K)
    kind = sec.get("data")
    if kind == "zero":
        u0 = SpectralField(lattice, np.zeros(lattice.modes, dtype=complex))
    elif kind == "modes":
        u0 = field_from_modes(lattice, _parse_modes(sec.get("data_modes")))
    elif kind == "gaussian":
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(lattice.modes) + 1j * rng.standard_normal(lattice.modes)
        u0 = SpectralField(lattice, 0.01 * c * (1 + lattice.k**2) ** -1)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
    cfg = SolverConfig(
        lam=lam,
        s=sec.getfloat("s"),
        T=sec.getfloat("t"),
        dt=sec.getfloat("dt"),
        max_picard=sec.getint("max_picard"),
        contraction_tol=sec.getfloat("contraction_tol"),
    )
    try:
        result = picard_solve(u0, cfg)
    except PicardDivergenceError as exc:
        manifest.check("picard_contraction", False, {"ratios": exc.ratios[-5:]})
        manifest.write(out_dir)
        return EXIT_FINDING
    traj_path = out_dir / "trajectory.spec"
    dump_spectrum(result.trajectory, traj_path)
    manifest.add_output(traj_path)
    scale = max(h_norm(u0, cfg.s), 1e-300)
    manifest.check(
        "residual_below_tolerance",
        result.report.residual < 10 * cfg.contraction_tol * scale,
        {"residual": result.report.residual, "ratios": result.report.ratios},
    )
    if sec.getboolean("compare_reference"):
        ref = reference_solve(u0, cfg)
        i = result.trajectory.index_of_time(cfg.T)
        diff = result.trajectory.coeff[i] - ref.coeff[i]
        w = (1 + lattice.k**2) ** -0.5
        err = math.sqrt(float(np.sum(w * np.abs(diff) ** 2)) / lam)
        rel = err / max(h_norm(ref.field_at(i), -0.5), 1e-300)
        manifest.check("reference_agreement", rel < 1e-6, {"rel_h_half": rel})
    manifest.write(out_dir)
    return EXIT_OK if manifest.all_passed else EXIT_FINDING


def counting_grid(cp, seed: int):
    sec = cp["counting"]
    lambdas = _floats(sec.get("lambdas"))
    m_cap = sec.getfloat("m_cap")
    dyadic = []
    m = 1.0
    while m <= m_cap:
        dyadic.append(m)
        m *= 2
    sampler = SweepSampler(n_random=sec.getint("n_random"), seed=seed)
    cases = [
        CountingCase(lemma, side, M1, M2, lam)
        for lemma in ("RB1", "RB2", "DRB1", "DRB2")
        for side in ("complement", "exceptional")
        for lam in lambdas
        for M1 in dyadic
        for M2 in dyadic
    ]
    return [sup_sweep(c, sampler) for c in cases]


def cmd_verify(cp, suites, out_dir: Path, seed: int) -> int:
    manifest = Manifest("verify", {s: dict(cp[s]) for s in suites}, seed)
    for suite in suites:
        if suite == "counting":
            _verify_counting(cp, manifest, out_dir, seed)
        elif suite == "embeddings":
            _verify_embeddings(cp, manifest, out_dir, seed)
        elif suite == "bilinear":
            _verify_bilinear(cp, manifest, out_dir, seed)
        elif suite == "l4":
            _verify_l4(cp, manifest, out_dir, seed)
        else:
            raise ConfigError(f"unknown suite {suite!r}")
    manifest.write(out_dir)
    return EXIT_OK if manifest.all_passed else EXIT_FINDING


def _kendall_tau_b(x, y) -> float:
    """Kendall's tau-b over all pairs from the signs of pairwise differences;
    NaN when x or y is constant."""
    sx = np.sign(np.subtract.outer(x, x)).astype(np.int8)
    sy = np.sign(np.subtract.outer(y, y)).astype(np.int8)
    # ordered pairs count each unordered pair twice
    untied_x = int(np.count_nonzero(sx)) // 2
    untied_y = int(np.count_nonzero(sy)) // 2
    if untied_x == 0 or untied_y == 0:
        return math.nan
    con_minus_dis = int(np.sum(sx * sy, dtype=np.int64)) // 2
    return max(-1.0, min(1.0, con_minus_dis / math.sqrt(untied_x) / math.sqrt(untied_y)))


def _verify_counting(cp, manifest, out_dir, seed):
    sec = cp["counting"]
    results = counting_grid(cp, seed)
    csv_path = out_dir / "counting.csv"
    write_sweep_csv(results, csv_path)
    manifest.add_output(csv_path)
    ratios = np.array([r.ratio for r in results])
    mm = np.array([r.case.M1 * r.case.M2 for r in results])
    ll = np.array([r.case.lam for r in results])
    spread = float(ratios.max() / np.median(ratios))
    tau_m = _kendall_tau_b(mm, ratios)
    tau_l = _kendall_tau_b(ll, ratios)
    cap = sec.getfloat("max_over_median")
    kcap = sec.getfloat("kendall_cap")
    manifest.check("counting_ratio_spread", spread < cap, {"max_over_median": spread})
    manifest.check(
        "counting_no_growth_trend",
        abs(tau_m) < kcap and abs(tau_l) < kcap,
        {"kendall_vs_M": tau_m, "kendall_vs_lambda": tau_l},
    )
    # duality identities: the mirrored lemmas, evaluated by the sweep
    # evaluator, reproduce their partners enumerated k1 by k1
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for lemma in ("DRB1", "DRB2"):
        for side in ("complement", "exceptional"):
            case = CountingCase(lemma, side, 8.0, 4.0, 2.0)
            partner = dual_case(case)
            points = [(rng.uniform(-60.0, 5.0), rng.integers(1, 8) / 2.0) for _ in range(25)]
            taus, ks = np.array(points).T
            for k in np.unique(ks):
                a = _batched_values(case, taus[ks == k], k)
                b = np.array([cell_measure(partner, tau, k) for tau in taus[ks == k]])
                worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    manifest.check("counting_duality_exact", worst <= 1e-12, {"worst_rel": worst})
    # exceptional-side lambda halving
    by_case = {
        (r.case.lemma, r.case.lam, r.case.M1, r.case.M2): r.sup_value
        for r in results
        if r.case.side == "exceptional"
    }
    halvings = []
    for (lemma, lam, M1, M2), v in by_case.items():
        nxt = by_case.get((lemma, 2 * lam, M1, M2))
        if nxt is not None and v > 0:
            halvings.append(nxt / v)
    med = float(np.median(halvings))
    manifest.check(
        "exceptional_lambda_halving", 0.4 <= med <= 0.6, {"median_factor": med}
    )


def _embedding_cell(lam, s, theta, n_fields, rng):
    from .lattice import SpacetimeSpectrum

    lattice = make_lattice(lam, 4.0)
    tau = make_tau_grid(80.0, 0.5)
    k = lattice.k
    mod = np.sqrt(1.0 + (tau[:, None] + (k * k)[None, :]) ** 2)
    worst = {"x_s1_to_ws": 0.0, "mixed_to_ws": 0.0, "ws_to_xs0": 0.0, "ws_to_ys": 0.0}
    for _ in range(n_fields):
        a = rng.uniform(0.2, 1.2)
        b = rng.uniform(0.4, 1.2)
        env = (1.0 + k**2)[None, :] ** (-a / 2.0) * mod ** (-b)
        c = (rng.standard_normal(mod.shape) + 1j * rng.standard_normal(mod.shape)) * env
        u = SpacetimeSpectrum(lattice, tau, c)
        w = ws_norm(u, s)
        worst["x_s1_to_ws"] = max(worst["x_s1_to_ws"], w / xsb_norm(u, s, 1.0))
        mixed = xsb_norm(u, s + theta, 1.0 - theta) + ys_norm(u, s)
        worst["mixed_to_ws"] = max(worst["mixed_to_ws"], w / mixed)
        worst["ws_to_xs0"] = max(worst["ws_to_xs0"], xsb_norm(u, s, 0.0) / w)
        worst["ws_to_ys"] = max(worst["ws_to_ys"], ys_norm(u, s) / w)
    return worst


def _verify_embeddings(cp, manifest, out_dir, seed):
    sec = cp["embeddings"]
    lambdas = _floats(sec.get("lambdas"))
    s_values = _floats(sec.get("s_values"))
    thetas = _floats(sec.get("thetas"))
    n_fields = sec.getint("n_fields")
    growth_cap = sec.getfloat("growth_cap")
    rows = []
    for s in s_values:
        for theta in thetas:
            if (s, theta) == (-0.5, 1.0):
                continue
            for lam in lambdas:
                rng = np.random.default_rng(sec.getint("seed") + seed)
                worst = _embedding_cell(lam, s, theta, n_fields, rng)
                rows.append({"s": s, "theta": theta, "lambda": lam, **worst})
    path = out_dir / "embeddings.json"
    path.write_text(json.dumps(rows, sort_keys=True, indent=1))
    manifest.add_output(path)
    stable = True
    detail = {}
    for s in s_values:
        for theta in thetas:
            cell = [r for r in rows if r["s"] == s and r["theta"] == theta]
            cell.sort(key=lambda r: r["lambda"])
            for key in ("x_s1_to_ws", "mixed_to_ws", "ws_to_xs0", "ws_to_ys"):
                vals = [r[key] for r in cell]
                growth = max(
                    vals[i + 1] / vals[i] for i in range(len(vals) - 1)
                )
                detail[f"{key}@s={s},theta={theta}"] = growth
                if growth > growth_cap:
                    stable = False
    manifest.check("embedding_constants_stable", stable, detail)


def _verify_bilinear(cp, manifest, out_dir, seed):
    sec = cp["bilinear"]
    lambdas = tuple(_floats(sec.get("lambdas")))
    s = sec.getfloat("s")
    n_trials = sec.getint("n_trials")
    sweeps = [
        slope_sweep("u vbar", s, lambdas, "adversarial-omega4", n_trials, seed),
        slope_sweep("u v", s, lambdas, "random", n_trials, seed),
        slope_sweep("ubar vbar", s, lambdas, "random", n_trials, seed),
    ]
    path = out_dir / "bilinear.json"
    path.write_text(json.dumps(sweeps, sort_keys=True, indent=1))
    manifest.add_output(path)
    lo = sec.getfloat("adversarial_slope_lo")
    hi = sec.getfloat("adversarial_slope_hi")
    cap = sec.getfloat("flat_slope_cap")
    manifest.check(
        "bilinear_loss_slope",
        lo <= sweeps[0]["slope"] <= hi,
        {"slope": sweeps[0]["slope"]},
    )
    manifest.check(
        "bilinear_no_loss_kinds",
        all(abs(sw["slope"]) <= cap for sw in sweeps[1:]),
        {sw["kind"]: sw["slope"] for sw in sweeps[1:]},
    )


def _verify_l4(cp, manifest, out_dir, seed):
    from .lattice import SpacetimeSpectrum

    sec = cp["l4"]
    lambdas = _floats(sec.get("lambdas"))
    n_fields = sec.getint("n_fields")
    maxima = {}
    for lam in lambdas:
        rng = np.random.default_rng(sec.getint("seed") + seed)
        lattice = make_lattice(lam, 2.0)
        tau = make_tau_grid(20.0, 0.5)
        k = lattice.k
        mod = np.sqrt(1.0 + (tau[:, None] + (k * k)[None, :]) ** 2)
        vals = []
        for _ in range(n_fields):
            c = (
                rng.standard_normal(mod.shape) + 1j * rng.standard_normal(mod.shape)
            ) * mod ** (-0.7)
            vals.append(l4_ratio(SpacetimeSpectrum(lattice, tau, c)))
        maxima[lam] = max(vals)
    path = out_dir / "l4.json"
    path.write_text(json.dumps({repr(k): v for k, v in maxima.items()}, sort_keys=True))
    manifest.add_output(path)
    band = max(maxima.values()) / min(maxima.values())
    manifest.check(
        "l4_ratio_stable", band < cp["l4"].getfloat("band_cap"), {"band": band, **{str(k): v for k, v in maxima.items()}}
    )


def cmd_inflate(cp, out_dir: Path, seed: int) -> int:
    sec = cp["inflate"]
    manifest = Manifest("inflate", dict(sec), seed)
    n_list = tuple(_floats(sec.get("n_list"))) if sec.get("n_list").strip() else ()
    cfg = InflationConfig(
        s=sec.getfloat("s"),
        delta=sec.getfloat("delta"),
        lam=sec.getfloat("lam"),
        t0=sec.getfloat("t0"),
        K=sec.getfloat("k"),
        cond_factor=sec.getfloat("cond_factor"),
        n_list=n_list,
        variant=sec.get("variant"),
        report_s=tuple(_floats(sec.get("report_s"))),
    )
    report = inflation_sweep(cfg)
    csv_path = out_dir / "inflation.csv"
    write_report_csv(report, csv_path)
    json_path = out_dir / "inflation.json"
    json_path.write_text(report_to_json(report))
    tsv_path = out_dir / "inflation_plot.tsv"
    write_plot_data(report, tsv_path)
    for p in (csv_path, json_path, tsv_path):
        manifest.add_output(p)
    manifest.check(
        "chosen_frequencies",
        True,
        {"n_list": [r.N for r in report.rows]},
    )
    if cfg.s < -0.5:
        manifest.check(
            "inflation_verdict", report.verdict == "norm-inflation", report.metrics
        )
    else:
        manifest.check(
            "bounded_verdict", report.verdict == "bounded", report.metrics
        )
    manifest.write(out_dir)
    return EXIT_OK if manifest.all_passed else EXIT_FINDING


def cmd_norms(cp, spectrum_path: str, out_dir: Path, seed: int) -> int:
    sec = cp["norms"]
    manifest = Manifest("norms", dict(sec), seed)
    family = sec.get("family")
    s = sec.getfloat("s")
    b = sec.getfloat("b") if sec.get("b").strip() else None
    m_max = sec.getfloat("m_max") if sec.get("m_max").strip() else None
    if family == "Hs":
        f = load_field(spectrum_path)
        payload = {"family": "Hs", "s": s, "lambda": f.lattice.lam, "value": h_norm(f, s)}
    else:
        if not sec.get("tau_max").strip():
            raise ConfigError(
                "space-time dumps do not carry the tau range; set norms.tau_max"
            )
        u = load_spacetime(spectrum_path, sec.getfloat("tau_max"))
        payload = norm_report(u, NormSpec(family=family, s=s, b=b, m_max=m_max))
    path = out_dir / "norm.json"
    path.write_text(json.dumps(payload, sort_keys=True))
    manifest.add_output(path)
    manifest.check("norm_evaluated", True, {"value": payload["value"]})
    manifest.write(out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gblab",
        description="numerical laboratory for the smoothed quadratic dispersive model",
    )
    p.add_argument("--print-defaults", action="store_true", help="dump default config and exit")
    sub = p.add_subparsers(dest="command")
    for name in ("solve", "verify", "inflate", "norms"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        # solve falls back to its config seed; the other commands to 0
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", default="out")
        if name == "verify":
            sp.add_argument(
                "--suite",
                action="append",
                choices=["counting", "embeddings", "bilinear", "l4"],
                required=True,
            )
        if name == "norms":
            sp.add_argument("spectrum", help="binary spectrum dump to evaluate")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print_defaults()
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cp = load_config(args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cp, out_dir, args.seed)
        seed = args.seed if args.seed is not None else 0
        if args.command == "verify":
            return cmd_verify(cp, args.suite, out_dir, seed)
        if args.command == "inflate":
            return cmd_inflate(cp, out_dir, seed)
        if args.command == "norms":
            return cmd_norms(cp, args.spectrum, out_dir, seed)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, InflationError, LatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
