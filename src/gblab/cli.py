"""Batch experiment runner: solve / verify / inflate / norms subcommands with
INI-style configuration (the table CONFIG, converted whole before any work;
an unknown section or key or a malformed value is rejected), deterministic
seeded runs, and manifest emission.

Exit codes: 0 all checks pass, 1 a contractual assertion failed (a scientific
finding), 2 bad input (ConfigError, LatticeError, InflationError,
CountingError), 3 internal fault (any other exception, such as numpy's own
errors or independent evaluation paths that disagreed)."""

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
    VARIANTS,
    InflationConfig,
    InflationError,
    inflation_sweep,
    report_to_json,
    write_plot_data,
    write_report_csv,
)
from .lattice import (
    LatticeError,
    SpacetimeSpectrum,
    SpectralField,
    dump_spectrum,
    field_from_modes,
    load_field,
    load_spacetime,
    make_lattice,
    make_tau_grid,
    zero_field,
)
from .norms import (
    FAMILIES,
    WS_S_RANGE,
    NormSpec,
    h_norm,
    modulation,
    norm_report,
    ws_norm,
    xsb_norm,
    ys_norm,
)
from .resonance import (
    CountingCase,
    CountingError,
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
    StepSizeRejection,
    picard_solve,
    reference_solve,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    pass


def _floats(least: int):
    """Converter for a comma list of floats with at least `least` distinct."""
    def convert(text: str) -> tuple:
        values = tuple(float(x) for x in text.replace(" ", "").split(",") if x)
        if len(set(values)) < least:
            raise ValueError(f"needs at least {least} distinct comma-separated numbers")
        return values
    return convert


def _number(kind, least):
    """Converter for an int or float (`kind`) of at least `least`."""
    def convert(text: str):
        value = kind(text)
        if not value >= least:
            raise ValueError(f"must be at least {least}")
        return value
    return convert


def _choice(*words):
    """Converter for one of the given words."""
    def convert(text: str) -> str:
        if text not in words:
            raise ValueError(f"must be one of {', '.join(words)}")
        return text
    return convert


def _optional_float(text: str) -> float | None:
    return float(text) if text.strip() else None


def _optional_positive(text: str) -> float | None:
    """Converter for an empty text or a positive finite float."""
    value = _optional_float(text)
    if value is not None and not 0.0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


def _ws_s(convert):
    """Converter `convert` whose value, or each of its values, is an s at
    which ws_norm is defined."""
    lo, hi = WS_S_RANGE
    def check(text: str):
        value = convert(text)
        if not all(lo <= v <= hi for v in np.atleast_1d(value)):
            raise ValueError(f"must lie in [{lo}, {hi}], where ws_norm is defined")
        return value
    return check


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean (true/false, yes/no, on/off, 1/0)") from None


def _modes(text: str) -> dict:
    """Converter for comma-separated `frequency:coefficient` pairs."""
    pairs = [item.split(":") for item in text.replace(" ", "").split(",") if item]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("mode entries are frequency:coefficient")
    return {float(freq): complex(value) for freq, value in pairs}


# Every configuration key, once: its default text, as --print-defaults writes
# it, and the function converting its text; the lambdas of a suite whose
# checks compare lambdas need two distinct values.  The bounds of the
# program's own checks are constants beside the checks, not keys.
CONFIG = {
    "solve": {
        "lam": ("4.0", float),
        "s": ("-0.5", float),
        "t": ("0.5", float),
        "dt": ("0.002", float),
        "k": ("4.0", float),
        "max_picard": ("40", int),
        "contraction_tol": ("1e-10", float),
        "data": ("modes", _choice("zero", "modes", "gaussian")),
        "data_modes": ("1.0:0.05,-0.5:0.02j", _modes),
        "seed": ("7", int),
        "compare_reference": ("false", _bool),
    },
    "counting": {
        "lambdas": ("1,2,4,8", _floats(2)),
        "m_cap": ("64", _number(float, 1)),
        "n_random": ("20000", _number(int, 0)),
    },
    "embeddings": {
        "lambdas": ("1,2,4,8,16", _floats(2)),
        "s_values": ("-0.5,-0.25", _ws_s(_floats(1))),
        "thetas": ("0.25,0.5,0.75", _floats(1)),
        "n_fields": ("500", _number(int, 1)),
    },
    "bilinear": {
        "lambdas": ("4,16,64", _floats(2)),
        "s": ("-0.5", _ws_s(float)),
        "n_trials": ("4", _number(int, 1)),
    },
    "l4": {
        "lambdas": ("1,4,16", _floats(1)),
        "n_fields": ("100", _number(int, 1)),
    },
    "inflate": {
        "s": ("-0.75", float),
        "delta": ("0.01", float),
        "lam": ("4.0", float),
        "t0": ("0.5", float),
        "k": ("256.0", float),
        "cond_factor": ("2.0", float),
        "n_list": ("", _floats(0)),
        "variant": ("torus", _choice(*VARIANTS)),
        "report_s": ("-0.5", _floats(0)),
    },
    "norms": {
        "family": ("Ws", _choice(*FAMILIES)),
        "s": ("-0.5", float),
        "b": ("", _optional_float),
        "m_max": ("", _optional_float),
        "tau_max": ("", _optional_positive),
    },
}


def _embedding_pairs(conf: dict) -> list:
    """The (s, theta) cells of the embeddings suite: every configured pair
    but (-0.5, 1.0), which the suite skips."""
    pairs = ((s, theta) for s in conf["s_values"] for theta in conf["thetas"])
    return [pair for pair in pairs if pair != (-0.5, 1.0)]


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict({s: {k: d for k, (d, _) in table.items()} for s, table in CONFIG.items()})
    return cp


def load_config(path: str | None) -> tuple:
    """The defaults overlaid with the INI file at `path`, every key converted
    before any work starts.  Returns (text, values) per section and key: the
    text for the manifest, the value for the command."""
    cp = default_config()
    try:
        if path and not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        text = {section: dict(cp[section]) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
    values = {}
    for section, keys in text.items():
        if section not in CONFIG:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in keys.items():
            if key not in CONFIG[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
            try:
                values[section][key] = CONFIG[section][key][1](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    if not _embedding_pairs(values["embeddings"]):
        raise ConfigError("[embeddings] s_values, thetas: no pair but the skipped (-0.5, 1.0)")
    return text, values


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


def cmd_solve(conf: dict, text: dict, out_dir: Path, seed: int | None) -> int:
    """Solve from the configured data; the data seed is --seed when given,
    else the config's [solve] seed."""
    seed = seed if seed is not None else conf["seed"]
    manifest = Manifest("solve", text, seed)
    lattice = make_lattice(conf["lam"], conf["k"])
    if conf["data"] == "zero":
        u0 = zero_field(lattice)
    elif conf["data"] == "modes":
        u0 = field_from_modes(lattice, conf["data_modes"])
    else:  # gaussian, the last kind the config admits
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(lattice.modes) + 1j * rng.standard_normal(lattice.modes)
        u0 = SpectralField(lattice, 0.01 * c * (1 + lattice.k**2) ** -1)
    cfg = SolverConfig(
        lam=conf["lam"], s=conf["s"], T=conf["t"], dt=conf["dt"],
        max_picard=conf["max_picard"], contraction_tol=conf["contraction_tol"],
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
    if conf["compare_reference"]:
        try:
            ref = reference_solve(u0, cfg)
        except StepSizeRejection as exc:
            manifest.check("reference_agreement", False, {"step_rejected": str(exc)})
        else:
            i = result.trajectory.index_of_time(cfg.T)
            diff = SpectralField(lattice, result.trajectory.coeff[i] - ref.coeff[i])
            rel = h_norm(diff, -0.5) / max(h_norm(ref.field_at(i), -0.5), 1e-300)
            manifest.check("reference_agreement", rel < 1e-6, {"rel_h_half": rel})
    manifest.write(out_dir)
    return EXIT_OK if manifest.all_passed else EXIT_FINDING


def counting_grid(conf: dict, seed: int):
    dyadic = []
    m = 1.0
    while m <= conf["m_cap"]:
        dyadic.append(m)
        m *= 2
    sampler = SweepSampler(n_random=conf["n_random"], seed=seed)
    cases = [
        CountingCase(lemma, side, M1, M2, lam)
        for lemma in ("RB1", "RB2", "DRB1", "DRB2")
        for side in ("complement", "exceptional")
        for lam in conf["lambdas"]
        for M1 in dyadic
        for M2 in dyadic
    ]
    return [sup_sweep(c, sampler) for c in cases]


def cmd_verify(conf: dict, text: dict, suites, out_dir: Path, seed: int) -> int:
    manifest = Manifest("verify", {s: text[s] for s in suites}, seed)
    for suite in suites:
        SUITES[suite](conf[suite], manifest, out_dir, seed)
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


MAX_OVER_MEDIAN = 10.0  # bound on the largest sup ratio over their median
KENDALL_CAP = 0.3  # bound on |tau-b| of the ratios against M1*M2 and lambda


def _verify_counting(conf, manifest, out_dir, seed):
    results = counting_grid(conf, seed)
    csv_path = out_dir / "counting.csv"
    write_sweep_csv(results, csv_path)
    manifest.add_output(csv_path)
    ratios = np.array([r.ratio for r in results])
    mm = np.array([r.case.M1 * r.case.M2 for r in results])
    ll = np.array([r.case.lam for r in results])
    spread = float(ratios.max() / np.median(ratios))
    tau_m = _kendall_tau_b(mm, ratios)
    tau_l = _kendall_tau_b(ll, ratios)
    manifest.check("counting_ratio_spread", spread < MAX_OVER_MEDIAN, {"max_over_median": spread})
    manifest.check(
        "counting_no_growth_trend",
        abs(tau_m) < KENDALL_CAP and abs(tau_l) < KENDALL_CAP,
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
    lattice = make_lattice(lam, 4.0)
    tau = make_tau_grid(80.0, 0.5)
    k = lattice.k
    mod = modulation(tau[:, None], k)
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


GROWTH_CAP = 1.10  # bound on an embedding constant's growth per lambda step
EMBEDDINGS_SEED = 11  # offset of the embedding fields' seed from the run's


def _verify_embeddings(conf, manifest, out_dir, seed):
    rows, detail = [], {}
    for s, theta in _embedding_pairs(conf):
        cell = []
        for lam in conf["lambdas"]:
            rng = np.random.default_rng(EMBEDDINGS_SEED + seed)
            worst = _embedding_cell(lam, s, theta, conf["n_fields"], rng)
            cell.append({"s": s, "theta": theta, "lambda": lam, **worst})
        rows += cell
        cell.sort(key=lambda r: r["lambda"])
        for key in ("x_s1_to_ws", "mixed_to_ws", "ws_to_xs0", "ws_to_ys"):
            vals = [r[key] for r in cell]
            growth = max(b / a for a, b in zip(vals, vals[1:]))
            detail[f"{key}@s={s},theta={theta}"] = growth
    path = out_dir / "embeddings.json"
    path.write_text(json.dumps(rows, sort_keys=True, indent=1))
    manifest.add_output(path)
    stable = not any(growth > GROWTH_CAP for growth in detail.values())
    manifest.check("embedding_constants_stable", stable, detail)


# bounds on the fitted lambda-loss slopes, adversarial and random profiles
ADVERSARIAL_SLOPE_LO = 0.0
ADVERSARIAL_SLOPE_HI = 0.7
FLAT_SLOPE_CAP = 0.2


def _verify_bilinear(conf, manifest, out_dir, seed):
    lambdas, s, n_trials = conf["lambdas"], conf["s"], conf["n_trials"]
    sweeps = [
        slope_sweep("u vbar", s, lambdas, "adversarial-omega4", n_trials, seed),
        slope_sweep("u v", s, lambdas, "random", n_trials, seed),
        slope_sweep("ubar vbar", s, lambdas, "random", n_trials, seed),
    ]
    path = out_dir / "bilinear.json"
    path.write_text(json.dumps(sweeps, sort_keys=True, indent=1))
    manifest.add_output(path)
    manifest.check(
        "bilinear_loss_slope",
        ADVERSARIAL_SLOPE_LO <= sweeps[0]["slope"] <= ADVERSARIAL_SLOPE_HI,
        {"slope": sweeps[0]["slope"]},
    )
    manifest.check(
        "bilinear_no_loss_kinds",
        all(abs(sw["slope"]) <= FLAT_SLOPE_CAP for sw in sweeps[1:]),
        {sw["kind"]: sw["slope"] for sw in sweeps[1:]},
    )


BAND_CAP = 3.0  # bound on the ratio of the largest to the smallest L4 maximum
L4_SEED = 23  # offset of the L4 fields' seed from the run's


def _verify_l4(conf, manifest, out_dir, seed):
    maxima = {}
    for lam in conf["lambdas"]:
        rng = np.random.default_rng(L4_SEED + seed)
        lattice = make_lattice(lam, 2.0)
        tau = make_tau_grid(20.0, 0.5)
        mod = modulation(tau[:, None], lattice.k)
        vals = []
        for _ in range(conf["n_fields"]):
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
        "l4_ratio_stable", band < BAND_CAP, {"band": band, **{str(k): v for k, v in maxima.items()}}
    )


SUITES = {
    "counting": _verify_counting,
    "embeddings": _verify_embeddings,
    "bilinear": _verify_bilinear,
    "l4": _verify_l4,
}


def cmd_inflate(conf: dict, text: dict, out_dir: Path, seed: int) -> int:
    manifest = Manifest("inflate", text, seed)
    cfg = InflationConfig(
        s=conf["s"], delta=conf["delta"], lam=conf["lam"], t0=conf["t0"], K=conf["k"],
        cond_factor=conf["cond_factor"], n_list=conf["n_list"], variant=conf["variant"],
        report_s=conf["report_s"],
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


def cmd_norms(conf: dict, text: dict, spectrum_path: str, out_dir: Path, seed: int) -> int:
    manifest = Manifest("norms", text, seed)
    family, s = conf["family"], conf["s"]
    if family == "Hs":
        f = load_field(spectrum_path)
        payload = {"family": "Hs", "s": s, "lambda": f.lattice.lam, "value": h_norm(f, s)}
    else:
        if conf["tau_max"] is None:
            raise ConfigError("space-time dumps do not carry the tau range; set [norms] tau_max")
        u = load_spacetime(spectrum_path, conf["tau_max"])
        payload = norm_report(u, NormSpec(family, s, b=conf["b"], m_max=conf["m_max"]))
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
            sp.add_argument("--suite", action="append", choices=list(SUITES), required=True)
        if name == "norms":
            sp.add_argument("spectrum", help="binary spectrum dump to evaluate")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        default_config().write(sys.stdout)
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        text, conf = load_config(args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(conf["solve"], text["solve"], out_dir, args.seed)
        seed = args.seed if args.seed is not None else 0
        if args.command == "verify":
            return cmd_verify(conf, text, args.suite, out_dir, seed)
        if args.command == "inflate":
            return cmd_inflate(conf["inflate"], text["inflate"], out_dir, seed)
        return cmd_norms(conf["norms"], text["norms"], args.spectrum, out_dir, seed)
    except (ConfigError, CountingError, InflationError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
