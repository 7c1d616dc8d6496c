"""Tests of the benchmark itself: every correctness check passes on a real
(small) output of the program and reports a problem once that output is
deliberately corrupted; the trace reader's self-time arithmetic is right on
a hand-built span tree.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import copy
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times, totals_by_name  # noqa: E402

# ------------------------------------------------------------------- spans


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "solver.picard_solve", 1.0, 4.0),
        Span(2, 1, "solver.nonlinearity_rows", 1.5, 2.0),
        Span(3, 1, "solver.nonlinearity_rows", 2.5, 3.5),
        Span(4, 0, "solver.picard_solve", 5.0, 9.0),
        Span(5, 4, "solver.integral_residual", 6.0, 8.0),
        Span(6, 5, "solver.nonlinearity_rows", 6.5, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 0.5, 3: 1.0, 4: 2.0, 5: 1.5, 6: 0.5})
    totals = totals_by_name(spans)
    assert totals["solver.picard_solve"] == pytest.approx({"calls": 2, "s": 7.0, "self_s": 3.5})
    assert totals["solver.nonlinearity_rows"]["calls"] == 3
    assert totals["solver.nonlinearity_rows"]["s"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "a", 0.0, 4.0),
        Span(1, 0, "b", 1.0, 3.0),
        Span(2, 0, "c", 2.0, 3.5),
    ]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_and_restores_bindings():
    import gblab.solver

    original = gblab.solver.nonlinearity_rows
    tracer = Tracer("test")
    tracer.wrap_function("gblab", "solver", "nonlinearity_rows")
    tracer.wrap_function("gblab", "reduction", "omega_multiplier")
    try:
        lattice = gblab.make_lattice(2.0, 2.0)
        with tracer.span("outer"):
            gblab.solver.nonlinearity_rows(np.ones((3, lattice.modes), complex), lattice, 2.0)
    finally:
        tracer.uninstall()
    assert gblab.solver.nonlinearity_rows is original
    names = [(sp.name, sp.parent) for sp in tracer.spans]
    assert names == [("outer", None), ("solver.nonlinearity_rows", 0), ("reduction.omega_multiplier", 1)]


# --------------------------------------------------------------- inflation


@pytest.fixture(scope="module")
def inflation_report(tmp_path_factory):
    from gblab import cli

    work = tmp_path_factory.mktemp("inflation")
    wl = workloads.Inflation(3, work)
    assert cli.main(["inflate", "--config", str(wl.config), "--out-dir", str(work / "out")]) == 0
    return wl, workloads.Inflation.report(work / "out")


def _inflation_problems(wl, report):
    return checks.check_inflation(report, wl.delta, wl.LAM, wl.T0, wl.S)


def test_inflation_checks_pass_on_program_output(inflation_report):
    wl, report = inflation_report
    assert _inflation_problems(wl, report) == []


@pytest.mark.parametrize("field", ["data", "free", "second"])
def test_inflation_scaled_norm_is_incorrect(inflation_report, field):
    wl, report = inflation_report
    bad = copy.deepcopy(report)
    bad["rows"][2]["norms"]["-0.5"][field] *= 1.0 + 1e-6
    assert any(field in p or "free" in p for p in _inflation_problems(wl, bad))


def test_inflation_non_monotone_data_is_incorrect(inflation_report):
    wl, report = inflation_report
    bad = copy.deepcopy(report)
    bad["rows"][0], bad["rows"][1] = bad["rows"][1], bad["rows"][0]
    assert any("monotonically" in p for p in _inflation_problems(wl, bad))


def test_inflation_low_band_and_verdict(inflation_report):
    wl, report = inflation_report
    bad = copy.deepcopy(report)
    for row in bad["rows"]:
        row["norms"]["-0.75"]["solution_low"] = 0.0
    bad["verdict"] = "no-inflation"
    problems = _inflation_problems(wl, bad)
    assert any("low band" in p for p in problems)
    assert any("verdict" in p for p in problems)


# ---------------------------------------------------------------- counting


@pytest.fixture(scope="module")
def counting_rows(tmp_path_factory):
    from gblab import cli

    work = tmp_path_factory.mktemp("counting")
    wl = workloads.Counting(5, work)
    rc = cli.main(["verify", "--suite", "counting", "--config", str(wl.config),
                   "--seed", "5", "--out-dir", str(work / "out")])
    assert rc == 0
    return workloads.Counting.rows(work / "out")


def test_counting_checks_pass_on_program_output(counting_rows):
    assert checks.check_counting(counting_rows, 5) == []


def test_counting_shifted_witness_value_is_incorrect(counting_rows):
    bad = copy.deepcopy(counting_rows)
    i = next(i for i, r in enumerate(bad) if r["lemma"] == "RB2" and r["side"] == "complement")
    bad[i]["sup_value"] *= 1.001
    bad[i]["ratio"] = bad[i]["sup_value"] / bad[i]["bound"]
    assert any("witness" in p for p in checks.check_counting(bad, 5))


def test_counting_moved_witness_point_is_incorrect(counting_rows):
    bad = copy.deepcopy(counting_rows)
    i = next(i for i, r in enumerate(bad) if r["lemma"] == "RB1" and r["side"] == "complement")
    bad[i]["witness_tau"] += 1000.0
    assert any("witness" in p for p in checks.check_counting(bad, 5))


def test_counting_ratio_spread_and_trend(counting_rows):
    bad = copy.deepcopy(counting_rows)
    for r in bad:
        r["ratio"] *= r["M1"] * r["M2"] * r["lambda"] ** 2
    problems = checks.check_counting(bad, 5, n_points=0)
    assert any("max/median" in p for p in problems)
    assert any("Kendall" in p for p in problems)


def test_counting_halving_is_checked(counting_rows):
    bad = copy.deepcopy(counting_rows)
    for r in bad:
        if r["side"] == "exceptional":
            r["sup_value"] = r["bound"] * r["lambda"]  # no longer halves
    assert any("halve" in p for p in checks.check_counting(bad, 5, n_points=0))


def test_brute_cell_matches_cell_measure_off_the_samples():
    from gblab.resonance import CountingCase, cell_measure

    rng = np.random.default_rng(0)
    for lemma in ("RB1", "RB2", "DRB1", "DRB2"):
        for side in ("complement", "exceptional"):
            case = CountingCase(lemma, side, 2.0, 4.0, 4.0)
            for _ in range(20):
                tau = float(rng.uniform(-60.0, 10.0))
                k = float(rng.integers(1, 12)) / 4.0
                lo, hi = checks.brute_range(lemma, side, 2.0, 4.0, 4.0, tau, k)
                assert lo - 1e-9 <= cell_measure(case, tau, k) <= hi + 1e-9


# ---------------------------------------------------------------- bilinear

SMALL_LAMBDAS = (4.0, 8.0, 16.0)


@pytest.fixture(scope="module")
def bilinear_sweeps():
    from gblab.bilinear_probe import slope_sweep

    return [slope_sweep(kind, -0.5, SMALL_LAMBDAS, gen, 1, 9) for kind, gen in workloads.Bilinear.SWEEPS]


def test_bilinear_checks_pass_on_program_output(bilinear_sweeps):
    assert checks.check_bilinear(bilinear_sweeps, 9, -0.5) == []


@pytest.mark.parametrize("index", [0, 1, 2])
def test_bilinear_scaled_first_ratio_is_incorrect(bilinear_sweeps, index):
    bad = copy.deepcopy(bilinear_sweeps)
    sw = bad[index]
    sw["ratios"][0][0] *= 1.0 + 1e-6
    sw["max_ratios"] = [max(r) for r in sw["ratios"]]
    sw["slope"] = checks.ls_slope(sw["lambdas"], sw["max_ratios"])
    assert any("first-trial ratio" in p for p in checks.check_bilinear(bad, 9, -0.5))


def test_bilinear_cross_slope_out_of_range(bilinear_sweeps):
    bad = copy.deepcopy(bilinear_sweeps)
    sw = bad[0]
    sw["max_ratios"] = [m * lam for m, lam in zip(sw["max_ratios"], sw["lambdas"])]
    sw["ratios"] = [[m] for m in sw["max_ratios"]]
    sw["slope"] = checks.ls_slope(sw["lambdas"], sw["max_ratios"])
    assert any("cross-term slope" in p for p in checks.check_bilinear(bad, 9, -0.5))


def test_bilinear_inconsistent_slope_is_incorrect(bilinear_sweeps):
    bad = copy.deepcopy(bilinear_sweeps)
    bad[1]["slope"] += 0.01
    assert any("reported slope" in p for p in checks.check_bilinear(bad, 9, -0.5))


def test_direct_image_detects_asymmetric_operator(monkeypatch, bilinear_sweeps):
    import gblab.bilinear_probe as bp

    real = bp.bilinear_image

    def lopsided(u, v, kind):
        out = real(u, v, kind)
        return out.with_coeff(out.coeff * (1.0 + 1e-3 * (np.abs(u.coeff).sum() > np.abs(v.coeff).sum())))

    monkeypatch.setattr(bp, "bilinear_image", lopsided)
    assert any("swapped" in p for p in checks.check_bilinear(bilinear_sweeps, 9, -0.5))


def test_w_norm_matches_program_definition():
    from gblab.norms import ws_norm

    for kind, gen in workloads.Bilinear.SWEEPS:
        u, _ = checks.first_trial_pair(kind, gen, -0.5, 4.0, 1)
        mine = checks.w_norm_minus_half(u.coeff, u.tau, u.lattice.k, 4.0)
        assert mine == pytest.approx(ws_norm(u, -0.5), rel=1e-12)


# ------------------------------------------------------------------- solve


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    from gblab import cli

    work = tmp_path_factory.mktemp("solve")
    wl = workloads.Solve(4, work)
    assert cli.main(["solve", "--config", str(wl.configs[0]), "--out-dir", str(work / "out")]) == 0
    return wl, work / "out" / "trajectory.spec"


def _solve_problems(wl, path):
    return checks.check_solve(path, wl.data[0], wl.LAM, wl.K, wl.T, wl.DT)


def _corrupt(path, tmp_path, row, mode, delta):
    raw = bytearray(path.read_bytes())
    header = struct.calcsize("<ddQQ")
    modes = struct.unpack_from("<ddQQ", raw)[2]
    offset = header + 16 * (row * modes + mode)
    re_part = struct.unpack_from("<d", raw, offset)[0]
    struct.pack_into("<d", raw, offset, re_part + delta)
    out = tmp_path / "bad.spec"
    out.write_bytes(bytes(raw))
    return out


def test_solve_checks_pass_on_program_output(solve_run):
    wl, path = solve_run
    assert _solve_problems(wl, path) == []


def test_solve_perturbed_zero_mode_is_incorrect(solve_run, tmp_path):
    wl, path = solve_run
    half = math.ceil(wl.K * wl.LAM)
    bad = _corrupt(path, tmp_path, 50, half, 1e-9)
    assert any("zero mode" in p for p in _solve_problems(wl, bad))


def test_solve_perturbed_endpoint_is_incorrect(solve_run, tmp_path):
    wl, path = solve_run
    rows = int(round(wl.T / wl.DT)) + 1
    bad = _corrupt(path, tmp_path, rows - 1, 70, 1e-6)
    assert any("RK4" in p for p in _solve_problems(wl, bad))


def test_solve_wrong_start_is_incorrect(solve_run, tmp_path):
    wl, path = solve_run
    bad = _corrupt(path, tmp_path, 0, 3, 1e-12)
    assert any("start at the data" in p for p in _solve_problems(wl, bad))


def test_solve_truncated_dump_is_incorrect(solve_run, tmp_path):
    wl, path = solve_run
    bad = tmp_path / "short.spec"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 24, 7)  # row count in the header
    bad.write_bytes(bytes(raw[: struct.calcsize("<ddQQ") + 16 * 7 * 129]))
    assert any("header" in p for p in _solve_problems(wl, bad))
