"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line with its measured figure.  Run with -s to see the lines.

The heavy grids (counting sweep, inflation run) are computed once per session
and shared between the criteria that consume them.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from gblab.bilinear_probe import slope_sweep
from gblab.illposedness import (
    InflationConfig,
    a2_lower_bound,
    inflation_sweep,
    scan_cond_n,
)
from gblab.lattice import (
    SpacetimeSpectrum,
    SpectralField,
    make_lattice,
    make_tau_grid,
)
from gblab.norms import h_norm, xsb_norm, ys_norm, ws_norm
from gblab.reduction import (
    GBState,
    gb_to_qnls,
    qnls_to_gb,
    rescale_data,
    rescaled_norm_sq_identity,
)
from gblab.resonance import (
    CountingCase,
    SweepSampler,
    _batched_values,
    cell_measure,
    dual_case,
    sup_sweep,
)
from gblab.solver import (
    SolverConfig,
    _a2_closed_form,
    _a2_quadrature,
    a2_iterate,
    picard_solve,
    reference_solve,
)

DYADIC = [2.0**i for i in range(7)]  # 1 .. 64
LAMBDAS = (1.0, 2.0, 4.0, 8.0)


def report(name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_reduction_round_trip():
    start = time.monotonic()
    lat = make_lattice(1.0, 16.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        raw0 = rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        raw1 = rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        v0 = SpectralField(lat, (raw0 + np.conj(raw0[::-1])) / 2)
        v1 = SpectralField(lat, (raw1 + np.conj(raw1[::-1])) / 2)
        state = GBState(v0, v1)
        u = gb_to_qnls(state)
        back = qnls_to_gb(u)
        again = gb_to_qnls(back)
        scale = max(np.abs(u.coeff).max(), 1.0)
        worst = max(
            worst,
            np.abs(back.v0.coeff - v0.coeff).max() / scale,
            np.abs(back.v1.coeff - v1.coeff).max() / scale,
            np.abs(again.coeff - u.coeff).max() / scale,
        )
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (reduction round trip)",
        worst < 1e-12 and elapsed < 1.0,
        f"max error {worst:.2e} over 1000 states in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_rescaling_bound():
    lat = make_lattice(1.0, 8.0)
    rng = np.random.default_rng(2)
    violations = 0
    worst_identity = 0.0
    for _ in range(200):
        u0 = SpectralField(
            lat, rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        )
        for s in (-0.5, -0.4, -0.3):
            for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
                _, rep = rescale_data(u0, lam, s)
                if not rep.bound_holds:
                    violations += 1
                identity = rescaled_norm_sq_identity(u0, lam, s)
                worst_identity = max(
                    worst_identity,
                    abs(rep.norm_rescaled**2 - identity) / identity,
                )
    report(
        "criterion 2 (rescaling bound)",
        violations == 0 and worst_identity < 1e-12,
        f"{violations} violations, identity defect {worst_identity:.2e}",
    )


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_second_iterate_dual_path():
    start = time.monotonic()
    lat = make_lattice(1.0, 64.0)
    rng = np.random.default_rng(3)
    t0 = 0.015
    worst = 0.0
    for _ in range(50):
        phi = SpectralField(
            lat, rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        )
        closed = _a2_closed_form(phi, t0, 1.0)
        quad = _a2_quadrature(phi, t0, 1.0)
        worst = max(worst, np.linalg.norm(closed - quad) / np.linalg.norm(closed))
    # the concentrated two-mode profile, checked at several heights
    from gblab.illposedness import make_phi

    for lam, N in ((1.0, 40.0), (4.0, 60.0)):
        phi = make_phi(lam, N, K=64.0)
        closed = _a2_closed_form(phi, 0.8, lam)
        quad = _a2_quadrature(phi, 0.8, lam)
        worst = max(worst, np.linalg.norm(closed - quad) / np.linalg.norm(closed))
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (second-iterate dual path)",
        worst < 1e-8 and elapsed < 10.0,
        f"worst rel l2 {worst:.2e} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_second_iterate_lower_bound():
    consts = []
    for lam, t0 in ((1.0, 1.0), (2.0, 1.0)):
        for N in scan_cond_n(lam, t0, 90.0 * lam, 100.0, count=6):
            value, _, passed = a2_lower_bound(lam, N, t0, -0.5)
            assert passed
            consts.append(value * N * math.sqrt(lam))
    band = max(consts) / min(consts)
    report(
        "criterion 4 (second-iterate lower bound)",
        len(consts) >= 10 and band <= 5.0,
        f"{len(consts)} triples, scaled constants in "
        f"[{min(consts):.4f}, {max(consts):.4f}], band {band:.2f}",
    )


# ---------------------------------------------------------------- criterion 5
@pytest.fixture(scope="module")
def inflation_run():
    start = time.monotonic()
    cfg = InflationConfig(
        s=-0.75,
        delta=0.01,
        lam=4.0,
        t0=0.5,
        K=256.0,
        cond_factor=2.0,
        report_s=(-0.5,),
    )
    rep = inflation_sweep(cfg)
    return rep, time.monotonic() - start


def test_criterion_5_norm_inflation(inflation_run):
    rep, elapsed = inflation_run
    good = [r for r in rep.rows if r.error is None]
    assert len(good) >= 6
    data = [r.norms[-0.75]["data"] for r in good]
    low = [r.norms[-0.75]["solution_low"] for r in good]
    decay = data[0] / data[-1]
    plateau = max(low) / min(low) - 1.0
    ratios = [r.norms[-0.5]["solution"] / r.norms[-0.5]["data"] for r in good]
    control_band = max(ratios) / min(ratios)
    ok = (
        decay >= 2.0
        and plateau < 0.30
        and control_band < 2.0
        and rep.verdict == "norm-inflation"
        and elapsed < 300.0
    )
    report(
        "criterion 5 (norm inflation at desk scale)",
        ok,
        f"data drop {decay:.2f}x, inflation-band plateau {100*plateau:.1f}%, "
        f"critical-regularity ratio band {control_band:.3f}, "
        f"verdict {rep.verdict}, {elapsed:.0f}s",
    )


# ------------------------------------------------------- criteria 6 and 7
@pytest.fixture(scope="module")
def counting_results():
    start = time.monotonic()
    sampler = SweepSampler(n_random=20_000, seed=7)
    results = []
    for lemma in ("RB1", "RB2", "DRB1", "DRB2"):
        for side in ("complement", "exceptional"):
            for lam in LAMBDAS:
                for M1 in DYADIC:
                    for M2 in DYADIC:
                        results.append(
                            sup_sweep(CountingCase(lemma, side, M1, M2, lam), sampler)
                        )
    return results, time.monotonic() - start


def test_criterion_6_counting_estimates(counting_results):
    results, elapsed = counting_results
    ratios = np.array([r.ratio for r in results])
    mm = np.array([r.case.M1 * r.case.M2 for r in results])
    ll = np.array([r.case.lam for r in results])
    spread = float(ratios.max() / np.median(ratios))
    tau_m = float(kendalltau(mm, ratios).statistic)
    tau_l = float(kendalltau(ll, ratios).statistic)
    # duality identities: the sweep evaluator on the mirrored lemma matches
    # the partner enumerated k1 by k1, to rounding (point-wise values)
    rng = np.random.default_rng(6)
    worst_dual = 0.0
    for lemma in ("DRB1", "DRB2"):
        for side in ("complement", "exceptional"):
            for M1, M2, lam in ((8.0, 4.0, 2.0), (16.0, 64.0, 4.0)):
                case = CountingCase(lemma, side, M1, M2, lam)
                partner = dual_case(case)
                for _ in range(20):
                    tau = float(rng.uniform(-80.0, 5.0))
                    k = float(rng.integers(1, 9)) / lam
                    a = float(_batched_values(case, np.array([tau]), k)[0])
                    b = cell_measure(partner, tau, k)
                    worst_dual = max(worst_dual, abs(a - b) / max(1.0, abs(b)))
    ok = (
        spread < 10.0
        and abs(tau_m) < 0.3
        and abs(tau_l) < 0.3
        and worst_dual <= 1e-12
        and elapsed < 600.0
    )
    report(
        "criterion 6 (counting estimates)",
        ok,
        f"max/median {spread:.2f}, kendall vs M {tau_m:+.3f}, vs lambda {tau_l:+.3f}, "
        f"duality defect {worst_dual:.1e}, {elapsed:.0f}s",
    )


def test_criterion_7_exceptional_lambda_scaling(counting_results):
    results, _ = counting_results
    by_case = {
        (r.case.lemma, r.case.lam, r.case.M1, r.case.M2): r.sup_value
        for r in results
        if r.case.side == "exceptional"
    }
    factors = []
    for (lemma, lam, M1, M2), v in by_case.items():
        nxt = by_case.get((lemma, 2 * lam, M1, M2))
        if nxt is not None and v > 0:
            factors.append(nxt / v)
    med = float(np.median(factors))
    report(
        "criterion 7 (exceptional-set lambda scaling)",
        0.4 <= med <= 0.6,
        f"median halving factor {med:.3f} over {len(factors)} doublings",
    )


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_embedding_suite():
    thetas = (0.25, 0.5, 0.75)
    lambdas = (1.0, 2.0, 4.0, 8.0, 16.0)
    n_fields = 500
    worst_growth = 0.0
    for s in (-0.5, -0.25):
        consts = {
            (name, theta): []
            for name in ("x_s1", "mixed", "xs0", "ys")
            for theta in thetas
        }
        for lam in lambdas:
            lattice = make_lattice(lam, 4.0)
            tau = make_tau_grid(80.0, 0.5)
            k = lattice.k
            mod = np.sqrt(1.0 + (tau[:, None] + (k * k)[None, :]) ** 2)
            rng = np.random.default_rng(8)
            cell = {key: 0.0 for key in consts}
            for _ in range(n_fields):
                a = rng.uniform(0.2, 1.2)
                b = rng.uniform(0.4, 1.2)
                env = (1.0 + k**2)[None, :] ** (-a / 2.0) * mod ** (-b)
                c = (
                    rng.standard_normal(mod.shape)
                    + 1j * rng.standard_normal(mod.shape)
                ) * env
                u = SpacetimeSpectrum(lattice, tau, c)
                w = ws_norm(u, s)
                x_s1 = xsb_norm(u, s, 1.0)
                x_s0 = xsb_norm(u, s, 0.0)
                y = ys_norm(u, s)
                for theta in thetas:
                    mixed = xsb_norm(u, s + theta, 1.0 - theta) + y
                    cell[("mixed", theta)] = max(cell[("mixed", theta)], w / mixed)
                for theta in thetas:
                    cell[("x_s1", theta)] = max(cell[("x_s1", theta)], w / x_s1)
                    cell[("xs0", theta)] = max(cell[("xs0", theta)], x_s0 / w)
                    cell[("ys", theta)] = max(cell[("ys", theta)], y / w)
            for key in consts:
                consts[key].append(cell[key])
        for key, values in consts.items():
            for i in range(len(values) - 1):
                worst_growth = max(worst_growth, values[i + 1] / values[i])
    report(
        "criterion 8 (embedding suite)",
        worst_growth < 1.10,
        f"worst per-doubling constant growth {worst_growth:.4f}",
    )


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_bilinear_slopes():
    lams = (4.0, 16.0, 64.0)
    adv = slope_sweep("u vbar", -0.5, lams, "adversarial-omega4", n_trials=3)
    uv = slope_sweep("u v", -0.5, lams, "random", n_trials=3)
    uu = slope_sweep("ubar vbar", -0.5, lams, "random", n_trials=3)
    ok = (
        0.0 <= adv["slope"] <= 0.7
        and -0.2 <= uv["slope"] <= 0.2
        and -0.2 <= uu["slope"] <= 0.2
    )
    report(
        "criterion 9 (bilinear loss slopes)",
        ok,
        f"cross-kind slope {adv['slope']:+.3f} (expect ~ +0.5), "
        f"plain {uv['slope']:+.3f}, double-conjugate {uu['slope']:+.3f}",
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_solver_oracle():
    lat = make_lattice(2.0, 4.0)
    from gblab.lattice import field_from_modes

    u0 = field_from_modes(lat, {0.5: 0.05, -1.0: 0.02j, 2.0: 0.01})
    cfg = SolverConfig(lam=2.0, s=-0.5, T=0.5, dt=1e-3, contraction_tol=1e-12)
    res = picard_solve(u0, cfg)
    ref = reference_solve(u0, cfg)
    i = res.trajectory.index_of_time(0.5)
    w = (1 + lat.k**2) ** -0.5
    err = math.sqrt(float(np.sum(w * np.abs(res.trajectory.coeff[i] - ref.coeff[i]) ** 2)) / 2.0)
    rel = err / h_norm(ref.field_at(i), -0.5)
    # convergence order of the reference integrator
    lat1 = make_lattice(1.0, 4.0)
    u1 = field_from_modes(lat1, {1.0: 0.4, -2.0: 0.3j, 0.0: 0.2})
    ends = {}
    for dt in (1e-2, 5e-3, 2.5e-3):
        c = SolverConfig(lam=1.0, s=-0.5, T=0.4, dt=dt)
        traj = reference_solve(u1, c)
        ends[dt] = traj.coeff[traj.index_of_time(0.4)]
    e1 = np.abs(ends[1e-2] - ends[5e-3]).max()
    e2 = np.abs(ends[5e-3] - ends[2.5e-3]).max()
    order = math.log2(e1 / e2)
    report(
        "criterion 10 (solver oracle agreement)",
        rel < 1e-6 and order >= 4.7,
        f"endpoint rel err {rel:.2e}, measured order {order:.2f}",
    )


# --------------------------------------------------------------- criterion 11
def test_criterion_11_determinism(tmp_path):
    from gblab.cli import main

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[counting]\nlambdas = 1,2\nm_cap = 4\nn_random = 2000\n"
        "[inflate]\nlam = 4.0\nt0 = 0.5\nk = 48.0\ncond_factor = 2.0\n"
        "n_list = 9.5, 15.5\ndelta = 0.01\ns = -0.75\n"
    )
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["verify", "--suite", "counting", "--config", str(cfg),
              "--seed", "3", "--out-dir", str(out / "v")])
        main(["inflate", "--config", str(cfg), "--seed", "3",
              "--out-dir", str(out / "i")])
        import json

        manifests = b""
        for sub in ("v", "i"):
            m = json.loads((out / sub / "manifest.json").read_text())
            m.pop("wall_time_s")
            manifests += json.dumps(m, sort_keys=True).encode()
        blobs.append(
            (out / "v" / "counting.csv").read_bytes()
            + (out / "i" / "inflation.csv").read_bytes()
            + (out / "i" / "inflation.json").read_bytes()
            + (out / "i" / "inflation_plot.tsv").read_bytes()
            + manifests
        )
    report(
        "criterion 11 (determinism)",
        blobs[0] == blobs[1],
        "re-run outputs byte-identical (manifest compared without wall time)",
    )
