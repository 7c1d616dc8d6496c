import math

import numpy as np
import pytest

from gblab.illposedness import (
    InflationConfig,
    InflationError,
    a2_lower_bound,
    check_cond_n,
    inflation_sweep,
    make_phi,
    report_to_json,
    scan_cond_n,
    write_plot_data,
    write_report_csv,
)
from gblab.lattice import SpectralField, make_lattice
from gblab.norms import h_norm
from gblab.solver import a2_iterate


class TestMakePhi:
    def test_torus_two_modes(self):
        phi = make_phi(1.0, 5.0, "torus")
        lat = phi.lattice
        assert phi.coeff[lat.index_of(5.0)] == 1.0
        assert phi.coeff[lat.index_of(6.0)] == 1.0
        assert np.count_nonzero(phi.coeff) == 2

    def test_sobolev_asymptotics(self):
        # two unit modes at N, N + 1/lam: norm ~ sqrt(2) lam^-1/2 N^s
        for lam, N in [(1.0, 16.0), (4.0, 64.0)]:
            for s in (-0.75, -0.5):
                phi = make_phi(lam, N)
                approx = math.sqrt(2.0 / lam) * N**s
                assert h_norm(phi, s) == pytest.approx(approx, rel=0.05)

    def test_rejects_beyond_truncation(self):
        with pytest.raises(InflationError):
            make_phi(2.0, 100.0, K=50.0)

    def test_line_variant_interval_mass(self):
        lam, N = 2.0, 8.0
        phi = make_phi(lam, N, "line")
        mass = np.sum(np.abs(phi.coeff) ** 2) / phi.lattice.lam
        assert mass == pytest.approx(0.2 / lam, rel=0.35)
        # each indicator interval holds at least two refined modes
        assert np.count_nonzero(phi.coeff) >= 4


class TestCondN:
    def test_negative_frequency_fails(self):
        ok, diag = check_cond_n(4.0, -1.0, 1.0)
        assert not ok and not diag["positive"]

    def test_scan_finds_smallest_passing(self):
        lam, t0, factor = 4.0, 1.0, 100.0
        ns = scan_cond_n(lam, t0, 10000.0, factor, count=6)
        assert ns == sorted(ns)
        first = ns[0]
        # everything below the scan's first hit fails one clause or the window
        j_first = int(round(first * lam))
        for j in range(max(1, j_first - 40), j_first):
            ok, d = check_cond_n(lam, j / lam, t0, factor)
            in_window = 0.75 * math.pi <= d["phase"] <= 1.25 * math.pi
            assert not (ok and in_window)

    def test_passing_oscillation_floor(self):
        ns = scan_cond_n(2.0, 1.0, 500.0, 100.0, count=8)
        for N in ns:
            ok, diag = check_cond_n(2.0, N, 1.0, 100.0)
            assert ok
            assert diag["osc_factor"] >= math.sqrt(2.0) - 1e-12

    @pytest.mark.parametrize("K, expected", [
        (64.0, [9.5, 10.75, 34.75, 35.0, 40.75, 63.5]),
        (256.0, [9.5, 15.5, 34.75, 40.75, 135.25, 241.75]),
        # a target snapped to the band's top edge K/2 takes the first
        # admissible N above it, where 2N leaves the truncation
        (128.0, [9.5, 15.5, 34.75, 64.25, 65.75, 116.0]),
        (192.0, [9.5, 15.5, 34.75, 110.0, 110.25, 191.5]),
    ])
    def test_sweep_scan_lists(self, K, expected):
        # the scan inflation_sweep runs (lam = 4, t0 = 1/2, factor 2)
        assert scan_cond_n(4.0, 0.5, K, 2.0, avoid_band=(K / 6.0, K / 2.0)) == expected

    def test_separation_clause(self):
        ok, diag = check_cond_n(4.0, 10.0, 1.0, factor=100.0)
        assert not diag["separation"]  # 2 N t0 = 20 < 400
        assert not ok


class TestA2LowerBound:
    def test_passing_triple(self):
        lam, t0 = 1.0, 1.0
        ns = scan_cond_n(lam, t0, 80.0, 100.0, count=3)
        value, bound, passed = a2_lower_bound(lam, ns[0], t0, -0.5)
        assert passed
        assert value >= bound

    def test_scaling_band_over_ten_triples(self):
        # value * N * lam^(1/2) confined to a narrow band across (lam, N)
        consts = []
        for lam, t0 in ((1.0, 1.0), (2.0, 1.0)):
            ns = scan_cond_n(lam, t0, 90.0 * lam, 100.0, count=5)
            for N in ns:
                value, _, passed = a2_lower_bound(lam, N, t0, -0.5)
                assert passed
                consts.append(value * N * math.sqrt(lam))
        assert len(consts) >= 10
        assert max(consts) / min(consts) < 5.0

    def test_line_variant_same_scaling(self):
        lam, t0 = 2.0, 1.0
        ns = scan_cond_n(lam, t0, 120.0, 100.0, count=2)
        consts = []
        for N in ns:
            value, _, _ = a2_lower_bound(lam, N, t0, -0.5, variant="line")
            consts.append(value * N * math.sqrt(lam))
        assert max(consts) / min(consts) < 5.0

    def test_cond_violation_raises(self):
        with pytest.raises(InflationError):
            a2_lower_bound(4.0, 3.0, 0.5, -0.5)  # separation fails at factor 100


def small_config(**kw):
    base = dict(
        s=-0.75,
        delta=0.01,
        lam=4.0,
        t0=0.5,
        K=48.0,
        cond_factor=2.0,
        report_s=(-0.5,),
    )
    base.update(kw)
    return InflationConfig(**base)


class TestInflationSweep:
    def test_second_iterate_bilinearity(self):
        lam, N, t0, delta = 4.0, 12.25, 0.5, 0.02
        phi = make_phi(lam, N, K=32.0)
        u0 = SpectralField(phi.lattice, delta * math.sqrt(N) * phi.coeff)
        direct = a2_iterate(u0, t0, lam).coeff
        scaled = delta**2 * N * a2_iterate(phi, t0, lam).coeff
        assert np.abs(direct - scaled).max() < 1e-12 * np.abs(scaled).max()

    def test_headline_small_scale(self):
        cfg = small_config(n_list=(9.5, 12.25, 15.5, 34.75, 40.75))
        report = inflation_sweep(cfg)
        assert report.verdict == "norm-inflation"
        m = report.metrics
        assert m["data_decay_factor"] > 1.3
        assert m["low_band_plateau"] < 1.3
        assert m["low_band_floor_const"] > 0.05
        for row in report.rows:
            assert row.error is None
            # free evolution preserves the data norm
            n = row.norms[cfg.s]
            assert n["free"] == pytest.approx(n["data"], rel=1e-12)
            # remainder proxy small relative to the second iterate
            assert row.w_proxy < 0.1 * row.norms[-0.5]["second"]

    def test_control_run_at_critical_s(self):
        cfg = small_config(s=-0.5, report_s=())
        report = inflation_sweep(cfg)
        assert report.verdict == "bounded"
        assert report.metrics["ratio_band"] < 2.0

    def test_delta_homogeneity(self):
        cfg1 = small_config(n_list=(12.25,))
        cfg2 = small_config(n_list=(12.25,), delta=0.005)
        r1 = inflation_sweep(cfg1).rows[0]
        r2 = inflation_sweep(cfg2).rows[0]
        s = -0.75
        assert r2.norms[s]["second"] == pytest.approx(
            r1.norms[s]["second"] / 4.0, rel=1e-9
        )
        assert r2.norms[s]["solution_low"] == pytest.approx(
            r1.norms[s]["solution_low"] / 4.0, rel=2e-2
        )

    def test_remainder_cubic_scaling_pure_cascade(self):
        # with the lam^-2 terms off and the doubled frequency truncated, the
        # remainder is third order in the data size
        ws = []
        for delta in (0.02, 0.01):
            cfg = small_config(
                n_list=(34.75,), delta=delta, include_linear=False,
                dt_cap=1.5e-3, contraction_tol=1e-12,
            )
            row = inflation_sweep(cfg).rows[0]
            ws.append(row.w_full)
        assert math.log2(ws[0] / ws[1]) > 2.9

    def test_divergent_row_retained(self):
        cfg = small_config(n_list=(12.25,), delta=60.0, max_picard=12)
        report = inflation_sweep(cfg)
        row = report.rows[0]
        assert row.error is not None
        assert "contraction" in row.error or "convergence" in row.error
        assert row.norms[-0.75]["data"] > 0  # partial data retained

    def test_invalid_configs(self):
        with pytest.raises(InflationError):
            small_config(delta=-1.0)
        with pytest.raises(InflationError):
            small_config(t0=2.0)
        with pytest.raises(InflationError):
            small_config(n_list=(3.0,), cond_factor=100.0)

    def test_report_serialization(self, tmp_path):
        cfg = small_config(n_list=(12.25, 15.5))
        report = inflation_sweep(cfg)
        payload = report_to_json(report)
        assert "norm-inflation" in payload or "no-inflation" in payload
        csv_path = tmp_path / "rows.csv"
        write_report_csv(report, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("N,data,free,second,solution")
        tsv = tmp_path / "plot.tsv"
        write_plot_data(report, tsv)
        assert len(tsv.read_text().strip().splitlines()) == 3
