import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gblab
from gblab.illposedness import make_phi
from gblab.lattice import (
    LatticeError,
    SpectralField,
    field_from_modes,
    make_lattice,
    pad_size,
    zero_field,
)
from gblab.norms import bump_psi, h_norm
from gblab.reduction import omega_multiplier
from gblab.solver import (
    _ROW_CHUNK,
    SolverConfig,
    StepSizeRejection,
    _a2_closed_form,
    _a2_quadrature,
    _phase_block,
    _picard_map,
    _prefix_integrals,
    _sup_hs,
    _windows,
    a2_iterate,
    free_evolve,
    integral_residual,
    nonlinearity_rows,
    phase_integral,
    picard_solve,
    reference_solve,
    simpson_weights,
    time_grid,
)

from conftest import random_field

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def brute_force_product_spectrum(f_coeff, g_coeff, lattice):
    """O(n^2) truncated convolution oracle for F(f*g) with the 1/(sqrt(2pi) lam)
    normalization; independent of the FFT path."""
    J = lattice.half_modes
    out = np.zeros(lattice.modes, dtype=complex)
    for j in range(-J, J + 1):
        acc = 0.0 + 0.0j
        for j1 in range(max(-J, j - J), min(J, j + J) + 1):
            acc += f_coeff[j1 + J] * g_coeff[j - j1 + J]
        out[j + J] = acc
    return out / (SQRT_TWO_PI * lattice.lam)


def nonlinearity_oracle(u, lattice, lam, include_linear=True, include_quadratic=True):
    """F(u) on one spectrum, its square through the convolution oracle."""
    mirror = np.conj(u[::-1])  # spectrum of conj(u)
    out = np.zeros(lattice.modes, dtype=complex)
    if include_linear:
        out += (u - mirror) / (2.0 * lam * lam)
    if include_quadratic:
        w = u + mirror
        out -= 0.25 * omega_multiplier(lattice, lam) * brute_force_product_spectrum(w, w, lattice)
    return out


class TestBump:
    def test_plateau_and_support(self):
        assert bump_psi(0.0) == 1.0
        assert bump_psi(1.0) == 1.0
        assert bump_psi(-0.999) == 1.0
        assert bump_psi(2.0) == 0.0
        assert bump_psi(5.0) == 0.0
        assert 0.0 < bump_psi(1.5) < 1.0

    def test_between_indicators(self):
        t = np.linspace(-3, 3, 601)
        v = bump_psi(t)
        assert np.all(v >= (np.abs(t) <= 1.0) - 1e-15)
        assert np.all(v <= (np.abs(t) <= 2.0) + 1e-15)

    def test_smooth_at_junctions(self):
        eps = np.array([1e-3, 1e-4, 1e-5])
        assert np.all(np.abs(bump_psi(1.0 + eps) - 1.0) < 1e-5)
        assert np.all(bump_psi(2.0 - eps) < 1e-10)


class TestFreeEvolve:
    def test_t_zero_identity(self, small_lattice, rng):
        u = random_field(small_lattice, rng)
        assert np.array_equal(free_evolve(u, 0.0).coeff, u.coeff)

    def test_single_mode_phase(self):
        lat = make_lattice(2.0, 3.0)
        u = field_from_modes(lat, {1.5: 1.0})
        v = free_evolve(u, 0.7)
        assert v.coeff[lat.index_of(1.5)] == pytest.approx(
            np.exp(-1j * 1.5**2 * 0.7), abs=1e-15
        )

    def test_group_law(self, small_lattice, rng):
        u = random_field(small_lattice, rng)
        a = free_evolve(free_evolve(u, 0.3), 0.45)
        b = free_evolve(u, 0.75)
        assert np.abs(a.coeff - b.coeff).max() < 1e-12

    def test_hs_isometry(self, small_lattice, rng):
        u = random_field(small_lattice, rng)
        for s in (-0.75, -0.5, 0.0, 1.0):
            assert h_norm(free_evolve(u, 1.234), s) == pytest.approx(
                h_norm(u, s), rel=1e-12
            )


class TestNonlinearity:
    def test_real_field_kills_linear_term(self, rng):
        lat = make_lattice(2.0, 4.0)
        u = random_field(lat, rng, real_physical=True)
        full = nonlinearity_rows(u.coeff, lat, 2.0)
        quad = nonlinearity_rows(u.coeff, lat, 2.0, include_linear=False)
        assert np.abs(full - quad).max() < 1e-13

    def test_constant_mode(self):
        lat = make_lattice(2.0, 4.0)
        c = 1.0 + 2.0j
        u = field_from_modes(lat, {0.0: c})
        out = nonlinearity_rows(u.coeff, lat, 2.0)[0]
        # the square lands only on k=0 where the multiplier vanishes
        expected = (c - np.conj(c)) / (2 * 2.0**2)
        assert out[lat.index_of(0.0)] == pytest.approx(expected, abs=1e-14)
        assert np.abs(np.delete(out, lat.index_of(0.0))).max() < 1e-14

    # J = 6, then J = 5, 8, 13 and 21, where the pad is 3J + 1 itself and
    # the padded grid has no point to spare: 16, an odd 25, 40 and 64 points;
    # 300 rows in one call, more than a Picard window; lam below the
    # lattice's own is the line emulation's refined grid
    @pytest.mark.parametrize(
        "lattice_lam, K, lam, n_rows, include_linear, include_quadratic",
        [
            (2.0, 3.0, 2.0, 1, False, True),
            (1.0, 5.0, 1.0, 1, False, True),
            (1.0, 8.0, 1.0, 1, False, True),
            (1.0, 13.0, 1.0, 1, False, True),
            (1.0, 21.0, 1.0, 1, False, True),
            (1.0, 3.0, 1.0, 300, True, True),
            (8.0, 1.0, 2.0, 3, True, True),
            (2.0, 3.0, 2.0, 3, True, False),
        ],
        ids=["J6", "J5", "J8", "J13", "J21", "rows300", "line", "linear-only"],
    )
    def test_against_brute_force_convolution(
        self, rng, lattice_lam, K, lam, n_rows, include_linear, include_quadratic
    ):
        lat = make_lattice(lattice_lam, K)
        rows = np.array([random_field(lat, rng).coeff for _ in range(n_rows)])
        got = nonlinearity_rows(
            rows, lat, lam, include_linear=include_linear, include_quadratic=include_quadratic
        )
        for u, row in zip(rows, got):
            oracle = nonlinearity_oracle(u, lat, lam, include_linear, include_quadratic)
            assert np.abs(row - oracle).max() < 1e-12 * max(1.0, np.abs(oracle).max())

    def test_own_and_line_lam_on_one_lattice(self, rng):
        # the two lams need their own multipliers, in either order
        lat = make_lattice(8.0, 1.0)
        u = random_field(lat, rng).coeff
        for lam in (8.0, 2.0, 8.0):
            got = nonlinearity_rows(u, lat, lam)[0]
            oracle = nonlinearity_oracle(u, lat, lam)
            assert np.abs(got - oracle).max() < 1e-12 * max(1.0, np.abs(oracle).max())

    def test_two_mode_input_brute_force(self):
        lat = make_lattice(1.0, 6.0)
        u = field_from_modes(lat, {2.0: 1.0 + 0.5j, 3.0: -0.25})
        w = u.coeff + np.conj(u.coeff[::-1])
        oracle = -0.25 * omega_multiplier(lat) * brute_force_product_spectrum(w, w, lat)
        got = nonlinearity_rows(u.coeff, lat, 1.0, include_linear=False)[0]
        assert np.abs(got - oracle).max() < 1e-12


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [3, 5, 9, 11])
    def test_exact_on_cubics(self, n):
        h = 0.1
        x = np.arange(n) * h
        w = simpson_weights(n, h)
        for p in range(4):
            assert w @ x**p == pytest.approx(x[-1] ** (p + 1) / (p + 1), rel=1e-12, abs=1e-14)

    def test_rejects_even_or_short_counts(self):
        for n in (4, 1):
            with pytest.raises(ValueError):
                simpson_weights(n, 0.1)


class TestDuhamel:
    # the Duhamel rule: prefix integrals from the grid's first row, t = 0
    def test_zero_forcing(self, small_lattice):
        G = np.zeros((65, small_lattice.modes), dtype=complex)
        assert np.abs(_prefix_integrals(G, 1.0 / 64)).max() == 0.0

    def test_constant_rows(self, small_lattice, rng):
        g = random_field(small_lattice, rng).coeff
        t = np.arange(81) * 1e-2
        out = _prefix_integrals(np.tile(g, (t.size, 1)), 1e-2)
        assert np.abs(out - t[:, None] * g[None, :]).max() < 1e-12

    def test_oscillating_zero_mode_closed_form(self):
        theta = 3.7
        # 500 intervals (Simpson pairs only) and 499 (the odd-prefix end rule)
        for n_points in (501, 500):
            t = np.linspace(0.0, 1.0, n_points)
            out = _prefix_integrals(np.exp(1j * theta * t)[:, None], t[1])
            expected = (np.exp(1j * theta) - 1.0) / (1j * theta)
            assert out[-1, 0] == pytest.approx(expected, abs=1e-10)

    def test_fourth_order_convergence(self):
        theta = 5.0

        def value(n):
            t = np.linspace(0.0, 1.0, n + 1)
            return _prefix_integrals(np.exp(1j * theta * t)[:, None], 1.0 / n)[-1, 0]

        exact = (np.exp(1j * theta) - 1.0) / (1j * theta)
        errs = [abs(value(n) - exact) for n in (16, 32, 64)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.7


class TestPhaseIntegral:
    def test_matches_direct_formula(self):
        theta = np.array([-25.0, -1e-3, 0.0, 1e-12, 0.4, 300.0])
        t0 = 0.73
        got = phase_integral(theta, t0)
        for th, g in zip(theta, got):
            if abs(th) > 1e-8:
                exact = (np.exp(1j * th * t0) - 1.0) / (1j * th)
            else:
                exact = t0 + 0.5j * th * t0**2
            assert abs(g - exact) < 1e-12


class TestPicard:
    def test_zero_data(self):
        lat = make_lattice(2.0, 4.0)
        cfg = SolverConfig(lam=2.0, s=-0.5, T=0.5, dt=1e-2)
        res = picard_solve(zero_field(lat), cfg)
        assert np.abs(res.trajectory.coeff).max() == 0.0
        assert res.report.converged
        assert res.report.iterations == 1

    def test_tiny_data_contracts_geometrically(self):
        lat = make_lattice(4.0, 4.0)
        u0 = field_from_modes(lat, {1.0: 1e-2})
        cfg = SolverConfig(lam=4.0, s=-0.5, T=0.5, dt=2e-3)
        res = picard_solve(u0, cfg)
        assert res.report.converged
        assert all(r < 0.5 for r in res.report.ratios[1:])
        assert len(res.iterates) == 2

    def test_residual_bound(self):
        lat = make_lattice(4.0, 4.0)
        u0 = field_from_modes(lat, {1.0: 5e-2, -0.5: 2e-2j})
        cfg = SolverConfig(lam=4.0, s=-0.5, T=0.5, dt=2e-3, contraction_tol=1e-11)
        res = picard_solve(u0, cfg)
        assert res.report.converged
        assert res.report.residual < 10 * cfg.contraction_tol * h_norm(u0, -0.5)

    def test_residual_is_the_next_picard_difference(self):
        # the residual is |u - Phi(u)| for the map the loop iterates, so on
        # the first iterate it is the loop's second difference, bit for bit
        lat = make_lattice(4.0, 4.0)
        u0 = field_from_modes(lat, {1.0: 5e-2, -0.5: 2e-2j})
        cfg = SolverConfig(lam=4.0, s=-0.5, T=0.5, dt=2e-3)
        res = picard_solve(u0, cfg)
        assert integral_residual(res.iterates[0], u0, cfg) == res.report.diff_history[1]

    def test_odd_interval_counts(self):
        # 25 steps: the prefix sweep ends on an odd row, past its last Simpson pair
        lat = make_lattice(2.0, 4.0)
        u0 = field_from_modes(lat, {0.5: 0.05, -1.0: 0.02j})
        cfg = SolverConfig(lam=2.0, s=-0.5, T=0.25, dt=1e-2, contraction_tol=1e-12)
        res = picard_solve(u0, cfg)
        ref = reference_solve(u0, cfg)
        assert res.report.converged
        assert res.report.residual < 10 * cfg.contraction_tol * h_norm(u0, -0.5)
        for t in (0.24, 0.25):
            i = ref.index_of_time(t)
            assert np.abs(res.trajectory.coeff[i] - ref.coeff[i]).max() < 1e-8

    # intervals on both sides of one and two windows; C + 1 and 2C + 1 would
    # leave a last window of two rows
    @pytest.mark.parametrize(
        "intervals",
        [_ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, _ROW_CHUNK + 2,
         2 * _ROW_CHUNK - 1, 2 * _ROW_CHUNK + 1],
    )
    def test_windowed_map_matches_the_whole_grid(self, rng, intervals):
        lat = make_lattice(2.0, 4.0)
        dt = 2.0**-7
        cfg = SolverConfig(lam=2.0, s=-0.5, T=intervals * dt, dt=dt)
        t = time_grid(cfg)
        u0 = random_field(lat, rng)
        rows = np.array([random_field(lat, rng, scale=0.5).coeff for _ in t])
        windows = list(_windows(t.size))
        assert windows[0][0] == 0 and windows[-1][1] == t.size - 1
        assert all(a[1] == b[0] and b[0] % 2 == 0 for a, b in zip(windows, windows[1:]))
        assert all(0 < hi - lo <= _ROW_CHUNK for lo, hi in windows)
        assert windows[-1][1] - windows[-1][0] >= 2
        # oracle: F on every row, exact phases, one prefix rule over the grid
        phases = np.exp(1j * np.outer(t, lat.k**2))
        oracle = _prefix_integrals(nonlinearity_rows(rows, lat, cfg.lam) * phases, dt)
        oracle = (u0.coeff[None, :] - 1j * oracle) * np.conj(phases)
        got = np.full_like(rows, np.nan)
        sup = _picard_map(rows, u0, _phase_block(lat, dt), cfg, (got,))
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()
        assert sup == pytest.approx(_sup_hs(rows - oracle, lat, cfg), rel=1e-12)

    def test_peak_memory_matches_the_array_count(self):
        # picard_solve's docstring counts three rows x modes complex arrays
        # (the current iterate and the two kept ones) and a few windows of
        # scratch at its peak, measured at 3.05; a fresh process reads its
        # own high-water mark, since ru_maxrss of a child inherits the parent's
        if not Path("/proc/self/status").is_file():
            pytest.skip("needs /proc/self/status")
        script = textwrap.dedent(
            """
            import json
            from gblab.lattice import field_from_modes, make_lattice
            from gblab.solver import SolverConfig, picard_solve, time_grid

            def hwm():
                for line in open("/proc/self/status"):
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) * 1024

            lat = make_lattice(4.0, 64.0)
            u0 = field_from_modes(lat, {1.0: 1e-3, -0.5: 1e-3j, 3.0: 1e-3})
            # a small solve first, so FFT caches and the product plan count
            # in the baseline
            picard_solve(u0, SolverConfig(lam=4.0, s=-0.5, T=0.0032, dt=1e-4))
            cfg = SolverConfig(lam=4.0, s=-0.5, T=0.4096, dt=1e-4)
            base = hwm()
            res = picard_solve(u0, cfg)
            print(json.dumps({
                "array": time_grid(cfg).size * lat.modes * 16,
                "base": base,
                "peak": hwm(),
                "iterations": res.report.iterations,
            }))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gblab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        r = json.loads(proc.stdout)
        assert r["array"] >= 32 * 2**20
        assert r["iterations"] >= 3  # both kept iterates are alive during the map
        assert r["peak"] - r["base"] <= 3.5 * r["array"]

    def test_divergence_raises_with_history(self):
        from gblab.solver import PicardDivergenceError

        lat = make_lattice(1.0, 8.0)
        u0 = field_from_modes(lat, {1.0: 30.0, 2.0: 30.0})
        cfg = SolverConfig(lam=1.0, s=-0.5, T=1.0, dt=1e-2, max_picard=25)
        with pytest.raises(PicardDivergenceError) as exc:
            picard_solve(u0, cfg)
        assert len(exc.value.ratios) >= 3

    def test_matches_reference(self):
        lat = make_lattice(2.0, 4.0)
        u0 = field_from_modes(lat, {0.5: 0.05, -1.0: 0.02j})
        cfg = SolverConfig(lam=2.0, s=-0.5, T=0.5, dt=1e-3, contraction_tol=1e-12)
        res = picard_solve(u0, cfg)
        ref = reference_solve(u0, cfg)
        i = res.trajectory.index_of_time(0.5)
        diff = res.trajectory.coeff[i] - ref.coeff[i]
        rel = h_norm(ref.field_at(i), -0.5)
        err = math.sqrt(np.sum((1 + lat.k**2) ** -0.5 * np.abs(diff) ** 2) / lat.lam)
        assert err / rel < 1e-6


class TestSolverConfig:
    def test_rejects_an_interval_that_is_not_positive(self):
        # every solve grid starts at t = 0, so T is its length
        for T in (0.0, -0.25):
            with pytest.raises(LatticeError, match="T must be positive"):
                SolverConfig(lam=1.0, s=-0.5, T=T, dt=0.05)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rejects_a_step_that_is_not_positive(self, dt):
        with pytest.raises(LatticeError, match="dt must be positive"):
            SolverConfig(lam=1.0, s=-0.5, T=0.25, dt=dt)

    def test_rejects_an_infinite_interval_or_step(self):
        with pytest.raises(LatticeError, match="T must be finite"):
            SolverConfig(lam=1.0, s=-0.5, T=math.inf, dt=0.05)
        with pytest.raises(LatticeError, match="dt must be finite"):
            SolverConfig(lam=1.0, s=-0.5, T=0.25, dt=math.inf)


class TestReference:
    def test_zero_data(self):
        lat = make_lattice(1.0, 2.0)
        cfg = SolverConfig(lam=1.0, s=-0.5, T=0.25, dt=1e-2)
        traj = reference_solve(zero_field(lat), cfg)
        assert np.abs(traj.coeff).max() == 0.0

    def test_linear_problem_matches_free_evolution(self, rng):
        lat = make_lattice(1.0, 4.0)
        u0 = random_field(lat, rng, scale=0.1)
        cfg = SolverConfig(
            lam=1.0, s=-0.5, T=0.25, dt=5e-3,
            include_linear=False, include_quadratic=False,
        )
        traj = reference_solve(u0, cfg)
        i = traj.index_of_time(0.25)
        expected = free_evolve(u0, 0.25)
        assert np.abs(traj.coeff[i] - expected.coeff).max() < 1e-12

    def test_measured_convergence_order(self):
        lat = make_lattice(1.0, 4.0)
        u0 = field_from_modes(lat, {1.0: 0.4, -2.0: 0.3j, 0.0: 0.2})
        ends = {}
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = SolverConfig(lam=1.0, s=-0.5, T=0.4, dt=dt)
            traj = reference_solve(u0, cfg)
            ends[dt] = traj.coeff[traj.index_of_time(0.4)]
        e1 = np.abs(ends[1e-2] - ends[5e-3]).max()
        e2 = np.abs(ends[5e-3] - ends[2.5e-3]).max()
        assert math.log2(e1 / e2) > 4.7

    def test_step_guard_rejects_too_large_a_step(self):
        lat = make_lattice(2.0, 8.0)
        a = 32.0
        u0 = field_from_modes(lat, {1.0: a, -2.0: 0.5j * a, 3.0: 0.3 * a})
        with pytest.raises(StepSizeRejection):
            reference_solve(u0, SolverConfig(lam=2.0, s=-0.5, T=0.1, dt=1e-2))
        ends = []
        for dt in (5e-3, 2.5e-4):
            traj = reference_solve(u0, SolverConfig(lam=2.0, s=-0.5, T=0.1, dt=dt))
            ends.append(traj.coeff[traj.index_of_time(0.1)])
        assert np.abs(ends[0] - ends[1]).max() < 1e-9 * np.abs(ends[1]).max()

    def test_multiplier_built_once_per_lattice(self, monkeypatch):
        import gblab.solver

        built = []
        real = gblab.solver.omega_multiplier

        def counted(lattice, lam=None):
            built.append((lattice.half_modes, lattice.lam, lam))
            return real(lattice, lam)

        monkeypatch.setattr(gblab.solver, "omega_multiplier", counted)
        lat = make_lattice(3.0, 2.0)
        u0 = field_from_modes(lat, {1.0: 0.1, -1.0 / 3.0: 0.05j})
        for lam in (3.0, 1.5):  # the lattice's own lam, then the line emulation
            built.clear()
            reference_solve(u0, SolverConfig(lam=lam, s=-0.5, T=0.05, dt=5e-3))
            assert len(built) <= 1


class TestLinearTermNegligibility:
    def test_difference_scales_like_inverse_lambda_squared(self):
        # toggling the lam^-2 linear terms moves the solution by O(lam^-2)
        consts = []
        for lam in (4.0, 8.0, 16.0):
            lat = make_lattice(lam, 2.0)
            u0 = field_from_modes(lat, {1.0: 0.05, 1.0 + 1.0 / lam: 0.05})
            kw = dict(lam=lam, s=-0.5, T=0.5, dt=2.5e-3, contraction_tol=1e-12)
            on = picard_solve(u0, SolverConfig(**kw)).trajectory
            off = picard_solve(u0, SolverConfig(include_linear=False, **kw)).trajectory
            diff = on.coeff - off.coeff
            w = (1 + lat.k**2) ** -0.5
            sup = max(
                math.sqrt(np.sum(w * np.abs(row) ** 2) / lam) for row in diff
            )
            consts.append(sup * lam**2)
        top, bottom = max(consts), min(consts)
        assert top / bottom < 3.0


class TestA2Iterate:
    def test_zero_field(self):
        lat = make_lattice(4.0, 2.0)
        out = a2_iterate(zero_field(lat), 0.5, 4.0)
        assert np.abs(out.coeff).max() == 0.0

    def test_single_mode_annihilated(self):
        # self-interaction of u * conj(u) lands on k=0 where the multiplier dies
        lat = make_lattice(2.0, 4.0)
        out = a2_iterate(field_from_modes(lat, {2.0: 3.0}), 0.7, 2.0)
        assert np.abs(out.coeff).max() < 1e-15

    def test_two_mode_closed_form(self):
        # phi with unit modes at N, N+1/lam: output at 1/lam has the explicit
        # value (i/2) m(1/lam) e^{-i t0/lam^2} (1/(lam sqrt(2pi))) E(-2N/lam, t0)
        lam, N, t0 = 4.0, 8.0, 0.9
        lat = make_lattice(lam, 10.0)
        phi = field_from_modes(lat, {N: 1.0, N + 1 / lam: 1.0})
        out = a2_iterate(phi, t0, lam)
        k = 1 / lam
        m = (lam * k) ** 2 / (1 + (lam * k) ** 2)
        theta = -2.0 * N / lam
        expected = (
            0.5j
            * m
            * np.exp(-1j * k * k * t0)
            / (lam * SQRT_TWO_PI)
            * (np.exp(1j * theta * t0) - 1.0)
            / (1j * theta)
        )
        assert out.coeff[lat.index_of(k)] == pytest.approx(expected, rel=1e-12)
        # support is exactly {-1/lam, +1/lam}
        occupied = np.abs(out.coeff) > 1e-14
        assert occupied.sum() == 2

    def test_dual_paths_agree_on_random_fields(self, rng):
        lat = make_lattice(1.0, 8.0)
        for _ in range(3):
            phi = random_field(lat, rng)
            a2_iterate(phi, 0.3, 1.0)  # raises InternalConsistencyError on drift

    def test_quadrature_chunking(self, rng):
        # a chunk size that leaves a partial last chunk must not change the sum
        lat = make_lattice(2.0, 4.0)
        phi = random_field(lat, rng)
        closed = _a2_closed_form(phi, 0.4, 2.0)
        whole = _a2_quadrature(phi, 0.4, 2.0)
        chunked = _a2_quadrature(phi, 0.4, 2.0, chunk=7)
        assert np.linalg.norm(chunked - whole) <= 1e-12 * np.linalg.norm(whole)
        assert np.linalg.norm(whole - closed) <= 1e-8 * np.linalg.norm(closed)

    def test_quadrature_memory_scales_with_the_chunk(self):
        # the default inflate's largest profile, K = 256 and N = 241.75:
        # about 2000 quadrature rows on a pad of 3125 points
        import tracemalloc

        lam, t0 = 4.0, 0.5
        phi = make_phi(lam, 241.75, K=256.0)
        bound = 6 * _ROW_CHUNK * pad_size(phi.lattice.half_modes) * 16
        tracemalloc.start()
        try:
            _a2_quadrature(phi, t0, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_closed_form_matches_per_mode_loop(self, rng):
        def per_mode_loop(phi, t0, lam):
            # the sum over every lattice pair (k1, k1 - k), one output at a time
            lattice = phi.lattice
            J = lattice.half_modes
            k = lattice.k
            c = phi.coeff
            out = np.zeros(lattice.modes, dtype=np.complex128)
            for idx in range(lattice.modes):
                j = idx - J
                lo, hi = max(-J, -J + j), min(J, J + j)
                k1 = np.arange(lo, hi + 1) / lattice.lam
                a = c[lo + J : hi + J + 1]
                b = np.conj(c[lo - j + J : hi - j + J + 1])
                theta = 2.0 * k[idx] * (k[idx] - k1)
                out[idx] = np.sum(a * b * phase_integral(theta, t0))
            m = omega_multiplier(lattice, lam)
            out *= 0.5j * m * np.exp(-1j * k * k * t0) / (lattice.lam * SQRT_TWO_PI)
            return out

        lam, t0 = 4.0, 0.5
        for phi in (make_phi(lam, 34.75, K=64.0), make_phi(lam, 10.75, "line")):
            assert np.array_equal(_a2_closed_form(phi, t0, lam), per_mode_loop(phi, t0, lam))
        lat = make_lattice(lam, 8.0)
        dense = random_field(lat, rng)
        sparse = np.zeros(lat.modes, dtype=complex)
        # both ends +-J populated, so pairs with |k_a - k_b| > K must drop out
        picks = np.concatenate(([0, lat.modes - 1], rng.choice(lat.modes, 6, replace=False)))
        sparse[picks] = rng.standard_normal(picks.size) + 1j * rng.standard_normal(picks.size)
        for phi in (dense, SpectralField(lat, sparse)):
            got = _a2_closed_form(phi, t0, lam)
            want = per_mode_loop(phi, t0, lam)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_rejects_nonpositive_time(self):
        lat = make_lattice(1.0, 2.0)
        with pytest.raises(Exception):
            a2_iterate(zero_field(lat), -0.1, 1.0)
