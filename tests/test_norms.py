import math

import numpy as np
import pytest

from gblab.illposedness import LOW_BAND, _low_band
from gblab.lattice import (
    SpacetimeSpectrum,
    SpectralField,
    field_from_modes,
    make_lattice,
    make_tau_grid,
    zero_field,
)
from gblab.norms import (
    NormSpec,
    besov_norm,
    bump_psi,
    grid_mod_cap,
    h_norm,
    lp_bump,
    norm_report,
    sobolev_weight,
    ws_norm,
    xsb_norm,
    ys_norm,
)
from gblab.solver import SolverConfig, _sup_hs

from conftest import random_field, random_spectrum
from oracles import besov_1d, free_trajectory, time_transform


def spectrum_cell(lattice, tau, freq, tau_value, weight=1.0):
    c = np.zeros((tau.size, lattice.modes), dtype=complex)
    i_tau = int(np.argmin(np.abs(tau - tau_value)))
    c[i_tau, lattice.index_of(freq)] = weight
    return SpacetimeSpectrum(lattice, tau, c), tau[i_tau]


def mod_and_bracket(u):
    """<tau+k^2> on u's grid and <k>, restated from their definitions."""
    k = u.lattice.k
    return np.sqrt(1.0 + (u.tau[:, None] + k * k) ** 2), np.sqrt(1.0 + k * k)


def restrict(u, mask):
    """u with every cell outside `mask` zeroed."""
    return u.with_coeff(np.where(mask, u.coeff, 0.0))


class TestHNorm:
    def test_zero(self, small_lattice):
        assert h_norm(zero_field(small_lattice), -0.5) == 0.0

    def test_single_unit_mode_at_zero(self):
        for lam in (1.0, 4.0):
            lat = make_lattice(lam, 2.0)
            f = field_from_modes(lat, {0.0: 1.0})
            for s in (-0.75, 0.0, 1.5):
                assert h_norm(f, s) == pytest.approx(lam**-0.5, rel=1e-14)

    def test_two_neighbor_modes_asymptotics(self):
        # two unit modes at N and N+1/lam: exact value vs sqrt(2) lam^-1/2 N^s
        lam, N, s = 4.0, 64.0, -0.5
        lat = make_lattice(lam, 80.0)
        f = field_from_modes(lat, {N: 1.0, N + 1 / lam: 1.0})
        exact = math.sqrt(
            (1 / lam) * ((1 + N**2) ** s + (1 + (N + 1 / lam) ** 2) ** s)
        )
        assert h_norm(f, s) == pytest.approx(exact, rel=1e-14)
        assert exact == pytest.approx(math.sqrt(2 / lam) * N**s, rel=2e-2)


class TestOneSobolevWeight:
    # the solver's sup-in-time norm and the inflation sweep's low-band norm
    # are h_norm, whose weight is the formula (1 + k^2)^s
    S_VALUES = (-0.75, -0.5, 0.5)

    def test_weight_is_the_formula(self):
        k = make_lattice(4.0, 8.0).k
        for s in self.S_VALUES:
            np.testing.assert_allclose(sobolev_weight(k, s), (1.0 + k * k) ** s, rtol=1e-15)

    def test_sup_hs_is_the_largest_h_norm(self, rng):
        lat = make_lattice(2.0, 6.0)
        rows = np.array([random_field(lat, rng).coeff for _ in range(9)])
        for s in self.S_VALUES:
            expected = max(h_norm(SpectralField(lat, row), s) for row in rows)
            got = _sup_hs(rows, lat, SolverConfig(lam=lat.lam, s=s))
            assert got == pytest.approx(expected, rel=1e-15)

    def test_low_band_norm_is_h_norm_of_the_low_band(self, rng):
        lat = make_lattice(4.0, 6.0)
        f = random_field(lat, rng)
        low = np.abs(lat.k) <= LOW_BAND
        assert np.array_equal(_low_band(f).coeff, np.where(low, f.coeff, 0.0))
        for s in self.S_VALUES:
            w = (1.0 + lat.k[low] ** 2) ** s
            expected = math.sqrt(np.sum(w * np.abs(f.coeff[low]) ** 2) / lat.lam)
            assert h_norm(_low_band(f), s) == pytest.approx(expected, rel=1e-15)


class TestXsbNorm:
    def test_single_cell(self):
        lat = make_lattice(2.0, 2.0)
        tau = make_tau_grid(10.0, 0.5)
        u, tau0 = spectrum_cell(lat, tau, 1.5, -3.0, weight=2.0)
        s, b = -0.5, 0.375
        expected = (
            2.0
            * (1 + 1.5**2) ** (s / 2)
            * (1 + (tau0 + 1.5**2) ** 2) ** (b / 2)
            * math.sqrt(u.dtau / lat.lam)
        )
        assert xsb_norm(u, s, b) == pytest.approx(expected, rel=1e-12)

    def test_b_zero_is_weighted_l2(self, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(15.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        w = (1 + lat.k**2) ** (-0.25 / 2)
        ref = math.sqrt(np.sum(np.abs(u.coeff * w[None, :]) ** 2) * u.dtau / lat.lam)
        assert xsb_norm(u, -0.25, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_free_evolution_factorizes(self):
        # windowed free evolution: xsb norm = ||window||_{H^b} ||phi||_{H^s}
        lat = make_lattice(1.0, 2.0)
        phi = field_from_modes(lat, {-2.0: 0.7, 0.0: 1.0, 1.0: -0.5j})
        t = np.linspace(-2.5, 2.5, 4001)
        traj = free_trajectory(phi, t)
        tau = make_tau_grid(60.0, 0.05)
        u = time_transform(traj, bump_psi, tau)
        for s, b in [(-0.5, 1.0), (-0.25, 0.375)]:
            # 1-d oracle for the window's H^b norm on the same tau resolution
            dt = t[1] - t[0]
            sigma = make_tau_grid(60.0, 0.05)
            w_hat = (dt / math.sqrt(2 * math.pi)) * (
                np.exp(-1j * np.outer(sigma, t)) @ bump_psi(t)
            )
            hb = math.sqrt(np.sum((1 + sigma**2) ** b * np.abs(w_hat) ** 2) * 0.05)
            assert xsb_norm(u, s, b) == pytest.approx(hb * h_norm(phi, s), rel=1e-6)


class TestYsNorm:
    def test_zero(self, small_lattice, small_spectrum_grid):
        u = SpacetimeSpectrum(
            small_lattice,
            small_spectrum_grid,
            np.zeros((small_spectrum_grid.size, small_lattice.modes), dtype=complex),
        )
        assert ys_norm(u, -0.5) == 0.0

    def test_single_cell(self):
        lat = make_lattice(4.0, 1.0)
        tau = make_tau_grid(5.0, 0.25)
        u, _ = spectrum_cell(lat, tau, 0.5, 2.0, weight=3.0)
        expected = u.dtau * (1 + 0.25) ** (-0.25) * 3.0 * lat.lam**-0.5
        assert ys_norm(u, -0.5) == pytest.approx(expected, rel=1e-12)

    def test_cauchy_schwarz_vs_xsb(self, rng):
        # on <tau+k^2> <= M the L1-in-tau norm is at most (2M dtau-free) ... the
        # discrete Cauchy-Schwarz constant is the tau-measure of the support
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(40.0, 0.25)
        M = 8.0
        for _ in range(20):
            u = random_spectrum(lat, tau, rng)
            mod, _ = mod_and_bracket(u)
            u = restrict(u, (mod >= M) & (mod < 2 * M))
            lhs = ys_norm(u, -0.5)
            # support of <tau+k^2> ~ M in tau has length <= 2*sqrt(4M^2-1)
            c = math.sqrt(2.0 * math.sqrt(4 * M * M - 1))
            assert lhs <= c * xsb_norm(u, -0.5, 0.0) * (1 + 1e-9)


class TestWsNorm:
    def test_low_modulation_only_reduces_to_xs1(self, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(40.0, 0.25)
        u = random_spectrum(lat, tau, rng)
        mod, brk = mod_and_bracket(u)
        u = restrict(u, mod <= brk)
        for s in (-0.5, -0.3, -0.25):
            assert ws_norm(u, s) == pytest.approx(xsb_norm(u, s, 1.0), rel=1e-12)

    def test_domination_by_xs1(self, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(60.0, 0.25)
        for s in (-0.5, -0.25):
            worst = 0.0
            for _ in range(25):
                u = random_spectrum(lat, tau, rng, k_decay=1.0, mod_decay=0.75)
                worst = max(worst, ws_norm(u, s) / xsb_norm(u, s, 1.0))
            assert worst < 10.0

    def test_sandwich(self, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(60.0, 0.25)
        for s in (-0.5, -0.25):
            for _ in range(10):
                u = random_spectrum(lat, tau, rng, k_decay=0.5, mod_decay=0.5)
                w = ws_norm(u, s)
                assert xsb_norm(u, s, 0.0) <= w * (1 + 1e-9)
                assert ys_norm(u, s) <= 4.0 * w

    def test_rejects_s_out_of_range(self, rng):
        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(10.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        with pytest.raises(ValueError):
            ws_norm(u, -0.2)
        with pytest.raises(ValueError):
            ws_norm(u, -0.6)

    @pytest.mark.parametrize("m_max", [None, 8.0])
    @pytest.mark.parametrize("s", [-0.5, -0.375, -0.25])
    def test_cell_path_matches_dense_oracle(self, s, m_max, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(60.0, 0.5)
        # whole columns at k = 0, 1.5, 3 plus scattered cells elsewhere
        cols = [lat.index_of(0.0), lat.index_of(1.5), lat.index_of(3.0)]
        it = np.concatenate([np.tile(np.arange(tau.size), 3), rng.integers(0, tau.size, 100)])
        ik = np.concatenate([np.repeat(cols, tau.size), rng.integers(0, lat.modes, 100)])
        values = (rng.standard_normal(it.size) + 1j * rng.standard_normal(it.size)) * rng.uniform(0.1, 3.0, it.size)
        u = SpacetimeSpectrum.from_cells(lat, tau, it, ik, values)
        # every region of the glued norm holds cells
        c_it, c_ik, _ = u._cells
        k = lat.k[c_ik]
        brk = np.sqrt(1.0 + k * k)
        mod = np.sqrt(1.0 + (tau[c_it] + k * k) ** 2)
        assert (mod <= brk).any() and ((mod > brk) & (mod <= brk**2)).any()
        shells = np.floor(np.log2(mod[mod > brk**2])).astype(int)
        assert set(shells) == set(range(shells.max() + 1))
        assert np.bincount(c_ik[mod > 4.0 * brk**2]).max() >= 2
        want = _dense_ws_norm(u, s, m_max)
        assert ws_norm(u, s, m_max) == pytest.approx(want, rel=1e-12)
        assert ws_norm(u.with_coeff(u.coeff), s, m_max) == want

    @pytest.mark.parametrize("m_max", [None, 16.0])
    @pytest.mark.parametrize("s", [-0.5, -0.375, -0.25])
    def test_dense_and_cell_paths_match_oracle_on_random_grids(self, s, m_max, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(40.0, 0.5)
        for _ in range(3):
            u = random_spectrum(lat, tau, rng, k_decay=0.5, mod_decay=0.5)
            want = _dense_ws_norm(u, s, m_max)
            assert ws_norm(u, s, m_max) == want
            it, ik = np.indices(u.coeff.shape)
            cells = SpacetimeSpectrum.from_cells(lat, tau, it, ik, u.coeff)
            assert ws_norm(cells, s, m_max) == pytest.approx(want, rel=1e-12)


def _dense_ws_norm(u, s, m_max=None):
    """The glued norm summed over the whole grid with boolean region masks,
    as ws_norm computed it before spectra carried cell lists."""
    k = u.lattice.k
    brk = np.sqrt(1.0 + k * k)
    mod = np.sqrt(1.0 + (u.tau[:, None] + (k * k)[None, :]) ** 2)
    a2 = np.abs(u.coeff) ** 2
    meas = u.dtau / u.lattice.lam
    mask_low = mod <= brk[None, :]
    wk_s = brk ** (2.0 * s)
    x_low = math.sqrt(float(np.sum((a2 * mod**2)[mask_low] * np.broadcast_to(wk_s[None, :], a2.shape)[mask_low])) * meas)
    mask_very = mod > 4.0 * (brk**2)[None, :]
    l1 = np.sum(np.abs(u.coeff) * mask_very, axis=0) * u.dtau
    y_very = math.sqrt(float(np.sum(wk_s * l1**2)) / u.lattice.lam)
    if s > -0.5:
        wk_s1 = brk ** (2.0 * (s + 1.0))
        x_high = math.sqrt(float(np.sum((a2 * ~mask_low) * wk_s1[None, :])) * meas)
        return x_low + x_high + y_very
    mask_tail = mod > (brk**2)[None, :]
    mask_mid = ~mask_low & ~mask_tail
    x_mid = math.sqrt(float(np.sum((a2 * mask_mid) * brk[None, :])) * meas)
    if m_max is None:
        m_max = grid_mod_cap(u)
    tail_w = (a2 * brk[None, :])[mask_tail]
    if not tail_w.size:
        return x_low + x_mid + y_very
    midx = np.floor(np.log2(mod[mask_tail])).astype(np.int64)
    keep = midx <= math.floor(math.log2(m_max))
    sums = np.bincount(midx[keep], weights=tail_w[keep])
    return x_low + x_mid + float(np.sum(np.sqrt(sums * meas))) + y_very


class TestBesov:
    def test_bump_partition_of_unity(self):
        x = np.linspace(-40, 40, 2001)
        total = sum(lp_bump(j, x) for j in range(8))
        assert np.abs(total - 1.0).max() < 1e-12

    def test_zero(self, small_lattice, small_spectrum_grid):
        u = SpacetimeSpectrum(
            small_lattice,
            small_spectrum_grid,
            np.zeros((small_spectrum_grid.size, small_lattice.modes), dtype=complex),
        )
        assert besov_norm(u, -0.5, 0.5) == 0.0

    def test_pure_tensor_factorizes(self, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(30.0, 0.25)
        a = (rng.standard_normal(tau.size) + 1j * rng.standard_normal(tau.size)) * np.exp(
            -((tau / 8) ** 2)
        )
        b = rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        u = SpacetimeSpectrum(lat, tau, np.outer(a, b))
        s, bb = -0.5, 0.5
        lhs = besov_norm(u, s, bb)
        rhs = besov_1d(a, tau, bb, u.dtau) * besov_1d(b, lat.k, s, 1 / lat.lam)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestNormReport:
    def test_report_fields(self, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(20.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        rep = norm_report(u, NormSpec(family="Ws", s=-0.5, m_max=1024.0))
        assert rep["family"] == "Ws"
        assert rep["lambda"] == 2.0
        assert rep["value"] == pytest.approx(ws_norm(u, -0.5, 1024.0))
        assert rep["shells"]

    def test_shells_partition_the_tail(self, rng):
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(40.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        mod, brk = mod_and_bracket(u)
        tail = restrict(u, mod > brk**2)
        shells = norm_report(u, NormSpec(family="Ws", s=-0.5))["shells"]
        energy = sum(shell["value"] ** 2 for shell in shells)
        assert energy == pytest.approx(xsb_norm(tail, 0.0, 0.0) ** 2, rel=1e-12)

    def test_shells_match_masked_tail_norms(self, rng):
        # each shell is the L2 norm of the tail, in its ratio form, cut to
        # [M, 2M), the M = 1 shell taking everything below 2
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(40.0, 0.5)
        for m_max in (None, 16.0):
            for _ in range(3):
                u = random_spectrum(lat, tau, rng, k_decay=0.5, mod_decay=0.5)
                mod, brk = mod_and_bracket(u)
                shells = norm_report(u, NormSpec(family="Ws", s=-0.5, m_max=m_max))["shells"]
                assert shells[-1]["M"] == (m_max or grid_mod_cap(u))
                for i, shell in enumerate(shells):
                    M = 2.0**i
                    cut = (mod / brk**2 > 1.0) & ((mod >= M) | (M == 1.0)) & (mod < 2 * M)
                    want = xsb_norm(restrict(u, cut), 0.0, 0.0)
                    assert shell["M"] == M
                    assert shell["value"] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_shell_membership(self):
        lat = make_lattice(1.0, 1.0)
        tau = make_tau_grid(10.0, 0.5)
        u, tau0 = spectrum_cell(lat, tau, 0.0, 4.9)  # <4.9> ~ 5 -> shell M=4
        assert abs(math.sqrt(1 + tau0**2) - 5.0) < 0.2
        for m_max, last in ((None, grid_mod_cap(u)), (64.0, 64.0)):
            shells = norm_report(u, NormSpec(family="Ws", s=-0.5, m_max=m_max))["shells"]
            # M = 1, 2, 4, ... up to m_max, the empty shells at 0.0
            assert [shell["M"] for shell in shells] == [2.0**i for i in range(int(math.log2(last)) + 1)]
            for shell in shells:
                if shell["M"] == 4.0:
                    assert shell["value"] > 0
                else:
                    assert shell["value"] == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NormSpec(family="bogus", s=0.0)
        with pytest.raises(ValueError):
            NormSpec(family="Ws", s=-0.5, m_max=3.0)


class TestNormAxioms:
    def test_homogeneity_and_triangle(self, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(30.0, 0.5)
        norms = [
            lambda u: xsb_norm(u, -0.5, 0.375),
            lambda u: ys_norm(u, -0.5),
            lambda u: ws_norm(u, -0.5),
            lambda u: besov_norm(u, -0.5, 0.5),
        ]
        for _ in range(5):
            u = random_spectrum(lat, tau, rng)
            v = random_spectrum(lat, tau, rng)
            both = u.with_coeff(u.coeff + v.coeff)
            scaled = u.with_coeff(3.7 * u.coeff)
            for n in norms:
                assert n(scaled) == pytest.approx(3.7 * n(u), rel=1e-10)
                assert n(both) <= (n(u) + n(v)) * (1 + 1e-10)
