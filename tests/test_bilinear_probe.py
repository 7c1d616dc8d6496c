import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gblab.bilinear_probe import (
    bilinear_image,
    fitted_slope,
    generate_pair,
    l4_ratio,
    physical_samples,
    ratio_probe,
    slope_sweep,
)
from gblab.lattice import LatticeError, SpacetimeSpectrum, make_lattice, make_tau_grid
from gblab.norms import ws_norm, xsb_norm
from gblab.reduction import omega_multiplier

from conftest import random_spectrum

TWO_PI = 2.0 * math.pi


def brute_force_image(u, v, kind):
    """O(n^2)-cell oracle written straight from the convolution definitions."""
    n_tau, modes = u.coeff.shape
    half_t = (n_tau - 1) // 2
    J = u.lattice.half_modes
    out = np.zeros_like(u.coeff)
    for it in range(n_tau):
        dtau_idx = it - half_t
        for jk in range(modes):
            dk_idx = jk - J
            acc = 0.0 + 0.0j
            for i1 in range(n_tau):
                for j1 in range(modes):
                    if kind == "u v":
                        i2, j2 = it - (i1 - half_t) - half_t + half_t - half_t, 0
                        # index of (tau - tau1, k - k1)
                        i2 = (dtau_idx - (i1 - half_t)) + half_t
                        j2 = (dk_idx - (j1 - J)) + J
                        if 0 <= i2 < n_tau and 0 <= j2 < modes:
                            acc += u.coeff[i1, j1] * v.coeff[i2, j2]
                    elif kind == "u vbar":
                        i2 = ((i1 - half_t) - dtau_idx) + half_t
                        j2 = ((j1 - J) - dk_idx) + J
                        if 0 <= i2 < n_tau and 0 <= j2 < modes:
                            acc += u.coeff[i1, j1] * np.conj(v.coeff[i2, j2])
                    else:  # ubar vbar
                        i_u = (-(i1 - half_t)) + half_t
                        j_u = (-(j1 - J)) + J
                        i2 = ((i1 - half_t) - dtau_idx) + half_t
                        j2 = ((j1 - J) - dk_idx) + J
                        if (
                            0 <= i_u < n_tau
                            and 0 <= j_u < modes
                            and 0 <= i2 < n_tau
                            and 0 <= j2 < modes
                        ):
                            acc += np.conj(u.coeff[i_u, j_u]) * np.conj(v.coeff[i2, j2])
            out[it, jk] = acc
    out *= u.dtau / (TWO_PI * u.lattice.lam)
    m = omega_multiplier(u.lattice)
    mod = np.sqrt(1.0 + (u.tau[:, None] + (u.lattice.k ** 2)[None, :]) ** 2)
    return out * m[None, :] / mod


# (id suffix, K, tau_max) at lam = 1 and dtau = 1, all through the padded FFT
# product: 11x11 pads each axis to exactly 3h + 1 = 16 (a pad of 3h aliases),
# 17x17 to exactly 3h + 1 = 25, an odd pad, and 9x13 to 15 and 20
_ORACLE_GRIDS = [
    ("", 3.0, 3.5),
    ("-11x11-tight", 5.0, 5.0),
    ("-17x17-odd", 8.0, 8.0),
    ("-9x13", 6.0, 4.0),
]


class TestBilinearImage:
    def test_zero_inputs(self, rng):
        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(5.0, 1.0)
        z = SpacetimeSpectrum(lat, tau, np.zeros((tau.size, lat.modes), dtype=complex))
        u = random_spectrum(lat, tau, rng)
        for kind in ("u v", "u vbar", "ubar vbar"):
            assert np.abs(bilinear_image(z, u, kind).coeff).max() == 0.0
            assert np.abs(bilinear_image(u, z, kind).coeff).max() == 0.0

    def test_delta_convolution_single_cells(self):
        lat = make_lattice(1.0, 3.0)
        tau = make_tau_grid(6.0, 1.0)
        u = SpacetimeSpectrum.from_cells(lat, tau, [np.argmin(np.abs(tau - 2.0))], [lat.index_of(1.0)], [2.0])
        v = SpacetimeSpectrum.from_cells(lat, tau, [np.argmin(np.abs(tau + 1.0))], [lat.index_of(2.0)], [3.0j])
        img = bilinear_image(u, v, "u v")
        # single output cell at (tau, k) = (1, 3) with the normalized product
        it = int(np.argmin(np.abs(tau - 1.0)))
        jk = lat.index_of(3.0)
        mask = np.zeros(u.coeff.shape, dtype=bool)
        mask[it, jk] = True
        m = 9.0 / 10.0
        expected = 2.0 * 3.0j * (u.dtau / (TWO_PI * lat.lam)) * m / math.sqrt(1 + (1 + 9) ** 2)
        assert img.coeff[it, jk] == pytest.approx(expected, rel=1e-12)
        assert np.abs(img.coeff[~mask]).max() == 0.0
        # the same cells on dense grids take the FFT product
        dense = bilinear_image(u.with_coeff(u.coeff), v.with_coeff(v.coeff), "u v")
        assert np.abs(dense.coeff - img.coeff).max() < 1e-12 * abs(expected)

    @pytest.mark.parametrize(
        "kind, K, tau_max",
        [
            pytest.param(kind, K, tau_max, id=kind + suffix)
            for kind in ("u v", "u vbar", "ubar vbar")
            for suffix, K, tau_max in _ORACLE_GRIDS
        ],
    )
    def test_matches_brute_force_oracle(self, kind, K, tau_max, rng):
        lat = make_lattice(1.0, K)
        tau = make_tau_grid(tau_max, 1.0)
        u = random_spectrum(lat, tau, rng)
        v = random_spectrum(lat, tau, rng)
        got = bilinear_image(u, v, kind)
        want = brute_force_image(u, v, kind)
        scale = np.abs(want).max()
        assert np.abs(got.coeff - want).max() < 1e-10 * scale

    @pytest.mark.parametrize("kind", ["u v", "u vbar", "ubar vbar"])
    def test_sparse_path_matches_dense(self, kind, rng):
        lat = make_lattice(1.0, 3.0)
        tau = make_tau_grid(3.5, 1.0)
        # u and v both step by (3, 3) between two of their cells, so two pairs
        # land on one output cell for every kind; v's corner cells push
        # products off the 9x7 grid
        u = SpacetimeSpectrum.from_cells(lat, tau, [2, 5, 0], [1, 4, 6], [1.0 - 0.5j, 0.3j, -0.7])
        v_it, v_ik = [1, 4, 8, 0, 3], [2, 5, 6, 0, 3]
        v_c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = SpacetimeSpectrum.from_cells(lat, tau, v_it, v_ik, v_c)
        got = bilinear_image(u, v, kind)
        want = brute_force_image(u, v, kind)
        assert np.abs(got.coeff - want).max() < 1e-12 * np.abs(want).max()
        # the image carries a cell list that matches its grid
        it, ik, c = got._cells
        assert np.array_equal(got.coeff[it, ik], c)
        assert np.count_nonzero(got.coeff) == np.count_nonzero(c)

    def test_cell_products_all_off_the_grid(self):
        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(3.0, 1.0)
        corner = SpacetimeSpectrum.from_cells(lat, tau, [tau.size - 1], [lat.modes - 1], [1.0])
        img = bilinear_image(corner, corner, "u v")
        assert img._cells[0].size == 0 and not img.coeff.any()
        assert ws_norm(img, -0.5) == 0.0 and ws_norm(img, -0.25) == 0.0

    def test_scaling_invariance_of_ratio(self, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(20.0, 0.5)
        u = random_spectrum(lat, tau, rng, k_decay=1.0, mod_decay=0.8)
        v = random_spectrum(lat, tau, rng, k_decay=1.0, mod_decay=0.8)
        s = -0.5

        def ratio(a, b):
            return ws_norm(bilinear_image(a, b, "u vbar"), s) / (
                ws_norm(a, s) * ws_norm(b, s)
            )

        r1 = ratio(u, v)
        r2 = ratio(u.with_coeff(5.0 * u.coeff), v.with_coeff(0.25 * v.coeff))
        assert r2 == pytest.approx(r1, rel=1e-10)

    def test_region_restricted_reassembly(self, rng):
        # images of inputs cut to |k| bands sum back to the full image
        lat = make_lattice(2.0, 4.0)
        tau = make_tau_grid(30.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        v = random_spectrum(lat, tau, rng)
        full = bilinear_image(u, v, "u vbar")
        bands = [(0.0, 1.0), (1.0, 2.5), (2.5, 100.0)]
        total = np.zeros_like(full.coeff)
        for lo, hi in bands:
            band = (np.abs(lat.k) >= lo) & (np.abs(lat.k) < hi)
            total += bilinear_image(u.with_coeff(np.where(band, u.coeff, 0.0)), v, "u vbar").coeff
        assert np.abs(total - full.coeff).max() < 1e-12 * np.abs(full.coeff).max()


class TestRatioProbe:
    def test_zero_field_skipped(self):
        rep = ratio_probe(-0.5, 4.0, "u vbar", generator="random", n_trials=2, seed=3)
        assert rep.skipped == 0  # random generator never produces zeros
        assert len(rep.ratios) == 2

    def test_adversarial_ratio_bounded_by_loss(self):
        lam = 4.0
        rep = ratio_probe(-0.5, lam, "u vbar", generator="adversarial-omega4", n_trials=3)
        assert rep.max_ratio < 10.0 * lam ** 0.5

    def test_adversarial_slope_near_half(self):
        sweep = slope_sweep("u vbar", -0.5, lams=(4.0, 16.0, 64.0), n_trials=3)
        assert 0.0 <= sweep["slope"] <= 0.7

    @pytest.mark.parametrize("kind", ["u v", "ubar vbar"])
    def test_no_loss_kinds_flat(self, kind):
        sweep = slope_sweep(kind, -0.5, lams=(4.0, 16.0, 64.0), generator="random", n_trials=3)
        assert -0.2 <= sweep["slope"] <= 0.2

    def test_adversarial_probe_memory_is_bounded_at_lambda_64(self):
        # each 3201 x 5377 grid at lambda = 64 is 263 MiB: the probe must
        # touch only its cells, never whole grids
        # VmHWM is the peak of this address space alone; ru_maxrss would also
        # count the forking test process, whose pages the child held until exec
        script = """
from gblab.bilinear_probe import ratio_probe
rep = ratio_probe(-0.5, 64.0, "u vbar", generator="adversarial-omega4", n_trials=1)
assert len(rep.ratios) == 1
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < 200.0

    def test_unknown_generator_rejected(self):
        with pytest.raises(LatticeError):
            ratio_probe(-0.5, 2.0, "u vbar", generator="per-region")

    def test_real_field_image_is_real_in_physical_space(self, rng):
        # u * conj(u) is real pointwise, so its raw spectrum is conjugate
        # symmetric under (tau, k) -> (-tau, -k) before the smoothing weights
        from gblab.bilinear_probe import _convolve

        lat = make_lattice(1.0, 3.0)
        tau = make_tau_grid(6.0, 1.0)
        u = random_spectrum(lat, tau, rng)
        raw = _convolve(u.coeff, np.conj(u.coeff)[::-1, ::-1])
        flipped = np.conj(raw[::-1, ::-1])
        assert np.abs(raw - flipped).max() < 1e-12 * np.abs(raw).max()


class TestL4Ratio:
    def test_single_cell_closed_form(self):
        # one unit cell is a dtau-weighted point mass, i.e. the plane wave
        # (dtau/(2 pi lam)) e^{i(tau0 t + k0 x)}; its L4 norm over one time
        # period 2 pi / dtau and one space period 2 pi lam is explicit
        lam = 1.0
        lat = make_lattice(lam, 1.0)
        tau = make_tau_grid(8.0, 0.5)
        c = np.zeros((tau.size, lat.modes), dtype=complex)
        i0 = int(np.argmin(np.abs(tau - 1.5)))
        c[i0, lat.index_of(1.0)] = 1.0
        u = SpacetimeSpectrum(lat, tau, c)
        dtau = u.dtau
        tau0 = tau[i0]
        amp = dtau / (TWO_PI * lam)
        l4_4 = amp**4 * (TWO_PI * lam) * (TWO_PI / dtau)
        denom = math.sqrt(dtau / lam) * (1 + (tau0 + 1.0) ** 2) ** (0.375 / 2)
        expected = l4_4**0.25 / denom
        assert l4_ratio(u) == pytest.approx(expected, rel=1e-10)

    def test_plancherel_of_physical_samples(self, rng):
        lat = make_lattice(2.0, 2.0)
        tau = make_tau_grid(10.0, 0.5)
        u = random_spectrum(lat, tau, rng)
        phys, dt, dx = physical_samples(u)
        l2_phys = np.sum(np.abs(phys) ** 2) * dt * dx
        assert l2_phys == pytest.approx(xsb_norm(u, 0.0, 0.0) ** 2, rel=1e-10)

    def test_ratio_stable_across_lambda(self, rng):
        maxima = []
        for lam in (1.0, 4.0):
            vals = []
            lat = make_lattice(lam, 2.0)
            tau = make_tau_grid(20.0, 0.5)
            for _ in range(10):
                vals.append(l4_ratio(random_spectrum(lat, tau, rng, mod_decay=0.7)))
            maxima.append(max(vals))
        assert max(maxima) / min(maxima) < 3.0


def test_fitted_slope_exact_powers():
    lams = [4.0, 16.0, 64.0]
    assert fitted_slope(lams, [l**0.5 for l in lams]) == pytest.approx(0.5)
    assert fitted_slope(lams, [3.0, 3.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
