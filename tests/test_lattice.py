import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblab.lattice import (
    LatticeError,
    SpacetimeSpectrum,
    SpectralField,
    Trajectory,
    dump_spectrum,
    field_from_modes,
    inverse_rows,
    load_field,
    load_spectrum,
    make_lattice,
    make_tau_grid,
    pad_size,
    zero_field,
)
from gblab.norms import bump_psi, h_norm, xsb_norm

from conftest import random_field
from oracles import forward_transform, time_transform, x_grid

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


class TestMakeLattice:
    def test_integer_lattice(self):
        lat = make_lattice(1.0, 2.0)
        assert lat.modes == 5
        assert np.array_equal(lat.k, [-2, -1, 0, 1, 2])

    def test_quarter_spacing(self):
        lat = make_lattice(4.0, 1.0)
        assert lat.modes == 9
        assert np.allclose(np.diff(lat.k), 0.25)

    def test_fractional_K_matches_enumeration(self):
        # oracle: enumerate j/lam for |j| <= ceil(K*lam) directly
        lam, K = 2.0, 2.3
        expected = np.arange(-math.ceil(K * lam), math.ceil(K * lam) + 1) / lam
        lat = make_lattice(lam, K)
        assert lat.modes == 11
        assert lat.modes == expected.size
        assert np.allclose(lat.k, expected)
        assert lat.k.max() == pytest.approx(2.5)

    def test_zero_always_present_and_odd(self):
        for lam, K in [(1, 0.3), (3, 5.7), (16, 1.01)]:
            lat = make_lattice(lam, K)
            assert lat.modes % 2 == 1
            assert 0.0 in lat.k

    def test_rejects_bad_inputs(self):
        with pytest.raises(LatticeError):
            make_lattice(0.5, 2.0)
        with pytest.raises(LatticeError):
            make_lattice(1.0, 0.0)
        with pytest.raises(LatticeError):
            make_lattice(float("nan"), 2.0)


class TestForwardTransform:
    def test_constant_function(self):
        lat = make_lattice(1.0, 2.0)
        samples = np.ones(64)
        f = forward_transform(samples, lat)
        assert f.coeff[lat.index_of(0.0)] == pytest.approx(SQRT_TWO_PI, abs=1e-12)
        off = np.abs(np.delete(f.coeff, lat.index_of(0.0)))
        assert off.max() < 1e-12

    def test_single_mode_closed_form(self):
        # F of e^{ix/lam} is sqrt(2 pi) * lam at k = 1/lam (defining integral)
        lam = 4.0
        lat = make_lattice(lam, 2.0)
        x = x_grid(lat, 128)
        f = forward_transform(np.exp(1j * x / lam), lat)
        assert f.coeff[lat.index_of(1.0 / lam)] == pytest.approx(SQRT_TWO_PI * lam, abs=1e-10)
        others = np.abs(f.coeff[np.arange(lat.modes) != lat.index_of(1.0 / lam)])
        assert others.max() < 1e-10

    def test_round_trip_band_limited(self, rng):
        lat = make_lattice(2.0, 5.0)
        f = random_field(lat, rng)
        samples = inverse_rows(f.coeff, lat, 64)
        g = forward_transform(samples, lat)
        assert np.abs(g.coeff - f.coeff).max() < 1e-12 * np.abs(f.coeff).max()

    def test_plancherel(self, rng):
        lat = make_lattice(3.0, 4.0)
        f = random_field(lat, rng)
        samples = inverse_rows(f.coeff, lat, 101)
        dx = lat.circumference / samples.size
        physical = np.sum(np.abs(samples) ** 2) * dx
        spectral = np.sum(np.abs(f.coeff) ** 2) / lat.lam
        assert physical == pytest.approx(spectral, rel=1e-12)

    def test_sample_count_mismatch(self):
        lat = make_lattice(1.0, 8.0)
        with pytest.raises(LatticeError):
            forward_transform(np.ones(5), lat)

    def test_stacked_rows_match_single_fields(self, rng):
        lat = make_lattice(2.0, 3.0)
        fields = [random_field(lat, rng) for _ in range(3)]
        rows = np.stack([f.coeff for f in fields])
        phys = inverse_rows(rows, lat, 32)
        for f, samples in zip(fields, phys):
            assert np.array_equal(samples, inverse_rows(f.coeff, lat, 32))
        back = forward_transform(phys, lat)
        assert back.shape == rows.shape
        assert np.abs(back - rows).max() < 1e-12 * np.abs(rows).max()
        with pytest.raises(LatticeError):
            inverse_rows(rows, lat, lat.modes - 1)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_pad_size_is_the_next_5_smooth_count():
    # brute force over every 2^a 3^b 5^c below twice the largest 3J + 1,
    # which holds a power of two above each 3J + 1
    top = 3 * 4096 + 1
    smooth = [n for n in range(1, 2 * top) if _is_5_smooth(n)]
    for J in range(4097):
        need = 3 * J + 1
        assert pad_size(J) == next(n for n in smooth if n >= need), J
    assert [pad_size(J) for J in (64, 120, 128, 256, 1024)] == [200, 375, 400, 800, 3125]


def test_lattice_refinement_consistency():
    # A fixed compactly supported profile embedded in growing tori: the 1/lam
    # measure turns the mode sum into a Riemann sum of the line transform, so
    # the L2 norm must not move as lam doubles.
    sigma = 0.35
    norms = []
    for lam in (1.0, 2.0, 4.0):
        lat = make_lattice(lam, 40.0)
        n = 8 * lat.modes
        x = x_grid(lat, n)
        phi = np.exp(-((x - math.pi) ** 2) / (2 * sigma**2))
        f = forward_transform(phi, lat)
        norms.append(h_norm(f, 0.0))
    assert abs(norms[1] - norms[0]) < 1e-10
    assert abs(norms[2] - norms[0]) < 1e-10


class TestSpacetime:
    def test_pure_tensor_norm_factorizes(self, rng):
        lat = make_lattice(2.0, 3.0)
        tau = make_tau_grid(20.0, 0.25)
        a = rng.standard_normal(tau.size) + 1j * rng.standard_normal(tau.size)
        b = rng.standard_normal(lat.modes) + 1j * rng.standard_normal(lat.modes)
        u = SpacetimeSpectrum(lat, tau, np.outer(a, b))
        tau_norm = math.sqrt(np.sum(np.abs(a) ** 2) * (tau[1] - tau[0]))
        k_norm = math.sqrt(np.sum(np.abs(b) ** 2) / lat.lam)
        assert xsb_norm(u, 0.0, 0.0) == pytest.approx(tau_norm * k_norm, rel=1e-10)

    def test_grid_validation(self):
        lat = make_lattice(1.0, 1.0)
        with pytest.raises(LatticeError):
            SpacetimeSpectrum(lat, np.array([0.0, 1.0, 3.0]), np.zeros((3, lat.modes)))

    def test_freezes_given_arrays_without_copying(self):
        lat = make_lattice(1.0, 1.0)
        tau = make_tau_grid(2.0, 1.0)
        c = np.zeros((tau.size, lat.modes), dtype=np.complex128)
        u = SpacetimeSpectrum(lat, tau, c)
        assert np.shares_memory(u.coeff, c)
        assert np.shares_memory(u.tau, tau)
        with pytest.raises(ValueError):
            c[0, 0] = 1

    def test_from_cells_fills_the_grid_and_adds_repeated_cells(self):
        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(3.0, 1.0)
        u = SpacetimeSpectrum.from_cells(lat, tau, [6, 0, 6, 3], [4, 0, 4, 2], [1.0, 2j, 0.5j, -3.0])
        want = np.zeros((tau.size, lat.modes), dtype=complex)
        want[6, 4], want[0, 0], want[3, 2] = 1.0 + 0.5j, 2j, -3.0
        assert np.array_equal(u.coeff, want)
        it, ik, c = u._cells
        assert sorted(zip(it, ik)) == [(0, 0), (3, 2), (6, 4)]
        assert np.array_equal(u.coeff[it, ik], c)
        with pytest.raises(ValueError):
            c[0] = 0.0
        assert u.with_coeff(u.coeff)._cells is None
        assert SpacetimeSpectrum(lat, tau, want)._cells is None
        for it, ik in (([7], [0]), ([0], [5]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(LatticeError):
                SpacetimeSpectrum.from_cells(lat, tau, it, ik, [1.0])


class TestTimeTransform:
    def _free_traj(self, lat, coeffs, t):
        k2 = lat.k**2
        rows = np.exp(-1j * np.outer(t, k2)) * coeffs[None, :]
        return Trajectory(lat, t, rows)

    def test_free_evolution_is_window_transform_of_modulation(self):
        # traj(t,k) = e^{-i k^2 t} phi_hat(k) with window w gives
        # u~(tau,k) = w_hat(tau + k^2) phi_hat(k)
        lat = make_lattice(1.0, 2.0)
        t = np.linspace(-2.5, 2.5, 2001)
        dt = t[1] - t[0]
        phi = np.array([0.3, -1.0, 2.0, 0.5j, 1.0 - 0.25j])
        traj = self._free_traj(lat, phi, t)
        tau = make_tau_grid(30.0, 0.5)
        u = time_transform(traj, bump_psi, tau)
        w = bump_psi(t)
        for idx in range(lat.modes):
            sigma = tau + lat.k[idx] ** 2
            w_hat = (dt / SQRT_TWO_PI) * (np.exp(-1j * np.outer(sigma, t)) @ w)
            assert np.abs(u.coeff[:, idx] - w_hat * phi[idx]).max() < 1e-8

    def test_zero_trajectory(self):
        lat = make_lattice(1.0, 1.0)
        t = np.linspace(-2.5, 2.5, 201)
        traj = Trajectory(lat, t, np.zeros((t.size, lat.modes), dtype=complex))
        u = time_transform(traj, bump_psi, make_tau_grid(5.0, 0.5))
        assert np.abs(u.coeff).max() == 0.0

    def test_constant_mode_concentrates_at_zero(self):
        lat = make_lattice(1.0, 1.0)
        t = np.linspace(-2.5, 2.5, 1001)
        rows = np.zeros((t.size, lat.modes), dtype=complex)
        rows[:, lat.index_of(0.0)] = 1.0
        u = time_transform(Trajectory(lat, t, rows), bump_psi, make_tau_grid(20.0, 0.25))
        col = np.abs(u.coeff[:, lat.index_of(0.0)])
        assert abs(u.tau[np.argmax(col)]) < 0.5

    def test_window_support_check(self):
        lat = make_lattice(1.0, 1.0)
        t = np.linspace(-1.0, 1.0, 51)  # bump is 1 on all of [-1, 1]
        traj = Trajectory(lat, t, np.zeros((t.size, lat.modes), dtype=complex))
        with pytest.raises(LatticeError):
            time_transform(traj, bump_psi, make_tau_grid(5.0, 0.5))


class TestBinaryDump:
    def test_field_round_trip(self, tmp_path, rng):
        lat = make_lattice(2.0, 3.0)
        f = random_field(lat, rng)
        p = tmp_path / "field.spec"
        dump_spectrum(f, p)
        g = load_field(p)
        assert g.lattice.same_grid(lat)
        assert np.array_equal(g.coeff, f.coeff)

    def test_header_layout(self, tmp_path):
        lat = make_lattice(1.0, 1.0)
        p = tmp_path / "z.spec"
        dump_spectrum(zero_field(lat), p)
        raw = p.read_bytes()
        lam = np.frombuffer(raw[0:8], dtype="<f8")[0]
        K = np.frombuffer(raw[8:16], dtype="<f8")[0]
        modes = np.frombuffer(raw[16:24], dtype="<u8")[0]
        rows = np.frombuffer(raw[24:32], dtype="<u8")[0]
        assert (lam, K, modes, rows) == (1.0, 1.0, 3, 0)
        assert len(raw) == 32 + 3 * 16

    def test_spacetime_round_trip(self, tmp_path, rng):
        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(4.0, 1.0)
        u = SpacetimeSpectrum(
            lat, tau, rng.standard_normal((tau.size, lat.modes)) + 0j
        )
        p = tmp_path / "st.spec"
        dump_spectrum(u, p)
        _, rows, coeff = load_spectrum(p)
        assert rows == tau.size
        assert np.array_equal(coeff, u.coeff)

    def test_load_reads_the_body_into_one_array(self, tmp_path):
        # 1025 time rows x 513 modes, 8.4 MB: no bytes object beside the array
        lat = make_lattice(4.0, 64.0)
        t = np.arange(1025) * 1e-3
        coeff = np.full((t.size, lat.modes), 1.0 - 2.0j)
        p = tmp_path / "traj.spec"
        dump_spectrum(Trajectory(lat, t, coeff), p)
        tracemalloc.start()
        try:
            _, rows, got = load_spectrum(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == t.size and np.array_equal(got, coeff)
        assert peak <= 1.1 * coeff.nbytes

    def test_dump_writes_the_array_without_a_copy(self, tmp_path, rng):
        # 1025 time rows x 513 modes, 8.4 MB: the body is written from the
        # array's own buffer, byte for byte the little-endian complex128 data
        lat = make_lattice(4.0, 64.0)
        t = np.arange(1025) * 1e-3
        coeff = rng.standard_normal((t.size, lat.modes)) + 1j * rng.standard_normal((t.size, lat.modes))
        traj = Trajectory(lat, t, coeff)
        p = tmp_path / "traj.spec"
        tracemalloc.start()
        try:
            dump_spectrum(traj, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * coeff.nbytes
        header = struct.pack("<ddQQ", lat.lam, lat.K, lat.modes, t.size)
        assert p.read_bytes() == header + coeff.astype("<c16").tobytes()


@settings(max_examples=25, deadline=None)
@given(
    lam=st.sampled_from([1.0, 2.0, 4.0]),
    K=st.floats(min_value=0.5, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(lam, K, seed):
    lat = make_lattice(lam, K)
    rng = np.random.default_rng(seed)
    f = random_field(lat, rng)
    g = forward_transform(inverse_rows(f.coeff, lat, 2 * lat.modes + 1), lat)
    scale = max(np.abs(f.coeff).max(), 1e-30)
    assert np.abs(g.coeff - f.coeff).max() < 1e-12 * scale


def test_field_from_modes_and_index_of():
    lat = make_lattice(4.0, 2.0)
    f = field_from_modes(lat, {0.25: 2.0, -1.5: 1j})
    assert f.coeff[lat.index_of(0.25)] == 2.0
    assert f.coeff[lat.index_of(-1.5)] == 1j
    with pytest.raises(LatticeError):
        lat.index_of(0.3)
    with pytest.raises(LatticeError):
        lat.index_of(100.0)
