import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblab.lattice import (
    LatticeError,
    SpectralField,
    field_from_modes,
    make_lattice,
    zero_field,
)
from gblab.norms import h_norm
from gblab.reduction import (
    GBState,
    gb_to_qnls,
    omega_multiplier,
    qnls_to_gb,
    rescale_data,
    rescaled_norm_sq_identity,
)

from conftest import random_field


def random_real_state(lattice, rng):
    v0 = random_field(lattice, rng, real_physical=True)
    v1 = random_field(lattice, rng, real_physical=True)
    return GBState(v0, v1)


class TestChangeOfVariables:
    def test_zero_velocity_is_identity(self, small_lattice, rng):
        v0 = random_field(small_lattice, rng, real_physical=True)
        u = gb_to_qnls(GBState(v0, zero_field(small_lattice)))
        assert np.abs(u.coeff - v0.coeff).max() < 1e-15

    def test_velocity_multiplier(self):
        lat = make_lattice(1.0, 2.0)
        u = gb_to_qnls(GBState(zero_field(lat), field_from_modes(lat, {1.0: 1.0})))
        assert u.coeff[lat.index_of(1.0)] == pytest.approx(0.5j, abs=1e-15)

    def test_round_trip_gb_side(self, small_lattice, rng):
        state = random_real_state(small_lattice, rng)
        back = qnls_to_gb(gb_to_qnls(state))
        assert np.abs(back.v0.coeff - state.v0.coeff).max() < 1e-12
        assert np.abs(back.v1.coeff - state.v1.coeff).max() < 1e-12

    def test_round_trip_qnls_side(self, small_lattice, rng):
        u = random_field(small_lattice, rng)
        again = gb_to_qnls(qnls_to_gb(u))
        assert np.abs(again.coeff - u.coeff).max() < 1e-12

    def test_real_symmetric_u_has_zero_velocity(self, small_lattice, rng):
        u = random_field(small_lattice, rng, real_physical=True)
        state = qnls_to_gb(u)
        assert np.abs(state.v1.coeff).max() < 1e-12

    def test_imaginary_constant_mode(self):
        lat = make_lattice(1.0, 1.0)
        state = qnls_to_gb(field_from_modes(lat, {0.0: 1j}))
        assert state.v1.coeff[lat.index_of(0.0)] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(state.v0.coeff).max() < 1e-15

    def test_conjugate_symmetry_of_real_states(self, small_lattice, rng):
        state = random_real_state(small_lattice, rng)
        for f in (state.v0, state.v1):
            assert np.abs(f.coeff - np.conj(f.coeff[::-1])).max() < 1e-12

    def test_lattice_mismatch_rejected(self, rng):
        a = make_lattice(1.0, 2.0)
        b = make_lattice(2.0, 2.0)
        with pytest.raises(LatticeError):
            GBState(random_field(a, rng), random_field(b, rng))


class TestOmegaSq:
    # the smoothing multiplier omega^2 = -dxx / (1 - dxx) on the lattice's own lam
    def test_multiplier_values(self):
        lat = make_lattice(1.0, 10.0)
        m = omega_multiplier(lat)
        assert m[lat.index_of(0.0)] == 0.0
        assert m[lat.index_of(1.0)] == pytest.approx(0.5)
        assert m[lat.index_of(10.0)] == pytest.approx(100.0 / 101.0)

    def test_first_mode_halved_any_lambda(self):
        lat = make_lattice(8.0, 1.0)
        assert omega_multiplier(lat)[lat.index_of(1.0 / 8.0)] == pytest.approx(0.5)

    def test_operator_norm_at_most_one(self, rng):
        lat = make_lattice(2.0, 6.0)
        m = omega_multiplier(lat)
        for s in (-0.5, 0.0, 1.0):
            f = random_field(lat, rng)
            assert h_norm(SpectralField(lat, f.coeff * m), s) <= h_norm(f, s) * (1 + 1e-12)

    def test_annihilates_exactly_zero_mode(self):
        lat = make_lattice(2.0, 6.0)
        m = omega_multiplier(lat)
        assert m[lat.index_of(0.0)] == 0.0
        assert np.delete(m, lat.index_of(0.0)).min() > 0.0


class TestRescaleData:
    def test_identity_at_lambda_one(self, small_lattice, rng):
        u0 = random_field(small_lattice, rng)
        out, report = rescale_data(u0, 1.0, -0.5)
        assert np.abs(out.coeff - u0.coeff).max() < 1e-15
        assert report.bound_holds
        assert report.norm_rescaled == pytest.approx(report.norm_original, rel=1e-12)

    def test_single_mode_closed_form(self):
        # mode n=1, coeff 1, lam=4, s=-1/2: new norm^2 = lam^-3 <1/4>^-1,
        # and the bound is lam^(-2s-3) <1>^(2s) |1|^2
        lam, s = 4.0, -0.5
        lat = make_lattice(1.0, 2.0)
        u0 = field_from_modes(lat, {1.0: 1.0})
        out, report = rescale_data(u0, lam, s)
        expected_sq = lam**-3 * (1 + (1 / lam) ** 2) ** s
        assert report.norm_rescaled**2 == pytest.approx(expected_sq, rel=1e-12)
        bound_sq = lam ** (-2 * s - 3) * 2.0**s
        assert report.bound**2 == pytest.approx(bound_sq, rel=1e-12)
        assert report.norm_rescaled <= report.bound

    def test_exact_pushforward_identity(self, small_lattice, rng):
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            u0 = random_field(small_lattice, rng)
            s = -0.5
            out, report = rescale_data(u0, lam, s)
            assert report.norm_rescaled**2 == pytest.approx(
                rescaled_norm_sq_identity(u0, lam, s), rel=1e-12
            )

    def test_bound_sweep(self, small_lattice, rng):
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            for s in (-0.5, -0.4, -0.3):
                u0 = random_field(small_lattice, rng)
                _, report = rescale_data(u0, lam, s)
                assert report.bound_holds

    def test_rejects_bad_inputs(self, small_lattice, rng):
        u0 = random_field(small_lattice, rng)
        with pytest.raises(LatticeError):
            rescale_data(u0, 4.0, 0.0)
        with pytest.raises(LatticeError):
            rescale_data(u0, 0.5, -0.5)
        lam4 = make_lattice(4.0, 2.0)
        with pytest.raises(LatticeError):
            rescale_data(random_field(lam4, rng), 4.0, -0.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), K=st.integers(2, 12))
def test_round_trip_property(seed, K):
    lat = make_lattice(1.0, float(K))
    rng = np.random.default_rng(seed)
    state = random_real_state(lat, rng)
    back = qnls_to_gb(gb_to_qnls(state))
    scale = max(np.abs(state.v1.coeff).max(), 1.0)
    assert np.abs(back.v0.coeff - state.v0.coeff).max() < 1e-12 * scale
    assert np.abs(back.v1.coeff - state.v1.coeff).max() < 1e-12 * scale
