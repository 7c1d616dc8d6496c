import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gblab import resonance
from gblab.resonance import (
    LEMMAS,
    SIDES,
    CountingCase,
    CountingError,
    SweepSampler,
    _batched_values,
    _critical_taus,
    cell_measure,
    default_k_values,
    dual_case,
    sup_sweep,
)


def indicator(case, tau, k, k1, tau1):
    """Raw membership predicate, written directly from the set definitions;
    shared oracle for the scan-based measure below."""
    lam = case.lam

    def br(x):
        return math.sqrt(1.0 + x * x)

    if case.lemma == "RB1":
        in_a = abs(tau1 + k1 * k1) <= 2 * case.M1 and abs((tau - tau1) + (k - k1) ** 2) <= 2 * case.M2
        s = complex(2.0 * (-tau - 0.5 * k * k)) ** 0.5
        z = k1 - (k - k1)
        in_gate = min(abs(z + s), abs(z - s)) <= 1.0 / lam
    elif case.lemma == "RB2":
        in_a = abs(tau1 + k1 * k1) <= 2 * case.M1 and abs((tau1 - tau) + (k1 - k) ** 2) <= 2 * case.M2
        in_gate = abs(tau - k * k + 2 * k * k1) <= abs(k) / lam
    elif case.lemma == "DRB1":
        # point plays (tau1, k1); integration runs over (tau, k) = (tau1_arg, k1_arg)
        pt_tau, pt_k = tau, k
        dtau, dk = tau1, k1
        in_a = abs(dtau + dk * dk) <= 2 * case.M1 and abs((dtau - pt_tau) + (dk - pt_k) ** 2) <= 2 * case.M2
        in_gate = abs(pt_tau - pt_k * pt_k + 2 * pt_k * dk) <= abs(pt_k) / lam
    elif case.lemma == "DRB2":
        pt_tau, pt_k = tau, k
        dtau, dk = tau1, k1
        in_a = abs(dtau + dk * dk) <= 2 * case.M1 and abs((pt_tau - dtau) + (pt_k - dk) ** 2) <= 2 * case.M2
        s = complex(2.0 * (-pt_tau - 0.5 * pt_k * pt_k)) ** 0.5
        z = dk - (pt_k - dk)
        in_gate = min(abs(z + s), abs(z - s)) <= 1.0 / lam
    else:
        raise AssertionError(case.lemma)
    if case.side == "exceptional":
        return in_a and in_gate
    return in_a and not in_gate


def weight_of(case, k, k1):
    if case.side == "exceptional":
        return 1.0
    if not case.deriv_weight:
        return 1.0
    if case.lemma in ("RB1", "DRB2"):
        z = 2 * k1 - k
        return math.sqrt(1.0 + z * z)
    return abs(k)


def scan_measure(case, tau, k, j_window=60, coarse=2e-3):
    """Independent oracle: enumerate a wide k1 window, locate the tau1 interval
    edges of the raw predicate by coarse scan plus bisection, sum the lengths."""
    lam = case.lam
    total = 0.0
    r1 = 2.0 * case.M1
    for j in range(-j_window, j_window + 1):
        k1 = j / lam
        # tau1 range where the first bracket constraint can hold at all
        if case.lemma in ("RB1", "RB2"):
            center = -k1 * k1
        else:
            center = -k1 * k1  # dual cases: dummy pair uses the same bracket
        lo, hi = center - r1 - 1.0, center + r1 + 1.0
        ts = np.arange(lo, hi + coarse, coarse)
        inside = np.array([indicator(case, tau, k, k1, t) for t in ts])
        if not inside.any():
            continue
        edges = np.flatnonzero(np.diff(inside.astype(int)))
        points = []
        for e in edges:
            a, b = ts[e], ts[e + 1]
            fa = inside[e]
            for _ in range(60):
                mid = 0.5 * (a + b)
                if indicator(case, tau, k, k1, mid) == fa:
                    a = mid
                else:
                    b = mid
            points.append(0.5 * (a + b))
        if inside[0]:
            points.insert(0, ts[0])
        if inside[-1]:
            points.append(ts[-1])
        length = sum(points[i + 1] - points[i] for i in range(0, len(points) - 1, 2))
        total += weight_of(case, k, k1) * length
    return total / lam


class TestCellMeasure:
    def test_empty_when_too_positive(self):
        case = CountingCase("RB1", "complement", 1.0, 1.0, 1.0)
        # tau + k^2/2 large positive: no admissible k1
        assert cell_measure(case, 50.0, 0.0) == 0.0

    def test_matches_scan_oracle_rb1(self):
        case = CountingCase("RB1", "complement", 4.0, 4.0, 1.0)
        for tau in (-8.0, -20.0, -3.3):
            exact = cell_measure(case, tau, 0.0)
            approx = scan_measure(case, tau, 0.0)
            assert exact == pytest.approx(approx, rel=2e-6, abs=2e-6)

    def test_matches_scan_oracle_rb2(self):
        case = CountingCase("RB2", "complement", 2.0, 4.0, 2.0)
        for tau in (-6.0, 1.5):
            exact = cell_measure(case, tau, 1.0)
            approx = scan_measure(case, tau, 1.0)
            assert exact == pytest.approx(approx, rel=2e-6, abs=2e-6)

    def test_matches_scan_oracle_exceptional(self):
        case = CountingCase("RB1", "exceptional", 4.0, 2.0, 2.0)
        for tau in (-9.0, -2.0):
            exact = cell_measure(case, tau, 0.5)
            approx = scan_measure(case, tau, 0.5)
            assert exact == pytest.approx(approx, rel=2e-6, abs=2e-6)

    def test_exceptional_k1_count_is_small(self):
        # thin-set sums stay O(1) per point: value <= c * min(M)/lam
        case = CountingCase("RB2", "exceptional", 8.0, 2.0, 4.0)
        vals = [cell_measure(case, tau, 0.25) for tau in np.linspace(-40, 5, 200)]
        bound = min(case.M1, case.M2) / case.lam
        assert max(vals) <= 20 * bound

    def test_partition_complement_plus_exceptional(self):
        base = dict(M1=4.0, M2=2.0, lam=2.0)
        for lemma, k in (("RB1", 0.5), ("RB2", 1.5), ("DRB1", 1.0), ("DRB2", 0.5)):
            comp = CountingCase(lemma, "complement", deriv_weight=False, **base)
            exc = CountingCase(lemma, "exceptional", **base)
            for tau in (-7.0, -2.5, 0.7):
                both = cell_measure(comp, tau, k) + cell_measure(exc, tau, k)
                free = _measure_without_gate(comp, tau, k)
                assert both == pytest.approx(free, rel=1e-12, abs=1e-12)

    def test_duality_identities(self):
        # dual lemmas evaluate to exactly the same sup quantity as their partners
        for lemma in ("DRB1", "DRB2"):
            for side in ("complement", "exceptional"):
                case = CountingCase(lemma, side, 8.0, 4.0, 2.0)
                partner = dual_case(case)
                for tau in (-11.0, -4.0, 2.0):
                    for k in (0.5, 1.0, 2.5):
                        assert cell_measure(case, tau, k) == pytest.approx(
                            cell_measure(partner, tau, k), rel=1e-12, abs=1e-15
                        )

    def test_validation(self):
        with pytest.raises(CountingError):
            CountingCase("RB3", "complement", 1.0, 1.0, 1.0)
        with pytest.raises(CountingError):
            CountingCase("RB1", "complement", 3.0, 1.0, 1.0)
        with pytest.raises(CountingError):
            CountingCase("RB1", "middle", 1.0, 1.0, 1.0)


def _measure_without_gate(case, tau, k):
    """Partition oracle: same windows, no exceptional-set restriction."""
    from gblab.resonance import _admissible_k1, _kernel_linear, _kernel_quadratic, _radius, _QUADRATIC

    j = _admissible_k1(case, tau, k)
    if j.size == 0:
        return 0.0
    k1 = j / case.lam
    kern = _kernel_quadratic if case.lemma in _QUADRATIC else _kernel_linear
    D, _, _ = kern(case, tau, k, k1)
    r1, r2 = _radius(case.M1), _radius(case.M2)
    length = np.clip(np.minimum(np.minimum(2 * r1, 2 * r2), r1 + r2 - np.abs(D)), 0, None)
    return float(np.sum(length) / case.lam)


class TestSupSweep:
    def test_ratios_bounded_small_grid(self):
        sampler = SweepSampler(n_random=3000, seed=5)
        ratios = []
        for lam in (1.0, 2.0):
            for M1 in (1.0, 4.0):
                for M2 in (1.0, 8.0):
                    case = CountingCase("RB1", "complement", M1, M2, lam)
                    r = sup_sweep(case, sampler)
                    assert r.sup_value >= 0
                    ratios.append(r.ratio)
        assert max(ratios) < 64.0
        assert max(ratios) / np.median(ratios) < 10.0

    def test_exceptional_halves_with_lambda(self):
        sampler = SweepSampler(n_random=4000, seed=11)
        sups = {}
        for lam in (1.0, 2.0, 4.0):
            case = CountingCase("RB1", "exceptional", 4.0, 4.0, lam)
            sups[lam] = sup_sweep(case, sampler).sup_value
        assert 0.3 < sups[2.0] / sups[1.0] < 0.7
        assert 0.3 < sups[4.0] / sups[2.0] < 0.7

    def test_nonperiodic_limit_stabilizes(self):
        sampler = SweepSampler(n_random=4000, seed=13)
        vals = []
        for lam in (16.0, 32.0, 64.0):
            case = CountingCase("RB1", "complement", 4.0, 4.0, lam)
            vals.append(sup_sweep(case, sampler).sup_value)
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 0.2

    def test_default_k_values(self):
        case = CountingCase("RB1", "complement", 1.0, 1.0, 2.0)
        assert 0.0 in default_k_values(case)
        case2 = CountingCase("RB2", "complement", 1.0, 1.0, 2.0)
        assert 0.0 not in default_k_values(case2)


def _loop_values(case, taus, k):
    """Reference sweep: every admissible k1 window enumerated in a Python loop,
    the way the sweep was evaluated before the linear kernels got closed forms."""
    from gblab.resonance import _QUADRATIC, _radius

    taus = np.asarray(taus, dtype=np.float64)
    out = np.zeros(taus.size)
    if case.lemma not in _QUADRATIC and k == 0.0:
        return out
    order = np.argsort(taus)
    ts = taus[order]
    lam = case.lam
    r1, r2 = _radius(case.M1), _radius(case.M2)
    R = r1 + r2
    cap = np.minimum(2.0 * r1, 2.0 * r2)
    if case.lemma in _QUADRATIC:
        y = -(ts + 0.5 * k * k)
        ymax = float(y.max())
        if ymax + R < 0:
            return out
        zmax = math.sqrt(max(2.0 * (ymax + R), 0.0))
        j_lo = math.ceil((-zmax + k) / 2.0 * lam - 1e-12)
        j_hi = math.floor((zmax + k) / 2.0 * lam + 1e-12)
        ys = y[::-1]
        acc = np.zeros(ys.size)
        for j in range(j_lo, j_hi + 1):
            z = (2.0 * j) / lam - k
            c = 0.5 * z * z
            lo_i = np.searchsorted(ys, c - R, side="left")
            hi_i = np.searchsorted(ys, c + R, side="right")
            if hi_i <= lo_i:
                continue
            yy = ys[lo_i:hi_i]
            length = np.minimum(cap, R - np.abs(0.5 * z * z - yy))
            s = np.sqrt(np.complex128(2.0 * yy))
            gate = np.minimum(np.abs(z - s), np.abs(z + s)) <= 1.0 / lam
            if case.side == "exceptional":
                contrib = length * gate
            else:
                w = math.sqrt(1.0 + z * z) if case.deriv_weight else 1.0
                contrib = w * length * (~gate)
            acc[lo_i:hi_i] += contrib
        vals = acc[::-1] / lam
    else:
        x = ts - k * k
        xmin, xmax = float(x.min()), float(x.max())
        b1 = (-(xmax) - R) / (2.0 * k)
        b2 = (-(xmin) + R) / (2.0 * k)
        j_lo = math.ceil(min(b1, b2) * lam - 1e-12)
        j_hi = math.floor(max(b1, b2) * lam + 1e-12)
        acc = np.zeros(x.size)
        gate_half = abs(k) / lam
        for jj in range(j_lo, j_hi + 1):
            k1 = jj / lam
            c = -2.0 * k * k1
            lo_i = np.searchsorted(x, c - R, side="left")
            hi_i = np.searchsorted(x, c + R, side="right")
            if hi_i <= lo_i:
                continue
            xx = x[lo_i:hi_i]
            length = np.minimum(cap, R - np.abs(xx + 2.0 * k * k1))
            gate = np.abs(xx + 2.0 * k * k1) <= gate_half
            if case.side == "exceptional":
                contrib = length * gate
            else:
                w = abs(k) if case.deriv_weight else 1.0
                contrib = w * length * (~gate)
            acc[lo_i:hi_i] += contrib
        vals = acc / lam
    out[order] = vals
    return out


def _gate_edge_range(case, tau, k, slack=1e-9):
    """cell_measure with the exceptional gate narrowed and widened by a relative
    slack: the values a point sitting on the gate's edge may take."""
    from gblab.resonance import _QUADRATIC, _admissible_k1, _radius

    j = _admissible_k1(case, tau, k)
    if j.size == 0:
        return 0.0, 0.0
    lam = case.lam
    k1 = j / lam
    r1, r2 = _radius(case.M1), _radius(case.M2)
    if case.lemma in _QUADRATIC:
        z = 2.0 * k1 - k
        D = 0.5 * z * z + (tau + 0.5 * k * k)
        s = np.sqrt(np.complex128(-2.0 * (tau + 0.5 * k * k)))
        dist = np.minimum(np.abs(z - s), np.abs(z + s))
        width = 1.0 / lam
        weight = np.sqrt(1.0 + z * z)
    else:
        D = tau - k * k + 2.0 * k * k1
        dist = np.abs(D)
        width = abs(k) / lam
        weight = np.full(k1.shape, abs(k))
    length = np.clip(np.minimum(min(2.0 * r1, 2.0 * r2), r1 + r2 - np.abs(D)), 0.0, None)
    vals = []
    for sl in (-slack, slack):
        gate = dist <= (1.0 + sl) * width
        if case.side == "exceptional":
            vals.append(float(np.sum(length[gate]) / lam))
        else:
            w = weight if case.deriv_weight else np.ones_like(length)
            vals.append(float(np.sum((w * length)[~gate]) / lam))
    return min(vals), max(vals)


def _sweep_cases():
    for lemma in LEMMAS:
        for side in SIDES:
            for deriv_weight in (True, False):
                yield CountingCase(lemma, side, 2.0, 1.0, 2.0, deriv_weight)


def _case_id(case):
    return f"{case.lemma}-{case.side}-{'weighted' if case.deriv_weight else 'unweighted'}"


def _sweep_ks(case):
    if case.lemma in ("RB1", "DRB2"):
        return (0.0, 0.5, -0.5, 1.5)
    # 16 puts the gate half-width |k|/lam past the window radius
    return (0.5, -0.5, 1.0, -1.0, 8.0, -16.0)


class TestBatchedValues:
    """The sweep evaluator against cell_measure point by point and against
    the per-k1 window loop it replaced."""

    @pytest.mark.parametrize("case", list(_sweep_cases()), ids=_case_id)
    def test_random_taus_match_cell_measure(self, case):
        rng = np.random.default_rng(17)
        for k in _sweep_ks(case):
            taus = rng.uniform(-60.0 - k * k, 20.0 + k * k, size=150)
            got = _batched_values(case, taus, k)
            want = np.array([cell_measure(case, t, k) for t in taus])
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("case", list(_sweep_cases()), ids=_case_id)
    def test_critical_taus_within_gate_edge_range(self, case):
        for k in _sweep_ks(case):
            taus = _critical_taus(case, k)
            got = _batched_values(case, taus, k)
            for tau, v in zip(taus, got):
                lo, hi = _gate_edge_range(case, float(tau), k)
                exact = cell_measure(case, tau, k)
                lo, hi = min(lo, exact), max(hi, exact)
                tol = 1e-12 * max(1.0, abs(hi))
                assert lo - tol <= v <= hi + tol, (tau, k, v, lo, hi)

    @pytest.mark.parametrize("lemma", ["RB2", "DRB1"])
    def test_linear_kernels_vanish_at_zero_frequency(self, lemma):
        for side in SIDES:
            case = CountingCase(lemma, side, 2.0, 2.0, 2.0)
            taus = np.linspace(-30.0, 10.0, 101)
            assert np.all(_batched_values(case, taus, 0.0) == 0.0)

    @pytest.mark.parametrize("case", list(_sweep_cases()), ids=_case_id)
    def test_matches_window_loop(self, case):
        rng = np.random.default_rng(3)
        sampler = SweepSampler(n_random=1500)
        for k in _sweep_ks(case):
            taus = sampler.taus(case, k, rng)
            got = _batched_values(case, taus, k)
            want = _loop_values(case, taus, k)
            if case.lemma in ("RB1", "DRB2") or case.side == "exceptional":
                # same operations on the same operands, term by term
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_sup_sweep_matches_window_loop(self, monkeypatch):
        sampler = SweepSampler(n_random=600, seed=9)
        cases = [
            CountingCase(lemma, side, M1, M2, lam)
            for lemma in LEMMAS
            for side in SIDES
            for lam in (1.0, 4.0)
            for M1, M2 in ((1.0, 1.0), (4.0, 2.0))
        ]
        fast = [sup_sweep(c, sampler) for c in cases]
        monkeypatch.setattr(resonance, "_batched_values", _loop_values)
        slow = [sup_sweep(c, sampler) for c in cases]
        for a, b in zip(fast, slow):
            assert a.n_samples == b.n_samples
            assert a.sup_value == pytest.approx(b.sup_value, rel=1e-12, abs=1e-12)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap trimming")
def test_repeated_sweeps_keep_their_heap():
    """A fresh process that only imports gblab must not hand the sweep's
    temporaries back to the kernel after each call and fault them in again."""
    script = """
import resource
import numpy as np
from gblab.resonance import CountingCase, SweepSampler, _batched_values

case = CountingCase("RB2", "complement", 2.0, 2.0, 1.0)
taus = SweepSampler(n_random=5000).taus(case, 1.0, np.random.default_rng(0))
_batched_values(case, taus, 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _batched_values(case, taus, 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # about 100 faults per call when every call's temporaries are trimmed
    assert int(proc.stdout) < 200
