"""Correctness checks on one round's outputs, computed apart from the program.

Each check returns a list of problems; an empty list means the output is
correct.  The checks use closed forms worked out by hand, brute-force sums
written from the definitions, an independent integrator, and properties the
method must have.  They never compare against a stored copy of an earlier
output.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------- inflation

def inflation_data_norm(delta: float, lam: float, N: float, s: float) -> float:
    """H^s norm of delta*sqrt(N)*(e_N + e_{N+1/lam}) with the 1/lam measure."""
    w = (1.0 + N * N) ** s + (1.0 + (N + 1.0 / lam) ** 2) ** s
    return delta * math.sqrt(N) * math.sqrt(w / lam)


def inflation_second_norm(delta: float, lam: float, N: float, t0: float, s: float) -> float:
    """H^s norm of the second iterate of the two-mode data, worked by hand.

    Products of the modes N and N + 1/lam reach only the outputs 0 and
    +-1/lam; the smoothing multiplier kills 0 and equals 1/2 at +-1/lam.  At
    k = +1/lam the interaction phase is 2k(k - k1) = -2N/lam, at k = -1/lam it
    is 2(N + 1/lam)/lam, and |int_0^t0 e^{i theta t} dt| = 2|sin(theta t0/2)|/|theta|.
    """
    def phase_int(theta):
        return 2.0 * abs(math.sin(0.5 * theta * t0)) / abs(theta)

    p_plus = phase_int(-2.0 * N / lam)
    p_minus = phase_int(2.0 * (N + 1.0 / lam) / lam)
    coef = delta**2 * N * 0.5 * 0.5 / (lam * SQRT_TWO_PI)  # (i/2) m(k) / (lam sqrt(2 pi))
    weight = (1.0 + 1.0 / lam**2) ** s
    return coef * math.sqrt(weight * (p_plus**2 + p_minus**2) / lam)


def check_inflation(report: dict, delta: float, lam: float, t0: float, s: float) -> list:
    problems = []
    rows = report["rows"]
    if not rows:
        return ["no frequency rows"]
    for row in rows:
        N = row["N"]
        for s_key, norms in row["norms"].items():
            sv = float(s_key)
            data = inflation_data_norm(delta, lam, N, sv)
            if _rel(norms["data"], data) > 1e-12:
                problems.append(f"N={N} s={sv}: data norm {norms['data']!r} != closed form {data!r}")
            if _rel(norms["free"], norms["data"]) > 1e-12:
                problems.append(f"N={N} s={sv}: free norm {norms['free']!r} != data norm (group is unitary)")
            second = inflation_second_norm(delta, lam, N, t0, sv)
            if _rel(norms["second"], second) > 1e-9:
                problems.append(f"N={N} s={sv}: second iterate {norms['second']!r} != hand sum {second!r}")
    solved = [r for r in rows if r["error"] is None]
    key = repr(s)
    data = [r["norms"][key]["data"] for r in solved]
    if any(a <= b for a, b in zip(data, data[1:])):
        problems.append(f"H^{s} data norms do not fall monotonically in N: {data}")
    floor = delta**2 * lam**-0.5
    low = [r["norms"][key]["solution_low"] / floor for r in solved]
    if len(solved) < 2 or min(low) <= 0.01:
        problems.append(f"low band falls to its floor: {low}")
    if report["verdict"] != "norm-inflation":
        problems.append(f"verdict {report['verdict']!r}, expected 'norm-inflation'")
    return problems


# ------------------------------------------------------------------ counting

QUADRATIC_LEMMAS = ("RB1", "DRB2")


def brute_cell(lemma, side, M1, M2, lam, tau, k, gate_slack=0.0) -> float:
    """(1/lam) sum over lattice k1 of the length of the intersection of the
    two tau1 modulation windows, each cut at twice its dyadic size.

    Quadratic lemmas (RB1, DRB2): windows |tau1 + k1^2| <= 2M1 and
    |tau - tau1 + (k - k1)^2| <= 2M2; the exceptional set is k1 within
    1/(2 lam) of a resonant k1 (2k1 - k within 1/lam of +-sqrt(-2tau - k^2));
    the complement carries the weight <2k1 - k>.
    Linear lemmas (RB2, DRB1): windows |tau1 + k1^2| <= 2M1 and
    |tau1 - tau + (k1 - k)^2| <= 2M2; the exceptional set is
    |tau - k^2 + 2k k1| <= |k|/lam; the complement carries the weight |k|.
    gate_slack widens (> 0) or narrows (< 0) the exceptional set by that
    share of its width, to bracket points that sit exactly on its edge.
    """
    r1, r2 = 2.0 * M1, 2.0 * M2
    quadratic = lemma in QUADRATIC_LEMMAS
    if not quadratic and k == 0.0:
        return 0.0
    if quadratic:
        reach = math.sqrt(r1 + r2 + abs(tau)) + 1.0
    else:
        reach = (r1 + r2 + abs(tau) + k * k) / (2.0 * abs(k)) + 1.0
    j = np.arange(math.floor(-reach * lam) - 1, math.ceil(reach * lam) + 2)
    k1 = j / lam
    a_lo, a_hi = -k1 * k1 - r1, -k1 * k1 + r1
    centre = tau + (k - k1) ** 2 if quadratic else tau - (k1 - k) ** 2
    b_lo, b_hi = centre - r2, centre + r2
    length = np.clip(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0.0, None)
    if quadratic:
        y = -(tau + 0.5 * k * k)
        z = 2.0 * k1 - k
        if y >= 0.0:
            root = math.sqrt(2.0 * y)
            dist = np.minimum(np.abs(z - root), np.abs(z + root))
        else:
            dist = np.sqrt(z * z - 2.0 * y)
        exceptional = dist <= (1.0 + gate_slack) / lam
        weight = np.sqrt(1.0 + z * z)
    else:
        exceptional = np.abs(tau - k * k + 2.0 * k * k1) <= (1.0 + gate_slack) * abs(k) / lam
        weight = np.full(k1.shape, abs(k))
    if side == "exceptional":
        return float(np.sum(length[exceptional]) / lam)
    return float(np.sum((weight * length)[~exceptional]) / lam)


def brute_range(lemma, side, M1, M2, lam, tau, k) -> tuple:
    """Brute-force value with the exceptional set's edge taken both ways."""
    vals = [brute_cell(lemma, side, M1, M2, lam, tau, k, slack) for slack in (-1e-9, 1e-9)]
    return min(vals), max(vals)


def _in_range(value, lo_hi, rtol=1e-9) -> bool:
    lo, hi = lo_hi
    tol = rtol * max(1.0, abs(hi))
    return lo - tol <= value <= hi + tol


def kendall_tau_b(x, y) -> float:
    """Kendall's tau-b over all pairs (ties in x or y counted apart)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(x.size, 1)
    dx, dy = dx[iu], dy[iu]
    num = float(np.sum(dx * dy))
    den = math.sqrt(float(np.sum(dx != 0)) * float(np.sum(dy != 0)))
    return num / den if den else 0.0


def check_counting(rows: list, seed: int, n_points: int = 2) -> list:
    from gblab.resonance import CountingCase, cell_measure

    problems = []
    if not rows:
        return ["no counting rows"]
    rng = np.random.default_rng(seed)
    for r in rows:
        label = f"{r['lemma']}/{r['side']} lam={r['lambda']:g} M=({r['M1']:g},{r['M2']:g})"
        args = (r["lemma"], r["side"], r["M1"], r["M2"], r["lambda"])
        bound = r["M1"] * r["M2"] if r["side"] == "complement" else min(r["M1"], r["M2"]) / r["lambda"]
        if _rel(r["bound"], bound) > 1e-15 or _rel(r["ratio"], r["sup_value"] / bound) > 1e-12:
            problems.append(f"{label}: bound/ratio columns inconsistent")
        at_witness = brute_range(*args, r["witness_tau"], r["witness_k"])
        if not _in_range(r["sup_value"], at_witness):
            problems.append(f"{label}: sup {r['sup_value']!r} != brute force {at_witness} at the witness")
        case = CountingCase(*args)
        for _ in range(n_points):
            k = r["witness_k"] if r["witness_k"] != 0.0 else 1.0 / r["lambda"]
            tau = r["witness_tau"] + rng.uniform(-4.0, 4.0) * (r["M1"] + r["M2"])
            value = cell_measure(case, tau, k)
            expected = brute_range(*args, tau, k)
            if not _in_range(value, expected):
                problems.append(f"{label}: cell_measure({tau!r}, {k!r}) = {value!r}, brute force {expected}")
    ratios = np.array([r["ratio"] for r in rows])
    spread = float(ratios.max() / np.median(ratios))
    if not spread < 10.0:
        problems.append(f"max/median ratio {spread:.3f} >= 10")
    for name, x in (("M1*M2", [r["M1"] * r["M2"] for r in rows]), ("lambda", [r["lambda"] for r in rows])):
        tau_b = kendall_tau_b(x, ratios)
        if not abs(tau_b) < 0.3:
            problems.append(f"ratios trend with {name}: Kendall tau {tau_b:.3f}")
    exc = {(r["lemma"], r["lambda"], r["M1"], r["M2"]): r["sup_value"]
           for r in rows if r["side"] == "exceptional"}
    factors = [exc[(lem, 2 * lam, m1, m2)] / v for (lem, lam, m1, m2), v in exc.items()
               if (lem, 2 * lam, m1, m2) in exc and v > 0]
    if not factors:
        problems.append("no lambda pairs on the exceptional side")
    else:
        med = float(np.median(factors))
        if not 0.4 <= med <= 0.6:
            problems.append(f"exceptional side does not halve under lambda doubling: median factor {med:.3f}")
    return problems


# ------------------------------------------------------------------ bilinear

def w_norm_minus_half(coeff, tau, k, lam) -> float:
    """W^{-1/2} norm from its region projections: X^{-1/2,1} on
    <tau+k^2> <= <k>, X^{1/2,0} on <k> < <tau+k^2> <= <k>^2, the l1 sum over
    dyadic shells [M, 2M) of X^{1/2,0} on <tau+k^2> > <k>^2, and
    Y^{-1/2} on <tau+k^2> > 4<k>^2."""
    dtau = float(tau[1] - tau[0])
    brk = np.sqrt(1.0 + k * k)[None, :]
    mod = np.sqrt(1.0 + (tau[:, None] + (k * k)[None, :]) ** 2)
    a2 = np.abs(coeff) ** 2
    meas = dtau / lam

    def proj(mask):
        return np.where(mask, a2, 0.0)

    low = mod <= brk
    mid = (mod > brk) & (mod <= brk**2)
    tail = mod > brk**2
    very = mod > 4.0 * brk**2
    x_low = math.sqrt(float(np.sum(proj(low) * mod**2 / brk)) * meas)
    x_mid = math.sqrt(float(np.sum(proj(mid) * brk)) * meas)
    shells = 0.0
    M = 1.0
    top = float(mod.max())
    while M <= top:
        shell = tail & (mod < 2.0 * M) & ((mod >= M) if M > 1.0 else True)
        shells += math.sqrt(float(np.sum(proj(shell) * brk)) * meas)
        M *= 2.0
    l1 = np.sum(np.where(very, np.abs(coeff), 0.0), axis=0) * dtau
    y_very = math.sqrt(float(np.sum(l1**2 / brk[0])) / lam)
    return x_low + x_mid + shells + y_very


def direct_image(u, v, tau, k, lam, kind):
    """Bilinear image by direct summation over the populated cells of the
    first factor: the space-time convolution of the two factors' spectra
    (conjugated factors reflected through the origin), truncated to the grid,
    times dtau/(2 pi lam), the multiplier (lam k)^2/(1 + (lam k)^2) and
    <tau + k^2>^-1."""
    def bar(c):
        return np.conj(c[::-1, ::-1])

    a, b = {"u v": (u, v), "u vbar": (u, bar(v)), "ubar vbar": (bar(u), bar(v))}[kind]
    n_t, n_k = a.shape
    ht, hk = (n_t - 1) // 2, (n_k - 1) // 2
    out = np.zeros((n_t, n_k), dtype=np.complex128)
    for i, j in np.argwhere(a != 0):
        di, dj = i - ht, j - hk  # offset of this cell from the origin
        r0, r1 = max(di, 0), min(n_t + di, n_t)
        c0, c1 = max(dj, 0), min(n_k + dj, n_k)
        if r0 < r1 and c0 < c1:
            out[r0:r1, c0:c1] += a[i, j] * b[r0 - di : r1 - di, c0 - dj : c1 - dj]
    out *= (tau[1] - tau[0]) / (2.0 * math.pi * lam)
    m = (lam * k) ** 2 / (1.0 + (lam * k) ** 2)
    mod = np.sqrt(1.0 + (tau[:, None] + (k * k)[None, :]) ** 2)
    return out * m[None, :] / mod


def ls_slope(lams, values) -> float:
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def first_trial_pair(kind, generator, s, lam, seed):
    """Regenerate the inputs of a probe's first trial from its seed."""
    from gblab.bilinear_probe import generate_pair

    rng = np.random.default_rng(seed + zlib.crc32(f"{kind}|{generator}|{s}|{lam}".encode()))
    return generate_pair(kind, generator, lam, rng)


def check_bilinear(sweeps: list, seed: int, s: float) -> list:
    from gblab.bilinear_probe import bilinear_image

    problems = []
    by_kind = {sw["kind"]: sw for sw in sweeps}
    for sw in sweeps:
        if [max(r) for r in sw["ratios"]] != sw["max_ratios"]:
            problems.append(f"{sw['kind']}: max_ratios are not the maxima of the trial ratios")
        slope = ls_slope(sw["lambdas"], sw["max_ratios"])
        if abs(slope - sw["slope"]) > 1e-9:
            problems.append(f"{sw['kind']}: reported slope {sw['slope']!r}, fit gives {slope!r}")
    cross = ls_slope(by_kind["u vbar"]["lambdas"], by_kind["u vbar"]["max_ratios"])
    if not 0.0 <= cross <= 0.7:
        problems.append(f"cross-term slope {cross:.3f} outside [0, 0.7] (predicted +1/2)")
    for sw in sweeps:
        kind, lam = sw["kind"], sw["lambdas"][0]
        u, v = first_trial_pair(kind, sw["generator"], s, lam, seed)
        tau, k = u.tau, u.lattice.k
        img = direct_image(u.coeff, v.coeff, tau, k, lam, kind)
        ratio = w_norm_minus_half(img, tau, k, lam) / (
            w_norm_minus_half(u.coeff, tau, k, lam) * w_norm_minus_half(v.coeff, tau, k, lam)
        )
        if _rel(sw["ratios"][0][0], ratio) > 1e-9:
            problems.append(f"{kind} lam={lam:g}: first-trial ratio {sw['ratios'][0][0]!r} != direct {ratio!r}")
        if kind == "u v":
            uv = bilinear_image(u, v, "u v").coeff
            vu = bilinear_image(v, u, "u v").coeff
            if np.abs(uv - vu).max() > 1e-12 * np.abs(uv).max():
                problems.append("u v image changes when u and v are swapped")
    return problems


# --------------------------------------------------------------------- solve

_HEADER = struct.Struct("<ddQQ")


def read_dump(path):
    """(lam, K, modes, rows, coefficients) of a binary spectrum dump."""
    raw = open(path, "rb").read()
    lam, K, modes, rows = _HEADER.unpack_from(raw)
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    coeff = (body[0::2] + 1j * body[1::2]).reshape(max(rows, 1), modes)
    return lam, K, modes, rows, coeff


def _quadratic_rhs_factory(lam, k):
    """Interaction-picture right-hand side with the quadratic term summed
    directly over the lattice (np.convolve), no padded transforms."""
    m = (lam * k) ** 2 / (1.0 + (lam * k) ** 2)
    n = k.size
    h = (n - 1) // 2
    k2 = k * k

    def F(u):
        w = u + np.conj(u[::-1])  # spectrum of u + conj(u)
        sq = np.convolve(w, w)[h : h + n] / (lam * SQRT_TWO_PI)
        return (u - np.conj(u[::-1])) / (2.0 * lam * lam) - 0.25 * m * sq

    def rhs(t, v):
        return -1j * np.exp(1j * k2 * t) * F(v * np.exp(-1j * k2 * t))

    return rhs


def rk4_endpoint(u0, lam, k, T, dt):
    rhs = _quadratic_rhs_factory(lam, k)
    v = u0.astype(np.complex128)
    n = int(round(T / dt))
    for i in range(n):
        t = i * dt
        a = rhs(t, v)
        b = rhs(t + 0.5 * dt, v + 0.5 * dt * a)
        c = rhs(t + 0.5 * dt, v + 0.5 * dt * b)
        d = rhs(t + dt, v + dt * c)
        v = v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
    return v * np.exp(-1j * k * k * T)


def _h_minus_half(c, k, lam) -> float:
    return math.sqrt(float(np.sum(np.abs(c) ** 2 / np.sqrt(1.0 + k * k))) / lam)


def check_solve(path, u0, lam, K, T, dt) -> list:
    from gblab.lattice import load_spectrum

    problems = []
    d_lam, d_K, modes, rows, coeff = read_dump(path)
    half = math.ceil(K * lam)
    if (d_lam, d_K, modes, rows) != (lam, K, 2 * half + 1, int(round(T / dt)) + 1):
        return [f"dump header {(d_lam, d_K, modes, rows)} does not describe the run"]
    _, p_rows, p_coeff = load_spectrum(path)
    if p_rows != rows or not np.array_equal(p_coeff, coeff):
        problems.append("dump does not reload to the coefficients written")
    if not np.array_equal(coeff[0], u0):
        problems.append("trajectory does not start at the data")
    k = np.arange(-half, half + 1) / lam
    t = np.arange(rows) * dt
    zero = coeff[:, half]
    scale = float(np.abs(u0).max())
    im_dev = float(np.abs(zero.imag - u0[half].imag).max())
    re_dev = float(np.abs(zero.real - (u0[half].real + t * u0[half].imag / lam**2)).max())
    if max(im_dev, re_dev) > 1e-12 * scale:
        problems.append(f"zero mode leaves its exact law: Im dev {im_dev:.3e}, Re dev {re_dev:.3e}")
    ref = rk4_endpoint(u0, lam, k, T, dt)
    rel = _h_minus_half(coeff[-1] - ref, k, lam) / _h_minus_half(ref, k, lam)
    if not rel < 1e-6:
        problems.append(f"endpoint differs from the direct-convolution RK4 by {rel:.3e} in relative H^-1/2")
    return problems
