"""Which gblab functions the traced run wraps, the counts derived at each
wrapped call, and the per-layer metrics computed from the spans.

The layers are the package's modules.  Each metric name starts with the
module it measures; BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import math
import os

import numpy as np

PACKAGE = "gblab"

# (metric name, unit); values are per measured round.  workload.wall_s is
# the runner's wall_s statistic measured under tracing.
METRICS = (
    ("workload.wall_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.cpu_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("illposedness.inflation_sweep.self_s", "s"),
    ("illposedness.rows_solved", "count"),
    ("solver.picard_solve.calls", "count"),
    ("solver.picard_solve.s", "s"),
    ("solver.picard_solve.self_s", "s"),
    ("solver.picard_iterations", "count"),
    ("solver.nonlinearity_rows.calls", "count"),
    ("solver.nonlinearity_rows.rows", "count"),
    ("solver.nonlinearity_rows.s", "s"),
    ("solver.fft_points", "count"),
    ("solver.integral_residual.s", "s"),
    ("solver.a2_iterate.calls", "count"),
    ("solver.a2_iterate.s", "s"),
    ("solver.trajectory_bytes", "bytes"),
    ("solver.reference_solve.s", "s"),
    ("resonance.sup_sweep.calls", "count"),
    ("resonance.sup_sweep.s", "s"),
    ("resonance.samples", "count"),
    ("resonance.samples_per_s", "1/s"),
    ("resonance.cell_measure.calls", "count"),
    ("resonance.cell_measure.s", "s"),
    ("norms.ws_norm.calls", "count"),
    ("norms.ws_norm.s", "s"),
    ("norms.ws_norm.cells", "count"),
    ("norms.xsb_norm.s", "s"),
    ("norms.h_norm.calls", "count"),
    ("bilinear_probe.bilinear_image.calls", "count"),
    ("bilinear_probe.bilinear_image.s", "s"),
    ("bilinear_probe.bilinear_image.cells", "count"),
    ("bilinear_probe.ratio_probe.self_s", "s"),
    ("lattice.spacetime_built", "count"),
    ("lattice.bytes_copied", "bytes"),
    ("lattice.dump_spectrum.s", "s"),
    ("lattice.dump_spectrum.bytes", "bytes"),
    ("reduction.omega_multiplier.calls", "count"),
)


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _pad_points(modes: int, dealias: float) -> int:
    """Padded FFT length: a power of two >= max(dealias*modes, 2*modes-1)."""
    need = max(math.ceil(dealias * modes), 2 * modes - 1)
    return 1 << max(need - 1, 0).bit_length()


def _nonlinearity_hook(counters, args, kwargs, result):
    rows = np.atleast_2d(args[0]).shape[0]
    counters["solver.nonlinearity_rows.rows"] += rows
    if _arg(args, kwargs, 5, "include_quadratic", True):
        modes = args[1].modes
        dealias = _arg(args, kwargs, 3, "dealias", 2.0)
        # one inverse and one forward transform per row
        counters["solver.fft_points"] += 2 * rows * _pad_points(modes, dealias)


def _picard_hook(counters, args, kwargs, result):
    counters["solver.picard_iterations"] += result.report.iterations
    held = [result.trajectory] + list(result.iterates)
    counters["solver.trajectory_bytes"] += sum(t.coeff.nbytes for t in held)


def _sup_sweep_hook(counters, args, kwargs, result):
    counters["resonance.samples"] += result.n_samples


def _cells_hook(metric):
    def hook(counters, args, kwargs, result):
        counters[metric] += args[0].coeff.size

    return hook


def _dump_hook(counters, args, kwargs, result):
    counters["lattice.dump_spectrum.bytes"] += os.path.getsize(args[1])


def _inflation_hook(counters, args, kwargs, result):
    counters["illposedness.rows_solved"] += sum(r.error is None for r in result.rows)


def _spacetime_hook(counters, obj):
    counters["lattice.spacetime_built"] += 1
    counters["lattice.bytes_copied"] += obj.coeff.nbytes + obj.tau.nbytes


# (module, function, hook); the module is also the span name's prefix
WRAPPED = (
    ("cli", "main", None),
    ("illposedness", "inflation_sweep", _inflation_hook),
    ("solver", "picard_solve", _picard_hook),
    ("solver", "nonlinearity_rows", _nonlinearity_hook),
    ("solver", "integral_residual", None),
    ("solver", "a2_iterate", None),
    ("solver", "reference_solve", None),
    ("resonance", "sup_sweep", _sup_sweep_hook),
    ("resonance", "cell_measure", None),
    ("norms", "ws_norm", _cells_hook("norms.ws_norm.cells")),
    ("norms", "xsb_norm", None),
    ("norms", "h_norm", None),
    ("bilinear_probe", "bilinear_image", _cells_hook("bilinear_probe.bilinear_image.cells")),
    ("bilinear_probe", "ratio_probe", None),
    ("lattice", "dump_spectrum", _dump_hook),
    ("reduction", "omega_multiplier", None),
)


def install(tracer) -> None:
    """Wrap every function in WRAPPED and count SpacetimeSpectrum builds."""
    import gblab.lattice

    for module, attr, hook in WRAPPED:
        tracer.wrap_function(PACKAGE, module, attr, hook, cpu=(module, attr) == ("cli", "main"))
    tracer.count_method(gblab.lattice.SpacetimeSpectrum, "__post_init__", _spacetime_hook)


def layer_metrics(by_name: dict, counters: dict, rounds: int) -> dict:
    """Per-round values of every metric in METRICS from span totals and counters."""

    def span(name, field):
        return by_name.get(name, {}).get(field, 0)

    raw = dict(counters)
    for module, attr, _ in WRAPPED:
        name = f"{module}.{attr}"
        for field in ("calls", "s", "self_s"):
            raw[f"{name}.{field}"] = span(name, field)
    sweep_s = raw["resonance.sup_sweep.s"]
    raw["resonance.samples_per_s"] = raw.get("resonance.samples", 0) / sweep_s if sweep_s else 0.0
    out = {}
    for name, unit in METRICS:
        value = raw.get(name, 0)
        if name != "resonance.samples_per_s":
            value = value / rounds
        out[name] = {"value": float(value), "unit": unit}
    return out
