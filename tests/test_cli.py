import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gblab import cli
from gblab.cli import _kendall_tau_b, main
from gblab.lattice import dump_spectrum, field_from_modes, make_lattice


def run(args):
    return main(args)


class TestBasics:
    def test_print_defaults(self, capsys):
        assert run(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[solve]" in out and "[inflate]" in out

    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_bad_config_path(self, tmp_path):
        rc = run(["solve", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "ini, command, named",
        [
            ("[solve]\nlamda = 8\n", ["solve"], "[solve] lamda"),
            ("[solv]\nlam = 8\n", ["solve"], "[solv]"),
            ("[solve]\nlam = abc\n", ["solve"], "[solve] lam"),
            ("[solve]\nmax_picard = 4.5\n", ["solve"], "[solve] max_picard"),
            ("[solve]\ncompare_reference = maybe\n", ["solve"], "[solve] compare_reference"),
            ("[counting]\nmax_over_median = 10\n", ["verify", "--suite", "counting"],
             "[counting] max_over_median"),
            ("[embeddings]\nlambdas = 1\n", ["verify", "--suite", "embeddings"],
             "[embeddings] lambdas"),
            ("[counting]\nlambdas = 4\n", ["verify", "--suite", "counting"], "[counting] lambdas"),
            ("[bilinear]\nlambdas = 4,4\n", ["verify", "--suite", "bilinear"], "[bilinear] lambdas"),
            ("[embeddings]\ns_values = -0.5\nthetas = 1.0\n", ["verify", "--suite", "embeddings"],
             "[embeddings] s_values, thetas"),
            ("[counting]\nm_cap = 0.5\n", ["verify", "--suite", "counting"], "[counting] m_cap"),
            ("[l4]\nn_fields = 0\n", ["verify", "--suite", "l4"], "[l4] n_fields"),
            ("lam = 8\n", ["solve"], "no section headers"),
            ("[solve]\nt = 0\n", ["solve"], "T must be positive"),
            ("[solve]\nt = -0.25\n", ["solve"], "T must be positive"),
            ("[solve]\nt = inf\n", ["solve"], "T must be finite"),
            ("[solve]\ndt = inf\n", ["solve"], "dt must be finite"),
            # keys of other commands are converted too, so verify rejects them
            ("[solve]\ndata = bogus\n", ["verify", "--suite", "l4"], "[solve] data"),
            ("[inflate]\nvariant = bogus\n", ["verify", "--suite", "l4"], "[inflate] variant"),
            ("[norms]\nfamily = bogus\n", ["verify", "--suite", "l4"], "[norms] family"),
            # ws_norm takes -1/2 <= s <= -1/4: an s outside it stops the run
            # before the counting suite writes counting.csv
            ("[embeddings]\ns_values = -0.5,-0.1\n", ["verify", "--suite", "counting", "--suite",
             "embeddings"], "[embeddings] s_values"),
            ("[bilinear]\ns = -0.1\n", ["verify", "--suite", "counting", "--suite", "bilinear"],
             "[bilinear] s"),
        ],
        ids=["unknown-key", "unknown-section", "float", "int", "bool", "check-bound",
             "one-lambda", "one-counting-lambda", "repeated-lambda", "no-embedding-pair",
             "no-dyadic-size", "no-fields", "unparsable", "zero-interval",
             "negative-interval", "infinite-interval", "infinite-step", "data-kind",
             "variant", "family", "embeddings-s-range", "bilinear-s-range"],
    )
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, ini, command, named):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        assert run(command + ["--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_printed_defaults_read_back_as_the_defaults(self, tmp_path, capsys):
        assert run(["--print-defaults"]) == 0
        cfg = tmp_path / "defaults.ini"
        cfg.write_text(capsys.readouterr().out)
        outputs = []
        for name, extra in (("plain", []), ("printed", ["--config", str(cfg)])):
            out = tmp_path / name
            assert run(["solve", "--out-dir", str(out)] + extra) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            manifest.pop("wall_time_s")
            outputs.append(((out / "trajectory.spec").read_bytes(), manifest))
        assert outputs[0] == outputs[1]


class TestSolve:
    def test_zero_data(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[solve]\ndata = zero\nk = 2.0\nlam = 2.0\ndt = 0.01\nt = 0.2\n")
        rc = run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["checks"]["residual_below_tolerance"]["passed"]
        assert (tmp_path / "o" / "trajectory.spec").exists()

    def test_contracting_with_reference(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[solve]\ndata = modes\ndata_modes = 1.0:0.02\nk = 3.0\nlam = 2.0\n"
            "dt = 0.001\nt = 0.2\ncompare_reference = true\n"
        )
        rc = run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["checks"]["reference_agreement"]["passed"]

    def test_rejected_reference_step_is_a_finding(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[solve]\nlam = 2\nk = 8\nt = 0.1\ndt = 0.01\ndata = modes\n"
            "data_modes = 1.0:32, -2.0:16j, 3.0:9.6\ncompare_reference = true\n"
        )
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["residual_below_tolerance"]["passed"]
        check = manifest["checks"]["reference_agreement"]
        assert not check["passed"] and "reduce dt" in check["detail"]["step_rejected"]

    def test_config_seed_used_without_flag(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[solve]\ndata = gaussian\nseed = 7\nk = 2.0\nlam = 2.0\ndt = 0.01\nt = 0.1\n"
        )
        runs = {}
        for name, extra in (("config", []), ("seven", ["--seed", "7"]), ("zero", ["--seed", "0"])):
            out = tmp_path / name
            assert run(["solve", "--config", str(cfg), "--out-dir", str(out)] + extra) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs[name] = ((out / "trajectory.spec").read_bytes(), manifest["seed"])
        assert runs["config"] == runs["seven"]
        assert runs["config"][1] == 7 and runs["zero"][1] == 0
        assert runs["config"][0] != runs["zero"][0]

    def test_workers_flag_is_rejected(self, tmp_path):
        for command in (["solve"], ["inflate"], ["norms", "f.spec"], ["verify", "--suite", "l4"]):
            with pytest.raises(SystemExit) as exc:
                run(command + ["--workers", "2", "--out-dir", str(tmp_path)])
            assert exc.value.code == 2

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[solve]\ndata = modes\ndata_modes = oops\n")
        out = tmp_path / "o"
        rc = run(["solve", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 2
        assert not (out / "trajectory.spec").exists()


class TestVerify:
    def test_counting_small(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[counting]\nlambdas = 1,2\nm_cap = 4\nn_random = 1500\n")
        out = tmp_path / "o"
        rc = run(["verify", "--suite", "counting", "--config", str(cfg), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["counting_duality_exact"]["passed"]
        assert manifest["checks"]["counting_ratio_spread"]["passed"]
        assert (out / "counting.csv").exists()
        assert rc in (0, 1)  # trend check on a tiny grid may legitimately flag

    def test_embeddings_small(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[embeddings]\nlambdas = 1,2\ns_values = -0.5\nthetas = 0.5, 1.0\nn_fields = 40\n"
        )
        out = tmp_path / "o"
        rc = run(["verify", "--suite", "embeddings", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "embeddings.json").read_text())
        assert len(rows) == 2  # (s, theta) = (-0.5, 1.0) is skipped

    def test_l4_small(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l4]\nlambdas = 1,4\nn_fields = 15\n")
        out = tmp_path / "o"
        rc = run(["verify", "--suite", "l4", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0

    def test_duality_check_catches_a_faulty_sweep_evaluator(self, tmp_path, monkeypatch):
        evaluator = cli._batched_values

        def perturbed(case, taus, k):
            return evaluator(case, taus, k) * (1.0 + 1e-9)

        monkeypatch.setattr(cli, "_batched_values", perturbed)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[counting]\nlambdas = 1,2\nm_cap = 2\nn_random = 500\n")
        out = tmp_path / "o"
        rc = run(["verify", "--suite", "counting", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert not manifest["checks"]["counting_duality_exact"]["passed"]

    def test_internal_fault_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        import gblab.bilinear_probe as bp

        def broken(u, v, kind):
            raise RuntimeError("image failed\nsecond line")

        monkeypatch.setattr(bp, "bilinear_image", broken)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[bilinear]\nlambdas = 4,16\nn_trials = 1\n")
        rc = run(["verify", "--suite", "bilinear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "RuntimeError" in err
        assert len(err.strip().splitlines()) == 1

    def test_value_error_of_the_program_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(u0, cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "picard_solve", broken)
        rc = run(["solve", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("internal error: ValueError")


class TestKendallTauB:
    def test_matches_scipy_with_ties_in_both_variables(self):
        from scipy.stats import kendalltau

        rng = np.random.default_rng(4)
        for n in (2, 7, 128, 600):
            x = rng.integers(0, 5, size=n).astype(float)
            y = np.round(rng.standard_normal(n) + 0.1 * x, 1)
            want = kendalltau(x, y).statistic
            assert abs(_kendall_tau_b(x, y) - want) <= 1e-15

    def test_constant_input_is_nan(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert math.isnan(_kendall_tau_b(x, np.full(4, 2.5)))
        assert math.isnan(_kendall_tau_b(np.zeros(4), x))


def test_runs_without_scipy(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[counting]\nlambdas = 1,2\nm_cap = 2\nn_random = 500\n[l4]\nlambdas = 1\nn_fields = 4\n"
    )
    # scipy is blocked before gblab is imported, so any scipy import fails
    script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from gblab.bilinear_probe import bilinear_image
from gblab.cli import main
from gblab.lattice import SpacetimeSpectrum, make_lattice, make_tau_grid

argv = ["verify", "--suite", "counting", "--suite", "l4", "--config", {str(cfg)!r},
        "--out-dir", {str(tmp_path / "o")!r}]
assert main(argv) == 0
lat = make_lattice(1.0, 5.0)
tau = make_tau_grid(5.0, 1.0)
u = SpacetimeSpectrum(lat, tau, np.ones((tau.size, lat.modes), dtype=complex))
assert np.isfinite(bilinear_image(u, u, "u vbar").coeff).all()
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


class TestInflate:
    def test_small_sweep_with_explicit_list(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[inflate]\nlam = 4.0\nt0 = 0.5\nk = 48.0\ncond_factor = 2.0\n"
            "n_list = 9.5, 15.5, 40.75\ndelta = 0.01\ns = -0.75\n"
        )
        out = tmp_path / "o"
        rc = run(["inflate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["inflation_verdict"]["passed"]
        assert (out / "inflation.csv").exists()
        assert (out / "inflation_plot.tsv").exists()

    def test_auto_scan_records_list(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[inflate]\nlam = 4.0\nt0 = 0.5\nk = 48.0\ncond_factor = 2.0\n"
            "delta = 0.01\ns = -0.75\n"
        )
        out = tmp_path / "o"
        rc = run(["inflate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        chosen = manifest["checks"]["chosen_frequencies"]["detail"]["n_list"]
        assert len(chosen) >= 4
        assert chosen == sorted(chosen)


class TestNorms:
    def test_field_norm(self, tmp_path):
        lat = make_lattice(2.0, 3.0)
        f = field_from_modes(lat, {1.0: 2.0})
        spec = tmp_path / "f.spec"
        dump_spectrum(f, spec)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[norms]\nfamily = Hs\ns = -0.5\n")
        out = tmp_path / "o"
        rc = run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "norm.json").read_text())
        expected = math.sqrt((1 / 2.0) * (1 + 1.0) ** -0.5 * 4.0)
        assert payload["value"] == pytest.approx(expected, rel=1e-12)

    def test_spacetime_needs_tau_max(self, tmp_path):
        from gblab.lattice import SpacetimeSpectrum, make_tau_grid

        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(4.0, 1.0)
        u = SpacetimeSpectrum(lat, tau, np.ones((tau.size, lat.modes), dtype=complex))
        spec = tmp_path / "u.spec"
        dump_spectrum(u, spec)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[norms]\nfamily = Ws\ns = -0.5\n")
        rc = run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        cfg.write_text("[norms]\nfamily = Ws\ns = -0.5\ntau_max = 4.0\n")
        rc = run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(tmp_path / "o2")])
        assert rc == 0

    @pytest.mark.parametrize("tau_max", ["0", "-5", "inf", "nan"])
    def test_tau_max_must_be_positive_and_finite(self, tmp_path, capsys, recwarn, tau_max):
        from gblab.lattice import SpacetimeSpectrum, make_tau_grid

        lat = make_lattice(1.0, 2.0)
        tau = make_tau_grid(4.0, 1.0)
        spec = tmp_path / "u.spec"
        dump_spectrum(SpacetimeSpectrum(lat, tau, np.ones((tau.size, lat.modes), dtype=complex)), spec)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[norms]\nfamily = Xsb\ntau_max = {tau_max}\n")
        out = tmp_path / "o"
        assert run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tau_max" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "body, message",
        [(None, "cannot read"), (b"abc", "header"), (-16, "expected")],
        ids=["missing", "short", "truncated"],
    )
    def test_bad_dump_exits_2(self, tmp_path, capsys, body, message):
        spec = tmp_path / "f.spec"
        if body is not None:
            dump_spectrum(field_from_modes(make_lattice(2.0, 3.0), {1.0: 2.0}), spec)
            spec.write_bytes(body if isinstance(body, bytes) else spec.read_bytes()[:body])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[norms]\nfamily = Hs\n")
        out = tmp_path / "o"
        rc = run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "f.spec" in err
        assert not (out / "norm.json").exists()


    def test_one_row_spacetime_dump_exits_2(self, tmp_path, capsys):
        # the header alone sets the row count: one tau row gives no grid step
        from gblab.lattice import _HEADER

        lat = make_lattice(1.0, 2.0)
        spec = tmp_path / "u.spec"
        spec.write_bytes(_HEADER.pack(lat.lam, lat.K, lat.modes, 1) + bytes(16 * lat.modes))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[norms]\nfamily = Ws\ntau_max = 4.0\n")
        out = tmp_path / "o"
        assert run(["norms", str(spec), "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tau rows" in err and "Traceback" not in err
        assert not (out / "norm.json").exists()

    def test_ws_shells_memory_is_bounded_on_a_large_dump(self, tmp_path):
        # a 4401 x 513 grid is 34 MiB of coefficients; the W shells take one
        # binning pass over it, never a full-grid copy per shell
        from gblab.lattice import SpacetimeSpectrum, make_tau_grid

        lat = make_lattice(8.0, 32.0)
        tau = make_tau_grid(1100.0, 0.5)
        assert (tau.size, lat.modes) == (4401, 513)
        rng = np.random.default_rng(3)
        shape = (tau.size, lat.modes)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = tmp_path / "u.spec"
        dump_spectrum(SpacetimeSpectrum(lat, tau, c), spec)
        del c
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[norms]\nfamily = Ws\ns = -0.5\ntau_max = 1100.0\n")
        # VmHWM is the peak of this address space alone; ru_maxrss would also
        # count the forking test process, whose pages the child held until exec
        script = """
import sys
from gblab.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""
        out = tmp_path / "o"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, "norms", str(spec), "--config", str(cfg),
             "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        shells = json.loads((out / "norm.json").read_text())["shells"]
        assert shells and shells[-1]["M"] == 4096.0  # <1100 + 32^2> is about 2124
        peak_mb = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < 300.0


class TestDeterminism:
    def _strip_wall(self, path):
        payload = json.loads(Path(path).read_text())
        payload.pop("wall_time_s")
        return payload

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[counting]\nlambdas = 1,2\nm_cap = 2\nn_random = 800\n"
            "[l4]\nlambdas = 1\nn_fields = 6\n"
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["verify", "--suite", "counting", "--suite", "l4",
                 "--config", str(cfg), "--seed", "5", "--out-dir", str(out)])
            outs.append(out)
        a, b = outs
        assert (a / "counting.csv").read_bytes() == (b / "counting.csv").read_bytes()
        assert (a / "l4.json").read_bytes() == (b / "l4.json").read_bytes()
        assert self._strip_wall(a / "manifest.json") == self._strip_wall(b / "manifest.json")

    def test_inflate_rerun_identical(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[inflate]\nlam = 4.0\nt0 = 0.5\nk = 32.0\ncond_factor = 2.0\n"
            "n_list = 9.5, 12.25\ndelta = 0.01\ns = -0.75\n"
        )
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["inflate", "--config", str(cfg), "--out-dir", str(out)])
            blobs.append(
                (out / "inflation.csv").read_bytes()
                + (out / "inflation.json").read_bytes()
                + (out / "inflation_plot.tsv").read_bytes()
            )
        assert blobs[0] == blobs[1]
