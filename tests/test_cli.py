import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringcarl import cli, stability, vlasov
from ringcarl.config import ConfigError, RunManifest, parse_config, sha256_file

MINIMAL = """
[run]
mode = nbody
t_end = 1.0
dt = 0.05
sample_every = 0.1

[physics]
delta = -1.0
n_particles = 64
nu0 = -1.0
rho_r = 0.01
u_t = 3.0
s_total = 8.0
a_over_s = 0.25
"""

SLOW_BEAM = MINIMAL.replace("mode = nbody", "mode = slow-beam").replace(
    "a_over_s = 0.25", "a_over_s = 0.0") + "\n[nbody]\nmean_u = 0.5\n"


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "nbody"
        assert cfg.params.delta == -1.0
        assert cfg.params.s_total == pytest.approx(8.0)
        assert cfg.params.a_asym == pytest.approx(2.0)
        assert cfg.params.u0 == pytest.approx(-1.0 / 64)

    def test_empty_lists_all_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        msgs = "\n".join(err.value.violations)
        for key in ("run.mode", "physics.delta", "physics.n_particles",
                    "physics.nu0", "physics.u_t"):
            assert key in msgs

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\nbogus_key = 3\n")
        assert any("bogus_key" in v for v in err.value.violations)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[mystery]\nx = 1\n")
        assert any("mystery" in v for v in err.value.violations)

    def test_asymmetry_exceeding_total_rejected(self):
        bad = MINIMAL.replace("a_over_s = 0.25", "a_asym = 9.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_multiple_violations_reported_together(self):
        bad = MINIMAL.replace("t_end = 1.0", "t_end = -1").replace(
            "delta = -1.0", "delta = zebra"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.violations) >= 2

    def test_slow_beam_rejects_asymmetric(self):
        with pytest.raises(ConfigError) as err:
            parse_config(SLOW_BEAM.replace("a_over_s = 0.0", "a_over_s = 0.25"))
        assert any("symmetric pumps" in v for v in err.value.violations)

    def test_grid_syntax(self):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5:2.0:4\na_over_s = 0.0, 0.3\n"
        cfg = parse_config(text)
        assert cfg.options["sweep"]["s_over_sc"] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0]
        )
        assert cfg.options["sweep"]["a_over_s"] == [0.0, 0.3]

    def test_s_over_sc_resolution(self):
        text = MINIMAL.replace("s_total = 8.0", "s_over_sc = 2.0")
        cfg = parse_config(text)
        sc = stability.threshold_sc_a0(cfg.params)
        assert cfg.params.s_total == pytest.approx(2 * sc)


class TestPresets:
    def test_listing(self):
        names = cli.preset_names()
        assert {"fig2", "fig3", "fig5", "slow-beam", "phase-diagram"} <= set(names)

    def test_fig2_parameters(self):
        cfg = parse_config(cli.load_preset("fig2"))
        assert cfg.params.delta == -1.0
        assert cfg.params.u_t == 3.0
        assert cfg.params.a_asym / cfg.params.s_total == pytest.approx(0.3)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cli.load_preset("fig99")


class TestRunExperiment:
    def test_nbody_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL)
        manifest = cli.run_experiment(cfg, tmp_path)
        ts = tmp_path / "timeseries.csv"
        assert ts.exists()
        header = ts.read_text().splitlines()[0]
        assert header == ",".join(cli.TIMESERIES_HEADER)
        assert manifest.files["timeseries.csv"] == sha256_file(ts)
        saved = RunManifest.from_json((tmp_path / "manifest.json").read_text())
        assert saved.files == manifest.files
        assert "carl_bound" in saved.derived

    def test_determinism(self, tmp_path):
        cfg = parse_config(MINIMAL)
        cli.run_experiment(cfg, tmp_path / "a")
        cli.run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a/timeseries.csv").read_bytes() == (
            tmp_path / "b/timeseries.csv"
        ).read_bytes()

    @pytest.mark.parametrize("mode, steps", [("nbody", 20), ("vlasov", 20)])
    def test_stage_timings(self, tmp_path, mode, steps):
        text = MINIMAL.replace("mode = nbody", f"mode = {mode}")
        if mode == "vlasov":
            text += "\n[vlasov]\nnx = 16\nnv = 32\n"
        manifest = cli.run_experiment(parse_config(text), tmp_path / "a")
        t = manifest.timings
        assert {"setup_s", "integrate_s", "write_s"} <= t.keys()
        assert all(t[k] >= 0 for k in ("setup_s", "integrate_s", "write_s"))
        assert t["steps"] == steps
        assert t["us_per_step"] == pytest.approx(1e6 * t["integrate_s"] / steps)
        saved = RunManifest.from_json((tmp_path / "a/manifest.json").read_text())
        assert saved.timings == t
        # the timings differ between reruns; the CSVs do not
        cli.run_experiment(parse_config(text), tmp_path / "b")
        assert (tmp_path / "a/timeseries.csv").read_bytes() == (
            tmp_path / "b/timeseries.csv").read_bytes()

    @pytest.mark.parametrize("mode, inner", [("nbody", "_drift"), ("vlasov", "_kick")])
    def test_timed_steps_are_the_steps_run(self, tmp_path, monkeypatch, mode, inner):
        """timings.steps is the number of steps the run loop took: its inner
        part runs once per step."""
        module = getattr(cli, mode)
        calls = []
        part = getattr(module, inner)

        def counted(*args, **kwargs):
            calls.append(None)
            return part(*args, **kwargs)

        monkeypatch.setattr(module, inner, counted)
        text = MINIMAL.replace("mode = nbody", f"mode = {mode}").replace(
            "t_end = 1.0", "t_end = 1.04")
        if mode == "vlasov":
            text += "\n[vlasov]\nnx = 16\nnv = 32\n"
        manifest = cli.run_experiment(parse_config(text), tmp_path)
        assert manifest.timings["steps"] == len(calls) == 21

    def test_wave_report_flags_are_json_booleans(self, tmp_path):
        """settled and direction_ok reach the manifest as true/false, not 1.0/0.0."""
        text = MINIMAL.replace("mode = nbody", "mode = validate-wave").replace(
            "t_end = 1.0", "t_end = 4.0")
        cli.run_experiment(parse_config(text), tmp_path)
        report = json.loads((tmp_path / "manifest.json").read_text())["results"]["wave_report"]
        assert report["settled"] is True
        assert report["direction_ok"] is False
        assert all(type(v) is float for k, v in report.items()
                   if k not in ("settled", "direction_ok"))

    def test_boundary_mode(self, tmp_path):
        text = MINIMAL.replace("mode = nbody", "mode = stability-boundary")
        text += "\n[boundary]\nn_omega = 50\n"
        cli.run_experiment(parse_config(text), tmp_path)
        rows = (tmp_path / "boundary_ut3.csv").read_text().splitlines()
        assert rows[0] == "omega,S,A"
        assert len(rows) > 10

    def test_vlasov_snapshot_format(self, tmp_path):
        text = MINIMAL.replace("mode = nbody", "mode = vlasov")
        text += "\n[vlasov]\nnx = 16\nnv = 32\n"
        cli.run_experiment(parse_config(text), tmp_path)
        snap = tmp_path / "snapshot_tau1.txt"
        lines = snap.read_text().splitlines()
        assert lines[0] == "16 32"
        assert len(lines) == 17
        assert len(lines[1].split()) == 32

    def test_snapshot_bytes(self, tmp_path):
        """Each value is written as its shortest round-trip text, as _fmt
        writes it: signed zeros, subnormals and undershoots included."""
        f = np.array([[0.0, -0.0, 5e-324, -2.5e-310],
                      [-1.7e-15, 0.1, 1.0, 1e300]])
        grid = vlasov.PhaseSpaceGrid(np.array([0.0, np.pi]), np.arange(4.0), f)
        path = tmp_path / "snap.txt"
        cli.write_snapshot(path, grid)
        assert path.read_bytes() == (b"2 4\n0.0 -0.0 5e-324 -2.5e-310\n"
                                     b"-1.7e-15 0.1 1.0 1e+300\n")
        rng = np.random.default_rng(3)
        grid.f = rng.standard_normal((2, 4)) * 10.0 ** rng.integers(-320, 300, (2, 4))
        cli.write_snapshot(path, grid)
        rows = [" ".join(cli._fmt(v) for v in row) for row in grid.f]
        assert path.read_text() == "2 4\n" + "".join(r + "\n" for r in rows)

    def test_phase_diagram_and_resume(self, tmp_path):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        cfg = parse_config(text)
        m1 = cli.run_experiment(cfg, tmp_path)
        assert m1.results["n_computed"] == 2
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        regimes = {r.split(",")[2] for r in rows[1:]}
        assert "stable" in regimes and len(regimes) == 2  # one above threshold
        assert {"setup_s", "sweep_s", "write_s"} <= m1.timings.keys()
        # the rerun resumes although the recorded timings differ
        m2 = cli.run_experiment(cfg, tmp_path)
        assert m2.results["n_computed"] == 0
        assert m2.results["n_resumed"] == 2
        # a larger grid reuses the finished cells
        grown = parse_config(text.replace("a_over_s = 0.0\n", "a_over_s = 0.0, 0.5\n"))
        m3 = cli.run_experiment(grown, tmp_path)
        assert (m3.results["n_resumed"], m3.results["n_computed"]) == (2, 2)

    @pytest.mark.parametrize("change", [
        ("t_end = 1.0", "t_end = 0.5"),
        ("u_t = 3.0", "u_t = 2.0"),
        ("a_over_s = 0.0\n", "a_over_s = 0.0\ndynamic = true\n"),
    ])
    def test_resume_rejects_changed_config(self, tmp_path, change):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        fresh = tmp_path / "fresh"
        cli.run_experiment(parse_config(text), tmp_path / "run")
        changed = parse_config(text.replace(*change))
        m = cli.run_experiment(changed, tmp_path / "run")
        assert m.results["n_resumed"] == 0 and m.results["n_computed"] == 2
        cli.run_experiment(changed, fresh)
        assert (tmp_path / "run/phase_diagram.csv").read_bytes() == (
            fresh / "phase_diagram.csv"
        ).read_bytes()

    def test_resume_needs_manifest(self, tmp_path):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        cfg = parse_config(text)
        cli.run_experiment(cfg, tmp_path)
        (tmp_path / "manifest.json").unlink()
        assert cli.run_experiment(cfg, tmp_path).results["n_resumed"] == 0

    def test_errored_cells_counted(self, tmp_path, monkeypatch):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        classify = stability.classify_regime

        def fail_above_threshold(point, params):
            if point.s_total > stability.threshold_sc_a0(params):
                raise RuntimeError("root count mismatch")
            return classify(point, params)

        monkeypatch.setattr(stability, "classify_regime", fail_above_threshold)
        m = cli.run_experiment(parse_config(text), tmp_path)
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["stable", "error:RuntimeError"]
        assert m.results["n_errors"] == 1

    def test_slow_beam_requires_drift(self, tmp_path):
        text = MINIMAL.replace("mode = nbody", "mode = slow-beam")
        text = text.replace("a_over_s = 0.25", "a_over_s = 0.0")
        with pytest.raises(ConfigError):
            cli.run_experiment(parse_config(text), tmp_path)

    def test_slow_beam_applies_nbody_keys(self, tmp_path):
        """Every [nbody] key seeds the slow-beam run, not only mean_u."""
        cli.run_experiment(parse_config(SLOW_BEAM), tmp_path / "plain")
        quiet = SLOW_BEAM + "cosine_eps = 0.2\n"
        cli.run_experiment(parse_config(quiet), tmp_path / "quiet")
        plain = (tmp_path / "plain/timeseries.csv").read_bytes()
        assert (tmp_path / "quiet/timeseries.csv").read_bytes() != plain


class TestMain:
    def test_missing_config_file(self, capsys):
        assert cli.main(["nbody", "--config", "/nonexistent.ini"]) == 3

    def test_invalid_config(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nmode = nbody\n")
        assert cli.main(["nbody", "--config", str(bad)]) == 1

    def test_mode_mismatch(self, tmp_path):
        good = tmp_path / "ok.ini"
        good.write_text(MINIMAL)
        assert cli.main(["vlasov", "--config", str(good)]) == 1

    def test_successful_run_and_seed_override(self, tmp_path, capsys):
        good = tmp_path / "ok.ini"
        good.write_text(MINIMAL)
        rc = cli.main([
            "nbody", "--config", str(good),
            "--out", str(tmp_path / "r"), "--seed", "42",
        ])
        assert rc == 0
        m = json.loads((tmp_path / "r/manifest.json").read_text())
        assert m["config"]["run"]["seed"] == "42"
        assert m["error"] is None

    def test_failed_run_records_error(self, tmp_path, monkeypatch):
        """A run that diverges exits 2 and leaves a manifest that says why."""
        make_grid = vlasov.make_grid

        def nan_grid(*args, **kwargs):
            grid = make_grid(*args, **kwargs)
            grid.f[3, 5] = np.nan
            return grid

        monkeypatch.setattr(vlasov, "make_grid", nan_grid)
        cfg = tmp_path / "nan.ini"
        cfg.write_text(MINIMAL.replace("mode = nbody", "mode = vlasov")
                       + "\n[vlasov]\nnx = 16\nnv = 32\n")
        assert cli.main(["vlasov", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        m = json.loads((tmp_path / "r/manifest.json").read_text())
        assert m["error"].startswith("IntegrationDivergedError: ")
        assert m["finished"]

    def test_slow_beam_asymmetric_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "asym.ini"
        cfg.write_text(SLOW_BEAM.replace("a_over_s = 0.0", "a_over_s = 0.25"))
        assert cli.main(["slow-beam", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1

    def test_presets_subcommand(self, capsys):
        assert cli.main(["presets"]) == 0
        assert "fig2" in capsys.readouterr().out


def test_runs_never_import_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter that parses
    configs and runs the N-body, Vlasov, phase-diagram and boundary modes
    never imports scipy."""
    tails = {
        "nbody": "",
        "vlasov": "\n[vlasov]\nnx = 16\nnv = 32\n",
        "phase-diagram": "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0, 0.8\n",
        "stability-boundary": "\n[boundary]\nn_omega = 50\n",
    }
    texts = {m: MINIMAL.replace("mode = nbody", f"mode = {m}") + t for m, t in tails.items()}
    code = (
        "import json, sys\n"
        "from ringcarl import cli, config\n"
        "for mode, text in json.loads(sys.argv[1]).items():\n"
        "    cli.run_experiment(config.parse_config(text), sys.argv[2] + '/' + mode)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code, json.dumps(texts), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
    assert (tmp_path / "phase-diagram/phase_diagram.csv").exists()
    assert (tmp_path / "stability-boundary/boundary_ut3.csv").exists()


class TestFloatFormat:
    def test_roundtrip(self):
        for x in (0.1, 1e-17, 3.0, np.pi, -2.5e8):
            assert float(cli._fmt(x)) == float(x)
