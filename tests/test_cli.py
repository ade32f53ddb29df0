import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ringcarl import cli, config, nbody, stability, vlasov
from ringcarl.config import ALIASES, ConfigError, RunManifest, parse_config, sha256_file
from ringcarl.core import TimeSeries

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

# N = 2048 keeps the shot noise of |theta| below nbody.THETA_MIN: a stable run
QUIET = MINIMAL.replace("n_particles = 64", "n_particles = 2048")
# far past the CARL bound v_cm runs away faster than bgk.STATIONARY_SLOPE_TOL
RUNAWAY = QUIET.replace("t_end = 1.0", "t_end = 10.0").replace("dt = 0.05", "dt = 0.01").replace(
    "s_total = 8.0", "s_over_sc = 8.0").replace("a_over_s = 0.25", "a_over_s = 0.95") + (
    "\n[nbody]\ncosine_eps = 0.05\n")
BOUNDARY = MINIMAL.replace("mode = nbody", "mode = stability-boundary")


def with_key(text, name, value):
    """``text`` with ``section.key = value`` in place of the key's own line;
    the section is appended if the text has none."""
    section, key = name.split(".")
    if f"[{section}]" not in text:
        return text + f"\n[{section}]\n{key} = {value}\n"
    text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


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
        # solver sizes and the snapshot interval are range-checked with the rest
        sizes = MINIMAL + ("\n[vlasov]\nnx = 0\nnv = 1\nsnapshot_every = -0.5\n"
                           "\n[boundary]\nn_omega = -1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(sizes)
        assert [v.split(" must")[0] for v in err.value.violations] == [
            "vlasov.nx", "vlasov.nv", "boundary.n_omega", "vlasov.snapshot_every"]
        smallest = MINIMAL + "\n[vlasov]\nnx = 1\nnv = 2\n\n[boundary]\nn_omega = 1\n"
        assert parse_config(smallest).options["vlasov"]["nv"] == 2

    def test_slow_beam_rejects_asymmetric(self):
        for a_over_s in ("0.25", "1e-15"):  # A is the configured value: any A != 0
            with pytest.raises(ConfigError) as err:
                parse_config(SLOW_BEAM.replace("a_over_s = 0.0", f"a_over_s = {a_over_s}"))
            assert any("symmetric pumps" in v for v in err.value.violations)

    def test_grid_syntax(self):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5:2.0:4\na_over_s = 0.0, 0.3\n"
        cfg = parse_config(text)
        assert cfg.options["sweep"]["s_over_sc"] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0]
        )
        assert cfg.options["sweep"]["a_over_s"] == [0.0, 0.3]

    def test_seed_is_checked_and_recorded_once(self):
        """A seed passed in replaces run.seed before the checks: the config
        is the one whose text gives it, and it meets the same rule."""
        given = parse_config(MINIMAL.replace("mode = nbody", "mode = nbody\nseed = 42"))
        assert parse_config(MINIMAL, seed=42) == given
        assert given.seed == 42 and given.snapshot["run"]["seed"] == "42"
        for text, seed in ((MINIMAL, -1), (with_key(MINIMAL, "run.seed", -1), None)):
            with pytest.raises(ConfigError) as err:
                parse_config(text, seed=seed)
            assert err.value.violations == ["run.seed must be >= 0, got -1"]

    def test_boundary_file_names_must_differ(self):
        """Two temperatures with one boundary_ut<u_t:g>.csv name would
        overwrite each other's curve; a repeated temperature is fine."""
        for extra in ("3.0000001", "1, 1.0000001"):
            with pytest.raises(ConfigError) as err:
                parse_config(BOUNDARY + f"\n[boundary]\nu_t_list = {extra}\n")
            assert any(v.startswith("boundary.u_t_list") for v in err.value.violations)
        parse_config(BOUNDARY + "\n[boundary]\nu_t_list = 1, 1, 3.0\n")

    def test_docs_list_every_key_with_its_default_and_range(self):
        """docs/config.md has a row for every _SCHEMA key in its section's
        table, with the same default; the type column states the range."""
        rows, section = {}, None
        doc = Path(__file__).resolve().parents[1] / "docs/config.md"
        for line in doc.read_text().splitlines():
            if line.startswith("## "):
                section = re.match(r"## `\[(\w+)\]`", line)
            elif section and line.startswith("| `"):
                key, kind, default = (c.strip() for c in line.split("|")[1:4])
                rows[f"{section.group(1)}.{key.strip('`')}"] = kind, default
        for name, (tag, default, rule) in config._SCHEMA.items():
            assert name in rows, name
            kind, cell = rows[name]
            assert rule is None or rule in kind, name
            if default is config.REQUIRED or default is None:
                assert cell.startswith("*required*" if default else "unset"), name
            elif tag in ("bool", "str"):
                assert cell == {True: "`true`", False: "`false`", "": "empty"}[default], name
            else:
                assert float(re.match(r"`([^`]+)`", cell).group(1)) == default, name

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

    def test_pump_split_is_the_configured_one(self):
        p = parse_config(cli.load_preset("fig3")).params
        assert p.a_asym == 0.8 * p.s_total
        p = parse_config(cli.load_preset("slow-beam")).params
        assert p.s_total == 2 * stability.threshold_sc_a0(p) and p.a_asym == 0.0

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

    def test_streamed_writes_count_once(self, tmp_path):
        """Snapshots are written from inside the run, in the write stage
        only: the stages add up to no more than the run's wall time."""
        text = MINIMAL.replace("mode = nbody", "mode = vlasov")
        cfg = parse_config(text + "\n[vlasov]\nnx = 32\nnv = 64\nsnapshot_every = 0.05\n")
        t0 = time.perf_counter()
        manifest = cli.run_experiment(cfg, tmp_path)
        wall = time.perf_counter() - t0
        t = manifest.timings
        assert sum(name.startswith("snapshot_tau") for name in manifest.files) == 21
        assert 0 < t["integrate_s"] and 0 < t["write_s"]
        assert t["integrate_s"] + t["write_s"] <= wall
        assert t["us_per_step"] == pytest.approx(1e6 * t["integrate_s"] / 20)

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
        for mode in ("validate-wave", "nbody"):  # the old name runs the same mode
            text = MINIMAL.replace("mode = nbody", f"mode = {mode}").replace(
                "t_end = 1.0", "t_end = 4.0")
            cli.run_experiment(parse_config(text), tmp_path / mode)
            results = json.loads((tmp_path / mode / "manifest.json").read_text())["results"]
            assert results["classification"] == "ordered-wave"
            report = results["wave_report"]
            assert report["settled"] is True
            assert report["direction_ok"] is False
            assert all(type(v) is float for k, v in report.items()
                       if k not in ("settled", "direction_ok"))

    def test_series_results(self, tmp_path):
        """An N-body run records its label, the analytic regime of its (S, A)
        and, from a drifting start, the slowing fraction."""
        text = MINIMAL.replace("t_end = 1.0", "t_end = 2.0") + "\n[nbody]\nmean_u = 0.5\n"
        r = cli.run_experiment(parse_config(text), tmp_path).results
        assert r["classification"] in ("stable", "ordered-wave", "carl")
        assert r["analytic_regime"] == "stable"  # S = 8 lies below S_c
        assert "analytic_growth_re" not in r
        assert r["slowing_fraction"] == pytest.approx(1 - abs(r["trailing_v_cm"]) / 0.5)
        unstable = text.replace("s_total = 8.0", "s_over_sc = 2.0")
        r = cli.run_experiment(parse_config(unstable), tmp_path / "unstable").results
        assert r["analytic_regime"] == "bgk-ordered" and r["analytic_growth_re"] > 0
        # the Vlasov mode records the same keys from its [vlasov] section
        text = text.replace("mode = nbody", "mode = vlasov").replace(
            "[nbody]", "[vlasov]\nnx = 16\nnv = 32")
        r = cli.run_experiment(parse_config(text), tmp_path / "vlasov").results
        assert {"classification", "analytic_regime", "slowing_fraction", "lost_mass"} <= r.keys()

    @pytest.mark.parametrize("text, label", [(QUIET, "stable"), (RUNAWAY, "carl")],
                             ids=["stable", "runaway"])
    def test_wave_report_rule(self, tmp_path, text, label):
        """No wave report for a stable run, nor for a runaway whose trailing
        window drifts too fast to validate: both runs exit 0."""
        path = tmp_path / "run.ini"
        path.write_text(text.replace("mode = nbody", "mode = validate-wave"))
        assert cli.main(["validate-wave", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        results = json.loads((tmp_path / "r/manifest.json").read_text())["results"]
        assert results["classification"] == label
        assert "wave_report" not in results

    def test_failed_root_search_is_recorded(self, tmp_path, monkeypatch):
        """A failed analytic root search is an ``error:`` label, not a failed run."""
        monkeypatch.setattr(stability, "classify_regimes",
                            lambda points, params, stats=None: [RuntimeError("no roots")])
        r = cli.run_experiment(parse_config(MINIMAL), tmp_path).results
        assert r["analytic_regime"] == "error:RuntimeError"
        assert "analytic_growth_re" not in r and "classification" in r

    def test_boundary_computes_each_temperature_once(self, tmp_path, monkeypatch):
        calls = []
        curve = stability.boundary_curve
        monkeypatch.setattr(stability, "boundary_curve",
                            lambda p, grid: calls.append(p.u_t) or curve(p, grid))
        text = BOUNDARY + "\n[boundary]\nn_omega = 20\nu_t_list = 1, 1, 3.0\n"
        m = cli.run_experiment(parse_config(text), tmp_path)
        assert calls == [3.0, 1.0]
        assert sorted(m.files) == ["boundary_ut1.csv", "boundary_ut3.csv"]
        assert list(m.results["thresholds_a0"]) == ["u_t=3", "u_t=1"]

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

    def test_final_state_closes_the_snapshots(self, tmp_path):
        """A snapshot interval that does not divide t_end still ends the
        snapshots with the final state, and lost_mass is that state's."""
        text = MINIMAL.replace("mode = nbody", "mode = vlasov").replace(
            "n_particles = 64", "n_particles = 10000").replace("s_total = 8.0", "s_over_sc = 2.0")
        cfg = parse_config(text + "\n[vlasov]\nnx = 32\nnv = 64\nsnapshot_every = 0.3\n")
        manifest = cli.run_experiment(cfg, tmp_path)
        snaps = []
        _, final = vlasov.run_vlasov(
            cfg.params, t_end=cfg.t_end, sample_every=cfg.sample_every, dt=cfg.dt,
            snapshot=lambda tau, grid: snaps.append((tau, grid.copy())), **cfg.options["vlasov"])
        assert [tau for tau, _ in snaps] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert "snapshot_tau1.txt" in manifest.files
        assert (tmp_path / "snapshot_tau1.txt").exists()
        assert manifest.results["lost_mass"] == snaps[-1][1].lost_mass == final.lost_mass
        assert np.array_equal(snaps[-1][1].f, final.f)

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

    def test_timeseries_bytes(self, tmp_path):
        """abs_theta is Python's abs of each theta, written as _fmt writes
        it; np.abs over the array differs in the last bit for this theta."""
        theta = np.array([0.0005280519269644856 + 0.003495741281911387j, complex(-0.0, 1.0)])
        series = TimeSeries(tau=np.array([0.0, 0.1]), theta=theta, v_cm=np.array([0.5, -2.5e-310]),
                            intensities=np.arange(8.0).reshape(2, 4),
                            kinetic_energy=np.array([1e300, 0.1]), field_momentum=np.zeros(2))
        path = tmp_path / "ts.csv"
        cli.write_timeseries(path, series)
        assert path.read_bytes() == (
            b"tau,re_theta,im_theta,abs_theta,v_cm,i_ap,i_am,i_bp,i_bm,ekin,pfield\r\n"
            b"0.0,0.0005280519269644856,0.003495741281911387,0.0035353989799781264,0.5,"
            b"0.0,1.0,2.0,3.0,1e+300,0.0\r\n"
            b"0.1,-0.0,1.0,1.0,-2.5e-310,4.0,5.0,6.0,7.0,0.1,0.0\r\n")

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

    def test_grown_grid_resume_matches_fresh_sweep(self, tmp_path):
        """Rows resumed into a grown grid are the rows a fresh sweep of that
        grid writes: each row is a function of its cell alone."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 1.5, 3.0\na_over_s = 0.0, 0.4\n"
        grown = text.replace("0.5, 1.5, 3.0", "0.25, 0.5, 1, 1.5, 2, 3").replace(
            "a_over_s = 0.0, 0.4", "a_over_s = 0.0, 0.4, 0.8, 0.95")
        cli.run_experiment(parse_config(text), tmp_path / "run")
        m = cli.run_experiment(parse_config(grown), tmp_path / "run")
        assert (m.results["n_resumed"], m.results["n_computed"]) == (6, 18)
        cli.run_experiment(parse_config(grown), tmp_path / "fresh")
        resumed = (tmp_path / "run/phase_diagram.csv").read_bytes().splitlines()
        fresh = (tmp_path / "fresh/phase_diagram.csv").read_bytes().splitlines()
        assert resumed[0] == fresh[0]
        assert len(resumed) == len(fresh) == 25
        assert set(resumed) == set(fresh)

    def test_changed_grid_resume_keeps_only_its_cells(self, tmp_path):
        """A resume rewrites the CSV with the current grid's cells alone, in
        grid order: the file is a fresh sweep's, byte for byte."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 1.5, 3.0\na_over_s = 0.0, 0.4\n"
        changed = text.replace("0.5, 1.5, 3.0", "0.25, 1.5, 3.0, 4.0").replace(
            "a_over_s = 0.0, 0.4", "a_over_s = 0.4, 0.8")
        cli.run_experiment(parse_config(text), tmp_path / "run")
        m = cli.run_experiment(parse_config(changed), tmp_path / "run")
        assert (m.results["n_resumed"], m.results["n_computed"]) == (2, 6)
        rows = (tmp_path / "run/phase_diagram.csv").read_bytes().splitlines()
        assert len(rows) - 1 == m.results["n_cells"] == 8
        cli.run_experiment(parse_config(changed), tmp_path / "fresh")
        assert (tmp_path / "run/phase_diagram.csv").read_bytes() == (
            tmp_path / "fresh/phase_diagram.csv").read_bytes()

    def test_search_counts_in_manifest(self, tmp_path):
        """S = S_c at A = 0 puts a zero of D on the contour: that cell takes
        the per-cell path with a shifted axis."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 1.0, 2.0\na_over_s = 0.0, 0.4, 0.8\n"
        m = cli.run_experiment(parse_config(text), tmp_path)
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
        assert m.results["n_refined"] == 1
        assert m.results["n_roots_polished"] == sum(r.split(",")[2] != "stable" for r in rows)
        assert 1 <= m.results["max_newton_iterations"] <= 60
        rerun = cli.run_experiment(parse_config(text), tmp_path)
        assert (rerun.results["n_refined"], rerun.results["n_roots_polished"],
                rerun.results["max_newton_iterations"]) == (0, 0, 0)

    def test_dynamic_sweep_rows_independent_of_threads(self, tmp_path):
        """The worker pool runs only the N-body cells; its rows are the
        single-process rows."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0, 0.8\ndynamic = true\n"
        cfg = parse_config(text)
        one = cli.run_experiment(cfg, tmp_path / "one", threads=1)
        two = cli.run_experiment(cfg, tmp_path / "two", threads=2)
        assert (tmp_path / "one/phase_diagram.csv").read_bytes() == (
            tmp_path / "two/phase_diagram.csv").read_bytes()
        assert one.results == two.results
        rows = (tmp_path / "one/phase_diagram.csv").read_text().splitlines()[1:]
        assert all(len(r.split(",")[2].split("/")) == 2 for r in rows)

    def test_dynamic_sweep_applies_nbody_keys(self, tmp_path, monkeypatch):
        """Each N-body run of a dynamic sweep is seeded by the [nbody] keys."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\ndynamic = true\n"
        text += "\n[nbody]\ncosine_eps = 0.2\nquiet_velocities = true\n"
        inits = []
        run = nbody.run

        def recorded(params, init=None, **kwargs):
            inits.append(init)
            return run(params, init=init, **kwargs)

        monkeypatch.setattr(nbody, "run", recorded)
        cli.run_experiment(parse_config(text), tmp_path, threads=1)
        assert inits == 2 * [nbody.InitialCondition(cosine_eps=0.2, quiet_velocities=True)]

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
        """No manifest, or one that cannot be read, gets a full recompute."""
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        cfg = parse_config(text)
        cli.run_experiment(cfg, tmp_path)
        path = tmp_path / "manifest.json"
        damages = {
            "deleted": None,
            "truncated": lambda m: '{"truncated',  # what a kill during the write leaves
            "not an object": lambda m: "[1, 2]",
            "missing keys": lambda m: '{"config": {}}',
            "unknown key": lambda m: json.dumps({**m, "bogus": 1}),
            "wrong type": lambda m: json.dumps({**m, "files": []}),
        }
        for name, damage in damages.items():
            if damage is None:
                path.unlink()
            else:
                path.write_text(damage(json.loads(path.read_text())))
            m = cli.run_experiment(cfg, tmp_path)
            assert (m.results["n_resumed"], m.results["n_computed"]) == (0, 2), name

    def test_errored_cells_counted(self, tmp_path, monkeypatch):
        text = MINIMAL.replace("mode = nbody", "mode = phase-diagram")
        text += "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\n"
        classify = stability.classify_regimes

        def fail_above_threshold(points, params, stats=None):
            return [
                RuntimeError("root count mismatch")
                if point.s_total > stability.threshold_sc_a0(params) else res
                for point, res in zip(points, classify(points, params, stats))
            ]

        monkeypatch.setattr(stability, "classify_regimes", fail_above_threshold)
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

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nmode = nbody\n")
        assert cli.main(["nbody", "--config", str(bad)]) == 1
        # --seed applies to the parsed config: a syntax error is reported as such
        bad.write_text("mode = nbody\n")
        capsys.readouterr()
        assert cli.main(["nbody", "--config", str(bad), "--seed", "3"]) == 1
        assert "invalid config" in capsys.readouterr().err
        # the sweep grid is in units of S_c(A = 0), which is 0 for a cold gas
        bad.write_text(MINIMAL.replace("mode = nbody", "mode = phase-diagram").replace(
            "u_t = 3.0", "u_t = 0.0") + "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0, 0.5\n")
        assert cli.main(["phase-diagram", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert "needs u_t > 0" in capsys.readouterr().err
        vlasov_text = MINIMAL.replace("mode = nbody", "mode = vlasov")
        # intervals below dt (0.05) would round to one step each
        texts = [vlasov_text + tail for tail in (
            "\n[vlasov]\nnx = 0\n", "\n[vlasov]\nnx = -4\n", "\n[vlasov]\nnv = 1\n",
            "\n[vlasov]\nsnapshot_every = 0\n", "\n[boundary]\nn_omega = -1\n",
            "\n[vlasov]\nsnapshot_every = 0.001\n")]
        texts.append(vlasov_text.replace("sample_every = 0.1", "sample_every = 0.001"))
        for text in texts:
            bad.write_text(text)
            capsys.readouterr()
            assert cli.main(["vlasov", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
            assert "must be" in capsys.readouterr().err
        # sweep grids outside S >= 0 and |A/S| <= 1 or not finite, boundary
        # temperatures not above 0 (a cold gas has no marginal curve), and
        # delta = 0 where S_c(A = 0) diverges fail before any file is written
        sweep = MINIMAL.replace("mode = nbody", "mode = phase-diagram") + "\n[sweep]\n"
        boundary = MINIMAL.replace("mode = nbody", "mode = stability-boundary")
        resonant = MINIMAL.replace("delta = -1.0", "delta = 0.0")
        for command, text in (
            ("phase-diagram", sweep + "s_over_sc = -0.5, 1.5\na_over_s = 0.0\n"),
            ("phase-diagram", sweep + "s_over_sc = 0.5\na_over_s = 0.0, 1.5\n"),
            ("phase-diagram", sweep + "s_over_sc = 0.5, nan\na_over_s = 0.0\n"),
            ("phase-diagram", sweep.replace("delta = -1.0", "delta = 0.0")
             + "s_over_sc = 0.5\na_over_s = 0.0\n"),
            ("stability-boundary", boundary + "\n[boundary]\nu_t_list = -1\n"),
            ("stability-boundary", boundary + "\n[boundary]\nu_t_list = 0\n"),
            ("stability-boundary", boundary.replace("u_t = 3.0", "u_t = 0.0")),
            ("stability-boundary", boundary.replace("delta = -1.0", "delta = 0.0")),
            ("nbody", resonant.replace("s_total = 8.0", "s_over_sc = 2.0")),
            # the Vlasov grid needs a thermal width
            ("vlasov", MINIMAL.replace("mode = nbody", "mode = vlasov").replace(
                "u_t = 3.0", "u_t = 0.0")),
            # a run shorter than dt (0.05) takes no step
            ("nbody", MINIMAL.replace("t_end = 1.0", "t_end = 0.02")),
            ("vlasov", MINIMAL.replace("mode = nbody", "mode = vlasov").replace(
                "t_end = 1.0", "t_end = 0.02")),
        ):
            bad.write_text(text)
            out = tmp_path / "grid"
            capsys.readouterr()
            assert cli.main([command, "--config", str(bad), "--out", str(out)]) == 1, text
            err = capsys.readouterr().err
            assert "error: invalid config" in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("mode, name, value", [
        ("nbody", "run.t_end", "inf"),
        ("nbody", "run.sample_every", "inf"),
        ("vlasov", "vlasov.snapshot_every", "inf"),
        ("nbody", "physics.n_particles", "0"),
        ("nbody", "run.seed", "-1"),
        ("nbody", "run.seed", "--seed -1"),
    ])
    def test_former_crashes_are_config_errors(self, tmp_path, capsys, mode, name, value):
        """Values that used to raise in a run (OverflowError, ZeroDivisionError,
        numpy's ValueError) exit 1 before any file is written."""
        text = MINIMAL.replace("mode = nbody", f"mode = {mode}") + "\n[vlasov]\nnx = 8\nnv = 16\n"
        args = [mode, "--config", str(tmp_path / "bad.ini"), "--out", str(tmp_path / "r")]
        if value.startswith("--"):
            args += value.split()
        else:
            text = with_key(text, name, value)
        (tmp_path / "bad.ini").write_text(text)
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "error: invalid config" in err and name in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_nan_in_any_float_key_is_a_config_error(self, tmp_path, capsys):
        """One parser rule: a nan or inf in any float key, or in any element
        of a list or grid, is a config error that names the key."""
        lists = {"floatlist": ["1.0, nan"], "grid": ["1.0, nan", "0:inf:3"]}
        floats = {name: lists.get(tag, []) for name, (tag, _, _) in config._SCHEMA.items()
                  if tag in ("float", "floatlist", "grid")}
        assert len(floats) == 19
        bad = tmp_path / "bad.ini"
        for name, more in floats.items():
            for value in ["nan", "inf", "-inf", *more]:
                bad.write_text(with_key(MINIMAL, name, value))
                assert cli.main(["nbody", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
                err = capsys.readouterr().err
                assert "error: invalid config" in err and f"{name}: cannot parse" in err
                assert "Traceback" not in err and not (tmp_path / "r").exists()

    def test_threads_below_one_is_a_usage_error(self, tmp_path, monkeypatch):
        started = []
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            lambda **kw: started.append(kw))
        for n in ("0", "-3"):
            out = tmp_path / n
            assert cli.main(["phase-diagram", "--preset", "phase-diagram",
                             "--threads", n, "--out", str(out)]) == 1
            assert not out.exists()
        assert started == []

    def test_sweep_pool_is_capped_at_its_runs(self, tmp_path, monkeypatch):
        """A stand-in pool records its size and runs the cells in this
        process: no worker is started."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        cfg = tmp_path / "dynamic.ini"
        cfg.write_text(MINIMAL.replace("mode = nbody", "mode = phase-diagram")
                       + "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0\ndynamic = true\n")
        for threads, out in (("100000", "many"), ("1", "one")):
            assert cli.main(["phase-diagram", "--config", str(cfg), "--threads", threads,
                             "--out", str(tmp_path / out)]) == 0
        assert sizes == [2]
        assert (tmp_path / "many/phase_diagram.csv").read_bytes() == (
            tmp_path / "one/phase_diagram.csv").read_bytes()

    def test_mode_mismatch(self, tmp_path):
        good = tmp_path / "ok.ini"
        for mode, command in (("nbody", "vlasov"), ("validate-wave", "vlasov"),
                              ("vlasov", "classify"), ("classify", "phase-diagram")):
            good.write_text(MINIMAL.replace("mode = nbody", f"mode = {mode}"))
            assert cli.main([command, "--config", str(good)]) == 1

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_old_mode_names_run_nbody(self, tmp_path, alias):
        """An old mode name, in run.mode or as the subcommand, runs nbody;
        the manifest keeps the config's text."""
        text = SLOW_BEAM if alias == "slow-beam" else MINIMAL
        for given, command in ((alias, "nbody"), ("nbody", alias), (alias, alias)):
            path = tmp_path / f"{given}-{command}.ini"
            path.write_text(text.replace("mode = slow-beam", "mode = nbody").replace(
                "mode = nbody", f"mode = {given}"))
            out = tmp_path / f"{given}-{command}"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
            m = json.loads((out / "manifest.json").read_text())
            assert (m["mode"], m["config"]["run"]["mode"]) == ("nbody", given)
            assert "classification" in m["results"]

    def test_threads_only_for_phase_diagram(self):
        parser = cli._build_parser()
        assert parser.parse_args(["phase-diagram", "--preset", "x", "--threads", "2"]).threads == 2
        for command in ("nbody", "classify", "vlasov", "stability-boundary"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--preset", "x", "--threads", "2"])

    def test_usage_errors_exit_1(self, capsys):
        """argparse's usage errors are validation errors, not numerical
        failures (2); --help and --version still exit 0."""
        assert cli.main(["nbody", "--preset", "fig2", "--threads", "2"]) == 1
        assert cli.main(["nbody"]) == 1  # neither --config nor --preset
        assert cli.main(["nbody", "--preset", "fig2", "--svg"]) == 1  # no plots
        assert cli.main(["--help"]) == 0
        assert cli.main(["--version"]) == 0

    def test_run_at_zero_detuning(self, tmp_path, capsys):
        """delta = 0 is resonant CARL (carl_bound 0): an nbody run with
        s_total set runs; the manifest leaves out the divergent S_c(A = 0),
        and the wave relation, which has no root there, predicts null, not
        a NaN that strict JSON rejects."""
        cfg = tmp_path / "resonant.ini"
        cfg.write_text(MINIMAL.replace("delta = -1.0", "delta = 0.0"))
        assert cli.main(["nbody", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        m = json.loads((tmp_path / "r/manifest.json").read_text(), parse_constant=reject)
        assert m["error"] is None
        assert m["derived"]["carl_bound"] == 0.0
        assert not {"sc_a0", "s_bgk"} & m["derived"].keys()
        assert m["results"]["wave_report"]["v_ph_predicted"] is None

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
        # the override seeds the run as run.seed in the text does
        good.write_text(MINIMAL.replace("mode = nbody", "mode = nbody\nseed = 42"))
        assert cli.main(["nbody", "--config", str(good), "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "r/timeseries.csv").read_bytes() == (
            tmp_path / "s/timeseries.csv").read_bytes()

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

    def test_failed_run_keeps_earlier_snapshots(self, tmp_path, monkeypatch):
        """Snapshots are written as they are taken: a run that diverges
        keeps those taken before, each with its checksum in the manifest,
        and their writes count in write_s only (on a clock that only the
        writes advance, by 1 s each)."""
        flow = vlasov.mode_flow
        calls = []
        clock = [0.0]
        write = cli.write_snapshot

        def timed_write(path, grid):
            write(path, grid)
            clock[0] += 1.0

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(cli, "write_snapshot", timed_write)

        def failing_flow(a, theta, params, h, hamiltonian=False):
            calls.append(h)
            a, j = flow(a, theta, params, h, hamiltonian)
            return (a, j * np.nan) if len(calls) == 12 else (a, j)

        monkeypatch.setattr(vlasov, "mode_flow", failing_flow)
        cfg = tmp_path / "late-nan.ini"
        cfg.write_text(MINIMAL.replace("mode = nbody", "mode = vlasov")
                       + "\n[vlasov]\nnx = 16\nnv = 32\nsnapshot_every = 0.25\n")
        out = tmp_path / "r"
        assert cli.main(["vlasov", "--config", str(cfg), "--out", str(out)]) == 2
        m = json.loads((out / "manifest.json").read_text())
        assert m["error"] == "IntegrationDivergedError: integration diverged at tau = 0.6"
        kept = ["snapshot_tau0.txt", "snapshot_tau0.25.txt", "snapshot_tau0.5.txt"]
        assert sorted(path.name for path in out.glob("snapshot_tau*")) == sorted(kept)
        assert m["files"] == {name: sha256_file(out / name) for name in kept}
        assert m["timings"]["write_s"] == 3.0 and m["timings"]["integrate_s"] == 0.0

    def test_slow_beam_asymmetric_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "asym.ini"
        cfg.write_text(SLOW_BEAM.replace("a_over_s = 0.0", "a_over_s = 0.25"))
        assert cli.main(["slow-beam", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1

    def test_presets_subcommand(self, capsys):
        assert cli.main(["presets"]) == 0
        assert "fig2" in capsys.readouterr().out


def test_runs_never_import_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter that parses
    configs and runs the N-body, Vlasov, phase-diagram, boundary and
    classify modes never imports scipy."""
    tails = {
        "nbody": "",
        "vlasov": "\n[vlasov]\nnx = 16\nnv = 32\n",
        "phase-diagram": "\n[sweep]\ns_over_sc = 0.5, 2.0\na_over_s = 0.0, 0.8\n",
        "stability-boundary": "\n[boundary]\nn_omega = 50\n",
        "classify": "",
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
