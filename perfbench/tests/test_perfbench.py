"""Tests of the benchmark itself: configs, span arithmetic, failure counting.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from ringcarl import cli  # noqa: E402
from ringcarl.config import parse_config  # noqa: E402
from run import Rep, count_operations  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, check_sweep_rows, check_wave  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config_bytes(name):
    wl = WORKLOADS[name]
    assert wl.config(7).encode() == wl.config(7).encode()
    assert wl.config(7) != wl.config(8)
    cfg = parse_config(wl.config(7))
    assert cfg.seed == 7


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping), and
    # a grandchild g [2, 3] under a; a second root r2 [11, 12]
    start = [0.0, 1.0, 3.0, 2.0, 11.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, -1]
    own = self_times(start, end, parent)
    assert list(own) == pytest.approx([10.0 - 5.0, 3.0 - 1.0, 3.0, 1.0, 1.0])


def test_layer_shares_from_hand_built_document():
    doc = {
        "targets": [
            {"name": "ringcarl.cli.run_experiment", "layer": "cli", "present": True},
            {"name": "ringcarl.nbody.run", "layer": "nbody", "present": True},
            {"name": "ringcarl.vlasov.vlasov_step", "layer": "vlasov", "present": True},
        ],
        "spans": {
            "target": [0, 1, 2, 2],
            "parent": [-1, 0, 0, 0],
            "start": [0.0, 0.0, 6.0, 7.0],
            "end": [10.0, 6.0, 7.0, 9.0],
        },
        "counters": {"ringcarl.nbody.run": {"steps": 3000, "particle_steps": 3e7}},
    }
    m = layer_metrics(doc)
    assert m["nbody.share"] == pytest.approx(0.6)
    assert m["vlasov.share"] == pytest.approx(0.3)
    assert m["cli.share"] == pytest.approx(0.1)
    assert m["nbody.us_per_step"] == pytest.approx(2000.0)
    assert m["vlasov.vlasov_step.calls"] == 2
    assert m["vlasov.vlasov_step.p50_ms"] == pytest.approx(1500.0)


def test_missing_target_reports_metric_absent(monkeypatch):
    import ringcarl.vlasov as vlasov

    # a later change deletes one function and renames another's parameter
    monkeypatch.delattr(vlasov, "shift_periodic_chi")
    monkeypatch.setattr(vlasov, "vlasov_step", lambda state, fields, params, dt: None)
    original = vlasov.shift_clamped_u
    tracer = Tracer()
    tracer.install()
    try:
        assert vlasov.shift_clamped_u is not original
        vlasov.shift_clamped_u(vlasov.np.ones((4, 8)), vlasov.np.zeros(4))
    finally:
        tracer.uninstall()
    assert vlasov.shift_clamped_u is original
    m = layer_metrics(tracer.document())
    assert "vlasov.chi_shift.s" not in m
    assert "vlasov.vlasov_step.calls" not in m
    assert "vlasov.cell_updates_per_s" not in m
    assert m["vlasov.u_shift.s"] > 0
    assert m["vlasov.run_vlasov.s"] == 0.0
    assert m["vlasov.share"] == pytest.approx(1.0)


def _small_sweep(tmp_path):
    text = WORKLOADS["sweep-analytic"].config(3)
    text = text.replace("0.25:3.0:40", "0.5, 2.0").replace("0.0:0.9:25", "0.0, 0.8")
    cfg = parse_config(text)
    cli.run_experiment(cfg, tmp_path)
    with open(tmp_path / "phase_diagram.csv", newline="") as fh:
        return cfg, list(csv.DictReader(fh))


def test_error_row_counts_as_failed(tmp_path):
    cfg, rows = _small_sweep(tmp_path)
    oks = check_sweep_rows(rows, cfg, dynamic=False)
    assert oks == [True] * 4
    assert {r["regime"] for r in rows} >= {"stable", "carl"}
    rows[1]["regime"] = "error:RuntimeError"
    bad = check_sweep_rows(rows, cfg, dynamic=False)
    assert count_operations([Rep(False, 0.0, oks), Rep(False, 0.0, bad)]) == (8, 1)


def test_wrong_label_counts_as_failed(tmp_path):
    cfg, rows = _small_sweep(tmp_path)
    i = next(i for i, r in enumerate(rows) if r["regime"] == "carl")
    rows[i]["regime"] = "bgk-ordered"
    assert check_sweep_rows(rows, cfg, dynamic=False).count(False) == 1


def test_failed_wave_check_counts_as_failed(tmp_path):
    report = {"settled": True, "residual": 0.2}
    (tmp_path / "manifest.json").write_text(
        json.dumps({"results": {"wave_report": report}}))
    with open(tmp_path / "timeseries.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", "abs_theta"])
        w.writerows([[0.1 * i, 0.3] for i in range(20)])
    oks, diag = check_wave(tmp_path, None)
    assert oks == [False]
    assert diag["bgk.residual"] == 0.2
    assert count_operations([Rep(False, 0.0, oks)]) == (1, 1)
