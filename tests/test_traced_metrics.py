"""The benchmark's tracer finds every function it wraps in the program.

``perfbench/spans.py`` drops the metrics of a target it cannot find, so a
renamed or deleted function would silently shrink every traced result.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_target_is_present(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        missing = [t.name for t, ok in zip(tracer.targets, tracer.present) if not ok]
        doc = tracer.document()
    finally:
        tracer.uninstall()
    assert missing == []
    # run.py adds the workload checks and the trace overhead to the layer metrics
    produced = set(spans.layer_metrics(doc)) | set(run.DIAGNOSTICS) | {"trace_overhead_s"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= produced
