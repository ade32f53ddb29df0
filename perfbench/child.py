"""One benchmark repetition in a fresh interpreter.

    python child.py CONFIG OUTDIR SPAWN_TIME [TRACE_PATH]

Parses the INI file CONFIG and runs it through the public entry
``ringcarl.cli.run_experiment`` (single process) into OUTDIR; an OUTDIR
of ``-`` stops after the set-up and reports only ``setup_s``.  SPAWN_TIME
is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start, ``import ringcarl`` and
``parse_config``.  With TRACE_PATH the layer wrappers are installed first
and the spans are written there after the run.  RuntimeWarnings are
errors, as in acceptance criterion 8.  Prints one JSON line.
"""

import json
import resource
import sys
import time
import warnings


def main(argv) -> int:
    config_path, outdir, spawned = argv[1], argv[2], float(argv[3])
    trace_path = argv[4] if len(argv) > 4 else None
    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from ringcarl import cli, config

    with open(config_path) as fh:
        cfg = config.parse_config(fh.read())
    setup_s = time.monotonic() - spawned
    if outdir == "-":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    warnings.simplefilter("error", RuntimeWarning)
    t0 = time.perf_counter()
    cli.run_experiment(cfg, outdir, threads=1)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
    print(json.dumps({"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
