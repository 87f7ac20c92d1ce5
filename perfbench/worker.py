"""Runs one problem file in a fresh interpreter, as `orecalc run` would.

    python3 perfbench/worker.py FILE [--setup-only] [--spans PATH]

Module-level state of the engine (random generators, oracle memos,
interned rings) starts fresh in every process, so repeated runs of a file
start equal.  With --setup-only the worker imports orecalc, parses the file
and exits; its caller times the whole process.  Otherwise it runs the
tasks and prints one JSON line: the `--format json` report, the wall time
of `cli.run`, whether each telescope, growth and zeilberger task checked
the membership of its results, and peak resident memory.  With --spans
every layer is traced (see tracer.py) and the spans are written to PATH at
exit.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# cli.run's task entry points, with the task kind each one serves
TASK_ENTRIES = {
    "fasenmyer_search": "telescope",
    "growth_probe": "growth",
    "growth_zero_dimensional": "growth",
    "zeilberger_search": "zeilberger",
}


def _record_tasks(cli, records):
    """Rebind cli's task entry points to recorders; one record per call."""
    def recorded(kind, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if kind == "telescope":
                results = out.results
            elif kind == "zeilberger":
                results = [out[0]] if out[0] is not None else []
            else:
                results = []
            records.append({
                "kind": kind,
                "membership_checked": all(r.membership_checked for r in results)})
            return out
        return call

    for attr, kind in TASK_ENTRIES.items():
        setattr(cli, attr, recorded(kind, getattr(cli, attr)))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import orecalc.cli as cli
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(args.file) as fh:
        text = fh.read()
    pf = cli.parse(text)
    if args.setup_only:
        return 0

    records = []
    _record_tasks(cli, records)
    out = io.StringIO()
    t0 = time.perf_counter()
    status, rendered = cli.run(pf, fmt="json", out=out)
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"status": status, "report": rendered, "run_s": run_s,
                      "tasks": records, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
