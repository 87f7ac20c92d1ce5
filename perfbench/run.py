"""The orecalc benchmark: seeded problem files, timed end to end and traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run from the root of a checkout.  The load is a closed loop with one
client: one problem file at a time, each in a fresh interpreter running
perfbench/worker.py, with no threads and no worker pool.

A run first times set-up (interpreter start, `import orecalc` and
`cli.parse` of every file of the workload) many times, then repeats passes
over the workload's files until S seconds have gone, and reports medians
over passes.  Every task of every pass is checked (`check_entry`); a task
that fails, or a file whose process fails, counts against `failed`.  With
--trace 1 the passes alternate between traced and untraced ones and the
metrics are the per-layer ones (tracer.py), plus the tracing overhead:
traced minus untraced run_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the checkout holds no engine or
corpus to run, and 3 when a process outran the deadline before one full
pass (two when traced) was measured; a slow run prints no result, and is
not counted as a wrong one.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

GOLDEN = os.path.join(HERE, "golden")
WORK = os.path.join(HERE, ".work")
CORPUS = os.path.join(ROOT, "corpus")
# set-up is timed in this many interpreter starts, taken in turns over the
# workload's files and at least SETUP_MIN_PER_FILE per file: one start takes
# about 0.15 s and single starts vary by about 30 % within seconds, so a
# median needs many of them; 40 take about 6 s of a run
SETUP_STARTS = 40
SETUP_MIN_PER_FILE = 8
# Processes are stopped this long after the measuring time has ended: room
# for set-up and for the pass that was running.
DEADLINE_MARGIN_S = 150
# Fasenmyer degree budget of the negative control: 5 spends 20-30 s in row
# clearing, as one continuous pass; 4 takes about 7 s, and 6, the corpus
# budget, about 80 s.
NONPROPER_MAXDEG = 5


def _nonproper(text):
    """The negative control without its growth probe, at a smaller budget."""
    text = re.sub(r"(?m)^growth [^;]*;\n", "", text)
    return re.sub(r"(telescope [^;]*maxdeg )\d+", r"\g<1>%d" % NONPROPER_MAXDEG,
                  text)


# name -> corpus files, with the edit each gets before seeding
WORKLOADS = {
    "fasenmyer-nonproper": [("nonproper", _nonproper)],
    "flagship-double-stirling": [("double_stirling", None)],
    "corpus-light": [(name, None) for name in (
        "stirling", "binomial", "chen_sun_bernoulli", "abel", "stirling_eulerian")],
}


@dataclasses.dataclass
class Input:
    label: str
    path: str
    golden: dict
    shifts: dict


END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Task kinds whose results are checked for membership at cli.run's entry
# points.  Their times are not end-to-end metrics: a task takes a few
# seconds of one pass, and on a 2-vCPU virtual machine whose speed drifted
# by 20-30 % within seconds their quartile spread over ten seeds was 0.27
# (telescope, flagship) and 0.30 (corpus-light), wider than a regression
# bound can usefully be; the traced run reports them as `*.total_s`.  Nor
# is fail_ratio a metric (0 on a correct run): `attempted` and `failed`
# carry it.
TASK_KINDS = ("telescope", "growth", "zeilberger")


def per_layer_units():
    units = {}
    for name, _, _, _, quantities in tracer.TARGETS:
        for q in quantities:
            units[name + "." + q] = ("s" if q.endswith("_s") else
                                     "ratio" if q.endswith("_ratio") else "count")
    for name in tracer.TASK_SPANS:
        units[name + ".total_s"] = "s"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- correctness ---------------------------------------------------------------

# Fields that translating the index variables cannot change.
INVARIANT = {
    "gb": lambda e: (len(e["basis"]), e["staircase"]),
    "dim": lambda e: e["dimension"],
    # not the number of generators: autoreduction keeps a different subset
    # of relations when pivoting follows the translated term counts
    "closure": lambda e: (e["dimension"], e["bound_met"]),
    "growth": lambda e: (e["p"], e["degrees"], e["method"], e["degenerate"],
                         e["heuristic"]),
    "telescope": lambda e: (e["found"], e["budget_exhausted"]),
    "zeilberger": lambda e: (e["square_shape"], e["constraint_shape"],
                             e["solved"], "telescoper" in e),
    "verify": lambda e: (e["passed"], e["checked"], e["counterexamples"]),
}


def check_entry(entry, golden, seed, membership_checked=True):
    """Why one task of a report failed, or None when it passed."""
    if not entry.get("ok"):
        return "error: %s" % entry.get("error")
    kind = entry["task"]
    expect = entry.get("expect")
    found = entry.get("found", 0) > 0 or "telescoper" in entry
    if kind in ("telescope", "zeilberger") and expect in ("found", "none") \
            and found != (expect == "found"):
        return "expect %s not met" % expect
    if kind == "verify" and not entry["passed"]:
        return "verify failed"
    if kind == "closure" and not entry["bound_met"]:
        return "dimension bound not met"
    if not membership_checked:
        return "membership not checked"
    if seed == 0 and entry != golden:
        return "differs from golden output"
    if kind != golden["task"] or INVARIANT[kind](entry) != INVARIANT[kind](golden):
        return "shift-invariant field differs from seed 0"
    return None


def check_report(result, golden, seed):
    """Failure reasons, one per golden task (None for a passing task)."""
    expected = golden["tasks"]
    if result is None:
        return ["process failed"] * len(expected)
    entries = json.loads(result["report"])["tasks"]
    checked = {kind: [r["membership_checked"] for r in result["tasks"]
                      if r["kind"] == kind] for kind in TASK_KINDS}
    reasons = []
    for i, gold in enumerate(expected):
        if i >= len(entries):
            reasons.append("missing from the report")
            continue
        entry = entries[i]
        kind = entry["task"]
        ok = checked[kind].pop(0) if checked.get(kind) else True
        reasons.append(check_entry(entry, gold, seed, ok))
    reasons.extend("unexpected task" for _ in entries[len(expected):])
    return reasons


# -- processes -----------------------------------------------------------------


class TimedOut(Exception):
    """A worker process outran the run's deadline and was stopped."""


def _worker(args, timeout):
    """Run worker.py; (seconds, parsed last stdout line or None, stderr)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    if timeout <= 0:
        raise TimedOut("deadline passed before %s" % os.path.basename(args[0]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise TimedOut("%s after %.1f s" % (os.path.basename(args[0]),
                                            time.perf_counter() - t0))
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return seconds, None, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return seconds, json.loads(lines[-1]) if lines else {}, proc.stderr


class Run:
    """One invocation on one workload: generated files, passes, checks."""

    def __init__(self, workload, seed, workdir, deadline):
        self.seed = seed
        self.deadline = deadline
        self.files = []
        for label, edit in WORKLOADS[workload]:
            with open(os.path.join(CORPUS, label + ".ore")) as fh:
                text = fh.read()
            if edit is not None:
                text = edit(text)
            golden = None
            gpath = os.path.join(GOLDEN, label + ".json")
            if os.path.exists(gpath):
                with open(gpath) as fh:
                    golden = json.load(fh)
            shifts = inputs.draw_shifts(text, seed, label)
            path = os.path.join(workdir, label + ".ore")
            with open(path, "w") as fh:
                fh.write(inputs.shifted_text(text, shifts))
            self.files.append(Input(label, path, golden, shifts))
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message, tasks=1):
        self.failed += tasks
        self.messages.append(message)

    def left(self):
        return self.deadline - time.perf_counter()

    def setup_s(self):
        """Sum over the files of the median of each file's set-up times."""
        samples = {f.label: [] for f in self.files}
        for _ in range(max(SETUP_MIN_PER_FILE, SETUP_STARTS // len(self.files))):
            for f in self.files:
                seconds, out, err = _worker([f.path, "--setup-only"], self.left())
                if out is None:
                    self.attempted += 1
                    self.fail("%s set-up: %s" % (f.label, err.strip()[-2000:]))
                samples[f.label].append(seconds)
        return sum(statistics.median(s) for s in samples.values())

    def one_pass(self, traced):
        """Every file once; pass totals, and merged trace data when traced."""
        totals = {"run_s": 0.0, "peak_rss_mb": 0.0}
        stats, counts = {}, {}
        for f in self.files:
            args = [f.path]
            spans = f.path[:-len(".ore")] + ".spans"
            if traced:
                args += ["--spans", spans]
            _, result, err = _worker(args, self.left())
            reasons = check_report(result, f.golden, self.seed)
            self.attempted += len(reasons)
            if result is None:
                self.fail("%s: %s" % (f.label, err.strip()[-2000:]), len(reasons))
                continue
            for i, why in enumerate(reasons):
                if why is not None:
                    self.fail("%s task %d: %s" % (f.label, i + 1, why))
            totals["run_s"] += result["run_s"]
            print("  %s%s run_s %.3f" % (f.label, " traced" if traced else "", result["run_s"]))
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], result["peak_rss_mb"])
            if traced:
                span_stats, span_counts = tracer.read(spans)
                for span, st in span_stats.items():
                    acc = stats.setdefault(span, dict.fromkeys(st, 0))
                    for k, v in st.items():
                        acc[k] += v
                for k, v in span_counts.items():
                    counts[k] = counts.get(k, 0) + v
        return totals, stats, counts


def layer_metrics(stats, counts):
    out = {}
    for name, _, _, _, quantities in tracer.TARGETS:
        st = stats[name]
        for q in quantities:
            key = tracer.count_key(name, q)
            if key is None:
                value = st[q]
            elif q.endswith("_ratio"):
                value = counts[key] / st["calls"] if st["calls"] else 0.0
            else:
                value = counts[key]
            out[name + "." + q] = value
    for name in tracer.TASK_SPANS:
        out[name + ".total_s"] = stats[name]["total_s"]
    return out


def _median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def run_workload(workload, seed, seconds, trace):
    """(correct, attempted, failed, metrics) for one workload.

    Raises TimedOut when a process outran the deadline before the passes
    the metrics need were complete."""
    deadline = time.perf_counter() + seconds + DEADLINE_MARGIN_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
    try:
        run = Run(workload, seed, workdir, deadline)
        missing = sorted({f.label for f in run.files if f.golden is None})
        if missing:
            sys.exit("no golden report for %s: run --write-golden" % ", ".join(missing))
        for f in run.files:
            print("input %s shifts %s" % (f.label, json.dumps(f.shifts)))
        plain, traced = [], []
        setup = None if trace else run.setup_s()
        start = time.perf_counter()
        while not run.failed:
            want_traced = trace and len(traced) <= len(plain)
            try:
                totals, stats, counts = run.one_pass(want_traced)
            except TimedOut as exc:
                if not plain or (trace and not traced):
                    raise
                print("pass stopped at the deadline: %s" % exc)
                break
            (traced if want_traced else plain).append((totals, stats, counts))
            # stop once one more pass would end nearer past the measuring
            # time than before it
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (len(plain) + len(traced))
            if elapsed + per_pass / 2 >= seconds and (not trace or (plain and traced)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = run.failed
    for message in run.messages:
        print("FAILED %s" % message, file=sys.stderr)
    totals = [t for t, _, _ in plain]
    print("passes %d untraced, %d traced; untraced run_s %s" % (
        len(plain), len(traced), " ".join("%.3f" % t["run_s"] for t in totals)))
    units, values = {}, {}
    if failed:
        pass  # no metrics from a run that failed a check
    elif trace:
        units = per_layer_units()
        layers = [layer_metrics(s, c) for _, s, c in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.run_s"] = _median_of([t for t, _, _ in traced], "run_s")
        values["trace.overhead_s"] = values["trace.run_s"] - _median_of(totals, "run_s")
    else:
        units = END_TO_END
        values = {k: _median_of(totals, k) for k in units if k != "setup_s"}
        values["setup_s"] = setup
    for k in sorted(values):
        print("%s %.6g %s" % (k, values[k], units[k]))
    attempted = max(run.attempted, 1)
    print("fail_ratio %.4g (%d of %d tasks failed)" % (failed / attempted, failed, attempted))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return failed == 0, attempted, failed, metrics


def write_golden():
    """Store the seed-0 JSON report of every workload file."""
    os.makedirs(GOLDEN, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        for workload in WORKLOADS:
            run = Run(workload, 0, workdir, time.perf_counter() + 600)
            for f in run.files:
                _, result, err = _worker([f.path], 600)
                if result is None:
                    sys.exit("%s failed: %s" % (f.label, err))
                with open(os.path.join(GOLDEN, f.label + ".json"), "w") as fh:
                    fh.write(result["report"])
                print("wrote golden/%s.json" % f.label)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "orecalc")) or \
            not os.path.isdir(CORPUS):
        print("no src/orecalc or corpus/ next to perfbench/: nothing to run",
              file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error("unknown workload %r" % args.workload)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print("== workload %s seed %d" % (name, args.seed))
        try:
            ok, att, fail, mets = run_workload(name, args.seed, args.seconds,
                                               args.trace)
        except TimedOut as exc:
            print("timed out: %s; no result" % exc, file=sys.stderr)
            return 3
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in mets.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
