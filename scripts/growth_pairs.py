"""Paired in-process timing of the growth, telescope, zeilberger or verify
tasks of one problem file.

    python3 scripts/growth_pairs.py BASE HEAD FILE [--pairs N]
        [--kind growth|telescope|zeilberger|verify] [--window N]
        [--maxdeg N] [--dega N] [--degb N]

BASE and HEAD are two checkouts of the repository (for instance
`git archive` of two commits).  Each pair runs FILE once under each, every
run in a fresh interpreter, alternating which side goes first.  A run
parses FILE and calls the function of each task of the chosen kind
directly on the ideal the task names: `growth_probe` or
`growth_zero_dimensional` for growth (the default), `fasenmyer_search`
for telescope, `zeilberger_search` for zeilberger.  So interpreter start,
parsing and the other tasks are not counted; the time includes the
task's Groebner basis.  `cli.run` is not used, since it may run a growth
task in a helper process.  The named ideals must be declared in FILE, not
bound by a closure task.  --window N runs every growth task with window N
instead of the one FILE gives it, so a probe can be timed at another
window without editing FILE; --maxdeg N likewise overrides every
telescope task's degree budget, and --dega N and --degb N every
zeilberger task's ansatz degrees.  A verify task needs the
telescoper an earlier task binds, so for verify the run goes through
`cli.run` with every task but growth, untimed, and only the calls of
`check_identity` are timed.  Prints every pair, then each side's median
and quartiles and how many pairs HEAD won.  Each run also gives the text
of its results (telescopers and certificates, growth degrees, or verify
reports); a pair whose two sides disagree is flagged, and the exit status
is then 1.

A single side can be run alone, for instance under a deadline:

    timeout 300 python3 scripts/growth_pairs.py --child SRC FILE
        --kind zeilberger --dega 4 --degb 3

prints {"seconds": ..., "results": [...]} unless the deadline stops it
first.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import time


def _task_call(cli, pf, d, kind, window, maxdeg=None, dega=None, degb=None):
    """The call that runs one task of the kind on its ideal, untimed;
    window, maxdeg, dega and degb, when given, replace the task's own."""
    ideal = pf.built_ideals[d["ideal"]]
    if kind == "growth":
        from orecalc.growth import growth_probe, growth_zero_dimensional
        fn = growth_zero_dimensional if d["method"] == "exact" else growth_probe
        return lambda: fn(ideal, d["tvars"],
                          window=d["window"] if window is None else window)
    from orecalc.telescoping import fasenmyer_search, zeilberger_search
    if kind == "telescope":
        tgens = [cli._resolve_gen(pf.algebra, t) for t in d["tgens"]]
        return lambda: fasenmyer_search(ideal, tgens,
                                        d["maxdeg"] if maxdeg is None else maxdeg,
                                        target_dim=d.get("target"))
    tgen = cli._resolve_gen(pf.algebra, d["tgen"])
    return lambda: zeilberger_search(ideal, tgen,
                                     d["dega"] if dega is None else dega,
                                     d["degb"] if degb is None else degb,
                                     denom_bound=d.get("denoms", 1))


def _result_text(kind, out) -> str:
    """The text of one task's result, the same on both sides of a pair
    when they agree."""
    if kind == "growth":
        return "%s, degrees %s" % (out, out.degrees)
    if kind == "verify":
        return "passed %s, %d checked" % (out.passed, out.checked)
    results = out.results if kind == "telescope" else [
        r for r in out[:1] if r is not None]
    return "; ".join("%s with %s" % (r.telescoper, {name: str(c) for name, c
                                                    in r.certificates.items()})
                     for r in results) or "none"


def _verify_seconds(cli, pf):
    """Run every task of pf but growth; the seconds spent in check_identity
    and its reports."""
    spent, reports = 0.0, []
    check = cli.check_identity

    def timed(*args, **kwargs):
        nonlocal spent
        t0 = time.perf_counter()
        try:
            report = check(*args, **kwargs)
        finally:
            spent += time.perf_counter() - t0
        reports.append(_result_text("verify", report))
        return report

    cli.check_identity = timed
    pf.tasks = [t for t in pf.tasks if t.kind != "growth"]
    cli.run(pf, out=io.StringIO())
    return spent, reports


def _child(src, path, kind, window=None, maxdeg=None, dega=None, degb=None):
    sys.path.insert(0, src)
    import orecalc.cli as cli
    with open(path) as fh:
        pf = cli.parse(fh.read())
    if kind == "verify":
        spent, results = _verify_seconds(cli, pf)
        print(json.dumps({"seconds": spent, "results": results}))
        return
    spent, results = 0.0, []
    for task in pf.tasks:
        if task.kind == kind:
            call = _task_call(cli, pf, task.data, kind, window, maxdeg, dega, degb)
            t0 = time.perf_counter()
            out = call()
            spent += time.perf_counter() - t0
            results.append(_result_text(kind, out))
    print(json.dumps({"seconds": spent, "results": results}))


def _run(root, path, kind, window, maxdeg=None, dega=None, degb=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           os.path.join(root, "src"), path, "--kind", kind]
    for flag, value in (("--window", window), ("--maxdeg", maxdeg),
                        ("--dega", dega), ("--degb", degb)):
        if value is not None:
            cmd += [flag, str(value)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return "median %.3f s, quartiles %.3f/%.3f" % (statistics.median(xs), q1, q3)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", nargs=2, metavar=("SRC", "FILE"))
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("file", nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--kind", choices=("growth", "telescope", "zeilberger",
                                         "verify"),
                    default="growth")
    ap.add_argument("--window", type=int)
    ap.add_argument("--maxdeg", type=int)
    ap.add_argument("--dega", type=int)
    ap.add_argument("--degb", type=int)
    args = ap.parse_args(argv)
    if args.child:
        _child(*args.child, args.kind, args.window, args.maxdeg, args.dega,
               args.degb)
        return 0
    if not (args.base and args.head and args.file) or args.pairs < 2:
        ap.error("need BASE HEAD FILE and at least 2 pairs")
    base, head, wins, differ = [], [], 0, 0
    for i in range(args.pairs):
        sides = [("base", args.base), ("head", args.head)]
        got = {name: _run(root, args.file, args.kind, args.window, args.maxdeg,
                          args.dega, args.degb)
               for name, root in (sides if i % 2 == 0 else sides[::-1])}
        base.append(got["base"]["seconds"])
        head.append(got["head"]["seconds"])
        wins += head[-1] < base[-1]
        same = got["base"]["results"] == got["head"]["results"]
        differ += not same
        print("pair %d: base %.3f s, head %.3f s%s" % (
            i + 1, base[-1], head[-1], "" if same else ", RESULTS DIFFER"))
    print("base: " + _summary(base))
    print("head: " + _summary(head))
    print("head faster in %d of %d pairs" % (wins, args.pairs))
    print("results: %s" % ("the same in every pair" if not differ else
                           "differ in %d of %d pairs" % (differ, args.pairs)))
    for name in ("base", "head"):
        print("%s results: %s" % (name, got[name]["results"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
