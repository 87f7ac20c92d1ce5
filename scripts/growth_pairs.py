"""Paired in-process timing of the growth tasks of one problem file.

    python3 scripts/growth_pairs.py BASE HEAD FILE [--pairs N]

BASE and HEAD are two checkouts of the repository (for instance
`git archive` of two commits).  Each pair runs FILE once under each, every
run in a fresh interpreter, alternating which side goes first.  A run
parses FILE and calls the growth function of each growth task
(`growth_probe`, `growth_zero_dimensional`) directly on the ideal the
task names, so interpreter start, parsing and the other tasks are not
counted; the time includes the task's Groebner basis.  `cli.run` is not
used, since it may run a growth task in a helper process.  The named
ideals must be declared in FILE, not bound by a closure task.  Prints
every pair, then each side's median and quartiles and how many pairs HEAD
won.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _child(src, path):
    sys.path.insert(0, src)
    import orecalc.cli as cli
    from orecalc.growth import growth_probe, growth_zero_dimensional
    with open(path) as fh:
        pf = cli.parse(fh.read())
    spent = 0.0
    for task in pf.tasks:
        if task.kind == "growth":
            d = task.data
            fn = growth_zero_dimensional if d["method"] == "exact" else growth_probe
            ideal = pf.built_ideals[d["ideal"]]
            t0 = time.perf_counter()
            fn(ideal, d["tvars"], window=d["window"])
            spent += time.perf_counter() - t0
    print(json.dumps({"growth_s": spent}))


def _run(root, path):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         os.path.join(root, "src"), path],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["growth_s"]


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
    args = ap.parse_args(argv)
    if args.child:
        _child(*args.child)
        return 0
    if not (args.base and args.head and args.file) or args.pairs < 2:
        ap.error("need BASE HEAD FILE and at least 2 pairs")
    base, head, wins = [], [], 0
    for i in range(args.pairs):
        sides = [("base", args.base), ("head", args.head)]
        got = {name: _run(root, args.file)
               for name, root in (sides if i % 2 == 0 else sides[::-1])}
        base.append(got["base"])
        head.append(got["head"])
        wins += got["head"] < got["base"]
        print("pair %d: base %.3f s, head %.3f s" % (i + 1, got["base"], got["head"]))
    print("base: " + _summary(base))
    print("head: " + _summary(head))
    print("head faster in %d of %d pairs" % (wins, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
