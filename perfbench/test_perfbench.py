"""Checks of the benchmark itself:  python3 -m pytest perfbench"""
import gc
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from orecalc.cli import parse  # noqa: E402
from orecalc.errors import OrecalcError  # noqa: E402
from orecalc.verify import binomial  # noqa: E402

CORPUS = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.ore")))


def _label(path):
    return os.path.splitext(os.path.basename(path))[0]


@pytest.mark.parametrize("path", CORPUS, ids=_label)
def test_seed_zero_is_the_corpus_text(path):
    text = open(path).read()
    shifts = inputs.draw_shifts(text, 0, _label(path))
    assert not any(shifts.values())
    assert inputs.shifted_text(text, shifts) == text


@pytest.mark.parametrize("path", CORPUS, ids=_label)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shifted_oracles_are_translates(path, seed):
    """Each oracle of a shifted file equals the original at v + s_v."""
    text = open(path).read()
    shifts = inputs.draw_shifts(text, seed, _label(path))
    assert shifts == inputs.draw_shifts(text, seed, _label(path))
    assert set(shifts.values()) <= set(inputs.SHIFTS)
    old, new = parse(text), parse(inputs.shifted_text(text, shifts))
    assert set(old.oracles) == set(new.oracles)
    assert [t.data for t in old.tasks] == [t.data for t in new.tasks]
    for name, oracle in old.oracles.items():
        for a in range(1, 5):
            env = {v: a + i % 3 for i, v in enumerate(sorted(shifts))}
            moved = {v: x + shifts[v] for v, x in env.items()}
            try:
                want = oracle.eval(dict(moved))
            except OrecalcError:
                continue
            assert new.oracles[name].eval(dict(env)) == want


def test_shifted_ideal_annihilates_translate():
    """C(n + 2, k - 1) is annihilated by the shifted ideal of C(n, k)."""
    text = open(os.path.join(ROOT, "corpus", "binomial.ore")).read()
    pf = parse(inputs.shifted_text(text, {"n": 2, "k": -1}))
    for g in pf.built_ideals["B"].generators:
        for n in range(6):
            for k in range(6):
                assert sum(c.eval_point([n, k]) * binomial(n + e[0] + 2, k + e[1] - 1)
                           for e, c in g.terms.items()) == 0


def test_tracer_rebinds_every_reference():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import orecalc, orecalc.cli as cli, orecalc.telescoping as tel, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "assert len(t.originals) == len(tracer.TARGETS)\n"
        "assert not tracer.stale_references(t.originals)\n"
        "assert cli.fasenmyer_search is tel.fasenmyer_search\n"
        "assert tel.exact_div.__wrapped__ in t.originals\n"
        "assert orecalc.arith.MPoly.__rmul__ is orecalc.arith.MPoly.__mul__\n"
        "print('ok')\n" % (HERE, os.path.join(ROOT, "src")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_phi_hits_count_per_live_basis():
    """A basis made after another was collected does not share its hits."""
    class Basis:
        pass

    t = tracer.Tracer()
    t.counts["groebner.phi.hit"] = 0
    first = Basis()
    tracer._phi_hit(t, "groebner.phi", (first, (1, 0)), None)
    del first
    gc.collect()
    second = Basis()
    tracer._phi_hit(t, "groebner.phi", (second, (1, 0)), None)
    assert t.counts["groebner.phi.hit"] == 0
    tracer._phi_hit(t, "groebner.phi", (second, (1, 0)), None)
    assert t.counts["groebner.phi.hit"] == 1


def test_deadline_gives_timeout_not_failure(monkeypatch, capsys):
    """A run past its deadline exits 3 without a result, not as a failed check."""
    monkeypatch.setattr(run, "DEADLINE_MARGIN_S", 0)
    code = run.main(["--workload", "corpus-light", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "timed out" in err and "\"correct\"" not in out


def _traced_once(tmp_path, tag, source):
    spans = str(tmp_path / ("%s.spans" % tag))
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                          source, "--spans", spans], capture_output=True,
                         text=True, timeout=120, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    stats, counts = tracer.read(spans)
    return result, {k: v["calls"] for k, v in stats.items()}, counts


def test_traced_runs_repeat_counts_exactly(tmp_path):
    """Two traced runs at one seed give identical calls and op counts, and
    tracing leaves the report as the golden one."""
    text = open(os.path.join(ROOT, "corpus", "chen_sun_bernoulli.ore")).read()
    source = tmp_path / "in.ore"
    source.write_text(inputs.shifted_text(
        text, inputs.draw_shifts(text, 5, "chen_sun_bernoulli")))
    r1, calls1, counts1 = _traced_once(tmp_path, "a", str(source))
    r2, calls2, counts2 = _traced_once(tmp_path, "b", str(source))
    assert calls1 == calls2 and counts1 == counts2
    assert calls1["arith.mpoly_mul"] > 0 and counts1["arith.mpoly_mul.term_products"] > 0
    assert r1["report"] == r2["report"]
    golden = json.load(open(os.path.join(HERE, "golden", "chen_sun_bernoulli.json")))
    assert run.check_report(r1, golden, 5) == [None] * len(golden["tasks"])


def test_checks_catch_wrong_reports():
    golden = json.load(open(os.path.join(HERE, "golden", "double_stirling.json")))
    tasks = golden["tasks"]
    tel = next(t for t in tasks if t["task"] == "telescope")
    ver = next(t for t in tasks if t["task"] == "verify")
    gro = next(t for t in tasks if t["task"] == "growth")
    assert all(run.check_entry(t, t, 0) is None for t in tasks)
    assert run.check_entry(dict(tel, found=0, telescopers=[]), tel, 3)
    assert run.check_entry(dict(ver, passed=False), ver, 3)
    assert run.check_entry(dict(gro, degrees=gro["degrees"][:-1]), gro, 3)
    assert run.check_entry(dict(tel, telescopers=["Sn - 1"]), tel, 0)
    assert run.check_entry(dict(tel, telescopers=["Sn - 1"]), tel, 3) is None
    assert run.check_entry(dict(tel, ok=False, error="boom"), tel, 3)
    assert run.check_entry(tel, tel, 3, membership_checked=False)
    assert run.check_report(None, golden, 0) == ["process failed"] * len(tasks)


def test_bare_directory_fails_without_result(tmp_path):
    """Without the engine and corpus the benchmark exits non-zero, silently."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "corpus-light", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
