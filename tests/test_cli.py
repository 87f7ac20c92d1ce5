import glob
import io
import json
import os
import re
import signal

import pytest

import orecalc.cli as cli
from orecalc.cli import main, parse, print_problem, run
from orecalc.errors import KindError, ProblemSyntaxError, UnknownName
from orecalc.ore import CATALOG, OreKind

from test_ore import make_algebra

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def _choose_growth_path(monkeypatch, path):
    """Run growth tasks in forked helpers ("helper", as with two usable
    CPUs) or in process ("inline", as without os.fork); returns the list
    that collects the pid of each helper started."""
    pids = []
    if path == "inline":
        monkeypatch.delattr(os, "fork", raising=False)
        return pids
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


EXAMPLE = """
algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(k - n - 1)*Sn + n + 1, (k + 1)*Sk + k - n];
dim B;
"""


NAMED_EXAMPLE = """
algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(k - n - 1)*Sn + n + 1, (k + 1)*Sk + k - n];
oracle c = binomial(n, k);
oracle rowsum = pow(2, n);
telescope B over Sk maxdeg 2 as T;
"""


class TestParse:
    def test_basic_roundtrip_counts(self):
        pf = parse(EXAMPLE)
        assert len(pf.built_ideals["B"].generators) == 2
        assert [g.name for g in pf.algebra.gens] == ["Sn", "Sk"]

    def test_coefficient_division(self):
        pf = parse("""
            algebra Q(n, k) <Sn: shift(n)>;
            ideal I = [Sn - (n + 1)/(n - k + 1)];
            dim I;
        """)
        (g,) = pf.built_ideals["I"].generators
        c = g.terms[(0,)]
        assert not c.den.is_one()

    def test_empty_ideal_rejected(self):
        with pytest.raises(ProblemSyntaxError):
            parse("algebra Q(n) <Sn: shift(n)>; ideal I = []; dim I;")

    def test_unknown_kind(self):
        with pytest.raises(KindError):
            parse("algebra Q(n) <Sn: wave(n)>; dim I;")

    def test_syntax_error_position(self):
        try:
            parse("algebra Q(n) <Sn: shift(n)>;\nideal I = [Sn + ];\ndim I;")
        except ProblemSyntaxError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a syntax error")

    def test_unknown_name_in_task(self):
        pf = parse("algebra Q(n) <Sn: shift(n)>; ideal I = [Sn - 1]; dim J;")
        buf = io.StringIO()
        status, _ = run(pf, out=buf)
        assert status == 1
        assert "unknown name" in buf.getvalue()

    @pytest.mark.parametrize("task, line, col, what", [
        ("closure apply Sx B maxdeg 2;", 7, 15, "unknown generator 'Sx'"),
        ("growth exact B over z;", 7, 21, "unknown variable 'z'"),
        ("verify T: sum(j, c) == rowsum;", 7, 15,
         "summation variable 'j' does not occur in 'c'"),
    ], ids=["closure-gen", "growth-var", "verify-var"])
    def test_unknown_task_name_is_a_positioned_parse_error(self, task, line, col,
                                                           what, capsys, monkeypatch):
        text = NAMED_EXAMPLE + task + "\n"
        with pytest.raises(UnknownName) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert what in str(exc.value)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: %d:%d: %s\n" % (line, col, what)

    @pytest.mark.parametrize("task, line, col, word", [
        ("telescope B over Sk maxdeg 2 expect fonud;", 7, 37, "fonud"),
        ("zeilberger B over Sk dega 1 degb 0 expect nope;", 7, 43, "nope"),
    ], ids=["telescope", "zeilberger"])
    def test_unknown_expect_word_is_a_positioned_parse_error(
            self, task, line, col, word, capsys, monkeypatch):
        text = NAMED_EXAMPLE + task + "\n"
        with pytest.raises(ProblemSyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 2
        err = capsys.readouterr().err
        assert err == ("parse error: %d:%d: expect must be none or found, got %r\n"
                       % (line, col, word))

    @pytest.mark.parametrize("task, col, what", [
        ("closure foo B B maxdeg 2;", 9, "closure kind must be product, sum, or apply"),
        ("growth wrong B over k;", 8, "growth method must be exact or probe"),
    ], ids=["closure-kind", "growth-method"])
    def test_bad_task_subword_is_reported_at_the_word(self, task, col, what,
                                                      capsys, monkeypatch):
        text = "\n".join(EXAMPLE.strip().splitlines()[:2] + [task]) + "\n"
        with pytest.raises(ProblemSyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (3, col)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 2
        assert capsys.readouterr().err == "parse error: 3:%d: %s\n" % (col, what)

    def test_telescope_task_shape(self):
        pf = parse("""
            algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
            ideal I = [Sn - 1];
            telescope I over Sk maxdeg 4;
        """)
        assert pf.tasks[0].kind == "telescope"
        assert pf.tasks[0].data["maxdeg"] == 4


class TestPrintFixpoint:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.ore"))))
    def test_parse_print_parse(self, path):
        src = open(path).read()
        pf1 = parse(src)
        text1 = print_problem(pf1)
        pf2 = parse(text1)
        text2 = print_problem(pf2)
        assert text1 == text2

    def test_corpus_present(self):
        assert len(glob.glob(os.path.join(CORPUS, "*.ore"))) >= 5


class TestRun:
    def test_binomial_file_text(self, tmp_path, capsys):
        path = os.path.join(CORPUS, "binomial.ore")
        status = main(["run", path])
        out = capsys.readouterr().out
        assert status == 0
        assert "dim B = 0" in out
        assert "telescope" in out
        assert "pass" in out

    def test_stirling_json_stable(self, capsys):
        path = os.path.join(CORPUS, "stirling.ore")
        status = main(["run", path, "--format", "json"])
        out1 = capsys.readouterr().out
        assert status == 0
        status = main(["run", path, "--format", "json"])
        out2 = capsys.readouterr().out
        assert out1 == out2
        data = json.loads(out1)
        assert data["schema_version"] == 1
        dims = [t for t in data["tasks"] if t["task"] == "dim"]
        assert dims[0]["dimension"] == 1

    def test_check_only(self, capsys):
        path = os.path.join(CORPUS, "abel.ore")
        status = main(["check", path])
        assert status == 0
        assert "ok:" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE))
        status = main(["run", "-"])
        assert status == 0
        assert "dim B = 0" in capsys.readouterr().out

    def test_unit_ideal_dim_distinguished(self, capsys):
        src = """
            algebra Q(n) <Sn: shift(n)>;
            ideal I = [1];
            dim I;
        """
        pf = parse(src)
        buf = io.StringIO()
        status, text = run(pf, out=buf)
        assert status == 0
        assert "dim I = empty" in text

    @pytest.mark.parametrize("algebra", [
        "<Dn: difference(n), Dk: difference(k)>",
        "<Sn: shift(n), Sk: shift(k)>",
    ], ids=["difference", "shift"])
    def test_growth_exact_on_the_zero_ideal(self, algebra, capsys, monkeypatch):
        text = "algebra Q(n, k) %s; ideal Z = [0]; growth exact Z over k;" % algebra
        for path in ("helper", "inline"):
            with monkeypatch.context() as patch:
                forks = _choose_growth_path(patch, path)
                patch.setattr("sys.stdin", io.StringIO(text))
                assert main(["run", "-"]) == 1
                captured = capsys.readouterr()
                out = captured.out + captured.err
                assert out == "growth: error: ideal is not 0-dimensional\n"
                assert len(forks) == (path == "helper")

    @pytest.mark.parametrize("task, status", [
        ("telescope B over Sk maxdeg 2 expect found;", 0),
        ("telescope B over Sk maxdeg 2 expect none;", 1),
        ("telescope B over Sk maxdeg 1 expect none;", 0),
        ("telescope B over Sk maxdeg 1 expect found;", 1),
        ("zeilberger B over Sk dega 1 degb 0 expect found;", 0),
        ("zeilberger B over Sk dega 1 degb 0 expect none;", 1),
        ("zeilberger B over Sk dega 0 degb 0 expect none;", 0),
        ("zeilberger B over Sk dega 0 degb 0 expect found;", 1),
    ])
    def test_expect_sets_the_exit_status(self, task, status):
        pf = parse(NAMED_EXAMPLE + task)
        assert run(pf, out=io.StringIO())[0] == status

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("algebra Q(n <"))
        status = main(["run", "-"])
        assert status == 2

    @pytest.mark.parametrize("make_path", [
        lambda tmp: str(tmp / "missing.ore"),
        lambda tmp: str(tmp),
    ], ids=["missing", "directory"])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, make_path):
        status = main(["run", make_path(tmp_path)])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("cannot read ")
        assert err.count("\n") == 1 and "Traceback" not in err


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")


@pytest.mark.parametrize("name", ["stirling", "binomial", "chen_sun_bernoulli",
                                  "abel", "stirling_eulerian"])
def test_corpus_json_matches_golden(name):
    """The --format json report of each lighter corpus file, byte for byte."""
    _assert_report_matches(name, GOLDEN)


HEAVY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", ["nonproper", "double_stirling"])
def test_heavy_corpus_json_matches_golden(name):
    """The --format json report of each heavy corpus file, byte for byte.
    These goldens cover the whole file, growth probe and full telescope
    budget included; the benchmark's nonproper golden is of a trimmed copy."""
    _assert_report_matches(name, HEAVY_GOLDEN)


def _assert_report_matches(name, golden_dir):
    _, rendered = run(parse(_corpus_text(name)), fmt="json", out=io.StringIO())
    with open(os.path.join(golden_dir, name + ".json")) as fh:
        assert rendered == fh.read()


def _corpus_text(name):
    with open(os.path.join(CORPUS, name + ".ore")) as fh:
        return fh.read()


@pytest.mark.parametrize("name, golden_dir", [("binomial", GOLDEN),
                                              ("double_stirling", HEAVY_GOLDEN)],
                         ids=["binomial", "double_stirling"])
def test_growth_helper_and_inline_reports_agree(name, golden_dir, monkeypatch):
    """Both growth paths give the golden JSON report and the same text."""
    def reports():
        return [run(parse(_corpus_text(name)), fmt=fmt, out=io.StringIO())
                for fmt in ("json", "text")]

    forks = _choose_growth_path(monkeypatch, "helper")
    by_helper = reports()
    assert len(forks) == 2
    _choose_growth_path(monkeypatch, "inline")
    assert reports() == by_helper
    with open(os.path.join(golden_dir, name + ".json")) as fh:
        assert by_helper[0][1] == fh.read()


REBOUND = """algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(k - n - 1)*Sn + n + 1, (k + 1)*Sk + k - n];
ideal C = [Sn - 1, (k + 1)*Sk - (k + 2)];
"""
CLOSURE = "closure product B C maxdeg 2 as B;\n"
GROWTH = "growth exact B over k window 8;\n"


@pytest.mark.parametrize("tasks, forks_per_run, growth_at, growth_line", [
    pytest.param(CLOSURE + GROWTH, 0, 1,
                 "growth exact B: p = 1  degrees [0, 3, 5, 7, 9, 11, 13, 15, 17]",
                 id="closure-before"),
    pytest.param(GROWTH + CLOSURE, 1, 0,
                 "growth exact B: p = 1  degrees [0, 2, 4, 6, 8, 10, 12, 14, 16]",
                 id="closure-after"),
])
def test_a_growth_ideal_rebound_by_an_earlier_closure(tasks, forks_per_run, growth_at,
                                                      growth_line, monkeypatch):
    """A growth task whose ideal an earlier closure rebinds with `as` gets
    no helper and runs at its place on the rebound ideal; with the closure
    after it, its helper computes on the declared ideal.  Both give the
    inline reports."""
    def reports():
        return [run(parse(REBOUND + tasks), fmt=fmt, out=io.StringIO())
                for fmt in ("json", "text")]

    forks = _choose_growth_path(monkeypatch, "helper")
    by_helper = reports()
    assert len(forks) == 2 * forks_per_run
    assert by_helper[1][1].splitlines()[growth_at] == growth_line
    _choose_growth_path(monkeypatch, "inline")
    assert reports() == by_helper


@pytest.mark.parametrize("exc, failing", [
    pytest.param(RuntimeError, "fasenmyer_search", id="RuntimeError"),
    pytest.param(KeyboardInterrupt, "fasenmyer_search", id="KeyboardInterrupt"),
    pytest.param(RuntimeError, "format_opoly", id="first-task-RuntimeError"),
    pytest.param(KeyboardInterrupt, "format_opoly", id="first-task-KeyboardInterrupt"),
])
def test_no_helper_outlives_a_failing_run(exc, failing, monkeypatch):
    """A task raises while the growth task's helper may still run: one
    after the growth task, or the first task (gb, whose printing fails)."""
    def fails(*args, **kwargs):
        raise exc("task failed")

    forks = _choose_growth_path(monkeypatch, "helper")
    monkeypatch.setattr(cli, failing, fails)
    with pytest.raises(exc):
        run(parse(_corpus_text("binomial")), out=io.StringIO())
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("death", ["exit", "kill", "raise"])
def test_a_helper_without_a_result_has_its_task_run_inline(death, monkeypatch, capfd):
    """A helper that exits, is killed or raises sends no result; the task
    is run in process instead, with the golden entry and no traceback."""
    parent = os.getpid()
    exact = cli.growth_zero_dimensional

    def dies_in_the_helper(*args, **kwargs):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(1)
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("helper failed")
        return exact(*args, **kwargs)

    forks = _choose_growth_path(monkeypatch, "helper")
    monkeypatch.setattr(cli, "growth_zero_dimensional", dies_in_the_helper)
    status, rendered = run(parse(_corpus_text("binomial")), fmt="json",
                           out=io.StringIO())
    assert len(forks) == 1
    assert status == 0
    with open(os.path.join(GOLDEN, "binomial.json")) as fh:
        assert rendered == fh.read()
    assert capfd.readouterr().err == ""


# -- the task language, pinned -------------------------------------------------

FORMS = """algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(k - n - 1)*Sn + n + 1, (k + 1)*Sk + k - n];
oracle c = binomial(n, k);
oracle rowsum = pow(2, n);
gb B;
dim B;
closure product B B maxdeg 2;
closure sum B B maxdeg 1 as P;
closure apply Sn B maxdeg 1;
closure apply Sk B maxdeg 2 as Q;
growth exact B over k;
growth probe B over n,k window 5;
telescope B over Sk maxdeg 2 target 1 as T expect found;
telescope B over k, Sn maxdeg 3 expect none as W target 2 as U;
zeilberger B over Sk dega 1 degb 0 denoms 2 as Z expect found;
zeilberger B over k dega 1 degb 0 expect none as Y denoms 1;
verify T: sum(k, c) == rowsum;
verify T: sum(k, c) == rowsum box 10;
verify T : sum ( k , c ) == rowsum positive;
verify T: sum(k, c) == rowsum box 4 positive;
"""

CANONICAL_FORMS = """algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(-n + k - 1)*Sn + n + 1, (k + 1)*Sk - n + k];
oracle c = binomial(n, k);
oracle rowsum = pow(2, n);
gb B;
dim B;
closure product B B maxdeg 2;
closure sum B B maxdeg 1 as P;
closure apply Sn B maxdeg 1;
closure apply Sk B maxdeg 2 as Q;
growth exact B over k window 10;
growth probe B over n, k window 5;
telescope B over Sk maxdeg 2 target 1 as T expect found;
telescope B over k, Sn maxdeg 3 target 2 as U expect none;
zeilberger B over Sk dega 1 degb 0 denoms 2 as Z expect found;
zeilberger B over k dega 1 degb 0 denoms 1 as Y expect none;
verify T: sum(k, c) == rowsum;
verify T: sum(k, c) == rowsum box 10;
verify T: sum(k, c) == rowsum positive;
verify T: sum(k, c) == rowsum box 4 positive;
"""

FORMS_TASKS = [
    ("gb", {"ideal": "B"}, {}),
    ("dim", {"ideal": "B"}, {}),
    ("closure", {"op": "product", "left": "B", "right": "B", "maxdeg": 2}, {}),
    ("closure", {"op": "sum", "left": "B", "right": "B", "maxdeg": 1, "as": "P"}, {}),
    ("closure", {"op": "apply", "gen": "Sn", "ideal": "B", "maxdeg": 1},
     {"Sn": (9, 15)}),
    ("closure", {"op": "apply", "gen": "Sk", "ideal": "B", "maxdeg": 2, "as": "Q"},
     {"Sk": (10, 15)}),
    ("growth", {"method": "exact", "ideal": "B", "tvars": ["k"], "window": 10},
     {"k": (11, 21)}),
    ("growth", {"method": "probe", "ideal": "B", "tvars": ["n", "k"], "window": 5},
     {"n": (12, 21), "k": (12, 23)}),
    ("telescope", {"ideal": "B", "tgens": ["Sk"], "maxdeg": 2, "target": 1,
                   "as": "T", "expect": "found"}, {"Sk": (13, 18)}),
    ("telescope", {"ideal": "B", "tgens": ["k", "Sn"], "maxdeg": 3, "target": 2,
                   "as": "U", "expect": "none"}, {"k": (14, 18), "Sn": (14, 21)}),
    ("zeilberger", {"ideal": "B", "tgen": "Sk", "dega": 1, "degb": 0, "denoms": 2,
                    "as": "Z", "expect": "found"}, {"Sk": (15, 19)}),
    ("zeilberger", {"ideal": "B", "tgen": "k", "dega": 1, "degb": 0, "denoms": 1,
                    "as": "Y", "expect": "none"}, {"k": (16, 19)}),
    ("verify", {"result": "T", "var": "k", "summand": "c", "closed": "rowsum"},
     {"k": (17, 15)}),
    ("verify", {"result": "T", "var": "k", "summand": "c", "closed": "rowsum",
                "box": 10}, {"k": (18, 15)}),
    ("verify", {"result": "T", "var": "k", "summand": "c", "closed": "rowsum",
                "positive": 1}, {"k": (19, 18)}),
    ("verify", {"result": "T", "var": "k", "summand": "c", "closed": "rowsum",
                "box": 4, "positive": 1}, {"k": (20, 15)}),
]


def test_every_task_form_prints_canonically():
    assert print_problem(parse(FORMS)) == CANONICAL_FORMS
    assert print_problem(parse(CANONICAL_FORMS)) == CANONICAL_FORMS


def test_every_task_form_gives_its_data_and_positions():
    tasks = parse(FORMS).tasks
    assert [(t.kind, t.data, t.pos) for t in tasks] == FORMS_TASKS


@pytest.mark.parametrize("task, error, message, col", [
    ("frobnicate B;", ProblemSyntaxError, "unknown task 'frobnicate'", 1),
    ("gb;", ProblemSyntaxError, "expected a name, got ';'", 3),
    ("dim B", ProblemSyntaxError, "expected ';', got 'eof'", 6),
    ("3 B;", ProblemSyntaxError, "expected a statement, got '3'", 1),
    ("closure foo B B maxdeg 2;", ProblemSyntaxError,
     "closure kind must be product, sum, or apply", 9),
    ("closure product B maxdeg 2;", ProblemSyntaxError, "expected 'maxdeg', got '2'", 26),
    ("closure product B B 2;", ProblemSyntaxError, "expected 'maxdeg', got '2'", 21),
    ("closure product B B maxdeg 2 as P as Q;", ProblemSyntaxError,
     "expected ';', got 'as'", 35),
    ("closure apply Sn B maxdeg 2 expect found;", ProblemSyntaxError,
     "expected ';', got 'expect'", 29),
    ("closure product B B maxdeg x;", ProblemSyntaxError,
     "expected an integer, got 'x'", 28),
    ("growth wrong B over k;", ProblemSyntaxError, "growth method must be exact or probe", 8),
    ("growth 3 B over k;", ProblemSyntaxError, "expected a name, got '3'", 8),
    ("growth exact B k;", ProblemSyntaxError, "expected 'over', got 'k'", 16),
    ("growth probe B over k, ;", ProblemSyntaxError, "expected a name, got ';'", 24),
    ("growth exact B over k window 3 window 4;", ProblemSyntaxError,
     "expected ';', got 'window'", 32),
    ("telescope B over Sk;", ProblemSyntaxError, "expected 'maxdeg', got ';'", 20),
    ("telescope B over Sk maxdeg 2 denoms 1;", ProblemSyntaxError,
     "expected ';', got 'denoms'", 30),
    ("telescope B over Sk maxdeg 2 target x;", ProblemSyntaxError,
     "expected an integer, got 'x'", 37),
    ("telescope B over Sk maxdeg 2 expect 1;", ProblemSyntaxError,
     "expected a name, got '1'", 37),
    ("telescope B over Sk maxdeg 2 expect maybe;", ProblemSyntaxError,
     "expect must be none or found, got 'maybe'", 37),
    ("telescope B over Sx maxdeg 2;", UnknownName,
     "no generator named or attached to 'Sx'", 18),
    ("zeilberger B over Sk, Sn dega 1 degb 0;", ProblemSyntaxError,
     "expected 'dega', got ','", 21),
    ("zeilberger B over Sk dega 1;", ProblemSyntaxError, "expected 'degb', got ';'", 28),
    ("zeilberger B over Sk dega 1 degb 0 target 1;", ProblemSyntaxError,
     "expected ';', got 'target'", 36),
    ("zeilberger B over x dega 1 degb 0;", UnknownName,
     "no generator named or attached to 'x'", 19),
    ("verify T sum(k, c) == rowsum;", ProblemSyntaxError, "expected ':', got 'sum'", 10),
    ("verify T: prod(k, c) == rowsum;", ProblemSyntaxError,
     "expected 'sum', got 'prod'", 11),
    ("verify T: sum(k c) == rowsum;", ProblemSyntaxError, "expected ',', got 'c'", 17),
    ("verify T: sum(k, c) = rowsum;", ProblemSyntaxError, "expected '==', got '='", 21),
    ("verify T: sum(k, c) == rowsum box;", ProblemSyntaxError,
     "expected an integer, got ';'", 34),
    ("verify T: sum(k, c) == rowsum positive box 3;", ProblemSyntaxError,
     "expected ';', got 'box'", 40),
    ("verify T: sum(k, c) == rowsum box 3 box 4;", ProblemSyntaxError,
     "expected ';', got 'box'", 37),
])
def test_malformed_task_is_rejected_at_its_fault(task, error, message, col):
    with pytest.raises(error) as exc:
        parse(NAMED_EXAMPLE + task)
    assert type(exc.value) is error
    assert str(exc.value) == "7:%d: %s" % (col, message)
    assert (exc.value.line, exc.value.col) == (7, col)


@pytest.mark.parametrize("oracle, printed", [
    ("n + 2*k - 1", "(2*k + n - 1)"),
    ("pow(2, --n + 3*k - -1)", "pow(2, 3*k + n + 1)"),
    ("binomial(+n, k) * n - k", "binomial(n, k) * (-k + n)"),
    ("(n - k)", "(-k + n)"),
])
def test_index_expression_forms(oracle, printed):
    pf = parse("algebra Q(n, k) <Sn: shift(n)>;\noracle d = %s;" % oracle)
    assert str(pf.oracles["d"]) == printed


@pytest.mark.parametrize("oracle, message, col", [
    ("n + -1", "bad index expression", 16),
    ("n + ", "bad index expression", 16),
    ("n - 2*", "expected a name, got ';'", 18),
    ("binomial(n, 2*)", "expected a name, got ')'", 26),
    ("binomial(, k)", "expected an index expression", 21),
    ("binomial(n - , k)", "expected an index expression", 25),
    ("pow(2, n +)", "expected an index expression", 22),
    ("()", "expected an index expression", 13),
])
def test_malformed_index_expression(oracle, message, col):
    with pytest.raises(ProblemSyntaxError) as exc:
        parse("algebra Q(n, k) <Sn: shift(n)>;\noracle d = %s;" % oracle)
    assert str(exc.value) == "2:%d: %s" % (col, message)


@pytest.mark.parametrize("text, tokens", [
    ("a²b_3 \t# c\n  x1 == 2\r\n(<)>",
     [("name", "a²b_3", 1, 1), ("name", "x1", 2, 3), ("punct", "==", 2, 6),
      ("int", "2", 2, 9), ("punct", "(", 3, 1), ("punct", "<", 3, 2),
      ("punct", ")", 3, 3), ("punct", ">", 3, 4), ("eof", "", 3, 5)]),
    ("dim B # tail", [("name", "dim", 1, 1), ("name", "B", 1, 5), ("eof", "", 1, 7)]),
    ("nα ٣٤", [("name", "nα", 1, 1), ("int", "٣٤", 1, 4),
                              ("eof", "", 1, 6)]),
], ids=["mixed", "trailing-comment", "non-ascii"])
def test_tokens_and_positions(text, tokens):
    assert [(t.kind, t.text, t.line, t.col) for t in cli._tokenize(text)] == tokens


def test_task_entry_points_are_looked_up_when_the_task_runs(monkeypatch):
    """The benchmark records each search by rebinding these names on the
    module; a task that held its own reference would escape the record."""
    _choose_growth_path(monkeypatch, "inline")
    called = []
    for name in ("fasenmyer_search", "zeilberger_search", "growth_probe",
                 "growth_zero_dimensional"):
        def recorder(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, recorder)
    pf = parse(NAMED_EXAMPLE + """growth exact B over k;
growth probe B over k window 8;
zeilberger B over Sk dega 1 degb 0;
""")
    status, _ = run(pf, out=io.StringIO())
    assert status == 0
    assert sorted(called) == ["fasenmyer_search", "growth_probe",
                              "growth_zero_dimensional", "zeilberger_search"]


@pytest.mark.parametrize("text, message", [
    ("algebra Q(n) <Sn: shift(n)>; ideal I = [Sn - 1]; closure apply Sn I maxdeg ²;",
     "1:76: unexpected character '²'"),
    ("algebra Q(n) <Sn: shift(n)>; oracle c = 1/0;", "1:43: division by zero"),
    ("algebra Q(n, k) <Sn: shift(n)>; oracle c = binomial(n);",
     "1:44: binomial takes 2 arguments"),
    ("algebra Q(n) <Sn: shift(m)>;",
     "1:15: ground variable 'm' of generator 'Sn' not declared"),
    ("algebra Q(n) <Sn: qshift(n, q)>;", "1:15: parameter 'q' not declared"),
    ("algebra Q(n) <Sn: mahler(n, 1)>;",
     "1:15: Mahler generator needs integer base >= 2"),
    ("algebra Q(n) <Sn: divdiff(n, z)>;", "1:30: divdiff point 'z' not declared"),
    ("algebra Q(n) <Sn: shift(n, 3)>;", "1:26: expected ')', got ','"),
    ("algebra Q(n; q) <Sn: qshift(n)>;", "1:30: expected ',', got ')'"),
    ("algebra Q(n; q) <Sn: mahler(n, q)>;", "1:32: expected an integer, got 'q'"),
    ("algebra Q(n) <Sn: shift(n), Tn: euler(n)>;",
     "1:29: generators Sn and Tn on n do not commute"),
    ("algebra Q(n, n) <Sn: shift(n)>;",
     "1:1: generator, variable, and parameter names must be distinct"),
    ("algebra Q(n) <Sn: shift(n)>; ideal I = [Sx - 1];", "1:41: unknown symbol 'Sx'"),
    ("algebra Q(n) <Sn: shift(n)>; ideal I = [Sn / Sn];",
     "1:44: division only by coefficient expressions"),
    ("algebra Q(n) <Sn: shift(n)>; ideal I = [Sn / (n - n)];",
     "1:44: division by zero coefficient"),
    ("ideal I = [Sn - 1]; algebra Q(n) <Sn: shift(n)>;",
     "1:1: ideal before the algebra declaration"),
    ("algebra Q(n) <Sn: shift(n)>; ideal I = [Sn - 1]; ideal I = [Sn];",
     "1:56: duplicate ideal 'I'"),
    ("algebra Q(n) <Sn: shift(n)>; oracle c = pow(2, n); oracle c = 1;",
     "1:59: duplicate oracle 'c'"),
], ids=["superscript-digit", "zero-denominator", "arity", "undeclared-variable",
        "undeclared-parameter", "mahler-base", "divdiff-point", "extra-argument",
        "missing-argument", "ill-typed-argument", "noncommuting-generators",
        "repeated-variable", "unknown-symbol", "division-by-operator",
        "division-by-zero-coefficient", "ideal-before-algebra", "repeated-ideal",
        "repeated-oracle"])
def test_malformed_file_is_a_parse_error_not_a_traceback(text, message, capsys,
                                                         monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["check", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error: %s\n" % message
    assert captured.out == ""


def test_errors_are_reported_in_reading_order(capsys, monkeypatch):
    """Each ideal is built as it is read, so its error comes before a
    syntax error in a later task."""
    text = "algebra Q(n) <Sn: shift(n)>;\nideal I = [Sx - 1];\ndim I maxdeg;\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr().err == "parse error: 2:12: unknown symbol 'Sx'\n"


@pytest.mark.parametrize("verify, flags", [
    ("verify T: sum(k, c) == rowsum box 0 positive;", []),
    ("verify T: sum(k, c) == rowsum;", ["--verify-box", "-1"]),
], ids=["box-1..0", "verify-box-flag"])
def test_a_verify_box_without_points_fails(verify, flags, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(NAMED_EXAMPLE + verify + "\n"))
    assert main(["run", "-", *flags]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verify T: FAIL (0 points)"
    monkeypatch.setattr("sys.stdin", io.StringIO(NAMED_EXAMPLE + verify + "\n"))
    assert main(["run", "-", "--format", "json", *flags]) == 1
    entry = json.loads(capsys.readouterr().out)["tasks"][-1]
    assert (entry["passed"], entry["checked"], entry["counterexamples"]) == (
        False, 0, [[{}, "the box has no point"]])


WIDE_SUPPORT = """
algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal B = [(2*n - k + 2)*(2*n - k + 1)*Sn - (2*n + 2)*(2*n + 1),
           (k + 1)*Sk + k - 2*n];
oracle c = binomial(2*n, k);
oracle rowsum = pow(4, n);
telescope B over Sk maxdeg 3 as T;
verify T: sum(k, c) == rowsum box 7;
"""


def test_a_verify_sums_over_the_whole_proved_support(capsys, monkeypatch):
    """binomial(2n, k) is nonzero on 0 <= k <= 2n, which reaches past n."""
    monkeypatch.setattr("sys.stdin", io.StringIO(WIDE_SUPPORT))
    assert main(["run", "-"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "  A = -Sn + 4"
    assert out[-1] == "verify T: pass (8 points)"


DIVERGENT_SUM = """
algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal I = [(k - 2*n - 19)*Sk - (k + 1), Sn - 1];
oracle f = binomial(k, 2*n + 20);
oracle zero = 0;
telescope I over Sk maxdeg 2 as T;
verify T: sum(k, f) == zero box 3;
"""


def test_a_verify_of_a_divergent_sum_fails(capsys, monkeypatch):
    """binomial(k, 2n + 20) is 0 below k = 2n + 20 only, so the sum over k
    diverges and no finite sum may stand in for it."""
    monkeypatch.setattr("sys.stdin", io.StringIO(DIVERGENT_SUM))
    assert main(["run", "-"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.splitlines()[-1] == (
        "verify: error: summand does not vanish (no natural boundary)")


UNUSED_VARIABLE = """
algebra Q(n, k, m) <Sn: shift(n), Sk: shift(k), Sm: shift(m)>;
ideal B = [(k - n - 1)*Sn + n + 1, (k + 1)*Sk + k - n, Sm - 2];
oracle c = binomial(n, k);
oracle rowsum = pow(2, n);
telescope B over Sk maxdeg 1 as T;
verify T: sum(k, c) == rowsum box 4;
"""


def test_a_telescoper_in_a_variable_no_oracle_uses_fails_cleanly(capsys,
                                                                   monkeypatch):
    """The box spans m, which only the telescoper involves, and
    (2 - Sm) applied to the row sums is not 0."""
    monkeypatch.setattr("sys.stdin", io.StringIO(UNUSED_VARIABLE))
    assert main(["run", "-"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    out = captured.out.splitlines()
    assert (out[1], out[-1]) == ("  A = -Sm + 2", "verify T: FAIL (25 points)")


# each kind declared as `tests/test_ore.py::make_algebra` builds it directly
DECLARATIONS = {
    "diff": "algebra Q(x) <D: diff(x)>;",
    "shift": "algebra Q(x) <S: shift(x)>;",
    "difference": "algebra Q(x) <Dx: difference(x)>;",
    "qdilation": "algebra Q(x; q) <Q: qdilation(x, q)>;",
    "cqdifference": "algebra Q(x; q) <Q: cqdifference(x, q)>;",
    "qdiff": "algebra Q(x; q) <Q: qdiff(x, q)>;",
    "qshift": "algebra Q(X; q) <S: qshift(X, q)>;",
    "dqdifference": "algebra Q(X; q) <Dq: dqdifference(X, q)>;",
    "euler": "algebra Q(x) <T: euler(x)>;",
    "mahler": "algebra Q(x) <M: mahler(x, 2)>;",
    "divdiff": "algebra Q(x) <V: divdiff(x, 2)>;",
}


@pytest.mark.parametrize("kind", list(OreKind), ids=lambda k: k.value)
def test_every_kind_declared_in_a_file_builds_prints_and_runs(kind):
    """The parser builds the algebra the catalog describes, the printer
    gives the file back, and gb and dim run on a one-generator ideal."""
    direct = make_algebra(kind.value)
    (g,) = direct.gens
    text = "%s\nideal I = [%s - %s];\ngb I;\ndim I;\n" % (
        DECLARATIONS[kind.value], g.name, g.var)
    pf = parse(text)
    assert pf.algebra._key() == direct._key()
    assert print_problem(pf) == text
    status, _ = run(pf, out=io.StringIO())
    assert status == 0


def test_a_long_power_is_checked_and_its_ideal_runs(capsys, monkeypatch):
    """Operator products walk exponents in a loop: `Sn^1500` once hit the
    recursion limit while the ideal was built."""
    text = "algebra Q(n) <Sn: shift(n)>;\nideal I = [Sn^1500 - 1];\ndim I;\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out == "ok: 1 ideal(s), 0 oracle(s), 1 task(s)\n"
    status, rendered = run(parse(text), out=io.StringIO())
    assert (status, rendered) == (0, "dim I = 0\n")


def test_readme_states_every_generator_kind():
    """The README's "Generator kinds" paragraph states every kind word
    with its arguments, named as in the catalog's sigma images."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    stated = readme[readme.index("\nGenerator kinds"):].split("\n\n")[0]
    letter = {"param": "q", "mahler_base": "b", "eval_point": "c"}
    for kind, row in CATALOG.items():
        args = "x" if row.arg is None else "x, " + letter[row.arg]
        assert "`%s(%s)`" % (kind.value, args) in " ".join(stated.split()), kind


def test_readme_states_every_task_word():
    """The README's "Tasks:" paragraph names every task, literal word,
    chosen word and clause word of the task syntax table."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    stated = set(re.findall(r"\w+", readme[readme.index("\nTasks:"):].split("\n\n")[0]))

    def words(fields):
        for f in fields:
            if isinstance(f, str):
                yield f
            elif isinstance(f[1], tuple):
                for word, own in f[1][1].items():
                    yield word
                    yield from words(own)

    for kind, syntax in cli._TASKS.items():
        table = {kind, *syntax.clauses,
                 *words(syntax.fields + tuple(syntax.clauses.items()))}
        assert {w for w in table if w.isidentifier()} <= stated, kind
