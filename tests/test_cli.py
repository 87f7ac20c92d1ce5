import glob
import io
import json
import os

import pytest

from orecalc.cli import main, parse, print_problem, run
from orecalc.errors import KindError, ProblemSyntaxError, UnknownName

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


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
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 1
        captured = capsys.readouterr()
        out = captured.out + captured.err
        assert out == "growth: error: ideal is not 0-dimensional\n"

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
    with open(os.path.join(CORPUS, name + ".ore")) as fh:
        pf = parse(fh.read())
    _, rendered = run(pf, fmt="json", out=io.StringIO())
    with open(os.path.join(golden_dir, name + ".json")) as fh:
        assert rendered == fh.read()
