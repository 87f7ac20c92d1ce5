import importlib.util
import io
import math
import os
import re
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

import orecalc.cli as cli
from orecalc.arith import RatFunc
from orecalc.errors import NonDiscreteAlgebra, OutOfDomain
from orecalc.ore import OreAlgebra, OreGenerator, OreKind, OrePoly
from orecalc.verify import (
    Add,
    Builtin,
    Const,
    DefiniteSum,
    Lin,
    LinExpr,
    Pow,
    Product,
    apply_operator_numeric,
    bernoulli,
    binomial,
    box_points,
    check_identity,
    eulerian1,
    factorial,
    stirling2,
)

from corpus_objects import (
    algebra_kl,
    algebra_nk,
    algebra_nmkl,
    double_stirling_ideal,
    double_stirling_telescoper,
    stirling_ideal,
)


def lin(const=0, **kw):
    return LinExpr.of(const, **kw)


class TestBuiltins:
    def test_stirling_table(self):
        # derived from the triangular recurrence seeded at S2(0,0)=1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, 0) == 0
        assert stirling2(0, 0) == 1

    def test_stirling_recurrence_everywhere(self):
        for n in range(1, 12):
            for k in range(0, n + 2):
                assert stirling2(n, k) == stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)

    def test_binomial_pascal_and_support(self):
        assert binomial(5, 2) == 10
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        for n in range(1, 10):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_bernoulli_convention(self):
        # from sum_{j<n} C(n,j) B_j = 0 seeded at B_0 = 1
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        for n in range(2, 14):
            acc = sum(math.comb(n, j) * bernoulli(j) for j in range(n))
            assert acc == 0

    def test_eulerian_values(self):
        # row n=3: 1, 4, 1
        assert [eulerian1(3, m) for m in range(3)] == [1, 4, 1]
        assert sum(eulerian1(4, m) for m in range(4)) == factorial(4)
        assert eulerian1(2, 5) == 0

    def test_integer_values_are_ints(self):
        # exact without Fraction: integer sequences, products, nonnegative
        # powers and definite sums of them are ints; Bernoulli numbers and
        # negative powers stay Fractions
        env = {"n": 6, "k": 2}
        term = Product((Builtin("binomial", (lin(n=1), lin(k=1))),
                        Pow(lin(2), lin(k=1)), Const(-1)))
        for v in (binomial(6, 2), stirling2(6, 3), eulerian1(5, 2), factorial(5),
                  term.eval(env), DefiniteSum("k", term).eval(env)):
            assert type(v) is int
        assert DefiniteSum("k", term).eval(env) == -(3 ** 6)
        assert type(bernoulli(0)) is Fraction
        assert Pow(lin(2), lin(-1, k=1)).eval({"k": -1}) == Fraction(1, 4)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            bernoulli(-1)
        with pytest.raises(OutOfDomain):
            factorial(-2)


class TestOracleExpressions:
    def test_product_short_circuit_protects_bernoulli(self):
        # C(m,k)*B(n+k) at k > m: binomial is 0, Bernoulli never evaluated
        expr = Product((
            Builtin("binomial", (lin(m=1), lin(k=1))),
            Builtin("bernoulli", (lin(n=1, k=1),)),
        ))
        assert expr.eval({"m": 2, "k": 5, "n": -10}) == 0

    def test_pow_zero_negative_raises(self):
        p = Pow(lin(k=1), lin(const=-1))
        with pytest.raises(OutOfDomain):
            p.eval({"k": 0})
        assert Pow(lin(const=0), lin(const=0)).eval({}) == 1
        assert Pow(lin(const=-1), lin(m=1, k=-1)).eval({"m": 0, "k": 3}) == -1
        assert Pow(lin(const=-1), lin(m=1, k=-1)).eval({"m": 1, "k": 3}) == 1

    def test_definite_sum_row_of_binomials(self):
        s = DefiniteSum("k", Builtin("binomial", (lin(n=1), lin(k=1))))
        for n in range(0, 12):
            assert s.eval({"n": n}) == 2 ** n

    def test_definite_sum_no_boundary_raises(self):
        s = DefiniteSum("k", Const(Fraction(1)))
        with pytest.raises(OutOfDomain):
            s.eval({})

    def test_a_half_line_support_raises(self):
        # C(3, k) + C(k, 40) diverges; its hull (0, None) bounds one side only
        body = Add((Builtin("binomial", (lin(3), lin(k=1))),
                    Builtin("binomial", (lin(k=1), lin(40)))))
        assert body.support("k", {}) == (0, None)
        with pytest.raises(OutOfDomain, match="no natural boundary"):
            DefiniteSum("k", body).eval({})

    def test_a_zero_term_keeps_the_sum(self):
        b = Builtin("binomial", (lin(n=1), lin(k=1)))
        assert Const(0).support("k", {}) == (1, 0)
        assert Add((b, Const(0))).support("k", {"n": 5}) == (0, 5)
        s = DefiniteSum("k", Add((b, Const(0))))
        assert [s.eval({"n": n}) for n in range(8)] == [2 ** n for n in range(8)]

    def test_an_empty_term_does_not_widen_the_hull(self):
        # C(9, k)*C(k, 5) is 0 outside 5 <= k <= 9, and the 0 term adds no point
        b = Product((Builtin("binomial", (lin(9), lin(k=1))),
                     Builtin("binomial", (lin(k=1), lin(5)))))
        assert Add((b, Const(0))).support("k", {}) == (5, 9)
        # C(n, 7) at n = 5 is empty in k as well: so is the sum
        empty = Builtin("binomial", (lin(n=1), lin(7)))
        assert Add((Const(0), empty)).support("k", {"n": 5}) == (1, 0)
        assert DefiniteSum("k", Add((b, Const(0)))).eval({}) == sum(
            math.comb(9, k) * math.comb(k, 5) for k in range(10))


class TestApplyOperator:
    def test_stirling_recurrence_operator(self):
        alg = algebra_kl()
        I = stirling_ideal(alg)
        op = I.generators[0]
        oracle = Builtin("stirling2", (lin(k=1), lin(l=1)))
        pts = box_points({"k": (2, 10), "l": (2, 10)})
        for env, val, note in apply_operator_numeric(op, oracle, pts):
            assert val == 0, (env, val)

    def test_double_stirling_generators_annihilate(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        f = Product((
            Builtin("binomial", (lin(n=1), lin(k=1))),
            Builtin("stirling2", (lin(k=1), lin(l=1))),
            Builtin("stirling2", (lin(n=1, k=-1), lin(m=1))),
        ))
        pts = box_points({"n": (0, 5), "m": (0, 3), "k": (0, 4), "l": (0, 3)})
        for g in I.generators:
            for env, val, note in apply_operator_numeric(g, f, pts):
                if val is None:
                    continue
                assert val == 0, (env, val)

    def test_zero_operator(self):
        alg = algebra_kl()
        zero = alg.zero
        oracle = Builtin("binomial", (lin(k=1), lin(l=1)))
        for env, val, _ in apply_operator_numeric(zero, oracle, box_points({"k": (0, 3), "l": (0, 3)})):
            assert val == 0

    def test_denominator_vanishes_reported(self):
        alg = algebra_kl()
        K = alg.field
        from orecalc.arith import RatFunc
        op = alg.gen("Sk").scale(RatFunc(K.one, K.var("k") - 3))
        oracle = Builtin("binomial", (lin(k=1), lin(l=1)))
        res = apply_operator_numeric(op, oracle, box_points({"k": (3, 3), "l": (0, 0)}))
        assert res[0][1] is None and "denominator" in res[0][2]

    def test_non_discrete_rejected(self):
        alg = OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])
        oracle = Builtin("factorial", (lin(x=1),))
        with pytest.raises(NonDiscreteAlgebra):
            apply_operator_numeric(alg.gen("D"), oracle, [{"x": 1}])


class TestCheckIdentity:
    def test_double_stirling_identity(self):
        alg = algebra_nmkl()
        A = double_stirling_telescoper(alg)
        summand = Product((
            Builtin("binomial", (lin(n=1), lin(k=1))),
            Builtin("stirling2", (lin(k=1), lin(l=1))),
            Builtin("stirling2", (lin(n=1, k=-1), lin(m=1))),
        ))
        closed = Product((
            Builtin("binomial", (lin(l=1, m=1), lin(l=1))),
            Builtin("stirling2", (lin(n=1), lin(l=1, m=1))),
        ))
        rep = check_identity(summand, A, closed, "k",
                             {"n": (0, 8), "m": (0, 4), "l": (0, 4)})
        assert rep.passed, rep.counterexamples[:3]
        assert rep.checked > 0

    def test_failing_identity_reports_counterexample(self):
        alg = algebra_kl()
        Sk = alg.gen("Sk")
        summand = Builtin("binomial", (lin(k=1), lin(l=1)))
        wrong = Builtin("factorial", (lin(k=1),))
        rep = check_identity(summand, Sk - alg.scalar(2), wrong, "l",
                             {"k": (0, 5)})
        assert not rep.passed
        assert rep.counterexamples


# -- proved supports -------------------------------------------------------------

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=40)
WIDE = 60  # brute-force window: every proved support below lies inside it
OUTER = {"n": st.integers(0, 5), "m": st.integers(0, 4)}
FINITE = ("binomial", "stirling2", "eulerian1")


def linexprs(k_coeffs=(-2, -1, 0, 1, 2)):
    """c*k + a*n + b*m + d with small integer coefficients."""
    return st.builds(lambda c, a, b, d: lin(d, k=c, n=a, m=b),
                     st.sampled_from(k_coeffs), st.integers(-2, 2),
                     st.integers(-1, 1), st.integers(-4, 4))


def finite_builtins():
    """f(c*k + a*n + b*m + d, c'*k + b'*m + d'), mostly with k in the
    second argument, as in the corpus summands, so that most supports
    are neither empty nor all of the window."""
    first = st.builds(lambda c, a, b, d: lin(d, k=c, n=a, m=b),
                      st.sampled_from([0, 0, 0, 1, -1]), st.sampled_from([1, 1, 2]),
                      st.sampled_from([0, 0, 1]), st.integers(-2, 2))
    second = st.builds(lambda c, b, d: lin(d, k=c, m=b),
                       st.sampled_from([1, 1, -1, 2, 0]), st.sampled_from([0, 1]),
                       st.integers(-2, 2))
    return st.builds(lambda name, x, y: Builtin(name, (x, y)),
                     st.sampled_from(FINITE), first, second)


@st.composite
def products(draw):
    """Finite-support builtins, some with a Bernoulli number or a negative
    power behind them, which the builtins must keep from being evaluated
    outside the support."""
    factors = draw(st.lists(finite_builtins(), min_size=1, max_size=2))
    extra = draw(st.sampled_from([None, "bernoulli", "pow"]))
    if extra == "bernoulli":  # of negative index at some k when d < 0
        factors.append(Builtin("bernoulli", (lin(draw(st.integers(-3, 3)), k=1),)))
    elif extra == "pow":  # a negative power for some k
        factors.append(Pow(lin(draw(st.sampled_from([-2, 3]))),
                           draw(linexprs())))
    order = draw(st.permutations(range(len(factors))))
    return Product(tuple(factors[i] for i in order))


def summands():
    return st.one_of(finite_builtins(), products(),
                     st.builds(lambda ts: Add(tuple(ts)),
                               st.lists(st.one_of(finite_builtins(), products()),
                                        min_size=2, max_size=3)))


def _brute_force(body, env):
    return sum(body.eval(dict(env, k=x)) for x in range(-WIDE, WIDE + 1))


class TestSupport:
    @SETTINGS
    @hypothesis.given(summands(), st.fixed_dictionaries(OUTER))
    def test_proved_support_sum_is_the_brute_force_sum(self, body, env):
        s = body.support("k", env)
        hypothesis.assume(s is not None and None not in s)
        assert -WIDE < s[0] and s[1] < WIDE
        try:
            expected = _brute_force(body, env)
        except OutOfDomain:
            with pytest.raises(OutOfDomain):
                DefiniteSum("k", body).eval(env)
        else:
            assert DefiniteSum("k", body).eval(env) == expected

    @SETTINGS
    @hypothesis.given(
        st.one_of(
            st.builds(Const, st.sampled_from([1, -3, Fraction(1, 2)])),
            st.builds(Pow, st.sampled_from([lin(2), lin(-1)]), linexprs((1, -1))),
            # 0 <= 2 <= k + d holds for all large k
            st.builds(lambda x: Builtin("binomial", (x, lin(2))),
                      linexprs((1,))),
            st.builds(lambda x: Add((Builtin("binomial", (lin(n=1), lin(k=1))),
                                     Pow(lin(3), x))), linexprs((1, -1)))),
        st.fixed_dictionaries(OUTER))
    def test_a_summand_without_proved_support_still_raises(self, body, env):
        s = body.support("k", env)
        assert s is None or None in s
        with pytest.raises(OutOfDomain, match="no natural boundary"):
            DefiniteSum("k", body).eval(env)

    def test_supports_of_the_forms(self):
        env = {"n": 5, "m": 2, "l": 1}
        b = Builtin("binomial", (lin(n=1), lin(k=1)))
        assert b.support("k", env) == (0, 5)
        # S2(k, l) * S2(n - k, m): l <= k and k <= n - m, neither bounded alone
        lower = Builtin("stirling2", (lin(k=1), lin(l=1)))
        upper = Builtin("stirling2", (lin(n=1, k=-1), lin(m=1)))
        assert lower.support("k", env) == (1, None)
        assert upper.support("k", env) == (None, 3)
        assert Product((lower, upper)).support("k", env) == (1, 3)
        # C(2n, 2k + 1): 0 <= 2k + 1 <= 2n
        odd = Builtin("binomial", (lin(n=2), lin(1, k=2)))
        assert odd.support("k", env) == (0, 4)
        assert Builtin("binomial", (lin(n=1), lin(7))).support("k", env) == (1, 0)
        assert Builtin("binomial", (lin(n=1), lin(2))).support("k", env) is None
        assert Add((b, odd)).support("k", env) == (0, 5)
        assert Add((b, lower)).support("k", env) == (0, None)
        assert Add((b, Const(1))).support("k", env) is None
        assert Product((Const(2), Lin(lin(k=1)))).support("k", env) is None
        assert DefiniteSum("j", b).support("k", env) is None

    def test_a_support_wider_than_the_old_window(self):
        # 0 <= k <= 2n: the whole support, however far it reaches past n
        s = DefiniteSum("k", Builtin("binomial", (lin(n=2), lin(k=1))))
        assert [s.eval({"n": n}) for n in range(16)] == [4 ** n for n in range(16)]


# -- operators over one denominator ----------------------------------------------


def _per_term(L, oracle, env):
    """(L . h)(env) term by term, each coefficient a Fraction of its
    expanded numerator and denominator; None if a denominator vanishes."""
    point = [env.get(v, 0) for v in L.algebra.field.names]
    total = Fraction(0)
    for exp, c in L.terms.items():
        den = c.den.eval_point(point)
        if den == 0:
            return None
        shifted = dict(env)
        for g, e in zip(L.algebra.gens, exp):
            if e:
                shifted[g.var] += e
        total += Fraction(c.num.eval_point(point)) / den * oracle.eval(shifted)
    return total


def _assert_per_term(L, oracle, points):
    for env, value, note in apply_operator_numeric(L, oracle, points):
        expected = _per_term(L, oracle, env)
        if expected is None:
            assert (value, note) == (None, "denominator vanishes at %r" % (env,))
        else:
            assert (value, note) == (expected, "")
            assert type(value) is Fraction


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="module")
def corpus_checks():
    """The arguments of every check_identity a corpus file's verify task
    makes, found by running the file without its growth and dim tasks."""
    calls = []
    check = cli.check_identity
    cli.check_identity = lambda *args: calls.append(args) or check(*args)
    try:
        for name in ("abel", "chen_sun_bernoulli", "double_stirling",
                     "stirling_eulerian"):
            with open(os.path.join(CORPUS, name + ".ore")) as fh:
                pf = cli.parse(fh.read())
            pf.tasks = [t for t in pf.tasks if t.kind not in ("growth", "dim")]
            cli.run(pf, out=io.StringIO())
    finally:
        cli.check_identity = check
    return calls


def test_corpus_telescopers_over_one_denominator(corpus_checks):
    assert len(corpus_checks) == 4
    for summand, telescoper, closed, var, ranges in corpus_checks:
        points = box_points({v: (lo, min(hi, 4)) for v, (lo, hi) in ranges.items()})
        _assert_per_term(telescoper, DefiniteSum(var, summand), points)
        _assert_per_term(telescoper, closed, points)


def _load_perfbench_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_inputs = _load_perfbench_inputs()


def _corpus_text(name):
    with open(os.path.join(CORPUS, name + ".ore")) as fh:
        return fh.read()


_VERIFIED = sorted(name for name in (f[:-len(".ore")] for f in os.listdir(CORPUS)
                                      if f.endswith(".ore"))
                   if re.search(r"(?m)^verify ", _corpus_text(name)))


@pytest.mark.parametrize("shift", (0,) + _inputs.SHIFTS)
@pytest.mark.parametrize("name", _VERIFIED)
def test_every_corpus_sum_runs_over_a_proved_finite_support(name, shift,
                                                             monkeypatch):
    """Every sum a corpus verify task evaluates, at every point it reaches,
    has a proved finite support, also with the index variables translated
    as the benchmark's seeded inputs translate them."""
    text = _corpus_text(name)
    pf = cli.parse(_inputs.shifted_text(
        text, {v: shift for v in _inputs.ground_vars(text)}))
    pf.tasks = [t for t in pf.tasks if t.kind in ("closure", "telescope", "verify")]
    supports = []
    evaluate = DefiniteSum.eval

    def recording(self, env):
        supports.append(self.body.support(self.var, env))
        return evaluate(self, env)

    monkeypatch.setattr(DefiniteSum, "eval", recording)
    assert cli.run(pf, out=io.StringIO())[0] == 0
    assert supports
    assert all(s is not None and None not in s for s in supports)


_nk = algebra_nk()
_n, _k = _nk.field.var("n"), _nk.field.var("k")
# linear factors vanishing inside the box below, one with a 2, and quadratics
_FACTORS = [_k, _k + 1, _k - 2, _n - _k, 2 * _k - 1 + _n, _n * _k + 1, _k * _k + _n]


@st.composite
def factored_coefficients(draw):
    num = draw(st.sampled_from([1, -3, Fraction(2, 5)])) * RatFunc.from_poly(
        draw(st.sampled_from([_nk.field.one, _n + 2, _k - _n])))
    for i in draw(st.lists(st.integers(0, len(_FACTORS) - 1), max_size=3)):
        num = num / RatFunc.from_poly(_FACTORS[i])
    return num


@SETTINGS
@hypothesis.given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                                  factored_coefficients(), min_size=1, max_size=4))
def test_random_factored_operators_over_one_denominator(terms):
    L = OrePoly(_nk, terms)
    oracle = Add((Builtin("binomial", (lin(n=1), lin(k=1))),
                  Pow(lin(2), lin(n=1, k=1))))
    _assert_per_term(L, oracle, box_points({"n": (0, 3), "k": (-2, 3)}))


def test_an_operator_variable_missing_from_the_point_is_an_error():
    L = algebra_nk().gen("Sn")
    with pytest.raises(OutOfDomain, match="operator involves n"):
        apply_operator_numeric(L, Builtin("binomial", (lin(n=1), lin(k=1))),
                               [{"k": 0}])
