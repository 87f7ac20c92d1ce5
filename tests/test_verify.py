import math
from fractions import Fraction

import pytest

from orecalc.errors import NonDiscreteAlgebra, OutOfDomain
from orecalc.ore import OreAlgebra, OreGenerator, OreKind
from orecalc.verify import (
    Builtin,
    Const,
    DefiniteSum,
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
        s = DefiniteSum("k", Const(Fraction(1)), cap=50)
        with pytest.raises(OutOfDomain):
            s.eval({})


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
