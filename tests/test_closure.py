import random
import zlib

import pytest

from orecalc.closure import closure_apply, closure_product, closure_sum
from orecalc.dimension import hilbert_dimension
from orecalc.errors import KindMismatch, NonlinearAlgebra
from orecalc.groebner import LeftIdeal, is_member, same_ideal
from orecalc.ore import OreAlgebra, OreGenerator, OreKind
from orecalc.verify import Builtin, LinExpr, Product, apply_operator_numeric, box_points

from corpus_objects import (
    algebra_nk,
    algebra_nmkl,
    binomial_ideal,
    double_stirling_factor_ideals,
    double_stirling_ideal,
)
from test_ore import ALL_KINDS, make_algebra, rand_ratfunc


def lin(const=0, **kw):
    return LinExpr.of(const, **kw)


def assert_annihilates(ideal, oracle, ranges):
    pts = box_points(ranges)
    for g in ideal.generators:
        for env, val, note in apply_operator_numeric(g, oracle, pts):
            if val is None:
                continue
            assert val == 0, (str(g), env, val)


class TestClosureProduct:
    def test_double_stirling_reproduction(self):
        alg = algebra_nmkl()
        i1, i2, i3 = double_stirling_factor_ideals(alg)
        r12 = closure_product(i1, i2, 3)
        assert r12.bound_met
        r = closure_product(r12.ideal, i3, 3)
        assert r.bound_met
        I = double_stirling_ideal(alg)
        assert same_ideal(r.ideal, I)
        assert hilbert_dimension(r.ideal) == 2

    def test_binomial_squared(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        r = closure_product(I, I, 2)
        assert r.bound == 0 and r.bound_met
        assert hilbert_dimension(r.ideal) == 0
        sq = Product((
            Builtin("binomial", (lin(n=1), lin(k=1))),
            Builtin("binomial", (lin(n=1), lin(k=1))),
        ))
        assert_annihilates(r.ideal, sq, {"n": (0, 12), "k": (0, 12)})

    def test_product_with_constant_one(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        ones = LeftIdeal(alg, [alg.gen(g.name) - alg.one for g in alg.gens])
        r = closure_product(I, ones, 3)
        assert r.bound_met
        # multiplying by 1 keeps the annihilator: I is contained in the result
        for g in I.generators:
            assert is_member(g, r.ideal)


class TestClosureSum:
    def test_sum_with_itself(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        r = closure_sum(I, I, 2)
        assert r.bound == 0 and r.bound_met
        for g in I.generators:
            assert is_member(g, r.ideal)

    def test_binomial_plus_stirling(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        # Stirling relation for S2(n, k) inside Q(n,k)<Sn,Sk>
        n, k = alg.var("n"), alg.var("k")
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        J = LeftIdeal(alg, [Sn * Sk - (k + 1) * Sk - alg.one])
        r = closure_sum(I, J, 3)
        assert r.bound == 1
        assert r.bound_met
        assert hilbert_dimension(r.ideal) <= 1
        mix = Product((Builtin("binomial", (lin(n=1), lin(k=1))),))
        # numeric oracle on C(n,k) + S2(n,k)
        from orecalc.verify import Add
        s = Add((
            Builtin("binomial", (lin(n=1), lin(k=1))),
            Builtin("stirling2", (lin(n=1), lin(k=1))),
        ))
        assert_annihilates(r.ideal, s, {"n": (0, 12), "k": (0, 12)})

    def test_sum_of_constants(self):
        alg = algebra_nk()
        ones = LeftIdeal(alg, [alg.gen("Sn") - alg.one, alg.gen("Sk") - alg.one])
        r = closure_sum(ones, ones, 1)
        assert hilbert_dimension(r.ideal) == 0


class TestClosureApply:
    def test_shifted_binomial(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        r = closure_apply("Sn", I, 2)
        assert r.bound == 0 and r.bound_met
        assert hilbert_dimension(r.ideal) == 0
        shifted = Builtin("binomial", (lin(n=1, const=1), lin(k=1)))
        assert_annihilates(r.ideal, shifted, {"n": (0, 12), "k": (0, 12)})

    def test_differential_exponential(self):
        alg = OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])
        I = LeftIdeal(alg, [alg.gen("D") - alg.one])  # ann of exp
        r = closure_apply("D", I, 1)
        assert r.bound_met
        assert same_ideal(r.ideal, I)

    def test_shifted_stirling(self):
        alg = algebra_nk()
        n, k = alg.var("n"), alg.var("k")
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        J = LeftIdeal(alg, [Sn * Sk - (k + 1) * Sk - alg.one])
        r = closure_apply("Sn", J, 3)
        assert r.bound == 1
        assert hilbert_dimension(r.ideal) <= 1
        shifted = Builtin("stirling2", (lin(n=1, const=1), lin(k=1)))
        assert_annihilates(r.ideal, shifted, {"n": (0, 12), "k": (0, 12)})


class TestInvariants:
    def test_soundness_zero_coordinates(self):
        # every output generator rewrites to the zero coordinate vector
        from functools import partial
        from orecalc.closure import _product_act
        from orecalc.arith import RatFunc
        from orecalc.ore import apply_gen, peel_walk
        alg = algebra_nk()
        I = binomial_ideal(alg)
        gb = I.groebner_basis()
        r = closure_product(I, I, 2)
        zero = alg._zero_exp
        states = {zero: {(zero, zero): RatFunc.one(alg.field)}}
        step = partial(apply_gen, alg, _product_act(gb, gb))
        for g in r.ideal.generators:
            total = {}
            for e, c in g.terms.items():
                for coord, u in peel_walk(states, e, step).items():
                    cur = total.get(coord, RatFunc.zero(alg.field))
                    total[coord] = cur + c * u
            assert all(v.is_zero() for v in total.values())

    def test_degree_monotonicity(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        n, k = alg.var("n"), alg.var("k")
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        J = LeftIdeal(alg, [Sn * Sk - (k + 1) * Sk - alg.one])
        r2 = closure_sum(I, J, 2)
        r3 = closure_sum(I, J, 3)
        for g in r2.ideal.generators:
            assert is_member(g, r3.ideal)

    def test_dimension_bounds_on_corpus(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        n, k = alg.var("n"), alg.var("k")
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        J = LeftIdeal(alg, [Sn * Sk - (k + 1) * Sk - alg.one])
        for r in [closure_product(I, J, 3), closure_sum(I, J, 3),
                  closure_apply("Sk", J, 3)]:
            if r.bound is not None and isinstance(r.dimension, int):
                assert r.dimension <= r.bound


class TestEveryKind:
    """The product, sum and apply actions on every catalog kind, checked on
    rational functions, where each annihilator is known exactly."""

    @staticmethod
    def annihilator(alg, r):
        d = alg.gen(alg.gens[0].name)
        return LeftIdeal(alg, [d - alg.scalar(d.apply_to_ratfunc(r) / r)])

    @pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
    def test_closures_annihilate(self, kind):
        alg = make_algebra(kind)
        rng = random.Random(zlib.crc32(str(kind).encode()))
        pole = 2 if kind == "divdiff" else None
        r1 = r2 = None
        while not r1:
            r1 = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        while not r2:
            r2 = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        I1, I2 = self.annihilator(alg, r1), self.annihilator(alg, r2)
        d = alg.gen(alg.gens[0].name)
        for res, f in [(closure_product(I1, I2, 2), r1 * r2),
                       (closure_sum(I1, I2, 3), r1 + r2),
                       (closure_apply(alg.gens[0].name, I1, 2),
                        d.apply_to_ratfunc(r1))]:
            assert res.bound_met
            for g in res.ideal.generators:
                assert g.apply_to_ratfunc(f).is_zero(), (kind, str(g))

    def test_only_kind_mismatch_is_nonlinear(self, monkeypatch):
        alg = make_algebra("shift")
        I = LeftIdeal(alg, [alg.gen("S") - alg.one])

        def mismatch(i):
            raise KindMismatch("no linear extension")

        def broken(i):
            raise RuntimeError("a fault in the action")
        monkeypatch.setattr(alg, "linearization", mismatch)
        with pytest.raises(NonlinearAlgebra):
            closure_product(I, I, 1)
        monkeypatch.setattr(alg, "linearization", broken)
        with pytest.raises(RuntimeError):
            closure_product(I, I, 1)
