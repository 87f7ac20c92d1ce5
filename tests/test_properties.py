"""Standalone property suites: exactness and structure invariants.

Each suite runs a fixed number of seeded random cases; everything here is
exact, so any failure is a real defect, not noise.
"""
import itertools
import random
import zlib
from fractions import Fraction

import pytest

from orecalc.arith import PolyRing, RatFunc, divides, nullspace
from orecalc.closure import closure_apply, closure_product, closure_sum
from orecalc.groebner import GREVLEX, LeftIdeal, buchberger
from orecalc.growth import growth_zero_dimensional
from orecalc.ore import OreAlgebra, OreGenerator, OreKind, OrePoly

from corpus_objects import (
    abel_ideal,
    algebra_nk,
    algebra_nmkl,
    binomial_ideal,
    double_stirling_factor_ideals,
    double_stirling_ideal,
    nonproper_ideal,
    stirling_ideal,
)
from test_ore import ALL_KINDS, make_algebra, rand_ratfunc

CASES_PER_KIND = 200

CORPUS_IDEALS = [
    ("binomial", binomial_ideal),
    ("stirling", stirling_ideal),
    ("double_stirling", double_stirling_ideal),
    ("abel", abel_ideal),
    ("nonproper", nonproper_ideal),
]


@pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
def test_skew_leibniz_per_kind(kind):
    alg = make_algebra(kind)
    rng = random.Random(0xBEEF ^ zlib.crc32(str(kind).encode()))
    pole = 2 if kind == "divdiff" else None
    for _ in range(CASES_PER_KIND):
        u = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        v = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        su, du = alg.sigma(0, u), alg.delta(0, u)
        dv = alg.delta(0, v)
        assert alg.delta(0, u * v) == su * dv + du * v
        assert alg.sigma(0, u * v) == su * alg.sigma(0, v)


@pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
def test_associativity_per_kind(kind):
    # multiplication agrees with composition of the natural module action,
    # checked per catalog kind on random operators and arguments
    alg = make_algebra(kind)
    rng = random.Random(0xACC ^ zlib.crc32(str(kind).encode()))
    pole = 2 if kind == "divdiff" else None
    g = alg.gen(alg.gens[0].name)
    x = alg.var(alg.gens[0].var)
    for _ in range(CASES_PER_KIND):
        c1 = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        c2 = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        f1 = g.scale(c1) + x
        f2 = g + alg.scalar(c2)
        r = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        assert (f1 * f2).apply_to_ratfunc(r) == f1.apply_to_ratfunc(
            f2.apply_to_ratfunc(r))


def test_operator_associativity_direct():
    alg = algebra_nk()
    rng = random.Random(99)
    for _ in range(60):
        ops = []
        for _ in range(3):
            terms = {}
            for _ in range(2):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                c = rand_ratfunc(alg.field, rng)
                if not c.is_zero():
                    terms[e] = c
            ops.append(OrePoly(alg, terms))
        f, g, h = ops
        assert (f * g) * h == f * (g * h)


def _all_spairs_reduce(gb):
    for f, g in itertools.combinations(gb.elements, 2):
        ef, eg = gb.order.leading_exp(f), gb.order.leading_exp(g)
        lcm = tuple(max(a, b) for a, b in zip(ef, eg))
        s = f.lmul_monomial(tuple(a - b for a, b in zip(lcm, ef))) \
            - g.lmul_monomial(tuple(a - b for a, b in zip(lcm, eg)))
        if not gb.normal_form(s).is_zero():
            return False
    return True


@pytest.mark.parametrize("name,mk", CORPUS_IDEALS)
def test_gb_spairs_reduce_to_zero(name, mk):
    gb = mk().groebner_basis()
    assert _all_spairs_reduce(gb)


@pytest.mark.parametrize("name,mk", CORPUS_IDEALS)
def test_gb_canonicity(name, mk):
    I = mk()
    gb1 = I.groebner_basis()
    rng = random.Random(5)
    gens = list(I.generators)
    for _ in range(3):
        rng.shuffle(gens)
        gb2 = buchberger(gens, GREVLEX, algebra=I.algebra)
        assert gb1.elements == gb2.elements


@pytest.mark.parametrize("name,mk", CORPUS_IDEALS)
def test_normal_form_idempotence(name, mk):
    I = mk()
    gb = I.groebner_basis()
    alg = I.algebra
    rng = random.Random(17)
    for _ in range(25):
        terms = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 2) for _ in range(alg.ngens))
            c = rand_ratfunc(alg.field, rng)
            if not c.is_zero():
                terms[e] = c
        f = OrePoly(alg, terms)
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        assert all(gb.is_reduced_exp(e) for e in nf.terms)


def test_left_multiples_reduce_to_zero():
    for name, mk in CORPUS_IDEALS:
        I = mk()
        gb = I.groebner_basis()
        alg = I.algebra
        rng = random.Random(23)
        for _ in range(10):
            terms = {}
            for _ in range(2):
                e = tuple(rng.randint(0, 1) for _ in range(alg.ngens))
                c = rand_ratfunc(alg.field, rng)
                if not c.is_zero():
                    terms[e] = c
            h = OrePoly(alg, terms)
            f = I.generators[rng.randrange(len(I.generators))]
            assert gb.normal_form(h * f).is_zero()


def test_nullspace_exactness():
    R = PolyRing(("n", "k"))
    n, k = R.var("n"), R.var("k")
    rng = random.Random(31)

    def entry():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = (rng.randint(0, 1), rng.randint(0, 1))
            terms[e] = terms.get(e, Fraction(0)) + rng.randint(-4, 4)
        num = R.from_terms(terms)
        den = (k + rng.randint(1, 3)) * (n + rng.randint(1, 3))
        return RatFunc(num, den if rng.random() < 0.5 else R.one)

    for _ in range(20):
        nr, nc = rng.randint(2, 4), rng.randint(2, 4)
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
        for r in rows:
            r.append(r[0] + r[-1])
        basis = nullspace(rows)
        assert basis
        for v in basis:
            for row in rows:
                s = RatFunc.zero(R)
                for x, y in zip(row, v):
                    s = s + x * y
                assert s.is_zero()


def test_growth_divisibility_chain():
    certs = [growth_zero_dimensional(binomial_ideal(), ["k"], window=10)]
    alg = OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])
    x = alg.field.var("x")
    certs.append(growth_zero_dimensional(
        LeftIdeal(alg, [alg.gen("D").scale(RatFunc.from_poly(x * x + 1))
                        - alg.scalar(RatFunc.from_poly(x))]),
        ["x"], window=8))
    for cert in certs:
        assert cert.polys[0].is_one()
        for a, b in zip(cert.polys, cert.polys[1:]):
            assert divides(a, b)
        assert all(x <= y for x, y in zip(cert.degrees, cert.degrees[1:]))


def test_closure_dimension_bounds():
    alg = algebra_nk()
    I = binomial_ideal(alg)
    n, k = alg.var("n"), alg.var("k")
    Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
    J = LeftIdeal(alg, [Sn * Sk - (k + 1) * Sk - alg.one])
    runs = [
        closure_product(I, I, 2),
        closure_product(I, J, 3),
        closure_sum(I, J, 3),
        closure_apply("Sn", I, 2),
        closure_apply("Sk", J, 3),
    ]
    alg4 = algebra_nmkl()
    i1, i2, i3 = double_stirling_factor_ideals(alg4)
    r12 = closure_product(i1, i2, 3)
    runs.append(r12)
    runs.append(closure_product(r12.ideal, i3, 3))
    for r in runs:
        assert r.bound_met
        if r.bound is not None and isinstance(r.dimension, int):
            assert r.dimension <= r.bound
