import random
import zlib
from fractions import Fraction

import pytest

from orecalc.arith import PolyRing, RatFunc
from orecalc.errors import AlgebraMismatch, KindMismatch
from orecalc.ore import (
    CATALOG,
    OreAlgebra,
    OreGenerator,
    OreKind,
    OrePoly,
    difference_to_shift,
    shift_to_difference,
    telescopable_witness,
)


def diff_algebra():
    return OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])


def shift_algebra_nk():
    return OreAlgebra(
        ["n", "k"],
        [OreGenerator("Sn", OreKind.SHIFT, "n"),
         OreGenerator("Sk", OreKind.SHIFT, "k")],
    )


def rand_ratfunc(ring, rng, avoid_pole_at=None):
    def rp():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in ring.names)
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[e] = terms.get(e, Fraction(0)) + c
        return ring.from_terms(terms)

    num = rp()
    den = rp()
    while den.is_zero() or (
            avoid_pole_at is not None
            and den.eval_point([avoid_pole_at] * len(ring.names)) == 0):
        den = rp()
    return RatFunc(num, den)


ALL_KINDS = [
    ("diff", lambda: OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])),
    ("shift", lambda: OreAlgebra(["x"], [OreGenerator("S", OreKind.SHIFT, "x")])),
    ("difference", lambda: OreAlgebra(["x"], [OreGenerator("Dx", OreKind.DIFFERENCE, "x")])),
    ("qdilation", lambda: OreAlgebra(["x"], [OreGenerator("Q", OreKind.Q_DILATION, "x", param="q")], params=["q"])),
    ("cqdifference", lambda: OreAlgebra(["x"], [OreGenerator("Q", OreKind.CONT_Q_DIFFERENCE, "x", param="q")], params=["q"])),
    ("qdiff", lambda: OreAlgebra(["x"], [OreGenerator("Q", OreKind.Q_DIFFERENTIATION, "x", param="q")], params=["q"])),
    ("qshift", lambda: OreAlgebra(["X"], [OreGenerator("S", OreKind.Q_SHIFT, "X", param="q")], params=["q"])),
    ("dqdifference", lambda: OreAlgebra(["X"], [OreGenerator("Dq", OreKind.DISCRETE_Q_DIFFERENCE, "X", param="q")], params=["q"])),
    ("euler", lambda: OreAlgebra(["x"], [OreGenerator("T", OreKind.EULER, "x")])),
    ("mahler", lambda: OreAlgebra(["x"], [OreGenerator("M", OreKind.MAHLER, "x", mahler_base=2)])),
    ("divdiff", None),  # built below, needs the evaluation point in the field
]


def make_algebra(name):
    for n, mk in ALL_KINDS:
        if n == name and mk is not None:
            return mk()
    if name == "divdiff":
        ring = PolyRing(("x",))
        a = RatFunc.const(ring, 2)
        return OreAlgebra(["x"], [OreGenerator("V", OreKind.DIVIDED_DIFFERENCE, "x", eval_point=a)])
    raise KeyError(name)


def test_catalog_has_one_row_per_kind():
    assert list(CATALOG) == list(OreKind)
    for row in CATALOG.values():
        assert row.sigma in ("x", "x + 1", "q*x", "x^b", "c")
        assert row.delta in ("0", "d/dx", "x*d/dx", "(sigma - 1)/h")
        assert row.h in ((None,) if row.delta != "(sigma - 1)/h"
                         else ("1", "sigma(x) - x"))


@pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
def test_linearization_agrees_with_sigma_and_delta(kind):
    """sigma = a_sigma*delta + 1 wherever delta is not 0, and both module
    operators give sigma and delta on the coefficient field."""
    alg = make_algebra(kind)
    asig, bsig, adel, bdel, lam = alg.linearization(0)
    rng = random.Random(zlib.crc32(kind.encode()))
    pole = 2 if kind == "divdiff" else None
    for _ in range(20):
        a = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
        act = alg.gen(alg.gens[0].name).apply_to_ratfunc(a)  # d . a
        assert alg.sigma(0, a) == asig * act + bsig * a
        assert alg.delta(0, a) == adel * act + bdel * a


@pytest.mark.parametrize("kind, args, message", [
    (OreKind.SHIFT, {"param": "q"}, "shift generator 'G' takes no param"),
    (OreKind.Q_SHIFT, {}, "qshift generator 'G' needs param"),
    (OreKind.MAHLER, {"mahler_base": 1}, "Mahler generator needs integer base >= 2"),
    (OreKind.DIVIDED_DIFFERENCE, {"mahler_base": 2},
     "divdiff generator 'G' takes no mahler_base"),
])
def test_generator_takes_exactly_its_catalog_argument(kind, args, message):
    with pytest.raises(KindMismatch) as exc:
        OreGenerator("G", kind, "x", **args)
    assert str(exc.value) == message


class TestSigmaDelta:
    def test_differentiation_table_row(self):
        # D*x = x*D + 1
        alg = diff_algebra()
        x = RatFunc.from_poly(alg.field.var("x"))
        s, d = alg.apply_sigma_delta("D", x)
        assert s == x
        assert d.is_one()

    def test_shift_table_row(self):
        # S*x = (x+1)*S
        alg = OreAlgebra(["x"], [OreGenerator("S", OreKind.SHIFT, "x")])
        x = RatFunc.from_poly(alg.field.var("x"))
        s, d = alg.apply_sigma_delta("S", x)
        assert s == x + 1
        assert d.is_zero()

    def test_difference_on_square(self):
        alg = OreAlgebra(["x"], [OreGenerator("Dx", OreKind.DIFFERENCE, "x")])
        x = RatFunc.from_poly(alg.field.var("x"))
        s, d = alg.apply_sigma_delta("Dx", x * x)
        assert s == x * x + 2 * x + 1
        assert d == 2 * x + 1
        # skew Leibniz on u = v = x
        su, du = alg.apply_sigma_delta("Dx", x)
        assert d == su * du + du * x

    @pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
    def test_skew_leibniz(self, kind):
        alg = make_algebra(kind)
        rng = random.Random(zlib.crc32(str(kind).encode()) & 0xFFFF)
        pole = 2 if kind == "divdiff" else None
        for _ in range(200):
            u = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
            v = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
            su = alg.sigma(0, u)
            du = alg.delta(0, u)
            dv = alg.delta(0, v)
            assert alg.delta(0, u * v) == su * dv + du * v
            assert alg.sigma(0, u * v) == su * alg.sigma(0, v)

    @pytest.mark.parametrize("kind", [k for k, _ in ALL_KINDS])
    def test_commutation_rule_via_product(self, kind):
        # d*a == sigma(a)*d + delta(a) as operator identity
        alg = make_algebra(kind)
        rng = random.Random(zlib.crc32(str(kind).encode()) & 0xFFF)
        gen = alg.gen(alg.gens[0].name)
        pole = 2 if kind == "divdiff" else None
        for _ in range(20):
            a = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
            lhs = gen * alg.scalar(a)
            rhs = alg.scalar(alg.sigma(0, a)) * gen + alg.scalar(alg.delta(0, a))
            assert lhs == rhs


class TestOrePolyMul:
    def test_d_times_x(self):
        alg = diff_algebra()
        D = alg.gen("D")
        x = alg.var("x")
        assert D * x == x * D + alg.one

    def test_shift_times_k_minus_n(self):
        alg = shift_algebra_nk()
        Sk = alg.gen("Sk")
        n = alg.field.var("n")
        k = alg.field.var("k")
        lhs = Sk * alg.scalar(RatFunc.from_poly(k - n))
        rhs = alg.scalar(RatFunc.from_poly(k + 1 - n)) * Sk
        assert lhs == rhs

    def test_associativity_random(self):
        alg = shift_algebra_nk()
        rng = random.Random(17)

        def rand_opoly():
            out = alg.zero
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                c = rand_ratfunc(alg.field, rng)
                out = out + OrePoly(alg, {e: c} if not c.is_zero() else {})
            return out

        for _ in range(25):
            f, g, h = rand_opoly(), rand_opoly(), rand_opoly()
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_generators_commute(self):
        for mk in [shift_algebra_nk,
                   lambda: OreAlgebra(
                       ["x", "n"],
                       [OreGenerator("D", OreKind.DIFFERENTIATION, "x"),
                        OreGenerator("Sn", OreKind.SHIFT, "n")])]:
            alg = mk()
            a, b = alg.gen(alg.gens[0].name), alg.gen(alg.gens[1].name)
            assert a * b == b * a

    def test_degree_additivity(self):
        # leading exponents add under any graded order (no zero divisors)
        alg = OreAlgebra(
            ["k", "l"],
            [OreGenerator("Sk", OreKind.SHIFT, "k"),
             OreGenerator("Sl", OreKind.SHIFT, "l")])
        Sk, Sl = alg.gen("Sk"), alg.gen("Sl")
        l = alg.var("l")
        f = Sk * Sl - (l + 1) * Sl - alg.one
        rng = random.Random(5)
        for _ in range(10):
            g = alg.zero
            for _ in range(3):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                g = g + OrePoly(alg, {e: rand_ratfunc(alg.field, rng)})
            g = OrePoly(alg, {e: c for e, c in g.terms.items() if not c.is_zero()})
            if g.is_zero():
                continue
            prod = f * g
            assert prod.total_degree() == f.total_degree() + g.total_degree()
            fmax = max(f.terms, key=lambda e: (sum(e), e))
            gmax = max(g.terms, key=lambda e: (sum(e), e))
            # for the graded-lex tiebreak the leading exponents are additive
            pmax = max(prod.terms, key=lambda e: (sum(e), e))
            assert pmax == tuple(x + y for x, y in zip(fmax, gmax))

    def test_action_composition(self):
        # independent oracle: operators act on rational functions, and
        # multiplication must agree with composition of actions
        for kind, _ in ALL_KINDS:
            alg = make_algebra(kind)
            rng = random.Random(len(kind))
            g = alg.gen(alg.gens[0].name)
            x = alg.var(alg.gens[0].var)
            f1 = g * g - x * g + alg.one
            f2 = x * g + alg.scalar(2)
            pole = 2 if kind == "divdiff" else None
            for _ in range(5):
                r = rand_ratfunc(alg.field, rng, avoid_pole_at=pole)
                via_product = (f1 * f2).apply_to_ratfunc(r)
                via_composition = f1.apply_to_ratfunc(f2.apply_to_ratfunc(r))
                assert via_product == via_composition

    def test_algebra_mismatch(self):
        a1 = shift_algebra_nk()
        a2 = diff_algebra()
        with pytest.raises(AlgebraMismatch):
            a1.gen("Sn") * a2.gen("D")


class TestTelescopableWitness:
    def test_difference(self):
        alg = OreAlgebra(["t"], [OreGenerator("Dt", OreKind.DIFFERENCE, "t")])
        a, b = telescopable_witness(alg, "Dt")
        assert a == RatFunc.from_poly(alg.field.var("t"))
        assert b.is_one()

    def test_differentiation(self):
        alg = OreAlgebra(["t"], [OreGenerator("D", OreKind.DIFFERENTIATION, "t")])
        a, b = telescopable_witness(alg, "D")
        assert b.is_one()

    def test_shift_absent(self):
        alg = OreAlgebra(["t"], [OreGenerator("S", OreKind.SHIFT, "t")])
        assert telescopable_witness(alg, "S") is None

    def test_qdiff_witness(self):
        alg = make_algebra("qdiff")
        a, b = telescopable_witness(alg, "Q")
        assert b.is_one()

    def test_witness_identity(self):
        # sigma(a)*d = d*a - b as operators, with b = -delta(a) sign folded:
        # check the witness identity  sigma(a)*d = b' + d*a  for some scalar b'
        alg = OreAlgebra(["t"], [OreGenerator("Dt", OreKind.DIFFERENCE, "t")])
        a, b = telescopable_witness(alg, "Dt")
        d = alg.gen("Dt")
        lhs = alg.scalar(alg.sigma(0, a)) * d
        rhs = d * alg.scalar(a)
        residue = lhs - rhs
        assert set(residue.terms) == {(0,)}
        assert not residue.terms[(0,)].is_zero()


class TestShiftDifferenceTransport:
    def test_simple(self):
        alg = OreAlgebra(["k"], [OreGenerator("Sk", OreKind.SHIFT, "k")])
        Sk = alg.gen("Sk")
        f = Sk - alg.one
        g = shift_to_difference(f, ["Sk"])
        assert [x.kind for x in g.algebra.gens] == [OreKind.DIFFERENCE]
        assert set(g.terms) == {(1,)}
        assert g.terms[(1,)].is_one()

    def test_constants_fixed(self):
        alg = shift_algebra_nk()
        c = alg.scalar(RatFunc.from_poly(alg.field.var("n") + 3))
        g = shift_to_difference(c, ["Sn", "Sk"])
        assert set(g.terms) == {(0, 0)}

    def test_round_trip_and_expansion(self):
        alg = OreAlgebra(
            ["k", "l"],
            [OreGenerator("Sk", OreKind.SHIFT, "k"),
             OreGenerator("Sl", OreKind.SHIFT, "l")])
        Sk, Sl = alg.gen("Sk"), alg.gen("Sl")
        l = alg.var("l")
        f = Sk * Sl - (l + 1) * Sl - alg.one
        g = shift_to_difference(f, ["Sk", "Sl"])
        # independent expansion: (Dk+1)(Dl+1) - (l+1)(Dl+1) - 1, collected
        dalg = g.algebra
        Dk, Dl = dalg.gen("Sk"), dalg.gen("Sl")
        ld = dalg.var("l")
        expect = (Dk + 1) * (Dl + 1) - (ld + 1) * (Dl + 1) - dalg.one
        assert g == expect
        back = difference_to_shift(g, ["Sk", "Sl"])
        assert back == f

    def test_kind_mismatch(self):
        alg = diff_algebra()
        with pytest.raises(KindMismatch):
            shift_to_difference(alg.gen("D"), ["D"])


class TestMixedAlgebra:
    def test_difference_differential_product(self):
        alg = OreAlgebra(
            ["x", "n"],
            [OreGenerator("D", OreKind.DIFFERENTIATION, "x"),
             OreGenerator("Sn", OreKind.SHIFT, "n")])
        D, Sn = alg.gen("D"), alg.gen("Sn")
        x, n = alg.var("x"), alg.var("n")
        f = (D * Sn) * (x * n)
        g = D * (Sn * (x * n))
        assert f == g

    def test_same_var_pair_rejected_when_noncommuting(self):
        with pytest.raises(AlgebraMismatch):
            OreAlgebra(
                ["x"],
                [OreGenerator("D", OreKind.DIFFERENTIATION, "x"),
                 OreGenerator("T", OreKind.EULER, "x")])
