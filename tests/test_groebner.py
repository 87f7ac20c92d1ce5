import itertools
import random
from fractions import Fraction

import pytest

from orecalc.arith import RatFunc
from orecalc.dimension import UNIT_IDEAL, hilbert_dimension
from orecalc.errors import AlgebraMismatch
from orecalc.groebner import (
    GREVLEX,
    GRLEX,
    LeftIdeal,
    MonomialOrder,
    is_member,
    same_ideal,
)
from orecalc.ore import OreAlgebra, OreGenerator, OreKind, OrePoly

from corpus_objects import (
    algebra_nk,
    algebra_nmkl,
    binomial_ideal,
    double_stirling_ideal,
    double_stirling_telescoper,
    double_stirling_certificate,
    stirling_ideal,
)


def rand_opoly(alg, rng, max_deg=2, nterms=3):
    out = alg.zero
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in range(alg.ngens))
        if sum(e) > max_deg:
            continue
        coeffs = {}
        for _ in range(2):
            ce = tuple(rng.randint(0, 1) for _ in alg.field.names)
            coeffs[ce] = coeffs.get(ce, Fraction(0)) + rng.randint(-3, 3)
        c = alg.field.from_terms(coeffs)
        if c.is_zero():
            continue
        out = out + OrePoly(alg, {e: RatFunc.from_poly(c)})
    return out


class TestNormalForm:
    def test_members_reduce_to_zero(self):
        I = binomial_ideal()
        gb = I.groebner_basis()
        for g in gb:
            assert gb.normal_form(g).is_zero()

    def test_hypergeometric_shift_quotient(self):
        # NF(Sn*Sk) over ann C(n,k) is the rational shift quotient
        # C(n+1,k+1)/C(n,k) = (n+1)/(k+1)
        alg = algebra_nk()
        I = binomial_ideal(alg)
        gb = I.groebner_basis()
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        nf = gb.normal_form(Sn * Sk)
        K = alg.field
        expect = RatFunc(K.var("n") + 1, K.var("k") + 1)
        assert set(nf.terms) == {(0, 0)}
        assert nf.terms[(0, 0)] == expect

    def test_left_multiple_of_generator(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        gb = I.groebner_basis()
        Sm = alg.gen("Sm")
        g1 = I.generators[0]
        assert gb.normal_form(Sm * Sm * g1).is_zero()

    def test_idempotent_and_degree_bounded(self):
        alg = algebra_nk()
        gb = binomial_ideal(alg).groebner_basis()
        rng = random.Random(2)
        for _ in range(20):
            f = rand_opoly(alg, rng)
            nf = gb.normal_form(f)
            assert gb.normal_form(nf) == nf
            assert nf.total_degree() <= max(f.total_degree(), -1)
            for e in nf.terms:
                assert gb.is_reduced_exp(e)

    def test_additivity(self):
        alg = algebra_nk()
        gb = binomial_ideal(alg).groebner_basis()
        rng = random.Random(3)
        for _ in range(15):
            f, g = rand_opoly(alg, rng), rand_opoly(alg, rng)
            lhs = gb.normal_form(f + g)
            rhs = gb.normal_form(gb.normal_form(f) + gb.normal_form(g))
            assert lhs == rhs

    def test_algebra_mismatch(self):
        alg = algebra_nk()
        gb = binomial_ideal(alg).groebner_basis()
        other = algebra_nmkl()
        with pytest.raises(AlgebraMismatch):
            gb.normal_form(other.gen("Sn"))


class TestBuchberger:
    def test_unit_ideal(self):
        alg = algebra_nk()
        I = LeftIdeal(alg, [alg.one + alg.gen("Sn") - alg.gen("Sn")])
        gb = I.groebner_basis()
        assert len(gb) == 1
        assert gb.elements[0] == alg.one
        assert I.is_unit_ideal()

    def test_coprime_leads_differential_unit_ideal(self):
        # Dy*(Dx + y) - Dx*Dy - y*Dy = 1: the S-pair of two generators with
        # coprime leading exponents does not reduce to zero here
        alg = OreAlgebra(["x", "y"],
                         [OreGenerator("Dx", OreKind.DIFFERENTIATION, "x"),
                          OreGenerator("Dy", OreKind.DIFFERENTIATION, "y")])
        y = alg.scalar(RatFunc.from_poly(alg.field.var("y")))
        I = LeftIdeal(alg, [alg.gen("Dx") + y, alg.gen("Dy")])
        assert I.is_unit_ideal()
        assert hilbert_dimension(I) is UNIT_IDEAL

    def test_coprime_leads_shift_unit_ideal(self):
        # Sk*(Sn - k) - Sn*(Sk - 1) = Sn - (k + 1)*Sk = -1 modulo the ideal
        alg = algebra_nk()
        k = alg.scalar(RatFunc.from_poly(alg.field.var("k")))
        I = LeftIdeal(alg, [alg.gen("Sn") - k, alg.gen("Sk") - alg.one])
        assert I.is_unit_ideal()
        assert is_member(alg.one, I)

    def test_binomial_ideal_already_gb(self):
        # the two monic-normalized generators form a reduced GB: all
        # S-pairs reduce to zero (independent check through normal_form)
        alg = algebra_nk()
        I = binomial_ideal(alg)
        gb = I.groebner_basis()
        assert len(gb) == 2
        assert set(gb.leads) == {(1, 0), (0, 1)}
        elems = list(gb.elements)
        for f, g in itertools.combinations(elems, 2):
            ef, eg = gb.order.leading_exp(f), gb.order.leading_exp(g)
            lcm = tuple(max(a, b) for a, b in zip(ef, eg))
            s = f.lmul_monomial(tuple(a - b for a, b in zip(lcm, ef))) \
                - g.lmul_monomial(tuple(a - b for a, b in zip(lcm, eg)))
            assert gb.normal_form(s).is_zero()

    def test_double_stirling_ideal_gb(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        gb = I.groebner_basis()
        assert len(gb) == 3
        # staircase complement contains a 2-dimensional coordinate subspace
        supports = [frozenset(i for i, d in enumerate(e) if d) for e in gb.leads]
        found = False
        for pair in itertools.combinations(range(4), 2):
            if not any(s <= set(pair) for s in supports):
                found = True
        assert found
        # every S-pair reduces to zero
        for f, g in itertools.combinations(gb.elements, 2):
            ef, eg = gb.order.leading_exp(f), gb.order.leading_exp(g)
            lcm = tuple(max(a, b) for a, b in zip(ef, eg))
            s = f.lmul_monomial(tuple(a - b for a, b in zip(lcm, ef))) \
                - g.lmul_monomial(tuple(a - b for a, b in zip(lcm, eg)))
            assert gb.normal_form(s).is_zero()

    def test_canonicity_generator_order(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        gb1 = I.groebner_basis()
        for perm in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
            J = LeftIdeal(alg, [I.generators[i] for i in perm])
            gb2 = J.groebner_basis()
            assert gb1.elements == gb2.elements

    def test_canonicity_across_graded_orders_dimensions(self):
        # different graded orders give different bases of the same ideal
        alg = algebra_nk()
        I = binomial_ideal(alg)
        g1 = I.groebner_basis(GREVLEX)
        g2 = I.groebner_basis(GRLEX)
        J1 = LeftIdeal(alg, list(g1.elements))
        J2 = LeftIdeal(alg, list(g2.elements))
        assert same_ideal(J1, J2)

    def test_permuted_order(self):
        alg = algebra_nk()
        order = MonomialOrder("grevlex", perm=(1, 0))
        gb = binomial_ideal(alg).groebner_basis(order)
        assert set(gb.leads) == {(1, 0), (0, 1)}

    def test_constant_coefficient_shifts_against_sympy(self):
        # a shift algebra with constant coefficients is commutative, so its
        # reduced left basis is the commutative reduced basis, which
        # sympy.groebner computes on its own; the unit ideal comes back as 1
        sympy = pytest.importorskip("sympy")
        units = 0
        for seed in range(12):
            rng = random.Random(seed)
            names = "nmk"[:rng.randint(2, 3)]
            alg = OreAlgebra(list(names), [OreGenerator("S" + v, OreKind.SHIFT, v)
                                           for v in names])
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(2, 4)):
                    e = tuple(rng.randint(0, 2) for _ in names)
                    if sum(e) <= 2:
                        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
                gens.append({e: c for e, c in terms.items() if c})
            gb = LeftIdeal(alg, [OrePoly(alg, {e: RatFunc.const(alg.field, c)
                                               for e, c in g.items()})
                                 for g in gens]).groebner_basis(GREVLEX)
            mine = sorted(sorted((e, c.num.leading_coeff()) for e, c in g.terms.items())
                          for g in gb.elements)
            S = sympy.symbols(["S" + v for v in names])
            G = sympy.groebner([sum(c * sympy.Mul(*(x ** d for x, d in zip(S, e)))
                                    for e, c in g.items()) for g in gens if g],
                               *S, order="grevlex", domain="QQ")
            theirs = sorted(sorted((e, Fraction(int(c.p), int(c.q)))
                                   for e, c in sympy.Poly(f, *S).terms())
                            for f in G.exprs)
            assert mine == theirs
            units += mine == [[((0,) * len(names), 1)]]
        assert 0 < units < 12


class TestMembership:
    def test_generators(self):
        I = double_stirling_ideal()
        for g in I.generators:
            assert is_member(g, I)

    def test_one_in_unit_ideal(self):
        alg = algebra_nk()
        I = LeftIdeal(alg, [alg.scalar(5)])
        assert is_member(alg.one, I)

    def test_telescoper_combination_in_ideal(self):
        # A + (Sk - 1)*B lies in the double-Stirling ideal
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        A = double_stirling_telescoper(alg)
        B = double_stirling_certificate(alg)
        Sk = alg.gen("Sk")
        q = A + (Sk - alg.one) * B
        assert is_member(q, I)

    def test_random_left_multiples(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        rng = random.Random(11)
        for _ in range(8):
            h = rand_opoly(alg, rng, max_deg=2, nterms=2)
            f = I.generators[rng.randrange(3)]
            assert is_member(h * f, I)

    def test_non_member(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        assert not is_member(alg.gen("Sn"), I)


class TestStaircase:
    def test_reduced_monomials_binomial(self):
        gb = binomial_ideal().groebner_basis()
        assert gb.reduced_monomials(5) == [(0, 0)]

    def test_reduced_monomials_stirling(self):
        gb = stirling_ideal().groebner_basis()
        mons = gb.reduced_monomials(3)
        # staircase corner SkSl: complement = pure powers of each shift
        assert set(mons) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)}

    def test_phi_table_consistency(self):
        # phi must agree with direct normal_form on monomials
        alg = algebra_nmkl()
        gb = double_stirling_ideal(alg).groebner_basis()
        rng = random.Random(4)
        for _ in range(12):
            e = tuple(rng.randint(0, 2) for _ in range(4))
            direct = gb.normal_form(OrePoly(alg, {e: RatFunc.one(alg.field)}))
            via_phi = gb.phi(e)
            assert dict(direct.terms) == via_phi

    def test_phi_in_the_unit_ideal(self):
        # every monomial, d^0 = 1 included, has normal form zero
        alg = algebra_nk()
        k = alg.scalar(RatFunc.from_poly(alg.field.var("k")))
        gb = LeftIdeal(alg, [alg.gen("Sn") - k, alg.gen("Sk") - alg.one]).groebner_basis()
        for e in [(0, 0), (1, 0), (0, 1), (2, 1)]:
            assert gb.phi(e) == {}
