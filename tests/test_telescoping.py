import math
import os
import random
from fractions import Fraction

import pytest

from orecalc import arith, groebner, telescoping
from orecalc.arith import (
    PolyRing,
    RatFunc,
    _t_expanded_rows,
    _t_free_kernel,
    nullspace_selected,
)
from orecalc.cli import parse
from orecalc.closure import closure_product
from orecalc.dimension import UNIT_IDEAL, hilbert_dimension
from orecalc.errors import MultipleTelescopingVars, NoTelescopableVariable
from orecalc.groebner import GREVLEX, GRLEX, LeftIdeal, is_member
from orecalc.growth import growth_probe, growth_zero_dimensional
from orecalc.modp import exponents_up_to
from orecalc.ore import (
    OreKind,
    OrePoly,
    coefficient_rows,
    difference_to_shift,
    format_opoly,
    shift_to_difference,
)
from orecalc.telescoping import (
    extract_telescoper,
    fasenmyer_search,
    restrict_to_x,
    telescoping_bound,
    zeilberger_search,
)
from orecalc.verify import Builtin, DefiniteSum, LinExpr, apply_operator_numeric

from corpus_objects import (
    abel_ideal,
    algebra_nk,
    algebra_nmkl,
    binomial_ideal,
    double_stirling_ideal,
    double_stirling_telescoper,
    double_stirling_certificate,
    nonproper_ideal,
    stirling_ideal,
)


def lin(const=0, **kw):
    return LinExpr.of(const, **kw)


def _monic_like(f, order=None):
    from orecalc.groebner import GREVLEX
    order = order or GREVLEX
    lead = order.leading_exp(f)
    return f.scale(f.terms[lead].inverse())


class TestBound:
    def test_proper_hypergeometric(self):
        bound, nontrivial = telescoping_bound(0, 1, 1, 2)
        assert bound == 0 and nontrivial

    def test_nonproper_trivial_bound(self):
        bound, nontrivial = telescoping_bound(0, 2, 1, 1)
        assert bound == 1 and not nontrivial

    def test_abel_type(self):
        bound, nontrivial = telescoping_bound(2, 1, 1, 4)
        assert bound == 2 and nontrivial


class TestExtract:
    def test_split_of_kfree_combination(self):
        # the k-free combination A + (Sk - 1)((m+1)SmSl - SmSnSl + Sl)
        # splits into the telescoper A and its certificate
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        A = double_stirling_telescoper(alg)
        m = alg.var("m")
        Sn, Sm, Sl, Sk = (alg.gen(g) for g in ("Sn", "Sm", "Sl", "Sk"))
        B8 = (m + 1) * Sm * Sl - Sm * Sn * Sl + Sl
        Q = A + (Sk - alg.one) * B8
        Qd = shift_to_difference(Q, ["Sk"])
        gens = [shift_to_difference(g, ["Sk"]) for g in I.generators]
        Id = LeftIdeal(Qd.algebra, gens)
        res = extract_telescoper(Qd, Id, ["Sk"])
        assert res.membership_checked
        assert _monic_like(res.telescoper) == _monic_like(
            shift_to_difference(A, ["Sk"]))
        assert _monic_like(res.certificates["Sk"]) == _monic_like(
            shift_to_difference(B8, ["Sk"]))

    def test_shift_ideal_gives_the_same_split(self):
        # the difference-form Q against I itself, in shift form
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        A = double_stirling_telescoper(alg)
        m = alg.var("m")
        Sn, Sm, Sl, Sk = (alg.gen(g) for g in ("Sn", "Sm", "Sl", "Sk"))
        Q = A + (Sk - alg.one) * ((m + 1) * Sm * Sl - Sm * Sn * Sl + Sl)
        Qd = shift_to_difference(Q, ["Sk"])
        Id = LeftIdeal(Qd.algebra, [shift_to_difference(g, ["Sk"])
                                    for g in I.generators])
        got, want = (extract_telescoper(Qd, J, ["Sk"]) for J in (I, Id))
        assert got == want and got.membership_checked

    def test_pure_delta_multiple_recovery(self):
        # Q = Dt in <Dt>: remainder zero, one witness multiplication
        # recovers a constant telescoper
        from orecalc.ore import OreAlgebra, OreGenerator
        alg = OreAlgebra(["t"], [OreGenerator("Dt", OreKind.DIFFERENCE, "t")])
        I = LeftIdeal(alg, [alg.gen("Dt")])
        res = extract_telescoper(alg.gen("Dt"), I, ["Dt"])
        assert res.membership_checked
        assert res.telescoper.total_degree() == 0
        assert not res.telescoper.is_zero()

    def test_already_free(self):
        from orecalc.ore import OreAlgebra, OreGenerator
        alg = OreAlgebra(["n", "k"],
                         [OreGenerator("Sn", OreKind.SHIFT, "n"),
                          OreGenerator("Dk", OreKind.DIFFERENCE, "k")])
        f = alg.gen("Sn") - alg.scalar(2)
        I = LeftIdeal(alg, [f, alg.gen("Dk")])
        res = extract_telescoper(f, I, ["Dk"])
        assert res.telescoper == f
        assert all(c.is_zero() for c in res.certificates.values())
        assert res.membership_checked


class TestDeepDegeneracy:
    """Kernel elements whose direct split and one witness multiplication
    both leave no telescoper raise `NoTelescopableVariable`, and the
    search skips them."""

    def test_search_skips_deep_vectors(self, monkeypatch):
        alg = algebra_nk()
        Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
        I = LeftIdeal(alg, [(Sk - alg.one) ** 2, Sn - alg.one])
        skipped = []
        extract = telescoping.extract_telescoper

        def recorded(*args, **kwargs):
            try:
                return extract(*args, **kwargs)
            except NoTelescopableVariable:
                skipped.append(kwargs["degree"])
                raise

        monkeypatch.setattr(telescoping, "extract_telescoper", recorded)
        out = fasenmyer_search(I, ["Sk"], max_degree=3, collect_all=True)
        # the kernels have dimension > 1, so the count depends on the basis,
        # whose vectors each end at their own free column, where the others
        # are 0: one deep vector at degree 2 and two at degree 3
        assert skipped == [2, 3, 3]
        assert [str(r.telescoper) for r in out.results] == [
            "-Sn + 1", "-Sn^2 + 1", "-Sn^3 + 1"]
        assert all(r.membership_checked for r in out.results)

    def test_extract_without_certificate_raises(self):
        from orecalc.ore import OreAlgebra, OreGenerator
        alg = OreAlgebra(["n", "k"],
                         [OreGenerator("Dn", OreKind.DIFFERENCE, "n"),
                          OreGenerator("Dk", OreKind.DIFFERENCE, "k")])
        Dk = alg.gen("Dk")
        I = LeftIdeal(alg, [Dk ** 2, alg.gen("Dn")])
        with pytest.raises(NoTelescopableVariable):
            extract_telescoper(Dk ** 2, I, ["Dk"])


class TestFasenmyer:
    def test_binomial_row_sum(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        out = fasenmyer_search(I, ["Sk"], max_degree=2)
        assert out.results
        res = out.results[0]
        assert res.membership_checked
        A = restrict_to_x(res.telescoper, ["Sk"])
        xalg = A.algebra
        expect = xalg.gen("Sn") - xalg.scalar(2)
        assert _monic_like(A) == _monic_like(expect)
        # numeric: A annihilates the row sums 2^n
        s = DefiniteSum("k", Builtin("binomial", (lin(n=1), lin(k=1))))
        for n in range(0, 20):
            val = 1 * s.eval({"n": n + 1}) - 2 * s.eval({"n": n})
            assert val == 0

    def test_double_stirling_reproduction(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        out = fasenmyer_search(I, ["Sk"], max_degree=4, target_dim=2)
        assert out.results
        found_deg = min(r.degree for r in out.results)
        assert found_deg == 4
        target = shift_to_difference(double_stirling_telescoper(alg), ["Sk"])
        keys = {frozenset(_monic_like(r.telescoper).terms.items())
                for r in out.results}
        assert frozenset(_monic_like(target).terms.items()) in keys
        for r in out.results:
            assert r.membership_checked

    def test_unit_ideal_trivial(self):
        alg = algebra_nk()
        I = LeftIdeal(alg, [alg.one])
        out = fasenmyer_search(I, ["Sk"], max_degree=3)
        assert out.trivial
        assert out.results[0].telescoper.total_degree() == 0

    def test_negative_control_nonproper(self, monkeypatch):
        # every degree is proven full rank mod p: no exact solve runs
        def exact_solve(*args):
            raise AssertionError("the exact solve ran")

        monkeypatch.setattr(arith, "nullspace_selected", exact_solve)
        I = nonproper_ideal()
        out = fasenmyer_search(I, ["Sk"], max_degree=6)
        assert out.results == []
        assert out.budget_exhausted

    def test_flagship_solves_need_no_elimination(self, monkeypatch):
        # both t-free solves of the double-Stirling ideal have corank 1 at
        # the image point, and their kernels are rebuilt from point solves
        # mod p: a silent fall back to elimination fails here
        def eliminate(*args):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(arith, "nullspace_poly", eliminate)
        I = double_stirling_ideal(algebra_nmkl())
        res, _ = zeilberger_search(I, "Sk", degA=3, degB=2)
        assert res is not None and res.membership_checked
        out = fasenmyer_search(I, ["Sk"], max_degree=4, target_dim=2)
        assert out.results and all(r.membership_checked for r in out.results)


class TestZeilberger:
    def test_binomial_zeilberger(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        res, system = zeilberger_search(I, "Sk", degA=1, degB=0)
        assert res is not None
        assert res.membership_checked
        A = restrict_to_x(res.telescoper, ["Sk"])
        xalg = A.algebra
        assert _monic_like(A) == _monic_like(xalg.gen("Sn") - xalg.scalar(2))

    def test_low_degree_no_solution(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        res, system = zeilberger_search(I, "Sk", degA=2, degB=1)
        assert res is None
        assert system.square_shape == (5, 14)

    def test_no_solution_proved_before_the_exact_solve(self, monkeypatch):
        def exact_solve(*args):
            raise AssertionError("the exact solve ran")

        monkeypatch.setattr(arith, "nullspace_selected", exact_solve)
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        res, system = zeilberger_search(I, "Sk", degA=2, degB=1)
        assert res is None
        assert system.square_shape == (5, 14)

    def test_double_stirling_solution(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        res, system = zeilberger_search(I, "Sk", degA=3, degB=2)
        # 29 columns: the certificate's
        # own monomial Sm*Sl must be present even though its d_t-multiple
        # is reducible
        assert system.square_shape == (14, 29)
        assert res is not None and res.membership_checked
        target_A = shift_to_difference(double_stirling_telescoper(alg), ["Sk"])
        got_A = res.telescoper
        assert _monic_like(got_A) == _monic_like(target_A)
        # certificate matches after scaling A to the reference normalization
        target_B = shift_to_difference(double_stirling_certificate(alg), ["Sk"])
        lead = max(got_A.terms, key=sum)
        scale = target_A.terms[max(target_A.terms, key=sum)] / got_A.terms[lead]
        got_B = res.certificates["Sk"].scale(scale)
        assert got_B == target_B

    @pytest.mark.parametrize("degB", [2, 3])
    def test_double_stirling_one_degree_up(self, monkeypatch, degB):
        # A of degree 4: the kernels have dimension > 1, each basis vector
        # ends at its own free column, and the search keeps the smallest
        # telescoper among them, the same at both B degrees; no elimination
        def eliminate(*args):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(arith, "nullspace_poly", eliminate)
        I = double_stirling_ideal(algebra_nmkl())
        res, _ = zeilberger_search(I, "Sk", degA=4, degB=degB)
        assert res is not None and res.membership_checked
        assert str(res.telescoper) == "Sn*Sm*Sl + (-m - l - 2)*Sm*Sl - Sm - Sl"

    def test_normalized_pair_loses_the_integer_content(self):
        # A over its content 2, and the certificate over the same factor
        alg = algebra_nk()
        n, Sn, Sk = alg.var("n"), alg.gen("Sn"), alg.gen("Sk")
        A, B = telescoping._normalize_pair(2 * n * Sn + 4, 3 * Sk, GREVLEX)
        assert A == n * Sn + 2
        assert B == Fraction(3, 2) * Sk
        A, B = telescoping._normalize_pair(-2 * n * Sn - 4, 3 * Sk, GREVLEX)
        assert A == n * Sn + 2
        assert B == Fraction(-3, 2) * Sk

    def test_unit_ideal(self):
        # every column is zero, so the first A-monomial, 1, is a telescoper
        alg = algebra_nk()
        k = alg.scalar(RatFunc.from_poly(alg.field.var("k")))
        I = LeftIdeal(alg, [alg.gen("Sn") - k, alg.gen("Sk") - alg.one])
        res, system = zeilberger_search(I, "Sk", degA=1, degB=1)
        assert system.square_shape == (0, 2)
        assert res.telescoper == res.telescoper.algebra.one
        assert res.membership_checked

    def test_multiple_vars_rejected(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        with pytest.raises(MultipleTelescopingVars):
            zeilberger_search(I, ["Sk", "Sl"], degA=2, degB=1)


class TestAgreement:
    def test_fasenmyer_zeilberger_same_ideal_member(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        fa = fasenmyer_search(I, ["Sk"], max_degree=4, target_dim=2)
        ze, _ = zeilberger_search(I, "Sk", degA=3, degB=2)
        assert fa.results and ze is not None
        xs = [restrict_to_x(r.telescoper, ["Sk"]) for r in fa.results]
        T = LeftIdeal(xs[0].algebra, xs)
        assert is_member(restrict_to_x(ze.telescoper, ["Sk"]), T)

    def test_dimension_bound_on_telescopers(self):
        alg = algebra_nmkl()
        I = double_stirling_ideal(alg)
        out = fasenmyer_search(I, ["Sk"], max_degree=4, target_dim=2)
        xs = [restrict_to_x(r.telescoper, ["Sk"]) for r in out.results]
        T = LeftIdeal(xs[0].algebra, xs)
        d = hilbert_dimension(T)
        bound, _ = telescoping_bound(2, 1, 1, 3)
        assert d is UNIT_IDEAL or d <= bound



# -- the integration side: telescoping over a differential generator -------------

INTEGRALS = parse("""algebra Q(n, x) <Sn: shift(n), Dx: diff(x)>;
ideal G = [Sn + x*Dx - n, x*Dx^2 + (x - n + 1)*Dx];
ideal L = [x*Dx*Sn - 1];
""").built_ideals


def _factorial_images(A, points=range(11)):
    """A applied to n!, at n = 0..10."""
    n_factorial = Builtin("factorial", (lin(n=1),))
    return [value for _, value, _ in
            apply_operator_numeric(A, n_factorial, [{"n": n} for n in points])]


class TestIntegrationSide:
    """G annihilates the incomplete Gamma function Gamma(n, x), and
    L = [x*Dx*Sn - 1] the polylogarithm Li_n(x); both integrate over x."""

    def test_incomplete_gamma_is_zero_dimensional_with_growth_one(self):
        G = INTEGRALS["G"]
        assert hilbert_dimension(G) == 0
        assert growth_zero_dimensional(G, ["x"]).p == 1
        assert telescoping_bound(0, 1, 1, 1) == (0, True)

    def test_fasenmyer_gives_the_boundary_term_of_the_integral(self):
        # (n - Sn) + Dx*(-Sn) is in G; integrating over 0..oo leaves the
        # boundary term -Gamma(n + 1, x) at x = 0, that is -n!
        G = INTEGRALS["G"]
        out = fasenmyer_search(G, ["Dx"], max_degree=2)
        (res,) = out.results
        assert format_opoly(res.telescoper) == "-Sn + n"
        assert format_opoly(res.certificates["Dx"]) == "-Sn"
        assert res.membership_checked and is_member(res.witness(), G)
        A = restrict_to_x(res.telescoper, ["Dx"])
        assert [g.name for g in A.algebra.gens] == ["Sn"]
        assert _factorial_images(A) == [-math.factorial(n) for n in range(11)]

    def test_zeilberger_annihilates_the_integral_n_factorial(self):
        # the certificate's boundary term x*Gamma(n, x) vanishes at 0 and
        # at oo, so Sn - n - 1 annihilates n! = int_0^oo Gamma(n, x) dx
        G = INTEGRALS["G"]
        res, _ = zeilberger_search(G, "Dx", degA=2, degB=1)
        assert format_opoly(res.telescoper) == "Sn - n - 1"
        assert format_opoly(res.certificates["Dx"]) == "x"
        assert res.membership_checked and is_member(res.witness(), G)
        assert _factorial_images(restrict_to_x(res.telescoper, ["Dx"])) == [0] * 11

    def test_polylogarithm_is_not_holonomic_and_has_no_low_telescoper(self):
        L = INTEGRALS["L"]
        assert hilbert_dimension(L) == 1
        assert growth_probe(L, ["x"], window=8).p == 1
        assert telescoping_bound(1, 1, 1, 1) == (1, False)
        out = fasenmyer_search(L, ["Dx"], max_degree=3)
        assert out.results == [] and out.budget_exhausted


# -- the mod-p rank certificate of the Fasenmyer search --------------------------

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
MK = PolyRing(["m", "k"])
MKL = PolyRing(["m", "k", "l"])
T_IDX = (1,)  # k is the telescoping variable


def _proven_full_rank(rows, ncols, ring, t_idx):
    """The t-free proof: the rows reach rank ncols mod p."""
    point = arith._image_point(ring.nvars)
    return len(arith._pivot_rows_mod_p(rows, ncols, point, t_idx)) == ncols


def _rand_poly(rng, ring, variables, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for v in variables:
            e[v] = rng.randint(0, max_deg)
        e = tuple(e)
        terms[e] = terms.get(e, Fraction(0)) + rng.randint(-4, 4)
    return ring.from_terms(terms)


def _rand_entry(rng, ring=MK):
    every = range(ring.nvars)
    num = _rand_poly(rng, ring, every)
    if num.is_zero() or rng.random() < 0.2:
        return RatFunc.zero(ring)
    den = _rand_poly(rng, ring, every, max_deg=1)
    return RatFunc(num, den if not den.is_zero() else ring.one)


class TestRankCertificate:
    def test_planted_t_free_kernel_is_never_full_rank(self):
        rng = random.Random(0xC3)
        for _ in range(60):
            ncols = rng.randint(2, 4)
            j = rng.randrange(ncols)
            c = [_rand_poly(rng, MK, (0,)) for _ in range(ncols)]
            while c[j].is_zero():
                c[j] = _rand_poly(rng, MK, (0,))
            rows = []
            for _ in range(rng.randint(1, 5)):
                row = [_rand_entry(rng) for _ in range(ncols)]
                rest = RatFunc.zero(MK)
                for i in range(ncols):
                    if i != j:
                        rest = rest + row[i] * RatFunc.from_poly(c[i])
                row[j] = -rest / RatFunc.from_poly(c[j])
                rows.append(row)
            assert not _proven_full_rank(rows, ncols, MK, T_IDX)
            kernel = _t_free_kernel(rows, ncols, MK, T_IDX)
            assert kernel
            for vec in kernel:
                for row in rows:
                    total = RatFunc.zero(MK)
                    for x, v in zip(row, vec):
                        total = total + x * v
                    assert total.is_zero()

    @pytest.mark.parametrize("ring, t_idx", [(MK, (1,)), (MKL, (1, 2))],
                             ids=["t=k", "t=k,l"])
    def test_agrees_with_the_exact_kernel_on_random_rows(self, ring, t_idx):
        # a proof of full rank means an empty exact kernel; with a word-size
        # prime the certificate also finds every empty kernel of these rows
        rng = random.Random(0xC4)
        proved = 0
        for _ in range(40):
            ncols = rng.randint(1, 3)
            rows = [[_rand_entry(rng, ring) for _ in range(ncols)]
                    for _ in range(rng.randint(1, 3))]
            kernel = nullspace_selected(_t_expanded_rows(rows, ring, t_idx),
                                        ncols, ring)
            full = _proven_full_rank(rows, ncols, ring, t_idx)
            assert full == (kernel == [])
            assert _t_free_kernel(rows, ncols, ring, t_idx) == kernel
            proved += full
        assert 10 <= proved < 40

    def test_prime_dividing_a_coefficient_denominator(self):
        p = arith._IMAGE_PRIME
        assert _proven_full_rank([[RatFunc.const(MK, 3)]], 1, MK, T_IDX)
        assert not _proven_full_rank([[RatFunc.const(MK, Fraction(3, p))]],
                                     1, MK, T_IDX)
        # both rows vanish on (p, 1); the first row's image without its
        # terms over p would be (0, -1), and with (1, 0) prove a false rank 2
        one, over_p = RatFunc.one(MK), RatFunc.const(MK, Fraction(1, p))
        rows = [[over_p, -one], [one, RatFunc.const(MK, -p)]]
        assert not _proven_full_rank(rows, 2, MK, T_IDX)
        (vec,) = _t_free_kernel(rows, 2, MK, T_IDX)
        assert vec == [RatFunc.const(MK, p), one]

    def test_denominator_vanishing_at_every_sample(self, monkeypatch):
        # m^7 - m is 0 mod 7 at every point; m^7 - m + 1 never is
        monkeypatch.setattr(arith, "_IMAGE_PRIME", 7)
        m = MK.var("m")
        assert _proven_full_rank([[RatFunc(MK.one, m ** 7 - m + 1)]],
                                 1, MK, T_IDX)
        assert not _proven_full_rank([[RatFunc(MK.one, m ** 7 - m)]],
                                     1, MK, T_IDX)

    def test_several_t_sampled_off_a_line(self):
        # [1, k, l] has t-expanded rank 3; samples on a line through the
        # point, (k, l) = point + (s, s), would span only rank 2
        k, l = MKL.var("k"), MKL.var("l")
        row = [RatFunc.one(MKL), RatFunc.from_poly(k), RatFunc.from_poly(l)]
        assert _proven_full_rank([row], 3, MKL, (1, 2))

    def test_zero_rows_are_not_full_rank(self):
        assert not _proven_full_rank([[RatFunc.zero(MK)] * 2], 2, MK, T_IDX)


def _pass_images(row, ring, t_idx):
    """The t-expanded images the one pass puts into its echelon for row."""
    point = arith._image_point(ring.nvars)
    xs = [(i, x) for i, x in enumerate(point) if i not in t_idx]
    return arith._cleared_images(row, arith._Images(ring, xs, t_idx, arith._IMAGE_PRIME), {})


def _at_point(f, point):
    p = arith._IMAGE_PRIME
    v = f.eval_point(point)
    return v.numerator * pow(v.denominator, -1, p) % p if type(v) is Fraction else v % p


class TestOnePass:
    @pytest.mark.parametrize("ring, t_idx", [(MK, (1,)), (MKL, (1, 2))],
                             ids=["t=k", "t=k,l"])
    def test_images_are_the_t_expanded_rows_at_the_point(self, ring, t_idx):
        # each inserted vector is the exact t-expanded row with the same
        # label taken at the point, one constant per original row
        rng = random.Random(0xC5)
        point = arith._image_point(ring.nvars)
        compared = 0
        for _ in range(30):
            row = [_rand_entry(rng, ring) for _ in range(rng.randint(1, 4))]
            images = _pass_images(row, ring, t_idx)
            labels = []
            exact = _t_expanded_rows([row], ring, t_idx, labels)
            at_point = {te: {j: v for j, f in enumerate(r)
                             if (v := _at_point(f, point))}
                        for (_, te), r in zip(labels, exact)}
            assert set(images) <= set(at_point)
            assert all(at_point[te] == {} for te in set(at_point) - set(images))
            assert all(images[te].keys() == at_point[te].keys() for te in images)
            scales = {images[te][j] * pow(v, -1, arith._IMAGE_PRIME) % arith._IMAGE_PRIME
                      for te, vec in at_point.items() for j, v in vec.items()}
            assert len(scales) <= 1
            compared += len(images)
        assert compared > 40

    def test_a_term_that_vanishes_at_the_point_is_not_packed(self):
        # (m - x0)*k^2 is zero at the point, so the packing base is 2 and
        # k^2 would land on l's place
        x0 = arith._image_point(MKL.nvars)[0]
        m, k, l = (MKL.var(v) for v in MKL.names)
        for f in ((m - x0) * k ** 2 + l, l + (m - x0) * k ** 2):
            assert _pass_images([RatFunc.from_poly(f)], MKL, (1, 2)) == {l.leading()[0]: {0: 1}}

    def test_a_denominator_with_the_zero_image_skips_its_row(self, monkeypatch):
        # mod 7, m^7 - m is the zero polynomial in k at every point, so its
        # row is skipped and nothing is divided by it; m^7 - m + k is k
        monkeypatch.setattr(arith, "_IMAGE_PRIME", 7)
        divisors = []
        real = arith._univ_divmod
        monkeypatch.setattr(arith, "_univ_divmod",
                            lambda a, b, p: divisors.append(b) or real(a, b, p))
        m, k = MK.var("m"), MK.var("k")
        vanishing = [RatFunc(k, m ** 7 - m), RatFunc(MK.one, k + 1)]
        assert _pass_images(vanishing, MK, T_IDX) == {}
        assert divisors == []
        assert not _proven_full_rank([vanishing], 2, MK, T_IDX)
        assert divisors == []
        kept = [RatFunc(k, m ** 7 - m + k), RatFunc(MK.one, k + 1)]
        assert _pass_images(kept, MK, T_IDX)
        assert divisors and all(any(b) for b in divisors)

    def test_a_prime_dividing_a_coefficient_denominator_skips_its_row(self):
        # the row's exact t-expansion has rows, but none goes into the pass
        p = arith._IMAGE_PRIME
        k = MKL.var("k")
        row = [RatFunc(k * Fraction(1, p) + 1, k + 2), RatFunc.from_poly(MKL.var("l"))]
        assert _pass_images(row, MKL, (1, 2)) == {}
        assert _t_expanded_rows([row], MKL, (1, 2))
        assert _pass_images(row[1:], MKL, (1, 2)) == {MKL.var("l").leading()[0]: {0: 1}}

    def test_the_exact_solve_starts_from_the_pass_selection(self, monkeypatch):
        # _t_free_kernel makes one pass and hands its selection to
        # nullspace_selected, which runs no pass of its own; the last
        # column is -(m + 1) times the first, so no row set is full rank
        rng = random.Random(0xC6)
        passes, handed = [], []
        real_pass, real_solve = arith._pivot_rows_mod_p, arith.nullspace_selected

        def counted(*args):
            passes.append(args)
            return real_pass(*args)

        def solve(rows, ncols, ring, selected=None):
            handed.append(selected)
            return real_solve(rows, ncols, ring, selected)

        monkeypatch.setattr(arith, "_pivot_rows_mod_p", counted)
        monkeypatch.setattr(arith, "nullspace_selected", solve)
        m1 = RatFunc.from_poly(MK.var("m") + 1)
        for _ in range(10):
            ncols = rng.randint(2, 4)
            rows = [[_rand_entry(rng) for _ in range(ncols - 1)]
                    for _ in range(rng.randint(1, 3))]
            rows = [row + [-row[0] * m1] for row in rows]
            del passes[:], handed[:]
            kernel = _t_free_kernel(rows, ncols, MK, T_IDX)
            assert kernel
            assert len(passes) == 1 and len(handed) == 1 and handed[0] is not None


def _stirling_eulerian_ideal():
    with open(os.path.join(CORPUS, "stirling_eulerian.ore")) as fh:
        pf = parse(fh.read())
    ideals = dict(pf.built_ideals)
    for task in pf.tasks:
        if task.kind == "closure":
            d = task.data
            ideals[d["as"]] = closure_product(
                ideals[d["left"]], ideals[d["right"]], d["maxdeg"]).ideal
    return ideals["ANN"]


def _summary(out):
    return (out.budget_exhausted, out.achieved_dim, out.trivial,
            [(r.degree, r.telescoper, r.certificates, r.membership_checked)
             for r in out.results])


@pytest.mark.parametrize("make_ideal, maxdeg, target", [
    (binomial_ideal, 2, None),
    (abel_ideal, 3, 2),
    (_stirling_eulerian_ideal, 4, 1),
], ids=["binomial", "abel", "stirling_eulerian"])
def test_certificate_skips_change_no_result(monkeypatch, make_ideal, maxdeg,
                                            target):
    I = make_ideal()
    answers = []
    real = arith._pivot_rows_mod_p

    def recorded(rows, ncols, point, t_var_idx=(), p=None):
        pivot_rows = real(rows, ncols, point, t_var_idx, p)
        if t_var_idx:
            answers.append(len(pivot_rows) == ncols)
        return pivot_rows

    def never_proven(rows, ncols, point, t_var_idx=(), p=None):
        return [] if t_var_idx else real(rows, ncols, point, t_var_idx, p)

    monkeypatch.setattr(arith, "_pivot_rows_mod_p", recorded)
    with_skips = fasenmyer_search(I, ["Sk"], maxdeg, target_dim=target)
    assert any(answers)  # some degree was skipped
    monkeypatch.setattr(arith, "_pivot_rows_mod_p", never_proven)
    exact_only = fasenmyer_search(I, ["Sk"], maxdeg, target_dim=target)
    assert with_skips.results
    assert _summary(with_skips) == _summary(exact_only)


# -- shift rows against the difference-form rows ----------------------------------


def _rref(vectors):
    """Reduced row echelon form over the rational functions."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def _difference_ideal(I, t_names):
    """I with the shift generators `t_names` rewritten as differences, as a
    new ideal whose basis is computed from scratch."""
    return LeftIdeal(shift_to_difference(I.algebra.one, t_names).algebra,
                     [shift_to_difference(g, t_names) for g in I.generators])


def _assert_same_kernel(I, t_names, deg):
    """The t-free kernels at degree `deg` from the rows of the
    difference-form basis and, after transport, from the rows of I's own
    shift basis span the same space; returns its dimension."""
    work = _difference_ideal(I, t_names)
    alg = work.algebra
    K = alg.field
    _, _, t_var_idx = telescoping._t_data(alg, t_names)
    monomials = exponents_up_to(alg.ngens, deg)
    gb = work.groebner_basis()
    _, rows = coefficient_rows([gb.phi(m) for m in monomials], RatFunc.zero(K))
    old = _t_free_kernel(rows, len(monomials), K, t_var_idx)
    rows = telescoping._fasenmyer_rows(I.groebner_basis(), monomials, K)
    new = [telescoping._to_difference_vector(v, monomials, I.algebra,
                                             t_names, K)
           for v in _t_free_kernel(rows, len(monomials), K, t_var_idx)]
    echelon = _rref(new)
    assert len(echelon) == len(new) == len(old)
    assert _rref(old) == echelon
    return len(new)


def _factorial_shift(ring, lin, s):
    """(L + s)!/L! for the linear form L = lin . vars + const, as a RatFunc."""
    *coeffs, const = lin
    L = ring.const(const)
    for v, a in zip(ring.names, coeffs):
        L = L + ring.var(v) * a
    out = RatFunc.one(ring)
    for j in range(1, s + 1):
        out = out * RatFunc.from_poly(L + j)
    for j in range(s + 1, 1):
        out = out / RatFunc.from_poly(L + j)
    return out


def _random_hypergeometric_ideal(rng):
    """Annihilator of c^k * prod_i (a_i n + b_i k + c_i)!^(+-1): its shift
    quotients, cleared, in Q(n, k)<Sn, Sk>."""
    alg = algebra_nk()
    K = alg.field
    base = RatFunc.const(K, rng.choice([1, 2, -3]))
    q = {"Sn": RatFunc.one(K), "Sk": base}
    for _ in range(rng.randint(1, 3)):
        lin = (rng.randint(0, 2), rng.randint(-1, 2), rng.randint(0, 3))
        up = rng.random() < 0.6
        for gi, g in enumerate(("Sn", "Sk")):
            f = _factorial_shift(K, lin, lin[gi])
            q[g] = q[g] * (f if up else f.inverse())
    return LeftIdeal(alg, [alg.gen(g).scale(RatFunc.from_poly(r.den))
                           - alg.scalar(RatFunc.from_poly(r.num))
                           for g, r in q.items()])


def _random_second_order_ideal(rng):
    """[Sk^2 + r1(k) Sk + r0(k), Sn - c(n)]: a staircase {1, Sk} with
    k-dependent rows and t-free kernels of dimension above 1."""
    alg = algebra_nk()
    K = alg.field
    k, n = K.var("k"), K.var("n")
    Sn, Sk = alg.gen("Sn"), alg.gen("Sk")

    def poly(x):
        return K.const(rng.randint(-3, 3)) + x * rng.randint(-2, 2)

    r1, r0 = poly(k), poly(k)
    while r0.is_zero():
        r0 = poly(k)
    c = poly(n)
    while c.is_zero():
        c = poly(n)
    return LeftIdeal(alg, [Sk * Sk + Sk.scale(RatFunc.from_poly(r1))
                           + alg.scalar(RatFunc.from_poly(r0)),
                           Sn - alg.scalar(RatFunc.from_poly(c))])


class TestShiftRowsMatchDifferenceRows:
    """Fasenmyer takes its rows from the shift basis and transports each
    kernel vector to difference form.  The rows of the difference-form
    basis are the oracle: the two t-free kernels must span the same space
    over Q(x) at every degree."""

    @pytest.mark.parametrize("make", [_random_hypergeometric_ideal,
                                      _random_second_order_ideal],
                             ids=["hypergeometric", "second_order"])
    def test_random_shift_ideals(self, make):
        rng = random.Random(0xD6)
        nonempty = 0
        for _ in range(8):
            I = make(rng)
            if I.is_unit_ideal():
                continue
            for deg in (1, 2, 3):
                nonempty += bool(_assert_same_kernel(I, ["Sk"], deg))
        assert nonempty

    @pytest.mark.parametrize("make, t_name", [
        (binomial_ideal, "Sk"),
        (stirling_ideal, "Sk"),
        (stirling_ideal, "Sl"),
        (nonproper_ideal, "Sk"),
    ], ids=["binomial", "stirling-Sk", "stirling-Sl", "nonproper"])
    def test_corpus_ideals(self, make, t_name):
        I = make()
        for deg in (1, 2, 3):
            _assert_same_kernel(I, [t_name], deg)


# -- one basis per ideal: the transport of bases and normal forms ----------------


def _assert_transport_commutes(I, t_names, order):
    """For T: S = Delta + 1, the difference-form Buchberger basis is T of
    the shift basis, element by element, and NF_Delta(T f) = T(NF_S f) on
    every monomial of degree <= 2, taken from either side."""
    Id = _difference_ideal(I, t_names)
    gb, gbd = I.groebner_basis(order), Id.groebner_basis(order)
    assert [shift_to_difference(g, t_names) for g in gb] == list(gbd)
    one = RatFunc.one(I.algebra.field)
    for e in exponents_up_to(I.algebra.ngens, 2):
        shift_mono = OrePoly(I.algebra, {e: one})
        assert gbd.normal_form(shift_to_difference(shift_mono, t_names)) == \
            shift_to_difference(OrePoly(I.algebra, gb.phi(e)), t_names)
        diff_mono = OrePoly(Id.algebra, {e: one})
        assert gbd.normal_form(diff_mono) == shift_to_difference(
            gb.normal_form(difference_to_shift(diff_mono, t_names)), t_names)


class TestTransportOfBases:
    """Telescoping reads every difference-form normal form off the shift
    basis.  The oracle is a difference-form ideal built here, with its own
    Buchberger run."""

    @pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=["grevlex", "grlex"])
    @pytest.mark.parametrize("make", [_random_hypergeometric_ideal,
                                      _random_second_order_ideal],
                             ids=["hypergeometric", "second_order"])
    def test_random_shift_ideals(self, make, order):
        rng = random.Random(0xD5)
        for _ in range(10):
            _assert_transport_commutes(make(rng), ["Sk"], order)

    @pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=["grevlex", "grlex"])
    @pytest.mark.parametrize("make, t_names", [
        (binomial_ideal, ["Sk"]),
        (stirling_ideal, ["Sk"]),
        (stirling_ideal, ["Sl"]),
        (nonproper_ideal, ["Sk"]),
        (abel_ideal, ["Sk"]),
        (double_stirling_ideal, ["Sk"]),
        (double_stirling_ideal, ["Sk", "Sl"]),
    ], ids=["binomial", "stirling-Sk", "stirling-Sl", "nonproper", "abel",
            "double_stirling-Sk", "double_stirling-Sk,Sl"])
    def test_corpus_ideals(self, make, t_names, order):
        _assert_transport_commutes(make(), t_names, order)


def test_one_basis_per_ideal(monkeypatch):
    """Fasenmyer and then Zeilberger on one ideal run Buchberger once for
    it, and never for a difference form of it.  The only other basis is
    that of Fasenmyer's telescopers in the x-subalgebra, whose dimension
    the search reports."""
    built = []
    real = groebner.buchberger

    def recorded(generators, order=GREVLEX, algebra=None):
        built.append(algebra)
        return real(generators, order, algebra)

    monkeypatch.setattr(groebner, "buchberger", recorded)
    I = binomial_ideal()
    assert fasenmyer_search(I, ["Sk"], 2).results
    res, _ = zeilberger_search(I, "Sk", 1, 0)
    assert res is not None and res.membership_checked
    xalg = telescoping.x_subalgebra(I.algebra, ["Sk"])
    assert [a for a in built if a != xalg] == [I.algebra]
