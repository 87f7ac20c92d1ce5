import io

import pytest

from orecalc.arith import RatFunc, divides, poly_lcm
from orecalc.cli import parse, run
from orecalc.errors import BadWindow, NotDifferenceDifferential, NotZeroDimensional
from orecalc import growth
from orecalc.groebner import LeftIdeal
from orecalc.growth import (
    growth_probe,
    growth_zero_dimensional,
    uniform_reduction_data,
)
from orecalc.ore import OreAlgebra, OreGenerator, OreKind, shift_to_difference

from corpus_objects import (
    algebra_nk,
    binomial_ideal,
    double_stirling_ideal,
    nonproper_ideal,
    stirling_ideal,
)


class TestUniformReduction:
    def test_binomial_clearing_data(self):
        alg = algebra_nk()
        I = binomial_ideal(alg)
        ur = uniform_reduction_data(I, ["k"])
        # staircase is {1}; denominators of NF(Sn), NF(Sk) are the leading
        # coefficients (n+1-k) and (k+1) up to normalization
        assert ur.staircase == ((0, 0),)
        K = alg.field
        n, k = K.var("n"), K.var("k")
        expect = poly_lcm((n + 1 - k), (k + 1))
        assert ur.L == expect
        assert ur.m <= 1

    def test_differential_sqrt_like(self):
        alg = OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])
        K = alg.field
        x = K.var("x")
        I = LeftIdeal(alg, [alg.gen("D").scale(RatFunc.from_poly(x * x + 1))
                            - alg.scalar(RatFunc.from_poly(x))])
        ur = uniform_reduction_data(I, ["x"])
        assert ur.staircase == ((0,),)
        assert ur.L == (x * x + 1).monic()

    def test_trivial_constants(self):
        alg = algebra_nk()
        I = LeftIdeal(alg, [alg.gen("Sn") - alg.one, alg.gen("Sk") - alg.one])
        ur = uniform_reduction_data(I, ["k"])
        assert ur.L.is_one()
        assert ur.m == 0

    def test_requires_zero_dimensional(self):
        with pytest.raises(NotZeroDimensional):
            uniform_reduction_data(stirling_ideal(), ["k"])

    def test_rejects_non_difference_differential(self):
        alg = OreAlgebra(["x"], [OreGenerator("M", OreKind.MAHLER, "x", mahler_base=2)])
        I = LeftIdeal(alg, [alg.gen("M") - alg.one])
        with pytest.raises(NotDifferenceDifferential):
            uniform_reduction_data(I, ["x"])


class TestGrowthExact:
    def test_binomial_linear_growth(self):
        I = binomial_ideal()
        cert = growth_zero_dimensional(I, ["k"], window=10)
        assert cert.p == 1
        assert not cert.degenerate
        # divisibility chain P_s | P_{s+1}
        for a, b in zip(cert.polys, cert.polys[1:]):
            assert divides(a, b)
        # degrees nondecreasing
        assert all(x <= y for x, y in zip(cert.degrees, cert.degrees[1:]))

    def test_clearing_polynomials_are_expanded_on_first_read(self, monkeypatch):
        calls = []
        expand = growth.factored_expand
        monkeypatch.setattr(growth, "factored_expand",
                            lambda A, ring: calls.append(A) or expand(A, ring))
        cert = growth_zero_dimensional(binomial_ideal(), ["k"], window=8)
        assert calls == []
        assert len(cert.polys) == 9 and cert.polys[0].is_one()
        assert len(calls) == 9 and cert.polys is cert.polys and len(calls) == 9

    def test_works_through_difference_form(self):
        # the same ideal expressed with difference operators (Prop. 1 route)
        alg = algebra_nk()
        I = binomial_ideal(alg)
        gens_diff = [shift_to_difference(g, ["Sn", "Sk"]) for g in I.generators]
        J = LeftIdeal(gens_diff[0].algebra, gens_diff)
        cert = growth_zero_dimensional(J, ["k"], window=10)
        assert cert.p == 1

    def test_purely_differential_L_power(self):
        alg = OreAlgebra(["x"], [OreGenerator("D", OreKind.DIFFERENTIATION, "x")])
        K = alg.field
        x = K.var("x")
        I = LeftIdeal(alg, [alg.gen("D").scale(RatFunc.from_poly(x * x + 1))
                            - alg.scalar(RatFunc.from_poly(x))])
        cert = growth_zero_dimensional(I, ["x"], window=8)
        assert cert.method == "HolonomicLPower"
        assert cert.p == 1
        L = (x * x + 1).monic()
        # P_s = L^s
        for s, P in enumerate(cert.polys):
            assert P == (L ** s).monic()

    def test_degenerate_flagged(self):
        alg = OreAlgebra(["x"], [OreGenerator("S", OreKind.SHIFT, "x")])
        I = LeftIdeal(alg, [alg.gen("S") - alg.one])
        cert = growth_zero_dimensional(I, ["x"], window=8)
        assert cert.p == 0
        assert cert.degenerate


class TestGrowthProbe:
    def test_double_stirling_probe_linear(self):
        I = double_stirling_ideal()
        cert = growth_probe(I, ["k"], window=8)
        assert cert.p == 1
        assert cert.heuristic

    def test_nonproper_probe_quadratic(self):
        I = nonproper_ideal()
        cert = growth_probe(I, ["k"], window=8)
        assert cert.p == 2

    def test_unit_ideal_degenerate(self):
        alg = algebra_nk()
        I = LeftIdeal(alg, [alg.one])
        cert = growth_probe(I, ["k"], window=8)
        assert cert.p == 0
        assert cert.degenerate

    def test_prop1_consistency(self):
        # probe agrees between shift form and difference form
        alg = algebra_nk()
        I = binomial_ideal(alg)
        cert1 = growth_probe(I, ["k"], window=8)
        gens_diff = [shift_to_difference(g, ["Sn", "Sk"]) for g in I.generators]
        J = LeftIdeal(gens_diff[0].algebra, gens_diff)
        cert2 = growth_probe(J, ["k"], window=8)
        assert cert1.p == cert2.p == 1


WINDOW_FILE = """algebra Q(n) <Sn: shift(n)>;
ideal I = [Sn - 1];
growth exact I over n window %d;
growth probe I over n window %d;
"""


class TestWindow:
    @pytest.mark.parametrize("window", [0, 3, 7])
    def test_short_window_is_an_error(self, window):
        status, text = run(parse(WINDOW_FILE % (window, window)), out=io.StringIO())
        assert status == 1
        assert text == "growth: error: window must be at least 8\n" * 2
        I = parse(WINDOW_FILE % (8, 8)).built_ideals["I"]
        for fn in (growth_zero_dimensional, growth_probe):
            with pytest.raises(BadWindow, match="window must be at least 8"):
                fn(I, ["n"], window=window)

    def test_window_8_output_is_unchanged(self):
        # window 8 was also what every shorter window ran as before
        status, text = run(parse(WINDOW_FILE % (8, 8)), out=io.StringIO())
        assert status == 0
        degrees = "degrees [0, 0, 0, 0, 0, 0, 0, 0, 0] (degenerate)"
        assert text == ("growth exact I: p = 0  %s\ngrowth probe I: p = 0  %s\n"
                        % (degrees, degrees))
