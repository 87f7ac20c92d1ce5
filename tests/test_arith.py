import math
import os
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from orecalc import arith, modp
from orecalc.arith import (
    MPoly,
    PolyRing,
    RatFunc,
    divides,
    exact_div,
    nullspace,
    poly_cofactors,
    poly_gcd,
    poly_lcm,
    squarefree_part,
)
from orecalc.cli import main
from orecalc.errors import ZeroPolynomial


R2 = PolyRing(["n", "k"])
R3 = PolyRing(["m", "k", "x"])
n, k = R2.var("n"), R2.var("k")


def rand_poly(ring, rng, max_terms=4, max_exp=3, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in ring.names)
        c = Fraction(rng.randint(-max_coeff, max_coeff))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return ring.from_terms(terms)


class TestMPoly:
    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (rand_poly(R2, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_canonical_no_zero_terms(self):
        p = (n + k) - (n + k)
        assert p.is_zero()
        assert p.terms == {}

    def test_shift_var(self):
        x = R2.var("k")
        p = x * x  # k^2
        q = p.shift_var(1, 1)
        assert q == k * k + 2 * k + 1

    def test_eval_var(self):
        p = n * n + k
        v = RatFunc.from_poly(k + 1)
        got = p.eval_var(0, v)  # n -> k+1
        assert got == RatFunc.from_poly((k + 1) * (k + 1) + k)

    def test_eval_point(self):
        p = n * k + 2
        assert p.eval_point([3, 4]) == 14

    def test_constant_factor_scales_and_keeps_keys(self):
        p = n * n + 2 * k
        assert p * R2.one is p and R2.one * p is p and p * 1 is p
        q = p * R2.const(3)
        assert q == 3 * p and (R2.const(3) * p).terms == q.terms
        assert all(a is b for a, b in zip(q.terms, p.terms))
        assert (p * R2.zero).is_zero() and (R2.zero * p).is_zero()
        assert (p * 0).is_zero()


P1 = arith._GCD_PRIMES[0]
H = 2 * n - k + 1
# (f, g, x0, generic direction, the gcd normalised to 1 at x0 or None when
# the point and direction prove nothing)
LINE_GCDS = {
    "coprime": (n, k, (1, 2), (1, 3), R2.one),
    "proper": (H * (n + 1), H * (k + 2), (3, 5), (1, 3), H * Fraction(1, 2)),
    # both top forms vanish at (1, 2): no bound on the degree of the gcd
    "uncertified": (H * (n + 1), H * (k + 2), (3, 5), (1, 2), None),
    # n and k meet on the first line, at s = -1: the gcd rebuilt from the
    # other lines is 1, short of the degree the first line bounds
    "unlucky-first-line": (n, k, (1, 2), (1, 2), None),
    # the gcd n vanishes at x0, where every line is normalised
    "gcd-vanishes-at-the-point": (n * (k + 1), n * (k + 2), (0, 5), (1, 3), None),
}


def _mod_p1(f):
    return {e: c.numerator * pow(c.denominator, -1, P1) % P1 for e, c in f.to_terms().items()}


class TestGcd:
    def test_factor_divides(self):
        # gcd(x^2-1, x-1) = x-1, using k as x
        a = k * k - 1
        b = k - 1
        assert poly_gcd(a, b) == b

    def test_gcd_with_zero(self):
        z = R2.zero
        assert poly_gcd(z, 3 * k) == k

    def test_spec_derived_example(self):
        # gcd((m-2k+1)(mk+1), (mk+1)^2) = mk+1, verified by independent
        # multiplication plus divisibility checks.
        ring = PolyRing(["m", "k"])
        m_, k_ = ring.var("m"), ring.var("k")
        f1 = m_ - 2 * k_ + 1
        f2 = m_ * k_ + 1
        a = f1 * f2
        b = f2 * f2
        g = poly_gcd(a, b)
        assert g == f2
        assert divides(g, a) and divides(g, b)
        assert poly_gcd(exact_div(a, g), exact_div(b, g)).is_one()

    def test_gcd_divides_and_cofactors_coprime_random(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_poly(R2, rng, max_terms=3, max_exp=2)
            b = rand_poly(R2, rng, max_terms=3, max_exp=2)
            c = rand_poly(R2, rng, max_terms=2, max_exp=2)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            f, g = a * c, b * c
            d = poly_gcd(f, g)
            assert divides(d, f) and divides(d, g)
            assert divides(c, d * Fraction(1))  # common factor captured
            assert poly_gcd(exact_div(f, d), exact_div(g, d)).is_one()

    def test_leading_coefficients_divisible_by_every_mersenne_prime(self):
        # P*x + 1 has its leading coefficient divisible by all three fixed
        # primes, and P does not fit any one of them: the gcd comes from
        # the later, larger primes, still checked by trial division
        ring = PolyRing(["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        f = (2 ** 61 - 1) * (2 ** 89 - 1) * (2 ** 107 - 1) * x + 1
        assert poly_gcd(f * (x + y), f * (x - y)) == f.monic()

    def test_cofactors_of_zero_and_constants(self):
        a = 3 * k + 6
        assert poly_cofactors(R2.zero, a) == (k + 2, R2.zero, R2.const(3))
        assert poly_cofactors(a, R2.zero) == (k + 2, R2.const(3), R2.zero)
        assert poly_cofactors(R2.zero, R2.zero) == (R2.zero,) * 3
        g, qa, qb = poly_cofactors(a, R2.const(5))
        assert g.is_one() and qa is a and qb == 5
        assert poly_cofactors(a, a) == (k + 2, R2.const(3), R2.const(3))

    def test_coprime_and_divisor_pairs_skip_interpolation(self, monkeypatch):
        # products of three shifted linear factors, the inputs of the
        # normal-form walks: their image bounds settle the gcd, so the
        # gcd rebuilt along lines mod p is never reached
        calls = []
        real = arith._gcd_mod_p

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arith, "_gcd_mod_p", counted)
        ring = PolyRing(["n", "k", "l", "m"])
        v = [ring.var(x) for x in ring.names]
        pool = [v[0] - v[1] + i for i in range(1, 4)] + \
            [v[1] + v[2] + i for i in range(3)] + \
            [v[0] + v[3] + i for i in range(2)] + [v[2] - v[3] + 1]
        rng = random.Random(0x3F)
        for _ in range(30):
            picks = rng.sample(range(len(pool)), 6)
            a = pool[picks[0]] * pool[picks[1]] * pool[picks[2]]
            b = pool[picks[3]] * pool[picks[4]] * pool[picks[5]]
            assert poly_gcd(a, b * Fraction(-2, 3)).is_one()
            c = a * pool[rng.randrange(len(pool))] * Fraction(5, 7)
            for f, h in ((a, c), (c, a)):
                g, qf, qh = poly_cofactors(f, h)
                assert g == a.monic() and g * qf == f and g * qh == h
        assert calls == []
        # a proper common factor still goes through the rebuild
        assert poly_gcd(pool[0] * pool[3], pool[0] * pool[4]) == pool[0]
        assert calls

    def test_uncertified_first_line_moves_to_the_next_prime(self, monkeypatch):
        # h = 2n - k + 1 divides both operands, and its top form 2n - k
        # vanishes at the direction (1, 2), so both operands lose degree
        # along it and the gcd there, of degree 0, proves nothing: the first
        # prime, forced to that direction, must give way to the next
        p1, p2 = arith._GCD_PRIMES[:2]
        a, b = H * (n + 1), H * (k + 2)
        calls = []
        real = arith._gcd_mod_p

        def forced(f, g, x0, generic, p):
            out = real(f, g, x0, (1, 2) if p == p1 else generic, p)
            calls.append((p, out))
            return out

        monkeypatch.setattr(arith, "_gcd_mod_p", forced)
        g, qa, qb = poly_cofactors(a, b)
        assert g == H.monic() and g * qa == a and g * qb == b
        assert [p for p, _ in calls] == [p1, p2] and calls[0][1] is None

    def test_proper_gcds_of_a_corpus_run_need_one_prime(self, monkeypatch, capsys):
        # every gcd with a proper common factor on the Stirling/Eulerian
        # file (33 of them) is rebuilt at the first prime: a silent fall
        # onto the larger primes, each a second full rebuild, fails here
        primes, proper = [], []
        real_line, real_gcd = arith._gcd_mod_p, arith._modular_gcd

        def line(*args):
            primes.append(args[-1])
            return real_line(*args)

        def gcd(a, b):
            out = real_gcd(a, b)
            if not (out[0].is_one() or out[1].is_one() or out[2].is_one()):
                proper.append(out[0])
            return out

        monkeypatch.setattr(arith, "_gcd_mod_p", line)
        monkeypatch.setattr(arith, "_modular_gcd", gcd)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus",
                            "stirling_eulerian.ore")
        assert main(["run", path, "--format", "json"]) == 0
        capsys.readouterr()
        assert proper
        assert set(primes) == {arith._GCD_PRIMES[0]}

    @pytest.mark.parametrize("case", sorted(LINE_GCDS))
    def test_gcd_along_lines_mod_p(self, case):
        f, g, x0, generic, expected = LINE_GCDS[case]
        assert modp._gcd_mod_p(_mod_p1(f), _mod_p1(g), x0, generic, P1) == (
            None if expected is None else _mod_p1(expected))

    def test_shifted_operand_read_along_a_line(self):
        f = _mod_p1(H * (n + 1) * k)
        x0, y = (3, 5), (1, 7)
        shifted = modp._modp_shift(modp._modp_shift(f, 0, x0[0], P1), 1, x0[1], P1)
        along = modp._along(shifted, 3, y, P1)
        for s in range(5):
            point = [x + s * d for x, d in zip(x0, y)]
            direct = sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in f.items())
            assert modp._univ_eval(along, s, P1) == direct % P1
        assert modp._modp_shift(f, 0, 0, P1) is f

    def test_lcm(self):
        a = (k + 1) * (n - k)
        b = (k + 1) ** 2
        l = poly_lcm(a, b)
        assert divides(a, l) and divides(b, l)
        assert l == ((k + 1) ** 2 * (n - k)).monic()


class TestSquarefree:
    def test_simple(self):
        a = (k + 1) ** 2 * (k - n)
        assert squarefree_part(a, [1]) == ((k + 1) * (k - n)).monic()

    def test_already_squarefree(self):
        assert squarefree_part(k + 1, [1]) == k + 1

    def test_spec_derived_cube(self):
        ring = PolyRing(["k", "m"])
        kk, mm = ring.var("k"), ring.var("m")
        base = (mm + 1) * (kk + 1)
        a = base ** 3
        got = squarefree_part(a, [0, 1])
        assert got == base.monic()
        # independent checks: result divides input, same radical
        assert divides(got, a)
        assert divides(a, got ** 3)
        d = poly_gcd(got, got.derivative(0))
        assert poly_gcd(d, got.derivative(1)).is_one()

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(R2.zero, [0])

    def test_untouched_variable_factor_kept(self):
        a = (n + 1) * (k + 2) ** 2
        assert squarefree_part(a, [0, 1]) == ((n + 1) * (k + 2)).monic()


class TestRatFunc:
    def test_add_to_one(self):
        a = RatFunc(R2.one, k + 1)
        b = RatFunc(k, k + 1)
        assert (a + b).is_one()

    def test_normalization_cancels(self):
        r = RatFunc(k * k - 1, k - 1)
        assert r == RatFunc.from_poly(k + 1)

    def test_self_division(self):
        r = RatFunc(k - n, k + 1)
        assert (r / r).is_one()

    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = RatFunc(rand_poly(R2, rng), rand_poly(R2, rng) + 1 + n)
            b = RatFunc(rand_poly(R2, rng), rand_poly(R2, rng) ** 2 + 1)
            c = RatFunc(rand_poly(R2, rng), R2.one)
            assert (a + b) * c == a * c + b * c
            if not b.is_zero():
                assert (a / b) * b == a

    def test_normalize_idempotent(self):
        r = RatFunc((k + 1) * (n - k) * 2, (k + 1) * (k + 2) * 3)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        assert r.den.leading_coeff() == 1
        assert poly_gcd(r.num, r.den).is_one()

    def test_variables_read_the_factors_unexpanded(self):
        r = RatFunc.from_poly(R2.const(3)) / RatFunc.from_poly(k * (k + 1))
        assert r.variables() == {1}
        assert (r * RatFunc.from_poly(n)).variables() == {0, 1}
        assert r._num is None and r._den is None

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.from_poly(k) / RatFunc.zero(R2)
        with pytest.raises(ZeroDivisionError):
            RatFunc(k, R2.zero)


_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _coeffs,
                         max_size=3).map(R2.from_terms)
_rows = st.lists(_polys, min_size=1, max_size=4).filter(any)
_multipliers = st.builds(RatFunc, _polys.filter(bool), _polys.filter(bool))


def assert_primitive(row):
    """Int coefficients, rational content 1 and entry gcd 1."""
    assert all(type(c) is int for x in row for c in x.terms.values())
    assert arith._rows_rational_content(row) == 1
    g = R2.zero
    for x in row:
        g = poly_gcd(g, x)
    assert g.is_one()


class TestNullspace:
    def test_rank_one_2x2(self):
        one = RatFunc.one(R2)
        kk = RatFunc.from_poly(k)
        two = RatFunc.const(R2, 2)
        m = [[one, kk], [two, two * kk]]
        basis = nullspace(m)
        assert len(basis) == 1
        v = basis[0]
        # (-k, 1) up to scaling
        assert v[0] * RatFunc.one(R2) + v[1] * kk == RatFunc.zero(R2) or \
            v[0] + v[1] * kk == RatFunc.zero(R2)
        for row in m:
            s = row[0] * v[0] + row[1] * v[1]
            assert s.is_zero()

    def test_identity_full_rank(self):
        one = RatFunc.one(R2)
        zero = RatFunc.zero(R2)
        m = [
            [one, zero, zero],
            [zero, one, zero],
            [zero, zero, one],
        ]
        assert nullspace(m) == []

    def test_exactness_random(self):
        # entries shaped like the engine's reduction tables: small numerators
        # over products of near-linear denominators
        rng = random.Random(23)

        def entry():
            num = rand_poly(R2, rng, 2, 1, 5)
            den = (k + rng.randint(1, 4)) * (n - k + rng.randint(1, 3))
            return RatFunc(num, den if rng.random() < 0.7 else R2.one)

        for _ in range(12):
            nr, nc = rng.randint(2, 4), rng.randint(2, 5)
            rows = [[entry() for _ in range(nc)] for _ in range(nr)]
            # plant a dependency: duplicate a column combination
            for r in rows:
                r.append(r[0] + r[-1])
            basis = nullspace(rows)
            assert basis, "planted kernel vector must be found"
            for v in basis:
                for row in rows:
                    s = RatFunc.zero(R2)
                    for x, y in zip(row, v):
                        s = s + x * y
                    assert s.is_zero()

    def test_finalized_vector_does_not_depend_on_scale(self):
        # [2k, 4k] and [2, 4] span one line over Q(n, k): both finalise to
        # [1, 2], the first by its gcd k and then by its content 2
        for scale in (R2.const(2) * k, R2.const(2)):
            vec = [RatFunc.from_poly(scale), RatFunc.from_poly(scale * 2)]
            out = arith._finalize_ratfunc_vector_rat(vec, R2)
            assert [x.num for x in out] == [R2.one, R2.const(2)]
            assert all(x.den.is_one() for x in out)

    def test_vectors_cleared_and_content_reduced(self):
        one = RatFunc.one(R2)
        half = RatFunc.const(R2, Fraction(1, 2))
        m = [[one, half]]
        (v,) = nullspace(m)
        assert all(x.den.is_one() for x in v)
        nums = [x.num for x in v if not x.is_zero()]
        g = nums[0]
        for p in nums[1:]:
            g = poly_gcd(g, p)
        assert g.is_one()

    def test_cleared_row_takes_its_multipliers_from_the_lcm_fold(self):
        # repeated, nested and coprime denominators, a zero and a polynomial:
        # each entry is multiplied by L/d, the quotient exact division gives
        dens = [k * (k + 1), (k + 1) * (n - k), k, (2 * n + 1) * k, R2.one, k * (k + 1)]
        row = [RatFunc(n + i, d) for i, d in enumerate(dens)] + [RatFunc.zero(R2)]
        # the numerators are over the product of the lcm's factors, which is
        # the monic lcm times its leading coefficient
        den = arith.denominator_lcm(row, R2)
        assert den == poly_lcm(poly_lcm(poly_lcm(dens[0], dens[1]), dens[2]), dens[3])
        L, nums = arith._over_lcm(row)
        lc = math.prod(f.leading_coeff() ** m for f, m in L.items())
        assert nums == [x.num * exact_div(den, x.den) * lc for x in row]

    def test_stripped_row_is_over_its_gcd_and_its_content(self):
        # the gcd n + 1 leaves [2, 1/3], and the content 1/3 leaves [6, 1]
        row = [2 * n + 2, (n + 1) * Fraction(1, 3)]
        assert arith._strip_row_content(row, R2) == [R2.const(6), R2.one]

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=40)
    @hypothesis.given(_rows, st.lists(_multipliers, min_size=1, max_size=3))
    def test_primitive_form_is_canonical_on_its_line(self, row, multipliers):
        vec = [RatFunc.from_poly(x) for x in row]
        want = arith._finalize_ratfunc_vector_rat(vec, R2)
        assert_primitive([x.num for x in want])
        assert_primitive(arith._strip_row_content(row, R2))
        for c in multipliers:
            multiple = [c * x for x in vec]
            assert arith._finalize_ratfunc_vector_rat(multiple, R2) == want
            assert_primitive(arith._strip_row_content([c.numer * x for x in row], R2))
