"""The packed polynomial kernel against a reference on exponent tuples.

`MPoly` keys each term by one int holding the monomial's exponents in
fixed-width fields (see "packed monomials" in `arith`).  Here each
operation is compared with a plain implementation over {exponent tuple:
coefficient} dicts, on rings of 1 to 6 variables, with exponents up to the
field width; and the degree guard is pinned, from the kernel and from the
problem-file parser."""
import io
import math
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from orecalc.arith import MAX_DEGREE, MPoly, PolyRing, exact_div, format_poly  # noqa: E402
from orecalc.cli import main  # noqa: E402
from orecalc.errors import DegreeOverflow  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=150)
NAMES = ("a", "b", "c", "d", "e", "f")
COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=5)).filter(bool)


@st.composite
def exponents(draw, n, budget=MAX_DEGREE, small=None):
    """An exponent tuple of total degree at most budget; each part small or
    up to what is left, so that fields near the width come up often; the
    part of variable `small` at most 4."""
    parts, left = [], budget
    for i in draw(st.permutations(range(n))):
        top = min(left, 4) if i == small else left
        d = draw(st.one_of(st.integers(0, min(top, 3)), st.integers(0, top)))
        parts.append((i, d))
        left -= d
    return tuple(d for _, d in sorted(parts))


@st.composite
def polys(draw, n, budget=MAX_DEGREE, small=None, max_terms=4):
    """{exponent tuple: coefficient}, possibly empty; half the time the
    terms are moves of one exponent's degree between variables, so that
    the order within one total degree decides."""
    if not draw(st.booleans()):
        return draw(st.dictionaries(exponents(n, budget, small), COEFFS, max_size=max_terms))
    out = {}
    e = list(draw(exponents(n, budget, small)))
    for _ in range(draw(st.integers(0, max_terms))):
        out[tuple(e)] = draw(COEFFS)
        i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        d = min(draw(st.integers(0, e[i])), 4 - e[j] if j == small else e[i])
        e[i] -= d
        e[j] += d
    return out


def grevlex(e):
    return (sum(e),) + tuple(-d for d in reversed(e))


def add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def degree(f):
    return max((sum(e) for e in f), default=-1)


def shift(f, i, offset):
    out = {}
    for e, c in f.items():
        for j in range(e[i] + 1):
            ne = e[:i] + (j,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * math.comb(e[i], j) * offset ** (e[i] - j)
    return {e: c for e, c in out.items() if c}


def derivative(f, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.items() if e[i]}


def evaluate(f, point):
    return sum(c * math.prod(x ** d for x, d in zip(point, e)) for e, c in f.items())


def text(names, f):
    if not f:
        return "0"
    bits = []
    for e in sorted(f, key=grevlex, reverse=True):
        c = Fraction(f[e])
        mono = "*".join(names[i] if d == 1 else "%s^%d" % (names[i], d)
                        for i, d in enumerate(e) if d)
        cs = str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
        bits.append(mono if mono and c == 1 else "-" + mono if mono and c == -1
                    else cs + "*" + mono if mono else cs)
    return bits[0] + "".join(" - " + b[1:] if b.startswith("-") else " + " + b
                             for b in bits[1:])


@st.composite
def rings(draw):
    n = draw(st.integers(1, 6))
    return n, PolyRing(NAMES[:n])


class TestAgainstTuples:
    @hypothesis.settings(SETTINGS)
    @hypothesis.given(st.data())
    def test_products_sums_and_readers(self, data):
        n, R = data.draw(rings())
        f, g = data.draw(polys(n)), data.draw(polys(n))
        F, G = R.from_terms(f), R.from_terms(g)
        assert F.to_terms() == f and G.to_terms() == g
        assert (F + G).to_terms() == add(f, g)
        assert (F - G).to_terms() == add(f, {e: -c for e, c in g.items()})
        assert F.total_degree() == degree(f)
        assert format_poly(F) == text(R.names, f)
        if f:
            top = max(f, key=grevlex)
            assert F.leading() == (R.from_terms({top: 1}).leading()[0], f[top])
            assert F.variables() == {i for e in f for i, d in enumerate(e) if d}
            assert [F.degree_in([i]) for i in range(n)] == [
                max(e[i] for e in f) for i in range(n)]
        if f and g and degree(f) + degree(g) > MAX_DEGREE:
            with pytest.raises(DegreeOverflow):
                F * G
        else:
            assert (F * G).to_terms() == mul(f, g)

    @hypothesis.settings(SETTINGS)
    @hypothesis.given(st.data())
    def test_exact_division(self, data):
        n, R = data.draw(rings())
        g = data.draw(polys(n, MAX_DEGREE // 2).filter(bool))
        q = data.draw(polys(n, MAX_DEGREE - degree(g)))
        f = mul(q, g)
        F, G = R.from_terms(f), R.from_terms(g)
        assert exact_div(F, G).to_terms() == q
        if degree(g) > 0:
            # a remainder of lower degree than g: g divides f + r only if r = 0
            r = data.draw(polys(n, degree(g) - 1, max_terms=2).filter(bool))
            with pytest.raises(ValueError):
                exact_div(R.from_terms(add(f, r)), G)

    @hypothesis.settings(SETTINGS)
    @hypothesis.given(st.data())
    def test_monomial_divisibility_is_per_variable(self, data):
        # the guard bits decide divisibility field by field, also where a
        # field of the divisor is the larger by a borrow's worth
        n, R = data.draw(rings())
        u, v = data.draw(exponents(n)), data.draw(exponents(n))
        U, V = R.from_terms({u: 1}), R.from_terms({v: 1})
        if all(map(operator.ge, u, v)):
            assert exact_div(U, V).to_terms() == {tuple(map(operator.sub, u, v)): 1}
        else:
            with pytest.raises(ValueError):
                exact_div(U, V)

    @hypothesis.settings(SETTINGS)
    @hypothesis.given(st.data())
    def test_substitutions_and_evaluation(self, data):
        n, R = data.draw(rings())
        i = data.draw(st.integers(0, n - 1))
        f = data.draw(polys(n, small=i))
        F = R.from_terms(f)
        offset = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)))
        assert F.shift_var(i, offset).to_terms() == shift(f, i, offset)
        assert F.derivative(i).to_terms() == derivative(f, i)
        point = data.draw(st.lists(st.one_of(st.integers(-2, 2), st.just(Fraction(1, 2))),
                                   min_size=n, max_size=n))
        assert F.eval_point(point) == evaluate(f, point)


RATIONALS = st.fractions(-4, 4, max_denominator=7).filter(lambda c: c.denominator > 1)


def fraction_product(f, g):
    """The product term by term, every coefficient a Fraction."""
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


@st.composite
def rational_polys(draw, n, R):
    """(terms, MPoly): a nonzero polynomial with at least one coefficient
    that is not integral, its integral ones stored as ints or, through the
    raw constructor, as integral Fractions."""
    f = draw(polys(n))
    f[draw(exponents(n))] = draw(RATIONALS)
    P = R.from_terms(f)
    return P.to_terms(), MPoly(R, {k: Fraction(c) if draw(st.booleans()) else c
                                   for k, c in P.terms.items()})


class TestRationalProducts:
    """Operands with Fraction coefficients are multiplied as integer
    polynomials over their common denominators."""

    @hypothesis.settings(SETTINGS)
    @hypothesis.given(st.data())
    def test_the_product_is_the_fraction_product(self, data):
        n, R = data.draw(rings())
        f, F = data.draw(rational_polys(n, R))
        g = data.draw(polys(n))
        G = data.draw(st.sampled_from([R.from_terms(g), None]))
        if G is None:
            g, G = data.draw(rational_polys(n, R))
        if g and degree(f) + degree(g) > MAX_DEGREE:
            with pytest.raises(DegreeOverflow):
                F * G
            return
        product = F * G
        assert product.to_terms() == fraction_product(f, g)
        if G.is_one():  # the operand itself, integral Fractions and all
            assert product is F
        else:
            assert all(type(c) is int or c.denominator > 1
                       for c in product.terms.values())

    def test_a_rational_product_past_the_width_raises(self):
        R = PolyRing(["x"])
        half = R.from_terms({(MAX_DEGREE // 2 + 1,): Fraction(1, 2)})
        with pytest.raises(DegreeOverflow):
            half * half
        rest = R.from_terms({(MAX_DEGREE - MAX_DEGREE // 2 - 1,): 4})
        assert (half * rest).to_terms() == {(MAX_DEGREE,): 2}


class TestDegreeGuard:
    def test_a_product_past_the_width_raises(self):
        R = PolyRing(["x", "y"])
        x, y = R.var("x"), R.var("y")
        top = R.from_terms({(MAX_DEGREE // 2, 0): 1})
        assert (top * (top * x)).to_terms() == {(MAX_DEGREE, 0): 1}
        for a, b in ((top * x, top * y), (top * x, top * x)):
            with pytest.raises(DegreeOverflow):
                a * b
        with pytest.raises(DegreeOverflow):
            R.from_terms({(MAX_DEGREE, 1): 1})

    @pytest.mark.parametrize("expr, col", [
        ("n^%d" % (MAX_DEGREE + 1), 14),
        ("n^20000*n^20000", 19),
        ("(n^200)^200", 19),
    ])
    def test_a_parsed_degree_past_the_width_is_a_parse_error(self, expr, col,
                                                            monkeypatch, capsys):
        text = "algebra Q(n) <Sn: shift(n)>;\nideal I = [%s*Sn - 1];\ndim I;\n" % expr
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: 2:%d: " % col)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_the_largest_degree_parses(self, monkeypatch, capsys):
        text = "algebra Q(n) <Sn: shift(n)>;\nideal I = [n^%d*Sn - 1];\ndim I;\n" % MAX_DEGREE
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "-"]) == 0
        assert capsys.readouterr().out == "dim I = 0\n"
