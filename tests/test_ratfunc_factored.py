"""RatFunc with factored denominators against an expanded-fraction
reference.

Each operand is a random product of shifted linear and quadratic factors,
built either factor by factor (a factored denominator) or expanded and
passed through `RatFunc.__init__` (one unfactored factor).  The reference
computes every operation on expanded numerators and denominators and
normalises with one `poly_gcd`; the factored result must print, compare
and hash the same, expand to the same monic denominator and take the same
exact value at rational points."""
from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from orecalc.arith import PolyRing, RatFunc, exact_div, poly_gcd  # noqa: E402

R = PolyRing(["n", "k"])
n, k = R.var("n"), R.var("k")

# shifted linear factors, one with leading coefficient 2, and quadratics
FACTORS = ([k + i for i in range(-1, 3)] + [n - k + i for i in range(2)]
           + [2 * k + 1, n * k + 1, n * k + n + 1, k * k + k + 1])
POINTS = [(Fraction(1, 3), Fraction(2, 7)), (5, Fraction(-3, 2)), (-4, 11)]
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=30)


def _prod(fs):
    return reduce(lambda p, q: p * q, fs, R.one)


@st.composite
def fractions(draw):
    """(RatFunc, reference pair): the numerator a constant times a product
    of factors, the denominator a product built factor by factor or passed
    expanded through the constructor."""
    indices = st.lists(st.integers(0, len(FACTORS) - 1), max_size=4)
    num = _prod(FACTORS[i] for i in draw(indices)) * draw(st.sampled_from([1, -2, Fraction(3, 5)]))
    dens = [FACTORS[i] for i in draw(indices)]
    if draw(st.booleans()):
        x = reduce(lambda r, f: r / RatFunc.from_poly(f), dens, RatFunc.from_poly(num))
    else:
        x = RatFunc(num, _prod(dens))
    return x, _reduced(num, _prod(dens))


def _reduced(a, b):
    """The canonical pair of a/b: coprime, the denominator monic."""
    if a.is_zero():
        return R.zero, R.one
    g = poly_gcd(a, b)
    a, b = exact_div(a, g), exact_div(b, g)
    lc = b.leading_coeff()
    return a * Fraction(1, lc), b * Fraction(1, lc)


def _check(x, pair):
    num, den = pair
    ref = RatFunc(num, den)
    assert (x.num, x.den) == (num, den)
    assert x.den == den.monic()
    assert str(x) == str(ref)
    assert x == ref and hash(x) == hash(ref)
    for point in POINTS:
        d = den.eval_point(point)
        if d:
            assert x.eval_point(point) == Fraction(num.eval_point(point), d)


@SETTINGS
@hypothesis.given(fractions(), fractions())
def test_field_operations_match_the_expanded_reference(xa, yb):
    (x, (a, b)), (y, (c, d)) = xa, yb
    _check(x, (a, b))
    _check(x + y, _reduced(a * d + c * b, b * d))
    _check(x - y, _reduced(a * d - c * b, b * d))
    _check(x * y, _reduced(a * c, b * d))
    if not y.is_zero():
        _check(x / y, _reduced(a * d, b * c))


@SETTINGS
@hypothesis.given(fractions(), st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                  st.integers(0, 1))
def test_shifts_and_derivatives_match_the_expanded_reference(xa, offset, i):
    x, (a, b) = xa
    _check(x.shift_var(i, offset), _reduced(a.shift_var(i, offset), b.shift_var(i, offset)))
    _check(x.derivative(i),
           _reduced(a.derivative(i) * b - a * b.derivative(i), b * b))


def test_unfactored_denominators_that_share_a_factor_are_refined():
    # (k+1)(k+2) and (k+2)(k+3) enter expanded, each as one factor; the
    # operations split them into k+1, k+2 and k+3
    x = RatFunc(R.one, (k + 1) * (k + 2))
    y = RatFunc(k, (k + 2) * (k + 3))
    for z, pair in ((x + y, _reduced((k + 3) + k * (k + 1), (k + 1) * (k + 2) * (k + 3))),
                    (x * y, _reduced(k, (k + 1) * (k + 2) ** 2 * (k + 3))),
                    (x / y, _reduced(k + 3, k * (k + 1)))):
        _check(z, pair)
        assert all(f.total_degree() == 1 for f in z.fac)
    assert sorted(str(f) for f in (x * y).fac) == ["k + 1", "k + 2", "k + 3"]
