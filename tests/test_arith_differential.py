"""RatFunc arithmetic and factored lcms checked against independent oracles:
sympy's `cancel` for the four field operations, the normalising
constructor for the canonical pair, and `poly_lcm` or the plain product
for `factored_merge`."""
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from orecalc.arith import (  # noqa: E402
    MPoly,
    PolyRing,
    RatFunc,
    factored_expand,
    factored_merge,
    poly_gcd,
    poly_lcm,
)

R = PolyRing(["n", "k"])
n, k = R.var("n"), R.var("k")
SN, SK = sympy.symbols("n k")

# a small pool of shifted linear factors, so that drawn denominators share
# factors often and are coprime often
FACTORS = [k + i for i in range(-1, 3)] + [n + 1, n - k, n - k + 1, n + k + 2]

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=60)


def _prod(fs):
    return reduce(lambda p, q: p * q, fs, R.one)


def to_sympy(p: MPoly):
    return sum((sympy.Rational(c.numerator, c.denominator) * SN ** e[0] * SK ** e[1]
                for e, c in p.terms.items()), sympy.Integer(0))


def assert_canonical(r: RatFunc, expected):
    """r is the pair the normalising constructor builds, and equals the
    sympy expression `expected` as a reduced fraction with monic (grevlex)
    denominator."""
    again = RatFunc(r.num, r.den)
    assert (again.num.terms, again.den.terms) == (r.num.terms, r.den.terms)
    p, q = sympy.fraction(sympy.cancel(sympy.together(expected)))
    if p == 0:
        assert r.num.is_zero() and r.den.is_one()
        return
    lc = sympy.Poly(q, SN, SK).LC(order="grevlex")
    assert sympy.Poly(to_sympy(r.num), SN, SK) == sympy.Poly(p / lc, SN, SK)
    assert sympy.Poly(to_sympy(r.den), SN, SK) == sympy.Poly(q / lc, SN, SK)


def as_sympy(r: RatFunc):
    return to_sympy(r.num) / to_sympy(r.den)


indices = st.lists(st.integers(0, len(FACTORS) - 1), max_size=3)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def ratfuncs(draw):
    """(c1*P1 + c2*P2)/D with P1, P2, D products of pool factors; D may be
    empty (a polynomial operand) and c2 may be zero."""
    c1 = draw(coeffs.filter(bool))
    c2 = draw(coeffs)
    p1 = _prod(FACTORS[i] for i in draw(indices))
    p2 = _prod(FACTORS[i] for i in draw(indices))
    den = _prod(FACTORS[i] for i in draw(indices))
    num = p1 * c1 + p2 * c2
    return RatFunc(num, den)


def check_ops(x, y):
    sx, sy = as_sympy(x), as_sympy(y)
    assert_canonical(x + y, sx + sy)
    assert_canonical(x - y, sx - sy)
    assert_canonical(x * y, sx * sy)
    if not y.is_zero():
        assert_canonical(x / y, sx / sy)
    # cancellation against a shared denominator, and a zero sum
    assert_canonical((x + y) - y, sx)
    assert (x - x).is_zero() and (x - x).den.is_one()


@SETTINGS
@hypothesis.given(ratfuncs(), ratfuncs())
def test_field_operations_match_sympy(x, y):
    check_ops(x, y)


# one pair per branch of RatFunc.__add__, with the condition that puts the
# pair there checked alongside
ONE = R.one
BRANCHES = {
    "coprime-dens": (RatFunc(n, k * (k + 1)), RatFunc(ONE, n - k),
                     lambda b, d: poly_gcd(b, d).is_one()),
    "shared-no-cancel": (RatFunc(ONE, k * (k + 1)), RatFunc(ONE, k * (k + 2)),
                         lambda b, d: not poly_gcd(b, d).is_one()),
    # 1/(k(k+1)) - 2/(k(k+2)) = -1/((k+1)(k+2)): the shared k cancels
    "shared-cancel": (RatFunc(ONE, k * (k + 1)), RatFunc(ONE * -2, k * (k + 2)),
                      lambda b, d: not poly_gcd(b, d).is_one()),
    # 1/(k(k+1)) + (k-1)/(k(k+1)) = 1/(k+1)
    "equal-dens-cancel": (RatFunc(ONE, k * (k + 1)), RatFunc(k - 1, k * (k + 1)),
                          lambda b, d: b == d),
    "polynomial-left": (RatFunc(n + 1, ONE), RatFunc(n, k + 1),
                        lambda b, d: b.is_one()),
    "polynomial-right": (RatFunc(n, (k + 1) * (n - k)), RatFunc(k * k, ONE),
                         lambda b, d: d.is_one()),
    "zero-sum": (RatFunc(n, k * (k + 1)), RatFunc(-n, k * (k + 1)),
                 lambda b, d: b == d),
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_each_add_branch_matches_sympy(name):
    x, y, reaches = BRANCHES[name]
    assert reaches(x.den, y.den)
    check_ops(x, y)


def test_shared_cancel_branch_cancels():
    x, y, _ = BRANCHES["shared-cancel"]
    s = x + y
    assert (s.num, s.den) == (-ONE, (k + 1) * (k + 2))


def test_inverse_is_monic_and_reduced():
    x = RatFunc(n * 3 + 6, k * (k - 1) * Fraction(1, 2))
    assert_canonical(x.inverse(), 1 / as_sympy(x))
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(R).inverse()
    with pytest.raises(ZeroDivisionError):
        x / RatFunc.zero(R)


def _check_merged(A, qs, combine):
    """A's keys are monic, non-constant and pairwise coprime, and A expands
    to the lcm (combine max) or the product (combine add) of qs."""
    keys = list(A)
    for i, f in enumerate(keys):
        assert f == f.monic() and not f.is_constant()
        for g in keys[i + 1:]:
            assert poly_gcd(f, g).is_one()
    fold = poly_lcm if combine is max else (lambda a, b: (a * b).monic())
    assert factored_expand(A, R) == reduce(fold, qs, R.one).monic()


MERGES = {
    # every q is a product of keys already present: trial division only
    "trial-division": [k * (k + 1), k + 1, (k + 1) ** 2 * k, k],
    # a composite key that trial division cannot split: refinement runs
    "composite-key": [(k + 1) * (k + 2), (k + 1) * (k + 3), k + 2],
    "new-coprime-factor": [k + 1, n - k, (n - k) * (k + 1) ** 3],
    "mixed": [(k + 1) * (n + 1), (n + 1) ** 2, (k + 1) * (k + 2) * (n + 1), k + 2],
}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("combine", [max, add], ids=["max", "add"])
@pytest.mark.parametrize("name", sorted(MERGES))
def test_factored_merge_matches_lcm_and_product(name, combine, m):
    qs = MERGES[name]
    A = {}
    for q in qs:
        factored_merge(A, q * Fraction(-3, 2), m, combine)
    _check_merged(A, [q ** m for q in qs], combine)


def test_composite_key_is_split_by_refinement():
    A = {((k + 1) * (k + 2)).monic(): 1}
    factored_merge(A, (k + 1) * (k + 3), 1, max)
    assert A == {k + 1: 1, k + 2: 1, k + 3: 1}


@SETTINGS
@hypothesis.given(st.lists(st.lists(st.integers(0, len(FACTORS) - 1), min_size=1,
                                    max_size=4), min_size=1, max_size=5),
                  st.booleans(), st.integers(1, 2))
def test_factored_merge_random(factor_lists, use_max, m):
    qs = [_prod(FACTORS[i] for i in fs) for fs in factor_lists]
    combine = max if use_max else add
    A = {}
    for q in qs:
        factored_merge(A, q, m, combine)
    _check_merged(A, [q ** m for q in qs], combine)
