"""The arithmetic checked against independent oracles: sympy's `cancel`
for the four RatFunc field operations, the normalising constructor for
the canonical pair, `poly_lcm` or the plain product for `factored_merge`,
`sympy.Poly.cofactors` for `poly_gcd` and `poly_cofactors`, and
`sympy.Matrix.nullspace` for `nullspace_selected`."""
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from orecalc import arith  # noqa: E402
from orecalc.arith import (  # noqa: E402
    MPoly,
    PolyRing,
    RatFunc,
    factored_expand,
    factored_merge,
    nullspace_selected,
    poly_cofactors,
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
    gens = sympy.symbols(p.ring.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x ** d for x, d in zip(gens, e)))
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


# -- poly_gcd and poly_cofactors against sympy.Poly.cofactors ----------------------

R3 = PolyRing(["n", "k", "m"])
n3, k3, m3 = R3.var("n"), R3.var("k"), R3.var("m")
SYMS3 = sympy.symbols(R3.names)
SHIFTED = [n3 - k3 + i for i in range(3)] + [k3 + i for i in range(1, 3)] + \
    [n3 + m3 + 1, k3 + m3, m3 - 2]


def to_sympy_poly(p: MPoly):
    return sympy.Poly(to_sympy(p), *SYMS3, domain="QQ")


def check_cofactors(a, b):
    """poly_gcd and poly_cofactors agree with each other and with sympy, g
    is monic and g*(a/g) == a, g*(b/g) == b."""
    g, qa, qb = poly_cofactors(a, b)
    assert poly_gcd(a, b) == g
    assert g.leading_coeff() == 1
    assert g * qa == a and g * qb == b
    h, cff, cfg = to_sympy_poly(a).cofactors(to_sympy_poly(b))
    lc = h.LC(order="grevlex")
    assert to_sympy_poly(g) == h.quo_ground(lc)
    assert to_sympy_poly(qa) == cff.mul_ground(lc)
    assert to_sympy_poly(qb) == cfg.mul_ground(lc)
    return g


@st.composite
def polys3(draw, coeff=st.integers(-5, 5), max_terms=3, max_exp=2):
    """A nonzero polynomial in n, k, m with few terms of low degree."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * 3), coeff.filter(bool),
        min_size=1, max_size=max_terms))
    return MPoly(R3, {e: Fraction(c) for e, c in terms.items()})


wide = st.integers(2 ** 107, 2 ** 130) | st.integers(-2 ** 130, -2 ** 107)


@SETTINGS
@hypothesis.given(polys3(wide), polys3(), polys3())
def test_gcd_with_coefficients_wider_than_the_primes(g, q1, q2):
    check_cofactors(g * q1, g * q2)


shifted = st.lists(st.integers(0, len(SHIFTED) - 1), min_size=1, max_size=4)


@SETTINGS
@hypothesis.given(shifted, shifted, coeffs.filter(bool), coeffs.filter(bool))
def test_gcd_of_shifted_linear_products(ia, ib, ca, cb):
    a = reduce(lambda p, i: p * SHIFTED[i], ia, R3.one) * ca
    b = reduce(lambda p, i: p * SHIFTED[i], ib, R3.one) * cb
    check_cofactors(a, b)


nk_polys = polys3().map(lambda p: MPoly(R3, {(e[0], e[1], 0): c for e, c in p.terms.items()}))


@SETTINGS
@hypothesis.given(nk_polys, nk_polys, nk_polys)
def test_gcd_free_of_a_shared_variable(g, s1, s2):
    # m + s1 and m + s2 are irreducible, and coprime when s1 != s2, so
    # the gcd is g, without the m both operands contain
    hypothesis.assume(s1 != s2)
    a, b = g * (m3 + s1), g * (m3 + s2)
    assert check_cofactors(a, b) == g.monic()


@SETTINGS
@hypothesis.given(st.lists(st.integers(0, len(SHIFTED) - 1), max_size=2),
                  polys3(), polys3())
def test_gcd_where_a_leading_coefficient_vanishes_at_the_image_point(ig, q1, q2):
    # lc_k((n - x0)*k + 1) = n - x0 vanishes at the image point, so the
    # image bounds give way to the interpolating gcd
    x0 = arith._image_point(R3.nvars)[0]
    g = reduce(lambda p, i: p * SHIFTED[i], ig, k3 + 1)
    a = g * ((n3 - x0) * k3 + 1) * q1
    b = g * q2
    assert arith._image_bounds(a.primitive(), b.primitive()) is None
    check_cofactors(a, b)


# -- nullspace_selected against sympy.Matrix.nullspace ------------------------------


def _dot(row, vec):
    return reduce(add, (x * v.num for x, v in zip(row, vec)), R.zero)


def check_kernel(rows, ncols):
    """nullspace_selected's vectors are independent, solve every row, and
    are as many as sympy's nullspace over Q(n, k) has."""
    kernel = nullspace_selected(rows, ncols, R)
    expected = sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).nullspace(
        iszerofunc=lambda x: sympy.cancel(x) == 0)
    assert len(kernel) == len(expected)
    for vec in kernel:
        assert all(_dot(row, vec).is_zero() for row in rows)
    if kernel:
        assert sympy.Matrix([[as_sympy(x) for x in vec] for vec in kernel]).rank(
            iszerofunc=lambda x: sympy.cancel(x) == 0) == len(kernel)
    return kernel


small = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-3, 3)),
                 max_size=2).map(lambda ts: reduce(
                     add, (R.monomial((a, b), c) for a, b, c in ts), R.zero))


@st.composite
def planted(draw):
    """(rows, ncols): every row is orthogonal to d planted vectors e_j +
    (polynomials on the last ncols - d columns), j < d."""
    ncols = draw(st.integers(2, 4))
    d = draw(st.integers(0, ncols - 1))
    free = range(d, ncols)
    plants = [{f: draw(small) for f in free} for _ in range(d)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [R.zero] * ncols
        for f in free:
            row[f] = draw(small)
        for j, c in enumerate(plants):
            row[j] = -reduce(add, (row[f] * c[f] for f in free), R.zero)
        rows.append(row)
    return rows, ncols


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(planted())
def test_nullspace_selected_on_planted_kernels(case):
    check_kernel(*case)


def test_nullspace_selected_skips_a_row_the_prime_divides():
    # the only row has a coefficient denominator p: the selection leaves it
    # out, and the exact verification pulls it back in
    p = arith._IMAGE_PRIME
    rows = [[n * Fraction(1, p), k + 1]]
    assert arith._row_basis_mod_p(rows, 2, arith._image_point(2), p) == []
    assert len(check_kernel(rows, 2)) == 1


def _count_solves(monkeypatch):
    solves = []
    real = arith.nullspace_poly
    monkeypatch.setattr(arith, "nullspace_poly",
                        lambda *args: solves.append(args) or real(*args))
    return solves


def test_nullspace_selected_pulls_in_a_row_the_image_loses(monkeypatch):
    # the first row vanishes at the image point, so the selection has rank
    # 1 where the generic rank is 2, and a verifying round adds the row
    x0 = arith._image_point(R.nvars)[0]
    rows = [[n - x0, (n - x0) * k, R.zero], [R.zero, R.zero, R.one]]
    solves = _count_solves(monkeypatch)
    (vec,) = check_kernel(rows, 3)
    assert len(solves) == 2
    assert [x.num for x in vec] == [k, -R.one, R.zero]


def test_nullspace_selected_of_a_full_rank_matrix_is_empty(monkeypatch):
    # the mod-p rank alone proves it: no exact solve runs
    rows = [[n, k, R.one], [R.one, n + k, R.zero], [k, R.zero, n - 1]]
    solves = _count_solves(monkeypatch)
    assert check_kernel(rows, 3) == []
    assert solves == []
