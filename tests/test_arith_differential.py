"""The arithmetic checked against independent oracles: sympy's `cancel`
for the four RatFunc field operations, the normalising constructor for
the canonical pair, `poly_lcm` for `factored_merge`,
`sympy.Poly.cofactors` for `poly_gcd` and `poly_cofactors`,
`sympy.Matrix.nullspace` for `nullspace_selected`, and sympy's own
t-expansion and nullspace over Q(n) for `_prefix_kernels`."""
import itertools
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from orecalc import arith, modp  # noqa: E402
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
                for e, c in p.to_terms().items()), sympy.Integer(0))


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


# Coefficients are ints when integral and Fractions otherwise, but an
# integral Fraction built through the raw constructor is legal too; the
# strategies below feed all three forms to the arithmetic.
FORMS = st.sampled_from(["int", "integral Fraction", "Fraction"])


def coefficient(draw, c):
    """The nonzero int c drawn as itself, as Fraction(c), or as the
    non-integral Fraction (2c + 1)/2."""
    form = draw(FORMS)
    if form == "int":
        return c
    return Fraction(c) if form == "integral Fraction" else Fraction(2 * c + 1, 2)


def mixed(draw, p: MPoly) -> MPoly:
    """p through the raw constructor, each integral coefficient drawn as
    an int or as an integral Fraction."""
    return MPoly(p.ring, {e: Fraction(c) if c.denominator == 1 and draw(st.booleans())
                          else c for e, c in p.terms.items()})


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
    return RatFunc(mixed(draw, num), mixed(draw, den))


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


def _check_merged(A, qs):
    """A's keys are monic, non-constant and pairwise coprime, and A expands
    to the lcm of qs."""
    keys = list(A)
    for i, f in enumerate(keys):
        assert f == f.monic() and not f.is_constant()
        for g in keys[i + 1:]:
            assert poly_gcd(f, g).is_one()
    assert factored_expand(A, R) == reduce(poly_lcm, qs, R.one).monic()


MERGES = {
    # every q is a product of keys already present: trial division only
    "trial-division": [k * (k + 1), k + 1, (k + 1) ** 2 * k, k],
    # a composite key that trial division cannot split: refinement runs
    "composite-key": [(k + 1) * (k + 2), (k + 1) * (k + 3), k + 2],
    "new-coprime-factor": [k + 1, n - k, (n - k) * (k + 1) ** 3],
    "mixed": [(k + 1) * (n + 1), (n + 1) ** 2, (k + 1) * (k + 2) * (n + 1), k + 2],
    # a non-squarefree key that a later q splits
    "split-square-key": [(k + 1) ** 2, k + 1, (k + 1) * (k + 2)],
    # a gcd that shares a factor with its own cofactors
    "gcd-meets-cofactor": [(k + 1) ** 3 * (k + 2), (k + 1) * (k + 2) ** 2 * (k + 3)],
    # a leftover of q that overlaps two keys
    "leftover-overlaps-two-keys": [(k + 1) * (n - k), (k + 2) * (n - k + 1),
                                   (k + 1) * (k + 2) * (n - k) * (n - k + 1) ** 2],
}


# the lcm of the q^m, for m = 1 and 2
@pytest.mark.parametrize("m", [1, 2], ids=["max-1", "max-2"])
@pytest.mark.parametrize("name", sorted(MERGES))
def test_factored_merge_matches_lcm_and_product(name, m):
    qs = [q ** m for q in MERGES[name]]
    A = {}
    for q in qs:
        factored_merge(A, q * Fraction(-3, 2))
    _check_merged(A, qs)


def test_composite_key_is_split_by_refinement():
    A = {((k + 1) * (k + 2)).monic(): 1}
    factored_merge(A, (k + 1) * (k + 3))
    assert A == {k + 1: 1, k + 2: 1, k + 3: 1}


def test_factor_pairs_are_refined_once(monkeypatch):
    # factors are interned and a pair of them is refined once: a second
    # merge of the same denominators takes no gcd, and reads the pieces the
    # first one split the composite key into (a ring of its own, so no
    # other test has met these factors)
    ring = PolyRing(["n", "k", "refined_once"])
    n_, k_ = ring.var("n"), ring.var("k")
    calls = []
    refined = arith._refined

    def counted(f, g):
        calls.append((f, g))
        return refined(f, g)

    monkeypatch.setattr(arith, "_refined", counted)
    q = (k_ + 1) * (k_ + 3) * (n_ - k_) ** 3
    A = {((k_ + 1) * (k_ + 2)).monic(): 1, n_ - k_: 2, n_ + 1: 1}
    factored_merge(A, q)
    assert A == {k_ + 1: 1, k_ + 2: 1, k_ + 3: 1, n_ - k_: 3, n_ + 1: 1}
    assert calls
    first = len(calls)
    B = {((k_ + 1) * (k_ + 2)).monic(): 1}
    factored_merge(B, q)
    assert len(calls) == first
    assert B == {k_ + 1: 1, k_ + 2: 1, k_ + 3: 1, n_ - k_: 3}


@SETTINGS
@hypothesis.given(st.lists(st.lists(st.integers(0, len(FACTORS) - 1), min_size=1,
                                    max_size=4), min_size=1, max_size=5))
def test_factored_merge_random(factor_lists):
    qs = [_prod(FACTORS[i] for i in fs) for fs in factor_lists]
    A = {}
    for q in qs:
        factored_merge(A, q)
    _check_merged(A, qs)


# -- poly_gcd and poly_cofactors against sympy.Poly.cofactors ----------------------

R3 = PolyRing(["n", "k", "m"])
n3, k3, m3 = R3.var("n"), R3.var("k"), R3.var("m")
SHIFTED = [n3 - k3 + i for i in range(3)] + [k3 + i for i in range(1, 3)] + \
    [n3 + m3 + 1, k3 + m3, m3 - 2]


def to_sympy_poly(p: MPoly):
    return sympy.Poly(to_sympy(p), *sympy.symbols(p.ring.names), domain="QQ")


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
    return MPoly(R3, {k: coefficient(draw, c) for k, c in R3.from_terms(terms).terms.items()})


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


nk_polys = polys3().map(lambda p: R3.from_terms({(e[0], e[1], 0): c for e, c in p.to_terms().items()}))


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


R4 = PolyRing(["n", "k", "m", "l"])
P = arith._IMAGE_PRIME


@st.composite
def gcds4(draw):
    """(g, a, b): g of total degree up to 6 in a strict subset of n, k, m,
    l, and a = g*q1, b = g*q2 with q1, q2 in all four variables."""
    live = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3))

    def poly(variables, max_terms):
        exps = st.tuples(*[st.integers(0, 2) if i in variables else st.just(0)
                           for i in range(4)]).filter(lambda e: sum(e) <= 2)
        terms = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool),
                                     min_size=1, max_size=max_terms))
        return MPoly(R4, {k: coefficient(draw, c) for k, c in R4.from_terms(terms).terms.items()})

    g = reduce(lambda f, _: f * poly(live, 3), range(draw(st.integers(1, 3))), R4.one)
    everything = range(4)
    q1 = poly(everything, 3) + R4.var("l") * R4.var("m") + R4.var("n") * R4.var("k")
    q2 = poly(everything, 3) + R4.var("l") * R4.var("n") + R4.var("m") * R4.var("k")
    return g, g * q1, g * q2


@SETTINGS
@hypothesis.given(gcds4())
def test_gcd_in_four_variables_living_in_a_strict_subset(case):
    # the gcd is rebuilt over its own variables only; the others, shared
    # by both operands, take values drawn per prime
    g, a, b = case
    shared = a.variables() & b.variables()
    hypothesis.assume(g.variables() < shared)
    h = check_cofactors(a, b)
    assert arith.divides(g, h)


# -- the image map against term-by-term evaluation ---------------------------------


def _reference_image(f: MPoly, v):
    """Dense coefficients in x_v of f mod the image prime, every other
    variable at the image point, term by term with pow; None when the prime
    divides a coefficient denominator."""
    p = arith._IMAGE_PRIME
    point = arith._image_point(f.ring.nvars)
    terms = f.to_terms()
    coeffs = [0] * (max(e[v] for e in terms) + 1)
    for e, c in terms.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            return None
        w = c.numerator * pow(c.denominator, -1, p)
        for i, (x, d) in enumerate(zip(point, e)):
            if i != v:
                w = w * pow(x, d, p) % p
        coeffs[e[v]] = (coeffs[e[v]] + w) % p
    return coeffs


@SETTINGS
@hypothesis.given(polys3(st.integers(-5, 5) | wide, max_terms=5, max_exp=3),
                  st.integers(0, 2))
def test_image_in_matches_term_by_term_evaluation(f, v):
    hypothesis.assume(v in f.variables())
    assert arith._image_in(f, v) == _reference_image(f, v)


def test_image_in_of_a_denominator_the_prime_divides_is_none():
    f = n3 * Fraction(1, 3 * P) + k3
    assert arith._image_in(f, 0) is None
    assert _reference_image(f, 0) is None


def test_image_in_keeps_a_leading_coefficient_that_vanishes():
    # lc_n(f) = m - x2 vanishes at the point: the image still has deg_n(f)
    # + 1 entries, the last one 0
    x2 = arith._image_point(R3.nvars)[2]
    f = (m3 - x2) * n3 ** 2 + k3 * n3 + 1
    image = arith._image_in(f, 0)
    assert len(image) == 3 and image[-1] == 0 and image[1]
    assert image == _reference_image(f, 0)


def test_image_point_has_distinct_coordinates_in_many_variables():
    point = arith._image_point(40)
    assert len(set(point)) == 40 and not set(point) & {0, 1}
    assert arith._image_point(3) == point[:3]


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
                     add, (R.from_terms({(a, b): c}) for a, b, c in ts), R.zero))


@st.composite
def planted(draw):
    """(rows, ncols): every row is orthogonal to d planted vectors e_j +
    (polynomials on the last ncols - d columns), j < d.  Each row is
    scaled by an int or a Fraction and rebuilt with `mixed`."""
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
        scale = draw(st.sampled_from([1, -2, Fraction(1, 2), Fraction(-2, 3)]))
        rows.append([mixed(draw, x * scale) for x in row])
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
    assert arith._pivot_rows_mod_p(rows, 2, arith._image_point(2)) == []
    assert len(check_kernel(rows, 2)) == 1


def _count_solves(monkeypatch):
    solves = []
    real = arith.nullspace_poly
    monkeypatch.setattr(arith, "nullspace_poly",
                        lambda *args: solves.append(args) or real(*args))
    return solves


def _record_attempts(monkeypatch):
    """The primes of the (prime, point) pairs `nullspace_selected` goes
    through, in order; elimination raises."""
    primes = []
    real = arith._solve_points

    def recorded(nvars):
        for p, point in real(nvars):
            primes.append(p)
            yield p, point

    def eliminate(*args):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(arith, "_solve_points", recorded)
    monkeypatch.setattr(arith, "nullspace_poly", eliminate)
    return primes


def test_solve_points_take_each_prime_once():
    pairs = list(itertools.islice(arith._solve_points(3), 4))
    assert pairs[0] == (P, arith._image_point(3))
    assert len({p for p, _ in pairs}) == 4


def test_nullspace_selected_pulls_in_a_row_the_image_loses(monkeypatch):
    # the first row vanishes at the image point, so the selection has rank
    # 1 where the generic rank is 2: the vector rebuilt for free column 0
    # fails the check, and the pass at the next prime selects the row
    x0 = arith._image_point(R.nvars)[0]
    rows = [[n - x0, (n - x0) * k, R.zero], [R.zero, R.zero, R.one]]
    attempts = _record_attempts(monkeypatch)
    (vec,) = check_kernel(rows, 3)
    assert attempts == [P, 2 ** 89 - 1]
    assert [x.num for x in vec] == [k, -R.one, R.zero]


def test_nullspace_selected_of_a_full_rank_matrix_is_empty(monkeypatch):
    # the mod-p rank alone proves it: no exact solve runs
    rows = [[n, k, R.one], [R.one, n + k, R.zero], [k, R.zero, n - 1]]
    solves = _count_solves(monkeypatch)
    assert check_kernel(rows, 3) == []
    assert solves == []


# -- the t-free solve against sympy.Matrix.nullspace ---------------------------------


def _is_zero(x):
    return sympy.cancel(x) == 0


def _over_q_n(rows):
    """The sympy matrix over Q(n) as a DomainMatrix, whose nullspace and rank
    are much faster than Matrix's on rational-function entries."""
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field()


def sympy_t_expanded(rows):
    """The rows over Q(n)(k) cleared and split by powers of k, by sympy
    alone: each row over the lcm of its denominators (`together`), then one
    row of Q[n] coefficients per power of k."""
    out = []
    for row in rows:
        entries = [sympy.fraction(sympy.together(as_sympy(x))) for x in row]
        den = reduce(sympy.lcm, (q for _, q in entries))
        cleared = [sympy.Poly(p * sympy.quo(den, q, SN, SK), SK) for p, q in entries]
        powers = sorted({m for f in cleared for (m,) in f.monoms()})
        out.extend([f.coeff_monomial(SK ** j) for f in cleared] for j in powers)
    return out


def check_t_free_kernel(rows, ncols):
    """`_prefix_kernels` with t = k, at the full width, spans the same space
    over Q(n) as sympy's nullspace of the t-expanded matrix, and its vectors
    are free of k and solve every row."""
    kernel = next(arith._prefix_kernels(rows, [ncols], R, (1,)))
    expected = _over_q_n(sympy_t_expanded(rows)).nullspace().to_Matrix().tolist()
    assert len(kernel) == len(expected)
    mine = [[as_sympy(v) for v in vec] for vec in kernel]
    for vec in kernel:
        assert all(1 not in v.num.variables() | v.den.variables() for v in vec)
    for vec in mine:
        for row in rows:
            assert _is_zero(sum(as_sympy(x) * v for x, v in zip(row, vec)))
    if kernel:
        assert _over_q_n(expected + mine).rank() == len(expected)
    return kernel


n_polys = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=1,
                   max_size=2).map(lambda ts: reduce(
                       add, (R.from_terms({(a, 0): c}) for a, c in ts), R.zero))


@st.composite
def t_planted(draw):
    """(rows, ncols): rows over Q(n)(k), every one orthogonal to d planted
    vectors over Q[n], e_j + (polynomials in n on the last ncols - d
    columns), j < d."""
    ncols = draw(st.integers(2, 4))
    d = draw(st.integers(0, ncols - 1))
    free = range(d, ncols)
    plants = [{f: RatFunc.from_poly(draw(n_polys)) for f in free} for _ in range(d)]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = [RatFunc.zero(R)] * ncols
        for f in free:
            row[f] = draw(ratfuncs())
        for j, c in enumerate(plants):
            row[j] = -reduce(add, (row[f] * c[f] for f in free))
        rows.append(row)
    return rows, ncols


def _count_exact_solves(monkeypatch):
    solves = []
    real = arith.nullspace_selected
    monkeypatch.setattr(arith, "nullspace_selected",
                        lambda *args: solves.append(args) or real(*args))
    return solves


@hypothesis.settings(SETTINGS, max_examples=25)
@hypothesis.given(t_planted())
def test_t_free_kernel_on_planted_kernels(case):
    check_t_free_kernel(*case)


def test_t_free_kernel_of_full_rank_rows_is_proven(monkeypatch):
    # the samples of these rows at k = point^s reach rank 3 mod p, so the
    # result is [] and no exact solve runs
    rows = [[RatFunc.from_poly(n), RatFunc.from_poly(k), RatFunc(ONE, k + 1)],
            [RatFunc(ONE, n - k), RatFunc.from_poly(n), RatFunc.one(R)]]
    solves = _count_exact_solves(monkeypatch)
    assert check_t_free_kernel(rows, 3) == []
    assert solves == []


def test_t_free_kernel_with_a_row_the_prime_divides(monkeypatch):
    # the first row has coefficient denominators p, so the proof leaves it
    # out; the second alone has rank 2 < 3, and the exact solve finds the
    # planted vector (1, n, 0)
    rows = [[RatFunc(n * k * Fraction(1, P), ONE), RatFunc(k * Fraction(-1, P), ONE),
             RatFunc.zero(R)],
            [RatFunc(ONE, k + 1), RatFunc(ONE * -1, n * (k + 1)), RatFunc.from_poly(k)]]
    solves = _count_exact_solves(monkeypatch)
    (vec,) = check_t_free_kernel(rows, 3)
    assert len(solves) == 1
    assert [x.num for x in vec] == [ONE, n, R.zero]


# -- corank-1 kernels rebuilt from point solves, against sympy and elimination -------

RX = PolyRing(["n", "m", "l"])
XN, XM, XL = (RX.var(v) for v in RX.names)
EXPONENTS3 = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]

xpolys = st.lists(st.tuples(st.sampled_from(EXPONENTS3),
                            st.fractions(min_value=-4, max_value=4, max_denominator=3)),
                  min_size=1, max_size=3).map(lambda ts: reduce(
                      add, (RX.from_terms({e: c}) for e, c in ts), RX.zero))
multipliers = st.sampled_from([RX.one, -RX.one, RX.const(2), RX.zero, XN, XM - XL,
                               XL + 1])


@st.composite
def corank_one(draw):
    """(rows, ncols): rows over Q[n, m, l] orthogonal to a planted vector u
    of total degree at most 3, each a combination sum_j c_j*(u_j e_i -
    u_i e_j) over the columns j other than one i with u_i nonzero; ncols -
    1 rows or more, so the kernel is the line of u unless the c_j are
    degenerate."""
    ncols = draw(st.integers(2, 5))
    u = [draw(xpolys) for _ in range(ncols)]
    i = draw(st.integers(0, ncols - 1))
    if u[i].is_zero():
        u[i] = XN + 1
    rows = []
    for _ in range(ncols - 1 + draw(st.integers(0, 2))):
        row = [RX.zero] * ncols
        for j in range(ncols):
            if j != i:
                c = draw(multipliers)
                row[i] = row[i] + c * u[j]
                row[j] = row[j] - c * u[i]
        rows.append(row)
    return rows, ncols


def _sympy_kernel(rows):
    return _over_q_n([[to_sympy(x) for x in row] for row in rows]).nullspace() \
        .to_Matrix().tolist()


def check_rebuilt_kernel(rows, ncols):
    """nullspace_selected spans sympy's kernel over Q(n, m, l), solves every
    row, gives elimination's bytes at dimension 1, and where the corank at
    the image point is 1 and the degree is within the cap, came from point
    solves alone."""
    kernel = nullspace_selected(rows, ncols, RX)
    expected = _sympy_kernel(rows)
    assert len(kernel) == len(expected)
    for vec in kernel:
        assert all(_dot(row, vec).is_zero() for row in rows)
    if kernel:
        mine = [[as_sympy(x) for x in vec] for vec in kernel]
        assert _over_q_n(expected + mine).rank() == len(expected)
    if len(kernel) == 1:
        assert kernel == arith.nullspace_poly(rows, ncols, RX)
        point = arith._image_point(RX.nvars)
        selected = arith._pivot_rows_mod_p(rows, ncols, point)
        cap = sum(max(x.total_degree() for x in rows[i]) for i in selected)
        if len(selected) == ncols - 1 and max(
                x.num.total_degree() for x in kernel[0]) <= cap:
            vec = arith._kernel_by_points([rows[i] for i in selected], ncols, RX, point)
            assert vec is not None
            assert arith._finalize_ratfunc_vector_rat(
                [RatFunc.from_poly(x) for x in vec], RX) == kernel[0]
    return kernel


@hypothesis.settings(SETTINGS, max_examples=25)
@hypothesis.given(corank_one())
def test_rebuilt_kernel_on_planted_corank_one(case):
    check_rebuilt_kernel(*case)


def test_rebuilt_kernel_of_degree_three():
    # a kernel of total degree 3 in all three variables, with a
    # denominator along every line at every free column
    u = [XN * XM * XL + 1, XN ** 2 - XL, XM + Fraction(1, 2), RX.zero, XL ** 3 - XN]
    rows = [[u[j] if c == i else -u[i] if c == j else RX.zero for c in range(5)]
            for i, j in ((0, 1), (1, 2), (2, 4), (0, 4))] + [[RX.zero] * 3 + [RX.one, RX.zero]]
    (vec,) = check_rebuilt_kernel(rows, 5)
    assert [x.num for x in vec] == [x * 2 for x in u]


def test_rebuilt_kernel_of_corank_three(monkeypatch):
    # three planted vectors, each 1 at its own free column (2, 4 or 5) and
    # 0 at the other two and past its own; four rows of rank 3 orthogonal
    # to them.  The kernel comes back as exactly that basis, made
    # primitive, from one rebuild per free column at the image point
    Z, ONE = RX.zero, RX.one
    plants = {2: [XN + 1, XM * XL, ONE, Z, Z, Z],
              4: [XL ** 2, Z, Z, XN - XM, ONE, Z],
              5: [XM * Fraction(1, 2), XN * XL + 3, Z, XL, Z, ONE]}
    base = []
    for pivot in (0, 1, 3):
        row = [ONE if c == pivot else Z for c in range(6)]
        for f, v in plants.items():
            row[f] = -v[pivot]
        base.append(row)
    rows = [[reduce(add, (c * r[j] for c, r in zip(cs, base))) for j in range(6)]
            for cs in ([XM, ONE, Z], [ONE, Z, XN + XL], [Z, XL, -ONE], [XN, XM, XL])]
    columns = _count_rebuild_columns(monkeypatch)
    attempts = _record_attempts(monkeypatch)
    kernel = check_rebuilt_kernel(rows, 6)
    assert [[x.num for x in vec] for vec in kernel] == [
        plants[2], plants[4], [x * 2 for x in plants[5]]]
    assert columns == [3, 3, 4] and attempts == [P]


def test_rebuild_lift_past_one_prime_fails_the_check(monkeypatch):
    # the kernel (1, c*n) with c = 2^40/3: mod p = 2^61 - 1, 2^40 = 2^-21,
    # so c lifts to the smaller 1/(3*2^21) at any point; the exact check
    # rejects that vector, and the next prime, 2^89 - 1, lifts c itself
    c = Fraction(2 ** 40, 3)
    rows = [[n * c, -R.one]]
    point = arith._image_point(R.nvars)
    wrong = arith._kernel_by_points(rows, 2, R, point)
    assert wrong == [R.one, n * Fraction(1, 3 * 2 ** 21)]
    assert not arith._solves(rows[0], wrong)
    attempts = _record_attempts(monkeypatch)
    (vec,) = check_kernel(rows, 2)
    assert attempts == [P, 2 ** 89 - 1]
    assert [x.num for x in vec] == [R.const(3), n * 2 ** 40]


def test_rebuild_of_an_unlucky_selection_fails_the_check(monkeypatch):
    # the first row vanishes at the image point, so the selection there has
    # corank 1 where the kernel over Q(n, k) is {0}: the rebuilt vector of
    # the second row fails the exact check, and the pass at the next prime
    # proves full rank
    x0 = arith._image_point(R.nvars)[0]
    rows = [[n - x0, (n - x0) * k], [R.one, R.one]]
    assert arith._pivot_rows_mod_p(rows, 2, arith._image_point(2)) == [1]
    attempts = _record_attempts(monkeypatch)
    assert check_kernel(rows, 2) == []
    assert attempts == [P, 2 ** 89 - 1]
    # with one column and that row alone, no row is selected at all: the
    # rebuild solves none, and its vector (1) fails the check the same way
    del attempts[:]
    assert check_kernel([[n - x0]], 1) == []
    assert attempts == [P, 2 ** 89 - 1]


@pytest.mark.parametrize("rows, kernel", [
    # rational along every line: a line needs 2*2 + 1 points and a spare
    ([[n, -k, R.zero], [R.zero, n, -k]], [k ** 2, n * k, n ** 2]),
    # polynomial at its constant entry: the lines fit at degree 2
    ([[n, -R.one, R.zero], [R.zero, n, -R.one]], [R.one, n, n ** 2]),
], ids=["rational", "polynomial"])
def test_rebuild_gives_up_past_the_degree_cap(monkeypatch, rows, kernel):
    # entries of degree 1 and a kernel of degree 2, past the rows' largest
    # entry degree; the cap is the degree bound of the 2x2 minors, 1 + 1,
    # so the rebuild finishes at the image point
    assert max(x.total_degree() for row in rows for x in row) < 2
    assert max(x.total_degree() for x in kernel) == 2
    point = arith._image_point(R.nvars)
    assert arith._kernel_by_points(rows, 3, R, point) == kernel
    attempts = _record_attempts(monkeypatch)
    (vec,) = check_kernel(rows, 3)
    assert attempts == [P]
    assert [x.num for x in vec] == kernel


def _count_rebuild_columns(monkeypatch):
    columns = []
    real = arith._kernel_by_points
    monkeypatch.setattr(arith, "_kernel_by_points",
                        lambda rows, ncols, *rest: columns.append(ncols)
                        or real(rows, ncols, *rest))
    return columns


def test_rebuild_runs_on_the_kernel_support(monkeypatch):
    # the kernel (k, n + 1, 0, 0) has support {0, 1}: the point solves run
    # on those two columns and one row, and no elimination runs
    rows = [[n + 1, -k, ONE, n], [k * (n + 1), -k * k, k, ONE],
            [R.zero, R.zero, n, k + 2]]
    columns = _count_rebuild_columns(monkeypatch)
    solves = _count_solves(monkeypatch)
    (vec,) = check_kernel(rows, 4)
    assert [x.num for x in vec] == [k, n + 1, R.zero, R.zero]
    assert columns == [2] and solves == []


def test_kernel_entry_vanishing_at_the_point_falls_back(monkeypatch):
    # the kernel (1, n - x0, n + 2) over Q(n) has an entry that is nonzero
    # but vanishes at the image point, so the support there is {0, 2}: the
    # vector rebuilt on it fails the exact check.  The next prime, 2^89 - 1,
    # comes with its own point, where no entry vanishes, and rebuilds the
    # kernel that sympy gives on all three columns
    x0 = arith._image_point(R.nvars)[0]
    rows = []
    for r1, r2 in ((RatFunc(k, n + 1), RatFunc.one(R)),
                   (RatFunc.one(R), RatFunc(k * k, n - k))):
        r0 = -(r1 * RatFunc.from_poly(n - x0) + r2 * RatFunc.from_poly(n + 2))
        rows.append([r0, r1, r2])
    columns = _count_rebuild_columns(monkeypatch)
    attempts = _record_attempts(monkeypatch)
    (vec,) = check_t_free_kernel(rows, 3)
    assert [x.num for x in vec] == [ONE, n - x0, n + 2]
    assert columns == [2, 3] and attempts == [P, 2 ** 89 - 1]


def test_rational_lift_takes_only_a_clear_quotient():
    # small fractions come back; a residue whose preimage is too large for
    # one prime shows no quotient above 2^20 and gives None
    p = arith._IMAGE_PRIME

    def residue(q):
        return q.numerator * pow(q.denominator, -1, p) % p

    for q in (Fraction(3, 7), Fraction(-5, 12), Fraction(2 ** 18, 3), Fraction(0)):
        assert modp._rational_lift(residue(q), p) == q
    assert modp._rational_lift(residue(Fraction(12345678901, 98765432107)), p) is None
