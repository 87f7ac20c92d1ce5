"""The coefficient domain: an int for every integral coefficient, a
Fraction only for a non-integral one, and never a float.

`arith._coef`, `_qdiv` and `_inv` are checked directly.  Two corpus files
and one problem with non-integral coefficients are run in process with
every Groebner basis (its elements and its shift, table and phi caches)
and every returned kernel vector collected, so a coefficient that leaves
the domain anywhere on those paths fails the guard.  The growth probe is
run in process as well, since `run` may compute it in a helper process."""
import io
import os
from fractions import Fraction

import pytest

from orecalc import arith, closure, groebner, growth
from orecalc.arith import PolyRing, RatFunc, _coef, _inv, _qdiv
from orecalc.cli import parse, run

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

R = PolyRing(["n", "k"])
n, k = R.var("n"), R.var("k")


def _bad_coefficients(p):
    """The coefficients of the MPoly p outside the domain."""
    return [c for c in p.terms.values()
            if not (type(c) is int or (type(c) is Fraction and c.denominator != 1))]


def _bad_in_ratfuncs(values):
    return [c for x in values for p in (x.num, x.den) for c in _bad_coefficients(p)]


class TestHelpers:
    @pytest.mark.parametrize("a, b, q", [
        (-7, 2, Fraction(-7, 2)),
        (6, -3, -2),
        (1, -1, -1),
        (Fraction(6), Fraction(-3), -2),
        (Fraction(-7), 2, Fraction(-7, 2)),
        (Fraction(1, 2), Fraction(1, 4), 2),
        (0, 5, 0),
    ])
    def test_qdiv(self, a, b, q):
        got = _qdiv(a, b)
        assert got == q
        assert type(got) is type(q)

    @pytest.mark.parametrize("c, inv", [
        (2, Fraction(1, 2)), (-1, -1), (1, 1), (Fraction(1, 3), 3),
        (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(5), Fraction(1, 5)),
    ])
    def test_inv(self, c, inv):
        got = _inv(c)
        assert got == inv and type(got) is type(inv)

    def test_qdiv_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            _qdiv(1, 0)

    def test_coef_normalises(self):
        assert type(_coef(Fraction(4, 2))) is int and _coef(Fraction(4, 2)) == 2
        assert _coef(Fraction(1, 2)) == Fraction(1, 2)
        assert type(_coef(True)) is int

    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/2"])
    def test_coef_rejects_non_rationals(self, bad):
        with pytest.raises(TypeError):
            _coef(bad)
        with pytest.raises(TypeError):
            R.const(bad)
        with pytest.raises(TypeError):
            n * bad

    def test_ring_constructors_store_ints(self):
        for p in (R.one, R.var("n"), R.const(Fraction(6, 3)), R.monomial((1, 1), Fraction(3)),
                  n * Fraction(2)):
            assert all(type(c) is int for c in p.terms.values())

    def test_arithmetic_keeps_integral_fractions_as_ints(self):
        half = n + Fraction(1, 2)
        sq = half * half  # n^2 + n + 1/4: the middle term is Fraction(1, 2) * 2
        assert type(sq.terms[(1, 0)]) is int
        assert not _bad_coefficients(sq)
        assert not _bad_coefficients(half + half)
        assert not _bad_coefficients((k * Fraction(1, 2)).derivative(1) * 2)
        assert not _bad_coefficients(half.shift_var(0, Fraction(1, 2)))
        assert not _bad_coefficients((2 * n + 1).monic() * 2)
        # a raw constructor with integral Fractions is still legal and equal
        raw = arith.MPoly(R, {(1, 0): Fraction(3), (0, 0): Fraction(1)})
        assert raw == 3 * n + 1 and hash(raw) == hash(3 * n + 1)

    def test_ratfunc_eval_point_is_an_exact_fraction(self):
        three = RatFunc.const(R, 3)
        for point in ([1, 2], [Fraction(1, 2), 5]):
            v = three.eval_point(point)
            assert type(v) is Fraction and v == 3
        v = RatFunc(n.ring.one, 2 * n).eval_point([3, 0])
        assert type(v) is Fraction and v == Fraction(1, 6)
        assert type((n * n + 1).eval_point([2, 7])) is int

    def test_normalisations_keep_the_domain(self):
        p = 6 * n * k - 4 * k + 2
        assert p.primitive() == 3 * n * k - 2 * k + 1
        assert not _bad_coefficients(p.primitive())
        m = (2 * n + 3).monic()
        assert m.terms == {(1, 0): 1, (0, 0): Fraction(3, 2)}
        r = RatFunc(n + 1, 2 * k + 4)
        assert not _bad_in_ratfuncs([r, r.inverse(), r.shift_var(1, -2)])


# (2k + 3) and (2k + 1) have leading coefficient 2, so the monic
# denominators of this ideal's basis and normal forms carry non-integral
# Fractions; the corpus files carry none
HALVES = """
algebra Q(n, k) <Sn: shift(n), Sk: shift(k)>;
ideal A = [(2*k + 3)*(k + 1)*Sk - (2*k + 1)*(n - k), (n + 1 - k)*Sn - (n + 1)];
gb A;
growth probe A over k window 4;
telescope A over Sk maxdeg 2 as T;
closure product A A maxdeg 2 as P;
dim P;
"""


def _problem(name):
    if name == "halves":
        return HALVES
    with open(os.path.join(CORPUS, name + ".ore")) as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["stirling_eulerian", "abel", "halves"])
def test_coefficients_stay_in_the_domain(name, monkeypatch):
    bases, kernels = [], []
    init = groebner.GroebnerBasis.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bases.append(self)

    def recording(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            kernels.extend(out)
            return out
        return call

    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", recording_init)
    monkeypatch.setattr(arith, "nullspace_selected", recording(arith.nullspace_selected))
    monkeypatch.setattr(closure, "nullspace", recording(closure.nullspace))
    pf = parse(_problem(name))
    status, _ = run(pf, fmt="json", out=io.StringIO())
    assert status == 0
    assert bases and kernels
    if name == "halves":
        # `run` may give the growth task to a forked helper, whose phi
        # entries never reach this process; the probe here fills them
        growth.growth_probe(pf.built_ideals["A"], ["k"], window=4)

    values = []
    for gb in bases:
        values.extend(c for g in gb.elements for c in g.terms.values())
        for cache in gb._shift_cache:
            values.extend(c for f in cache.values() for c in f.terms.values())
        for cache in (gb._table_cache, gb._phi_cache):
            values.extend(c for nf in cache.values() for c in nf.values())
    values.extend(x for vec in kernels for x in vec)
    assert not _bad_in_ratfuncs(values)
    coefficients = [c for x in values for p in (x.num, x.den) for c in p.terms.values()]
    assert len(coefficients) > 500
    if name == "halves":
        assert sum(type(c) is Fraction for c in coefficients) > 100
