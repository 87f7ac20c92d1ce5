"""Acceptance gate: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines; every comparison is exact up to unit normalization.
"""
import os
import subprocess
import sys
import time

import pytest

from orecalc.dimension import UNIT_IDEAL, hilbert_dimension
from orecalc.closure import closure_product
from orecalc.groebner import LeftIdeal, same_ideal
from orecalc.growth import growth_probe, growth_zero_dimensional
from orecalc.ore import shift_to_difference
from orecalc.telescoping import (
    fasenmyer_search,
    restrict_to_x,
    telescoping_bound,
    zeilberger_search,
)
from orecalc.verify import Builtin, LinExpr, Lin, Pow, Product, DefiniteSum, check_identity

from corpus_objects import (
    abel_ideal,
    algebra_nmkl,
    binomial_ideal,
    double_stirling_factor_ideals,
    double_stirling_ideal,
    double_stirling_telescoper,
    double_stirling_certificate,
    nonproper_ideal,
    shift_algebra,
    stirling_ideal,
)


def lin(const=0, **kw):
    return LinExpr.of(const, **kw)


def report(criterion, ok, detail=""):
    line = "ACCEPTANCE %-12s %s%s" % (criterion + ":", "PASS" if ok else "FAIL",
                                      "  (%s)" % detail if detail else "")
    print(line)
    assert ok, line


def monic(f):
    from orecalc.groebner import GREVLEX
    return f.scale(f.terms[GREVLEX.leading_exp(f)].inverse())


@pytest.fixture(scope="module")
def double_stirling_search():
    I = double_stirling_ideal(algebra_nmkl())
    return fasenmyer_search(I, ["Sk"], max_degree=4, target_dim=2)


def test_criterion_1_closure_reproduction():
    alg = algebra_nmkl()
    i1, i2, i3 = double_stirling_factor_ideals(alg)
    t0 = time.time()
    r12 = closure_product(i1, i2, 3)
    r = closure_product(r12.ideal, i3, 3)
    elapsed = time.time() - t0
    I = double_stirling_ideal(alg)
    ok = (r.bound_met and same_ideal(r.ideal, I)
          and hilbert_dimension(r.ideal) == 2)
    report("criterion 1", ok, "closure product equals the reference ideal, "
           "dim 2, %.1fs" % elapsed)


def test_criterion_2_fasenmyer_reproduction(double_stirling_search):
    out = double_stirling_search
    alg = algebra_nmkl()
    target = monic(shift_to_difference(double_stirling_telescoper(alg), ["Sk"]))
    found = None
    for r in out.results:
        if monic(r.telescoper) == target:
            found = r
    ok = (found is not None and found.degree == 4 and found.membership_checked)
    report("criterion 2", ok, "telescoper found at degree 4 with exact membership")


def test_criterion_3_zeilberger_reproduction():
    alg = algebra_nmkl()
    I = double_stirling_ideal(alg)
    res_low, sys_low = zeilberger_search(I, "Sk", degA=2, degB=1)
    res, system = zeilberger_search(I, "Sk", degA=3, degB=2)
    target_A = shift_to_difference(double_stirling_telescoper(alg), ["Sk"])
    target_B = shift_to_difference(double_stirling_certificate(alg), ["Sk"])
    ok = res_low is None and res is not None and res.membership_checked
    size_note = "systems %dx%d and %dx%d" % (
        sys_low.square_shape + system.square_shape)
    if ok:
        ok = monic(res.telescoper) == monic(target_A)
    if ok:
        lead = max(res.telescoper.terms, key=sum)
        tlead = max(target_A.terms, key=sum)
        scale = target_A.terms[tlead] / res.telescoper.terms[lead]
        ok = res.certificates["Sk"].scale(scale) == target_B
    report("criterion 3", ok,
           "no solution at (2,1); stated A and B at (3,2); " + size_note)


def test_criterion_4_dimension_table():
    vals = (
        hilbert_dimension(binomial_ideal()),
        hilbert_dimension(stirling_ideal()),
        hilbert_dimension(double_stirling_ideal()),
        hilbert_dimension(abel_ideal()),
    )
    ok = vals == (0, 1, 2, 2)
    report("criterion 4", ok, "dims (binomial, stirling, double-stirling, abel) = %s" % (vals,))


def test_criterion_5_growth(double_stirling_search):
    cert_b = growth_zero_dimensional(binomial_ideal(), ["k"], window=10)
    diffs = [b - a for a, b in zip(cert_b.degrees, cert_b.degrees[1:])]
    tail = diffs[len(diffs) // 2:]
    linear = all(x == tail[0] for x in tail) and tail[0] > 0
    cert_e4 = growth_probe(double_stirling_ideal(), ["k"], window=8)
    cert_np = growth_probe(nonproper_ideal(), ["k"], window=8)
    xs = [restrict_to_x(r.telescoper, ["Sk"]) for r in double_stirling_search.results]
    T = LeftIdeal(xs[0].algebra, xs)
    dT = hilbert_dimension(T)
    bound, _ = telescoping_bound(2, 1, 1, 3)
    bound_ok = dT is UNIT_IDEAL or dT <= bound
    ok = (cert_b.p == 1 and linear and cert_e4.p == 1 and cert_np.p == 2
          and bound_ok)
    report("criterion 5", ok,
           "exact binomial p=%s (linear degrees), probe double-stirling p=%s, "
           "probe nonproper p=%s, telescoped dim %s <= %d" % (
               cert_b.p, cert_e4.p, cert_np.p, dT, bound))


def _double_stirling_identity(double_stirling_search):
    alg = algebra_nmkl()
    A = double_stirling_telescoper(alg)
    summand = Product((
        Builtin("binomial", (lin(n=1), lin(k=1))),
        Builtin("stirling2", (lin(k=1), lin(l=1))),
        Builtin("stirling2", (lin(n=1, k=-1), lin(m=1))),
    ))
    closed = Product((
        Builtin("binomial", (lin(l=1, m=1), lin(l=1))),
        Builtin("stirling2", (lin(n=1), lin(l=1, m=1))),
    ))
    rep = check_identity(summand, A, closed, "k",
                         {"n": (0, 10), "m": (0, 5), "l": (0, 5)})
    return rep.passed and not rep.counterexamples


def _stirling_eulerian_identity():
    alg = shift_algebra(["n", "m", "k"])
    n, m, k = (alg.var(v) for v in "nmk")
    Sn, Sm, Sk = (alg.gen("S" + v) for v in "nmk")
    one = alg.one
    sign = LeftIdeal(alg, [Sm + one, Sk + one, Sn - one])
    fact = LeftIdeal(alg, [Sk - (k + 1), Sn - one, Sm - one])
    binom = LeftIdeal(alg, [(n - m + 1) * Sn - (n - k + 1),
                            (m - k + 1) * Sm - (n - m),
                            (n - k) * Sk - (m - k)])
    stir = LeftIdeal(alg, [Sn * Sk - (k + 2) * Sk - one, Sm - one])
    ann = closure_product(
        closure_product(closure_product(sign, fact, 2).ideal, binom, 2).ideal,
        stir, 3).ideal
    out = fasenmyer_search(ann, ["Sk"], max_degree=4, target_dim=1)
    if not out.results:
        return False
    A = restrict_to_x(out.results[0].telescoper, ["Sk"])
    summand = Product((
        Pow(lin(const=-1), lin(m=1, k=-1)),
        Builtin("factorial", (lin(k=1),)),
        Builtin("binomial", (lin(n=1, k=-1), lin(m=1, k=-1))),
        Builtin("stirling2", (lin(n=1, const=1), lin(k=1, const=1))),
    ))
    closed = Builtin("eulerian1", (lin(n=1), lin(m=1)))
    rep = check_identity(summand, A, closed, "k",
                         {"n": (0, 10), "m": (0, 10)})
    return rep.passed and not rep.counterexamples


def _chen_sun_identity():
    alg = shift_algebra(["m", "n", "k"])
    m, n, k = (alg.var(v) for v in "mnk")
    Sm, Sn, Sk = (alg.gen("S" + v) for v in "mnk")
    one = alg.one
    binom = LeftIdeal(alg, [(k - m - 1) * Sm + m + 1, (k + 1) * Sk + k - m,
                            Sn - one])
    bern = LeftIdeal(alg, [Sn - Sk, Sm - one])
    ann = closure_product(binom, bern, 3).ideal
    out = fasenmyer_search(ann, ["Sk"], max_degree=3, target_dim=1)
    if not out.results:
        return False
    A = restrict_to_x(out.results[0].telescoper, ["Sk"])
    summand = Product((
        Builtin("binomial", (lin(m=1), lin(k=1))),
        Builtin("bernoulli", (lin(n=1, k=1),)),
    ))
    closed = Product((
        Pow(lin(const=-1), lin(m=1, n=1)),
        DefiniteSum("k", Product((
            Builtin("binomial", (lin(n=1), lin(k=1))),
            Builtin("bernoulli", (lin(m=1, k=1),)),
        ))),
    ))
    rep = check_identity(summand, A, closed, "k",
                         {"m": (0, 10), "n": (0, 10)})
    return rep.passed and not rep.counterexamples


def _abel_identity():
    I = abel_ideal()
    out = fasenmyer_search(I, ["Sk"], max_degree=3, target_dim=2)
    if not out.results:
        return False
    A = restrict_to_x(out.results[0].telescoper, ["Sk"])
    summand = Product((
        Builtin("binomial", (lin(m=1), lin(k=1))),
        Lin(lin(r=1)),
        Pow(lin(k=1, r=1), lin(k=1, const=-1)),
        Pow(lin(m=1, k=-1, s=1), lin(m=1, k=-1)),
    ))
    closed = Pow(lin(m=1, r=1, s=1), lin(m=1))
    rep = check_identity(summand, A, closed, "k",
                         {"m": (1, 10), "r": (1, 5), "s": (1, 5)})
    return rep.passed and not rep.counterexamples


def test_criterion_6_identity_suite(double_stirling_search):
    t0 = time.time()
    results = {
        "double-stirling": _double_stirling_identity(double_stirling_search),
        "stirling-eulerian": _stirling_eulerian_identity(),
        "chen-sun": _chen_sun_identity(),
        "abel": _abel_identity(),
    }
    elapsed = time.time() - t0
    ok = all(results.values())
    report("criterion 6", ok, "%s, %.0fs" % (
        ", ".join("%s %s" % (k, "ok" if v else "FAIL") for k, v in results.items()),
        elapsed))


def test_criterion_7_property_suites():
    path = os.path.join(os.path.dirname(__file__), "test_properties.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", path, "-q", "--no-header"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
    )
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    report("criterion 7", ok, "standalone property suites: %s" % tail)


def test_criterion_8_negative_control():
    I = nonproper_ideal()
    t0 = time.time()
    out = fasenmyer_search(I, ["Sk"], max_degree=6)
    elapsed = time.time() - t0
    ok = out.results == [] and elapsed < 300
    report("criterion 8", ok,
           "no telescoper up to degree 6 in %.0fs (< 300s)" % elapsed)
