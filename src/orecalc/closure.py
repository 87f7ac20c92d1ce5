"""Closure properties: annihilating ideals of d.f, f1+f2, and f1*f2.

Rewrites d^alpha applied to the derived function as a coordinate vector
over normal-form monomials (pairs of monomials for products), then takes
the kernel of the resulting matrix of rational functions, degree by
degree.  The dimension bounds are: apply <= dim I1, sum <= max of the
dimensions, product <= their sum (the latter needs a linear algebra,
which every catalog kind provides).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .arith import RatFunc, _acc, nullspace
from .dimension import UNIT_IDEAL, hilbert_dimension
from .errors import AlgebraMismatch, NonlinearAlgebra
from .groebner import GREVLEX, GroebnerBasis, LeftIdeal, MonomialOrder
from .ore import OrePoly, exponents_up_to, peel_walk


@dataclass
class ClosureResult:
    """Output ideal plus how the run went against the dimension bound."""

    ideal: LeftIdeal
    bound: object          # int, or None when trivially satisfied
    bound_met: bool
    used_degree: int
    dimension: object

    def __iter__(self):  # allow: ideal, met = result
        yield self.ideal
        yield self.bound_met


def _check_linear(alg):
    for i in range(alg.ngens):
        try:
            alg.linearization(i)
        except Exception:
            raise NonlinearAlgebra(
                "generator %s has no linear extension" % alg.gens[i].name)


# Each derived function's expansion of d^alpha . f is a walk from its value
# at alpha = 0, one generator at a time (`peel_walk`); a step applies d_i to
# a coordinate dict.


def _product_step(gb1: GroebnerBasis, gb2: GroebnerBasis, i, state):
    """d_i applied to an expansion of f1*f2 over coordinate pairs."""
    alg = gb1.algebra
    asig, bsig, adel, bdel, lam = alg.linearization(i)
    c_dd = lam * asig * asig + asig * adel       # (dF)(dG)
    c_d0 = lam * asig * bsig + asig * bdel + adel  # (dF)(G)
    c_0d = lam * bsig * asig + bsig * adel       # (F)(dG)
    c_00 = lam * bsig * bsig + bsig * bdel + bdel  # (F)(G)
    out = {}
    for (beta, gamma), u in state.items():
        su = alg.sigma(i, u)
        du = alg.delta(i, u)
        if not su.is_zero():
            dF = gb1.table(i, beta) if (not c_dd.is_zero() or not c_d0.is_zero()) else {}
            dG = gb2.table(i, gamma) if (not c_dd.is_zero() or not c_0d.is_zero()) else {}
            if not c_dd.is_zero():
                for b2, vb in dF.items():
                    svb = su * c_dd * vb
                    for g2, vg in dG.items():
                        _acc(out, (b2, g2), svb * vg)
            if not c_d0.is_zero():
                for b2, vb in dF.items():
                    _acc(out, (b2, gamma), su * c_d0 * vb)
            if not c_0d.is_zero():
                for g2, vg in dG.items():
                    _acc(out, (beta, g2), su * c_0d * vg)
            if not c_00.is_zero():
                _acc(out, (beta, gamma), su * c_00)
        if not du.is_zero():
            _acc(out, (beta, gamma), du)
    return out


def _sum_step(gbs, i, state):
    """d_i applied to an expansion of f1+f2: two independent blocks."""
    alg = gbs[0].algebra
    out = {}
    for (side, gamma), u in state.items():
        su = alg.sigma(i, u)
        du = alg.delta(i, u)
        if not su.is_zero():
            for g2, v in gbs[side].table(i, gamma).items():
                _acc(out, (side, g2), su * v)
        if not du.is_zero():
            _acc(out, (side, gamma), du)
    return out


def _numeric_dim(d):
    return None if d is UNIT_IDEAL else d


def _kernel_relations(states, step, monomials, alg):
    coords = set()
    cols = []
    for m in monomials:
        st = peel_walk(states, m, step)
        coords |= set(st)
        cols.append(st)
    coord_list = sorted(coords, key=repr)
    rows = []
    zero = RatFunc.zero(alg.field)
    for c in coord_list:
        rows.append([st.get(c, zero) for st in cols])
    if not rows:
        # everything annihilates: the derived function is zero
        return [alg.one]
    kernel = nullspace(rows)
    rels = []
    for vec in kernel:
        terms = {m: v for m, v in zip(monomials, vec) if not v.is_zero()}
        if terms:
            rels.append(OrePoly(alg, terms))
    return rels


def _autoreduce(rels, order, alg):
    """Light interreduction of a generator list (not a full basis)."""
    rels = [r for r in rels if not r.is_zero()]
    rels.sort(key=lambda r: order.key(order.leading_exp(r)))
    out = []
    for r in rels:
        if out:
            helper = GroebnerBasis(alg, order, out)
            r = helper.normal_form(r)
        if not r.is_zero():
            lead = order.leading_exp(r)
            lc = r.terms[lead]
            if not lc.is_one():
                r = r.scale(lc.inverse())
            out.append(r)
    return out


def _closure_run(alg, start, step, bound, max_degree, order):
    """Kernels of the expansions d^alpha . f, degree by degree, until the
    relations found meet the dimension bound; `start` is the expansion at
    alpha = 0 and `step` applies one generator."""
    states = {alg._zero_exp: start}
    relations = []
    used = 0
    dim = None
    for s in range(1, max_degree + 1):
        used = s
        monomials = exponents_up_to(alg.ngens, s)
        rels = _kernel_relations(states, step, monomials, alg)
        rels = _autoreduce(rels, order, alg)
        if not rels:
            continue
        relations = rels
        J = LeftIdeal(alg, relations)
        dim = hilbert_dimension(J, order)
        if bound is None or _numeric_dim(dim) is None or dim <= bound:
            return ClosureResult(J, bound, True, s, dim)
    J = LeftIdeal(alg, relations)
    dim = hilbert_dimension(J, order) if relations else alg.ngens
    met = bound is None or (relations and (_numeric_dim(dim) is None or dim <= bound))
    return ClosureResult(J, bound, bool(met), used, dim)


def closure_product(I1: LeftIdeal, I2: LeftIdeal, max_degree: int,
                    order: MonomialOrder = GREVLEX) -> ClosureResult:
    """Annihilator (subideal) of f1*f2 from annihilators of f1 and f2."""
    if I1.algebra != I2.algebra:
        raise AlgebraMismatch("closure operands in different algebras")
    _check_linear(I1.algebra)
    d1 = _numeric_dim(hilbert_dimension(I1, order))
    d2 = _numeric_dim(hilbert_dimension(I2, order))
    bound = None if d1 is None or d2 is None else d1 + d2
    alg = I1.algebra
    zero, one = alg._zero_exp, RatFunc.one(alg.field)
    step = partial(_product_step, I1.groebner_basis(order), I2.groebner_basis(order))
    return _closure_run(alg, {(zero, zero): one}, step, bound, max_degree, order)


def closure_sum(I1: LeftIdeal, I2: LeftIdeal, max_degree: int,
                order: MonomialOrder = GREVLEX) -> ClosureResult:
    """Annihilator (subideal) of f1 + f2."""
    if I1.algebra != I2.algebra:
        raise AlgebraMismatch("closure operands in different algebras")
    d1 = _numeric_dim(hilbert_dimension(I1, order))
    d2 = _numeric_dim(hilbert_dimension(I2, order))
    if d1 is None:
        bound = d2
    elif d2 is None:
        bound = d1
    else:
        bound = max(d1, d2)
    alg = I1.algebra
    zero, one = alg._zero_exp, RatFunc.one(alg.field)
    step = partial(_sum_step, (I1.groebner_basis(order), I2.groebner_basis(order)))
    return _closure_run(alg, {(0, zero): one, (1, zero): one}, step, bound,
                        max_degree, order)


def closure_apply(gen_name: str, I: LeftIdeal, max_degree: int,
                  order: MonomialOrder = GREVLEX) -> ClosureResult:
    """Annihilator (subideal) of d.f for a single generator d."""
    bound = _numeric_dim(hilbert_dimension(I, order))
    gb = I.groebner_basis(order)
    e = [0] * I.algebra.ngens
    e[I.algebra.gen_index[gen_name]] = 1
    return _closure_run(I.algebra, dict(gb.phi(tuple(e))), gb.apply_gen_to_nf,
                        bound, max_degree, order)
