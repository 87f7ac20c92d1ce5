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
from .errors import AlgebraMismatch, KindMismatch, NonlinearAlgebra
from .groebner import GREVLEX, GroebnerBasis, LeftIdeal, MonomialOrder, _monic
from .modp import exponents_up_to
from .ore import OrePoly, apply_gen, coefficient_rows, peel_walk


@dataclass
class ClosureResult:
    """Output ideal plus how the run went against the dimension bound."""

    ideal: LeftIdeal
    bound: object          # int, or None when trivially satisfied
    bound_met: bool
    dimension: object


def _check_linear(alg):
    for i in range(alg.ngens):
        try:
            alg.linearization(i)
        except KindMismatch:
            raise NonlinearAlgebra(
                "generator %s has no linear extension" % alg.gens[i].name)


# Each derived function's expansion of d^alpha . f is a walk from its value
# at alpha = 0, one generator at a time (`peel_walk`), and each step is
# `apply_gen` in the module the expansion lives in; the functions below give
# that module's action on one basis element.


def _product_act(gb1: GroebnerBasis, gb2: GroebnerBasis):
    """d_i . (e_beta (x) e_gamma) in the tensor product of A/I1 and A/I2.

    With the module operators sigma = a_s d + b_s, delta = a_d d + b_d and
    the action d = lam sigma + delta of `linearization`, d (F G) expands
    over (dF)(dG), (dF)G, F(dG) and FG."""
    alg = gb1.algebra
    coeffs = []
    for i in range(alg.ngens):
        asig, bsig, adel, bdel, lam = alg.linearization(i)
        coeffs.append((lam * asig * asig + asig * adel,        # (dF)(dG)
                       lam * asig * bsig + asig * bdel + adel,  # (dF)(G)
                       lam * bsig * asig + bsig * adel,        # (F)(dG)
                       lam * bsig * bsig + bsig * bdel + bdel))  # (F)(G)

    def act(i, pair):
        beta, gamma = pair
        c_dd, c_d0, c_0d, c_00 = coeffs[i]
        dF = gb1.table(i, beta) if c_dd or c_d0 else {}
        dG = gb2.table(i, gamma) if c_dd or c_0d else {}
        out = {}
        if c_dd:
            for b2, vb in dF.items():
                cvb = c_dd * vb
                for g2, vg in dG.items():
                    _acc(out, (b2, g2), cvb * vg)
        if c_d0:
            for b2, vb in dF.items():
                _acc(out, (b2, gamma), c_d0 * vb)
        if c_0d:
            for g2, vg in dG.items():
                _acc(out, (beta, g2), c_0d * vg)
        _acc(out, pair, c_00)
        return out
    return act


def _sum_act(gbs):
    """d_i . e_(side, gamma) in the direct sum of A/I1 and A/I2."""
    def act(i, key):
        side, gamma = key
        return {(side, g2): v for g2, v in gbs[side].table(i, gamma).items()}
    return act


def _numeric_dim(d):
    return None if d is UNIT_IDEAL else d


def _kernel_relations(states, step, monomials, alg):
    cols = [peel_walk(states, m, step) for m in monomials]
    _, rows = coefficient_rows(cols, RatFunc.zero(alg.field), key=repr)
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
            out.append(_monic(r, order))
    return out


def _closure_run(alg, start, act, bound, max_degree, order):
    """Kernels of the expansions d^alpha . f, degree by degree, until the
    relations found meet the dimension bound; `start` is the expansion at
    alpha = 0 and `act` the module's action on a basis element."""
    states = {alg._zero_exp: start}
    step = partial(apply_gen, alg, act)
    relations = []
    for s in range(1, max_degree + 1):
        monomials = exponents_up_to(alg.ngens, s)
        rels = _kernel_relations(states, step, monomials, alg)
        rels = _autoreduce(rels, order, alg)
        if not rels:
            continue
        relations = rels
        J = LeftIdeal(alg, relations)
        dim = hilbert_dimension(J, order)
        if bound is None or _numeric_dim(dim) is None or dim <= bound:
            return ClosureResult(J, bound, True, dim)
    J = LeftIdeal(alg, relations)
    dim = hilbert_dimension(J, order) if relations else alg.ngens
    met = bound is None or (relations and (_numeric_dim(dim) is None or dim <= bound))
    return ClosureResult(J, bound, bool(met), dim)


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
    act = _product_act(I1.groebner_basis(order), I2.groebner_basis(order))
    return _closure_run(alg, {(zero, zero): one}, act, bound, max_degree, order)


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
    act = _sum_act((I1.groebner_basis(order), I2.groebner_basis(order)))
    return _closure_run(alg, {(0, zero): one, (1, zero): one}, act, bound,
                        max_degree, order)


def closure_apply(gen_name: str, I: LeftIdeal, max_degree: int,
                  order: MonomialOrder = GREVLEX) -> ClosureResult:
    """Annihilator (subideal) of d.f for a single generator d."""
    bound = _numeric_dim(hilbert_dimension(I, order))
    gb = I.groebner_basis(order)
    e = [0] * I.algebra.ngens
    e[I.algebra.gen_index[gen_name]] = 1
    return _closure_run(I.algebra, dict(gb.phi(tuple(e))), gb.table,
                        bound, max_degree, order)
