"""Left Groebner bases in Ore algebras.

Exponent arithmetic is commutative (the noncommutativity lives in the
coefficients), so the Buchberger loop parallels the commutative one; the
only twists are that left-multiplying by a monomial twists coefficients
through sigma, and that basis elements are kept monic so reduction never
divides.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import RatFunc, _acc
from .errors import AlgebraMismatch
from .modp import exponents_up_to
from .ore import (
    OreAlgebra,
    OrePoly,
    _lmul_gen,
    apply_gen,
    peel_walk,
)


@dataclass(frozen=True)
class MonomialOrder:
    """Graded order on generator exponents: grevlex or grlex, after an
    optional permutation of the generators."""

    kind: str = "grevlex"
    perm: tuple = None

    def key(self, exp):
        e = exp if self.perm is None else tuple(exp[i] for i in self.perm)
        if self.kind == "grevlex":
            return (sum(e), tuple(-x for x in reversed(e)))
        if self.kind == "grlex":
            return (sum(e), e)
        raise ValueError("unknown order kind %r" % self.kind)

    def leading_exp(self, f: OrePoly):
        return max(f.terms, key=self.key)


GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")


def _divides_exp(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monic(f: OrePoly, order: MonomialOrder) -> OrePoly:
    lead = order.leading_exp(f)
    lc = f.terms[lead]
    if lc.is_one():
        return f
    inv = lc.inverse()
    return OrePoly(f.algebra, {e: inv * c for e, c in f.terms.items()})


class GroebnerBasis:
    """Reduced left Groebner basis with memoized reduction machinery."""

    def __init__(self, algebra: OreAlgebra, order: MonomialOrder, elements):
        self.algebra = algebra
        self.order = order
        self.elements = tuple(sorted(elements,
                                     key=lambda g: order.key(order.leading_exp(g)),
                                     reverse=True))
        self.leads = tuple(order.leading_exp(g) for g in self.elements)
        self.corners = frozenset(self.leads)
        # per element g_i: d^delta * g_i by delta (leading coefficient 1)
        zero = algebra._zero_exp
        self._shift_cache = [{zero: g} for g in self.elements]
        self._table_cache = {}
        # the walk's start, NF(1): zero in the unit ideal
        self._phi_cache = {zero: {zero: RatFunc.one(algebra.field)}
                           if self.is_reduced_exp(zero) else {}}

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def is_reduced_exp(self, exp) -> bool:
        return not any(_divides_exp(le, exp) for le in self.corners)

    def reduced_monomials(self, max_degree):
        """Staircase-complement exponents of total degree <= max_degree."""
        return sorted((e for e in exponents_up_to(self.algebra.ngens, max_degree)
                       if self.is_reduced_exp(e)), key=self.order.key)

    def _find_reducer(self, exp):
        for gi, le in enumerate(self.leads):
            if _divides_exp(le, exp):
                return gi
        return None

    def normal_form(self, f: OrePoly) -> OrePoly:
        """Full left normal form; no term of the result is reducible."""
        if f.algebra != self.algebra:
            raise AlgebraMismatch("operand algebra differs from basis algebra")
        return self._normal_form_terms(f.terms)

    def _normal_form_terms(self, terms) -> OrePoly:
        work = dict(terms)
        done = {}
        key = self.order.key
        while work:
            exp = max(work, key=key)
            coeff = work.pop(exp)
            if coeff.is_zero():
                continue
            gi = self._find_reducer(exp)
            if gi is None:
                done[exp] = coeff
                continue
            delta = tuple(a - b for a, b in zip(exp, self.leads[gi]))
            red = peel_walk(self._shift_cache[gi], delta, _lmul_gen)
            for e, c in red.terms.items():
                if e != exp:
                    _acc(work, e, -(coeff * c))
        return OrePoly(self.algebra, done)

    # -- memoized quotient-space machinery (closure, growth, telescoping) ------

    def table(self, i, gamma):
        """NF of d_i * d^gamma for a staircase exponent gamma, as a
        coefficient dict over staircase exponents."""
        key = (i, gamma)
        t = self._table_cache.get(key)
        if t is not None:
            return t
        exp = list(gamma)
        exp[i] += 1
        exp = tuple(exp)
        if self.is_reduced_exp(exp):
            t = {exp: RatFunc.one(self.algebra.field)}
        else:
            nf = self._normal_form_terms(
                {exp: RatFunc.one(self.algebra.field)})
            t = dict(nf.terms)
        self._table_cache[key] = t
        return t

    def apply_gen_to_nf(self, i, nf: dict) -> dict:
        """NF of d_i * (a reduced coefficient dict): the step in A/I, where
        d_i . d^gamma is `table(i, gamma)`."""
        return apply_gen(self.algebra, self.table, i, nf)

    def phi(self, alpha) -> dict:
        """NF of the monomial d^alpha as a coefficient dict, memoized."""
        t = self._phi_cache.get(alpha)
        if t is None:
            if self.is_reduced_exp(alpha):
                t = self._phi_cache[alpha] = {alpha: RatFunc.one(self.algebra.field)}
            else:
                t = peel_walk(self._phi_cache, alpha, self.apply_gen_to_nf)
        return t


def buchberger(generators, order: MonomialOrder = GREVLEX,
               algebra: OreAlgebra = None) -> GroebnerBasis:
    """Reduced left Groebner basis by Buchberger's procedure.

    Normal pair-selection strategy; every S-pair is reduced.  The product
    criterion (skip pairs with coprime leading exponents) is not used: it
    holds for commutative polynomials but not in Ore algebras, where
    d_y*(d_x + y) - d_x*d_y - y*d_y = 1 although d_x + y and d_y have
    coprime leading exponents.  The output is the unique reduced basis for
    the order: monic, fully interreduced, canonically sorted.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if algebra is None:
            raise ValueError("empty generating set needs an explicit algebra")
        return GroebnerBasis(algebra, order, [])
    algebra = gens[0].algebra
    basis = [_monic(g, order) for g in gens]
    leads = [order.leading_exp(g) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def lcm_exp(p):
        return tuple(max(x, y) for x, y in zip(leads[p[0]], leads[p[1]]))

    scratch = GroebnerBasis(algebra, order, basis)  # reduction helper
    while pairs:
        i, j = min(pairs, key=lambda p: order.key(lcm_exp(p)))
        pairs.discard((i, j))
        g = lcm_exp((i, j))
        si = basis[i].lmul_monomial(tuple(a - b for a, b in zip(g, leads[i])))
        sj = basis[j].lmul_monomial(tuple(a - b for a, b in zip(g, leads[j])))
        r = scratch.normal_form(si - sj)
        if r.is_zero():
            continue
        basis.append(_monic(r, order))
        leads.append(order.leading_exp(r))
        pairs.update((len(basis) - 1, t) for t in range(len(basis) - 1))
        scratch = GroebnerBasis(algebra, order, basis)
    return GroebnerBasis(algebra, order, _interreduce(basis, order, algebra))


def _interreduce(basis, order, algebra):
    """The reduced basis of the ideal that the Groebner basis `basis`
    generates, in one pass.

    First drop each element whose lead another lead divides (the later one
    when two leads are equal).  The survivors' leads still generate every
    lead, so they are a Groebner basis, and no survivor's lead divides
    another's.  Then reduce each survivor's tail once modulo the survivors.
    The lead itself is never reducible, and a tail term is below the lead,
    so the element's own lead cannot divide it: no lead changes, and no
    tail term of the result is divisible by a lead.  Monic elements with
    these leads and irreducible tails form the unique reduced basis."""
    leads = [order.leading_exp(g) for g in basis]
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and _divides_exp(le, leads[i])
                       and (le != leads[i] or j < i)
                       for j, le in enumerate(leads))]
    helper = GroebnerBasis(algebra, order, keep)
    out = []
    for g in keep:
        lead = order.leading_exp(g)
        tail = helper._normal_form_terms(
            {e: c for e, c in g.terms.items() if e != lead})
        out.append(OrePoly(algebra, {lead: g.terms[lead], **tail.terms}))
    return out


class LeftIdeal:
    """Finitely generated left ideal with cached Groebner bases per order."""

    def __init__(self, algebra: OreAlgebra, generators):
        self.algebra = algebra
        self.generators = tuple(g for g in generators if not g.is_zero())
        for g in self.generators:
            if g.algebra != algebra:
                raise AlgebraMismatch("generator algebra differs")
        self._gbs = {}

    @classmethod
    def of(cls, *generators):
        if not generators:
            raise ValueError("need at least one generator")
        return cls(generators[0].algebra, generators)

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gbs.get(order)
        if gb is None:
            gb = buchberger(self.generators, order, algebra=self.algebra)
            self._gbs[order] = gb
        return gb

    def normal_form(self, f: OrePoly, order: MonomialOrder = GREVLEX) -> OrePoly:
        return self.groebner_basis(order).normal_form(f)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def is_unit_ideal(self, order: MonomialOrder = GREVLEX) -> bool:
        gb = self.groebner_basis(order)
        return len(gb) == 1 and set(gb.leads) == {self.algebra._zero_exp}

    def __repr__(self):
        return "LeftIdeal(%d generators in %r)" % (len(self.generators), self.algebra)


def is_member(f: OrePoly, ideal: LeftIdeal, order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership through the reduced basis: NF(f) == 0."""
    if ideal.is_zero_ideal():
        return f.is_zero()
    return ideal.normal_form(f, order).is_zero()


def same_ideal(a: LeftIdeal, b: LeftIdeal, order: MonomialOrder = GREVLEX) -> bool:
    """Mutual membership of the generators (hence equality of ideals)."""
    return (all(is_member(g, b, order) for g in a.generators)
            and all(is_member(g, a, order) for g in b.generators))
