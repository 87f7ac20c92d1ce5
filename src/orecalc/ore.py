"""Ore algebras and skew polynomials.

An algebra is declared over a rational-function coefficient field together
with a list of generators from the operator catalog; each generator carries
the pair (sigma, delta) that drives the commutation rule

    d * a  =  sigma(a) * d + delta(a).

Skew polynomials (OrePoly) multiply by repeated application of that rule.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial

from .arith import MPoly, PolyRing, RatFunc, _acc
from .errors import AlgebraMismatch, KindMismatch, UnknownVariable


def _grevlex_key(exp):
    # graded reverse lexicographic on generator exponent tuples; max() of
    # keys picks the leading exponent
    return (sum(exp),) + tuple(map(operator.neg, exp[::-1]))


class OreKind(Enum):
    DIFFERENTIATION = "diff"
    SHIFT = "shift"
    DIFFERENCE = "difference"
    Q_DILATION = "qdilation"
    CONT_Q_DIFFERENCE = "cqdifference"
    Q_DIFFERENTIATION = "qdiff"
    Q_SHIFT = "qshift"
    DISCRETE_Q_DIFFERENCE = "dqdifference"
    EULER = "euler"
    MAHLER = "mahler"
    DIVIDED_DIFFERENCE = "divdiff"


# The operator catalog (Chyzak & Salvy 1998), one row per kind: what sigma
# does to the kind's variable x, the OreGenerator field of the argument that
# names (q, the base b or the point c), and delta: 0, a derivation, or the
# sigma-derivation (sigma - 1)/h (Bronstein & Petkovsek 1996) with its h:
# 1, or sigma(x) - x, which is (q - 1)*x for q*x and c - x for x -> c.
CatalogRow = namedtuple("CatalogRow", "sigma arg delta h", defaults=(None,))

CATALOG = {
    OreKind.DIFFERENTIATION:       CatalogRow("x", None, "d/dx"),
    OreKind.SHIFT:                 CatalogRow("x + 1", None, "0"),
    OreKind.DIFFERENCE:            CatalogRow("x + 1", None, "(sigma - 1)/h", "1"),
    OreKind.Q_DILATION:            CatalogRow("q*x", "param", "0"),
    OreKind.CONT_Q_DIFFERENCE:     CatalogRow("q*x", "param", "(sigma - 1)/h", "1"),
    OreKind.Q_DIFFERENTIATION:     CatalogRow("q*x", "param", "(sigma - 1)/h", "sigma(x) - x"),
    OreKind.Q_SHIFT:               CatalogRow("q*x", "param", "0"),
    OreKind.DISCRETE_Q_DIFFERENCE: CatalogRow("q*x", "param", "(sigma - 1)/h", "1"),
    OreKind.EULER:                 CatalogRow("x", None, "x*d/dx"),
    OreKind.MAHLER:                CatalogRow("x^b", "mahler_base", "0"),
    OreKind.DIVIDED_DIFFERENCE:    CatalogRow("c", "eval_point", "(sigma - 1)/h", "sigma(x) - x"),
}


@dataclass(frozen=True)
class OreGenerator:
    """One catalog generator attached to a single ground variable; it takes
    exactly the argument its catalog row names."""

    name: str
    kind: OreKind
    var: str
    param: str = None            # q, for the q-kinds
    mahler_base: int = None      # b >= 2
    eval_point: object = None    # RatFunc c, for divided differences

    def __str__(self):
        """The generator as a problem file declares it."""
        arg = CATALOG[self.kind].arg
        args = self.var if arg is None else "%s, %s" % (self.var, getattr(self, arg))
        return "%s: %s(%s)" % (self.name, self.kind.value, args)

    def __post_init__(self):
        arg = CATALOG[self.kind].arg
        for field in ("param", "mahler_base", "eval_point"):
            if (getattr(self, field) is None) == (field == arg):
                raise KindMismatch("%s generator %r %s %s" % (
                    self.kind.value, self.name, "needs" if field == arg else "takes no", field))
        if arg == "mahler_base" and not (isinstance(self.mahler_base, int)
                                         and self.mahler_base >= 2):
            raise KindMismatch("Mahler generator needs integer base >= 2")


def _at_gen(i, exc):
    exc.gen = i   # the parser reports exc at generator i
    return exc


class OreAlgebra:
    """C(x1..xm)<d1..dn> with the declared commutation data.

    `ground_vars` and `params` together span the coefficient field.  An
    error about one generator carries its index as `gen`.
    """

    def __init__(self, ground_vars, gens, params=()):
        self.ground_vars = tuple(ground_vars)
        self.params = tuple(params)
        self.gens = tuple(gens)
        names = self.ground_vars + self.params
        if len(set(names) | {g.name for g in self.gens}) != len(names) + len(self.gens):
            raise AlgebraMismatch("generator, variable, and parameter names must be distinct")
        self.field = PolyRing(names)
        self.gen_index = {g.name: i for i, g in enumerate(self.gens)}
        for i, g in enumerate(self.gens):
            if g.var not in self.field.index:
                raise _at_gen(i, UnknownVariable(
                    "ground variable %r of generator %r not declared" % (g.var, g.name)))
            if g.param is not None and g.param not in self.field.index:
                raise _at_gen(i, UnknownVariable("parameter %r not declared" % g.param))
        self.ngens = len(self.gens)
        self._zero_exp = (0,) * self.ngens
        self._check_commutation()

    # -- identity ---------------------------------------------------------------

    def _key(self):
        return (self.ground_vars, self.params,
                tuple((g.name, g.kind, g.var, g.param, g.mahler_base,
                       str(g.eval_point) if g.eval_point is not None else None)
                      for g in self.gens))

    def __eq__(self, other):
        return isinstance(other, OreAlgebra) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        gens = ", ".join("%s:%s(%s)" % (g.name, g.kind.value, g.var) for g in self.gens)
        return "OreAlgebra(Q(%s)<%s>)" % (", ".join(self.ground_vars), gens)

    # -- sigma / delta, read from the catalog --------------------------------------

    def sigma(self, i, a: RatFunc) -> RatFunc:
        g = self.gens[i]
        v = self.field.index[g.var]
        image = CATALOG[g.kind].sigma
        if image == "x":
            return a
        if image == "x + 1":
            return a.shift_var(v, 1)
        if image == "q*x":
            # x -> q*x is not a polynomial-ring automorphism (images can
            # pick up common powers of q), so renormalize fully
            q = self.field.index[g.param]
            return RatFunc(a.num.scale_var(v, factor_index=q),
                           a.den.scale_var(v, factor_index=q))
        if image == "x^b":
            return RatFunc(a.num.power_var(v, g.mahler_base),
                           a.den.power_var(v, g.mahler_base))
        return a.eval_var(v, g.eval_point)  # x -> c

    def _h(self, i):
        """The h of a sigma-derivation (sigma - 1)/h: 1 or sigma(x) - x."""
        if CATALOG[self.gens[i].kind].h == "1":
            return RatFunc.one(self.field)
        x = RatFunc.from_poly(self.field.var(self.gens[i].var))
        return self.sigma(i, x) - x

    def delta(self, i, a: RatFunc) -> RatFunc:
        g = self.gens[i]
        row = CATALOG[g.kind]
        if row.delta == "0":
            return RatFunc.zero(self.field)
        if row.h is not None:
            d = self.sigma(i, a) - a
            return d if row.h == "1" else d / self._h(i)
        d = a.derivative(self.field.index[g.var])
        return d if row.delta == "d/dx" else d * RatFunc.from_poly(self.field.var(g.var))

    def apply_sigma_delta(self, gen_name, a: RatFunc):
        """(sigma(a), delta(a)) for the named generator."""
        i = self.gen_index[gen_name]
        if any(v >= len(self.field.names) for v in a.variables()):
            raise UnknownVariable("coefficient uses a foreign variable")
        return self.sigma(i, a), self.delta(i, a)

    def linearization(self, i):
        """(a_sigma, b_sigma, a_delta, b_delta, lam): the module operators
        sigma = a_sigma*d + b_sigma, delta = a_delta*d + b_delta, and the
        action d = lam*sigma + delta; every catalog kind is linear.  With
        delta = 0, d acts as sigma; otherwise d acts as delta and
        sigma = 1 + h*delta, h = 0 for the derivations."""
        K = self.field
        zero, one = RatFunc.zero(K), RatFunc.one(K)
        row = CATALOG[self.gens[i].kind]
        if row.delta == "0":
            return one, zero, zero, zero, one
        return zero if row.h is None else self._h(i), one, one, zero, zero

    def _check_commutation(self):
        """Generators on distinct variables commute structurally; pairs that
        share a ground variable must be checked on sample inputs."""
        shared = {}
        for i, g in enumerate(self.gens):
            shared.setdefault(g.var, []).append(i)
        probes = None
        for var, idxs in shared.items():
            if len(idxs) < 2:
                continue
            if probes is None:
                v = self.field.var(var)
                probes = [RatFunc.from_poly(v),
                          RatFunc.from_poly(v * v + 1),
                          RatFunc(self.field.one, v + 2)]
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    i, j = idxs[a], idxs[b]
                    for r in probes:
                        ok = (self.sigma(i, self.sigma(j, r)) == self.sigma(j, self.sigma(i, r))
                              and self.delta(i, self.delta(j, r)) == self.delta(j, self.delta(i, r))
                              and self.delta(i, self.sigma(j, r)) == self.sigma(j, self.delta(i, r))
                              and self.delta(j, self.sigma(i, r)) == self.sigma(i, self.delta(j, r)))
                        if not ok:
                            raise _at_gen(j, AlgebraMismatch(
                                "generators %s and %s on %s do not commute"
                                % (self.gens[i].name, self.gens[j].name, var)))

    # -- element constructors -----------------------------------------------------

    @property
    def zero(self) -> "OrePoly":
        return OrePoly(self, {})

    @property
    def one(self) -> "OrePoly":
        return OrePoly(self, {self._zero_exp: RatFunc.one(self.field)})

    def gen(self, name) -> "OrePoly":
        i = self.gen_index[name]
        e = [0] * self.ngens
        e[i] = 1
        return OrePoly(self, {tuple(e): RatFunc.one(self.field)})

    def scalar(self, c) -> "OrePoly":
        if isinstance(c, MPoly):
            c = RatFunc.from_poly(c)
        elif not isinstance(c, RatFunc):
            c = RatFunc.const(self.field, c)
        if c.is_zero():
            return self.zero
        return OrePoly(self, {self._zero_exp: c})

    def var(self, name) -> "OrePoly":
        return self.scalar(RatFunc.from_poly(self.field.var(name)))


class OrePoly:
    """Skew polynomial: sparse map generator-exponent vector -> RatFunc."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _require_same(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("operands live in different Ore algebras")

    def __add__(self, other):
        if not isinstance(other, OrePoly):
            other = self.algebra.scalar(other)
        self._require_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _acc(terms, e, c)
        return OrePoly(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self):
        return OrePoly(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, OrePoly):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: RatFunc) -> "OrePoly":
        """Left multiplication by a coefficient-field element."""
        if not isinstance(c, RatFunc):
            c = RatFunc.const(self.algebra.field, c)
        if c.is_zero():
            return self.algebra.zero
        return OrePoly(self.algebra, {e: c * v for e, v in self.terms.items()})

    def lmul_gen(self, i) -> "OrePoly":
        """Left multiplication by generator i: the step in the free module,
        where d_i . d^e = d^(e + e_i)."""
        alg = self.algebra
        one = RatFunc.one(alg.field)

        def act(i, e):
            return {e[:i] + (e[i] + 1,) + e[i + 1:]: one}
        return OrePoly(alg, apply_gen(alg, act, i, self.terms))

    def lmul_monomial(self, exp) -> "OrePoly":
        h = self
        for i, e in enumerate(exp):
            for _ in range(e):
                h = h.lmul_gen(i)
        return h

    def __mul__(self, other):
        if not isinstance(other, OrePoly):
            # right multiplication by a scalar is a genuine skew product
            other = self.algebra.scalar(other)
        self._require_same(other)
        alg = self.algebra
        products = {alg._zero_exp: other}  # d^e * other, by e
        out = {}
        for e, c in sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0])):
            for pe, pc in peel_walk(products, e, _lmul_gen).terms.items():
                _acc(out, pe, c * pc)
        return OrePoly(alg, out)

    def __rmul__(self, other):
        # scalar * OrePoly; scalars commute into the coefficient only from the left
        if isinstance(other, (int, Fraction, RatFunc, MPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of an operator")
        result = self.algebra.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def apply_to_ratfunc(self, r: RatFunc) -> RatFunc:
        """Act on an element of the coefficient field: the field is the
        rank-1 module whose basis element 1 has d_i . 1 = lambda_i, the last
        entry of `OreAlgebra.linearization`."""
        alg = self.algebra
        zero = RatFunc.zero(alg.field)
        lams = [alg.linearization(i)[4] for i in range(alg.ngens)]
        step = partial(apply_gen, alg, lambda i, c: {c: lams[i]})
        actions = {alg._zero_exp: {0: r}}  # d^e . r, by e
        total = zero
        for e, c in self.terms.items():
            total = total + c * peel_walk(actions, e, step).get(0, zero)
        return total

    def __repr__(self):
        return "OrePoly(%s)" % self.__str__()

    def __str__(self):
        return format_opoly(self)


# -- walks over generator exponents ------------------------------------------------


def peel_walk(cache, alpha, step):
    """cache[alpha], filled in on a miss by cache[a] = step(i, cache[a - e_i])
    with i the last generator that a involves.

    The cache holds the walk's start (the value at the zero exponent) and
    every value found since; `step(i, v)` applies generator i to v.  The
    walk is a loop, so its length is not bounded by the recursion limit."""
    path = []   # (exponent, generator) of each miss, outermost first
    value = cache.get(alpha)
    while value is None:
        i = max(j for j, x in enumerate(alpha) if x)
        path.append((alpha, i))
        alpha = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        value = cache.get(alpha)
    for a, i in reversed(path):
        value = cache[a] = step(i, value)
    return value


def apply_gen(alg: OreAlgebra, act, i, vec: dict) -> dict:
    """d_i . sum_c u_c e_c = sum_c sigma_i(u_c) (d_i . e_c) + delta_i(u_c) e_c.

    The one sigma/delta step of every module over the algebra: the free
    module, A/I, its direct sums and tensor products, and the coefficient
    field.  `vec` maps basis keys c to coefficients u_c, and `act(i, c)`
    gives d_i . e_c as such a dict.  Each coefficient of the result is
    summed at once (`RatFunc.sum`), over one common denominator."""
    out = {}
    for c, u in vec.items():
        s = alg.sigma(i, u)
        if s:
            for e, v in act(i, c).items():
                out.setdefault(e, []).append(s * v)
        d = alg.delta(i, u)
        if d:
            out.setdefault(c, []).append(d)
    return {e: x for e, x in ((e, RatFunc.sum(xs)) for e, xs in out.items()) if x}


def coefficient_rows(columns, zero, key=None, extra=()):
    """(keys, rows) of the matrix whose columns are the coefficient dicts
    `columns`: one row per key in the union of their supports and `extra`,
    sorted by `key` (the order fixes the pivots, hence the output)."""
    keys = set(extra)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=key)
    return keys, [[col.get(k, zero) for col in columns] for k in keys]


def _lmul_gen(i, f: OrePoly) -> OrePoly:
    return f.lmul_gen(i)


def format_opoly(f: OrePoly) -> str:
    if not f.terms:
        return "0"
    names = [g.name for g in f.algebra.gens]
    bits = []
    for e in sorted(f.terms, key=_grevlex_key, reverse=True):
        c = f.terms[e]
        mono = "*".join(names[i] if d == 1 else "%s^%d" % (names[i], d)
                        for i, d in enumerate(e) if d)
        cs = str(c)
        if mono:
            if c.is_one():
                text = mono
            elif (-c).is_one():
                text = "-" + mono
            else:
                if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                        cs.startswith("(") and cs.endswith(")")):
                    cs = "(%s)" % cs
                text = "%s*%s" % (cs, mono)
        else:
            text = cs
        bits.append(text)
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


# -- telescoping witnesses ---------------------------------------------------------

_TELESCOPABLE = frozenset({
    OreKind.DIFFERENTIATION, OreKind.DIFFERENCE, OreKind.Q_DIFFERENTIATION,
})


def telescopable_witness(algebra: OreAlgebra, gen_name: str):
    """(a, b) with delta(a) = b a nonzero t-free constant, or None.

    Differentiation, difference, and q-differentiation admit a = t with
    b = 1; the pure-substitution kinds have delta = 0 and admit nothing.
    """
    i = algebra.gen_index[gen_name]
    g = algebra.gens[i]
    if g.kind not in _TELESCOPABLE:
        return None
    a = RatFunc.from_poly(algebra.field.var(g.var))
    b = algebra.delta(i, a)
    return a, b


# -- the shift <-> difference transport ---------------------------------------------


def _transport(f: OrePoly, target: OreAlgebra, gen_idx, offset: int) -> OrePoly:
    """Left-linear substitution d_i -> d_i + offset for i in gen_idx."""
    out = {}
    for e, c in f.terms.items():
        parts = [(e, 1)]
        for i in gen_idx:
            d = e[i]
            if d == 0:
                continue
            new_parts = []
            for (pe, pc) in parts:
                for j in range(d + 1):
                    ne = list(pe)
                    ne[i] = j
                    new_parts.append((tuple(ne),
                                      pc * math.comb(d, j) * offset ** (d - j)))
            parts = new_parts
        for pe, pc in parts:
            _acc(out, pe, c * pc)
    return OrePoly(target, out)


def _converted(algebra: OreAlgebra, ops, gen_names, from_kind, to_kind, offset):
    """(algebra with the named generators, of kind from_kind, made to_kind;
    ops transported by d -> d + offset)."""
    gens = []
    for g in algebra.gens:
        if g.name in gen_names and g.kind is not from_kind:
            raise KindMismatch("generator %s has kind %s, expected %s"
                               % (g.name, g.kind.value, from_kind.value))
        gens.append(OreGenerator(g.name, to_kind, g.var) if g.name in gen_names else g)
    target = OreAlgebra(algebra.ground_vars, gens, algebra.params)
    idx = [algebra.gen_index[n] for n in gen_names]
    return target, [_transport(f, target, idx, offset) for f in ops]


def shift_to_difference(f: OrePoly, gen_names) -> OrePoly:
    """Rewrite shift generators as difference generators: S = Delta + 1."""
    return _converted(f.algebra, [f], gen_names, OreKind.SHIFT, OreKind.DIFFERENCE, 1)[1][0]


def difference_to_shift(f: OrePoly, gen_names) -> OrePoly:
    """Inverse of shift_to_difference: Delta = S - 1."""
    return _converted(f.algebra, [f], gen_names, OreKind.DIFFERENCE, OreKind.SHIFT, -1)[1][0]


def as_shifts(algebra: OreAlgebra, ops):
    """(algebra, ops) with every difference generator made a shift by
    Delta = S - 1; the arguments themselves when there is none."""
    names = [g.name for g in algebra.gens if g.kind is OreKind.DIFFERENCE]
    return (_converted(algebra, ops, names, OreKind.DIFFERENCE, OreKind.SHIFT, -1)
            if names else (algebra, ops))
