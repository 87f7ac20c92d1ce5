"""Polynomial growth of annihilating ideals.

For zero-dimensional ideals in difference-differential algebras the
denominator-clearing polynomials P_s, the cumulative lcms of the
normal-form denominators degree by degree, certify the polynomial growth
exponent through their t-degrees; for positive-dimensional ideals no
algorithm is known, so an empirical probe measures the degrees of cleared
normal forms directly and fits the exponent heuristically.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .arith import (MPoly, denominator_lcm, factored_degree_in, factored_expand,
                    factored_merge)
from .dimension import hilbert_dimension
from .errors import BadWindow, NotDifferenceDifferential, NotZeroDimensional
from .groebner import GREVLEX, LeftIdeal, MonomialOrder
from .modp import exponents_up_to
from .ore import CATALOG, OreKind, as_shifts


@dataclass
class UniformReduction:
    """Uniform clearing data: L*NF(d_i d^beta) has polynomial coefficients
    of t-degree at most m, for every generator i and staircase beta."""

    L: MPoly
    m: int
    ell: int
    nu: int
    staircase: tuple
    table: dict  # (i, beta) -> {gamma: RatFunc}
    t_indices: tuple


@dataclass
class GrowthCertificate:
    method: str                  # ExactClearing | HolonomicLPower | EmpiricalProbe
    t_names: tuple
    degrees: list
    p: object                    # int, or None if the fit failed
    degenerate: bool = False
    heuristic: bool = False
    # the clearing polynomials P_s as factor dicts, and their ring; `polys`
    # expands them on first read
    facts: list = dataclass_field(default_factory=list, repr=False)
    ring: object = dataclass_field(default=None, repr=False)
    _polys: list = dataclass_field(default=None, init=False, repr=False, compare=False)

    @property
    def polys(self) -> list:
        """The clearing polynomials P_s, expanded and monic."""
        if self._polys is None:
            self._polys = [factored_expand(A, self.ring) for A in self.facts]
        return self._polys

    def __str__(self):
        tag = " (degenerate)" if self.degenerate else ""
        tag += " (heuristic)" if self.heuristic else ""
        return "growth p=%s by %s over t=%s%s" % (
            self.p, self.method, ",".join(self.t_names), tag)


def _t_indices(algebra, t_names):
    return tuple(algebra.field.index[t] for t in t_names)


def _finite_staircase(gb):
    """All reduced monomials of a zero-dimensional staircase."""
    out = []
    s = 0
    while True:
        level = [e for e in gb.reduced_monomials(s) if sum(e) == s]
        if not level:
            break
        out.extend(level)
        s += 1
    return out


def _classify(algebra):
    """Difference-differential generators: substitutions x -> x + 1 or
    q*x, and derivations (sigma = 1)."""
    subs, ders = [], []
    for i, g in enumerate(algebra.gens):
        row = CATALOG[g.kind]
        if row.delta == "0" and row.sigma in ("x + 1", "q*x"):
            subs.append(i)
        elif row.sigma == "x":
            ders.append(i)
        else:
            raise NotDifferenceDifferential(
                "generator %s of kind %s is not difference-differential"
                % (g.name, g.kind.value))
    return subs, ders


def _zero_dimensional_dd(I: LeftIdeal, order):
    """(substitution, derivation) generator indices of a zero-dimensional
    ideal in a difference-differential algebra; raises otherwise."""
    kinds = _classify(I.algebra)
    if hilbert_dimension(I, order) != 0:
        raise NotZeroDimensional("ideal is not 0-dimensional")
    return kinds


def uniform_reduction_data(I: LeftIdeal, t_names,
                           order: MonomialOrder = GREVLEX) -> UniformReduction:
    """The (L, m) clearing pair read off the finite normal-form table."""
    algebra = I.algebra
    subs, ders = _zero_dimensional_dd(I, order)
    gb = I.groebner_basis(order)
    t_idx = _t_indices(algebra, t_names)
    staircase = _finite_staircase(gb)
    table = {(i, beta): gb.table(i, beta)
             for i in range(algebra.ngens) for beta in staircase}
    L = denominator_lcm((c for entries in table.values()
                         for c in entries.values()), algebra.field)
    m = 0
    for entries in table.values():
        for c in entries.values():
            m = max(m, c.numer.degree_in(t_idx))
    return UniformReduction(L=L, m=m, ell=L.degree_in(t_idx),
                            nu=1 if ders else 0,
                            staircase=tuple(staircase), table=table,
                            t_indices=t_idx)


# the shortest window a growth certificate is computed for: the exponent
# fit (`_fit_exponent`) reads the last half of the degree sequence
MIN_WINDOW = 8


def _check_window(window):
    if window < MIN_WINDOW:
        raise BadWindow("window must be at least %d" % MIN_WINDOW)


def _clearing_lcms(gb, t_idx, window):
    """For s = 1..window: the lcm of the denominators in the normal forms of
    all monomials of total degree <= s, factored (`arith.factored_merge`:
    the max of the aligned factor dicts; expanding these products of
    shifted factors makes the gcd work explode), and the largest t-degree
    of the numerators there."""
    n = gb.algebra.ngens
    lcm = {}
    top = 0
    for s in range(1, window + 1):
        for alpha in exponents_up_to(n, s):
            if sum(alpha) != s:
                continue
            for c in gb.phi(alpha).values():
                factored_merge(lcm, c.fac)
                top = max(top, c.numer.degree_in(t_idx))
        yield dict(lcm), top


def growth_zero_dimensional(I: LeftIdeal, t_names, window: int = 10,
                            order: MonomialOrder = GREVLEX) -> GrowthCertificate:
    """Clearing-polynomial certificate for a zero-dimensional ideal.

    The certificate's sequence is the minimal one: the cumulative lcm of
    the reduced normal-form denominators degree by degree, which is an
    exact clearing family (P_0 = 1, P_s | P_{s+1}) and coincides with the
    closed forms known for the classical cases (products of shifted
    factors for hypergeometric ideals, L^s for the purely differential
    case).

    Shift algebras are difference-differential as they stand; ideals
    presented with difference generators are transported to shift form
    first (the two have the same polynomial growth)."""
    algebra, gens = as_shifts(I.algebra, I.generators)
    if algebra is not I.algebra:
        I = LeftIdeal(algebra, gens)
    _check_window(window)
    subs, ders = _zero_dimensional_dd(I, order)
    t_idx = _t_indices(algebra, t_names)
    gb = I.groebner_basis(order)
    facts = [{}] + [lcm for lcm, _ in _clearing_lcms(gb, t_idx, window)]
    degrees = [factored_degree_in(A, t_idx) for A in facts]
    p, degenerate = _fit_exponent(degrees)
    method = "ExactClearing"
    if ders and not subs and all(
            g.kind is OreKind.DIFFERENTIATION for g in algebra.gens):
        method = "HolonomicLPower"
    return GrowthCertificate(method=method, t_names=tuple(t_names),
                             degrees=degrees, p=p, degenerate=degenerate,
                             heuristic=False, facts=facts, ring=algebra.field)


def growth_probe(I: LeftIdeal, t_names, window: int = 10,
                 order: MonomialOrder = GREVLEX) -> GrowthCertificate:
    """Empirical growth probe for arbitrary ideals.

    Clears the normal forms of all monomials degree by degree and records
    the t-degree needed; the fitted exponent is a heuristic witness tied
    to this particular graded order, not a proof.
    """
    algebra = I.algebra
    _check_window(window)
    gb = I.groebner_basis(order)
    t_idx = _t_indices(algebra, t_names)
    degrees = [0] + [max(factored_degree_in(lcm, t_idx), top)
                     for lcm, top in _clearing_lcms(gb, t_idx, window)]
    p, degenerate = _fit_exponent(degrees)
    return GrowthCertificate(method="EmpiricalProbe", t_names=tuple(t_names),
                             degrees=degrees, p=p, degenerate=degenerate,
                             heuristic=True)


def _fit_exponent(degrees):
    """Smallest difference order at which the degree sequence stabilizes
    over the last half of the window; (p, degenerate)."""
    if all(d == 0 for d in degrees):
        return 0, True
    seq = list(degrees)
    for p in range(len(degrees)):
        tail = seq[max(1, len(seq) // 2):]
        if tail and all(x == tail[0] for x in tail):
            return p, False
        seq = [b - a for a, b in zip(seq, seq[1:])]
        if not seq:
            break
    return None, False
