"""Hilbert function and dimension from the staircase of a graded basis.

The staircase corners are the leading exponents of the reduced basis; the
dimension is read combinatorially as the largest coordinate subspace of
exponent space avoiding every corner's support.
"""
from __future__ import annotations

from itertools import combinations

from .groebner import GREVLEX, LeftIdeal, MonomialOrder

#: distinguished dimension of the unit ideal (empty staircase complement)
UNIT_IDEAL = "empty"


def hilbert_function(I: LeftIdeal, s: int, order: MonomialOrder = GREVLEX) -> int:
    """Number of exponents of total degree <= s outside the staircase."""
    gb = I.groebner_basis(order)
    return len(gb.reduced_monomials(s))


def hilbert_dimension(I: LeftIdeal, order: MonomialOrder = GREVLEX):
    """Degree of the eventual Hilbert polynomial.

    Returns UNIT_IDEAL for the unit ideal (no reduced monomials at all);
    the zero ideal in n generators has dimension n.
    """
    gb = I.groebner_basis(order)
    return staircase_dimension(gb.corners, I.algebra.ngens)


def staircase_dimension(corners, ngens):
    if any(not any(e) for e in corners):
        return UNIT_IDEAL
    supports = [frozenset(i for i, d in enumerate(e) if d) for e in corners]
    best = 0
    for size in range(ngens, 0, -1):
        for T in combinations(range(ngens), size):
            tset = set(T)
            if not any(sup <= tset for sup in supports):
                return size
    return best


def free_generator_subset(I: LeftIdeal, size: int,
                          order: MonomialOrder = GREVLEX):
    """A size-subset T of the generators such that no staircase corner has
    support inside T (hence I has no nonzero element in those generators
    alone); None when no such subset exists."""
    gb = I.groebner_basis(order)
    supports = [frozenset(i for i, d in enumerate(e) if d) for e in gb.corners]
    for T in combinations(range(I.algebra.ngens), size):
        tset = set(T)
        if not any(sup <= tset for sup in supports):
            return tuple(I.algebra.gens[i].name for i in T)
    return None
