"""Exact arithmetic: sparse multivariate polynomials over arbitrary-precision
rationals, normalized rational functions, gcd/squarefree machinery, and
linear algebra over the rational-function field: kernels rebuilt from
point solves mod p (with `modp`) or found by fraction-free elimination,
and checked exactly either way.

Coefficients are stored as a Python `int` whenever they are integral and as
a `Fraction` only when they are not (`_coef` is the one normaliser; it
rejects floats).  Most coefficients the engine meets are integers, and int
arithmetic is several times cheaper than Fraction arithmetic.  An integral
`Fraction` built by hand is still a legal coefficient, since it compares
and hashes equal to its int.  Every coefficient division goes through the
exact quotient `_qdiv` (or `_inv`): in Python `int / int` is a float, so a
bare `/` between coefficients would silently leave exact arithmetic.

Everything here is immutable and pure; all the operator algebra upstairs is
built on these coefficients.
"""
from __future__ import annotations

import heapq
import itertools
import math
import numbers
import operator
import random
from fractions import Fraction

from .errors import ZeroPolynomial
from .modp import (
    _echelon_insert_mod_p,
    _gcd_mod_p,
    _interpolate_lines,
    _line_numerators,
    _modp_univ_gcd,
    _point_solver,
    _rational_lift,
)


def _coef(c):
    """c as a stored coefficient: an int when c is integral, else a
    Fraction; a float (or any other non-rational) raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, numbers.Rational):
        return _coef(Fraction(c))
    raise TypeError("coefficient must be an int or a Fraction, not %s"
                    % type(c).__name__)


def _qdiv(a, b):
    """The exact quotient a/b of two coefficients, as a coefficient: by
    divmod when both are ints and b divides a, else through Fraction
    (never `/`, which gives a float on two ints)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coef(Fraction(a, b))


def _inv(c):
    """1/c as a coefficient."""
    return _qdiv(1, c)


def _fix(terms: dict) -> dict:
    """terms with each integral Fraction value replaced by its int, in
    place; for results of arithmetic that may involve a Fraction."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _all_int(terms: dict) -> bool:
    return all(type(c) is int for c in terms.values())


class PolyRing:
    """Q[x1,...,xm], identified (and interned) by its ordered variable names."""

    _interned: dict = {}

    def __new__(cls, names):
        names = tuple(names)
        ring = cls._interned.get(names)
        if ring is not None:
            return ring
        ring = super().__new__(cls)
        ring.names = names
        ring.index = {n: i for i, n in enumerate(names)}
        ring.nvars = len(names)
        ring._zero_exp = (0,) * len(names)
        ring._zero = None
        ring._one = None
        cls._interned[names] = ring
        return ring

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)

    @property
    def zero(self) -> "MPoly":
        if self._zero is None:
            self._zero = MPoly(self, {})
        return self._zero

    @property
    def one(self) -> "MPoly":
        if self._one is None:
            self._one = MPoly(self, {self._zero_exp: 1})
        return self._one

    def const(self, c) -> "MPoly":
        c = _coef(c)
        if c == 0:
            return self.zero
        return MPoly(self, {self._zero_exp: c})

    def var(self, name) -> "MPoly":
        i = self.index[name]
        exp = [0] * self.nvars
        exp[i] = 1
        return MPoly(self, {tuple(exp): 1})

    def monomial(self, exp, coeff=1) -> "MPoly":
        coeff = _coef(coeff)
        if coeff == 0:
            return self.zero
        return MPoly(self, {tuple(exp): coeff})


def _grevlex_key(exp):
    # graded reverse lexicographic; max() of keys picks the leading exponent
    return (sum(exp),) + tuple(map(operator.neg, exp[::-1]))


class MPoly:
    """Sparse multivariate polynomial: map exponent vector -> coefficient.

    Invariants: no zero coefficients are stored, and all exponent vectors
    have the ring's arity, so equal polynomials have identical term maps.
    A coefficient is an int when it is integral and a Fraction only when it
    is not (see the module docstring); the operations keep it so.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates and inspection --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_exp in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        return self.terms.get(self.ring._zero_exp, 0)

    def is_one(self) -> bool:
        return self.terms.get(self.ring._zero_exp) == 1 and len(self.terms) == 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var_indices) -> int:
        """Total degree in the given subset of variables (-1 for zero)."""
        if not self.terms:
            return -1
        return max(sum(e[i] for i in var_indices) for e in self.terms)

    def variables(self):
        """Indices of variables that actually occur."""
        seen = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    seen.add(i)
        return seen

    def leading(self):
        """(exponent, coefficient) of the grevlex-leading term."""
        if not self.terms:
            raise ZeroPolynomial("leading term of zero polynomial")
        exp = max(self.terms, key=_grevlex_key)
        return exp, self.terms[exp]

    def leading_coeff(self):
        return self.leading()[1]

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = self.ring.const(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            if cur is None:
                terms[e] = c
            else:
                cur = cur + c
                if cur:
                    terms[e] = cur if type(cur) is int else _coef(cur)
                else:
                    del terms[e]
        return MPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # a constant factor scales the other operand's terms and keeps its
        # exponent keys; a unit factor returns it, as MPoly is never mutated
        if isinstance(other, MPoly):
            if other.is_constant():
                c = other.constant_value()
            elif self.is_constant():
                self, c = other, self.constant_value()
            else:
                c = None
        else:
            c = _coef(other)
        if c is not None:
            if c == 0:
                return self.ring.zero
            if c == 1:
                return self
            out = {e: v * c for e, v in self.terms.items()}
            return MPoly(self.ring, out if type(c) is int and _all_int(self.terms)
                         else _fix(out))
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        add = operator.add
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        out = {e: c for e, c in out.items() if c}
        return MPoly(self.ring, out if _all_int(a) and _all_int(b) else _fix(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / substitution ------------------------------------------------

    def derivative(self, i) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MPoly(self.ring, _fix(out))

    def shift_var(self, i, offset) -> "MPoly":
        """Substitute x_i -> x_i + offset (offset a rational constant)."""
        if offset == 0:
            return self
        offset = _coef(offset)
        out = {}
        for e, c in self.terms.items():
            d = e[i]
            if d == 0:
                _acc(out, e, c)
                continue
            # (x+t)^d expanded over binomials
            for j in range(d + 1):
                ne = list(e)
                ne[i] = j
                _acc(out, tuple(ne), c * math.comb(d, j) * offset ** (d - j))
        return MPoly(self.ring, out)

    def scale_var(self, i, factor_index=None, factor=None) -> "MPoly":
        """Substitute x_i -> q*x_i where q is the variable at factor_index,
        or x_i -> factor*x_i for a rational factor."""
        out = {}
        for e, c in self.terms.items():
            d = e[i]
            if factor_index is not None and d:
                ne = list(e)
                ne[factor_index] += d
                e = tuple(ne)
            if factor is not None and d:
                c = c * _coef(factor) ** d
            _acc(out, e, c)
        return MPoly(self.ring, out)

    def power_var(self, i, b) -> "MPoly":
        """Substitute x_i -> x_i**b (Mahler substitution)."""
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] *= b
            _acc(out, tuple(ne), c)
        return MPoly(self.ring, out)

    def eval_var(self, i, value: "RatFunc") -> "RatFunc":
        """Substitute a rational function for x_i, by Horner in x_i."""
        groups = {}
        for e, c in self.terms.items():
            ne = list(e)
            d = ne[i]
            ne[i] = 0
            g = groups.setdefault(d, {})
            _acc(g, tuple(ne), c)
        if not groups:
            return RatFunc.zero(self.ring)
        result = RatFunc.zero(self.ring)
        prev = None
        for d in sorted(groups, reverse=True):
            if prev is not None:
                result = result * value ** (prev - d)
            result = result + RatFunc.from_poly(MPoly(self.ring, groups[d]))
            prev = d
        if prev:
            result = result * value ** prev
        return result

    def eval_point(self, values):
        """Evaluate at a full rational point (sequence indexed like the
        ring): exact, an int when the point and the coefficients are."""
        values = [_coef(x) for x in values]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, p in zip(values, e):
                if p:
                    v *= x ** p
            total += v
        return total

    # -- normalization ----------------------------------------------------------

    def rational_content(self):
        """Positive rational c with self/c integer-coefficient and primitive."""
        if _all_int(self.terms):
            return math.gcd(*self.terms.values()) or 1
        return _rows_rational_content([self])

    def primitive(self) -> "MPoly":
        return _divided(self, self.rational_content())

    def monic(self) -> "MPoly":
        """Divide by the grevlex leading coefficient."""
        if not self.terms:
            return self
        return _divided(self, self.leading_coeff())

    def __repr__(self):
        return "MPoly(%s)" % format_poly(self)

    def __str__(self):
        return format_poly(self)


def _divided(f: MPoly, c) -> MPoly:
    """f with every coefficient divided exactly by the nonzero constant c
    (by one inverse when c is not an int)."""
    if c == 1:
        return f
    if c == -1:
        return -f
    if type(c) is not int:
        return f * _inv(c)
    return MPoly(f.ring, {e: _qdiv(v, c) for e, v in f.terms.items()})


def _acc(d, e, c):
    """d[e] += c, storing no zero: the one sparse accumulator, for
    coefficient and RatFunc values alike (both are false exactly when
    zero).  An integral Fraction is stored as its int."""
    cur = d.get(e)
    if cur is not None:
        c = cur + c
    if c:
        d[e] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
    elif cur is not None:
        del d[e]


# -- pretty printing -----------------------------------------------------------

def format_poly(p: MPoly) -> str:
    if not p.terms:
        return "0"
    names = p.ring.names
    bits = []
    for e in sorted(p.terms, key=_grevlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(
            names[i] if d == 1 else "%s^%d" % (names[i], d)
            for i, d in enumerate(e) if d
        )
        if mono:
            if c == 1:
                text = mono
            elif c == -1:
                text = "-" + mono
            else:
                text = "%s*%s" % (_fmt_coeff(c), mono)
        else:
            text = _fmt_coeff(c)
        bits.append(text)
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def _fmt_coeff(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# -- exact division and gcd ------------------------------------------------------

def _heap_key(exp):
    # negated grevlex key, flat: heapq pops the order-largest exponent
    # first, the key of a product of monomials is the sum of their keys,
    # and key[:0:-1] is the exponent again
    return (-sum(exp),) + exp[::-1]


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial division; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_one():
        return f
    if g.is_constant():
        return _divided(f, g.constant_value())
    ge, gc = g.leading()
    gk = _heap_key(ge)
    # the remainder and the heap are keyed by `_heap_key`, so each step
    # adds keys and never builds an exponent it does not store
    rem = {_heap_key(e): c for e, c in f.terms.items()}
    heap = list(rem)
    heapq.heapify(heap)
    quo = {}
    gitems = [(_heap_key(e), c) for e, c in g.terms.items() if e != ge]
    while heap:
        fk = heapq.heappop(heap)
        fc = rem.pop(fk, None)
        if fc is None:
            continue  # cancelled, or a repeat of a key pushed again
        qk = tuple(map(operator.sub, fk, gk))
        if any(x < 0 for x in qk[1:]):
            raise ValueError("not divisible")
        qc = _qdiv(fc, gc)
        quo[qk[:0:-1]] = qc
        for ek, c in gitems:
            tk = tuple(map(operator.add, qk, ek))
            cur = rem.get(tk)
            if cur is None:
                rem[tk] = -qc * c
                heapq.heappush(heap, tk)
            else:
                cur -= qc * c
                if cur:
                    rem[tk] = cur
                else:
                    del rem[tk]
    if rem:
        raise ValueError("not divisible")
    return MPoly(f.ring, quo)


def divides(g: MPoly, f: MPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ValueError:
        return False


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Monic gcd; poly_gcd(0, b) is the monic normalization of b."""
    return poly_cofactors(a, b)[0]


def poly_cofactors(a: MPoly, b: MPoly):
    """(g, a/g, b/g) with g = poly_gcd(a, b), the quotients exact.

    They are the quotients the gcd's verifying division computed, so no
    caller divides twice.  A trivial gcd returns a and b themselves; for
    a = b = 0 all three are 0."""
    ring = a.ring
    if a.is_zero():
        return b.monic(), a, ring.const(b.leading_coeff()) if b else b
    if b.is_zero():
        return a.monic(), ring.const(a.leading_coeff()), b
    if a.is_constant() or b.is_constant():
        return ring.one, a, b
    if a.terms == b.terms:
        lc = ring.const(a.leading_coeff())
        return a.monic(), lc, lc
    ca, cb = a.rational_content(), b.rational_content()
    g, qa, qb = _modular_gcd(_divided(a, ca), _divided(b, cb))
    if g.is_one():
        return g, a, b
    lc = g.leading_coeff()
    return g.monic(), _scaled(qa, ca * lc), _scaled(qb, cb * lc)


def _scaled(f: MPoly, c) -> MPoly:
    # f * c, with no call (and no traced product) when c is 1
    return f if c == 1 else f * c


def poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero() or b.is_zero():
        return a.ring.zero
    return (a * poly_cofactors(a, b)[2]).monic()


def denominator_lcm(values, ring) -> MPoly:
    """Monic lcm of the denominators of the RatFunc values (ring.one for
    none)."""
    return _lcm_fold(values, ring)[0]


def _lcm_fold(values, ring):
    """(L, steps): L the monic lcm of the denominators of the RatFunc
    values, folded left to right over the distinct ones (a repeat divides
    the lcm already), and steps the fold's (d, L'/g, d/g) per distinct
    denominator d, L' the lcm before d and g = gcd(L', d).  These are
    `poly_cofactors`' quotients, so L/d is L'/g times the factors d/g of
    every later step (`_lcm_quotients`), with no division."""
    den = ring.one
    steps = []
    seen = set()
    for x in values:
        d = x.den
        if not d.is_one() and d not in seen:
            seen.add(d)
            # L' and d are monic, so d/g is monic and L'*(d/g) is the lcm
            _, den_g, d_g = poly_cofactors(den, d)
            den = den * d_g
            steps.append((d, den_g, d_g))
    return den, steps


def _lcm_quotients(den, steps, ring) -> dict:
    """{d: L/d} for the lcm L = den of `_lcm_fold` and its distinct
    denominators d, and {1: L}: products of the fold's cofactors, taken
    from the last step back."""
    out = {ring.one: den}
    later = ring.one  # the product of d/g over the steps after step i
    for i in range(len(steps) - 1, -1, -1):
        d, den_g, d_g = steps[i]
        out[d] = den_g * later
        if i:
            later = later * d_g
    return out


# -- modular gcd (rebuilt along lines mod p, division-verified) --------------------

# Mersenne primes large enough that verified lifts virtually never retry
_GCD_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1)


def _gcd_primes():
    """The moduli `_modular_gcd` tries, in order; the sequence never ends.

    After the Mersenne primes come, for m = 128, 256, 512, ..., the least
    prime k*2^m + 1 with k odd that Proth's theorem proves prime: such an n
    is prime as soon as a^((n-1)/2) = -1 (mod n) for some a.  The primes
    grow without bound, so every lift eventually fits, and each prime
    brings its own point and directions, so an input meets no unlucky
    choice that repeats from prime to prime."""
    yield from _GCD_PRIMES
    m = 128
    while True:
        k = 1
        while not _proth_prime((k << m) + 1):
            k += 2
        yield (k << m) + 1
        m *= 2


def _proth_prime(n) -> bool:
    """True only for a proven prime n = k*2^m + 1 with k < 2^m; False may
    also skip a prime, which only moves the search to the next k."""
    half = n >> 1
    for a in (3, 5, 7, 11, 13, 17, 19, 23):
        r = pow(a, half, n)
        if r == n - 1:
            return True
        if r != 1:
            return False  # Euler's criterion fails: n is composite
    return False


def _modular_gcd(a: MPoly, b: MPoly):
    """(h, a/h, b/h) for integer-primitive a, b and h their primitive gcd.

    First, image bounds (Brown 1971).  For each variable v both operands
    contain, a and b are taken mod `_IMAGE_PRIME` at `_IMAGE_POINT` in every
    variable but v.  By Gauss's lemma h divides a over Z, so lc_v(h)
    divides lc_v(a); where lc_v(a) does not vanish at the point, the image
    of h keeps its degree in v and divides the image of a.  So the degree
    of the univariate gcd of the images bounds deg_v(h) whenever neither
    leading coefficient vanishes; a variable only one operand contains has
    bound 0.  All bounds 0 means h = 1.  An operand whose degrees meet
    every bound is the only candidate, accepted once it divides the other
    operand exactly.

    Otherwise h is rebuilt mod p along lines (`modp._gcd_mod_p`, after
    Kaltofen 1988), for each p of `_gcd_primes` that does not divide
    gamma = gcd(lc(a), lc(b)).  Only the live variables are rebuilt: those
    of positive bound, or every variable when a leading coefficient
    vanished.  h lives in them, and the others take values drawn for this
    p, so the images of h divide the images of a and b.  lc(h) divides
    gamma, so h mod p keeps its leading term, and gamma/lc(h)*h has integer
    coefficients: the rebuild, scaled to gamma at its leading term and
    lifted symmetrically, is that polynomial once p is large enough.

    Soundness.  On a certified line (see `modp._gcd_mod_p`) the gcd of the
    images has a degree deg G at least the total degree of h.  "h = 1" is
    returned only from all-zero bounds or from a certified deg G = 0.  A
    candidate is returned only when it divides a and b exactly and has
    total degree deg G: it divides h and its degree is at least that of h,
    so it is h.  The exact divisions give the quotients.

    Termination.  A prime fails when the image of an operand vanishes,
    when the line proves nothing, or when the candidate fails a check, and
    the next prime comes with a fresh point.  The primes grow without
    bound, so the lift fits from some prime on, and only an unlucky draw,
    of vanishing chance at primes this large, fails there.
    """
    one = a.ring.one
    bounds = _image_bounds(a, b)
    if bounds is not None:
        if not any(bounds):
            return one, a, b
        for f, other in ((a, b), (b, a)):
            if _degrees(f) == bounds:
                try:
                    q = exact_div(other, f)
                except ValueError:
                    continue
                return (f, one, q) if f is a else (f, q, one)
        live = [v for v, d in enumerate(bounds) if d]
    else:
        live = sorted(a.variables() | b.variables())
    gamma = math.gcd(a.leading_coeff().numerator, b.leading_coeff().numerator)
    nvars = a.ring.nvars
    for p in _gcd_primes():
        if gamma % p == 0:
            continue
        rng = random.Random(p ^ 0xB0B)
        dead = [(i, rng.randrange(p)) for i in range(nvars) if i not in live]
        images = [{e: v for e, v in _image_mod_p(f, dead, live, p).items() if v}
                  for f in (a, b)]
        if not all(images):
            continue
        x0 = tuple(rng.randrange(p) for _ in live)
        generic = (1,) + tuple(rng.randrange(p) for _ in live[1:])
        res = _gcd_mod_p(*images, x0, generic, p)
        if res is None:
            continue
        half = p // 2
        terms = {}
        for e, v in res.items():
            full = [0] * nvars
            for i, d in zip(live, e):
                full[i] = d
            terms[tuple(full)] = v
        scale = gamma * pow(terms[max(terms, key=_grevlex_key)], -1, p)
        for e, v in terms.items():
            v = v * scale % p
            terms[e] = v - p if v > half else v
        cand = MPoly(a.ring, terms).primitive()
        try:
            return cand, exact_div(a, cand), exact_div(b, cand)
        except ValueError:
            continue


# The module's mod-p decisions (gcd image bounds, row selection) are made at
# this point mod this prime, variable i taking _IMAGE_POINT[i % 16].  Both
# are fixed, so a result depends on no hidden state; an unlucky point only
# sends a gcd down the interpolating path or a solve into more verifying
# rounds.
_IMAGE_PRIME = 2 ** 61 - 1
_IMAGE_POINT = tuple(random.Random(0x6CD).sample(range(2, _IMAGE_PRIME), 16))


def _image_point(nvars) -> list:
    return [_IMAGE_POINT[i % len(_IMAGE_POINT)] for i in range(nvars)]


def _degrees(f: MPoly) -> list:
    """deg_v(f) for every variable v of the ring (f nonzero)."""
    return [max(col) for col in zip(*f.terms)]


def _image_bounds(a: MPoly, b: MPoly):
    """Per variable v, deg_v of the gcd of the images of the
    integer-coefficient a and b mod `_IMAGE_PRIME` with every other
    variable at `_IMAGE_POINT`, and 0 where one of them lacks v; None when
    lc_v(a) or lc_v(b) vanishes there."""
    p = _IMAGE_PRIME
    point = _image_point(a.ring.nvars)
    da, db = _degrees(a), _degrees(b)
    wa, wb = _term_values_mod_p(a, point, p), _term_values_mod_p(b, point, p)
    bounds = [0] * len(point)
    for v, x in enumerate(point):
        if not (da[v] and db[v]):
            continue
        inv = pow(x, -1, p)
        ia = _image_in(wa, v, da[v], inv, p)
        ib = _image_in(wb, v, db[v], inv, p)
        if not (ia[-1] and ib[-1]):
            return None
        bounds[v] = len(_modp_univ_gcd(ia, ib, p)) - 1
    return bounds


def _term_values_mod_p(f: MPoly, point, p):
    """(exponent, value mod p at the point) per term of f; None when p
    divides a coefficient denominator."""
    out = []
    for e, c in f.terms.items():
        if type(c) is int:
            w = c % p
        elif c.denominator % p:
            w = c.numerator * pow(c.denominator, -1, p) % p
        else:
            return None
        for x, d in zip(point, e):
            if d:
                w = w * pow(x, d, p) % p
        out.append((e, w))
    return out


def _image_in(values, v, deg, inv, p):
    """Dense coefficients in x_v of the image whose term values are
    `values`, inv being the inverse of x_v's point value: each term's x_v
    factor is divided back out."""
    coeffs = [0] * (deg + 1)
    for e, w in values:
        d = e[v]
        coeffs[d] += w * pow(inv, d, p) if d else w
    return [c % p for c in coeffs]


# factored polynomials: {monic factor: multiplicity} with pairwise-coprime
# factors; lcms and degree reads stay cheap on the shifted-factor products
# this engine generates, where the expanded forms explode


def _divide_out(b: MPoly, f: MPoly):
    """(k, f / b^k) for the largest k with b^k dividing f (b non-constant)."""
    k = 0
    while True:
        try:
            f = exact_div(f, b)
        except ValueError:
            return k, f
        k += 1


def factored_merge(A: dict, q: MPoly) -> None:
    """A := lcm(A, q) in place.

    Keys stay monic and pairwise coprime.  When trial division by the keys
    already in A takes q down to a constant, q is a product of keys and only
    their multiplicities change.  Otherwise the pieces are refined as
    triples (f, a, b) whose f^a multiply to A's product and whose f^b
    multiply to q: A's keys, each with the multiplicity the trial division
    found in q, and the leftover r as (r, 0, 1).  A piece x that meets a
    piece f in a nontrivial g = gcd(f, x) is replaced, with f, by
    (f/g, a_f, b_f), (g, a_f + a_x, b_f + b_x) and (x/g, a_x, b_x), which
    keeps both products, as f^a x^b = (f/g)^a g^(a+b) (x/g)^b for either
    pair of exponents.  Every split lowers the total degree of the pieces,
    so the loop ends, with pairwise-coprime pieces, and then the lcm is the
    product of the f^max(a, b) (Bach, Driscoll and Shallit, "Factor
    refinement", 1993)."""
    q = q.monic()
    if q.is_constant():
        return
    rest, mults = q, {}
    for b in A:
        if rest.is_constant():
            break
        j, rest = _divide_out(b, rest)
        if j:
            mults[b] = j
    if rest.is_constant():
        for b, j in mults.items():
            A[b] = max(A[b], j)
        return
    pieces = [(f, a, mults.get(f, 0)) for f, a in A.items()]
    # q and the pieces are monic, so are the exact quotients rest, f/g, x/g
    stack = [(rest, 0, 1)]
    while stack:
        x, ax, bx = stack.pop()
        for i, (f, af, bf) in enumerate(pieces):
            g, f_g, x_g = poly_cofactors(f, x)
            if not g.is_constant():
                break
        else:
            pieces.append((x, ax, bx))
            continue
        del pieces[i]
        stack.append((g, af + ax, bf + bx))
        for y, a, b in ((f_g, af, bf), (x_g, ax, bx)):
            if not y.is_constant():
                stack.append((y, a, b))
    A.clear()
    for f, a, b in pieces:
        A[f] = max(a, b)


def factored_expand(A: dict, ring) -> MPoly:
    out = ring.one
    for f, m in sorted(A.items(), key=lambda t: sorted(t[0].terms)):
        out = out * f ** m
    return out.monic()


def squarefree_part(a: MPoly, var_indices) -> MPoly:
    """Product of the distinct irreducible factors of `a` involving the
    given variables: a / gcd(a, all partials); result divides a."""
    if a.is_zero():
        raise ZeroPolynomial("squarefree part of zero")
    g = a
    for v in var_indices:
        d = a.derivative(v)
        if d.is_zero():
            continue
        g = poly_gcd(g, d)
        if g.is_constant():
            break
    if g.is_constant():
        return a.monic()
    return exact_div(a, g).monic()


# -- rational functions -----------------------------------------------------------


class RatFunc:
    """Normalized fraction of two MPoly: gcd(num, den) = 1 and den monic.

    `__init__` is the one normalising constructor.  The field operations
    build their results with `_raw`, taking gcds only where a common factor
    can survive (Henrici's rules; Knuth, TAOCP 2, 4.5.1):

    - a/b + c/d with g = gcd(b, d): if g = 1 the sum is (ad + cb)/(bd).
      Otherwise t = a(d/g) + c(b/g) over b(d/g), and only h = gcd(t, g)
      can cancel: a prime dividing b/g divides c(b/g) but neither a nor
      d/g, so it does not divide t, and likewise for d/g.  A polynomial
      operand (b or d = 1) needs no gcd at all.
    - (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d) and
      g2 = gcd(c, b), since a, b and c, d are coprime already.

    Both results are coprime, and their denominators are products and
    quotients of monic polynomials, so monic: the same pair `__init__`
    would build from the unreduced fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num.ring.zero
            self.den = num.ring.one
            return
        if not den.is_one():
            if den.is_constant():
                num = _divided(num, den.constant_value())
                den = den.ring.one
            else:
                _, num, den = poly_cofactors(num, den)
                lc = den.leading_coeff()
                num = _divided(num, lc)
                den = _divided(den, lc)
        self.num = num
        self.den = den

    # trusted constructor: used where coprimality/monicity is already known
    @classmethod
    def _raw(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls, ring) -> "RatFunc":
        return cls._raw(ring.zero, ring.one)

    @classmethod
    def one(cls, ring) -> "RatFunc":
        return cls._raw(ring.one, ring.one)

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        return cls._raw(p, p.ring.one)

    @classmethod
    def const(cls, ring, c) -> "RatFunc":
        return cls._raw(ring.const(c), ring.one)

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms:
            return other
        if not c.terms:
            return self
        if b.is_one():
            return RatFunc._raw(a * d + c, d)
        if d.is_one():
            return RatFunc._raw(a + c * b, b)
        if b.terms == d.terms:
            g, num, bg, dg = b, a + c, None, None
        else:
            g, bg, dg = poly_cofactors(b, d)
            if g.is_one():
                return RatFunc._raw(a * d + c * b, b * d)
            num = a * dg + c * bg
        if not num.terms:
            return RatFunc.zero(num.ring)
        h, num_h, g_h = poly_cofactors(num, g)
        if not h.is_one():
            # b/h = (g/h)(b/g)
            num, b = num_h, g_h if bg is None else g_h * bg
        return RatFunc._raw(num, b if dg is None else b * dg)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # both factors are normalized, so a unit factor needs no gcd
        if self.is_one():
            return other
        if other.is_one():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms or not c.terms:
            return RatFunc.zero(a.ring)
        if not (d.is_one() or a.is_constant()):
            _, a, d = poly_cofactors(a, d)
        if not (b.is_one() or c.is_constant()):
            _, c, b = poly_cofactors(c, b)
        return RatFunc._raw(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        lc = self.num.leading_coeff()
        return RatFunc._raw(_divided(self.den, lc), _divided(self.num, lc))

    def __pow__(self, n):
        if n == 0:
            return RatFunc.one(self.ring)
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime, of monic ones monic
        return RatFunc._raw(self.num ** n, self.den ** n)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.ring, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def derivative(self, i) -> "RatFunc":
        n, d = self.num, self.den
        if d.is_one():
            return RatFunc.from_poly(n.derivative(i))
        return RatFunc(n.derivative(i) * d - n * d.derivative(i), d * d)

    def shift_var(self, i, offset) -> "RatFunc":
        # field automorphism: preserves coprimality, may break monicity
        num = self.num.shift_var(i, offset)
        den = self.den.shift_var(i, offset)
        lc = den.leading_coeff()
        return RatFunc._raw(_divided(num, lc), _divided(den, lc))

    def eval_var(self, i, value: "RatFunc") -> "RatFunc":
        return self.num.eval_var(i, value) / self.den.eval_var(i, value)

    def eval_point(self, values) -> Fraction:
        """The exact value at a full rational point, always a Fraction (the
        parts may be ints, and `/` on two ints would give a float)."""
        d = self.den.eval_point(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return Fraction(self.num.eval_point(values), d)

    def __repr__(self):
        return "RatFunc(%s)" % self.__str__()

    def __str__(self):
        if self.den.is_one():
            return format_poly(self.num)
        ns = format_poly(self.num)
        ds = format_poly(self.den)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        if len(self.den.terms) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)


# -- linear algebra ---------------------------------------------------------------


def nullspace(rows) -> list:
    """Basis of the right nullspace of a matrix of RatFunc entries.

    Exact fraction-free elimination with lowest-degree pivoting; returned
    vectors have polynomial entries, cleared of denominators and
    content-reduced, with a deterministic sign.
    """
    rows = list(rows)
    ring = next((x.ring for row in rows for x in row), None)
    if ring is None:
        return []
    poly_rows = [_clear_row(row, ring) for row in rows]
    return nullspace_poly(poly_rows, len(rows[0]), ring)


def _clear_row(row, ring):
    """The RatFunc row times the lcm of its denominators, content-free."""
    return _strip_row_content(_cleared(row, ring), ring)


def _cleared(row, ring):
    """The RatFunc row times `denominator_lcm` of its entries, as MPolys;
    each distinct denominator's quotient comes from the lcm fold."""
    quotients = _lcm_quotients(*_lcm_fold(row, ring), ring)
    return [x.num * quotients[x.den] if x.num.terms else ring.zero for x in row]


def _strip_row_content(row, ring):
    """The MPoly row over the monic gcd g of its entries, or over its
    rational content when g is 1.  g is folded with `poly_cofactors`, and
    each entry keeps its quotient: when g shrinks to g', the earlier
    quotients are multiplied by g/g', so no entry is divided twice."""
    g = ring.zero
    out = list(row)
    done = []
    for i, x in enumerate(row):
        if x.is_zero():
            continue
        g, shrink, out[i] = poly_cofactors(g, x)
        if g.is_one():
            break
        if not shrink.is_one():
            for j in done:
                out[j] = out[j] * shrink
        done.append(i)
    if done and not g.is_one():
        return out
    # still strip the rational content for compactness
    c = _rows_rational_content(row)
    return row if c == 1 else [_divided(x, c) for x in row]


def _rows_rational_content(row):
    """The positive rational c with every MPoly of the row over c integral
    and their coefficients coprime; 1 for an all-zero row."""
    num, den = 0, 1
    for x in row:
        for c in x.terms.values():
            if type(c) is int:
                num = math.gcd(num, c)
            else:
                num = math.gcd(num, c.numerator)
                den = den * c.denominator // math.gcd(den, c.denominator)
    if not num:
        return 1
    return num if den == 1 else Fraction(num, den)


def nullspace_poly(rows, ncols, ring) -> list:
    """Right nullspace basis for rows of MPoly entries.

    Forward fraction-free elimination with fill-aware (Markowitz-style)
    pivot selection, then rational back-substitution; pivot rows stay
    sparse, which keeps both the elimination and the kernel extraction
    small on the structured, mostly-sparse systems the engine produces.
    """
    m = [list(r) for r in rows if any(not x.is_zero() for x in r)]
    pivots = []  # (row, col) in elimination order
    used_rows = set()
    while True:
        pivot = _pick_pivot(m, used_rows, {c for _, c in pivots})
        if pivot is None:
            break
        pr, pc = pivot
        used_rows.add(pr)
        pivots.append((pr, pc))
        pv = m[pr][pc]
        for i, row in enumerate(m):
            if i in used_rows or row[pc].is_zero():
                continue
            f = row[pc]
            raw = [pv * row[j] - f * m[pr][j]
                   if not (row[j].is_zero() and m[pr][j].is_zero()) else row[j]
                   for j in range(ncols)]
            # primitive scheme: content stripping subsumes Bareiss division
            m[i] = _strip_row_content(raw, ring)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [RatFunc.zero(ring)] * ncols
        vec[fc] = RatFunc.one(ring)
        for pr, pc in reversed(pivots):
            s = RatFunc.zero(ring)
            row = m[pr]
            for j in range(ncols):
                if j != pc and not row[j].is_zero() and not vec[j].is_zero():
                    s = s + RatFunc.from_poly(row[j]) * vec[j]
            vec[pc] = -s / RatFunc.from_poly(row[pc])
        basis.append(_finalize_ratfunc_vector_rat(vec, ring))
    return basis


def _pick_pivot(m, used_rows, used_cols):
    col_load = {}
    row_load = {}
    for i, row in enumerate(m):
        if i in used_rows:
            continue
        cnt = 0
        for j, x in enumerate(row):
            if j in used_cols or x.is_zero():
                continue
            cnt += 1
            col_load[j] = col_load.get(j, 0) + 1
        row_load[i] = cnt
    best = None
    best_key = None
    for i, row in enumerate(m):
        if i in used_rows:
            continue
        for j, x in enumerate(row):
            if j in used_cols or x.is_zero():
                continue
            fill = (row_load[i] - 1) * (col_load[j] - 1)
            key = (fill, x.total_degree(), len(x.terms), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
    return best


def _finalize_ratfunc_vector_rat(vec, ring):
    """The one primitive polynomial vector on the line of vec over Q(x):
    cleared of denominators (`_clear_row`), over the monic gcd of its
    entries and over their rational content, with the first nonzero
    entry's leading coefficient positive.  Every nonzero multiple of vec
    gives the same vector: the cleared vector is h*u for u primitive and h
    a polynomial, the gcd leaves a rational multiple of u, and the content
    and the sign fix it."""
    polys = _clear_row(vec, ring)
    c = _rows_rational_content(polys)
    if c != 1:
        polys = [_divided(x, c) for x in polys]
    first = next((p for p in polys if not p.is_zero()), None)
    if first is not None and first.leading_coeff() < 0:
        polys = [-p for p in polys]
    return [RatFunc.from_poly(p) for p in polys]


def _t_free_kernel(rows, ncols, ring, t_var_idx) -> list:
    """Basis of the solutions over Q(x) of rows of RatFunc entries over
    Q(x, t), t the variables t_var_idx.  The Fasenmyer search, the
    Zeilberger search and the certificate ansatz all solve here.

    - Full rank: when the rows reach rank ncols mod p at the image point
      and sampled t (`_pivot_rows_mod_p`), that proves there is no
      solution, and the result is [].
    - Otherwise the rows are cleared and split by powers of t
      (`_t_expanded_rows`), and `nullspace_selected` solves them exactly.
      At corank 1 at the image point, the usual case, it rebuilds the
      kernel vector from point solves mod p and checks it exactly against
      every t-expanded row: sound because of that check, complete because
      the rank at a point is at most the rank over Q(x).  Elimination runs
      only when that rebuild gives up or fails the check, or at corank 2
      or more.

    Every vector returned solves every row exactly."""
    if len(_pivot_rows_mod_p(rows, ncols, _image_point(ring.nvars),
                             t_var_idx)) == ncols:
        return []
    # rebinding frees the rational rows (if the caller holds no other
    # reference) before the exact solve
    rows = _t_expanded_rows(rows, ring, t_var_idx)
    return nullspace_selected(rows, ncols, ring)


def _t_expanded_rows(rows, ring, t_var_idx):
    """Each RatFunc row cleared of its denominators (`_cleared`) and split
    by powers of t: one MPoly row over Q[x] per t-exponent that occurs.  A
    vector over Q(x) solves the row exactly when it solves all of them."""
    out = []
    tset = set(t_var_idx)
    for row in rows:
        groups = {}
        for ci, f in enumerate(_cleared(row, ring)):
            for e, c in f.terms.items():
                te = tuple(e[j] for j in t_var_idx)
                xe = tuple(0 if j in tset else d for j, d in enumerate(e))
                _acc(groups.setdefault(te, [{} for _ in row])[ci], xe, c)
        for _, polys in sorted(groups.items()):
            out.append([MPoly(ring, terms) for terms in polys])
    return out


def nullspace_selected(rows, ncols, ring) -> list:
    """Nullspace of an MPoly matrix, solved exactly on a selection of rows.

    The rows that add rank to one echelon of their images mod p at the
    point a = `_image_point` (`_pivot_rows_mod_p`) are selected: rank ncols
    proves the kernel is {0}.  Rank ncols - 1 means corank 1 at a, and
    then the kernel vector of the selected rows is rebuilt from kernels at
    points mod p (`_kernel_by_points`) and checked exactly against every
    row.  It is the answer:

    - it is exact, because it solves every row over Q(x);
    - it is complete: the rank at a is at most the rank over Q(x), so the
      kernel over Q(x) has dimension at most 1, and the vector is nonzero;
    - at dimension 1 the kernel is one line, and
      `_finalize_ratfunc_vector_rat` gives every nonzero vector on a line
      the same bytes, whatever free column the point solves used.

    Otherwise (corank 2 or more at a, or a rebuild that gives up or fails
    the check) the exact kernel of the selected rows is computed by
    elimination (`nullspace_poly`) and then verified against every
    remaining row, pulling in violated rows and repeating, so the kernel
    returned is checked exactly against the whole matrix.  The basis that
    elimination prints at corank 2 or more is kept that way.
    """
    rows = [list(r) for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return [[RatFunc.one(ring) if i == j else RatFunc.zero(ring)
                 for i in range(ncols)] for j in range(ncols)]
    point = _image_point(ring.nvars)
    selected = _pivot_rows_mod_p(rows, ncols, point)
    if len(selected) == ncols:
        return []
    sub = [rows[i] for i in selected]
    if len(selected) == ncols - 1:
        vec = _kernel_by_points(sub, ncols, ring, point)
        if vec is not None and all(_solves(row, vec) for row in rows):
            return [_finalize_ratfunc_vector_rat([RatFunc.from_poly(x) for x in vec],
                                                 ring)]
    rest = [rows[i] for i in range(len(rows)) if i not in set(selected)]
    while True:
        kernel = nullspace_poly(sub, ncols, ring)
        if not kernel:
            return []
        bad = next((row for row in rest
                    if not all(_solves(row, [v.num for v in vec]) for vec in kernel)),
                   None)
        if bad is None:
            return kernel
        sub.append(bad)
        rest = [r for r in rest if r is not bad]


def _solves(row, vec) -> bool:
    """Whether the MPoly vector vec solves the MPoly row exactly."""
    terms = {}
    for x, v in zip(row, vec):
        if x.terms and v.terms:
            for e, c in (x * v).terms.items():
                _acc(terms, e, c)
    return not terms


# -- kernels rebuilt from point solves mod p --------------------------------------


def _kernel_by_points(rows, ncols, ring, point):
    """A polynomial vector spanning the kernel over Q(x) of the ncols - 1
    MPoly rows, which are independent mod `_IMAGE_PRIME` at the point a,
    rebuilt from their kernels at points mod p; None when the rebuild
    gives up.  The vector is not checked over Q here.

    Let w be the primitive polynomial kernel vector, over the variables
    x that occur in the rows, and v = w/w_c its normalisation to 1 at some
    column c.  The point solves (`modp._point_solver`) give v at points mod
    p.

    - Along a line x = a + s*y, each v_j is a rational function of s.
      Over its common denominator, normalised to 1 at s = 0, the numerators
      are w_j(a + s*y)/w_c(a): the same scale on every line
      (`modp._line_numerators`, which takes each v_j by rational
      reconstruction).
    - The coefficient of s^k there is H_jk(y)/w_c(a), H_jk the degree-k
      homogeneous part of w_j(a + y), so it is fixed by its values at
      y = (1, y') on the lower set |y'| <= k
      (`modp._lower_set_interpolant`).
    - Shifting y back to x - a (`modp._interpolate_lines`), and lifting
      each coefficient over one common scale by rational reconstruction
      (`modp._rational_lift`), gives w up to a rational factor.

    The rebuild gives up when a point solve loses rank, when the degree
    would pass the largest total degree of an entry of the rows (the cap:
    elimination is left the kernels of higher degree), or when a
    coefficient does not lift.  None of these steps
    needs to be right for the result to be: the caller checks the vector
    exactly.
    """
    p = _IMAGE_PRIME
    active = sorted({i for row in rows for f in row for e in f.terms
                     for i, d in enumerate(e) if d})
    cap = max((f.total_degree() for row in rows for f in row), default=0)
    solve = _point_solver(rows, ncols, active, p)
    a = tuple(point[i] % p for i in active)
    base = solve(a)
    if base is None:
        return None
    free = base[0]
    kernels = {a: base[1]}

    def kernel(x):
        # the kernel at x, up to scale (each line renormalises it, so the
        # free column may move); None where the rank drops
        if x not in kernels:
            res = solve(x)
            kernels[x] = None if res is None else res[1]
        return kernels[x]

    def line(y, c, cols):
        return _line_numerators(kernel, a, y, c, cols, 2 * cap + 2, p)

    if active:
        generic = (1,) + tuple(_IMAGE_POINT[-1 - i % len(_IMAGE_POINT)]
                               for i in range(len(active) - 1))
        polys = _interpolate_lines(line, a, generic, free, ncols, cap, p)
        if polys is None:
            return None
    else:
        polys = {j: {(): x} for j, x in base[1].items() if x}
    # one common scale: the leading coefficient of the first entry is 1
    lead = next(f for f in polys.values() if f)
    inv = pow(lead[max(lead, key=_grevlex_key)], -1, p)
    vec = [ring.zero] * ncols
    for j, f in polys.items():
        terms = {}
        for e, v in f.items():
            q = _rational_lift(v * inv % p, p)
            if q is None:
                return None
            full = [0] * ring.nvars
            for i, d in zip(active, e):
                full[i] = d
            terms[tuple(full)] = q
        vec[j] = MPoly(ring, terms)
    return vec


def _pivot_rows_mod_p(rows, ncols, point, t_var_idx=()) -> list:
    """The rows that add rank to one echelon mod `_IMAGE_PRIME`: for each
    pivot, in order, the index of the row it came from, so the length of
    the list is the rank found (it stops at ncols).  This is the one mod-p
    rank: the t-free proof, the row selection and `matrix_rank_at_point`.

    The entries are MPoly or RatFunc over Q(x, t), t the variables
    t_var_idx (none for a matrix over Q(x)).  Each entry is taken at the
    point mod p in the x-variables only, as a polynomial in t; the row is
    then sampled at t_j = point[t_j]^s for s = 1, 2, ..., each sample
    reduced into the echelon, until two samples in a row add no rank.  A
    row with a coefficient denominator p divides is skipped, and so is a
    sample where a denominator vanishes.  Then the rank found is at most
    the rank over Q(x) of the cleared t-expanded rows (`_t_expanded_rows`),
    whose kernel is the t-free solutions of the rows:

    - a sample equals a combination, with coefficients t_s^j/D(x, t_s), of
      the row's cleared t-expanded rows taken at the point;
    - reducing mod p and setting x to the point is a ring homomorphism on
      the rational functions whose coefficient denominators are prime to p
      and whose denominator does not vanish there, and only such entries
      are sampled;
    - so a nonzero minor of the samples mod p is the image of a nonzero
      minor over Q(x).

    Rank ncols therefore proves that no nonzero t-free solution exists; a
    short rank only costs an exact solve.  The samples need no seed.  For
    one t the values point[t]^s stay distinct below the order of point[t]
    mod p, and a nonzero denominator vanishes at no more of them than its
    t-degree.  A monomial t^a takes the values (point^a)^s, so where the
    point^a of a row's J monomials are distinct and nonzero, its first J
    samples are an invertible Vandermonde combination of its t-expanded
    rows at the point and span what they span, for several t as for one.
    """
    p = _IMAGE_PRIME
    tset = set(t_var_idx)
    xs = [(i, x) for i, x in enumerate(point) if i not in tset]
    columns = range(ncols)
    pivots, out = {}, []
    for r, row in enumerate(rows):
        images = []
        for x in row:
            num, den = (x.num, x.den) if isinstance(x, RatFunc) else (x, x.ring.one)
            pair = (_image_mod_p(num, xs, t_var_idx, p),
                    _image_mod_p(den, xs, t_var_idx, p))
            if None in pair:
                break
            images.append(pair)
        else:
            misses = 0
            for s in itertools.count(1) if t_var_idx else (0,):
                vec = _sample_mod_p(images, [pow(point[j], s, p) for j in t_var_idx], p)
                if vec is None or not _echelon_insert_mod_p(pivots, vec, columns, p):
                    misses += 1
                    if misses == 2:
                        break
                    continue
                out.append(r)
                if len(out) == ncols:
                    return out
                misses = 0
    return out


def _image_mod_p(f: MPoly, xs, t_var_idx, p):
    """f mod p with each x-variable i set to x for (i, x) in xs, as a dict
    {t-exponent: value}; None when p divides a coefficient denominator."""
    out = {}
    for e, c in f.terms.items():
        if type(c) is int:
            v = c % p
        elif c.denominator % p:
            v = c.numerator * pow(c.denominator, -1, p) % p
        else:
            return None
        for i, x in xs:
            if e[i]:
                v = v * pow(x, e[i], p) % p
        te = tuple(e[j] for j in t_var_idx)
        out[te] = (out.get(te, 0) + v) % p
    return out


def _sample_mod_p(images, ts, p):
    """The row of (num, den) images at t = ts mod p, as a sparse row
    {col: value}, or None where a denominator vanishes."""
    powers = {}  # t^te at ts, shared by the row's entries

    def at(image):
        s = 0
        for te, c in image.items():
            m = powers.get(te)
            if m is None:
                m = powers[te] = math.prod(pow(t, d, p) for t, d in zip(ts, te)) % p
            s += c * m
        return s % p

    vec = {}
    for col, (num, den) in enumerate(images):
        d = at(den)
        if not d:
            return None
        v = at(num)
        if v:
            vec[col] = v * pow(d, -1, p) % p
    return vec


def matrix_rank_at_point(rows, ncols, point) -> int:
    """Rank mod `_IMAGE_PRIME` of an MPoly matrix at an integer point, rows
    with a coefficient denominator the prime divides left out: a lower
    bound on the generic rank, equal to it generically."""
    return len(_pivot_rows_mod_p(rows, ncols, [int(x) for x in point]))
