"""Exact arithmetic: sparse multivariate polynomials over arbitrary-precision
rationals, normalized rational functions, gcd/squarefree machinery, and
fraction-free linear algebra over the rational-function field.

Everything here is immutable and pure; all the operator algebra upstairs is
built on these coefficients.
"""
from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

from .errors import ZeroPolynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
            self._one = MPoly(self, {self._zero_exp: _ONE})
        return self._one

    def const(self, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return self.zero
        return MPoly(self, {self._zero_exp: c})

    def var(self, name) -> "MPoly":
        i = self.index[name]
        exp = [0] * self.nvars
        exp[i] = 1
        return MPoly(self, {tuple(exp): _ONE})

    def monomial(self, exp, coeff=_ONE) -> "MPoly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero
        return MPoly(self, {tuple(exp): coeff})


def _grevlex_key(exp):
    # graded reverse lexicographic; max() of keys picks the leading exponent
    return (sum(exp), tuple(-e for e in reversed(exp)))


class MPoly:
    """Sparse multivariate polynomial: map exponent vector -> Fraction.

    Invariants: no zero coefficients are stored, and all exponent vectors
    have the ring's arity, so equal polynomials have identical term maps.
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

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        return self.terms.get(self.ring._zero_exp, _ZERO)

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

    def leading_coeff(self) -> Fraction:
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
                    terms[e] = cur
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
            c = Fraction(other)
        if c is not None:
            if c == 0:
                return self.ring.zero
            if c == 1:
                return self
            return MPoly(self.ring, {e: v * c for e, v in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                cur = out.get(e)
                if cur is None:
                    out[e] = ca * cb
                else:
                    cur = cur + ca * cb
                    if cur:
                        out[e] = cur
                    else:
                        del out[e]
        return MPoly(self.ring, out)

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
        return MPoly(self.ring, out)

    def shift_var(self, i, offset) -> "MPoly":
        """Substitute x_i -> x_i + offset (offset a rational constant)."""
        if offset == 0:
            return self
        offset = Fraction(offset)
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
                c = c * Fraction(factor) ** d
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

    def eval_point(self, values) -> Fraction:
        """Evaluate at a full rational point (sequence indexed like the ring)."""
        total = _ZERO
        for e, c in self.terms.items():
            v = c
            for i, p in enumerate(e):
                if p:
                    v *= Fraction(values[i]) ** p
            total += v
        return total

    # -- normalization ----------------------------------------------------------

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient and primitive."""
        if not self.terms:
            return _ONE
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "MPoly":
        c = self.rational_content()
        if c == 1:
            return self
        return self * (1 / c)

    def monic(self) -> "MPoly":
        """Divide by the grevlex leading coefficient."""
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self * (1 / lc)

    def __repr__(self):
        return "MPoly(%s)" % format_poly(self)

    def __str__(self):
        return format_poly(self)


def _acc(d, e, c):
    """d[e] += c, storing no zero: the one sparse accumulator, for Fraction
    and RatFunc values alike (both are false exactly when zero)."""
    cur = d.get(e)
    if cur is None:
        if c:
            d[e] = c
    else:
        cur = cur + c
        if cur:
            d[e] = cur
        else:
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


def _fmt_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# -- exact division and gcd ------------------------------------------------------

def _heap_key(exp):
    # negated grevlex key: heapq pops the order-largest exponent first
    return (-sum(exp), tuple(x for x in reversed(exp)))


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial division; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_one():
        return f
    if g.is_constant():
        return f * (1 / g.constant_value())
    ring = f.ring
    ge, gc = g.leading()
    rem = dict(f.terms)
    heap = [(_heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    gitems = [(e, c) for e, c in g.terms.items() if e != ge]
    while heap:
        _, fe = heapq.heappop(heap)
        fc = rem.get(fe)
        if fc is None:
            continue
        del rem[fe]
        qe = tuple(a - b for a, b in zip(fe, ge))
        if any(x < 0 for x in qe):
            raise ValueError("not divisible")
        qc = fc / gc
        quo[qe] = qc
        for e, c in gitems:
            te = tuple(a + b for a, b in zip(qe, e))
            fresh = te not in rem
            _acc(rem, te, -qc * c)
            if fresh and te in rem:
                heapq.heappush(heap, (_heap_key(te), te))
    if rem:
        raise ValueError("not divisible")
    return MPoly(ring, quo)


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
    g, qa, qb = _modular_gcd(_scaled(a, 1 / ca), _scaled(b, 1 / cb))
    if g.is_one():
        return g, a, b
    lc = g.leading_coeff()
    return g.monic(), _scaled(qa, ca * lc), _scaled(qb, cb * lc)


def _scaled(f: MPoly, c: Fraction) -> MPoly:
    # f * c, with no call (and no traced product) when c is 1
    return f if c == 1 else f * c


def poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero() or b.is_zero():
        return a.ring.zero
    return (a * poly_cofactors(a, b)[2]).monic()


def denominator_lcm(values, ring) -> MPoly:
    """Monic lcm of the denominators of the RatFunc values (ring.one for
    none), folded left to right with `poly_lcm`."""
    den = ring.one
    for x in values:
        if not x.den.is_one():
            den = poly_lcm(den, x.den)
    return den


# -- modular gcd (Brown-style dense interpolation, division-verified) -------------

# Mersenne primes large enough that verified lifts virtually never retry
_GCD_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1)


def _gcd_primes():
    """The moduli `_modular_gcd` tries, in order; the sequence never ends.

    After the Mersenne primes come, for m = 128, 256, 512, ..., the least
    prime k*2^m + 1 with k odd that Proth's theorem proves prime: such an n
    is prime as soon as a^((n-1)/2) = -1 (mod n) for some a.  The primes
    grow without bound, so every lift eventually fits, and only finitely
    many of them can be unlucky for a given input."""
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

    Otherwise, or when a leading coefficient vanishes at the point, the
    gcd comes from gcds mod p plus dense interpolation.  A nontrivial
    candidate is accepted only after exact trial division, and those
    divisions give the quotients, so the only soundness obligation kept
    internally is the "gcd is 1" path, which the leading-coefficient
    checks certify.  A prime that divides a leading coefficient, meets
    persistent bad luck or gives a lift that fails trial division is
    passed over for the next one.
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
    active = sorted(a.variables() | b.variables())
    la = a.leading_coeff().numerator
    lb = b.leading_coeff().numerator
    # rescale so the lift carries integer coefficients: lc(gcd) divides
    # gcd of the integer leading coefficients
    gamma = math.gcd(la, lb)
    for p in _gcd_primes():
        if la % p == 0 or lb % p == 0:
            continue
        fp = {e: c.numerator % p for e, c in a.terms.items() if c.numerator % p}
        gp = {e: c.numerator % p for e, c in b.terms.items() if c.numerator % p}
        res = _modp_gcd(fp, gp, active, p)
        if res is None:
            continue
        if _modp_is_constant(res):
            return one, a, b
        lead = max(res, key=_grevlex_key)
        res = _modp_scale(res, gamma % p * pow(res[lead], -1, p) % p, p)
        cand = _modp_lift(res, a.ring, p).primitive()
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
        den = c.denominator
        if den == 1:
            w = c.numerator % p
        elif den % p:
            w = c.numerator * pow(den, -1, p) % p
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


def _modp_is_constant(f):
    return len(f) == 1 and not any(next(iter(f)))


def _modp_deg(f, v):
    return max((e[v] for e in f), default=-1)


def _modp_eval(f, v, alpha, p):
    out = {}
    for e, c in f.items():
        if e[v]:
            c = c * pow(alpha, e[v], p) % p
            ne = list(e)
            ne[v] = 0
            e = tuple(ne)
        cur = out.get(e, 0)
        cur = (cur + c) % p
        if cur:
            out[e] = cur
        elif e in out:
            del out[e]
    return out


def _modp_mul(f, g, p):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            cur = (out.get(e, 0) + ca * cb) % p
            if cur:
                out[e] = cur
            elif e in out:
                del out[e]
    return out


def _modp_sub(f, g, p):
    out = dict(f)
    for e, c in g.items():
        cur = (out.get(e, 0) - c) % p
        if cur:
            out[e] = cur
        elif e in out:
            del out[e]
    return out


def _modp_scale(f, c, p):
    return {e: v * c % p for e, v in f.items()}


def _modp_exact_div(f, g, p):
    """Division of modp term dicts; assumes exactness (used for contents)."""
    if _modp_is_constant(g):
        inv = pow(next(iter(g.values())), -1, p)
        return _modp_scale(f, inv, p)
    ge = max(g, key=_grevlex_key)
    ginv = pow(g[ge], -1, p)
    rem = dict(f)
    heap = [(_heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    gitems = [(e, c) for e, c in g.items() if e != ge]
    while heap:
        _, fe = heapq.heappop(heap)
        fc = rem.get(fe)
        if fc is None:
            continue
        del rem[fe]
        qe = tuple(x - y for x, y in zip(fe, ge))
        if any(x < 0 for x in qe):
            raise ValueError("modp division not exact")
        qc = fc * ginv % p
        quo[qe] = qc
        for e, c in gitems:
            te = tuple(x + y for x, y in zip(qe, e))
            fresh = te not in rem
            cur = (rem.get(te, 0) - qc * c) % p
            if cur:
                rem[te] = cur
                if fresh:
                    heapq.heappush(heap, (_heap_key(te), te))
            elif te in rem:
                del rem[te]
    return quo


def _modp_univ_gcd(a, b, p):
    """Monic gcd of two dense int coefficient lists over GF(p)."""
    while b:
        r = a[:]
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        while r and len(r) - 1 >= db:
            q = r[-1] * inv % p
            shift = len(r) - 1 - db
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - q * c) % p
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _modp_dense_in(f, v, p):
    coeffs = [0] * (_modp_deg(f, v) + 1)
    for e, c in f.items():
        coeffs[e[v]] = (coeffs[e[v]] + c) % p
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _modp_rest_lead(f, rest):
    """Grevlex-leading monomial of f projected to the rest variables."""
    return max((tuple(e[i] for i in rest) for e in f),
               key=_grevlex_key)


def _modp_lc_univ(f, rest, lead, xe):
    """Coefficient (as dense list in xe) of the rest-leading monomial."""
    coeffs = {}
    for e, c in f.items():
        if tuple(e[i] for i in rest) == lead:
            coeffs[e[xe]] = (coeffs.get(e[xe], 0) + c)
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return out


def _modp_univ_content(f, xe, p):
    """Gcd over Zp[xe] of the xe-coefficient lists grouped by the other
    variables' monomials; a dense list in xe."""
    groups = {}
    for e, c in f.items():
        ne = list(e)
        d = ne[xe]
        ne[xe] = 0
        groups.setdefault(tuple(ne), {})[d] = c
    cont = None
    for part in groups.values():
        dense = [0] * (max(part) + 1)
        for d, c in part.items():
            dense[d] = c
        cont = dense if cont is None else _modp_univ_gcd(cont, dense, p)
        if len(cont) == 1:
            break
    return cont


def _modp_univ_to_dict(coeffs, xe, nvars):
    out = {}
    for d, c in enumerate(coeffs):
        if c:
            e = [0] * nvars
            e[xe] = d
            out[tuple(e)] = c
    return out


def _modp_content_wrt(f, xe, rest, p):
    """Content of f as a polynomial in xe: gcd of the xe-coefficients."""
    groups = {}
    for e, c in f.items():
        ne = list(e)
        d = ne[xe]
        ne[xe] = 0
        g = groups.setdefault(d, {})
        te = tuple(ne)
        cur = (g.get(te, 0) + c) % p
        if cur:
            g[te] = cur
        elif te in g:
            del g[te]
    cont = None
    for part in groups.values():
        if not part:
            continue
        cont = part if cont is None else _modp_gcd(cont, part, rest, p)
        if cont is None:
            return None
        if _modp_is_constant(cont):
            break
    return cont


def _modp_gcd(f, g, active, p):
    """Gcd over GF(p) by dense interpolation in the last active variable.

    Result is normalized only up to a unit; may return None on persistent
    bad luck (the caller moves on to the next prime)."""
    if not f or not g:
        return f or g or None
    active = [v for v in active if _modp_deg(f, v) > 0 or _modp_deg(g, v) > 0]
    if not active:
        return {(0,) * len(next(iter(f))): 1}
    nvars = len(next(iter(f)))
    if len(active) == 1:
        v = active[0]
        da, db = _modp_dense_in(f, v, p), _modp_dense_in(g, v, p)
        if not da or not db:
            return None
        u = _modp_univ_gcd(da, db, p)
        out = {}
        for d, c in enumerate(u):
            if c:
                e = [0] * nvars
                e[v] = d
                out[tuple(e)] = c
        return out
    xe = active[-1]
    rest = active[:-1]
    if _modp_deg(f, xe) == 0 or _modp_deg(g, xe) == 0:
        # gcd cannot involve xe: strip it from whichever side has it
        cf = _modp_content_wrt(f, xe, rest, p) if _modp_deg(f, xe) else f
        cg = _modp_content_wrt(g, xe, rest, p) if _modp_deg(g, xe) else g
        if cf is None or cg is None:
            return None
        return _modp_gcd(cf, cg, rest, p)
    # split off factors living purely in Zp[xe], the content over Zp[xe]
    # that Brown's interpolation needs removed; the monic normalization of
    # the interpolation images would silently drop them otherwise
    wf = _modp_univ_content(f, xe, p)
    if len(wf) > 1:
        f = _modp_exact_div(f, _modp_univ_to_dict(wf, xe, nvars), p)
    wg = _modp_univ_content(g, xe, p)
    if len(wg) > 1:
        g = _modp_exact_div(g, _modp_univ_to_dict(wg, xe, nvars), p)
    w = _modp_univ_gcd(wf, wg, p)
    lead_f = _modp_rest_lead(f, rest)
    lead_g = _modp_rest_lead(g, rest)
    lcf = _modp_lc_univ(f, rest, lead_f, xe)
    lcg = _modp_lc_univ(g, rest, lead_g, xe)
    gamma = _modp_univ_gcd(lcf, lcg, p)
    bound = min(_modp_deg(f, xe), _modp_deg(g, xe)) + len(gamma) - 1
    rng = random.Random(p ^ 0xB0B)
    interp = None     # accumulating interpolant
    basis = None      # prod (xe - alpha_j), dense list in xe
    best_lead = None
    npoints = 0
    attempts = 0
    seen = set()
    while npoints <= bound:
        attempts += 1
        if attempts > 8 * (bound + 3):
            return None
        alpha = rng.randrange(1, p - 1)
        if alpha in seen:
            continue
        seen.add(alpha)
        if _univ_eval(lcf, alpha, p) == 0 or _univ_eval(lcg, alpha, p) == 0:
            continue
        fa = _modp_eval(f, xe, alpha, p)
        ga = _modp_eval(g, xe, alpha, p)
        img = _modp_gcd(fa, ga, rest, p)
        if img is None:
            continue
        ilead = _modp_rest_lead(img, rest)
        if best_lead is None or _grevlex_key(ilead) < _grevlex_key(best_lead):
            # everything collected so far was unlucky (too large): restart
            best_lead = ilead
            interp = None
            basis = [1]
            npoints = 0
        elif _grevlex_key(ilead) > _grevlex_key(best_lead):
            continue
        full_lead = next(e for e in img
                         if tuple(e[i] for i in rest) == ilead and e[xe] == 0)
        scale = _univ_eval(gamma, alpha, p) * pow(img[full_lead], -1, p) % p
        img = _modp_scale(img, scale, p)
        if interp is None:
            interp = img
            basis = [(-alpha) % p, 1]
            npoints = 1
            continue
        cur = _modp_eval(interp, xe, alpha, p)
        diff = _modp_sub(img, cur, p)
        if diff:
            binv = pow(_univ_eval(basis, alpha, p), -1, p)
            add = {}
            for e, c in diff.items():
                c = c * binv % p
                for d, bc in enumerate(basis):
                    if bc:
                        ne = list(e)
                        ne[xe] = d
                        te = tuple(ne)
                        cur2 = (add.get(te, 0) + c * bc) % p
                        if cur2:
                            add[te] = cur2
                        elif te in add:
                            del add[te]
            for e, c in add.items():
                cur2 = (interp.get(e, 0) + c) % p
                if cur2:
                    interp[e] = cur2
                elif e in interp:
                    del interp[e]
        # basis *= (xe - alpha)
        nb = [0] * (len(basis) + 1)
        for d, bc in enumerate(basis):
            nb[d + 1] = (nb[d + 1] + bc) % p
            nb[d] = (nb[d] - bc * alpha) % p
        basis = nb
        npoints += 1
    if not interp:
        return None
    # remove the gamma/lc(G) residue, a factor purely in Zp[xe]
    icont = _modp_univ_content(interp, xe, p)
    if len(icont) > 1:
        interp = _modp_exact_div(interp, _modp_univ_to_dict(icont, xe, nvars), p)
    if len(w) > 1:
        interp = _modp_mul(interp, _modp_univ_to_dict(w, xe, nvars), p)
    return interp


def _univ_eval(coeffs, alpha, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * alpha + c) % p
    return acc


def _modp_lift(f, ring, p):
    """Symmetric lift of a modp dict to an integer-coefficient MPoly."""
    half = p // 2
    terms = {}
    for e, c in f.items():
        v = c - p if c > half else c
        if v:
            terms[e] = Fraction(v)
    return MPoly(ring, terms)


# factored polynomials: {monic factor: multiplicity} with pairwise-coprime
# factors; products, lcms, and degree reads stay cheap on the shifted-factor
# products this engine generates, where the expanded forms explode


def _divide_out(b: MPoly, f: MPoly):
    """(k, f / b^k) for the largest k with b^k dividing f (b non-constant)."""
    k = 0
    while True:
        try:
            f = exact_div(f, b)
        except ValueError:
            return k, f
        k += 1


def _coprime_insert(base: list, q: MPoly) -> None:
    """Refine a pairwise-coprime list of monic polys so it also covers q.

    Splitting pieces re-enter the worklist, so partial overlaps between a
    gcd and its cofactors resolve fully; total degree strictly drops at
    every split, which bounds the loop."""
    stack = [q.monic()]
    while stack:
        x = stack.pop()
        if x.is_constant():
            continue
        hit = None
        for i, f in enumerate(base):
            g = poly_gcd(f, x)
            if not g.is_constant():
                hit = (i, f, g)
                break
        if hit is None:
            base.append(x)
            continue
        i, f, g = hit
        if g == f:
            if g == x:
                continue  # fully covered
            stack.append(_divide_out(g, x)[1].monic())
            continue
        del base[i]
        stack.append(g)
        stack.append(_divide_out(g, f)[1].monic())
        stack.append(_divide_out(g, x)[1].monic())


def factored_merge(A: dict, q: MPoly, m: int, combine) -> None:
    """A := A (combine) q^m in place; combine is max (lcm) or add (product).

    Keys stay pairwise coprime.  When trial division by the keys already in
    A takes q down to a constant, q is a product of keys and only their
    multiplicities change; otherwise the base refines itself against q and
    the old entries are re-expressed over the refined base when needed."""
    if m <= 0:
        return
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
            A[b] = combine(A[b], m * j)
        return
    base = list(A.keys())
    _coprime_insert(base, q)
    if set(base) != set(A.keys()):
        old = dict(A)
        A.clear()
        for b in base:
            s = 0
            for f, mf in old.items():
                if f is b or f == b:
                    s += mf
                else:
                    s += mf * _divide_out(b, f)[0]
            if s:
                A[b] = s
    for b in base:
        j = _divide_out(b, q)[0]
        if j:
            A[b] = combine(A.get(b, 0), m * j)


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
                num = num * (1 / den.constant_value())
                den = den.ring.one
            else:
                _, num, den = poly_cofactors(num, den)
                lc = den.leading_coeff()
                if lc != 1:
                    num = num * (1 / lc)
                    den = den * (1 / lc)
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
        if lc == 1:
            return RatFunc._raw(self.den, self.num)
        return RatFunc._raw(self.den * (1 / lc), self.num * (1 / lc))

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
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        return RatFunc._raw(num, den)

    def eval_var(self, i, value: "RatFunc") -> "RatFunc":
        return self.num.eval_var(i, value) / self.den.eval_var(i, value)

    def eval_point(self, values) -> Fraction:
        d = self.den.eval_point(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval_point(values) / d

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
    each distinct denominator's quotient is computed once."""
    den = denominator_lcm(row, ring)
    quotients = {}
    out = []
    for x in row:
        if x.is_zero():
            out.append(ring.zero)
            continue
        q = quotients.get(x.den)
        if q is None:
            q = quotients[x.den] = exact_div(den, x.den)
        out.append(x.num * q)
    return out


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
    if c not in (0, 1):
        row = [x * (1 / c) for x in row]
    return row


def _rows_rational_content(row):
    num, den = 0, 1
    for x in row:
        for c in x.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den) if num else _ONE


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
    polys = _clear_row(vec, ring)
    first = next((p for p in polys if not p.is_zero()), None)
    if first is not None and first.leading_coeff() < 0:
        polys = [-p for p in polys]
    return [RatFunc.from_poly(p) for p in polys]


def _t_free_kernel(rows, ncols, ring, t_var_idx) -> list:
    """Basis of the solutions over Q(x) of rows of RatFunc entries over
    Q(x, t), t the variables t_var_idx: [] when the rows reach rank ncols
    mod p (`_pivot_rows_mod_p`, which proves there is none), else the
    exact kernel of their cleared t-expanded rows (`nullspace_selected`).
    The Fasenmyer search, the Zeilberger search and the certificate ansatz
    all solve here."""
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

    The rows that add rank to one echelon of their images mod p
    (`_pivot_rows_mod_p`) are selected: rank ncols proves the kernel is
    {0}.  Otherwise the exact kernel of the selected rows is computed and
    then verified against every remaining row, pulling in violated rows
    and repeating, so the kernel returned is checked exactly against the
    whole matrix.
    """
    rows = [list(r) for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return [[RatFunc.one(ring) if i == j else RatFunc.zero(ring)
                 for i in range(ncols)] for j in range(ncols)]
    selected = _pivot_rows_mod_p(rows, ncols, _image_point(ring.nvars))
    if len(selected) == ncols:
        return []
    sub = [rows[i] for i in selected]
    rest = [rows[i] for i in range(len(rows)) if i not in set(selected)]
    while True:
        kernel = nullspace_poly(sub, ncols, ring)
        if not kernel:
            return []
        bad = None
        for row in rest:
            for vec in kernel:
                s = ring.zero
                for x, v in zip(row, vec):
                    if not x.is_zero() and not v.is_zero():
                        s = s + x * v.num
                if not s.is_zero():
                    bad = row
                    break
            if bad is not None:
                break
        if bad is None:
            return kernel
        sub.append(bad)
        rest = [r for r in rest if r is not bad]


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
                if vec is None or not _echelon_insert_mod_p(pivots, vec, p):
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
        if c.denominator % p == 0:
            return None
        v = c.numerator * pow(c.denominator, -1, p) % p
        for i, x in xs:
            if e[i]:
                v = v * pow(x, e[i], p) % p
        te = tuple(e[j] for j in t_var_idx)
        out[te] = (out.get(te, 0) + v) % p
    return out


def _sample_mod_p(images, ts, p):
    """The row of (num, den) images at t = ts mod p, or None where a
    denominator vanishes."""
    powers = {}  # t^te at ts, shared by the row's entries

    def at(image):
        s = 0
        for te, c in image.items():
            m = powers.get(te)
            if m is None:
                m = powers[te] = math.prod(pow(t, d, p) for t, d in zip(ts, te)) % p
            s += c * m
        return s % p

    vec = []
    for num, den in images:
        d = at(den)
        if not d:
            return None
        vec.append(at(num) * pow(d, -1, p) % p)
    return vec


def _echelon_insert_mod_p(pivots, vec, p) -> bool:
    """Reduce vec by the echelon rows {col: row with 1 at col and zeros
    before it}; keep it and return True when it adds rank."""
    for c in range(len(vec)):
        a = vec[c]
        if not a:
            continue
        piv = pivots.get(c)
        if piv is None:
            inv = pow(a, -1, p)
            pivots[c] = [v * inv % p for v in vec]
            return True
        vec = [(v - a * w) % p for v, w in zip(vec, piv)]
    return False


def matrix_rank_at_point(rows, ncols, point) -> int:
    """Rank mod `_IMAGE_PRIME` of an MPoly matrix at an integer point, rows
    with a coefficient denominator the prime divides left out: a lower
    bound on the generic rank, equal to it generically."""
    return len(_pivot_rows_mod_p(rows, ncols, [int(x) for x in point]))
