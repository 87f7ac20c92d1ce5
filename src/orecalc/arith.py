"""Exact arithmetic: sparse multivariate polynomials over arbitrary-precision
rationals, normalized rational functions, gcd/squarefree machinery, and
linear algebra over the rational-function field: the t-free kernels
rebuilt from point solves mod p (with `modp`) and checked exactly,
closure's found by fraction-free elimination.

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
import math
import numbers
import operator
import random
from fractions import Fraction

from .errors import DegreeOverflow, ZeroPolynomial
from .modp import (
    _echelon_insert_mod_p,
    _echelon_kernel,
    _gcd_mod_p,
    _interpolate_lines,
    _line_numerators,
    _modp_univ_gcd,
    _point_solver,
    _rational_lift,
    _univ_divmod,
    _univ_eval,
    _univ_mul,
    _univ_trim,
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


_INT = frozenset({int})


def _all_int(terms: dict) -> bool:
    return _INT.issuperset(map(type, terms.values()))


# -- packed monomials ---------------------------------------------------------------
#
# A monomial is one int key.  In a ring of n variables, variable i's
# exponent is the field of _WIDTH bits at bit _WIDTH*i, and the total
# degree is the field above them all, at bit _WIDTH*n.  Every field is
# linear in the exponents, so the key of a product of monomials is the
# sum of their keys.  The top bit of each field is a guard, 0 in every
# key: a total degree above MAX_DEGREE is refused (`DegreeOverflow`), and
# each exponent is at most the total degree, so no field ever carries
# into its neighbour.  Keys compare by total degree, then by the last
# variable's exponent, then the one before, and so on; grevlex is the
# same total degree first and the reverse of that after it, which is the
# order of key ^ ring.low (`_grevlex_max`).  Exponent tuples appear only
# at the edges: `PolyRing.from_terms` and `MPoly.to_terms`, printing, and
# the mod-p routines of `modp`, which work over the active variables.

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1


def _column(keys, shift):
    """The field at bit `shift` of each key, lazily."""
    return map(_FIELD.__and__, map(shift.__rrshift__, keys))


def _grevlex_max(keys, ring):
    """The grevlex-largest of the (nonempty) monomial keys."""
    low = ring.low
    return max(map(low.__xor__, keys)) ^ low


class PolyRing:
    """Q[x1,...,xm], identified (and interned) by its ordered variable names.

    `shifts[i]` is the bit of variable i's field in a key, `units[i]` the
    key of x_i, `top` the bit of the total-degree field, `low` the mask of
    the exponent fields, `limit` the least key of degree MAX_DEGREE + 1
    and `guards` the guard bits of the exponent fields."""

    _interned: dict = {}

    def __new__(cls, names):
        names = tuple(names)
        ring = cls._interned.get(names)
        if ring is not None:
            return ring
        ring = super().__new__(cls)
        ring.names = names
        ring.index = {n: i for i, n in enumerate(names)}
        ring.nvars = n = len(names)
        ring.top = _WIDTH * n
        ring.shifts = tuple(range(0, ring.top, _WIDTH))
        ring.units = tuple((1 << s) + (1 << ring.top) for s in ring.shifts)
        ring.low = (1 << ring.top) - 1
        ring.limit = (MAX_DEGREE + 1) << ring.top
        ring.guards = sum(1 << (s + _WIDTH - 1) for s in ring.shifts)
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
            self._one = MPoly(self, {0: 1})
        return self._one

    def const(self, c) -> "MPoly":
        c = _coef(c)
        if c == 0:
            return self.zero
        return MPoly(self, {0: c})

    def var(self, name) -> "MPoly":
        return MPoly(self, {self.units[self.index[name]]: 1})

    def from_terms(self, terms) -> "MPoly":
        """The polynomial of {exponent tuple: coefficient}, zero
        coefficients left out: the public constructor from exponents."""
        out = {}
        for e, c in terms.items():
            if len(e) != self.nvars or min(e, default=0) < 0:
                raise ValueError("exponent %r does not fit %r" % (e, self))
            if sum(e) > MAX_DEGREE:
                raise DegreeOverflow("total degree %d exceeds %d" % (sum(e), MAX_DEGREE))
            c = _coef(c)
            if c:
                out[sum(map(operator.mul, e, self.units))] = c
        return MPoly(self, out)

    def _exponents(self, key) -> tuple:
        """The exponent tuple of a monomial key."""
        return tuple(key >> s & _FIELD for s in self.shifts)


class MPoly:
    """Sparse multivariate polynomial: map monomial key -> coefficient (see
    "packed monomials" above).

    Invariants: no zero coefficients are stored, and every key is a
    monomial of the ring, so equal polynomials have identical term maps.
    A coefficient is an int when it is integral and a Fraction only when it
    is not (see the module docstring); the operations keep it so.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def to_terms(self) -> dict:
        """{exponent tuple: coefficient}: the public reader of exponents."""
        return {self.ring._exponents(k): c for k, c in self.terms.items()}

    # -- predicates and inspection --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self):
        return self.terms.get(0, 0)

    def is_one(self) -> bool:
        return self.terms.get(0) == 1 and len(self.terms) == 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> self.ring.top

    def degree_in(self, var_indices) -> int:
        """Total degree in the given subset of variables (-1 for zero)."""
        if not self.terms:
            return -1
        shifts = [self.ring.shifts[i] for i in var_indices]
        if len(shifts) < 2:
            return max(_column(self.terms, shifts[0])) if shifts else 0
        return max(sum(k >> s & _FIELD for s in shifts) for k in self.terms)

    def variables(self):
        """Indices of variables that actually occur."""
        acc = 0
        for k in self.terms:
            acc |= k
        return {i for i, s in enumerate(self.ring.shifts) if acc >> s & _FIELD}

    def leading(self):
        """(key, coefficient) of the grevlex-leading term."""
        if not self.terms:
            raise ZeroPolynomial("leading term of zero polynomial")
        k = _grevlex_max(self.terms, self.ring)
        return k, self.terms[k]

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
        # keys; a unit factor returns it, as MPoly is never mutated
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
        # the top keys' exponent fields add without a carry, so the sum
        # reaches the limit exactly when the degrees add up past MAX_DEGREE
        if max(a) + max(b) >= self.ring.limit:
            raise DegreeOverflow("product of total degree %d exceeds %d" % (
                self.total_degree() + other.total_degree(), MAX_DEGREE))
        if len(a) > len(b):
            a, b = b, a
        rows = iter(a.items())
        ea, ca = next(rows)
        out = {ea + eb: ca * cb for eb, cb in b.items()}
        get = out.get
        for ea, ca in rows:
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        if 0 in out.values():
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
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / substitution ------------------------------------------------

    def derivative(self, i) -> "MPoly":
        s, unit = self.ring.shifts[i], self.ring.units[i]
        out = {}
        for k, c in self.terms.items():
            d = k >> s & _FIELD
            if d:
                out[k - unit] = c * d
        return MPoly(self.ring, _fix(out))

    def shift_var(self, i, offset) -> "MPoly":
        """Substitute x_i -> x_i + offset (offset a rational constant)."""
        if offset == 0:
            return self
        offset = _coef(offset)
        s, unit = self.ring.shifts[i], self.ring.units[i]
        rows = {}  # d: the coefficients of (x_i + offset)^d, from x_i^0 up
        out = {}
        get = out.get
        for k, c in self.terms.items():
            d = k >> s & _FIELD
            if not d:
                out[k] = get(k, 0) + c
                continue
            row = rows.get(d)
            if row is None:
                row = rows[d] = [math.comb(d, j) * offset ** (d - j) for j in range(d + 1)]
            k -= d * unit
            for b in row:
                out[k] = get(k, 0) + c * b
                k += unit
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return MPoly(self.ring, out if type(offset) is int and _all_int(self.terms)
                     else _fix(out))

    def scale_var(self, i, factor_index) -> "MPoly":
        """Substitute x_i -> q*x_i where q is the variable at factor_index."""
        s, unit = self.ring.shifts[i], self.ring.units[factor_index]
        # injective on keys: each term keeps its x_i degree d and gains q^d
        return _checked(MPoly(self.ring, {e + (e >> s & _FIELD) * unit: c
                                          for e, c in self.terms.items()}))

    def power_var(self, i, b) -> "MPoly":
        """Substitute x_i -> x_i**b (Mahler substitution)."""
        s, unit = self.ring.shifts[i], self.ring.units[i]
        out = {}
        for e, c in self.terms.items():
            _acc(out, e + (b - 1) * (e >> s & _FIELD) * unit, c)
        return _checked(MPoly(self.ring, out))

    def eval_var(self, i, value: "RatFunc") -> "RatFunc":
        """Substitute a rational function for x_i, by Horner in x_i."""
        s, unit = self.ring.shifts[i], self.ring.units[i]
        groups = {}
        for e, c in self.terms.items():
            d = e >> s & _FIELD
            _acc(groups.setdefault(d, {}), e - d * unit, c)
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
        used = [(values[i], self.ring.shifts[i]) for i in self.variables()]
        total = 0
        for k, c in self.terms.items():
            for x, s in used:
                d = k >> s & _FIELD
                if d:
                    c *= x ** d
            total += c
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


def _checked(f: MPoly) -> MPoly:
    """f, unless a substitution took one of its terms past MAX_DEGREE (a
    key at or above the limit: the degree field is the top one)."""
    if f.terms and max(f.terms) >= f.ring.limit:
        raise DegreeOverflow("total degree %d exceeds %d" % (f.total_degree(), MAX_DEGREE))
    return f


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
    ring = p.ring
    names = ring.names
    bits = []
    for k in sorted(p.terms, key=ring.low.__xor__, reverse=True):
        c = p.terms[k]
        mono = "*".join(
            names[i] if d == 1 else "%s^%d" % (names[i], d)
            for i, d in enumerate(ring._exponents(k)) if d
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

def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial division; raises ValueError if g does not divide f.

    Heap division (Monagan and Pearce) in the order of the keys, which is
    a monomial order: the heap holds the negated keys of the remainder's
    terms, so it pops the largest first.  A remainder term whose key fk
    has an exponent field below that of g's top key gk is not divisible,
    and then g does not divide f: with every exponent field's guard bit set
    in fk, fk - gk clears a guard exactly where gk's field is the larger
    (the degree field follows the exponents)."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_one():
        return f
    if g.is_constant():
        return _divided(f, g.constant_value())
    guards = f.ring.guards
    gk = max(g.terms)
    gc = g.terms[gk]
    rem = dict(f.terms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo = {}
    gitems = [(k, c) for k, c in g.terms.items() if k != gk]
    while heap:
        fk = -heapq.heappop(heap)
        fc = rem.pop(fk, None)
        if fc is None:
            continue  # cancelled, or a repeat of a key pushed again
        if (fk | guards) - gk & guards != guards:
            raise ValueError("not divisible")
        qk = fk - gk
        qc = fc if gc == 1 else _qdiv(fc, gc)
        quo[qk] = qc
        for ek, c in gitems:
            tk = qk + ek
            cur = rem.get(tk)
            if cur is None:
                rem[tk] = -qc * c
                heapq.heappush(heap, -tk)
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
    L = {}
    for x in values:
        factored_merge(L, x.fac)
    return factored_expand(L, ring)


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


def _draws(p, n) -> list:
    """n residues mod p seeded by p alone: every point and direction the
    module takes at p (`_image_point`, `_modular_gcd`, `_solve_points` and
    `_kernel_by_points`)."""
    rng = random.Random(p ^ 0xB0B)
    return [rng.randrange(p) for _ in range(n)]


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
    contain, a and b are taken mod `_IMAGE_PRIME` at `_image_point` in
    every variable but v (`_image_in`).  By Gauss's lemma h divides a over
    Z, so lc_v(h) divides lc_v(a); where lc_v(a) does not vanish at the
    point, the image of h keeps its degree in v and divides the image of
    a.  So the degree of the univariate gcd of the images bounds deg_v(h)
    whenever neither leading coefficient vanishes; a variable only one
    operand contains has bound 0.  All bounds 0 means h = 1.  An operand
    whose degrees meet every bound is the only candidate, accepted once it
    divides the other operand exactly.

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
    ring = a.ring
    nvars = ring.nvars
    shifts = [ring.shifts[i] for i in live]
    units = [ring.units[i] for i in live]
    for p in _gcd_primes():
        if gamma % p == 0:
            continue
        # values for the dead variables, then x0 and the direction
        drawn = _draws(p, nvars + len(live) - 1)
        image = _Images(ring, zip((i for i in range(nvars) if i not in live), drawn), live, p)
        # `modp` takes the images as term dicts over the live variables
        images = [{tuple(k >> s & _FIELD for s in shifts): v for k, v in image(f).items() if v}
                  for f in (a, b)]
        if not all(images):
            continue
        x0 = tuple(drawn[nvars - len(live):nvars])
        generic = (1,) + tuple(drawn[nvars:])
        res = _gcd_mod_p(*images, x0, generic, p)
        if res is None:
            continue
        half = p // 2
        terms = {sum(map(operator.mul, e, units)): v for e, v in res.items()}
        scale = gamma * pow(terms[_grevlex_max(terms, ring)], -1, p)
        for e, v in terms.items():
            v = v * scale % p
            terms[e] = v - p if v > half else v
        cand = MPoly(a.ring, terms).primitive()
        try:
            return cand, exact_div(a, cand), exact_div(b, cand)
        except ValueError:
            continue


# The module's mod-p decisions (gcd image bounds, factor screens, row
# selection) are made at the first prime of `_gcd_primes`, at the point
# `_draws` gives it.  Both are fixed, so a result depends on no hidden
# state; an unlucky point only sends a gcd down the interpolating path or a
# solve to its next (prime, point).
_IMAGE_PRIME = _GCD_PRIMES[0]


def _image_point(nvars) -> list:
    return _draws(_IMAGE_PRIME, nvars)


def _solve_points(nvars):
    """Each prime of `_gcd_primes` once, at the point `_draws` gives it,
    first (`_IMAGE_PRIME`, `_image_point`): a solve's sequence."""
    for p in _gcd_primes():
        yield p, _draws(p, nvars)


def _degrees(f: MPoly) -> list:
    """deg_v(f) for every variable v of the ring (f nonzero)."""
    return [max(_column(f.terms, s)) for s in f.ring.shifts]


def _image_bounds(a: MPoly, b: MPoly):
    """Per variable v, deg_v of the gcd of the images (`_image_in`) of the
    integer-coefficient a and b in x_v, and 0 where one of them lacks v;
    None when lc_v(a) or lc_v(b) vanishes at the point."""
    bounds = [0] * a.ring.nvars
    for v in a.variables() & b.variables():
        ia, ib = _image_in(a, v), _image_in(b, v)
        if not (ia[-1] and ib[-1]):
            return None
        bounds[v] = len(_modp_univ_gcd(ia, ib, _IMAGE_PRIME)) - 1
    return bounds


_VIEWS = {}  # (ring, v): the `_Images` at the image point with x_v free


def _image_in(f: MPoly, v):
    """Dense coefficients in x_v of the nonzero f mod `_IMAGE_PRIME`, every
    other variable at `_image_point`: deg_v(f) + 1 of them, the last being
    lc_v(f) there (0 where it vanishes); None when the prime divides a
    coefficient denominator."""
    ring = f.ring
    image = _VIEWS.get((ring, v))
    if image is None:
        image = _VIEWS[ring, v] = _Images(
            ring, ((i, x) for i, x in enumerate(_image_point(ring.nvars)) if i != v),
            (v,), _IMAGE_PRIME)
    img = image(f)
    if img is None:
        return None
    top = ring.top
    coeffs = [0] * ((max(img) >> top) + 1)
    for tk, c in img.items():
        coeffs[tk >> top] = c
    return coeffs


# -- factored denominators ----------------------------------------------------------
#
# A RatFunc keeps its denominator as {factor: multiplicity}.  The normal
# forms the engine walks have denominators that are products of shifts of
# a few leading-coefficient factors, whose expanded forms explode; kept
# factored, the gcd and lcm of two denominators are the min and max of
# their dicts, once every factor of one is a factor of the other or
# coprime to it (`_align`).  Factors are interned (`_factor`), so equal
# factors are one object, and each pair is compared once.  When two
# factors share a proper factor, both are split for good into the
# pairwise-coprime pieces of their refinement (`_refined`), and every
# dict that holds them reads the pieces from then on (`_resolved`).  The
# interned factors and their memos last for the process; they change how
# fast a result comes, never the result, since printing, equality and
# hashing read the expanded pair.


class _Factor(MPoly):
    """A denominator factor: primitive over Z with a positive leading
    coefficient, interned, so its hash is kept.  `split` is None or the
    pieces {factor: multiplicity} it is known to be the product of;
    `coprime` the factors it is known to be coprime to; `shifts` and
    `images` memoise `_shifted` and its images mod p per variable."""

    __slots__ = ("_hash", "linear", "vars", "split", "coprime", "shifts", "images")

    def __init__(self, f: MPoly):
        super().__init__(f.ring, f.terms)
        self._hash = hash(f)
        self.linear = f.total_degree() == 1
        self.vars = sorted(f.variables())
        self.split = None
        self.coprime = set()
        self.shifts = {}
        self.images = {}

    def __hash__(self):
        return self._hash


_FACTORS = {}
_NOFAC = {}  # the empty factor dict of every polynomial; never mutated


def _factor(f: MPoly):
    """(c, F) with f = c*F and F the interned primitive factor with a
    positive leading coefficient (f non-constant)."""
    c = f.rational_content()
    if f.leading_coeff() < 0:
        c = -c
    g = _divided(f, c)
    F = _FACTORS.get(g)
    if F is None:
        # g may be f itself, with integral Fraction coefficients: the
        # interned factor keeps ints, since every later lookup returns it
        if not _all_int(g.terms):
            g = MPoly(g.ring, _fix(dict(g.terms)))
        F = _FACTORS[g] = _Factor(g)
    return c, F


def _times(n: MPoly, A: dict) -> MPoly:
    """n times the product of the f^m of the factor dict A, which is
    expanded first: shifts of one variable share their monomials, so the
    product has fewer terms than n would meet factor by factor."""
    q = None
    for f, m in A.items():
        for _ in range(m):
            q = f if q is None else q * f
    return n if q is None else n * q


def _resolved(A: dict) -> dict:
    """A with each split factor replaced by its pieces, recursively."""
    for f in A:
        if f.split:
            break
    else:
        return A
    out = {}
    for f, m in A.items():
        for g, e in _resolved(f.split).items() if f.split else ((f, 1),):
            out[g] = out.get(g, 0) + m * e
    return out


def _refined(f: MPoly, g: MPoly) -> list:
    """Bach, Driscoll and Shallit's factor refinement of f and g ("Factor
    refinement", 1993): interned pairwise-coprime factors P with exponents
    (a, b), f and g being the products of the P^a and of the P^b up to
    constants.  A piece x that meets a piece y in a nontrivial h = gcd(y, x)
    is replaced, with y, by (y/h, a_y, b_y), (h, a_y + a_x, b_y + b_x) and
    (x/h, a_x, b_x), which keeps both products; each split lowers the total
    degree, so the loop ends."""
    pieces, stack = [(f, 1, 0)], [(g, 0, 1)]
    while stack:
        x, ax, bx = stack.pop()
        for i, (y, ay, by) in enumerate(pieces):
            h, y_h, x_h = poly_cofactors(y, x)
            if not h.is_constant():
                break
        else:
            pieces.append((x, ax, bx))
            continue
        del pieces[i]
        stack.append((h, ay + ax, by + bx))
        for z, a, b in ((y_h, ay, by), (x_h, ax, bx)):
            if not z.is_constant():
                stack.append((z, a, b))
    out = [(_factor(x)[1], a, b) for x, a, b in pieces]
    for i, (P, _, _) in enumerate(out):
        for Q, _, _ in out[i + 1:]:
            P.coprime.add(Q)
            Q.coprime.add(P)
    return out


def _split(f: _Factor, pieces: dict) -> None:
    """Record f as the product of the pieces (unless they are f itself),
    and every shift of f already made as the product of their shifts."""
    if pieces != {f: 1}:
        f.split = pieces
        for (i, offset), (_, g) in list(f.shifts.items()):
            if g.split is None:
                _split(g, {_shifted(P, i, offset)[1]: e for P, e in pieces.items()})


def _coprime(f: _Factor, g: _Factor) -> bool:
    """Whether the distinct unsplit factors f and g are coprime, decided
    once for the pair; when they are not, both are split (`_refined`).
    Two distinct linear factors are irreducible, so coprime; otherwise
    their images may prove it (`_images_coprime`)."""
    if not (f.linear and g.linear or _images_coprime(f, g)):
        ref = _refined(f, g)
        _split(f, {P: a for P, a, _ in ref if a})
        _split(g, {P: b for P, _, b in ref if b})
        if f.split or g.split:
            return False
    f.coprime.add(g)
    g.coprime.add(f)
    return True


def _align(A: dict, B: dict):
    """(A, B) resolved until each factor of one is a factor of the other or
    coprime to all of its factors; then gcd and lcm of their products are
    the min and the max of the dicts."""
    while True:
        A, B = _resolved(A), _resolved(B)
        rest = B.keys() - A.keys()
        if all(rest <= f.coprime or all(g in f.coprime or _coprime(f, g) for g in rest)
               for f in A if f not in B):
            return A, B


def factored_merge(A: dict, q) -> None:
    """A := lcm(A, q) in place, for a factor dict A and q a factor dict or
    a polynomial: the max of the two dicts once they are aligned
    (`_align`).  A's keys come out interned, pairwise coprime and
    primitive with a positive leading coefficient."""
    if isinstance(q, MPoly):
        q = _NOFAC if q.is_constant() else {_factor(q)[1]: 1}
    if not q:
        return
    B, Q = _align({f if type(f) is _Factor else _factor(f)[1]: m for f, m in A.items()}, q)
    for f, m in Q.items():
        if m > B.get(f, 0):
            B[f] = m
    A.clear()
    A.update(B)


def _over_lcm(values):
    """(L, numerators): L the lcm of the RatFunc values' factor dicts, and
    each value's numerator over the product of L (`_over`)."""
    L = {}
    for x in values:
        factored_merge(L, x.fac)
    return L, _over(values, L)


def _keywise_max(dicts) -> dict:
    """The keywise max of factor dicts: a common multiple of their
    products, found without a gcd (their lcm when they are aligned)."""
    L = {}
    for A in dicts:
        for f, m in A.items():
            if m > L.get(f, 0):
                L[f] = m
    return L


def _over(values, L):
    """Each RatFunc value's numerator times the factors the factor dict L
    has beyond the value's resolved dict, which L holds, so that the value
    is that numerator over the product of L."""
    out, cofactors = [], {}  # L over each distinct denominator, expanded once
    for x in values:
        if not x.numer.terms:
            out.append(x.numer)
            continue
        E = _resolved(x.fac)
        key = frozenset(E.items())
        q = cofactors.get(key)
        if q is None:
            q = cofactors[key] = _times(x.numer.ring.one, {
                f: m - E.get(f, 0) for f, m in L.items() if m > E.get(f, 0)})
        out.append(x.numer * q)
    return out


def factored_expand(A: dict, ring) -> MPoly:
    return _times(ring.one, A).monic()


def factored_degree_in(A: dict, var_indices) -> int:
    """The total degree in the given variables of the product of the
    factor dict A."""
    return sum(m * f.degree_in(var_indices) for f, m in A.items())


def _shifted(f: _Factor, i, offset):
    """(c, F) with f(x_i + offset) = c*F, F interned; memoised on f."""
    r = f.shifts.get((i, offset))
    if r is None:
        r = f.shifts[i, offset] = (_factor(f.shift_var(i, offset)) if i in f.vars
                                   else (1, f))
        c, F = r
        F.shifts.setdefault((i, -offset), (_inv(c), f))
    return r


def _images_coprime(f: _Factor, g: _Factor) -> bool:
    """True when, in every variable x_v the two share, lc_v of neither
    vanishes at the point and their images have gcd 1: then deg_v of
    gcd(f, g) is 0 in every variable, so the gcd is 1."""
    for v in f.vars:
        if v in g.vars:
            fv, gv = _factor_image(f, v), _factor_image(g, v)
            if not (fv and gv) or len(_modp_univ_gcd(fv, gv, _IMAGE_PRIME)) > 1:
                return False
    return True


def _factor_image(f: _Factor, v):
    """f's image in x_v (`_image_in`), or None where lc_v(f) vanishes."""
    img = f.images.get(v, False)
    if img is False:
        img = _image_in(f, v)
        img = f.images[v] = img if img[-1] else None
    return img


def _image_over(img, f: _Factor, v, k):
    """The image img of n in x_v made that of n/f^k, f^k dividing n; None
    when f's image cannot divide it."""
    if not img or v not in f.vars:
        return img
    fv = _factor_image(f, v)
    for _ in range(k):
        if fv is None:
            return None
        img = _univ_divmod(img, fv, _IMAGE_PRIME)[0]
    return img


class _Screen:
    """The images of a numerator n in each variable x_v (`_image_in`), kept
    in step as factors are divided out of n.  For a factor h of a
    primitive f, lc_v(h) divides lc_v(f) (Gauss), so where lc_v(f) does
    not vanish at the point, the image of h keeps its degree in x_v and
    divides the images of f and n.  So f^k divides n only when f_v^k
    divides n_v, and deg_v gcd(n, f) is at most the degree of the gcd of
    the images."""

    def __init__(self, n: MPoly):
        self.n = n
        self.images = {}
        self.divisions = []  # (f, k): n has been divided by f^k

    def image(self, v):
        if v not in self.images:
            img = _image_in(self.n, v)
            img = None if img is None else _univ_trim(img)
            for f, k in self.divisions:
                img = _image_over(img, f, v, k)
            self.images[v] = img
        return self.images[v]

    def divided(self, f: _Factor, k) -> None:
        self.divisions.append((f, k))
        for v, img in self.images.items():
            self.images[v] = _image_over(img, f, v, k)

    def bound(self, f: _Factor, m):
        """(K, clean): f^k divides n for no k > K (K <= m), and once f^K
        is known to divide n, clean proves n/f^K coprime to f.  Every
        variable of f is read, since a factor of f may lack some; a linear
        f is irreducible, so one is enough.  (m, False) when the images
        decide nothing."""
        p = _IMAGE_PRIME
        K, found = m, []
        for v in f.vars[:1] if f.linear else f.vars:
            fv, nv = _factor_image(f, v), self.image(v)
            if not (fv and nv):
                return m, False
            if len(fv) == 2 and _univ_eval(nv, -fv[0] * pow(fv[1], -1, p) % p, p):
                K = 0  # nv is not zero at the root of fv
                found.append((0, True))
                continue
            j = 0
            while j < m:
                q, r = _univ_divmod(nv, fv, p)
                if r:
                    break
                nv, j = q, j + 1
            K = min(K, j)
            # a degree-1 image that does not divide nv is coprime to it
            found.append((j, j < m and (len(fv) == 2
                                        or len(_modp_univ_gcd(nv, fv, p)) == 1)))
        return K, all(j == K and coprime for j, coprime in found)


def _cancel(n: MPoly, fac: dict, cands) -> MPoly:
    """n over its common factors with the factors `cands` of fac, each
    taken out of fac (in place) as often as it divides n.  fac is resolved
    and pairwise coprime.  The screen (`_Screen.bound`) only rules
    divisions out: every division made is exact, and what the images do
    not decide is settled by exact gcds, which split a factor that n
    shares only in part."""
    todo = list(cands)
    screen = _Screen(n) if todo else None
    while todo:
        f = todo.pop()
        m = fac[f]
        K, clean = screen.bound(f, m)
        k = 0
        while k < K:
            try:
                n = exact_div(n, f)
            except ValueError:
                clean = False
                break
            k += 1
        while not clean and k < m:
            h, n_h, f_h = poly_cofactors(n, f)
            if h.is_constant():
                break
            if not f_h.is_constant():
                _split(f, {P: a + b for P, a, b in _refined(h, f_h)})
                break
            n = _divided(n_h, f_h.constant_value())
            k += 1
        if k:
            screen.divided(f, k)
        m -= k
        del fac[f]
        if m and f.split:
            for P, e in _resolved(f.split).items():
                fac[P] = m * e
                todo.append(P)
        elif m:
            fac[f] = m
    return n


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
    """Normalized fraction: the numerator `numer` over the product P of
    the factors f^m of `fac` ({factor: multiplicity}, see "factored
    denominators" above), with gcd(numer, P) = 1.  Factors are primitive
    over Z with a positive leading coefficient and pairwise coprime, so P
    is too, and the pair is unique; a polynomial has the empty dict.
    `num` and `den` are the canonical pair, den = P/lc(P) monic, expanded
    on first read: for printing, equality, hashing and readers outside
    `arith` and `growth`.

    `__init__` is the one normalising constructor.  The field operations
    build their results with `_raw`, cancelling only where a common factor
    can survive (Henrici's rules; Knuth, TAOCP 2, 4.5.1), by `_cancel`:

    - a sum (`sum`) is its numerators over the lcm of the dicts, added;
    - (a/B)(c/D) = ac/(B + D), the dicts aligned (`_align`), with a tried
      against the factors of D not in B and c against those of B not in
      D, since a, B and c, D are coprime already."""

    __slots__ = ("numer", "fac", "_num", "_den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        fac = _NOFAC
        if num.is_zero():
            num = num.ring.zero
        else:
            if not den.is_constant():
                _, num, den = poly_cofactors(num, den)
            if den.is_constant():
                num = _divided(num, den.constant_value())
            else:
                c, F = _factor(den)
                num, fac = _divided(num, c), {F: 1}
        self.numer, self.fac = num, fac
        self._num = self._den = None

    # trusted constructor: used where coprimality is already known
    @classmethod
    def _raw(cls, numer, fac):
        self = object.__new__(cls)
        self.numer, self.fac = numer, fac
        self._num = self._den = None
        return self

    @classmethod
    def zero(cls, ring) -> "RatFunc":
        return cls._raw(ring.zero, _NOFAC)

    @classmethod
    def one(cls, ring) -> "RatFunc":
        return cls._raw(ring.one, _NOFAC)

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        return cls._raw(p, _NOFAC)

    @classmethod
    def const(cls, ring, c) -> "RatFunc":
        return cls._raw(ring.const(c), _NOFAC)

    @property
    def num(self) -> MPoly:
        if not self.fac:
            return self.numer
        if self._num is None:
            self._expand()
        return self._num

    @property
    def den(self) -> MPoly:
        if not self.fac:
            return self.numer.ring.one
        if self._den is None:
            self._expand()
        return self._den

    def _expand(self):
        P = _times(self.numer.ring.one, self.fac)
        lc = P.leading_coeff()
        self._num, self._den = _divided(self.numer, lc), _divided(P, lc)

    @property
    def ring(self):
        return self.numer.ring

    def variables(self):
        """Indices of the variables that occur: the numerator's and each
        denominator factor's, with nothing expanded."""
        vs = self.numer.variables()
        for f in self.fac:
            vs |= f.variables()
        return vs

    def is_zero(self) -> bool:
        return not self.numer.terms

    def is_one(self) -> bool:
        return not self.fac and self.numer.is_one()

    def is_constant(self) -> bool:
        return not self.fac and self.numer.is_constant()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc.sum([self, other])

    @staticmethod
    def sum(values) -> "RatFunc":
        """The sum of a nonempty list of RatFuncs: their numerators over
        the lcm L of the denominators (`_over_lcm`), added, with one
        cancellation.  A factor f that has its multiplicity in L in one
        value only cannot divide the sum: it divides the other terms, and
        no prime of f divides that one.  Only the others are tried."""
        terms = [x for x in values if x.numer.terms]
        if len(terms) < 2:
            return terms[0] if terms else values[0]
        L, nums = _over_lcm(terms)
        t = nums[0]
        for x in nums[1:]:
            t = t + x
        if not t.terms:
            return RatFunc.zero(t.ring)
        top = {}
        for x in terms:
            for f, m in _resolved(x.fac).items():
                if m == L[f]:
                    top[f] = top.get(f, 0) + 1
        t = _cancel(t, L, [f for f, c in top.items() if c > 1])
        return RatFunc._raw(t, L or _NOFAC)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.numer, self.fac)

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
        a, c = self.numer, other.numer
        if not a.terms or not c.terms:
            return RatFunc.zero(a.ring)
        B, D = self.fac, other.fac
        B, D = _align(B, D) if B and D else (_resolved(B), _resolved(D))
        L = dict(B)
        for f, m in D.items():
            L[f] = L.get(f, 0) + m
        if not a.is_constant():
            a = _cancel(a, L, [f for f in D if f not in B])
        if not c.is_constant():
            c = _cancel(c, L, [f for f in B if f not in D])
        return RatFunc._raw(a * c, L or _NOFAC)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self) -> "RatFunc":
        n = self.numer
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero")
        P = _times(n.ring.one, self.fac)
        if n.is_constant():
            return RatFunc._raw(_divided(P, n.constant_value()), _NOFAC)
        c, F = _factor(n)
        return RatFunc._raw(_divided(P, c), {F: 1})

    def __pow__(self, n):
        if n == 0:
            return RatFunc.one(self.ring)
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime
        return RatFunc._raw(self.numer ** n,
                            {f: m * n for f, m in self.fac.items()} or _NOFAC)

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
        if self.fac == other.fac:
            return self.numer == other.numer
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.numer.terms)

    def derivative(self, i) -> "RatFunc":
        n, d = self.num, self.den
        if d.is_one():
            return RatFunc.from_poly(n.derivative(i))
        return RatFunc(n.derivative(i) * d - n * d.derivative(i), d * d)

    def shift_var(self, i, offset) -> "RatFunc":
        # a field automorphism: the shifted factors stay pairwise coprime
        # and coprime to the shifted numerator
        n, fac = self.numer.shift_var(i, offset), {}
        for f, m in _resolved(self.fac).items():
            c, F = _shifted(f, i, offset)
            fac[F] = m
            if c != 1:
                n = _divided(n, c ** m)
        return RatFunc._raw(n, fac or _NOFAC)

    def eval_var(self, i, value: "RatFunc") -> "RatFunc":
        return self.num.eval_var(i, value) / self.den.eval_var(i, value)

    def eval_point(self, values) -> Fraction:
        """The exact value at a full rational point, always a Fraction (the
        parts may be ints, and `/` on two ints would give a float)."""
        d = 1
        for f, m in self.fac.items():
            d *= f.eval_point(values) ** m
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return Fraction(self.numer.eval_point(values), d)

    def __repr__(self):
        return "RatFunc(%s)" % self.__str__()

    def __str__(self):
        if not self.fac:
            return format_poly(self.numer)
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

    Exact fraction-free elimination with fill-aware pivoting, fill first,
    then total degree (`nullspace_poly`); returned vectors are in the one
    primitive form (`_finalize_ratfunc_vector_rat`).
    """
    rows = list(rows)
    ring = next((x.ring for row in rows for x in row), None)
    if ring is None:
        return []
    poly_rows = [_clear_row(row, ring) for row in rows]
    return nullspace_poly(poly_rows, len(rows[0]), ring)


def _clear_row(row, ring):
    """The RatFunc row times the lcm of its denominators (`_over_lcm`), in
    the primitive form of `_strip_row_content`."""
    return _strip_row_content(_over_lcm(row)[1], ring)


def _strip_row_content(row, ring):
    """The MPoly row over the monic gcd g of its entries and over the
    rational content of the quotients, so that the entries have gcd 1 and
    their coefficients are coprime ints.  g is folded with
    `poly_cofactors`, and each entry keeps its quotient: when g shrinks to
    g', the earlier quotients are multiplied by g/g', so no entry is
    divided twice."""
    g = ring.zero
    out = list(row)
    done = []
    for i, x in enumerate(row):
        if x.is_zero():
            continue
        g, shrink, out[i] = poly_cofactors(g, x)
        if g.is_one():
            out = row
            break
        if not shrink.is_one():
            for j in done:
                out[j] = out[j] * shrink
        done.append(i)
    c = _rows_rational_content(out)
    return out if c == 1 else [_divided(x, c) for x in out]


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
    Its one caller is `nullspace`, that is, closure.
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
    cleared of denominators and put in the primitive form (`_clear_row`),
    with the first nonzero entry's leading coefficient positive.  Every
    nonzero multiple of vec gives the same vector: the cleared vector is
    h*u for u primitive and h a polynomial, the gcd leaves a rational
    multiple of u, and the content and the sign fix it."""
    polys = _clear_row(vec, ring)
    first = next((p for p in polys if not p.is_zero()), None)
    if first is not None and first.leading_coeff() < 0:
        polys = [-p for p in polys]
    return [RatFunc.from_poly(p) for p in polys]


def _t_free_kernel(rows, ncols, ring, t_var_idx) -> list:
    """Basis of the solutions over Q(x) of rows of RatFunc entries over
    Q(x, t), t the variables t_var_idx.  The Fasenmyer search, the
    Zeilberger search and the certificate ansatz all solve here.

    - One mod-p pass (`_pivot_rows_mod_p`) puts every t-expanded row of
      the rows, taken at the image point, into one echelon.  Those images
      are a homomorphic image of the exact t-expanded rows
      (`_t_expanded_rows`), whose kernel is the t-free solutions, so a
      minor that is nonzero mod p is nonzero over Q(x): rank ncols proves
      there is no solution, and the result is [].
    - Otherwise `nullspace_selected` rebuilds one vector per free column
      of the selected rows' echelon, under a degree cap that is a bound,
      checks each exactly against every t-expanded row, and retries a
      give-up or a failed check at the next (prime, point): the primes
      grow without bound, so the lift fits from some prime on.  Each
      vector's last nonzero column is its own, where the others are 0."""
    selected = _pivot_rows_mod_p(rows, ncols, _image_point(ring.nvars), t_var_idx)
    if len(selected) == ncols:
        return []
    labels = []
    # rebinding frees the rational rows (if the caller holds no other
    # reference) before the exact solve
    rows = _t_expanded_rows(rows, ring, t_var_idx, labels)
    index = {label: i for i, label in enumerate(labels)}
    return nullspace_selected(rows, ncols, ring, [index[label] for label in selected])


def _t_expanded_rows(rows, ring, t_var_idx, labels=None):
    """Each RatFunc row cleared of its denominators and split by powers of
    t: one MPoly row over Q[x] per t-part that occurs, the key tk of a
    monomial in t.  A term of key k goes to tk's row with key k - tk.  A
    vector over Q(x) solves the row exactly when it solves all of them.
    Row r is cleared by L_r, the keywise max of its entries' resolved
    factor dicts (`_keywise_max`), as `_pivot_rows_mod_p` clears it;
    labels, when given, receives each output row's label as that pass
    names it: (r, tk), or r alone when there is no t."""
    out = []
    fields = [(ring.shifts[j], ring.units[j]) for j in t_var_idx]
    for r, row in enumerate(rows):
        groups = {}  # tk: {column: terms}
        L = _keywise_max(_resolved(x.fac) for x in row)
        for j, f in enumerate(_over(row, L)):
            for k, c in f.terms.items():
                tk = 0
                for s, unit in fields:
                    tk += (k >> s & _FIELD) * unit
                polys = groups.get(tk)
                if polys is None:
                    polys = groups[tk] = {}
                terms = polys.get(j)
                if terms is None:
                    terms = polys[j] = {}
                terms[k - tk] = c
        for tk, polys in sorted(groups.items()):
            out.append([MPoly(ring, polys[j]) if j in polys else ring.zero
                        for j in range(len(row))])
            if labels is not None:
                labels.append((r, tk) if t_var_idx else r)
    return out


def nullspace_selected(rows, ncols, ring, selected=None) -> list:
    """Nullspace of an MPoly matrix, rebuilt from a selection of rows and
    checked exactly against all of them.

    At a prime p and a point a, first `_IMAGE_PRIME` at `_image_point`,
    the selection is the rows that add rank to one echelon of their
    images mod p at a: `selected` (`_t_free_kernel`'s pass there) or
    `_pivot_rows_mod_p` of the rows.  Rank ncols proves the kernel is
    {0}.  Otherwise, for each free column f of the echelon of the selected
    rows, in column order, `_kernel_on_support` rebuilds the vector that
    is 1 at f and 0 at the other free columns, and each is checked
    exactly against every row; corank 1 takes one imaging, one echelon
    and one rebuild.

    Basis: the vector for f is 0 past f and not 0 at f (the selected rows
    are independent on the pivot columns at a, hence over Q(x)), so r
    checked vectors are independent, and, as the rank at a point is at
    most the rank over Q(x), they are the kernel's reduced echelon basis
    in column order: each vector's last nonzero column is its own free
    column, where every other vector is 0.

    Retry: a give-up or a failed check reruns the pass and the rebuilds at
    the next (prime, point) of `_solve_points`.  A pair fails when a rank
    drops or an entry vanishes at a, or a coefficient does not lift, never
    on the degree cap, a bound.  Each prime comes with a fresh point, and
    the primes grow without bound, so the lift fits from some prime on,
    and only an unlucky draw, of vanishing chance there, fails.
    """
    for p, point in _solve_points(ring.nvars):
        if selected is None:
            selected = _pivot_rows_mod_p(rows, ncols, point, (), p)
        if len(selected) == ncols:
            return []
        basis = _kernel_on_support([rows[i] for i in selected], ncols, ring, point, p)
        if basis is not None and all(_solves(row, vec) for vec in basis for row in rows):
            return [_finalize_ratfunc_vector_rat([RatFunc.from_poly(x) for x in vec], ring)
                    for vec in basis]
        selected = None


def _solves(row, vec) -> bool:
    """Whether the MPoly vector vec solves the MPoly row exactly."""
    terms = {}
    for x, v in zip(row, vec):
        if x.terms and v.terms:
            for e, c in (x * v).terms.items():
                _acc(terms, e, c)
    return not terms


# -- kernels rebuilt from point solves mod p --------------------------------------


def _kernel_on_support(rows, ncols, ring, point, p):
    """One polynomial vector per free column f of the echelon mod p (in
    column order) of the MPoly rows, independent at the point a: the
    vector 1 at f and 0 at the other free columns, rebuilt by
    `_kernel_by_points` (whose degree cap is a bound) on its support S at
    a from |S| - 1 of the rows cut down to S and independent there, and
    padded with zeros; None when the rows are dependent at a or a rebuild
    gives up.  The vectors are not checked over Q here.

    Deleting the other free columns leaves corank 1 at a, where the back
    substitution with 1 at f is the kernel.  Let w be the kernel vector
    over Q(x) of the rows so cut, with no entry vanishing at a.  Then w(a)
    spans the kernel at a, so S is the support of w, and w_S solves the
    rows cut down to S.  Those have rank |S| - 1 at a, and the |S| - 1
    kept have a kernel over Q(x) of dimension at most 1, the rank at a
    point being at most the rank over Q(x): the line of w_S, which the
    rebuild finds.  An entry of w that vanishes at a is missed, and the
    padded vector fails the caller's check, which then retries at its
    next (prime, point)."""
    image = _Images(ring, enumerate(point), (), p)
    images = [{j: v for j, f in enumerate(row) if f.terms and (v := image(f).get(0, 0))}
              for row in rows]
    pivots = {}
    for vec in images:
        if not _echelon_insert_mod_p(pivots, dict(vec), range(ncols), p):
            return None  # the rows are not independent at a
    basis = []
    for free in [c for c in range(ncols) if c not in pivots]:
        support = sorted(_echelon_kernel(pivots, range(ncols), p, free)[1])
        cut = rows
        if len(support) < ncols:
            cut_pivots, cut = {}, []
            for row, vec in zip(rows, images):
                if len(cut) == len(support) - 1:
                    break
                if _echelon_insert_mod_p(cut_pivots,
                                         {c: vec[c] for c in support if c in vec},
                                         support, p):
                    cut.append([row[c] for c in support])
        w = _kernel_by_points(cut, len(support), ring, point, p)
        if w is None:
            return None
        padded = dict(zip(support, w))
        basis.append([padded.get(c, ring.zero) for c in range(ncols)])
    return basis


def _kernel_by_points(rows, ncols, ring, point, p=None):
    """A polynomial vector spanning the kernel over Q(x) of the ncols - 1
    MPoly rows, which are independent mod p at the point a, rebuilt from
    their kernels at points mod p; None when the rebuild gives up.  p is
    `_IMAGE_PRIME` unless given.  The vector is not checked over Q here.

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

    The degree cap is a bound: by Cramer's rule the signed maximal minors
    of the rows are a kernel vector, each of total degree at most the sum
    over the rows of each row's largest entry degree, and w divides them.
    So the rebuild gives up only when a point solve loses rank or a
    coefficient does not lift, at an unlucky point or prime, and the
    caller retries at its next (prime, point).  None of these steps needs
    to be right for the result to be: the caller checks the vector
    exactly.
    """
    p = _IMAGE_PRIME if p is None else p
    active = sorted(set().union(*(f.variables() for row in rows for f in row)))
    shifts = [ring.shifts[i] for i in active]
    cap = sum(max((f.total_degree() for f in row), default=0) for row in rows)
    # `modp` takes the rows, and gives the vector back, as term dicts over
    # the active variables
    solve = _point_solver([[{tuple(k >> s & _FIELD for s in shifts): c
                             for k, c in f.terms.items()} for f in row] for row in rows],
                          ncols, len(active), p)
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
        generic = (1,) + tuple(_draws(p, ring.nvars + len(active) - 1)[ring.nvars:])
        polys = _interpolate_lines(line, a, generic, free, ncols, cap, p)
        if polys is None:
            return None
    else:
        polys = {j: {(): x} for j, x in base[1].items() if x}
    units = [ring.units[i] for i in active]
    polys = {j: {sum(map(operator.mul, e, units)): v for e, v in f.items()}
             for j, f in polys.items()}
    # one common scale: the leading coefficient of the first entry is 1
    lead = next(f for f in polys.values() if f)
    inv = pow(lead[_grevlex_max(lead, ring)], -1, p)
    vec = [ring.zero] * ncols
    for j, f in polys.items():
        terms = {}
        for k, v in f.items():
            q = terms[k] = _rational_lift(v * inv % p, p)
            if q is None:
                return None
        vec[j] = MPoly(ring, terms)
    return vec


def _pivot_rows_mod_p(rows, ncols, point, t_var_idx=(), p=None) -> list:
    """The t-expanded rows that add rank to one echelon mod p
    (`_IMAGE_PRIME` unless given): for each pivot, in order, the label of
    the row it came from, (r, tk) for row r's t-part tk, or r alone
    when there is no t, so the length of the list is the rank found (it
    stops at ncols).
    This is the one mod-p rank: the t-free proof and the row selection of
    `_t_free_kernel`, `nullspace_selected`'s selection and
    `matrix_rank_at_point`.

    The entries are MPoly or RatFunc over Q(x, t), t the variables
    t_var_idx (none for a matrix over Q(x)).  Each row goes in as its
    exact t-expansion taken at the point in x (`_cleared_images`): the
    rows of `_t_expanded_rows`, one per t-part, in the same order.  A
    row with a coefficient denominator p divides is skipped, and so is a
    row with a denominator factor whose image is the zero polynomial in t.
    Reducing mod p and setting x to the point is a ring homomorphism on
    the polynomials whose coefficient denominators are prime to p, so each
    vector that goes in is the image of a t-expanded row, and a nonzero
    minor of the images mod p is the image of a nonzero minor over Q(x).
    The rank found is therefore at most the rank over Q(x) of the
    t-expanded rows, whose kernel is the t-free solutions of the rows:
    rank ncols proves that no nonzero t-free solution exists, and a short
    rank names the rows an exact solve starts from.  No randomness is
    involved beyond the point."""
    p = _IMAGE_PRIME if p is None else p
    ring = next((x.ring for row in rows for x in row), None)
    if ring is None:
        return []
    tset = set(t_var_idx)
    image = _Images(ring, ((i, x) for i, x in enumerate(point) if i not in tset),
                    t_var_idx, p)
    columns = range(ncols)
    cache = {}  # images of the denominator factors and their products
    pivots, out = {}, []
    for r, row in enumerate(rows):
        vectors = _cleared_images(row, image, cache)
        for tk in sorted(vectors):
            if _echelon_insert_mod_p(pivots, vectors[tk], columns, p):
                out.append((r, tk) if t_var_idx else r)
                if len(out) == ncols:
                    return out
    return out


def _cleared_images(row, image, cache) -> dict:
    """{tk: {col: value}}: the row's t-expanded rows (`_t_expanded_rows`)
    under the map `image` (an `_Images`), one per t-part tk with a nonzero
    value; {} when the row is skipped (see `_pivot_rows_mod_p`).

    The row is cleared by L, the keywise max of its entries' resolved
    factor dicts E_j, so entry j becomes N_j*(L/E_j).  The image of L/E_j
    is image(L)/image(E_j), an exact division in GF(p)[T] once no factor
    of L has the zero image, and the image of the entry is that times the
    image of N_j.  Several t are packed into one T by Kronecker's
    substitution t_i = T^(B^i), a ring homomorphism, with B above every
    t-degree of the products, so each product's coefficients come back as
    the coefficients of its t-monomials.  cache keeps, per call, each
    factor's image (None when it is zero) and, keyed by the factor dict
    and the packing, each product of factor images."""
    p = image.p
    nums, dens = {}, []  # the images of the nonzero entries, by column
    for j, x in enumerate(row):
        num, E = (x.numer, _resolved(x.fac)) if isinstance(x, RatFunc) else (x, _NOFAC)
        if num.terms:
            img = nums[j] = image(num)
            if img is None:
                return {}
            dens.append(E)
    L = _keywise_max(dens)
    for f in L:
        if f not in cache:
            img = image(f)
            cache[f] = img if any(img.values()) else None
        if cache[f] is None:
            return {}
    B = 1 + max(map(image.degree, nums.values()), default=0) + sum(
        m * image.degree(cache[f]) for f, m in L.items())
    weights = [B ** i for i in range(len(image.t))]

    def packed(img):
        out = []
        for tk, v in img.items():
            if v:  # B bounds the degrees of the nonzero values only
                k = sum((tk >> s & _FIELD) * w for (s, _), w in zip(image.t, weights))
                out.extend([0] * (k + 1 - len(out)))
                out[k] = v
        return out

    def product(A):
        key = (frozenset(A.items()), B)
        if key not in cache:
            out = [1]
            for f, m in A.items():
                for _ in range(m):
                    out = _univ_mul(out, packed(cache[f]), p)
            cache[key] = out
        return cache[key]

    top = product(L)
    cofactors = {}  # image(L)/image(E) per distinct E of the row
    vectors = {}
    for (j, img), E in zip(nums.items(), dens):
        key = frozenset(E.items())
        if key not in cofactors:
            cofactors[key] = _univ_divmod(top, product(E), p)[0] if E else top
        for k, v in enumerate(_univ_mul(packed(img), cofactors[key], p)):
            if v:
                tk = 0
                for _, unit in image.t:
                    k, d = divmod(k, B)
                    tk += d * unit
                vectors.setdefault(tk, {})[j] = v
    return vectors


class _Images:
    """The module's one map from a polynomial to its image mod p: each
    variable i set to x for (i, x) in xs, the variables t_var_idx kept.
    image(f) is {t-part key: value}, with a key for every t-part of f's
    terms, the key 0 alone when there is no t; None when p divides a
    coefficient denominator.  It keeps, for its point and p, each
    monomial's t-part and x-value, and a power table per variable's
    field."""

    def __init__(self, ring, xs, t_var_idx, p):
        self.p, self.top = p, ring.top
        self.xs = [(ring.shifts[i], x % p, [1]) for i, x in xs]
        self.t = [(ring.shifts[j], ring.units[j]) for j in t_var_idx]
        self.monomials = {}

    def __call__(self, f: MPoly):
        p, monomials = self.p, self.monomials
        out = {}
        for k, c in f.terms.items():
            if type(c) is not int:
                if not c.denominator % p:
                    return None
                c = c.numerator * pow(c.denominator, -1, p)
            hit = monomials.get(k)
            if hit is None:
                hit = monomials[k] = self._split(k)
            tk, w = hit
            out[tk] = (out.get(tk, 0) + c * w) % p
        return out

    def _split(self, k):
        """(t-part key, x-value mod p) of the monomial key k."""
        p, w = self.p, 1
        for s, x, powers in self.xs:
            d = k >> s & _FIELD
            if d:
                while len(powers) <= d:
                    powers.append(powers[-1] * x % p)
                w = w * powers[d] % p
        tk = 0
        for s, unit in self.t:
            tk += (k >> s & _FIELD) * unit
        return tk, w

    def degree(self, img) -> int:
        """The total t-degree of an image {tk: value}; 0 for the zero image."""
        return max((tk >> self.top for tk, v in img.items() if v), default=0)


def matrix_rank_at_point(rows, ncols, point) -> int:
    """Rank mod `_IMAGE_PRIME` of an MPoly matrix at an integer point, rows
    with a coefficient denominator the prime divides left out: a lower
    bound on the generic rank, equal to it generically."""
    return len(_pivot_rows_mod_p(rows, ncols, [int(x) for x in point]))
