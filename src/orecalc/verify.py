"""Numeric oracle: exact evaluation of the corpus sequences, application of
shift operators to tabulated data, and end-to-end identity checks of
telescopers against brute-force definite sums.

All arithmetic is exact.  A value is an int when it is an integer (the
builtin integer sequences, linear factors, products and sums of them,
nonnegative powers) and a Fraction otherwise (Bernoulli numbers, negative
powers, values of rational-function coefficients); no `/` is taken
between two ints, which would give a float.  Failures are report entries
rather than exceptions so a whole box can be swept in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .arith import _keywise_max
from .errors import NonDiscreteAlgebra, OutOfDomain
from .ore import OreKind, OrePoly, as_shifts

# -- builtin sequences --------------------------------------------------------

_stirling2_memo = {(0, 0): 1}
_eulerian1_memo = {(0, 0): 1}
_bernoulli_memo = {0: Fraction(1), 1: Fraction(-1, 2)}


def binomial(n, k) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling2(n, k) -> int:
    """Stirling numbers of the second kind, S2(n,k) = S2(n-1,k-1) + k*S2(n-1,k)."""
    if k < 0 or k > n or n < 0:
        return 0
    v = _stirling2_memo.get((n, k))
    if v is None:
        v = stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)
        _stirling2_memo[(n, k)] = v
    return v


def eulerian1(n, m) -> int:
    """Eulerian numbers of the first kind (ascent counts of permutations)."""
    if m < 0 or n < 0 or (n == 0 and m > 0) or (n > 0 and m >= n):
        return 0
    v = _eulerian1_memo.get((n, m))
    if v is None:
        v = (m + 1) * eulerian1(n - 1, m) + (n - m) * eulerian1(n - 1, m - 1)
        _eulerian1_memo[(n, m)] = v
    return v


def bernoulli(n) -> Fraction:
    """First Bernoulli numbers: B1 = -1/2."""
    if n < 0:
        raise OutOfDomain("Bernoulli number of negative index")
    v = _bernoulli_memo.get(n)
    if v is None:
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * bernoulli(j)
        v = -acc / (n + 1)
        _bernoulli_memo[n] = v
    return v


def factorial(n) -> int:
    if n < 0:
        raise OutOfDomain("factorial of negative integer")
    return math.factorial(n)


# -- oracle expressions ---------------------------------------------------------


@dataclass(frozen=True)
class LinExpr:
    """Integer-linear index expression: sum of coeff*var plus a constant."""

    coeffs: tuple = ()  # ((var, coeff), ...)
    const: int = 0

    @staticmethod
    def of(const=0, **coeffs):
        return LinExpr(tuple(sorted(coeffs.items())), const)

    def eval(self, env) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def variables(self):
        return {v for v, _ in self.coeffs}

    def split(self, var, env):
        """(c, d) with self = c*var + d at the other variables' values."""
        c, d = 0, self.const
        for v, a in self.coeffs:
            if v == var:
                c = a
            else:
                d += a * env[v]
        return c, d

    def __str__(self):
        bits = []
        for v, c in self.coeffs:
            if c == 1:
                bits.append(v)
            elif c == -1:
                bits.append("-" + v)
            else:
                bits.append("%d*%s" % (c, v))
        if self.const or not bits:
            bits.append(str(self.const))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


_BUILTINS = {
    "binomial": (2, binomial, True),
    "stirling2": (2, stirling2, True),
    "eulerian1": (2, eulerian1, True),
    "bernoulli": (1, bernoulli, False),
    "factorial": (1, factorial, False),
}


# -- supports: where a summand can be nonzero, as an interval in one variable ---
#
# An interval is (lo, hi) with lo > hi when it is empty, and an end None
# where nothing bounds that side; None means nothing is proved.


def _half_line(c, d):
    """The x with c*x + d >= 0."""
    if c > 0:
        return -(d // c), None
    if c < 0:
        return None, d // -c
    return (None, None) if d >= 0 else (1, 0)


def _meet(a, b):
    lo = a[0] if b[0] is None else b[0] if a[0] is None else max(a[0], b[0])
    hi = a[1] if b[1] is None else b[1] if a[1] is None else min(a[1], b[1])
    return lo, hi


def _proved(s):
    return None if s == (None, None) else s


class SequenceOracle:
    """Base for exact sequence expressions; eval(env) -> int or Fraction."""

    def eval(self, env):
        raise NotImplementedError

    def variables(self):
        raise NotImplementedError

    def has_finite_support(self) -> bool:
        return False

    def support(self, var, env):
        """An interval in `var` outside which the value is 0 when the
        other variables take their values in env, or None."""
        return None


@dataclass(frozen=True)
class Builtin(SequenceOracle):
    name: str
    args: tuple  # of LinExpr

    def __post_init__(self):
        arity, _, _ = _BUILTINS[self.name]
        if len(self.args) != arity:
            raise OutOfDomain("%s takes %d arguments" % (self.name, arity))

    def eval(self, env):
        _, fn, _ = _BUILTINS[self.name]
        return fn(*(a.eval(env) for a in self.args))

    def variables(self):
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def has_finite_support(self):
        return _BUILTINS[self.name][2]

    def support(self, var, env):
        # zero unless 0 <= second argument <= first argument
        if not self.has_finite_support():
            return None
        c0, d0 = self.args[0].split(var, env)
        c1, d1 = self.args[1].split(var, env)
        return _proved(_meet(_half_line(c1, d1), _half_line(c0 - c1, d0 - d1)))

    def __str__(self):
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


@dataclass(frozen=True)
class Const(SequenceOracle):
    value: Fraction

    def eval(self, env):
        return self.value

    def variables(self):
        return set()

    def support(self, var, env):
        return (1, 0) if self.value == 0 else None

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Pow(SequenceOracle):
    """base^exp with integer-linear base and exponent; 0^0 = 1."""

    base: LinExpr
    exp: LinExpr

    def eval(self, env):
        b = self.base.eval(env)
        e = self.exp.eval(env)
        if b == 0:
            if e == 0:
                return 1
            if e < 0:
                raise OutOfDomain("0 raised to a negative power")
            return 0
        return b ** e if e >= 0 else Fraction(b) ** e

    def variables(self):
        return self.base.variables() | self.exp.variables()

    def __str__(self):
        return "pow(%s, %s)" % (self.base, self.exp)


@dataclass(frozen=True)
class Lin(SequenceOracle):
    expr: LinExpr

    def eval(self, env):
        return self.expr.eval(env)

    def variables(self):
        return self.expr.variables()

    def __str__(self):
        text = str(self.expr)
        if len(self.expr.coeffs) + (1 if self.expr.const else 0) > 1:
            return "(%s)" % text
        return text


@dataclass(frozen=True)
class Product(SequenceOracle):
    factors: tuple

    def __post_init__(self):
        # bounded-support factors first: a zero there suppresses factors
        # that would be out of domain outside the support (e.g. Bernoulli)
        object.__setattr__(self, "_ordered", tuple(sorted(
            self.factors, key=lambda f: not f.has_finite_support())))

    def eval(self, env):
        total = 1
        for f in self._ordered:
            v = f.eval(env)
            if v == 0:
                return 0
            total *= v
        return total

    def variables(self):
        out = set()
        for f in self.factors:
            out |= f.variables()
        return out

    def has_finite_support(self):
        return any(f.has_finite_support() for f in self.factors)

    def support(self, var, env):
        s = (None, None)
        for f in self.factors:
            t = f.support(var, env)
            if t is not None:
                s = _meet(s, t)
        return _proved(s)

    def __str__(self):
        return " * ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Add(SequenceOracle):
    terms: tuple

    def eval(self, env):
        return sum(t.eval(env) for t in self.terms)

    def variables(self):
        out = set()
        for t in self.terms:
            out |= t.variables()
        return out

    def support(self, var, env):
        # the hull of the terms' nonempty supports, an end kept where every
        # such term has it; empty when every term's is
        ss = [t.support(var, env) for t in self.terms]
        if None in ss:
            return None
        ss = [(lo, hi) for lo, hi in ss if lo is None or hi is None or lo <= hi]
        if not ss:
            return (1, 0)
        los, his = [lo for lo, _ in ss], [hi for _, hi in ss]
        return _proved((None if None in los else min(los),
                        None if None in his else max(his)))

    def __str__(self):
        return " + ".join(str(t) for t in self.terms)


class DefiniteSum(SequenceOracle):
    """Sum of the body over its proved finite support in one variable.

    At the outer values the body states an interval outside which it is 0
    (`support`: a finite-support builtin is 0 unless 0 <= second argument
    <= first, a product meets its factors' intervals, a sum takes the hull
    of its terms' nonempty ones, the constant 0 is empty), and the sum runs
    over exactly that interval.  A body with no such finite interval
    raises: nothing then bounds the sum, so no finite sum could be checked
    against it."""

    def __init__(self, var, body):
        self.var = var
        self.body = body
        self._outer = tuple(sorted(self.variables()))
        self._memo = {}

    def eval(self, env):
        key = tuple(env[v] for v in self._outer)
        total = self._memo.get(key)
        if total is None:
            s = self.body.support(self.var, env)
            if s is None or None in s:
                raise OutOfDomain("summand does not vanish (no natural boundary)")
            env = dict(env)
            total = 0
            for x in range(s[0], s[1] + 1):
                env[self.var] = x
                total += self.body.eval(env)
            self._memo[key] = total
        return total

    def variables(self):
        return self.body.variables() - {self.var}

    def __str__(self):
        return "sum(%s, %s)" % (self.var, self.body)


# -- operators acting on sequences -----------------------------------------------


def _as_shift_form(L: OrePoly) -> OrePoly:
    alg, (L,) = as_shifts(L.algebra, [L])
    for g in alg.gens:
        if g.kind is not OreKind.SHIFT:
            raise NonDiscreteAlgebra(
                "numeric application needs shift/difference generators, got %s"
                % g.kind.value)
    return L


def operator_variables(L: OrePoly) -> set:
    """The ground variables L involves: in a coefficient or as the
    variable a generator of L shifts."""
    names = L.algebra.field.names
    gvars = [g.var for g in L.algebra.gens]
    out = set()
    for exp, coeff in L.terms.items():
        out.update(names[i] for i in coeff.variables())
        out.update(gvars[i] for i, e in enumerate(exp) if e)
    return out


def apply_operator_numeric(L: OrePoly, oracle: SequenceOracle, points):
    """(L . h) evaluated at integer points, h given by the oracle.

    Returns a list of (env, value-or-None, note); a vanishing coefficient
    denominator skips the sample with a note.  At each point every
    denominator factor of L is evaluated once, and the terms are added
    over their common denominator.
    """
    L = _as_shift_form(L)
    names = L.algebra.field.names
    gvars = [g.var for g in L.algebra.gens]
    needed = operator_variables(L)
    # the common denominator: each factor at its largest multiplicity
    top = _keywise_max(coeff.fac for coeff in L.terms.values())
    # each term: its shifts, numerator, and cofactor in the common denominator
    terms = [([(gvars[i], e) for i, e in enumerate(exp) if e], coeff.numer,
              [(f, m - coeff.fac.get(f, 0)) for f, m in top.items()])
             for exp, coeff in L.terms.items()]
    out = []
    for env in points:
        missing = needed - set(env)
        if missing:
            raise OutOfDomain("operator involves %s but the sample point does not"
                              % ", ".join(sorted(missing)))
        point = [env.get(v, 0) for v in names]
        at = {f: f.eval_point(point) for f in top}
        if 0 in at.values():
            out.append((dict(env), None, "denominator vanishes at %r" % (env,)))
            continue
        den = math.prod(at[f] ** m for f, m in top.items())
        total = 0
        for shifts, numer, cofactor in terms:
            c = numer.eval_point(point) * math.prod(at[f] ** m for f, m in cofactor)
            shifted = dict(env)
            for v, e in shifts:
                shifted[v] += e
            total += c * oracle.eval(shifted)
        out.append((dict(env), Fraction(total, den), ""))
    return out


def box_points(ranges):
    """Cartesian product of {var: (lo, hi)} inclusive ranges."""
    names = list(ranges)
    out = [{}]
    for v in names:
        lo, hi = ranges[v]
        out = [dict(e, **{v: x}) for e in out for x in range(lo, hi + 1)]
    return out


@dataclass
class IdentityReport:
    passed: bool
    checked: int = 0
    counterexamples: list = dataclass_field(default_factory=list)
    skipped: list = dataclass_field(default_factory=list)

    def fail(self, env, what):
        self.passed = False
        self.counterexamples.append((dict(env), what))


def check_identity(summand: SequenceOracle, telescoper: OrePoly,
                   closed_form: SequenceOracle, sum_var: str,
                   outer_ranges: dict) -> IdentityReport:
    """Verify a definite-sum identity witnessed by a telescoper.

    Checks that the telescoper annihilates (i) the sum over the summand's
    proved support and (ii) the closed form over the box, and (iii) that
    the two sides agree on the whole box.  Purely finite-box evidence: for
    positive-dimensional annihilators the infinite family of initial
    conditions is out of reach.  A box with no point shows nothing and
    fails; a summand with no proved finite support raises OutOfDomain.
    """
    report = IdentityReport(passed=True)
    lhs = DefiniteSum(sum_var, summand)
    points = box_points(outer_ranges)
    if not points:
        report.fail({}, "the box has no point")
    for env, value, note in apply_operator_numeric(telescoper, lhs, points):
        report.checked += 1
        if value is None:
            report.skipped.append((env, note))
        elif value != 0:
            report.fail(env, "telescoper does not annihilate the sum")
    for env, value, note in apply_operator_numeric(telescoper, closed_form, points):
        if value is None:
            report.skipped.append((env, note))
        elif value != 0:
            report.fail(env, "telescoper does not annihilate the closed form")
    for env in points:
        if lhs.eval(env) != closed_form.eval(env):
            report.fail(env, "initial values differ")
    return report
