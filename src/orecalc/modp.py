"""Integer routines under `arith`: exponent vectors, and arithmetic over
GF(p) for the engine's mod-p decisions (dense univariate polynomials, a
sparse row echelon, rational reconstruction, interpolation on lower sets,
and one interpolation along lines through a point, which rebuilds both a
kernel vector from kernels at points and a gcd from univariate gcds).

Nothing here is trusted on its own: `arith` checks over Q what these
routines find.  The module imports no other part of the engine, so every
module can use it.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction


def exponents_up_to(n, s):
    """All exponent vectors in n variables of total degree <= s, by degree
    and then in ascending lexicographic order."""
    out = [()]
    for _ in range(n):
        out = [e + (d,) for e in out for d in range(s - sum(e) + 1)]
    out.sort(key=lambda e: (sum(e), e))
    return out


# -- dense univariate polynomials over GF(p), lowest coefficient first -----------

def _univ_eval(coeffs, alpha, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * alpha + c) % p
    return acc


def _univ_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _univ_trim([x % p for x in out])


def _univ_sub(a, b, p):
    n = max(len(a), len(b))
    return _univ_trim([(_coeff(a, i) - _coeff(b, i)) % p for i in range(n)])


def _univ_divmod(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b, dense lists over GF(p)."""
    r = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(b) - 1] * inv % p
        q[i] = c
        if c:
            for j, x in enumerate(b):
                r[i + j] = (r[i + j] - c * x) % p
    return _univ_trim(q), _univ_trim(r[:len(b) - 1])


def _univ_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _coeff(f, k):
    return f[k] if k < len(f) else 0


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


# -- sparse row echelon ------------------------------------------------------------

def _echelon_insert_mod_p(pivots, vec, order, p) -> bool:
    """Reduce the sparse row vec {col: value mod p}, in place, by the echelon
    rows {col: sparse row with 1 at col and no entry at a column before col
    in `order`}, going through the columns in that order; keep it and
    return True when it adds rank."""
    for c in order:
        a = vec.get(c)
        if not a:
            continue
        piv = pivots.get(c)
        if piv is None:
            inv = pow(a, -1, p)
            pivots[c] = {j: v * inv % p for j, v in vec.items() if v}
            return True
        for j, w in piv.items():
            vec[j] = (vec.get(j, 0) - a * w) % p
    return False


def _echelon_kernel(pivots, order, p, free=None):
    """(free column f, kernel vector {col: nonzero value} with 1 at f and 0
    at the other non-pivot columns) of an echelon (`_echelon_insert_mod_p`)
    over the columns `order`, f the first non-pivot column unless given."""
    vec = dict.fromkeys((c for c in order if c not in pivots), 0)
    if free is None:
        free = next(iter(vec))
    vec[free] = 1
    for c in reversed(order):
        row = pivots.get(c)
        if row is not None:
            vec[c] = -sum(w * vec[j] for j, w in row.items() if j != c) % p
    return free, {j: v for j, v in vec.items() if v}


# -- kernels rebuilt from point solves ---------------------------------------------

# a MQRR lift is accepted only when its quotient has more bits than this
_LIFT_MARGIN = 20


def _point_solver(rows, ncols, n, p):
    """solve(x) for the ncols - 1 rows of term dicts {exponent: coefficient}
    in n variables: (free column, kernel vector {col: nonzero value} with 1
    there) of their images mod p at x, or None when they lose rank there.

    Each point is one sparse echelon (`_echelon_insert_mod_p`) and one
    back substitution.  The rows go in by their number of entries and the
    columns are taken by their number of entries, both ascending, which
    keeps the fill of the echelon low."""
    monomials = {}
    compiled = []
    for row in rows:
        entries = []
        for col, f in enumerate(row):
            if f:
                # an integer coefficient stays as it is: most are small
                entries.append((col, tuple(
                    monomials.setdefault(e, len(monomials)) for e in f), tuple(
                    c if type(c) is int
                    else c.numerator * pow(c.denominator, -1, p) % p
                    for c in f.values())))
        compiled.append(entries)
    compiled.sort(key=len)
    counts = [0] * ncols
    for entries in compiled:
        for col, _, _ in entries:
            counts[col] += 1
    order = sorted(range(ncols), key=counts.__getitem__)
    degrees = [max((e[i] for e in monomials), default=0) for i in range(n)]

    def solve(x):
        powers = [[pow(xi, d, p) for d in range(top + 1)] for xi, top in zip(x, degrees)]
        values = [math.prod(pw[d] for pw, d in zip(powers, e)) % p for e in monomials]
        pivots = {}
        for entries in compiled:
            vec = {}
            for col, ms, cs in entries:
                v = sum(map(operator.mul, cs, map(values.__getitem__, ms))) % p
                if v:
                    vec[col] = v
            if not _echelon_insert_mod_p(pivots, vec, order, p):
                return None
        return _echelon_kernel(pivots, order, p)

    return solve


def _line_numerators(kernel, a, y, c, cols, npoints, p):
    """{j: dense numerator in s} for the columns j in cols of the kernel
    vector along x = a + s*y, normalised to 1 at column c, over the common
    denominator L(s) of the v_j with L(0) = 1 (column c's numerator is L
    itself).  Points s = 0, 1, ... are added until every column's rational
    reconstruction (`_rational_fit`) has a value to spare; None when a
    point fails or npoints do not suffice."""
    values = {j: [] for j in cols}
    fits = {}
    for s in range(npoints):
        v = kernel(tuple((ai + s * yi) % p for ai, yi in zip(a, y)))
        if v is None or not v.get(c):
            return None
        inv = pow(v[c], -1, p)
        for j in cols:
            x = v.get(j, 0) * inv % p
            values[j].append(x)
            fit = fits.get(j)
            if fit is not None and _univ_eval(fit[0], s, p) != x * _univ_eval(fit[1], s, p) % p:
                del fits[j]
        # fit the columns in turn and stop at the first that needs another
        # point: the later ones wait for it, so each is fitted about once
        for j in cols:
            if j not in fits:
                fit = _rational_fit(values[j], p)
                if fit is None:
                    break
                fits[j] = fit
        else:
            break
    else:
        return None
    den = [1]
    for j in cols:
        d = fits[j][1]
        if len(d) > 1:
            den = _univ_mul(den, _univ_divmod(d, _modp_univ_gcd(den, d, p), p)[0], p)
    inv = pow(den[0], -1, p)
    den = [x * inv % p for x in den]
    return {j: _univ_mul(fits[j][0], _univ_divmod(den, fits[j][1], p)[0], p)
            for j in cols}


def _interpolate_lines(line, a, generic, free, ncols, cap, p):
    """{column: term dict mod p over the active variables} of the vector
    w/w_c(a) of polynomials, from the numerators that line(y, c, cols)
    gives along x = a + s*y; None when a line fails or the degree passes
    the cap.  w is a kernel vector (`arith._kernel_by_points`) or, with
    one column, a gcd (`_gcd_mod_p`).

    The first line, in the direction generic = (1, b') with b'
    pseudo-random, gives the entries that vanish (taken as zero), c, the
    entry of lowest degree there, and delta, the total degree of w: a
    line's numerators are w_j(a + s*y)/w_c(a) at any normalising column,
    and the degree-delta part of w does not vanish at a generic direction.
    At a constant entry c every line is polynomial and needs half the
    points.  Then the lines y = (1, y') with |y'| <= delta, y' integer,
    fix every part of degree k <= delta on its lower set |y'| <= k.  Where
    the first line was unlucky, the vector found is wrong, and the
    caller's exact check rejects it."""
    n = len(a)
    first = line(generic, free, range(ncols))
    if first is None:
        return None
    support = [j for j in range(ncols) if first[j]]
    delta = max(len(first[j]) for j in support) - 1
    if delta > cap:
        return None
    c = min(support, key=lambda j: (len(first[j]), j))
    lines = {yp: line((1,) + yp, c, support) for yp in exponents_up_to(n - 1, delta)}
    if None in lines.values():
        return None
    polys = {}
    for j in support:
        f = {}
        for k in range(delta + 1):
            # H_jk(1, y'), of degree k, by its values on the lines |y'| <= k
            g = _lower_set_interpolant(
                {yp: _coeff(lines[yp][j], k) for yp in exponents_up_to(n - 1, k)},
                n - 1, k, p)
            f.update(((k - sum(e),) + e, v) for e, v in g.items())
        for i, x in enumerate(a):
            f = _modp_shift(f, i, -x % p, p)
        polys[j] = f
    return polys


def _rational_fit(values, p):
    """(num, den), dense in s over GF(p) with den(0) = 1, of the rational
    function that takes values[s] at s = 0, 1, ...; None unless the values
    fix it with one to spare.

    Euclid's remainders r_i of M = prod (s - i) and the interpolant u
    satisfy t_i*u = r_i mod M, and the reduced num/den of degrees
    dn + dd < len(values) is one of the pairs (r_i, t_i).  The pair taken
    is the one whose next quotient has the largest degree (Monagan's rule,
    for polynomials), and only when that degree is at least 2: the degree
    is len(values) - dn - dd, so at least one value is left over."""
    u = _lower_set_interpolant({(s,): v for s, v in enumerate(values)},
                               1, len(values) - 1, p)
    if not u:
        return ([], [1]) if len(values) > 1 else None
    r1 = [0] * (max(u)[0] + 1)
    for (d,), v in u.items():
        r1[d] = v
    r0 = [1]
    for s in range(len(values)):
        r0 = _univ_mul(r0, [-s % p, 1], p)
    t0, t1 = [], [1]
    best, gap = None, 1
    while r1:
        if len(r0) - len(r1) > gap:
            best, gap = (r1, t1), len(r0) - len(r1)
        q, r = _univ_divmod(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, _univ_sub(t0, _univ_mul(q, t1, p), p)
    if best is None or not best[1][0]:
        return None
    inv = pow(best[1][0], -1, p)
    return [x * inv % p for x in best[0]], [x * inv % p for x in best[1]]


def _rational_lift(c, p):
    """The coefficient a/b (an int when b = 1) with a = b*c mod p, by
    maximal quotient rational reconstruction (Monagan 2004): the Euclidean
    pair (r_i, t_i) with t_i*c = r_i mod p before the largest quotient,
    which must exceed 2^_LIFT_MARGIN; None otherwise.  A small a/b gives a
    quotient of about p/|ab|, a residue with no small preimage almost never
    a large one."""
    if not c:
        return 0
    r0, r1, t0, t1 = p, c, 0, 1
    best, top = None, 1 << _LIFT_MARGIN
    while r1:
        q = r0 // r1
        if q > top:
            best, top = (r1, t1), q
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if best is None or math.gcd(*best) != 1:
        return None
    a, b = best
    if b < 0:
        a, b = -a, -b
    return a if b == 1 else Fraction(a, b)


def _lower_set_interpolant(values, m, d, p):
    """{exponent: coefficient mod p} of the polynomial of total degree at
    most d in m variables that takes values[alpha] at every alpha in N^m
    with |alpha| <= d: Newton's forward form in the first variable,
    f = sum_i C(y_1, i)*g_i, where g_i, the i-th forward difference in y_1
    at y_1 = 0, has degree at most d - i and is known on the lower set of
    that degree in the other variables."""
    if m == 0:
        v = values[()] % p
        return {(): v} if v else {}
    rest = exponents_up_to(m - 1, d)
    diffs = {}
    for beta in rest:
        col = [values[(i,) + beta] for i in range(d - sum(beta) + 1)]
        out = []
        while col:
            out.append(col[0])
            col = [(y - x) % p for x, y in zip(col, col[1:])]
        diffs[beta] = out
    out = {}
    basis, fact = [1], 1  # y (y-1) ... (y-i+1) and i!
    for i in range(d + 1):
        g = _lower_set_interpolant({beta: diffs[beta][i] for beta in rest
                                    if sum(beta) <= d - i}, m - 1, d - i, p)
        inv = pow(fact, -1, p)
        for e, v in g.items():
            v = v * inv % p
            for k, b in enumerate(basis):
                if b:
                    key = (k,) + e
                    out[key] = (out.get(key, 0) + v * b) % p
        basis = _univ_mul(basis, [-i % p, 1], p)
        fact *= i + 1
    return {e: v for e, v in out.items() if v}


def _modp_shift(f, v, c, p):
    """The term dict f with x_v replaced by x_v + c, over GF(p)."""
    if not c:
        return f
    # row d: the coefficients of (x_v + c)^d
    rows = [[math.comb(d, j) * pow(c, d - j, p) % p for j in range(d + 1)]
            for d in range(max((e[v] for e in f), default=0) + 1)]
    out = {}
    for e, x in f.items():
        head, tail = e[:v], e[v + 1:]
        for j, r in enumerate(rows[e[v]]):
            key = head + (j,) + tail
            out[key] = (out.get(key, 0) + x * r) % p
    return {e: x for e, x in out.items() if x}


def _along(f, deg, y, p):
    """Dense coefficients in s of f(s*y), f a term dict of total degree
    deg: the coefficient of s^k is the degree-k part of f at y."""
    powers = [[pow(v, d, p) for d in range(deg + 1)] for v in y]
    out = [0] * (deg + 1)
    for e, x in f.items():
        out[sum(e)] += x * math.prod(map(list.__getitem__, powers, e))
    return _univ_trim([x % p for x in out])


# -- gcds rebuilt along lines ------------------------------------------------------

def _gcd_mod_p(f, g, x0, generic, p):
    """The gcd h of the nonzero term dicts f and g over GF(p), as h/h(x0),
    rebuilt along lines through x0 (`_interpolate_lines`); None when this
    point and direction prove nothing.

    Along x0 + s*y the images of f and g are read off their shifts to x0
    (`_along`), and their univariate gcd, normalised to 1 at s = 0, is
    h(x0 + s*y)/h(x0) on every lucky line.  The first line, in the
    direction generic, is certified when f or g keeps its total degree
    there: then the top form of h does not vanish at generic, so the degree
    of the gcd there, deg G, bounds the total degree of h.  A certified
    deg G = 0 gives h = 1.  Otherwise the rebuild must have total degree
    deg G; a divisor of h of that degree is h, which the caller's exact
    divisions decide.  None when the first line is not certified, when a
    gcd vanishes at x0, or when the degree differs."""
    df, dg = max(map(sum, f)), max(map(sum, g))
    for i, x in enumerate(x0):
        f, g = _modp_shift(f, i, x, p), _modp_shift(g, i, x, p)

    def normalised_gcd(u, w):
        h = _modp_univ_gcd(u, w, p) if u and w else [0]
        if not h[0]:
            return None
        inv = pow(h[0], -1, p)
        return {0: [x * inv % p for x in h]}

    def line(y, c, cols):
        # the gcd is the one column, c = 0
        if y not in gcds:
            gcds[y] = normalised_gcd(_along(f, df, y, p), _along(g, dg, y, p))
        return gcds[y]

    u, w = _along(f, df, generic, p), _along(g, dg, generic, p)
    if len(u) <= df and len(w) <= dg:
        return None
    first = normalised_gcd(u, w)
    if first is None:
        return None
    gcds = {generic: first}
    delta = len(first[0]) - 1
    if not delta:
        return {(0,) * len(x0): 1}
    h = _interpolate_lines(line, x0, generic, 0, 1, delta, p)
    if h is None or max(map(sum, h[0])) != delta:
        return None
    return h[0]
