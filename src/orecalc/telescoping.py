"""Creative telescoping: telescoper/certificate pairs A + sum d_t Q_t in I.

Searches run over the user's (shift) algebra; the decomposition targets
difference operators, where the telescoped identity sums naturally.  Every
returned result carries an exact membership witness: the combination
A + sum d_{t_i} Q_i reduces to zero modulo the ideal.

Difference form is a change of coordinates on A/I, not a second ideal: every
normal form is taken in I's own basis and carried over by T: S_t = Delta_t + 1.
For a graded order T keeps every leading exponent, so T maps the reduced
shift basis onto the reduced difference-form basis and NF_Delta(T f) = T(NF_S f).
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    MPoly,
    RatFunc,
    _acc,
    _finalize_ratfunc_vector_rat,
    _t_free_kernel,
    denominator_lcm,
    exact_div,  # noqa: F401  perfbench/test_perfbench.py traces it from here
    poly_gcd,
    poly_lcm,
    squarefree_part,
)
from .dimension import UNIT_IDEAL, hilbert_dimension
from .errors import MultipleTelescopingVars, NoTelescopableVariable
from .groebner import GREVLEX, LeftIdeal, MonomialOrder, is_member
from .ore import (
    OreAlgebra,
    OreKind,
    OrePoly,
    coefficient_rows,
    difference_to_shift,
    exponents_up_to,
    shift_to_difference,
    telescopable_witness,
)


def telescoping_bound(d: int, p: int, t_count: int, x_count: int):
    """Telescoped-ideal dimension bound d + (p-1)*|t|; nontrivial when it
    stays below the number of surviving generators."""
    bound = d + (p - 1) * t_count
    return bound, 0 <= bound < x_count


@dataclass
class TelescopingResult:
    telescoper: OrePoly          # in C(x)<d_x>, embedded in the difference form
    certificates: dict           # t-generator name -> OrePoly
    provenance: str              # "Fasenmyer" | "Zeilberger"
    degree: int
    t_gens: tuple
    membership_checked: bool = False

    def witness(self) -> OrePoly:
        """A + sum d_t . Q_t in the difference form."""
        alg = self.telescoper.algebra
        total = self.telescoper
        for name, cert in self.certificates.items():
            total = total + alg.gen(name) * cert
        return total

    def __str__(self):
        return "telescoper %s  [%s, degree %d]" % (
            self.telescoper, self.provenance, self.degree)


@dataclass
class SearchOutcome:
    results: list
    budget_exhausted: bool
    target_dim: object
    achieved_dim: object
    trivial: bool = False        # unit ideal encountered


@dataclass
class CoupledSystem:
    """First-order coupled system from the Zeilberger ansatz.  The shapes of
    the square part (equations at staircase monomials within the B degree)
    and of the extraneous constraint part are reported apart; the search
    solves both as one stacked system."""

    square_shape: tuple
    constraint_shape: tuple
    a_monomials: list
    b_monomials: list
    denominator: MPoly
    solved: bool = False


# -- difference form over the shift basis ---------------------------------------


def _difference_algebra(alg: OreAlgebra, t_names):
    """(alg with its shift t-generators made differences, their names): the
    algebra results are reported in, and the generators carried over."""
    shift_t = [n for n in t_names
               if alg.gens[alg.gen_index[n]].kind is OreKind.SHIFT]
    return shift_to_difference(alg.one, shift_t).algebra, shift_t


def _carried_names(I: LeftIdeal, alg: OreAlgebra, t_names):
    """The t-generators that are shifts in I and differences in `alg`."""
    return [] if I.algebra == alg else _difference_algebra(I.algebra, t_names)[1]


def _to_difference(alg: OreAlgebra, vec: dict, shift_t) -> dict:
    """A coefficient dict over the monomials of `alg`, in difference form."""
    return shift_to_difference(OrePoly(alg, vec), shift_t).terms


def _gen_times(gb, alg: OreAlgebra, i, vec: dict, shift_t) -> dict:
    """NF of d_i * vec in difference form `alg`, vec a difference-form dict
    over the staircase, from gb's shared walk: in gb's coordinates a
    carried d_i is S_i - 1."""
    vec = difference_to_shift(OrePoly(alg, vec), shift_t).terms
    out = gb.apply_gen_to_nf(i, vec)
    if alg.gens[i].name in shift_t:
        for e, c in vec.items():
            _acc(out, e, -c)
    return _to_difference(gb.algebra, out, shift_t)


def _t_data(alg: OreAlgebra, t_names):
    t_idx = []
    t_vars = []
    for n in t_names:
        i = alg.gen_index[n]
        t_idx.append(i)
        t_vars.append(alg.gens[i].var)
    t_var_idx = tuple(alg.field.index[v] for v in t_vars)
    return tuple(t_idx), tuple(t_vars), t_var_idx


def _is_t_free(c: RatFunc, t_var_idx) -> bool:
    vs = c.num.variables() | c.den.variables()
    return not (vs & set(t_var_idx))


def x_subalgebra(alg: OreAlgebra, t_names):
    """C(x)<d_x>: drop the t-generators and their ground variables."""
    t_idx, t_vars, _ = _t_data(alg, t_names)
    gens = [g for i, g in enumerate(alg.gens) if i not in t_idx]
    ground = [v for v in alg.ground_vars if v not in t_vars]
    return OreAlgebra(ground, gens, alg.params)


def restrict_to_x(f: OrePoly, t_names) -> OrePoly:
    """Rebuild a t-free, d_t-free operator inside the x-subalgebra."""
    alg = f.algebra
    t_idx, t_vars, t_var_idx = _t_data(alg, t_names)
    target = x_subalgebra(alg, t_names)
    old_names = alg.field.names
    remap = {old_names.index(n): target.field.index[n]
             for n in target.field.names}
    gen_map = {i: target.gen_index[g.name] for i, g in enumerate(alg.gens)
               if i not in t_idx}
    out = {}
    for e, c in f.terms.items():
        if any(e[i] for i in t_idx):
            raise ValueError("operator involves a t-generator")
        if not _is_t_free(c, t_var_idx):
            raise ValueError("operator coefficient involves t")
        ne = [0] * target.ngens
        for i, d in enumerate(e):
            if d:
                ne[gen_map[i]] = d
        out[tuple(ne)] = RatFunc(_remap_poly(c.num, remap, target.field),
                                 _remap_poly(c.den, remap, target.field))
    return OrePoly(target, out)


def _remap_poly(p: MPoly, remap, ring) -> MPoly:
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * ring.nvars
        for i, d in enumerate(e):
            if d:
                ne[remap[i]] = d
        terms[tuple(ne)] = c
    return MPoly(ring, terms)


# -- telescoper extraction ------------------------------------------------------


def _monomial_split(Q: OrePoly, t_idx):
    """Q = R + sum d_{t_i} C_i for t-free-coefficient Q; pure bookkeeping
    since the t-generators commute with t-free coefficients."""
    alg = Q.algebra
    R = {}
    certs = {i: {} for i in t_idx}
    for e, c in Q.terms.items():
        hit = next((i for i in t_idx if e[i]), None)
        if hit is None:
            R[e] = c
        else:
            ne = list(e)
            ne[hit] -= 1
            cur = certs[hit]
            key = tuple(ne)
            cur[key] = cur.get(key, RatFunc.zero(alg.field)) + c
    return (OrePoly(alg, R),
            {i: OrePoly(alg, {e: c for e, c in t.items() if not c.is_zero()})
             for i, t in certs.items()})


def extract_telescoper(Q: OrePoly, I: LeftIdeal, t_names,
                       order: MonomialOrder = GREVLEX,
                       provenance="Fasenmyer", degree=None) -> TelescopingResult:
    """Split a t-free operator of I into telescoper plus certificates.

    When the direct split has zero remainder, one multiplication by
    sigma(a) for the least nonzero certificate (a the telescopable
    witness) recovers a nonzero telescoper, exactly as in the dimension
    bound's proof; deeper degeneracies go through a bounded certificate
    ansatz instead.  Q is in difference form; I may be too, or have the
    t-generators as shifts, and then each check carries the witness back to
    I's own basis (Delta_t = S_t - 1)."""
    alg = Q.algebra
    shift_t = _carried_names(I, alg, t_names)
    t_idx, t_vars, t_var_idx = _t_data(alg, t_names)
    for e, c in Q.terms.items():
        if not _is_t_free(c, t_var_idx):
            raise ValueError("input operator must have t-free coefficients")
    if degree is None:
        degree = Q.total_degree()
    R, certs = _monomial_split(Q, t_idx)
    if not R.is_zero():
        result = TelescopingResult(
            telescoper=R,
            certificates={alg.gens[i].name: certs[i] for i in t_idx},
            provenance=provenance, degree=degree,
            t_gens=tuple(t_names))
        result.membership_checked = is_member(
            difference_to_shift(result.witness(), shift_t), I, order)
        return result
    live = [i for i in t_idx if not certs[i].is_zero()]
    if not live:
        raise ValueError("zero operator has no telescoper")
    picked = None
    for i in live:
        w = telescopable_witness(alg, alg.gens[i].name)
        if w is not None:
            picked = (i, w)
            break
    if picked is None:
        raise NoTelescopableVariable(
            "no designated generator admits a telescoping witness")
    i, (a, b) = picked
    # sigma(a) * Q = -b*C_i + sum_j d_{t_j} (adjusted certificates)
    C = certs[i]
    R2, certs2 = _monomial_split(C, t_idx)
    if not R2.is_zero():
        # A = -b*R2; certificates: j == i: a*C_i - b*C2_i ... plus the
        # sigma(a)-scaled other piles
        sa = alg.sigma(i, a)
        new_certs = {}
        for j in t_idx:
            part = certs[j].scale(sa) if j != i else C.scale(a)
            part = part - certs2[j].scale(b)
            new_certs[alg.gens[j].name] = part
        result = TelescopingResult(
            telescoper=R2.scale(-b),
            certificates=new_certs,
            provenance=provenance, degree=degree,
            t_gens=tuple(t_names))
        result.membership_checked = is_member(
            difference_to_shift(result.witness(), shift_t), I, order)
        return result
    # deeper degeneracy: chase the t-free core chain for a candidate A,
    # then solve for a certificate by bounded ansatz
    core = C
    guard = 0
    while True:
        guard += 1
        if guard > 50 or core.is_zero():
            raise NoTelescopableVariable(
                "could not recover a nonzero telescoper from the split chain")
        Rj, certsj = _monomial_split(core, t_idx)
        if not Rj.is_zero():
            candidate = Rj
            break
        core = next((certsj[j] for j in t_idx if not certsj[j].is_zero()), alg.zero)
    res = _certificate_by_ansatz(candidate, I, t_names, order,
                                 provenance=provenance, degree=degree)
    if res is None:
        raise NoTelescopableVariable(
            "candidate telescoper admits no bounded certificate")
    return res


_MAX_CERT_DEGREE = 4


def _certificate_by_ansatz(A: OrePoly, I: LeftIdeal, t_names, order,
                           provenance, degree):
    """Solve NF(A + sum d_t W_t) = 0 for W with rational t-coefficients."""
    alg = A.algebra
    shift_t = _carried_names(I, alg, t_names)
    t_idx, _, t_var_idx = _t_data(alg, t_names)
    gb = I.groebner_basis(order)
    for cert_deg in range(1, _MAX_CERT_DEGREE + 1):
        sol = _solve_certificate(A, gb, t_idx, t_var_idx, cert_deg, shift_t)
        if sol is not None:
            result = TelescopingResult(
                telescoper=A, certificates={alg.gens[i].name: sol[i] for i in t_idx},
                provenance=provenance, degree=degree, t_gens=tuple(t_names))
            result.membership_checked = is_member(
                difference_to_shift(result.witness(), shift_t), I, order)
            if result.membership_checked:
                return result
    return None


def _solve_certificate(A, gb, t_idx, t_var_idx, cert_deg, shift_t):
    """Inhomogeneous bounded solve for certificates of a fixed candidate;
    implemented for a single telescoping variable.  The columns are normal
    forms in gb carried over to difference form."""
    if len(t_var_idx) != 1:
        return None
    alg = A.algebra
    K = alg.field
    tv = t_var_idx[0]
    denom = _denominator_ansatz(gb, t_var_idx, 1)
    unknowns = [(i, ge, d) for i in t_idx for ge in gb.reduced_monomials(cert_deg)
                for d in range(denom.degree_in(t_var_idx) + 2)]
    columns = [_gen_times(gb, alg, i, {ge: _ansatz_coeff(K, tv, d, denom)}, shift_t)
               for i, ge, d in unknowns]
    # the last column is NF(A); solve the combined homogeneous system where
    # that column is forced to 1 (scale-normalized inhomogeneous solve)
    columns.append(_to_difference(
        gb.algebra, gb.normal_form(difference_to_shift(A, shift_t)).terms, shift_t))
    _, rows = coefficient_rows(columns, RatFunc.zero(K))
    for vec in _t_free_kernel(rows, len(columns), K, t_var_idx):
        lam = vec[-1]
        if lam.is_zero():
            continue
        out = {i: alg.zero for i in t_idx}
        for (u, val) in zip(unknowns, vec[:-1]):
            if val.is_zero():
                continue
            i, ge, d = u
            coeff = _ansatz_coeff(K, tv, d, denom) * (val / lam)
            out[i] = out[i] + OrePoly(alg, {ge: coeff})
        return {i: -out[i] for i in t_idx}
    return None


def _ansatz_coeff(K, tv, d, D) -> RatFunc:
    """t^d/D, the coefficient an ansatz unknown carries (tv the index of t)."""
    return RatFunc(K.monomial(tuple(d if j == tv else 0 for j in range(K.nvars))), D)


# -- Fasenmyer-style search -----------------------------------------------------


def fasenmyer_search(I: LeftIdeal, t_names, max_degree: int,
                     target_dim=None, order: MonomialOrder = GREVLEX,
                     collect_all: bool = False) -> SearchOutcome:
    """Search for t-free operators of I by increasing total degree.

    At each degree the normal forms of the candidate monomials give rows
    over C(x, t), and `arith._t_free_kernel` finds their t-free solutions:
    a degree whose rows reach full rank mod p (the one mod-p rank,
    `arith._pivot_rows_mod_p`) has none and is skipped, the other degrees
    are solved exactly, so every kernel, and every result, comes from
    exact arithmetic.  Each t-free kernel element is decomposed
    into telescoper plus certificates; the search stops once the
    telescopers generate an ideal of dimension at most target_dim (when
    given), else runs the budget.

    The rows come from the normal forms in I's own basis, where shift
    t-generators stay shifts (the walk the growth probe and the closures
    fill), and each kernel vector is transported to difference form
    (S_t = Delta_t + 1) for the extraction, which checks membership in the
    same basis.  The basis choice cannot change the kernel: rows taken in
    two bases of A/I over C(x, t) differ by an invertible matrix, so they
    have the same solutions and the rank proof holds for either; and the
    monomials S^alpha and Delta^alpha with |alpha| <= deg span the same
    space through a constant unitriangular matrix, which is the transport."""
    alg, shift_t = _difference_algebra(I.algebra, t_names)
    t_idx, t_vars, t_var_idx = _t_data(alg, t_names)
    if I.is_unit_ideal(order):
        res = TelescopingResult(telescoper=alg.one, certificates={},
                                provenance="Fasenmyer", degree=0,
                                t_gens=tuple(t_names), membership_checked=True)
        return SearchOutcome([res], False, target_dim, UNIT_IDEAL, trivial=True)
    gb = I.groebner_basis(order)
    K = alg.field
    results = []
    found_keys = set()
    xalg = x_subalgebra(alg, t_names)
    achieved = None
    for deg in range(1, max_degree + 1):
        monomials = exponents_up_to(alg.ngens, deg)
        kernel = _t_free_kernel(_fasenmyer_rows(gb, monomials, K),
                                len(monomials), K, t_var_idx)
        for vec in kernel:
            vec = _to_difference_vector(vec, monomials, I.algebra, shift_t, K)
            terms = {m: c for m, c in zip(monomials, vec) if not c.is_zero()}
            if not terms:
                continue
            Q = OrePoly(alg, terms)
            try:
                res = extract_telescoper(Q, I, t_names, order,
                                         provenance="Fasenmyer", degree=deg)
            except NoTelescopableVariable:
                continue
            if not res.membership_checked:
                continue
            key = _canonical_key(res.telescoper, order)
            if key in found_keys:
                continue
            found_keys.add(key)
            results.append(res)
        if results:
            xgens = [restrict_to_x(r.telescoper, t_names) for r in results]
            achieved = hilbert_dimension(LeftIdeal(xalg, xgens), order)
            if target_dim is None and not collect_all:
                return SearchOutcome(results, False, target_dim, achieved)
            if target_dim is not None and (
                    achieved is UNIT_IDEAL or achieved <= target_dim):
                return SearchOutcome(results, False, target_dim, achieved)
    return SearchOutcome(results, True, target_dim, achieved)


def _fasenmyer_rows(gb, monomials, K):
    """Rows over C(x, t), one per staircase monomial: the coefficients of
    d^gamma in the normal forms of the candidate monomials."""
    return coefficient_rows([gb.phi(m) for m in monomials], RatFunc.zero(K))[1]


def _to_difference_vector(vec, monomials, alg, shift_t, K):
    """A kernel vector over the shift monomials of `alg`, rewritten over the
    same monomials in difference form and normalised as `nullspace_poly`
    normalises its vectors."""
    terms = _to_difference(
        alg, {m: c for m, c in zip(monomials, vec) if not c.is_zero()}, shift_t)
    zero = RatFunc.zero(K)
    return _finalize_ratfunc_vector_rat([terms.get(m, zero) for m in monomials], K)


def _canonical_key(f: OrePoly, order):
    inv = f.terms[order.leading_exp(f)].inverse()
    return frozenset((e, inv * c) for e, c in f.terms.items())


# -- Zeilberger-style search ------------------------------------------------------


def _denominator_ansatz(gb, t_var_idx, denom_bound):
    """Lcm over t-shifts of the squarefree t-parts of the cleared
    coefficients of the basis elements (the same in shift and in difference
    form: the transport is unitriangular over Z both ways)."""
    K = gb.algebra.field
    factors = {}
    for g in gb.elements:
        den = denominator_lcm(g.terms.values(), K)
        if den.is_constant():
            continue
        sf = squarefree_part(den, t_var_idx)
        if sf.is_constant() or sf.degree_in(t_var_idx) == 0:
            continue
        factors[frozenset(sf.terms.items())] = sf
    D = K.one
    for sf in factors.values():
        for j in range(-denom_bound, denom_bound + 1):
            img = sf
            for tv in t_var_idx:
                img = img.shift_var(tv, j)
            D = poly_lcm(D, img)
    return D


def zeilberger_search(I: LeftIdeal, t_name: str, degA: int, degB: int,
                      denom_bound: int = 1, order: MonomialOrder = GREVLEX):
    """Ansatz A + Delta_t*B with A over C(x)<d_x> and B over the staircase.

    Returns (TelescopingResult or None, CoupledSystem).  The system rows
    coming from staircase monomials within the B-degree form the square
    coupled part, the higher extraneous rows the constraint part; both are
    solved at once by `arith._t_free_kernel` (a mod-p rank proof first,
    then the exact solve), so the kernel is that of the square part cut
    down by the constraints.  The rows are in difference form, read
    off I's own basis (Delta_t*u = S_t*u - u); rows in shift coordinates
    give the same kernel, but their exact solve is several times slower."""
    if isinstance(t_name, (list, tuple)):
        if len(t_name) != 1:
            raise MultipleTelescopingVars(
                "the fast algorithm handles a single telescoping variable")
        t_name = t_name[0]
    alg, shift_t = _difference_algebra(I.algebra, [t_name])
    (ti,), (tv_name,), t_var_idx = _t_data(alg, [t_name])
    tv = t_var_idx[0]
    gb = I.groebner_basis(order)
    K = alg.field
    Dt = alg.gen(t_name)

    # ansatz monomial lists: A over all d_x-monomials (its reducible ones
    # matter: the reduced rewriting would drag t into the coefficients),
    # B over the d_t-free staircase monomials
    a_mons = [e for e in exponents_up_to(alg.ngens, degA) if e[ti] == 0]
    b_mons = [ge for ge in gb.reduced_monomials(degB) if ge[ti] == 0]
    D = _denominator_ansatz(gb, t_var_idx, denom_bound)
    degN = D.degree_in(t_var_idx) + denom_bound
    b_unknowns = [(ge, d) for ge in b_mons for d in range(degN + 1)]

    system = CoupledSystem(square_shape=(), constraint_shape=(),
                           a_monomials=a_mons, b_monomials=b_mons,
                           denominator=D)
    # normal-form columns NF(d^e) for A and NF(Dt * t^d/D * d^ge) for B; no
    # name here holds them or their rows, so the exact solve runs without
    # the rational entries
    kernel = _t_free_kernel(
        _coupled_rows(system, [_to_difference(gb.algebra, gb.phi(e), shift_t)
                               for e in a_mons]
                      + [_gen_times(gb, alg, ti, {ge: _ansatz_coeff(K, tv, d, D)},
                                    shift_t) for ge, d in b_unknowns],
                      gb.reduced_monomials(degB), degB, order),
        len(a_mons) + len(b_unknowns), K, t_var_idx)
    candidates = []
    for vec in kernel:
        a_terms = {e: val for e, val in zip(a_mons, vec) if not val.is_zero()}
        if not a_terms:
            continue
        A = OrePoly(alg, a_terms)
        B = alg.zero
        for (ge, d), val in zip(b_unknowns, vec[len(a_mons):]):
            if not val.is_zero():
                B = B + OrePoly(alg, {ge: _ansatz_coeff(K, tv, d, D) * val})
        if not gb.normal_form(difference_to_shift(A + Dt * B, shift_t)).is_zero():
            continue
        candidates.append((A, B))
    if not candidates:
        return None, system
    A, B = min(candidates, key=lambda ab: _tiebreak_key(ab[0], order))
    A, B = _normalize_pair(A, B, order)
    result = TelescopingResult(
        telescoper=A, certificates={t_name: B}, provenance="Zeilberger",
        degree=degA, t_gens=(t_name,))
    result.membership_checked = is_member(
        difference_to_shift(result.witness(), shift_t), I, order)
    system.solved = True
    return result, system


def _coupled_rows(system, columns, staircase, degB, order):
    """Rows over C(x, t) of the coupled system with these columns: the
    square block (the staircase within the B degree, counted fully) first,
    then the constraint rows.  Records both shapes in `system`."""
    support, rows = coefficient_rows(
        columns, RatFunc.zero(system.denominator.ring),
        key=lambda w: (sum(w) > degB, order.key(w)), extra=staircase)
    n_square = sum(sum(w) <= degB for w in support)
    ncols = len(system.a_monomials) + len(system.b_monomials)
    system.square_shape = (n_square, ncols)
    system.constraint_shape = (len(support) - n_square, ncols)
    return rows


def _tiebreak_key(A: OrePoly, order):
    return (A.total_degree(), len(A.terms),
            tuple(sorted(order.key(e) for e in A.terms)))


def _normalize_pair(A, B, order):
    # clear to content-free polynomial coefficients with positive lead
    K = A.algebra.field
    scale = RatFunc.from_poly(denominator_lcm(A.terms.values(), K))
    nums = [(c * scale).num for c in A.terms.values()]
    g = nums[0]
    for p in nums[1:]:
        if g.is_one():
            break
        g = poly_gcd(g, p)
    if not g.is_one():
        scale = scale / RatFunc.from_poly(g)
    newA = A.scale(scale)
    lead_c = newA.terms[order.leading_exp(newA)]
    if lead_c.num.leading_coeff() < 0:
        scale = -scale
        newA = newA.scale(RatFunc.const(K, -1))
    return newA, B.scale(scale)
