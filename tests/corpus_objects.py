"""Corpus ideals and operators used across the test suite.

Everything here is entered from the literal generator lists; tests verify
the claimed properties independently (numerically where possible).
"""
from orecalc.arith import RatFunc
from orecalc.groebner import LeftIdeal
from orecalc.ore import OreAlgebra, OreGenerator, OreKind


def shift_algebra(names):
    gens = [OreGenerator("S" + v, OreKind.SHIFT, v) for v in names]
    return OreAlgebra(names, gens)


def algebra_nk():
    return shift_algebra(["n", "k"])


def binomial_ideal(alg=None):
    """Annihilator of C(n, k) in Q(n,k)<Sn,Sk>."""
    alg = alg or algebra_nk()
    n, k = alg.var("n"), alg.var("k")
    Sn, Sk = alg.gen("Sn"), alg.gen("Sk")
    return LeftIdeal(alg, [
        (k - n - 1) * Sn + (n + 1),
        (k + 1) * Sk + (k - n),
    ])


def algebra_kl():
    return shift_algebra(["k", "l"])


def stirling_ideal(alg=None):
    """Annihilator relation of S2(k, l): Sk*Sl - (l+1)*Sl - 1."""
    alg = alg or algebra_kl()
    l = alg.var("l")
    Sk, Sl = alg.gen("Sk"), alg.gen("Sl")
    return LeftIdeal(alg, [Sk * Sl - (l + 1) * Sl - alg.one])


def algebra_nmkl():
    return shift_algebra(["n", "m", "k", "l"])


def double_stirling_factor_ideals(alg=None):
    """The three factor annihilators for C(n,k), S2(k,l), S2(n-k,m)."""
    alg = alg or algebra_nmkl()
    n, m, k, l = (alg.var(v) for v in ("n", "m", "k", "l"))
    Sn, Sm, Sk, Sl = (alg.gen(g) for g in ("Sn", "Sm", "Sk", "Sl"))
    one = alg.one
    i1 = LeftIdeal(alg, [
        (k - n - 1) * Sn + (n + 1),
        (k + 1) * Sk + (k - n),
        Sm - one,
        Sl - one,
    ])
    i2 = LeftIdeal(alg, [
        Sn - one,
        Sk * Sl - (l + 1) * Sl - one,
        Sm - one,
    ])
    i3 = LeftIdeal(alg, [
        Sn * Sk - one,
        (m + 1) * Sm * Sk + Sk - Sm,
        Sl - one,
    ])
    return i1, i2, i3


def double_stirling_ideal(alg=None):
    """The displayed annihilator of C(n,k)*S2(k,l)*S2(n-k,m)."""
    alg = alg or algebra_nmkl()
    n, m, k, l = (alg.var(v) for v in ("n", "m", "k", "l"))
    Sn, Sm, Sk, Sl = (alg.gen(g) for g in ("Sn", "Sm", "Sk", "Sl"))
    one = alg.one
    g1 = one + n + (one + m) * (one + n) * Sm - (one - k + n) * Sn * Sm
    g2 = ((k - n) * Sm + (one + k) * Sk * Sl
          + (one + k) * (one + m) * Sk * Sl * Sm
          + (one + l) * (k - n) * Sl * Sm)
    g3 = one + n + (one + l) * (one + n) * Sl - (one + k) * Sk * Sl * Sn
    return LeftIdeal(alg, [g1, g2, g3])


def double_stirling_telescoper(alg=None):
    """A = Sm + Sl + (2+l+m)*Sl*Sm - Sl*Sm*Sn."""
    alg = alg or algebra_nmkl()
    m, l = alg.var("m"), alg.var("l")
    Sn, Sm, Sl = alg.gen("Sn"), alg.gen("Sm"), alg.gen("Sl")
    return Sm + Sl + (2 + l + m) * Sl * Sm - Sl * Sm * Sn


def double_stirling_certificate(alg=None):
    """B = k(k+1)/(k^2-1-n-kn)*Sl + (m+1)k/(k-n-1)*Sm*Sl."""
    alg = alg or algebra_nmkl()
    K = alg.field
    n, m, k = K.var("n"), K.var("m"), K.var("k")
    Sm, Sl = alg.gen("Sm"), alg.gen("Sl")
    c1 = RatFunc(k * (k + 1), k * k - 1 - n - k * n)
    c2 = RatFunc((m + 1) * k, k - n - 1)
    return Sl.scale(c1) + (Sm * Sl).scale(c2)


def abel_algebra():
    return shift_algebra(["m", "k", "r", "s"])


def abel_ideal(alg=None):
    """Annihilator of C(m,k)*r*(k+r)^(k-1)*(m-k+s)^(m-k), entered from the
    shift quotients of the Abel-type form <a*Sm*Sk - b*Sr, c*Sm - d*Ss>."""
    alg = alg or abel_algebra()
    K = alg.field
    m, k, r, s = (K.var(v) for v in ("m", "k", "r", "s"))
    Sm, Sk, Sr, Ss = (alg.gen(g) for g in ("Sm", "Sk", "Sr", "Ss"))
    a = (k + 1) * (r + 1)
    b = (m + 1) * (k + r + 1) * r
    c = m + 1 - k
    d = (m + 1) * (m - k + s + 1)
    return LeftIdeal(alg, [
        (Sm * Sk).scale(RatFunc.from_poly(a)) - Sr.scale(RatFunc.from_poly(b)),
        Sm.scale(RatFunc.from_poly(c)) - Ss.scale(RatFunc.from_poly(d)),
    ])


def algebra_mk():
    return shift_algebra(["m", "k"])


def nonproper_ideal(alg=None):
    """Annihilator of u(m,k) = C(2m-2k-1, m-1)/(mk+1): a non-proper
    hypergeometric term; generators are the cleared shift relations."""
    alg = alg or algebra_mk()
    K = alg.field
    m, k = K.var("m"), K.var("k")
    Sm, Sk = alg.gen("Sm"), alg.gen("Sk")
    # u(m+1,k)/u(m,k) = (mk+1)(2m-2k+1)(2m-2k) / ((mk+k+1) m (m-2k+1))
    num_m = (m * k + 1) * (2 * m - 2 * k + 1) * (2 * m - 2 * k)
    den_m = (m * k + k + 1) * m * (m - 2 * k + 1)
    # u(m,k+1)/u(m,k) = (mk+1)(m-2k)(m-2k-1) / ((mk+m+1) 2 (2m-2k-1)(m-k-1))
    num_k = (m * k + 1) * (m - 2 * k) * (m - 2 * k - 1)
    den_k = (m * k + m + 1) * 2 * (2 * m - 2 * k - 1) * (m - k - 1)
    return LeftIdeal(alg, [
        Sm.scale(RatFunc.from_poly(den_m)) - alg.scalar(RatFunc.from_poly(num_m)),
        Sk.scale(RatFunc.from_poly(den_k)) - alg.scalar(RatFunc.from_poly(num_k)),
    ])
