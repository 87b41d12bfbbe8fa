"""Catalog of the model's operators in the canonical realization.

Primitives are the position generators ``x_mu``, the Clifford generators
``g_mu`` and the momentum coefficients ``p^mu``; everything else is built
from them:

    P_mu   = eta_{mu mu} p^mu                     (momentum, lowered)
    gamma5 = i g0 g1 g2 g3                        (orientation)
    M      = p^mu g_mu                            (operator-valued mass)
    |M|    = w                                    (mass modulus)
    eps    = M / w                                (mass sign)
    s_mn   = -(hbar^2/4) (g_m, g_n)               (canonical spin tensor)
    D      = p^mu . x_mu                          (dilatation)
    J_mn   = P_m . x_n - P_n . x_m + s_mn         (angular momentum)
    C_m    = 2 D . x_m - P_m . x^2 + 2 x^r . s_rm (conformal accelerations)
    W_m    = -1/2 eps_{mnrs} J^nr P^s             (spin vector, transverse)
    S_m    = W_m . M / w^2
    S_mn   = eps_{mnrs} W^r P^s / w^2             (observable spin tensor)
    S~_mn  = (i/2) eps_{mnrs} S^rs                (dual spin tensor)
    s~_mn  = (i/2) eps_{mnrs} s^rs
    X_m    = x_m + p^n s_{nm} / w^2               (hermitian positions)
    V_m    = P_m . M / w^2                        (velocities)

Builders take lowered indices; raising multiplies by the diagonal metric
entries.  All builders are memoized, so repeated identity checks share one
normal form per operator.

The module also owns the canonical adjoint: the antilinear anti-automorphism
fixing ``p``, ``w``, ``hbar``, ``alpha``, ``M``, ``D``, ``J`` and ``gamma5``,
with the derived generator images

    x_mu^+     = x_mu + 2i gamma5 W_mu / M^2,
    gamma_mu^+ = 2 V_mu - gamma_mu.

The test suite re-derives these images from the fixed-point requirements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .clifford import epsilon_lower, nonzero_epsilon
from .conventions import SIGNATURE
from .ncalg import Involution, NCElement, bracket, dot
from .scalars import Scalar


class UnknownObservable(KeyError):
    """An observable name (or arity) that the catalog does not define."""


def _eta(mu: int) -> Fraction:
    return SIGNATURE[mu]


# -- primitives -------------------------------------------------------------

@lru_cache(maxsize=None)
def x(mu: int) -> NCElement:
    """Canonical position x_mu (lowered index)."""
    return NCElement.x(mu)


@lru_cache(maxsize=None)
def gamma(mu: int) -> NCElement:
    """Clifford generator g_mu (lowered index)."""
    return NCElement.gamma(mu)


@lru_cache(maxsize=None)
def P(mu: int) -> NCElement:
    """Momentum P_mu = eta_{mu mu} p^mu."""
    return NCElement.from_scalar(Scalar.p_lower(mu))


@lru_cache(maxsize=None)
def P_up(mu: int) -> NCElement:
    """Contravariant momentum p^mu."""
    return NCElement.from_scalar(Scalar.p(mu))


@lru_cache(maxsize=None)
def gamma5() -> NCElement:
    return NCElement.gamma5()


@lru_cache(maxsize=None)
def Mabs() -> NCElement:
    """Mass modulus |M| = w."""
    return NCElement.from_scalar(Scalar.w_pow(1))


@lru_cache(maxsize=None)
def Minv2() -> NCElement:
    """Inverse squared mass 1/M^2 = w^-2."""
    return NCElement.from_scalar(Scalar.w_pow(-2))


@lru_cache(maxsize=None)
def P2() -> NCElement:
    """Squared momentum p.p as an element."""
    return NCElement.from_scalar(Scalar.w_pow(2))


# -- composites -------------------------------------------------------------

@lru_cache(maxsize=None)
def M() -> NCElement:
    """Mass operator M = p^mu g_mu."""
    out = NCElement.zero()
    for mu in range(4):
        out = out + P_up(mu) * gamma(mu)
    return out


@lru_cache(maxsize=None)
def eps() -> NCElement:
    """Mass sign eps = M / w."""
    return M() * Scalar.w_pow(-1)


@lru_cache(maxsize=None)
def s_spin(mu: int, nu: int) -> NCElement:
    """Canonical spin tensor s_mn = -(hbar^2/4)(g_m, g_n)."""
    coef = Scalar.hbar(2) * Fraction(-1, 4)
    return bracket(gamma(mu), gamma(nu)) * coef


@lru_cache(maxsize=None)
def D() -> NCElement:
    """Dilatation generator D = p^mu . x_mu."""
    out = NCElement.zero()
    for mu in range(4):
        out = out + dot(P_up(mu), x(mu))
    return out


@lru_cache(maxsize=None)
def J(mu: int, nu: int) -> NCElement:
    """Angular momentum J_mn = P_m . x_n - P_n . x_m + s_mn."""
    return dot(P(mu), x(nu)) - dot(P(nu), x(mu)) + s_spin(mu, nu)


@lru_cache(maxsize=None)
def x2() -> NCElement:
    """Position square x^mu x_mu."""
    out = NCElement.zero()
    for mu in range(4):
        out = out + x(mu) * x(mu) * _eta(mu)
    return out


@lru_cache(maxsize=None)
def C(mu: int) -> NCElement:
    """Conformal acceleration generator C_m = 2 D.x_m - P_m.x^2 + 2 x^r.s_rm."""
    out = dot(D(), x(mu)) * 2 - dot(P(mu), x2())
    for rho in range(4):
        out = out + dot(x(rho), s_spin(rho, mu)) * (2 * _eta(rho))
    return out


@lru_cache(maxsize=None)
def W(mu: int) -> NCElement:
    """Spin vector W_m = -1/2 eps_{mnrs} J^nr P^s."""
    out = NCElement.zero()
    for (m, n, r, s), sign in nonzero_epsilon():
        if m != mu:
            continue
        coef = Fraction(sign, -2) * _eta(n) * _eta(r)
        out = out + J(n, r) * P_up(s) * coef
    return out


@lru_cache(maxsize=None)
def S(mu: int, nu: int) -> NCElement:
    """Observable spin tensor S_mn = eps_{mnrs} W^r P^s / w^2."""
    out = NCElement.zero()
    for r in range(4):
        for s in range(4):
            sign = epsilon_lower(mu, nu, r, s)
            if sign:
                out = out + W(r) * P_up(s) * (Fraction(sign) * _eta(r))
    return out * Scalar.w_pow(-2)


@lru_cache(maxsize=None)
def S_vec(mu: int) -> NCElement:
    """Spin vector per unit mass S_m = W_m . M / w^2."""
    return dot(W(mu), M() * Scalar.w_pow(-2))


@lru_cache(maxsize=None)
def S_dual(mu: int, nu: int) -> NCElement:
    """Dual spin tensor S~_mn = (i/2) eps_{mnrs} S^rs."""
    out = NCElement.zero()
    for r in range(4):
        for s in range(4):
            sign = epsilon_lower(mu, nu, r, s)
            if sign:
                out = out + S(r, s) * (Fraction(sign) * _eta(r) * _eta(s))
    return out * (Scalar.imag_unit() * Fraction(1, 2))


@lru_cache(maxsize=None)
def s_dual(mu: int, nu: int) -> NCElement:
    """Dual canonical spin s~_mn = (i/2) eps_{mnrs} s^rs."""
    out = NCElement.zero()
    for r in range(4):
        for s in range(4):
            sign = epsilon_lower(mu, nu, r, s)
            if sign:
                out = out + s_spin(r, s) * (Fraction(sign) * _eta(r) * _eta(s))
    return out * (Scalar.imag_unit() * Fraction(1, 2))


@lru_cache(maxsize=None)
def X(mu: int) -> NCElement:
    """Hermitian position X_m = x_m + p^n s_nm / w^2."""
    out = x(mu)
    for nu in range(4):
        out = out + P_up(nu) * s_spin(nu, mu) * Scalar.w_pow(-2)
    return out


@lru_cache(maxsize=None)
def V(mu: int) -> NCElement:
    """Velocity V_m = P_m . M / w^2."""
    return dot(P(mu), M() * Scalar.w_pow(-2))


@lru_cache(maxsize=None)
def X2() -> NCElement:
    """Hermitian position square X^mu . X_mu."""
    out = NCElement.zero()
    for mu in range(4):
        out = out + dot(X(mu), X(mu)) * _eta(mu)
    return out


@lru_cache(maxsize=None)
def W2() -> NCElement:
    """Spin square W^mu W_mu."""
    out = NCElement.zero()
    for mu in range(4):
        out = out + W(mu) * W(mu) * _eta(mu)
    return out


@lru_cache(maxsize=None)
def alpha2() -> NCElement:
    """Acceleration square a^mu a_mu."""
    out = Scalar.zero()
    for mu in range(4):
        out = out + Scalar.alpha(mu) * Scalar.alpha(mu) * _eta(mu)
    return NCElement.from_scalar(out)


# -- index utilities --------------------------------------------------------

def upper(builder, *indices):
    """Raise every index of a lowered-index builder output (diagonal metric)."""
    sign = Fraction(1)
    for mu in indices:
        sign *= _eta(mu)
    return builder(*indices) * sign


# -- catalog dispatch -------------------------------------------------------

_CATALOG = {
    "P": (P, 1),
    "xc": (x, 1),
    "gamma": (gamma, 1),
    "gamma5": (gamma5, 0),
    "M": (M, 0),
    "Mabs": (Mabs, 0),
    "eps": (eps, 0),
    "D": (D, 0),
    "J": (J, 2),
    "C": (C, 1),
    "W": (W, 1),
    "Svec": (S_vec, 1),
    "S": (S, 2),
    "Sdual": (S_dual, 2),
    "sspin": (s_spin, 2),
    "sdual": (s_dual, 2),
    "Xh": (X, 1),
    "V": (V, 1),
    "P2": (P2, 0),
    "W2": (W2, 0),
    "x2": (x2, 0),
    "X2": (X2, 0),
    "alpha2": (alpha2, 0),
    "Minv2": (Minv2, 0),
}


def build(name: str, *indices: int) -> NCElement:
    """Catalog lookup by CLI name; indices are lowered."""
    try:
        fn, arity = _CATALOG[name]
    except KeyError:
        raise UnknownObservable(name) from None
    if len(indices) != arity:
        raise UnknownObservable(f"{name} takes {arity} index(es), got {len(indices)}")
    if any(not 0 <= i <= 3 for i in indices):
        raise UnknownObservable(f"index out of range in {name}{list(indices)}")
    return fn(*indices)


def catalog_names():
    return sorted(_CATALOG)


def catalog_arity(name: str) -> int:
    try:
        return _CATALOG[name][1]
    except KeyError:
        raise UnknownObservable(name) from None


# -- adjoint ----------------------------------------------------------------

_INVOLUTION: Involution | None = None


def _x_image(mu: int) -> NCElement:
    return x(mu) + gamma5() * W(mu) * (Scalar.imag_unit() * 2 * Scalar.w_pow(-2))


def _gamma_image(mu: int) -> NCElement:
    return V(mu) * 2 - gamma(mu)


def involution() -> Involution:
    """The canonical adjoint (built once, then shared)."""
    global _INVOLUTION
    if _INVOLUTION is None:
        _INVOLUTION = Involution([_x_image(mu) for mu in range(4)],
                                 [_gamma_image(mu) for mu in range(4)])
    return _INVOLUTION


def adjoint(el: NCElement) -> NCElement:
    """Adjoint of an element under the canonical involution."""
    return involution()(el)
