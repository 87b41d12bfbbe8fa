"""Finite transformations to uniformly accelerated frames.

The shift of an observable ``A`` under a finite transformation with
classical acceleration parameters ``a^rho`` is the conjugation series

    A_bar = sum_{n <= N} ad^n(A) / n!,    ad(A) = SIGMA * (A, a^rho C_rho),

truncated at total alpha-degree ``N``.  Each bracket with the alpha-linear
generator raises the alpha-degree by exactly one, so dropping monomials
above ``N`` after every step is exact for the retained orders.

Closed-form targets verified against the series:

* conformal factor: ``1/lam = 1 - 2 a^mu x_mu + a^2 x^2`` (exact quadratic)
  and ``lam`` as its geometric series;
* positions: ``x_bar^mu = lam (x^mu - x^2 a^mu)``;
* metric: ``d_mu x_bar^rho eta_rs d_nu x_bar^s = lam^2 eta_{mu nu}``;
* tetrad: ``g_bar_mu = lam e_mu^nu g_nu`` with the vierbein
  ``e_mu^nu = (1/lam)^2 d^nu x_bar_mu`` (exactly alpha-quadratic);
* momenta: ``P_bar_mu = e_mu^nu . P_nu + 1/2 (d^rho e_mu^nu) s_{nu rho}``;
* hermitian-variable forms with their exact hbar^2 corrections
  (coefficients 3 hbar^2 / 4 and 3 hbar^2 / 32).

Commutative position calculus (``d/dx^rho``) is defined only on the
x-subalgebra: elements with trivial Clifford word whose coefficients are
free of ``p`` and ``w``.  Anything else raises
:class:`NotInCommutativeSubalgebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import observables as obs
from .conventions import SIGMA, SIGNATURE
from .ncalg import (NCElement, PolyForm, bracket, bracket_truncated, dot,
                    dot_truncated, geometric_inverse, mul_truncated,
                    poly_eval_left, poly_eval_sym)
from .scalars import Scalar


class NotInCommutativeSubalgebra(ValueError):
    """Position calculus was applied outside the commuting x-subalgebra."""


def _eta(mu: int) -> Fraction:
    return SIGNATURE[mu]


@dataclass
class FrameShift:
    """Outcome of one frame-law check."""

    name: str
    order: object  # int or "exact"
    residuals: tuple = ()
    passed: bool = False
    coefficients: dict = field(default_factory=dict)

    @property
    def residual(self) -> NCElement:
        for r in self.residuals:
            if not r.is_zero:
                return r
        return NCElement.zero()

    def to_report_entry(self) -> dict:
        """Identity-report shape shared with the suite runner."""
        entry = {"name": self.name,
                 "order": self.order,
                 "status": "pass" if self.passed else "fail",
                 "residual": "" if self.passed else self.residual.render()}
        if self.coefficients:
            entry["coefficients"] = dict(self.coefficients)
        return entry


# ---------------------------------------------------------------------------
# Conjugation engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def shift_generator() -> NCElement:
    """The contraction a^rho C_rho driving all frame shifts."""
    out = NCElement.zero()
    for rho in range(4):
        out = out + obs.C(rho) * Scalar.alpha(rho)
    return out


def conjugate(el: NCElement, order: int, sign: int = 1) -> NCElement:
    """Frame shift of ``el`` to alpha-degree ``order``.

    ``sign=-1`` conjugates with the opposite parameters (-alpha), i.e. the
    inverse group element.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    K = shift_generator()
    acc = el.alpha_truncate(order)
    term = acc
    for n in range(1, order + 1):
        term = bracket_truncated(term, K, order) * Fraction(SIGMA * sign, n)
        if term.is_zero:
            break
        acc = acc + term
    return acc


def conjugate_inverse(el: NCElement, order: int) -> NCElement:
    """Conjugation with the parameters negated (alpha -> -alpha)."""
    return conjugate(el, order, sign=-1)


@lru_cache(maxsize=None)
def conjugate_named(name: str, indices: tuple, order: int, sign: int = 1) -> NCElement:
    """Cached frame shift of a catalog observable (shared across suite entries)."""
    return conjugate(obs.build(name, *indices), order, sign)


# ---------------------------------------------------------------------------
# Conformal factor and transformed positions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def conformal_factor_inv() -> NCElement:
    """1/lam = 1 - 2 a^mu x_mu + a^2 x^2 (exact alpha-quadratic polynomial)."""
    out = NCElement.one()
    for mu in range(4):
        out = out - obs.x(mu) * (Scalar.alpha(mu) * 2)
    return out + obs.alpha2() * obs.x2()


@lru_cache(maxsize=None)
def conformal_factor(order: int) -> NCElement:
    """lam as a geometric series, inverse of 1/lam up to alpha-degree order."""
    return geometric_inverse(conformal_factor_inv(), order)


@lru_cache(maxsize=None)
def xbar(mu: int, order: int) -> NCElement:
    """Shifted position x_bar_mu (lowered) as an alpha-series."""
    return conjugate_named("xc", (mu,), order)


@lru_cache(maxsize=None)
def xbar_up(mu: int, order: int) -> NCElement:
    return xbar(mu, order) * _eta(mu)


# ---------------------------------------------------------------------------
# Commutative position calculus
# ---------------------------------------------------------------------------

def _require_x_subalgebra(el: NCElement) -> None:
    for _x, w, s in el.terms():
        if w != 0:
            raise NotInCommutativeSubalgebra("element carries Clifford content")
        if not s.p_free:
            raise NotInCommutativeSubalgebra("coefficient depends on p or w")


def xderiv(el: NCElement, rho: int) -> NCElement:
    """d/dx^rho on the commuting x-subalgebra (lowered derivative index)."""
    _require_x_subalgebra(el)
    out = NCElement.zero()
    eta_r = _eta(rho)
    for xk, w, s in el.terms():
        e = xk[rho]
        if not e:
            continue
        down = list(xk)
        down[rho] = e - 1
        out = out + NCElement({(tuple(down), 0): s * (eta_r * e)})
    return out


def xderiv_up(el: NCElement, rho: int) -> NCElement:
    """d^rho = eta^{rho rho} d/dx^rho."""
    return xderiv(el, rho) * _eta(rho)


# ---------------------------------------------------------------------------
# Vierbein
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def vierbein_raw(mu: int, nu: int, order: int) -> NCElement:
    """e_mu^nu from the order-N series: (1/lam)^2 d^nu x_bar_mu, truncated."""
    lam_inv = conformal_factor_inv()
    e = lam_inv * lam_inv * xderiv_up(xbar(mu, order), nu)
    return e.alpha_truncate(order)


@lru_cache(maxsize=None)
def vierbein(mu: int, nu: int) -> NCElement:
    """The exact (alpha-quadratic) vierbein entry.

    Computed from the order-3 series; termination (vanishing alpha-degree-3
    part) is itself one of the suite checks.
    """
    return vierbein_raw(mu, nu, 3).alpha_truncate(2)


# ---------------------------------------------------------------------------
# Frame-law checks
# ---------------------------------------------------------------------------

def check_position_law(order: int) -> FrameShift:
    """(1/lam) x_bar^mu == x^mu - x^2 a^mu up to the given order."""
    if order < 1:
        raise ValueError("position law needs order >= 1")
    lam_inv = conformal_factor_inv()
    residuals = []
    for mu in range(4):
        lhs = mul_truncated(lam_inv, xbar_up(mu, order), order)
        rhs = obs.x(mu) * _eta(mu) - obs.x2() * Scalar.alpha(mu)
        residuals.append((lhs - rhs).alpha_truncate(order))
    return FrameShift("position-law", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


def metric_check(order: int) -> FrameShift:
    """d_mu x_bar^rho eta_rs d_nu x_bar^s == lam^2 eta_{mu nu} up to order."""
    lam = conformal_factor(order)
    lam2 = mul_truncated(lam, lam, order)
    residuals = []
    for mu in range(4):
        for nu in range(mu, 4):
            g = NCElement.zero()
            for rho in range(4):
                g = g + mul_truncated(xderiv(xbar_up(rho, order), mu),
                                      xderiv(xbar_up(rho, order), nu), order) * _eta(rho)
            target = lam2 * _eta(mu) if mu == nu else NCElement.zero()
            residuals.append((g - target).alpha_truncate(order))
    return FrameShift("metric", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


def check_tetrad_law(order: int) -> FrameShift:
    """g_bar_mu == lam e_mu^nu g_nu, plus Clifford preservation, up to order."""
    lam = conformal_factor(order)
    residuals = []
    closed = []
    for mu in range(4):
        rhs = NCElement.zero()
        for nu in range(4):
            rhs = rhs + vierbein(mu, nu) * obs.gamma(nu)
        rhs = mul_truncated(lam, rhs, order)
        closed.append(rhs)
        residuals.append((conjugate_named("gamma", (mu,), order) - rhs).alpha_truncate(order))
    for mu in range(4):
        for nu in range(mu, 4):
            target = NCElement.one() * _eta(mu) if mu == nu else NCElement.zero()
            residuals.append(dot_truncated(closed[mu], closed[nu], order) - target)
    return FrameShift("tetrad", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


def momentum_closed_form(mu: int) -> NCElement:
    """e_mu^nu . P_nu + 1/2 (d^rho e_mu^nu) s_{nu rho} (exact in alpha)."""
    out = NCElement.zero()
    for nu in range(4):
        out = out + dot(vierbein(mu, nu), obs.P(nu))
    for rho in range(4):
        for nu in range(4):
            if nu == rho:
                continue
            de = xderiv_up(vierbein(mu, nu), rho)
            if de.is_zero:
                continue
            out = out + de * obs.s_spin(nu, rho) * Fraction(1, 2)
    return out


def check_momentum_law(order: int) -> FrameShift:
    residuals = []
    for mu in range(4):
        lhs = conjugate_named("P", (mu,), order)
        residuals.append((lhs - momentum_closed_form(mu)).alpha_truncate(order))
    return FrameShift("momentum", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


def reciprocity_check(order: int) -> FrameShift:
    """Conjugating with alpha then -alpha returns the observable up to order."""
    if order < 1:
        raise ValueError("reciprocity needs order >= 1")
    targets = [("M", ())] + [("xc", (mu,)) for mu in range(4)] \
        + [("P", (mu,)) for mu in range(4)] + [("gamma", (mu,)) for mu in range(4)]
    residuals = []
    for name, idx in targets:
        a = obs.build(name, *idx)
        back = conjugate_inverse(conjugate_named(name, idx, order), order)
        residuals.append((back - a).alpha_truncate(order))
    return FrameShift("reciprocity", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


def canonical_invariance(order: int) -> FrameShift:
    """(P_bar_mu, x_bar_nu) == -eta_{mu nu} up to order."""
    residuals = []
    for mu in range(4):
        pb = conjugate_named("P", (mu,), order)
        for nu in range(4):
            target = NCElement.one() * (-_eta(mu)) if mu == nu else NCElement.zero()
            r = bracket_truncated(pb, xbar(nu, order), order) - target
            residuals.append(r)
    return FrameShift("canonical-invariance", order, tuple(residuals),
                      all(r.is_zero for r in residuals))


# ---------------------------------------------------------------------------
# Hermitian-variable forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _vierbein_form(mu: int, nu: int) -> PolyForm:
    return PolyForm.from_element(vierbein(mu, nu))


@lru_cache(maxsize=None)
def _X_args():
    return tuple(obs.X(mu) for mu in range(4))


@lru_cache(maxsize=None)
def E(mu: int, nu: int) -> NCElement:
    """E_mu^nu: the vierbein polynomial evaluated on hermitian positions."""
    return poly_eval_sym(_vierbein_form(mu, nu), _X_args())


@lru_cache(maxsize=None)
def E_left(mu: int, nu: int) -> NCElement:
    """Left-to-right ordered evaluation of the same symmetric form."""
    return poly_eval_left(_vierbein_form(mu, nu), _X_args())


@lru_cache(maxsize=None)
def ddE_P(mu: int) -> NCElement:
    """The contraction (d_nu d^rho e_mu^nu) P_rho (a pure coefficient)."""
    out = NCElement.zero()
    for nu in range(4):
        e = vierbein(mu, nu)
        for rho in range(4):
            dd = xderiv(xderiv_up(e, rho), nu)
            if dd.is_zero:
                continue
            out = out + dd * Scalar.p_lower(rho)
    return out


def mass_hermitian_rhs() -> NCElement:
    """M . (1 - 2 a^mu X_mu + a^2 (X^2 + 3 hbar^2 / (4 P^2)))."""
    inner = NCElement.one()
    for mu in range(4):
        inner = inner - obs.X(mu) * (Scalar.alpha(mu) * 2)
    corr = obs.X2() + NCElement.from_scalar(Scalar.hbar(2) * Fraction(3, 4) * Scalar.w_pow(-2))
    inner = inner + obs.alpha2() * corr
    return dot(obs.M(), inner)


def momentum_hermitian_rhs(mu: int, left_ordered: bool = False) -> NCElement:
    """E_mu^nu . P_nu + 1/2 d^rho E_mu^nu . S_{nu rho} + (3 hbar^2/32) ddE P / P^2."""
    Efn = E_left if left_ordered else E
    out = NCElement.zero()
    for nu in range(4):
        out = out + dot(Efn(mu, nu), obs.P(nu))
    evaluator = poly_eval_left if left_ordered else poly_eval_sym
    for rho in range(4):
        for nu in range(4):
            if nu == rho:
                continue
            de = xderiv_up(vierbein(mu, nu), rho)
            if de.is_zero:
                continue
            dE = evaluator(PolyForm.from_element(de), _X_args())
            out = out + dot(dE, obs.S(nu, rho)) * Fraction(1, 2)
    out = out + ddE_P(mu) * (Scalar.hbar(2) * Fraction(3, 32) * Scalar.w_pow(-2))
    return out


def _scalar_ratio(target: NCElement, base: NCElement):
    """Unit Scalar c with target == base * c, or None."""
    if base.is_zero:
        return None
    bx, bw, bs = base.terms()[0]
    ts = target._t.get((bx, bw))
    if ts is None:
        return None
    bk, bwe, bc = bs.display_monomials()[0]
    tk, twe, tc = ts.display_monomials()[0]
    if bk[1:] != tk[1:]:
        return None
    c = Scalar.from_grat(tc * bc.inv()) * Scalar.hbar(tk[0] - bk[0]) * Scalar.w_pow(twe - bwe)
    if base * c == target:
        return c
    return None


@lru_cache(maxsize=None)
def hermitian_coefficients() -> dict:
    """The hbar^2 corrections of the hermitian-variable laws, as rendered Scalars.

    ``mass_alpha2_correction`` is the coefficient c of ``alpha^2 M c / P^2``
    left in the mass law once the classical part is removed, and
    ``momentum_dd_correction`` the coefficient of ``ddE_P(0) / P^2`` in the
    momentum law.  Each is present only when the remainder is exactly that
    multiple, which :func:`_scalar_ratio` verifies.  The dict is shared by
    every caller: read it, never mutate it.
    """
    coeffs = {}
    # Extract the hbar^2 correction on the alpha^2 M / P^2 term.
    bare = NCElement.one()
    for mu in range(4):
        bare = bare - obs.X(mu) * (Scalar.alpha(mu) * 2)
    bare = bare + obs.alpha2() * obs.X2()
    t = conjugate_named("M", (), 2) - dot(obs.M(), bare)
    c = _scalar_ratio(t, obs.alpha2() * obs.M() * Scalar.w_pow(-2))
    if c is not None:
        coeffs["mass_alpha2_correction"] = c.render()

    partial = NCElement.zero()
    for nu in range(4):
        partial = partial + dot(E(0, nu), obs.P(nu))
    for rho in range(4):
        for nu in range(4):
            if nu == rho:
                continue
            de = xderiv_up(vierbein(0, nu), rho)
            if de.is_zero:
                continue
            dE = poly_eval_sym(PolyForm.from_element(de), _X_args())
            partial = partial + dot(dE, obs.S(nu, rho)) * Fraction(1, 2)
    t2 = conjugate_named("P", (0,), 2) - partial
    c2 = _scalar_ratio(t2, ddE_P(0) * Scalar.w_pow(-2))
    if c2 is not None:
        coeffs["momentum_dd_correction"] = c2.render()
    return coeffs


def check_hermitian_forms() -> FrameShift:
    """Exact checks of the hermitian-variable mass and momentum laws."""
    residuals = [conjugate_named("M", (), 2) - mass_hermitian_rhs()]
    for mu in range(4):
        residuals.append(conjugate_named("P", (mu,), 2) - momentum_hermitian_rhs(mu))
        # Ordering immateriality: symmetric vs left-ordered evaluation.
        residuals.append(momentum_hermitian_rhs(mu, left_ordered=True) - momentum_hermitian_rhs(mu))

    # E-substitution ordering at the element level.
    for mu in range(4):
        for nu in range(4):
            residuals.append(E(mu, nu) - E_left(mu, nu))

    return FrameShift("hermitian-forms", "exact", tuple(residuals),
                      all(r.is_zero for r in residuals), dict(hermitian_coefficients()))


def prewarm(order: int) -> None:
    """Materialize the shared caches used by suite entries (thread-safety)."""
    obs.prewarm()
    shift_generator()
    conformal_factor(order)
    conjugate_named("M", (), min(order, 2))
    for mu in range(4):
        xbar(mu, order)
        xbar_up(mu, order)
        conjugate_named("P", (mu,), order)
        conjugate_named("gamma", (mu,), order)
        for nu in range(4):
            vierbein_raw(mu, nu, order)
            vierbein(mu, nu)
            E(mu, nu)
            E_left(mu, nu)
        ddE_P(mu)
