"""Finite transformations to uniformly accelerated frames.

The shift of an observable ``A`` under a finite transformation with
classical acceleration parameters ``a^rho`` is the conjugation series

    A_bar = sum_{n <= N} ad^n(A) / n!,    ad(A) = SIGMA * (A, a^rho C_rho),

truncated at total alpha-degree ``N``.  Each bracket with the alpha-linear
generator raises the alpha-degree by exactly one, so dropping monomials
above ``N`` after every step is exact for the retained orders.

Closed-form targets, each stated once as a family of the shipped manifest
(``manifest.txt``, written at the run's order) and run by the checker named
in brackets:

* conformal factor: ``1/lam = 1 - 2 a^mu x_mu + a^2 x^2`` (exact quadratic)
  and ``lam`` as its geometric series (``s5.traM``);
* positions: ``x_bar^mu = lam (x^mu - x^2 a^mu)`` (``s5.traKsi``,
  :func:`check_position_law`);
* metric: ``d_mu x_bar^rho eta_rs d_nu x_bar^s = lam^2 eta_{mu nu}``
  (``s5.traG``, :func:`metric_check`);
* tetrad: ``g_bar_mu = lam e_mu^nu g_nu`` with the vierbein
  ``e_mu^nu = (1/lam)^2 d^nu x_bar_mu`` (exactly alpha-quadratic)
  (``s5.traE``, :func:`check_tetrad_law`);
* momenta: ``P_bar_mu = e_mu^nu . P_nu + 1/2 (d^rho e_mu^nu) s_{nu rho}``
  (``s5.traP.law``, :func:`check_momentum_law`);
* reciprocity and canonical invariance (``s5.recip``,
  :func:`reciprocity_check`; ``s5.inv``, :func:`canonical_invariance`);
* hermitian-variable forms with their exact hbar^2 corrections
  (coefficients 3 hbar^2 / 4 and 3 hbar^2 / 32, bound by name in the
  entries that state them) (``s5.traPXS``, :func:`check_hermitian_forms`).

This module builds the series and the closed-form pieces the manifest
refers to (``lam``, ``vb``, ``Evb``, ...); the laws and their coefficients
live only in the manifest.

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
from .conventions import DEFAULT_ORDER, SIGMA, SIGNATURE
from .ncalg import (NCElement, PolyForm, bracket_truncated, geometric_inverse,
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
# Frame-law checks: each runs its family of the default manifest
# ---------------------------------------------------------------------------

def _manifest_law(name: str, family: str, order, entries=None) -> FrameShift:
    """Run the shipped-manifest family ``family`` (an entry-name prefix).

    The manifest is parsed at ``order`` (at the default order for ``"exact"``
    families) and every entry's residual is computed exactly as the suite
    runner computes it; the coefficients bound by the passing entries are
    collected.  ``entries`` replaces the family's entries, e.g. with their
    negative controls.
    """
    from . import suite  # suite imports frames
    n = DEFAULT_ORDER if order == "exact" else order
    if entries is None:
        entries = [e for e in suite.parse_manifest(suite.load_default_manifest(), n)
                   if e.name.startswith(family + ".")]
    if not entries:
        raise ValueError(f"no manifest entries in family {family!r}")
    residuals = tuple(suite._residual(e, n) for e in entries)
    coefficients = {}
    for e, r in zip(entries, residuals):
        if r.is_zero:
            coefficients.update(suite._coefficients(e, n))
    return FrameShift(name, order, residuals, all(r.is_zero for r in residuals),
                      coefficients)


def check_position_law(order: int) -> FrameShift:
    """(1/lam) x_bar^mu == x^mu - x^2 a^mu up to the given order."""
    if order < 1:
        raise ValueError("position law needs order >= 1")
    return _manifest_law("position-law", "s5.traKsi", order)


def metric_check(order: int) -> FrameShift:
    """d_mu x_bar^rho eta_rs d_nu x_bar^s == lam^2 eta_{mu nu} up to order."""
    return _manifest_law("metric", "s5.traG", order)


def check_tetrad_law(order: int) -> FrameShift:
    """g_bar_mu == lam e_mu^nu g_nu, Clifford preservation and vierbein termination."""
    return _manifest_law("tetrad", "s5.traE", order)


def check_momentum_law(order: int) -> FrameShift:
    """P_bar_mu == e_mu^nu . P_nu + 1/2 (d^rho e_mu^nu) s_{nu rho} up to order."""
    return _manifest_law("momentum", "s5.traP.law", order)


def reciprocity_check(order: int) -> FrameShift:
    """Conjugating with alpha then -alpha returns the observable up to order."""
    if order < 1:
        raise ValueError("reciprocity needs order >= 1")
    return _manifest_law("reciprocity", "s5.recip", order)


def canonical_invariance(order: int) -> FrameShift:
    """(P_bar_mu, x_bar_nu) == -eta_{mu nu} up to order."""
    return _manifest_law("canonical-invariance", "s5.inv", order)


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


def check_hermitian_forms() -> FrameShift:
    """Exact hermitian-variable mass and momentum laws and E-ordering immateriality.

    The hbar^2 corrections are the coefficients the family's manifest
    entries bind: ``mass_alpha2_correction`` (of ``alpha^2 M / P^2`` in the
    mass law) and ``momentum_dd_correction`` (of ``ddE_P(0) / P^2`` in the
    momentum law)."""
    return _manifest_law("hermitian-forms", "s5.traPXS", "exact")
