"""Accelerated-frame laws: series engine, closed forms, exact corrections."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracobs import frames as F, observables as obs, suite
from diracobs.conventions import DEFAULT_ORDER, SIGNATURE
from diracobs.exprcli import eval_text
from diracobs.frames import NotInCommutativeSubalgebra
from diracobs.ncalg import NCElement, bracket, dot, mul_truncated
from diracobs.scalars import Scalar

one = NCElement.one()
ZERO_ALPHA = [0, 0, 0, 0]


def _family(family: str, order: int) -> list:
    """The entries of one family of the shipped manifest, parsed at ``order``."""
    return [e for e in suite.parse_manifest(suite.load_default_manifest(), order)
            if e.name.startswith(family + ".")]


def _statuses(report) -> list:
    return [e["status"] for e in report["entries"]]


def _coefficients(report) -> dict:
    return {k: v for e in report["entries"] for k, v in e.get("coefficients", {}).items()}


def _family_passes(family: str, order: int) -> bool:
    """Whether the runner of ``diracobs check`` passes the whole family."""
    entries = _family(family, order)
    report = suite.run_suite(entries, order=order)
    return bool(entries) and _statuses(report) == ["pass"] * len(entries)


class TestConjugationEngine:
    def test_order_zero_identity(self):
        for el in (obs.M(), obs.x(1), obs.C(2)):
            assert F.conjugate(el, 0) == el

    def test_sigma_anchor(self):
        # the alpha-linear mass shift fixes the sign convention
        lin = F.conjugate(obs.M(), 1).alpha_part(1)
        target = NCElement.zero()
        for mu in range(4):
            target = target - dot(obs.M(), obs.x(mu)) * (Scalar.alpha(mu) * 2)
        assert lin == target

    def test_mass_shift_terminates(self):
        assert F.conjugate(obs.M(), 3) == F.conjugate(obs.M(), 2)

    def test_mass_shift_closed_form(self):
        assert F.conjugate(obs.M(), 2) == dot(obs.M(), F.conformal_factor_inv())

    def test_momentum_shift_terminates(self):
        for mu in range(4):
            assert F.conjugate_named("P", (mu,), 3) == F.conjugate_named("P", (mu,), 2)

    def test_homomorphism_up_to_order(self):
        n = 3
        lhs = F.conjugate(obs.M() * obs.M(), n)
        rhs = mul_truncated(F.conjugate_named("M", (), n),
                            F.conjugate_named("M", (), n), n)
        assert lhs == rhs
        lhs2 = F.conjugate(obs.D() * obs.x(0), 2)
        rhs2 = mul_truncated(F.conjugate(obs.D(), 2), F.conjugate(obs.x(0), 2), 2)
        assert lhs2 == rhs2

    def test_inverse_is_alpha_negation(self):
        el = obs.x(2)
        direct = F.conjugate(el, 2).subst_alpha([1, 0, Fraction(1, 2), 0])
        flipped = F.conjugate(el, 2, -1).subst_alpha([-1, 0, Fraction(-1, 2), 0])
        assert direct == flipped


class TestConformalFactor:
    def test_inverse_is_quadratic(self):
        li = F.conformal_factor_inv()
        assert li.alpha_degree() == 2
        assert li.subst_alpha(ZERO_ALPHA) == one

    def test_geometric_inverse_property(self):
        for n in (1, 2, 3):
            lam = F.conformal_factor(n)
            assert mul_truncated(lam, F.conformal_factor_inv(), n) == one

    def test_first_order(self):
        ax = NCElement.zero()
        for mu in range(4):
            ax = ax + obs.x(mu) * Scalar.alpha(mu)
        assert F.conformal_factor(1) == one + ax * 2


class TestPositionLaw:
    @pytest.mark.parametrize("n", [1, 3])
    def test_passes(self, n):
        assert _family_passes("s5.traKsi", n)

    def test_zero_acceleration(self):
        for mu in range(4):
            assert F.xbar(mu, 3).subst_alpha(ZERO_ALPHA) == obs.x(mu)

    def test_one_cache_entry_per_conjugated_observable(self):
        # xbar and conj(xc[mu]) share the cached shift of x_mu
        for fn in vars(F).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        F.xbar(0, 3)
        eval_text("conj(xc[0]; order=3)")
        assert F.conjugate_named.cache_info().misses == 1

    def test_dxbar_built_once_per_index_pair(self):
        F.dxbar.cache_clear()
        for _ in range(2):
            got = eval_text("dxbar[1,2]", 2)
        assert got == F.xderiv(F.xbar(2, 2), 1) * SIGNATURE[2]
        assert F.dxbar.cache_info().misses == 1

    def test_shift_stays_in_x_subalgebra(self):
        for mu in range(4):
            el = F.xbar(mu, 3)
            for xk, w, s in el.terms():
                assert w == 0
                assert s.p_free


class TestVierbein:
    def test_identity_at_zero_acceleration(self):
        for m in range(4):
            for n in range(4):
                want = one if m == n else NCElement.zero()
                assert F.vierbein(m, n).subst_alpha(ZERO_ALPHA) == want

    def test_exactly_quadratic(self):
        for m in range(4):
            for n in range(4):
                raw = F.vierbein_raw(m, n, 3)
                assert raw.alpha_part(3).is_zero
                assert raw == F.vierbein(m, n)

    def test_closed_form_runs_no_conjugation(self):
        for fn in vars(F).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        F.vierbein(0, 1)
        assert F.conjugate_named.cache_info().misses == 0

    def test_metric_law(self):
        assert _family_passes("s5.traG", 3)

    def test_tetrad_law(self):
        assert _family_passes("s5.traE", 3)

    def test_derivative_guard(self):
        with pytest.raises(NotInCommutativeSubalgebra):
            F.xderiv(obs.M(), 0)
        with pytest.raises(NotInCommutativeSubalgebra):
            F.xderiv(NCElement.from_scalar(Scalar.p(0)) * NCElement.x(1), 0)

    @pytest.mark.parametrize("k", range(5))
    def test_raw_matches_plain_product_then_truncate(self, k):
        # reference: the untruncated product, truncated afterwards
        lam_inv = F.conformal_factor_inv()
        for m in range(4):
            for n in range(4):
                want = (lam_inv * lam_inv * F.xderiv_up(F.xbar(m, k), n)).alpha_truncate(k)
                assert F.vierbein_raw(m, n, k) == want, (m, n, k)


def _monomial(x, s) -> NCElement:
    return NCElement({(tuple(x), 0): s})


def _xderiv_reference(el: NCElement, rho: int) -> NCElement:
    """d/dx^rho summed one monomial at a time."""
    out = NCElement.zero()
    for x, _w, s in el.terms():
        if x[rho]:
            down = list(x)
            down[rho] -= 1
            out = out + _monomial(down, s * (SIGNATURE[rho] * x[rho]))
    return out


def _mixed_element() -> NCElement:
    """Several monomials sharing the exponents of the slots not differentiated."""
    out = NCElement.zero()
    for x, s in [((2, 1, 0, 0), Scalar.alpha(0) * 3),
                 ((1, 1, 0, 0), Scalar.alpha(1) * Scalar.hbar()),
                 ((0, 1, 0, 0), Scalar.from_rational(Fraction(-5, 7))),
                 ((3, 1, 0, 2), Scalar.alpha(2) * Scalar.alpha(3)),
                 ((0, 0, 0, 0), Scalar.alpha(0)),
                 ((1, 0, 0, 0), Scalar.imag_unit())]:
        out = out + _monomial(x, s)
    return out


class TestPositionCalculus:
    @pytest.mark.parametrize("build", [
        _mixed_element, F.conformal_factor_inv,
        lambda: F.xbar(1, 3), lambda: F.vierbein(2, 0), NCElement.zero,
    ], ids=["mixed", "laminv", "xbar1", "vb20", "zero"])
    def test_xderiv_matches_term_by_term(self, build):
        el = build()
        for rho in range(4):
            want = _xderiv_reference(el, rho)
            assert F.xderiv(el, rho) == want, rho
            assert F.xderiv_up(el, rho) == want * SIGNATURE[rho], rho


class TestMomentumLaw:
    def test_passes_with_spin_term(self):
        assert _family_passes("s5.traP.law", 3)
        # the connection term is genuinely present at linear order
        for mu in (0, 1):
            lhs = F.conjugate_named("P", (mu,), 1)
            grade2 = NCElement({k: s for k, s in lhs._t.items()
                                if bin(k[1]).count("1") == 2})
            assert not grade2.alpha_part(1).is_zero

    def test_spin_term_matches_series_grade2_part(self):
        for mu in range(4):
            lhs = F.conjugate_named("P", (mu,), 2)
            spin = NCElement.zero()
            for rho in range(4):
                for nu in range(4):
                    if nu == rho:
                        continue
                    de = F.xderiv_up(F.vierbein(mu, nu), rho)
                    spin = spin + de * obs.s_spin(nu, rho) * Fraction(1, 2)
            grade2 = NCElement({k: s for k, s in lhs._t.items()
                                if bin(k[1]).count("1") == 2})
            assert grade2 == NCElement({k: s for k, s in spin._t.items()
                                        if bin(k[1]).count("1") == 2})


#: SHA-256 of every entry of a hermitian-variable quantity, ``render()`` and
#: ``latex()`` joined by newlines in index order, recorded while the
#: substitution still went through a separate polynomial-form class.
PINNED_HERMITIAN_QUANTITIES = {
    "Evb": "c06437d7c42c9732702f289aff38c9bac50f52589cf84ff0c0b25876856f482f",
    "EvbL": "c06437d7c42c9732702f289aff38c9bac50f52589cf84ff0c0b25876856f482f",
    "dEvb": "ab05888287f00527b2de31b7b548bb4ef5dd04b2ba06ffa3918495534384f91f",
}


class TestHermitianForms:
    """``check_hermitian_forms`` is the suite report of ``s5.traPXS``."""

    def test_exact(self):
        report = F.check_hermitian_forms()
        assert report["entries"] and set(_statuses(report)) == {"pass"}
        assert {e["order"] for e in report["entries"]} == {"exact"}

    def test_coefficients(self):
        assert _coefficients(F.check_hermitian_forms()) == {
            "mass_alpha2_correction": "3/4*hbar^2",
            "momentum_dd_correction": "3/32*hbar^2"}

    def test_report_entry_shape(self):
        report = F.check_hermitian_forms()
        assert report["suite"] == "filtered:s5.traPXS."
        assert report["config"] == {"order": DEFAULT_ORDER}
        assert {e["residual"] for e in report["entries"]} == {""}
        bound = {e["name"]: set(e["coefficients"])
                 for e in report["entries"] if "coefficients" in e}
        assert bound == {"s5.traPXS.mass": {"mass_alpha2_correction"},
                         "s5.traPXS.mom.0": {"momentum_dd_correction"}}

    def test_zero_acceleration_limits(self):
        assert F.conjugate_named("M", (), 2).subst_alpha(ZERO_ALPHA) == obs.M()
        for mu in range(4):
            assert (F.conjugate_named("P", (mu,), 2).subst_alpha(ZERO_ALPHA)
                    == obs.P(mu))

    def test_substitution_ordering_immaterial(self):
        for m in range(4):
            for n in range(4):
                assert F.E(m, n) == F.E_left(m, n)
        # the spin-connection forms dvb[r,m,n] = d^r e_m^n, evaluated on X
        for r in range(4):
            for m in range(4):
                for n in range(4):
                    de = F.xderiv_up(F.vierbein(m, n), r)
                    assert (F.on_hermitian_positions(de, ordered=True)
                            == F.on_hermitian_positions(de))

    def test_hermitian_quantity_bytes_pinned(self):
        for name, arity in (("Evb", 2), ("EvbL", 2), ("dEvb", 3)):
            parts = []
            for idx in itertools.product(range(4), repeat=arity):
                el = eval_text("%s[%s]" % (name, ",".join(map(str, idx))))
                parts.append(el.render() + "\n" + el.latex())
            digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
            assert digest == PINNED_HERMITIAN_QUANTITIES[name], name


class TestGroupStructure:
    def test_reciprocity(self):
        assert _family_passes("s5.recip", 3)

    def test_reciprocity_exact_for_mass(self):
        back = F.conjugate(F.conjugate_named("M", (), 2), 2, -1)
        assert back == obs.M()

    def test_canonical_invariance(self):
        assert _family_passes("s5.inv", 3)

    def test_bracket_with_classical_number_invariant(self):
        # eta is a classical number: the shifted pair reproduces it exactly
        pb = F.conjugate_named("P", (1,), 2)
        xb = F.xbar(1, 2)
        got = bracket(pb, xb).alpha_truncate(2)
        assert got == one


#: Factors of x-degree 0 that the drawn elements multiply; at most one
#: position is added per term, so every element has x-degree <= 1.
_FACTORS = ([obs.gamma(mu) for mu in range(4)] + [obs.P(mu) for mu in range(4)]
            + [obs.M()])


@st.composite
def _elements(draw) -> NCElement:
    """Small sums of rational multiples of products of gamma, P, xc and M,
    of x-degree <= 1: inputs that no manifest entry conjugates."""
    out = NCElement.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = one * Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        for factor in draw(st.lists(st.sampled_from(_FACTORS), max_size=2)):
            term = term * factor
        mu = draw(st.none() | st.integers(0, 3))
        if mu is not None:
            term = term * obs.x(mu) if draw(st.booleans()) else obs.x(mu) * term
        out = out + term
    return out


def _alpha_doubled(el: NCElement) -> NCElement:
    """``el`` with every acceleration parameter alpha^mu replaced by 2 alpha^mu."""
    out = NCElement.zero()
    for k in range(el.alpha_degree() + 1):
        out = out + el.alpha_part(k) * 2 ** k
    return out


@settings(max_examples=20, deadline=None)
@given(_elements(), _elements(), st.integers(1, 2))
def test_conjugation_properties_off_the_manifest(a, b, n):
    conj_a = F.conjugate(a, n)
    # an automorphism up to alpha-degree n
    assert F.conjugate(a * b, n) == mul_truncated(conj_a, F.conjugate(b, n), n)
    # sign -1 is the inverse group element
    assert F.conjugate(conj_a, n, -1).alpha_truncate(n) == a.alpha_truncate(n)
    # the generator a^rho C_rho is hermitian, so the shift commutes with the adjoint
    assert obs.adjoint(conj_a) == F.conjugate(obs.adjoint(a), n)
    # group law: two shifts by alpha are one shift by 2 alpha
    assert F.conjugate(conj_a, n) == _alpha_doubled(conj_a)


FRAME_LAWS = ["s5.traKsi", "s5.traG", "s5.traE", "s5.traP.law", "s5.recip", "s5.inv"]
FAMILIES = FRAME_LAWS + ["s5.traPXS"]


class TestManifestFamilies:
    """The accelerated-frame families of the shipped manifest, decided by the
    runner of ``diracobs check``."""

    @pytest.mark.parametrize("family", FRAME_LAWS)
    def test_checker_runs_its_family(self, family):
        for order in (1, 3):
            entries = _family(family, order)
            report = suite.run_suite(entries, order=order)
            assert entries, order
            assert [e["name"] for e in report["entries"]] == [e.name for e in entries]
            assert _statuses(report) == ["pass"] * len(entries), order

    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_controls_fail(self, family):
        # a control shows something only when the entry it perturbs passes,
        # so each order first runs the family itself
        for order in (1, 3):
            assert _family_passes(family, order), order
            entries = _family(family, order)
            controls = suite.run_suite(suite.negative_controls(entries, order), order=order)
            assert _statuses(controls) == ["fail"] * len(entries), order
            assert _coefficients(controls) == {}

    def test_hermitian_forms_run_their_family(self):
        names = [e["name"] for e in F.check_hermitian_forms()["entries"]]
        assert names == [e.name for e in _family("s5.traPXS", DEFAULT_ORDER)]
