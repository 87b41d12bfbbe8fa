"""Accelerated-frame laws: series engine, closed forms, exact corrections."""

from fractions import Fraction

import pytest

from diracobs import frames as F, observables as obs, suite
from diracobs.conventions import DEFAULT_ORDER
from diracobs.frames import NotInCommutativeSubalgebra
from diracobs.ncalg import (NCElement, PolyForm, bracket, dot, mul_truncated,
                            poly_eval_left, poly_eval_sym)
from diracobs.scalars import Scalar

one = NCElement.one()
ZERO_ALPHA = [0, 0, 0, 0]


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
        flipped = F.conjugate_inverse(el, 2).subst_alpha([-1, 0, Fraction(-1, 2), 0])
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
        assert F.check_position_law(n).passed

    def test_zero_acceleration(self):
        for mu in range(4):
            assert F.xbar(mu, 3).subst_alpha(ZERO_ALPHA) == obs.x(mu)

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

    def test_metric_law(self):
        assert F.metric_check(3).passed

    def test_tetrad_law(self):
        assert F.check_tetrad_law(3).passed

    def test_derivative_guard(self):
        with pytest.raises(NotInCommutativeSubalgebra):
            F.xderiv(obs.M(), 0)
        with pytest.raises(NotInCommutativeSubalgebra):
            F.xderiv(NCElement.from_scalar(Scalar.p(0)) * NCElement.x(1), 0)


class TestMomentumLaw:
    def test_passes_with_spin_term(self):
        assert F.check_momentum_law(3).passed
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


@pytest.fixture(scope="module")
def hermitian_result():
    return F.check_hermitian_forms()


class TestHermitianForms:
    @pytest.fixture
    def result(self, hermitian_result):
        return hermitian_result

    def test_exact(self, result):
        assert result.passed
        assert result.order == "exact"

    def test_coefficients(self, result):
        assert result.coefficients["mass_alpha2_correction"] == "3/4*hbar^2"
        assert result.coefficients["momentum_dd_correction"] == "3/32*hbar^2"
        assert F.check_hermitian_forms().coefficients == result.coefficients

    def test_report_entry_shape(self, result):
        entry = result.to_report_entry()
        assert entry["status"] == "pass" and entry["residual"] == ""
        assert entry["order"] == "exact"
        assert set(entry["coefficients"]) == {"mass_alpha2_correction",
                                              "momentum_dd_correction"}

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
        X = F._X_args()
        for r in range(4):
            for m in range(4):
                for n in range(4):
                    form = PolyForm.from_element(F.xderiv_up(F.vierbein(m, n), r))
                    assert poly_eval_left(form, X) == poly_eval_sym(form, X)


class TestGroupStructure:
    def test_reciprocity(self):
        assert F.reciprocity_check(3).passed

    def test_reciprocity_exact_for_mass(self):
        back = F.conjugate_inverse(F.conjugate_named("M", (), 2), 2)
        assert back == obs.M()

    def test_canonical_invariance(self):
        assert F.canonical_invariance(3).passed

    def test_bracket_with_classical_number_invariant(self):
        # eta is a classical number: the shifted pair reproduces it exactly
        pb = F.conjugate_named("P", (1,), 2)
        xb = F.xbar(1, 2)
        got = bracket(pb, xb).alpha_truncate(2)
        assert got == one


def _family(family, order):
    n = DEFAULT_ORDER if order == "exact" else order
    return [e for e in suite.parse_manifest(suite.load_default_manifest(), n)
            if e.name.startswith(family + ".")]


FAMILIES = [("position-law", "s5.traKsi", F.check_position_law),
            ("metric", "s5.traG", F.metric_check),
            ("tetrad", "s5.traE", F.check_tetrad_law),
            ("momentum", "s5.traP.law", F.check_momentum_law),
            ("reciprocity", "s5.recip", F.reciprocity_check),
            ("canonical-invariance", "s5.inv", F.canonical_invariance)]


class TestManifestFamilies:
    """Each frame-law checker runs its family of the default manifest."""

    @pytest.mark.parametrize("name, family, checker", FAMILIES,
                             ids=[f[1] for f in FAMILIES])
    def test_checker_runs_its_family(self, name, family, checker):
        result = checker(1)
        assert result.passed
        assert (result.name, result.order) == (name, 1)
        assert len(result.residuals) == len(_family(family, 1))

    def test_hermitian_forms_run_their_family(self, hermitian_result):
        assert len(hermitian_result.residuals) == len(_family("s5.traPXS", "exact"))

    @pytest.mark.parametrize("name, family, order",
                             [(name, family, 1) for name, family, _ in FAMILIES]
                             + [("hermitian-forms", "s5.traPXS", "exact")],
                             ids=[f[1] for f in FAMILIES] + ["s5.traPXS"])
    def test_negative_controls_fail(self, name, family, order):
        controls = suite.negative_controls(_family(family, order))
        result = F._manifest_law(name, family, order, entries=controls)
        assert result.passed is False
        assert not result.residual.is_zero
        assert result.coefficients == {}
        assert result.to_report_entry()["status"] == "fail"

    def test_unknown_family_is_an_error(self):
        with pytest.raises(ValueError, match="no manifest entries"):
            F._manifest_law("none", "s5.nosuchfamily", 1)
