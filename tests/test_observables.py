"""Catalog spot checks (the full identity tables run through the suite)."""

from fractions import Fraction

import pytest

from diracobs import observables as obs
from diracobs.ncalg import NCElement, bracket, dot
from diracobs.observables import UnknownObservable
from diracobs.scalars import Scalar

one = NCElement.one()


class TestDefiningRelations:
    def test_mass_squared(self):
        assert obs.M() * obs.M() == obs.P2()

    def test_dilatation_weights(self):
        assert bracket(obs.D(), obs.M()) == obs.M()
        assert bracket(obs.D(), obs.Mabs()) == obs.Mabs()
        assert bracket(obs.D(), obs.P(1)) == obs.P(1)

    def test_spin_magnitude(self):
        expect = one * (Scalar.hbar(2) * Fraction(-3, 4))
        assert obs.W2() * Scalar.w_pow(-2) == expect

    def test_position_noncommutativity(self):
        assert bracket(obs.X(1), obs.X(2)) == obs.S(1, 2) * Scalar.w_pow(-2)

    def test_transversality(self):
        pw = NCElement.zero()
        for m in range(4):
            pw = pw + obs.P(m) * obs.W(m) * obs._eta(m)
        assert pw.is_zero
        for n in range(4):
            ps = NCElement.zero()
            for m in range(4):
                ps = ps + obs.P(m) * obs.S(m, n) * obs._eta(m)
            assert ps.is_zero

    def test_velocities(self):
        for m in range(4):
            assert obs.V(m) == bracket(obs.X(m), obs.M())
            assert obs.gamma(m) == bracket(obs.x(m), obs.M())

    def test_spin_vector_contraction_with_momentum(self):
        # contracting -hbar/2 gamma5 gamma_mu with P^mu gives -hbar/2 gamma5 M
        half = Scalar.hbar() * Fraction(-1, 2)
        lhs = NCElement.zero()
        for m in range(4):
            lhs = lhs + obs.gamma5() * obs.gamma(m) * half * obs.P_up(m).scalar_part()
        assert lhs == obs.gamma5() * obs.M() * half

    def test_spin_half_characteristic(self):
        quarter = Scalar.hbar(2) * Fraction(-1, 4)
        for m in range(4):
            for n in range(4):
                target = NCElement.zero()
                if m == n:
                    target = one * (quarter * obs._eta(m))
                target = target - (obs.P(m) * obs.P(n) * (quarter * Scalar.w_pow(-2)))
                assert dot(obs.S_vec(m), obs.S_vec(n)) == target

    def test_mass_sign_decomposition(self):
        assert obs.eps() * obs.eps() == one
        assert dot(obs.eps(), obs.Mabs()) == obs.M()
        assert dot(obs.gamma5(), obs.eps()).is_zero

    def test_internal_spin_form_of_W(self):
        # the momentum-position part of J drops out of W under the
        # antisymmetric contraction, leaving the pure spin part
        from diracobs.clifford import nonzero_epsilon
        for mu in range(4):
            spin_only = NCElement.zero()
            for (m, n, r, s), sign in nonzero_epsilon():
                if m != mu:
                    continue
                coef = Fraction(sign, -2) * obs._eta(n) * obs._eta(r)
                spin_only = spin_only + obs.s_spin(n, r) * obs.P_up(s) * coef
            assert obs.W(mu) == spin_only


class TestIndexUtilities:
    def test_raise_lower_roundtrip(self):
        for m in range(4):
            assert obs.upper(obs.P, m) == obs.P(m) * obs._eta(m)
            raised = lambda mu: obs.upper(obs.P, mu)
            assert obs.upper(raised, m) == obs.P(m)

    def test_time_component_unchanged(self):
        assert obs.upper(obs.P, 0) == obs.P(0)

    def test_space_component_flips(self):
        assert obs.upper(obs.P, 1) == -obs.P(1)


class TestCatalogDispatch:
    def test_build(self):
        assert obs.build("M") == obs.M()
        assert obs.build("J", 0, 1) == obs.J(0, 1)
        assert obs.build("Xh", 2) == obs.X(2)

    def test_unknown_name(self):
        with pytest.raises(UnknownObservable):
            obs.build("Q")

    def test_bad_arity(self):
        with pytest.raises(UnknownObservable):
            obs.build("M", 0)
        with pytest.raises(UnknownObservable):
            obs.build("J", 0)

    def test_bad_index(self):
        with pytest.raises(UnknownObservable):
            obs.build("P", 4)

    def test_builders_are_referentially_transparent(self):
        assert obs.build("C", 2) is obs.build("C", 2)
        assert obs.catalog_names()[0] == "C"
