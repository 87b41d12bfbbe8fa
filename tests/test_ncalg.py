"""Normal-form engine: products, brackets, series; position polynomials on X."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracobs import frames as F, observables as obs
from diracobs.frames import NotInCommutativeSubalgebra
from diracobs.ncalg import (NCElement, NotUnitalSeries, bracket, bracket_truncated,
                            dot, dot_truncated, geometric_inverse, mul_truncated)
from diracobs.scalars import GRat, Scalar

from conftest import random_element

one = NCElement.one()


def s(q):
    return NCElement.from_scalar(Scalar.from_rational(q))


class TestReordering:
    def test_momentum_past_position(self):
        p0 = NCElement.from_scalar(Scalar.p(0))
        x0 = NCElement.x(0)
        ih = NCElement.from_scalar(Scalar.imag_unit() * Scalar.hbar())
        assert p0 * x0 == x0 * p0 - ih

    def test_positions_commute(self):
        got = NCElement.x(1) * NCElement.x(2)
        assert got == NCElement({((0, 1, 1, 0), 0): Scalar.one()})
        assert got == NCElement.x(2) * NCElement.x(1)

    def test_w_inverse_square_past_position(self):
        wm2 = NCElement.from_scalar(Scalar.w_pow(-2))
        x0 = NCElement.x(0)
        corr = NCElement.from_scalar(
            Scalar.imag_unit() * Scalar.hbar() * Scalar.from_rational(2)
            * Scalar.p(0) * Scalar.w_pow(-4))
        assert wm2 * x0 == x0 * wm2 + corr

    def test_higher_power_reordering(self):
        # f x^2 = x^2 f - 2 i hbar x f' + (i hbar)^2 f''
        f = Scalar.p(1) * Scalar.p(1)
        fe = NCElement.from_scalar(f)
        x1 = NCElement.x(1)
        ih = Scalar.imag_unit() * Scalar.hbar()
        expect = (x1 * x1 * fe
                  - x1 * NCElement.from_scalar(ih * f.pderiv(1)) * 2
                  + NCElement.from_scalar(ih * ih * f.pderiv(1).pderiv(1)))
        assert fe * (x1 * x1) == expect


class TestAlgebraLaws:
    def test_associativity_randomized(self, rng):
        for _ in range(80):
            a, b, c = (random_element(rng, 2) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_jacobi_randomized(self, rng):
        for _ in range(40):
            a, b, c = (random_element(rng, 2) for _ in range(3))
            total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                     + bracket(c, bracket(a, b)))
            assert total.is_zero

    def test_leibniz_randomized(self, rng):
        for _ in range(40):
            a, b, c = (random_element(rng, 2) for _ in range(3))
            assert bracket(a, b * c) == bracket(a, b) * c + b * bracket(a, c)

    def test_bracket_antisymmetric(self, rng):
        for _ in range(40):
            a, b = random_element(rng, 2), random_element(rng, 2)
            assert bracket(a, b) == -bracket(b, a)
            # a difference is one signed merge, not a sum with a negated copy
            assert a - b == a + (-b)
            assert a - a == NCElement.zero()

    def test_dot_symmetric_bilinear(self, rng):
        for _ in range(40):
            a, b, c = (random_element(rng, 2) for _ in range(3))
            assert dot(a, b) == dot(b, a)
            assert dot(a, b + c) == dot(a, b) + dot(a, c)
            # a number multiple scales each coefficient in one pass; it
            # equals the product with the number as a coefficient
            for q in (0, 1, -1, Fraction(3, 4), Fraction(-5, 2)):
                assert a * q == q * a == a * Scalar.from_rational(q)
            assert a * GRat(1, -2) == a * Scalar.from_grat(GRat(1, -2))

    def test_bracket_x_degree_bound(self, rng):
        # Reordering consumes one x against one p-derivative.  This bound
        # belongs to the scalar sector: elements with anticommuting Clifford
        # words keep their leading x-degree, so the property is stated for
        # word-free elements.
        for _ in range(25):
            a = random_element(rng, 3)
            b = random_element(rng, 3)
            a = NCElement({(x, 0): s for (x, w), s in a._t.items()})
            b = NCElement({(x, 0): s for (x, w), s in b._t.items()})
            r = bracket(a, b)
            if r.is_zero or a.is_zero or b.is_zero:
                continue
            assert r.x_degree() <= a.x_degree() + b.x_degree() - 1


class TestSeries:
    def test_geometric_inverse_first_order(self):
        ax = NCElement.zero()
        for mu in range(4):
            ax = ax + NCElement.x(mu) * Scalar.alpha(mu)
        x2 = NCElement.zero()
        for mu, sgn in enumerate((1, -1, -1, -1)):
            x2 = x2 + NCElement.x(mu) * NCElement.x(mu) * sgn
        a2 = NCElement.zero()
        for mu, sgn in enumerate((1, -1, -1, -1)):
            a2 = a2 + NCElement.from_scalar(Scalar.alpha(mu) * Scalar.alpha(mu)) * sgn
        u = one - ax * 2 + a2 * x2
        inv1 = geometric_inverse(u, 1)
        assert inv1 == one + ax * 2
        # orders 5 and 6 reach the k >= 5 terms, which no manifest check at
        # order 4 or below does
        for n in (1, 2, 3, 5, 6):
            assert mul_truncated(geometric_inverse(u, n), u, n) == one

    def test_geometric_inverse_identity(self):
        assert geometric_inverse(one, 4) == one

    def test_not_unital(self):
        with pytest.raises(NotUnitalSeries):
            geometric_inverse(one * 2, 2)
        with pytest.raises(NotUnitalSeries):
            geometric_inverse(NCElement.x(0), 2)

    def test_subst_alpha_takes_four_values(self):
        for el in (Scalar.one(), Scalar.alpha(3), NCElement.zero(), one,
                   NCElement.x(0) * Scalar.alpha(3)):
            for values in ([7], [0, 1, 2], [0, 1, 2, 3, 4]):
                with pytest.raises(ValueError, match="exactly four values"):
                    el.subst_alpha(values)

    def test_alpha_truncate(self):
        a0 = Scalar.alpha(0)
        el = NCElement.x(0) * a0 + NCElement.x(0) * NCElement.x(0) * (a0 * a0)
        assert el.alpha_truncate(1) == NCElement.x(0) * a0
        assert el.alpha_degree() == 2

    def test_truncated_ops_match_plain(self, rng):
        for _ in range(25):
            a, b = random_element(rng, 2), random_element(rng, 2)
            for n in (0, 1, 2):
                assert mul_truncated(a, b, n) == (a * b).alpha_truncate(n)
                assert bracket_truncated(a, b, n) == bracket(a, b).alpha_truncate(n)
                assert dot_truncated(a, b, n) == dot(a, b).alpha_truncate(n)


class TestPolyForms:
    """Position polynomials of degree <= 2 evaluated on the hermitian
    positions by :func:`diracobs.frames.on_hermitian_positions`."""

    def test_product_slot_symmetrizes(self):
        c = Scalar.alpha(0) * Fraction(3, 5)
        el = NCElement.x(0) * NCElement.x(1) * c
        assert F.on_hermitian_positions(el) == dot(obs.X(0), obs.X(1)) * c
        # the hermitian positions do not commute, so the ordering shows
        assert dot(obs.X(0), obs.X(1)) != obs.X(0) * obs.X(1)

    def test_ordered_cross_term_is_double_sum(self):
        c = Scalar.from_rational(Fraction(-2, 7))
        el = NCElement.x(1) * NCElement.x(3) * c
        X1, X3 = obs.X(1), obs.X(3)
        want = X1 * X3 * c * Fraction(1, 2) + X3 * X1 * c * Fraction(1, 2)
        assert F.on_hermitian_positions(el, ordered=True) == want

    def test_constant(self):
        assert F.on_hermitian_positions(s(Fraction(5, 3))) == s(Fraction(5, 3))

    def test_left_equals_sym_for_symmetric_forms(self):
        # the symmetric double sum reproduces the symmetrised substitution
        x = NCElement.x
        el = (one + x(0) * Scalar.alpha(0) + x(2) * 2 + x(0) * x(1) * 3
              + x(2) * x(2) * Scalar.alpha(1) + x(1) * x(3) * Fraction(-2, 7))
        got = F.on_hermitian_positions(el)
        assert got == F.on_hermitian_positions(el, ordered=True)
        assert got == (one + obs.X(0) * Scalar.alpha(0) + obs.X(2) * 2
                       + dot(obs.X(0), obs.X(1)) * 3 + obs.X(2) * obs.X(2) * Scalar.alpha(1)
                       + dot(obs.X(1), obs.X(3)) * Fraction(-2, 7))

    def test_from_element_rejects_clifford(self):
        for ordered in (False, True):
            with pytest.raises(NotInCommutativeSubalgebra):
                F.on_hermitian_positions(NCElement.gamma(0), ordered)
            with pytest.raises(ValueError):
                F.on_hermitian_positions(NCElement.x(0) * NCElement.gamma(1), ordered)

    def test_from_element_rejects_cubic(self):
        cubic = NCElement.x(0) * NCElement.x(1) * NCElement.x(2)
        for ordered in (False, True):
            with pytest.raises(NotInCommutativeSubalgebra):
                F.on_hermitian_positions(cubic + one, ordered)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3), st.integers(0, 3))
def test_monomial_products_associate(wa, wb, mua, mub):
    a = NCElement({((1, 0, 0, 0), wa): Scalar.p(mua)})
    b = NCElement({((0, 0, 1, 0), wb): Scalar.w_pow(-1)})
    c = NCElement.x(mub) * NCElement.gamma(mua)
    assert (a * b) * c == a * (b * c)


def test_scalar_promotion_paths():
    x0 = NCElement.x(0)
    assert 2 * x0 == x0 * 2 == x0 + x0
    assert Fraction(1, 2) * x0 + Fraction(1, 2) * x0 == x0
    # left Scalar multiplication must reorder, matching element product
    f = Scalar.p(0)
    assert f * x0 == NCElement.from_scalar(f) * x0


def test_rendering_one_monomial_per_line():
    el = NCElement.x(0) * NCElement.gamma(1) + NCElement.gamma5()
    text = el.render()
    assert text.splitlines() == ["1 | g0 g1 g2 g3 | i", "x0 | g1 | 1"]
    assert el.render(alias_gamma5=True).splitlines()[0] == "1 | gamma5 | 1"
