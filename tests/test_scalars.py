"""Coefficient-ring tests: canonical forms, calculus, exponent range, grading."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracobs import scalars
from diracobs.ncalg import NCElement, bracket, dot
from diracobs.observables import adjoint
from diracobs.scalars import ExponentOverflow, GRat, Scalar

from conftest import random_scalar


def S(q):
    return Scalar.from_rational(q)


class TestCanonicalForm:
    def test_w_squared_reduces(self):
        w = Scalar.w_pow(1)
        p = Scalar.p
        pp = p(0) * p(0) - p(1) * p(1) - p(2) * p(2) - p(3) * p(3)
        assert w * w == pp

    def test_additive_identity(self, rng):
        for _ in range(50):
            a = random_scalar(rng)
            assert a + Scalar.zero() == a

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GRat(0.1)
        with pytest.raises(TypeError):
            GRat(Fraction(1, 2), 0.5)
        with pytest.raises(TypeError):
            Scalar.from_rational(0.25)
        assert GRat(Fraction(1, 10)).d == 10

    def test_gaussian_product(self):
        one, i, hb = Scalar.one(), Scalar.imag_unit(), Scalar.hbar()
        assert (one + i * hb) * (one - i * hb) == one + Scalar.hbar(2)

    def test_zero_unique_representation(self):
        a = Scalar.w_pow(-2) * Scalar.w_pow(2)
        assert a == Scalar.one()
        z = a - Scalar.one()
        assert z.is_zero and z == Scalar.zero()

    def test_minimality_after_cancellation(self):
        # (p.p)/w^2 must collapse to 1
        pp = Scalar.w_pow(2)
        assert pp * Scalar.w_pow(-2) == Scalar.one()
        # and 1/w^2 stays at denominator order one
        assert Scalar.w_pow(-2).render() == "w^-2"

    def test_canonical_uniqueness_randomized(self, rng):
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) - b == a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a


class TestExponentRange:
    """Packed exponents: the edges of the range are exact, leaving it raises."""

    LO, HI = -scalars._BIAS, scalars._FIELD - scalars._BIAS

    def test_edges_exact(self):
        lo, hi = self.LO, self.HI
        assert Scalar.hbar(hi) * Scalar.hbar(lo) == Scalar.hbar(hi + lo)
        assert Scalar.w_pow(lo).render() == f"w^{lo}"
        # p0^2 is rewritten as w^2 + p1^2 + p2^2 + p3^2, which moves w up by 2
        p0, p1, p2, p3 = (Scalar.p(mu) for mu in range(4))
        w = Scalar.w_pow(hi - 2)
        assert w * p0 * p0 == Scalar.w_pow(hi) + w * (p1 * p1 + p2 * p2 + p3 * p3)

    @pytest.mark.parametrize("x", [Scalar.hbar(1), Scalar.hbar(-1), Scalar.w_pow(1),
                                   Scalar.w_pow(-1), Scalar.p(1), Scalar.alpha(2)],
                             ids=["hbar", "hbar^-1", "w", "w^-1", "p1", "a2"])
    def test_squaring_overflows_loudly(self, x):
        with pytest.raises(ExponentOverflow):
            for _ in range(64):
                x = x * x

    def test_out_of_range_constructors_and_inverse(self):
        with pytest.raises(ExponentOverflow):
            Scalar.w_pow(self.HI + 1)
        with pytest.raises(ExponentOverflow):
            Scalar.hbar(self.LO - 1)

    def test_p0_rewrite_overflows(self):
        # the rewritten key w^(HI+2) leaves the range, not the product's key
        with pytest.raises(ExponentOverflow):
            Scalar.w_pow(self.HI) * Scalar.p(0) * Scalar.p(0)

    def test_derivative_below_range(self):
        with pytest.raises(ExponentOverflow):
            Scalar.w_pow(self.LO + 1).pderiv(1)


class TestDerivative:
    def test_p_component(self):
        assert Scalar.p(0).pderiv(0) == Scalar.one()
        assert Scalar.p(0).pderiv(1) == Scalar.zero()

    def test_w_chain_rule(self):
        # derived from w^2 = p.p: dw/dp^1 = -p1/w
        got = Scalar.w_pow(1).pderiv(1)
        expect = -Scalar.p(1) * Scalar.w_pow(-1)
        assert got == expect
        # independent check through Leibniz on w*w
        lhs = Scalar.w_pow(2).pderiv(1)
        rhs = S(2) * Scalar.w_pow(1) * got
        assert lhs == rhs

    def test_inverse_square_chain_rule(self):
        got = Scalar.w_pow(-2).pderiv(0)
        assert got == S(-2) * Scalar.p(0) * Scalar.w_pow(-4)
        # cross-check: d(w^2 * w^-2) = 0
        w2 = Scalar.w_pow(2)
        assert w2.pderiv(0) * Scalar.w_pow(-2) + w2 * got == Scalar.zero()

    def test_derivatives_commute(self, rng):
        for _ in range(60):
            a = random_scalar(rng)
            for mu, nu in ((0, 1), (2, 3), (0, 3)):
                assert a.pderiv(mu).pderiv(nu) == a.pderiv(nu).pderiv(mu)

    def test_leibniz(self, rng):
        for _ in range(60):
            a, b = random_scalar(rng), random_scalar(rng)
            nu = rng.randrange(4)
            assert (a * b).pderiv(nu) == a.pderiv(nu) * b + a * b.pderiv(nu)


class TestP0Field:
    """p0 is one field of the packed key; p0^2 is always rewritten."""

    # (coefficient, momentum factors, w exponent, times i)
    monomial = st.tuples(st.integers(-3, 3).filter(bool),
                         st.lists(st.integers(0, 3), max_size=3),
                         st.integers(-2, 2), st.booleans())

    @staticmethod
    def build(terms) -> Scalar:
        out = Scalar.zero()
        for c, ps, k, imag in terms:
            t = S(c) * Scalar.w_pow(k)
            for mu in ps:
                t = t * Scalar.p(mu)
            out = out + (t * Scalar.imag_unit() if imag else t)
        return out

    @staticmethod
    def max_p0_degree(t: dict) -> int:
        return max(((k >> scalars._P_SHIFT[0]) & scalars._FIELD for k in t),
                   default=0)

    @settings(max_examples=250, deadline=None)
    @given(st.lists(monomial, min_size=1, max_size=3),
           st.lists(monomial, min_size=1, max_size=3), st.integers(0, 3))
    def test_stored_p0_degree_at_most_one(self, fs, gs, nu):
        f, g = self.build(fs), self.build(gs)
        a = NCElement.from_scalar(f) * NCElement.x(nu) * NCElement.gamma(0)
        b = NCElement.x(0) * NCElement.from_scalar(g)
        stored = [(f * g)._t, (f + g)._t, (f - g)._t, f.pderiv(nu)._t,
                  scalars._shifted_pderiv(f._t, nu)]
        for el in (a * b, bracket(a, b), dot(a, b), adjoint(a)):
            stored += [s._t for _x, _w, s in el.terms()]
        assert all(self.max_p0_degree(t) <= 1 for t in stored)

    @pytest.mark.parametrize("nu", range(4))
    def test_pderiv_is_the_chain_rule(self, nu):
        # d/dp^nu (p^mu w^k) = delta_mu_nu w^k + eta_nu_nu k p^mu p^nu w^(k-2),
        # from w^2 = p.p; the right side is built by products alone
        eta = (1, -1, -1, -1)[nu]
        for mu in range(4):
            for k in range(-2, 3):
                got = (Scalar.p(mu) * Scalar.w_pow(k)).pderiv(nu)
                want = S(eta * k) * Scalar.p(mu) * Scalar.p(nu) * Scalar.w_pow(k - 2)
                if mu == nu:
                    want = want + Scalar.w_pow(k)
                assert got == want, (mu, nu, k)


class TestConjugation:
    def test_examples(self):
        assert Scalar.imag_unit().conj_i() == -Scalar.imag_unit()
        r = S(Fraction(3, 4)) * Scalar.hbar(2)
        assert r.conj_i() == r

    def test_involutive(self, rng):
        for _ in range(60):
            a = random_scalar(rng)
            assert a.conj_i().conj_i() == a

    def test_multiplicative(self, rng):
        for _ in range(40):
            a, b = random_scalar(rng), random_scalar(rng)
            assert (a * b).conj_i() == a.conj_i() * b.conj_i()


class TestAlphaGrading:
    def test_degree(self):
        a = Scalar.alpha(0) * Scalar.alpha(1) * Scalar.p(2)
        assert a.alpha_degree() == 2
        assert Scalar.w_pow(1).alpha_degree() == 0
        assert Scalar.zero().alpha_degree() == -1

    def test_truncate(self):
        a0 = Scalar.alpha(0)
        t = Scalar.one() + a0 + a0 * a0
        assert t.alpha_truncate(1) == Scalar.one() + Scalar.alpha(0)
        assert t.alpha_truncate(0) == Scalar.one()
        assert t.alpha_part(2) == a0 * a0

    def test_substitution(self):
        t = Scalar.one() + S(2) * Scalar.alpha(1) + Scalar.alpha(1) * Scalar.alpha(2)
        got = t.subst_alpha([0, Fraction(1, 2), 3, 0])
        assert got == S(2) + S(Fraction(3, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6), st.integers(-2, 2))
def test_ring_axioms_hypothesis(a, b, d, k):
    x = S(Fraction(a, d)) * Scalar.w_pow(k) + Scalar.p(abs(a) % 4)
    y = S(Fraction(b, d)) * Scalar.hbar(a % 3 - 1) + Scalar.alpha(abs(b) % 4)
    z = Scalar.imag_unit() * Scalar.p(abs(a + b) % 4)
    assert (x + y) + z == x + (y + z)
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Scalar.zero()


def test_rendering_deterministic(rng):
    a = random_scalar(rng)
    assert a.render() == a.render()
    # reversed order is a different but valid deterministic rendering
    b = Scalar.p(0) + Scalar.p(1)
    assert b.render() != b.render(reverse=True)


def test_display_grammar_tokens():
    s = (S(Fraction(-3, 4)) * Scalar.hbar(2) * Scalar.p(0) * Scalar.alpha(3)
         * Scalar.w_pow(-2))
    assert s.render() == "-3/4*hbar^2*p0*a3*w^-2"


def _display_cases():
    """Seeded products, sums and derivatives with w-denominators and p0^2."""
    rng = random.Random(1)
    out = []
    for _ in range(3):
        a = random_scalar(rng) * Scalar.w_pow(rng.choice((-3, -1)))
        b = random_scalar(rng) * Scalar.p(0) * Scalar.p(0)
        nu = rng.randrange(4)
        out.extend((a * b, a + b, a.pderiv(nu), b.pderiv(nu)))
    return out


# Renderings (render(), render(reverse=True), latex()) of _display_cases(),
# recorded from a kernel that stored the (A + B*w)/w^(2m) display form itself:
# the printed bytes must not depend on how a Scalar is stored.
_PINNED_DISPLAY = [
    (
        '(2 - 2*i)*hbar^2*p0^2*a0*w^-1'
        ' + (9/2 - 15/2*i)*hbar^2*p0^2*p1*a0*w^-1',
        '(9/2 - 15/2*i)*hbar^2*p0^2*p1*a0*w^-1'
        ' + (2 - 2*i)*hbar^2*p0^2*a0*w^-1',
        r'\left(2 - 2 i\right) \, \hbar^{2} \, (p^{0})^{2} \, \alpha^{0} \, w^{-1}'
        r' + \left(\tfrac{9}{2} - \tfrac{15}{2} i\right) \, \hbar^{2} \, (p^{0})^{2} \, p^{1} \, \alpha^{0} \, w^{-1}',
    ),
    (
        '(-3/2 + 3/2*i)*hbar^2*a0*w^-1 - 4/3*p0^4*w^-2 + 4/3*p0^2*p1^2*w^-2'
        ' + 4/3*p0^2*p2^2*w^-2 + 4/3*p0^2*p3^2*w^-2 + (-4 + i)*p0^4*p1*w^-2'
        ' + (4 - i)*p0^2*p1^3*w^-2 + (4 - i)*p0^2*p1*p2^2*w^-2'
        ' + (4 - i)*p0^2*p1*p3^2*w^-2',
        '(4 - i)*p0^2*p1*p3^2*w^-2 + (4 - i)*p0^2*p1*p2^2*w^-2'
        ' + (4 - i)*p0^2*p1^3*w^-2 + (-4 + i)*p0^4*p1*w^-2'
        ' + 4/3*p0^2*p3^2*w^-2 + 4/3*p0^2*p2^2*w^-2 + 4/3*p0^2*p1^2*w^-2'
        ' - 4/3*p0^4*w^-2 + (-3/2 + 3/2*i)*hbar^2*a0*w^-1',
        r'\left(-\tfrac{3}{2} + \tfrac{3}{2} i\right) \, \hbar^{2} \, \alpha^{0} \, w^{-1}'
        r' - \tfrac{4}{3} \, (p^{0})^{4} \, w^{-2}'
        r' + \tfrac{4}{3} \, (p^{0})^{2} \, (p^{1})^{2} \, w^{-2}'
        r' + \tfrac{4}{3} \, (p^{0})^{2} \, (p^{2})^{2} \, w^{-2}'
        r' + \tfrac{4}{3} \, (p^{0})^{2} \, (p^{3})^{2} \, w^{-2}'
        r' + \left(-4 + i\right) \, (p^{0})^{4} \, p^{1} \, w^{-2}'
        r' + \left(4 - i\right) \, (p^{0})^{2} \, (p^{1})^{3} \, w^{-2}'
        r' + \left(4 - i\right) \, (p^{0})^{2} \, p^{1} \, (p^{2})^{2} \, w^{-2}'
        r' + \left(4 - i\right) \, (p^{0})^{2} \, p^{1} \, (p^{3})^{2} \, w^{-2}',
    ),
    (
        '(-3/2 + 3/2*i)*hbar^2*p1*a0*w^-3',
        '(-3/2 + 3/2*i)*hbar^2*p1*a0*w^-3',
        r'\left(-\tfrac{3}{2} + \tfrac{3}{2} i\right) \, \hbar^{2} \, p^{1} \, \alpha^{0} \, w^{-3}',
    ),
    (
        '(-4 + i)*p0^2',
        '(-4 + i)*p0^2',
        r'\left(-4 + i\right) \, (p^{0})^{2}',
    ),
    (
        '(1 + i)*p0^3*w^-1 + (-2 - 2*i)*hbar*p0^3*w^-1'
        ' + (4/3 + 4/3*i)*hbar^-1*p0^4*w^-1',
        '(4/3 + 4/3*i)*hbar^-1*p0^4*w^-1 + (-2 - 2*i)*hbar*p0^3*w^-1'
        ' + (1 + i)*p0^3*w^-1',
        r'\left(1 + i\right) \, (p^{0})^{3} \, w^{-1}'
        r' + \left(-2 - 2 i\right) \, \hbar \, (p^{0})^{3} \, w^{-1}'
        r' + \left(\tfrac{4}{3} + \tfrac{4}{3} i\right) \, \hbar^{-1} \, (p^{0})^{4} \, w^{-1}',
    ),
    (
        '(-2 - 2*i)*p0*w^-1 - 1/2*p0^4*w^-2 + hbar*p0^4*w^-2'
        ' + 1/2*p0^2*p1^2*w^-2 - hbar*p0^2*p1^2*w^-2 + 1/2*p0^2*p2^2*w^-2'
        ' - hbar*p0^2*p2^2*w^-2 + 1/2*p0^2*p3^2*w^-2 - hbar*p0^2*p3^2*w^-2'
        ' - 2/3*hbar^-1*p0^5*w^-2 + 2/3*hbar^-1*p0^3*p1^2*w^-2'
        ' + 2/3*hbar^-1*p0^3*p2^2*w^-2 + 2/3*hbar^-1*p0^3*p3^2*w^-2',
        '2/3*hbar^-1*p0^3*p3^2*w^-2 + 2/3*hbar^-1*p0^3*p2^2*w^-2'
        ' + 2/3*hbar^-1*p0^3*p1^2*w^-2 - 2/3*hbar^-1*p0^5*w^-2'
        ' - hbar*p0^2*p3^2*w^-2 + 1/2*p0^2*p3^2*w^-2 - hbar*p0^2*p2^2*w^-2'
        ' + 1/2*p0^2*p2^2*w^-2 - hbar*p0^2*p1^2*w^-2 + 1/2*p0^2*p1^2*w^-2'
        ' + hbar*p0^4*w^-2 - 1/2*p0^4*w^-2 + (-2 - 2*i)*p0*w^-1',
        r'\left(-2 - 2 i\right) \, p^{0} \, w^{-1}'
        r' - \tfrac{1}{2} \, (p^{0})^{4} \, w^{-2}'
        r' + \hbar \, (p^{0})^{4} \, w^{-2}'
        r' + \tfrac{1}{2} \, (p^{0})^{2} \, (p^{1})^{2} \, w^{-2}'
        r' - \hbar \, (p^{0})^{2} \, (p^{1})^{2} \, w^{-2}'
        r' + \tfrac{1}{2} \, (p^{0})^{2} \, (p^{2})^{2} \, w^{-2}'
        r' - \hbar \, (p^{0})^{2} \, (p^{2})^{2} \, w^{-2}'
        r' + \tfrac{1}{2} \, (p^{0})^{2} \, (p^{3})^{2} \, w^{-2}'
        r' - \hbar \, (p^{0})^{2} \, (p^{3})^{2} \, w^{-2}'
        r' - \tfrac{2}{3} \, \hbar^{-1} \, (p^{0})^{5} \, w^{-2}'
        r' + \tfrac{2}{3} \, \hbar^{-1} \, (p^{0})^{3} \, (p^{1})^{2} \, w^{-2}'
        r' + \tfrac{2}{3} \, \hbar^{-1} \, (p^{0})^{3} \, (p^{2})^{2} \, w^{-2}'
        r' + \tfrac{2}{3} \, \hbar^{-1} \, (p^{0})^{3} \, (p^{3})^{2} \, w^{-2}',
    ),
    (
        '(-2 - 2*i)*p0*p3*w^-3',
        '(-2 - 2*i)*p0*p3*w^-3',
        r'\left(-2 - 2 i\right) \, p^{0} \, p^{3} \, w^{-3}',
    ),
    (
        '0',
        '0',
        '0',
    ),
    (
        '6*p0^2*p1*a1*w^-5 + 4/3*p0^5*p2*w^-5 - 2*hbar^-1*p0^4*p2*p3*w^-5'
        ' - 4/3*p0^3*p1^2*p2*w^-5 - 4/3*p0^3*p2^3*w^-5'
        ' - 4/3*p0^3*p2*p3^2*w^-5 + 6*p0^2*p1^3*a1*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2*p3*w^-5 + 3/2*p0^2*p1*p2*p3*a1*w^-5'
        ' + 2*hbar^-1*p0^2*p2^3*p3*w^-5 + 2*hbar^-1*p0^2*p2*p3^3*w^-5'
        ' + 4/3*p0^5*p1^2*p2*w^-5 + 1/3*p0^5*p2^2*p3*w^-5'
        ' - 2*hbar^-1*p0^4*p1^2*p2*p3*w^-5'
        ' - 1/2*hbar^-1*p0^4*p2^2*p3^2*w^-5 - 4/3*p0^3*p1^4*p2*w^-5'
        ' - 4/3*p0^3*p1^2*p2^3*w^-5 - 1/3*p0^3*p1^2*p2^2*p3*w^-5'
        ' - 4/3*p0^3*p1^2*p2*p3^2*w^-5 - 1/3*p0^3*p2^4*p3*w^-5'
        ' - 1/3*p0^3*p2^2*p3^3*w^-5 + 2*hbar^-1*p0^2*p1^4*p2*p3*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2^3*p3*w^-5'
        ' + 1/2*hbar^-1*p0^2*p1^2*p2^2*p3^2*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2*p3^3*w^-5'
        ' + 1/2*hbar^-1*p0^2*p2^4*p3^2*w^-5'
        ' + 1/2*hbar^-1*p0^2*p2^2*p3^4*w^-5',
        '1/2*hbar^-1*p0^2*p2^2*p3^4*w^-5 + 1/2*hbar^-1*p0^2*p2^4*p3^2*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2*p3^3*w^-5'
        ' + 1/2*hbar^-1*p0^2*p1^2*p2^2*p3^2*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2^3*p3*w^-5'
        ' + 2*hbar^-1*p0^2*p1^4*p2*p3*w^-5 - 1/3*p0^3*p2^2*p3^3*w^-5'
        ' - 1/3*p0^3*p2^4*p3*w^-5 - 4/3*p0^3*p1^2*p2*p3^2*w^-5'
        ' - 1/3*p0^3*p1^2*p2^2*p3*w^-5 - 4/3*p0^3*p1^2*p2^3*w^-5'
        ' - 4/3*p0^3*p1^4*p2*w^-5 - 1/2*hbar^-1*p0^4*p2^2*p3^2*w^-5'
        ' - 2*hbar^-1*p0^4*p1^2*p2*p3*w^-5 + 1/3*p0^5*p2^2*p3*w^-5'
        ' + 4/3*p0^5*p1^2*p2*w^-5 + 2*hbar^-1*p0^2*p2*p3^3*w^-5'
        ' + 2*hbar^-1*p0^2*p2^3*p3*w^-5 + 3/2*p0^2*p1*p2*p3*a1*w^-5'
        ' + 2*hbar^-1*p0^2*p1^2*p2*p3*w^-5 + 6*p0^2*p1^3*a1*w^-5'
        ' - 4/3*p0^3*p2*p3^2*w^-5 - 4/3*p0^3*p2^3*w^-5'
        ' - 4/3*p0^3*p1^2*p2*w^-5 - 2*hbar^-1*p0^4*p2*p3*w^-5'
        ' + 4/3*p0^5*p2*w^-5 + 6*p0^2*p1*a1*w^-5',
        r'6 \, (p^{0})^{2} \, p^{1} \, \alpha^{1} \, w^{-5}'
        r' + \tfrac{4}{3} \, (p^{0})^{5} \, p^{2} \, w^{-5}'
        r' - 2 \, \hbar^{-1} \, (p^{0})^{4} \, p^{2} \, p^{3} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, p^{2} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{2})^{3} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, p^{2} \, (p^{3})^{2} \, w^{-5}'
        r' + 6 \, (p^{0})^{2} \, (p^{1})^{3} \, \alpha^{1} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, p^{2} \, p^{3} \, w^{-5}'
        r' + \tfrac{3}{2} \, (p^{0})^{2} \, p^{1} \, p^{2} \, p^{3} \, \alpha^{1} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{2})^{3} \, p^{3} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, p^{2} \, (p^{3})^{3} \, w^{-5}'
        r' + \tfrac{4}{3} \, (p^{0})^{5} \, (p^{1})^{2} \, p^{2} \, w^{-5}'
        r' + \tfrac{1}{3} \, (p^{0})^{5} \, (p^{2})^{2} \, p^{3} \, w^{-5}'
        r' - 2 \, \hbar^{-1} \, (p^{0})^{4} \, (p^{1})^{2} \, p^{2} \, p^{3} \, w^{-5}'
        r' - \tfrac{1}{2} \, \hbar^{-1} \, (p^{0})^{4} \, (p^{2})^{2} \, (p^{3})^{2} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{4} \, p^{2} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, (p^{2})^{3} \, w^{-5}'
        r' - \tfrac{1}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, (p^{2})^{2} \, p^{3} \, w^{-5}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, p^{2} \, (p^{3})^{2} \, w^{-5}'
        r' - \tfrac{1}{3} \, (p^{0})^{3} \, (p^{2})^{4} \, p^{3} \, w^{-5}'
        r' - \tfrac{1}{3} \, (p^{0})^{3} \, (p^{2})^{2} \, (p^{3})^{3} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{4} \, p^{2} \, p^{3} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, (p^{2})^{3} \, p^{3} \, w^{-5}'
        r' + \tfrac{1}{2} \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, (p^{2})^{2} \, (p^{3})^{2} \, w^{-5}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, p^{2} \, (p^{3})^{3} \, w^{-5}'
        r' + \tfrac{1}{2} \, \hbar^{-1} \, (p^{0})^{2} \, (p^{2})^{4} \, (p^{3})^{2} \, w^{-5}'
        r' + \tfrac{1}{2} \, \hbar^{-1} \, (p^{0})^{2} \, (p^{2})^{2} \, (p^{3})^{4} \, w^{-5}',
    ),
    (
        '-2*w^-3 - 2*p1^2*w^-3 - 1/2*p2*p3*w^-3 - 3*p0^4*p1*a1*w^-4'
        ' + 3*p0^2*p1^3*a1*w^-4 + 3*p0^2*p1*p2^2*a1*w^-4'
        ' + 3*p0^2*p1*p3^2*a1*w^-4 - 2/3*p0^7*p2*w^-4'
        ' + hbar^-1*p0^6*p2*p3*w^-4 + 4/3*p0^5*p1^2*p2*w^-4'
        ' + 4/3*p0^5*p2^3*w^-4 + 4/3*p0^5*p2*p3^2*w^-4'
        ' - 2*hbar^-1*p0^4*p1^2*p2*p3*w^-4 - 2*hbar^-1*p0^4*p2^3*p3*w^-4'
        ' - 2*hbar^-1*p0^4*p2*p3^3*w^-4 - 2/3*p0^3*p1^4*p2*w^-4'
        ' - 4/3*p0^3*p1^2*p2^3*w^-4 - 4/3*p0^3*p1^2*p2*p3^2*w^-4'
        ' - 2/3*p0^3*p2^5*w^-4 - 4/3*p0^3*p2^3*p3^2*w^-4'
        ' - 2/3*p0^3*p2*p3^4*w^-4 + hbar^-1*p0^2*p1^4*p2*p3*w^-4'
        ' + 2*hbar^-1*p0^2*p1^2*p2^3*p3*w^-4'
        ' + 2*hbar^-1*p0^2*p1^2*p2*p3^3*w^-4 + hbar^-1*p0^2*p2^5*p3*w^-4'
        ' + 2*hbar^-1*p0^2*p2^3*p3^3*w^-4 + hbar^-1*p0^2*p2*p3^5*w^-4',
        'hbar^-1*p0^2*p2*p3^5*w^-4 + 2*hbar^-1*p0^2*p2^3*p3^3*w^-4'
        ' + hbar^-1*p0^2*p2^5*p3*w^-4 + 2*hbar^-1*p0^2*p1^2*p2*p3^3*w^-4'
        ' + 2*hbar^-1*p0^2*p1^2*p2^3*p3*w^-4 + hbar^-1*p0^2*p1^4*p2*p3*w^-4'
        ' - 2/3*p0^3*p2*p3^4*w^-4 - 4/3*p0^3*p2^3*p3^2*w^-4'
        ' - 2/3*p0^3*p2^5*w^-4 - 4/3*p0^3*p1^2*p2*p3^2*w^-4'
        ' - 4/3*p0^3*p1^2*p2^3*w^-4 - 2/3*p0^3*p1^4*p2*w^-4'
        ' - 2*hbar^-1*p0^4*p2*p3^3*w^-4 - 2*hbar^-1*p0^4*p2^3*p3*w^-4'
        ' - 2*hbar^-1*p0^4*p1^2*p2*p3*w^-4 + 4/3*p0^5*p2*p3^2*w^-4'
        ' + 4/3*p0^5*p2^3*w^-4 + 4/3*p0^5*p1^2*p2*w^-4'
        ' + hbar^-1*p0^6*p2*p3*w^-4 - 2/3*p0^7*p2*w^-4'
        ' + 3*p0^2*p1*p3^2*a1*w^-4 + 3*p0^2*p1*p2^2*a1*w^-4'
        ' + 3*p0^2*p1^3*a1*w^-4 - 3*p0^4*p1*a1*w^-4 - 1/2*p2*p3*w^-3'
        ' - 2*p1^2*w^-3 - 2*w^-3',
        r'-2 \, w^{-3} - 2 \, (p^{1})^{2} \, w^{-3}'
        r' - \tfrac{1}{2} \, p^{2} \, p^{3} \, w^{-3}'
        r' - 3 \, (p^{0})^{4} \, p^{1} \, \alpha^{1} \, w^{-4}'
        r' + 3 \, (p^{0})^{2} \, (p^{1})^{3} \, \alpha^{1} \, w^{-4}'
        r' + 3 \, (p^{0})^{2} \, p^{1} \, (p^{2})^{2} \, \alpha^{1} \, w^{-4}'
        r' + 3 \, (p^{0})^{2} \, p^{1} \, (p^{3})^{2} \, \alpha^{1} \, w^{-4}'
        r' - \tfrac{2}{3} \, (p^{0})^{7} \, p^{2} \, w^{-4}'
        r' + \hbar^{-1} \, (p^{0})^{6} \, p^{2} \, p^{3} \, w^{-4}'
        r' + \tfrac{4}{3} \, (p^{0})^{5} \, (p^{1})^{2} \, p^{2} \, w^{-4}'
        r' + \tfrac{4}{3} \, (p^{0})^{5} \, (p^{2})^{3} \, w^{-4}'
        r' + \tfrac{4}{3} \, (p^{0})^{5} \, p^{2} \, (p^{3})^{2} \, w^{-4}'
        r' - 2 \, \hbar^{-1} \, (p^{0})^{4} \, (p^{1})^{2} \, p^{2} \, p^{3} \, w^{-4}'
        r' - 2 \, \hbar^{-1} \, (p^{0})^{4} \, (p^{2})^{3} \, p^{3} \, w^{-4}'
        r' - 2 \, \hbar^{-1} \, (p^{0})^{4} \, p^{2} \, (p^{3})^{3} \, w^{-4}'
        r' - \tfrac{2}{3} \, (p^{0})^{3} \, (p^{1})^{4} \, p^{2} \, w^{-4}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, (p^{2})^{3} \, w^{-4}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{1})^{2} \, p^{2} \, (p^{3})^{2} \, w^{-4}'
        r' - \tfrac{2}{3} \, (p^{0})^{3} \, (p^{2})^{5} \, w^{-4}'
        r' - \tfrac{4}{3} \, (p^{0})^{3} \, (p^{2})^{3} \, (p^{3})^{2} \, w^{-4}'
        r' - \tfrac{2}{3} \, (p^{0})^{3} \, p^{2} \, (p^{3})^{4} \, w^{-4}'
        r' + \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{4} \, p^{2} \, p^{3} \, w^{-4}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, (p^{2})^{3} \, p^{3} \, w^{-4}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{1})^{2} \, p^{2} \, (p^{3})^{3} \, w^{-4}'
        r' + \hbar^{-1} \, (p^{0})^{2} \, (p^{2})^{5} \, p^{3} \, w^{-4}'
        r' + 2 \, \hbar^{-1} \, (p^{0})^{2} \, (p^{2})^{3} \, (p^{3})^{3} \, w^{-4}'
        r' + \hbar^{-1} \, (p^{0})^{2} \, p^{2} \, (p^{3})^{5} \, w^{-4}',
    ),
    (
        '-6*p1*w^-5 - 4*p0^2*p1*w^-5 - 2*p1^3*w^-5 + 4*p1*p2^2*w^-5'
        ' - 3/2*p1*p2*p3*w^-5 + 4*p1*p3^2*w^-5',
        '4*p1*p3^2*w^-5 - 3/2*p1*p2*p3*w^-5 + 4*p1*p2^2*w^-5 - 2*p1^3*w^-5'
        ' - 4*p0^2*p1*w^-5 - 6*p1*w^-5',
        r'-6 \, p^{1} \, w^{-5} - 4 \, (p^{0})^{2} \, p^{1} \, w^{-5}'
        r' - 2 \, (p^{1})^{3} \, w^{-5}'
        r' + 4 \, p^{1} \, (p^{2})^{2} \, w^{-5}'
        r' - \tfrac{3}{2} \, p^{1} \, p^{2} \, p^{3} \, w^{-5}'
        r' + 4 \, p^{1} \, (p^{3})^{2} \, w^{-5}',
    ),
    (
        '-3*p0^4*a1*w^-4 - 3*p0^2*p1^2*a1*w^-4 + 3*p0^2*p2^2*a1*w^-4'
        ' + 3*p0^2*p3^2*a1*w^-4',
        '3*p0^2*p3^2*a1*w^-4 + 3*p0^2*p2^2*a1*w^-4 - 3*p0^2*p1^2*a1*w^-4'
        ' - 3*p0^4*a1*w^-4',
        r'-3 \, (p^{0})^{4} \, \alpha^{1} \, w^{-4}'
        r' - 3 \, (p^{0})^{2} \, (p^{1})^{2} \, \alpha^{1} \, w^{-4}'
        r' + 3 \, (p^{0})^{2} \, (p^{2})^{2} \, \alpha^{1} \, w^{-4}'
        r' + 3 \, (p^{0})^{2} \, (p^{3})^{2} \, \alpha^{1} \, w^{-4}',
    ),
]


def test_display_bytes_pinned():
    got = [(s.render(), s.render(reverse=True), s.latex())
           for s in _display_cases()]
    assert len(got) == len(_PINNED_DISPLAY)
    for g, want in zip(got, _PINNED_DISPLAY):
        assert g == want
