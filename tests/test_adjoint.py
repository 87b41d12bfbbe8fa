"""Adjoint: oracle derivation of the generator images and involution laws."""

import itertools
import random

import pytest

from diracobs import clifford
from diracobs import observables as obs
from diracobs.ncalg import Involution, NCElement, bracket
from diracobs.scalars import Scalar

from adjoint_oracle import derive_involution_images
from test_product import _element

adj = obs.adjoint


@pytest.fixture(scope="module")
def oracle_images():
    images = derive_involution_images()
    assert images is not None, "oracle found no consistent involution"
    return images


class TestOracle:
    def test_images_match_shipped_constants(self, oracle_images):
        x_img, g_img = oracle_images
        for m in range(4):
            assert x_img[m] == obs._x_image(m)
            assert g_img[m] == obs._gamma_image(m)

    def test_gamma_image_closed_form(self, oracle_images):
        _, g_img = oracle_images
        for m in range(4):
            assert g_img[m] == obs.V(m) * 2 - obs.gamma(m)

    def test_x_image_closed_form(self, oracle_images):
        x_img, _ = oracle_images
        two_i = Scalar.imag_unit() * 2
        for m in range(4):
            corr = obs.gamma5() * obs.W(m) * (two_i * Scalar.w_pow(-2))
            assert x_img[m] == obs.x(m) + corr

    def test_fixed_set(self, oracle_images):
        inv = Involution(*oracle_images)
        assert inv(obs.M()) == obs.M()
        assert inv(obs.D()) == obs.D()
        assert inv(obs.gamma5()) == obs.gamma5()
        for m, n in itertools.combinations(range(4), 2):
            assert inv(obs.J(m, n)) == obs.J(m, n)

    def test_hermitian_positions(self, oracle_images):
        inv = Involution(*oracle_images)
        for m in range(4):
            assert inv(obs.X(m)) == obs.X(m)
            d = obs.x(m) - obs.X(m)
            assert inv(d) == -d


def _monomials(max_degree):
    """Normal-form monomials with x-degree + word grade <= max_degree."""
    out = []
    for total in range(max_degree + 1):
        for xdeg in range(total + 1):
            for xk in itertools.combinations_with_replacement(range(4), xdeg):
                exps = [0, 0, 0, 0]
                for mu in xk:
                    exps[mu] += 1
                for w in range(16):
                    if bin(w).count("1") == total - xdeg:
                        out.append(NCElement({(tuple(exps), w): Scalar.one()}))
    return out


class TestInvolutionLaws:
    def test_involutive_on_degree3_monomials(self):
        for el in _monomials(3):
            assert adj(adj(el)) == el

    def test_anti_automorphism_on_products(self):
        small = _monomials(1)
        larger = _monomials(2)
        for a in small:
            for b in larger:
                assert adj(a * b) == adj(b) * adj(a)

    def test_antilinear(self, rng):
        i = Scalar.imag_unit()
        el = obs.C(1)
        assert adj(el * i) == adj(el) * (-i)

    def test_bracket_rule(self):
        a, b = obs.C(0), obs.x(1) * obs.gamma(2)
        assert adj(bracket(a, b)) == bracket(adj(a), adj(b))

    def test_scalar_conjugation(self):
        el = NCElement.from_scalar(Scalar.imag_unit() * Scalar.hbar()
                                   + Scalar.p(1) * Scalar.alpha(2))
        expect = NCElement.from_scalar(-Scalar.imag_unit() * Scalar.hbar()
                                       + Scalar.p(1) * Scalar.alpha(2))
        assert adj(el) == expect

    def test_images_commute(self):
        # the x images form a commuting family, so the power construction
        # in Involution is order-independent
        for m in range(4):
            for n in range(4):
                assert bracket(obs._x_image(m), obs._x_image(n)).is_zero


class TestHermiticitySuite:
    @pytest.mark.parametrize("name,idx", [
        ("Xh", (0,)), ("Xh", (3,)), ("S", (0, 1)), ("S", (2, 3)),
        ("M", ()), ("D", ()), ("J", (0, 2)), ("C", (1,)),
        ("gamma5", ()), ("eps", ()),
    ])
    def test_self_adjoint(self, name, idx):
        el = obs.build(name, *idx)
        assert adj(el) == el

    def test_canonical_positions_not_hermitian(self):
        for m in range(4):
            assert adj(obs.x(m)) != obs.x(m)

    def test_velocity_images(self):
        for m in range(4):
            assert adj(obs.V(m)) == obs.V(m)
            assert adj(obs.gamma(m)) == obs.V(m) * 2 - obs.gamma(m)


def _image_from_generators(key) -> NCElement:
    """(x^beta u)^+ = u^+ (x^+)^beta: the word's generator images in reverse
    order, then the x images for mu = 0..3, multiplied one at a time."""
    x, w = key
    out = NCElement.one()
    for a in reversed(clifford.indices(w)):
        out = out * obs._gamma_image(a)
    for mu in range(4):
        for _ in range(x[mu]):
            out = out * obs._x_image(mu)
    return out


def _adjoint_by_sum(el: NCElement) -> NCElement:
    """The adjoint as a sum of one reduced product per monomial."""
    out = NCElement.zero()
    for key, f in el._t.items():
        out = out + NCElement.from_scalar(f.conj_i()) * _image_from_generators(key)
    return out


class TestFusedAdjoint:
    """The adjoint accumulates every monomial's product into one sum; it must
    equal the sum of the reduced products."""

    def test_matches_sum_of_products(self):
        rng = random.Random(11)
        for _ in range(6):
            words = rng.sample(range(16), 3)
            el = _element(rng, words)
            assert adj(el) == _adjoint_by_sum(el)

    def test_images_sharing_output_keys(self):
        # x0 g1 and x0 g2 map to g1^+ x0^+ and g2^+ x0^+; both images hold
        # the words of V(1) and V(2), so their products meet on shared keys
        rng = random.Random(5)
        el = _element(rng, (0b0010, 0b0100))
        el = NCElement({((1, 0, 0, 0), w): f for (_x, w), f in el._t.items()})
        keys = [set(_image_from_generators(k)._t) for k in el._t]
        assert len(keys) == 2 and keys[0] & keys[1]
        assert adj(el) == _adjoint_by_sum(el)
