"""The operator product and its fused forms: pinned output bytes and a
reference built from Scalars.

The pinned digests were recorded from the per-pair product (one reduced
Scalar built, shifted and added for every monomial pair) before it became a
multiply-accumulate; any change of a monomial, coefficient or ordering in
``render()`` or ``latex()`` changes a digest.

The reference product uses nothing of ``NCElement._mul_impl``: it moves the
left coefficient past the right position part one generator at a time with
the single rewrite ``f * x_nu = x_nu * f - i*hbar * df/dp^nu``, using only
Scalar arithmetic, and multiplies Clifford words by sorting generators.
The bracket ``(a, b)`` and the symmetrised product ``a . b`` are checked
against ``(ab - ba)/(i hbar)`` and ``(ab + ba)/2`` built from that reference;
their digests were recorded from the two-product forms before the bracket
became one multiply-accumulate.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from diracobs.conventions import SIGNATURE
from diracobs.ncalg import (NCElement, bracket, bracket_truncated, dot, dot_truncated,
                            mul_truncated)
from diracobs.scalars import ExponentOverflow, GRat, Scalar

from conftest import random_element

_MIH = Scalar.from_grat(GRat(0, -1)) * Scalar.hbar(1)


# ---------------------------------------------------------------------------
# Seeded elements: x-degree <= 3, all 16 words, coefficients with p0,
# w^-k, hbar^-1 and alpha
# ---------------------------------------------------------------------------

def _coeff(rng: random.Random) -> Scalar:
    out = Scalar.zero()
    for _ in range(2):
        t = Scalar.from_grat(GRat(Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2))),
                                  rng.randint(-1, 1)))
        t = t * Scalar.p(rng.randrange(4))
        if rng.random() < 0.5:
            t = t * Scalar.hbar(rng.choice((-1, 1)))
        if rng.random() < 0.5:
            t = t * Scalar.w_pow(-rng.randint(1, 2))
        for _ in range(rng.randint(0, 2)):
            t = t * Scalar.alpha(rng.randrange(4))
        out = out + t
    return out


def _element(rng: random.Random, words) -> NCElement:
    terms = {}
    for w in words:
        xk = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 3)):
            xk[rng.randrange(4)] += 1
        terms[(tuple(xk), w)] = _coeff(rng)
    return NCElement(terms)


def _pairs():
    """Four seeded pairs of two-term elements that together carry all 16 words."""
    rng = random.Random(3)
    words = list(range(16))
    rng.shuffle(words)
    els = [_element(rng, words[2 * i:2 * i + 2]) for i in range(8)]
    return [(els[i], els[i + 1]) for i in range(0, 8, 2)]


def _product_cases():
    for i, (a, b) in enumerate(_pairs()):
        yield f"pair{i}: a*b", a * b
        yield f"pair{i}: b*a", b * a
        for n in range(4):
            yield f"pair{i}: mul_truncated(a, b, {n})", mul_truncated(a, b, n)


def _digest(el: NCElement) -> str:
    text = el.render() + "\n--\n" + el.latex()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_PINNED = {
    "pair0: a*b": "9ad2e10ac2cccb57",
    "pair0: b*a": "b3d98e36f84dfc55",
    "pair0: mul_truncated(a, b, 0)": "6f59b12868b0aef2",
    "pair0: mul_truncated(a, b, 1)": "382fd7b89d24ff36",
    "pair0: mul_truncated(a, b, 2)": "72ea8ebb1f4f4044",
    "pair0: mul_truncated(a, b, 3)": "9ad2e10ac2cccb57",
    "pair1: a*b": "47ba84791cbaa7bd",
    "pair1: b*a": "3243b243f7e7d2d4",
    "pair1: mul_truncated(a, b, 0)": "a9c12d0a56f96c8d",
    "pair1: mul_truncated(a, b, 1)": "a9c12d0a56f96c8d",
    "pair1: mul_truncated(a, b, 2)": "cce6cbb604cfb85d",
    "pair1: mul_truncated(a, b, 3)": "95fe6d4c9a7a9a20",
    "pair2: a*b": "d4ec78c5da80735c",
    "pair2: b*a": "2d081f9e299bbdc6",
    "pair2: mul_truncated(a, b, 0)": "00e88c81ca192df4",
    "pair2: mul_truncated(a, b, 1)": "dc29941bf6ceb258",
    "pair2: mul_truncated(a, b, 2)": "b00f59c152d14aaf",
    "pair2: mul_truncated(a, b, 3)": "d4ec78c5da80735c",
    "pair3: a*b": "df25f66646bc38ef",
    "pair3: b*a": "9de6c37303fe75e0",
    "pair3: mul_truncated(a, b, 0)": "728660bcfa675f60",
    "pair3: mul_truncated(a, b, 1)": "62e14527e2e76253",
    "pair3: mul_truncated(a, b, 2)": "cf5c77c4dc01dd6d",
    "pair3: mul_truncated(a, b, 3)": "03942ee7265e83a6",
}


def test_product_bytes_pinned():
    got = {name: _digest(el) for name, el in _product_cases()}
    assert got == _PINNED


def test_pinned_elements_cover_the_algebra():
    words = set()
    seen = {"p0": False, "w^-": False, "hbar^-1": False, "a": False}
    for a, b in _pairs():
        for el in (a, b):
            for (x, w), s in el._t.items():
                assert sum(x) <= 3
                words.add(w)
                text = s.render()
                seen["p0"] |= "p0" in text
                seen["w^-"] |= "w^-" in text
                seen["hbar^-1"] |= "hbar^-1" in text
                seen["a"] |= s.alpha_degree() > 0
    assert words == set(range(16))
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Reference product
# ---------------------------------------------------------------------------

def _word_product(u: int, v: int):
    """(sign, word) of g_u g_v, by sorting generators; g_mu^2 = eta_mu."""
    seq = [mu for mu in range(4) if u >> mu & 1] + [mu for mu in range(4) if v >> mu & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                sign *= int(SIGNATURE[seq[i]])
                del seq[i:i + 2]
                changed = True
                break
    word = 0
    for mu in seq:
        word |= 1 << mu
    return sign, word


def _reference_mul(a: NCElement, b: NCElement) -> NCElement:
    out: dict = {}
    for (xa, ua), fa in a._t.items():
        for (xb, ub), fb in b._t.items():
            # x^xa fa x^xb, as a map from x-exponents to the coefficient
            # standing right of them; push fa past one x_nu at a time.
            state = {xa: fa}
            for nu in range(4):
                for _ in range(xb[nu]):
                    nxt: dict = {}
                    for e, f in state.items():
                        up = list(e)
                        up[nu] += 1
                        for key, val in ((tuple(up), f), (e, _MIH * f.pderiv(nu))):
                            nxt[key] = nxt.get(key, Scalar.zero()) + val
                    state = nxt
            sign, word = _word_product(ua, ub)
            for e, f in state.items():
                key = (e, word)
                out[key] = out.get(key, Scalar.zero()) + f * fb * sign
    return NCElement(out)


def test_word_product_matches_generators():
    g = [NCElement.gamma(mu) for mu in range(4)]
    for u in range(16):
        for v in range(16):
            sign, word = _word_product(u, v)
            lhs = NCElement.one()
            for mu in range(4):
                if u >> mu & 1:
                    lhs = lhs * g[mu]
            for mu in range(4):
                if v >> mu & 1:
                    lhs = lhs * g[mu]
            assert lhs == NCElement({((0, 0, 0, 0), word): Scalar.one() * sign})


def test_product_matches_reference_on_pinned_pairs():
    for a, b in _pairs():
        assert a * b == _reference_mul(a, b)
        assert b * a == _reference_mul(b, a)


def test_product_matches_reference_randomized(rng):
    for _ in range(30):
        a = random_element(rng, 3, n_terms=3)
        b = random_element(rng, 3, n_terms=3)
        assert a * b == _reference_mul(a, b)


def test_truncated_product_matches_reference(rng):
    for _ in range(15):
        a = random_element(rng, 3, n_terms=3)
        b = random_element(rng, 3, n_terms=3)
        ref = _reference_mul(a, b)
        for n in range(4):
            assert mul_truncated(a, b, n) == ref.alpha_truncate(n)


def test_reference_single_rewrite():
    # p0 x0 = x0 p0 - i hbar: the defining relation, independent of the kernel.
    p0 = NCElement.from_scalar(Scalar.p(0))
    x0 = NCElement.x(0)
    assert _reference_mul(p0, x0) == x0 * p0 - NCElement.from_scalar(
        Scalar.imag_unit() * Scalar.hbar())


# ---------------------------------------------------------------------------
# Exponent overflow through the operator product
# ---------------------------------------------------------------------------

class TestProductOverflow:
    top = 16383

    def test_reordering_shift_overflows(self):
        # The -i*hbar of the rewrite lifts hbar^top past the field.
        f = NCElement.from_scalar(Scalar.hbar(self.top) * Scalar.p(0))
        x0 = NCElement.x(0)
        with pytest.raises(ExponentOverflow):
            f * x0
        with pytest.raises(ExponentOverflow):
            mul_truncated(f, x0, 2)
        for fused in (bracket_truncated, dot_truncated):
            with pytest.raises(ExponentOverflow):
                fused(f, x0, 2)
            with pytest.raises(ExponentOverflow):
                fused(x0, f, 2)

    def test_reordering_shift_overflows_before_the_product(self):
        # hbar^-1 on the right would bring hbar^(top+1) back into range, but
        # the shifted derivative that carries it is already out of range.
        f = NCElement.from_scalar(Scalar.hbar(self.top) * Scalar.p(0))
        g = NCElement.x(0) * Scalar.hbar(-1)
        with pytest.raises(ExponentOverflow):
            f * g
        # the derivative of the right operand's coefficient, in ``ba``
        with pytest.raises(ExponentOverflow):
            bracket_truncated(g, f, None)

    def test_bracket_normaliser_overflows(self):
        # 1/(i*hbar) lowers hbar^-top-1 below the field.
        g0 = NCElement.gamma(0)
        with pytest.raises(ExponentOverflow):
            bracket(g0 * Scalar.hbar(-self.top - 1), NCElement.gamma(1))
        got = bracket(g0 * Scalar.hbar(-self.top), NCElement.gamma(1))
        assert got.render() == f"1 | g0 g1 | -2*i*hbar^-{self.top + 1}"

    def test_coefficient_product_overflows(self):
        f = NCElement.from_scalar(Scalar.hbar(self.top))
        g = NCElement.x(1) * Scalar.hbar(1)
        with pytest.raises(ExponentOverflow):
            f * g
        with pytest.raises(ExponentOverflow):
            NCElement.from_scalar(Scalar.w_pow(-self.top - 1)) * (
                NCElement.x(2) * Scalar.w_pow(-1) * Scalar.p(1))

    def test_edge_is_exact(self):
        f = NCElement.from_scalar(Scalar.hbar(self.top - 1) * Scalar.p(0))
        got = f * NCElement.x(0)
        assert got == NCElement.x(0) * f - NCElement.from_scalar(
            Scalar.imag_unit() * Scalar.hbar(self.top))


# ---------------------------------------------------------------------------
# Bracket and symmetrised product against the reference product
# ---------------------------------------------------------------------------

_INV_IH = Scalar.from_grat(GRat(0, -1)) * Scalar.hbar(-1)
_HALF = Scalar.from_rational(Fraction(1, 2))


def _pfree_coeff(rng: random.Random) -> Scalar:
    """A coefficient without p or w: a Gaussian rational, hbar^+-1 and alpha."""
    t = Scalar.from_grat(GRat(Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2))),
                              rng.randint(-1, 1)))
    if rng.random() < 0.5:
        t = t * Scalar.hbar(rng.choice((-1, 1)))
    for _ in range(rng.randint(0, 2)):
        t = t * Scalar.alpha(rng.randrange(4))
    return t


def _fused_pairs():
    """The product pairs, plus three pairs with x-degree >= 2 on both sides:
    p-free coefficients on the left, on the right, and on neither.

    The words g0, g0 g1 against g1, g2 g3 give two anticommuting and two
    commuting word pairs; 1, g0 g2 against g0 g1 g2, g3 give four commuting
    ones.
    """
    rng = random.Random(7)

    def element(words, pfree):
        terms = {}
        for w in words:
            xk = [0, 0, 0, 0]
            for _ in range(rng.randint(2, 3)):
                xk[rng.randrange(4)] += 1
            terms[(tuple(xk), w)] = _pfree_coeff(rng) if pfree else _coeff(rng)
        return NCElement(terms)

    return _pairs() + [
        (element((0b0001, 0b0011), True), element((0b0010, 0b1100), False)),
        (element((0b0001, 0b0011), False), element((0b0010, 0b1100), True)),
        (element((0b0000, 0b0101), False), element((0b0111, 0b1000), False)),
    ]


def _fused_cases():
    for i, (a, b) in enumerate(_fused_pairs()):
        yield f"pair{i}: bracket(a, b)", bracket(a, b)
        yield f"pair{i}: dot(a, b)", dot(a, b)
        for n in range(4):
            yield f"pair{i}: bracket_truncated(a, b, {n})", bracket_truncated(a, b, n)
            yield f"pair{i}: dot_truncated(a, b, {n})", dot_truncated(a, b, n)


_PINNED_FUSED = {
    "pair0: bracket(a, b)": "b4242c35a4780cee",
    "pair0: dot(a, b)": "e493302b5b951b2f",
    "pair0: bracket_truncated(a, b, 0)": "46e4a1378752df4d",
    "pair0: dot_truncated(a, b, 0)": "4fe683bd451ad0e1",
    "pair0: bracket_truncated(a, b, 1)": "6804246cf8c5f22e",
    "pair0: dot_truncated(a, b, 1)": "0b4274f810276fff",
    "pair0: bracket_truncated(a, b, 2)": "4906ce64ab7ac0de",
    "pair0: dot_truncated(a, b, 2)": "359f2652b4f065af",
    "pair0: bracket_truncated(a, b, 3)": "b4242c35a4780cee",
    "pair0: dot_truncated(a, b, 3)": "e493302b5b951b2f",
    "pair1: bracket(a, b)": "1dba0e3b95b28c70",
    "pair1: dot(a, b)": "9550e2830fcf3a39",
    "pair1: bracket_truncated(a, b, 0)": "a9c12d0a56f96c8d",
    "pair1: dot_truncated(a, b, 0)": "a9c12d0a56f96c8d",
    "pair1: bracket_truncated(a, b, 1)": "a9c12d0a56f96c8d",
    "pair1: dot_truncated(a, b, 1)": "a9c12d0a56f96c8d",
    "pair1: bracket_truncated(a, b, 2)": "4532bc7859aabbcc",
    "pair1: dot_truncated(a, b, 2)": "00b614e4ef0bd0c3",
    "pair1: bracket_truncated(a, b, 3)": "84b34f5652c21f11",
    "pair1: dot_truncated(a, b, 3)": "99460d064c9d7a25",
    "pair2: bracket(a, b)": "db87369b39622660",
    "pair2: dot(a, b)": "522ab11fea033b49",
    "pair2: bracket_truncated(a, b, 0)": "dbb95204dca952d4",
    "pair2: dot_truncated(a, b, 0)": "4a62cd5b6edf39b0",
    "pair2: bracket_truncated(a, b, 1)": "c7bca0dba2f1e5a1",
    "pair2: dot_truncated(a, b, 1)": "a22a3493699d4ea0",
    "pair2: bracket_truncated(a, b, 2)": "e9347b3a8d95cef2",
    "pair2: dot_truncated(a, b, 2)": "522ab11fea033b49",
    "pair2: bracket_truncated(a, b, 3)": "db87369b39622660",
    "pair2: dot_truncated(a, b, 3)": "522ab11fea033b49",
    "pair3: bracket(a, b)": "6e6fef5005d1c451",
    "pair3: dot(a, b)": "b0b763e0a3a323aa",
    "pair3: bracket_truncated(a, b, 0)": "34d272c4cfe3c5a6",
    "pair3: dot_truncated(a, b, 0)": "a42c7bf1c6ded504",
    "pair3: bracket_truncated(a, b, 1)": "72b61199a8b70676",
    "pair3: dot_truncated(a, b, 1)": "74167ca12d4f5d55",
    "pair3: bracket_truncated(a, b, 2)": "57bbd145f13c24f1",
    "pair3: dot_truncated(a, b, 2)": "3d369779dad39b49",
    "pair3: bracket_truncated(a, b, 3)": "9e1552f21d4bb300",
    "pair3: dot_truncated(a, b, 3)": "14d6b8a4b6d70b97",
    "pair4: bracket(a, b)": "c5d9e9981b4cf4c5",
    "pair4: dot(a, b)": "a9a94569bfd396ad",
    "pair4: bracket_truncated(a, b, 0)": "e3f35a4bad446496",
    "pair4: dot_truncated(a, b, 0)": "f597751ca887df60",
    "pair4: bracket_truncated(a, b, 1)": "e3f35a4bad446496",
    "pair4: dot_truncated(a, b, 1)": "f597751ca887df60",
    "pair4: bracket_truncated(a, b, 2)": "c8717af704609616",
    "pair4: dot_truncated(a, b, 2)": "7b18e6b1e1625334",
    "pair4: bracket_truncated(a, b, 3)": "c8717af704609616",
    "pair4: dot_truncated(a, b, 3)": "7b18e6b1e1625334",
    "pair5: bracket(a, b)": "1d64a7162420ee50",
    "pair5: dot(a, b)": "2a41928d4186dee1",
    "pair5: bracket_truncated(a, b, 0)": "a9c12d0a56f96c8d",
    "pair5: dot_truncated(a, b, 0)": "a9c12d0a56f96c8d",
    "pair5: bracket_truncated(a, b, 1)": "90e1d425b2bbaa5a",
    "pair5: dot_truncated(a, b, 1)": "a9c12d0a56f96c8d",
    "pair5: bracket_truncated(a, b, 2)": "ccbda3a14f002491",
    "pair5: dot_truncated(a, b, 2)": "20bd8307722d9f88",
    "pair5: bracket_truncated(a, b, 3)": "cb18c11b6d679200",
    "pair5: dot_truncated(a, b, 3)": "c203929224c1e693",
    "pair6: bracket(a, b)": "694d2377c7323a44",
    "pair6: dot(a, b)": "2f4ae2b877cc39df",
    "pair6: bracket_truncated(a, b, 0)": "5939c3b52832a537",
    "pair6: dot_truncated(a, b, 0)": "177222f0569932da",
    "pair6: bracket_truncated(a, b, 1)": "3d49d1e80e05bf45",
    "pair6: dot_truncated(a, b, 1)": "c7e96dca6ba088d6",
    "pair6: bracket_truncated(a, b, 2)": "d226cf1e25aa5764",
    "pair6: dot_truncated(a, b, 2)": "41526b28356d9a5d",
    "pair6: bracket_truncated(a, b, 3)": "c8806fcd2b052bfb",
    "pair6: dot_truncated(a, b, 3)": "952626a0c7ffde9e",
}


def _reference_bracket(a: NCElement, b: NCElement) -> NCElement:
    return (_reference_mul(a, b) - _reference_mul(b, a)) * _INV_IH


def _reference_dot(a: NCElement, b: NCElement) -> NCElement:
    return (_reference_mul(a, b) + _reference_mul(b, a)) * _HALF


def test_fused_bytes_pinned():
    got = {name: _digest(el) for name, el in _fused_cases()}
    assert got == _PINNED_FUSED


def test_fused_pairs_cover_the_cases():
    def words_commute(u, v):
        return _word_product(u, v)[0] == _word_product(v, u)[0]

    def p_free(el):
        return all(s.p_free for s in el._t.values())

    def x_deg_2(el):
        return any(sum(x) >= 2 for x, _ in el._t)

    commuting = anticommuting = 0
    for a, b in _fused_pairs():
        for _, u in a._t:
            for _, v in b._t:
                if words_commute(u, v):
                    commuting += 1
                else:
                    anticommuting += 1
    pairs = _fused_pairs()
    assert commuting >= 4 and anticommuting >= 4
    assert any(p_free(a) and not p_free(b) and x_deg_2(a) and x_deg_2(b) for a, b in pairs)
    assert any(p_free(b) and not p_free(a) and x_deg_2(a) and x_deg_2(b) for a, b in pairs)
    assert any(not p_free(a) and not p_free(b) and x_deg_2(a) and x_deg_2(b)
               for a, b in pairs)


def test_fused_forms_match_reference_on_pinned_pairs():
    for a, b in _fused_pairs():
        rb, rd = _reference_bracket(a, b), _reference_dot(a, b)
        assert bracket(a, b) == rb
        assert dot(a, b) == rd
        assert bracket_truncated(a, b, None) == rb
        assert dot_truncated(a, b, None) == rd
        for n in range(4):
            assert bracket_truncated(a, b, n) == rb.alpha_truncate(n)
            assert dot_truncated(a, b, n) == rd.alpha_truncate(n)


def test_fused_forms_match_plain_product_randomized(rng):
    for _ in range(20):
        a = random_element(rng, 3, n_terms=3)
        b = random_element(rng, 3, n_terms=3)
        ab, ba = a * b, b * a
        rb, rd = (ab - ba) * _INV_IH, (ab + ba) * _HALF
        assert bracket(a, b) == rb
        assert dot(a, b) == rd
        for n in range(4):
            assert bracket_truncated(a, b, n) == rb.alpha_truncate(n)
            assert dot_truncated(a, b, n) == rd.alpha_truncate(n)


def test_fused_forms_of_an_element_with_itself(rng):
    for _ in range(5):
        a = random_element(rng, 3, n_terms=3)
        assert bracket(a, a).is_zero
        assert dot(a, a) == _reference_mul(a, a)
        assert dot_truncated(a, a, 1) == _reference_mul(a, a).alpha_truncate(1)
