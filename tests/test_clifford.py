"""Exhaustive checks of the Cl(1,3) word layer."""

import itertools

from diracobs.clifford import (_TABLE, GAMMA5_WORD, WORDS, epsilon_lower, gamma5, grade,
                               indices, word_str)
from diracobs.ncalg import NCElement, dot
from diracobs.scalars import Scalar


def wmul(a: int, b: int):
    """Product of two basis words: (sign, word)."""
    return _TABLE[a][b]


def reversal_sign(word: int) -> int:
    """Sign picked up when writing the word's generators in reverse order."""
    k = grade(word)
    return -1 if (k * (k - 1) // 2) & 1 else 1


def grade_involution_sign(word: int) -> int:
    """Sign of the grade involution g_mu -> -g_mu."""
    return -1 if grade(word) & 1 else 1


def epsilon_upper(mu: int, nu: int, rho: int, sigma: int) -> int:
    """Fully raised Levi-Civita symbol, eps^{0123} = -1."""
    return -epsilon_lower(mu, nu, rho, sigma)


def test_metric_contractions():
    assert wmul(0b0001, 0b0001) == (1, 0)
    assert wmul(0b0010, 0b0010) == (-1, 0)
    assert wmul(0b0100, 0b0100) == (-1, 0)
    assert wmul(0b1000, 0b1000) == (-1, 0)


def test_single_swap():
    assert wmul(0b0010, 0b0001) == (-1, 0b0011)


def test_associativity_exhaustive():
    for a, b, c in itertools.product(WORDS, repeat=3):
        s1, ab = wmul(a, b)
        s2, abc = wmul(ab, c)
        t1, bc = wmul(b, c)
        t2, abc2 = wmul(a, bc)
        assert (s1 * s2, abc) == (t1 * t2, abc2)


def test_anticommutation_exhaustive():
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            sa, wa = wmul(1 << mu, 1 << nu)
            sb, wb = wmul(1 << nu, 1 << mu)
            assert wa == wb and sa == -sb


def test_reversal_sign_formula():
    for w in WORDS:
        idx = indices(w)
        # multiply generators in reversed order and compare signs
        sign, acc = 1, 0
        for mu in reversed(idx):
            s, acc = wmul(acc, 1 << mu)
            sign *= s
        k = grade(w)
        assert sign == reversal_sign(w) == (-1) ** (k * (k - 1) // 2)
        assert grade_involution_sign(w) == (-1) ** k


def test_gamma5_element():
    coef, word = gamma5()
    assert word == GAMMA5_WORD and coef == Scalar.imag_unit()
    g5 = NCElement.gamma5()
    assert g5 * g5 == NCElement.one()
    for mu in range(4):
        assert dot(g5, NCElement.gamma(mu)).is_zero


def test_epsilon_values():
    assert epsilon_lower(0, 1, 2, 3) == 1
    assert epsilon_upper(0, 1, 2, 3) == -1
    assert epsilon_lower(0, 0, 1, 2) == 0
    # complete antisymmetry
    for perm in itertools.permutations(range(4)):
        base = epsilon_lower(*perm)
        swapped = epsilon_lower(perm[1], perm[0], perm[2], perm[3])
        assert swapped == -base


def test_word_rendering():
    assert word_str(0) == "1"
    assert word_str(0b0101) == "g0 g2"
    assert word_str(0b1111) == "g0 g1 g2 g3"
