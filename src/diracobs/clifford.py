"""Basis-word arithmetic for the Clifford algebra Cl(1,3).

The sixteen basis words are encoded as 4-bit masks: bit ``mu`` set means the
generator ``g_mu`` is present, and generators inside a word always appear
with strictly increasing indices.  Products are looked up in a precomputed
sign table built from ``g_mu g_nu + g_nu g_mu = 2 eta_{mu nu}`` with
``eta = diag(1, -1, -1, -1)``.

The orientation element ``gamma5 = i g0 g1 g2 g3`` is a derived element of
the algebra (word mask 0b1111 with coefficient i), not a 17th generator.
"""

from __future__ import annotations

from itertools import permutations

from .conventions import EPS0123, SIGNATURE
from .scalars import Scalar

#: All sixteen word masks.
WORDS = tuple(range(16))

#: Mask of the top word g0 g1 g2 g3.
GAMMA5_WORD = 0b1111


def grade(word: int) -> int:
    """Number of generators in the word."""
    return bin(word).count("1")


def indices(word: int) -> tuple:
    """Increasing generator indices of the word."""
    return tuple(mu for mu in range(4) if word >> mu & 1)


def _build_table():
    table = []
    for a in WORDS:
        row = []
        for b in WORDS:
            swaps = 0
            for mu in indices(b):
                swaps += grade(a >> (mu + 1))
            sign = -1 if swaps & 1 else 1
            for mu in indices(a & b):
                if SIGNATURE[mu] < 0:
                    sign = -sign
            row.append((sign, a ^ b))
        table.append(tuple(row))
    return tuple(table)


_TABLE = _build_table()


def gamma5():
    """The orientation element as (coefficient, word) = (i, g0 g1 g2 g3)."""
    return Scalar.imag_unit(), GAMMA5_WORD


def epsilon_lower(mu: int, nu: int, rho: int, sigma: int) -> int:
    """Fully lowered Levi-Civita symbol, eps_{0123} = +1."""
    idx = (mu, nu, rho, sigma)
    if len(set(idx)) != 4:
        return 0
    sign = EPS0123
    lst = list(idx)
    for i in range(4):
        for j in range(i + 1, 4):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


def nonzero_epsilon():
    """All 24 index tuples with their lowered epsilon sign."""
    return [(perm, epsilon_lower(*perm)) for perm in permutations(range(4))]


def word_str(word: int) -> str:
    if word == 0:
        return "1"
    return " ".join(f"g{mu}" for mu in indices(word))


def word_latex(word: int) -> str:
    if word == 0:
        return "1"
    return "".join(r"\gamma_{%d}" % mu for mu in indices(word))
