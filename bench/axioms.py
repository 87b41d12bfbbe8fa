"""Seeded draws from the criterion-1 kernel-axiom generators.

The element generators reproduce the input distribution of
``test_criterion_1_kernel_axioms``: two monomials of x-degree <= 3, light
coefficients with hbar, p, alpha and w factors, any of the 16 Clifford
words.  A round holds the criterion's phase mix in its proportions
300:300:300:200:100, i.e. 3 associativity, 3 Jacobi, 3 Leibniz,
2 double-adjoint and 1 anti-automorphism case.

Case cost swings widely with the draws (how many x, p, hbar, alpha and w
factors a monomial gets, which indices, which Clifford word).  So every
draw is stratified: each draw position of a phase's case (operand,
monomial, factor) takes its values from a shuffled block that holds every
outcome in its exact probability, shared by the consecutive cases of that
phase.  A single case is therefore distributed exactly as in the
criterion and its draws stay independent of each other, while the mix of
heavy and light cases in a run no longer rests on the luck of the seed.

Every case returns whether its identity holds; the expected answer is the
identity itself, never earlier output of the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from diracobs import ncalg
from diracobs import observables as obs
from diracobs.ncalg import NCElement
from diracobs.scalars import GRat, Scalar

#: Phase name -> cases per round, in the criterion's proportions.
ROUND = (("assoc", 3), ("jacobi", 3), ("leibniz", 3), ("adjoint", 2), ("anti", 1))

#: Criterion-1 case counts per reported phase (double adjoint and
#: anti-automorphism together make the adjoint phase).
CRITERION_CASES = {"assoc": 300, "jacobi": 300, "leibniz": 300, "adjoint": 300}

#: The phase a case is reported under.
PHASE_OF = {"assoc": "assoc", "jacobi": "jacobi", "leibniz": "leibniz",
            "adjoint": "adjoint", "anti": "adjoint"}

_COEFFS = (GRat(1), GRat(-1), GRat(Fraction(1, 2)), GRat(0, 1))

# Outcome blocks of the structural draws; each block lists every outcome in
# its exact probability (random() < 0.4 is 2 in 5, randint(0, 3) is uniform).
_P04 = (True, True, False, False, False)
_P03 = (True,) * 3 + (False,) * 7
_XDEG = (0, 1, 2, 3)
_PDEG = (0, 1, 2)
_WPOW = (-2, -1, 0, 1, 2)
_HPOW = (-1, 1)
_BIT = (0, 1)
_MU = (0, 1, 2, 3)
_WORDS = tuple(range(16))


class Draws:
    """Seeded draws, stratified per draw position."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._blocks: dict = {}

    def strat(self, slot, outcomes):
        """Next outcome for ``slot`` from its shuffled block of ``outcomes``."""
        block = self._blocks.get(slot)
        if not block:
            block = list(outcomes)
            self.rng.shuffle(block)
            self._blocks[slot] = block
        return block.pop()


def light_scalar(d: Draws, slot) -> Scalar:
    s = Scalar.from_grat(d.strat(slot + ("c",), _COEFFS))
    if d.strat(slot + ("h",), _P04):
        s = s * Scalar.hbar(d.strat(slot + ("hp",), _HPOW))
    for t in range(d.strat(slot + ("p",), _PDEG)):
        s = s * Scalar.p(d.strat(slot + ("pi", t), _MU))
    if d.strat(slot + ("a",), _P03):
        s = s * Scalar.alpha(d.strat(slot + ("ai",), _MU))
    if d.strat(slot + ("w",), _P04):
        s = s * Scalar.w_pow(d.strat(slot + ("wp",), _WPOW))
    return s


def light_element(d: Draws, words: set, slot) -> NCElement:
    out = NCElement.zero()
    for j in range(2):
        xk = [0, 0, 0, 0]
        for t in range(d.strat(slot + (j, "x"), _XDEG)):
            xk[d.strat(slot + (j, "xi", t), _MU)] += 1
        word = d.strat(slot + (j, "word"), _WORDS)
        words.add(word)
        out = out + NCElement({(tuple(xk), word): light_scalar(d, slot + (j,))})
    return out


def _anti_pair(d: Draws, words: set, slot):
    """The lighter pair of the anti-automorphism phase (x-degree <= 2 on a).

    As in the criterion, only ``a`` counts toward the Clifford words seen.
    """
    a = NCElement({(k, w): s for j, ((k, w), s) in
                   enumerate(light_element(d, words, slot + (0,))._t.items())
                   if j < 1})
    xk = [0, 0, 0, 0]
    xk[d.strat(slot + (1, "xi"), _MU)] += d.strat(slot + (1, "x"), _BIT)
    word = d.strat(slot + (1, "word"), _WORDS)
    b = NCElement({(tuple(xk), word): light_scalar(d, slot + (1,))})
    a = a.alpha_truncate(2)
    if a.x_degree() > 2:
        a = NCElement({(k, w): s for (k, w), s in a._t.items() if sum(k) <= 2})
    return a, b


def draw_round(d: Draws):
    """One round of cases as (phase, operands, Clifford words) triples.

    The words are those the criterion counts for the case, so a run can
    check its coverage over the cases it actually ran.
    """
    cases = []
    for phase, n in ROUND:
        for _ in range(n):
            slot = (phase,)
            words: set = set()
            if phase == "adjoint":
                ops = (light_element(d, words, slot + (0,)),)
            elif phase == "anti":
                ops = _anti_pair(d, words, slot)
            else:
                ops = tuple(light_element(d, words, slot + (k,)) for k in range(3))
            cases.append((phase, ops, words))
    return cases


def check_case(phase: str, ops) -> bool:
    """Evaluate one case; True when its identity holds.

    ``bracket`` and ``adjoint`` are looked up at call time, so a traced run
    sees the wrapped boundaries.
    """
    bracket = ncalg.bracket
    if phase == "assoc":
        a, b, c = ops
        return (a * b) * c == a * (b * c)
    if phase == "jacobi":
        a, b, c = ops
        return (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))).is_zero
    if phase == "leibniz":
        a, b, c = ops
        return bracket(a, b * c) == bracket(a, b) * c + b * bracket(a, c)
    adj = obs.adjoint
    if phase == "adjoint":
        (a,) = ops
        return adj(adj(a)) == a
    a, b = ops
    return adj(a * b) == adj(b) * adj(a)
