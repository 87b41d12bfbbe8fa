#!/usr/bin/env python3
"""Spin observables and the two kinds of position variables.

The catalog realizes the symmetry generators from canonical primitives and
derives the localization observables: the transverse spin vector, the spin
tensor, and hermitian positions whose components do not commute.
"""

from fractions import Fraction

from diracobs import NCElement, Scalar, bracket
from diracobs import observables as obs
from diracobs.conventions import eta

print("Spin vector (transverse to momentum):")
pw = NCElement.zero()
for m in range(4):
    pw = pw + obs.P(m) * obs.W(m) * eta(m)
print("P_mu W^mu =", pw.render())
print()

print("Its magnitude fixes the spin quantum number:")
w2m2 = obs.W2() * Scalar.w_pow(-2)
print("W^2 / M^2 =", w2m2.render(), "   (= -hbar^2 s(s+1) at s = 1/2)")
print()

print("Hermitian positions do not commute; their commutator is the")
print("spin tensor over the squared mass:")
lhs = bracket(obs.X(1), obs.X(2))
rhs = obs.S(1, 2) * Scalar.w_pow(-2)
print("(X_1, X_2) - S_12/M^2 =", (lhs - rhs).render())
print()

print("The monomials of X_0:")
print(obs.X(0))
print()

print("Canonical positions differ from hermitian ones by a spin shift and")
print("obey exactly canonical commutators:")
print("(x_1, x_2) =", bracket(obs.x(1), obs.x(2)).render())
print("x_0 - X_0 =")
print((obs.x(0) - obs.X(0)).render())
print()

print("The shift is anti-hermitian under the adjoint:")
d = obs.x(0) - obs.X(0)
print("adj(x_0 - X_0) + (x_0 - X_0) =", (obs.adjoint(d) + d).render())
print()

print("Spin-1/2 characteristic polynomial, one diagonal component:")
print("S_1 . S_1 =", (obs.S_vec(1) * obs.S_vec(1)).render())
quarter = Scalar.hbar(2) * Fraction(1, 4)
expected = (NCElement.from_scalar(quarter)
            + obs.P(1) * obs.P(1) * (quarter * Scalar.w_pow(-2)))
print("matches -(hbar^2/4)(eta_11 - P_1 P_1/M^2):",
      obs.S_vec(1) * obs.S_vec(1) == expected)
