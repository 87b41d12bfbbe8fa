#!/usr/bin/env python3
"""Redshifts: finite transformations to uniformly accelerated frames.

Frame shifts are conjugations by the exponential of the acceleration
generators, computed as truncated series in the classical acceleration
parameters a0..a3.  The mass picks up a position-dependent conformal factor,
positions transform as in classical relativity, and the momentum law grows
a spin-connection term.
"""

from diracobs import NCElement, dot, load_default_manifest, parse_manifest, run_suite
from diracobs import frames as F
from diracobs import observables as obs


def passes(report):
    """Whether a suite report has entries and every one of them passed."""
    return bool(report["entries"]) and report["totals"]["pass"] == len(report["entries"])


def family_passes(family, order=3):
    """Run one family of the shipped manifest, as ``diracobs check`` does."""
    entries = parse_manifest(load_default_manifest(), order)
    return passes(run_suite(entries, order=order, name_filter=family + "."))


print("The mass series terminates: three brackets with the shift generator")
print("annihilate M, so the order-2 result is exact:")
m2 = F.conjugate(obs.M(), 2)
print("conj(M, 3) == conj(M, 2):", F.conjugate(obs.M(), 3) == m2)
print()

print("It equals M times the inverse conformal factor (symmetrised):")
print("M_bar - M.(1 - 2 a.x + a^2 x^2) =",
      (m2 - dot(obs.M(), F.conformal_factor_inv())).render())
print()

print("Substituting a pure boost-direction acceleration a = (0, 1, 0, 0):")
print(m2.subst_alpha([0, 1, 0, 0]).render()[:300], "...")
print()

print("Positions transform classically, x_bar = lam (x - x^2 a):")
print("order-3 check:", family_passes("s5.traKsi"))
print()

print("The metric picks up the squared conformal factor, g = lam^2 eta:")
print("order-3 check:", family_passes("s5.traG"))
print()

print("The vierbein is exactly quadratic in the accelerations:")
raw = F.vierbein_raw(0, 0, 3)
print("alpha-degree-3 part of e_0^0 from the order-3 series:",
      raw.alpha_part(3).render())
print("e_0^0 =")
print(F.vierbein(0, 0))
print()

print("Momentum redshift needs a spin connection; its Clifford-grade-2")
print("part at linear order:")
pbar = F.conjugate_named("P", (0,), 1)
grade2 = NCElement({k: s for k, s in pbar._t.items()
                    if bin(k[1]).count("1") == 2})
print(grade2.alpha_part(1))
print()

print("Hermitian-variable forms carry exact quantum corrections:")
res = F.check_hermitian_forms()
coefficients = {k: v for e in res["entries"] for k, v in e.get("coefficients", {}).items()}
print("exact:", passes(res), "| extracted coefficients:", coefficients)
print()

print("Round trip with opposite accelerations restores the observables:")
print("order-3 reciprocity:", family_passes("s5.recip"))
print()

print("Canonical commutators keep their Minkowski form in the new frame:")
print("order-3 invariance:", family_passes("s5.inv"))
