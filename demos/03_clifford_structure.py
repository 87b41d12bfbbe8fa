#!/usr/bin/env python3
"""Clifford generators as derived velocities.

The generators g_mu are primitives of the kernel, but the model's content is
that the bracket-derivatives of the canonical positions with the mass
operator reproduce them, tying the Clifford structure to the symmetry
algebra instead of postulating matrices.
"""

from diracobs import bracket, dot, load_default_manifest, parse_manifest, run_suite
from diracobs import observables as obs

print("The mass operator is linear in momenta:")
print("M =")
print(obs.M())
print()
print("and squares to the momentum square:  M*M - P2 =",
      (obs.M() * obs.M() - obs.P2()).render())
print()

print("Velocities from hermitian positions are momentum ratios:")
print("V_0 = (X_0, M) holds:", obs.V(0) == bracket(obs.X(0), obs.M()))
print("V_0 =")
print(obs.V(0))
print()

print("Velocities from canonical positions are the Clifford generators:")
for mu in range(4):
    assert bracket(obs.x(mu), obs.M()) == obs.gamma(mu)
print("(x_mu, M) = gamma_mu for all mu: True")
print()

print("They close the Clifford relations under the symmetrised product:")
row = [dot(obs.gamma(0), obs.gamma(n)).render() for n in range(4)]
print("gamma_0 . gamma_nu =", row)
print()

print("The orientation element squares to one and kills every generator")
print("under the symmetrised product:")
g5 = obs.gamma5()
print("gamma5^2 =", (g5 * g5).render())
print("gamma5 . gamma_2 =", dot(g5, obs.gamma(2)).render())
print()

print("Mass sign and modulus: M = eps |M| with eps^2 = 1,")
print("and eps anticommutes with the orientation:")
print("eps . |M| - M =", (dot(obs.eps(), obs.Mabs()) - obs.M()).render())
print("gamma5 . eps =", dot(g5, obs.eps()).render())
print()

print("The spin vector identity ties spin to the orientation and the")
print("difference of the two velocity notions; the manifest states it as")
print("hbar g_mu = hbar V_mu - 2 gamma5 S_mu:")
report = run_suite(parse_manifest(load_default_manifest()),
                   name_filter="s4.defCliff.VS")
for r in report["entries"]:
    print(f"  {r['name']}: {r['status']}")
assert report["totals"]["pass"] == 4 == len(report["entries"])
print("S_mu = -(hbar/2) gamma5 (gamma_mu - V_mu) for all mu: True")
