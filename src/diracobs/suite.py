"""Identity manifest, runner and reporting.

The manifest is a line-oriented UTF-8 text format::

    name := lhs == rhs @ exact
    name := lhs == rhs @ order 3
    # comment

Expressions use the grammar of :mod:`~.exprcli`.  Entry names carry the
paper-section tag as a dotted prefix (``s2.`` .. ``s5``; the adjoint section
uses the ``s3.adj.`` prefix), which is what ``--filter`` matches on.

``@ exact`` entries must normal-form to zero identically; ``@ order N``
entries must vanish after truncation at total alpha-degree N (their
evaluation threads N through every product, which is sound because no
operation lowers the alpha-degree of a monomial).

The shipped default manifest enumerates all component identities of the
observable catalog plus the accelerated-frame laws; it is generated by
:func:`default_manifest_lines` and frozen as package data (``manifest.txt``),
and a test pins the two to each other.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import exprcli, frames
from .conventions import DEFAULT_ORDER, SIGNATURE
from .scalars import Scalar


class ManifestParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@dataclass
class IdentityEntry:
    name: str
    lhs: str
    rhs: str
    order: object  # int or None for exact
    tag: str = ""

    def __post_init__(self):
        if not self.tag:
            self.tag = self.name.split(".", 1)[0]


_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def parse_manifest(text: str):
    """Parse manifest text into entries; positions are 1-based."""
    entries = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise ManifestParseError("missing ':='", lineno, raw.find(raw.strip()) + 1)
        name, rest = line.split(":=", 1)
        name = name.strip()
        if not _NAME_RE.match(name):
            raise ManifestParseError(f"bad entry name {name!r}", lineno)
        if name in seen:
            raise ManifestParseError(f"duplicate entry name {name!r}", lineno)
        seen.add(name)
        if "==" not in rest:
            raise ManifestParseError("missing '=='", lineno, raw.index(":=") + 3)
        lhs, rest = rest.split("==", 1)
        if "@" not in rest:
            raise ManifestParseError("missing '@ (exact|order N)'", lineno,
                                     raw.index("==") + 3)
        rhs, clause = rest.rsplit("@", 1)
        clause = clause.strip()
        if clause == "exact":
            order = None
        else:
            m = re.match(r"^order\s+(\d+)$", clause)
            if not m:
                raise ManifestParseError(f"bad order clause {clause!r}", lineno,
                                         raw.rindex("@") + 1)
            order = int(m.group(1))
        lhs, rhs = lhs.strip(), rhs.strip()
        if not lhs or not rhs:
            raise ManifestParseError("empty expression", lineno)
        entries.append(IdentityEntry(name, lhs, rhs, order))
    return entries


# ---------------------------------------------------------------------------
# Default manifest
# ---------------------------------------------------------------------------

def _eta(mu: int) -> Fraction:
    return SIGNATURE[mu]


def _lin(terms) -> str:
    """Render a rational linear combination [(coef, text), ...]."""
    parts = []
    for c, t in terms:
        c = Fraction(c)
        if not c:
            continue
        parts.append((c, t))
    if not parts:
        return "0"
    out = ""
    for k, (c, t) in enumerate(parts):
        mag = abs(c)
        body = t if mag == 1 else f"{mag}*{t}"
        if c < 0 and mag == 1 and "^" in t:
            # unary minus binds tighter than '^': -a^2 would mean (-a)^2
            body = f"({t})"
        if k == 0:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


def _contract_upper(fmt) -> str:
    """Sum over one raised index: eta^{mm} fmt(m)."""
    return _lin([(_eta(m), fmt(m)) for m in range(4)])


_PAIRS = [(m, n) for m in range(4) for n in range(m + 1, 4)]


def _alpha_dot(fmt) -> str:
    return " + ".join(f"alpha[{m}]*{fmt(m)}" for m in range(4))


def default_manifest_lines(order: int = DEFAULT_ORDER):
    """Generate the default manifest (every catalog and frame identity)."""
    L = []
    add = L.append
    add("# Identity manifest: every entry must hold in exact normal form.")
    add("# Format: name := lhs == rhs @ (exact|order N); '#' starts a comment.")
    add(f"# Series entries are written at truncation order {order}.")
    add("")

    def entry(name, lhs, rhs, n=None):
        clause = "exact" if n is None else f"order {n}"
        add(f"{name} := {lhs} == {rhs} @ {clause}")

    # -- section 2: Poincare / dilatation / spin / positions ----------------
    for m, n in _PAIRS:
        entry(f"s2.PJ.PP.{m}{n}", f"comm(P[{m}],P[{n}])", "0")
    for m, n in _PAIRS:
        for r in range(4):
            rhs = _lin([(_eta(n) if n == r else 0, f"P[{m}]"),
                        (-_eta(m) if m == r else 0, f"P[{n}]")])
            entry(f"s2.PJ.JP.{m}{n}.{r}", f"comm(J[{m},{n}],P[{r}])", rhs)
    for i, (m, n) in enumerate(_PAIRS):
        for r, s in _PAIRS[i:]:
            rhs = _lin([
                (_eta(n) if n == r else 0, f"J[{m},{s}]"),
                (_eta(m) if m == s else 0, f"J[{n},{r}]"),
                (-_eta(m) if m == r else 0, f"J[{n},{s}]"),
                (-_eta(n) if n == s else 0, f"J[{m},{r}]"),
            ])
            entry(f"s2.PJ.JJ.{m}{n}.{r}{s}", f"comm(J[{m},{n}],J[{r},{s}])", rhs)
    for m in range(4):
        entry(f"s2.PJD.DP.{m}", f"comm(D,P[{m}])", f"P[{m}]")
    for m, n in _PAIRS:
        entry(f"s2.PJD.DJ.{m}{n}", f"comm(D,J[{m},{n}])", "0")
    entry("s2.PM.M2P2", "M*M", "P2")
    for m in range(4):
        entry(f"s2.PM.PM.{m}", f"comm(P[{m}],M)", "0")
    for m, n in _PAIRS:
        entry(f"s2.PM.JM.{m}{n}", f"comm(J[{m},{n}],M)", "0")
    entry("s2.PM.DM", "comm(D,M)", "M")
    entry("s2.PM.DMabs", "comm(D,Mabs)", "Mabs")
    for m in range(4):
        for r in range(4):
            entry(f"s2.PL.PW.{m}{r}", f"comm(P[{m}],W[{r}])", "0")
    for m, n in _PAIRS:
        for r in range(4):
            rhs = _lin([(_eta(n) if n == r else 0, f"W[{m}]"),
                        (-_eta(m) if m == r else 0, f"W[{n}]")])
            entry(f"s2.PL.JW.{m}{n}.{r}", f"comm(J[{m},{n}],W[{r}])", rhs)
    entry("s2.PL.PWc", _contract_upper(lambda m: f"P[{m}]*W[{m}]"), "0")
    for m, n in _PAIRS:
        entry(f"s2.defS.WW.{m}{n}", f"comm(W[{m}],W[{n}])*Minv2", f"S[{m},{n}]")
    for n in range(4):
        entry(f"s2.defS.PS.{n}", _contract_upper(lambda m: f"P[{m}]*S[{m},{n}]"), "0")
    entry("s2.spin.W2M2", "W2*Minv2", "-3/4*hbar^2")
    for m, n in _PAIRS:
        entry(f"s2.eqJDX.J.{m}{n}", f"J[{m},{n}]",
              f"dot(P[{m}],Xh[{n}]) - dot(P[{n}],Xh[{m}]) + S[{m},{n}]")
    entry("s2.eqJDX.D", "D", _contract_upper(lambda m: f"dot(P[{m}],Xh[{m}])"))
    for m in range(4):
        rhs = f"dot(P[{m}]*Minv2,D) + " + _contract_upper(
            lambda r, m=m: f"dot(P[{r}]*Minv2,J[{r},{m}])")
        entry(f"s2.defX.{m}", f"Xh[{m}]", rhs)
    for m in range(4):
        for n in range(4):
            entry(f"s2.PX.PX.{m}{n}", f"comm(P[{m}],Xh[{n}])",
                  _lin([(-_eta(m) if m == n else 0, "1")]))
    for m in range(4):
        entry(f"s2.PX.DX.{m}", f"comm(D,Xh[{m}])", f"-Xh[{m}]")
    for m, n in _PAIRS:
        for r in range(4):
            rhs = _lin([(_eta(n) if n == r else 0, f"Xh[{m}]"),
                        (-_eta(m) if m == r else 0, f"Xh[{n}]")])
            entry(f"s2.PX.JX.{m}{n}.{r}", f"comm(J[{m},{n}],Xh[{r}])", rhs)
    for m, n in _PAIRS:
        entry(f"s2.XX.{m}{n}", f"comm(Xh[{m}],Xh[{n}])", f"S[{m},{n}]*Minv2")

    # -- section 3: duality, canonical variables, adjoint -------------------
    for m, n in _PAIRS:
        # S_{mn} = (i/2) eta_{mm} eta_{nn} eps^{mnrs} Sdual_{rs}
        terms = [(Fraction(_epsilon_upper(m, n, r, s)) * _eta(m) * _eta(n),
                  f"Sdual[{r},{s}]")
                 for r in range(4) for s in range(4)
                 if _epsilon_upper(m, n, r, s)]
        entry(f"s3.dual.inv.{m}{n}", f"S[{m},{n}]", f"i*1/2*({_lin(terms)})")
    for m, n in _PAIRS:
        entry(f"s3.dual.StPW.{m}{n}", f"Sdual[{m},{n}]",
              f"i*(P[{m}]*W[{n}] - P[{n}]*W[{m}])*Minv2")
    for n in range(4):
        entry(f"s3.dual.PSt.{n}",
              _contract_upper(lambda m: f"P[{m}]*Sdual[{m},{n}]"), f"i*W[{n}]")
    for m, n in _PAIRS:
        entry(f"s3.dual.s.{m}{n}", f"sspin[{m},{n}]",
              f"S[{m},{n}] + gamma5*Sdual[{m},{n}]")
    for m, n in _PAIRS:
        entry(f"s3.dual.sdual.{m}{n}", f"sdual[{m},{n}]", f"gamma5*sspin[{m},{n}]")
    for m in range(4):
        entry(f"s3.dual.x.{m}", f"xc[{m}]", f"Xh[{m}] - i*gamma5*W[{m}]*Minv2")
    for m, n in _PAIRS:
        entry(f"s3.defx.J.{m}{n}", f"J[{m},{n}]",
              f"dot(P[{m}],xc[{n}]) - dot(P[{n}],xc[{m}]) + sspin[{m},{n}]")
    entry("s3.defx.D", "D", _contract_upper(lambda m: f"dot(P[{m}],xc[{m}])"))
    for m in range(4):
        for n in range(4):
            entry(f"s3.Px.Px.{m}{n}", f"comm(P[{m}],xc[{n}])",
                  _lin([(-_eta(m) if m == n else 0, "1")]))
    for m, n in _PAIRS:
        entry(f"s3.Px.xx.{m}{n}", f"comm(xc[{m}],xc[{n}])", "0")
    for i, (m, n) in enumerate(_PAIRS):
        for r, s in _PAIRS[i:]:
            rhs = _lin([
                (_eta(n) if n == r else 0, f"sspin[{m},{s}]"),
                (_eta(m) if m == s else 0, f"sspin[{n},{r}]"),
                (-_eta(m) if m == r else 0, f"sspin[{n},{s}]"),
                (-_eta(n) if n == s else 0, f"sspin[{m},{r}]"),
            ])
            entry(f"s3.Px.ss.{m}{n}.{r}{s}", f"comm(sspin[{m},{n}],sspin[{r},{s}])", rhs)
    for m in range(4):
        for r, s in _PAIRS:
            entry(f"s3.Px.Ps.{m}.{r}{s}", f"comm(P[{m}],sspin[{r},{s}])", "0")
    for m in range(4):
        for r, s in _PAIRS:
            entry(f"s3.Px.xs.{m}.{r}{s}", f"comm(xc[{m}],sspin[{r},{s}])", "0")
    for m in range(4):
        entry(f"s3.Px.Dx.{m}", f"comm(D,xc[{m}])", f"-xc[{m}]")
    for m, n in _PAIRS:
        for r in range(4):
            rhs = _lin([(_eta(n) if n == r else 0, f"xc[{m}]"),
                        (-_eta(m) if m == r else 0, f"xc[{n}]")])
            entry(f"s3.Px.Jx.{m}{n}.{r}", f"comm(J[{m},{n}],xc[{r}])", rhs)
    for m in range(4):
        entry(f"s3.adj.X.{m}", f"adj(Xh[{m}])", f"Xh[{m}]")
    for m, n in _PAIRS:
        entry(f"s3.adj.S.{m}{n}", f"adj(S[{m},{n}])", f"S[{m},{n}]")
    entry("s3.adj.M", "adj(M)", "M")
    entry("s3.adj.D", "adj(D)", "D")
    for m, n in _PAIRS:
        entry(f"s3.adj.J.{m}{n}", f"adj(J[{m},{n}])", f"J[{m},{n}]")
    for m in range(4):
        entry(f"s3.adj.C.{m}", f"adj(C[{m}])", f"C[{m}]")
    entry("s3.adj.gamma5", "adj(gamma5)", "gamma5")
    entry("s3.adj.eps", "adj(eps)", "eps")
    for m in range(4):
        entry(f"s3.adj.xmX.{m}", f"adj(xc[{m}] - Xh[{m}])", f"-(xc[{m}] - Xh[{m}])")

    # -- section 4: mass sign, orientation, Clifford structure --------------
    entry("s4.anticom.eps2", "eps*eps", "1")
    entry("s4.anticom.geps", "dot(gamma5,eps)", "0")
    entry("s4.anticom.gM", "dot(gamma5,M)", "0")
    for m in range(4):
        entry(f"s4.anticom.Peps.{m}", f"comm(P[{m}],eps)", "0")
    for m, n in _PAIRS:
        entry(f"s4.anticom.Jeps.{m}{n}", f"comm(J[{m},{n}],eps)", "0")
    entry("s4.anticom.Deps", "comm(D,eps)", "0")
    entry("s4.anticom.Meps", "dot(eps,Mabs)", "M")
    for m in range(4):
        entry(f"s4.anticom.Pg5.{m}", f"comm(P[{m}],gamma5)", "0")
    for m, n in _PAIRS:
        entry(f"s4.anticom.Jg5.{m}{n}", f"comm(J[{m},{n}],gamma5)", "0")
    entry("s4.anticom.Dg5", "comm(D,gamma5)", "0")
    entry("s4.anticom.g5sq", "gamma5*gamma5", "1")
    for m in range(4):
        entry(f"s4.defV.{m}", f"V[{m}]", f"comm(Xh[{m}],M)")
    for m in range(4):
        entry(f"s4.defCliff.xM.{m}", f"gamma[{m}]", f"comm(xc[{m}],M)")
    for m in range(4):
        # gamma_m = V_m - 2 gamma5 S_m / hbar, written hbar-multiplied.
        entry(f"s4.defCliff.VS.{m}", f"hbar*gamma[{m}]",
              f"hbar*V[{m}] - 2*gamma5*Svec[{m}]")
    for m in range(4):
        entry(f"s4.defCliff.Sg5.{m}", f"dot(Svec[{m}],gamma5)", "0")
    for m, n in _PAIRS:
        entry(f"s4.defCliff.sgg.{m}{n}", f"sspin[{m},{n}]",
              f"-1/4*hbar^2*comm(gamma[{m}],gamma[{n}])")
    entry("s4.Dirac.M1", _contract_upper(lambda m: f"P[{m}]*gamma[{m}]"), "M")
    entry("s4.Dirac.M2", _contract_upper(lambda m: f"gamma[{m}]*P[{m}]"), "M")
    for m in range(4):
        for n in range(m, 4):
            entry(f"s4.Clifford.gg.{m}{n}", f"dot(gamma[{m}],gamma[{n}])",
                  _lin([(_eta(m) if m == n else 0, "1")]))
    for m in range(4):
        for n in range(4):
            entry(f"s4.Clifford.Pg.{m}{n}", f"comm(P[{m}],gamma[{n}])", "0")
    for m in range(4):
        for n in range(4):
            entry(f"s4.Clifford.xg.{m}{n}", f"comm(xc[{m}],gamma[{n}])", "0")
    for m in range(4):
        entry(f"s4.Clifford.g5g.{m}", f"dot(gamma5,gamma[{m}])", "0")
    for m in range(4):
        for n in range(m, 4):
            rhs = _lin([(-Fraction(1, 4) * _eta(m) if m == n else 0, "hbar^2")])
            if rhs == "0":
                rhs = f"1/4*hbar^2*P[{m}]*P[{n}]*Minv2"
            else:
                rhs += f" + 1/4*hbar^2*P[{m}]*P[{n}]*Minv2"
            entry(f"s4.spinhalf.{m}{n}", f"dot(Svec[{m}],Svec[{n}])", rhs)
    for m in range(4):
        entry(f"s4.spinvec.{m}", f"Svec[{m}]",
              f"-1/2*hbar*gamma5*(gamma[{m}] - V[{m}])")
    entry("s4.spinmag", _contract_upper(lambda m: f"dot(Svec[{m}],Svec[{m}])"),
          "-3/4*hbar^2")

    # -- section 5: conformal accelerations and frame laws ------------------
    for m in range(4):
        for n in range(4):
            rhs = _lin([(-2 * _eta(m) if m == n else 0, "D")])
            jterm = f"2*J[{m},{n}]"
            rhs = (rhs + " - " + jterm) if rhs != "0" else "-" + jterm
            entry(f"s5.PJDC.PC.{m}{n}", f"comm(P[{m}],C[{n}])", rhs)
    for m, n in _PAIRS:
        for r in range(4):
            rhs = _lin([(_eta(n) if n == r else 0, f"C[{m}]"),
                        (-_eta(m) if m == r else 0, f"C[{n}]")])
            entry(f"s5.PJDC.JC.{m}{n}.{r}", f"comm(J[{m},{n}],C[{r}])", rhs)
    for m in range(4):
        entry(f"s5.PJDC.DC.{m}", f"comm(D,C[{m}])", f"-C[{m}]")
    for m, n in _PAIRS:
        entry(f"s5.PJDC.CC.{m}{n}", f"comm(C[{m}],C[{n}])", "0")

    lam_inv = "1 - 2*(" + _alpha_dot(lambda m: f"xc[{m}]") + ") + alpha2*x2"
    entry("s5.traM.o2", "conj(M; order=2)", f"dot(M, {lam_inv})")
    entry("s5.traM.term", "conj(M; order=3)", "conj(M; order=2)")
    entry("s5.traM.rev", "dot(conj(M; order=2), lam)", "M", order)
    entry("s5.traM.laminv", "laminv", lam_inv)
    entry("s5.traM.lamdef", "lam*laminv", "1", order)
    for m in range(4):
        entry(f"s5.traKsi.{m}", f"laminv*conj(xc[{m}]; order={order})",
              f"xc[{m}] - {_lin([(_eta(m), f'x2*alpha[{m}]')])}", order)
    for m in range(4):
        for n in range(m, 4):
            lhs = _contract_upper(lambda r, m=m, n=n: f"dxbar[{m},{r}]*dxbar[{n},{r}]")
            rhs = _lin([(_eta(m) if m == n else 0, "lam^2")])
            entry(f"s5.traG.{m}{n}", lhs, rhs, order)
    for m in range(4):
        rhs = "lam*(" + " + ".join(f"vb[{m},{n}]*gamma[{n}]" for n in range(4)) + ")"
        entry(f"s5.traE.law.{m}", f"conj(gamma[{m}]; order={order})", rhs, order)
    for m in range(4):
        for n in range(m, 4):
            a = "lam*(" + " + ".join(f"vb[{m},{r}]*gamma[{r}]" for r in range(4)) + ")"
            b = "lam*(" + " + ".join(f"vb[{n},{r}]*gamma[{r}]" for r in range(4)) + ")"
            entry(f"s5.traE.cliff.{m}{n}", f"dot({a}, {b})",
                  _lin([(_eta(m) if m == n else 0, "1")]), order)
    for m in range(4):
        for n in range(4):
            entry(f"s5.traE.poly.{m}{n}", f"vbraw[{m},{n}]", f"vb[{m},{n}]", order)
    for m in range(4):
        rhs = " + ".join(f"dot(vb[{m},{n}],P[{n}])" for n in range(4))
        spin = " + ".join(f"dvb[{r},{m},{n}]*sspin[{n},{r}]"
                          for r in range(4) for n in range(4) if n != r)
        entry(f"s5.traP.law.{m}", f"conj(P[{m}]; order={order})",
              f"{rhs} + 1/2*({spin})", order)
    for m in range(4):
        entry(f"s5.traP.term.{m}", f"conj(P[{m}]; order=3)", f"conj(P[{m}]; order=2)")

    mass_rhs = ("dot(M, 1 - 2*(" + _alpha_dot(lambda m: f"Xh[{m}]")
                + ") + alpha2*(X2 + 3/4*hbar^2*Minv2))")
    entry("s5.traPXS.mass", "conj(M; order=2)", mass_rhs)
    for m in range(4):
        terms = " + ".join(f"dot(Evb[{m},{n}],P[{n}])" for n in range(4))
        spin = " + ".join(f"dot(dEvb[{r},{m},{n}],S[{n},{r}])"
                          for r in range(4) for n in range(4) if n != r)
        entry(f"s5.traPXS.mom.{m}", f"conj(P[{m}]; order=2)",
              f"{terms} + 1/2*({spin}) + 3/32*hbar^2*ddvbP[{m}]*Minv2")
    for m in range(4):
        for n in range(4):
            entry(f"s5.traPXS.order.{m}{n}", f"Evb[{m},{n}]", f"EvbL[{m},{n}]")
    entry("s5.recip.M", "conjinv(conj(M; order=2); order=2)", "M")
    for m in range(4):
        entry(f"s5.recip.x.{m}",
              f"conjinv(conj(xc[{m}]; order={order}); order={order})", f"xc[{m}]", order)
    for m in range(4):
        entry(f"s5.recip.P.{m}",
              f"conjinv(conj(P[{m}]; order={order}); order={order})", f"P[{m}]", order)
    for m in range(4):
        entry(f"s5.recip.g.{m}",
              f"conjinv(conj(gamma[{m}]; order={order}); order={order})",
              f"gamma[{m}]", order)
    for m in range(4):
        for n in range(4):
            rhs = _lin([(-_eta(m) if m == n else 0, "1")])
            entry(f"s5.inv.{m}{n}",
                  f"comm(conj(P[{m}]; order={order}), conj(xc[{n}]; order={order}))",
                  rhs, order)
    entry("s5.hom.MM", f"conj(M*M; order={order})",
          f"conj(M; order={order})*conj(M; order={order})", order)
    entry("s5.hom.Dx", "conj(D*xc[0]; order=2)",
          "conj(D; order=2)*conj(xc[0]; order=2)", 2)
    return L


def _epsilon_upper(m, n, r, s) -> int:
    from .clifford import epsilon_upper
    return epsilon_upper(m, n, r, s)


def default_manifest_text(order: int = DEFAULT_ORDER) -> str:
    return "\n".join(default_manifest_lines(order)) + "\n"


def load_default_manifest() -> str:
    """The shipped manifest file (generated at the default order)."""
    return resources.files(__package__).joinpath("manifest.txt").read_text("utf-8")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _coefficient_hooks():
    def spin_mag():
        from . import observables as obs
        val = (obs.W2() * Scalar.w_pow(-2)).scalar_part()
        return {"spin_magnitude": val.render()}

    def mass_coeff():
        return {k: v for k, v in frames.hermitian_coefficients().items()
                if k == "mass_alpha2_correction"}

    def mom_coeff():
        return {k: v for k, v in frames.hermitian_coefficients().items()
                if k == "momentum_dd_correction"}

    return {"s2.spin.W2M2": spin_mag,
            "s5.traPXS.mass": mass_coeff,
            "s5.traPXS.mom.0": mom_coeff}


def _residual(e: IdentityEntry, order: int):
    """``lhs - rhs`` of an entry in normal form, truncated at its own order.

    ``order`` is the runner's order, used by ``@ exact`` entries for series
    written without an explicit order."""
    n = e.order if isinstance(e.order, int) else None
    cfg = exprcli.EvalConfig(order=order if n is None else n, alpha_max=n)
    residual = (exprcli.evaluate(exprcli.parse(e.lhs), cfg)
                - exprcli.evaluate(exprcli.parse(e.rhs), cfg))
    return residual if n is None else residual.alpha_truncate(n)


def _evaluate_entry(e: IdentityEntry, order: int):
    """One report entry.  Any exception, a coefficient hook's included, makes
    the entry an error with ``Type: message`` as its residual."""
    t0 = time.perf_counter()
    result = {"name": e.name, "tag": e.tag,
              "order": "exact" if e.order is None else e.order}
    coefficients = None
    try:
        residual = _residual(e, order)
        ok = residual.is_zero
        hook = _coefficient_hooks().get(e.name)
        if hook and ok:
            coefficients = hook()
        result["status"] = "pass" if ok else "fail"
        result["residual"] = "" if ok else residual.render()
    except Exception as exc:  # recorded, not fatal
        result["status"] = "error"
        result["residual"] = f"{type(exc).__name__}: {exc}"
    result["ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if coefficients is not None:
        result["coefficients"] = coefficients
    return result


def run_suite(entries, order: int = DEFAULT_ORDER, name_filter: str | None = None):
    """Evaluate entries in order and assemble the report."""
    if name_filter:
        entries = [e for e in entries if e.name.startswith(name_filter)]
    t0 = time.perf_counter()
    results = [_evaluate_entry(e, order) for e in entries]
    totals = {"pass": sum(r["status"] == "pass" for r in results),
              "fail": sum(r["status"] == "fail" for r in results),
              "error": sum(r["status"] == "error" for r in results),
              "ms": round((time.perf_counter() - t0) * 1000, 3)}
    return {"suite": "default" if name_filter is None else f"filtered:{name_filter}",
            "config": {"order": order}, "entries": results, "totals": totals}


def report_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def report_markdown(report) -> str:
    """Stable summary (no timings, byte-identical across runs)."""
    lines = [f"# Identity suite: {report['suite']}",
             f"order: {report['config']['order']}", "",
             "| entry | tag | order | status |",
             "|---|---|---|---|"]
    for r in report["entries"]:
        lines.append(f"| {r['name']} | {r['tag']} | {r['order']} | {r['status']} |")
        if r["status"] != "pass" and r["residual"]:
            first = r["residual"].splitlines()[0]
            lines.append(f"|  |  |  | `{first}` |")
        if r.get("coefficients"):
            pretty = ", ".join(f"{k} = {v}" for k, v in sorted(r["coefficients"].items()))
            lines.append(f"|  |  |  | {pretty} |")
    t = report["totals"]
    lines += ["", f"totals: {t['pass']} pass, {t['fail']} fail, {t['error']} error"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Golden snapshots
# ---------------------------------------------------------------------------

def golden_snapshot(names, out_dir: str, monomial_order: str = "default"):
    """Write deterministic normal-form renderings, one file per name."""
    os.makedirs(out_dir, exist_ok=True)
    reverse = monomial_order == "reversed"
    paths = []
    for name in names:
        node = exprcli.parse(name)
        if not isinstance(node, exprcli.Ref):
            raise ValueError(f"snapshot name must be a catalog reference: {name!r}")
        el = exprcli.evaluate(node)
        fname = re.sub(r"[\[,]", "_", name).replace("]", "") + ".txt"
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(el.render(reverse=reverse) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Negative controls (used by tests; never part of the shipped manifest)
# ---------------------------------------------------------------------------

def negative_controls(entries):
    """Perturbed copies of entries that must all fail.

    Identities with a nonzero right-hand side get the sign of the right-hand
    side flipped; identities stated against (anything evaluating to) zero are
    shifted by 1, since negating zero would change nothing.
    """
    out = []
    for e in entries:
        rhs_el = exprcli.eval_text(e.rhs)
        rhs = "1" if rhs_el.is_zero else f"-({e.rhs})"
        out.append(IdentityEntry(e.name + ".neg", e.lhs, rhs, e.order))
    return out
