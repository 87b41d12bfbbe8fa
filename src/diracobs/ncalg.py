"""Normal-form engine for the noncommutative operator algebra.

An :class:`NCElement` is a finite sum of monomials

    x0^e0 x1^e1 x2^e2 x3^e3  *  (Clifford word)  *  (Scalar coefficient)

stored as a map from ``(x-exponents, word)`` to :class:`~.scalars.Scalar`.
The normal form puts the position part leftmost, the Clifford word in the
middle and the coefficient rightmost; two elements are equal iff their maps
are equal.

The single nontrivial rewrite moves a coefficient ``f(p, w)`` rightwards
past a position generator,

    f * x_nu = x_nu * f - i*hbar * df/dp^nu,

which fixes ``(P_mu, x_nu) = -eta_{mu nu}``.  Position generators commute
among themselves, Clifford words commute with positions and coefficients,
and words multiply through the Cl(1,3) sign table.  Iterating the rule gives
the closed product formula used by :meth:`NCElement.__mul__`:

    f * x^beta = sum_{gamma <= beta} C(beta, gamma) x^(beta-gamma)
                 (-i*hbar)^|gamma| d^gamma f / dp^gamma.

The product is computed as accumulate-then-reduce: each left coefficient's
shifted derivatives ``(-i*hbar)^|gamma| d^gamma f`` are built once, every
monomial pair adds its unreduced coefficient products, scaled by the integer
``C(beta, gamma)`` times the Clifford sign, into raw accumulators per output
monomial, and each output coefficient is reduced once at the end.  The
truncated products (:func:`mul_truncated`) are the same routine with an
alpha-degree bound.

The quantum bracket is ``(a, b) = (a b - b a)/(i hbar)`` and the symmetrised
product is ``a . b = (a b + b a)/2``.  Neither builds two products: the same
routine accumulates ``ab - ba`` (or ``ab + ba``) directly, adding the
reordering terms of ``ab`` and of ``ba`` with their signs.  The term with no
reordering derivative is the same coefficient product ``fa fb`` on the same
output monomial in ``ab`` and ``ba``, up to the Clifford signs of ``uv`` and
``vu``; two basis words either commute or anticommute, so in a bracket that
term cancels exactly for commuting words and is added once, doubled, for
anticommuting ones (the symmetrised product swaps the two cases).  This is
the standard-ordering form of the star commutator having no hbar^0 term
(Groenewold 1946, Moyal 1949), with the Clifford words adding the
anticommuting case.  Normalisation by ``1/(i hbar)`` or ``1/2`` follows once.

Adjoints are realized by :class:`Involution`: an antilinear anti-automorphism
determined by images of the generators ``x_mu`` and ``g_mu`` (coefficients
transform by complex conjugation).  The canonical involution of the model is
constructed in :mod:`~.observables`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product as _cartesian
from math import comb

from . import clifford
from .scalars import GRat, Scalar, _finish_parts, _mul_parts

_X0 = (0, 0, 0, 0)


class NotUnitalSeries(ValueError):
    """geometric_inverse needs a series whose alpha-degree-0 part equals 1."""


def _sub_indices(beta):
    """(gamma, beta - gamma, C(beta, gamma)) for all gamma <= beta, gamma = 0 first.

    Cached per beta; C(beta, gamma) is the product of the binomials
    C(beta_nu, gamma_nu).
    """
    cached = _sub_indices._cache.get(beta)
    if cached is None:
        cached = []
        for g in _cartesian(*(range(e + 1) for e in beta)):
            c = 1
            for e, gi in zip(beta, g):
                c *= comb(e, gi)
            cached.append((g, tuple(e - gi for e, gi in zip(beta, g)), c))
        cached = tuple(cached)
        _sub_indices._cache[beta] = cached
    return cached


_sub_indices._cache = {}

_HALF = Scalar.from_rational(Fraction(1, 2))


class NCElement:
    """Normal-form element of the operator algebra."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict | None = None, normalize: bool = True):
        if terms is None:
            terms = {}
        if normalize:
            terms = {k: s for k, s in terms.items() if not s.is_zero}
        self._t = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "NCElement":
        return cls({}, normalize=False)

    @classmethod
    def one(cls) -> "NCElement":
        return cls({(_X0, 0): Scalar.one()}, normalize=False)

    @classmethod
    def from_scalar(cls, s: Scalar) -> "NCElement":
        if s.is_zero:
            return cls.zero()
        return cls({(_X0, 0): s}, normalize=False)

    @classmethod
    def x(cls, mu: int) -> "NCElement":
        e = [0, 0, 0, 0]
        e[mu] = 1
        return cls({(tuple(e), 0): Scalar.one()}, normalize=False)

    @classmethod
    def gamma(cls, mu: int) -> "NCElement":
        return cls({(_X0, 1 << mu): Scalar.one()}, normalize=False)

    @classmethod
    def gamma5(cls) -> "NCElement":
        coef, word = clifford.gamma5()
        return cls({(_X0, word): coef}, normalize=False)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def terms(self):
        """(x-exponents, word, Scalar) triples, sorted by x-degree then word."""
        return [(x, w, self._t[(x, w)])
                for x, w in sorted(self._t, key=lambda k: (sum(k[0]), k[1], k[0]))]

    def __eq__(self, other) -> bool:
        return isinstance(other, NCElement) and self._t == other._t

    __hash__ = None

    def x_degree(self) -> int:
        """Maximal total degree in the position generators; -1 if zero."""
        if not self._t:
            return -1
        return max(sum(x) for x, _ in self._t)

    def scalar_part(self) -> Scalar:
        """Coefficient of the identity monomial."""
        return self._t.get((_X0, 0), Scalar.zero())

    # -- linear structure ---------------------------------------------------

    def __add__(self, other) -> "NCElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._t)
        for k, s in other._t.items():
            prev = out.get(k)
            v = prev + s if prev is not None else s
            if v.is_zero:
                if prev is not None:
                    del out[k]
            else:
                out[k] = v
        return NCElement(out, normalize=False)

    __radd__ = __add__

    def __sub__(self, other) -> "NCElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "NCElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "NCElement":
        return NCElement({k: -s for k, s in self._t.items()}, normalize=False)

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other) -> "NCElement":
        if isinstance(other, (int, Fraction, GRat, Scalar)):
            s = other if isinstance(other, Scalar) else _to_scalar(other)
            if s.is_zero:
                return NCElement.zero()
            # Right-multiplying by a coefficient never reorders anything.
            return NCElement({k: v * s for k, v in self._t.items()})
        if not isinstance(other, NCElement):
            return NotImplemented
        return self._mul_impl(other, None)

    def _mul_impl(self, other: "NCElement", amax, sym: int = 0) -> "NCElement":
        """``ab``, ``ab - ba`` or ``ab + ba`` for ``sym`` = 0, -1 or +1, as one
        multiply-accumulate.

        Every output key ``(x-exponents, word)`` owns three raw accumulators
        for ``A + B*p0 + BB*p0^2``.  A monomial pair of ``a = x^xa u fa`` and
        ``b = x^xb v fb`` adds, with ``uv = s_ab w`` and ``vu = s_ba w``:

        - the gamma = 0 term ``x^(xa+xb) w fa fb`` once, scaled by
          ``s_ab + sym*s_ba``.  Clifford words commute or anticommute, so for
          a bracket a commuting pair is skipped (factor 0, the terms of ``ab``
          and ``ba`` cancel exactly) and an anticommuting pair is doubled;
          for ``ab + ba`` the cases swap;
        - the gamma != 0 terms of ``ab``, ``C(xb, g) x^(xa+xb-g) w D^g fa fb``
          with ``D^g = (-i*hbar)^|g| d^g/dp^g``, from a memo of ``fa``'s
          shifted derivatives, scaled by ``s_ab``;
        - for ``sym != 0``, the gamma != 0 terms of ``ba`` the same way from a
          memo of ``fb``'s shifted derivatives, scaled by ``sym*s_ba``.

        Each memo is filled once per left or right term.  Each key is
        reduced once at the end, which is also where p0^2 is rewritten and
        exponent overflow is caught.  With ``amax`` set, pairs whose joint
        minimal alpha-degree exceeds it are skipped and the result is
        truncated at alpha-degree ``amax``.
        """
        acc = defaultdict(_new_slot)
        table = clifford._TABLE
        truncating = amax is not None
        # Right terms with their gamma != 0 sub-indices and, when ``ba`` has
        # gamma != 0 terms, a memo of their shifted derivatives.
        rterms = [(xb, ub, fb, fb.alpha_min_degree() if truncating else 0,
                   _sub_indices(xb)[1:], {_X0: fb} if sym and not fb.p_free else None)
                  for (xb, ub), fb in other._t.items()]
        for (xa, ua), fa in self._t.items():
            memo = {_X0: fa}
            row = table[ua]
            # No p/w dependence on the left: only gamma = 0 terms of ab.
            pfree = fa.p_free
            fa_min = fa.alpha_min_degree() if truncating else 0
            xa0, xa1, xa2, xa3 = xa
            # gamma != 0 terms of ba: gamma <= xa
            subs_ba = _sub_indices(xa)[1:] if sym else ()
            for xb, ub, fb, fb_min, subs, memo_b in rterms:
                if truncating and fa_min + fb_min > amax:
                    continue
                s_ab, uc = row[ub]
                c_ba = sym * table[ub][ua][0] if sym else 0
                c0 = s_ab + c_ba
                xb0, xb1, xb2, xb3 = xb
                if c0:
                    key = ((xa0 + xb0, xa1 + xb1, xa2 + xb2, xa3 + xb3), uc)
                    _mul_parts(acc[key], fa, fb, c0)
                if not pfree:
                    # gamma <= xb, with xb - gamma and the binomial C(xb, gamma)
                    for g, (r0, r1, r2, r3), c in subs:
                        dfa = memo.get(g)
                        if dfa is None:
                            dfa = _shifted_derivative(memo, g)
                        if dfa.is_zero:
                            continue
                        key = ((xa0 + r0, xa1 + r1, xa2 + r2, xa3 + r3), uc)
                        _mul_parts(acc[key], dfa, fb, c * s_ab)
                if subs_ba and memo_b is not None:
                    for g, (r0, r1, r2, r3), c in subs_ba:
                        dfb = memo_b.get(g)
                        if dfb is None:
                            dfb = _shifted_derivative(memo_b, g)
                        if dfb.is_zero:
                            continue
                        key = ((xb0 + r0, xb1 + r1, xb2 + r2, xb3 + r3), uc)
                        _mul_parts(acc[key], dfb, fa, c * c_ba)
        out = {}
        for key, slot in acc.items():
            s = _finish_parts(slot)
            if truncating:
                s = s.alpha_truncate(amax)
            if not s.is_zero:
                out[key] = s
        return NCElement(out, normalize=False)

    def __rmul__(self, other) -> "NCElement":
        if isinstance(other, (int, Fraction, GRat)):
            return self * other
        if isinstance(other, Scalar):
            # A coefficient on the left must be commuted past the x-part.
            return NCElement.from_scalar(other) * self
        return NotImplemented

    def __pow__(self, n: int) -> "NCElement":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = NCElement.one()
        for _ in range(n):
            out = out * self
        return out

    # -- alpha grading ------------------------------------------------------

    def alpha_degree(self) -> int:
        deg = -1
        for s in self._t.values():
            d = s.alpha_degree()
            if d > deg:
                deg = d
        return deg

    def alpha_truncate(self, n: int) -> "NCElement":
        return NCElement({k: s.alpha_truncate(n) for k, s in self._t.items()})

    def alpha_part(self, n: int) -> "NCElement":
        return NCElement({k: s.alpha_part(n) for k, s in self._t.items()})

    def subst_alpha(self, values) -> "NCElement":
        return NCElement({k: s.subst_alpha(values) for k, s in self._t.items()})

    # -- rendering ----------------------------------------------------------

    def render(self, reverse: bool = False, alias_gamma5: bool = False) -> str:
        """Plain-text rendering, one monomial per line."""
        if self.is_zero:
            return "0"
        items = self.terms()
        if reverse:
            items = list(reversed(items))
        lines = []
        for x, w, s in items:
            word_txt = clifford.word_str(w)
            coeff = s
            if alias_gamma5 and w == clifford.GAMMA5_WORD:
                # i*g0 g1 g2 g3 == gamma5, so pull a factor i out of the coefficient.
                word_txt = "gamma5"
                coeff = s * Scalar.from_grat(GRat(0, -1))
            lines.append(f"{_xpart_str(x)} | {word_txt} | {coeff.render(reverse)}")
        return "\n".join(lines)

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for x, w, s in self.terms():
            xs = "".join(("x_{%d}" % mu if e == 1 else "x_{%d}^{%d}" % (mu, e))
                         for mu, e in enumerate(x) if e)
            ws = clifford.word_latex(w) if w else ""
            body = " ".join(t for t in (xs, ws) if t)
            coeff = s.latex()
            if "+" in coeff or " - " in coeff:
                coeff = r"\left(%s\right)" % coeff
            parts.append((body + r" \, " + coeff) if body else coeff)
        return " + ".join(parts)

    def to_json(self) -> list:
        return [{"x": list(x), "word": list(clifford.indices(w)), "scalar": s.render()}
                for x, w, s in self.terms()]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        n = len(self._t)
        return f"NCElement<{n} monomial{'s' if n != 1 else ''}>"


def _xpart_str(x) -> str:
    if not any(x):
        return "1"
    return "*".join((f"x{mu}" if e == 1 else f"x{mu}^{e}")
                    for mu, e in enumerate(x) if e)


def _to_scalar(v):
    if isinstance(v, GRat):
        return Scalar.from_grat(v)
    return Scalar.from_rational(v)


def _coerce(x):
    if isinstance(x, NCElement):
        return x
    if isinstance(x, (int, Fraction)):
        return NCElement.from_scalar(Scalar.from_rational(x))
    if isinstance(x, (Scalar, GRat)):
        return NCElement.from_scalar(x if isinstance(x, Scalar) else Scalar.from_grat(x))
    return NotImplemented


def _new_slot():
    """Raw accumulators ``(A, B, BB)`` of one output monomial."""
    return ({}, {}, {})


def _shifted_derivative(memo: dict, g):
    """(-i*hbar)^|g| d^g f for f = memo[(0,0,0,0)], filling the memo on the way.

    The shift commutes with d/dp, so each entry is its parent's derivative
    shifted by one more factor of -i*hbar.
    """
    for j in range(3, -1, -1):
        if g[j]:
            parent = list(g)
            parent[j] -= 1
            parent = tuple(parent)
            break
    base = memo.get(parent)
    if base is None:
        base = _shifted_derivative(memo, parent)
    val = base.pderiv(j)
    if not val.is_zero:
        val = val.mih_shift(1, 1)
    memo[g] = val
    return val


# ---------------------------------------------------------------------------
# Bracket and symmetrised product
# ---------------------------------------------------------------------------

def bracket(a: NCElement, b: NCElement) -> NCElement:
    """Quantum bracket (a, b) = (a b - b a)/(i hbar)."""
    return bracket_truncated(a, b, None)


def dot(a: NCElement, b: NCElement) -> NCElement:
    """Symmetrised product a . b = (a b + b a)/2."""
    return dot_truncated(a, b, None)


def mul_truncated(a: NCElement, b: NCElement, n: int | None) -> NCElement:
    """Product with monomial pairs of joint alpha-degree above n skipped.

    Equals (a * b).alpha_truncate(n): brackets with alpha-graded elements
    never lower the alpha-degree, so the skipped pairs cannot contribute.
    With ``n=None`` it is the plain product ``a * b``.
    """
    return a._mul_impl(b, n)


def bracket_truncated(a: NCElement, b: NCElement, n: int | None) -> NCElement:
    """(a, b) truncated at alpha-degree n, from one fused ``ab - ba``.

    With ``n=None`` it is the plain bracket :func:`bracket`."""
    # 1/(i*hbar) = -(-i*hbar)^-1
    raw = a._mul_impl(b, n, -1)
    return NCElement({k: s.mih_shift(-1, -1) for k, s in raw._t.items()}, normalize=False)


def dot_truncated(a: NCElement, b: NCElement, n: int | None) -> NCElement:
    """a . b truncated at alpha-degree n, from one fused ``ab + ba``.

    With ``n=None`` it is the plain symmetrised product :func:`dot`."""
    return a._mul_impl(b, n, 1) * _HALF


# ---------------------------------------------------------------------------
# Graded series utilities
# ---------------------------------------------------------------------------

def geometric_inverse(u: NCElement, n: int) -> NCElement:
    """Inverse of u = 1 + v (v of alpha-degree >= 1) up to alpha-degree n."""
    if u.alpha_truncate(0) != NCElement.one():
        raise NotUnitalSeries("alpha-degree-0 part must be exactly 1")
    v = u - NCElement.one()
    acc = NCElement.one()
    power = NCElement.one()
    for k in range(1, n + 1):
        power = mul_truncated(power, v, n)
        if power.is_zero:
            break
        acc = acc + (power if k % 2 == 0 else -power)
    return acc


# ---------------------------------------------------------------------------
# Polynomial forms in four slots (degree <= 2) and their substitution
# ---------------------------------------------------------------------------

class PolyForm:
    """Commutative polynomial template of total degree <= 2 in 4 slots.

    Coefficients are Scalars; quadratic cross terms are stored once per
    unordered slot pair, i.e. the form is kept with symmetric coefficients.
    """

    __slots__ = ("const", "lin", "quad")

    def __init__(self, const: Scalar, lin: dict, quad: dict):
        self.const = const
        self.lin = {k: v for k, v in lin.items() if not v.is_zero}
        self.quad = {k: v for k, v in quad.items() if not v.is_zero}
        for (r, s) in self.quad:
            if r > s:
                raise ValueError("quadratic keys must be sorted slot pairs")

    @classmethod
    def from_element(cls, el: NCElement) -> "PolyForm":
        """Read a template off a pure-position element of x-degree <= 2."""
        const = Scalar.zero()
        lin: dict = {}
        quad: dict = {}
        for x, w, s in el.terms():
            if w != 0:
                raise ValueError("element has Clifford content; not a position polynomial")
            d = sum(x)
            if d == 0:
                const = const + s
            elif d == 1:
                r = x.index(1)
                lin[r] = lin.get(r, Scalar.zero()) + s
            elif d == 2:
                nz = [mu for mu, e in enumerate(x) if e]
                if len(nz) == 1:
                    key = (nz[0], nz[0])
                else:
                    key = (nz[0], nz[1])
                quad[key] = quad.get(key, Scalar.zero()) + s
            else:
                raise ValueError("template degree exceeds 2")
        return cls(const, lin, quad)


def poly_eval_sym(form: PolyForm, args) -> NCElement:
    """Fully symmetrised substitution of four operators into the form."""
    out = NCElement.from_scalar(form.const)
    for r, c in form.lin.items():
        out = out + args[r] * c
    for (r, s), c in form.quad.items():
        term = args[r] * args[r] if r == s else dot(args[r], args[s])
        out = out + term * c
    return out


def poly_eval_left(form: PolyForm, args) -> NCElement:
    """Left-to-right substitution of the symmetric form.

    Cross terms are expanded as the symmetric double sum
    (c/2) A_r A_s + (c/2) A_s A_r with plain (ordered) products.
    """
    out = NCElement.from_scalar(form.const)
    for r, c in form.lin.items():
        out = out + args[r] * c
    half = Fraction(1, 2)
    for (r, s), c in form.quad.items():
        if r == s:
            out = out + args[r] * args[r] * c
        else:
            out = out + (args[r] * args[s]) * (c * half) + (args[s] * args[r]) * (c * half)
    return out


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------

class Involution:
    """Antilinear anti-automorphism generated by images of x_mu and g_mu.

    A monomial transforms as (x^beta u f)^+ = conj(f) * u^+ * (x^+)^beta,
    where u^+ reverses the word and replaces each generator by its image,
    and (x^+)^beta is the product of image powers (the images commute for
    the canonical involution; the construction fixes the order mu = 0..3).
    """

    def __init__(self, x_images, gamma_images):
        self._xi = list(x_images)
        self._gi = list(gamma_images)
        self._word_cache: dict = {0: NCElement.one()}
        self._xpow_cache: dict = {_X0: NCElement.one()}
        self._mono_cache: dict = {}

    def _word_image(self, word: int) -> NCElement:
        got = self._word_cache.get(word)
        if got is None:
            got = NCElement.one()
            for mu in reversed(clifford.indices(word)):
                got = got * self._gi[mu]
            self._word_cache[word] = got
        return got

    def _xpart_image(self, x) -> NCElement:
        got = self._xpow_cache.get(x)
        if got is None:
            got = NCElement.one()
            for mu, e in enumerate(x):
                for _ in range(e):
                    got = got * self._xi[mu]
            self._xpow_cache[x] = got
        return got

    def _mono_image(self, x, w) -> NCElement:
        got = self._mono_cache.get((x, w))
        if got is None:
            got = self._word_image(w) * self._xpart_image(x)
            self._mono_cache[(x, w)] = got
        return got

    def __call__(self, el: NCElement) -> NCElement:
        out = NCElement.zero()
        for (x, w), f in el._t.items():
            out = out + NCElement.from_scalar(f.conj_i()) * self._mono_image(x, w)
        return out
