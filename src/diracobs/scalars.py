"""Exact arithmetic for the commutative coefficient ring.

All operator coefficients live in one ring: Gaussian rationals times integer
powers of hbar, polynomials in the four momentum components ``p0..p3`` and
the four acceleration parameters ``a0..a3``, extended by a central square
root ``w`` of the Minkowski square ``p.p = p0^2 - p1^2 - p2^2 - p3^2``, with
denominators restricted to powers of ``w``.

A :class:`Scalar` is one sparse polynomial in ``p0..p3`` and ``a0..a3``
with integer (Laurent) powers of ``hbar`` and ``w``.  The relation
``w^2 = p.p`` is applied as the rewrite ``p0^2 -> w^2 + p1^2 + p2^2 + p3^2``,
so no stored monomial has p0-degree above one.  Over the Laurent polynomials
in ``w`` and the other variables, ``1`` and ``p0`` form a basis of the ring,
so the stored form is unique and equality is plain comparison of forms.  No
operation divides by ``p.p``.

Monomials, ``p0`` included, are packed into single ints with biased
``hbar`` and ``w`` fields and guard bits, after Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors" (CASC 2007): a monomial product is one integer addition, and an
exponent that leaves its field raises :class:`ExponentOverflow`.
Coefficients are reduced integer triples ``(a, b, d)`` for ``(a + b*i)/d``;
:class:`GRat` is their public form.

Printing uses the form ``(A' + B'*w) / w^(2m)``, in which ``A'`` and ``B'``
are polynomials in ``p0..p3`` (``w^2`` never written) and ``m >= 0`` is
minimal.  It is built only for display, by :meth:`Scalar.display_monomials`,
which ``render``, ``latex`` and every other reader of printed monomials use.
One monomial writer serves plain text and LaTeX; a per-format table holds
the factor templates, the separator and the way numbers are written.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd

from .conventions import SIGNATURE


def _rational(q) -> Fraction:
    """``Fraction(q)``, refusing floats: they are not exact, so not rounded."""
    if isinstance(q, float):
        raise TypeError(f"coefficients must be exact rationals, not the float {q!r}")
    return Fraction(q)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GRat:
    """Gaussian rational number ``(a + b*i)/d`` with normalized integers.

    The integer-triple representation keeps ring operations on plain ints
    with a single gcd per normalization, which is what makes large
    normal-form computations affordable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, int) and isinstance(im, int):
            self.a, self.b, self.d = re, im, 1
            return
        re = _rational(re)
        im = _rational(im)
        d = re.denominator * im.denominator // _gcd(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GRat":
        self = cls.__new__(cls)
        if d < 0:
            a, b, d = -a, -b, -d
        g = _gcd(_gcd(a if a >= 0 else -a, b if b >= 0 else -b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a, self.b, self.d = a, b, d
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GRat") -> "GRat":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return GRat._raw(self.a + other.a, self.b + other.b, d1)
        return GRat._raw(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                         d1 * d2)

    def __sub__(self, other: "GRat") -> "GRat":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return GRat._raw(self.a - other.a, self.b - other.b, d1)
        return GRat._raw(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1,
                         d1 * d2)

    def __neg__(self) -> "GRat":
        out = GRat.__new__(GRat)
        out.a, out.b, out.d = -self.a, -self.b, self.d
        return out

    def __mul__(self, other: "GRat") -> "GRat":
        a, b, c, e = self.a, self.b, other.a, other.b
        return GRat._raw(a * c - b * e, a * e + b * c, self.d * other.d)

    def inv(self) -> "GRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GRat._raw(self.d * self.a, -self.d * self.b, n)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, GRat) and self.a == other.a
                and self.b == other.b and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GRat({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# Packed monomials
#
# A monomial hbar^h w^k p0^e0 p1^e1 p2^e2 p3^e3 a0^f0 a1^f1 a2^f2 a3^f3 is one
# int of eleven _FW-bit fields, low to high: h, k, e0..e3, f0..f3 and the
# total alpha-degree f0+f1+f2+f3, which is on top so that a key's
# alpha-degree is one shift.  h and k are stored plus _BIAS, so the product
# of two monomials has key k1 + k2 - _ONE.  The top bit of every field is a
# guard: it is clear in every valid key, and such a sum sets it in each field
# that left its range, so an overflow is seen, not wrapped into a neighbour.
# A stored key has e0 <= 1; a product or a derivative may reach e0 = 2, which
# _finish rewrites.
# ---------------------------------------------------------------------------

_FW = 16
_BIAS = 1 << (_FW - 2)
_FIELD = (1 << (_FW - 1)) - 1
_FULL = (1 << _FW) - 1
_GUARD = sum(1 << (j * _FW + _FW - 1) for j in range(11))

_H = 1
_W = 1 << _FW
_P_SHIFT = (2 * _FW, 3 * _FW, 4 * _FW, 5 * _FW)     # indexed by mu = 0..3
_A_SHIFT = (6 * _FW, 7 * _FW, 8 * _FW, 9 * _FW)
_DEG_SHIFT = 10 * _FW
_ONE = _BIAS * _H + _BIAS * _W
_P0 = 1 << _P_SHIFT[0]
#: p0^2 = w^2 + p1^2 + p2^2 + p3^2: the key offsets that rewrite p0^2 into
#: each of the four terms.
_P0SQ = tuple(s - 2 * _P0 for s in (2 * _W, 2 << _P_SHIFT[1], 2 << _P_SHIFT[2],
                                    2 << _P_SHIFT[3]))
#: Keys with one of these bits set need _rewrite: a guard, or p0^2.
_RAW = _GUARD | (_P0 << 1)

_W_P_MASK = sum(_FULL << (j * _FW) for j in (1, 2, 3, 4, 5))
_ALPHA_MASK = sum(_FULL << (j * _FW) for j in (6, 7, 8, 9, 10))


class ExponentOverflow(ArithmeticError):
    """An exponent left the range a packed monomial key holds."""


def _overflow():
    raise ExponentOverflow(
        f"exponents must lie in [{-_BIAS}, {_FIELD - _BIAS}] for hbar and w "
        f"and in [0, {_FIELD}] for p0..p3 and a0..a3")


def _key(h: int = 0, k: int = 0, mu: int | None = None,
         alpha: int | None = None) -> int:
    """hbar^h w^k, times p^mu and a^alpha if given."""
    if not (-_BIAS <= h <= _FIELD - _BIAS and -_BIAS <= k <= _FIELD - _BIAS):
        _overflow()
    key = _ONE + h * _H + k * _W
    if mu is not None:
        key += 1 << _P_SHIFT[mu]
    if alpha is not None:
        key += (1 << _A_SHIFT[alpha]) + (1 << _DEG_SHIFT)
    return key


def _wexp(k: int) -> int:
    return ((k >> _FW) & _FIELD) - _BIAS


def _adeg(k: int) -> int:
    return (k >> _DEG_SHIFT) & _FIELD


def _unpack(k: int):
    """(h, e0, e1, e2, e3, f0, f1, f2, f3, w-exponent) of a packed key."""
    return (((k & _FIELD) - _BIAS,)
            + tuple((k >> (j * _FW)) & _FIELD for j in range(2, 10))
            + (_wexp(k),))


# ---------------------------------------------------------------------------
# Sparse polynomial layer
#
# A polynomial is a dict mapping a packed key to a coefficient (a, b, d), the
# Gaussian rational (a + b*i)/d with d > 0 and gcd(a, b, d) == 1.  Products
# first collect unreduced triples in an accumulator; _finish rewrites p0^2,
# checks every key's guard bits and reduces each surviving coefficient once.
# ---------------------------------------------------------------------------

def _acc(acc: dict, k: int, a: int, b: int, d: int) -> None:
    prev = acc.get(k)
    if prev is None:
        acc[k] = (a, b, d)
    elif prev[2] == d:
        acc[k] = (prev[0] + a, prev[1] + b, d)
    else:
        pd = prev[2]
        acc[k] = (prev[0] * d + a * pd, prev[1] * d + b * pd, pd * d)


def _reduce(acc: dict) -> dict:
    out = {}
    for k, (a, b, d) in acc.items():
        if a or b:
            g = _gcd(a, b, d)
            out[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
    return out


def _rewrite(acc: dict) -> None:
    """Check the guards of an accumulator's keys and rewrite, in place, each
    p0^2 as w^2 + p1^2 + p2^2 + p3^2."""
    for k in [k for k in acc if k & _RAW]:
        if k & _GUARD:
            _overflow()
        a, b, d = acc.pop(k)
        for s in _P0SQ:
            if (k + s) & _GUARD:
                _overflow()
            _acc(acc, k + s, a, b, d)


def _finish(acc: dict, amax: int | None = None, norm: int = 0) -> dict:
    """Reduced nonzero terms of a packed-key accumulator, which it consumes.

    p0^2 is rewritten and the guards are checked (:func:`_rewrite`).  Terms
    of alpha-degree above ``amax`` are dropped, and the others are scaled by
    1, ``1/(i*hbar)`` or ``1/2`` for ``norm`` = 0, -1 or +1 as they are
    reduced.
    """
    _rewrite(acc)
    if amax is None:
        amax = _FIELD
    out = {}
    for k, (a, b, d) in acc.items():
        if not (a or b) or k >> _DEG_SHIFT > amax:
            continue
        if norm < 0:
            # 1/(i*hbar) = -i * hbar^-1
            a, b = b, -a
            k -= _H
            if k & _GUARD:
                _overflow()
        elif norm:
            d *= 2
        g = _gcd(a, b, d)
        out[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
    return out


def _mul_into(acc: dict, P: dict, Q: dict, c: int = 1) -> None:
    """acc += c*P*Q, unreduced (the hot loop, so _acc is written out inline).

    The integer factor c scales each row of P once.
    """
    for k1, (a1, b1, d1) in P.items():
        k1 -= _ONE
        if c != 1:
            a1 *= c
            b1 *= c
        for k2, (a2, b2, d2) in Q.items():
            k = k1 + k2
            if b1 or b2:
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
            else:
                a = a1 * a2
                b = 0
            d = d1 * d2
            prev = acc.get(k)
            if prev is None:
                acc[k] = (a, b, d)
            elif prev[2] == d:
                acc[k] = (prev[0] + a, prev[1] + b, d)
            else:
                pd = prev[2]
                acc[k] = (prev[0] * d + a * pd, prev[1] * d + b * pd, pd * d)


def _cadd(x: tuple, y: tuple, sign: int):
    """x + sign*y, reduced; None for zero."""
    if x[2] == y[2]:
        a, b, d = x[0] + sign * y[0], x[1] + sign * y[1], x[2]
    else:
        a = x[0] * y[2] + sign * y[0] * x[2]
        b = x[1] * y[2] + sign * y[1] * x[2]
        d = x[2] * y[2]
    if not (a or b):
        return None
    g = _gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def _padd(P: dict, Q: dict, sign: int = 1) -> dict:
    """P + sign*Q; returns an operand unchanged when the other is empty."""
    if not Q:
        return P
    if not P:
        return Q if sign == 1 else {k: (-a, -b, d) for k, (a, b, d) in Q.items()}
    out = dict(P)
    for k, c in Q.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c if sign == 1 else (-c[0], -c[1], c[2])
        else:
            v = _cadd(prev, c, sign)
            if v is None:
                del out[k]
            else:
                out[k] = v
    return out


def _grat(c: tuple) -> GRat:
    out = GRat.__new__(GRat)
    out.a, out.b, out.d = c
    return out


def _pderiv_acc(P: dict, nu: int, mih: bool = False) -> dict:
    """Unreduced accumulator of ``d/dp^nu P``, times ``-i*hbar`` with ``mih``.

    With ``w^2 = p.p``, ``dw/dp^nu = eta_{nu nu} p^nu / w``, so each term
    ``c p^e w^k`` gives ``e_nu c p^(e - 1_nu) w^k`` and
    ``eta_{nu nu} k c p^(e + 1_nu) w^(k-2)``; the second may carry p0^2, which
    :func:`_rewrite` removes.  With ``mih`` each input term is multiplied by
    -i*hbar before it is differentiated: d/dp^nu commutes with that factor.
    """
    shift = _P_SHIFT[nu]
    down = 1 << shift
    up = down - 2 * _W
    eta = int(SIGNATURE[nu])
    out: dict = {}
    for k, (x, y, d) in P.items():
        if mih:
            k, x, y = k + _H, y, -x
        e = (k >> shift) & _FIELD
        if e:
            _acc(out, k - down, x * e, y * e, d)
        e = eta * _wexp(k)
        if e:
            _acc(out, k + up, x * e, y * e, d)
    return out


def _shifted_pderiv(P: dict, nu: int) -> dict:
    """``-i*hbar d/dp^nu P`` with p0^2 rewritten, guards checked and zeros
    dropped, but not gcd-reduced: a raw operand for :func:`_mul_into`, whose
    result is reduced once by :func:`_finish`."""
    acc = _pderiv_acc(P, nu, True)
    _rewrite(acc)
    return {k: c for k, c in acc.items() if c[0] or c[1]}


@lru_cache(maxsize=None)
def _pp_power(n: int) -> dict:
    """(p.p)^n over (h, p0, p1, p2, p3, a0..a3) display keys, int coefficients.

    No coefficient of the expansion is zero.  The dict is shared by every
    caller: read it, never mutate it.
    """
    if n == 0:
        return {(0,) * 9: 1}
    out: dict = {}
    for k, c in _pp_power(n - 1).items():
        for mu in range(4):
            kk = list(k)
            kk[1 + mu] += 2
            kk = tuple(kk)
            out[kk] = out.get(kk, 0) + c * int(SIGNATURE[mu])
    return out


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """Element of the coefficient ring, stored as one packed-key dict.

    ``_t`` maps packed monomials in hbar^+-, w^+-, p0..p3 and a0..a3, each of
    p0-degree at most one, to reduced Gaussian-rational triples.  The printed
    form ``(A' + B'*w)/w^(2m)`` is derived from it by
    :meth:`display_monomials`; ``_m`` is its denominator order.
    """

    __slots__ = ("_t",)

    def __init__(self, a: dict | None = None, b: dict | None = None, m: int = 0,
                 normalize: bool = True):
        """The coefficient ``(a + b*p0) / w^(2m)`` over packed-key dicts.

        Coefficients are ``(a, b, d)`` triples with ``d > 0``.  With
        ``normalize`` (or ``m``) they are reduced, p0^2 is rewritten and zeros
        are dropped; without it they must already be reduced and nonzero, and
        every key of p0-degree at most one.
        """
        t = a or {}
        if b:
            t = dict(t)
            for k, (x, y, d) in b.items():
                _acc(t, k + _P0, x, y, d)
        if normalize or m:
            shift = _key(k=-2 * m) - _ONE
            t = _finish({k + shift: c for k, c in t.items()})
        self._t = t

    # ``_a`` and ``_b`` are read by bench/tracing.py, which counts a result's
    # terms as len(_a) + len(_b).

    @property
    def _a(self) -> dict:
        """The p0-free part ``A`` of ``self == A + B*p0``."""
        return {k: c for k, c in self._t.items() if not k & _P0}

    @property
    def _b(self) -> dict:
        """The part ``B`` of ``self == A + B*p0``."""
        return {k - _P0: c for k, c in self._t.items() if k & _P0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls({}, normalize=False)

    @classmethod
    def one(cls) -> "Scalar":
        return cls({_ONE: (1, 0, 1)}, normalize=False)

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        q = _rational(q)
        if not q:
            return cls.zero()
        return cls({_ONE: (q.numerator, 0, q.denominator)}, normalize=False)

    @classmethod
    def from_grat(cls, g: GRat) -> "Scalar":
        if not g:
            return cls.zero()
        return cls({_ONE: (g.a, g.b, g.d)})

    @classmethod
    def imag_unit(cls) -> "Scalar":
        return cls({_ONE: (0, 1, 1)}, normalize=False)

    @classmethod
    def hbar(cls, k: int = 1) -> "Scalar":
        return cls({_key(h=k): (1, 0, 1)}, normalize=False)

    @classmethod
    def p(cls, mu: int) -> "Scalar":
        """Contravariant momentum component p^mu."""
        return cls({_key(mu=mu): (1, 0, 1)}, normalize=False)

    @classmethod
    def p_lower(cls, mu: int) -> "Scalar":
        """Lowered momentum component P_mu = eta_{mu mu} p^mu."""
        return cls.p(mu) * int(SIGNATURE[mu])

    @classmethod
    def alpha(cls, mu: int) -> "Scalar":
        """Contravariant acceleration parameter a^mu."""
        return cls({_key(alpha=mu): (1, 0, 1)}, normalize=False)

    @classmethod
    def w_pow(cls, k: int) -> "Scalar":
        """Any integer power of w."""
        return cls({_key(k=k): (1, 0, 1)}, normalize=False)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def p_free(self) -> bool:
        """True when no monomial involves p or w (all p-derivatives vanish)."""
        return all(k & _W_P_MASK == _BIAS * _W for k in self._t)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self._t == other._t

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(_padd(self._t, other._t), normalize=False)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(_padd(self._t, other._t, -1), normalize=False)

    def __neg__(self) -> "Scalar":
        return self._scaled(-1)

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict = {}
        _mul_into(acc, self._t, other._t)
        return Scalar(_finish(acc), normalize=False)

    __rmul__ = __mul__

    def _scaled(self, q) -> "Scalar":
        """``q * self`` for a rational ``q`` (an int or a Fraction), in one
        pass that keeps every coefficient reduced."""
        if not q:
            return Scalar.zero()
        n, m = q.numerator, q.denominator
        out = {}
        for k, (a, b, d) in self._t.items():
            a, b, d = a * n, b * n, d * m
            g = _gcd(a, b, d)
            out[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
        return Scalar(out, normalize=False)

    # -- calculus -----------------------------------------------------------

    def pderiv(self, nu: int) -> "Scalar":
        """Partial derivative with respect to p^nu (chain rule through w).

        The derivation d/dp^nu + (p_nu/w) d/dw on the stored form; it kills
        w^2 - p.p, so it needs no reduction beyond rewriting p0^2.
        """
        return Scalar(_finish(_pderiv_acc(self._t, nu)), normalize=False)

    def conj_i(self) -> "Scalar":
        """Complex conjugation i -> -i; p, alpha, hbar, w are fixed."""
        return Scalar({k: (a, -b, d) for k, (a, b, d) in self._t.items()},
                      normalize=False)

    # -- alpha grading ------------------------------------------------------

    def alpha_degree(self) -> int:
        """Maximal total degree in a0..a3; -1 for the zero scalar."""
        return max((_adeg(k) for k in self._t), default=-1)

    def alpha_min_degree(self) -> int:
        """Minimal total degree in a0..a3; -1 for the zero scalar."""
        return min((_adeg(k) for k in self._t), default=-1)

    def alpha_truncate(self, n: int) -> "Scalar":
        """Drop every monomial of alpha-degree above n."""
        return Scalar({k: c for k, c in self._t.items() if _adeg(k) <= n},
                      normalize=False)

    def alpha_part(self, n: int) -> "Scalar":
        """Keep only the monomials of alpha-degree exactly n."""
        return Scalar({k: c for k, c in self._t.items() if _adeg(k) == n},
                      normalize=False)

    def subst_alpha(self, values) -> "Scalar":
        """Substitute rational numbers for the four alpha parameters."""
        vals = [_rational(v) for v in values]
        if len(vals) != 4:
            raise ValueError(f"subst_alpha takes exactly four values, got {len(vals)}")
        acc: dict = {}
        for k, (a, b, d) in self._t.items():
            f = Fraction(1)
            for j in range(4):
                e = (k >> _A_SHIFT[j]) & _FIELD
                if e:
                    f *= vals[j] ** e
            if f:
                _acc(acc, k & ~_ALPHA_MASK, a * f.numerator, b * f.numerator,
                     d * f.denominator)
        return Scalar(_finish(acc), normalize=False)

    # -- display form -------------------------------------------------------

    @property
    def _m(self) -> int:
        """Denominator order m of the display form (A + B*w)/w^(2m)."""
        kmin = min((_wexp(k) for k in self._t), default=1)
        return max(0, (1 - kmin) // 2)

    def _display_form(self):
        """(A, B, m) with self == (A + B*w)/w^(2m), w^2 never written, m minimal.

        A and B map (h, p0, p1, p2, p3, a0..a3) tuples to reduced triples.
        Multiplying by w^(2m) clears every negative w power, and the result
        is divisible by w^2 = p.p only if every w power is at least 2, so m
        is read off the smallest w exponent.  Each remaining w^(2q + r) is
        written as (p.p)^q w^r.
        """
        m = self._m
        parts = ({}, {})
        for k, (a, b, d) in self._t.items():
            *base, kw = _unpack(k)
            q, r = divmod(kw + 2 * m, 2)
            dst = parts[r]
            for pk, n in _pp_power(q).items():
                _acc(dst, tuple(x + y for x, y in zip(base, pk)), a * n, b * n, d)
        A, B = (_reduce(acc) for acc in parts)
        return A, B, m

    # -- rendering ----------------------------------------------------------

    def display_monomials(self, reverse: bool = False):
        """Expanded monomials (key, w_exp, coeff) in the canonical print order.

        The monomials are those of the display form (A + B*w)/w^(2m), keyed
        by (h, p0, p1, p2, p3, a0, a1, a2, a3) tuples, with GRat coefficients.
        """
        A, B, m = self._display_form()
        items = [(k, -2 * m, _grat(c)) for k, c in A.items()]
        items += [(k, 1 - 2 * m, _grat(c)) for k, c in B.items()]
        items.sort(key=lambda t: (sum(t[0][1:]),
                                  tuple(-e for e in t[0][1:5]),
                                  tuple(-e for e in t[0][5:9]),
                                  t[0][0], t[1]),
                   reverse=reverse)
        return items

    def render(self, reverse: bool = False) -> str:
        return _signed_join(_mono(_PLAIN, k, w, c)
                            for k, w, c in self.display_monomials(reverse))

    def latex(self) -> str:
        return _signed_join(_mono(_LATEX, k, w, c) for k, w, c in self.display_monomials())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rational(x)
    if isinstance(x, GRat):
        return Scalar.from_grat(x)
    return NotImplemented


def _signed_join(parts) -> str:
    """Rendered monomials joined by `` + `` and `` - ``; ``0`` for none."""
    out = "0"
    for n, s in enumerate(parts):
        if not n:
            out = s
        elif s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    s = r"\tfrac{%d}{%d}" % (abs(q.numerator), q.denominator)
    return "-" + s if q < 0 else s


# An output format: the templates of hbar, p^j, alpha^j and w at power 1 and
# at power e, the separator between factors and before the coefficient, the
# writer of a rational number, and the templates of an imaginary part and of
# a bracketed complex coefficient.
_PLAIN = ((("hbar", "hbar^{e}"), ("p{j}", "p{j}^{e}"), ("a{j}", "a{j}^{e}"),
           ("w", "w^{e}")),
          "*", str, "{}*i", "({} {} {})")
_LATEX = (((r"\hbar", r"\hbar^{{{e}}}"), ("p^{{{j}}}", "(p^{{{j}}})^{{{e}}}"),
           (r"\alpha^{{{j}}}", r"(\alpha^{{{j}}})^{{{e}}}"), ("w", "w^{{{e}}}")),
          r" \, ", _frac_latex, "{} i", r"\left({} {} {}\right)")

#: The factor of each display exponent (h, p0..p3, a0..a3, w): its row in a
#: format's templates and its index j.
_FACTORS = ((0, 0), *((1, j) for j in range(4)), *((2, j) for j in range(4)), (3, 0))


def _coeff(fmt, c: GRat) -> str:
    """A Gaussian rational coefficient in the output format ``fmt``."""
    _, _, num, imag, paren = fmt
    re, im = c.re, c.im
    if not im:
        return num(re)
    i_part = "i" if abs(im) == 1 else imag.format(num(abs(im)))
    if re:
        return paren.format(num(re), "+" if im > 0 else "-", i_part)
    return i_part if im > 0 else "-" + i_part


def _mono(fmt, k, wexp: int, c: GRat) -> str:
    """One display monomial (key, w exponent, coefficient) in the format ``fmt``."""
    templates, sep = fmt[:2]
    factors = [templates[row][e != 1].format(j=j, e=e)
               for (row, j), e in zip(_FACTORS, (*k, wexp)) if e]
    cs = _coeff(fmt, c)
    if not factors:
        return cs
    body = sep.join(factors)
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return cs + sep + body
