"""Exact arithmetic for the commutative coefficient ring.

All operator coefficients live in one ring: Gaussian rationals times integer
powers of hbar, polynomials in the four momentum components ``p0..p3`` and
the four acceleration parameters ``a0..a3``, extended by a central square
root ``w`` of the Minkowski square ``p.p = p0^2 - p1^2 - p2^2 - p3^2``, with
denominators restricted to powers of ``w``.

A :class:`Scalar` is stored as ``A + B*p0``, where ``A`` and ``B`` are sparse
polynomials in ``p1..p3`` and ``a0..a3`` with integer (Laurent) powers of
``hbar`` and ``w``.  The relation ``w^2 = p.p`` is applied as the rewrite
``p0^2 -> w^2 + p1^2 + p2^2 + p3^2``, so no stored monomial has p0-degree
above one.  Over the Laurent polynomials in ``w`` and the other variables,
``1`` and ``p0`` form a basis of the ring, so the stored form is unique and
equality is plain comparison of forms.  No operation divides by ``p.p``.

Monomials are packed into single ints with biased ``hbar`` and ``w`` fields
and guard bits, after Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007): a monomial product
is one integer addition, and an exponent that leaves its field raises
:class:`ExponentOverflow`.  Coefficients are reduced integer triples
``(a, b, d)`` for ``(a + b*i)/d``; :class:`GRat` is their public form.

Printing uses the form ``(A' + B'*w) / w^(2m)``, in which ``A'`` and ``B'``
are polynomials in ``p0..p3`` (``w^2`` never written) and ``m >= 0`` is
minimal.  It is built only for display, by :meth:`Scalar.display_monomials`,
which ``render``, ``latex`` and every other reader of printed monomials use.

Inverses exist only for units, i.e. coefficients of the shape
``c * w^k`` with ``c`` a nonzero Gaussian rational times a power of hbar;
anything else raises :class:`NonInvertibleCoefficient`, which signals a
modeling bug rather than a recoverable condition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd

from .conventions import SIGNATURE


class NonInvertibleCoefficient(ArithmeticError):
    """Inversion was attempted on a coefficient that is not c * w^k."""


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

    def conj(self) -> "GRat":
        out = GRat.__new__(GRat)
        out.a, out.b, out.d = self.a, -self.b, self.d
        return out

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
# A monomial hbar^h w^k p1^e1 p2^e2 p3^e3 a0^f0 a1^f1 a2^f2 a3^f3 is one int
# of ten _FW-bit fields, low to high: h, k, e1, e2, e3, f0..f3 and the total
# alpha-degree f0+f1+f2+f3.  h and k are stored plus _BIAS, so the product
# of two monomials has key k1 + k2 - _ONE.  The top bit of every field is a
# guard: it is clear in every valid key, and such a sum sets it in each field
# that left its range, so an overflow is seen, not wrapped into a neighbour.
# ---------------------------------------------------------------------------

_FW = 16
_BIAS = 1 << (_FW - 2)
_FIELD = (1 << (_FW - 1)) - 1
_FULL = (1 << _FW) - 1
_GUARD = sum(1 << (j * _FW + _FW - 1) for j in range(10))

_H = 1
_W = 1 << _FW
_P_SHIFT = (None, 2 * _FW, 3 * _FW, 4 * _FW)        # indexed by mu = 1..3
_A_SHIFT = (5 * _FW, 6 * _FW, 7 * _FW, 8 * _FW)
_DEG_SHIFT = 9 * _FW
_ONE = _BIAS * _H + _BIAS * _W
#: p0^2 = w^2 + p1^2 + p2^2 + p3^2: the key offsets of the four terms.
_P0SQ = (2 * _W,) + tuple(2 << _P_SHIFT[mu] for mu in (1, 2, 3))

_W_P_MASK = sum(_FULL << (j * _FW) for j in (1, 2, 3, 4))
_ALPHA_MASK = sum(_FULL << (j * _FW) for j in (5, 6, 7, 8, 9))


class ExponentOverflow(ArithmeticError):
    """An exponent left the range a packed monomial key holds."""


def _overflow():
    raise ExponentOverflow(
        f"exponents must lie in [{-_BIAS}, {_FIELD - _BIAS}] for hbar and w "
        f"and in [0, {_FIELD}] for p1..p3 and a0..a3")


def _key(h: int = 0, k: int = 0, mu: int = 0, alpha: int | None = None) -> int:
    """hbar^h w^k, times p^mu for mu in 1..3 and a^alpha if given."""
    if not (-_BIAS <= h <= _FIELD - _BIAS and -_BIAS <= k <= _FIELD - _BIAS):
        _overflow()
    key = _ONE + h * _H + k * _W
    if mu:
        key += 1 << _P_SHIFT[mu]
    if alpha is not None:
        key += (1 << _A_SHIFT[alpha]) + (1 << _DEG_SHIFT)
    return key


def _wexp(k: int) -> int:
    return ((k >> _FW) & _FIELD) - _BIAS


def _adeg(k: int) -> int:
    return (k >> _DEG_SHIFT) & _FIELD


def _unpack(k: int):
    """(h, e1, e2, e3, f0, f1, f2, f3, w-exponent) of a packed key."""
    return (((k & _FIELD) - _BIAS,)
            + tuple((k >> (j * _FW)) & _FIELD for j in range(2, 9))
            + (_wexp(k),))


# ---------------------------------------------------------------------------
# Sparse polynomial layer
#
# A polynomial is a dict mapping a packed key to a coefficient (a, b, d), the
# Gaussian rational (a + b*i)/d with d > 0 and gcd(a, b, d) == 1.  Products
# first collect unreduced triples in an accumulator; _finish reduces each
# surviving coefficient once and checks every key's guard bits.
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


def _finish(acc: dict) -> dict:
    """Reduced nonzero terms of a packed-key accumulator; checks the guards."""
    for k in acc:
        if k & _GUARD:
            _overflow()
    return _reduce(acc)


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


def _mul_parts(acc: tuple, f: "Scalar", g: "Scalar", c: int = 1) -> None:
    """acc += c * f * g, unreduced.

    ``acc`` is three packed-key accumulators ``(A, B, BB)`` for the parts of
    ``A + B*p0 + BB*p0^2``, created as ``({}, {}, {})``;
    :func:`_finish_parts` rewrites p0^2 and reduces.
    """
    # (A1 + B1 p0)(A2 + B2 p0) = A1A2 + B1B2 p0^2 + (A1B2 + B1A2) p0
    A, B, BB = acc
    A1, B1, A2, B2 = f._a, f._b, g._a, g._b
    if A1:
        if A2:
            _mul_into(A, A1, A2, c)
        if B2:
            _mul_into(B, A1, B2, c)
    if B1:
        if A2:
            _mul_into(B, B1, A2, c)
        if B2:
            _mul_into(BB, B1, B2, c)


def _finish_parts(acc: tuple) -> "Scalar":
    """The Scalar ``A + B*p0 + BB*p0^2`` of an accumulator, p0^2 rewritten."""
    A, B, BB = acc
    if BB:
        _add_p0sq_into(A, _finish(BB))
    return Scalar(_finish(A), _finish(B), 0, False)


def _add_p0sq_into(acc: dict, P: dict) -> None:
    """acc += p0^2 * P for a p0-free P, with p0^2 rewritten."""
    for k, (a, b, d) in P.items():
        for s in _P0SQ:
            _acc(acc, k + s, a, b, d)


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
    """Element of the coefficient ring, stored as ``A + B*p0``.

    ``A`` (``_a``) and ``B`` (``_b``) map packed monomials in hbar^+-, w^+-,
    p1..p3 and a0..a3 to reduced Gaussian-rational triples.  The printed form
    ``(A' + B'*w)/w^(2m)`` is derived from them by :meth:`display_monomials`;
    ``_m`` is its denominator order.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: dict | None = None, b: dict | None = None, m: int = 0,
                 normalize: bool = True):
        """The coefficient ``(a + b*p0) / w^(2m)`` over packed-key dicts.

        Coefficients are ``(a, b, d)`` triples with ``d > 0``.  With
        ``normalize`` (or ``m``) they are reduced and zeros dropped; without
        it they must already be reduced and nonzero.
        """
        a = a or {}
        b = b or {}
        if normalize or m:
            shift = _key(k=-2 * m) - _ONE
            a = _finish({k + shift: c for k, c in a.items()})
            b = _finish({k + shift: c for k, c in b.items()})
        self._a = a
        self._b = b

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls({}, {}, 0, False)

    @classmethod
    def one(cls) -> "Scalar":
        return cls({_ONE: (1, 0, 1)}, {}, 0, False)

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        q = _rational(q)
        if not q:
            return cls.zero()
        return cls({_ONE: (q.numerator, 0, q.denominator)}, {}, 0, False)

    @classmethod
    def from_grat(cls, g: GRat) -> "Scalar":
        if not g:
            return cls.zero()
        return cls({_ONE: (g.a, g.b, g.d)}, {}, 0, True)

    @classmethod
    def imag_unit(cls) -> "Scalar":
        return cls({_ONE: (0, 1, 1)}, {}, 0, False)

    @classmethod
    def hbar(cls, k: int = 1) -> "Scalar":
        return cls({_key(h=k): (1, 0, 1)}, {}, 0, False)

    @classmethod
    def p(cls, mu: int) -> "Scalar":
        """Contravariant momentum component p^mu."""
        if mu == 0:
            return cls({}, {_ONE: (1, 0, 1)}, 0, False)
        return cls({_key(mu=mu): (1, 0, 1)}, {}, 0, False)

    @classmethod
    def p_lower(cls, mu: int) -> "Scalar":
        """Lowered momentum component P_mu = eta_{mu mu} p^mu."""
        return cls.p(mu) * int(SIGNATURE[mu])

    @classmethod
    def alpha(cls, mu: int) -> "Scalar":
        """Contravariant acceleration parameter a^mu."""
        return cls({_key(alpha=mu): (1, 0, 1)}, {}, 0, False)

    @classmethod
    def w_pow(cls, k: int) -> "Scalar":
        """Any integer power of w."""
        return cls({_key(k=k): (1, 0, 1)}, {}, 0, False)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    @property
    def p_free(self) -> bool:
        """True when no monomial involves p or w (all p-derivatives vanish)."""
        if self._b:
            return False
        return all(k & _W_P_MASK == _BIAS * _W for k in self._a)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar)
                and self._a == other._a and self._b == other._b)

    def __hash__(self) -> int:
        return hash((frozenset(self._a.items()), frozenset(self._b.items())))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(_padd(self._a, other._a), _padd(self._b, other._b), 0, False)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(_padd(self._a, other._a, -1), _padd(self._b, other._b, -1),
                      0, False)

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return self.mih_shift(-1, 0)

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, int):
            return self.mih_shift(other, 0) if other else Scalar.zero()
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Scalar.zero()
        acc = ({}, {}, {})
        _mul_parts(acc, self, other)
        return _finish_parts(acc)

    __rmul__ = __mul__

    def mih_shift(self, c: int, k: int) -> "Scalar":
        """``c * (-i*hbar)^k * self`` for integers c != 0 and k.

        A monomial shift: each coefficient is rotated by (-i)^k and scaled by
        c, and k is added to every hbar exponent.
        """
        r = k % 4
        dk = k * _H

        def shift(P):
            out = {}
            for key, (a, b, d) in P.items():
                if r == 1:
                    a, b = b, -a
                elif r == 2:
                    a, b = -a, -b
                elif r == 3:
                    a, b = -b, a
                if c != 1:
                    g = _gcd(c, d)
                    a, b, d = a * (c // g), b * (c // g), d // g
                key += dk
                if key & _GUARD:
                    _overflow()
                out[key] = (a, b, d)
            return out

        return Scalar(shift(self._a), shift(self._b), 0, False)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.invert() ** (-n)
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def invert(self) -> "Scalar":
        """Inverse of a unit c * w^k; raises NonInvertibleCoefficient otherwise."""
        if self.is_zero:
            raise NonInvertibleCoefficient("zero is not invertible")
        if self._b or len(self._a) != 1:
            raise NonInvertibleCoefficient("coefficient is not c * w^k")
        (key, (a, b, d)), = self._a.items()
        if key & ~(_FULL * (_H | _W)):
            raise NonInvertibleCoefficient("coefficient is not c * w^k")
        # c * hbar^h * w^k -> (1/c) * hbar^-h * w^-k
        key = 2 * _ONE - key
        if key & _GUARD:
            _overflow()
        n = a * a + b * b
        g = _gcd(d * a, d * b, n)
        return Scalar({key: (d * a // g, -d * b // g, n // g)}, {}, 0, False)

    # -- calculus -----------------------------------------------------------

    def pderiv(self, nu: int) -> "Scalar":
        """Partial derivative with respect to p^nu (chain rule through w).

        The derivation d/dp^nu + (p_nu/w) d/dw on the stored form; it kills
        w^2 - p.p, so it needs no reduction beyond rewriting p0^2.
        """
        if self.is_zero:
            return self
        A, B = self._a, self._b
        a: dict = {}
        b: dict = {}
        if nu == 0:
            # d/dp0 (A + B p0) = B + (p0/w)(A_w + B_w p0), where p0^2 * B_w/w
            # = (w^2 + p1^2 + p2^2 + p3^2) * B_w/w.
            for k, (x, y, d) in B.items():
                _acc(a, k, x, y, d)
                e = _wexp(k)
                if e:
                    k2 = k - 2 * _W
                    for s in _P0SQ:
                        _acc(a, k2 + s, x * e, y * e, d)
            for k, (x, y, d) in A.items():
                e = _wexp(k)
                if e:
                    _acc(b, k - 2 * _W, x * e, y * e, d)
        else:
            # p_nu = -p^nu for a spatial nu.
            shift = _P_SHIFT[nu]
            down = 1 << shift
            up = down - 2 * _W
            for P, out in ((A, a), (B, b)):
                for k, (x, y, d) in P.items():
                    e = (k >> shift) & _FIELD
                    if e:
                        _acc(out, k - down, x * e, y * e, d)
                    e = _wexp(k)
                    if e:
                        _acc(out, k + up, -x * e, -y * e, d)
        return Scalar(_finish(a), _finish(b), 0, False)

    def conj_i(self) -> "Scalar":
        """Complex conjugation i -> -i; p, alpha, hbar, w are fixed."""
        return Scalar({k: (a, -b, d) for k, (a, b, d) in self._a.items()},
                      {k: (a, -b, d) for k, (a, b, d) in self._b.items()},
                      0, False)

    # -- alpha grading ------------------------------------------------------

    def alpha_degree(self) -> int:
        """Maximal total degree in a0..a3; -1 for the zero scalar."""
        return max((_adeg(k) for P in (self._a, self._b) for k in P), default=-1)

    def alpha_min_degree(self) -> int:
        """Minimal total degree in a0..a3; -1 for the zero scalar."""
        if self.is_zero:
            return -1
        return min(_adeg(k) for P in (self._a, self._b) for k in P)

    def alpha_truncate(self, n: int) -> "Scalar":
        """Drop every monomial of alpha-degree above n."""
        return Scalar({k: c for k, c in self._a.items() if _adeg(k) <= n},
                      {k: c for k, c in self._b.items() if _adeg(k) <= n}, 0, False)

    def alpha_part(self, n: int) -> "Scalar":
        """Keep only the monomials of alpha-degree exactly n."""
        return Scalar({k: c for k, c in self._a.items() if _adeg(k) == n},
                      {k: c for k, c in self._b.items() if _adeg(k) == n}, 0, False)

    def subst_alpha(self, values) -> "Scalar":
        """Substitute rational numbers for the four alpha parameters."""
        vals = [_rational(v) for v in values]
        out = []
        for P in (self._a, self._b):
            acc: dict = {}
            for k, (a, b, d) in P.items():
                f = Fraction(1)
                for j in range(4):
                    e = (k >> _A_SHIFT[j]) & _FIELD
                    if e:
                        f *= vals[j] ** e
                if f:
                    _acc(acc, k & ~_ALPHA_MASK, a * f.numerator, b * f.numerator,
                         d * f.denominator)
            out.append(_finish(acc))
        return Scalar(out[0], out[1], 0, False)

    # -- display form -------------------------------------------------------

    @property
    def _m(self) -> int:
        """Denominator order m of the display form (A + B*w)/w^(2m)."""
        if self.is_zero:
            return 0
        kmin = min(_wexp(k) for P in (self._a, self._b) for k in P)
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
        for e0, P in ((0, self._a), (1, self._b)):
            for k, (a, b, d) in P.items():
                h, e1, e2, e3, f0, f1, f2, f3, kw = _unpack(k)
                q, r = divmod(kw + 2 * m, 2)
                base = (h, e0, e1, e2, e3, f0, f1, f2, f3)
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
        if self.is_zero:
            return "0"
        parts = [_mono_str(k, w, c) for k, w, c in self.display_monomials(reverse)]
        out = parts[0]
        for s in parts[1:]:
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        parts = [_mono_latex(k, w, c) for k, w, c in self.display_monomials()]
        out = parts[0]
        for s in parts[1:]:
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out

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


def _frac_str(q: Fraction) -> str:
    return str(q)


def _coeff_str(c: GRat):
    """Return (text, needs_sep) for a Gaussian rational coefficient."""
    if not c.im:
        return _frac_str(c.re), True
    if not c.re:
        if c.im == 1:
            return "i", True
        if c.im == -1:
            return "-i", True
        return f"{_frac_str(c.im)}*i", True
    im = c.im
    sign = "+" if im > 0 else "-"
    im_abs = abs(im)
    im_part = "i" if im_abs == 1 else f"{_frac_str(im_abs)}*i"
    return f"({_frac_str(c.re)} {sign} {im_part})", True


def _mono_str(k, wexp: int, c: GRat) -> str:
    factors = []
    h = k[0]
    if h:
        factors.append("hbar" if h == 1 else f"hbar^{h}")
    for j in range(4):
        e = k[1 + j]
        if e:
            factors.append(f"p{j}" if e == 1 else f"p{j}^{e}")
    for j in range(4):
        e = k[5 + j]
        if e:
            factors.append(f"a{j}" if e == 1 else f"a{j}^{e}")
    if wexp:
        factors.append("w" if wexp == 1 else f"w^{wexp}")
    cs, _ = _coeff_str(c)
    if not factors:
        return cs
    body = "*".join(factors)
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return f"{cs}*{body}"


def _mono_latex(k, wexp: int, c: GRat) -> str:
    factors = []
    h = k[0]
    if h:
        factors.append(r"\hbar" if h == 1 else r"\hbar^{%d}" % h)
    for j in range(4):
        e = k[1 + j]
        if e:
            factors.append("p^{%d}" % j if e == 1 else "(p^{%d})^{%d}" % (j, e))
    for j in range(4):
        e = k[5 + j]
        if e:
            factors.append(r"\alpha^{%d}" % j if e == 1 else r"(\alpha^{%d})^{%d}" % (j, e))
    if wexp:
        factors.append("w" if wexp == 1 else "w^{%d}" % wexp)
    if not c.im:
        q = c.re
        cs = _frac_latex(q)
    elif not c.re:
        cs = ("i" if c.im == 1 else "-i" if c.im == -1 else _frac_latex(c.im) + " i")
    else:
        sign = "+" if c.im > 0 else "-"
        im_abs = abs(c.im)
        im_part = "i" if im_abs == 1 else _frac_latex(im_abs) + " i"
        cs = r"\left(%s %s %s\right)" % (_frac_latex(c.re), sign, im_part)
    if not factors:
        return cs
    body = r" \, ".join(factors)
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return cs + r" \, " + body


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    s = r"\tfrac{%d}{%d}" % (abs(q.numerator), q.denominator)
    return "-" + s if q < 0 else s
