"""Expression language and command-line interface.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ['^' nat]
    atom   := ident ['[' idx {',' idx} ']']
            | number | 'i' | 'hbar' | 'alpha' '[' idx ']'
            | '(' expr ')'
            | func '(' ... ')'

Precedence: unary minus > '^' > '*' > binary +/- (so ``-M^2`` is ``(-M)^2``).
Numbers are nonnegative rationals (``3`` or ``3/4``); a zero denominator is
a parse error, and there is no division operator.  Functions:
``comm(a, b)``, ``dot(a, b)``, ``adj(a)``, ``pow(a, n)``, ``conj(a)`` /
``conj(a; order=N)`` and its inverse-parameter variant ``conjinv``.
Exponents and orders are bounded by the work budgets ``MAX_POWER``,
``MAX_MONOMIAL_POWER``, ``MAX_NUMBER_DIGITS`` and ``MAX_ORDER``.

Observable references use catalog names with lowered indices
(``P[0]``, ``J[0,1]``, ``Xh[2]``, ``xc[3]``, ``gamma[1]``, ``gamma5``, ``M``,
``Mabs``, ``eps``, ``D``, ``C[0]``, ``W[1]``, ``Svec[2]``, ``S[0,1]``,
``Sdual[0,1]``, ``sspin[0,1]``, ``sdual[0,1]``, ``V[0]``) plus contracted
shorthands (``P2``, ``W2``, ``x2``, ``X2``, ``alpha2``, ``Minv2``).  Frame
quantities are exposed for the identity manifest: ``laminv``, ``lam``,
``vb[m,n]``, ``vbraw[m,n]``, ``dvb[r,m,n]``, ``dxbar[m,r]``, ``Evb[m,n]``,
``EvbL[m,n]``, ``dEvb[r,m,n]``, ``ddvbP[m]``.  Einstein summation is never
implicit.

:func:`evaluate` gives the normal form.  ``order`` is the order of every
frame series written without one; with ``exact=False`` every product and the
result are truncated at alpha-degree ``order``, the rule of ``@ order N``.

Subcommands: ``eval``, ``check``, ``conjugate``, ``snapshot``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import observables as obs
from .conventions import DEFAULT_ORDER
from .ncalg import NCElement, bracket_truncated, dot_truncated, mul_truncated
from .observables import UnknownObservable
from .scalars import ExponentOverflow, Scalar

ENV_ORDER = "DIRACOBS_ORDER"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected=()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        text = f"{line}:{column}: {message}"
        if self.expected:
            text += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(text)


class EvalError(ValueError):
    def __init__(self, message: str, span):
        self.message = message
        self.span = span
        super().__init__(f"at {span[0]}..{span[1]}: {message}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    """An expression node.  Each subclass lists its fields with their
    defaults in ``_fields``; nodes are immutable, and they compare and hash
    by type and fields.  ``span``, the node's source interval, takes no part
    in either."""

    __slots__ = ("span",)
    _fields: dict = {}

    def __init__(self, span: tuple = (0, 0), **fields):
        unknown = fields.keys() - self._fields.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unexpected field(s) "
                            + ", ".join(sorted(unknown)))
        init = object.__setattr__
        init(self, "span", span)
        for name, default in self._fields.items():
            init(self, name, fields.get(name, default))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in ("span", *self._fields))
        return f"{type(self).__name__}({fields})"


class Num(Node):
    _fields = {"value": Fraction(0)}
    __slots__ = tuple(_fields)


class Imag(Node):
    __slots__ = ()


class Hbar(Node):
    __slots__ = ()


class Alpha(Node):
    _fields = {"mu": 0}
    __slots__ = tuple(_fields)


class Ref(Node):
    _fields = {"name": "", "indices": ()}
    __slots__ = tuple(_fields)


class Neg(Node):
    _fields = {"a": None}
    __slots__ = tuple(_fields)


class Pow(Node):
    _fields = {"a": None, "n": 0}
    __slots__ = tuple(_fields)


class Prod(Node):
    _fields = {"factors": ()}
    __slots__ = tuple(_fields)


class Sum(Node):
    # terms: ((sign, node), ...) with sign in {+1, -1}
    _fields = {"terms": ()}
    __slots__ = tuple(_fields)


class Comm(Node):
    _fields = {"a": None, "b": None}
    __slots__ = tuple(_fields)


class DotOp(Node):
    _fields = {"a": None, "b": None}
    __slots__ = tuple(_fields)


class Adj(Node):
    _fields = {"a": None}
    __slots__ = tuple(_fields)


class Conj(Node):
    # order: int, or None for the order of the evaluation
    _fields = {"a": None, "order": None, "inverse": False}
    __slots__ = tuple(_fields)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*^()\[\],;=])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            line, col = _line_col(src, pos)
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(Token(m.lastgroup, m.group(), m.start()))
    tokens.append(Token("eof", "", len(src)))
    return tokens


def _line_col(src: str, pos: int):
    line = src.count("\n", 0, pos) + 1
    last_nl = src.rfind("\n", 0, pos)
    return line, pos - (last_nl + 1) + 1


_FUNCS = ("comm", "dot", "adj", "conj", "conjinv", "pow")


#: Deepest nesting of parenthesised expressions and function arguments.  It
#: keeps parsing, evaluation and rendering far from the interpreter's
#: recursion limit.
MAX_DEPTH = 100

#: Work budgets.  The shipped manifest raises nothing above the power 2 and
#: is run up to order 6; past a budget the input is an error, not a long run.
#: Operator powers grow fast (``C[0]^8`` has ~12k monomials and takes ~6 s,
#: ``Xh[0]^24`` ~1 s), so ``a^n`` and ``pow(a, n)`` allow n <= MAX_POWER.
MAX_POWER = 8
#: A literal monomial base (a number, ``i``, ``hbar`` or ``alpha[mu]``,
#: possibly negated) has a one-monomial power.  Its budget is the span of a
#: packed hbar exponent, so ``hbar^16384`` still reports its overflow.
MAX_MONOMIAL_POWER = 1 << 15
#: A number base with a numerator or denominator above 1 in absolute value
#: grows in digits: its budget is this over the digits of the larger one, so
#: the power prints within CPython's default 4300-digit int-string limit.
MAX_NUMBER_DIGITS = 4300
#: Largest truncation order of ``--order``, ``$DIRACOBS_ORDER``,
#: ``conj(a; order=N)`` and a manifest's ``@ order N``.  A frame series
#: costs ~2.5x more per order.
MAX_ORDER = 10


def _power_limit(base: "Node") -> int:
    """The exponent budget of ``base^n`` and ``pow(base, n)``."""
    while isinstance(base, Neg):
        base = base.a
    if isinstance(base, Num):
        big = max(abs(base.value.numerator), base.value.denominator)
        if big > 1:
            return MAX_NUMBER_DIGITS // len(str(big))
    return MAX_MONOMIAL_POWER if isinstance(base, (Num, Imag, Hbar, Alpha)) else MAX_POWER


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message: str, expected=()):
        t = self.peek()
        line, col = _line_col(self.src, t.pos)
        raise ParseError(message, line, col, expected)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.error(f"got {t.text!r}" if t.text else "unexpected end of input",
                       expected=(repr(text),))
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "eof":
            self.error(f"trailing input {self.peek().text!r}", expected=("end of input",))
        return node

    def expr(self) -> Node:
        if self.depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        start = self.peek().pos
        first = self.term()
        terms = [(1, first)]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            terms.append((sign, self.term()))
        self.depth -= 1
        if len(terms) == 1:
            return first
        return Sum(span=(start, self._end()), terms=tuple(terms))

    def term(self) -> Node:
        start = self.peek().pos
        factors = [self.factor()]
        while self.peek().text == "*":
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(span=(start, self._end()), factors=tuple(factors))

    def factor(self) -> Node:
        start = self.peek().pos
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        node = self.atom()
        if neg:
            node = Neg(span=(start, self._end()), a=node)
        if self.peek().text == "^":
            self.next()
            n = self.nat(_power_limit(node))
            node = Pow(span=(start, self._end()), a=node, n=n)
        return node

    def nat(self, limit: int, what: str = "exponent") -> int:
        t = self.peek()
        if t.kind != "number" or "/" in t.text:
            self.error(f"{what} must be a nonnegative integer",
                       expected=("natural number",))
        n = int(t.text)
        if n > limit:
            self.error(f"{what} {n} is above the limit {limit}")
        self.next()
        return n

    def index(self) -> int:
        t = self.peek()
        if t.kind != "number" or "/" in t.text:
            self.error("index must be an integer 0..3", expected=("index 0..3",))
        v = int(t.text)
        if not 0 <= v <= 3:
            self.error(f"index {v} out of range", expected=("index 0..3",))
        self.next()
        return v

    def atom(self) -> Node:
        t = self.peek()
        start = t.pos
        if t.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "number":
            den = t.text.partition("/")[2]
            if den and not int(den):
                self.error("zero denominator")
            self.next()
            return Num(span=(start, self._end()), value=Fraction(t.text))
        if t.kind == "ident":
            name = t.text
            if name == "i":
                self.next()
                return Imag(span=(start, self._end()))
            if name == "hbar":
                self.next()
                return Hbar(span=(start, self._end()))
            if name == "alpha":
                self.next()
                self.expect("[")
                mu = self.index()
                self.expect("]")
                return Alpha(span=(start, self._end()), mu=mu)
            if name in _FUNCS:
                return self.func(name)
            self.next()
            indices = ()
            if self.peek().text == "[":
                self.next()
                idx = [self.index()]
                while self.peek().text == ",":
                    self.next()
                    idx.append(self.index())
                self.expect("]")
                indices = tuple(idx)
            return Ref(span=(start, self._end()), name=name, indices=indices)
        self.error(f"got {t.text!r}" if t.text else "unexpected end of input",
                   expected=("expression",))

    def func(self, name: str) -> Node:
        start = self.peek().pos
        self.next()
        self.expect("(")
        if name in ("comm", "dot"):
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            cls = Comm if name == "comm" else DotOp
            return cls(span=(start, self._end()), a=a, b=b)
        if name == "adj":
            a = self.expr()
            self.expect(")")
            return Adj(span=(start, self._end()), a=a)
        if name == "pow":
            a = self.expr()
            self.expect(",")
            n = self.nat(_power_limit(a))
            self.expect(")")
            return Pow(span=(start, self._end()), a=a, n=n)
        # conj / conjinv, with optional "; order=N"
        a = self.expr()
        order = None
        if self.peek().text == ";":
            self.next()
            t = self.peek()
            if t.kind != "ident" or t.text != "order":
                self.error("expected order=N after ';'", expected=("order",))
            self.next()
            self.expect("=")
            order = self.nat(MAX_ORDER, "order")
        self.expect(")")
        return Conj(span=(start, self._end()), a=a, order=order,
                    inverse=(name == "conjinv"))

    def _end(self) -> int:
        return self.toks[self.i - 1].pos + len(self.toks[self.i - 1].text)


def parse(src: str) -> Node:
    """Parse an expression; raises ParseError with line/column on failure."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Rendering expressions (round-trips through parse)
# ---------------------------------------------------------------------------

_ATOMIC = (Num, Imag, Hbar, Alpha, Ref, Comm, DotOp, Adj, Conj)


def render_expr(node: Node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Hbar):
        return "hbar"
    if isinstance(node, Alpha):
        return f"alpha[{node.mu}]"
    if isinstance(node, Ref):
        if node.indices:
            return node.name + "[" + ",".join(map(str, node.indices)) + "]"
        return node.name
    if isinstance(node, Neg):
        inner = render_expr(node.a)
        if not isinstance(node.a, _ATOMIC):
            inner = "(" + inner + ")"
        return "-" + inner
    if isinstance(node, Pow):
        base = node.a
        if isinstance(base, Neg) and isinstance(base.a, _ATOMIC):
            return render_expr(base) + f"^{node.n}"
        inner = render_expr(base)
        if not isinstance(base, _ATOMIC):
            inner = "(" + inner + ")"
        return inner + f"^{node.n}"
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            s = render_expr(f)
            if isinstance(f, (Sum, Prod)):
                # parentheses keep nested structure through the reparse
                s = "(" + s + ")"
            elif isinstance(f, Neg) and parts:
                # only a leading factor may carry a bare unary minus
                s = "(" + s + ")"
            parts.append(s)
        return "*".join(parts)
    if isinstance(node, Sum):
        out = ""
        for k, (sign, t) in enumerate(node.terms):
            s = render_expr(t)
            if isinstance(t, Sum):
                s = "(" + s + ")"
            if k == 0:
                out = s if sign > 0 else "-(" + s + ")"
            else:
                out += (" + " if sign > 0 else " - ") + s
        return out
    if isinstance(node, Comm):
        return f"comm({render_expr(node.a)}, {render_expr(node.b)})"
    if isinstance(node, DotOp):
        return f"dot({render_expr(node.a)}, {render_expr(node.b)})"
    if isinstance(node, Adj):
        return f"adj({render_expr(node.a)})"
    if isinstance(node, Conj):
        name = "conjinv" if node.inverse else "conj"
        if node.order is None:
            return f"{name}({render_expr(node.a)})"
        return f"{name}({render_expr(node.a)}; order={node.order})"
    raise TypeError(f"cannot render {node!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: Frame quantities: name -> (number of indices, build(frames, order, *indices)).
#: ``frames`` is imported on the first use of a frame quantity, so that a
#: launch that evaluates none does not import it.  Each build is handed the
#: module and looks its function up when called, so a rebound ``frames``
#: attribute (as in ``bench/tracing.py``) is the one that runs.
_FRAME_QUANTITIES = {
    "laminv": (0, lambda f, order: f.conformal_factor_inv()),
    "lam": (0, lambda f, order: f.conformal_factor(order)),
    "vb": (2, lambda f, order, m, n: f.vierbein(m, n)),
    "vbraw": (2, lambda f, order, m, n: f.vierbein_raw(m, n, order)),
    "dvb": (3, lambda f, order, r, m, n: f.xderiv_up(f.vierbein(m, n), r)),
    "dxbar": (2, lambda f, order, m, r: f.dxbar(m, r, order)),
    "Evb": (2, lambda f, order, m, n: f.E(m, n)),
    "EvbL": (2, lambda f, order, m, n: f.E_left(m, n)),
    "dEvb": (3, lambda f, order, r, m, n: f.on_hermitian_positions(
        f.xderiv_up(f.vierbein(m, n), r))),
    "ddvbP": (1, lambda f, order, m: f.ddE_P(m)),
}


def is_defined_name(name: str) -> bool:
    """Whether ``name`` already means something in an expression: a keyword,
    a function, a frame quantity or a catalog observable."""
    return (name in ("i", "hbar", "alpha", "order") or name in _FUNCS
            or name in _FRAME_QUANTITIES or name in obs.catalog_names())


def evaluate(node: Node, order: int = DEFAULT_ORDER, exact: bool = True) -> NCElement:
    """Evaluate an expression to its normal form at ``order`` (see the module
    docstring).  Truncating every product is sound for ``exact=False``
    because no operation lowers the alpha-degree of a monomial."""
    if exact:
        return _eval(node, order, None)
    return _eval(node, order, order).alpha_truncate(order)


def _eval(node: Node, order: int, amax: int | None) -> NCElement:
    if isinstance(node, Num):
        return NCElement.from_scalar(Scalar.from_rational(node.value))
    if isinstance(node, Imag):
        return NCElement.from_scalar(Scalar.imag_unit())
    if isinstance(node, Hbar):
        return NCElement.from_scalar(Scalar.hbar())
    if isinstance(node, Alpha):
        return NCElement.from_scalar(Scalar.alpha(node.mu))
    if isinstance(node, Ref):
        name, idx = node.name, node.indices
        if name in _FRAME_QUANTITIES:
            arity, build = _FRAME_QUANTITIES[name]
            if len(idx) != arity:
                raise EvalError(f"{name} takes {arity} index(es), got {len(idx)}",
                                node.span)
            from . import frames
            return build(frames, order, *idx)
        try:
            return obs.build(name, *idx)
        except UnknownObservable as e:
            raise EvalError(f"unknown observable: {e.args[0]}", node.span) from None
    if isinstance(node, Neg):
        return -_eval(node.a, order, amax)
    if isinstance(node, Pow):
        base = _eval(node.a, order, amax)
        out = NCElement.one()
        for _ in range(node.n):
            out = mul_truncated(out, base, amax)
        return out
    if isinstance(node, Prod):
        out = _eval(node.factors[0], order, amax)
        for f in node.factors[1:]:
            out = mul_truncated(out, _eval(f, order, amax), amax)
        return out
    if isinstance(node, Sum):
        out = NCElement.zero()
        for sign, t in node.terms:
            v = _eval(t, order, amax)
            out = out + v if sign > 0 else out - v
        return out
    if isinstance(node, (Comm, DotOp)):
        op = bracket_truncated if isinstance(node, Comm) else dot_truncated
        return op(_eval(node.a, order, amax), _eval(node.b, order, amax), amax)
    if isinstance(node, Adj):
        return obs.adjoint(_eval(node.a, order, amax))
    if isinstance(node, Conj):
        n = order if node.order is None else node.order
        sign = -1 if node.inverse else 1
        a = node.a
        from . import frames
        if isinstance(a, Ref) and a.name not in _FRAME_QUANTITIES:
            # cached path shared across suite entries
            try:
                return frames.conjugate_named(a.name, a.indices, n, sign)
            except UnknownObservable as e:
                raise EvalError(f"unknown observable: {e.args[0]}", a.span) from None
        return frames.conjugate(_eval(a, order, amax), n, sign)
    raise EvalError("unsupported expression node", getattr(node, "span", (0, 0)))


def eval_text(src: str, order: int = DEFAULT_ORDER, exact: bool = True) -> NCElement:
    return evaluate(parse(src), order, exact)


# ---------------------------------------------------------------------------
# Element rendering for the CLI
# ---------------------------------------------------------------------------

def render_element(el: NCElement, fmt: str = "plain", alias_gamma5: bool = False) -> str:
    if fmt == "plain":
        return el.render(alias_gamma5=alias_gamma5)
    if fmt == "latex":
        return el.latex()
    if fmt == "json":
        import json
        return json.dumps({"monomials": el.to_json()}, sort_keys=True, indent=2)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _order_arg(text: str) -> int:
    """A truncation order: an integer 0..MAX_ORDER (the ``--order`` type)."""
    try:
        order = int(text)
    except ValueError:
        order = -1
    if order < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    if order > MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_ORDER}, got {text!r}")
    return order


def _default_order() -> int:
    """The truncation order from $DIRACOBS_ORDER; ValueError if it is malformed."""
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return DEFAULT_ORDER
    try:
        return _order_arg(raw)
    except argparse.ArgumentTypeError as e:
        raise ValueError(f"{ENV_ORDER} {e}") from None


def _build_argparser() -> argparse.ArgumentParser:
    order = _default_order()
    ap = argparse.ArgumentParser(
        prog="diracobs",
        description="Exact operator algebra for a localized spin-1/2 particle: "
                    "evaluate expressions, verify identities, compute frame shifts.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to normal form")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("expr")
    p_eval.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    p_eval.add_argument("--order", type=_order_arg, default=order)
    p_eval.add_argument("--gamma5-alias", action="store_true",
                        help="render i*g0 g1 g2 g3 monomials as gamma5")

    p_check = sub.add_parser("check", help="run the identity suite")
    p_check.set_defaults(run=_cmd_check)
    p_check.add_argument("--manifest", default=None,
                         help="manifest path (default: shipped manifest)")
    p_check.add_argument("--order", type=_order_arg, default=order)
    p_check.add_argument("--filter", default=None, help="entry-name prefix filter")
    p_check.add_argument("--format", choices=("md", "json"), default="md")

    p_conj = sub.add_parser("conjugate", help="accelerated-frame shift of an expression")
    p_conj.set_defaults(run=_cmd_conjugate)
    p_conj.add_argument("expr")
    p_conj.add_argument("--order", type=_order_arg, default=order)
    p_conj.add_argument("--alpha", default=None,
                        help="rational substitution r0,r1,r2,r3 for the parameters")
    p_conj.add_argument("--format", choices=("plain", "latex", "json"), default="plain")

    p_snap = sub.add_parser("snapshot", help="write golden normal-form snapshots")
    p_snap.set_defaults(run=_cmd_snapshot)
    p_snap.add_argument("names", nargs="+",
                        help="catalog references, e.g. Xh[0] C[2] M")
    p_snap.add_argument("--out", required=True)
    p_snap.add_argument("--monomial-order", choices=("default", "reversed"),
                        default="default")
    return ap


def _cmd_eval(args) -> int:
    el = eval_text(args.expr, args.order)
    print(render_element(el, args.format, alias_gamma5=args.gamma5_alias))
    return 0


def _cmd_check(args) -> int:
    from . import suite
    if args.manifest:
        with open(args.manifest, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = suite.load_default_manifest()
    entries = suite.parse_manifest(text, args.order)
    report = suite.run_suite(entries, order=args.order, name_filter=args.filter)
    if not report["entries"]:
        raise ValueError("no manifest entries selected"
                         + (f" by --filter {args.filter!r}" if args.filter else ""))
    if args.format == "json":
        print(suite.report_json(report))
    else:
        print(suite.report_markdown(report))
    return 0 if report["totals"]["fail"] == 0 and report["totals"]["error"] == 0 else 1


#: An ``--alpha`` value: a rational literal of the expression language, signed.
#: Decimal and exponent forms are refused; ``1e-99999999`` would build a
#: 10^8-digit integer.
_ALPHA_VALUE_RE = re.compile(r"-?\d+(?:/\d+)?")


def _alpha_values(text: str) -> list:
    """The four rationals of ``--alpha r0,r1,r2,r3``; ValueError if malformed."""
    vals = []
    for v in text.split(","):
        v = v.strip()
        if not _ALPHA_VALUE_RE.fullmatch(v):
            raise ValueError(f"--alpha value {v!r} is not a rational n or n/d")
        try:
            vals.append(Fraction(v))
        except ZeroDivisionError:
            raise ValueError(f"--alpha value {v!r} has a zero denominator") from None
    if len(vals) != 4:
        raise ValueError("--alpha needs exactly four rationals r0,r1,r2,r3")
    return vals


def _cmd_conjugate(args) -> int:
    vals = None if args.alpha is None else _alpha_values(args.alpha)
    out = evaluate(Conj(a=parse(args.expr), order=args.order), args.order)
    if vals is not None:
        out = out.subst_alpha(vals)
    print(render_element(out, args.format))
    return 0


def _cmd_snapshot(args) -> int:
    from . import suite
    paths = suite.golden_snapshot(args.names, args.out,
                                  monomial_order=args.monomial_order)
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has gone: end quietly, with fd 1 on the null
        # device, so that the interpreter's exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UnknownObservable, ExponentOverflow, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
