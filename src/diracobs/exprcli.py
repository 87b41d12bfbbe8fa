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
Numbers are nonnegative rationals (``3`` or ``3/4``); there is no division
operator.  Functions: ``comm(a, b)``, ``dot(a, b)``, ``adj(a)``,
``pow(a, n)``, ``conj(a)`` / ``conj(a; order=N)`` and its inverse-parameter
variant ``conjinv``.  Exponents and orders are bounded by the work budgets
``MAX_POWER``, ``MAX_MONOMIAL_POWER`` and ``MAX_ORDER``.

Observable references use catalog names with lowered indices
(``P[0]``, ``J[0,1]``, ``Xh[2]``, ``xc[3]``, ``gamma[1]``, ``gamma5``, ``M``,
``Mabs``, ``eps``, ``D``, ``C[0]``, ``W[1]``, ``Svec[2]``, ``S[0,1]``,
``Sdual[0,1]``, ``sspin[0,1]``, ``sdual[0,1]``, ``V[0]``) plus contracted
shorthands (``P2``, ``W2``, ``x2``, ``X2``, ``alpha2``, ``Minv2``).  Frame
quantities are exposed for the identity manifest: ``laminv``, ``lam``,
``vb[m,n]``, ``vbraw[m,n]``, ``dvb[r,m,n]``, ``dxbar[m,r]``, ``Evb[m,n]``,
``EvbL[m,n]``, ``dEvb[r,m,n]``, ``ddvbP[m]``.  Einstein summation is never
implicit.

Subcommands: ``eval``, ``check``, ``conjugate``, ``snapshot``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import frames, observables as obs
from .conventions import DEFAULT_ORDER
from .ncalg import (NCElement, PolyForm, bracket_truncated, dot_truncated,
                    mul_truncated, poly_eval_sym)
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

@dataclass(frozen=True)
class Node:
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class Imag(Node):
    pass


@dataclass(frozen=True)
class Hbar(Node):
    pass


@dataclass(frozen=True)
class Alpha(Node):
    mu: int = 0


@dataclass(frozen=True)
class Ref(Node):
    name: str = ""
    indices: tuple = ()


@dataclass(frozen=True)
class Neg(Node):
    a: Node = None


@dataclass(frozen=True)
class Pow(Node):
    a: Node = None
    n: int = 0


@dataclass(frozen=True)
class Prod(Node):
    factors: tuple = ()


@dataclass(frozen=True)
class Sum(Node):
    # terms: ((sign, node), ...) with sign in {+1, -1}
    terms: tuple = ()


@dataclass(frozen=True)
class Comm(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class DotOp(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Adj(Node):
    a: Node = None


@dataclass(frozen=True)
class Conj(Node):
    a: Node = None
    order: object = None  # int or None (config default)
    inverse: bool = False


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*^()\[\],;=])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    text: str
    pos: int


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
#: Largest truncation order of ``--order``, ``$DIRACOBS_ORDER``,
#: ``conj(a; order=N)`` and a manifest's ``@ order N``.  A frame series
#: costs ~2.5x more per order.
MAX_ORDER = 10


def _power_limit(base: "Node") -> int:
    """The exponent budget of ``base^n`` and ``pow(base, n)``."""
    while isinstance(base, Neg):
        base = base.a
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

@dataclass
class EvalConfig:
    order: int = DEFAULT_ORDER
    #: When set, every product/bracket is truncated at this alpha-degree;
    #: ``None`` computes the plain products.
    #: Sound for residuals checked up to that order: no operation lowers the
    #: alpha-degree of a monomial.
    alpha_max: int | None = None


def _frame_builtin(name: str, idx: tuple, order: int):
    if name == "laminv":
        return frames.conformal_factor_inv()
    if name == "lam":
        return frames.conformal_factor(order)
    if name == "vb":
        return frames.vierbein(*idx)
    if name == "vbraw":
        return frames.vierbein_raw(idx[0], idx[1], order)
    if name == "dvb":
        r, m, n = idx
        return frames.xderiv_up(frames.vierbein(m, n), r)
    if name == "dxbar":
        m, r = idx
        return frames.xderiv(frames.xbar_up(r, order), m)
    if name == "Evb":
        return frames.E(*idx)
    if name == "EvbL":
        return frames.E_left(*idx)
    if name == "dEvb":
        r, m, n = idx
        de = frames.xderiv_up(frames.vierbein(m, n), r)
        return poly_eval_sym(PolyForm.from_element(de), frames._X_args())
    if name == "ddvbP":
        return frames.ddE_P(idx[0])
    return None


_FRAME_ARITY = {"laminv": 0, "lam": 0, "vb": 2, "vbraw": 2, "dvb": 3,
                "dxbar": 2, "Evb": 2, "EvbL": 2, "dEvb": 3, "ddvbP": 1}


def is_defined_name(name: str) -> bool:
    """Whether ``name`` already means something in an expression: a keyword,
    a function, a frame quantity or a catalog observable."""
    return (name in ("i", "hbar", "alpha", "order") or name in _FUNCS
            or name in _FRAME_ARITY or name in obs.catalog_names())


def evaluate(node: Node, config: EvalConfig | None = None) -> NCElement:
    """Evaluate an expression to its normal form."""
    config = config or EvalConfig()
    return _eval(node, config)


def _eval(node: Node, cfg: EvalConfig) -> NCElement:
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
        if name in _FRAME_ARITY:
            if len(idx) != _FRAME_ARITY[name]:
                raise EvalError(f"{name} takes {_FRAME_ARITY[name]} index(es)", node.span)
            return _frame_builtin(name, idx, cfg.order)
        try:
            return obs.build(name, *idx)
        except UnknownObservable as e:
            raise EvalError(f"unknown observable: {e.args[0]}", node.span) from None
    if isinstance(node, Neg):
        return -_eval(node.a, cfg)
    if isinstance(node, Pow):
        base = _eval(node.a, cfg)
        out = NCElement.one()
        for _ in range(node.n):
            out = mul_truncated(out, base, cfg.alpha_max)
        return out
    if isinstance(node, Prod):
        out = _eval(node.factors[0], cfg)
        for f in node.factors[1:]:
            out = mul_truncated(out, _eval(f, cfg), cfg.alpha_max)
        return out
    if isinstance(node, Sum):
        out = NCElement.zero()
        for sign, t in node.terms:
            v = _eval(t, cfg)
            out = out + v if sign > 0 else out - v
        return out
    if isinstance(node, Comm):
        return bracket_truncated(_eval(node.a, cfg), _eval(node.b, cfg), cfg.alpha_max)
    if isinstance(node, DotOp):
        return dot_truncated(_eval(node.a, cfg), _eval(node.b, cfg), cfg.alpha_max)
    if isinstance(node, Adj):
        return obs.adjoint(_eval(node.a, cfg))
    if isinstance(node, Conj):
        order = node.order if node.order is not None else cfg.order
        sign = -1 if node.inverse else 1
        a = node.a
        if isinstance(a, Ref) and a.name not in _FRAME_ARITY:
            # cached path shared across suite entries
            try:
                return frames.conjugate_named(a.name, a.indices, order, sign)
            except UnknownObservable as e:
                raise EvalError(f"unknown observable: {e.args[0]}", a.span) from None
        return frames.conjugate(_eval(a, cfg), order, sign)
    raise EvalError("unsupported expression node", getattr(node, "span", (0, 0)))


def eval_text(src: str, config: EvalConfig | None = None) -> NCElement:
    return evaluate(parse(src), config)


# ---------------------------------------------------------------------------
# Element rendering for the CLI
# ---------------------------------------------------------------------------

def render_element(el: NCElement, fmt: str = "plain", alias_gamma5: bool = False,
                   reverse: bool = False) -> str:
    if fmt == "plain":
        return el.render(reverse=reverse, alias_gamma5=alias_gamma5)
    if fmt == "latex":
        return el.latex()
    if fmt == "json":
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
    ap = argparse.ArgumentParser(
        prog="diracobs",
        description="Exact operator algebra for a localized spin-1/2 particle: "
                    "evaluate expressions, verify identities, compute frame shifts.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to normal form")
    p_eval.add_argument("expr")
    p_eval.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    p_eval.add_argument("--order", type=_order_arg, default=_default_order())
    p_eval.add_argument("--gamma5-alias", action="store_true",
                        help="render i*g0 g1 g2 g3 monomials as gamma5")

    p_check = sub.add_parser("check", help="run the identity suite")
    p_check.add_argument("--manifest", default=None,
                         help="manifest path (default: shipped manifest)")
    p_check.add_argument("--order", type=_order_arg, default=_default_order())
    p_check.add_argument("--filter", default=None, help="entry-name prefix filter")
    p_check.add_argument("--format", choices=("md", "json"), default="md")

    p_conj = sub.add_parser("conjugate", help="accelerated-frame shift of an expression")
    p_conj.add_argument("expr")
    p_conj.add_argument("--order", type=_order_arg, default=_default_order())
    p_conj.add_argument("--alpha", default=None,
                        help="rational substitution r0,r1,r2,r3 for the parameters")
    p_conj.add_argument("--format", choices=("plain", "latex", "json"), default="plain")

    p_snap = sub.add_parser("snapshot", help="write golden normal-form snapshots")
    p_snap.add_argument("names", nargs="+",
                        help="catalog references, e.g. Xh[0] C[2] M")
    p_snap.add_argument("--out", required=True)
    p_snap.add_argument("--monomial-order", choices=("default", "reversed"),
                        default="default")
    return ap


def _cmd_eval(args) -> int:
    el = eval_text(args.expr, EvalConfig(order=args.order))
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


def _cmd_conjugate(args) -> int:
    el = eval_text(args.expr, EvalConfig(order=args.order))
    out = frames.conjugate(el, args.order)
    if args.alpha is not None:
        vals = [Fraction(v) for v in args.alpha.split(",")]
        if len(vals) != 4:
            raise ValueError("--alpha needs exactly four rationals r0,r1,r2,r3")
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
        parser = _build_argparser()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "conjugate":
            return _cmd_conjugate(args)
        if args.command == "snapshot":
            return _cmd_snapshot(args)
    except (ParseError, EvalError, UnknownObservable, ExponentOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
