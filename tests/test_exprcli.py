"""Expression grammar, evaluation, rendering round-trips and the CLI."""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction

import pytest

from diracobs import exprcli, observables as obs
from diracobs.exprcli import (Alpha, Comm, Conj, DotOp, EvalConfig, EvalError,
                              Hbar, Imag, Neg, Num, ParseError, Pow, Prod, Ref,
                              Sum, eval_text, main, parse, render_expr)
from diracobs.ncalg import NCElement
from diracobs.scalars import Scalar


class TestParser:
    def test_observable_refs(self):
        node = parse("comm(Xh[1],Xh[2])")
        assert node == Comm(a=Ref(name="Xh", indices=(1,)),
                            b=Ref(name="Xh", indices=(2,)))

    def test_difference(self):
        node = parse("M*M - P2")
        assert isinstance(node, Sum)
        assert node.terms[0][0] == 1 and node.terms[1][0] == -1

    def test_precedence_unary_minus_over_power(self):
        # -M^2 parses as (-M)^2
        node = parse("-M^2")
        assert node == Pow(a=Neg(a=Ref(name="M")), n=2)
        assert parse("-(M^2)") == Neg(a=Pow(a=Ref(name="M"), n=2))

    def test_precedence_product_over_sum(self):
        node = parse("1 + 2*M")
        assert isinstance(node, Sum)
        assert isinstance(node.terms[1][1], Prod)

    def test_literals(self):
        assert parse("3/4") == Num(value=Fraction(3, 4))
        assert parse("i") == Imag()
        assert parse("hbar") == Hbar()
        assert parse("alpha[2]") == Alpha(mu=2)

    def test_conj_order_clause(self):
        node = parse("conj(M; order=2)")
        assert node == Conj(a=Ref(name="M"), order=2, inverse=False)
        assert parse("conjinv(M)") == Conj(a=Ref(name="M"), order=None, inverse=True)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse("comm(P[0], ")
        assert e.value.line == 1 and e.value.column == 12
        with pytest.raises(ParseError) as e:
            parse("P[5]")
        assert e.value.column == 3
        assert "0..3" in str(e.value)
        with pytest.raises(ParseError) as e:
            parse("M + ?")
        assert e.value.column == 5

    def test_expected_set_reported(self):
        with pytest.raises(ParseError) as e:
            parse("pow(M, 1/2)")
        assert "natural number" in str(e.value)
        assert "exponent must be" in str(e.value)
        with pytest.raises(ParseError, match="order must be a nonnegative integer"):
            parse("conj(M; order=1/2)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("M M")


def _random_expr(rng: random.Random, depth: int):
    leaves = [
        lambda: Num(value=Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4)))),
        lambda: Imag(),
        lambda: Hbar(),
        lambda: Alpha(mu=rng.randrange(4)),
        lambda: Ref(name="P", indices=(rng.randrange(4),)),
        lambda: Ref(name="J", indices=(rng.randrange(4), rng.randrange(4))),
        lambda: Ref(name="M"),
        lambda: Ref(name="gamma5"),
        lambda: Ref(name="xc", indices=(rng.randrange(4),)),
        lambda: Ref(name="Minv2"),
    ]
    if depth == 0:
        return rng.choice(leaves)()
    sub = lambda: _random_expr(rng, depth - 1)
    builders = [
        lambda: Neg(a=_leaf_or_group(rng, sub)),
        lambda: Pow(a=_leaf_or_group(rng, sub), n=rng.randint(0, 3)),
        lambda: Prod(factors=tuple(sub() for _ in range(rng.randint(2, 3)))),
        # the grammar folds a leading minus into Neg, so a parseable Sum
        # always starts with a positive term
        lambda: Sum(terms=((1, sub()),) + tuple((rng.choice((1, -1)), sub())
                                                for _ in range(rng.randint(1, 2)))),
        lambda: Comm(a=sub(), b=sub()),
        lambda: DotOp(a=sub(), b=sub()),
        lambda: Conj(a=sub(), order=rng.choice((None, 1, 2)),
                     inverse=rng.random() < 0.3),
    ]
    return rng.choice(builders + leaves)()


def _leaf_or_group(rng, sub):
    node = sub()
    return node


class TestRoundTrip:
    def test_corpus_500(self):
        rng = random.Random(42)
        for _ in range(500):
            node = _random_expr(rng, rng.randint(0, 3))
            text = render_expr(node)
            again = parse(text)
            assert again == node, f"round-trip failed for {text!r}"

    def test_examples(self):
        for text in ("comm(Xh[1],Xh[2])", "M*M - P2", "dot(gamma[0], gamma[0]) - 1",
                     "conj(M; order=2)", "-(M^2)", "-M^2",
                     "3/4*hbar^2*P[0]*Minv2"):
            assert parse(render_expr(parse(text))) == parse(text)


class TestEvaluation:
    def test_weighted_momentum(self):
        assert eval_text("comm(D, P[1])") == obs.P(1)

    def test_mass_square_difference(self):
        assert eval_text("M*M - P2").is_zero

    def test_clifford_square(self):
        assert eval_text("dot(gamma[0], gamma[0]) - 1").is_zero

    def test_adjoint_of_i(self):
        got = eval_text("adj(i)")
        assert got == NCElement.from_scalar(-Scalar.imag_unit())

    def test_conjugation_closed_form(self):
        from diracobs import frames
        got = eval_text("conj(M; order=2)")
        assert got == frames.conjugate_named("M", (), 2)

    def test_position_commutator(self):
        got = eval_text("comm(Xh[1],Xh[2])")
        assert got == obs.S(1, 2) * Scalar.w_pow(-2)

    def test_unknown_observable(self):
        with pytest.raises(EvalError) as e:
            eval_text("comm(Q[0], M)")
        assert "unknown observable" in str(e.value)

    def test_conj_arity_error_has_a_span(self):
        with pytest.raises(EvalError) as plain:
            eval_text("P")
        with pytest.raises(EvalError) as conj:
            eval_text("conj(P)")
        assert conj.value.message == plain.value.message
        assert conj.value.message == "unknown observable: P takes 1 index(es), got 0"
        assert conj.value.span == (5, 6)
        with pytest.raises(EvalError, match="unknown observable: Q"):
            eval_text("conj(Q[1])")

    def test_frame_builtins(self):
        from diracobs import frames
        assert eval_text("laminv") == frames.conformal_factor_inv()
        assert eval_text("vb[0,0]", EvalConfig(order=3)) == frames.vierbein(0, 0)

    def test_alpha_max_matches_plain(self):
        plain = eval_text("conj(M; order=2)*conj(M; order=2)").alpha_truncate(2)
        fast = eval_text("conj(M; order=2)*conj(M; order=2)",
                         EvalConfig(order=2, alpha_max=2))
        assert plain == fast


class TestCLI:
    def test_eval_stdout(self, capsys):
        assert main(["eval", "comm(D, P[1])"]) == 0
        out = capsys.readouterr().out
        assert out == "1 | 1 | -p1\n"

    def test_eval_formats(self, capsys):
        assert main(["eval", "comm(Xh[1],Xh[2])", "--format", "latex"]) == 0
        assert "\\gamma" in capsys.readouterr().out
        assert main(["eval", "M", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["monomials"]) == 4

    def test_eval_deterministic_bytes(self):
        cmd = [sys.executable, "-m", "diracobs.exprcli", "eval", "C[0]"]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a == b and a

    def test_parse_error_exit_code(self, capsys):
        assert main(["eval", "comm(P[0], "]) == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_error_exit_code(self, capsys):
        for expr in ("Q[0]", "conj(P)"):
            assert main(["eval", expr]) == 2
            assert "unknown observable" in capsys.readouterr().err

    def test_exponent_overflow_exit_code(self, capsys):
        assert main(["eval", "hbar^16384"]) == 2
        assert capsys.readouterr().err.startswith("error: exponents must lie in")

    def test_empty_check_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no entries\n")
        for extra in (["--filter", "nosuch"], ["--manifest", str(empty)]):
            assert main(["check"] + extra) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: no manifest entries selected")
            assert captured.out == ""

    def test_conjugate_with_substitution(self, capsys):
        assert main(["conjugate", "M", "--order", "2", "--alpha", "0,1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "x1 | g1 |" in out

    def test_conjugate_bad_alpha(self, capsys):
        assert main(["conjugate", "M", "--order", "1", "--alpha", "1,2"]) == 2

    def test_gamma5_alias(self, capsys):
        assert main(["eval", "gamma5", "--gamma5-alias"]) == 0
        assert capsys.readouterr().out == "1 | gamma5 | 1\n"

    def test_env_default_order(self, monkeypatch, capsys):
        monkeypatch.setenv(exprcli.ENV_ORDER, "1")
        parser = exprcli._build_argparser()
        args = parser.parse_args(["eval", "M"])
        # argparse default was captured at parser construction
        assert args.order == 1

    def test_env_order_malformed(self, monkeypatch, capsys):
        for raw in ("abc", "-1"):
            monkeypatch.setenv(exprcli.ENV_ORDER, raw)
            assert main(["eval", "M"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: DIRACOBS_ORDER must be a nonnegative integer")

    @pytest.mark.parametrize("argv", [["eval", "M"], ["check"], ["conjugate", "M"]],
                             ids=["eval", "check", "conjugate"])
    @pytest.mark.parametrize("order", ["-2", "x"])
    def test_bad_order_rejected(self, argv, order, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--order", order])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --order: must be a nonnegative integer, got '{order}'" in err

    def test_order_zero_accepted(self, capsys):
        assert main(["eval", "M", "--order", "0"]) == 0
        assert capsys.readouterr().out.strip()

    def test_power_budget(self, capsys):
        t0 = time.perf_counter()
        assert main(["eval", "pow(Xh[0],40)"]) == 2
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().err.startswith(
            f"error: 1:11: exponent 40 is above the limit {exprcli.MAX_POWER}")
        over = exprcli.MAX_POWER + 1
        for text in (f"Xh[0]^{over}", f"(M*M)^{over}", f"-M^{over}", f"pow(gamma[0], {over})",
                     f"hbar^{exprcli.MAX_MONOMIAL_POWER + 1}", "pow(i, 100000)"):
            with pytest.raises(ParseError, match="is above the limit"):
                parse(text)
        # within budget: operator powers up to MAX_POWER, literal monomials further
        assert eval_text(f"pow(Xh[0], {exprcli.MAX_POWER})").x_degree() == exprcli.MAX_POWER
        assert eval_text("(-2)^40") == NCElement.from_scalar(Scalar.from_rational(2 ** 40))
        assert eval_text("i^20000") == NCElement.one()

    def test_power_reproducer_exits_fast(self):
        env = dict(os.environ)
        env.pop(exprcli.ENV_ORDER, None)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "diracobs", "eval", "pow(Xh[0],40)"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - t0 < 1
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stdout == ""

    def test_order_budget(self, monkeypatch, capsys):
        over = str(exprcli.MAX_ORDER + 1)
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "M", "--order", over])
        assert exit_.value.code == 2
        assert (f"error: argument --order: must be at most {exprcli.MAX_ORDER}, got '{over}'"
                in capsys.readouterr().err)
        assert main(["eval", f"conj(M; order={over})"]) == 2
        assert f"order {over} is above the limit" in capsys.readouterr().err
        monkeypatch.setenv(exprcli.ENV_ORDER, over)
        assert main(["eval", "M"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: DIRACOBS_ORDER must be at most {exprcli.MAX_ORDER}")
        monkeypatch.setenv(exprcli.ENV_ORDER, str(exprcli.MAX_ORDER))
        args = exprcli._build_argparser().parse_args(["check"])
        assert args.order == exprcli.MAX_ORDER

    def test_manifest_far_below_the_budgets(self):
        from diracobs.suite import load_default_manifest, parse_manifest

        def exponents(node):
            if isinstance(node, Pow):
                yield node.n
            for f in fields(node):
                value = getattr(node, f.name)
                for v in value if isinstance(value, tuple) else (value,):
                    if isinstance(v, tuple):  # a (sign, term) of a Sum
                        v = v[1]
                    if isinstance(v, exprcli.Node):
                        yield from exponents(v)

        top = max(n for e in parse_manifest(load_default_manifest())
                  for side in (e.lhs, e.rhs) for n in exponents(parse(side)))
        assert top == 2 and 4 * top <= exprcli.MAX_POWER
        # the manifest is run up to order 6
        assert 6 < exprcli.MAX_ORDER

    def test_deep_nesting_is_a_parse_error(self, capsys):
        with pytest.raises(ParseError, match="nested deeper"):
            parse("(" * 3000)
        assert main(["eval", "(" * 3000]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        depth = exprcli.MAX_DEPTH
        assert parse("(" * depth + "M" + ")" * depth) == parse("M")

    def test_python_m_diracobs(self):
        env = dict(os.environ)
        env.pop(exprcli.ENV_ORDER, None)
        done = subprocess.run([sys.executable, "-m", "diracobs", "eval", "M"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.startswith("1 | g0 | p0\n")
