"""Acceptance criteria, one test per criterion.

Each test prints a single ``CRITERION n PASS`` line on success (visible with
``pytest -s`` or in the captured output); a failing assertion marks the
criterion red.  Tolerances are exact equality of normal forms throughout;
timing budgets are asserted where stated.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from diracobs import frames as F, observables as obs, suite
from diracobs.ncalg import NCElement, bracket, dot
from diracobs.scalars import GRat, Scalar

from adjoint_oracle import derive_involution_images

one = NCElement.one()


def _light_scalar(rng: random.Random) -> Scalar:
    coeff = rng.choice((GRat(1), GRat(-1), GRat(Fraction(1, 2)), GRat(0, 1)))
    s = Scalar.from_grat(coeff)
    if rng.random() < 0.4:
        s = s * Scalar.hbar(rng.choice((-1, 1)))
    for _ in range(rng.randint(0, 2)):
        s = s * Scalar.p(rng.randrange(4))
    if rng.random() < 0.3:
        s = s * Scalar.alpha(rng.randrange(4))
    if rng.random() < 0.4:
        s = s * Scalar.w_pow(rng.randint(-2, 2))
    return s


def _light_element(rng: random.Random, words_seen: set) -> NCElement:
    out = NCElement.zero()
    for _ in range(2):
        xk = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 3)):
            xk[rng.randrange(4)] += 1
        word = rng.randrange(16)
        words_seen.add(word)
        out = out + NCElement({(tuple(xk), word): _light_scalar(rng)})
    return out


def test_criterion_1_kernel_axioms():
    rng = random.Random(1)
    words = set()
    t0 = time.perf_counter()
    cases = 0
    for _ in range(300):
        a, b, c = (_light_element(rng, words) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        cases += 1
    for _ in range(300):
        a, b, c = (_light_element(rng, words) for _ in range(3))
        total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total.is_zero
        cases += 1
    for _ in range(300):
        a, b, c = (_light_element(rng, words) for _ in range(3))
        assert bracket(a, b * c) == bracket(a, b) * c + b * bracket(a, c)
        cases += 1
    adj = obs.adjoint
    for _ in range(200):
        a = _light_element(rng, words)
        assert adj(adj(a)) == a
        cases += 1
    for _ in range(100):
        # anti-automorphism on a lighter pair (the product stays within the
        # x-degree-3 regime the criterion fixes)
        a = NCElement({(k, w): s for j, ((k, w), s) in
                       enumerate(_light_element(rng, words)._t.items()) if j < 1})
        xk = [0, 0, 0, 0]
        xk[rng.randrange(4)] += rng.randint(0, 1)
        b = NCElement({(tuple(xk), rng.randrange(16)): _light_scalar(rng)})
        a = a.alpha_truncate(2)
        if a.x_degree() > 2:
            a = NCElement({(k, w): s for (k, w), s in a._t.items() if sum(k) <= 2})
        assert adj(a * b) == adj(b) * adj(a)
        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 1000
    assert words == set(range(16)), "all 16 Clifford words must be exercised"
    assert elapsed < 60, f"kernel axiom suite took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS - kernel axioms, {cases} randomized cases, "
          f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def manifest_entries():
    return suite.parse_manifest(suite.load_default_manifest())


def _run_tagged(entries, prefix):
    t0 = time.perf_counter()
    report = suite.run_suite(entries, name_filter=prefix)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_2_section2_suite(manifest_entries):
    report, elapsed = _run_tagged(manifest_entries, "s2")
    t = report["totals"]
    assert t["fail"] == 0 and t["error"] == 0
    assert t["pass"] >= 80
    assert elapsed < 60, f"section-2 suite took {elapsed:.1f}s"
    print(f"\nCRITERION 2 PASS - {t['pass']} section-2 component identities, "
          f"{elapsed:.1f}s")


def test_criterion_3_spin_magnitude():
    got = obs.W2() * Scalar.w_pow(-2)
    expect = one * (Scalar.hbar(2) * Fraction(-3, 4))
    assert got == expect
    print("\nCRITERION 3 PASS - W^2/M^2 = -3/4 hbar^2 exactly")


def test_criterion_4_sections_3_4_with_controls(manifest_entries):
    rep3, _ = _run_tagged(manifest_entries, "s3")
    rep4, _ = _run_tagged(manifest_entries, "s4")
    for rep in (rep3, rep4):
        assert rep["totals"]["fail"] == 0 and rep["totals"]["error"] == 0
    sample = [e for e in manifest_entries if e.tag in ("s3", "s4")]
    controls = suite.negative_controls(sample)
    rep_neg = suite.run_suite(controls)
    assert rep_neg["totals"]["pass"] == 0
    assert rep_neg["totals"]["error"] == 0
    assert rep_neg["totals"]["fail"] == len(controls)
    print(f"\nCRITERION 4 PASS - {rep3['totals']['pass'] + rep4['totals']['pass']}"
          f" section-3/4 identities, {len(controls)} negative controls all fail")


def test_criterion_5_conformal_table(manifest_entries):
    report, _ = _run_tagged(manifest_entries, "s5.PJDC")
    t = report["totals"]
    assert t["fail"] == 0 and t["error"] == 0 and t["pass"] == 50
    print(f"\nCRITERION 5 PASS - full conformal-acceleration table, "
          f"{t['pass']} identities")


def test_criterion_6_frame_laws(manifest_entries):
    t0 = time.perf_counter()
    # termination of the mass series: exact identity at order 2
    assert F.conjugate(obs.M(), 3) == F.conjugate(obs.M(), 2)
    assert F.conjugate(obs.M(), 2) == dot(obs.M(), F.conformal_factor_inv())
    report, _ = _run_tagged(manifest_entries, "s5")
    t = report["totals"]
    assert t["fail"] == 0 and t["error"] == 0
    byname = {r["name"]: r["status"] for r in report["entries"]}
    for family in ("s5.traKsi.0", "s5.traE.law.0", "s5.traP.law.0", "s5.traG.00",
                   "s5.inv.00", "s5.recip.M", "s5.recip.x.0", "s5.traM.rev"):
        assert byname[family] == "pass"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"frames suite took {elapsed:.1f}s"
    print(f"\nCRITERION 6 PASS - {t['pass']} frame-law identities at order 3, "
          f"{elapsed:.1f}s")


def test_criterion_7_hermitian_coefficients():
    report = F.check_hermitian_forms()
    assert report["entries"] and report["totals"]["pass"] == len(report["entries"])
    coefficients = {k: v for e in report["entries"]
                    for k, v in e.get("coefficients", {}).items()}
    assert coefficients["mass_alpha2_correction"] == "3/4*hbar^2"
    assert coefficients["momentum_dd_correction"] == "3/32*hbar^2"
    for m in range(4):
        for n in range(4):
            assert F.E(m, n) == F.E_left(m, n)
    print("\nCRITERION 7 PASS - coefficients 3/4 hbar^2 and 3/32 hbar^2 exact; "
          "substitution ordering immaterial")


def test_criterion_8_vierbein_polynomiality():
    for m in range(4):
        for n in range(4):
            raw = F.vierbein_raw(m, n, 3)
            assert raw.alpha_part(3).is_zero
    print("\nCRITERION 8 PASS - vierbein from the order-3 series is exactly "
          "alpha-quadratic")


def test_criterion_9_cli(tmp_path):
    # full shipped manifest through the real entry point
    proc = subprocess.run([sys.executable, "-m", "diracobs.exprcli",
                           "check", "--order", "3"],
                          capture_output=True, text=True, timeout=570)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "0 fail, 0 error" in proc.stdout

    # deliberately broken manifest must flip the exit code
    bad = tmp_path / "bad.txt"
    bad.write_text("bad := M == D @ exact\n", encoding="utf-8")
    proc_bad = subprocess.run([sys.executable, "-m", "diracobs.exprcli",
                               "check", "--manifest", str(bad)],
                              capture_output=True, text=True, timeout=120)
    assert proc_bad.returncode == 1

    # 500-expression parse round-trip corpus
    from test_exprcli import _random_expr
    from diracobs.exprcli import parse, render_expr
    rng = random.Random(9)
    for _ in range(500):
        node = _random_expr(rng, rng.randint(0, 3))
        assert parse(render_expr(node)) == node

    # golden snapshots stable across two runs
    names = ["Xh[0]", "C[0]", "W[1]", "M", "D"]
    run1 = suite.golden_snapshot(names, str(tmp_path / "one"))
    run2 = suite.golden_snapshot(names, str(tmp_path / "two"))
    for a, b in zip(run1, run2):
        assert Path(a).read_text() == Path(b).read_text()
    print("\nCRITERION 9 PASS - check exit 0; 500-expression round-trip; "
          "snapshots stable")


def test_criterion_10_adjoint_oracle():
    images = derive_involution_images()
    assert images is not None, "adjoint derivation unresolved"
    x_img, g_img = images
    from diracobs.ncalg import Involution
    inv = Involution(x_img, g_img)
    # consistency on monomials of degree <= 3
    import itertools
    mons = []
    for total in range(4):
        for xdeg in range(total + 1):
            for xk in itertools.combinations_with_replacement(range(4), xdeg):
                exps = [0, 0, 0, 0]
                for mu in xk:
                    exps[mu] += 1
                for w in range(16):
                    if bin(w).count("1") == total - xdeg:
                        mons.append(NCElement({(tuple(exps), w): Scalar.one()}))
    for el in mons:
        assert inv(inv(el)) == el
    for mu in range(4):
        assert inv(obs.X(mu)) == obs.X(mu)
        d = obs.x(mu) - obs.X(mu)
        assert inv(d) == -d
    assert inv(obs.M()) == obs.M()
    assert inv(obs.D()) == obs.D()
    assert inv(obs.gamma5()) == obs.gamma5()
    for m in range(4):
        assert x_img[m] == obs._x_image(m)
        assert g_img[m] == obs._gamma_image(m)
    print(f"\nCRITERION 10 PASS - adjoint images derived and consistent on "
          f"{len(mons)} monomials")
