"""Manifest parsing, runner semantics, reporting, golden snapshots."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from diracobs.exprcli import MAX_ORDER
from diracobs.suite import (IdentityEntry, ManifestParseError, golden_snapshot,
                            load_default_manifest, negative_controls, parse_manifest,
                            report_json, report_markdown, run_suite)


class TestManifestFormat:
    def test_basic_entry(self):
        entries = parse_manifest("XX := comm(Xh[1],Xh[2]) == S[1,2]*Minv2 @ exact\n")
        assert entries == [IdentityEntry("XX", "comm(Xh[1],Xh[2])",
                                         "S[1,2]*Minv2", None)]

    def test_entry_equality_tag_and_repr(self):
        entry = IdentityEntry("s2.x", "M", "M", None)
        assert entry.tag == "s2" and entry.binding is None
        assert entry == IdentityEntry("s2.x", "M", "M", None)
        assert entry != IdentityEntry("s2.x", "M", "M", 2)
        assert repr(entry) == ("IdentityEntry(name='s2.x', lhs='M', rhs='M', "
                               "order=None, tag='s2', binding=None)")

    def test_order_clause_and_comments(self):
        text = "# header\n\nfoo.a := M == M @ order 2  # trailing\n"
        (e,) = parse_manifest(text)
        assert e.order == 2 and e.tag == "foo"

    def test_error_positions(self):
        with pytest.raises(ManifestParseError) as err:
            parse_manifest("# fine\nbad entry line\n")
        assert err.value.line == 2
        with pytest.raises(ManifestParseError) as err:
            parse_manifest("x := M == M @ sometimes\n")
        assert err.value.line == 1 and "order" in str(err.value)
        with pytest.raises(ManifestParseError) as err:
            parse_manifest("x := M = M @ exact\n")
        assert "'=='" in str(err.value) or "==" in str(err.value)

    def test_bare_order_takes_the_run_order(self):
        text = "a := M == M @ order\nb := M == M @ order 2\nc := M == M @ exact\n"
        assert [e.order for e in parse_manifest(text)] == [3, 2, None]
        assert [e.order for e in parse_manifest(text, 0)] == [0, 2, None]
        assert [e.order for e in parse_manifest(text, 5)] == [5, 2, None]
        with pytest.raises(ValueError, match="nonnegative"):
            parse_manifest(text, -1)

    def test_order_clause_budget(self):
        assert parse_manifest(f"a := M == M @ order {MAX_ORDER}\n")[0].order == MAX_ORDER
        with pytest.raises(ManifestParseError, match="above the limit") as err:
            parse_manifest(f"# big\na := conj(Xh[1]) == 0 @ order {MAX_ORDER + 1}\n")
        assert err.value.line == 2

    def test_binding_resolved_into_rhs(self):
        (e,) = parse_manifest("s2.w := W2*Minv2 == c + 0*c @ exact; c = -3/4*hbar^2"
                              "  # c; d\n")
        assert e.rhs == "(-3/4*hbar^2) + 0*(-3/4*hbar^2)"
        assert e.binding == ("c", "-3/4*hbar^2")
        assert (e.order, e.tag) == (None, "s2")

    @pytest.mark.parametrize("binding, message", [
        ("c -3/4", "missing '='"),
        ("2c = 1", "bad coefficient name"),
        ("c.d = 1", "bad coefficient name"),
        ("d = 1", "not used"),
        ("M = 1", "already defined"),
        ("lam = 1", "already defined"),
        ("hbar = 1", "already defined"),
    ])
    def test_bad_bindings_rejected(self, binding, message):
        text = f"# header\nx := M*c == c*M @ exact; {binding}\n"
        with pytest.raises(ManifestParseError, match=message) as err:
            parse_manifest(text)
        assert err.value.line == 2

    def test_duplicate_names_rejected(self):
        text = "a := M == M @ exact\na := D == D @ exact\n"
        with pytest.raises(ManifestParseError):
            parse_manifest(text)

    @pytest.mark.parametrize("order", range(5))
    def test_shipped_file_at_every_order(self, order):
        entries = parse_manifest(load_default_manifest(), order)
        orders = {e.name: e.order for e in entries}
        assert len(orders) == len(entries) == 644
        assert sum(1 for n in orders.values() if n is None) == 564
        assert orders.pop("s5.hom.Dx") == 2
        series = [n for n in orders.values() if n is not None]
        assert series == [order] * 79

    def test_default_manifest_parses(self):
        entries = parse_manifest(load_default_manifest())
        assert len(entries) > 600
        tags = {e.tag for e in entries}
        assert tags == {"s2", "s3", "s4", "s5"}


class TestRunner:
    def test_single_pass_entry(self):
        entries = parse_manifest("XX := comm(Xh[1],Xh[2]) == S[1,2]*Minv2 @ exact\n")
        report = run_suite(entries)
        assert report["entries"][0]["status"] == "pass"
        assert report["totals"] == {"pass": 1, "fail": 0, "error": 0,
                                    "ms": report["totals"]["ms"]}

    def test_negated_entry_fails_with_residual(self):
        entries = parse_manifest(
            "neg := comm(Xh[1],Xh[2]) == -(S[1,2]*Minv2) @ exact\n")
        r = run_suite(entries)["entries"][0]
        assert r["status"] == "fail"
        assert r["residual"]  # nonzero normal form is shown

    def test_error_recorded_not_fatal(self):
        entries = [IdentityEntry("boom", "comm(Q[0], M)", "0", None),
                   IdentityEntry("fine", "M", "M", None)]
        report = run_suite(entries)
        assert [r["status"] for r in report["entries"]] == ["error", "pass"]

    def test_non_scalar_binding_is_an_error(self):
        entries = parse_manifest("bound := M == c @ exact; c = M\n"
                                 "fine := M == M @ exact\n")
        got = run_suite(entries)["entries"]
        assert got[0]["status"] == "error"
        assert got[0]["residual"] == "ValueError: coefficient 'c' is not a pure scalar"
        assert "coefficients" not in got[0]
        assert got[1]["status"] == "pass"

    def test_wrong_coefficient_fails_without_a_line(self):
        entries = parse_manifest(
            "s2.spin.W2M2 := W2*Minv2 == spin_magnitude @ exact; "
            "spin_magnitude = 3/4*hbar^2\n")
        report = run_suite(entries)
        (got,) = report["entries"]
        assert got["status"] == "fail" and got["residual"]
        assert "coefficients" not in got
        assert "spin_magnitude" not in report_markdown(report)

    def test_filter(self):
        entries = parse_manifest(load_default_manifest())
        report = run_suite(entries, name_filter="s4.anticom")
        assert report["totals"]["pass"] == 27
        assert all(r["name"].startswith("s4.anticom") for r in report["entries"])

    def test_negative_control_of_truncated_zero_fails(self):
        # alpha[0]^2 vanishes at order 1, so the control must shift by 1
        (entry,) = parse_manifest("z := 0 == alpha[0]^2 @ order 1\n")
        assert run_suite([entry])["entries"][0]["status"] == "pass"
        (control,) = negative_controls([entry])
        assert control.rhs == "1"
        assert run_suite([control])["entries"][0]["status"] == "fail"

    def test_negative_control_decided_at_the_run_order(self):
        # conj(M) - M vanishes at order 0 only, so a run at order 0 shifts by 1
        (entry,) = parse_manifest("z := conj(M) - M == conj(M) - M @ exact\n", 0)
        assert run_suite([entry], 0)["entries"][0]["status"] == "pass"
        (control,) = negative_controls([entry], 0)
        assert control.rhs == "1"
        assert run_suite([control], 0)["entries"][0]["status"] == "fail"

    def test_whole_manifest_at_order_4(self):
        t0 = time.perf_counter()
        report = run_suite(parse_manifest(load_default_manifest(), 4), 4)
        elapsed = time.perf_counter() - t0
        assert report["totals"] == {"pass": 644, "fail": 0, "error": 0,
                                    "ms": report["totals"]["ms"]}
        # ~3.5 s on 2 cores; the bound leaves room for a loaded machine.
        assert elapsed < 60, f"manifest at order 4 took {elapsed:.1f}s"

    def test_negative_controls_all_fail(self):
        entries = parse_manifest(load_default_manifest())
        sample = [e for e in entries if e.tag in ("s3", "s4")][::9]
        controls = negative_controls(sample)
        report = run_suite(controls)
        assert report["totals"]["pass"] == 0
        assert report["totals"]["fail"] == len(controls)


@pytest.fixture(scope="module")
def small_report():
    entries = parse_manifest(
        "s2.a := M == M @ exact\n"
        "s2.spin.W2M2 := W2*Minv2 == spin_magnitude @ exact; "
        "spin_magnitude = -3/4*hbar^2\n"
        "s5.bad := M == D @ exact\n")
    return run_suite(entries)


class TestReports:

    def test_json_schema(self, small_report):
        data = json.loads(report_json(small_report))
        assert set(data) == {"suite", "config", "entries", "totals"}
        assert data["config"]["order"] == 3
        entry = data["entries"][0]
        assert {"name", "tag", "status", "order", "residual", "ms"} <= set(entry)

    def test_coefficient_extraction_in_report(self, small_report):
        byname = {r["name"]: r for r in small_report["entries"]}
        assert byname["s2.spin.W2M2"]["coefficients"] == {
            "spin_magnitude": "-3/4*hbar^2"}

    def test_markdown_stable_and_informative(self, small_report):
        md = report_markdown(small_report)
        assert report_markdown(small_report) == md
        assert "| s5.bad | s5 | exact | fail |" in md
        assert "ms" not in md.splitlines()[3]
        assert md.strip().endswith("2 pass, 1 fail, 0 error")


#: SHA-256 of ``report_markdown`` for the shipped manifest at orders 0-3,
#: recorded before the coefficients moved into the manifest.
PINNED_MARKDOWN = {
    0: "2816d2a719b2c286d8e819953e1aaf80116ce26415c42c25f40cbce95b8f6ce6",
    1: "9f2ed506f687acc7097f0e9b9fce2d21997d790f762cf8f2d144ec6ca950ab28",
    2: "958cccb9f2c07c1e58a6ca2ac2b413a09e44be3e0866a381fe0c90cd2d627fc1",
    3: "c823140b76a2ca0bd7514e141dddc9a0109a11fa83d707327cafc925cf965744",
}


def test_check_report_bytes_pinned():
    text = load_default_manifest()
    for order, digest in PINNED_MARKDOWN.items():
        md = report_markdown(run_suite(parse_manifest(text, order), order))
        assert hashlib.sha256(md.encode()).hexdigest() == digest, f"order {order}"


class TestGoldenSnapshots:
    def test_stable_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        p1 = golden_snapshot(["Xh[0]", "C[0]", "M"], str(d1))
        p2 = golden_snapshot(["Xh[0]", "C[0]", "M"], str(d2))
        for a, b in zip(p1, p2):
            assert Path(a).read_text() == Path(b).read_text()

    def test_monomial_order_change_is_visible(self, tmp_path):
        (p_fwd,) = golden_snapshot(["C[0]"], str(tmp_path / "fwd"))
        (p_rev,) = golden_snapshot(["C[0]"], str(tmp_path / "rev"),
                                   monomial_order="reversed")
        assert Path(p_fwd).read_text() != Path(p_rev).read_text()

    def test_file_naming(self, tmp_path):
        paths = golden_snapshot(["S[1,2]"], str(tmp_path))
        assert paths[0].endswith("S_1_2.txt")

    def test_rejects_non_reference(self, tmp_path):
        with pytest.raises(ValueError):
            golden_snapshot(["M*M"], str(tmp_path))
