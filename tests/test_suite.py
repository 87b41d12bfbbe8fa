"""Manifest parsing, runner semantics, reporting, golden snapshots."""

import hashlib
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from diracobs import suite
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

    def test_order_clause_budget_edge(self):
        # literal values, so that a changed MAX_ORDER fails here
        assert parse_manifest("a := M == M @ order 10\n")[0].order == 10
        with pytest.raises(ManifestParseError, match="order 11 is above the limit 10"):
            parse_manifest("a := M == M @ order 11\n")

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

    # Order 5 also decides each entry's alpha-degree-5 terms, which order 4
    # truncates away.
    @pytest.mark.parametrize("order", [4, 5])
    def test_whole_manifest_at_order(self, order):
        t0 = time.perf_counter()
        report = run_suite(parse_manifest(load_default_manifest(), order), order)
        elapsed = time.perf_counter() - t0
        assert report["totals"] == {"pass": 644, "fail": 0, "error": 0,
                                    "ms": report["totals"]["ms"]}
        # ~1.2 s (order 4) and ~1.8 s (order 5) on 2 cores; the bound leaves
        # room for a loaded machine.
        assert elapsed < 60, f"manifest at order {order} took {elapsed:.1f}s"

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


TWO_FAMILIES = ("fa.one.a := M == M @ exact\n"
                "fa.one.b := P[0] == P[0] @ exact\n"
                "fa.two.a := D == D @ exact\n"
                "fa.two.b := comm(P[0], P[1]) == 0 @ exact\n")


@pytest.fixture
def workers(monkeypatch):
    """Set the usable CPU count; returns the list of pids ``os.fork`` made."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: n)
        return forked

    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def one_family_each(monkeypatch):
    """Make worker 0 and one forked worker run one family each: worker 0
    waits in its first entry until the forked worker has begun its own.
    The returned function takes ``change(result)``, applied to the forked
    worker's results, and returns the names worker 0 evaluates."""
    began, begin = os.pipe()

    def split(change):
        parent, real, done = os.getpid(), suite._evaluate_entry, []

        def evaluate(e, order):
            if os.getpid() != parent:
                os.write(begin, b".")
                return change(real(e, order))
            if not done:
                os.read(began, 1)
            done.append(e.name)
            return real(e, order)

        monkeypatch.setattr(suite, "_evaluate_entry", evaluate)
        return done

    yield split
    os.close(began)
    os.close(begin)


def exit_3(result):
    os._exit(3)


class TestParallelRunner:
    def test_queue_items_are_whole_families_in_order(self):
        entries = parse_manifest(TWO_FAMILIES + "s4.spinmag := M == M @ exact\n")
        assert suite._queue_items(entries) == [[0, 1], [2, 3], [4]]
        many = [IdentityEntry(f"t.f{k}.{j}", "M", "M", None)
                for k in range(3000) for j in range(2)]
        items = suite._queue_items(many)
        assert len(items) <= suite._QUEUE_ITEMS
        assert [i for item in items for i in item] == list(range(len(many)))
        assert all(len(item) % 2 == 0 for item in items)

    def test_threads_force_one_worker(self, workers):
        workers(4)
        assert suite._worker_count(3) == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert suite._worker_count(3) == 1
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_reports_identical_for_any_worker_count(self, workers):
        entries = parse_manifest(load_default_manifest(), 3)
        forked = workers(2)
        many = run_suite(entries, 3)
        assert len(forked) == 1
        workers(1)
        one = run_suite(entries, 3)
        assert len(forked) == 1
        assert report_markdown(one) == report_markdown(many)

        def without_ms(report):
            data = json.loads(report_json(report))
            del data["totals"]["ms"]
            for r in data["entries"]:
                del r["ms"]
            return data

        assert without_ms(one) == without_ms(many)
        assert one["totals"]["pass"] == 644
        assert_no_child_left()

    def test_each_entry_runs_once_with_more_workers_than_cpus(self, workers, monkeypatch):
        entries = parse_manifest("".join(f"t.f{k}.{j} := M == M @ exact\n"
                                         for k in range(40) for j in range(2)))
        names = sorted(e.name for e in entries)
        log, log_in = os.pipe()
        real = suite._evaluate_entry

        def evaluate(e, order):
            os.write(log_in, f"{e.name}\n".encode())  # one write below PIPE_BUF
            return real(e, order)

        monkeypatch.setattr(suite, "_evaluate_entry", evaluate)
        forked = workers(8)
        try:
            report = run_suite(entries)
        finally:
            os.close(log_in)
        with os.fdopen(log) as fh:
            ran = sorted(fh.read().split())
        assert len(forked) == 7
        assert ran == names
        assert [r["name"] for r in report["entries"]] == [e.name for e in entries]
        assert report["totals"]["pass"] == 80
        assert_no_child_left()

    def test_orphaned_worker_stops_before_its_next_family(self, workers, monkeypatch):
        entries = parse_manifest("".join(f"t.f{k}.a := M == M @ exact\n" for k in range(6)))
        log, log_in = os.pipe()
        go, go_in = os.pipe()
        checker = []  # the pid of the process that runs run_suite, once forked

        def evaluate(e, order):
            os.write(log_in, f"{os.getpid()} {e.name}\n".encode())
            if os.getpid() == checker[0]:
                time.sleep(60)  # worker 0 is killed here
            os.read(go, 1)
            return {"name": e.name, "tag": e.tag, "order": "exact", "status": "pass",
                    "residual": "", "ms": 0.0}

        monkeypatch.setattr(suite, "_evaluate_entry", evaluate)
        workers(2)
        pid = os.fork()
        if pid == 0:
            try:
                checker.append(os.getpid())
                run_suite(entries)
            finally:
                os._exit(0)
        os.close(log_in)
        try:
            with os.fdopen(log) as fh:
                first = [fh.readline(), fh.readline()]  # each worker has begun a family
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pid = None
                os.write(go_in, b"x" * len(entries))  # enough for every family left
                rest = fh.read()  # end of file: the orphaned worker has exited
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(go_in)  # a worker still waiting reads end of file
            os.close(go)
        assert len({line.split()[0] for line in first}) == 2
        assert rest == ""
        assert_no_child_left()

    def test_large_results_cross_the_pipe(self, workers, one_family_each):
        # far more than a pipe buffer holds: the worker blocks in its write
        # until worker 0 has finished its own family and reads
        big = "x" * 300_000
        one_family_each(lambda result: {**result, "status": "fail", "residual": big})
        forked = workers(2)
        report = run_suite(parse_manifest(TWO_FAMILIES))
        assert len(forked) == 1
        assert [r["name"] for r in report["entries"]] == ["fa.one.a", "fa.one.b",
                                                          "fa.two.a", "fa.two.b"]
        assert sorted(r["residual"] for r in report["entries"]) == ["", "", big, big]
        assert_no_child_left()

    def test_dead_worker_names_its_entries(self, workers, one_family_each):
        done = one_family_each(exit_3)
        forked = workers(2)
        with pytest.raises(ChildProcessError) as error:
            run_suite(parse_manifest(TWO_FAMILIES))
        assert len(forked) == 1
        lost = [n for n in ("fa.one.a", "fa.one.b", "fa.two.a", "fa.two.b")
                if n not in done]
        assert len(lost) == 2 and lost[0][:6] == lost[1][:6]
        assert str(error.value) == ("a check worker exited with status 3; "
                                    f"entries without a result: {', '.join(lost)}")
        assert_no_child_left()

    def test_dead_worker_is_one_error_line(self, workers, one_family_each, tmp_path,
                                           capsys):
        from diracobs.exprcli import main
        manifest = tmp_path / "two.txt"
        manifest.write_text(TWO_FAMILIES, encoding="utf-8")
        one_family_each(exit_3)
        workers(2)
        assert main(["check", "--manifest", str(manifest)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: a check worker exited with status 3; ")
        assert err.count("\n") == 1
        assert_no_child_left()


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
