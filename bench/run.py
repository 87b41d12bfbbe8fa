"""The diracobs benchmark: time to a verdict, end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload {manifest-check,kernel-axioms,cli-eval}
                         --seed N --seconds S --trace {0,1} [--out FILE]

Every operation runs in a fresh child interpreter (``bench/worker.py`` or
the ``diracobs`` console-script entry point), one at a time, closed loop.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
amount of work once untraced and once with every layer boundary wrapped
(see ``tracing.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the machine, the commit and the seed.  ``--out``
also writes the full record (raw samples included) as JSON.

The exit code is 1 when a correctness gate fails (the JSON line is still
printed, with ``correct`` false and the failures counted) and 2 when the
checkout holds no ``src/diracobs`` to measure.  See ``NOTES.md`` for the choice of
workloads and the layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(SRC, "diracobs", "manifest.txt")
OUT = os.path.join(BENCH, "_out")
WORKER = os.path.join(BENCH, "worker.py")

WORKLOADS = ("manifest-check", "kernel-axioms", "cli-eval")

#: Set-up probes: fresh interpreters that import the package, prepare the
#: workload's inputs and exit.  They run in small batches before every
#: measuring child and after the last, because the machine's speed drifts
#: over seconds and a single batch samples one moment of it.  Every
#: measuring child reports its own set-up time as well; cli-eval launches
#: are so many that their own reports suffice.
PROBES_PER_GAP = {"manifest-check": 7, "kernel-axioms": 10}

#: A child that has not exited after this long is killed and counted failed.
CHILD_TIMEOUT_S = 150

#: Fixed work of a traced run, so per-layer counts repeat exactly per seed.
TRACE_AXIOM_ROUNDS = 15
TRACE_EVAL_ROUNDS = 5

#: cli-eval launches per round (the run checks its clock between rounds).
EVAL_ROUND = 10

#: What the untraced ``diracobs eval`` launches run: the console script,
#: plus one line on standard error with the clock reading once it is imported.
READY_TAG = "bench-ready "
CLI_CODE = ("import sys, time; from diracobs.exprcli import main; "
            f"sys.stderr.write('{READY_TAG}%r\\n' % time.perf_counter()); "
            "sys.exit(main())")


# ---------------------------------------------------------------------------
# Machine, commit and inputs
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def commit() -> dict:
    """The git commit when run from a clone, and a digest of the sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "diracobs")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"commit": sha, "source_sha256": digest.hexdigest()}


def manifest_entries():
    """(name, lhs, rhs, clause) of every shipped manifest entry."""
    out = []
    with open(MANIFEST, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, rest = line.split(":=", 1)
            lhs, rest = rest.split("==", 1)
            rhs, clause = rest.rsplit("@", 1)
            out.append((name.strip(), lhs.strip(), rhs.strip(), clause.strip()))
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def launch(argv, report: bool = True) -> dict:
    """Run one child to completion; returns its timings, output and report."""
    path = None
    if report:
        fd, path = tempfile.mkstemp(dir=OUT, suffix=".json")
        os.close(fd)
        argv = [argv[0], path] + list(argv[1:])
        argv = [sys.executable, WORKER] + argv
    else:
        argv = [sys.executable] + list(argv)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        end = time.perf_counter()
        rc, stdout, stderr = -9, exc.stdout or "", f"timed out after {CHILD_TIMEOUT_S} s"
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    rep = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            rep = json.loads(text) if text else {}
        except (OSError, ValueError):
            rep = {}
        finally:
            os.unlink(path)
    if rc != 0 and stderr:
        print(f"child {argv[2] if report else 'cli'} exited {rc}: "
              f"{stderr.strip().splitlines()[-1]}", file=sys.stderr)
    ready = rep.get("ready")
    for line in stderr.splitlines():
        if line.startswith(READY_TAG):
            ready = float(line[len(READY_TAG):])
    return {"t0": t0, "wall_s": end - t0, "rc": rc, "stdout": stdout,
            "report": rep, "setup_s": None if ready is None else ready - t0}


def setup_probes(run: "Run", workload: str, seed: int) -> list:
    samples = []
    for _ in range(PROBES_PER_GAP[workload]):
        res = launch(["setup", workload, str(seed)])
        run.attempted += 1
        if res["rc"] != 0 or res["setup_s"] is None:
            run.fail(1, f"set-up probe exited {res['rc']}")
        else:
            samples.append(res["setup_s"])
    return samples


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Run:
    """Samples, gate counts and metrics of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}    # end-to-end metrics that BENCHMARK.json bounds
        self.named: dict = {}      # the workload's own metrics, printed, not bounded
        self.layers: dict = {}     # per-layer metrics (traced runs)
        self.samples: dict = {}
        self.notes: list = []

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.notes.append(why)


def _check_gate(run: Run, res: dict, expected: set) -> str:
    """Count one check's entries and failures; returns its totals line."""
    seen = {}
    totals = "no totals line"
    for line in res["stdout"].splitlines():
        if line.startswith("totals:"):
            totals = line
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in expected:
            seen[cells[0]] = cells[3]
    bad = sum(1 for status in seen.values() if status != "pass")
    missing = len(expected) - len(seen)
    run.attempted += len(expected)
    run.fail(bad, f"{bad} manifest entries did not pass")
    run.fail(missing, f"{missing} manifest entries missing from the report")
    run.fail(1 if res["rc"] != 0 else 0, f"check exited {res['rc']}")
    return totals


def manifest_check(run: Run, seed: int, seconds: float, traced: bool) -> None:
    expected = {e[0] for e in manifest_entries()}
    run.notes.append(f"seed {seed} ignored: manifest-check runs the shipped "
                     "manifest in its shipped order")
    if traced:
        plain = launch(["check", "0"])
        res = launch(["check", "1"])
        for r in (plain, res):
            run.notes.append(f"check {_check_gate(run, r, expected)}")
        rep = res["report"]
        if "trace" not in rep or "check_s" not in plain["report"]:
            run.fail(1, "traced check wrote no report")
            return
        _layers(run, rep["trace"], rep["check_s"], plain["report"]["check_s"])
        return
    setups, checks, walls = [], [], []
    while True:
        setups += setup_probes(run, "manifest-check", seed)
        res = launch(["check", "0"])
        run.notes.append(f"check {_check_gate(run, res, expected)}")
        if res["setup_s"] is not None:
            setups.append(res["setup_s"])
        if "check_s" in res["report"]:
            checks.append(res["report"]["check_s"])
        walls.append(res["wall_s"])
        if sum(walls) + statistics.median(walls) > seconds or run.failed:
            break
    setups += setup_probes(run, "manifest-check", seed)
    if not checks or not setups:
        run.fail(1, "no check completed")
        return
    run.samples.update(setup_s=setups, check_s=checks)
    _common(run, setups, checks)
    run.named["check_s"] = (statistics.median(checks), "s")


def kernel_axioms(run: Run, seed: int, seconds: float, traced: bool) -> None:
    from axioms import CRITERION_CASES, PHASE_OF

    def gate(res):
        cases = res["report"].get("cases", [])
        run.attempted += len(cases)
        bad = sum(1 for _, _, ok in cases if not ok)
        run.fail(bad, f"{bad} axiom cases where the identity does not hold")
        run.fail(1 if res["rc"] != 0 else 0, f"axioms child exited {res['rc']}")
        return cases

    def words_gate(words):
        if len(words) != 16:
            run.fail(1, "the cases run do not hit all 16 Clifford words")

    if traced:
        plain = launch(["axioms", str(seed), "0", str(TRACE_AXIOM_ROUNDS), "0"])
        res = launch(["axioms", str(seed), "0", str(TRACE_AXIOM_ROUNDS), "1"])
        base, cases = gate(plain), gate(res)
        for r in (plain, res):
            words_gate(r["report"].get("words", []))
        if "trace" not in res["report"] or not base:
            run.fail(1, "traced axioms child wrote no report")
            return
        _layers(run, res["report"]["trace"], sum(c[1] for c in cases),
                sum(c[1] for c in base))
        return
    setups = setup_probes(run, "kernel-axioms", seed)
    res = launch(["axioms", str(seed), str(seconds), "0", "0"])
    setups += setup_probes(run, "kernel-axioms", seed)
    cases = gate(res)
    words_gate(res["report"].get("words", []))
    if res["setup_s"] is not None:
        setups.append(res["setup_s"])
    if not cases or not setups:
        run.fail(1, "no axiom case completed")
        return
    times = [dt for _, dt, _ in cases]
    by_phase: dict = {}
    for phase, dt, _ in cases:
        by_phase.setdefault(PHASE_OF[phase], []).append(dt)
    run.samples.update(setup_s=setups, rounds=res["report"].get("rounds"),
                       cases={k: len(v) for k, v in by_phase.items()})
    _common(run, setups, times)
    run.named["axiom_cases_per_s"] = (len(times) / sum(times), "1/s")
    run.named["case_p50_ms"] = (statistics.median(times) * 1000, "ms")
    run.named["case_p95_ms"] = (_tail(run, times, 95), "ms")
    for phase, n in CRITERION_CASES.items():
        run.named[f"{phase}_s"] = (statistics.mean(by_phase[phase]) * n, "s")


def eval_rounds(seed: int):
    """Endless seeded rounds of exact manifest entries, picked uniformly.

    The picks run through a seeded shuffle of all exact entries, so every
    entry is equally likely, the ``s5`` frame families included, and the
    few costly ones do not pile up in a run by chance.
    """
    exact = [e for e in manifest_entries() if e[3] == "exact"]
    rng = random.Random(seed)
    order: list = []
    while True:
        if len(order) < EVAL_ROUND:
            fresh = list(exact)
            rng.shuffle(fresh)
            order += fresh
        picks, order = order[:EVAL_ROUND], order[EVAL_ROUND:]
        yield picks


def _eval_gate(run: Run, res: dict, name: str) -> None:
    run.attempted += 1
    ok = res["rc"] == 0 and res["stdout"] == "0\n"
    run.fail(0 if ok else 1, f"eval of {name} printed {res['stdout'][:40]!r}, "
                             f"exit {res['rc']}")


def cli_eval(run: Run, seed: int, seconds: float, traced: bool) -> None:
    if traced:
        import tracing
        summaries, spans, plain_s, traced_s = [], [], 0.0, 0.0
        for picks in itertools.islice(eval_rounds(seed), TRACE_EVAL_ROUNDS):
            for name, lhs, rhs, _ in picks:
                expr = f"{lhs} - ({rhs})"
                plain = launch(["-c", CLI_CODE, "eval", expr], report=False)
                res = launch(["eval", expr])
                _eval_gate(run, plain, name)
                _eval_gate(run, res, name)
                plain_s += plain["wall_s"]
                traced_s += res["wall_s"]
                if "trace" in res["report"]:
                    summaries.append(res["report"]["trace"])
                    spans.append({"kind": "launch", "name": name, "parent": "run",
                                  "start": res["t0"], "dur_s": res["wall_s"]})
        if not summaries:
            run.fail(1, "no traced eval wrote a report")
            return
        merged = tracing.merge(summaries)
        merged["spans"] += spans
        _layers(run, merged, traced_s, plain_s)
        return
    setups, lat = [], []
    t_start = time.perf_counter()
    round_walls = []
    for picks in eval_rounds(seed):
        t_round = time.perf_counter()
        for name, lhs, rhs, _ in picks:
            res = launch(["-c", CLI_CODE, "eval", f"{lhs} - ({rhs})"], report=False)
            _eval_gate(run, res, name)
            lat.append(res["wall_s"])
            if res["setup_s"] is not None:
                setups.append(res["setup_s"])
        round_walls.append(time.perf_counter() - t_round)
        if (time.perf_counter() - t_start + statistics.median(round_walls) > seconds
                or run.failed):
            break
    run.samples.update(setup_s=setups, launches=len(lat))
    if not setups:
        run.fail(1, "no launch reported its import time")
        return
    _common(run, setups, lat)
    run.named["eval_p50_ms"] = (statistics.median(lat) * 1000, "ms")
    run.named["eval_p90_ms"] = (_tail(run, lat, 90), "ms")


def _tail(run: Run, values, q: int) -> float:
    beyond = len(values) * (100 - q) // 100
    if beyond < 10:
        run.notes.append(f"p{q} has only {beyond} samples beyond it")
    return percentile(values, q) * 1000


def _common(run: Run, setups, ops) -> None:
    """The bounded end-to-end metrics, from set-up samples and operation times.

    The typical operation time is a geometric mean, not a median: axiom case
    times span two orders of magnitude across the phases, and the median
    case falls where few cases lie, so it moves with the seed's draws.
    """
    run.metrics["setup_s"] = (statistics.median(setups), "s")
    run.metrics["op_geomean_ms"] = (statistics.geometric_mean(ops) * 1000, "ms")
    run.metrics["ops_per_s"] = (len(ops) / sum(ops), "1/s")
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.metrics["peak_rss_mb"] = (rss_kb / 1024, "MiB")
    run.named["failed_share"] = (run.failed / max(run.attempted, 1), "share")


def _layers(run: Run, summary: dict, traced_wall: float, plain_wall: float) -> None:
    import tracing
    run.layers = tracing.layer_metrics(summary, traced_wall)
    run.layers["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall
                                          if plain_wall else 0.0, "share")
    run.samples["trace"] = summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diracobs", "__init__.py")):
        print(f"error: no diracobs sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [BENCH, SRC]

    run = Run()
    body = {"manifest-check": manifest_check, "kernel-axioms": kernel_axioms,
            "cli-eval": cli_eval}[args.workload]
    body(run, args.seed, args.seconds, bool(args.trace))

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), **commit()}
    shown = run.layers if args.trace else {**run.metrics, **run.named}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"machine nproc={info['machine']['nproc']} cpu={info['machine']['cpu']!r} "
          f"python={info['machine']['python']}")
    print(f"commit {info['commit'] or 'unknown (not a git clone)'} "
          f"sources sha256 {info['source_sha256'][:16]}")
    for note in run.notes:
        print(f"note: {note}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"gate: {run.attempted} attempted, {run.failed} failed")

    record = {**info, "attempted": run.attempted, "failed": run.failed,
              "metrics": _as_json(run.metrics), "named": _as_json(run.named),
              "layers": _as_json(run.layers), "samples": run.samples,
              "notes": run.notes}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    if args.trace and "trace" in run.samples:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run.samples["trace"], fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    correct = run.failed == 0 and run.attempted > 0
    if not correct:
        print("error: a correctness gate failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": _as_json(run.layers if args.trace else run.metrics)}))
    return 0 if correct else 1


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
