"""Child process of the benchmark: one fresh interpreter per operation.

Usage (launched by ``run.py``, never by hand)::

    worker.py setup  REPORT WORKLOAD SEED
    worker.py check  REPORT TRACE
    worker.py axioms REPORT SEED SECONDS ROUNDS TRACE
    worker.py eval   REPORT EXPR

Each mode writes a JSON report to REPORT.  ``ready`` is the
``time.perf_counter()`` reading at which the package is imported and the
inputs are ready; the clock is system-wide, so the parent turns it into a
set-up time by subtracting its own reading taken just before the launch.
``eval`` is the traced form of ``diracobs eval``; the untraced launches run
the console-script entry point directly.
"""

from __future__ import annotations

import json
import os
import sys
import time

import diracobs
from diracobs import exprcli


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _tracer(traced: bool):
    if not traced:
        return None
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


#: Rounds drawn before timing starts: about what a 35 s run gets through
#: at the seed; a faster kernel draws more rounds, untimed, as it goes.
POOL_ROUNDS = 60


def _axioms_setup(seed: int):
    """Build the adjoint's images and draw the first rounds of the seed."""
    import axioms
    from diracobs import observables
    observables.involution()
    draws = axioms.Draws(seed)
    rounds = [axioms.draw_round(draws) for _ in range(POOL_ROUNDS)]
    return draws, rounds


def mode_setup(report: str, workload: str, seed: int) -> int:
    if workload == "kernel-axioms":
        _axioms_setup(seed)
    _write(report, {"ready": time.perf_counter()})
    return 0


def mode_check(report: str, traced: bool) -> int:
    ready = time.perf_counter()
    tracer = _tracer(traced)
    if tracer:
        tracer.start()
    t0 = time.perf_counter()
    rc = exprcli.main(["check", "--order", "3"])
    check_s = time.perf_counter() - t0
    sys.stdout.flush()
    out = {"ready": ready, "check_s": check_s, "rc": rc}
    if tracer:
        tracer.uninstall_gc()
        out["trace"] = tracer.summary()
    _write(report, out)
    return rc


def mode_axioms(report: str, seed: int, seconds: float, rounds: int,
                traced: bool) -> int:
    import axioms
    draws, pool = _axioms_setup(seed)
    ready = time.perf_counter()
    tracer = _tracer(traced)
    if tracer:
        tracer.start()
    perf = time.perf_counter
    cases = []
    words: set = set()
    t_end = ready + seconds
    done = 0
    while (done < rounds) if rounds else (perf() < t_end):
        if done == len(pool):
            pool.append(axioms.draw_round(draws))
        for i, (phase, ops, case_words) in enumerate(pool[done]):
            t0 = perf()
            ok = axioms.check_case(phase, ops)
            dt = perf() - t0
            cases.append([phase, dt, ok])
            words |= case_words
            if tracer:
                tracer.spans.append({"kind": "case", "name": f"{phase}.{done}.{i}",
                                     "parent": f"round.{done}", "start": t0,
                                     "dur_s": dt, "ok": ok})
        # Drop the finished round, so that peak RSS does not grow with the
        # number of rounds a faster kernel gets through.
        pool[done] = None
        done += 1
    out = {"ready": ready, "rounds": done, "cases": cases,
           "words": sorted(words)}
    if tracer:
        tracer.uninstall_gc()
        out["trace"] = tracer.summary()
    _write(report, out)
    return 0


def mode_eval(report: str, expr: str) -> int:
    tracer = _tracer(True)
    tracer.start()
    rc = exprcli.main(["eval", expr])
    sys.stdout.flush()
    tracer.uninstall_gc()
    _write(report, {"rc": rc, "trace": tracer.summary()})
    return rc


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv) -> int:
    mode, report = argv[0], argv[1]
    if not os.path.abspath(diracobs.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"diracobs imported from {diracobs.__file__}, not {SRC}")
    if mode == "setup":
        return mode_setup(report, argv[2], int(argv[3]))
    if mode == "check":
        return mode_check(report, argv[2] == "1")
    if mode == "axioms":
        return mode_axioms(report, int(argv[2]), float(argv[3]), int(argv[4]),
                           argv[5] == "1")
    if mode == "eval":
        return mode_eval(report, argv[2])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
