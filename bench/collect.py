"""Repeat benchmark runs over seeds and summarise their spread.

Usage, from the root of a source checkout::

    python3 bench/collect.py --seeds 1-10 [--workloads W ...] [--seconds S]
                             [--traced-seed N] [--out bench/BENCH_<n>.json]

For every workload it runs ``bench/run.py`` once per seed (one run at a
time), then prints each end-to-end and workload metric with its median,
quartiles and spread (quartile distance over the median), the statistic the
bounds in ``BENCHMARK.json`` are checked against.  ``--traced-seed`` adds one
traced run per workload for the per-layer numbers.  ``--out`` writes
everything, with the machine and the commit, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    fd, path = tempfile.mkstemp(dir=os.path.join(BENCH, "_out"), suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--out", path], cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def summary(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Repeat benchmark runs over seeds.")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+",
                    default=["manifest-check", "kernel-axioms", "cli-eval"])
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(BENCH, "_out"), exist_ok=True)

    result = {"seconds": seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for workload in args.workloads:
        records = [one_run(workload, s, seconds, 0) for s in seeds(args.seeds)]
        result.update(machine=records[0]["machine"], commit=records[0]["commit"],
                      source_sha256=records[0]["source_sha256"])
        metrics = {}
        for kind in ("metrics", "named"):
            for name, m in records[0][kind].items():
                values = [r[kind][name]["value"] for r in records]
                metrics[name] = {"unit": m["unit"], "bounded": kind == "metrics",
                                 **summary(values)}
        entry = {"metrics": metrics, "attempted": [r["attempted"] for r in records],
                 "failed": [r["failed"] for r in records]}
        if args.traced_seed is not None:
            traced = one_run(workload, args.traced_seed, seconds, 1)
            entry["layers"] = traced["layers"]
        result["workloads"][workload] = entry
        print(f"\n{workload}  ({len(records)} runs, {seconds:g} s each)")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound:.2f}" + ("  SPREAD > BOUND/3" if m["spread"] > bound / 3
                                          else ""))
            print(f"  {name:22s} median {m['median']:11.5g} {m['unit']:6s} "
                  f"q1 {m['q1']:11.5g} q3 {m['q3']:11.5g} spread {m['spread']:.3f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in m["values"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
