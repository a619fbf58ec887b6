"""The singfold benchmark: one workload per call, fresh worker per pass.

    python3 perfbench/run.py --workload {report,fibers,surfaces} \
        --seed N --seconds S --trace {0,1} [--all-cases]

Closed loop with one caller: passes over the same seeded inputs run one at
a time, each in a new interpreter (perfbench/worker.py), until the next pass
would end after `--seconds`; at least one pass runs.  With `--trace 0` the
run reports medians of `setup_s` (over several cold set-ups), `wall_s` and
`peak_rss_mb` (over passes); both times are scaled to the reference host
speed measured alongside them (speed.py), and the raw times are printed as
`setup_raw_s` and `wall_raw_s`.  With `--trace 1` one untraced and one
traced pass, side by side on the two CPUs, give the per-layer metrics and
the tracing overhead.  `--all-cases` makes `report` the six-case report.
Every answer is checked; a wrong one exits 1.  The last line of stdout is
the result as JSON; a full record of the run, with the machine-speed
probe, is written under `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import bundles
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("report", "fibers", "surfaces")
ALL_CASES = ("A3B2D4", "A5B3D5", "D4C3D6", "D4G2E6", "D4G2E7", "E6F4E7")
# The six-case report takes about 3 minutes on a 2-vCPU Xeon host, longer
# than a run may last (under 3 minutes).  By default `report` covers
# D4G2E6 and E6F4E7, about a minute: E6F4E7 holds nearly all of the six-case
# subsystem enumeration, D4G2E6 brings reflection closures, and both
# re-derive their quotient charts.  See README.md for the split.
REPORT_CASES = ("D4G2E6", "E6F4E7")
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170
FULL_REPORT_LIMIT_S = 1800


class BenchError(Exception):
    pass


def spawn(jobs, deadline: float) -> list:
    """Run workers side by side, job i pinned to CPU i, and wait for all of
    them; a worker still running at `deadline` is killed.  Returns their
    JSON results."""
    env = dict(os.environ)
    env.pop("SINGFOLD_THREADS", None)
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    procs = [subprocess.Popen(
        [sys.executable, WORKER, *args, "--cpu", str(cpu), "--out", OUT,
         "--spawned", repr(time.time())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for cpu, args in enumerate(jobs)]
    outputs = []
    try:
        for proc in procs:
            outputs.append(proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter())))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running at the run's time limit: "
                         f"{jobs}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for args, proc, (out, err) in zip(jobs, procs, outputs):
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {args}\n"
                             f"{err[-3000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["process_s"] = time.perf_counter() - start
        results.append(result)
    return results


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; None (a refusal) sorts above every answer."""
    ordered = sorted(math.inf if v is None else v for v in values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def load_expected() -> dict:
    with open(bundles.EXPECTED) as fh:
        exp = json.load(fh)
    if bundles.fingerprint(exp["files"]) != exp["fingerprint"]:
        raise BenchError("expected.json: file digests do not give the "
                         "recorded report fingerprint")
    return exp


def check_report(res: dict, seed: int, cases, exp: dict) -> list:
    """Seed 0 must reproduce the recorded bundles byte for byte (and, over
    all six cases, the report fingerprint); any other seed must reproduce
    every section except theorem2."""
    errors = [f"section failed: {s}" for s in res["wrong"]]
    if res["rc"] != 0:
        errors.append(f"singfold report exited {res['rc']}")
    for cid in cases:
        if seed == 0 and res["files"].get(f"{cid}.json") != exp["files"][f"{cid}.json"]:
            errors.append(f"{cid}.json differs from the seed-0 bundle")
        got = res["sections"].get(cid, {})
        for sec, digest in exp["sections"][cid].items():
            if sec != "theorem2" and got.get(sec) != digest:
                errors.append(f"{cid}/{sec} differs from the seed-0 bundle")
    if seed == 0 and cases == ALL_CASES and \
            bundles.fingerprint(res["files"]) != exp["fingerprint"]:
        errors.append("report fingerprint differs")
    return errors


def check(res: dict, workload: str, seed: int, cases, exp: dict) -> list:
    if workload == "report":
        return check_report(res, seed, cases, exp)
    return [f"wrong answer: {w}" for w in res["wrong"]]


def median(key, runs):
    return statistics.median(r[key] for r in runs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all-cases", action="store_true",
                    help="report only: the six-case report, about 3 minutes")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.all_cases and args.workload != "report":
        ap.error("--all-cases applies to --workload report only")
    cases = ALL_CASES if args.all_cases else REPORT_CASES
    deadline = time.perf_counter() + (
        FULL_REPORT_LIMIT_S if args.all_cases else RUN_LIMIT_S)
    os.makedirs(OUT, exist_ok=True)
    exp = load_expected() if args.workload == "report" else None

    def pass_args(trace: int) -> list:
        return ["--mode", "pass", "--workload", args.workload,
                "--seed", str(args.seed), "--cases", ",".join(cases),
                "--trace", str(trace)]

    probe_before = speed.probe()
    errors, setups = [], []
    if args.trace:
        untraced, traced = spawn([pass_args(0), pass_args(1)], deadline)
        passes = [untraced]
        for res in (untraced, traced):
            errors += check(res, args.workload, args.seed, cases, exp)
        if traced["answers"] != untraced["answers"]:
            errors.append("traced answers differ from the untraced ones")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = metric(
            traced["wall_s"] / untraced["wall_s"], "ratio")
        counted = [traced]
    else:
        setups = [spawn([["--mode", "setup"]], deadline)[0]
                  for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(spawn([pass_args(0)], deadline)[0])
            errors += check(passes[-1], args.workload, args.seed, cases, exp)
            if time.perf_counter() - start + passes[-1]["process_s"] > args.seconds:
                break
        metrics = {
            "setup_s": metric(median("setup_s", setups + passes), "s"),
            "wall_s": metric(median("wall_s", passes), "s"),
            "peak_rss_mb": metric(median("peak_rss_mb", passes), "MB"),
        }
        extra_raw = {
            "setup_raw_s": metric(median("setup_raw_s", setups + passes), "s"),
            "wall_raw_s": metric(median("wall_raw_s", passes), "s"),
        }
        counted = passes
    probe_after = speed.probe()

    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["refused"] for p in counted)
    extra = {} if args.trace else extra_raw
    extra["fail_ratio"] = metric(failed / attempted, "ratio")
    extra["passes"] = metric(len(passes), "count")
    if counted[0]["op_ms"] is not None:
        latencies = [None if refused else ms for p in counted
                     for ms, refused in zip(p["op_ms"], p["refused_ops"])]
        answered = sum(v is not None for v in latencies)
        extra["fibers_per_s"] = metric(
            answered / sum(p["wall_raw_s"] for p in counted), "1/s")
        extra["fiber_samples"] = metric(len(latencies), "count")
        for q in (50, 90):
            value = percentile(latencies, q)
            extra[f"fiber_p{q}_ms"] = metric(
                value if value != math.inf else "undefined (refusals)", "ms")
    if args.workload == "surfaces":
        shape = sum(p["refused_unsupported_shape"] for p in counted)
        extra["unsupported_shape_ratio"] = metric(shape / attempted, "ratio")
    extra["speed_probe_before_s"] = metric(probe_before, "s")
    extra["speed_probe_after_s"] = metric(probe_after, "s")

    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"{name} = {m['value']} {m['unit']}")
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "cases": list(cases), "correct": not errors, "errors": errors,
              "metrics": metrics, "extra": extra,
              "setups": setups,
              "passes": [{k: v for k, v in p.items() if k != "layers"}
                         for p in passes]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
