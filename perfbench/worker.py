"""One cold benchmark worker: set the package up, run one pass, print JSON.

Started by run.py as a fresh interpreter for every pass, so the package's
per-process caches (descriptors, flat charts, root systems, subsystem
enumerations) are always cold.  The last line of stdout is the result.

    python3 perfbench/worker.py --mode pass --workload fibers --seed 0 \
        --trace 0 --out DIR --spawned <time.time() at spawn>
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import bundles  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def _labels(config: str) -> list:
    return sorted(config.split("+"))


def setup(trace: bool):
    """Import the package, check the catalogue and build the descriptors."""
    sys.path.insert(0, SRC)
    import singfold
    import singfold.cli
    if os.path.dirname(os.path.abspath(singfold.__file__)) != \
            os.path.join(SRC, "singfold"):
        raise RuntimeError(f"singfold imported from {singfold.__file__}, "
                           f"not from {SRC}")
    from singfold import families
    rec = None
    if trace:
        rec = tracer.Recorder()
        rec.install()
        rec.active = True
    if not families.verify_catalogue()["ok"]:
        raise RuntimeError("case catalogue drift")
    descs = families.all_descriptors()
    return rec, descs


def report_pass(seed: int, cases, out_dir: str, rec) -> dict:
    """`singfold report` with default flags over `cases`, via cli.main."""
    from singfold import cli
    cli.CASE_IDS = tuple(cases)
    shutil.rmtree(out_dir, ignore_errors=True)
    if rec:
        rec.active = True
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--seed", str(seed), "report", "--out", out_dir])
    end = time.perf_counter()
    if rec:
        rec.active = False
    files, sections, parsed = bundles.digests(out_dir)
    failed_sections = [f"{b['case']}/{sec}" for name, b in parsed.items()
                       if name != "summary.json"
                       for sec, body in b["sections"].items()
                       if not body.get("ok", False)]
    attempted = sum(len(s) for s in sections.values())
    return {"window": [start, end], "rc": rc, "files": files,
            "sections": sections,
            "attempted": attempted, "refused": 0,
            "wrong": failed_sections, "op_ms": None,
            "answers": bundles.fingerprint(files)}


def _stream(items, classify, check, rec) -> dict:
    """Time classify(item) for each item; check(item, answer) names a wrong
    answer.  A ClassificationError is a refusal, timed like an answer."""
    from singfold.singclass import ClassificationError
    op_ms, refused_ops, refusals, answers, wrong = [], [], [], [], []
    if rec:
        rec.active = True
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            answer = classify(item)
        except ClassificationError as exc:
            op_ms.append((time.perf_counter() - t0) * 1000)
            refused_ops.append(True)
            refusals.append(f"{item[0]} {item[1]}: {exc}")
            answers.append(f"refused: {exc}")
            continue
        op_ms.append((time.perf_counter() - t0) * 1000)
        refused_ops.append(False)
        answers.append(answer)
        problem = check(item, answer)
        if problem:
            wrong.append(problem)
    end = time.perf_counter()
    if rec:
        rec.active = False
    return {"window": [start, end], "attempted": len(items),
            "refused": len(refusals),
            "refusals": refusals, "wrong": wrong, "op_ms": op_ms,
            "refused_ops": refused_ops,
            "answers": hashlib.sha256(json.dumps(
                answers, sort_keys=True).encode()).hexdigest()}


def fibers_pass(seed: int, descs, rec) -> dict:
    """check_stratum_point over seeded catalogued case fibers; the answer
    must match the catalogued quotient configuration, covering-fiber orbits
    and smooth fixed-point count."""
    from singfold import families
    strata = {(c.case_id, s.stratum_id): s for c in descs for s in c.strata}

    def check(item, res):
        strat = strata[item[:2]]
        expected_orbits = None
        if strat.fiber_sing is not None:
            counts = {}
            for typ, orb in strat.fiber_sing:
                counts[(typ, orb)] = counts.get((typ, orb), 0) + 1
            expected_orbits = sorted(f"{typ}(orbit {orb})x{n}"
                                     for (typ, orb), n in counts.items())
        got = [res["quotient_config"], res.get("fiber_orbits"),
               res.get("fiber_fixed_smooth")]
        want = [strat.quotient_config, expected_orbits,
                strat.fiber_fixed_smooth]
        if _labels(got[0]) != _labels(want[0]) or got[1:] != want[1:]:
            return f"{item[0]}/{item[1]} at {res['t']}: got {got}, expected {want}"
        return None

    items = inputs.fiber_inputs(seed, descs, families.stratum_membership)
    return _stream(items, lambda it: families.check_stratum_point(*it),
                   check, rec)


def surfaces_pass(seed: int, rec) -> dict:
    """The `singfold classify --surface` path, parse -> fiber_configuration,
    over ADE normal forms in three placements; the answer must be the
    normal form's label."""
    from singfold import cli

    def check(item, conf):
        if conf["configuration"] != item[0]:
            return f"{item[0]} {item[1]} {item[2]!r}: got {conf['configuration']}"
        return None

    result = _stream(
        inputs.surface_inputs(seed),
        lambda it: cli.fiber_configuration(cli.parse(it[2])).to_json(),
        check, rec)
    result["refused_unsupported_shape"] = sum(
        "unsupported equation shape" in r for r in result["refusals"])
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--workload", choices=("report", "fibers", "surfaces"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", default="")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cpu", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    speed.pin(args.cpu)
    sampler = speed.Sampler()
    started = time.perf_counter()
    rec, descs = setup(bool(args.trace))
    result = {"setup_raw_s": time.time() - args.spawned}
    result["setup_s"] = result["setup_raw_s"] * sampler.scale(
        started, time.perf_counter())
    if args.mode == "pass":
        if rec:
            rec.active = False
        if args.workload == "report":
            out_dir = os.path.join(args.out,
                                   f"report-{args.seed}-trace{args.trace}")
            result.update(report_pass(args.seed, args.cases.split(","),
                                      out_dir, rec))
        elif args.workload == "fibers":
            result.update(fibers_pass(args.seed, descs, rec))
        else:
            result.update(surfaces_pass(args.seed, rec))
        start, end = result["window"]
        result["wall_raw_s"] = end - start
        result["wall_s"] = result["wall_raw_s"] * sampler.scale(start, end)
    sampler.stop()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec:
        cases = [c for c in args.cases.split(",") if c]
        result["layers"] = rec.metrics(cases)
        rec.dump(os.path.join(args.out,
                              f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
