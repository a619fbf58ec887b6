"""Command-line surface: case catalogue, root systems, subsystem
enumeration, fiber classification, verification bundles, and batch reports.

Exit codes: 0 = success / all checks passed, 1 = a verification failed, or
any command stopped with an error on a well-formed command line (`classify`
refusing a surface, too), 2 = usage error: a bad command line or a
polynomial that does not parse.  Reports are deterministic for a fixed seed
and are written as sorted JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import __version__
from .families import (all_descriptors, check_stratum_point, descriptor,
                       derive_quotient_chart, sample_stratum,
                       theorem_singular_spotcheck, verify_catalogue,
                       verify_equivariance)
from .flatmap import correspondence_check, flat_chart, verify_iso
from .poly import ParseError, parse, to_text
from .rootsys import CASE_IDS, ROOT_TYPES, build_root_system, to_json
from .singclass import fiber_configuration
from .subsys import match_realizations, subsystems_for_case

SCHEMA_VERSION = "1"

SECTIONS = ("equivariance", "quotient-derivation", "flat-relations", "iso",
            "tables", "realizations", "correspondence", "theorem2")


class UsageError(ValueError):
    """A bad command line: exit 2."""


def verify_case(case_id: str, seed: int = 0, samples: int = 3,
                theorem2_count: int = 10,
                sections: Optional[List[str]] = None) -> dict:
    """Run every verification section for one case; deterministic by seed."""
    todo = sections or list(SECTIONS)
    out: dict = {"schema_version": SCHEMA_VERSION, "case": case_id,
                 "seed": seed, "samples": samples, "sections": {}}
    sec = out["sections"]
    if "equivariance" in todo:
        sec["equivariance"] = verify_equivariance(case_id)
    if "quotient-derivation" in todo:
        sec["quotient-derivation"] = derive_quotient_chart(case_id)
    if "flat-relations" in todo:
        chart = flat_chart(case_id)  # relations are verified at load
        sec["flat-relations"] = {
            "ok": True,
            "relations": [to_text(r) for r in chart.relations],
            "verified_in_chart_coordinates": chart.formulas is not None,
        }
    if "iso" in todo:
        sec["iso"] = verify_iso(case_id)
    if "tables" in todo:
        case = descriptor(case_id)
        rows = []
        ok = True
        for strat in case.strata:
            pts = sample_stratum(case_id, strat.stratum_id, samples)
            checks = [check_stratum_point(case_id, strat.stratum_id, t)
                      for t in pts]
            row_ok = all(c["ok"] for c in checks)
            ok = ok and row_ok
            rows.append({"stratum": strat.stratum_id,
                         "expected": strat.quotient_config,
                         "points": len(pts), "ok": row_ok,
                         "checks": checks})
        sec["tables"] = {"ok": ok, "rows": rows}
    if "realizations" in todo:
        sec["realizations"] = match_realizations(case_id).to_json()
    if "correspondence" in todo:
        sec["correspondence"] = correspondence_check(case_id)
    if "theorem2" in todo:
        sec["theorem2"] = theorem_singular_spotcheck(case_id,
                                                     count=theorem2_count,
                                                     seed=seed)
    out["ok"] = all(s.get("ok", False) for s in sec.values())
    return out


def full_report(seed: int = 0, samples: int = 3, theorem2_count: int = 10,
                out_dir: str = "reports",
                sections: Optional[List[str]] = None) -> dict:
    """Verification bundles for all six cases plus a summary file."""
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    results = {cid: verify_case(cid, seed, samples, theorem2_count, sections)
               for cid in CASE_IDS}
    os.makedirs(out_dir, exist_ok=True)
    for cid in CASE_IDS:
        with open(os.path.join(out_dir, f"{cid}.json"), "w") as fh:
            json.dump(results[cid], fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary = {"schema_version": SCHEMA_VERSION, "seed": seed,
               "samples": samples,
               "cases": {cid: results[cid]["ok"] for cid in CASE_IDS},
               "ok": all(results[cid]["ok"] for cid in CASE_IDS)}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_cases(args) -> int:
    if args.action == "list":
        rows = []
        for case in all_descriptors():
            m = case.meta
            rows.append({"case": m.case_id, "gamma": m.gamma,
                         "gamma_prime": m.gamma_prime, "omega": m.omega,
                         "inhomogeneous_type": m.inhomogeneous_type,
                         "quotient_type": m.quotient_type, "rank": m.rank,
                         "theta": list(m.theta)})
        if args.table:
            for r in rows:
                print(f"{r['case']:8s} {r['inhomogeneous_type']:3s} -> "
                      f"{r['quotient_type']:3s} rank {r['rank']} "
                      f"omega {r['omega']:4s} theta {r['theta']}")
        else:
            _emit(rows)
        return 0
    if not args.case:
        raise UsageError("cases show needs a case id")
    case = descriptor(args.case)
    obj = {
        "case": case.case_id,
        "parameters": list(case.params),
        "parameter_slots": list(case.param_slots),
        "fiber": to_text(case.fiber),
        "quotient_variables": list(case.quotient_vars),
        "quotient": to_text(case.quotient),
        "action": {name: {v: to_text(p) for v, p in sub.items()}
                   for name, sub in case.omega_gens.items()},
        "chart": {k: to_text(p) for k, p in case.embedding.items()},
        "strata": [{"id": s.stratum_id, "description": s.description,
                    "configuration": s.quotient_config}
                   for s in case.strata],
    }
    _emit(obj)
    return 0


def _cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    _emit(to_json(rs))
    return 0


def _cmd_subsystems(args) -> int:
    subs = subsystems_for_case(args.case)
    if args.table:
        for i, s in enumerate(subs):
            print(f"[{i:3d}] {s.type_string():16s} witness="
                  f"{tuple(map(str, s.witness))}")
        print(f"total: {len(subs)}")
        return 0
    obj = [{"index": i, "type": s.type_string(),
            "simple_system": [[str(c) for c in g] for g in s.simple_system],
            "witness": [str(c) for c in s.witness]} for i, s in enumerate(subs)]
    _emit(obj)
    return 0


def _parse_point(text: str, params: Sequence[str]) -> Dict[str, Fraction]:
    """Parameter values from `name=value,...`; an item without `=`, a name
    that is not in params, a repeated name or a value that is not a
    rational number raises UsageError naming the item."""
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"point item {item!r} is not name=value")
        if key not in params:
            raise UsageError(f"point item {item!r}: unknown parameter "
                             f"{key!r}; the case has {list(params)}")
        if key in out:
            raise UsageError(f"point item {item!r}: parameter {key!r} "
                             f"given twice")
        try:
            out[key] = Fraction(val.strip())
        except ZeroDivisionError:
            raise UsageError(f"point item {item!r}: division by zero") from None
        except ValueError:
            raise UsageError(f"point item {item!r}: value is not a rational "
                             f"number") from None
    return out


def _cmd_classify(args) -> int:
    if args.surface:
        F = parse(args.surface)
    else:
        if not args.case or not args.point:
            raise UsageError("classify needs --surface or --case with --point")
        case = descriptor(args.case)
        t = _parse_point(args.point, case.params)
        missing = [p for p in case.params if p not in t]
        if missing:
            raise UsageError(f"missing parameters: {missing}")
        source = case.fiber if args.cover else case.quotient
        F = source.subs({p: t[p] for p in case.params})
    _emit(fiber_configuration(F).to_json())
    return 0


def _check_args(args) -> Optional[List[str]]:
    """Validate the arguments of `verify` and `report`; returns the section
    list (None for all) or raises UsageError."""
    if args.samples < 1:
        raise UsageError("sample count must be >= 1")
    if args.theorem2_count < 1:
        raise UsageError("theorem2 count must be >= 1")
    sections = args.sections.split(",") if args.sections else None
    bad = [s for s in sections or () if s not in SECTIONS]
    if bad:
        raise UsageError(f"unknown sections: {bad}; choose from {SECTIONS}")
    return sections


def _cmd_verify(args) -> int:
    cases = CASE_IDS if args.all or not args.case else (args.case,)
    sections = _check_args(args)
    ok = True
    for cid in cases:
        rep = verify_case(cid, seed=args.seed, samples=args.samples,
                          theorem2_count=args.theorem2_count,
                          sections=sections)
        ok = ok and rep["ok"]
        _emit(rep)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    sections = _check_args(args)
    summary = full_report(seed=args.seed, samples=args.samples,
                          theorem2_count=args.theorem2_count,
                          out_dir=args.out, sections=sections)
    _emit(summary)
    return 0 if summary["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singfold",
        description="exact verification toolkit for quotients of "
                    "deformations of simple surface singularities")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized spot checks (default 0)")
    ap.add_argument("--samples", type=int, default=3,
                    help="parameter samples per stratum (default 3)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cases", help="list or show the case catalogue")
    c.add_argument("action", choices=("list", "show"))
    c.add_argument("case", nargs="?", choices=CASE_IDS)
    c.add_argument("--table", action="store_true")
    c.set_defaults(run=_cmd_cases)

    r = sub.add_parser("roots", help="export a root system as JSON")
    r.add_argument("--type", required=True, choices=ROOT_TYPES)
    r.set_defaults(run=_cmd_roots)

    s = sub.add_parser("subsystems",
                       help="enumerate vanishing-set subsystems of a case")
    s.add_argument("--case", required=True, choices=CASE_IDS)
    s.add_argument("--table", action="store_true")
    s.set_defaults(run=_cmd_subsystems)

    k = sub.add_parser("classify", help="classify the singular points of a "
                                        "surface or of a case fiber")
    k.add_argument("--surface", help="polynomial in <= 3 variables")
    k.add_argument("--case", choices=CASE_IDS)
    k.add_argument("--point", help="parameter values, e.g. t2=8,t4=8")
    k.add_argument("--cover", action="store_true",
                   help="classify the covering fiber instead of the quotient")
    k.set_defaults(run=_cmd_classify)

    v = sub.add_parser("verify", help="run the verification sections")
    v.add_argument("--case", choices=CASE_IDS)
    v.add_argument("--all", action="store_true")
    v.add_argument("--sections", help=f"comma list from {','.join(SECTIONS)}")
    v.add_argument("--theorem2-count", type=int, default=10)
    v.set_defaults(run=_cmd_verify)

    p = sub.add_parser("report", help="write verification bundles for all cases")
    p.add_argument("--out", default="reports")
    p.add_argument("--theorem2-count", type=int, default=10)
    p.add_argument("--sections", help=f"comma list from {','.join(SECTIONS)}")
    p.set_defaults(run=_cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cat = verify_catalogue()
        if not cat["ok"]:
            for cid, problems in cat["cases"].items():
                for problem in problems:
                    print(f"error: case catalogue {cid}: {problem}",
                          file=sys.stderr)
            return 1
        return args.run(args)
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the command line was sound: the program failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
