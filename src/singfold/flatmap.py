"""Restricted flat charts with their base changes, and the correspondence
engine.

The flat record of a case, :class:`FlatChart`, holds the distinguished
invariant coordinates psi of the big root system restricted to the
intersection of the pinned reflection hyperplanes, the polynomial relations
they satisfy, and the base change f from the small parameter space with its
one-sided inverse g; :func:`flat_chart` reads all of it from
`data/<case>.flat.txt` once per case.  The correspondence engine routes
every enumerated subsystem witness through the chart into the parameter
space and matches the classified quotient fiber against the subsystem type.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .families import (classify_quotient_fiber, descriptor, read_catalogue,
                       sample_stratum, stratum_membership)
from .poly import Polynomial, to_text
from .rootsys import (Vector, basic_invariants, build_root_system, case_meta,
                      cartan_point)
from .subsys import subsystems_for_case


@dataclass(frozen=True)
class FlatChart:
    case_id: str
    psi_names: Tuple[str, ...]
    formulas: Optional[Dict[str, Polynomial]]   # None: withheld (stratum route)
    relations: Tuple[Polynomial, ...]      # among the psi symbols
    solved: Tuple[str, ...]                # the psi symbol each relation is
                                           # monic and linear in
    forward: Tuple[Polynomial, ...]        # f: one component per psi name
    inverse: Dict[str, Polynomial]         # g: t parameter -> polynomial in psi


def _monic_linear(p: Polynomial, name: str) -> bool:
    cs = p.coefficients_in(name)
    return len(cs) == 2 and cs[1].is_constant() and cs[1].constant_term() == 1


@functools.cache
def flat_chart(case_id: str) -> FlatChart:
    """The flat record of a case from `data/<case>.flat.txt`: `flat.<psi>`
    in the Cartan coordinates x1..x<dim>, all or none; `relation.<psi>`,
    monic and linear in psi;
    `forward.<psi>` in the parameters; `inverse.<t>` in the psi symbols.
    The psi symbols are the basic invariants of the quotient type."""
    label = case_meta(case_id).quotient_type
    psi = basic_invariants(label)
    params = descriptor(case_id).params
    cartan = {f"x{i}" for i in range(1, build_root_system(label).dim + 1)}
    allowed = {f"flat.{p}": cartan for p in psi}
    allowed.update((f"relation.{p}", set(psi)) for p in psi)
    allowed.update((f"forward.{p}", set(params)) for p in psi)
    allowed.update((f"inverse.{t}", set(psi)) for t in params)

    def rule(entries) -> list:
        given = [p for p in psi if f"flat.{p}" in entries]
        problems = [f"flat.{p}: missing; the chart is given for "
                    f"{', '.join(given)} only" for p in psi
                    if given and p not in given]
        problems += [f"relation.{p}: not monic and linear in {p}"
                     for p in psi if entries.get(f"relation.{p}") is not None
                     and not _monic_linear(entries[f"relation.{p}"], p)]
        return problems

    name = f"{case_id}.flat"
    entries = read_catalogue(name, allowed, ("flat.", "relation."), rule)
    formulas = ({p: entries[f"flat.{p}"] for p in psi}
                if f"flat.{psi[0]}" in entries else None)
    solved = tuple(k[len("relation."):] for k in entries
                   if k.startswith("relation."))
    relations = tuple(entries[f"relation.{p}"] for p in solved)
    return FlatChart(case_id, psi, formulas, relations, solved,
                     tuple(entries[f"forward.{p}"] for p in psi),
                     {t: entries[f"inverse.{t}"] for t in params})


def verify_relations(case_id: str) -> dict:
    """The flat-relations section: every relation vanishes identically
    under the chart formulas; a withheld chart (E6F4E7) has none."""
    chart = flat_chart(case_id)
    return {"ok": chart.formulas is None
            or all(r.subs(chart.formulas).is_zero() for r in chart.relations),
            "relations": [to_text(r) for r in chart.relations],
            "verified_in_chart_coordinates": chart.formulas is not None}


def verify_iso(case_id: str) -> dict:
    """Both composition identities of the base change, reduced to zero.

    (a) g(f(t)) = t in the parameter polynomial ring;
    (b) f(g(psi)) = psi on the chart image: after substituting the chart
        formulas (or, when those are withheld, the relation list) the
        residual of every component must vanish identically.
    """
    case = descriptor(case_id)
    chart = flat_chart(case_id)
    report = {"case": case_id, "ok": True, "g_after_f": {}, "f_after_g": {}}
    psi_of_t = dict(zip(chart.psi_names, chart.forward))
    for p in case.params:
        resid = chart.inverse[p].subs(psi_of_t) - Polynomial.var(p)
        report["g_after_f"][p] = resid.is_zero()
    # f o g on the image of the chart
    t_of_psi = chart.inverse
    if chart.formulas is not None:
        target = {name: chart.formulas[name] for name in chart.psi_names}
        for name, fwd in zip(chart.psi_names, chart.forward):
            lhs = fwd.subs(t_of_psi).subs(target)
            resid = lhs - target[name]
            report["f_after_g"][name] = resid.is_zero()
    else:
        # withheld chart: express each solved psi symbol through its
        # relation, which is monic and linear in it
        rel_sub = {name: Polynomial.var(name) - rel
                   for name, rel in zip(chart.solved, chart.relations)}
        for name, fwd in zip(chart.psi_names, chart.forward):
            lhs = fwd.subs(t_of_psi)
            rhs = rel_sub.get(name, Polynomial.var(name))
            resid = (lhs - rhs).subs(rel_sub)
            report["f_after_g"][name] = resid.is_zero()
    report["ok"] = all(report["g_after_f"].values()) and \
        all(report["f_after_g"].values())
    return report


def witness_to_chart(case_id: str, witness: Vector) -> Dict[str, Fraction]:
    """Coordinates of a pinned-locus Cartan point in the case chart: the
    chart variables are those of the chart formulas, and x<i> is the i-th
    Cartan coordinate."""
    formulas = flat_chart(case_id).formulas
    if formulas is None:
        raise ValueError(f"no explicit chart for {case_id}")
    meta = case_meta(case_id)
    rs = build_root_system(meta.quotient_type)
    h = cartan_point(rs, witness)
    for i in meta.theta:
        alpha = rs.simple_roots[i - 1]
        if sum(a * b for a, b in zip(alpha, h)) != 0:
            raise ValueError("witness violates a pinned hyperplane constraint")
    return {v: h[int(v[1:]) - 1] for f in formulas.values()
            for v in f.used_variables()}


def pi_prime(case_id: str, witness: Vector) -> Dict[str, Fraction]:
    """Flat coordinates of the projection of a pinned Cartan point."""
    coords = witness_to_chart(case_id, witness)
    vals = {k: Fraction(v) for k, v in coords.items()}
    chart = flat_chart(case_id)
    return {name: chart.formulas[name].evaluate(vals)
            for name in chart.psi_names}


def chart_point_to_params(case_id: str, psi: Dict[str, Fraction]) -> Dict[str, Fraction]:
    inverse = flat_chart(case_id).inverse
    return {p: inverse[p].evaluate(psi) for p in descriptor(case_id).params}


def correspondence_check(case_id: str) -> dict:
    """Verify that every enumerated subsystem matches the singular
    configuration of the quotient fiber it induces.

    For the cases with explicit chart formulas the witness is routed
    through psi and the inverse base change; where the chart is withheld
    (E6F4E7) each subsystem type is verified through its stratum with
    freshly sampled points, and the type census must equal the strata.
    """
    case = descriptor(case_id)
    chart = flat_chart(case_id)
    subs = subsystems_for_case(case_id)
    # the stratum realizing each subsystem type
    type_map = {st.quotient_config: st.stratum_id for st in case.strata}
    entries = []
    ok = True
    stratum_cache: Dict[str, bool] = {}
    for s in subs:
        entry: Dict[str, object] = {"type": s.type_string(),
                                    "witness": [str(c) for c in s.witness]}
        expected = type_map.get(s.type_string())
        if expected is None:
            entry["error"] = "type absent from the stratum map"
            ok = False
            entries.append(entry)
            continue
        entry["stratum_expected"] = expected
        if chart.formulas is not None:
            psi = pi_prime(case_id, s.witness)
            t = chart_point_to_params(case_id, psi)
            # consistency: f(t) must reproduce psi
            tvals = {k: Fraction(v) for k, v in t.items()}
            for name, fwd in zip(chart.psi_names, chart.forward):
                if fwd.evaluate(tvals) != psi[name]:
                    entry["error"] = f"f(g(psi)) != psi at {name}"
                    ok = False
            entry["psi"] = {k: str(v) for k, v in psi.items()}
            entry["t"] = {k: str(v) for k, v in t.items()}
            stratum = stratum_membership(case_id, t)
            entry["stratum"] = stratum
            conf = classify_quotient_fiber(case_id, t)
            entry["configuration"] = conf.type_string()
            entry["match"] = (stratum == expected
                              and conf.type_string() == s.type_string())
        else:
            entry["route"] = "stratum"
            if expected not in stratum_cache:
                pts = sample_stratum(case_id, expected, 1)
                match = True
                for t in pts:
                    conf = classify_quotient_fiber(case_id, t)
                    if conf.type_string() != s.type_string():
                        match = False
                stratum_cache[expected] = match
            entry["match"] = stratum_cache[expected]
        if not entry["match"]:
            ok = False
        entries.append(entry)
    report = {"case": case_id, "ok": ok, "subsystems": len(subs),
              "entries": entries}
    if chart.formulas is None:
        census = sorted({s.type_string() for s in subs})
        report["type_census"] = census
        report["census_matches_strata"] = census == sorted(type_map.keys())
        report["ok"] = report["ok"] and report["census_matches_strata"]
    return report
