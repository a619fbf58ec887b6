"""Restricted flat charts with their base changes, and the correspondence
engine.

The flat record of a case, :class:`FlatChart`, holds the distinguished
invariant coordinates psi of the big root system restricted to the
intersection of the pinned reflection hyperplanes, the polynomial relations
they satisfy, and the base change f from the small parameter space with its
one-sided inverse g; :func:`flat_chart` parses all of it once per case.  The
correspondence engine routes every enumerated subsystem witness through the
chart into the parameter space and matches the classified quotient fiber
against the subsystem type.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .families import (classify_quotient_fiber, descriptor, sample_stratum,
                       stratum_membership)
from .poly import Polynomial, parse
from .rootsys import Vector, build_root_system, case_meta, cartan_point
from .subsys import subsystems_for_case

# psi symbols: p<degree>, plus "pf" for the degree-r Pfaffian-type coordinate
# of the D-series


@dataclass(frozen=True)
class FlatChart:
    case_id: str
    psi_names: Tuple[str, ...]
    formulas: Optional[Dict[str, Polynomial]]   # None: withheld (stratum route)
    relations: Tuple[Polynomial, ...]      # vanish identically in psi symbols
    forward: Tuple[Polynomial, ...]        # f: one component per psi name
    inverse: Dict[str, Polynomial]         # g: t parameter -> polynomial in psi


_D6_SYM2 = ("x1^6*x3^2 + x1^6*x5^2 + x1^2*x3^6 + x1^2*x5^6 + x3^6*x5^2"
            " + x3^2*x5^6")
_D6_SYM2R = ("x1^8*x3^2 + x1^8*x5^2 + x1^2*x3^8 + x1^2*x5^8 + x3^8*x5^2"
             " + x3^2*x5^8")
_D6_SYM3 = ("x1^6*x3^4 + x1^6*x5^4 + x1^4*x3^6 + x1^4*x5^6 + x3^6*x5^4"
            " + x3^4*x5^6")

_E7_Q = "(x3^2 + x3*x5 + x5^2)"

_CHART_TEXT: Dict[str, Optional[Dict[str, str]]] = {
    "A3B2D4": {
        "p2": "x1^2 + x2^2",
        "p4": "-1/4*(x1^2 - x2^2)^2",
        "p6": "-1/6*(x1^2 + x2^2)*x1^2*x2^2 + 7/216*(x1^2 + x2^2)^3",
        "pf": "0",
    },
    "A5B3D5": {
        "p2": "x1^2 + x2^2 + x3^2",
        "p4": "x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2"
              " - 5/16*(x1^2 + x2^2 + x3^2)^2",
        "p6": "x1^2*x2^2*x3^2"
              " - 3/8*(x1^2 + x2^2 + x3^2)*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2)"
              " + 11/128*(x1^2 + x2^2 + x3^2)^3",
        "p8": "-1/8*(x1^2 + x2^2 + x3^2)*x1^2*x2^2*x3^2"
              " - 1/16*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2)^2"
              " + 9/128*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2)"
              "*(x1^2 + x2^2 + x3^2)^2"
              " - 51/4096*(x1^2 + x2^2 + x3^2)^4",
        "pf": "0",
    },
    "D4C3D6": {
        "p2": "2*(x1^2 + x3^2 + x5^2)",
        "p4": "-2/5*(x1^4 + x3^4 + x5^4)"
              " + 6/5*(x1^2*x3^2 + x1^2*x5^2 + x3^2*x5^2)",
        "p6": "2*x1^2*x3^2*x5^2",
        "p8": "4/125*(x1^8 + x3^8 + x5^8)"
              f" - 14/125*({_D6_SYM2})"
              " + 14/125*(x1^4*x3^4 + x1^4*x5^4 + x3^4*x5^4)"
              " + 98/125*(x1^4*x3^2*x5^2 + x1^2*x3^2*x5^4 + x1^2*x3^4*x5^2)",
        "p10": "-108/625*(x1^2*x3^2*x5^6 + x1^6*x3^2*x5^2 + x1^2*x3^6*x5^2)"
               " - 22/3125*(x1^10 + x3^10 + x5^10)"
               f" - 24/625*({_D6_SYM3})"
               f" + 18/625*({_D6_SYM2R})"
               " + 648/625*(x1^4*x3^2*x5^4 + x1^2*x3^4*x5^4 + x1^4*x3^4*x5^2)",
        "pf": "x1^2*x3^2*x5^2",
    },
    "D4G2E6": {
        "p2": "2*x2^2 + 6*x2*x4 + 6*x4^2",
        "p5": "0",
        "p6": "-x2^6 - 9*x2^5*x4 - 30*x2^4*x4^2 - 45*x2^3*x4^3"
              " - 30*x2^2*x4^4 - 9*x2*x4^5 - 3*x4^6",
        "p8": "1/12*(x2^2 + 3*x2*x4 + 3*x4^2)*(5*x2^6 + 45*x2^5*x4"
              " + 144*x2^4*x4^2 + 189*x2^3*x4^3 + 72*x2^2*x4^4"
              " - 27*x2*x4^5 - 9*x4^6)",
        "p9": "0",
        "p12": "693/4*x2^2*x4^10 + 189/2*x2*x4^11 - 2277/2*x2^5*x4^7"
               " - 1947/2*x2^7*x4^5 - 9/2*x2^11*x4 - 143/4*x2^10*x4^2"
               " - 165*x2^9*x4^3 - 1089/2*x2^4*x4^8 - 5225/4*x2^6*x4^6"
               " + 63/4*x4^12 - 1/4*x2^12 - 979/2*x2^8*x4^4",
    },
    "D4G2E7": {
        "p2": f"2/5*{_E7_Q}",
        "p6": "32176/225*x3^6 + 32176/75*x3^5*x5 + 53552/75*x3^4*x5^2"
              " + 160432/225*x3^3*x5^3 + 53552/75*x3^2*x5^4"
              " + 32176/75*x3*x5^5 + 32176/225*x5^6",
        "p8": f"16/30375*{_E7_Q}*(550819*x3^6 + 1652457*x3^5*x5"
              " + 1389264*x3^4*x5^2 + 24433*x3^3*x5^3 + 1389264*x3^2*x5^4"
              " + 1652457*x3*x5^5 + 550819*x5^6)",
        "p10": f"96/109375*{_E7_Q}^2*(20743*x3^6 + 62229*x3^5*x5"
               " + 41208*x3^4*x5^2 - 21299*x3^3*x5^3 + 41208*x3^2*x5^4"
               " + 62229*x3*x5^5 + 20743*x5^6)",
        "p12": "-3081278138/17940234375*x3^12 - 6162556276/5980078125*x3^11*x5"
               " - 62899959716/5980078125*x3^10*x5^2"
               " - 4423023418/102515625*x3^9*x5^3"
               " - 42062501701/398671875*x3^8*x5^4"
               " - 347826674932/1993359375*x3^7*x5^5"
               " - 175228928248/854296875*x3^6*x5^6"
               " - 347826674932/1993359375*x3^5*x5^7"
               " - 42062501701/398671875*x3^4*x5^8"
               " - 4423023418/102515625*x3^3*x5^9"
               " - 62899959716/5980078125*x3^2*x5^10"
               " - 6162556276/5980078125*x3*x5^11"
               " - 3081278138/17940234375*x5^12",
        "p14": f"-4/30903847734375*{_E7_Q}*(1511960253367*x3^12"
               " + 9071761520202*x3^11*x5 + 67786465629432*x3^10*x5^2"
               " + 255774514211975*x3^9*x5^3 + 617323843488330*x3^8*x5^4"
               " + 1034437665403692*x3^7*x5^5 + 1226835303782847*x3^6*x5^6"
               " + 1034437665403692*x3^5*x5^7 + 617323843488330*x3^4*x5^8"
               " + 255774514211975*x3^3*x5^9 + 67786465629432*x3^2*x5^10"
               " + 9071761520202*x3*x5^11 + 1511960253367*x5^12)",
        "p18": "-32/128185297421220703125*(1559393204632678124309*x3^18"
               " + 14034538841694103118781*x3^17*x5"
               " + 60963681973326022543005*x3^16*x5^2"
               " + 169593242041541842985004*x3^15*x5^3"
               " + 344522767638355203339576*x3^14*x5^4"
               " + 557184385849236351896088*x3^13*x5^5"
               " + 769022556243589337205036*x3^12*x5^6"
               " + 951720055625754918731286*x3^11*x5^7"
               " + 1082419658641873711381563*x3^10*x5^8"
               " + 1130352277482466793600351*x3^9*x5^9"
               " + 1082419658641873711381563*x3^8*x5^10"
               " + 951720055625754918731286*x3^7*x5^11"
               " + 769022556243589337205036*x3^6*x5^12"
               " + 557184385849236351896088*x3^5*x5^13"
               " + 344522767638355203339576*x3^4*x5^14"
               " + 169593242041541842985004*x3^3*x5^15"
               " + 60963681973326022543005*x3^2*x5^16"
               " + 14034538841694103118781*x3*x5^17"
               " + 1559393204632678124309*x5^18)",
    },
    "E6F4E7": None,   # withheld: only the relations are available
}

_RELATION_TEXT = {
    "A3B2D4": ["p6 + 1/108*p2^3 + 1/6*p2*p4"],
    "A5B3D5": ["p8 + 1/2048*p2^4 + 1/8*p2*p6 + 1/64*p2^2*p4 + 1/16*p4^2"],
    "D4C3D6": ["p8 - 1/5*p2*p6 + 1/100*p2^2*p4 - 1/10*p4^2",
               "p10 + 1/50000*p2^5 - 1/50*p2^2*p6 + 1/50*p2*p4^2 - 2/5*p4*p6",
               "pf - 1/2*p6"],
    "D4G2E6": ["p8 + 1/192*p2^4 + 1/4*p2*p6",
               "p12 - 1/1536*p2^6 + 1/8*p6^2 - 1/48*p2^3*p6"],
    "D4G2E7": [
        "p8 + 2252645/81*p2^4 - 473/27*p2*p6",
        "p10 + 557383/105*p2^5 - 111/35*p2^2*p6",
        "p12 + 43251895481/24494400*p2^6 - 1079173/1360800*p2^3*p6"
        " + 1/103680*p6^2",
        "p14 + 573683065303/145496736*p2^7 - 10112840293/4688228160*p2^4*p6"
        " + 17821/89299584*p2*p6^2",
        "p18 + 15896711538141155833/4023348492240*p2^9"
        " - 391876556269181513/64820614597200*p2^6*p6"
        " + 7868764351687/3601145255400*p2^3*p6^2 + 5/419904*p6^3",
    ],
    "E6F4E7": [
        "p10 - 82928/45*p2^5 + 4/3*p2^2*p6 - 9/35*p2*p8",
        "p14 + 12190772504/2219805*p2^7 - 7281979/1522152*p2^4*p6"
        " + 471547/789264*p2^3*p8 - 3779/6765120*p2*p6^2"
        " - 73490/8613*p12*p2 + 1/25920*p6*p8",
        "p18 + 1271044247268145576/94705443405*p2^9"
        " - 256749355304/25982289*p2^6*p6"
        " + 12475637391961/9093801150*p2^5*p8"
        " - 6360724111/3117874680*p2^3*p6^2"
        " - 470160383920/31756131*p12*p2^3"
        " + 5935967/41810580*p2^2*p6*p8"
        " + 101699/30970800*p2*p8^2 + 1/52488*p6^3 + 20/27*p12*p6",
    ],
}

_PSI_NAMES = {
    "A3B2D4": ("p2", "p4", "p6", "pf"),
    "A5B3D5": ("p2", "p4", "p6", "p8", "pf"),
    "D4C3D6": ("p2", "p4", "p6", "p8", "p10", "pf"),
    "D4G2E6": ("p2", "p5", "p6", "p8", "p9", "p12"),
    "D4G2E7": ("p2", "p6", "p8", "p10", "p12", "p14", "p18"),
    "E6F4E7": ("p2", "p6", "p8", "p10", "p12", "p14", "p18"),
}

_FORWARD_TEXT = {
    "A3B2D4": ["t2", "t4 - t2^2/8", "5/432*t2^3 - 1/6*t2*t4", "0"],
    "A5B3D5": ["t2", "t4 - 1/16*t2^2", "t6 - 5/24*t2*t4 + 5/3456*t2^3",
               "7/110592*t2^4 - 1/8*t2*t6 + 7/384*t2^2*t4 - 1/16*t4^2", "0"],
    "D4C3D6": ["t2", "1/2*t4 + 1/40*t2^2",
               "1/4*t6 + 1/24*t2*t4 + 1/432*t2^3",
               "1/20*t2*t6 + 7/1200*t2^2*t4 + 119/432000*t2^4 + 1/40*t4^2",
               "133/3600000*t2^5 + 3/400*t2^2*t6 + 131/108000*t2^3*t4"
               " + 1/300*t2*t4^2 + 1/20*t4*t6",
               "1/8*t6 + 1/48*t2*t4 + 1/864*t2^3"],
    "D4G2E6": ["t2", "0", "-6*t6 - 5/72*t2^3", "7/576*t2^4 + 3/2*t2*t6", "0",
               "-29/20736*t2^6 - 9/2*t6^2 - 11/48*t6*t2^3"],
    "D4G2E7": ["t2", "18610/9*t2^3 + 18000*t6",
               "2044595/243*t2^4 + 946000/3*t2*t6",
               "6247/5*t2^5 + 399600/7*t2^2*t6",
               "-877545367/5248800*t2^6 + 30746815/2268*t2^3*t6 - 3125*t6^2",
               "-4251411945217/12658216032*t2^7 + 42570028475/1775844*t2^4*t6"
               " - 556906250/8613*t2*t6^2",
               "-134750219913739937987/150013422353520*t2^9"
               " - 277874830706221330/4910652621*t2^6*t6"
               " - 488086012279345000/666878751*t2^3*t6^2"
               " - 625000000/9*t6^3"],
    "E6F4E7": ["t2", "16735/9*t2^3 - 3000*t6",
               "4884005/972*t2^4 - 360500/9*t2*t6 + 50000*t8",
               "13113/20*t2^5 - 6300*t2^2*t6 + 90000/7*t2*t8",
               "-1533855367/5248800*t2^6 - 5865805/7776*t2^3*t6"
               " + 2927375/504*t2^2*t8 - 34375/72*t6^2 - 3125*t12",
               "-4794135161101/9205975296*t2^7 + 2226935425/6088608*t2^4*t6"
               " + 4765011875/295974*t2^3*t8 - 103796875/28188*t2*t6^2"
               " - 229656250/8613*t2*t12 + 156250/27*t6*t8",
               "-74647399081995101197/218201341605120*t2^9"
               " + 53845033157553005/8418261636*t2^6*t6"
               " - 2973773239515500/545628069*t2^5*t8"
               " - 2028480753289375/155893734*t2^3*t6^2"
               " - 3997692756437500/95268393*t2^3*t12"
               " - 635618750000/77427*t2*t8^2"
               " - 62500000/9*t12*t6"
               " + 32999899562500/696843*t2^2*t6*t8"
               " - 132812500/243*t6^3"],
}

_INVERSE_TEXT = {
    "A3B2D4": {"t2": "p2", "t4": "p4 + 1/8*p2^2"},
    "A5B3D5": {"t2": "p2", "t4": "p4 + 1/16*p2^2",
               "t6": "p6 + 5/24*p2*p4 + 5/432*p2^3"},
    "D4C3D6": {"t2": "p2", "t4": "2*p4 - 1/20*p2^2",
               "t6": "4*p6 - 1/3*p2*p4 - 1/1080*p2^3"},
    "D4G2E6": {"t2": "p2", "t6": "-1/6*p6 - 5/432*p2^3"},
    "D4G2E7": {"t2": "p2", "t6": "1/18000*p6 - 1861/16200*p2^3"},
    "E6F4E7": {"t2": "p2", "t6": "3347/5400*p2^3 - 1/3000*p6",
               "t8": "1/50000*p8 + 1283191/3240000*p2^4 - 721/2700000*p2*p6",
               "t12": "18995770783/43740000000*p2^6 - 342859/972000000*p2^3*p6"
                      " + 23419/630000000*p2^2*p8 - 11/648000000*p6^2"
                      " - 1/3125*p12"},
}

@functools.cache
def flat_chart(case_id: str) -> FlatChart:
    """The flat record of a case, its chart relations verified at load."""
    text = _CHART_TEXT[case_id]
    formulas = None if text is None else {k: parse(v) for k, v in text.items()}
    relations = tuple(parse(r) for r in _RELATION_TEXT[case_id])
    if formulas is not None:
        for rel in relations:
            if not rel.subs(formulas).is_zero():
                raise AssertionError(
                    f"{case_id}: flat-chart relation fails to vanish: {rel}")
    return FlatChart(case_id, _PSI_NAMES[case_id], formulas, relations,
                     tuple(parse(s) for s in _FORWARD_TEXT[case_id]),
                     {k: parse(v) for k, v in _INVERSE_TEXT[case_id].items()})


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
        # withheld chart: express the dependent psi symbols through the
        # relation list (each relation is monic-linear in one symbol)
        rel_sub: Dict[str, Polynomial] = {}
        for rel in chart.relations:
            for name in chart.psi_names:
                cs = rel.coefficients_in(name)
                if len(cs) == 2 and cs[1].is_constant() and \
                        cs[1].constant_value() == 1:
                    rel_sub[name] = -cs[0]
                    break
            else:
                raise AssertionError("relation not solvable for a psi symbol")
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
