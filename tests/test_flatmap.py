import hashlib
import random
from fractions import Fraction

import pytest

from singfold.families import descriptor
from singfold.flatmap import (chart_point_to_params, correspondence_check,
                              flat_chart, pi_prime, verify_iso,
                              witness_to_chart)
from singfold.rootsys import CASE_IDS
from singfold.poly import to_text
from singfold.subsys import subsystems_for_case

RELATION_COUNTS = {"A3B2D4": 1, "A5B3D5": 1, "D4C3D6": 3, "D4G2E6": 2,
                   "D4G2E7": 5, "E6F4E7": 3}


@pytest.mark.parametrize("cid", CASE_IDS)
def test_chart_relations_vanish(cid):
    chart = flat_chart(cid)  # raises if a relation fails
    assert len(chart.relations) == RELATION_COUNTS[cid]
    if cid == "E6F4E7":
        assert chart.formulas is None
    else:
        assert chart.formulas is not None


def test_e6f4e7_relations_vanish_on_the_d4g2e7_chart():
    # D4G2E7 and E6F4E7 share one E7 coordinate system, so the relations of
    # the withheld E6F4E7 chart vanish under the D4G2E7 chart formulas
    formulas = flat_chart("D4G2E7").formulas
    relations = flat_chart("E6F4E7").relations
    assert len(relations) == 3
    for rel in relations:
        assert rel.subs(formulas).is_zero(), rel


@pytest.mark.parametrize("cid", CASE_IDS)
def test_iso_identities(cid):
    rep = verify_iso(cid)
    assert rep["ok"], rep


def test_d4_chart_example():
    vals = pi_prime("A3B2D4", (Fraction(1), Fraction(1), 0, 0))
    assert vals["p2"] == 2
    assert vals["p4"] == 0
    assert vals["p6"] == Fraction(-2, 27)
    assert vals["pf"] == 0


def test_d6_chart_example():
    vals = pi_prime("D4C3D6", tuple(map(Fraction, (1, 1, 0, 0, 0, 0))))
    assert vals["p2"] == 2
    assert vals["p6"] == 0
    assert vals["pf"] == 0


def test_b2_forward_example():
    chart = flat_chart("A3B2D4")
    t = {"t2": Fraction(8), "t4": Fraction(8)}
    vals = [f.evaluate(t) if not f.is_constant() else f.constant_value()
            for f in chart.forward]
    assert vals == [8, 0, Fraction(-128, 27), 0]


def test_forward_has_no_constant_term():
    for cid in CASE_IDS:
        chart = flat_chart(cid)
        zero = {p: Fraction(0) for p in ("t2", "t4", "t6", "t8", "t12")}
        for f in chart.forward:
            val = f.evaluate({k: zero[k] for k in f.used_variables()}) \
                if not f.is_constant() else f.constant_value()
            assert val == 0


def test_e6_zero_slots():
    chart = flat_chart("D4G2E6")
    idx = {n: i for i, n in enumerate(chart.psi_names)}
    assert chart.forward[idx["p5"]].is_zero()
    assert chart.forward[idx["p9"]].is_zero()


def test_pi_prime_invariant_under_chart_symmetries():
    rng = random.Random(2)
    # D-type charts: sign flips of each coordinate preserve every psi;
    # for D5 coordinate permutations do as well
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
        base = pi_prime("A5B3D5", (a, b, c, 0, 0))
        assert pi_prime("A5B3D5", (-a, b, -c, 0, 0)) == base
        assert pi_prime("A5B3D5", (b, c, a, 0, 0)) == base
        d4 = pi_prime("A3B2D4", (a, b, 0, 0))
        assert pi_prime("A3B2D4", (-b, -a, 0, 0)) == d4


def test_witness_to_chart_validates():
    with pytest.raises(ValueError):
        witness_to_chart("A3B2D4", (1, 1, 1, 0))
    coords = witness_to_chart("A3B2D4", (Fraction(3), Fraction(-2), 0, 0))
    assert coords == {"x1": 3, "x2": -2}
    with pytest.raises(ValueError):
        pi_prime("E6F4E7", (0,) * 8)


def test_pi_prime_of_zero_is_zero():
    for cid in [c for c in CASE_IDS if c != "E6F4E7"]:
        from singfold.rootsys import build_root_system, case_meta
        rs = build_root_system(case_meta(cid).quotient_type)
        vals = pi_prime(cid, (Fraction(0),) * rs.dim)
        assert all(v == 0 for v in vals.values())


def test_correspondence_small_case():
    rep = correspondence_check("A3B2D4")
    assert rep["ok"]
    assert rep["subsystems"] == 6
    types = sorted(e["type"] for e in rep["entries"])
    assert types == ["A1+A1", "A1+A1+A1", "A1+A1+A1", "A3", "A3", "D4"]
    for e in rep["entries"]:
        assert e["stratum"] == e["stratum_expected"]
        assert e["configuration"] == e["type"]


def test_type_to_stratum_covers_all_types():
    # correspondence_check maps each subsystem type to the stratum with that
    # quotient configuration: every type needs one, and every stratum is hit
    for cid in CASE_IDS:
        subs = subsystems_for_case(cid)
        types = {s.type_string() for s in subs}
        strata = {st.quotient_config for st in descriptor(cid).strata}
        assert types == strata


@pytest.mark.parametrize("cid", CASE_IDS)
def test_strata_configurations_are_distinct(cid):
    # so the derived type -> stratum map is a function
    configs = [st.quotient_config for st in descriptor(cid).strata]
    assert len(configs) == len(set(configs))


def test_witness_to_chart_refuses_withheld_chart():
    with pytest.raises(ValueError, match="no explicit chart for E6F4E7"):
        witness_to_chart("E6F4E7", (Fraction(0),) * 8)


def test_chart_point_roundtrip():
    # witness -> psi -> t -> forward reproduces psi for a sample witness
    subs = subsystems_for_case("A5B3D5")
    chart = flat_chart("A5B3D5")
    for s in subs[:6]:
        psi = pi_prime("A5B3D5", s.witness)
        t = chart_point_to_params("A5B3D5", psi)
        for name, f in zip(chart.psi_names, chart.forward):
            val = f.evaluate(t) if not f.is_constant() else f.constant_value()
            assert val == psi[name]


# sha256 of the sorted to_text of every chart formula of the six cases,
# recorded when the D4G2E7 chart was still built coefficient by coefficient
CHART_FORMULAS_SHA256 = \
    "591fb777fa5f7cab7cd5c59099a75d0278772269df90a553b090491dbdc77f94"


def test_chart_formulas_are_pinned():
    digest = hashlib.sha256()
    for cid in CASE_IDS:
        formulas = flat_chart(cid).formulas
        line = (cid, None if formulas is None else
                sorted((k, to_text(p)) for k, p in formulas.items()))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == CHART_FORMULAS_SHA256


# sha256 of the to_text of every component of f and g of the six cases,
# recorded when the base change was still parsed apart from the chart
BASE_CHANGE_SHA256 = \
    "687d3b9f787dae8921e7a865088dbd89ff413235520ffc6b6a9231d999c5bb0b"


def test_base_changes_are_pinned():
    digest = hashlib.sha256()
    for cid in CASE_IDS:
        chart = flat_chart(cid)
        line = (cid, [to_text(f) for f in chart.forward],
                sorted((k, to_text(g)) for k, g in chart.inverse.items()))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == BASE_CHANGE_SHA256
