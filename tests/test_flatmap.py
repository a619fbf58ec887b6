import dataclasses
import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from singfold import families, flatmap
from singfold.cli import main, verify_case
from singfold.families import CatalogueError, descriptor, verify_catalogue
from singfold.flatmap import (chart_point_to_params, correspondence_check,
                              flat_chart, pi_prime, verify_iso,
                              verify_relations, witness_to_chart)
from singfold.rootsys import CASE_IDS
from singfold.poly import Polynomial, parse, to_text
from singfold.subsys import subsystems_for_case

RELATION_COUNTS = {"A3B2D4": 1, "A5B3D5": 1, "D4C3D6": 3, "D4G2E6": 2,
                   "D4G2E7": 5, "E6F4E7": 3}


@pytest.mark.parametrize("cid", CASE_IDS)
def test_chart_relations_vanish(cid):
    chart = flat_chart(cid)
    assert len(chart.relations) == RELATION_COUNTS[cid]
    rep = verify_relations(cid)
    assert rep["ok"] is True
    assert rep["verified_in_chart_coordinates"] is (cid != "E6F4E7")
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
    vals = [f.evaluate(t) if not f.is_constant() else f.constant_term()
            for f in chart.forward]
    assert vals == [8, 0, Fraction(-128, 27), 0]


def test_forward_has_no_constant_term():
    for cid in CASE_IDS:
        chart = flat_chart(cid)
        zero = {p: Fraction(0) for p in ("t2", "t4", "t6", "t8", "t12")}
        for f in chart.forward:
            val = f.evaluate({k: zero[k] for k in f.used_variables()}) \
                if not f.is_constant() else f.constant_term()
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
            val = f.evaluate(t) if not f.is_constant() else f.constant_term()
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


# sha256 of each case's psi names and the to_text of its relations, in file
# order; recorded while the flat records were still Python tables
FLAT_RELATIONS_SHA256 = \
    "e2c7e341b9e464189f9b165661adc53d0bbb482e4a3c15649d3b76171f1f6554"


def test_psi_names_and_relations_are_pinned():
    digest = hashlib.sha256()
    for cid in CASE_IDS:
        chart = flat_chart(cid)
        line = (cid, list(chart.psi_names),
                [to_text(r) for r in chart.relations])
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == FLAT_RELATIONS_SHA256


@pytest.fixture
def cold_flat_charts():
    """Empty flat-chart and descriptor caches, emptied again at the end."""
    flat_chart.cache_clear()
    descriptor.cache_clear()
    yield
    flat_chart.cache_clear()
    descriptor.cache_clear()


def _catalogue_copy(tmp_path, monkeypatch, names, edit=None):
    """The named data files copied to tmp_path, `edit` = (name, old, new)
    applied once, and the catalogue pointed there."""
    for name in names:
        text = (families.CATALOGUE / name).read_text()
        if edit and edit[0] == name:
            assert edit[1] in text
            text = text.replace(edit[1], edit[2], 1)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(families, "CATALOGUE", tmp_path)


ALL_DATA_FILES = [f"{cid}{kind}.txt" for cid in CASE_IDS
                  for kind in ("", ".flat")]

# (case, line to replace, replacement, problem the error must name)
BROKEN_FLAT_FILES = [
    ("A3B2D4", "flat.pf = 0\n", "flat.pf = 0\nflat.p7 = x1^7\n",
     "flat.p7: unknown key"),
    ("A5B3D5", "flat.p2 = x1^2 + x2^2 + x3^2\n", "flat.p2 = t2\n",
     "flat.p2: variables ['t2'] not allowed"),
    ("D4C3D6", "forward.pf = ", "# forward.pf = ", "forward.pf: missing"),
    ("D4G2E6", "flat.p5 = 0\n", "", "flat.p5: missing"),
    ("D4G2E7", "relation.p8 = ", "relation.p6 = ",
     "relation.p6: not monic and linear in p6"),
    ("E6F4E7", "inverse.t2 = p2\n", "inverse.t2 = p2\ninverse.t2 = p2\n",
     "inverse.t2: given twice"),
]


@pytest.mark.parametrize("cid,old,new,problem", BROKEN_FLAT_FILES,
                         ids=[f"{b[0]}-{b[3].split(':')[0]}"
                              for b in BROKEN_FLAT_FILES])
def test_malformed_flat_file_is_reported(tmp_path, monkeypatch, capsys,
                                         cold_flat_charts,
                                         cid, old, new, problem):
    _catalogue_copy(tmp_path, monkeypatch, ALL_DATA_FILES,
                    (f"{cid}.flat.txt", old, new))
    with pytest.raises(CatalogueError) as exc:
        flat_chart(cid)
    assert [p for p in exc.value.problems if p.startswith(problem)], \
        exc.value.problems
    # set-up reads no flat file, so the broken one stops only its section
    assert verify_catalogue()["ok"]
    assert main(["verify", "--case", cid, "--sections", "iso"]) == 1
    err = capsys.readouterr().err
    assert f"error: case catalogue {cid}.flat: " in err and problem in err


def test_flat_relations_fail_on_a_relation_off_the_chart(
        tmp_path, monkeypatch, capsys, cold_flat_charts):
    # the chart loads; only the flat-relations section finds the relation
    # that does not vanish on it
    _catalogue_copy(tmp_path, monkeypatch, ALL_DATA_FILES,
                    ("A3B2D4.flat.txt", "1/108*p2^3", "1/107*p2^3"))
    rep = verify_relations("A3B2D4")
    assert rep["verified_in_chart_coordinates"] is True
    assert any("1/107*p2^3" in r for r in rep["relations"])
    _fails_everywhere("A3B2D4", "flat-relations", rep, capsys)
    doc = verify_case("A3B2D4", samples=1, theorem2_count=2)
    assert [s for s, body in doc["sections"].items() if not body["ok"]] == \
        ["flat-relations"]


def test_set_up_reads_no_flat_file(tmp_path, monkeypatch, cold_flat_charts):
    _catalogue_copy(tmp_path, monkeypatch, [f"{cid}.txt" for cid in CASE_IDS])
    assert verify_catalogue() == {"ok": True,
                                  "cases": {cid: [] for cid in CASE_IDS}}
    assert [descriptor(cid).case_id for cid in CASE_IDS] == list(CASE_IDS)
    with pytest.raises(FileNotFoundError):
        flat_chart("A3B2D4")


# each verdict conjunct made false on its own, through monkeypatch: the
# section, verify_case and the command line must all fail

def _fails_everywhere(cid, section, report, capsys):
    assert report["ok"] is False
    assert verify_case(cid, sections=[section])["ok"] is False
    assert main(["verify", "--case", cid, "--sections", section]) == 1
    capsys.readouterr()


def test_iso_fails_on_g_after_f_alone(monkeypatch, capsys):
    # a chart restricted to the line x2 = 0 and an inverse that is wrong off
    # that line only: f o g still holds on the chart, g o f does not
    chart = flat_chart("A3B2D4")
    inverse = {**chart.inverse,
               "t4": chart.inverse["t4"] + parse("p4 + p2^2/4")}
    line = {k: f.subs({"x2": Polynomial.zero()})
            for k, f in chart.formulas.items()}
    broken = dataclasses.replace(chart, formulas=line, inverse=inverse)
    monkeypatch.setattr(flatmap, "flat_chart", lambda cid: broken)
    rep = verify_iso("A3B2D4")
    assert rep["g_after_f"] == {"t2": True, "t4": False}
    assert all(rep["f_after_g"].values())
    _fails_everywhere("A3B2D4", "iso", rep, capsys)


@pytest.mark.parametrize("cid", ["A3B2D4", "E6F4E7"])
def test_iso_fails_on_f_after_g_alone(cid, monkeypatch, capsys):
    # a component of f that g never reads: g o f still holds
    chart = flat_chart(cid)
    last = chart.psi_names[-1]
    forward = chart.forward[:-1] + (chart.forward[-1] + parse("t2"),)
    broken = dataclasses.replace(chart, forward=forward)
    assert all(last not in g.used_variables() for g in chart.inverse.values())
    monkeypatch.setattr(flatmap, "flat_chart", lambda cid: broken)
    rep = verify_iso(cid)
    assert all(rep["g_after_f"].values())
    assert [k for k, v in rep["f_after_g"].items() if not v] == [last]
    _fails_everywhere(cid, "iso", rep, capsys)


def test_correspondence_fails_on_the_stratum_alone(monkeypatch, capsys):
    monkeypatch.setattr(flatmap, "stratum_membership",
                        lambda cid, t: "generic")
    rep = correspondence_check("A3B2D4")
    assert all(e["configuration"] == e["type"] for e in rep["entries"])
    assert not all(e["match"] for e in rep["entries"])
    _fails_everywhere("A3B2D4", "correspondence", rep, capsys)


def test_correspondence_fails_on_the_configuration_alone(monkeypatch, capsys):
    classify = flatmap.classify_quotient_fiber

    def misread(cid, t):
        real = classify(cid, t).type_string()
        return SimpleNamespace(type_string=lambda: real + "+A1")

    monkeypatch.setattr(flatmap, "classify_quotient_fiber", misread)
    rep = correspondence_check("A3B2D4")
    assert all(e["stratum"] == e["stratum_expected"] for e in rep["entries"])
    assert not any(e["match"] for e in rep["entries"])
    _fails_everywhere("A3B2D4", "correspondence", rep, capsys)


def test_correspondence_fails_on_the_census_alone(monkeypatch, capsys):
    # every subsystem of one type left out: each entry still matches its
    # stratum, but the census misses that stratum
    subs = subsystems_for_case("E6F4E7")
    dropped = subs[0].type_string()
    monkeypatch.setattr(flatmap, "subsystems_for_case",
                        lambda cid: [s for s in subs
                                     if s.type_string() != dropped])
    rep = correspondence_check("E6F4E7")
    assert all(e["match"] for e in rep["entries"])
    assert rep["census_matches_strata"] is False
    _fails_everywhere("E6F4E7", "correspondence", rep, capsys)
