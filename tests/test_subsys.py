import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singfold.rootsys import (CASE_IDS, build_root_system, case_meta,
                              theta_roots, vanishing_set, vneg)
from singfold.subsys import (EXPECTED_SUBSYSTEM_COUNTS, REALIZATIONS,
                             _moment_witness, canonical_type,
                             classify_subsystem, format_type,
                             match_realizations, parse_type,
                             reflection_closure, subsystems_for_case)

EXPECTED_COUNTS_BY_TYPE = {
    "A3B2D4": {"A1+A1": 1, "A1+A1+A1": 2, "A3": 2, "D4": 1},
    "A5B3D5": {"A1+A1": 1, "A1+A1+A1": 6, "A3": 3, "A2+A1+A1": 4,
               "A3+A1": 6, "D4": 3, "D5": 1},
    "D4C3D6": {"A1+A1+A1": 1, "A1+A1+A1+A1": 3, "A3+A1": 6,
               "A3+A1+A1": 6, "D4+A1": 3, "A5": 4, "D6": 1},
    "D4G2E6": {"A2+A2": 1, "A2+A2+A1": 3, "A5": 3, "E6": 1},
    "D4G2E7": {"A2+A1+A1+A1": 1, "A3+A2+A1": 3, "D5+A1": 3, "E7": 1},
}

F4_EXPECTED_TYPES = sorted(canonical_type(t.split("+")) for t in (
    "A1+A1+A1", "A3+A1", "D4+A1", "D5+A1", "D6", "A5", "A1+A1+A1+A1",
    "A2+A1+A1+A1", "A3+A1+A1", "A3+A2+A1", "A5+A1", "E7"))


def test_type_label_helpers():
    assert format_type(("A1", "A3")) == "A3+A1"
    assert canonical_type(["A1", "A2", "A1"]) == ("A2", "A1", "A1")
    assert parse_type("A1+A3") == ("A3", "A1")


@pytest.mark.parametrize("cid", [c for c in CASE_IDS if c != "E6F4E7"])
def test_enumeration_counts(cid):
    subs = subsystems_for_case(cid)
    assert len(subs) == EXPECTED_SUBSYSTEM_COUNTS[cid]
    counts = {}
    for s in subs:
        counts[s.type_string()] = counts.get(s.type_string(), 0) + 1
    assert counts == EXPECTED_COUNTS_BY_TYPE[cid]


def test_f4_census_matches_types():
    subs = subsystems_for_case("E6F4E7")
    census = sorted({s.type_label for s in subs})
    assert census == F4_EXPECTED_TYPES


def test_enumeration_is_stable():
    first = subsystems_for_case("A3B2D4")
    second = subsystems_for_case("A3B2D4")
    assert [(s.type_label, sorted(s.roots)) for s in first] == \
        [(s.type_label, sorted(s.roots)) for s in second]


@pytest.mark.parametrize("cid", CASE_IDS)
def test_witness_is_maximal(cid):
    rs = build_root_system(case_meta(cid).quotient_type)
    for s in subsystems_for_case(cid):
        assert vanishing_set(rs, s.witness) == s.roots
        for t in theta_roots(cid):
            assert t in s.roots


def test_d4_enumeration_against_point_sweep():
    # independent oracle: collect vanishing sets over a grid of the pinned
    # plane x3 = x4 = 0
    rs = build_root_system("D4")
    found = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            found.add(vanishing_set(rs, (Fraction(a), Fraction(b), 0, 0)))
    enumerated = {s.roots for s in subsystems_for_case("A3B2D4")}
    assert found == enumerated


def test_e6_enumeration_against_point_sweep():
    rs = build_root_system("E6")
    found = set()
    for a in range(-8, 9):
        for b in range(-8, 9):
            found.add(vanishing_set(
                rs, (0, Fraction(a), 0, Fraction(b), 0, 0)))
    enumerated = {s.roots for s in subsystems_for_case("D4G2E6")}
    assert found == enumerated


def test_classify_subsystem_examples():
    rs = build_root_system("D4")
    theta = theta_roots("A3B2D4")
    label, _ = classify_subsystem(rs, reflection_closure(rs, theta))
    assert format_type(label) == "A1+A1"
    gens = [rs.simple_roots[i] for i in (1, 2, 3)]
    label, _ = classify_subsystem(rs, reflection_closure(rs, gens))
    assert format_type(label) == "A3"
    rs7 = build_root_system("E7")
    label, _ = classify_subsystem(rs7, rs7.roots)
    assert format_type(label) == "E7"


def test_theta_closure_matches_generic_configuration():
    # the closure of the pinned roots alone is the generic fiber type
    from singfold.families import descriptor
    for cid in CASE_IDS:
        rs = build_root_system(case_meta(cid).quotient_type)
        label, _ = classify_subsystem(
            rs, reflection_closure(rs, theta_roots(cid)))
        generic = descriptor(cid).stratum("generic").quotient_config
        assert format_type(label) == format_type(generic.split("+"))


@pytest.mark.parametrize("cid", CASE_IDS)
def test_match_realizations(cid):
    rep = match_realizations(cid)
    assert rep.ok, rep.errors
    listed = sum(len(gens) for _, gens in REALIZATIONS[cid])
    matched = sum(1 for m in rep.matches if m.get("match") is not None)
    assert matched == listed


def test_e7_case_has_uncatalogued_realization():
    # the A3+A2+A1 type is realized three times but only two generating
    # sets are catalogued
    rep = match_realizations("D4G2E7")
    assert rep.counts["A3+A2+A1"] == 3
    catalogued = [m for m in rep.matches if m["type"] == "A3+A2+A1"]
    assert len(catalogued) == 2


def _pairwise_closure(rs, gens):
    # reference: reflect every root found so far in every new one, and back,
    # in Fraction arithmetic, until nothing new appears
    roots = set()
    for g in gens:
        roots.add(g)
        roots.add(vneg(g))
    frontier = list(roots)
    while frontier:
        nxt = []
        for b in list(roots):
            for a in frontier:
                for r in (tuple(x - rs.inner(b, a) * y for x, y in zip(b, a)),
                          tuple(x - rs.inner(a, b) * y for x, y in zip(a, b))):
                    if r not in roots:
                        roots.add(r)
                        nxt.append(r)
        frontier = nxt
    return frozenset(roots)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["D4", "D5", "D6", "E6", "E7"]),
       st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_reflection_closure_matches_pairwise_closure(label, picks):
    rs = build_root_system(label)
    roots = sorted(rs.roots)
    gens = [roots[i % len(roots)] for i in picks]
    assert reflection_closure(rs, gens) == _pairwise_closure(rs, gens)


@pytest.mark.parametrize("cid", CASE_IDS)
def test_moment_curve_witness_is_maximal(cid):
    # the fallback behind the box search, called on every enumerated flat
    rs = build_root_system(case_meta(cid).quotient_type)
    for s in subsystems_for_case(cid):
        h = _moment_witness(rs, s.simple_system)
        assert vanishing_set(rs, h) == s.roots


# sha256 of each case's enumeration: type, simple system, witness and roots
ENUMERATION_DIGESTS = {
    "A3B2D4": "d2579556de200e805d3a90d8d696dc033797fed2f145887c01162f00976445da",
    "A5B3D5": "4bb4d570092758bccf951dc8c734e9a98a735baccbe3a72cf2f794ac0233961d",
    "D4C3D6": "cbe94e0adb048371444851a9cd11d54f5d310d7d7e855c0824c2e7d1d151c323",
    "D4G2E6": "645857a0acb81b8dd0c5db883d0b627b028db0f01c83746846f7ff522fd0dd99",
    "D4G2E7": "044fc887a6603082594b8a443dfad8ad6377af59c0c01230f32cb57987ca755b",
    "E6F4E7": "9491ce1d0707e753ae8c128d88708026ba422442c21ab2909ea78ed83a04e5e8",
}


@pytest.mark.parametrize("cid", CASE_IDS)
def test_enumeration_matches_recorded_digest(cid):
    def ser(v):
        return [str(c) for c in v]
    doc = [[s.type_string(), [ser(v) for v in s.simple_system], ser(s.witness),
            [ser(v) for v in sorted(s.roots)]] for s in subsystems_for_case(cid)]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[cid]
