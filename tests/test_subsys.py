import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singfold
from singfold.rootsys import (CASE_IDS, build_root_system, case_meta,
                              theta_roots, vanishing_set, vneg)
from singfold import subsys
from singfold.subsys import (EXPECTED_SUBSYSTEM_COUNTS, REALIZATIONS,
                             _find_witness, _first_avoiding, _point,
                             _witness_problem, canonical_type,
                             classify_subsystem, enumerate_subsystems,
                             format_type, match_realizations, parse_type,
                             reflection_closure, subsystems_for_case)
from test_rootsys import inner

EXPECTED_COUNTS_BY_TYPE = {
    "A3B2D4": {"A1+A1": 1, "A1+A1+A1": 2, "A3": 2, "D4": 1},
    "A5B3D5": {"A1+A1": 1, "A1+A1+A1": 6, "A3": 3, "A2+A1+A1": 4,
               "A3+A1": 6, "D4": 3, "D5": 1},
    "D4C3D6": {"A1+A1+A1": 1, "A1+A1+A1+A1": 3, "A3+A1": 6,
               "A3+A1+A1": 6, "D4+A1": 3, "A5": 4, "D6": 1},
    "D4G2E6": {"A2+A2": 1, "A2+A2+A1": 3, "A5": 3, "E6": 1},
    "D4G2E7": {"A2+A1+A1+A1": 1, "A3+A2+A1": 3, "D5+A1": 3, "E7": 1},
    # the W(F4)-orbits of the flats of the restricted arrangement
    "E6F4E7": {"A1+A1+A1": 1, "A1+A1+A1+A1": 12, "A3+A1": 12,
               "A2+A1+A1+A1": 16, "A3+A1+A1": 72, "A5": 16, "D4+A1": 18,
               "A3+A2+A1": 48, "A5+A1": 48, "D5+A1": 12, "D6": 12, "E7": 1},
}

F4_EXPECTED_TYPES = sorted(canonical_type(t.split("+")) for t in (
    "A1+A1+A1", "A3+A1", "D4+A1", "D5+A1", "D6", "A5", "A1+A1+A1+A1",
    "A2+A1+A1+A1", "A3+A1+A1", "A3+A2+A1", "A5+A1", "E7"))


def test_type_label_helpers():
    assert format_type(("A1", "A3")) == "A3+A1"
    assert canonical_type(["A1", "A2", "A1"]) == ("A2", "A1", "A1")
    assert parse_type("A1+A3") == ("A3", "A1")


@pytest.mark.parametrize("cid", CASE_IDS)
def test_enumeration_counts(cid):
    subs = subsystems_for_case(cid)
    assert len(subs) == EXPECTED_SUBSYSTEM_COUNTS[cid]
    assert Counter(s.type_string() for s in subs) == \
        EXPECTED_COUNTS_BY_TYPE[cid]


# the exponents of each case's inhomogeneous (folded) type
EXPONENTS = {"B2": (1, 3), "B3": (1, 3, 5), "C3": (1, 3, 5), "G2": (1, 5),
             "F4": (1, 5, 7, 11)}


def characteristic_polynomial(subs):
    """chi(t) = sum of mu(V, X) t^dim X over the flats X, a flat being the
    subspace on which exactly a subsystem's roots vanish, ordered by
    inclusion of root sets; integer coefficients, constant term first."""
    top = max(len(s.simple_system) for s in subs)
    flats = sorted(((len(s.simple_system), frozenset(s.members)) for s in subs),
                   key=lambda f: f[0])
    mu = {}
    for rank, roots in flats:
        mu[roots] = 1 if not mu else -sum(m for r, m in mu.items() if r < roots)
    chi = [0] * (top - flats[0][0] + 1)
    for rank, roots in flats:
        chi[top - rank] += mu[roots]
    return chi


def product_of_linear_factors(roots):
    """The integer coefficients of prod (t - m) over roots, constant first."""
    out = [1]
    for m in roots:
        out = [a - m * b for a, b in zip([0] + out, out + [0])]
    return out


@pytest.mark.parametrize("cid", CASE_IDS)
def test_characteristic_polynomial_of_the_flats_factors_by_exponents(cid):
    # Orlik-Solomon, Invent. Math. 56 (1980); Terao, Invent. Math. 63
    # (1981): the restricted arrangement is free with the exponents of the
    # folded type
    want = product_of_linear_factors(
        EXPONENTS[case_meta(cid).inhomogeneous_type])
    assert characteristic_polynomial(subsystems_for_case(cid)) == want


@pytest.mark.parametrize("cid", CASE_IDS)
def test_enumeration_is_invariant_under_weyl_conjugation(cid):
    # W permutes the roots, so w maps the flats through theta onto those
    # through w(theta) (Bourbaki, Lie Groups and Lie Algebras, VI 1.1): the
    # same counts per type and the same chi(t), for w a random word of
    # reflections read from the integer table
    rs = build_root_system(case_meta(cid).quotient_type)
    theta = [rs.index[t] for t in theta_roots(cid)]
    chi = characteristic_polynomial(subsystems_for_case(cid))
    rng = random.Random(cid)
    for _ in range(2):
        moved = theta
        while moved == theta:
            for j in (rng.randrange(2 * rs.npos) for _ in range(6)):
                moved = [rs.refl[i][j] for i in moved]
        subs = enumerate_subsystems(rs, [rs.by_index[i] for i in moved])
        assert Counter(s.type_string() for s in subs) == \
            EXPECTED_COUNTS_BY_TYPE[cid]
        assert characteristic_polynomial(subs) == chi


def test_product_of_linear_factors():
    assert product_of_linear_factors(()) == [1]
    assert product_of_linear_factors((1, 3)) == [3, -4, 1]
    assert product_of_linear_factors((1, 5, 7, 11)) == [385, -552, 190, -24, 1]


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
        assert vanishing_set(rs, s.witness) == s.roots == \
            frozenset(rs.by_index[i] for i in s.members)
        assert list(s.members) == sorted(s.members)
        for t in theta_roots(cid):
            assert t in s.roots


def test_e6f4e7_verification_builds_no_root_vectors():
    # no section of the E6F4E7 bundle reads a subsystem's roots as vectors,
    # so none is built; a fresh process keeps other tests' reads out
    code = ("from singfold import cli, subsys\n"
            "assert cli.verify_case('E6F4E7')['ok']\n"
            "subs = subsys.subsystems_for_case('E6F4E7')\n"
            "print(len(subs), sum('roots' in vars(s) for s in subs))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(singfold.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "268 0\n"


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
                for r in (tuple(x - inner(rs, b, a) * y for x, y in zip(b, a)),
                          tuple(x - inner(rs, a, b) * y for x, y in zip(a, b))):
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


def _box_first(pairs, k):
    """The box-and-filter search that `_first_avoiding` replaced, kept as
    its reference: every vector of the box of each radius in product order,
    filtered to max-norm r, then tested against every row."""
    for radius in range(1, 40):
        for combo in itertools.product(range(-radius, radius + 1), repeat=k):
            if max((abs(c) for c in combo), default=0) != radius:
                continue
            if all(sum(c * p for c, p in zip(combo, row)) for row in pairs):
                return combo
    return None


def _all_root_rows(rs, gens):
    """The pairing rows that the witness search used before it took one
    root per cover, kept as its reference: every positive root outside the
    flat of ``gens``, paired with the flat's basis."""
    basis, _ = _witness_problem(rs, gens, ())
    rows = [[sum(x * y for x, y in zip(a, b)) for b in basis]
            for a in rs.ambient[:rs.npos]]
    return basis, [row for row in rows if any(row)]


def _cover_reps(masks, mask, npos):
    """The first positive root of each cover of the flat with positive-root
    mask ``mask``, found in the lattice of enumerated flats: the cover
    through a root r outside the flat is the smallest flat holding both."""
    above = sorted((m for m in masks if m & mask == mask and m != mask),
                   key=lambda m: bin(m).count("1"))
    reps, seen = [], set()
    for r in range(npos):
        if not mask >> r & 1:
            cover = next(m for m in above if m >> r & 1)
            if cover not in seen:
                seen.add(cover)
                reps.append(r)
    return reps


@pytest.mark.parametrize("cid", CASE_IDS)
def test_witness_walk_matches_box_search(cid, monkeypatch):
    rs = build_root_system(case_meta(cid).quotient_type)
    subs = subsystems_for_case(cid)
    walked = {}

    def record(rs, gens, reps):
        w = _find_witness(rs, gens, reps)
        walked[w] = list(reps)
        return w

    monkeypatch.setattr(subsys, "_find_witness", record)
    assert enumerate_subsystems(rs, theta_roots(cid)) == subs
    masks = {sum(1 << rs.index[r] for r in s.roots if rs.index[r] < rs.npos): s
             for s in subs}
    assert len(masks) == len(walked) == len(subs)
    for mask, s in masks.items():
        gens = [rs.index[r] for r in s.simple_system]
        reps = _cover_reps(masks, mask, rs.npos)
        assert walked[s.witness] == reps
        basis, pairs = _witness_problem(rs, gens, reps)
        all_basis, rows = _all_root_rows(rs, gens)
        assert all_basis == basis
        k = len(basis)
        first = _box_first(pairs, k) if basis else ()
        assert first is not None
        assert (_box_first(rows, k) if basis else ()) == first
        assert _first_avoiding(pairs, k) == _first_avoiding(rows, k) == first
        assert _find_witness(rs, gens, reps) == s.witness == _point(rs, basis, first)


@st.composite
def _pairings(draw):
    """An integer pairing matrix with k <= 4 columns: rows that vanish on a
    prefix, now and then an all-zero last column, and for k <= 1 now and
    then an all-zero row, which nothing avoids."""
    k = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        zeros = draw(st.integers(0, max(k - 1, 0)))
        rows.append([0] * zeros + draw(st.lists(
            st.integers(-4, 4), min_size=k - zeros, max_size=k - zeros)))
    if k and draw(st.booleans()):
        for row in rows:
            row[-1] = 0
    rows = [row for row in rows if any(row)]
    if k <= 1 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * k)
    return rows, k


@settings(max_examples=150, deadline=None)
@given(_pairings())
def test_witness_walk_matches_box_search_on_random_pairings(problem):
    # the walk stops by radius N//2 + 1 for N rows; the reference searches
    # on to radius 39, so the two agree only if the bound holds
    pairs, k = problem
    if not k:
        assert _first_avoiding(pairs, k) == ()
    elif not all(map(any, pairs)):
        with pytest.raises(ValueError, match="zero row"):
            _first_avoiding(pairs, k)
    else:
        assert _first_avoiding(pairs, k) == _box_first(pairs, k)


@st.composite
def _scaled_copies(draw):
    """A pairing matrix, and its rows scaled by nonzero integers, each row
    one to three times, shuffled."""
    pairs, k = draw(_pairings())
    copies = [[c * x for x in row] for row in pairs
              for c in draw(st.lists(st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=3))]
    return pairs, k, draw(st.permutations(copies))


@settings(max_examples=150, deadline=None)
@given(_scaled_copies())
def test_witness_walk_ignores_row_scale_repeats_and_order(problem):
    # the cover rows stand for the proportional rows of all roots of a cover
    pairs, k, copies = problem
    if k and not all(map(any, pairs)):
        for rows in (pairs, copies):
            with pytest.raises(ValueError, match="zero row"):
                _first_avoiding(rows, k)
    else:
        assert _first_avoiding(copies, k) == _first_avoiding(pairs, k)


def test_witness_walk_falls_through_as_the_box_search_does():
    # a zero row bans every vector: the box search runs out at radius 39,
    # and the walk refuses the row before it searches
    pairs = [[1, -1], [0, 0]]
    assert _box_first(pairs, 2) is None
    with pytest.raises(ValueError, match="zero row"):
        _first_avoiding(pairs, 2)


def test_witness_check_refuses_a_larger_vanishing_set(monkeypatch):
    rs = build_root_system("D4")
    monkeypatch.setattr(subsys, "_find_witness",
                        lambda rs, gens, reps: (Fraction(0),) * rs.dim)
    with pytest.raises(AssertionError, match="witness does not realize"):
        enumerate_subsystems(rs, theta_roots("A3B2D4"))


def test_witness_check_refuses_a_point_off_the_e7_hyperplane(monkeypatch):
    # x7 + x8 pairs to zero with every E7 root, so the shifted witnesses
    # keep their vanishing sets and only the hyperplane check can refuse them
    rs = build_root_system("E7")
    assert all(a[6] + a[7] == 0 for a in rs.ambient)
    find = subsys._find_witness

    def shifted(rs, gens, reps):
        w = find(rs, gens, reps)
        return w[:6] + (w[6] + 1, w[7] + 1)

    monkeypatch.setattr(subsys, "_find_witness", shifted)
    with pytest.raises(AssertionError, match="not a Cartan point"):
        enumerate_subsystems(rs, theta_roots("E6F4E7"))
