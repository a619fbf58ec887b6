import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

try:
    from sympy.liealgebras.root_system import RootSystem as SympyRootSystem
except ImportError:  # the root oracle from sympy is optional
    SympyRootSystem = None

import singfold
from singfold import rootsys
from singfold.rootsys import (CASE_IDS, ROOT_TYPES, basic_invariants,
                              build_root_system, case_meta, closure,
                              expected_cartan, root_from_coefficients,
                              theta_roots, to_json, vanishing_set, vneg)

ROOT_COUNTS = {"D4": 24, "D5": 40, "D6": 60, "E6": 72, "E7": 126}
WEYL_ORDERS = {"D4": 192, "D5": 1920, "D6": 23040, "E6": 51840,
               "E7": 2903040}


@pytest.mark.parametrize("label", ROOT_TYPES)
def test_basic_invariants_have_the_weyl_group_degrees(label):
    # one basic invariant per simple root, pf of degree n for D_n; the
    # degrees multiply to |W| and their d - 1 sum to the number of positive
    # roots (Humphreys, Reflection Groups and Coxeter Groups, Theorem 3.9)
    rank = int(label[1:])
    degrees = [rank if p == "pf" else int(p[1:])
               for p in basic_invariants(label)]
    assert len(degrees) == rank
    assert math.prod(degrees) == WEYL_ORDERS[label]
    assert sum(d - 1 for d in degrees) == ROOT_COUNTS[label] // 2


def inner(rs, a, b):
    """The bilinear form of the case convention: the Cartan matrix on E6's
    simple-root coordinates, the identity form on the epsilon basis."""
    if rs.label == "E6":
        return sum(x * c * y for x, row in zip(a, expected_cartan("E6"))
                   for c, y in zip(row, b))
    return sum(x * y for x, y in zip(a, b))


def reflect(rs, beta, alpha):
    """Reflection of beta in the hyperplane of alpha, read from the root
    system's reflection table; both must be roots."""
    if beta not in rs.index or alpha not in rs.index:
        raise ValueError("reflect needs members of the root system")
    return rs.by_index[rs.refl[rs.index[beta]][rs.index[alpha]]]


@pytest.mark.parametrize("label,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(label, count):
    rs = build_root_system(label)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) * 2 == count


def test_closure_lists_seeds_then_layers_in_discovery_order():
    calls = []

    def step(x):
        calls.append(x)
        return [2 * x % 10, (x + 5) % 10]

    # layers: 1, 2 | 6, 4, 7 | 8, 9 | 3, each element stepped once
    assert closure([1, 1, 2], step) == [1, 2, 6, 4, 7, 8, 9, 3]
    assert calls == [1, 2, 6, 4, 7, 8, 9, 3]
    assert closure([], step) == []
    assert closure([0], step) == [0, 5]


def test_unsupported_type():
    for label in ("B3", "D3"):
        with pytest.raises(ValueError):
            build_root_system(label)


def test_e7_roots_match_direct_construction():
    # independent construction from the epsilon description
    rs = build_root_system("E7")
    expected = set()
    for i in range(6):
        for j in range(i + 1, 6):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    expected.add(tuple(v))
    e78 = [Fraction(0)] * 8
    e78[6], e78[7] = Fraction(1), Fraction(-1)
    expected.add(tuple(e78))
    expected.add(tuple(-c for c in e78))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=6):
        if sum(1 for s in signs if s < 0) % 2 == 1:
            for s7 in (1, -1):
                v = [half * s for s in signs] + [half * s7, -half * s7]
                expected.add(tuple(v))
    assert rs.roots == frozenset(expected)


def test_d4_roots_match_direct_construction():
    rs = build_root_system("D4")
    expected = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 4
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    expected.add(tuple(v))
    assert rs.roots == frozenset(expected)


@pytest.mark.skipif(SympyRootSystem is None, reason="needs sympy")
@pytest.mark.parametrize("label", ["D4", "D5", "D6"])
def test_d_roots_match_sympy(label):
    # an independent construction of the D types; sympy's E6 and E7 are
    # not closed under reflections, so the E types keep the oracles above
    roots = SympyRootSystem(label).all_roots().values()
    assert {tuple(map(Fraction, v)) for v in roots} == \
        build_root_system(label).roots


def cartan_matrix(rs):
    return [[int(inner(rs, a, b)) for b in rs.simple_roots]
            for a in rs.simple_roots]


@pytest.mark.parametrize("label", sorted(ROOT_COUNTS))
def test_cartan_matrices(label):
    rs = build_root_system(label)
    assert cartan_matrix(rs) == expected_cartan(label)


@pytest.mark.parametrize("label", sorted(ROOT_COUNTS))
def test_integer_tables_match_fraction_oracle(label):
    # every pairing, reflection and scaled vector against the bilinear form
    rs = build_root_system(label)
    roots = rs.by_index
    assert roots[:rs.npos] == rs.positive_roots
    assert frozenset(roots) == rs.roots
    den = math.lcm(*(x.denominator for r in roots for x in r))
    for i, a in enumerate(roots):
        assert rs.index[a] == i
        assert rs.ambient[i] == tuple(den * x for x in a)
        for j, b in enumerate(roots):
            p = inner(rs, a, b)
            assert rs.pair[i][j] == p
            assert roots[rs.refl[i][j]] == tuple(x - p * y for x, y in zip(a, b))


def test_every_type_builds_past_the_cache(monkeypatch):
    # a fresh build of each type runs the injectivity check of the packed
    # coefficient keys and gives the cached tables; the coefficients fit
    # their signed 8-bit fields with room to spare
    for label in ROOT_TYPES:
        rs = build_root_system.__wrapped__(label)
        assert rs == build_root_system(label)
        assert max(abs(c) for e in rs.expansions.values() for c in e) <= 4
    # with no room per field a key is the root's height, and keys collide
    monkeypatch.setattr(rootsys, "_FIELD", 0)
    with pytest.raises(AssertionError, match="packed root keys collide"):
        build_root_system.__wrapped__("D4")


def test_case_setup_builds_no_root_system():
    # importing the CLI and loading every case descriptor needs no root
    # system; the tables are built by the first call that reads them
    code = ("import singfold.cli\n"
            "from singfold import families, rootsys\n"
            "assert families.verify_catalogue()['ok']\n"
            "families.all_descriptors()\n"
            "print(rootsys.build_root_system.cache_info().currsize)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(singfold.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("label", ["D4", "E6", "E7"])
def test_reflection_closure(label):
    rs = build_root_system(label)
    rng = random.Random(17)
    roots = sorted(rs.roots)
    for _ in range(150):
        a = rng.choice(roots)
        b = rng.choice(roots)
        r = reflect(rs, b, a)
        assert r in rs.roots
        assert reflect(rs, r, a) == b  # involution


def test_reflect_examples():
    rs = build_root_system("D4")
    a1, a2 = rs.simple_roots[0], rs.simple_roots[1]
    assert reflect(rs, a1, a1) == vneg(a1)
    assert reflect(rs, a2, a1) == tuple(x + y for x, y in zip(a1, a2))
    with pytest.raises(ValueError):
        reflect(rs, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), a1)


def test_vanishing_set_examples():
    rs = build_root_system("D4")
    assert vanishing_set(rs, (0, 0, 0, 0)) == rs.roots
    a3, a4 = rs.simple_roots[2], rs.simple_roots[3]
    vs = vanishing_set(rs, (1, 2, 0, 0))
    assert vs == frozenset({a3, vneg(a3), a4, vneg(a4)})
    vs2 = vanishing_set(rs, (1, 1, 0, 0))
    a1 = rs.simple_roots[0]
    assert vs2 == frozenset({a1, vneg(a1), a3, vneg(a3), a4, vneg(a4)})


def test_vanishing_set_reflection_closed():
    rng = random.Random(23)
    for label in ("D5", "E6", "E7"):
        rs = build_root_system(label)
        for _ in range(10):
            if label == "E7":
                h = [Fraction(rng.randint(-2, 2)) for _ in range(7)]
                h.append(-h[6])
            else:
                h = [Fraction(rng.randint(-2, 2)) for _ in range(rs.dim)]
            vs = vanishing_set(rs, h)
            for a in vs:
                for b in vs:
                    assert reflect(rs, b, a) in vs


def test_e7_cartan_point_constraint():
    rs = build_root_system("E7")
    with pytest.raises(ValueError):
        vanishing_set(rs, (1, 0, 0, 0, 0, 0, 1, 1))


def test_case_meta():
    m = case_meta("A3B2D4")
    assert (m.gamma, m.gamma_prime, m.omega) == ("C4", "D2", "Z/2")
    assert m.quotient_type == "D4" and m.rank == 2 and m.theta == (3, 4)
    m = case_meta("D4G2E7")
    assert m.omega == "S3" and m.quotient_type == "E7"
    assert m.theta == (1, 2, 3, 5, 7) and m.rank == 2
    m = case_meta("E6F4E7")
    assert m.theta == (2, 5, 7) and m.rank == 4
    with pytest.raises(ValueError):
        case_meta("nope")


def test_quotient_ranks_match_catalogue():
    expected = {"A3B2D4": ("B2", "D4", 2), "A5B3D5": ("B3", "D5", 3),
                "D4C3D6": ("C3", "D6", 3), "D4G2E6": ("G2", "E6", 2),
                "D4G2E7": ("G2", "E7", 2), "E6F4E7": ("F4", "E7", 4)}
    for cid in CASE_IDS:
        m = case_meta(cid)
        assert (m.inhomogeneous_type, m.quotient_type, m.rank) == expected[cid]


def test_theta_roots_are_simple():
    for cid in CASE_IDS:
        rs = build_root_system(case_meta(cid).quotient_type)
        for t in theta_roots(cid):
            assert t in rs.simple_roots


def test_json_export():
    rs = build_root_system("D4")
    doc = json.loads(json.dumps(to_json(rs)))
    assert doc["type"] == "D4"
    assert len(doc["roots"]) == 24
    assert doc["simple_roots"][0] == ["1", "-1", "0", "0"]


def test_root_from_coefficients():
    rs = build_root_system("E7")
    v = root_from_coefficients(rs, (1, 1, 2, 3, 2, 2, 1))
    assert v in rs.roots
    with pytest.raises(ValueError):
        root_from_coefficients(rs, (1, 1, 1, 1, 1, 1, 5))
