import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter, defaultdict
from fnmatch import fnmatch
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singfold import families, flatmap
from singfold.cli import full_report, main, verify_case
from singfold.exact import RATIONAL_RING, Echelon
from singfold.families import (check_stratum_point,
                               classify_quotient_fiber, compose_subst,
                               derive_quotient_chart, descriptor, fiber_at,
                               quotient_fiber, sample_stratum,
                               stratum_membership,
                               theorem_singular_spotcheck, verify_catalogue,
                               verify_equivariance)
from singfold.poly import Polynomial, monomials, parse, to_text
from singfold.rootsys import CASE_IDS
from test_exact import dense_kernel, dense_solution


@pytest.mark.parametrize("cid", CASE_IDS)
def test_equivariance(cid):
    rep = verify_equivariance(cid)
    assert rep["ok"], rep
    assert all(v in ("+1", "-1") for v in rep["generators"].values())


def test_group_orders():
    assert len(descriptor("A3B2D4").group_elements()) == 2
    assert len(descriptor("D4G2E6").group_elements()) == 3
    assert len(descriptor("D4G2E7").group_elements()) == 6


def _fresh_closure(case):
    """The group generated by the case's generators, by breadth-first
    composition."""
    fv = case.fiber_vars
    elems = [{v: Polynomial.var(v) for v in fv}]
    frontier = list(elems)
    while frontier:
        new = []
        for g in case.omega_gens.values():
            for e in frontier:
                comp = compose_subst(g, e, fv)
                if comp not in elems + new:
                    new.append(comp)
        elems += new
        frontier = new
    return elems


@pytest.fixture
def cold_descriptors():
    """An empty descriptor cache, emptied again when the test finishes."""
    descriptor.cache_clear()
    yield
    descriptor.cache_clear()


def test_group_elements_are_cached_lazily(monkeypatch, cold_descriptors):
    families._group.cache_clear()
    assert verify_catalogue()["ok"]
    cases = [descriptor(cid) for cid in CASE_IDS]
    assert families._group.cache_info().currsize == 0
    cached = [case.group_elements() for case in cases]
    for case, elems in zip(cases, cached):
        fresh = _fresh_closure(case)
        assert len(elems) == len(fresh) == case.omega_order
        assert all(sub in fresh for sub in elems)
        assert elems[0] == {v: Polynomial.var(v) for v in case.fiber_vars}
        assert list(families._group(case.case_id)) == elems
    assert families._group.cache_info().currsize == len(cases)
    # later calls read the cache, and each returns a list of its own
    monkeypatch.setattr(families, "compose_subst", None)
    again = [case.group_elements() for case in cases]
    assert again == cached
    assert all(a is not c for a, c in zip(again, cached))


def test_catalogue_files_match_constants():
    rep = verify_catalogue()
    assert rep["ok"], rep
    assert rep["cases"] == {cid: [] for cid in CASE_IDS}


# (case, line to replace, replacement, key the problem must name)
BROKEN_CATALOGUES = [
    ("A3B2D4", "action.sigma.z = -z\n", "", "action.sigma.z: missing"),
    ("D4G2E6", "chart.X = z\n", "chart.X = z\nchart.T = z\n",
     "chart.T: unknown key"),
    ("A5B3D5", "chart.Z = z^2\n", "chart.Z = z^^2\n", "chart.Z: "),
    ("E6F4E7", "chart.Y = y\n", "chart.Y = Y\n",
     "chart.Y: variables ['Y'] not allowed"),
    ("D4G2E7", "chart.Y = z^2\n", "chart.Y^2 = z^4\nchart.Y = z^2\n",
     "chart.Y: given both plain and squared"),
    ("D4C3D6", "fiber = ", "fiber ", "line 3: "),
    ("D4G2E6", "fixed.x = t2/6\n", "fixed.x = x/6\n",
     "fixed.x: variables ['x'] not allowed"),
    ("A5B3D5", "fixed.square = t6 + ", "fixed.square = t6^2 + ",
     "fixed.square: not linear in t6"),
    ("A3B2D4", "fixed.x = s\n", "fixed.x = s = 0\n",
     "fixed.x: bad character '='"),
]


@pytest.mark.parametrize("cid,old,new,problem", BROKEN_CATALOGUES,
                         ids=[f"{b[0]}-{b[3].split(':')[0]}"
                              for b in BROKEN_CATALOGUES])
def test_malformed_catalogue_file_is_reported(tmp_path, monkeypatch, capsys,
                                              cold_descriptors,
                                              cid, old, new, problem):
    for case_id in CASE_IDS:
        text = (families.CATALOGUE / f"{case_id}.txt").read_text()
        if case_id == cid:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / f"{case_id}.txt").write_text(text)
    monkeypatch.setattr(families, "CATALOGUE", tmp_path)
    rep = verify_catalogue()
    assert not rep["ok"]
    assert [p for p in rep["cases"][cid] if p.startswith(problem)], rep
    assert all(not rep["cases"][c] for c in CASE_IDS if c != cid)
    with pytest.raises(families.CatalogueError):
        descriptor(cid)
    assert main(["cases", "list"]) == 1
    err = capsys.readouterr().err
    assert f"error: case catalogue {cid}: {problem}" in err


# sha256 of every stratum's facts: id, description, configuration, fiber
# orbits, fixed count, sample cap, each equation and inequation divided by
# its leading coefficient, and the first 200 sampler outputs; recorded when
# each case still wrote its strata out in full
CATALOGUE_FACTS_SHA256 = \
    "2118b3337b1b32339d3b0d1689fefb627177863805db28b0a5c3747051f0daab"


def _monic_text(p):
    names = p.used_variables()
    terms = p.exponents(names)
    lead = min(terms, key=lambda e: (-sum(e), tuple(-k for k in e)))
    return to_text(p / terms[lead])


def test_catalogue_facts_are_pinned():
    digest = hashlib.sha256()

    def put(line):
        digest.update(repr(line).encode() + b"\n")

    for cid in CASE_IDS:
        for s in descriptor(cid).strata:
            put((cid, s.stratum_id, s.description, s.quotient_config,
                 s.fiber_sing, s.fiber_fixed_smooth, s.max_samples))
            put([_monic_text(p) for p in s.equations])
            put([_monic_text(p) for p in s.inequations])
            for k in range(200):
                t = s.sampler(k)
                put(None if t is None else
                    sorted((p, str(v)) for p, v in t.items()))
    assert digest.hexdigest() == CATALOGUE_FACTS_SHA256


# sha256 of each case's fixed locus and fixed square; recorded while they
# were still Python tables
FIXED_LOCI_SHA256 = \
    "a9aa09a079e248e913df8afc1136a5910ee7f4f7b4d170e821c47113922b8911"


def test_fixed_loci_are_pinned():
    digest = hashlib.sha256()
    for cid in CASE_IDS:
        case = descriptor(cid)
        square = case.fixed_square
        line = (cid, sorted((v, to_text(p))
                            for v, p in case.fixed_locus.items()),
                None if square is None else to_text(square))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == FIXED_LOCI_SHA256


def test_data_files_are_the_case_files_and_are_packaged():
    # <case>.txt and <case>.flat.txt for each case, nothing else, and all
    # of them in the package-data globs of pyproject.toml (tomllib is in
    # the standard library from Python 3.11)
    tomllib = pytest.importorskip("tomllib")
    names = sorted(p.name for p in families.CATALOGUE.iterdir())
    assert names == sorted(f"{cid}{kind}.txt" for cid in CASE_IDS
                           for kind in ("", ".flat"))
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent
                               / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["singfold"]
    assert all(any(fnmatch(f"data/{n}", g) for g in globs) for n in names)


def test_noncanonical_configuration_is_refused(monkeypatch):
    build = families._build_strata

    def misspelt(*args):
        first, *rest = build(*args)
        return (dataclasses.replace(first, quotient_config="A1+A3"), *rest)

    monkeypatch.setattr(families, "_build_strata", misspelt)
    with pytest.raises(ValueError, match="'A1\\+A3' is not a canonical"):
        families._build_case("A3B2D4")


def test_descriptor_errors():
    with pytest.raises(ValueError):
        descriptor("A1B1C1")
    with pytest.raises(ValueError):
        descriptor("A3B2D4").stratum("nope")


def test_stratum_membership_examples():
    assert stratum_membership("A3B2D4", {"t2": Fraction(8), "t4": Fraction(8)}) \
        == "t4=t2^2/8"
    assert stratum_membership("A3B2D4", {"t2": Fraction(8), "t4": Fraction(-8)}) \
        == "t4=-t2^2/8"
    assert stratum_membership("A3B2D4", {"t2": Fraction(0), "t4": Fraction(0)}) \
        == "origin"
    assert stratum_membership("A3B2D4", {"t2": Fraction(1), "t4": Fraction(1)}) \
        == "generic"
    assert stratum_membership("A5B3D5",
                              {"t2": Fraction(6), "t4": Fraction(0),
                               "t6": Fraction(-2)}) == "H1,t4=0"
    assert stratum_membership("D4G2E6",
                              {"t2": Fraction(6), "t6": Fraction(2)}) \
        == "t6=t2^3/108"


def test_point_no_row_takes_has_no_stratum():
    # E6F4E7 on H2 with t2 = 0 and off H1: the H2 row needs t2 != 0 and the
    # generic row needs H2 != 0, and the fiber has the H2 configuration,
    # not the generic one
    t = {"t2": Fraction(0), "t6": Fraction(1), "t8": Fraction(9),
         "t12": Fraction(143, 8)}
    generic = descriptor("E6F4E7").stratum("generic")
    assert not all(iq.evaluate(t) for iq in generic.inequations)
    assert stratum_membership("E6F4E7", t) is None
    assert classify_quotient_fiber("E6F4E7", t).type_string() == "A1+A1+A1+A1"


def _fraction_value(p, params, t):
    """p at the point t, one Fraction product per term over its exponent
    tuples: independent of `Polynomial.evaluate`, which membership uses."""
    acc = Fraction(0)
    for exps, c in p.exponents(params).items():
        for name, k in zip(params, exps):
            c = c * t[name] ** k
        acc += c
    return acc


def test_membership_unique_and_total_on_random_points():
    rng = random.Random(1)
    for cid in CASE_IDS:
        case = descriptor(cid)
        for _ in range(300):
            t = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for p in case.params}
            sid = stratum_membership(cid, t)
            matches = [s.stratum_id for s in case.strata
                       if all(_fraction_value(eq, case.params, t) == 0
                              for eq in s.equations)
                       and all(_fraction_value(iq, case.params, t) != 0
                               for iq in s.inequations)]
            assert matches and matches[0] == sid


@pytest.mark.parametrize("cid", CASE_IDS)
def test_sample_every_stratum(cid):
    case = descriptor(cid)
    for s in case.strata:
        want = min(3, s.max_samples or 3)
        pts = sample_stratum(cid, s.stratum_id, want)
        assert len(pts) == want
        assert len({tuple(t[p] for p in case.params) for t in pts}) == want
        for t in pts:
            assert stratum_membership(cid, t) == s.stratum_id


def _orbit_rows():
    """(case, row, base point) for each row sampled on a weighted orbit."""
    for cid in CASE_IDS:
        for s in descriptor(cid).strata:
            if s.sampler.func is families._on_orbit:
                params, _, base = s.sampler.args
                yield cid, s, dict(zip(params, base))


def _weighted_degrees(p):
    """The weighted degrees of the terms of p, t<d> of weight d."""
    names = p.used_variables()
    return {sum(int(v[1:]) * k for v, k in zip(names, e))
            for e in p.exponents(names)}


def test_orbit_rows_sample_the_orbit_of_a_point_on_the_row():
    # the fiber at t_d * s^(d/2) is isomorphic to the fiber at t, so a
    # row whose equations and inequations are quasi-homogeneous holds the
    # whole orbit of its base point, and the sampler sweeps that orbit:
    # the one-dimensional rows, each case's origin and the B3/C3 h rows
    rows = list(_orbit_rows())
    assert len(rows) == 24
    assert {(cid, s.stratum_id) for cid, s, _ in rows} >= \
        {(cid, "origin") for cid in CASE_IDS}
    for cid, s, base in rows:
        assert stratum_membership(cid, base) == s.stratum_id, (cid, s)
        for p in s.equations + s.inequations:
            assert len(_weighted_degrees(p)) == 1, (cid, s.stratum_id, p)
        for k in range(6):
            scale = Fraction((k // 2 + 1) * (-1) ** k)
            assert s.sampler(k) == {p: scale ** (int(p[1:]) // 2) * c
                                    for p, c in base.items()}


F4_FUNCTION_ROWS = ("D4+A1", "H1&H2", "A5", "H1", "A2+A1+A1+A1", "H2")


def test_f4_samplers_pick_a_singular_point_of_the_catalogued_fiber():
    # each of the six rows off an orbit picks (x0, y0, t2, t6); t8 and t12
    # then make F and its gradient vanish at (x0, y0, 0)
    case = descriptor("E6F4E7")
    swept = (families._on_orbit, families._swept)
    assert tuple(s.stratum_id for s in case.strata
                 if s.sampler.func not in swept) == F4_FUNCTION_ROWS
    gradient = [case.fiber] + [case.fiber.diff(v) for v in case.fiber_vars]
    for sid in F4_FUNCTION_ROWS:
        sampler = case.stratum(sid).sampler
        (point,) = sampler.args
        checked = 0
        for k in range(30):
            picked = []
            t = sampler.func(lambda *a: picked.append(a) or point(*a), k)
            assert t == sampler(k)
            if t is None:
                continue
            ((x0, y0, t2, t6),) = picked
            assert list(t) == ["t2", "t6", "t8", "t12"]
            assert (t["t2"], t["t6"]) == (t2, t6)
            at = {"x": x0, "y": y0, "z": Fraction(0), **t}
            assert all(g.evaluate(at) == 0 for g in gradient), (sid, k)
            checked += 1
        assert checked >= 5, sid


def test_quotient_configurations_spot_rows():
    # one row from each case at one point
    rows = [("A3B2D4", "t4=-t2^2/8", "A3"),
            ("A5B3D5", "H1,t4=0", "A3+A1"),
            ("D4C3D6", "H,t4=t2^2/12", "A5"),
            ("D4G2E6", "origin", "E6"),
            ("D4G2E7", "t6=t2^3/108", "D5+A1"),
            ("E6F4E7", "D6", "D6")]
    for cid, sid, expected in rows:
        t = sample_stratum(cid, sid, 1)[0]
        conf = classify_quotient_fiber(cid, t)
        assert conf.type_string() == expected


def test_fiber_orbit_row_with_identification():
    # covering fiber with a swapped pair of A1 points plus two fixed
    # smooth points
    t = sample_stratum("A3B2D4", "t4=t2^2/8", 1)[0]
    rep = check_stratum_point("A3B2D4", "t4=t2^2/8", t)
    assert rep["ok"]
    assert rep["fiber_orbits"] == ["A1(orbit 2)x1"]
    assert rep["fiber_fixed_smooth"] == 2


def test_s3_fiber_orbit_of_three():
    t = sample_stratum("D4G2E7", "t6=-t2^3/108", 1)[0]
    rep = check_stratum_point("D4G2E7", "t6=-t2^3/108", t)
    assert rep["ok"]
    assert rep["fiber_orbits"] == ["A1(orbit 3)x1"]


def test_c3_quotient_derivative():
    case = descriptor("D4C3D6")
    got = case.quotient.diff("Y")
    want = parse("2*X*Y + 1/4*t6 + 1/24*t2*t4 + 1/432*t2^3")
    assert got == want


def test_quotient_fiber_substitution():
    F = quotient_fiber("A3B2D4", {"t2": Fraction(8), "t4": Fraction(8)})
    assert F == parse("Z*(X^2 - 4*Z^2) + W^2 - 32*Z^2 - 64*Z")
    G = fiber_at("A3B2D4", {"t2": Fraction(8), "t4": Fraction(8)})
    assert G == parse("z^4 + 8*z^2 + 16 - x*y")


def test_theorem_singular_spotcheck_small():
    for cid in CASE_IDS:
        rep = theorem_singular_spotcheck(cid, count=5, seed=0)
        assert rep["ok"], rep


def test_theorem_fixed_point_example():
    # the catalogued symmetric point (-2, -2, 0) lies on the covering
    # fiber at parameters (4, 0, 2)
    F = fiber_at("A3B2D4", {"t2": Fraction(4), "t4": Fraction(2)})
    val = F.evaluate({"x": Fraction(-2), "y": Fraction(-2), "z": Fraction(0)})
    assert val == 0
    case = descriptor("A3B2D4")
    sigma = case.omega_gens["sigma"]
    pt = {"x": Fraction(-2), "y": Fraction(-2), "z": Fraction(0)}
    assert all(sigma[v].evaluate(pt) == pt[v] for v in case.fiber_vars)


def _rem_in_s(p, P):
    """The remainder of p on division by P in s, whose leading coefficient
    in s is a nonzero constant: plain division, no pseudo-remainder."""
    *_, lead = P.coefficients_in("s")
    assert lead.is_constant()
    n, s = P.degree_in("s"), Polynomial.var("s")
    while not p.is_zero() and p.degree_in("s") >= n:
        d = p.degree_in("s")
        p = p - p.coefficients_in("s")[d] / lead.constant_term() \
            * s ** (d - n) * P
    return p


# the cases whose fixed locus phi(s) meets every covering fiber; D4G2E7's
# fixed locus is the one point fixed by the whole group, on the fiber only
# where t6 = t2^3/108 (P = t6/4 - t2^3/432, free of s)
THEOREM2_DEGREES = {"A3B2D4": 2, "A5B3D5": 2, "D4C3D6": 3, "D4G2E6": 2,
                    "E6F4E7": 3}


@pytest.mark.parametrize("cid", sorted(THEOREM2_DEGREES))
def test_theorem2_fixed_locus_gives_a_singular_point_on_every_fiber(cid):
    check_theorem2_on_the_fixed_locus(cid)


def check_theorem2_on_the_fixed_locus(cid):
    # Theorem 2 as an identity in s and t, with P(s, t) = F(phi(s), t):
    # (i) P has a nonzero constant leading coefficient in s, so every t has
    # a root s; (ii) the quotient equation Q and each dQ/dV vanish at the
    # chart image of phi(s) modulo P, so that image is a singular point of
    # the quotient fiber at t.  A key V^2 maps to 0 modulo P: V = 0 there
    case = descriptor(cid)
    P = case.fiber.subs(case.fixed_locus)
    assert P.degree_in("s") == THEOREM2_DEGREES[cid]
    lead = P.coefficients_in("s")[-1]
    assert lead.is_constant() and not lead.is_zero()
    _assert_singular_modulo(case, case.fixed_locus, P)


def _assert_singular_modulo(case, locus, P):
    """(ii) of Theorem 2: Q and each dQ/dV vanish modulo P at the chart
    image of the locus."""
    image = {}
    for key, chart in case.embedding.items():
        value = _rem_in_s(chart.subs(locus), P)
        if key.endswith("^2"):
            assert value.is_zero(), key
            image[key[:-2]] = Polynomial.zero()
        else:
            image[key] = value
    Q = case.quotient
    assert _rem_in_s(Q.subs(image), P).is_zero()
    for v in case.quotient_vars:
        assert _rem_in_s(Q.diff(v).subs(image), P).is_zero(), v


THEOREM2_B_TYPES = ("A3B2D4", "A5B3D5")


@pytest.mark.parametrize("cid", THEOREM2_B_TYPES)
def test_theorem2_b_types_fixed_point_is_an_identity(cid):
    check_theorem2_fixed_square(cid)


def check_theorem2_fixed_square(cid):
    # (iii) the spot check's fixed point: F(phi(s), t) = 0 wherever the
    # fixed square const(t) - sqsign * s^2 vanishes, as an identity
    case = descriptor(cid)
    P = case.fiber.subs(case.fixed_locus)
    assert _rem_in_s(P, case.fixed_square).is_zero()


def test_theorem2_holds_for_d4g2e7_on_the_fixed_line_of_rho():
    check_theorem2_d4g2e7_on_the_line_of_rho()


def check_theorem2_d4g2e7_on_the_line_of_rho():
    # rho fixes the line phi(s) = (t2/6, t2/6, s), which meets every fiber:
    # (i) P = t6/4 - t2^3/432 - s^2, of degree 2 in s with leading
    # coefficient -1; (ii) the chart image of phi(s) is a singular point of
    # the quotient fiber modulo P
    case = descriptor("D4G2E7")
    line = {"x": parse("t2/6"), "y": parse("t2/6"), "z": parse("s")}
    rho = case.omega_gens["rho"]
    assert {v: rho[v].subs(line) for v in case.fiber_vars} == line
    P = case.fiber.subs(line)
    assert P == parse("t6/4 - t2^3/432 - s^2")
    assert P.degree_in("s") == 2 and P.coefficients_in("s")[-1] == parse("-1")
    _assert_singular_modulo(case, line, P)


def test_d4g2e7_fixed_point_lies_on_one_hypersurface_of_fibers():
    # why D4G2E7 is left out of the identity above: its P has no s
    case = descriptor("D4G2E7")
    assert case.fiber.subs(case.fixed_locus) == parse("t6/4 - t2^3/432")


def test_full_report_passes_at_seeds_besides_zero(tmp_path):
    # the seed moves the spot check's random parameter points (the stratum
    # samples do not depend on it); the verdicts must not move
    for seed in (1, 2, 3):
        summary = full_report(seed=seed, out_dir=str(tmp_path / str(seed)))
        assert summary["ok"] and summary["seed"] == seed, summary


def test_sampler_determinism():
    a = sample_stratum("E6F4E7", "H1&H2", 3)
    b = sample_stratum("E6F4E7", "H1&H2", 3)
    assert a == b


def test_derive_quotient_chart_b2():
    rep = derive_quotient_chart("A3B2D4")
    assert rep["ok"], rep
    assert len(rep["generators"]) == 3
    assert rep["relation_found"] and rep["quotient_identity"]


def test_orbit_configuration_classifies_both_factors_of_a_split():
    # at this point an eliminant has a quadratic factor with two rational
    # roots, one of them a fixed point.  It is factored before any point is
    # built, so each root is a rational record with its own stabilizer
    t = {"t2": Fraction(1), "t4": Fraction(0), "t6": Fraction(-1, 108)}
    assert families.stratum_membership("D4C3D6", t) == "L&H"
    orbits, smooth_fixed, records = families.fiber_orbit_configuration(
        "D4C3D6", t)
    half = Fraction(1, 2)
    assert [(rec.ring, rec.coords, rec.ade_type, orb) for rec, orb in records] \
        == [(RATIONAL_RING, (half, 0, 0), "A1", 1),
            (RATIONAL_RING, (0, half, 0), "A1", 2),
            (RATIONAL_RING, (0, 0, 0), "A1", 2)]
    strat = families.descriptor("D4C3D6").stratum("L&H")
    assert orbits == Counter(strat.fiber_sing)
    assert smooth_fixed == strat.fiber_fixed_smooth


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _section_digest(bundle: bytes, section: str) -> str:
    body = json.loads(bundle)["sections"].get(section)
    return _sha(json.dumps(body, sort_keys=True).encode())


@pytest.fixture(scope="module")
def seed0_report(tmp_path_factory):
    """The default seed-0 six-case report, written once: file name -> bytes."""
    out_dir = tmp_path_factory.mktemp("reports")
    full_report(seed=0, out_dir=str(out_dir))
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_report_matches_recorded_fingerprint(seed0_report):
    want = json.loads(EXPECTED.read_text())
    for cid in CASE_IDS:
        bundle = seed0_report[f"{cid}.json"]
        assert sorted(json.loads(bundle)["sections"]) == \
            sorted(want["sections"][cid]), cid
        for section, digest in sorted(want["sections"][cid].items()):
            assert _section_digest(bundle, section) == digest, \
                f"{cid}/{section} differs from perfbench/expected.json"
    files = {name: _sha(data) for name, data in seed0_report.items()}
    assert files == want["files"]
    assert _sha("".join(f"{files[n]}\n" for n in sorted(files)).encode()) == \
        want["fingerprint"]


@pytest.mark.parametrize("cid", CASE_IDS)
def test_derive_quotient_chart_matches_recorded_bundle(cid, seed0_report):
    # the seed-0 report's quotient-derivation section, digest as recorded
    want = json.loads(EXPECTED.read_text())["sections"][cid]["quotient-derivation"]
    assert _section_digest(seed0_report[f"{cid}.json"],
                           "quotient-derivation") == want


@pytest.mark.parametrize("cid", CASE_IDS)
def test_monomials_match_a_filter_of_all_exponent_tuples(cid):
    # every degree up to 36 on the parameters, the largest quasi-degree a
    # derivation asks for; up to 24 on the fiber variables and parameters,
    # the largest it asks for there (E6F4E7: 36 less the fiber's 12).  The
    # oracle filters the box of exponents at most top // weight, which
    # itertools.product lists in ascending lexicographic order
    case = descriptor(cid)
    for names, top in ((case.params, 36),
                       (case.fiber_vars + case.params, 24)):
        weights = tuple(case.weights[v] for v in names)
        want = defaultdict(list)
        for e in itertools.product(*(range(top // w + 1) for w in weights)):
            d = sum(map(mul, weights, e))
            if d <= top:
                want[d].append(e)
        for d in range(top + 1):
            assert list(monomials(weights, d)) == want[d]


def test_monomials_of_negative_degree_are_empty():
    assert monomials((1,), -1) == ()
    assert monomials((2, 3), -1) == monomials((1, 1, 1), -4) == ()
    assert monomials((), 0) == ((),)


# echelons built per derivation: one per quasi-degree queried, the
# relation's included.  Admitting by standard degree, with a minimization
# loop and the echelons of the last queried tuple only, built 28, 38, 43,
# 41, 34 and 63; a second echelon for the relation built 12, 17, 17, 17, 13
# and 28
DERIVATION_ECHELONS = {"A3B2D4": 11, "A5B3D5": 16, "D4C3D6": 16,
                       "D4G2E6": 16, "D4G2E7": 12, "E6F4E7": 27}


@pytest.mark.parametrize("cid", CASE_IDS)
def test_derivation_builds_one_echelon_per_quasi_degree(cid, monkeypatch):
    built, degrees = [0], []
    candidates = families._Tables.candidates

    class Counted(Echelon):
        def __init__(self):
            super().__init__()
            built[0] += 1

    def recording(self, d):
        degrees.append(d)
        return candidates(self, d)

    monkeypatch.setattr(families, "Echelon", Counted)
    monkeypatch.setattr(families._Tables, "candidates", recording)
    rep = derive_quotient_chart(cid)
    want = json.loads(EXPECTED.read_text())["sections"][cid]
    assert _sha(json.dumps(rep, sort_keys=True).encode()) == \
        want["quotient-derivation"]
    # every echelon is filled by one candidates call, once per quasi-degree,
    # the relation's included
    case = descriptor(cid)
    assert families._qdeg(case, case.quotient) in degrees
    assert len(degrees) == built[0] == DERIVATION_ECHELONS[cid]
    assert set(Counter(degrees).values()) == {1}, degrees


@pytest.mark.parametrize("cid", CASE_IDS)
def test_derivation_admits_a_minimal_triple(cid, monkeypatch):
    # in quasi-degree order the greedy admission is minimal by graded
    # Nakayama: exactly three invariants are admitted, and they are the
    # reported generators
    admitted = []
    admit = families._Tables.admit

    def spy(self, i, v):
        admitted.append((i, v))
        admit(self, i, v)

    monkeypatch.setattr(families._Tables, "admit", spy)
    rep = derive_quotient_chart(cid)
    assert len(admitted) == 3, [repr(v) for _, v in admitted]
    assert [repr(v) for _, v in sorted(admitted, key=lambda e: e[0])] == \
        rep["generators"]
    # no generator lies in the algebra of the other two
    monkeypatch.undo()
    case = descriptor(cid)
    # each is of lower quasi-degree than the relation, so the relation's
    # echelon is built with all three in
    relation = families._qdeg(case, case.quotient)
    assert all(families._qdeg(case, v) < relation for _, v in admitted)
    for i, v in admitted:
        tables = families._Tables(case)
        for j, w in admitted:
            if j != i:
                tables.admit(j, w)
        assert families._algebra_certificate(tables, v) is None, repr(v)


def _subs_average(case, p):
    """The Reynolds average by one substitution per group element."""
    elems = case.group_elements()
    acc = Polynomial.zero()
    for sub in elems:
        acc = acc + p.subs(sub)
    return acc / Fraction(len(elems))


@pytest.mark.parametrize("cid", CASE_IDS)
def test_reynolds_image_tables_match_substitution(cid, monkeypatch):
    case = descriptor(cid)
    for d in range(7):
        for mono in monomials((1, 1, 1), d):
            p = Polynomial(case.fiber_vars, {mono: Fraction(1)})
            assert families.reynolds_average(case, p) == \
                _subs_average(case, p), (cid, mono)
    p = parse("3*x^2*y - 1/2*z + 5")
    assert families.reynolds_average(case, p) == _subs_average(case, p)
    # the derivation queries the same invariants, in the same order
    certificate = families._algebra_certificate

    def targets():
        seen = []

        def spy(tables, v):
            seen.append(v)
            return certificate(tables, v)

        monkeypatch.setattr(families, "_algebra_certificate", spy)
        derive_quotient_chart(cid)
        return seen

    queried = targets()
    monkeypatch.setattr(families, "reynolds_average", _subs_average)
    assert targets() == queried


def _check_echelon_against_dense(nrows, columns, rhs):
    """The engine, fed the columns with their indices as the quotient
    derivation feeds it (monomial-tuple keys, largest lead), gives the
    kernel basis and the solution of the dense oracle and its membership
    verdict."""
    ncols = len(columns)
    matrix = [[col[i] for col in columns] for i in range(nrows)]
    ech = Echelon()
    kernel = []
    for c, col in enumerate(columns):
        rel = ech.add({(i,): a for i, a in enumerate(col) if a}, c)
        if rel is not None:
            kernel.append(tuple(rel.get(j, Fraction(0)) for j in range(ncols)))
    assert kernel == dense_kernel(matrix, ncols)
    sol = ech.solve({(i,): b for i, b in enumerate(rhs) if b})
    dense = dense_solution(matrix, rhs, ncols)
    assert (sol is None) == (dense is None)
    if sol is not None:
        assert tuple(sol.get(j, Fraction(0)) for j in range(ncols)) == dense


_entries = st.tuples(st.booleans(), st.fractions(-3, 3, max_denominator=4)).map(
    lambda t: t[1] if t[0] else Fraction(0))


@st.composite
def _column_sets(draw):
    """Sparse rational columns, some zero, duplicated or dependent, and a
    right-hand side in or out of their span."""
    nrows = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate",
                                     "combination")))
        if kind == "zero":
            columns.append([Fraction(0)] * nrows)
        elif kind == "random" or not columns:
            columns.append(draw(st.lists(_entries, min_size=nrows,
                                         max_size=nrows)))
        elif kind == "duplicate":
            columns.append(list(draw(st.sampled_from(columns))))
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            x, y = draw(_entries), draw(_entries)
            columns.append([x * u + y * v for u, v in zip(a, b)])
    if columns and draw(st.booleans()):
        rhs = [Fraction(0)] * nrows
        for col in columns:
            c = draw(_entries)
            rhs = [r + c * a for r, a in zip(rhs, col)]
    else:
        rhs = draw(st.lists(_entries, min_size=nrows, max_size=nrows))
    return nrows, columns, rhs


@settings(max_examples=300, deadline=None)
@given(_column_sets())
def test_echelon_matches_dense_linear_algebra(case):
    _check_echelon_against_dense(*case)


def test_echelon_degenerate_matrices():
    zero = [Fraction(0)] * 3
    _check_echelon_against_dense(3, [zero, zero], zero)                 # all zero
    _check_echelon_against_dense(3, [zero, zero], [Fraction(1)] + zero[1:])
    _check_echelon_against_dense(3, [], zero)                           # no columns
    _check_echelon_against_dense(3, [], [Fraction(0), Fraction(2), Fraction(0)])


def test_quotient_fiber_memo_classifies_each_point_once(monkeypatch):
    # the tables and correspondence sections meet some points twice; each
    # (case, t) is classified once and the bundle is the recorded one
    families._classified.cache_clear()
    seen = []
    memo = families.classify_quotient_fiber

    def spy(case_id, t):
        seen.append((case_id, tuple(sorted((k, Fraction(v))
                                           for k, v in t.items()))))
        return memo(case_id, t)

    monkeypatch.setattr(families, "classify_quotient_fiber", spy)
    monkeypatch.setattr(flatmap, "classify_quotient_fiber", spy)
    calls = []
    classify = families.fiber_configuration
    monkeypatch.setattr(families, "fiber_configuration",
                        lambda F: calls.append(F) or classify(F))
    bundle = verify_case("D4G2E6")
    assert len(set(seen)) < len(seen)
    assert len(calls) == len(set(seen)) == \
        families._classified.cache_info().currsize
    want = json.loads(EXPECTED.read_text())["sections"]["D4G2E6"]
    got = json.dumps(bundle).encode()
    assert {s: _section_digest(got, s) for s in want} == want
