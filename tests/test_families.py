import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singfold import families
from singfold.cli import main
from singfold.exact import Echelon
from singfold.families import (check_stratum_point,
                               classify_quotient_fiber,
                               derive_quotient_chart, descriptor, fiber_at,
                               quotient_fiber, sample_stratum,
                               stratum_membership, theorem_singular_spotcheck,
                               verify_catalogue, verify_equivariance)
from singfold.poly import parse
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
]


@pytest.mark.parametrize("cid,old,new,problem", BROKEN_CATALOGUES,
                         ids=[f"{b[0]}-{b[3].split(':')[0]}"
                              for b in BROKEN_CATALOGUES])
def test_malformed_catalogue_file_is_reported(tmp_path, monkeypatch, capsys,
                                              cid, old, new, problem):
    for case_id in CASE_IDS:
        text = (families.CATALOGUE / f"{case_id}.txt").read_text()
        if case_id == cid:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / f"{case_id}.txt").write_text(text)
    monkeypatch.setattr(families, "CATALOGUE", tmp_path)
    monkeypatch.setattr(families, "_case_cache", {})
    rep = verify_catalogue()
    assert not rep["ok"]
    assert [p for p in rep["cases"][cid] if p.startswith(problem)], rep
    assert all(not rep["cases"][c] for c in CASE_IDS if c != cid)
    with pytest.raises(families.CatalogueError):
        descriptor(cid)
    assert main(["cases", "list"]) == 1
    err = capsys.readouterr().err
    assert f"error: case catalogue {cid}: {problem}" in err


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


def test_membership_unique_and_total_on_random_points():
    rng = random.Random(1)
    for cid in CASE_IDS:
        case = descriptor(cid)
        for _ in range(300):
            t = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for p in case.params}
            sid = stratum_membership(cid, t)
            matches = [s.stratum_id for s in case.strata
                       if all(eq.evaluate(t) == 0 for eq in s.equations)
                       and all(iq.evaluate(t) != 0 for iq in s.inequations)]
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


def test_sampler_determinism():
    a = sample_stratum("E6F4E7", "H1&H2", 3)
    b = sample_stratum("E6F4E7", "H1&H2", 3)
    assert a == b


def test_derive_quotient_chart_b2():
    rep = derive_quotient_chart("A3B2D4")
    assert rep["ok"], rep
    assert len(rep["generators"]) == 3
    assert rep["relation_found"] and rep["quotient_identity"]


def test_derive_quotient_chart_rejects_small_bound():
    with pytest.raises(ValueError):
        derive_quotient_chart("A3B2D4", degree_bound=4)


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


@pytest.mark.parametrize("cid", CASE_IDS)
def test_derive_quotient_chart_matches_recorded_bundle(cid):
    # the seed-0 report's quotient-derivation section, digest as recorded
    want = json.loads(EXPECTED.read_text())["sections"][cid]["quotient-derivation"]
    got = hashlib.sha256(json.dumps(derive_quotient_chart(cid),
                                    sort_keys=True).encode()).hexdigest()
    assert got == want


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
