"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import time
from functools import partial

from singfold.families import (check_stratum_point, derive_quotient_chart,
                               descriptor, sample_stratum,
                               theorem_singular_spotcheck, verify_equivariance)
from singfold.flatmap import correspondence_check, flat_chart, verify_iso
from singfold.poly import parse
from singfold.rootsys import CASE_IDS, case_meta
from singfold.singclass import fiber_configuration
from singfold.subsys import match_realizations, subsystems_for_case
from test_families import (THEOREM2_B_TYPES, THEOREM2_DEGREES,
                           check_theorem2_d4g2e7_on_the_line_of_rho,
                           check_theorem2_fixed_square,
                           check_theorem2_on_the_fixed_locus)
from test_subsys import (EXPONENTS, characteristic_polynomial,
                         product_of_linear_factors)

EXPECTED_ROW_COUNTS = {"A3B2D4": 4, "A5B3D5": 7, "D4C3D6": 7,
                       "D4G2E6": 4, "D4G2E7": 4, "E6F4E7": 12}
EXPECTED_REALIZATIONS = {"A3B2D4": 6, "A5B3D5": 24, "D4C3D6": 24,
                         "D4G2E6": 8, "D4G2E7": 8}
F4_TYPE_COUNT = 12


def _report(name, ok, elapsed, budget, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[{name}] {state} in {elapsed:.1f}s (budget {budget}s) {detail}")


def test_criterion_1_classifier_oracle():
    t0 = time.time()
    cases = [("X^4 + Y*Z", "A3"), ("X^6 + Y*Z", "A5"),
             ("X*(Y^2 - X^3) + Z^2", "D5"), ("X*(Y^2 - X^6) + Z^2", "D8"),
             ("X^4 + Y^3 + Z^2", "E6"), ("X^3 + X*Y^3 + Z^2", "E7"),
             ("X^5 + Y^3 + Z^2", "E8")]
    cases += [(f"x^{k+1} + y^2 + z^2", f"A{k}") for k in range(1, 9)]
    cases += [(f"x^2*y + y^{k-1} + z^2", f"D{k}") for k in range(4, 9)]
    failures = []
    for text, want in cases:
        got = fiber_configuration(parse(text)).type_string()
        if got != want:
            failures.append((text, want, got))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10
    _report("criterion 1: classifier oracle", ok, elapsed, 10,
            f"{len(cases)} forms")
    assert not failures, failures
    assert elapsed < 10


def test_criterion_2_table_reproduction():
    t0 = time.time()
    failures = []
    rows = 0
    for cid in CASE_IDS:
        case = descriptor(cid)
        assert len(case.strata) == EXPECTED_ROW_COUNTS[cid]
        for strat in case.strata:
            rows += 1
            pts = sample_stratum(cid, strat.stratum_id,
                                 min(3, strat.max_samples or 3))
            for t in pts:
                res = check_stratum_point(cid, strat.stratum_id, t)
                if not res["ok"]:
                    failures.append(res)
    elapsed = time.time() - t0
    ok = not failures and rows == 38 and elapsed < 900
    _report("criterion 2: table reproduction", ok, elapsed, 900,
            f"{rows} rows x 3 points, covering fibers included")
    assert rows == 38
    assert not failures, failures[:3]
    assert elapsed < 900


def test_criterion_3_realization_tables():
    t0 = time.time()
    failures = []
    for cid in CASE_IDS:
        rep = match_realizations(cid)
        if not rep.ok:
            failures.append((cid, rep.errors))
        if cid == "E6F4E7":
            if len(rep.counts) != F4_TYPE_COUNT:
                failures.append((cid, f"{len(rep.counts)} types"))
        elif len(rep.enumerated) != EXPECTED_REALIZATIONS[cid]:
            failures.append((cid, len(rep.enumerated)))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    _report("criterion 3: realization tables", ok, elapsed, 300)
    assert not failures, failures
    assert elapsed < 300


def test_criterion_4_symbolic_identities():
    t0 = time.time()
    failures = []
    for cid in CASE_IDS:
        flat_chart(cid)  # relations verified at load; raises on failure
        if not verify_iso(cid)["ok"]:
            failures.append((cid, "iso"))
        if not verify_equivariance(cid)["ok"]:
            failures.append((cid, "equivariance"))
        if not derive_quotient_chart(cid)["ok"]:
            failures.append((cid, "quotient derivation"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    _report("criterion 4: symbolic identities", ok, elapsed, 300)
    assert not failures, failures
    assert elapsed < 300


def test_criterion_5_correspondence_verification():
    t0 = time.time()
    failures = []
    total = 0
    for cid in CASE_IDS:
        rep = correspondence_check(cid)
        total += rep["subsystems"]
        if not rep["ok"]:
            failures.append((cid, [e for e in rep["entries"]
                                   if not e.get("match")][:2]))
    elapsed = time.time() - t0
    ok = not failures
    _report("criterion 5: correspondence verification", ok, elapsed, 900,
            f"{total} subsystems")
    assert total == 6 + 24 + 24 + 8 + 8 + 268
    assert not failures, failures


def test_criterion_6_quotient_fibers_always_singular():
    t0 = time.time()
    failures = []
    for cid in CASE_IDS:
        rep = theorem_singular_spotcheck(cid, count=100, seed=0)
        if not rep["ok"]:
            failures.append((cid, rep["failures"][:2]))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    _report("criterion 6: quotient fibers singular", ok, elapsed, 600,
            "100 points per case")
    assert not failures, failures
    assert elapsed < 600


def test_criterion_7_characteristic_polynomial_of_the_flats():
    # chi(t) of the lattice of flats is prod (t - m_i) over the exponents of
    # the folded type (Orlik-Solomon 1980, Terao 1981)
    t0 = time.time()
    failures = []
    for cid in CASE_IDS:
        exponents = EXPONENTS[case_meta(cid).inhomogeneous_type]
        chi = characteristic_polynomial(subsystems_for_case(cid))
        if chi != product_of_linear_factors(exponents):
            failures.append((cid, chi, exponents))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _report("criterion 7: chi(t) of the flats", ok, elapsed, 60,
            "prod (t - m_i) in all six cases")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_8_theorem2_identities():
    # Theorem 2 as identities in s and t: (i) and (ii) on the fixed locus
    # of five cases, (iii) on the fixed square of the B types, and (i) and
    # (ii) for D4G2E7 on the fixed line of rho
    t0 = time.time()
    checks = [(f"(i)-(ii) {cid}", partial(check_theorem2_on_the_fixed_locus,
                                          cid))
              for cid in sorted(THEOREM2_DEGREES)]
    checks += [(f"(iii) {cid}", partial(check_theorem2_fixed_square, cid))
               for cid in THEOREM2_B_TYPES]
    checks.append(("(i)-(ii) D4G2E7 on the line of rho",
                   check_theorem2_d4g2e7_on_the_line_of_rho))
    failures = []
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures.append((name, exc))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10
    _report("criterion 8: Theorem 2 identities", ok, elapsed, 10,
            f"{len(checks)} identities")
    assert not failures, failures
    assert elapsed < 10
