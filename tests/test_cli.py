import hashlib
import json

import pytest

import singfold.cli
from singfold import families
from singfold.cli import main, verify_case
from singfold.rootsys import CASE_IDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cases_list(capsys):
    code, out = run(capsys, "cases", "list")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {r["case"] for r in rows} == {
        "A3B2D4", "A5B3D5", "D4C3D6", "D4G2E6", "D4G2E7", "E6F4E7"}


def test_cases_show(capsys):
    code, out = run(capsys, "cases", "show", "A3B2D4")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient_variables"] == ["X", "W", "Z"]
    assert "strata" in doc and len(doc["strata"]) == 4


def test_cases_show_needs_id(capsys):
    assert main(["cases", "show"]) == 2
    assert "error: cases show needs a case id" in capsys.readouterr().err


def test_roots(capsys):
    code, out = run(capsys, "roots", "--type", "E6")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 72


def test_subsystems_table(capsys):
    code, out = run(capsys, "subsystems", "--case", "D4G2E6", "--table")
    assert code == 0
    assert out.strip().endswith("total: 8")
    assert len([ln for ln in out.splitlines() if ln.startswith("[")]) == 8


def test_classify_surface(capsys):
    code, out = run(capsys, "classify", "--surface", "X^5+Y^3+Z^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["configuration"] == "E8"


def test_classify_case_point(capsys):
    code, out = run(capsys, "classify", "--case", "A3B2D4",
                    "--point", "t2=8,t4=8")
    assert code == 0
    assert json.loads(out)["configuration"] == "A1+A1+A1"


@pytest.mark.parametrize("point, item", [
    ("t2=1,t4=1,t9=3", "'t9=3': unknown parameter 't9'"),
    ("t2=1,t4=1,t2=5", "'t2=5': parameter 't2' given twice"),
    ("t2=1,t4", "'t4' is not name=value"),
    ("t2=1/0,t4=1", "'t2=1/0': division by zero"),
    ("t2=one,t4=1", "'t2=one': value is not a rational number"),
])
def test_classify_bad_point_item_is_usage_error(capsys, point, item):
    assert main(["classify", "--case", "A3B2D4", "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"point item {item}" in captured.err


def test_classify_usage_errors(capsys):
    code, _ = run(capsys, "classify")
    assert code == 2
    code, _ = run(capsys, "classify", "--case", "A3B2D4", "--point", "t2=1")
    assert code == 2
    code, _ = run(capsys, "classify", "--surface", "x^2 +")
    assert code == 2
    code, _ = run(capsys, "classify", "--surface", "x +")
    assert code == 2
    for surface, message in (("x/0 + y^2 + z^2", "division by zero"),
                             ("x^70000 + y^2 + z^2", "exponent too large"),
                             ("x^2 + y^2 + z^2 = 0", "bad character '='")):
        assert main(["classify", "--surface", surface]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_classify_superscript_digit_is_usage_error(capsys):
    # a superscript digit is a word character but no decimal digit: the
    # text does not parse, which is a usage error, not a computation error
    for surface, message in (("x^² + y^2 + z^2", "bad exponent '²'"),
                             ("x*² + y^2 + z^2", "unexpected token '²'"),
                             ("2² + y^2 + z^2", "trailing input at token '²'")):
        assert main(["classify", "--surface", surface]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_classify_superscript_digit_in_a_name_is_usage_error(capsys):
    # x² is no variable: the digit after a letter is refused, not taken
    # into the name
    for surface, bad in (("x² + y^2 + z^2", "²"), ("x₁^2 + y^2 + z^2", "₁")):
        assert main(["classify", "--surface", surface]) == 2
        assert f"error: bad character '{bad}'" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["verify", "--bogus"]) == 2
    assert main(["subsystems", "--case", "NOPE"]) == 2


def test_verify_single_section(capsys):
    code, out = run(capsys, "verify", "--case", "A3B2D4",
                    "--sections", "equivariance,iso,realizations")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert set(doc["sections"]) == {"equivariance", "iso", "realizations"}


def test_verify_without_case_covers_every_case(capsys):
    code, out = run(capsys, "verify", "--sections", "equivariance")
    assert code == 0
    # one indented bundle per case: only a bundle's braces start a line
    docs = json.loads("[" + out.replace("}\n{", "},{") + "]")
    assert [doc["case"] for doc in docs] == list(CASE_IDS)
    assert all(set(doc["sections"]) == {"equivariance"} for doc in docs)


def test_verify_all_is_not_an_option(capsys):
    assert main(["verify", "--all"]) == 2
    assert "unrecognized arguments: --all" in capsys.readouterr().err


def test_verify_bad_section(capsys):
    code, _ = run(capsys, "verify", "--case", "A3B2D4", "--sections", "bogus")
    assert code == 2


def test_verify_case_function_deterministic():
    a = verify_case("A3B2D4", seed=0, samples=2, theorem2_count=3)
    b = verify_case("A3B2D4", seed=0, samples=2, theorem2_count=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_writes_files_and_is_deterministic(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    sections = "equivariance,flat-relations,iso,theorem2"
    code, out = run(capsys, "--samples", "1", "report", "--out",
                    str(out_dir), "--theorem2-count", "2",
                    "--sections", sections)
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["ok"] is True
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    code, _ = run(capsys, "--samples", "1", "report", "--out", str(out_dir),
                  "--theorem2-count", "2", "--sections", sections)
    assert code == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second
    assert set(first) == {f"{c}.json" for c in summary["cases"]} | {"summary.json"}


def test_report_rejects_bad_count(capsys):
    code, _ = run(capsys, "--samples", "0", "report")
    assert code == 2


def test_verify_rejects_bad_count(capsys):
    code, _ = run(capsys, "--samples", "0", "verify", "--case", "A3B2D4")
    assert code == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_theorem2_count_below_one_is_usage_error(tmp_path, capsys, count):
    assert main(["verify", "--case", "A3B2D4", "--sections", "theorem2",
                 "--theorem2-count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theorem2 count must be >= 1" in captured.err
    out_dir = tmp_path / "reports"
    assert main(["report", "--out", str(out_dir),
                 "--theorem2-count", count]) == 2
    assert "theorem2 count must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sampler_budget_exhaustion_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(families, "SAMPLE_BUDGET", 1)
    assert main(["verify", "--case", "A3B2D4", "--sections", "tables"]) == 1
    err = capsys.readouterr().err
    assert "error: A3B2D4/t4=-t2^2/8: found 1 of 3 samples" in err
    assert "budget of 1 candidates" in err


# sha256 of `singfold cases show <case>`, recorded before the catalogue moved
# into the data files alone
CASES_SHOW_SHA256 = {
    "A3B2D4": "e5c229c99265e175e69855fcac83632d80e798eb0fab7e763a3d8d1b483d3fbf",
    "A5B3D5": "3e9f37070a1b32d56e5db78652de3e67b1858e7f451283d51189ac563fcff76b",
    "D4C3D6": "3ee869738a91b0262ca1b004e009628ad9087ac16c3aa2f9a34eeb6314caf908",
    "D4G2E6": "5416a972087d9a4446716ec4b78e047e2eb556a6b304a9ea9edccf6a3e5abbc1",
    "D4G2E7": "c9cefc04dc58c4130b43f6f82f776c68a2d85acf580f60b039d0110de1b3b960",
    "E6F4E7": "6a88ac5981da6eb038fd84079f4d421ccece7d3fdbd0aaf6d0f7a3b3b739c041",
}


@pytest.mark.parametrize("cid", sorted(CASES_SHOW_SHA256))
def test_cases_show_is_pinned(capsys, cid):
    code, out = run(capsys, "cases", "show", cid)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CASES_SHOW_SHA256[cid]


def test_error_inside_verification_exits_1(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("sampler found too few points")

    monkeypatch.setattr(singfold.cli, "verify_case", broken)
    assert main(["verify", "--case", "A3B2D4"]) == 1
    assert "error: sampler found too few points" in capsys.readouterr().err
    assert main(["report", "--out", str(tmp_path / "reports")]) == 1
    assert "error: sampler found too few points" in capsys.readouterr().err


def test_program_error_inside_verify_exits_1(capsys, monkeypatch):
    # any exception after a sound command line is the program's, not usage
    def broken(case_id):
        raise ArithmeticError("derivation overflowed")

    monkeypatch.setattr(singfold.cli, "derive_quotient_chart", broken)
    assert main(["verify", "--case", "A3B2D4",
                 "--sections", "quotient-derivation"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: derivation overflowed" in captured.err


def test_failed_assertion_inside_report_exits_1(tmp_path, capsys,
                                                monkeypatch):
    def broken(case_id):
        raise AssertionError("generated group of the wrong order")

    monkeypatch.setattr(singfold.cli, "verify_equivariance", broken)
    assert main(["report", "--out", str(tmp_path / "reports"),
                 "--sections", "equivariance"]) == 1
    assert "error: generated group of the wrong order" in \
        capsys.readouterr().err


def test_classify_refused_surface_exits_1(capsys):
    assert main(["classify", "--surface", "x^3 + y^3 + z^3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unsupported equation shape" in captured.err


def test_classify_surface_linear_in_one_variable(capsys):
    code, out = run(capsys, "classify", "--surface", "x*y + z^3 + x^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["configuration"] == "A2"
    assert doc["points"][0]["coordinates"] == ["0", "0", "0"]


def test_classify_surface_over_a_reducible_eliminant(capsys):
    # the points (+-sqrt 2, +-1, 0) are two Galois orbits of two
    code, out = run(capsys, "classify", "--surface",
                    "(x^2-2)^2 + (y^2-1)^2 + z^2")
    assert code == 0
    points = json.loads(out)["points"]
    assert [(p["type"], p["orbit_size"]) for p in points] == [("A1", 2)] * 2


def test_classify_computation_error_exits_1(capsys, monkeypatch):
    def broken(F):
        raise ValueError("inexact division in Z[t]")

    monkeypatch.setattr(singfold.cli, "fiber_configuration", broken)
    assert main(["classify", "--surface", "x^2 + y^2 + z^2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: inexact division in Z[t]" in captured.err
    assert main(["classify", "--surface", "x^2 +"]) == 2


def test_report_writes_only_the_listed_cases(tmp_path, capsys, monkeypatch):
    # the benchmark's worker narrows a report by rebinding cli.CASE_IDS
    monkeypatch.setattr(singfold.cli, "CASE_IDS", ("D4G2E6",))
    out_dir = tmp_path / "reports"
    code, out = run(capsys, "report", "--out", str(out_dir),
                    "--sections", "equivariance")
    assert code == 0
    assert json.loads(out)["cases"] == {"D4G2E6": True}
    assert {p.name for p in out_dir.iterdir()} == {"D4G2E6.json",
                                                  "summary.json"}
