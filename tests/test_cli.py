import copy
import json

import pytest

from periodjet.cli import (
    EXPECTED_REGRESSIONS, main, poly_label, run_checks)
from periodjet.curve import HyperellipticCurve, expand_curve

E5_JSON = {"p": ["1", "0", "0", "0", "0", "1"]}
FIELD = json.dumps({"trunc": 30, "coeffs": {"-1": "1"}})
PAIR = json.dumps([{"trunc": 30, "coeffs": {"-1": "1"}},
                   {"trunc": 30, "coeffs": {"-3": "2"}}])


def write_curve(tmp_path, obj=E5_JSON, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_info(tmp_path, capsys):
    curve = write_curve(tmp_path)
    code, out = run(capsys, ["info", "--curve", curve])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["gaps_O"] == [1, 3]
    assert payload["gaps_Theta"] == [1, 3, 5]
    assert payload["dim_h1_O"] == 2 and payload["dim_h1_Theta"] == 3
    assert payload["curve"]["precision"] == 40
    assert payload["h10_orders"] == [3, 1]


def test_output_is_byte_deterministic(tmp_path, capsys):
    curve = write_curve(tmp_path)
    _, first = run(capsys, ["info", "--curve", curve])
    _, second = run(capsys, ["info", "--curve", curve])
    assert first == second and first.endswith("\n")
    argv = ["compute", "ell2", "--curve", curve, "--fields", PAIR]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_compute_nu1_and_symmetry_report(tmp_path, capsys):
    curve = write_curve(tmp_path)
    code, out = run(capsys, ["compute", "nu1", "--curve", curve,
                             "--fields", FIELD])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["matrix"]["entries"] == [["0/1", "2/1"], ["0/1", "0/1"]]
    assert result["symmetry"] is True


def test_compute_routes_agree_bytewise(tmp_path, capsys):
    curve = write_curve(tmp_path)
    _, one = run(capsys, ["compute", "ell2", "--curve", curve,
                          "--fields", PAIR])
    _, two = run(capsys, ["compute", "ell2-lie", "--curve", curve,
                          "--fields", PAIR])
    assert json.loads(one)["result"] == json.loads(two)["result"]


def test_compute_ell2_not_symmetric_on_equal_fields(tmp_path, capsys):
    curve = write_curve(tmp_path)
    fields = json.dumps([json.loads(FIELD), json.loads(FIELD)])
    code, out = run(capsys, ["compute", "ell2", "--curve", curve,
                             "--fields", fields])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["matrix"]["entries"] == [["-2/1", "0/1"], ["0/1", "2/1"]]
    assert result["symmetry"] is False


def test_compute_d2phi_and_ii(tmp_path, capsys):
    curve = write_curve(tmp_path)
    code, out = run(capsys, ["compute", "d2phi", "--curve", curve,
                             "--fields", PAIR])
    assert code == 0
    result = json.loads(out)["result"]
    assert set(result["jet"]) == {"linear", "quadratic"}
    assert result["symmetry"]["quadratic"] == [[True, True]]

    code, out = run(capsys, ["compute", "ii", "--curve", curve,
                             "--fields", PAIR])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["interpretation"] == "mod image nu1"


def test_compute_nu2_takes_rep_object(tmp_path, capsys):
    curve = write_curve(tmp_path)
    rep = json.dumps({"upsilon": {"trunc": 30, "coeffs": {}},
                      "sym_pairs": [[json.loads(FIELD), json.loads(FIELD)]]})
    code, out = run(capsys, ["compute", "nu2", "--curve", curve,
                             "--fields", rep])
    assert code == 0
    assert json.loads(out)["result"]["matrix"]["entries"] == \
        [["-2/1", "0/1"], ["0/1", "2/1"]]
    code, _ = run(capsys, ["compute", "nu2", "--curve", curve,
                           "--fields", PAIR])
    assert code == 2


def test_compute_elln(tmp_path, capsys):
    curve = write_curve(tmp_path)
    triple = json.dumps([json.loads(FIELD)] * 3)
    code, out = run(capsys, ["compute", "elln", "--curve", curve,
                             "--fields", triple, "--n", "3"])
    assert code == 0
    assert "matrix" in json.loads(out)["result"]
    code, out = run(capsys, ["compute", "elln", "--curve", curve,
                             "--fields", triple, "--k", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sum"]["interpretation"] == "set-partition"
    assert len(result["sum"]["terms"]) == 3
    assert len(result["symmetry"]) == 3
    # wrong arity declaration
    code, _ = run(capsys, ["compute", "elln", "--curve", curve,
                           "--fields", triple, "--n", "2"])
    assert code == 2
    # too many fields for the default order cap
    five = json.dumps([json.loads(FIELD)] * 5)
    code, _ = run(capsys, ["compute", "elln", "--curve", curve,
                           "--fields", five])
    assert code == 4


def test_exit_codes_for_bad_input(tmp_path, capsys):
    bad = write_curve(tmp_path, {"p": ["1", "0", "1"]}, name="bad.json")
    assert main(["info", "--curve", bad]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "absent.json")
    assert main(["info", "--curve", missing]) == 2
    capsys.readouterr()
    curve = write_curve(tmp_path)
    assert main(["compute", "nu1", "--curve", curve,
                 "--fields", "not json"]) == 2
    capsys.readouterr()
    assert main(["compute", "nu1", "--curve", curve, "--fields", FIELD,
                 "--k", "2"]) == 2  # --k outside elln
    capsys.readouterr()
    assert main(["info", "--curve", curve, "--precision", "11"]) == 3
    capsys.readouterr()


def test_field_unknown_everywhere_exhausts_precision(tmp_path, capsys):
    # no visible coefficient, nothing known from z^-100 on: the answer
    # would depend on unknown coefficients, so it is refused
    curve = write_curve(tmp_path)
    unknown = json.dumps({"trunc": -100, "coeffs": {}})
    assert main(["compute", "nu1", "--curve", curve,
                 "--fields", unknown]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "PrecisionExhausted" in err


def test_curve_file_rejects_non_rational_strings(tmp_path, capsys):
    for bad in ("1e5", "1.5", "1_000", " 3/4 ", "+2"):
        path = write_curve(tmp_path, {"p": [bad, "0", "0", "0", "0", "1"]},
                           name="bad.json")
        assert main(["info", "--curve", path]) == 2, bad
        assert capsys.readouterr().out == ""
    ok = write_curve(tmp_path, {"p": ["3/4", "-7", "0", "0", "0", "1"]})
    code, out = run(capsys, ["info", "--curve", ok])
    assert code == 0
    assert json.loads(out)["curve"]["p"][:2] == ["3/4", "-7/1"]


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    nested = "[" * 5000 + "]" * 5000
    curve = write_curve(tmp_path)
    assert main(["compute", "nu1", "--curve", curve,
                 "--fields", nested]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nested too deeply" in err
    deep = tmp_path / "deep.json"
    deep.write_text('{"p": %s}' % nested)
    assert main(["info", "--curve", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nested too deeply" in err


def test_field_exponent_keys_must_be_canonical(tmp_path, capsys):
    curve = write_curve(tmp_path)
    for key in ("-01", "-0_1", " -1", "+1", "\u0663"):
        field = json.dumps({"trunc": 30, "coeffs": {key: "1"}})
        assert main(["compute", "nu1", "--curve", curve,
                     "--fields", field]) == 2, key
        out, err = capsys.readouterr()
        assert out == "" and "canonical integer" in err
    # two spellings of z^-1 used to merge silently into one coefficient
    aliased = json.dumps({"trunc": 30, "coeffs": {"-1": "1", "-0_1": "2"}})
    assert main(["compute", "nu1", "--curve", curve,
                 "--fields", aliased]) == 2
    assert capsys.readouterr().out == ""


def test_precision_precedence(tmp_path, capsys, monkeypatch):
    with_file = write_curve(
        tmp_path, dict(E5_JSON, precision=30), name="prec.json")
    monkeypatch.setenv("PERIODJET_PRECISION", "26")
    _, out = run(capsys, ["info", "--curve", with_file])
    assert json.loads(out)["curve"]["precision"] == 30    # file beats env
    _, out = run(capsys, ["info", "--curve", with_file, "--precision", "28"])
    assert json.loads(out)["curve"]["precision"] == 28    # flag beats file
    without = write_curve(tmp_path)
    _, out = run(capsys, ["info", "--curve", without])
    assert json.loads(out)["curve"]["precision"] == 26    # env beats default
    monkeypatch.setenv("PERIODJET_PRECISION", "many")
    assert main(["info", "--curve", without]) == 2
    capsys.readouterr()


def test_out_flag_writes_file(tmp_path, capsys):
    curve = write_curve(tmp_path)
    target = tmp_path / "report.json"
    code, out = run(capsys, ["info", "--curve", curve,
                             "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["genus"] == 2


def test_check_passes_on_fixtures(capsys):
    code, out = run(capsys, ["check"])
    assert code == 0
    report = json.loads(out)
    assert report["failed"] is None
    assert all(row["status"] == "pass" for row in report["checks"])
    names = {row["name"] for row in report["checks"]}
    assert "fixture-regressions" in names and "commutator-sign" in names
    assert {row["curve"] for row in report["checks"]} == \
        {None, "x^5 + 1", "x^7 - x + 1"}


def test_check_detects_tampered_expectations():
    exp = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]), 40)
    tampered = copy.deepcopy(EXPECTED_REGRESSIONS)
    key = ("1/1", "0/1", "0/1", "0/1", "0/1", "1/1")
    tampered[key]["duality_det"] = "5/1"
    report, code = run_checks([exp], expected=tampered)
    assert code == 1
    assert report["failed"] == "fixture-regressions"
    statuses = {row["name"]: row["status"] for row in report["checks"]}
    assert statuses["fixture-regressions"].startswith("fail:")


def test_poly_label():
    assert poly_label(HyperellipticCurve([1, 0, 0, 0, 0, 1])) == "x^5 + 1"
    assert poly_label(HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1])) == \
        "x^7 - x + 1"
