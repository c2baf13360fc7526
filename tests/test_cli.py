import copy
import errno
import hashlib
import json
import os
import threading
import time

import pytest

import periodjet.cli
from periodjet.cli import (
    CURVE_CHECKS, EXPECTED_REGRESSIONS, GLOBAL_CHECKS, MAX_GENUS,
    MAX_PRECISION, CheckFailure, _resolve_precision, main, poly_label,
    run_checks)
from periodjet.curve import HyperellipticCurve, expand_curve
from periodjet.laurent import PrecisionExhausted

E5_JSON = {"p": ["1", "0", "0", "0", "0", "1"]}
E7_JSON = {"p": ["1", "-1", "0", "0", "0", "0", "0", "1"]}
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


F1 = {"trunc": 30, "coeffs": {"-3": "1/2", "-1": "1", "2": "-3"}}
F2 = {"trunc": 24, "coeffs": {"-5": "2", "-2": "-1/3", "0": "1"}}
F3 = {"trunc": 20, "coeffs": {"-1": "-2", "1": "5/7"}}
PINNED_FIELDS = {
    "nu1": F1, "ell2": [F1, F2], "ell2-lie": [F1, F2], "d2phi": [F1, F2],
    "ii": [F1, F2],
    "nu2": {"upsilon": {"trunc": 26, "coeffs": {"-4": "3/2", "-1": "1"}},
            "sym_pairs": [[F1, F2], [F3, F3]]},
    "elln": [F1, F2, F3],
}
# sha256 of the full stdout of each call
PINNED_STDOUT = {
    ("x^5 + 1", "info"):
        "6e6afe50b1e6531a4f50c46558d5c98de2322c91359668279e996ea4354c6653",
    ("x^5 + 1", "nu1"):
        "b2eb37476846df693a080e4e3fbdccb90b5aa6328935d94b6ef68864c72a8360",
    ("x^5 + 1", "ell2"):
        "a31586dfafcb56d33264a38452d840ab1df950dcb8d248b94b6cc0b7a4ea3937",
    ("x^5 + 1", "ell2-lie"):
        "8577240173b2ac7615a4e268ed0754b81eb27fed3318aa01bac2729b49748ea1",
    ("x^5 + 1", "d2phi"):
        "4b66d90a5eb3a702c7d9bf4d85366c3b68320a50fb0b19bbd77b031bb5e7abde",
    ("x^5 + 1", "ii"):
        "6a4f888a393f9ff8b069735ac26c0ec4916351323e1e7e9347a24c3fb4c927dc",
    ("x^5 + 1", "nu2"):
        "a2d35b39a8ec3f692ba0bbb363f6ac79df8485bd14fa7dd1000c37c6227679c6",
    ("x^5 + 1", "elln"):
        "132d72e9fb29d09d7fa3595a37f97ef5dbf5a7370d69ddfa36fba6173c237c96",
    ("x^5 + 1", "elln-k2"):
        "728afb46d3a4ea904f7746e3e64e3244fa743d2d0af7d4cab676a8f7f2a3b8b8",
    ("x^7 - x + 1", "info"):
        "25235397c060598cba3e0c7ee39b985612e4455ab3078503be2674911cee3540",
    ("x^7 - x + 1", "nu1"):
        "b7d8617af76ba66b9eb744bc4dbcafd4460d9673b42d561780afed80cbbd133f",
    ("x^7 - x + 1", "ell2"):
        "335fbbdc483a7a93540cd78aa688672205c959ce45739837b968b00d7d40df23",
    ("x^7 - x + 1", "ell2-lie"):
        "0de403e51b4265b7874f49ff983333523ac9f2513c0892f8231715bb509fba40",
    ("x^7 - x + 1", "d2phi"):
        "da24cd8b4f0bcab6db4cabf2de21c839bc9ececae0844b93725bc2432e906e18",
    ("x^7 - x + 1", "ii"):
        "56e614de9adcd5ed536f7632b7c4c985869cf4bf59a76e2684113662dd990dcb",
    ("x^7 - x + 1", "nu2"):
        "0ff8480af470d28ce86070a2f8522d8032bc2fcad25e03e06b884aa3f874edee",
    ("x^7 - x + 1", "elln"):
        "402d893de9cf0bc85ed62bdf99418c9ccf0446ac5b0f9ec6494328ed96462626",
    ("x^7 - x + 1", "elln-k2"):
        "248d2aeb61a7d024ee9721d0ddd479c15a4cdfca10a03a67bb64d196bf4117d0",
}


@pytest.mark.parametrize("label, which", sorted(PINNED_STDOUT))
def test_output_bytes_are_pinned(tmp_path, capsys, label, which):
    curve = write_curve(tmp_path, E5_JSON if label == "x^5 + 1" else E7_JSON)
    if which == "info":
        argv = ["info", "--curve", curve]
    elif which == "elln-k2":
        argv = ["compute", "elln", "--curve", curve, "--k", "2",
                "--fields", json.dumps(PINNED_FIELDS["elln"])]
    else:
        argv = ["compute", which, "--curve", curve,
                "--fields", json.dumps(PINNED_FIELDS[which])]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_STDOUT[label, which]


def test_error_bytes_are_pinned(tmp_path, capsys):
    curve = write_curve(tmp_path)
    short = [{"trunc": 2, "coeffs": {"-1": "1"}}, F2]
    assert main(["compute", "ell2-lie", "--curve", curve,
                 "--fields", json.dumps(short)]) == 3
    assert capsys.readouterr() == (
        "", "periodjet: PrecisionExhausted: H^1(O) reduction needs "
            "truncation >= 1, input has -2\n")
    assert main(["compute", "elln", "--curve", curve,
                 "--fields", json.dumps([F1, F2, F3, F1, F2])]) == 4
    assert capsys.readouterr() == (
        "", "periodjet: 5 fields exceed the configured maximum order 4\n")


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


@pytest.mark.parametrize("which, fields, extra, message", [
    ("nu1", None, [], "compute needs --fields"),
    ("nu1", json.dumps({"trunc": 30, "coeffs": {"-1": "x"}}), [], None),
    ("ell2", FIELD, [], "expected 2 field(s), got 1"),
    ("nu2", "[1]", [], "nu2 takes a second-order representative object "
                       "with upsilon and sym_pairs"),
    ("nu2", json.dumps({"upsilon": {"trunc": 30, "coeffs": {}},
                        "sym_pairs": [[]]}), [],
     "each sym_pair must be a two-element list"),
    ("elln", FIELD, ["--n", "2"], "--n 2 does not match 1 supplied fields"),
])
def test_compute_input_is_refused_before_the_expansion(
        tmp_path, capsys, monkeypatch, which, fields, extra, message):
    # the refusal is the one a valid curve gives, and it is given without
    # expanding the curve, even one whose precision is below its floor
    argv = ["compute", which, "--curve", write_curve(tmp_path)] + extra
    if fields is not None:
        argv += ["--fields", fields]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if message is not None:
        assert err == "periodjet: %s\n" % message

    def refuse(curve, precision):
        raise AssertionError("the curve was expanded")
    monkeypatch.setattr(periodjet.cli, "expand_curve", refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == (out, err)
    assert main(argv + ["--precision", "11"]) == 2  # below the floor 12
    assert capsys.readouterr() == (out, err)


def test_json_syntax_errors_name_their_input(tmp_path, capsys):
    def refusal(what, text):
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(text)
        return "periodjet: %s JSON is not valid: %s\n" % (what, info.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{p: 1")
    assert main(["info", "--curve", str(bad)]) == 2
    assert capsys.readouterr() == ("", refusal("curve", "{p: 1"))
    assert main(["compute", "nu1", "--curve", write_curve(tmp_path),
                 "--fields", "not json"]) == 2
    assert capsys.readouterr() == ("", refusal("--fields", "not json"))


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


def test_repeated_json_keys_are_input_errors(tmp_path, capsys):
    curve = write_curve(tmp_path)
    field = '{"trunc": 30, "coeffs": {"-1": "1", "-1": "2"}}'
    assert main(["compute", "nu1", "--curve", curve, "--fields", field]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'-1'" in err
    two_p = tmp_path / "two_p.json"
    two_p.write_text('{"p": ["1", "0", "0", "0", "0", "1"], '
                     '"p": ["1", "-1", "0", "0", "0", "0", "0", "1"]}')
    assert main(["info", "--curve", str(two_p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'p'" in err
    rep = ('{"upsilon": {"trunc": 30, "coeffs": {}}, '
           '"upsilon": {"trunc": 30, "coeffs": {"-1": "1"}}, '
           '"sym_pairs": []}')
    assert main(["compute", "nu2", "--curve", curve, "--fields", rep]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'upsilon'" in err


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


@pytest.mark.parametrize("text", [" 40 ", "4_0", "+40", "\u0664\u0660"])
def test_precision_env_must_be_canonical(tmp_path, capsys, monkeypatch,
                                         text):
    # int() reads each of these as 40
    monkeypatch.setenv("PERIODJET_PRECISION", text)
    assert main(["info", "--curve", write_curve(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "PERIODJET_PRECISION must be an integer" in err


@pytest.mark.parametrize("text", [" 40 ", "4_0", "+40", "\u0664\u0660"])
def test_precision_flag_must_be_canonical(tmp_path, capsys, text):
    # int() reads each of these as 40; the flag takes what the env var takes
    with pytest.raises(SystemExit) as exit_info:
        main(["info", "--curve", write_curve(tmp_path), "--precision", text])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --precision: invalid int value: %r\n"
                        % text)
    _, out = run(capsys, ["info", "--curve", write_curve(tmp_path),
                          "--precision", "40"])
    assert json.loads(out)["curve"]["precision"] == 40


@pytest.mark.parametrize("flag", ["--n", "--k"])
@pytest.mark.parametrize("text", [" +2 ", "+2", "0_2", "\u0662"])
def test_order_flags_must_be_canonical(tmp_path, capsys, flag, text):
    # int() reads each of these as 2
    argv = ["compute", "elln", "--curve", write_curve(tmp_path),
            "--fields", PAIR]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, text])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument %s: invalid int value: %r\n"
                        % (flag, text))
    code, out = run(capsys, argv + [flag, "2"])
    assert code == 0 and "result" in json.loads(out)


def test_uncaught_exception_exits_5_on_one_line(tmp_path, capsys,
                                               monkeypatch):
    def fault(*args):
        raise ZeroDivisionError("injected\nfault")
    monkeypatch.setattr(periodjet.cli, "nu1", fault)
    assert main(["compute", "nu1", "--curve", write_curve(tmp_path),
                 "--fields", FIELD]) == 5
    assert capsys.readouterr() == (
        "", "periodjet: internal error: ZeroDivisionError: injected fault\n")


@pytest.mark.parametrize("source", ["--precision", "the curve file",
                                    "PERIODJET_PRECISION"])
def test_precision_ceiling(tmp_path, capsys, monkeypatch, source):
    over = MAX_PRECISION + 1
    argv = ["info", "--curve", write_curve(tmp_path)]
    if source == "--precision":
        argv += ["--precision", str(over)]
    elif source == "the curve file":
        argv[2] = write_curve(tmp_path, dict(E5_JSON, precision=over),
                              name="over.json")
    else:
        monkeypatch.setenv("PERIODJET_PRECISION", str(over))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "precision %d from %s is above the ceiling MAX_PRECISION = %d" \
        % (over, source, MAX_PRECISION) in err
    if source == "PERIODJET_PRECISION":  # check resolves the env var too
        assert main(["check"]) == 3
        assert capsys.readouterr().out == ""
    flag = MAX_PRECISION if source == "--precision" else None
    file_value = MAX_PRECISION if source == "the curve file" else None
    monkeypatch.setenv("PERIODJET_PRECISION", str(MAX_PRECISION))
    assert _resolve_precision(flag, file_value, 2) == MAX_PRECISION


def test_precision_ceiling_covers_the_default(tmp_path, capsys):
    # genus 126 is the first whose default 8g + 24 = 1032 is above it
    with pytest.raises(PrecisionExhausted, match="from the default 8g"):
        _resolve_precision(None, None, 126)
    assert _resolve_precision(None, None, 125) == 1024
    big = write_curve(tmp_path, {"p": ["1"] + ["0"] * 252 + ["1"]},
                      name="g126.json")
    assert main(["info", "--curve", big]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "periodjet: PrecisionExhausted: precision 1032 from the default "
        "8g + 24 is above the ceiling MAX_PRECISION = %d\n" % MAX_PRECISION)


def test_curve_above_the_ceiling_is_refused_before_the_squarefree_test(
        tmp_path, capsys):
    # x^513 is not squarefree: a test on it would exit 2 after O(deg^2)
    # work; the genus 256 > MAX_GENUS is refused first
    assert MAX_GENUS == 255
    big = write_curve(tmp_path, {"p": ["0"] * 513 + ["1"]}, name="g256.json")
    for argv in (["info", "--curve", big, "--precision", "40"],
                 ["check", "--curve", big]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "periodjet: PrecisionExhausted: a genus-256 curve needs precision "
            "at least 4g+4 = 1028, above the ceiling MAX_PRECISION = %d\n"
            % MAX_PRECISION)
    at_limit = write_curve(tmp_path, {"p": ["0"] * 511 + ["1"]},
                           name="g255.json")
    assert main(["info", "--curve", at_limit]) == 2  # reaches that test
    assert "squarefree" in capsys.readouterr().err


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


CURVE_CHECK_NAMES = (
    "curve-expansion", "serre-duality", "first-differential-vanishing",
    "second-order-route-equivalence", "commutator-sign",
    "second-rep-consistency", "higher-order-routes", "fixture-regressions")
GLOBAL_ROWS = [(None, "lie-homomorphism", "pass"),
               (None, "sp-witness", "pass"),
               (None, "pair-action-embedding", "pass")]
WINDOW_ERROR = ("error: UnreducibleExponent: H^1(O) reduction hit pole "
                "order 11, beyond the basis window 10 at this precision")


def check_report(capsys, argv):
    """Exit code, rows as (curve, name, status), and the failed check of a
    check run; the timings are dropped."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert set(report) == {"command", "checks", "failed"}
    assert report["command"] == "check"
    for row in report["checks"]:
        assert set(row) == {"curve", "name", "status", "seconds"}
    rows = [(row["curve"], row["name"], row["status"])
            for row in report["checks"]]
    return code, rows, report["failed"]


def test_check_report_is_pinned_on_the_fixtures(capsys):
    code, rows, failed = check_report(capsys, ["check"])
    assert (code, failed) == (0, None)
    assert rows == GLOBAL_ROWS + [
        (label, name, "pass") for label in ("x^5 + 1", "x^7 - x + 1")
        for name in CURVE_CHECK_NAMES]


def test_check_error_rows_are_pinned(tmp_path, capsys):
    code, rows, failed = check_report(
        capsys, ["check", "--curve", write_curve(tmp_path),
                 "--precision", "12"])
    assert (code, failed) == (3, "curve-expansion")
    statuses = [
        "error: PrecisionExhausted: residue needs the z^-1 coefficient, "
        "series only known below z^-2",
        "pass", "pass", WINDOW_ERROR, WINDOW_ERROR, WINDOW_ERROR,
        "error: PrecisionExhausted: H^1(O) reduction needs truncation >= 1, "
        "input has -2",
        "pass"]
    assert rows == GLOBAL_ROWS + [
        ("x^5 + 1", name, status)
        for name, status in zip(CURVE_CHECK_NAMES, statuses)]


@pytest.mark.parametrize("precision", ["5000", "13"])
def test_check_precision_flag_applies_to_the_fixtures(capsys, precision):
    # 5000 is above the ceiling; 13 is below the floor 16 of x^7 - x + 1
    assert main(["check", "--precision", precision]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if precision == "5000":
        assert err == (
            "periodjet: PrecisionExhausted: precision 5000 from --precision "
            "is above the ceiling MAX_PRECISION = %d\n" % MAX_PRECISION)


def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["info", "--curve", write_curve(tmp_path),
                 "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("periodjet: ") and str(target) in err
    assert not target.parent.exists()


def test_check_detects_tampered_expectations(monkeypatch):
    exp = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]), 40)
    tampered = copy.deepcopy(EXPECTED_REGRESSIONS)
    key = ("1/1", "0/1", "0/1", "0/1", "0/1", "1/1")
    tampered[key]["duality_det"] = "5/1"
    monkeypatch.setattr(periodjet.cli, "EXPECTED_REGRESSIONS", tampered)
    report, code = run_checks([exp])
    assert code == 1
    assert report["failed"] == "fixture-regressions"
    statuses = {row["name"]: row["status"] for row in report["checks"]}
    assert statuses["fixture-regressions"].startswith("fail:")


def without_seconds(report):
    report = copy.deepcopy(report)
    for row in report["checks"]:
        del row["seconds"]
    return report


def run_on_workers(monkeypatch, capsys, workers, call):
    """call() with the checks dealt over the given number of workers;
    returns its outcome with the timings dropped, the captured stdout and
    stderr, and the number of processes forked. No child may be left."""
    monkeypatch.setattr(periodjet.cli, "_usable_cpus", lambda: workers)
    forked, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    outcome = call()
    out, err = capsys.readouterr()
    if out:
        out = without_seconds(json.loads(out))
    if isinstance(outcome, tuple):  # run_checks: (report, code)
        outcome = (without_seconds(outcome[0]), outcome[1])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return (outcome, out, err), len(forked)


def children(workers):
    """The processes forked for a number of workers: none for one, else a
    child per worker, while this process claims only what they leave."""
    return workers if workers > 1 else 0


def assert_workers_agree(monkeypatch, capsys, call):
    """One worker forks nothing, and two or three give its outcome."""
    serial, forks = run_on_workers(monkeypatch, capsys, 1, call)
    assert forks == 0
    for workers in (2, 3):
        assert run_on_workers(monkeypatch, capsys, workers, call) == \
            (serial, children(workers))
    return serial


def e5_expansion():
    return expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]), 40)


def test_forked_check_report_equals_serial_on_the_fixtures(
        monkeypatch, capsys):
    (code, out, err) = assert_workers_agree(
        monkeypatch, capsys, lambda: main(["check"]))
    assert (code, err, out["failed"]) == (0, "", None)


def test_forked_check_report_equals_serial_on_error_rows(
        tmp_path, monkeypatch, capsys):
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "12"]
    (code, out, err) = assert_workers_agree(
        monkeypatch, capsys, lambda: main(argv))
    assert (code, err, out["failed"]) == (3, "", "curve-expansion")


def test_forked_check_report_equals_serial_on_tampered_expectations(
        monkeypatch, capsys):
    tampered = copy.deepcopy(EXPECTED_REGRESSIONS)
    tampered[("1/1", "0/1", "0/1", "0/1", "0/1", "1/1")]["gaps_O"] = [1, 2]
    monkeypatch.setattr(periodjet.cli, "EXPECTED_REGRESSIONS", tampered)
    exp = e5_expansion()
    ((report, code), out, err) = assert_workers_agree(
        monkeypatch, capsys, lambda: run_checks([exp]))
    assert (code, report["failed"], out, err) == \
        (1, "fixture-regressions", "", "")


def raising(exception):
    def check(*args):
        raise exception
    return check


def patch_rows(monkeypatch, failures):
    """Replace the checks at the given task indices of a one-curve run
    (3 global rows, then the curve's) by ones that raise."""
    global_checks, curve_checks = list(GLOBAL_CHECKS), list(CURVE_CHECKS)
    for i, exception in failures.items():
        checks, j = ((global_checks, i) if i < len(global_checks)
                     else (curve_checks, i - len(global_checks)))
        checks[j] = (checks[j][0], raising(exception))
    monkeypatch.setattr(periodjet.cli, "GLOBAL_CHECKS", global_checks)
    monkeypatch.setattr(periodjet.cli, "CURVE_CHECKS", curve_checks)


# task indices of a one-curve run: a global row, and a curve row after it
EARLY_ROW, LATER_ROW = 1, 7


def test_task_indices_of_the_failure_cases():
    assert EARLY_ROW < len(GLOBAL_CHECKS) <= LATER_ROW < \
        len(GLOBAL_CHECKS) + len(CURVE_CHECKS)
    # check makes 3 + 8 tasks per curve, at most 19 on the two fixtures,
    # and every index fits the queue before the first fork
    tasks = len(GLOBAL_CHECKS) + 2 * len(CURVE_CHECKS)
    assert tasks == 19 <= periodjet.cli.MAX_QUEUED_TASKS
    r, w = os.pipe()
    os.write(w, b"".join(i.to_bytes(2, "big") for i in range(tasks)))
    os.close(w)
    try:
        assert list(periodjet.cli._claims(r)) == list(range(tasks))
    finally:
        os.close(r)


def test_first_failing_row_is_chosen_by_task_order(monkeypatch, capsys):
    patch_rows(monkeypatch, {EARLY_ROW: CheckFailure("early row"),
                             LATER_ROW: CheckFailure("later row")})
    exp = e5_expansion()
    ((report, code), _, _) = assert_workers_agree(
        monkeypatch, capsys, lambda: run_checks([exp]))
    assert (code, report["failed"]) == (1, "sp-witness")
    statuses = [row["status"] for row in report["checks"]]
    assert statuses[EARLY_ROW] == "fail: early row"
    assert statuses[LATER_ROW] == "fail: later row"


@pytest.mark.parametrize("first, later", [(EARLY_ROW, LATER_ROW),
                                          (0, EARLY_ROW)])
def test_forked_internal_error_is_the_serial_one(tmp_path, monkeypatch,
                                                 capsys, first, later):
    patch_rows(monkeypatch, {first: RuntimeError("first\nerror"),
                             later: RuntimeError("later error")})
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "40"]
    (code, out, err) = assert_workers_agree(
        monkeypatch, capsys, lambda: main(argv))
    assert (code, out) == (5, "")
    assert err == "periodjet: internal error: RuntimeError: first error\n"


def test_failed_fork_runs_the_checks_here(tmp_path, monkeypatch, capsys):
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "40"]
    serial, _ = run_on_workers(monkeypatch, capsys, 1, lambda: main(argv))

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_on_workers(monkeypatch, capsys, 2, lambda: main(argv)) == \
        (serial, 0)
    assert serial[0] == 0


def record(log, index):
    """Append this process's pid and index to the file log, in one
    write to a file opened for appending, which other processes do not
    split."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, b"%d %d\n" % (os.getpid(), index))
    finally:
        os.close(fd)


def log_rows(monkeypatch, log, replace=None):
    """Make each check of a run on at most one curve, or replace[i] in
    its place, record (pid, its task index i) in the file log before it
    runs; and make this process record (pid, -1) once its own claims
    end, before it reads its children. Returns a function that reads
    the log of one run and removes it: (claimed, reruns), the (pid,
    index) of every row run while the workers claimed, and the indices
    this process ran after its claims ended, in the order run."""
    replace = replace or {}

    def logged(i, check):
        def run(*args):
            record(log, i)
            return check(*args)
        return run

    n = len(GLOBAL_CHECKS)
    checks = [(name, logged(i, replace.get(i, fn))) for i, (name, fn)
              in enumerate(GLOBAL_CHECKS + CURVE_CHECKS)]
    monkeypatch.setattr(periodjet.cli, "GLOBAL_CHECKS", checks[:n])
    monkeypatch.setattr(periodjet.cli, "CURVE_CHECKS", checks[n:])
    here, claim = os.getpid(), periodjet.cli._claim

    def claim_then_mark(*args):
        done = claim(*args)
        if os.getpid() == here:
            record(log, -1)
        return done

    monkeypatch.setattr(periodjet.cli, "_claim", claim_then_mark)

    def read():
        with open(log) as fh:
            entries = [tuple(map(int, line.split())) for line in fh]
        os.remove(log)
        end = entries.index((here, -1))
        after = entries[end + 1:]
        return (entries[:end] + [e for e in after if e[0] != here],
                [i for pid, i in after if pid == here])
    return read


def test_every_row_is_claimed_once_across_the_workers(
        tmp_path, monkeypatch, capsys):
    # each index is delivered exactly once, by whichever worker claimed
    # it, and no row runs again here. With children, they claim every
    # row, so what this process runs does not depend on their timing
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "40"]
    serial, _ = run_on_workers(monkeypatch, capsys, 1, lambda: main(argv))
    read = log_rows(monkeypatch, str(tmp_path / "rows.log"))
    for workers in (1, 2, 3):
        assert run_on_workers(monkeypatch, capsys, workers,
                              lambda: main(argv)) == \
            (serial, children(workers))
        claimed, reruns = read()
        assert sorted(i for _, i in claimed) == list(range(11))
        assert reruns == []
        if workers == 1:
            assert claimed == [(os.getpid(), i) for i in range(11)]
        else:
            assert os.getpid() not in {pid for pid, _ in claimed}
    assert serial[0] == 0


def raises_on_its_first_call(marker, check):
    """check, but its first call in any process creates the file marker
    and raises instead."""
    def run(*args):
        try:
            os.close(os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return check(*args)
        raise RuntimeError("first call")
    return run


def test_a_row_that_raised_in_this_process_runs_again_here(
        tmp_path, monkeypatch, capsys):
    # the row raises only on its first call, wherever it is claimed: its
    # second run, here, gives the row, so the report is the serial one.
    # The worker that raised claims no more; what is left runs here in
    # task order
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "40"]
    serial, _ = run_on_workers(monkeypatch, capsys, 1, lambda: main(argv))
    marker = tmp_path / "raised"
    check = (GLOBAL_CHECKS + CURVE_CHECKS)[LATER_ROW][1]
    read = log_rows(monkeypatch, str(tmp_path / "rows.log"),
                    {LATER_ROW: raises_on_its_first_call(str(marker), check)})
    for workers in (1, 2, 3):
        assert run_on_workers(monkeypatch, capsys, workers,
                              lambda: main(argv)) == \
            (serial, children(workers))
        marker.unlink()
        claimed, reruns = read()
        ran = [i for _, i in claimed]
        assert ran.count(LATER_ROW) == 1
        assert reruns == sorted(reruns) and LATER_ROW in reruns
        assert sorted(ran + reruns) == sorted(list(range(11)) + [LATER_ROW])
        if workers == 1:
            assert reruns == list(range(LATER_ROW, 11))
    assert serial[0] == 0


def test_failed_fork_with_a_raising_row_gives_the_serial_error(
        tmp_path, monkeypatch, capsys):
    # with no child, this process claims the rows from the queue, so the
    # row that raised runs a second time here, as in a serial run
    read = log_rows(monkeypatch, str(tmp_path / "rows.log"),
                    {EARLY_ROW: raising(RuntimeError("early\nrow"))})
    argv = ["check", "--curve", write_curve(tmp_path), "--precision", "40"]
    serial, _ = run_on_workers(monkeypatch, capsys, 1, lambda: main(argv))
    serial_log = read()

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_on_workers(monkeypatch, capsys, 2, lambda: main(argv)) == \
        (serial, 0)
    assert serial == (5, "", "periodjet: internal error: RuntimeError: "
                             "early row\n")
    assert read() == serial_log == (
        [(os.getpid(), i) for i in range(EARLY_ROW + 1)], [EARLY_ROW])


def waits_for_another_worker(log, check):
    """check, run once the file log holds a row of another process, or
    after 10 s."""
    def run(*args):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with open(log) as fh:
                if any(int(line.split()[0]) != os.getpid() for line in fh):
                    break
            time.sleep(0.005)
        return check(*args)
    return run


def test_rows_a_child_delivers_are_not_run_again_here(
        tmp_path, monkeypatch, capsys):
    # each global row waits until another worker has claimed one, so both
    # children deliver rows
    log = str(tmp_path / "rows.log")
    serial, _ = run_on_workers(monkeypatch, capsys, 1,
                               lambda: run_checks([]))
    read = log_rows(monkeypatch, log, {
        i: waits_for_another_worker(log, fn)
        for i, (_, fn) in enumerate(GLOBAL_CHECKS)})
    (outcome, forks) = run_on_workers(monkeypatch, capsys, 2,
                                      lambda: run_checks([]))
    ((report, code), _, _) = outcome
    assert (outcome, forks, code, report["failed"]) == (serial, 2, 0, None)
    claimed, reruns = read()
    assert sorted(i for _, i in claimed) == [0, 1, 2]
    assert len({pid for pid, _ in claimed}) == 2
    assert os.getpid() not in {pid for pid, _ in claimed}
    assert reruns == []


def test_a_task_list_longer_than_the_queue_runs_serially(
        monkeypatch, capsys):
    monkeypatch.setattr(periodjet.cli, "MAX_QUEUED_TASKS", 2)
    serial, _ = run_on_workers(monkeypatch, capsys, 1,
                               lambda: run_checks([]))
    assert run_on_workers(monkeypatch, capsys, 2, lambda: run_checks([])) \
        == (serial, 0)


def test_nothing_is_forked_while_threads_run(monkeypatch, capsys):
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        (_, _, _), forks = run_on_workers(monkeypatch, capsys, 2,
                                          lambda: run_checks([]))
    finally:
        stop.set()
        waiter.join()
    assert forks == 0


def test_poly_label():
    assert poly_label(HyperellipticCurve([1, 0, 0, 0, 0, 1])) == "x^5 + 1"
    assert poly_label(HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1])) == \
        "x^7 - x + 1"
