import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defectus
from defectus import BoundInputs, derive
from defectus.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_subcommand(capsys):
    code, out, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                          "--d", "2,2", "--q", "101")
    assert code == 0 and not err
    blob = json.loads(out)
    assert blob["prob_B1"] == {"num": 32768, "den": 1030301,
                               "decimal": "3.18043e-02"}
    assert blob["C1"] == [12, 12]


def test_bounds_out_file(tmp_path, capsys):
    target = tmp_path / "bounds.json"
    code, out, _ = _run(capsys, "bounds", "--r", "3", "--s", "2",
                        "--d", "2,2", "--q", "7", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["delta"] == 4


def test_classify_subcommand(tmp_path, capsys):
    system = {
        "polys": [
            {"nvars": 3, "terms": [{"exp": [1, 0, 0], "c": 1}]},
            {"nvars": 3, "terms": [{"exp": [0, 1, 0], "c": 1}]},
        ],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out, _ = _run(capsys, "classify", "--q", "7", "--r", "3",
                        "--s", "2", "--d", "1,1", "--system", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["ideal_theoretic_ci"] is True
    assert blob["irreducibility"] == "CertifiedIrreducible"


def test_classify_flag_mismatch(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "r": 4,
        "polys": [
            {"nvars": 3, "terms": []},
            {"nvars": 3, "terms": []},
        ],
    }))
    code, _, err = _run(capsys, "classify", "--q", "7", "--r", "3",
                        "--s", "2", "--d", "1,1", "--system", str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["{not json", "5", '{"polys": 5}'],
                         ids=["not-json", "scalar", "polys-scalar"])
def test_classify_malformed_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = _run(capsys, "classify", "--q", "7", "--r", "3",
                        "--s", "2", "--d", "1,1", "--system", str(path))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1


def test_unwritable_out_is_a_validation_error(tmp_path, capsys):
    target = tmp_path / "missing" / "bounds.json"
    code, out, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                          "--d", "2,2", "--q", "7", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unwritable_csv_fails_before_the_census(tmp_path, capsys,
                                                monkeypatch):
    import defectus.cli as climod

    def unrun(*args, **kwargs):
        raise AssertionError("census ran before its CSV was opened")

    monkeypatch.setattr(climod, "run_census", unrun)
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = _run(capsys, "census", "--q", "2", "--r", "3",
                          "--s", "2", "--d", "1,1", "--threads", "1",
                          "--dump-csv", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2000"], ["census"]], ids=["sample", "census"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                             argv):
    import defectus.cli as climod

    def unrun(*args, **kwargs):
        raise AssertionError("ran before --out was opened")

    monkeypatch.setattr(climod, "run_census", unrun)
    monkeypatch.setattr(climod, "run_monte_carlo", unrun)
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(capsys, *argv, "--q", "2", "--r", "3", "--s", "2",
                          "--d", "2,1", "--threads", "2",
                          "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# opens for writing, then refuses every write with ENOSPC
FULL = "/dev/full"
needs_full = pytest.mark.skipif(not os.path.exists(FULL),
                                reason="no /dev/full on this system")


@needs_full
@pytest.mark.parametrize("flag,argv", [
    ("--out", ["bounds", "--q", "101", "--d", "2,2"]),
    ("--dump-csv", ["census", "--q", "2", "--d", "1,1", "--threads", "1"]),
], ids=["out", "dump-csv"])
def test_full_output_is_a_validation_error(capsys, flag, argv):
    code, out, err = _run(capsys, *argv, "--r", "3", "--s", "2", flag, FULL)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file")
    assert err.count("\n") == 1


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--r", "3", "--s", "2", "--d", "2,2", "--q", "7",
              "--frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_q_diagnostic(capsys):
    code, _, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                        "--d", "2,2", "--q", "6")
    assert code == 2 and err.startswith("error:")


def test_huge_q(capsys):
    # 3^700 is past the float range, and neither it nor (2^61 - 1)^32
    # is a field that is built; 6^464 (1200 bits) is no prime power
    for q in (3 ** 700, (2 ** 61 - 1) ** 32):
        code, out, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                              "--d", "2,2", "--q", str(q))
        assert code == 0 and not err and '"applicable": true' in out
    code, out, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                          "--d", "2,2", "--q", str(6 ** 464))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _cli(*argv, timeout=60, stdout=subprocess.PIPE):
    """Run the CLI in a subprocess: a regression fails the test by its
    timeout instead of hanging the suite.  (exit code, stdout, stderr),
    stdout None where the caller gave its own."""
    src = str(Path(defectus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "defectus.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


@needs_full
def test_full_stdout_is_a_validation_error():
    # the report is flushed inside main, so the failure is handled there
    # and does not resurface when the interpreter flushes at exit
    with open(FULL, "w") as sink:
        code, _, err = _cli("bounds", "--r", "3", "--s", "2", "--d", "2,2",
                            "--q", "101", stdout=sink)
    assert code == 2
    assert err.startswith("error: cannot write output file")
    assert err.count("\n") == 1


def test_huge_q_with_a_small_factor_is_refused_at_once():
    # 6^6000 (4669 digits): the factor 2 settles it; the message names
    # q by its size, past the interpreter's int-to-str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        q = str(6 ** 6000)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = _cli("bounds", "--r", "3", "--s", "2", "--d", "2,2",
                          "--q", q)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "not a prime power" in err
    assert err.startswith("error:") and len(err) < 200


@pytest.mark.parametrize("command", ["sample", "census", "classify"])
def test_field_too_large_to_build_is_refused(tmp_path, command):
    # F_{3^700}, past the degree bound, and F_{(2^61 - 1)^32}, of degree
    # 32 but 1952 bits, past the bit bound (its modulus search took over
    # 5 s): one budget line before the search, in every subcommand that
    # builds the field
    system = tmp_path / "system.json"
    system.write_text('{"polys": []}')
    extra = {"sample": ["--n", "1", "--threads", "1"],
             "census": ["--threads", "1"],
             "classify": ["--system", str(system)]}[command]
    for q in (3 ** 700, (2 ** 61 - 1) ** 32):
        code, out, err = _cli(command, "--q", str(q), "--r", "3", "--s",
                              "2", "--d", "2,2", *extra, timeout=5)
        assert code == 3 and out == ""
        assert err.startswith("budget:") and err.count("\n") == 1


def _reference_decimal(frac):
    # six significant digits through the decimal module, digit limit lifted
    from decimal import ROUND_HALF_UP, Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 60, ROUND_HALF_UP
        return f"{Decimal(frac['num']) / Decimal(frac['den']):.5e}"


@pytest.mark.parametrize("exponent", [4000, 9100])
def test_q_past_the_digit_limit(capsys, exponent):
    # 3^4000 has 1909 digits, but prob_B1's denominator q^4 runs past the
    # int-to-str limit; 3^9100 (4342 digits) runs past it itself
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    q = str(3 ** exponent)
    sys.set_int_max_str_digits(limit)
    code, out, err = _run(capsys, "bounds", "--r", "3", "--s", "2",
                          "--d", "2,2", "--q", q)
    assert code == 0 and not err
    sys.set_int_max_str_digits(0)
    try:
        blob = json.loads(out)
        assert str(blob["inputs"]["q"]) == q
        for name in ("prob_B1", "prob_B2"):
            assert blob[name]["decimal"] == _reference_decimal(blob[name])
    finally:
        sys.set_int_max_str_digits(limit)


def test_k_flag_validation(capsys):
    code, _, err = _run(capsys, "census", "--q", "4", "--r", "3", "--s", "2",
                        "--d", "1,1", "--k", "3", "--threads", "1")
    assert code == 2 and "inconsistent" in err


def test_census_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "dump.csv"
    code, out, _ = _run(capsys, "census", "--q", "2", "--r", "3", "--s", "2",
                        "--d", "1,1", "--threads", "2", "--no-meta",
                        "--dump-csv", str(csv_path))
    assert code == 0
    blob = json.loads(out)
    assert blob["counts"]["in_B1"] == 88
    assert "meta" not in blob
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 257  # header plus one row per system
    assert lines[0].startswith("index,")


def test_census_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DEFECTUS_BUDGET", "100")
    code, _, err = _run(capsys, "census", "--q", "2", "--r", "3", "--s", "2",
                        "--d", "1,1", "--threads", "1")
    assert code == 3
    assert err.startswith("budget:") and err.count("\n") == 1


def test_sample_threads_byte_stability(capsys):
    args = ["sample", "--q", "7", "--r", "3", "--s", "2", "--d", "2,2",
            "--n", "40", "--seed", "9", "--no-meta"]
    code1, out1, _ = _run(capsys, *args, "--threads", "1")
    code2, out2, _ = _run(capsys, *args, "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_vacuous_run(capsys):
    code, out, _ = _run(capsys, "sample", "--q", "2", "--r", "3", "--s", "2",
                        "--d", "2,2", "--n", "25", "--seed", "0",
                        "--threads", "2", "--no-meta")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict_B1"] == "VACUOUS_PASS"
    assert blob["verdict_B2"] == "VACUOUS_PASS"
    assert blob["bounds"]["vacuous_B1"] is True


def test_selftest(capsys):
    code, out, _ = _run(capsys, "selftest", "--threads", "2")
    assert code == 0
    # the exact list, so that a dropped check fails too
    assert out.splitlines() == [f"ok - {name}" for name in (
        "field axioms (F_7, F_4, F_101^4, F_4^10)",
        "groebner basics",
        "rank test (F_4)",
        "macaulay vanishing",
        "fiber rank test (q=101)",
        "linear census vs rank oracle (q=2)",
        "thread-count determinism",
    )]


def test_census_refusal_names_the_size_as_a_power(capsys):
    # q^dimF has 7431 digits here: the refusal compares exponents and
    # never formats the number itself
    code, out, err = _run(capsys, "census", "--q", "2", "--r", "3",
                          "--s", "2", "--d", "40,40", "--threads", "1")
    assert code == 3 and out == ""
    assert err.startswith("budget:") and err.count("\n") == 1
    assert "2^24682" in err


def test_bounds_prints_exact_counts_whole(capsys):
    code, out, err = _run(capsys, "bounds", "--q", "2", "--r", "3",
                          "--s", "2", "--d", "40,40")
    assert code == 0 and not err
    expected = derive(BoundInputs(3, 2, 2, (40, 40)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        blob = json.loads(out)
        assert len(str(blob["count_B1"])) > limit
    finally:
        sys.set_int_max_str_digits(limit)
    assert blob["count_B1"] == expected.count_B1
    assert blob["count_B2"] == expected.count_B2


def test_bounds_refuses_counts_too_long_to_print(capsys):
    # q^dimF = 2^18733638: refused before any power is formed, where
    # printing the counts whole would run for hours
    code, out, err = _run(capsys, "bounds", "--q", "2", "--r", "6",
                          "--s", "2", "--d", "40,40")
    assert code == 3 and out == ""
    assert err.startswith("budget:") and err.count("\n") == 1
    assert "2^18733638" in err and "2^1048576" in err


def _system_file(tmp_path, exps):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"polys": [
        {"nvars": 3, "terms": [{"exp": e, "c": 1}]} for e in exps]}))
    return str(path)


@pytest.mark.parametrize("exps,caps", [
    ([[32768, 0, 0], [0, 1, 0]], "32768,1"),  # the exponent itself
    ([[1, 0, 0], [0, 1, 0]], "40000,1"),      # homogenization past it
])
def test_classify_packing_limit_is_a_validation_error(tmp_path, capsys,
                                                      exps, caps):
    code, out, err = _run(capsys, "classify", "--q", "7", "--r", "3",
                          "--s", "2", "--d", caps,
                          "--system", _system_file(tmp_path, exps))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "packing limit" in err


def test_threads_below_one_is_a_validation_error(capsys):
    code, _, err = _run(capsys, "sample", "--q", "7", "--r", "3", "--s", "2",
                        "--d", "2,2", "--n", "3", "--threads", "0")
    assert code == 2 and err.startswith("error:")
