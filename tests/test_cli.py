# tests/test_cli.py
import json
import math
import subprocess
import sys

import pytest

from fiblti.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fib(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


# ---------------------------------------------------------
# gen
# ---------------------------------------------------------
def test_gen_emits_bare_values(capsys):
    code, out, err = run_cli(capsys, "gen", "--count", "11")
    assert code == 0 and err == ""
    assert out == "\n".join(str(v) for v in fib(11)) + "\n"


def test_gen_engines_agree(capsys):
    outputs = set()
    for engine in ("recursive", "binet", "doubling"):
        code, out, _ = run_cli(capsys, "gen", "--engine", engine, "--count", "40")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_gen_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "--count", "4", "--format", "csv")
    assert code == 0
    assert out == "0,0\n1,1\n2,1\n3,2\n"
    code, out, _ = run_cli(capsys, "gen", "--count", "4", "--format", "json")
    assert json.loads(out) == {"start": 0, "values": [0, 1, 1, 2]}


def test_gen_negative_start_needs_the_closed_form_engine(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--engine", "binet", "--start", "-5", "--count", "10",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[:5] == ["-5,5", "-4,-3", "-3,2", "-2,-1", "-1,1"]
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--engine", "doubling", "--start", "-5", "--count", "10"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fiblti gen ")


def test_gen_rejects_empty_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fiblti gen ")


# ---------------------------------------------------------
# analyze
# ---------------------------------------------------------
def test_analyze_reports_poles_rocs_and_residues(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--den", "1,-1,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert [p["value"] for p in payload["poles"]] == [
        "1/2-1/2*sqrt(5)",
        "1/2+1/2*sqrt(5)",
    ]
    assert [(r["causal"], r["stable"]) for r in payload["rocs"]] == [
        (False, False),
        (False, True),
        (True, False),
    ]
    assert payload["rocs"][2]["r_out"] is None
    assert [t["coefficient"] for t in payload["terms"]] == [
        "1/2-1/10*sqrt(5)",
        "1/2+1/10*sqrt(5)",
    ]
    assert payload["poly_part"] == []


def test_analyze_numeric_fallback_marks_inexact(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--den", "1,-13/12,3/8,-1/24")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert all(p["value"] is None for p in payload["poles"])
    mods = sorted(abs(complex(p["re"], p["im"])) for p in payload["poles"])
    assert mods == pytest.approx([0.25, 1 / 3, 0.5], abs=1e-9)


# ---------------------------------------------------------
# impz
# ---------------------------------------------------------
def test_impz_causal_window(capsys):
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--from", "0", "--to", "10"
    )
    assert code == 0
    ref = fib(13)
    assert out == "".join(f"{n},{ref[n + 1]}\n" for n in range(11))


def test_impz_anticausal_window(capsys):
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--roc", "anticausal",
        "--from", "-11", "--to", "0",
    )
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()]
    assert values == ["55", "-34", "21", "-13", "8", "-5", "3", "-2", "1", "-1", "0", "0"]


def test_impz_two_sided_window(capsys):
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--roc", "two-sided",
        "--from", "0", "--to", "0",
    )
    assert code == 0
    assert out == "0,1/2-1/10*sqrt(5)\n"


def test_impz_roc_by_index(capsys):
    _, by_name, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--roc", "causal", "--from", "0", "--to", "5"
    )
    _, by_index, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--roc", "2", "--from", "0", "--to", "5"
    )
    assert by_name == by_index


def test_impz_json_window(capsys):
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--from", "0", "--to", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload == {"n0": 0, "n1": 3, "exact": True, "values": ["1", "1", "2", "3"]}


def test_impz_inexact_window_is_marked(capsys):
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-13/12,3/8,-1/24", "--from", "0", "--to", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# inexact")
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-13/12,3/8,-1/24", "--from", "0", "--to", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["exact"] is False
    assert isinstance(payload["values"][0], float)


def test_impz_rejects_bad_roc_selector(capsys):
    for roc in ("sideways", "7"):
        with pytest.raises(SystemExit) as exc:
            main(["impz", "--den", "1,-1,-1", "--roc", roc, "--from", "0", "--to", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fiblti impz ")


def test_impz_rejects_reversed_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["impz", "--den", "1,-1,-1", "--from", "3", "--to", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fiblti impz ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    # The complex pole pair of modulus about 2.06 passes 1e308 near n = 1000.
    ["--den", "1,-3/2,9/2,-2", "--from", "1020", "--to", "1030"],
    # pole**n stays finite; the numerator's factor 1000 takes the sum past it.
    ["--num", "1000", "--den", "1,-1,-1,-1", "--from", "1160", "--to", "1164"],
])
def test_impz_numeric_window_out_of_float_range_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, "impz", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "inf" not in err and "nan" not in err
    assert f"numeric window [{argv[-3]}, {argv[-1]}] leaves float range" in err


# ---------------------------------------------------------
# freqz
# ---------------------------------------------------------
def test_freqz_csv(capsys):
    code, out, _ = run_cli(
        capsys, "freqz", "--den", "1,-1,-1", "--points", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega,magnitude,phase"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[0]) == pytest.approx(math.pi / 2)
    assert float(mid[1]) == pytest.approx(1 / math.sqrt(5), abs=1e-12)


def test_freqz_features(capsys):
    code, out, _ = run_cli(
        capsys, "freqz", "--den", "1,-1,-1", "--points", "513", "--features"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grid_min_omega"] == pytest.approx(math.pi / 2, abs=1e-15)
    assert payload["grid_min_magnitude"] == pytest.approx(1 / math.sqrt(5), abs=1e-12)
    assert payload["law_half_power_omegas"] == pytest.approx([math.pi / 6, 5 * math.pi / 6])
    assert payload["max_abs_error_vs_law"] <= 1e-12


def test_freqz_singular_point_in_json_is_null(capsys):
    code, out, _ = run_cli(
        capsys, "freqz", "--den", "1,-1", "--points", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["magnitude"][0] is None
    assert payload["phase"][0] is None
    assert payload["magnitude"][1] is not None


# ---------------------------------------------------------
# respond
# ---------------------------------------------------------
def test_respond_reads_a_signal_file(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("# impulse pair with a gap\n0,1\n3,1/2\n")
    code, out, _ = run_cli(capsys, "respond", "--input", str(path), "--to", "6")
    assert code == 0
    # y(n) = f(n+1) + (1/2) f(n-2) for n >= 3.
    assert out.splitlines() == [
        "0,1", "1,1", "2,2", "3,7/2", "4,11/2", "5,9", "6,29/2",
    ]


def test_respond_rejects_duplicate_indices(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("0,1\n0,2\n")
    code, out, err = run_cli(capsys, "respond", "--input", str(path), "--to", "3")
    assert code == 1
    assert "duplicate" in err


def test_respond_rejects_missing_file(capsys):
    code, out, err = run_cli(capsys, "respond", "--input", "/nonexistent", "--to", "3")
    assert code == 1
    assert err.startswith("error:")


def test_respond_rejects_malformed_lines(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("0;1\n")
    code, _, err = run_cli(capsys, "respond", "--input", str(path), "--to", "3")
    assert code == 1
    assert "expected" in err


def test_respond_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("# nothing\n")
    code, _, err = run_cli(capsys, "respond", "--input", str(path), "--to", "3")
    assert code == 1


# ---------------------------------------------------------
# step, minphase, cascade
# ---------------------------------------------------------
def test_step_listing(capsys):
    code, out, _ = run_cli(capsys, "step", "--to", "8")
    assert code == 0
    values = [int(line.split(",")[1]) for line in out.splitlines()]
    assert values == [1, 2, 4, 7, 12, 20, 33, 54, 88]


def test_minphase_values(capsys):
    code, out, _ = run_cli(capsys, "minphase", "--to", "3")
    assert code == 0
    assert out.splitlines() == [
        "0,0",
        "1,1/2-1/2*sqrt(5)",
        "2,-3+1*sqrt(5)",
        "3,6-3*sqrt(5)",
    ]


def test_cascade_system_payload(capsys):
    code, out, _ = run_cli(
        capsys, "cascade", "--den-a", "1,-1,-1", "--den-b", "1,-1,-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["den"] == ["1", "-2", "-1", "2", "1"]
    assert payload["exact"] is True
    assert [p["multiplicity"] for p in payload["poles"]] == [2, 2]


def test_cascade_impulse_window(capsys):
    code, out, _ = run_cli(
        capsys, "cascade", "--den-a", "1,-1,-1", "--den-b", "1,-1,-1",
        "--impz", "0", "9",
    )
    assert code == 0
    values = [int(line.split(",")[1]) for line in out.splitlines()]
    assert values == [1, 2, 5, 10, 20, 38, 71, 130, 235, 420]


# ---------------------------------------------------------
# props
# ---------------------------------------------------------
def test_props_table(capsys):
    code, out, _ = run_cli(capsys, "props", "--nmax", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["identity", "checked", "passed", "first_failure"]
    assert len(lines) == 5
    for line in lines[1:]:
        name, checked, passed, failure = line.split()
        assert checked == "50" and passed == "50" and failure == "-"


def test_props_json_with_ratio_and_forms(capsys):
    code, out, _ = run_cli(
        capsys, "props", "--nmax", "30", "--ratio-tol", "1e-3", "--forms", "20",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio_first_index"] == 9
    assert all(payload["closed_forms"].values())
    assert all(
        c["passed"] == 30 and c["first_failure"] is None
        for c in payload["identities"].values()
    )


def test_props_ratio_text_line(capsys):
    code, out, _ = run_cli(capsys, "props", "--nmax", "30", "--ratio-tol", "1e-3")
    assert code == 0
    assert out.splitlines()[-1].endswith("n = 9")


# ---------------------------------------------------------
# Shared behaviour
# ---------------------------------------------------------
def test_out_flag_writes_the_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "listing.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--count", "5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "0\n1\n1\n2\n3\n"


def test_output_is_deterministic(capsys):
    runs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "analyze", "--den", "1,-1,-1")
        runs.add(out)
        _, out, _ = run_cli(capsys, "freqz", "--den", "1,-1,-1", "--points", "64")
        runs.add(out)
    assert len(runs) == 2


def test_computation_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "impz", "--den", "0", "--from", "0", "--to", "3")
    assert code == 1
    assert "zero polynomial" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv in (
        ["impz", "--den", "1,x", "--from", "0", "--to", "3"],
        ["props", "--nmax", "10", "--ratio-tol", "abc"],
        ["props", "--nmax", "10", "--ratio-tol", "0"],
        ["props", "--nmax", "10", "--forms", "-1"],
        ["props", "--nmax", "0"],
        ["gen", "--count", "0"],
        ["impz", "--den", "1,-1,-1", "--from", "3", "--to", "0"],
        ["impz", "--den", "1,-1,-1", "--roc", "sideways", "--from", "0", "--to", "3"],
        ["cascade", "--den-a", "1,-1", "--den-b", "1,-1", "--impz", "3", "0"],
        ["freqz", "--den", "1,-1", "--points", "1"],
        ["step", "--to", "-1"],
        ["minphase", "--to", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: fiblti {argv[0]} ")


@pytest.mark.parametrize("module", ["fiblti", "fiblti.cli"])
def test_module_entry_point_runs_as_a_process(module):
    result = subprocess.run(
        [sys.executable, "-m", module, "gen", "--count", "11"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "55"
