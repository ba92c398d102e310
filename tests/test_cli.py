# tests/test_cli.py
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fiblti.cli import main
from fiblti.lti import RationalSystem
from fiblti.response import make_impulse, simulate_difference_equation


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


def test_gen_prints_values_past_the_int_to_str_digit_limit(capsys):
    # F(30000) has 6270 digits, past CPython's default limit of 4300 on
    # int-to-str conversion; main lifts it while it runs and puts it back.
    a, b = 0, 1
    for _ in range(30000):
        a, b = b, a + b
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    text = run_cli(capsys, "gen", "--start", "30000", "--count", "1")
    raw = run_cli(capsys, "gen", "--start", "30000", "--count", "1", "--format", "json")
    assert text[0] == raw[0] == 0 and text[2] == raw[2] == ""
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        digits = str(a)
        payload = json.loads(raw[1])
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(digits) == 6270
    assert text[1] == digits + "\n"
    assert payload == {"start": 30000, "values": [a]}


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


def test_analyze_self_cascade_written_out_has_exact_double_poles(capsys):
    # (1 - z^-1 - z^-2)^2 multiplied out: the square-free split finds the
    # double poles phi and its conjugate before any float runs.
    code, out, _ = run_cli(capsys, "analyze", "--den", "1,-2,-1,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert [(p["value"], p["multiplicity"], p["exact"]) for p in payload["poles"]] == [
        ("1/2-1/2*sqrt(5)", 2, True),
        ("1/2+1/2*sqrt(5)", 2, True),
    ]
    assert [(r["causal"], r["stable"]) for r in payload["rocs"]] == [
        (False, False),
        (False, True),
        (True, False),
    ]


def test_analyze_triple_pole_is_exact(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--den", "1,-3/2,3/4,-1/8")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert [(p["value"], p["multiplicity"]) for p in payload["poles"]] == [("1/2", 3)]
    assert [r["r_in"] for r in payload["rocs"]] == ["0", "1/2"]


def test_analyze_finishes_when_the_square_free_part_is_out_of_reach():
    # The discriminant's numerator times denominator has 152 bits, and its
    # square factor 1000000007^2 lies beyond trial division: numeric poles.
    result = subprocess.run(
        [sys.executable, "-m", "fiblti", "analyze", "--den", "1,1/1000000007,-1/1000000009"],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["exact"] is False and len(payload["poles"]) == 2


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
    # Poles 1/4, 1/3 and 1/2, found numerically.  A one-sided window comes
    # from the recursion and is exact; a two-sided one stays a float pole sum.
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-13/12,3/8,-1/24", "--from", "0", "--to", "3"
    )
    assert code == 0
    assert out == "0,1\n1,13/12\n2,115/144\n3,865/1728\n"
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-13/12,3/8,-1/24", "--roc", "1", "--from", "0", "--to", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# inexact")
    # In 1/4 < |z| < 1/3 only the pole 1/4 reaches n = 0, with residue
    # 1/((1 - 4/3)(1 - 2)) = 3.
    assert float(lines[1].split(",")[1]) == pytest.approx(3.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, "impz", "--den", "1,-13/12,3/8,-1/24", "--roc", "1", "--from", "0", "--to", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["exact"] is False
    assert isinstance(payload["values"][0], float)


def test_impz_agrees_with_respond_on_a_triple_pole(capsys, tmp_path):
    # 1/(1 - z^-1/2)^3: numeric poles, and h(n) = C(n+2, 2)/2^n exactly.
    code, impz, _ = run_cli(
        capsys, "impz", "--den", "1,-3/2,3/4,-1/8", "--from", "0", "--to", "4"
    )
    assert code == 0
    assert impz == "0,1\n1,3/2\n2,3/2\n3,5/4\n4,15/16\n"
    signal = tmp_path / "impulse.csv"
    signal.write_text("0,1\n")
    code, respond, _ = run_cli(
        capsys, "respond", "--den", "1,-3/2,3/4,-1/8", "--input", str(signal), "--to", "4"
    )
    assert code == 0
    assert respond == impz


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
    # Poles 1/2, a complex pair of modulus 2 and 3; in 2 < |z| < 3 the pair is
    # right-sided, and pole**n itself passes 1e308 near n = 1024.
    ["--den", "1,-9/2,9,-31/2,6", "--roc", "2", "--from", "1030", "--to", "1040"],
    # Tribonacci times (1 - 2z^-1): in its region 1.839 < |z| < 2, pole**n
    # stays finite and the numerator's factor 1000 takes the sum past it.
    ["--num", "1000", "--den", "1,-3,1,1,2", "--roc", "2", "--from", "1160", "--to", "1164"],
])
def test_impz_numeric_window_out_of_float_range_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, "impz", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "inf" not in err and "nan" not in err
    assert f"numeric window [{argv[-3]}, {argv[-1]}] leaves float range" in err
    # The causal window of the same system comes from the exact recursion.
    causal = [a for a in argv if a not in ("--roc", "2")]
    code, out, _ = run_cli(capsys, "impz", *causal)
    assert code == 0
    args = dict(zip(causal[::2], causal[1::2]))
    system = RationalSystem(
        [Fraction(c) for c in args.get("--num", "1").split(",")],
        [Fraction(c) for c in args["--den"].split(",")],
    )
    n0, n1 = int(args["--from"]), int(args["--to"])
    want = simulate_difference_equation(system, make_impulse(), n1)
    assert out == "".join(f"{n},{want.value_at(n)}\n" for n in range(n0, n1 + 1))


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


def test_freqz_without_numpy_prints_the_golden_grid(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises ImportError
    code, out, err = run_cli(capsys, "freqz", "--den", "1,-1,-1", "--points", "513")
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / "freqz-513.txt").read_text(encoding="utf-8")


def test_freqz_singular_point_in_json_is_null(capsys):
    code, out, _ = run_cli(
        capsys, "freqz", "--den", "1,-1", "--points", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["magnitude"][0] is None
    assert payload["phase"][0] is None
    assert payload["magnitude"][1] is not None


# Poles on the unit circle at pi (den 1,1) and at pi/2 (den 1,0,1): the grid
# point lands on them exactly, so the magnitude is inf and the phase NaN.
@pytest.mark.parametrize("den, points, index", [("1,1", "3", 2), ("1,0,1", "5", 2)])
def test_freqz_hits_poles_at_pi_and_half_pi(capsys, den, points, index):
    code, out, _ = run_cli(capsys, "freqz", "--den", den, "--points", points)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[index][1:] == ["inf", "nan"]
    assert all(math.isfinite(float(m)) for i, (_, m, _) in enumerate(rows) if i != index)
    code, out, _ = run_cli(capsys, "freqz", "--den", den, "--points", points, "--format", "json")
    payload = json.loads(out)
    assert payload["magnitude"][index] is None and payload["phase"][index] is None
    assert payload["magnitude"].count(None) == 1


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


@pytest.mark.parametrize("line, detail", [
    ("0;1", "expected 'index,value'"),
    ("x,2", "invalid literal for int()"),
    ("2,abc", "Invalid literal for Fraction"),
    ("2,1/0", "Fraction(1, 0)"),
], ids=["separator", "index", "value", "zero-denominator"])
def test_respond_rejects_malformed_lines(tmp_path, capsys, line, detail):
    path = tmp_path / "signal.txt"
    path.write_text(f"# header\n{line}\n")
    code, _, err = run_cli(capsys, "respond", "--input", str(path), "--to", "3")
    assert code == 1
    assert err.startswith(f"error: {path}:2: ")
    assert detail in err


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


def test_out_flag_to_an_unwritable_path_exits_one(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "listing.txt"
    code, out, err = run_cli(
        capsys, "impz", "--den", "1,-1,-1", "--from", "0", "--to", "3", "--out", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2] ")


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
        ["analyze", "--den", "1,,-1"],
        ["analyze", "--den", "1,-1,-1,"],
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


# The test modules import numpy themselves, so each command runs in a fresh
# interpreter that reports afterwards whether numpy was loaded.
_NUMPY_PROBE = """
import json, sys
from fiblti.cli import main
argv = json.loads(sys.argv[1])
code = main(argv) if argv else 0
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv, loads_numpy", [
    ([], False),
    (["gen", "--count", "5"], False),
    (["step", "--to", "8"], False),
    (["minphase", "--to", "5"], False),
    (["props", "--nmax", "20"], False),
    (["impz", "--den", "1,-1,-1", "--from", "0", "--to", "5"], False),
    (["analyze", "--den", "1,-1,-1"], False),
    (["cascade", "--den-a", "1,-1,-1", "--den-b", "1,-1", "--impz", "0", "5"], False),
    (["respond", "--input", "{signal}", "--to", "5"], False),
    (["freqz", "--den", "1,-1,-1", "--points", "9"], False),
    (["freqz", "--den", "1,-1,-1", "--points", "9", "--features"], False),
    (["freqz", "--den", "1,-1", "--points", "9", "--format", "json"], False),
    # Numeric poles (degree >= 3) are found in plain Python.
    (["impz", "--den", "1,-1,-1,-1", "--from", "0", "--to", "5"], False),
    (["analyze", "--den", "1,-1/2,-1/3,1/7"], False),
    (["cascade", "--den-a", "1,-1,-1,-1", "--den-b", "1,-1", "--impz", "0", "5"], False),
    (["respond", "--den", "1,-1,-1,-1", "--input", "{signal}", "--to", "5"], False),
], ids=lambda v: " ".join(v) or "import" if isinstance(v, list) else None)
def test_numpy_is_imported_only_where_used(tmp_path, argv, loads_numpy):
    signal = tmp_path / "signal.txt"
    signal.write_text("0,1\n2,1/2\n")
    argv = [arg.replace("{signal}", str(signal)) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argv)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, loads_numpy]


# ---------------------------------------------------------
# start-up: each command loads only the modules it runs
# ---------------------------------------------------------
_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs in a fresh interpreter: imports the CLI, runs one command if given,
# then prints which watched modules are loaded.
_LOAD_PROBE = """
import json, sys
from fiblti.cli import main
argv = json.loads(sys.argv[1])
code = main(argv) if argv else 0
watched = ("fiblti.qfield", "fiblti.fib", "fiblti.lti", "fiblti.response",
           "dataclasses", "numpy")
print(json.dumps([code, sorted(m for m in watched if m in sys.modules)]))
"""


def _run_in_fresh_interpreter(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_QF, _FIB, _LTI, _RESP = "fiblti.qfield", "fiblti.fib", "fiblti.lti", "fiblti.response"


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["gen", "--count", "3"], [_FIB, _QF]),
    (["props", "--nmax", "5"], [_FIB, _QF]),
    (["impz", "--den", "1,-1,-1", "--from", "0", "--to", "3"], [_LTI, _QF]),
    (["analyze", "--den", "1,-1,-1"], [_LTI, _QF]),
    (["cascade", "--den-a", "1,-1,-1", "--den-b", "1,-1"], [_LTI, _QF]),
    (["step", "--to", "3"], [_LTI, _QF, _RESP]),
    (["minphase", "--to", "3"], [_LTI, _QF, _RESP]),
    (["respond", "--input", "{signal}", "--to", "3"], [_LTI, _QF, _RESP]),
], ids=["import", "gen", "props", "impz", "analyze", "cascade", "step", "minphase", "respond"])
def test_cli_start_up_loads_only_what_the_command_runs(tmp_path, argv, loaded):
    signal = tmp_path / "signal.txt"
    signal.write_text("0,1\n")
    argv = [arg.replace("{signal}", str(signal)) for arg in argv]
    assert _run_in_fresh_interpreter("-c", _LOAD_PROBE, json.dumps(argv)) == [0, loaded]


# The package namespace before lazy loading, names and submodules alike.
_PUBLIC_NAMES = [
    "BandFeatures", "Classification", "ClosedFormReport", "FibValue",
    "FieldMismatchError", "FrequencyGrid", "GOLDEN_RATIO", "GOLDEN_RATIO_CONJUGATE",
    "IdentityCheck", "IdentityReport", "InvalidRocError", "MagnitudeComparison",
    "MalformedSystemError", "PartialFractionExpansion", "PartialFractionTerm", "Pole",
    "Polynomial", "QuadRational", "RationalSystem", "Roc", "SQRT5", "SequenceWindow",
    "Signal", "accumulator_system", "appendix_forms_equal", "cascade",
    "check_identities", "classify", "compare_magnitudes", "convolve", "enumerate_rocs",
    "fib", "fib_binet_exact", "fib_extended", "fib_fast_doubling", "fib_recursive",
    "fibonacci_band_features", "fibonacci_magnitude_law", "fibonacci_system",
    "find_poles", "freq_response", "int_sqrt_exact", "inverse_z", "lti",
    "make_impulse", "make_step", "min_phase_impulse", "min_phase_system",
    "partial_fractions", "poly_mul", "qfield", "ratio_convergence",
    "reciprocal_system", "response", "simulate_difference_equation", "sqrt_exact",
    "square_free_decompose", "step_response_closed_form",
]

_NAMES_PROBE = """
import json, sys
import fiblti
public = lambda names: sorted(n for n in names if not n.startswith("_"))
listed = public(dir(fiblti))
star = {}
exec("from fiblti import *", star)
resolved = {n: getattr(fiblti, n) for n in listed}
modules = all(
    resolved[n] is sys.modules[f"fiblti.{n}"] for n in ("qfield", "fib", "lti", "response")
)
print(json.dumps([listed, public(star), public(dir(fiblti)), modules]))
"""


def test_package_namespace_keeps_every_public_name():
    listed, star, after, modules = _run_in_fresh_interpreter("-c", _NAMES_PROBE)
    assert listed == star == after == _PUBLIC_NAMES
    assert modules
    import fiblti

    assert fiblti.RationalSystem is RationalSystem
    with pytest.raises(AttributeError):
        fiblti.no_such_name
