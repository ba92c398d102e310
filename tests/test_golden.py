# tests/test_golden.py
"""Byte-for-byte CLI output for the README commands, plus an improper system
(numerator degree above the denominator's) whose polynomial part is nonzero.

Each case's stdout is stored under tests/golden/<id>.txt.  Regenerate the
files (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from fiblti.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The README's input file for the `respond` example.
SIGNAL_TEXT = "0,1\n3,1/2\n"

CASES = {
    "gen-binet-11": ["gen", "--engine", "binet", "--count", "11"],
    "gen-start-10": ["gen", "--start", "10", "--count", "3"],
    "impz-causal": ["impz", "--den", "1,-1,-1", "--from", "0", "--to", "10"],
    "impz-anticausal": ["impz", "--den", "1,-1,-1", "--roc", "anticausal", "--from", "-11", "--to", "0"],
    "impz-two-sided": ["impz", "--den", "1,-1,-1", "--roc", "two-sided", "--from", "-3", "--to", "2"],
    "impz-reciprocal": ["impz", "--den", "1,1,-1", "--from", "0", "--to", "9"],
    "step-8": ["step", "--to", "8"],
    "cascade-impz": ["cascade", "--den-a", "1,-1,-1", "--den-b", "1,-1,-1", "--impz", "0", "9"],
    "minphase-10": ["minphase", "--to", "10"],
    "analyze": ["analyze", "--den", "1,-1,-1"],
    "analyze-improper": ["analyze", "--num", "1,2,3,4", "--den", "1,-1,-1"],
    "impz-improper": ["impz", "--num", "1,2,3,4", "--den", "1,-1,-1", "--from", "-2", "--to", "6"],
    "freqz-513": ["freqz", "--den", "1,-1,-1", "--points", "513"],
    "freqz-features": ["freqz", "--den", "1,-1,-1", "--points", "513", "--features"],
    "props": ["props", "--nmax", "500", "--ratio-tol", "1e-3", "--forms", "50"],
    "respond-readme": ["respond", "--input", "{signal}", "--to", "6"],
}


def run_case(name: str, signal_path: Path) -> str:
    argv = [arg.format(signal=signal_path) for arg in CASES[name]]
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    signal = tmp_path / "signal.txt"
    signal.write_text(SIGNAL_TEXT)
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, signal) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        signal = Path(tmp) / "signal.txt"
        signal.write_text(SIGNAL_TEXT)
        for case in sorted(CASES):
            (GOLDEN_DIR / f"{case}.txt").write_text(run_case(case, signal), encoding="utf-8")
            print(f"wrote {case}")
