"""Regenerate the golden CLI outputs in tests/golden.

Run from the repository root after make_fixtures.py:

    python3 tests/make_fixtures.py && python3 tests/make_goldens.py

Each golden file records the exit code on the first line and the raw
command output after it.  Review diffs before committing: the goldens are
the contract for byte-deterministic reports.
"""

import contextlib
import io
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))

from facalc.cli import main  # noqa: E402

GOLDEN_CASES = {
    "check_b2_b1_only": ["check-b2", "tests/fixtures/b1_only.json"],
    "check_b2_curved": ["check-b2", "tests/fixtures/curved_min.json"],
    "check_b2_assoc": ["check-b2", "tests/fixtures/assoc.json"],
    "check_b2_nonassoc": ["check-b2", "tests/fixtures/nonassoc.json"],
    "check_b2_nonassoc_json": ["check-b2", "tests/fixtures/nonassoc.json", "--format", "json"],
    "check_b2_empty": ["check-b2", "tests/fixtures/empty.json"],
    "check_b2_multiterm": ["check-b2", "tests/fixtures/multiterm.json", "--n-max", "2"],
    "check_functor_b1_only": ["check-functor", "tests/fixtures/b1_only.json"],
    "check_functor_fbad": [
        "check-functor",
        "tests/fixtures/b1_only.json",
        "--functor",
        "fbad",
        "--n-max",
        "2",
    ],
    "check_coder_b2_b1_only": [
        "check-coder-b2",
        "tests/fixtures/b1_only.json",
        "--n-max",
        "2",
        "--word-len-max",
        "3",
    ],
    "check_coder_b2_curved": [
        "check-coder-b2",
        "tests/fixtures/curved_min.json",
        "--n-max",
        "2",
        "--word-len-max",
        "3",
    ],
    "check_coder_b2_curved_n3_w4": [
        "check-coder-b2",
        "tests/fixtures/curved_min.json",
        "--n-max",
        "3",
        "--word-len-max",
        "4",
    ],
    "compose_b1_only": ["compose", "tests/fixtures/b1_only.json"],
    "compose_curved": ["compose", "tests/fixtures/curved_compose.json"],
    "compose_curved_w9_6": ["compose", "tests/fixtures/curved_compose.json", "--window", "9,6"],
    "push_b1_only": ["push", "tests/fixtures/b1_only.json"],
    "push_b1_only_w9_5": ["push", "tests/fixtures/b1_only.json", "--window", "9,5"],
    "pull_b1_only": ["pull", "tests/fixtures/b1_only.json"],
    "pull_b1_only_w9_5": ["pull", "tests/fixtures/b1_only.json", "--window", "9,5"],
    "eval_b1_only": ["eval", "tests/fixtures/b1_only.json"],
    "eval_lossy": ["eval", "tests/fixtures/lossy_eval.json"],
    "solve_psi_roundtrip": ["solve-psi", "tests/fixtures/psi_roundtrip.json"],
    "solve_psi_roundtrip_len3": [
        "solve-psi",
        "tests/fixtures/psi_roundtrip.json",
        "--psi-len",
        "3",
    ],
    "solve_psi_roundtrip_len4": [
        "solve-psi",
        "tests/fixtures/psi_roundtrip.json",
        "--psi-len",
        "4",
    ],
    "normalize_b1_only": ["normalize", "tests/fixtures/b1_only.json"],
    "normalize_curved_wide": ["normalize", "tests/fixtures/curved_wide.json"],
}


def run_case(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def main_gen():
    os.chdir(ROOT)
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        code, text = run_case(argv)
        (golden / f"{name}.txt").write_text(f"exit {code}\n{text}", encoding="utf-8")
        print(f"{name}: exit {code}, {len(text)} bytes")


if __name__ == "__main__":
    main_gen()
