"""Byte-for-byte CLI output against checked-in golden documents.

Each case runs `main(argv)` and compares the exit code, stdout, stderr and
(for `--out` cases) the written document with the files under
`tests/golden/` (a missing stdout or stderr file stands for empty output),
after replacing every `"runtime_ms": <value>` with
`"runtime_ms": null` (the one non-reproducible value).

`spectrum`, `verify-algebra` and `oracle` have golden files: their floats
come from correctly rounded operations (sqrt, + - * /) or exact rationals,
so they are the same on every platform.  `eigenfunction` and
`verify-states` go through `np.exp` and `**`, whose last bit can differ
between CPUs.  One `eigenfunction` case is kept all the same: chi, chi' and
chi'' of a high level of a shifted sector pin the operation order of
`TowerSampler.derivatives` bit for bit; on a platform whose exp or pow
rounds differently, regenerate that file from a commit known to be right.
"""

import re
from pathlib import Path

import pytest
from oracles import corrupted_generators

from micz_su11 import operator_algebra
from micz_su11.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "{out}"

# (case id, expected exit code, argv); OUT marks the `--out` path
CASES = [
    ("spectrum-readme-hydrogen", 0, ["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"]),
    ("spectrum-readme-shifted", 0,
     ["spectrum", "--s", "1/2", "--c1", "1", "--c2", "0", "--m", "1/2", "--j", "1/2", "--nmax", "1"]),
    ("spectrum-shifted-json", 0,
     ["spectrum", "--s", "3/2", "--c1", "0.3", "--c2", "0.1", "--m", "1/2", "--j", "5/2", "--nmax", "8",
      "--format", "json", "--out", OUT]),
    ("verify-algebra-readme", 0, ["verify-algebra", "--deg-check-max", "20"]),
    ("verify-algebra-stdout", 0, ["verify-algebra"]),
    ("verify-algebra-csv", 0, ["verify-algebra", "--format", "csv"]),
    ("verify-algebra-json-out", 0, ["verify-algebra", "--out", OUT]),
    # the corrupt cases run with `corrupted_generators` patched over the derivation
    ("verify-algebra-corrupt-stdout", 1, ["verify-algebra"]),
    ("verify-algebra-corrupt-csv", 1, ["verify-algebra", "--format", "csv"]),
    ("verify-algebra-corrupt-json-out", 1, ["verify-algebra", "--out", OUT]),
    ("oracle-readme-json", 0,
     ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3", "--rmax", "60", "--npoints", "6000",
      "--format", "json", "--out", OUT]),
    ("oracle-default-grid-csv", 1, ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "6"]),
    ("oracle-shifted-json", 0,
     ["oracle", "--s", "1/2", "--c1", "1", "--c2", "0", "--m", "1/2", "--j", "1/2", "--nmax", "3",
      "--format", "json"]),
    ("oracle-bigJ-csv", 0, ["oracle", "--bigJ", "1.5", "--nmax", "2", "--rmax", "150", "--npoints", "6000"]),
    ("oracle-bigJ-json", 0,
     ["oracle", "--bigJ", "1.5", "--nmax", "2", "--rmax", "150", "--npoints", "6000", "--format", "json"]),
    # levels k >= 6 of a tower, where each level's locator starts from the levels below it;
    # the hydrogen solve fails the tolerance at n <= 3 (a uniform grid at r -> 0)
    ("oracle-hydrogen-nmax10-csv", 1,
     ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "10", "--rmax", "1452", "--npoints", "20000"]),
    ("oracle-bigJ39.7-nmax10-csv", 0, ["oracle", "--bigJ", "39.707106781186546", "--nmax", "10"]),
    # a box whose high levels break the quantum-defect law: a prediction
    # fails to certify, and every later level is located from its bracket
    ("oracle-box-nmax60-csv", 1,
     ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "60", "--rmax", "200", "--npoints", "2000"]),
    # chi, chi' and chi'' from one derivative pass at k = 30, J = 4.64
    ("eigenfunction-shifted-n34", 0,
     ["eigenfunction", "--s", "1", "--c1", "2", "--c2", "0.5", "--m", "1", "--j", "3", "--n", "34"]),
    ("oracle-failing-tol", 1,
     ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--rmax", "60", "--npoints", "120",
      "--tol", "1e-9"]),
]


def strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_ms": [^,}]+', '"runtime_ms": null', text)


def run_case(argv, out_path: Path, capsys):
    """Exit code and the runtime-stripped stdout, stderr and document of one case."""
    argv = [str(out_path) if a == OUT else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    doc = strip_runtime(out_path.read_text(encoding="utf-8")) if out_path.exists() else None
    return code, strip_runtime(captured.out), strip_runtime(captured.err), doc


def golden(case_id: str, kind: str) -> str | None:
    """A golden file's text; a missing stdout or stderr file means empty output."""
    path = GOLDEN / f"{case_id}.{kind}"
    if path.exists():
        return path.read_text(encoding="utf-8")
    return None if kind == "doc" else ""


@pytest.mark.parametrize("case_id, code, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, monkeypatch, tmp_path, case_id, code, argv):
    if "-corrupt-" in case_id:
        monkeypatch.setattr(operator_algebra, "_generators", corrupted_generators())
    got_code, out, err, doc = run_case(argv, tmp_path / "doc", capsys)
    assert got_code == code
    assert out == golden(case_id, "stdout")
    assert err == golden(case_id, "stderr")
    assert doc == golden(case_id, "doc")
