import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from oracles import corrupted_generators, eig_oracle_full_sweep

import micz_su11
import micz_su11.cli as cli
import micz_su11.fd_oracle as fd_oracle
import micz_su11.quantum_numbers as quantum_numbers
import micz_su11.operator_algebra as operator_algebra
from micz_su11.cli import main

SRC = Path(micz_su11.__file__).resolve().parent.parent

# every documented README invocation is executed here (paths adapted per test)
README_EXAMPLES = [
    ["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"],
    ["spectrum", "--s", "1/2", "--c1", "1", "--c2", "0", "--m", "1/2", "--j", "1/2", "--nmax", "1"],
    ["verify-algebra", "--deg-check-max", "20"],
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSpectrum:
    def test_hydrogen_three_levels(self, capsys):
        code, out, _ = run(capsys, README_EXAMPLES[0])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "m", "j", "n", "delta1", "delta2", "J", "K", "E"]
        assert [r[3] for r in rows] == ["1", "2", "3"]
        energies = [float(r[8]) for r in rows]
        assert energies == pytest.approx([-0.5, -0.125, -1.0 / 18.0], rel=1e-15)

    def test_shifted_sector_single_row(self, capsys):
        code, out, _ = run(capsys, README_EXAMPLES[1])
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["n"] == "3/2"
        assert float(row["delta1"]) == 2.0
        assert float(row["J"]) == 1.5
        assert float(row["E"]) == pytest.approx(-0.08, rel=1e-15)

    def test_invalid_quantum_numbers_exit_2(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--s", "1", "--m", "0", "--j", "0"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "m_plus" in err and "j" in err

    def test_bad_half_integer_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--s", "0.3", "--m", "0", "--j", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, tail", [
        (["spectrum", "--s", "1/3", "--m", "0", "--j", "0"],
         "argument --s: '1/3' is not an exact integer or half-integer"),
        (["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "x"],
         "argument --n: cannot parse half-integer from 'x'"),
    ])
    def test_bad_half_integer_names_the_reason(self, capsys, argv, tail):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip("\n").endswith(tail)

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--s", "0", "--m", "0", "--j", "0",
                                    "--nmax", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "su11-micz/1"
        assert doc["config"]["command"] == "spectrum"
        assert [row["E"] for row in doc["rows"]] == [-0.5, -0.125]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, ["spectrum", "--s", "3/2", "--c1", "0.3", "--c2", "0.1",
                                      "--m", "1/2", "--j", "5/2", "--nmax", "8", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestEigenfunction:
    def test_radial_table(self, capsys, tmp_path):
        out_path = tmp_path / "chi.csv"
        code, _, _ = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0",
                                  "--n", "2", "--npoints", "64", "--out", str(out_path)])
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["x", "chi", "chi_d1", "chi_d2"]
        assert len(rows) == 64
        x, val = float(rows[10][0]), float(rows[10][1])
        assert val == pytest.approx(2.0 * x * (1.0 - x) * math.exp(-x), rel=1e-12)

    def test_angular_table(self, capsys, tmp_path):
        out_path = tmp_path / "z.csv"
        code, _, _ = run(capsys, ["eigenfunction", "--s", "1/2", "--c1", "1", "--m", "1/2",
                                  "--j", "1/2", "--kind", "angular", "--npoints", "64",
                                  "--out", str(out_path)])
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["theta", "re_z", "im_z"]
        assert len(rows) == 64
        assert all(float(r[2]) == 0.0 for r in rows)  # m = s: no azimuthal phase

    @pytest.mark.parametrize("couplings", [["--c1", "1e8", "--c2", "1e8"], ["--c1", "1e300"]],
                             ids=["c1-c2-1e8", "c1-1e300"])
    def test_angular_table_of_zeros_exit_2(self, capsys, couplings):
        # Z underflows on every node (its peak is about 2^-20000 at c1 = c2 = 1e8),
        # which `verify-states` refuses with the same line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eigenfunction", "--kind", "angular", "--s", "0", *couplings,
                                          "--m", "0", "--j", "0"])
        assert (code, out, err) == (2, "", "error: angular profile vanishes identically on the mesh\n")

    def test_radial_table_of_zeros_exit_2(self, capsys):
        # (2x)^(J+1) with J = 10 underflows on every node of x <= 1e-40, so chi
        # is 0 there; `verify-states` refuses that window with exit 2 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "10", "--n", "11",
                                          "--rmax", "1e-40", "--npoints", "4"])
        assert (code, out) == (2, "")
        assert err == "error: chi at n=11 is 0 on every node of the window 0 < x <= 1e-40; choose another --rmax\n"

    def test_partly_subnormal_radial_table_printed(self, capsys):
        # at x <= 1e-29 chi is subnormal but nonzero on every node: printed, exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "10", "--n", "11",
                                        "--rmax", "1e-29", "--npoints", "4"])
        assert code == 0
        _, rows = parse_csv(out)
        chis = [float(r[1]) for r in rows]
        assert len(chis) == 4 and chis == sorted(chis)
        assert 0.0 < chis[0] < sys.float_info.min and chis[0] == pytest.approx(4.94e-323, rel=1e-2)

    @pytest.mark.parametrize("c1, nonzero", [("1e8", 88), ("1e6", 264)])
    def test_narrow_angular_peak_printed(self, capsys, c1, nonzero):
        code, out, _ = run(capsys, ["eigenfunction", "--kind", "angular", "--s", "0", "--c1", c1,
                                    "--m", "0", "--j", "0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 512
        assert sum(float(r[1]) != 0.0 for r in rows) == nonzero

    @pytest.mark.parametrize("npoints", ["0", "-3"])
    def test_non_positive_npoints_exit_2(self, capsys, npoints):
        code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "1",
                                      "--npoints", npoints])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--npoints" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-5", "0"])
    def test_bad_rmax_exit_2(self, capsys, bad):
        code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "1",
                                      f"--rmax={bad}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--rmax must be positive and finite" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_phi_exit_2(self, capsys, bad):
        code, out, err = run(capsys, ["eigenfunction", "--s", "1/2", "--c1", "1", "--m", "1/2", "--j", "1/2",
                                      "--kind", "angular", f"--phi={bad}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--phi must be finite" in err

    def test_radial_requires_n(self, capsys):
        code, _, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0"])
        assert code == 2
        assert "--n" in err

    def test_high_level_values_bounded(self, capsys):
        # at n = 60 the float monomial sum printed |chi| up to 5.7e10
        code, out, _ = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "60"])
        assert code == 0
        _, rows = parse_csv(out)
        values = [abs(float(v)) for row in rows for v in row[1:]]
        assert len(values) == 3 * len(rows) > 0
        assert max(values) < 10.0


    def test_overflowing_polynomial_exit_2_without_warnings(self, capsys):
        # F(-249, 2; 2x) passes 1e308 in the tail of the window x <= 1010
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "250"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: at n=250 F(-k, b; 2x)") and "overflows on the window" in err

    @pytest.mark.parametrize("argv", [["--rmax", "1e308"], ["--rmax", "1e306"],
                                      ["--rmax", "1e308", "--npoints", "1"]])
    def test_overflowing_window_exit_2_without_warnings(self, capsys, argv):
        # x = rmax i/npoints overflows before the division, or 2x does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "2", *argv])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: --rmax {float(argv[1]):g} is too large: the sample points")

    def test_finite_window_bytes_unchanged(self, capsys):
        # the sample points are still xmax * i / npoints, rounded as before
        code, out, _ = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "2",
                                    "--rmax", "7.3", "--npoints", "7"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [format(7.3 * i / 7, ".17g") for i in range(1, 8)]

    def test_n_150_still_finite(self, capsys):
        code, out, _ = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "150"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 512
        assert all(math.isfinite(float(v)) for row in rows for v in row)


class TestVerifyAlgebra:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-algebra"])
        assert code == 0
        assert out.count(": 0  PASS") >= 6
        assert "6/6 identities PASS" in out
        assert "oracle sweep k in [-4, 12]: PASS" in out

    def test_deg_check_max_passthrough(self, capsys):
        code, out, _ = run(capsys, README_EXAMPLES[2])
        assert code == 0
        assert "oracle sweep k in [-4, 20]: PASS" in out

    @pytest.mark.parametrize("kmax", ["-5", "-10"])
    def test_empty_sweep_exit_2(self, capsys, kmax):
        code, out, err = run(capsys, ["verify-algebra", "--deg-check-max", kmax])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--deg-check-max must be at least -4" in err

    def test_single_power_sweep_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-algebra", "--deg-check-max", "-4"])
        assert code == 0
        assert "oracle sweep k in [-4, -4]: PASS" in out

    def test_zero_differences_are_not_swept(self, capsys, monkeypatch):
        # the zero operator's image of x^k is empty for every k, so the sweep's
        # length must not cost anything when every identity holds
        swept = []
        real = operator_algebra.monomial_action

        def counting(op, k):
            swept.append((op.is_zero, k))
            return real(op, k)

        monkeypatch.setattr(operator_algebra, "monomial_action", counting)
        code, out, _ = run(capsys, ["verify-algebra", "--deg-check-max", "1000000000"])
        assert code == 0
        assert "oracle sweep k in [-4, 1000000000]: PASS" in out
        assert out.splitlines()[-1] == "6/6 identities PASS"
        assert not any(is_zero for is_zero, _ in swept)

    def test_nonzero_differences_are_swept_from_the_bottom(self, capsys, monkeypatch):
        swept = {}  # id of each swept difference -> the powers it was applied to, in order
        real = operator_algebra.monomial_action

        def counting(op, k):
            swept.setdefault(id(op), []).append(k)
            return real(op, k)

        monkeypatch.setattr(operator_algebra, "_generators", corrupted_generators())
        monkeypatch.setattr(operator_algebra, "monomial_action", counting)
        code, out, _ = run(capsys, ["verify-algebra", "--deg-check-max", "1000000000"])
        assert code == 1
        assert out.splitlines()[-1] == "2/6 identities PASS"
        assert len(swept) == 4  # the four differences the corrupted T3 leaves nonzero
        for powers in swept.values():
            assert powers == list(range(-4, powers[-1] + 1)) and powers[-1] < 1000

    def test_corrupted_build_fails_with_rendered_remainder(self, capsys, monkeypatch):
        monkeypatch.setattr(operator_algebra, "_generators", corrupted_generators())
        code, out, err = run(capsys, ["verify-algebra"])
        assert code == 1
        assert "FAIL" in out
        match = re.search(r"FAILED .*: (.+)", err)
        assert match and match.group(1).strip() not in ("", "0")

    def test_corrupt_identity_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-algebra", "--corrupt-identity"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --corrupt-identity" in capsys.readouterr().err

    def test_json_report_document(self, capsys, tmp_path):
        out_path = tmp_path / "algebra.json"
        code, _, _ = run(capsys, ["verify-algebra", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "su11-micz/1"
        idents = [r for r in doc["reports"] if r["check_name"].startswith("identity:")]
        assert len(idents) == 6
        assert all(r["passed"] and r["difference"] == "0" for r in idents)


class TestVerifyStates:
    def test_hydrogen_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "reports.json"
        code, out, _ = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                    "--nmax", "3", "--npoints", "1200", "--out", str(out_path)])
        assert code == 0
        assert "FAIL" not in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "su11-micz/1"
        assert all(r["passed"] for r in doc["reports"])
        names = {r["check_name"] for r in doc["reports"]}
        assert "ladder_annihilation" in names and "t3_spacing" in names

    def test_hydrogen_twenty_levels_pass(self, capsys):
        # default grid and tolerances; the float monomial sum failed 13 of these
        code, out, _ = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "20"])
        assert code == 0
        assert out.splitlines()[-1] == "120/120 checks PASS"

    def test_deterministic_modulo_runtime(self, capsys, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, _ = run(capsys, ["verify-states", "--s", "1/2", "--c1", "1", "--m", "1/2",
                                      "--j", "1/2", "--nmax", "2", "--npoints", "800",
                                      "--out", str(p)])
            assert code == 0
        texts = [re.sub(r'"runtime_ms": [^,}]+', '"runtime_ms": 0', p.read_text()) for p in paths]
        assert texts[0] == texts[1]

    def test_csv_summary(self, capsys, tmp_path):
        out_path = tmp_path / "reports.csv"
        code, _, _ = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                  "--nmax", "2", "--npoints", "800", "--format", "csv",
                                  "--out", str(out_path)])
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["check_name", "n", "residual", "tolerance", "passed", "runtime_ms"]
        assert all(r[4] == "true" for r in rows)

    def test_invalid_sector_exit_2(self, capsys):
        code, _, err = run(capsys, ["verify-states", "--s", "1/2", "--m", "0", "--j", "0"])
        assert code == 2
        assert "error:" in err

    def test_forced_failure_exit_1(self, capsys):
        code, out, _ = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                    "--nmax", "2", "--npoints", "800", "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("flag, field", [("--tol", "--tol"), ("--rmax", "rmax"),
                                             ("--c1", "c1"), ("--c2", "c2")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit_2(self, capsys, flag, field, bad):
        code, out, err = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                      "--nmax", "2", "--npoints", "800", f"{flag}={bad}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error:") and field in err

    def test_grid_where_chi_underflows_exit_2(self, capsys):
        code, out, err = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                      "--nmax", "3", "--rmax", "1e-300"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: chi at n=1 has zero norm") and err.endswith("; choose another --rmax\n")

    @pytest.mark.parametrize("rmax, line", [
        ("8.99e307", "error: chi at n=1 has zero norm"),  # the last node's 2x is still finite
        ("9e307", "error: --rmax 9e+307 is too large: the sample points"),
        ("1e308", "error: --rmax 1e+308 is too large: the sample points"),
    ], ids=["8.99e307", "9e307", "1e308"])
    def test_huge_window_exit_2_without_warnings(self, capsys, rmax, line):
        # the sampler works on 2x, which overflows on the last node x = rmax 4000/4001 past 8.988e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                          "--nmax", "2", "--rmax", rmax])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(line)

    @pytest.mark.parametrize("grid", [["--rmax", "3e-107"], ["--rmax", "6e-107"],
                                      ["--rmax", "1e-106", "--npoints", "16"]])
    def test_grid_where_chi_norm_is_subnormal_exit_2(self, capsys, grid):
        # a squared norm below the smallest normal float has lost precision to
        # gradual underflow; at 3e-107 three checks used to fail on it
        code, out, err = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                      "--nmax", "3", *grid])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: chi at n=1 has a subnormal squared norm")
        assert err.endswith("; choose another --rmax\n")

    def test_grid_where_chi_norm_is_small_but_normal_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                    "--nmax", "3", "--rmax", "1e-100"])
        assert code == 0
        assert out.rstrip().endswith("18/18 checks PASS")

    @pytest.mark.parametrize("bad", ["0", "-1e-8"])
    def test_non_positive_tol_exit_2(self, capsys, bad):
        code, out, err = run(capsys, ["verify-states", "--s", "0", "--m", "0", "--j", "0",
                                      "--nmax", "2", "--npoints", "800", f"--tol={bad}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--tol" in err

    @pytest.mark.parametrize("argv", [
        ["--s", "0", "--m", "0", "--j", "110"],
        ["--s", "1/2", "--c1", "1e6", "--c2", "3", "--m", "1/2", "--j", "1/2"],
        ["--s", "0", "--m", "1", "--j", "1", "--rmax", "1e160"],
    ], ids=["hydrogen-j110", "c1-1e6", "rmax-1e160"])
    def test_overflowing_samples_exit_2_with_one_line(self, capsys, argv):
        # the samples overflow (ROADMAP item 2); the suite refuses them with one line and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify-states", *argv, "--nmax", "2"])
        assert (code, out, err) == (2, "", "error: grid function contains non-finite entries\n")


class TestOracle:
    def test_sector_table(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.json"
        code, _, _ = run(capsys, ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3",
                                  "--rmax", "60", "--npoints", "6000", "--format", "json",
                                  "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        reports = doc["reports"]
        assert [r["inputs"]["n"] for r in reports] == ["1", "2", "3"]
        assert all(r["check_name"] == "spectrum_level" and r["passed"] for r in reports)
        assert reports[0]["details"]["analytic_energy"] == -0.5
        assert abs(reports[0]["details"]["oracle_energy"] + 0.5) <= 1e-4 * 0.5
        assert all(r["residual"] <= r["tolerance"] for r in reports)

    def test_bigJ_mode(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--bigJ", "1.5", "--nmax", "2", "--rmax", "150",
                                    "--npoints", "6000"])
        assert code == 0
        header, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == [2.5, 3.5]
        assert all(r[5] == "true" for r in rows)

    def test_tolerance_failure_exit_1(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1",
                                    "--rmax", "60", "--npoints", "120", "--tol", "1e-9"])
        assert code == 1
        _, rows = parse_csv(out)
        assert rows[0][5] == "false"

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1e-4"])
    def test_bad_tol_exit_2(self, capsys, bad):
        code, out, err = run(capsys, ["oracle", "--bigJ", "0", "--nmax", "1", "--rmax", "60",
                                      "--npoints", "120", f"--tol={bad}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--tol" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bigJ", "nan", "--nmax", "2", "--rmax", "100"],
            ["--bigJ", "inf", "--nmax", "2"],
            ["--bigJ", "1e300", "--nmax", "2"],
            ["--bigJ", "1e200", "--nmax", "2", "--rmax", "100"],
            ["--bigJ", "1e154", "--nmax", "2", "--rmax", "10000", "--npoints", "100"],
        ],
        ids=["nan", "inf", "overflowing-default-rmax", "overflowing-diagonal", "underflowing-energy"],
    )
    def test_bad_bigJ_exit_2(self, capsys, argv):
        code, out, err = run(capsys, ["oracle", *argv])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_that_cannot_hold_the_level_exit_2(self, capsys, fmt):
        code, out, err = run(capsys, ["oracle", "--bigJ", "1e150", "--nmax", "2", "--rmax", "100",
                                      "--npoints", "100", "--format", fmt])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "rmax=100.0 cannot hold the level at K=1e+150" in err

    def test_spacing_that_squares_to_zero_exit_2(self, capsys):
        code, out, err = run(capsys, ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3",
                                      "--rmax", "1e-300"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "squares to zero" in err and err.endswith("; choose another --rmax\n")

    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (["--s", "0", "--m", "0", "--j", "0", "--nmax", "3", "--rmax", "60", "--npoints", "6000",
              "--format", "json"], "json"),
            (["--s", "0", "--m", "0", "--j", "0", "--nmax", "6"], "csv"),
        ],
        ids=["readme-json", "default-grid-csv"],
    )
    def test_documents_match_full_sweep_reference(self, capsys, tmp_path, monkeypatch, argv, fmt):
        def document(name):
            path = tmp_path / name
            code, _, _ = run(capsys, ["oracle", *argv, "--out", str(path)])
            text = path.read_text(encoding="utf-8")
            if fmt == "json":
                text = re.sub(r'"runtime_ms": [^,}]+', '"runtime_ms": null', text)
            return code, text

        got = document("early_stop")
        monkeypatch.setattr(fd_oracle, "eig_oracle", eig_oracle_full_sweep)
        assert got == document("full_sweep")

    def test_requires_sector_or_bigJ(self, capsys):
        code, _, err = run(capsys, ["oracle", "--nmax", "1"])
        assert code == 2
        assert "--bigJ" in err

    def test_convergence_failure_exit_1(self, capsys, monkeypatch):
        from micz_su11.quantum_numbers import ConvergenceFailure

        def boom(*args, **kwargs):
            raise ConvergenceFailure("bisection stalled")

        monkeypatch.setattr(fd_oracle, "eig_oracle", boom)
        code, _, err = run(capsys, ["oracle", "--bigJ", "0", "--nmax", "1", "--npoints", "100"])
        assert code == 1
        assert "stalled" in err

    @pytest.mark.parametrize(
        "argv, npoints",
        [
            (["--s", "0", "--m", "0", "--j", "0", "--npoints", "120"], 120),
            (["--bigJ", "0", "--npoints", "120"], 120),
            (["--s", "0", "--m", "0", "--j", "0"], 6000),
        ],
        ids=["sector", "bigJ", "default-grid"],
    )
    def test_nmax_above_npoints_refused_before_any_level(self, capsys, monkeypatch, argv, npoints):
        built = []

        def levels(sector, count):
            built.append(count)
            return quantum_numbers.levels(sector, count)

        monkeypatch.setattr(cli, "levels", levels)
        monkeypatch.setattr(fd_oracle, "sector_levels", levels)
        code, out, err = run(capsys, ["oracle", *argv, "--nmax", str(npoints + 1)])
        assert (code, out, built) == (2, "", [])
        assert err == f"error: --nmax must not exceed --npoints ({npoints}), got {npoints + 1}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bigJ", "1e154", "--nmax", "2"],
            ["--bigJ", "1e155", "--nmax", "2"],
            ["--s", "0", "--m", "0", "--j", "0", "--c1", "4e307", "--nmax", "1"],
        ],
        ids=["bigJ-1e154", "bigJ-1e155", "sector-c1-4e307"],
    )
    def test_overflowing_default_box_names_k_top_and_rmax(self, capsys, argv):
        code, out, err = run(capsys, ["oracle", *argv])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the default box 12 k_top\^2 overflows at k_top=\S+; give --rmax\n", err)

    def test_infinite_rmax_keeps_the_grid_message(self, capsys):
        code, out, err = run(capsys, ["oracle", "--bigJ", "0", "--nmax", "1", "--rmax", "inf"])
        assert (code, out, err) == (2, "", "error: rmax must be positive and finite, got inf\n")

    @pytest.mark.parametrize("extra", [[], ["--rmax", "100", "--npoints", "120"]], ids=["default-grid", "given-grid"])
    def test_nmax_beyond_the_float_range_exit_2(self, capsys, extra):
        code, out, err = run(capsys, ["oracle", "--bigJ", "0", "--nmax", str(10**400), *extra])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: --nmax is too large")

    def test_too_coarse_grid_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, ["oracle", "--bigJ", "0", "--nmax", "1",
                                    "--rmax", "500", "--npoints", "16"])
        assert code == 2
        assert "wavelength" in err


SECTOR_COMMANDS = {
    "spectrum": ["spectrum", "--nmax", "1"],
    "eigenfunction": ["eigenfunction", "--n", "1"],
    "verify-states": ["verify-states"],
    "oracle": ["oracle", "--rmax", "100"],
}


@pytest.mark.parametrize("coupling", ["c1", "c2"])
@pytest.mark.parametrize("command", sorted(SECTOR_COMMANDS))
def test_overflowing_coupling_names_the_coupling(capsys, command, coupling):
    argv = SECTOR_COMMANDS[command] + ["--s", "0", "--m", "0", "--j", "0", f"--{coupling}", "1e308"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: coupling {coupling}=1e+308 is too large")


@pytest.mark.parametrize("command", sorted(SECTOR_COMMANDS))
def test_overflowing_label_square_names_the_labels(capsys, command):
    # m + s = 2e200 fits a float, (m + s)^2 does not; c2 = 0 is not to blame
    argv = SECTOR_COMMANDS[command] + ["--s", "1e200", "--m", "1e200", "--j", "1e200"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: labels too large: m+s=2e+200 squared overflows in m2 = sqrt((m+s)^2 + 4 c2)\n"


@pytest.mark.parametrize("command", ["spectrum", "oracle"])
def test_underflowing_energy_exit_2(capsys, command):
    # J(J+1) = 1.6e308 is finite, but 2K^2 overflows and E = -1/(2K^2) would print as -0
    argv = SECTOR_COMMANDS[command] + ["--s", "0", "--c1", "4e307", "--c2", "4e307", "--m", "0", "--j", "0"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: 2K^2 overflows at K=1.26491e+154")


@pytest.mark.parametrize(
    "labels, flag",
    [
        (["--s", "0", "--m", "0", "--j", "1e400"], "j"),
        (["--s", "0", "--m", "1e400", "--j", "1e400"], "m"),
        (["--s", "1e400", "--m", "0", "--j", "0"], "s"),
    ],
    ids=["j", "m", "s"],
)
@pytest.mark.parametrize("command", ["spectrum", "eigenfunction"])
def test_label_too_large_for_a_float_exit_2(capsys, command, labels, flag):
    code, out, err = run(capsys, SECTOR_COMMANDS[command] + labels)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag} is too large: |{flag}| must not exceed 8.98847e+307")


def test_level_too_large_for_a_float_exit_2(capsys):
    code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "1e400"])
    assert code == 2
    assert out == ""
    assert err == "error: n is too large: n - j must not exceed 8.98847e+307\n"


# a JSON or CSV number -0: not part of -0.5, 1e-05 or a label such as "-0/2"
NEGATIVE_ZERO = re.compile(r"(?<![\w.])-0(?![\w./])")
SIGNED_ZERO_CASES = {
    "spectrum": (["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--c1", "-0.0",
                  "--format", "json"], ['"c1": 0,']),
    "eigenfunction": (["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--kind", "angular",
                       "--phi", "-0.0", "--npoints", "4", "--format", "json"], ['"phi": 0,']),
    "verify-states": (["verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--npoints", "800",
                       "--c1", "-0.0", "--c2", "-0.0"], ['"c1": 0,', '"c2": 0,']),
    "oracle": (["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--c2", "-0.0", "--rmax", "60",
                "--npoints", "6000", "--format", "json"], ['"c2": 0,']),
    "oracle-bigJ": (["oracle", "--bigJ", "-0.0", "--nmax", "1", "--rmax", "60", "--npoints", "6000",
                     "--format", "json"], ['"bigJ": 0,']),
}


@pytest.mark.parametrize("case", sorted(SIGNED_ZERO_CASES))
def test_signed_zero_input_is_echoed_as_zero(capsys, tmp_path, case):
    argv, echoes = SIGNED_ZERO_CASES[case]
    out_path = tmp_path / "doc.json"
    code, out, err = run(capsys, argv + ["--out", str(out_path)])
    doc = out_path.read_text()
    assert code == 0 and err == ""
    assert not NEGATIVE_ZERO.search(out) and not NEGATIVE_ZERO.search(doc)
    for echo in echoes:
        # every echo of the flag, in config and in each report's inputs
        assert doc.count(echo) == doc.count(echo.split(":")[0])


def test_json_render_writes_negative_zero_as_0():
    assert cli._json_render(-0.0) == "0"
    assert cli._json_render({"chi": [0.0, -0.0, -1e-300]}) == '{"chi": [0, 0, -1e-300]}'


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_underflowed_chi_tail_prints_no_negative_zero(capsys, fmt):
    # past x ~ 745 the exponential factor of chi underflows to +0 while F < 0, so chi is -0.0 there
    code, out, err = run(capsys, ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "2",
                                  "--rmax", "1000", "--npoints", "8", "--format", fmt])
    assert code == 0 and err == ""
    assert not NEGATIVE_ZERO.search(out)
    if fmt == "csv":
        assert out.splitlines()[6:] == ["750,0,0,0", "875,0,0,0", "1000,0,0,0"]
    else:
        assert json.loads(out)["rows"][-1] == {"x": 1000, "chi": 0, "chi_d1": 0, "chi_d2": 0}


@pytest.mark.parametrize("flags", [["--s", "0"], ["--m", "1"], ["--j", "0"], ["--s", "0", "--m", "0", "--j", "0"]],
                         ids=["s", "m", "j", "all"])
def test_bigJ_with_a_sector_flag_exit_2(capsys, flags):
    code, out, err = run(capsys, ["oracle", "--bigJ", "2", *flags, "--nmax", "2", "--rmax", "60"])
    assert code == 2
    assert out == ""
    named = ", ".join(flags[::2])
    assert err == f"error: --bigJ sets J directly and cannot be combined with {named}\n"


UNWRITABLE_OUT_COMMANDS = {
    "spectrum": ["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "2"],
    "eigenfunction": ["eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "1", "--npoints", "8"],
    "verify-algebra": ["verify-algebra", "--deg-check-max", "0"],
    "verify-states": ["verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--npoints", "800"],
    "oracle": ["oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "1", "--rmax", "60", "--npoints", "600"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT_COMMANDS))
def test_unwritable_out_exit_2_with_one_line(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "doc.out" if target == "missing-directory" else tmp_path
    code, _, err = run(capsys, UNWRITABLE_OUT_COMMANDS[command] + ["--out", str(path)])
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [["eigenfunction", "--n", "2"], ["eigenfunction", "--kind", "angular"], ["verify-states", "--nmax", "2"]],
    ids=["radial", "angular", "verify-states"],
)
def test_npoints_numpy_cannot_allocate_exit_2_with_one_line(capsys, command):
    # 7.11 PiB, past the address space: numpy raises MemoryError without allocating
    code, out, err = run(capsys, command + ["--s", "0", "--m", "0", "--j", "0", "--npoints", "1000000000000000"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and "allocate" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [["spectrum", "--s", "0", "--m", "0", "--j", "0"], ["verify-states", "--s", "0", "--m", "0", "--j", "0"],
     ["oracle", "--s", "0", "--m", "0", "--j", "0"], ["oracle", "--bigJ", "1"]],
    ids=["spectrum", "verify-states", "oracle", "oracle-bigJ"],
)
def test_nmax_below_1_exit_2_with_one_line(capsys, command):
    code, out, err = run(capsys, command + ["--nmax", "0"])
    assert (code, out, err) == (2, "", "error: --nmax must be at least 1, got 0\n")


class TestParser:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--s", "0", "--m", "0", "--j", "0", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, line", [
        (["spectrum", "--s", "1/3", "--m", "0", "--j", "0"],
         "error: argument --s: '1/3' is not an exact integer or half-integer"),
        (["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "x"],
         "error: argument --nmax: invalid int value: 'x'"),
        (["spectrum", "--s", "0", "--m", "0", "--j", "0", "--bogus", "1"],
         "error: unrecognized arguments: --bogus 1"),
        ([], "error: the following arguments are required: command"),
    ], ids=["half-integer", "int", "unknown-flag", "no-subcommand"])
    def test_refusal_is_one_error_line(self, capsys, argv, line):
        # no usage text before the line
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")


class TestJsonRender:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_refused(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cli._json_render({"rows": [1.0, bad]})

    def test_unsupported_object_refused(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            cli._json_render({"x": {1, 2}})


@pytest.mark.parametrize(
    "argv",
    [["verify-algebra"], ["spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"]],
    ids=["verify-algebra", "spectrum"],
)
def test_closed_stdout_exit_2_with_one_line(argv):
    # the reader closes stdout before the child writes anything
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "micz_su11.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
