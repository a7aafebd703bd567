"""The package namespace and the numpy-free start-up of the exact subcommands.

`micz_su11` resolves its exports lazily, so `import micz_su11` and the
`spectrum` and `verify-algebra` subcommands, whose results are exact or
closed-form, must not load numpy; nor must `oracle`, whose `fd_oracle`
module runs the Sturm bisection in plain floats.  The start-up tests run a
fresh interpreter each, because this process has long imported numpy.  So
does the check that the repo's pytest settings let a run go on past a
failing hypothesis test.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import micz_su11
from micz_su11 import fd_oracle, quantum_numbers

SRC = Path(micz_su11.__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# every name `micz_su11` exported when its __init__ imported all five modules, less
# IrrepLabels, irrep_labels, iter_valid_j, radial_R, chi_d1, chi_d2, default_angular_mesh and
# GridFunction (removed) and kummer_deriv, build_T3, build_Tpm, build_Tpm_n, apply_operator, substitute,
# NumericOperator, kummer_terminating, chi, chi_dn, ladder_check, casimir_check, radial_equation_check,
# t3_eigen_check and t3_spacing_check (moved to tests/oracles.py)
EXPORTED = """
    HalfInt InvalidLevel InvalidQuantumNumbers LevelLabels MonopoleParams SectorLabels energy
    levels m_plus make_sector
    DegreeCapExceeded JacobiParams KummerParams ParamOutOfRange jacobi jacobi_deriv
    FactorizationSolution NoFactorization NormalOrderedOperator ParamPoly build_Ln
    casimir commutator compose extra_identity_checks generator_table identity_suite
    monomial_action replace_K solve_schrodinger_ansatz
    AngularState DomainError RadialState angular_Z angular_residual angular_state radial_state
    ConvergenceFailure GridTooCoarse GridUnderflow RadialGrid VerificationReport
    eig_oracle angular_residual_check oracle_reports spectrum_cross_check verify_states_suite
""".split()
SUBMODULES = ["quantum_numbers", "special_functions", "operator_algebra", "analytic_states", "fd_oracle",
              "numeric_verify"]

# runs `python -m micz_su11.cli ARGS` and then prints whether numpy was loaded
CLI_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr))\n"
    "runpy.run_module('micz_su11.cli', run_name='__main__', alter_sys=True)\n"
)


# a failing @given test, then a passing one: a run must report both
GIVEN_PAIR = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


class TestNamespace:
    def test_exports_are_unchanged(self):
        assert sorted(micz_su11.__all__) == sorted(EXPORTED)

    @pytest.mark.parametrize("name", EXPORTED)
    def test_export_is_the_defining_module_object(self, name):
        obj = getattr(micz_su11, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.rsplit(".", 1)[-1] in SUBMODULES
        assert getattr(module, name) is obj
        assert vars(micz_su11)[name] is obj  # cached after the first access

    def test_star_import(self):
        namespace = {}
        exec("from micz_su11 import *", namespace)
        assert {name: namespace[name] for name in EXPORTED} == {name: getattr(micz_su11, name)
                                                               for name in EXPORTED}

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodules_are_attributes(self, name):
        assert getattr(micz_su11, name) is sys.modules[f"micz_su11.{name}"]

    def test_dir_lists_exports_and_submodules(self):
        assert set(EXPORTED) | set(SUBMODULES) <= set(dir(micz_su11))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            micz_su11.no_such_name  # noqa: B018
        assert not hasattr(micz_su11, "GridTooCoarser")

    def test_every_exported_function_has_a_caller_outside_the_tests(self):
        # names that only the tests use live in tests/oracles.py: each exported function is named
        # by an ast.Name or ast.Attribute in another src/ module or in bench/ (a string does not count)
        paths = [*(SRC / "micz_su11").glob("*.py"), *(ROOT / "bench").glob("*.py")]
        named = set()
        for path in paths:
            if path.name != "__init__.py" or path.parent.name != "micz_su11":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name):
                        named.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        named.add(node.attr)
        functions = [name for name in micz_su11.__all__ if inspect.isfunction(getattr(micz_su11, name))]
        assert functions
        assert [name for name in functions if name not in named] == []

    @pytest.mark.parametrize("name, base", [("ConvergenceFailure", RuntimeError), ("GridUnderflow", ValueError)])
    def test_moved_exceptions_keep_their_identity(self, name, base):
        cls = getattr(quantum_numbers, name)
        assert getattr(fd_oracle, name) is cls  # fd_oracle raises both
        assert getattr(micz_su11, name) is cls
        assert issubclass(cls, base)


class TestReadme:
    def test_library_example(self, capsys):
        section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        energy, casimir, ladder, expected = capsys.readouterr().out.splitlines()
        assert energy == "-0.08"
        assert casimir == "(J^2 + J)"
        passed, residual = ladder.split()
        # measured against the exact constant, the residual no longer rounds to 0
        assert passed == "True" and 0.0 < float(residual) <= 1e-7
        assert expected == "-5.0"


class TestStartWithoutNumpy:
    def test_import_package(self):
        proc = fresh_python("-c", "import sys, micz_su11; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_submodule_loads_on_first_access(self):
        # the package's __getattr__ imports a submodule that nothing has imported yet
        proc = fresh_python("-c", "import sys, micz_su11\n"
                                  "before = 'micz_su11.fd_oracle' in sys.modules or 'fd_oracle' in vars(micz_su11)\n"
                                  "print(before, micz_su11.fd_oracle is sys.modules['micz_su11.fd_oracle'], "
                                  "'numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True False\n"

    def test_spectrum(self):
        proc = fresh_python("-c", CLI_PROBE, "spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "spectrum-readme-hydrogen.stdout").read_text(encoding="utf-8")
        assert proc.stderr == "numpy loaded: False\n"

    def test_verify_algebra(self):
        proc = fresh_python("-c", CLI_PROBE, "verify-algebra", "--deg-check-max", "20")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "verify-algebra-readme.stdout").read_text(encoding="utf-8")
        assert proc.stderr == "numpy loaded: False\n"

    def test_spectrum_usage_error(self):
        proc = fresh_python("-c", CLI_PROBE, "spectrum", "--s", "0", "--m", "0", "--j", "0", "--c1", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: coupling c1 must be finite, got nan\nnumpy loaded: False\n"

    def test_fd_oracle_is_standard_library_code(self):
        # no import of numpy anywhere in the module, a lazy one inside a function included
        tree = ast.parse(Path(fd_oracle.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name == "numpy" or name.startswith("numpy.") for name in imported)
        proc = fresh_python("-c", "import sys\nfrom micz_su11.fd_oracle import RadialGrid, eig_oracle\n"
                                  "print(len(eig_oracle(0.0, RadialGrid(60.0, 600), 3)), 'numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3 False\n"

    @pytest.mark.parametrize(
        "golden, code, argv",
        [
            ("oracle-default-grid-csv", 1, ["--s", "0", "--m", "0", "--j", "0", "--nmax", "6"]),
            ("oracle-bigJ-csv", 0, ["--bigJ", "1.5", "--nmax", "2", "--rmax", "150", "--npoints", "6000"]),
        ],
        ids=["sector", "bigJ"],
    )
    def test_oracle(self, golden, code, argv):
        proc = fresh_python("-c", CLI_PROBE, "oracle", *argv)
        assert proc.returncode == code
        assert proc.stdout == (GOLDEN / f"{golden}.stdout").read_text(encoding="utf-8")
        assert proc.stderr == "numpy loaded: False\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bigJ", "1e160", "--rmax", "1e-100"],
             "J=1e+160 on a grid with h=1.666e-104 overflows the finite-difference matrix"),
            (["--bigJ", "0", "--rmax", "1e-170"],
             "the grid spacing h=1.666e-174 of rmax=1e-170 over 6000 points squares to zero; choose another --rmax"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_oracle_usage_error(self, argv, message):
        proc = fresh_python("-c", CLI_PROBE, "oracle", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\nnumpy loaded: False\n"


class TestPytestSettings:
    def test_a_failing_given_test_does_not_end_the_run(self, tmp_path):
        # where mypy_extensions is installed, the hypothesis plugin's report of a failure reads
        # its deprecated TypedDict; were that warning an error, pytest would stop (exit 3) there
        (tmp_path / "test_pair.py").write_text(GIVEN_PAIR, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "1 failed, 1 passed" in proc.stdout
