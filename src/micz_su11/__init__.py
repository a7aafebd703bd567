"""su(1,1) ladder-operator verification toolkit for the generalized MICZ-Kepler problem.

Subpackages: exact quantum-number bookkeeping, Jacobi/Kummer special
functions, an exact differential-operator algebra kernel, closed-form
eigenfunctions, an independent finite-difference eigensolver oracle
(`fd_oracle`) and the grid checks of the states (`numeric_verify`).

Exports are resolved lazily (PEP 562), so `import micz_su11` loads no
submodule and no numpy.  `_EXPORTS` maps each defining module to the names
the package re-exports from it; the first access to a name imports that
module, and the object is then cached in this module's globals, so
`micz_su11.X is micz_su11.<module>.X` and later lookups cost nothing.  The
submodules themselves (`micz_su11.numeric_verify`, ...) are attributes too.
Only `special_functions`, `analytic_states` and `numeric_verify` import numpy;
`fd_oracle` is standard-library code.
"""

import importlib

_EXPORTS = {
    "quantum_numbers": (
        "ConvergenceFailure",
        "GridUnderflow",
        "HalfInt",
        "InvalidLevel",
        "InvalidQuantumNumbers",
        "LevelLabels",
        "MonopoleParams",
        "SectorLabels",
        "energy",
        "levels",
        "m_plus",
        "make_sector",
    ),
    "special_functions": (
        "DegreeCapExceeded",
        "JacobiParams",
        "KummerParams",
        "ParamOutOfRange",
        "jacobi",
        "jacobi_deriv",
    ),
    "operator_algebra": (
        "FactorizationSolution",
        "NoFactorization",
        "NormalOrderedOperator",
        "ParamPoly",
        "build_Ln",
        "casimir",
        "commutator",
        "compose",
        "extra_identity_checks",
        "generator_table",
        "identity_suite",
        "monomial_action",
        "replace_K",
        "solve_schrodinger_ansatz",
    ),
    "analytic_states": (
        "AngularState",
        "DomainError",
        "RadialState",
        "angular_Z",
        "angular_residual",
        "angular_state",
        "radial_state",
    ),
    "fd_oracle": (
        "GridTooCoarse",
        "RadialGrid",
        "VerificationReport",
        "eig_oracle",
        "oracle_reports",
        "spectrum_cross_check",
    ),
    "numeric_verify": (
        "angular_residual_check",
        "verify_states_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
