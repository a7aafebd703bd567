"""su(1,1) ladder-operator verification toolkit for the generalized MICZ-Kepler problem.

Subpackages: exact quantum-number bookkeeping, Jacobi/Kummer special
functions, an exact differential-operator algebra kernel, closed-form
eigenfunctions, and an independent finite-difference eigensolver oracle.
"""

from .quantum_numbers import (
    HalfInt,
    InvalidLevel,
    InvalidQuantumNumbers,
    IrrepLabels,
    LevelLabels,
    MonopoleParams,
    SectorLabels,
    energy,
    irrep_labels,
    iter_valid_j,
    levels,
    m_plus,
    make_sector,
)
from .special_functions import (
    DegreeCapExceeded,
    JacobiParams,
    KummerParams,
    ParamOutOfRange,
    jacobi,
    jacobi_deriv,
    kummer_deriv,
    kummer_terminating,
)
from .operator_algebra import (
    FactorizationSolution,
    NoFactorization,
    NormalOrderedOperator,
    NumericOperator,
    ParamPoly,
    build_Ln,
    build_T3,
    build_Tpm,
    build_Tpm_n,
    casimir,
    commutator,
    compose,
    extra_identity_checks,
    generator_table,
    identity_suite,
    monomial_action,
    replace_K,
    solve_schrodinger_ansatz,
    substitute,
)
from .analytic_states import (
    AngularState,
    DomainError,
    RadialState,
    angular_Z,
    angular_residual,
    angular_state,
    chi,
    chi_d1,
    chi_d2,
    chi_dn,
    default_angular_mesh,
    radial_R,
    radial_state,
)
from .numeric_verify import (
    ConvergenceFailure,
    GridFunction,
    GridTooCoarse,
    GridUnderflow,
    RadialGrid,
    VerificationReport,
    apply_operator,
    eig_oracle,
    ladder_check,
    casimir_check,
    radial_equation_check,
    angular_residual_check,
    oracle_reports,
    spectrum_cross_check,
    t3_eigen_check,
    t3_spacing_check,
    verify_states_suite,
)

__version__ = "0.1.0"
