"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from micz_su11.analytic_states import (
    angular_residual,
    angular_state,
    chi,
    chi_dn,
    default_angular_mesh,
    radial_state,
)
from micz_su11.numeric_verify import (
    GridFunction,
    RadialGrid,
    apply_operator,
    casimir_check,
    eig_oracle,
    ladder_check,
    t3_eigen_check,
    t3_spacing_check,
)
from micz_su11.operator_algebra import (
    NormalOrderedOperator,
    ParamPoly,
    build_Ln,
    build_T3,
    build_Tpm,
    build_Tpm_n,
    commutator,
    compose,
    monomial_action,
    solve_schrodinger_ansatz,
    substitute,
)
from micz_su11.quantum_numbers import HalfInt, MonopoleParams, make_sector
from micz_su11.special_functions import JacobiParams, jacobi
from oracles import jacobi_series

H = HalfInt.parse

HYDROGEN = make_sector(MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("0"))
SHIFTED = make_sector(MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"))

GRIDS = {
    "hydrogen": RadialGrid(rmax=30.0, npoints=4000),
    "shifted": RadialGrid(rmax=36.0, npoints=4000),
}
SECTORS = {"hydrogen": HYDROGEN, "shifted": SHIFTED}


def criterion(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    t3 = build_T3()
    tp = build_Tpm(+1)
    tm = build_Tpm(-1)
    tpn = build_Tpm_n(+1)
    tmn = build_Tpm_n(-1)
    ln = build_Ln()
    one = NormalOrderedOperator.identity()
    J = ParamPoly.J()
    K = ParamPoly.K()
    diffs = [
        commutator(tp, tm) + 2 * t3,
        commutator(tp, t3) + tp,
        commutator(tm, t3) - tm,
        compose(tmn - one, tpn) - ln - (K * (K + 1)) * one,
        compose(tpn + one, tmn) - ln - (K * (K - 1)) * one,
        (-compose(tp, tm) + compose(t3, t3) - t3) - (J * (J + 1)) * one,
    ]
    all_zero = all(d.is_zero for d in diffs)
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        all_zero and elapsed < 1.0,
        f"six su(1,1)/factorization identities exactly zero, J and K symbolic "
        f"({elapsed * 1e3:.1f} ms < 1 s, zero tolerance)",
    )


def test_criterion_2_ansatz_recovery():
    J = ParamPoly.J()
    K = ParamPoly.K()
    jj1 = J * (J + 1)
    ln = build_Ln()
    sols = solve_schrodinger_ansatz(ln)
    ok = len(sols) == 2
    plus, minus = sols
    ok &= plus.branch == 1 and minus.branch == -1
    ok &= plus.a == 1 and plus.c == 1 and plus.b == -K - 1 and plus.f == -K
    ok &= plus.g == K * (K + 1) - jj1
    ok &= minus.a == -1 and minus.c == -1 and minus.b == K - 1 and minus.f == K
    ok &= minus.g == K * (K - 1) - jj1
    for sol in sols:
        ok &= sol.b == sol.f - 1
        ok &= sol.product() == ln + sol.offset() * NormalOrderedOperator.identity()
    criterion(2, bool(ok), "ansatz recovers exactly the two branches a=c=+-1, "
                           "b=f-1=-+K-1, g=K(K+-1)-J(J+1), verified by re-expansion")


def test_criterion_3_spectrum_cross_check():
    cases = [
        ("hydrogen", 0.0, RadialGrid(60.0, 6000), [-0.5, -0.125, -1.0 / 18.0]),
        ("shifted", 1.5, RadialGrid(150.0, 6000), [-0.08, -2.0 / 49.0]),
    ]
    worst = 0.0
    times = {}
    for name, J, grid, exact in cases:
        t0 = time.perf_counter()
        vals = eig_oracle(J, grid, len(exact))
        times[name] = time.perf_counter() - t0
        for got, want in zip(vals, exact):
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-4 and all(t < 10.0 for t in times.values())
    criterion(
        3,
        ok,
        f"FD oracle reproduces the analytic spectrum in both sectors "
        f"(worst rel err {worst:.2e} <= 1e-4; "
        f"{', '.join(f'{k}: {v:.2f} s' for k, v in times.items())} < 10 s each)",
    )


def test_criterion_4_t3_eigenvalue_and_K_recursion():
    worst_eigen = 0.0
    worst_spacing = 0.0
    for name, sector in SECTORS.items():
        grid = GRIDS[name]
        for i in range(1, 6):
            rep = t3_eigen_check(sector, sector.j + i, grid)
            worst_eigen = max(worst_eigen, rep.residual)
            if i < 5:
                spacing = t3_spacing_check(sector, sector.j + i, grid)
                worst_spacing = max(worst_spacing, spacing.residual)
    ok = worst_eigen <= 1e-8 and worst_spacing <= 1e-8
    criterion(
        4,
        ok,
        f"T3 chi = K chi to {worst_eigen:.2e} <= 1e-8 for n <= j+5 in both sectors; "
        f"eigenvalue spacing 1 within {worst_spacing:.2e} <= 1e-8",
    )


def test_criterion_5_ladder_action():
    worst_raise = 0.0
    worst_bottom = 0.0
    for name, sector in SECTORS.items():
        grid = GRIDS[name]
        for i in range(1, 6):
            rep = ladder_check(sector, sector.j + i, +1, grid)
            worst_raise = max(worst_raise, rep.residual)
        bottom = ladder_check(sector, sector.j + 1, -1, grid)
        assert bottom.check_name == "ladder_annihilation"
        worst_bottom = max(worst_bottom, bottom.residual)

    # hydrogen n=1: closed-form image; stored normalization chi = 2x e^-x
    # makes T+ chi = 4 x (x-1) e^-x
    grid = GRIDS["hydrogen"]
    state = radial_state(HYDROGEN, H("1"))
    f = GridFunction(grid, chi(state, grid.nodes))
    y = apply_operator(
        substitute(build_Tpm(+1), 0.0, 1.0),
        f,
        derivatives=lambda order: chi_dn(state, grid.nodes, order),
    )
    x = grid.nodes
    image = x * (x - 1.0) * np.exp(-x)
    pointwise = float(np.max(np.abs(y.values - 4.0 * image)))
    scale = max(1.0, float(np.max(np.abs(4.0 * image))))
    ok = worst_raise <= 1e-7 and worst_bottom <= 1e-8 and pointwise <= 1e-10 * scale
    criterion(
        5,
        ok,
        f"raise similarity defect {worst_raise:.2e} <= 1e-7; bottom annihilation "
        f"{worst_bottom:.2e} <= 1e-8; hydrogen n=1 image matches x(x-1)e^-x "
        f"pointwise to {pointwise / scale:.2e} <= 1e-10",
    )


def test_criterion_6_casimir_action():
    worst = 0.0
    for name, sector in SECTORS.items():
        grid = GRIDS[name]
        for i in range(1, 6):
            rep = casimir_check(sector, sector.j + i, grid)
            worst = max(worst, rep.residual)
    criterion(6, worst <= 1e-8, f"Casimir action equals J(J+1) chi to {worst:.2e} <= 1e-8 "
                                "on all tested levels in both sectors")


def test_criterion_7_angular_residual():
    thetas, phis = default_angular_mesh(200, 8)
    worst = 0.0
    params0 = MonopoleParams(H("0"), 0.0, 0.0)
    for j in range(4):
        for m in range(-j, j + 1):
            sec = make_sector(params0, HalfInt.from_int(m), HalfInt.from_int(j))
            worst = max(worst, angular_residual(angular_state(sec), thetas, phis))
    worst = max(worst, angular_residual(angular_state(SHIFTED), thetas, phis))
    anti = angular_residual(
        angular_state(SHIFTED), thetas, phis, sep_const=SHIFTED.sep_const + 1.0
    )
    ok = worst <= 1e-9 and anti >= 0.1
    criterion(
        7,
        ok,
        f"angular equation residual {worst:.2e} <= 1e-9 on the 200x8 mesh "
        f"(s=0 c=0 with j <= 3, and the shifted sector); perturbed separation "
        f"constant gives {anti:.2f} >= 0.1",
    )


def _random_poly(rng: random.Random) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(0, 2)):
        key = (rng.randint(0, 2), rng.randint(0, 2))
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ParamPoly(terms)


def _random_operator(rng: random.Random) -> NormalOrderedOperator:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(-2, 3), rng.randint(0, 3))
        terms[key] = _random_poly(rng)
    return NormalOrderedOperator(terms)


def test_criterion_8_property_suites():
    rng = random.Random(20260810)
    agree = 0
    total = 0
    for case in range(1000):
        a = _random_operator(rng)
        b = _random_operator(rng)
        if case % 10 < 3:
            # equal-by-construction pairs exercise the "equal" side of the oracle
            c = _random_operator(rng)
            if case % 3 == 0:
                lhs, rhs = compose(compose(a, b), c), compose(a, compose(b, c))
            elif case % 3 == 1:
                lhs, rhs = compose(a, b + c), compose(a, b) + compose(a, c)
            else:
                lhs, rhs = a + b, b + a
        else:
            lhs, rhs = a, b
        canon_eq = lhs == rhs
        diff = lhs - rhs
        action_eq = all(not monomial_action(diff, k) for k in range(-4, 13))
        total += 1
        agree += canon_eq == action_eq
    pairs_ok = agree == total == 1000

    jac_worst = 0.0
    for degree in range(21):
        for _ in range(8):
            a = rng.uniform(-0.9, 5.0)
            b = rng.uniform(-0.9, 5.0)
            z = rng.uniform(-1.0, 1.0)
            rec = jacobi(JacobiParams(degree, a, b), z)
            ser = jacobi_series(degree, a, b, z)
            sym = (-1.0) ** degree * jacobi(JacobiParams(degree, b, a), -z)
            scale = max(1.0, abs(rec), abs(ser))
            jac_worst = max(jac_worst, abs(rec - ser) / scale, abs(rec - sym) / scale)
    jac_ok = jac_worst <= 1e-10
    criterion(
        8,
        pairs_ok and jac_ok,
        f"monomial-action oracle agrees with canonical equality on {agree}/1000 "
        f"random operator pairs (k in [-4,12]); Jacobi symmetry and "
        f"recurrence-vs-series within {jac_worst:.2e} <= 1e-10 for degrees <= 20",
    )
