import functools
import itertools
import json
import math
import re
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ListMatrix,
    NumericOperator,
    StencilUnsupported,
    apply_operator,
    eig_oracle_full_sweep,
    fd_derivative,
    fd_derivatives,
    fd_matrix,
    fd_matrix_checked,
    fd_weights,
    gershgorin,
    locate_untruncated,
    sturm_count,
    states_suite_reference,
    sturm_count_full,
    substitute,
    suffix_min,
    tail_start,
)

from micz_su11 import cli, fd_oracle, numeric_verify, operator_algebra
from micz_su11.analytic_states import TowerSampler, chi, chi_dn, product_rule, radial_state
from micz_su11.fd_oracle import _FdMatrix, _bisect_eigenvalue, _sturm_count, oracle_grid
from micz_su11.numeric_verify import (
    ConvergenceFailure,
    GridTooCoarse,
    GridUnderflow,
    RadialGrid,
    _Level,
    _dot,
    _norm,
    _row_dots,
    angular_residual_check,
    casimir_check,
    eig_oracle,
    ladder_check,
    oracle_reports,
    radial_equation_check,
    spectrum_cross_check,
    t3_eigen_check,
    t3_spacing_check,
    verify_states_suite,
)
from micz_su11.operator_algebra import build_Ln, generator_table
from micz_su11.special_functions import KummerParams, KummerSweep, _kummer_deriv_scale, kummer_terminating
from micz_su11.quantum_numbers import (
    HalfInt,
    InvalidLevel,
    InvalidQuantumNumbers,
    MonopoleParams,
    make_sector,
    sector_inputs,
)

H = HalfInt.parse


@pytest.fixture(scope="module")
def hydrogen():
    return make_sector(MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("0"))


@pytest.fixture(scope="module")
def shifted():
    return make_sector(MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"))


@pytest.fixture(scope="module")
def xgrid():
    return RadialGrid(rmax=30.0, npoints=2500)


def sampled(sector, n, grid):
    state = radial_state(sector, n)
    f = chi(state, grid.nodes)

    def derivs(order):
        return chi_dn(state, grid.nodes, order)

    return state, f, derivs


class PerCallSampler(TowerSampler):
    """An uncached sampler: chi from a per-call `chi`, Kummer rows from fresh sweeps, w and x^e recomputed."""

    def chi(self, state):
        return chi(state, self.x)

    def row(self, p, l):
        return kummer_terminating(KummerParams(p.k - l, p.bparam + l), 2.0 * self.x)

    def power(self, e):
        return self.x ** e

    @property
    def w(self):
        return (2.0 * self.x) ** self.alpha * np.exp(-self.x)


class PerCallLevel(_Level):
    """An uncached level: it samples from a `PerCallSampler` of its own, whose own `images` runs on its pieces."""

    def __init__(self, sampler, n, grid):
        super().__init__(PerCallSampler(sampler.sector, grid.nodes), n, grid)


def level_of(sector, n, grid):
    """Level n of the tower of `sector` on `grid`, from a sampler of its own, as a check called alone builds it."""
    return _Level(TowerSampler(sector, grid.nodes), n, grid)


class TestGridTypes:
    def test_nodes_exclude_endpoints(self):
        g = RadialGrid(10.0, 19)
        assert g.h == 0.5
        assert g.nodes[0] == 0.5 and g.nodes[-1] == 9.5
        assert len(g.nodes) == 19

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(-1.0, 100)
        with pytest.raises(ValueError):
            RadialGrid(10.0, 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rmax_rejected(self, bad):
        with pytest.raises(ValueError, match="rmax must be positive and finite"):
            RadialGrid(bad, 100)

    def test_non_integral_npoints_rejected(self):
        # 6000.5 used to build 6001 nodes with h = 60/6001.5, the last one half a step short of rmax
        with pytest.raises(ValueError, match=r"^npoints must be an integer, got 6000\.5$"):
            RadialGrid(60.0, 6000.5)

    def test_numpy_integer_npoints_stored_as_int(self):
        g = RadialGrid(60.0, np.int64(6000))
        assert type(g.npoints) is int and g == RadialGrid(60.0, 6000)
        assert eig_oracle(0.0, g, 2) == eig_oracle(0.0, RadialGrid(60.0, 6000), 2)


class TestNorm:
    def test_weighting(self):
        g = RadialGrid(10.0, 99)
        assert _norm(g, np.ones(99)) == pytest.approx(math.sqrt(g.h * 99), rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        v = np.ones(20)
        v[7] = bad
        with pytest.raises(ValueError, match="^grid function contains non-finite entries$"):
            _norm(RadialGrid(10.0, 20), v)

    def test_squares_past_the_float_range_read_inf(self):
        # finite entries whose squares overflow: the norm reads inf and does
        # not raise (hydrogen j = 84 takes this path)
        v = np.full(20, 1e200)
        assert math.isinf(_norm(RadialGrid(10.0, 20), v))

    def test_overflowing_difference_raises_at_check_time(self, hydrogen, monkeypatch, capsys):
        # a finite T+ image whose (K + 1) T+ chi overflows: t3_eigen_check's
        # difference holds -inf, so its norm raises, and the CLI turns that
        # into exit 2 with one stderr line
        build = _Level.images.func

        def patched(level):
            images = dict(build(level))
            images["T+"] = images["T+"].copy()
            images["T+"][images["T+"].size // 2] = 1e308
            return MappingProxyType(images)

        prop = functools.cached_property(patched)
        prop.__set_name__(_Level, "images")
        monkeypatch.setattr(_Level, "images", prop)
        grid = RadialGrid(40.0, 1500)
        with np.errstate(over="ignore"):
            # the patched image alone is finite: its norm reads inf
            assert math.isinf(_norm(grid, level_of(hydrogen, H("2"), grid).images["T+"]))
            with pytest.raises(ValueError, match="^grid function contains non-finite entries$"):
                t3_eigen_check(hydrogen, H("2"), grid)
            code = cli.main(["verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: grid function contains non-finite entries\n"


class TestFdWeights:
    def test_second_derivative_five_point(self):
        w = fd_weights(range(-2, 3), 2)
        assert np.allclose(w, np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-12)

    def test_first_derivative_five_point(self):
        w = fd_weights(range(-2, 3), 1)
        assert np.allclose(w, np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-12)

    def test_smooth_function_accuracy(self):
        g = RadialGrid(6.0, 600)
        x = g.nodes
        d2 = fd_derivative(np.sin(x), g.h, 2)
        interior = slice(3, -3)
        assert np.max(np.abs(d2[interior] + np.sin(x)[interior])) <= 1e-8


class TestApplyOperator:
    def test_identity_returns_input(self, hydrogen, xgrid):
        from micz_su11.operator_algebra import NormalOrderedOperator

        _, f, derivs = sampled(hydrogen, H("1"), xgrid)
        numop = substitute(NormalOrderedOperator.identity(), 0.0, 1.0)
        out = apply_operator(numop, xgrid, f, derivatives=derivs)
        assert np.array_equal(out, f)

    def test_t3_eigen_action_analytic(self, hydrogen, xgrid):
        # T3 chi_{1,0} = 1 * chi_{1,0}
        _, f, derivs = sampled(hydrogen, H("1"), xgrid)
        y = apply_operator(substitute(generator_table()["T3"], 0.0, 1.0), xgrid, f, derivatives=derivs)
        assert np.max(np.abs(y - f)) <= 1e-8 * np.max(np.abs(f))

    def test_Ln_annihilates_hydrogen_ground_state(self, hydrogen, xgrid):
        _, f, derivs = sampled(hydrogen, H("1"), xgrid)
        y = apply_operator(substitute(build_Ln(), 0.0, 1.0), xgrid, f, derivatives=derivs)
        assert np.max(np.abs(y)) <= 1e-8 * np.max(np.abs(f))

    def test_fd_matches_analytic_for_second_order(self, shifted, xgrid):
        _, f, derivs = sampled(shifted, H("5/2"), xgrid)
        for op in (generator_table()["T3"], build_Ln(), generator_table()["T+"]):
            numop = substitute(op, shifted.bigJ, 2.5)
            exact = apply_operator(numop, xgrid, f, derivatives=derivs)
            fd = apply_operator(numop, xgrid, f, derivatives=fd_derivatives(xgrid, f))
            x = xgrid.nodes
            mask = (x >= 5 * xgrid.h) & (np.arange(len(x)) >= 2) & (np.arange(len(x)) < len(x) - 2)
            assert np.max(np.abs((exact - fd)[mask])) <= 1e-5

    def test_high_order_requires_callbacks(self, hydrogen, xgrid):
        from micz_su11.operator_algebra import NormalOrderedOperator

        _, f, derivs = sampled(hydrogen, H("1"), xgrid)
        numop = substitute(NormalOrderedOperator({(0, 5): 1}), 0.0, 1.0)
        with pytest.raises(TypeError):
            apply_operator(numop, xgrid, f)  # the derivative callback is required
        with pytest.raises(StencilUnsupported):
            apply_operator(numop, xgrid, f, derivatives=fd_derivatives(xgrid, f))
        apply_operator(numop, xgrid, f, derivatives=derivs)  # analytic path is fine

    def test_callback_asked_once_per_distinct_order(self, hydrogen, xgrid):
        from micz_su11.operator_algebra import NormalOrderedOperator

        _, f, derivs = sampled(hydrogen, H("1"), xgrid)
        asked = []

        def counting(order):
            asked.append(order)
            return derivs(order)

        terms = {(0, 0): 1, (1, 0): 2, (0, 2): 1, (2, 2): -1, (-1, 1): 3, (1, 4): 1, (2, 4): 1}
        apply_operator(substitute(NormalOrderedOperator(terms), 0.0, 1.0), xgrid, f, derivatives=counting)
        assert sorted(asked) == [1, 2, 4]
        asked.clear()
        apply_operator(substitute(NormalOrderedOperator({(0, 0): 1, (2, 0): 1}), 0.0, 1.0), xgrid, f,
                       derivatives=counting)
        assert asked == []


class TestEigOracle:
    def test_hydrogen_levels(self):
        grid = RadialGrid(60.0, 6000)
        vals = eig_oracle(0.0, grid, 3)
        exact = [-0.5, -0.125, -1.0 / 18.0]
        for got, want in zip(vals, exact):
            assert abs(got - want) / abs(want) <= 1e-4

    def test_shifted_sector_levels(self):
        grid = RadialGrid(150.0, 6000)
        vals = eig_oracle(1.5, grid, 2)
        exact = [-0.08, -2.0 / 49.0]
        for got, want in zip(vals, exact):
            assert abs(got - want) / abs(want) <= 1e-4

    def test_count_zero(self):
        assert eig_oracle(0.0, RadialGrid(20.0, 100), 0) == []

    def test_bisection_that_cannot_close_raises(self):
        # a bracket that straddles 0 never narrows to 1e-14 of its ends: 256 halvings leave 1e231
        with pytest.raises(ConvergenceFailure, match="bisection stalled for eigenvalue 0"):
            fd_oracle._bisect_cell(lambda lam, k: lam > 1e-300, 0, -1e308, 1e308)

    def test_input_validation(self):
        grid = RadialGrid(20.0, 100)
        with pytest.raises(ValueError):
            eig_oracle(-0.5, grid, 1)
        with pytest.raises(ValueError):
            eig_oracle(0.0, grid, 101)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            eig_oracle(0.0, RadialGrid(200.0, 16), 1)

    def test_against_dense_eigensolver(self):
        # independent route: same matrix through numpy's dense symmetric solver
        grid = RadialGrid(40.0, 300)
        r = grid.nodes
        h = grid.h
        diag = 1.0 / h**2 - 1.0 / r + 1.5 * 2.5 / (2.0 * r * r)
        mat = np.diag(diag) + np.diag(np.full(299, -1.0 / (2 * h * h)), 1) + np.diag(
            np.full(299, -1.0 / (2 * h * h)), -1
        )
        dense = np.sort(np.linalg.eigvalsh(mat))[:3]
        sturm = eig_oracle(1.5, grid, 3)
        assert np.max(np.abs(dense - np.array(sturm))) <= 1e-10

    def test_second_order_convergence(self):
        exact = -0.5
        errors = []
        for npoints in (500, 1000, 2000):
            val = eig_oracle(0.0, RadialGrid(40.0, npoints), 1)[0]
            errors.append(abs(val - exact))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] > 2.0
        assert errors[1] / errors[2] > 2.0


def _matrix_or_error(build, J, grid):
    """The float.hex of every entry, off and the bounds; or the type and message of the error."""
    try:
        diag, off, lo, hi = build(J, grid)
    except ValueError as exc:  # GridUnderflow and the overflow are both ValueErrors
        return type(exc), str(exc)
    return [v.hex() for v in diag], off.hex(), lo.hex(), hi.hex()


def _whole_matrix(J, grid):
    """`_FdMatrix` with every entry built: its diagonal, off-diagonal and bounds."""
    matrix = _FdMatrix(J, grid)
    return matrix.upto(grid.npoints), matrix.off, matrix.lo, matrix.hi


def _extremes_or_error(J, grid):
    """The float.hex of `_FdMatrix`'s bounds lo, hi, found with only the first entries built; or the error."""
    try:
        matrix = _FdMatrix(J, grid)
    except ValueError as exc:
        return type(exc), str(exc)
    assert len(matrix.values) == min(fd_oracle.DIAGONAL_GROWTH, grid.npoints)
    return matrix.lo.hex(), matrix.hi.hex()


def _full_scan_extremes_or_error(J, grid):
    """The float.hex of the bounds of the full list, `gershgorin` behind `fd_matrix_checked`; or the error."""
    result = _matrix_or_error(fd_matrix_checked, J, grid)
    return result[2:] if isinstance(result[0], list) else result


# a float spread over all binary exponents in [lo, hi]: mantissa in [0.5, 1)
def _log_floats(lo: int, hi: int):
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(lo, hi))


class TestFdMatrixPlainFloats:
    """`fd_oracle._FdMatrix` builds the diagonal without numpy, bit for bit the array expression."""

    @settings(max_examples=300, deadline=None)
    @given(
        J=st.one_of(st.sampled_from([0.0, 0.5, 1.5, 1e150]), st.floats(0.0, 1e150), _log_floats(-1074, 498)),
        # tiny rmax square h to zero or overflow 1/h^2 and J(J+1)/(2r^2); huge rmax overflows h^2
        rmax=st.one_of(st.floats(1.0, 1e4), _log_floats(-1000, 1023)),
        npoints=st.integers(16, 20000),
    )
    def test_matches_numpy_expression(self, J, rmax, npoints):
        grid = RadialGrid(rmax, npoints)
        assert _matrix_or_error(_whole_matrix, J, grid) == _matrix_or_error(fd_matrix_checked, J, grid)

    @pytest.mark.parametrize(
        "J, rmax, error",
        [(1e150, 1e-80, ValueError), (0.0, 1e-170, GridUnderflow), (0.0, 1e-152, ValueError), (2.0, 1e308, None)],
        ids=["J-term-overflows", "h-squared-underflows", "inverse-h-squared-overflows", "h-squared-overflows"],
    )
    def test_edge_grids_agree(self, J, rmax, error):
        grid = RadialGrid(rmax, 6000)
        got = _matrix_or_error(_whole_matrix, J, grid)
        assert got == _matrix_or_error(fd_matrix_checked, J, grid)
        assert got[0] is error if error else isinstance(got[0], list)

    @settings(max_examples=300, deadline=None)
    @given(
        J=st.sampled_from([0.0, 1e-300, 1.5, 39.7, 1e4, 1e150, 1e160]),
        rmax=st.one_of(st.floats(1e-100, 1e80), _log_floats(-332, 266)),
        npoints=st.integers(16, 20000),
    )
    def test_exact_extremes_without_the_list(self, J, rmax, npoints):
        grid = RadialGrid(rmax, npoints)
        assert _extremes_or_error(J, grid) == _full_scan_extremes_or_error(J, grid)

    @pytest.mark.parametrize("J", [0.0, 1e-300, 1.5, 39.7, 1e4, 1e150, 1e160])
    @pytest.mark.parametrize("rmax, npoints", [(1e80, 16), (1e-100, 16), (1e-100, 20000), (1e80, 20000), (60.0, 2000)],
                             ids=["subnormal-off-squared", "tiny-16", "tiny-20000", "huge-20000", "box"])
    def test_exact_extremes_on_edge_grids(self, J, rmax, npoints):
        grid = RadialGrid(rmax, npoints)
        assert _extremes_or_error(J, grid) == _full_scan_extremes_or_error(J, grid)


class TestSturmEarlyStop:
    """The early-stopping Sturm count against the full sweep it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        J=st.sampled_from([0.0, 1.5, 7.3]),
        npoints=st.integers(16, 6000),
        rmax=st.floats(5.0, 2000.0),
        data=st.data(),
    )
    def test_count_equals_full_sweep(self, J, npoints, rmax, data):
        grid = RadialGrid(rmax, npoints)
        diag, off = fd_matrix(J, grid)
        matrix = _FdMatrix(J, grid)
        lo, hi = gershgorin(diag, off)

        def count(lam):
            return sturm_count(matrix, lam)

        def exceeds(lam, k):
            return count(lam) > k

        k = data.draw(st.integers(0, min(9, npoints - 2)), label="k")
        ev_k = _bisect_eigenvalue(exceeds, k, lo, hi)
        ev_next = _bisect_eigenvalue(exceeds, k + 1, lo, hi)
        ev_0 = _bisect_eigenvalue(exceeds, 0, lo, hi)
        lams = [lo, hi, lo - 1.0, 0.0, -0.0, 0.5 * (ev_k + ev_next)]
        for ev in (ev_k, ev_next):
            lam = ev
            for _ in range(4):
                lam = math.nextafter(lam, -math.inf)
            for _ in range(9):
                lams.append(lam)
                lam = math.nextafter(lam, math.inf)
        lams.append(data.draw(st.floats(lo, ev_0), label="below_spectrum"))
        lams.append(data.draw(st.floats(ev_k, ev_next), label="gap"))
        lams.append(data.draw(st.floats(5e-324, abs(hi) + 1.0), label="positive"))
        for lam in lams:
            assert count(lam) == sturm_count_full(diag, off * off, lam), lam

    @pytest.mark.parametrize(
        "params, m, j, npoints, nmax",
        [
            (MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("0"), 6000, 10),
            (MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"), 6000, 10),
            # the largest solve of the oracle benchmark
            (MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"), 20000, 10),
            (MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"), 6000, 20),
            # J = 39.7, above the benchmark's sector pool
            (MonopoleParams(H("1"), 0.5, 0.0), H("1"), H("39"), 6000, 10),
            (MonopoleParams(H("1"), 0.5, 0.0), H("1"), H("39"), 6000, 20),
        ],
        ids=["hydrogen", "shifted", "shifted-20000", "shifted-nmax20", "J39.7", "J39.7-nmax20"],
    )
    def test_eig_oracle_bit_identical_at_nmax_10(self, params, m, j, npoints, nmax):
        bigJ = make_sector(params, m, j).bigJ
        grid = RadialGrid(12.0 * (bigJ + nmax) ** 2, npoints)
        assert eig_oracle(bigJ, grid, nmax) == eig_oracle_full_sweep(bigJ, grid, nmax)

    @pytest.mark.parametrize(
        "order",
        [list(range(14)), list(range(13, -1, -1)), [3, 3, 0, 7, 7, 2, 12, 1, 12, 5]],
        ids=["ascending", "descending", "repeated"],
    )
    def test_exceeds_matches_full_sweep_in_any_order(self, order):
        grid = RadialGrid(600.0, 3000)
        diag, off = fd_matrix(1.5, grid)
        matrix = _FdMatrix(1.5, grid)
        # below the spectrum, between bound levels, near zero and above it
        for lam in (matrix.lo, -0.1, -0.02, -0.0105, -1e-4, 0.0, 0.05, matrix.hi):
            full = sturm_count_full(diag, off * off, lam)
            for k in [*order, *range(full + 2)]:
                # the count passes k as the full one does, and stops right there
                assert _sturm_count(matrix, lam, k) == (k + 1 if full > k else full), (lam, k)

    def test_exceeds_stops_once_the_count_passes_k(self):
        matrix = _FdMatrix(0.0, RadialGrid(1200.0, 6000))
        lam = -0.5 / 16.0 + 1e-3  # between levels 3 and 4: four eigenvalues below
        assert [_sturm_count(matrix, lam, k) for k in (0, 2, 4)] == [1, 3, 4]

    def test_zero_first_pivot_takes_the_guard(self):
        grid = RadialGrid(60.0, 2000)
        diag, off = fd_matrix(0.0, grid)
        matrix = _FdMatrix(0.0, grid)
        lam = diag[0]
        assert diag[0] - lam == 0.0
        full = sturm_count_full(diag, off * off, lam)
        for k in range(full + 2):
            assert (_sturm_count(matrix, lam, k) > k) == (full > k), k
        assert sturm_count(matrix, lam) == full

    @pytest.mark.parametrize(
        "diag, off, zero_at, tail",
        [
            # b = 4 and lam = 0: q_0 = 1 and q_1 = 16 - 16/1 = 0, before the tail start
            ([1.0, 16.0, 3.0, 7.0, *[9.0] * 60], -4.0, 1, 4),
            # b = 1: q_0 = 1/4 and q_1 = 4 - 1/(1/4) = 0, at the tail start
            ([0.25, 4.0, *[3.0] * 60], -1.0, 1, 1),
            # b = 1: the pivot stays at the fixed point 1/4 = 17/4 - 1/(1/4) < b, so
            # the sweep runs on from the tail start into its second chunk, where
            # d = 4 makes the pivot zero
            ([0.25, *[4.25] * 44, 4.0, *[4.25] * 40], -1.0, 1 + fd_oracle.DIAGONAL_BLOCK + 12, 1),
        ],
        ids=["head", "at-the-tail-start", "past-the-first-tail-chunk"],
    )
    def test_zero_pivot_past_node_zero_takes_the_guard(self, diag, off, zero_at, tail):
        q, pivots = diag[0], [diag[0]]
        for d in diag[1:]:
            q = d - off * off / (q if q != 0.0 else 1e-300)
            pivots.append(q)
        assert pivots.index(0.0) == zero_at
        matrix = ListMatrix(diag, off)
        assert matrix.certified_tail(0.0) == tail
        full = sturm_count_full(diag, off * off, 0.0)
        assert full == 1  # the pivot after the zero one, -1e300 and below
        for k in range(full + 2):
            assert _sturm_count(matrix, 0.0, k) == (k + 1 if full > k else full), k
        assert sturm_count(matrix, 0.0) == full

    def test_sweep_skips_the_forbidden_tail(self):
        # a negative diagonal entry deep in the tail adds a negative pivot to
        # the full sweep; the early stop never reaches it
        grid = RadialGrid(1200.0, 6000)
        diag, off = fd_matrix(0.0, grid)
        matrix = _FdMatrix(0.0, grid)
        lam = -0.5 / 9.0 - 1e-3  # between levels 2 and 3, turning point near r = 17.7
        diag[3000] = matrix.upto(grid.npoints)[3000] = -1e6
        assert sturm_count_full(diag, off * off, lam) == 3
        assert sturm_count(matrix, lam) == 2

    def test_subnormal_off_diagonal_keeps_the_full_sweep(self):
        # h = 6e78 makes off^2 subnormal; the early-stop bound needs it normal
        grid = RadialGrid(1e80, 16)
        diag, off = fd_matrix(1e150, grid)
        matrix = _FdMatrix(1e150, grid)
        assert 0.0 < off * off < sys.float_info.min
        lo, hi = matrix.lo, matrix.hi
        lams = [lo + (hi - lo) * i / 64.0 for i in range(65)] + [-1e-158, 0.0, 1e-158]
        for lam in lams:
            assert sturm_count(matrix, lam) == sturm_count_full(diag, off * off, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_or_overflowing_J_rejected(self, bad):
        with pytest.raises(ValueError):
            eig_oracle(bad, RadialGrid(100.0, 6000), 2)


class TestTailStart:
    """`_FdMatrix`'s suffix-minimum floors and tail starts against the full list's (`tail_start` in oracles)."""

    def test_hydrogen_diagonal_is_one_nondecreasing_run(self):
        grid = RadialGrid(1200.0, 6000)
        diag, off = fd_matrix(0.0, grid)
        matrix = _FdMatrix(0.0, grid)
        assert diag == sorted(diag)
        self._assert_floors_bound(matrix, diag)
        for lam in (matrix.lo, -0.5, -0.125, -0.5 / 81.0, -1e-6, 0.0, matrix.hi):
            assert matrix.tail_start(lam) == tail_start(diag, off, lam) <= matrix.certified_tail(lam), lam

    def test_diagonal_with_its_dip(self):
        # J = 39.7: the centrifugal term makes the diagonal fall to the well's floor, then rise
        grid = RadialGrid(12.0 * 49.7 ** 2, 6000)
        diag, off = fd_matrix(39.707106781186546, grid)
        p = diag.index(min(diag))
        assert 0 < p < len(diag) - 1 and diag[:p + 1] == sorted(diag[:p + 1], reverse=True)
        matrix = _FdMatrix(39.707106781186546, grid)
        self._assert_floors_bound(matrix, diag)
        # below the floor of the well, at it and above it
        for lam in (matrix.lo, diag[p] - 2.0 * abs(off), -5e-4, -3e-4, -1e-5, 0.0, matrix.hi):
            assert matrix.tail_start(lam) == tail_start(diag, off, lam) <= matrix.certified_tail(lam), lam

    @staticmethod
    def _assert_floors_bound(matrix, diag):
        floors, least = matrix._floors, suffix_min(diag)
        assert len(floors) == math.ceil((len(diag) - 1) / fd_oracle.DIAGONAL_BLOCK) and floors == sorted(floors)
        assert all(f <= least[k * fd_oracle.DIAGONAL_BLOCK] for k, f in enumerate(floors))

    @settings(max_examples=100, deadline=None)
    @given(
        J=st.sampled_from([0.0, 1.5, 7.3, 39.707106781186546, 1e4]),
        npoints=st.integers(16, 6000),
        stretch=st.floats(0.01, 4.0),
        data=st.data(),
    )
    def test_tail_start_node_for_node(self, J, npoints, stretch, data):
        grid = RadialGrid(stretch * 12.0 * (J + 10.0) ** 2, npoints)
        diag, off = fd_matrix(J, grid)
        matrix = _FdMatrix(J, grid)
        lam = data.draw(st.one_of(st.floats(matrix.lo, matrix.hi), st.floats(-0.5 / (J + 1.0) ** 2, 0.0)),
                        label="lam")
        assert matrix.tail_start(lam) == tail_start(diag, off, lam) <= matrix.certified_tail(lam)


def _near(ev: float):
    """lam within a few ulps, or within 1e-12 relative, of ev."""
    def ulps(n):
        lam = ev
        for _ in range(abs(n)):
            lam = math.nextafter(lam, math.copysign(math.inf, n))
        return lam

    return st.one_of(st.integers(-16, 16).map(ulps), st.floats(-1e-12, 1e-12).map(lambda rel: ev * (1.0 + rel)))


class TestSturmMonotone:
    """The computed Sturm count is nondecreasing in lam (Kahan 1966), which `eig_oracle` relies on."""

    SECTORS = [
        (MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("0")),
        (MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2")),
        (MonopoleParams(H("1"), 2.0, 0.5), H("-1"), H("2")),
        (MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("12")),
        (MonopoleParams(H("1"), 0.5, 0.0), H("1"), H("39")),
    ]

    @settings(max_examples=60, deadline=None)
    @given(sector=st.sampled_from(SECTORS), nmax=st.integers(1, 12), stretch=st.floats(0.5, 2.0), data=st.data())
    def test_count_is_monotone_near_each_eigenvalue(self, sector, nmax, stretch, data):
        J = make_sector(*sector).bigJ
        rmax = stretch * 12.0 * (J + nmax) ** 2
        # no coarser than eig_oracle accepts
        fine = math.ceil(rmax * fd_oracle.MIN_NODES_PER_WAVELENGTH / (2.0 * math.pi * (J + 1.0)))
        grid = RadialGrid(rmax, data.draw(st.integers(max(200, fine), 6000), label="npoints"))
        ev = eig_oracle(J, grid, nmax)[data.draw(st.integers(0, nmax - 1), label="k")]
        lams = sorted(set(data.draw(st.lists(_near(ev), min_size=2, max_size=10), label="lams")))
        diag, off = fd_matrix(J, grid)
        matrix = _FdMatrix(J, grid)
        full = [sturm_count_full(diag, off * off, lam) for lam in lams]
        early = [sturm_count(matrix, lam) for lam in lams]
        assert full == sorted(full), lams
        assert early == sorted(early), lams


ORACLE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "eig-oracle-float-hex.json").read_text())


class TestOnDemandDiagonal:
    """`eig_oracle` keeps every eigenvalue bit for bit and builds only the part of the diagonal it reaches."""

    @pytest.mark.parametrize("call", ORACLE_GOLDEN, ids=[call["id"] for call in ORACLE_GOLDEN])
    def test_eigenvalues_match_the_golden_float_hex(self, call):
        # one sector per J stratum of the benchmark's pool at nmax 10 on
        # oracle_grid, two 20000-point solves, a box and J = 39.7; the golden
        # was written by the full-list diagonal that `_FdMatrix` replaced
        grid = RadialGrid(float.fromhex(call["rmax"]), call["npoints"])
        evs = eig_oracle(float.fromhex(call["J"]), grid, call["count"])
        assert [ev.hex() for ev in evs] == call["eigenvalues"]

    @pytest.mark.parametrize("J", [0.0, 1.5, 39.707106781186546], ids=["hydrogen", "shifted", "J39.7"])
    def test_builds_well_under_the_whole_diagonal(self, monkeypatch, J):
        # measured: 2516, 2532 and 1600 entries of 6000 (block refinement
        # included); the bound leaves about 18% above the largest
        built = Counter()

        def entries(matrix, s, e):
            built["entries"] += e - s
            return real_entries(matrix, s, e)

        real_entries = _FdMatrix._entries
        monkeypatch.setattr(_FdMatrix, "_entries", entries)
        grid = oracle_grid(J + 10.0, None, None)
        eig_oracle(J, grid, 10)
        assert 0 < built["entries"] <= grid.npoints // 2


class TestCertifiedBracket:
    """Midpoints outside a certified bracket take no sweep; the locator's guess cannot change a result."""

    CASES = [(0.0, 10, 6000), (1.5, 10, 6000), (39.707106781186546, 6, 6000), (2.5, 4, 800)]

    @staticmethod
    def _grid(J, nmax, npoints):
        return RadialGrid(12.0 * (J + nmax) ** 2, npoints)

    @pytest.mark.parametrize("guess", ["nan", "neighbour", "above", "below", "exact"])
    @pytest.mark.parametrize("J, nmax, npoints", CASES, ids=["hydrogen", "shifted", "J39.7", "coarse"])
    def test_wrong_guess_keeps_every_eigenvalue(self, monkeypatch, J, nmax, npoints, guess):
        grid = self._grid(J, nmax, npoints)
        ref = eig_oracle_full_sweep(J, grid, nmax + 1)
        brackets = []

        def locate(matrix, a, b):
            brackets.append((a, b))
            k = min(range(nmax), key=lambda i: abs(ref[i] - 0.5 * (a + b)))
            return {
                "nan": (math.nan, math.nan),
                "neighbour": (ref[k + 1], 0.0),
                "above": (b + (b - a), 0.0),
                "below": (a - (b - a), 1e-3 * (b - a)),
                "exact": (ref[k], 0.0),
            }[guess]

        monkeypatch.setattr(fd_oracle, "_locate", locate)
        assert eig_oracle(J, grid, nmax) == ref[:nmax]
        assert len(brackets) == nmax and all(b < 0.0 and b - a < fd_oracle.LOCATE_WIDTH * -b for a, b in brackets)

    @pytest.mark.parametrize("J, nmax, npoints", CASES, ids=["hydrogen", "shifted", "J39.7", "coarse"])
    def test_guess_lies_within_the_certified_window(self, J, nmax, npoints):
        grid = self._grid(J, nmax, npoints)
        matrix = _FdMatrix(J, grid)
        for ev in eig_oracle_full_sweep(J, grid, nmax):
            a, b = ev * (1.0 + 4e-3), ev * (1.0 - 4e-3)
            theta, step = fd_oracle._locate(matrix, a, b)
            # the window, plus the resolution of the bisection that gave ev
            window = max(2.0 * step, 2.0 * fd_oracle.LOCATE_FLOOR * max(1.0, abs(theta)))
            assert abs(theta - ev) <= window + 1e-14 * max(1.0, abs(ev)), ev

    @pytest.mark.parametrize("J, rmax, npoints", [(0.0, 20.0, 40), (2.5, 400.0, 300)])
    def test_every_eigenvalue_of_a_small_grid(self, J, rmax, npoints):
        # bound states, the continuum and the top of the spectrum
        grid = RadialGrid(rmax, npoints)
        assert eig_oracle(J, grid, npoints) == eig_oracle_full_sweep(J, grid, npoints)

    @pytest.mark.parametrize("J, nmax, npoints", CASES[:3], ids=["hydrogen", "shifted", "J39.7"])
    def test_strided_walk_ends_just_past_the_node_by_node_end(self, J, nmax, npoints):
        grid = self._grid(J, nmax, npoints)
        diag, off = fd_matrix(J, grid)
        matrix, b = _FdMatrix(J, grid), abs(off)
        for theta in eig_oracle_full_sweep(J, grid, nmax):
            t = tail_start(diag, off, theta)
            kappa = [math.acosh((d - theta) / (2.0 * b)) for d in diag[t:]]
            M = fd_oracle._dirichlet_end(matrix, t, theta)
            sums = list(itertools.accumulate(kappa))
            node_end = t + 1 + next(i for i, e in enumerate(sums) if e >= fd_oracle.LOCATE_EFOLDS)
            assert sums[M - t - 1] >= fd_oracle.LOCATE_EFOLDS or M == len(diag), theta
            assert node_end <= M < node_end + fd_oracle.LOCATE_STRIDE, theta

    @staticmethod
    def _guess_and_reference(matrix, diag, k, a, b):
        """`_locate`'s guess, the untruncated twisted factorization's, and the walk's final cell width.

        The twist is the one `_locate` takes, from the tail start of the whole list.
        """
        theta, _ = fd_oracle._locate(matrix, a, b)
        m = int(fd_oracle.LOCATE_TWIST * tail_start(diag, matrix.off, 0.5 * (a + b)))
        cell = fd_oracle._bisect_cell(lambda lam, k: sturm_count(matrix, lam) > k, k, matrix.lo, matrix.hi)
        return theta, locate_untruncated(diag, matrix.off, m, a, b), cell[1] - cell[0]

    @pytest.mark.parametrize("J, nmax, npoints", [*CASES[:3], (0.0, 10, 20000)],
                             ids=["hydrogen", "shifted", "J39.7", "hydrogen-20000"])
    def test_decaying_tail_start_matches_the_untruncated_guess(self, J, nmax, npoints):
        # the backward pivots start on the decaying tail LOCATE_EFOLDS e-folds
        # past the tail start, not at the last node; at 20000 points 11 e-folds
        # put the guess up to 4 cell widths off
        grid = self._grid(J, nmax, npoints)
        diag, off = fd_matrix(J, grid)
        matrix = _FdMatrix(J, grid)
        for k, ev in enumerate(eig_oracle_full_sweep(J, grid, nmax)):
            t = tail_start(diag, off, ev)
            assert fd_oracle._dirichlet_end(matrix, t, ev) < len(diag), ev
            a, b = ev * (1.0 + 4e-3), ev * (1.0 - 4e-3)
            theta, untruncated, width = self._guess_and_reference(matrix, diag, k, a, b)
            assert abs(theta - untruncated) <= width, ev

    def test_walk_to_the_last_node_keeps_the_dirichlet_start(self):
        # levels 6 to 8 of a box of radius 200 decay too slowly to reach
        # LOCATE_EFOLDS before the wall, whose Dirichlet condition is the
        # matrix's own; a decaying-tail start there would move the guess
        grid = RadialGrid(200.0, 2000)
        diag, off = fd_matrix(0.0, grid)
        matrix = _FdMatrix(0.0, grid)
        evs = eig_oracle_full_sweep(0.0, grid, 9)
        for k in (6, 7, 8):
            t = tail_start(diag, off, evs[k])
            assert t < len(diag) and fd_oracle._dirichlet_end(matrix, t, evs[k]) == len(diag)
            a, b = evs[k] * (1.0 + 1e-4), evs[k] * (1.0 - 1e-4)
            theta, untruncated, width = self._guess_and_reference(matrix, diag, k, a, b)
            assert abs(theta - untruncated) <= width, evs[k]

    def test_tail_start_below_the_coupling_falls_back(self):
        # the secant's second point lies so far above the level that
        # d_(M-1) - lam < 2 |off|: the decaying tail has no fixed point there
        grid = self._grid(0.0, 10, 6000)
        diag, off = fd_matrix(0.0, grid)
        matrix = _FdMatrix(0.0, grid)
        ev = eig_oracle_full_sweep(0.0, grid, 3)[2]
        a, b = ev - 1.0, ev + 1.0
        M = fd_oracle._dirichlet_end(matrix, tail_start(diag, off, ev), ev)
        assert M < len(diag) and diag[M - 1] - b < 2.0 * abs(off)
        theta, step = fd_oracle._locate(matrix, a, b)
        assert isinstance(theta, float) and isinstance(step, float)
        assert math.isfinite(theta) or math.isnan(theta)

    def test_bracket_below_the_spectrum_has_no_twist(self):
        # below every diagonal entry the tail starts at node 0, so the twist falls before node 1
        matrix = _FdMatrix(0.0, self._grid(0.0, 3, 600))
        a, b = matrix.lo - 2.0, matrix.lo - 1.0
        assert matrix.tail_start(0.5 * (a + b)) == 0
        theta, step = fd_oracle._locate(matrix, a, b)
        assert math.isnan(theta) and math.isnan(step)

    def test_zero_pivot_gives_no_guess(self):
        # at lam = 0 the forward pivots are q_0 = 1 and q_1 = 16 - 16/1 = 0, inside
        # the twist m = 3 of the tail start 4, whose backward end lies past m + 1
        matrix = ListMatrix([1.0, 16.0, 3.0, 7.0, *[9.0] * 60], -4.0)
        a, b = 0.0, 1e-3
        t = matrix.tail_start(0.5 * (a + b))
        assert (t, int(fd_oracle.LOCATE_TWIST * t)) == (4, 3)
        assert fd_oracle._dirichlet_end(matrix, t, 0.5 * (a + b)) >= 5
        theta, step = fd_oracle._locate(matrix, a, b)
        assert math.isnan(theta) and math.isnan(step)

    @pytest.mark.parametrize("J, nmax, npoints", CASES, ids=["hydrogen", "shifted", "J39.7", "coarse"])
    def test_guess_in_the_final_cell_takes_two_sweeps(self, monkeypatch, J, nmax, npoints):
        grid = self._grid(J, nmax, npoints)
        matrix = _FdMatrix(J, grid)
        cells = [fd_oracle._bisect_cell(lambda lam, k: _sturm_count(matrix, lam, k) > k, k, matrix.lo, matrix.hi)
                 for k in range(nmax)]
        sweeps, at_locate = Counter(), []

        def counted(matrix, lam, k):
            sweeps[k] += 1
            return _sturm_count(matrix, lam, k)

        def locate(*args):
            # the i-th call belongs to eigenvalue i; the cell's lower end
            # decides every midpoint of the walk as its count does
            k = len(at_locate)
            at_locate.append(sweeps[k])
            return cells[k][0], 0.0

        monkeypatch.setattr(fd_oracle, "_sturm_count", counted)
        monkeypatch.setattr(fd_oracle, "_locate", locate)
        assert eig_oracle(J, grid, nmax) == [cell[2] for cell in cells]
        # the predicted levels take no sweep before the guess, and none after the cell's two
        assert at_locate[1:] == [0] * (nmax - 1)
        assert [sweeps[k] - at_locate[k] for k in range(nmax)] == [2] * nmax

    @staticmethod
    def _count_sweeps(monkeypatch) -> Counter:
        """A Counter whose "sweeps" counts the `_sturm_count` calls made from now on."""
        made = Counter()

        def counted(*args):
            made["sweeps"] += 1
            return _sturm_count(*args)

        monkeypatch.setattr(fd_oracle, "_sturm_count", counted)
        return made

    def test_locator_saves_most_sweeps(self, monkeypatch):
        grid = self._grid(1.5, 10, 6000)
        made = self._count_sweeps(monkeypatch)
        located = eig_oracle(1.5, grid, 10)
        with_locator = made.pop("sweeps")
        monkeypatch.setattr(fd_oracle, "_locate", lambda *args: (math.nan, math.nan))
        assert eig_oracle(1.5, grid, 10) == located
        assert 2 * with_locator < made["sweeps"]

    @pytest.mark.parametrize("prediction", ["nan", "positive", "next", "miss"])
    @pytest.mark.parametrize("J, nmax, npoints", CASES, ids=["hydrogen", "shifted", "J39.7", "coarse"])
    def test_wrong_prediction_keeps_every_eigenvalue(self, monkeypatch, J, nmax, npoints, prediction):
        grid = self._grid(J, nmax, npoints)
        ref = eig_oracle_full_sweep(J, grid, nmax + 1)
        real_bisect, real_locate = fd_oracle._bisect_eigenvalue, fd_oracle._locate
        finished, located, predicted = [0], Counter(), []

        def predict(found):
            k = len(found)
            predicted.append(k)
            return {"nan": math.nan, "positive": 1e-3, "next": ref[k + 1], "miss": ref[k] * (1.0 + 1e-3)}[prediction]

        def bisect_eigenvalue(*args):
            ev = real_bisect(*args)
            finished[0] += 1
            return ev

        def locate(*args):
            # a call before eigenvalue k is bisected belongs to eigenvalue k
            located[finished[0]] += 1
            return real_locate(*args)

        monkeypatch.setattr(fd_oracle, "_predict", predict)
        monkeypatch.setattr(fd_oracle, "_bisect_eigenvalue", bisect_eigenvalue)
        monkeypatch.setattr(fd_oracle, "_locate", locate)
        assert eig_oracle(J, grid, nmax) == ref[:nmax]
        assert max(located.values()) == 1
        if prediction != "miss":
            # nan and a positive value are not tried; the next level never
            # certifies, and no level after it is predicted
            assert predicted == ([0] if prediction == "next" else list(range(nmax)))

    @pytest.mark.parametrize("J", [0.0, 1.5, 39.707106781186546], ids=["hydrogen", "shifted", "J39.7"])
    def test_predicted_levels_take_few_sweeps(self, monkeypatch, J):
        made = self._count_sweeps(monkeypatch)
        eig_oracle(J, self._grid(J, 10, 6000), 10)
        assert made["sweeps"] <= 44

    def test_prediction_costs_no_sweeps_in_a_box(self, monkeypatch):
        # high levels feel the box and break the quantum-defect law
        grid = RadialGrid(200.0, 2000)
        made = self._count_sweeps(monkeypatch)
        predicted = eig_oracle(0.0, grid, 60)
        with_prediction = made.pop("sweeps")
        monkeypatch.setattr(fd_oracle, "_predict", lambda found: math.nan)
        assert eig_oracle(0.0, grid, 60) == predicted
        assert with_prediction <= made["sweeps"]

    def test_prediction_follows_a_constant_quantum_defect(self):
        nus = [3.3 + k for k in range(4)]
        levels = [-0.5 / (nu * nu) for nu in nus]
        assert fd_oracle._predict(levels[:1]) == pytest.approx(levels[1], rel=1e-14)
        assert fd_oracle._predict(levels[:3]) == pytest.approx(levels[3], rel=1e-14)
        assert math.isnan(fd_oracle._predict([]))
        assert math.isnan(fd_oracle._predict([levels[0], 0.0]))
        assert math.isnan(fd_oracle._predict([levels[0], 1e-3]))


def inject_image(monkeypatch, n, name, fault):
    """Make each level n the checks build hold fault(image) as its image `name`, as if its build had made it."""
    build = _Level.images.func

    class FaultyLevel(_Level):
        @functools.cached_property
        def images(self):
            images = dict(build(self))
            if self.state.level.n == n:
                images[name] = fault(images[name])
            return MappingProxyType(images)

    monkeypatch.setattr(numeric_verify, "_Level", FaultyLevel)


class TestLadder:
    def test_hydrogen_raise_closed_form(self, hydrogen, xgrid):
        # T+ chi_{1,0} = 4 x (x-1) e^{-x} with the stored normalization
        state, f, derivs = sampled(hydrogen, H("1"), xgrid)
        y = apply_operator(substitute(generator_table()["T+"], 0.0, 1.0), xgrid, f, derivatives=derivs)
        x = xgrid.nodes
        image = 4.0 * x * (x - 1.0) * np.exp(-x)
        assert np.max(np.abs(y - image)) <= 1e-10 * max(1.0, np.max(np.abs(image)))
        rep = ladder_check(hydrogen, H("1"), +1, xgrid)
        assert rep.check_name == "ladder_raise"
        assert rep.residual <= 1e-8
        assert rep.passed

    def test_hydrogen_bottom_annihilation(self, hydrogen, xgrid):
        rep = ladder_check(hydrogen, H("1"), -1, xgrid)
        assert rep.check_name == "ladder_annihilation"
        assert rep.residual <= 1e-10
        assert rep.passed

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_shifted_sector_raise(self, shifted, xgrid, i):
        rep = ladder_check(shifted, shifted.j + i, +1, xgrid)
        assert rep.residual <= 1e-7 and rep.passed
        assert "proportionality_ratio" in rep.details

    def test_shifted_sector_lower(self, shifted, xgrid):
        rep = ladder_check(shifted, H("5/2"), -1, xgrid)
        assert rep.check_name == "ladder_lower"
        assert rep.residual <= 1e-7 and rep.passed

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", ["hydrogen", "shifted"])
    def test_against_the_exact_ladder_constant(self, name, sign, xgrid, request):
        # T+ chi_k = -(k + 2J + 2) chi_(k+1) and T- chi_k = -k chi_(k-1), k = n - j - 1
        sector = request.getfixturevalue(name)
        k = 2
        rep = ladder_check(sector, sector.j + 1 + k, sign, xgrid)
        expected = -(k + 2.0 * sector.bigJ + 2.0) if sign == 1 else -float(k)
        assert rep.details["expected_ratio"] == expected
        assert rep.details["proportionality_ratio"] == pytest.approx(expected, rel=1e-13)
        assert rep.residual <= 1e-13 and rep.passed

    def test_image_norm_past_the_float_range(self):
        # at j = 84 ||T+ chi_85|| overflows; the residual is still measured
        # (it read 1.0 through an overflowed overlap, and 0.0 from ||y|| = inf)
        sector = make_sector(MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("84"))
        grid = numeric_verify.states_grid(sector, 3, None, None)
        with np.errstate(over="ignore"):
            assert math.isinf(_norm(grid, level_of(sector, H("85"), grid).images["T+"]))
            rep = ladder_check(sector, H("85"), +1, grid)
        assert 0.0 < rep.residual <= 1e-13 and rep.passed

    def test_scaled_raise_image_fails(self, shifted, xgrid, monkeypatch):
        # ||y - c t||/||y|| is linear in the error: a T+ image 1e-6 too large
        # reads 1e-6, ten times the tolerance (1 - |cos| read 0 here)
        n = shifted.j + 2
        inject_image(monkeypatch, n, "T+", lambda y: y * (1.0 + 1e-6))
        rep = ladder_check(shifted, n, +1, xgrid)
        assert rep.residual == pytest.approx(1e-6, rel=1e-3)
        assert not rep.passed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_injected_error_fails(self, shifted, xgrid, sign, monkeypatch):
        # an error of 1e-5 relative along another level's state
        n = shifted.j + 3
        name = "T+" if sign == 1 else "T-"
        g = level_of(shifted, n + 3, xgrid).chi
        inject_image(monkeypatch, n, name, lambda y: y + 1e-5 * _norm(xgrid, y) / _norm(xgrid, g) * g)
        rep = ladder_check(shifted, n, sign, xgrid)
        assert rep.residual == pytest.approx(1e-5, rel=1e-3)
        assert not rep.passed

    def test_below_bottom_rejected(self, shifted, xgrid):
        with pytest.raises(InvalidLevel):
            ladder_check(shifted, H("1/2"), -1, xgrid)

    def test_zero_sign_rejected(self, shifted, xgrid):
        with pytest.raises(ValueError, match="sign must be"):
            ladder_check(shifted, H("3/2"), 0, xgrid)

    def test_fd_path_defects_shrink_under_refinement(self, hydrogen):
        # with FD derivative callbacks the defect is FD truncation, which must
        # fall as the grid refines and the window grows
        raise_defects = []
        annihilation = []
        for rmax, npoints in ((20.0, 500), (30.0, 1500), (40.0, 4000)):
            grid = RadialGrid(rmax, npoints)
            state, f, _ = sampled(hydrogen, H("1"), grid)
            tstate = radial_state(hydrogen, H("2"))
            t = chi(tstate, grid.nodes)
            derivs = fd_derivatives(grid, f)
            y = apply_operator(substitute(generator_table()["T+"], 0.0, 1.0), grid, f, derivatives=derivs)
            sim = abs(grid.h * _dot(y, t)) / (_norm(grid, y) * _norm(grid, t))
            raise_defects.append(1.0 - sim)
            ym = apply_operator(substitute(generator_table()["T-"], 0.0, 1.0), grid, f, derivatives=derivs)
            annihilation.append(_norm(grid, ym) / _norm(grid, f))
        assert raise_defects[0] > raise_defects[1] > raise_defects[2]
        assert annihilation[0] > annihilation[1] > annihilation[2]


class TestT3AndCasimir:
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_t3_eigen_both_sectors(self, hydrogen, shifted, xgrid, i):
        for sec in (hydrogen, shifted):
            rep = t3_eigen_check(sec, sec.j + i, xgrid)
            assert rep.residual <= 1e-8 and rep.passed
            K = sec.bigJ + i
            assert rep.details["measured_eigenvalue"] == pytest.approx(K, abs=1e-9)
            assert rep.details["raised_eigenvalue"] == pytest.approx(K + 1.0, abs=1e-7)

    def test_spacing_is_one(self, hydrogen, shifted, xgrid):
        for sec in (hydrogen, shifted):
            for i in (1, 2, 3):
                rep = t3_spacing_check(sec, sec.j + i, xgrid)
                assert rep.residual <= 1e-8 and rep.passed
                assert rep.details["spacing"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_casimir_action(self, hydrogen, shifted, xgrid, i):
        for sec in (hydrogen, shifted):
            rep = casimir_check(sec, sec.j + i, xgrid)
            assert rep.residual <= 1e-8 and rep.passed

    def test_casimir_at_J_zero_annihilates(self, hydrogen, xgrid):
        rep = casimir_check(hydrogen, H("2"), xgrid)
        # J(J+1) = 0: the Casimir action itself must vanish on the state
        assert rep.residual <= 1e-8

    @pytest.mark.parametrize("i", [1, 3, 5])
    def test_radial_equation_check(self, hydrogen, shifted, xgrid, i):
        for sec in (hydrogen, shifted):
            rep = radial_equation_check(sec, sec.j + i, xgrid)
            assert rep.residual <= 1e-9 and rep.passed

    def test_radial_equation_read_to_the_end_of_the_grid(self, hydrogen, monkeypatch):
        # a defect past x = 40, where high levels still hold much of their
        # norm, fails the check; one below x = 0.01 does not count
        grid = RadialGrid(60.0, 15000)  # h = 0.004
        n = H("20")
        level = level_of(hydrogen, n, grid)
        assert radial_equation_check(hydrogen, n, grid).passed
        x = grid.nodes
        fmax = np.max(np.abs(level.chi))
        for where, fails in ((50.0, True), (0.005, False)):
            bumped = level.images["Ln"].copy()
            bumped[np.searchsorted(x, where)] += 1e-6 * fmax
            inject_image(monkeypatch, n, "Ln", lambda ln: bumped)
            assert radial_equation_check(hydrogen, n, grid).passed is not fails, where

    def test_radial_equation_start_node(self):
        x = RadialGrid(1.0, 999).nodes  # h = 0.001
        start = numeric_verify._radial_equation_start(RadialGrid(1.0, 999))
        assert x[start] >= 0.01 > x[start - 1]
        # a grid that ends before x = 0.01 is read whole
        assert numeric_verify._radial_equation_start(RadialGrid(0.005, 100)) == 0


class TestSpectrumCrossCheck:
    def test_hydrogen_all_levels_pass(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        reports = spectrum_cross_check(params, H("0"), H("0"), 3, RadialGrid(60.0, 6000))
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        assert all(r.residual <= 1e-4 for r in reports)

    def test_coarse_grid_fails_gracefully(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        reports = spectrum_cross_check(params, H("0"), H("0"), 2, RadialGrid(60.0, 100))
        assert len(reports) == 2
        assert any(not r.passed for r in reports)
        assert all(math.isfinite(r.residual) for r in reports)

    def test_invalid_sector_surfaces(self):
        params = MonopoleParams(H("1"), 0.0, 0.0)
        with pytest.raises(InvalidQuantumNumbers):
            spectrum_cross_check(params, H("0"), H("0"), 1, RadialGrid(60.0, 1000))

    def test_zero_levels_rejected(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        with pytest.raises(ValueError, match="levels must be >= 1"):
            spectrum_cross_check(params, H("0"), H("0"), 0, RadialGrid(60.0, 1000))

    def test_spacing_that_squares_to_zero_rejected(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        with pytest.raises(GridUnderflow, match="squares to zero"):
            spectrum_cross_check(params, H("0"), H("0"), 3, RadialGrid(1e-300, 6000))

    def test_details_carry_K_and_analytic_energy(self, shifted):
        grid = RadialGrid(150.0, 6000)
        reports = spectrum_cross_check(shifted.params, shifted.m, shifted.j, 2, grid)
        assert [r.details["K"] for r in reports] == [2.5, 3.5]
        assert [r.details["analytic_energy"] for r in reports] == [-0.08, -1.0 / 24.5]
        assert [r.inputs["n"] for r in reports] == ["3/2", "5/2"]


class TestOracleReports:
    def test_one_solve_compared_per_level(self, monkeypatch):
        calls = []

        def fake_oracle(J, grid, count):
            calls.append((J, count))
            return [-0.5, -0.126]

        monkeypatch.setattr(fd_oracle, "eig_oracle", fake_oracle)
        grid = RadialGrid(60.0, 200)
        reports = oracle_reports(0.0, [(1.0, {"a": 1}), (2.0, {"a": 2})], grid, tol=1e-3)
        assert calls == [(0.0, 2)]
        assert [r.inputs for r in reports] == [{"a": 1}, {"a": 2}]
        assert [r.residual for r in reports] == [0.0, abs(-0.126 + 0.125) / 0.125]
        assert [r.passed for r in reports] == [True, False]
        assert reports[1].details == {"oracle_energy": -0.126, "analytic_energy": -0.125, "K": 2.0}

    def test_first_report_carries_the_solve(self, monkeypatch):
        def slow_oracle(J, grid, count):
            time.sleep(0.05)
            return [-0.5, -0.125]

        monkeypatch.setattr(fd_oracle, "eig_oracle", slow_oracle)
        reports = oracle_reports(0.0, [(1.0, {}), (2.0, {})], RadialGrid(60.0, 200))
        assert reports[0].runtime_ms >= 50.0 > reports[1].runtime_ms

    def test_underflowing_energy_rejected(self):
        with pytest.raises(ValueError, match="underflows to zero"):
            oracle_reports(1e154, [(1e155, {})], RadialGrid(10000.0, 100))

    def test_grid_that_cannot_hold_the_level_rejected(self):
        # the FD eigenvalue is about +5e295 against an analytic -5e-301
        with pytest.raises(ValueError, match=r"rmax=100.0 cannot hold the level at K=1e\+150"):
            oracle_reports(1e150, [(1e150 + 1.0, {})], RadialGrid(100.0, 100))


class TestOracleGrid:
    @pytest.mark.parametrize("k_top", [3.0, 6.0, 39.707106781186546 + 1.0 + 9, 3.449489742783178 + 10, 1e150])
    def test_default_box_is_twelve_k_top_squared(self, k_top):
        # the expression bit for bit: 12.0 * k * k rounds differently for some k
        grid = oracle_grid(k_top, None, None)
        assert float.hex(grid.rmax) == float.hex(12.0 * k_top ** 2)
        assert grid.npoints == 6000

    def test_given_values_override_the_defaults(self):
        assert oracle_grid(3.0, 60.0, None) == RadialGrid(60.0, 6000)
        assert oracle_grid(3.0, None, 120) == RadialGrid(108.0, 120)
        assert oracle_grid(1e200, 60.0, 120) == RadialGrid(60.0, 120)

    @pytest.mark.parametrize("k_top", [1e154 + 1.0, 1e155, math.sqrt(4e307) + 1.0])
    def test_overflowing_default_box_names_k_top(self, k_top):
        with pytest.raises(ValueError, match=r"^the default box 12 k_top\^2 overflows at k_top=.*; give --rmax$"):
            oracle_grid(k_top, None, None)

    def test_explicit_infinite_rmax_keeps_the_grid_message(self):
        with pytest.raises(ValueError, match="^rmax must be positive and finite, got inf$"):
            oracle_grid(3.0, math.inf, None)

    def test_default_tolerance_is_the_table_entry(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        reports = spectrum_cross_check(params, H("0"), H("0"), 1, RadialGrid(60.0, 200))
        assert reports[0].tolerance == fd_oracle.DEFAULT_TOLERANCES["spectrum_level"]

    def test_cross_check_on_it_gives_the_cli_default_document(self, tmp_path):
        params = MonopoleParams(H("1/2"), 1.0, 0.0)
        sector = make_sector(params, H("1/2"), H("1/2"))
        nmax = 4
        k_top = sector.bigJ + nmax
        reports = spectrum_cross_check(params, sector.m, sector.j, nmax, oracle_grid(k_top, None, None))
        path = tmp_path / "oracle.json"
        code = cli.main(["oracle", "--s", "1/2", "--c1", "1", "--m", "1/2", "--j", "1/2", "--nmax", str(nmax),
                         "--format", "json", "--out", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert code == (0 if all(r.passed for r in reports) else 1)
        assert doc["config"]["rmax"] == 12.0 * k_top ** 2 and doc["config"]["npoints"] == 6000
        assert doc["config"]["tol"] == 1e-4
        strip = [{k: v for k, v in r.to_dict().items() if k != "runtime_ms"} for r in reports]
        assert strip == [{k: v for k, v in r.items() if k != "runtime_ms"} for r in doc["reports"]]


class FaultyImageSampler(TowerSampler):
    """A level's sampler with the Kummer rows F_1 or the factor w off by a factor; chi stays exact.

    Its own `images` runs on the faulty rows and w.
    """

    def __init__(self, sampler, row_scale=1.0, w_scale=1.0):
        super().__init__(sampler.sector, sampler.x)
        self.sampler = sampler
        self.row_scale = row_scale
        self.w = sampler.w * w_scale

    def chi(self, state):
        return self.sampler.chi(state)

    def row(self, p, l):
        out = self.sampler.row(p, l)
        return out * self.row_scale if l == 1 else out


class TestExactZeros:
    """Residuals that read exactly 0 still see a fault of 1e-6 in what the images are built from.

    Terms that cancel in closed form cancel in the coefficients of w (C M S) @ B,
    so many residuals of a bottom level (k = 0, where B holds plain powers
    x^e) read exactly 0.  Each fault below must still make one of the
    level's checks fail, at k = 0 and at k = 2.
    """

    LEVELS = [("hydrogen", 0), ("hydrogen", 2), ("shifted", 0), ("shifted", 2)]

    @staticmethod
    def _reports(sector, k):
        """Level k's checks as `verify_states_suite` runs them, on its default grid, each on a sampler of its own."""
        grid = numeric_verify.states_grid(sector, 5, None, None)
        n = sector.j + 1 + k
        return [radial_equation_check(sector, n, grid), t3_eigen_check(sector, n, grid),
                casimir_check(sector, n, grid), ladder_check(sector, n, +1, grid),
                ladder_check(sector, n, -1, grid), t3_spacing_check(sector, n, grid)]

    def _faulty_reports(self, sector, k, monkeypatch, **fault):
        class FaultyLevel(_Level):
            def __init__(self, sampler, n, grid):
                super().__init__(FaultyImageSampler(sampler, **fault), n, grid)

        with monkeypatch.context() as patch:
            patch.setattr(numeric_verify, "_Level", FaultyLevel)
            return self._reports(sector, k)

    @pytest.mark.parametrize("name, k", LEVELS)
    def test_levels_pass_with_exact_zeros(self, name, k, request):
        reports = self._reports(request.getfixturevalue(name), k)
        assert all(r.passed for r in reports)
        if k == 0:
            assert any(r.residual == 0.0 for r in reports)

    @pytest.mark.parametrize("name, k", LEVELS)
    def test_scaled_kummer_row_fails(self, name, k, request, monkeypatch):
        # level 0 reads no F_1 (S_0 is zero past l = 0); its spacing check
        # reads the T3 image of level 1, which does
        reports = self._faulty_reports(request.getfixturevalue(name), k, monkeypatch, row_scale=1.0 + 1e-6)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("name, k", LEVELS)
    def test_scaled_w_fails(self, name, k, request, monkeypatch):
        reports = self._faulty_reports(request.getfixturevalue(name), k, monkeypatch, w_scale=1.0 + 1e-6)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("name, k", LEVELS)
    def test_each_coefficient_off_fails(self, name, k, request, monkeypatch):
        # every nonzero coefficient of the level's C(J, K), in turn, off by 1e-6
        # relative; at k = 0 no check reads the T3 T- image (there is no lowered state)
        sector = request.getfixturevalue(name)
        names = numeric_verify._image_plan()[0]
        K = radial_state(sector, sector.j + 1 + k).level.K
        coefficients = numeric_verify._coefficients
        unread = {"T3 T-"} if k == 0 else set()
        faults = [(i, col) for i, col in zip(*np.nonzero(coefficients(sector.bigJ, K))) if names[i] not in unread]
        assert len(faults) > 30
        for i, col in faults:
            def off(J, level_K, i=i, col=col):
                out = coefficients(J, level_K)
                if level_K == K:
                    out[i, col] *= 1.0 + 1e-6
                return out

            with monkeypatch.context() as patch:
                patch.setattr(numeric_verify, "_coefficients", off)
                reports = self._reports(sector, k)
            assert not all(r.passed for r in reports), (names[i], numeric_verify._image_plan()[1][col])


class TestReports:
    def test_bitwise_reproducibility(self, shifted, xgrid):
        a = ladder_check(shifted, H("3/2"), +1, xgrid)
        b = ladder_check(shifted, H("3/2"), +1, xgrid)
        assert a.residual == b.residual
        assert a.tolerance == b.tolerance
        assert a.passed == b.passed
        assert a.inputs == b.inputs
        assert a.details == b.details

    def test_passed_iff_residual_within_tolerance(self, shifted, xgrid):
        rep = radial_equation_check(shifted, H("5/2"), xgrid, tol=1e-30)
        assert rep.passed == (rep.residual <= rep.tolerance)
        assert not rep.passed

    def test_to_dict_fields(self, hydrogen, xgrid):
        rep = t3_eigen_check(hydrogen, H("1"), xgrid)
        d = rep.to_dict()
        assert list(d) == ["check_name", "inputs", "residual", "tolerance", "passed", "runtime_ms", "details"]

    def test_full_suite_passes(self):
        params = MonopoleParams(H("0"), 0.0, 0.0)
        reports = verify_states_suite(params, H("0"), H("0"), nlevels=3, grid=RadialGrid(25.0, 1500))
        names = {r.check_name for r in reports}
        assert {"angular_residual", "radial_equation", "t3_eigen", "casimir_action",
                "ladder_raise", "ladder_annihilation", "ladder_lower", "t3_spacing"} <= names
        assert all(r.passed for r in reports)

    def test_angular_inputs_echo_the_theta_mesh_only(self, shifted):
        rep = angular_residual_check(shifted)
        assert rep.inputs == {**sector_inputs(shifted), "ntheta": 200}

    @pytest.mark.parametrize("nlevels", [0, -3])
    def test_suite_without_levels_rejected(self, nlevels):
        # nlevels = 0 used to pass on the angular check alone
        params = MonopoleParams(H("0"), 0.0, 0.0)
        with pytest.raises(ValueError, match=f"^nlevels must be >= 1, got {nlevels}$"):
            verify_states_suite(params, H("0"), H("0"), nlevels=nlevels)


class TestIntegerCounts:
    """A count that is not an integer is refused with a ValueError that names it; bools and numpy integers count."""

    @staticmethod
    def _call(name, count):
        params, grid = MonopoleParams(H("0"), 0.0, 0.0), RadialGrid(60.0, 600)
        if name == "nlevels":
            return verify_states_suite(params, H("0"), H("0"), nlevels=count, grid=grid)
        if name == "levels":
            return spectrum_cross_check(params, H("0"), H("0"), count, grid)
        return eig_oracle(0.0, grid, count)

    @pytest.mark.parametrize("name", ["nlevels", "levels", "count"])
    @pytest.mark.parametrize("bad", [2.5, "3"], ids=["float", "str"])
    def test_non_integral_count_rejected(self, name, bad):
        # 2.5 used to pass the range check and raise TypeError from range()
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            self._call(name, bad)

    @pytest.mark.parametrize("name", ["nlevels", "levels", "count"])
    @pytest.mark.parametrize("good", [True, np.int64(2)], ids=["bool", "numpy"])
    def test_bool_and_numpy_integer_counts_accepted(self, name, good):
        # the suite gives six reports per level (the last level has no spacing check, plus the angular one)
        per_level = 6 if name == "nlevels" else 1
        assert len(self._call(name, good)) == per_level * int(good)


class TestSampleCache:
    """The suite samples each level once and composes no generator product per call."""

    @staticmethod
    def _suite(hydrogen):
        return verify_states_suite(hydrogen.params, hydrogen.m, hydrogen.j, nlevels=10)

    @staticmethod
    def _fields(reports):
        out = []
        for r in reports:
            d = r.to_dict()
            del d["runtime_ms"]
            out.append(d)
        return out

    # hydrogen at nlevels 10 and 20, and a shifted sector with J = 7.37
    UNCACHED_SUITES = [(("0", 0.0, 0.0), "0", "0", 10), (("0", 0.0, 0.0), "0", "0", 20),
                       (("0", 0.5, 2.0), "1", "6", 10)]

    def test_cached_reports_equal_uncached(self, monkeypatch):
        for (s, c1, c2), m, j, nlevels in self.UNCACHED_SUITES:
            params = MonopoleParams(H(s), c1, c2)
            with monkeypatch.context() as patch:
                cached = self._fields(verify_states_suite(params, H(m), H(j), nlevels=nlevels))
                patch.setattr(numeric_verify, "_Level", PerCallLevel)
                uncached = self._fields(verify_states_suite(params, H(m), H(j), nlevels=nlevels))
            assert cached == uncached, (s, m, j, nlevels)
            # bit for bit: float.hex tells 0.0 from -0.0, which == does not
            for a, b in zip(cached, uncached):
                assert float.hex(a["residual"]) == float.hex(b["residual"])
                for key, value in a["details"].items():
                    assert float.hex(value) == float.hex(b["details"][key]), (a["check_name"], key)

    def test_each_level_and_order_sampled_once(self, hydrogen, monkeypatch):
        calls = Counter()
        row = TowerSampler.row

        def counting(sampler, p, l):
            calls[p.k, l] += 1
            return row(sampler, p, l)

        monkeypatch.setattr(TowerSampler, "row", counting)
        self._suite(hydrogen)
        # chi reads F_0 of levels k = 0 ... 10 (k = 10 is the top raise's
        # target), and each of the ten image builds reads F_0 ... F_min(k, 4) once
        expected = Counter((k, 0) for k in range(11))
        expected.update((k, l) for k in range(10) for l in range(min(k, 4) + 1))
        assert calls == expected

    def test_ascending_suite_starts_each_sweep_once(self, hydrogen, shifted, monkeypatch):
        starts = Counter()
        restart = KummerSweep.restart

        def counting(sweep):
            starts[sweep.b] += 1
            restart(sweep)

        monkeypatch.setattr(KummerSweep, "restart", counting)
        for sector in (hydrogen, shifted):
            verify_states_suite(sector.params, sector.m, sector.j, nlevels=10)
        b = [2.0 * sector.bigJ + 2.0 + l for sector in (hydrogen, shifted) for l in range(5)]
        assert starts == Counter(b)

    @pytest.mark.parametrize("check", ["raise", "lower", "spacing"])
    def test_public_pair_check_starts_each_sweep_once(self, shifted, check, monkeypatch):
        # both levels' chi come before level n's images: the shift-0 sweep
        # serves the lower row from the one it holds instead of starting again
        starts = Counter()
        restart = KummerSweep.restart

        def counting(sweep):
            starts[sweep.b] += 1
            restart(sweep)

        monkeypatch.setattr(KummerSweep, "restart", counting)
        n, grid = shifted.j + 11, RadialGrid(60.0, 400)  # k = 10
        if check == "spacing":
            t3_spacing_check(shifted, n, grid)
        else:
            ladder_check(shifted, n, 1 if check == "raise" else -1, grid)
        assert starts == Counter(2.0 * shifted.bigJ + 2.0 + l for l in range(5))

    def test_suite_fetches_each_level_once_ascending(self, hydrogen, shifted, monkeypatch):
        # the walk holds level n-1, n and n+1 itself: nlevels + 1 levels built,
        # the last one the top raise's target, all from the suite's one sampler
        fetched = []
        samplers = set()

        class CountingLevel(_Level):
            def __init__(self, sampler, n, grid):
                fetched.append(n)
                samplers.add(id(sampler))
                super().__init__(sampler, n, grid)

        monkeypatch.setattr(numeric_verify, "_Level", CountingLevel)
        for sector in (hydrogen, shifted):
            fetched.clear()
            samplers.clear()
            verify_states_suite(sector.params, sector.m, sector.j, nlevels=10)
            assert fetched == [sector.j + i for i in range(1, 12)]
            assert len(samplers) == 1

    def test_chi_that_underflows_on_the_grid_rejected(self, hydrogen):
        with pytest.raises(GridUnderflow, match="n=1 has zero norm"):
            verify_states_suite(hydrogen.params, hydrogen.m, hydrogen.j, nlevels=3,
                                grid=RadialGrid(1e-300, 4000))

    def test_non_finite_image_rejected_when_built(self, hydrogen, monkeypatch, capsys):
        # each image is checked once, when the level builds its images; a NaN
        # in one input of the sums must surface there, and the CLI must turn
        # it into exit 2 with one stderr line
        power = TowerSampler.power

        def poisoned(sampler, e):
            out = power(sampler, e).copy()
            if e == 2:
                out[out.size // 2] = math.nan
            return out

        monkeypatch.setattr(TowerSampler, "power", poisoned)
        level = level_of(hydrogen, H("2"), RadialGrid(40.0, 1500))
        assert np.all(np.isfinite(level.chi))
        with pytest.raises(ValueError, match="^grid function contains non-finite entries$"):
            level.images
        code = cli.main(["verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: grid function contains non-finite entries\n"

    def test_concurrent_suites_equal_the_sequential_ones(self, shifted):
        # suites in threads share no sampler: each of 4 threads x 5 ten-level
        # suites reports bit for bit what the suite run alone reports
        def suite():
            return [_hexed(d) for d in self._fields(verify_states_suite(shifted.params, shifted.m, shifted.j, 10))]

        alone = suite()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so shared rows would mix
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threads = list(pool.map(lambda _: [suite() for _ in range(5)], range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [[alone] * 5] * 4 == threads

    def test_second_suite_composes_nothing(self, hydrogen, monkeypatch):
        self._suite(hydrogen)
        compose = operator_algebra.compose
        calls = []

        def counting(lhs, rhs):
            calls.append((lhs, rhs))
            return compose(lhs, rhs)

        monkeypatch.setattr(operator_algebra, "compose", counting)
        monkeypatch.setattr(numeric_verify, "compose", counting, raising=False)
        self._suite(hydrogen)
        assert calls == []

    def test_cached_arrays_are_read_only(self, hydrogen, xgrid):
        level = level_of(hydrogen, H("2"), xgrid)
        t3 = level.images["T3"]
        # the level keeps chi and its nine images, no derivative samples
        assert not hasattr(level, "derivative") and not hasattr(level, "_derivatives")
        for arr in (level.chi, t3, xgrid.nodes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    IMAGE_SECTORS = [("0", 0.0, 0.0, "0", "0"), ("1/2", 1.0, 0.0, "1/2", "1/2"), ("1", 0.5, 2.0, "-1", "2")]

    @staticmethod
    def _reference_case(spec, step):
        """A level of one sector on a sampler of its own at the suite's default grid, with the inputs of `apply_operator`."""
        s, c1, c2, m, j = spec
        sector = make_sector(MonopoleParams(H(s), c1, c2), H(m), H(j))
        # the grid `verify_states_suite` picks at its default nlevels = 5
        grid = RadialGrid(10.0 + 4.0 * (sector.bigJ + 5), 4000)
        n = sector.j + 1 + step
        level = level_of(sector, n, grid)
        _, f, derivs = sampled(sector, n, grid)
        assert np.array_equal(level.chi, f)
        return level, f, derivs

    @staticmethod
    def _forward_error_bound(op, level, f, derivs):
        """gamma_n sum |c| |x^p chi^(q)| + gamma_N sum |c| |M S| |w x^e F_l| on each node.

        c = sum c_ab J^a K^b is a term's coefficient, counted as the sum of
        its monomials, whose evaluation can cancel; n = terms + 6 monomials.
        The second sum runs over the product-rule expansion of each term,
        x^p chi^(q) = w sum (M S)_(pq, el) x^e F_l (`product_rule`), and
        N = its terms + 15 rows of B + 6 monomials.  The per-term sum of
        `apply_operator` over the derivative samples and the product
        w (C M S) @ B approximate one exact sum of these pieces, the first
        sum bounding the rounding of the terms' sum and the second that of
        each term's expansion (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., 3.1).
        """
        J, K = level.state.sector.bigJ, level.state.level.K
        p = level.state.kummer
        x = level.grid.nodes
        sampler = TowerSampler(level.state.sector, x)
        samples = [f, *(derivs(order) for order in range(1, 5))]
        terms = op._float_terms()
        pieces = np.zeros_like(x)
        expanded = np.zeros_like(x)
        nexpanded = 0
        for xp, dq, coeffs in terms:
            c = sum(abs(c * J**jp * K**kp) for c, jp, kp in coeffs)
            pieces += c * np.abs(samples[dq] * x ** float(xp))
            for i, l, m in product_rule(dq, sampler.alpha):
                if l <= p.k:
                    ms = abs(m * 2.0**l * _kummer_deriv_scale(p, l))
                    expanded += c * ms * np.abs(sampler.w * sampler.power(float(xp - i)) * sampler.row(p, l))
                    nexpanded += 1
        nmonomials = len(numeric_verify._image_plan()[2])
        nu = (len(terms) + nmonomials) * 2.0**-53
        nu_expanded = (nexpanded + len(numeric_verify._image_plan()[1]) + nmonomials) * 2.0**-53
        return nu / (1.0 - nu) * pieces + nu_expanded / (1.0 - nu_expanded) * expanded

    @pytest.mark.parametrize("spec", IMAGE_SECTORS, ids=["hydrogen", "half-odd", "shifted-J"])
    @pytest.mark.parametrize("step", [0, 2, 4], ids=["bottom", "middle", "top"])
    def test_images_equal_apply_operator(self, spec, step):
        # equal to the per-term sum of the reference up to rounding: element by
        # element within the forward-error bound of the two summation orders
        level, f, derivs = self._reference_case(spec, step)
        table = operator_algebra.generator_table()
        assert set(level.images) == set(table) and len(table) == 9
        J, K = level.state.sector.bigJ, level.state.level.K
        for name, op in table.items():
            expected = apply_operator(substitute(op, J, K), level.grid, f, derivs)
            image = level.images[name]
            bound = self._forward_error_bound(op, level, f, derivs)
            assert np.all(np.abs(image - expected) <= bound), name
            with pytest.raises(ValueError, match="read-only"):
                image[0] = 1.0

    @pytest.mark.parametrize("spec", IMAGE_SECTORS, ids=["hydrogen", "half-odd", "shifted-J"])
    def test_one_coefficient_off_by_1e_11_breaks_the_bound(self, spec):
        # the bound is tight enough to see any one coefficient of any of the
        # nine operators off by 1e-11 relative (it misses some at 1e-12: it
        # also covers the rounding of each term's product-rule expansion)
        level, f, derivs = self._reference_case(spec, 2)
        J, K = level.state.sector.bigJ, level.state.level.K
        for name, op in operator_algebra.generator_table().items():
            image = level.images[name]
            bound = self._forward_error_bound(op, level, f, derivs)
            numop = substitute(op, J, K)
            for i, (xp, dq, c) in enumerate(numop.terms):
                terms = list(numop.terms)
                terms[i] = (xp, dq, c * (1.0 + 1e-11))
                off = apply_operator(NumericOperator(tuple(terms), J, K), level.grid, f, derivs)
                assert not np.all(np.abs(image - off) <= bound), (name, xp, dq)

    def test_coefficients_equal_substitute_up_to_rounding(self, shifted):
        # row i of C(J, K) holds generator i's substituted coefficients, zero
        # where it has no term on that product
        names, products, monomials, _ = numeric_verify._image_plan()
        assert list(names) == list(operator_algebra.generator_table())
        assert len(products) == 15 and list(products) == sorted(products, key=lambda key: (-key[1], key[0]))
        assert monomials == ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (4, 0))
        J, K = shifted.bigJ, shifted.bigJ + 3.0
        C = numeric_verify._coefficients(J, K)
        for i, (name, op) in enumerate(operator_algebra.generator_table().items()):
            terms = {(xp, dq): c for xp, dq, c in substitute(op, J, K).terms}
            scale = {(xp, dq): sum(abs(c * J**jp * K**kp) for c, jp, kp in coeffs)
                     for xp, dq, coeffs in op._float_terms()}
            for col, key in enumerate(products):
                assert abs(C[i, col] - terms.get(key, 0.0)) <= 16 * 2.0**-53 * scale.get(key, 0.0), (name, key)

    def test_each_image_built_once(self, hydrogen, monkeypatch):
        coefficients = []
        blocks = []
        derivative_calls = []
        coefficients_ = numeric_verify._coefficients

        def counting_coefficients(J, K):
            coefficients.append((J, K))
            return coefficients_(J, K)

        def counting_blocks(images):
            # every image is a row of one block: count the distinct blocks
            blocks.extend({id(row.base): row.base.shape for row in images.values()}.values())
            return MappingProxyType(images)

        def counting_derivatives(sampler, state, top):
            derivative_calls.append((state.level.n, top))

        monkeypatch.setattr(numeric_verify, "_coefficients", counting_coefficients)
        monkeypatch.setattr(numeric_verify, "MappingProxyType", counting_blocks)
        monkeypatch.setattr(TowerSampler, "derivatives", counting_derivatives)
        self._suite(hydrogen)
        # ten levels: one coefficient matrix and one block of nine images each
        assert len(coefficients) == 10 and len(set(coefficients)) == 10
        assert blocks == [(9, 4000)] * 10
        # the images are formed from the Kummer rows: no derivative is sampled
        assert derivative_calls == []

    @pytest.mark.parametrize("name", ["hydrogen", "shifted"])
    def test_each_check_alone_equals_the_suite(self, name, request):
        # every grid check builds its levels from a sampler of its own; called
        # on its own it must report what it reports inside the suite
        sector = request.getfixturevalue(name)
        grid = RadialGrid(40.0, 1500)
        nlevels = 4
        suite = self._fields(verify_states_suite(sector.params, sector.m, sector.j, nlevels=nlevels, grid=grid))
        checks = [lambda n: radial_equation_check(sector, n, grid),
                  lambda n: t3_eigen_check(sector, n, grid),
                  lambda n: casimir_check(sector, n, grid),
                  lambda n: ladder_check(sector, n, +1, grid),
                  lambda n: ladder_check(sector, n, -1, grid),
                  lambda n: t3_spacing_check(sector, n, grid)]
        alone = []
        for i in range(nlevels):
            for check in checks[:6 if i + 1 < nlevels else 5]:
                alone.append(check(sector.j + 1 + i))
        assert suite[1:] == self._fields(alone)


def _hexed(value):
    """`value` with every float written as `float.hex`, which tells 0.0 from -0.0 and every last bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    return value


class TestRowWiseReductions:
    """Each check takes its norms from one row-wise reduction and each shared product once per level."""

    # one sector per J stratum of the benchmark's pool: (s, c1, c2, m, j), J from 1.22 to 4.96
    STRATA_SECTORS = [
        ("1", 0.5, 0.0, "-1", "1"), ("1/2", 0.5, 0.0, "-1/2", "3/2"), ("1/2", 2.0, 0.5, "-1/2", "1/2"),
        ("0", 0.5, 0.5, "-2", "2"), ("0", 2.0, 0.0, "-2", "2"), ("0", 2.0, 2.0, "1", "1"),
        ("1/2", 0.0, 2.0, "3/2", "5/2"), ("1/2", 0.0, 0.0, "3/2", "7/2"), ("0", 2.0, 2.0, "0", "1"),
        ("1/2", 0.5, 0.5, "3/2", "7/2"), ("1", 0.5, 2.0, "1", "3"), ("0", 2.0, 0.5, "2", "4"),
    ]

    @staticmethod
    def _check_rows(sector, k, grid):
        """The residual rows of the t3_eigen, casimir and ladder checks of level k, each as the check forms it."""
        n = sector.j + 1 + k
        level = level_of(sector, n, grid)
        images, chi, K = level.images, level.chi, level.state.level.K
        shifts = [(1, "T+"), (-1, "T-")][:1 if k == 0 else 2]
        t3 = [images["T3"] - K * chi] + [images["T3 " + tpm] - (K + sign) * images[tpm] for sign, tpm in shifts]
        target = sector.sep_const * chi
        t3f, t3sq, pm, mp = (images[name] for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
        casimir = [-pm + t3sq - t3f - target, -mp + t3sq + t3f - target]
        ladders = []
        for sign, tpm in shifts:
            y = images[tpm]
            expected = -(k + 2.0 * sector.bigJ + 2.0) if sign == 1 else -float(k)
            scale = np.max(np.abs(y))
            ladders.append([(y - expected * level_of(sector, n + sign, grid).chi) / scale, y / scale])
        return [t3, casimir, *ladders]

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("name", ["hydrogen", "shifted"])
    def test_row_wise_sums_are_the_one_dimensional_sums(self, name, k, xgrid, request):
        # a numpy whose 2-D reduction sums a row in another order than its
        # 1-D one fails here, before any report changes its last bits
        sector = request.getfixturevalue(name)
        for rows in self._check_rows(sector, k, xgrid):
            R = np.stack(rows)
            assert R.flags.c_contiguous
            expected = [_dot(r, r).hex() for r in R]
            assert [float(v).hex() for v in np.einsum("ij,ij->i", R, R)] == expected
            assert [v.hex() for v in _row_dots(R)] == expected

    @pytest.mark.parametrize("nlevels", [3, 10])
    def test_suite_reports_equal_the_per_vector_reference(self, nlevels):
        for s, c1, c2, m, j in self.STRATA_SECTORS:
            params = MonopoleParams(H(s), c1, c2)
            reports = [_hexed(r.to_dict()) for r in verify_states_suite(params, H(m), H(j), nlevels)]
            reference = [_hexed(r.to_dict()) for r in states_suite_reference(params, H(m), H(j), nlevels)]
            for report in reports + reference:
                del report["runtime_ms"]
            assert reports == reference, (s, c1, c2, m, j)

    def test_reductions_per_level(self, shifted, monkeypatch):
        # the per-vector bodies make 203 reductions over these 11 levels, 18.5
        # a level (`_dot` only); the checks make 118, 10.7 a level, with one
        # label dict per level and one <T3 chi, chi> per level that builds images
        dots, row_dots, labelled, built = [], [], [], []
        dot, rows_dot, inputs, init = numeric_verify._dot, numeric_verify._row_dots, sector_inputs, _Level.__init__

        def counting_dot(a, b):
            dots.append((a, b))
            return dot(a, b)

        def counting_rows(rows):
            row_dots.append(rows)
            return rows_dot(rows)

        def counting_inputs(sector, grid=None, n=None):
            labelled.append(grid)
            return inputs(sector, grid, n)

        def recording_init(level, *args):
            built.append(level)
            init(level, *args)

        monkeypatch.setattr(numeric_verify, "_dot", counting_dot)
        monkeypatch.setattr(numeric_verify, "_row_dots", counting_rows)
        monkeypatch.setattr(numeric_verify, "sector_inputs", counting_inputs)
        monkeypatch.setattr(_Level, "__init__", recording_init)
        verify_states_suite(shifted.params, shifted.m, shifted.j, nlevels=10)
        assert len(built) == 11  # the ten levels and the top raise's target
        assert len(dots) + len(row_dots) <= 11 * len(built)
        # the angular check's labels carry no grid
        assert len([grid for grid in labelled if grid is not None]) == len(built)
        for level in built:
            t3 = vars(level)["images"]["T3"] if "images" in vars(level) else None
            assert sum(a is t3 and b is level.chi for a, b in dots) == (t3 is not None), level.state.level.n
