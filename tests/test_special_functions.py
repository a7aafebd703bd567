import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz_su11.special_functions import (
    DEGREE_CAP,
    DegreeCapExceeded,
    JacobiParams,
    KummerParams,
    KummerSweep,
    ParamOutOfRange,
    jacobi,
    jacobi_deriv,
)
from oracles import (
    jacobi_reference, jacobi_series, kummer_deriv, kummer_rational, kummer_row_reference, kummer_terminating,
)


class TestJacobi:
    @pytest.mark.parametrize("a, b, z", [(0.0, 0.0, 0.3), (1.7, 0.3, -0.9), (4.0, 2.5, 1.0)])
    def test_degree_zero_is_one(self, a, b, z):
        assert jacobi(JacobiParams(0, a, b), z) == 1.0

    def test_legendre_degree_two(self):
        # series oracle gives (3 z^2 - 1)/2 = -0.125 at z = 0.5
        assert jacobi(JacobiParams(2, 0.0, 0.0), 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_against_series_oracle_frozen(self):
        # frozen from the series oracle: P_3^(1.7, 0.3)(0.2)
        val = jacobi(JacobiParams(3, 1.7, 0.3), 0.2)
        assert val == pytest.approx(-0.8345, rel=1e-12)
        assert val == pytest.approx(jacobi_series(3, 1.7, 0.3, 0.2), rel=1e-12)

    @pytest.mark.parametrize("degree", range(21))
    def test_recurrence_matches_series(self, degree):
        for a, b, z in [(0.0, 0.0, 0.37), (1.7, 0.3, -0.42), (3.2, 0.9, 0.88), (-0.5, 4.1, -0.97)]:
            lhs = jacobi(JacobiParams(degree, a, b), z)
            rhs = jacobi_series(degree, a, b, z)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 20),
        st.floats(-0.9, 5.0, allow_nan=False),
        st.floats(-0.9, 5.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_symmetry_property(self, k, a, b, z):
        lhs = jacobi(JacobiParams(k, a, b), -z)
        rhs = (-1.0) ** k * jacobi(JacobiParams(k, b, a), z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_vectorized_evaluation(self):
        z = np.linspace(-1.0, 1.0, 11)
        vals = jacobi(JacobiParams(4, 0.5, 1.5), z)
        assert vals.shape == z.shape
        assert vals[3] == jacobi(JacobiParams(4, 0.5, 1.5), float(z[3]))

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            JacobiParams(2, -1.0, 0.0)
        with pytest.raises(ParamOutOfRange):
            JacobiParams(-1, 0.0, 0.0)

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            jacobi(JacobiParams(201, 0.0, 0.0), 0.1)
        with pytest.raises(DegreeCapExceeded):
            jacobi_deriv(JacobiParams(201, 0.0, 0.0), 0.1)


class TestJacobiDeriv:
    def test_degree_zero(self):
        assert jacobi_deriv(JacobiParams(0, 1.2, 0.4), 0.77) == 0.0

    def test_degree_one_legendre(self):
        for z in (-0.8, 0.0, 0.9):
            assert jacobi_deriv(JacobiParams(1, 0.0, 0.0), z) == pytest.approx(1.0, abs=1e-15)

    def test_degree_two_legendre(self):
        assert jacobi_deriv(JacobiParams(2, 0.0, 0.0), 0.3) == pytest.approx(0.9, abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 5, 9])
    def test_against_central_difference(self, degree):
        p = JacobiParams(degree, 1.3, 0.2)
        h = 1e-6
        for z in (-0.5, 0.1, 0.7):
            fd = (jacobi(p, z + h) - jacobi(p, z - h)) / (2.0 * h)
            assert jacobi_deriv(p, z) == pytest.approx(fd, rel=1e-8, abs=1e-8)


class TestKummer:
    def test_order_zero_is_one(self):
        for z in (-3.0, 0.0, 7.5):
            assert kummer_terminating(KummerParams(0, 1.7), z) == 1.0

    def test_two_term_zero(self):
        # 1 - z/b vanishes at z = b
        assert kummer_terminating(KummerParams(1, 2.0), 2.0) == 0.0

    def test_three_term_rational_oracle(self):
        # frozen: F(-2, 3; 1) = 1 - 2/3 + 1/12 = 5/12
        expected = kummer_rational(2, Fraction(3), Fraction(1))
        assert expected == Fraction(5, 12)
        assert kummer_terminating(KummerParams(2, 3.0), 1.0) == pytest.approx(float(expected), rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 9), st.fractions(min_value=-4, max_value=4, max_denominator=8))
    def test_matches_rational_oracle(self, k, bnum, z):
        # b restricted to exactly representable halves so the comparison is fair
        b = Fraction(bnum, 2)
        lhs = kummer_terminating(KummerParams(k, float(b)), float(z))
        rhs = float(kummer_rational(k, b, z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            KummerParams(2, 0.0)
        with pytest.raises(ParamOutOfRange):
            KummerParams(-1, 1.0)

    def test_vectorized_evaluation(self):
        z = np.linspace(0.0, 4.0, 9)
        vals = kummer_terminating(KummerParams(3, 2.5), z)
        assert vals.shape == z.shape
        assert vals[2] == kummer_terminating(KummerParams(3, 2.5), float(z[2]))


class TestKummerDeriv:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 5), st.integers(1, 9),
           st.fractions(min_value=-4, max_value=4, max_denominator=8))
    def test_matches_series_derivative(self, k, order, bnum, z):
        # term-by-term derivative of the exact series: d^l z^i = i!/(i-l)! z^(i-l)
        b = Fraction(bnum, 2)
        expected = Fraction(0)
        term = Fraction(1)
        for i in range(k + 1):
            if i >= order:
                expected += term * math.perm(i, order) * z ** (i - order)
            term = term * (i - k) / ((b + i) * (i + 1))
        got = kummer_deriv(KummerParams(k, float(b)), float(z), order)
        assert abs(got - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))

    def test_order_above_degree_is_zero(self):
        z = np.linspace(0.0, 4.0, 5)
        assert kummer_deriv(KummerParams(2, 1.5), 0.7, 3) == 0.0
        assert np.array_equal(kummer_deriv(KummerParams(2, 1.5), z, 3), np.zeros(5))

    def test_order_zero_is_the_function(self):
        p = KummerParams(4, 2.5)
        assert kummer_deriv(p, 1.3, 0) == kummer_terminating(p, 1.3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            kummer_deriv(KummerParams(2, 1.5), 0.7, -1)


class TestOneSweep:
    """`jacobi` and the Kummer rows against the two separate loops that `Sweep` replaced, bit for bit.

    A scalar must keep its type and its `float.hex`, an array its entries
    (NaN equal to NaN) and their sign bits.  Overflow is part of the pin:
    F(-249, 2; 2x) leaves the float range on the window x <= 1010, and the
    Jacobi recurrence does at |z| = 1e200.  A change that rescales the rows
    must change these references knowingly.
    """

    # a + b = 0 twice (hydrogen's a = b = 0 among them), where the general step cannot give P_1
    JACOBI_PARAMS = [(0.0, 0.0), (0.5, -0.5), (2.3, 1.7), (-0.9, 40.0)]
    Z_SCALARS = (-1.0, -0.0, 0.3, 1e200, math.nan)
    Z_ARRAY = np.array([-1.0, -0.7, -0.0, 0.0, 0.3, 1.0, 3.5, -1e200, math.inf, math.nan])

    @staticmethod
    def _same(got, ref) -> bool:
        if isinstance(ref, np.ndarray):
            if type(got) is not np.ndarray or got.dtype != ref.dtype:
                return False
            if np.iscomplexobj(ref):
                got, ref = got.view(float), ref.view(float)
            return np.array_equal(got, ref, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(ref))
        return type(got) is type(ref) and float.hex(got) == float.hex(ref)

    @pytest.mark.parametrize("a, b", JACOBI_PARAMS)
    def test_jacobi_keeps_the_loop_bits(self, a, b):
        with np.errstate(over="ignore", invalid="ignore"):
            for degree in range(DEGREE_CAP + 1):
                for z in (*self.Z_SCALARS, self.Z_ARRAY):
                    got, ref = jacobi(JacobiParams(degree, a, b), z), jacobi_reference(degree, a, b, z)
                    assert self._same(got, ref), (degree, z)

    # 2x on the window x <= 1010
    Z_KUMMER = 2.0 * (1010.0 * np.arange(1, 65) / 64.0)

    def test_kummer_window_overflows(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(kummer_row_reference(249, 2.0, self.Z_KUMMER)))

    @pytest.mark.parametrize("z", [Z_KUMMER, 2020.0, -0.0], ids=["window", "scalar", "negative-zero"])
    @pytest.mark.parametrize("b", [2.0, 5.5])
    def test_kummer_rows_keep_the_loop_bits(self, b, z):
        sweep = KummerSweep(b, z)
        with np.errstate(over="ignore", invalid="ignore"):
            refs = [kummer_row_reference(k, b, z) for k in range(250)]
            for k, ref in enumerate(refs):
                # each row resumed, then the row below it from the one the sweep holds
                assert self._same(sweep.row(k), ref), k
                if k:
                    assert self._same(sweep.row(k - 1), refs[k - 1]), k
            for k in (0, 1, 2, 100, 249):
                assert self._same(kummer_terminating(KummerParams(k, b), z), refs[k]), k

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex128])
    def test_rows_formed_in_place_keep_the_loop_bits(self, dtype):
        # a row is formed in the step's own array only where that keeps the
        # loop's dtype, so a float32 z still gives float64 Kummer rows; a row
        # read earlier, or z itself, is never written afterwards.  Jacobi is
        # left out at float32: its loop formed L_1 P_1 in float32, where the
        # sweep's P_1 = L_0 P_0 is float64 (no caller passes float32)
        z = np.array([-1.0, -0.3, 0.0, 0.5, 2.0, 7.0]).astype(dtype)
        z_before = z.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for degree in (0, 1, 2, 30, DEGREE_CAP) if dtype is not np.float32 else ():
                assert self._same(jacobi(JacobiParams(degree, 0.5, 1.5), z), jacobi_reference(degree, 0.5, 1.5, z))
            sweep = KummerSweep(2.5, z)
            rows = [sweep.row(k) for k in range(40)]
            copies = [r.copy() for r in rows]
            sweep.row(80)
            for k, (row, copy) in enumerate(zip(rows, copies)):
                assert self._same(row, kummer_row_reference(k, 2.5, z)) and self._same(row, copy), k
        assert self._same(z, z_before)
