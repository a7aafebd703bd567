import dataclasses
import math
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from micz_su11.analytic_states import (
    ANGULAR_THETAS,
    DomainError,
    TowerSampler,
    angular_Z,
    angular_residual,
    angular_state,
    radial_state,
)
from micz_su11.quantum_numbers import HalfInt, MonopoleParams, make_sector
from micz_su11.special_functions import KummerSweep
from oracles import (
    angular_residual_phi_mesh, chi, chi_dn, chi_dn_per_call, chi_dn_reference, kummer_rational, poly_coeffs,
)

H = HalfInt.parse


def trapezoid(y, x) -> float:
    """Trapezoid rule written out; np.trapezoid exists only from numpy 2.0."""
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


@pytest.fixture(scope="module")
def hydrogen():
    return make_sector(MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("0"))


@pytest.fixture(scope="module")
def shifted():
    return make_sector(MonopoleParams(H("1/2"), 1.0, 0.0), H("1/2"), H("1/2"))


class TestRadialState:
    def test_tower_bottom_is_pure_power_exponential(self, shifted):
        st = radial_state(shifted, H("3/2"))
        assert poly_coeffs(st) == (Fraction(1),)
        x = np.linspace(0.2, 8.0, 17)
        expected = (2.0 * x) ** 2.5 * np.exp(-x)
        assert np.max(np.abs(chi(st, x) - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_hydrogen_first_excited_closed_form(self, hydrogen):
        st = radial_state(hydrogen, H("2"))
        assert poly_coeffs(st) == (Fraction(1), Fraction(-1))
        x = np.linspace(0.1, 10.0, 23)
        expected = 2.0 * x * np.exp(-x) * (1.0 - x)
        assert np.max(np.abs(chi(st, x) - expected)) == 0.0

    def test_chi_vanishes_at_origin(self, hydrogen, shifted):
        for sec in (hydrogen, shifted):
            st = radial_state(sec, sec.j + 2)
            xs = np.array([1e-8, 1e-6, 1e-4])
            vals = np.abs(chi(st, xs))
            assert vals[0] < vals[1] < vals[2]
            assert vals[-1] < 1e-3

    def test_domain_error(self, hydrogen):
        st = radial_state(hydrogen, H("1"))
        with pytest.raises(DomainError):
            chi(st, 0.0)
        with pytest.raises(DomainError):
            chi(st, np.array([0.5, -1.0]))
        with pytest.raises(DomainError):
            chi_dn(st, -2.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_x_rejected(self, hydrogen, bad):
        st = radial_state(hydrogen, H("2"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"x must lie in \(0, inf\)"):
                chi(st, bad)
            with pytest.raises(DomainError, match=r"x must lie in \(0, inf\)"):
                chi_dn(st, np.array([1.0, bad]), 2)

    def test_x_whose_2x_overflows_rejected(self, hydrogen):
        # the sampler works on 2x, so max/2 is the largest x it takes
        st = radial_state(hydrogen, H("2"))
        half = 0.5 * sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TowerSampler(hydrogen, np.array([1.0, half])).chi(st)[-1] == 0.0
            with pytest.raises(DomainError, match="2x"):
                TowerSampler(hydrogen, np.array([1.0, math.nextafter(half, math.inf)]))
            with pytest.raises(DomainError, match="2x"):
                TowerSampler(hydrogen, 1e308)

    def test_exponent_is_level_independent(self, shifted):
        # the stored representation carries no K: all levels share the x axis,
        # the Kummer parameter b = 2J+2 and the sampler's leading exponent J+1
        bparams = {radial_state(shifted, shifted.j + i).kummer.bparam for i in (1, 2, 3, 4)}
        assert bparams == {2.0 * shifted.bigJ + 2.0}
        assert TowerSampler(shifted, 1.0).alpha == shifted.bigJ + 1.0

    def test_polynomial_matches_kummer(self, shifted):
        # dual route: the float recurrence inside chi vs the exact rational series
        b = 2 * Fraction(shifted.bigJ) + 2
        for i in (1, 2, 3, 5):
            st = radial_state(shifted, shifted.j + i)
            k = i - 1
            x = np.linspace(0.05, 9.0, 31)
            poly = chi(st, x) / ((2.0 * x) ** (shifted.bigJ + 1.0) * np.exp(-x))
            ref = np.array([float(kummer_rational(k, b, 2 * Fraction(xi))) for xi in x])
            assert np.max(np.abs(poly - ref)) <= 1e-12 * np.max(np.abs(ref) + 1.0)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 6])
    def test_node_count(self, shifted, i):
        st = radial_state(shifted, shifted.j + i)
        x = np.linspace(1e-3, 10.0 + 4.0 * st.level.K, 40001)
        signs = np.sign(chi(st, x))
        crossings = int(np.sum(np.abs(np.diff(signs)) > 1))
        assert crossings == i - 1


class TestDerivatives:
    @pytest.mark.parametrize("i", [1, 2, 4])
    def test_against_central_differences(self, shifted, i):
        st = radial_state(shifted, shifted.j + i)
        xs = np.array([0.5, 1.7, 3.9, 8.2])
        h = 1e-5
        fd1 = (chi(st, xs + h) - chi(st, xs - h)) / (2 * h)
        fd2 = (chi(st, xs + h) - 2 * chi(st, xs) + chi(st, xs - h)) / (h * h)
        scale = np.max(np.abs(chi(st, xs)))
        assert np.max(np.abs(chi_dn(st, xs, 1) - fd1)) <= 1e-7 * scale
        assert np.max(np.abs(chi_dn(st, xs, 2) - fd2)) <= 1e-4 * scale

    def test_hydrogen_closed_form_derivatives(self, hydrogen):
        st = radial_state(hydrogen, H("1"))
        x = np.linspace(0.05, 15.0, 40)
        assert np.max(np.abs(chi_dn(st, x, 1) - 2.0 * np.exp(-x) * (1.0 - x))) < 1e-14
        assert np.max(np.abs(chi_dn(st, x, 2) - 2.0 * np.exp(-x) * (x - 2.0))) < 1e-14

    def test_higher_orders_consistent(self, shifted):
        # d/dx of chi_dn(order) equals chi_dn(order+1), via central differences
        st = radial_state(shifted, shifted.j + 2)
        xs = np.array([0.8, 2.5, 5.5])
        h = 1e-5
        for order in (1, 2, 3):
            fd = (chi_dn(st, xs + h, order) - chi_dn(st, xs - h, order)) / (2 * h)
            got = chi_dn(st, xs, order + 1)
            assert np.max(np.abs(got - fd)) <= 1e-4 * max(1.0, np.max(np.abs(got)))


class TestHighLevels:
    """chi and chi_dn at every level n = j+1 ... j+60 against the exact polynomial.

    The reference sums the exact rational coefficients at the float nodes
    (multiples of 1/16, so binary rationals) with no rounding, then applies
    the float prefactor.  Bound: 1e-12 relative to the largest |chi_dn| of
    the level and order on the window (0, 10 + 4K], the window that
    `eigenfunction` samples.  The alternating monomial sum in float missed
    this by more than 1e11 at n = j+60.
    """

    SECTORS = {  # J = 0, 1.54..., 7.32...
        "hydrogen": ("0", 0.0, 0.0, "0", "0"),
        "J~1.5": ("0", 0.5, 0.7, "0", "0"),
        "J~7.3": ("1/2", 1.0, 1.5, "1/2", "11/2"),
    }
    NODES = 64
    BOUND = 1e-12

    @pytest.mark.parametrize("name", sorted(SECTORS))
    def test_chi_dn_matches_exact_polynomial(self, name):
        s, c1, c2, m, j = self.SECTORS[name]
        sec = make_sector(MonopoleParams(H(s), c1, c2), H(m), H(j))
        for i in range(1, 61):
            st = radial_state(sec, sec.j + i)
            step = math.ceil((10.0 + 4.0 * st.level.K) / self.NODES * 16) / 16
            x = step * np.arange(1, self.NODES + 1)
            refs = chi_dn_reference(poly_coeffs(st), sec.bigJ + 1.0, 4, x)
            for order, ref in enumerate(refs):
                got = chi_dn(st, x, order)
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err <= self.BOUND, f"n = j+{i}, order {order}: {err:.2e}"


class TestTowerSampler:
    """The resumable sampler against one self-contained chi_dn call per (level, order).

    Every level n = j+1 ... j+60 of a tower, orders 0-4, on one window that
    holds the top level; the levels are visited ascending (every sweep only
    resumes), descending and shuffled (sweeps restart from order 0).  The
    values must be equal bit for bit.
    """

    NODES = 96
    VISITS = ("ascending", "descending", "shuffled")

    @pytest.mark.parametrize("name", sorted(TestHighLevels.SECTORS))
    def test_equals_per_call_chi_dn(self, name):
        s, c1, c2, m, j = TestHighLevels.SECTORS[name]
        sec = make_sector(MonopoleParams(H(s), c1, c2), H(m), H(j))
        states = [radial_state(sec, sec.j + i) for i in range(1, 61)]
        x = (10.0 + 4.0 * states[-1].level.K) * np.arange(1, self.NODES + 1) / self.NODES
        refs = [[chi_dn_per_call(st, x, order) for order in range(5)] for st in states]
        assert all(np.all(np.isfinite(ref)) for level in refs for ref in level)
        for visit in self.VISITS:
            order = list(range(len(states)))
            if visit == "descending":
                order.reverse()
            elif visit == "shuffled":
                random.Random(7).shuffle(order)
            sampler = TowerSampler(sec, x)
            for i in order:
                st = states[i]
                assert np.array_equal(sampler.chi(st), refs[i][0]), (visit, i)
                for d in range(1, 5):
                    assert np.array_equal(sampler.derivatives(st, d)[-1], refs[i][d]), (visit, i, d)
                # one pass for orders 1..4 gives the same bits as one call per order
                derived = sampler.derivatives(st, 4)
                assert len(derived) == 4
                for d, got in enumerate(derived, start=1):
                    assert np.array_equal(got, refs[i][d]), (visit, i, d)

    def test_rejects_state_of_another_sector(self, hydrogen, shifted):
        sampler = TowerSampler(hydrogen, np.linspace(0.1, 5.0, 8))
        with pytest.raises(ValueError, match="another sector"):
            sampler.derivatives(radial_state(shifted, H("3/2")), 1)

    def test_level_below_read_from_the_rows_held(self, shifted, monkeypatch):
        # level n+1, then level n: each sweep serves level n's row from the one
        # it holds, starts once, and gives the bits of a fresh sampler
        starts = Counter()
        restart = KummerSweep.restart

        def counting(sweep):
            starts[sweep.b] += 1
            restart(sweep)

        monkeypatch.setattr(KummerSweep, "restart", counting)
        x = np.linspace(0.1, 60.0, 64)
        states = [radial_state(shifted, shifted.j + 1 + k) for k in (11, 10)]
        sampler = TowerSampler(shifted, x)
        read = [[sampler.chi(st), *sampler.derivatives(st, 4)] for st in states]
        assert starts == Counter(2.0 * shifted.bigJ + 2.0 + l for l in range(5))
        for st, got in zip(states, read):
            fresh = TowerSampler(shifted, x)
            for g, want in zip(got, [fresh.chi(st), *fresh.derivatives(st, 4)], strict=True):
                assert np.array_equal(g, want)

    @pytest.mark.parametrize("k", range(4))
    def test_identity_image_is_chi(self, shifted, k):
        # the one product x^0 chi^(0) with coefficient 1: the block's one row is chi, bit for bit
        st = radial_state(shifted, shifted.j + 1 + k)
        x = np.linspace(0.1, 12.0, 64)
        block = TowerSampler(shifted, x).images(st, ((0, 0),), np.ones((1, 1)))
        assert block.shape == (1, 64)
        assert np.array_equal(block[0], chi(st, x))

    @pytest.mark.parametrize("k", range(4))
    def test_images_match_the_derivatives(self, shifted, k):
        # x^0 chi' expands into the rows x^0 F_1, x^0 F_0 and x^-1 F_0
        st = radial_state(shifted, shifted.j + 1 + k)
        x = np.linspace(0.1, 12.0, 64)
        block = TowerSampler(shifted, x).images(st, ((0, 1), (0, 0), (-1, 0)), np.eye(3))
        expected = [chi_dn(st, x, 1), chi(st, x), chi(st, x) / x]
        for got, want in zip(block, expected):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_images_reject_state_of_another_sector(self, hydrogen, shifted):
        sampler = TowerSampler(hydrogen, np.linspace(0.1, 5.0, 8))
        with pytest.raises(ValueError, match="another sector"):
            sampler.images(radial_state(shifted, H("3/2")), ((0, 0),), np.ones((1, 1)))

    def test_negative_order_rejected(self, hydrogen):
        with pytest.raises(ValueError, match="non-negative"):
            chi_dn(radial_state(hydrogen, H("2")), np.linspace(0.1, 5.0, 8), -1)

    @pytest.mark.parametrize("e", [2.5, -2.0, 1.0])
    def test_power_is_cached_per_exponent(self, shifted, e):
        x = np.linspace(0.1, 5.0, 8)
        sampler = TowerSampler(shifted, x)
        first = sampler.power(e)
        assert sampler.power(e) is first
        assert np.array_equal(first, x ** e)


class TestRadialOde:
    @pytest.mark.parametrize("i", [1, 2, 3, 5])
    def test_scaled_equation_residual(self, shifted, i):
        # -x^2 chi'' - 2K x chi + x^2 chi = -J(J+1) chi, max-norm on [0.01, 40]
        st = radial_state(shifted, shifted.j + i)
        K = st.level.K
        A = shifted.sep_const
        x = np.linspace(0.01, 40.0, 3000)
        resid = -(x**2) * chi_dn(st, x, 2) - 2.0 * K * x * chi(st, x) + x**2 * chi(st, x) + A * chi(st, x)
        assert np.max(np.abs(resid)) <= 1e-9 * np.max(np.abs(chi(st, x)))


class TestRadialR:
    """The radial function in r, R(r) = (2 eps r)^J e^(-eps r) F(j+1-n, 2J+2; 2 eps r), is (K/2r) chi(r/K)."""

    def test_proportional_to_chi_over_r(self, shifted):
        st = radial_state(shifted, H("5/2"))
        K = st.level.K
        rng = np.random.default_rng(7)
        r = rng.uniform(0.1, 20.0, size=50)
        t = st.level.epsilon * r
        b = Fraction(2.0 * shifted.bigJ + 2.0)
        poly = np.array([float(kummer_rational(st.kummer.k, b, Fraction(2.0 * ti))) for ti in t])
        R = (2.0 * t) ** shifted.bigJ * np.exp(-t) * poly  # F summed exactly
        ratio = R * r / chi(st, r / K)
        assert np.std(ratio) <= 1e-12 * abs(np.mean(ratio))
        assert np.mean(ratio) == pytest.approx(K / 2.0, rel=1e-12)

    def test_hydrogen_ground_state_pure_exponential(self, hydrogen):
        # K = 1, so R(r) = chi(r)/(2r) = e^(-r)
        st = radial_state(hydrogen, H("1"))
        r = np.linspace(0.1, 12.0, 25)
        ratio = chi(st, r) / (2.0 * r * np.exp(-r))
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12

    def test_square_integrable(self, shifted):
        # int R^2 r^2 dr = (K^3/4) int chi^2 dx
        st = radial_state(shifted, H("7/2"))
        K = st.level.K
        x = np.linspace(1e-4, 80.0 * K, 200001) / K
        total = trapezoid(chi(st, x) ** 2, x)
        assert math.isfinite(total) and total > 0.0
        tail_x = np.linspace(80.0, 160.0, 2001)
        tail = trapezoid(chi(st, tail_x) ** 2, tail_x)
        assert tail <= 1e-10 * total


class TestAngular:
    def test_trivial_sector_is_constant(self, hydrogen):
        ast = angular_state(hydrogen)
        for theta in (0.3, 1.2, 2.9):
            for phi in (0.0, 2.1):
                assert angular_Z(ast, theta, phi) == 1.0 + 0.0j

    def test_trivial_sector_near_the_poles_is_silent(self, hydrogen):
        # Z needs no power of cos or sin below m1 or m2, which would overflow here
        ast = angular_state(hydrogen)
        thetas = (1e-200, 1e-100, math.pi - 4e-16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in thetas:
                assert angular_Z(ast, theta, 0.0) == 1.0 + 0.0j
            assert np.array_equal(angular_Z(ast, np.array(thetas), 0.0), np.ones(3, dtype=complex))

    def test_p_wave_reduces_to_cos_theta(self):
        sec = make_sector(MonopoleParams(H("0"), 0.0, 0.0), H("0"), H("1"))
        ast = angular_state(sec)
        thetas = np.linspace(0.1, math.pi - 0.1, 21)
        vals = angular_Z(ast, thetas, 0.0)
        assert np.max(np.abs(vals - np.cos(thetas))) <= 1e-14

    def test_modulus_phi_independent(self, shifted):
        ast = angular_state(shifted)
        thetas = np.linspace(0.2, 2.8, 9)
        mags = [np.abs(angular_Z(ast, thetas, phi)) for phi in (0.0, 0.7, 3.1, 5.9)]
        for m in mags[1:]:
            assert np.max(np.abs(m - mags[0])) <= 1e-15

    def test_pole_rejection(self, shifted):
        ast = angular_state(shifted)
        for theta in (0.0, math.pi, -0.1, 3.5):
            with pytest.raises(DomainError):
                angular_Z(ast, theta, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_theta_rejected(self, hydrogen, bad):
        with pytest.raises(DomainError, match="theta must lie in"):
            angular_Z(angular_state(hydrogen), bad, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_phi_rejected(self, shifted, bad):
        # unchecked, a non-finite phi makes Z nan with no error
        ast = angular_state(shifted)
        with pytest.raises(DomainError, match="phi must be finite"):
            angular_Z(ast, 1.0, bad)
        with pytest.raises(DomainError, match="phi must be finite"):
            angular_Z(ast, np.array([0.5, 1.0]), np.array([0.0, bad]))

    def test_trivial_residual_is_exactly_zero(self, hydrogen):
        assert angular_residual(angular_state(hydrogen)) == 0.0

    def test_shifted_sector_residual(self, shifted):
        assert angular_residual(angular_state(shifted)) <= 1e-9

    @pytest.mark.parametrize("j, m", [(1, 0), (1, 1), (2, -1), (3, 2)])
    def test_pure_monopole_free_sectors(self, j, m):
        sec = make_sector(MonopoleParams(H("0"), 0.0, 0.0), HalfInt.from_int(m), HalfInt.from_int(j))
        assert angular_residual(angular_state(sec)) <= 1e-9

    def test_perturbed_separation_constant_fails_loudly(self, shifted):
        # anti-test: the residual must actually measure the equation
        perturbed = dataclasses.replace(shifted, sep_const=shifted.sep_const + 1.0)
        bad = angular_residual(angular_state(perturbed))
        assert bad >= 0.1

    def test_angular_mesh_nodes(self):
        assert np.array_equal(ANGULAR_THETAS, math.pi * np.arange(1, 201) / 201.0)
        with pytest.raises(ValueError, match="read-only"):
            ANGULAR_THETAS[0] = 0.5

    @pytest.mark.parametrize(
        "s, c1, m, j",
        [("0", 0.0, "0", "2"), ("0", 0.0, "0", "20"), ("0", 0.0, "0", "60"), ("0", 0.0, "0", "120"),
         ("1/2", 1.0, "1/2", "1/2")],
        ids=["hydrogen-j2", "hydrogen-j20", "hydrogen-j60", "hydrogen-j120", "shifted"],
    )
    def test_residual_matches_the_phi_mesh_reference(self, s, c1, m, j):
        # the phase e^(i(m-s)phi) has modulus 1, so the theta-only residual is the
        # 8-node phi mesh's up to the rounding of |e^(i(m-s)phi)|; phi = 0 is a node
        # of that mesh, where the phase is exactly 1, so the mesh is never lower
        ast = angular_state(make_sector(MonopoleParams(H(s), c1, 0.0), H(m), H(j)))
        got, ref = angular_residual(ast), angular_residual_phi_mesh(ast)
        assert got <= ref
        assert ref - got <= 4e-16 * ref
