import copy
import math
import pickle
import re
import sys
from dataclasses import asdict, fields
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from micz_su11.fd_oracle import RadialGrid
from micz_su11.quantum_numbers import (
    HalfInt,
    InvalidLevel,
    InvalidQuantumNumbers,
    MonopoleParams,
    energy,
    levels,
    m_plus,
    make_sector,
)

H = HalfInt.parse


def sector(s, c1, c2, m, j):
    return make_sector(MonopoleParams(H(s), c1, c2), H(m), H(j))


class TestHalfInt:
    @pytest.mark.parametrize(
        "text, twice",
        [("0", 0), ("2", 4), ("-1", -2), ("1/2", 1), ("-3/2", -3), ("1.5", 3), ("0.5", 1), ("4/2", 4)],
    )
    def test_parse(self, text, twice):
        assert H(text).twice_value == twice

    @pytest.mark.parametrize("text", ["0.3", "1/3", "x", "", "3/4"])
    def test_parse_rejects_non_half_integers(self, text):
        with pytest.raises(InvalidQuantumNumbers):
            H(text)

    def test_str_roundtrip(self):
        assert str(H("3/2")) == "3/2"
        assert str(H("2")) == "2"
        assert str(H("-1/2")) == "-1/2"

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-25, 25))
    def test_arithmetic_is_exact(self, a, b, k):
        x, y = HalfInt(a), HalfInt(b)
        assert float(x + y) == float(x) + float(y)
        assert float(x - y) == float(x) - float(y)
        assert ((x < y), (x <= y), (x > y), (x >= y)) == ((a < b), (a <= b), (a > b), (a >= b))
        # against a plain int on either side, which counts as the label 2k/2
        assert ((x < k), (x <= k), (x > k), (x >= k)) == ((a < 2 * k), (a <= 2 * k), (a > 2 * k), (a >= 2 * k))
        assert ((k < x), (k <= x), (k > x), (k >= x)) == ((2 * k < a), (2 * k <= a), (2 * k > a), (2 * k >= a))
        assert abs(x).twice_value == abs(a)

    # half-odd labels around the hash modulus P, where the hash wraps; for
    # t = -(P + 2) the rational rule gives -1, which hash() reports as -2
    @given(st.one_of(st.integers(-50, 50), st.integers(-(2**200), 2**200)))
    @example(-1)
    @example(sys.hash_info.modulus)
    @example(-sys.hash_info.modulus)
    @example(-(sys.hash_info.modulus + 2))
    @example(2 * sys.hash_info.modulus + 1)
    @example(-(3**301))
    def test_hash_is_that_of_the_fraction(self, twice):
        x = HalfInt(twice)
        assert hash(x) == hash(Fraction(twice, 2))
        if twice % 2 == 0:
            assert hash(x) == hash(twice // 2)

    def test_int_mixing(self):
        assert H("1/2") + 1 == H("3/2")
        assert H("3/2") - 1 == H("1/2")
        assert H("2") == 2
        assert H("1/2").parity == 1 and H("3").parity == 0


class TestMakeSector:
    def test_zero_coupling_trivial_sector(self):
        sec = sector("0", 0.0, 0.0, "0", "0")
        assert sec.delta1 == 0.0 and sec.delta2 == 0.0
        assert sec.bigJ == 0.0
        assert sec.sep_const == 0.0

    def test_shifted_sector_labels(self):
        # s=1/2, c1=1: m1 = sqrt(0 + 4) = 2 exactly, so delta1 = 2
        sec = sector("1/2", 1.0, 0.0, "1/2", "1/2")
        assert sec.delta1 == 2.0
        assert sec.delta2 == 0.0
        assert sec.m1 == 2.0
        assert sec.m2 == 1.0
        assert sec.mplus == H("1/2")
        assert sec.bigJ == 1.5
        assert sec.sep_const == 1.5 * 2.5

    def test_j_below_mplus_rejected(self):
        with pytest.raises(InvalidQuantumNumbers, match="m_plus"):
            sector("1", 0.0, 0.0, "0", "0")

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InvalidQuantumNumbers):
            sector("1/2", 0.0, 0.0, "0", "1/2")
        with pytest.raises(InvalidQuantumNumbers):
            sector("1/2", 0.0, 0.0, "1/2", "1")

    def test_accepted_sectors_have_integer_j_minus_m_plus(self):
        # every (s, m, j) with |2s|, |2m| <= 8 and j <= m_plus + 4 that make_sector accepts
        accepted = 0
        for ts in range(-8, 9):
            for tm in range(-8, 9):
                s, m = HalfInt(ts), HalfInt(tm)
                for tj in range(0, m_plus(s, m).twice_value + 9):
                    try:
                        sec = make_sector(MonopoleParams(s, 0.0, 0.0), m, HalfInt(tj))
                    except InvalidQuantumNumbers:
                        continue
                    accepted += 1
                    assert (sec.j - sec.mplus).parity == 0
        assert accepted > 0

    def test_m_outside_j_rejected(self):
        with pytest.raises(InvalidQuantumNumbers):
            sector("0", 0.0, 0.0, "2", "1")

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidQuantumNumbers):
            MonopoleParams(H("0"), -0.5, 0.0)

    def test_signed_zero_coupling_becomes_plus_zero(self):
        params = MonopoleParams(H("0"), -0.0, -0.0)
        assert math.copysign(1.0, params.c1) == math.copysign(1.0, params.c2) == 1.0
        assert params == MonopoleParams(H("0"), 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c1", "c2"])
    def test_non_finite_coupling_rejected(self, field, bad):
        couplings = {"c1": 0.0, "c2": 0.0, field: bad}
        with pytest.raises(InvalidQuantumNumbers, match=f"coupling {field} must be finite"):
            MonopoleParams(H("0"), **couplings)

    @pytest.mark.parametrize("field", ["c1", "c2"])
    def test_coupling_overflowing_m1_m2_rejected(self, field):
        couplings = {"c1": 0.0, "c2": 0.0, field: 1e308}
        with pytest.raises(InvalidQuantumNumbers, match=f"coupling {field}=1e\\+308 is too large"):
            make_sector(MonopoleParams(H("0"), **couplings), H("0"), H("0"))

    @pytest.mark.parametrize("m, label, value, formula", [("1e200", "m+s", "2e\\+200", "m2"),
                                                          ("-1e200", "m-s", "-2e\\+200", "m1")])
    def test_label_whose_square_overflows_named_not_the_coupling(self, m, label, value, formula):
        # m -+ s fits a float but its square does not; both couplings are zero
        with pytest.raises(InvalidQuantumNumbers) as exc:
            sector("1e200", 0.0, 0.0, m, "1e200")
        msg = str(exc.value)
        assert re.match(rf"^labels too large: {re.escape(label)}={value} squared overflows in {formula} = ", msg)
        assert "coupling" not in msg

    def test_overflowing_separation_constant_rejected(self):
        # m1 and m2 stay finite, but J = j + sqrt(c1) + sqrt(c2) squared does not
        with pytest.raises(InvalidQuantumNumbers, match=r"J\(J\+1\) overflows .*c1=4e\+307, c2=1.0"):
            sector("0", 4e307, 1.0, "0", "1" + "0" * 154)

    def test_largest_finite_sector_accepted(self):
        sec = sector("0", 4e307, 0.0, "0", "0")
        assert math.isfinite(sec.sep_const) and sec.bigJ == pytest.approx(0.5 * math.sqrt(1.6e308))

    @pytest.mark.parametrize("flag, labels", [("s", ("1e400", "0", "0")), ("m", ("0", "1e400", "1e400")),
                                              ("j", ("0", "0", "1e400"))])
    def test_label_too_large_for_a_float_rejected(self, flag, labels):
        s, m, j = labels
        with pytest.raises(InvalidQuantumNumbers, match=rf"^{flag} is too large: \|{flag}\| must not exceed"):
            sector(s, 0.0, 0.0, m, j)

    def test_large_label_that_fits_a_float_accepted(self):
        sec = sector("0", 0.0, 0.0, "0", "1e150")
        assert sec.bigJ == 1e150 and sec.sep_const == pytest.approx(1e300)


class TestEnergy:
    def test_hydrogen_ground_state(self):
        sec = sector("0", 0.0, 0.0, "0", "0")
        lv = energy(sec, H("1"))
        assert lv.energy == -0.5
        assert lv.K == 1.0
        assert lv.epsilon == 1.0

    def test_shifted_sector_first_level(self):
        sec = sector("1/2", 1.0, 0.0, "1/2", "1/2")
        lv = energy(sec, H("3/2"))
        assert lv.K == 2.5
        assert lv.energy == pytest.approx(-0.08, rel=1e-15)

    def test_unit_K_spacing(self):
        sec = sector("1/2", 1.0, 0.0, "1/2", "1/2")
        ks = [energy(sec, sec.j + i).K for i in range(1, 8)]
        for lo, hi in zip(ks, ks[1:]):
            assert hi - lo == 1.0

    def test_integer_n_is_the_half_integer(self):
        sec = sector("0", 0.0, 0.0, "0", "0")
        assert energy(sec, 3) == energy(sec, HalfInt.from_int(3))

    def test_invalid_levels(self):
        sec = sector("0", 0.0, 0.0, "0", "1")
        with pytest.raises(InvalidLevel):
            energy(sec, H("1"))  # below j + 1
        with pytest.raises(InvalidLevel):
            energy(sec, H("5/2"))  # wrong parity

    def test_energy_underflow_rejected(self):
        # J(J+1) = 1e308 is finite, but 2K^2 is not: -1/(2K^2) would be -0.0
        sec = sector("0", 0.0, 0.0, "0", "1" + "0" * 154)
        with pytest.raises(InvalidLevel, match=r"^2K\^2 overflows at K=1e\+154, so the energy"):
            energy(sec, sec.j + 1)
        with pytest.raises(InvalidLevel, match=r"2K\^2 overflows"):
            levels(sector("0", 4e307, 4e307, "0", "0"), 1)

    def test_level_too_large_for_a_float_rejected(self):
        sec = sector("0", 0.0, 0.0, "0", "0")
        with pytest.raises(InvalidLevel, match=r"^n is too large: n - j must not exceed"):
            energy(sec, H("1e400"))

    @pytest.mark.parametrize("spec", [("0", 0.0, 0.0, "0", "0"), ("1/2", 1.0, 0.0, "1/2", "1/2"), ("1", 0.3, 0.7, "0", "1")])
    def test_energy_increases_toward_zero(self, spec):
        sec = sector(*spec)
        es = [lv.energy for lv in levels(sec, 12)]
        assert all(e < 0 for e in es)
        assert all(hi > lo for lo, hi in zip(es, es[1:]))

    @pytest.mark.parametrize("spec", [("0", 0.0, 0.0, "0", "0"), ("1/2", 1.0, 0.0, "1/2", "1/2"), ("3/2", 0.2, 0.0, "1/2", "5/2")])
    def test_K_energy_roundtrip(self, spec):
        sec = sector(*spec)
        for lv in levels(sec, 10):
            assert math.isclose(lv.K * lv.K, -1.0 / (2.0 * lv.energy), rel_tol=1e-15)
            assert lv.epsilon * lv.K == pytest.approx(1.0, rel=1e-15)


class TestIrrepLabels:
    """A j tower is a lowest-weight su(1,1) irrep: mu = J, and the state nprime
    steps above the bottom, n = j + nprime + 1, has T3 eigenvalue nu = K = J + nprime + 1."""

    def test_trivial_tower(self):
        sec = sector("0", 0.0, 0.0, "0", "0")
        assert sec.bigJ == 0.0 and energy(sec, sec.j + 1).K == 1.0

    def test_shifted_tower(self):
        sec = sector("1/2", 1.0, 0.0, "1/2", "1/2")
        assert energy(sec, sec.j + 3).K == 4.5

    @pytest.mark.parametrize("nprime", range(6))
    @pytest.mark.parametrize("spec", [("0", 0.0, 0.0, "0", "0"), ("1/2", 1.0, 0.0, "1/2", "1/2")])
    def test_nu_equals_level_K(self, spec, nprime):
        sec = sector(*spec)
        lv = energy(sec, sec.j + (nprime + 1))
        assert lv.K == sec.bigJ + nprime + 1  # exact: K = J + (n - j)
        assert lv.n - sec.j == nprime + 1

    def test_negative_nprime_rejected(self):
        # nprime = -1 is n = j, below the lowest weight
        sec = sector("0", 0.0, 0.0, "0", "0")
        with pytest.raises(InvalidLevel):
            energy(sec, sec.j)


class TestEnumeration:
    @pytest.mark.parametrize("s", ["0", "1/2", "1", "3/2"])
    def test_enumeration_and_validation_agree(self, s):
        params = MonopoleParams(H(s), 0.4, 0.0)
        sv = H(s)
        for tm in range(-6, 7):
            m = HalfInt(2 * tm + sv.parity)
            for j in (m_plus(sv, m) + i for i in range(12)):
                make_sector(params, m, j)  # must validate
            below = m_plus(sv, m) - 1
            if below >= abs(m):
                with pytest.raises(InvalidQuantumNumbers):
                    make_sector(params, m, below)

    @pytest.mark.parametrize("s", ["0", "1", "1/2", "5/2"])
    def test_parity_of_enumerated_labels(self, s):
        params = MonopoleParams(H(s), 0.0, 0.25)
        sv = H(s)
        m = HalfInt(sv.parity)  # smallest non-negative m of matching parity
        for j in (m_plus(sv, m) + i for i in range(8)):
            assert j.parity == sv.parity
            sec = make_sector(params, m, j)
            for lv in levels(sec, 6):
                assert lv.n.parity == sv.parity


class TestHashAndCopies:
    """Labels and grids hash by their values, and ==, repr, asdict, pickles and copies agree on equal instances."""

    BUILDERS = [
        lambda: H("-3/2"),
        lambda: MonopoleParams(H("1/2"), 1.0, 0.0),
        lambda: sector("1", 2.0, 0.5, "-1", "2"),
        lambda: RadialGrid(150.0, 6000),
    ]

    @pytest.mark.parametrize("build", BUILDERS, ids=["HalfInt", "MonopoleParams", "SectorLabels", "RadialGrid"])
    def test_hash_follows_the_fields_and_copies_round_trip(self, build):
        x, fresh = build(), build()
        by_fields = hash(tuple(getattr(x, f.name) for f in fields(x)))
        before = pickle.dumps(x)
        assert hash(x) == hash(x) == hash(fresh)
        if not isinstance(x, HalfInt):  # HalfInt hashes like the Fraction of its value
            assert hash(x) == by_fields
        assert x == fresh and repr(x) == repr(fresh) and asdict(x) == asdict(fresh)
        assert pickle.dumps(x) == before == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x)

    def test_hash_of_minus_one_is_reported_as_minus_two(self):
        # the rational rule gives -1 at t = -(P + 2)
        x = HalfInt(-(sys.hash_info.modulus + 2))
        assert hash(x) == hash(x) == hash(Fraction(x.twice_value, 2)) == -2
