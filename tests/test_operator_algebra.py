from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz_su11 import cli, operator_algebra
from micz_su11.operator_algebra import (
    NoFactorization,
    NormalOrderedOperator,
    ParamPoly,
    build_Ln,
    casimir,
    commutator,
    compose,
    extra_identity_checks,
    generator_table,
    identity_suite,
    monomial_action,
    replace_K,
    solve_schrodinger_ansatz,
)
from oracles import build_T3, build_Tpm, build_Tpm_n, corrupted_generators, substitute

J = ParamPoly.J()
K = ParamPoly.K()
ONE = NormalOrderedOperator.identity()
X = NormalOrderedOperator.x_power(1)
D = NormalOrderedOperator({(0, 1): 1})
XD = NormalOrderedOperator({(1, 1): 1})
GENERATORS = ("T3", "T+", "T-", "Ln", "T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+")
# `_float_terms()` of each `generator_table()` entry: the order `substitute` sums in,
# so a kernel change that reorders any coefficient's terms fails here first
FLOAT_TERMS = {
    'T3': (
        (1, 2, ((-0.5, 0, 0),)),
        (-1, 0, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 0, ((0.5, 0, 0),)),
    ),
    'T+': (
        (1, 2, ((0.5, 0, 0),)),
        (1, 1, ((-1.0, 0, 0),)),
        (-1, 0, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 0, ((0.5, 0, 0),)),
    ),
    'T-': (
        (1, 2, ((0.5, 0, 0),)),
        (1, 1, ((1.0, 0, 0),)),
        (-1, 0, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 0, ((0.5, 0, 0),)),
    ),
    'Ln': (
        (2, 2, ((-1.0, 0, 0),)),
        (1, 0, ((-2.0, 0, 1),)),
        (2, 0, ((1.0, 0, 0),)),
    ),
    'T3 T+': (
        (2, 4, ((-0.25, 0, 0),)),
        (1, 3, ((-0.5, 0, 0),)),
        (2, 3, ((0.5, 0, 0),)),
        (0, 2, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 2, ((1.0, 0, 0),)),
        (-1, 1, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (0, 1, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 1, ((-0.5, 0, 0),)),
        (2, 1, ((-0.5, 0, 0),)),
        (-2, 0, ((0.25, 2, 0), (0.5, 1, 0), (-0.25, 4, 0), (-0.5, 3, 0))),
        (2, 0, ((0.25, 0, 0),)),
    ),
    'T3 T-': (
        (2, 4, ((-0.25, 0, 0),)),
        (1, 3, ((-0.5, 0, 0),)),
        (2, 3, ((-0.5, 0, 0),)),
        (0, 2, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 2, ((-1.0, 0, 0),)),
        (-1, 1, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (0, 1, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 1, ((-0.5, 0, 0),)),
        (2, 1, ((0.5, 0, 0),)),
        (-2, 0, ((0.25, 2, 0), (0.5, 1, 0), (-0.25, 4, 0), (-0.5, 3, 0))),
        (2, 0, ((0.25, 0, 0),)),
    ),
    'T3 T3': (
        (2, 4, ((0.25, 0, 0),)),
        (1, 3, ((0.5, 0, 0),)),
        (0, 2, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (2, 2, ((-0.5, 0, 0),)),
        (-1, 1, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 1, ((-0.5, 0, 0),)),
        (-2, 0, ((-0.25, 2, 0), (-0.5, 1, 0), (0.25, 4, 0), (0.5, 3, 0))),
        (0, 0, ((0.5, 2, 0), (0.5, 1, 0))),
        (2, 0, ((0.25, 0, 0),)),
    ),
    'T+ T-': (
        (2, 4, ((0.25, 0, 0),)),
        (1, 3, ((0.5, 0, 0),)),
        (0, 2, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 2, ((0.5, 0, 0),)),
        (2, 2, ((-0.5, 0, 0),)),
        (-1, 1, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 1, ((-0.5, 0, 0),)),
        (-2, 0, ((-0.25, 2, 0), (-0.5, 1, 0), (0.25, 4, 0), (0.5, 3, 0))),
        (-1, 0, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (0, 0, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 0, ((-0.5, 0, 0),)),
        (2, 0, ((0.25, 0, 0),)),
    ),
    'T- T+': (
        (2, 4, ((0.25, 0, 0),)),
        (1, 3, ((0.5, 0, 0),)),
        (0, 2, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 2, ((-0.5, 0, 0),)),
        (2, 2, ((-0.5, 0, 0),)),
        (-1, 1, ((0.5, 2, 0), (0.5, 1, 0))),
        (1, 1, ((-0.5, 0, 0),)),
        (-2, 0, ((-0.25, 2, 0), (-0.5, 1, 0), (0.25, 4, 0), (0.5, 3, 0))),
        (-1, 0, ((0.5, 2, 0), (0.5, 1, 0))),
        (0, 0, ((-0.5, 2, 0), (-0.5, 1, 0))),
        (1, 0, ((0.5, 0, 0),)),
        (2, 0, ((0.25, 0, 0),)),
    ),
}


def gen(name: str) -> NormalOrderedOperator:
    """The program's operator: derived from the factorization of Ln, composed once."""
    return generator_table()[name]


def derived_factors() -> tuple[NormalOrderedOperator, NormalOrderedOperator]:
    """T+^n and T-^n as the +1 branch of the ansatz for Ln gives them."""
    plus = solve_schrodinger_ansatz(build_Ln())[0]
    return plus.right_factor(), plus.left_factor() + ONE


def reference_table() -> dict[str, NormalOrderedOperator]:
    """`generator_table()` rebuilt from the typed-in formulas of `tests/oracles.py`."""
    t3, tp, tm = build_T3(), build_Tpm(+1), build_Tpm(-1)
    return {
        "T3": t3,
        "T+": tp,
        "T-": tm,
        "Ln": build_Ln(),
        "T3 T+": compose(t3, tp),
        "T3 T-": compose(t3, tm),
        "T3 T3": compose(t3, t3),
        "T+ T-": compose(tp, tm),
        "T- T+": compose(tm, tp),
    }


def jj1() -> ParamPoly:
    return J * (J + 1)


class TestCompose:
    def test_canonical_commutation(self):
        assert commutator(D, X) == ONE

    def test_euler_operator_square(self):
        # both sides act on x^k as k^2 x^k
        assert compose(XD, XD) == NormalOrderedOperator({(2, 2): 1, (1, 1): 1})

    def test_derivative_through_inverse_power(self):
        xinv = NormalOrderedOperator.x_power(-1)
        expected = NormalOrderedOperator({(-1, 1): 1, (-2, 0): -1})
        assert compose(D, xinv) == expected

    def test_commutator_antisymmetry_on_generators(self):
        for op in (gen("T3"), gen("T+"), build_Ln()):
            assert commutator(op, op).is_zero

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        a = data.draw(small_operators())
        b = data.draw(small_operators())
        c = data.draw(small_operators())
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, b + c) == compose(a, b) + compose(a, c)
        assert compose(a + b, c) == compose(a, c) + compose(b, c)


class TestMonomialActionOracle:
    def test_identity_action(self):
        assert monomial_action(ONE, 5) == [(5, ParamPoly.one())]

    def test_euler_action(self):
        assert monomial_action(XD, 7) == [(7, ParamPoly.const(7))]
        assert monomial_action(XD, 0) == []

    def test_Ln_on_x_squared(self):
        # hand computation: -2 x^2 - 2K x^3 + x^4
        got = dict(monomial_action(build_Ln(), 2))
        assert got == {2: ParamPoly.const(-2), 3: K * (-2), 4: ParamPoly.one()}

    def test_Ln_on_general_monomial(self):
        for k in (-3, -1, 0, 1, 4):
            got = dict(monomial_action(build_Ln(), k))
            expected = {}
            if k * (k - 1) != 0:
                expected[k] = ParamPoly.const(-k * (k - 1))
            expected[k + 1] = K * (-2)
            expected[k + 2] = ParamPoly.one()
            assert got == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_oracle_agrees_with_canonical_equality(self, data):
        a = data.draw(small_operators())
        b = data.draw(small_operators())
        canon_eq = a == b
        diff = a - b
        action_eq = all(not monomial_action(diff, k) for k in range(-4, 13))
        assert canon_eq == action_eq

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_on_constructed_equal_pairs(self, data):
        a = data.draw(small_operators())
        b = data.draw(small_operators())
        c = data.draw(small_operators())
        lhs = compose(a, b + c)
        rhs = compose(a, b) + compose(a, c)
        assert lhs == rhs
        for k in range(-4, 13):
            assert monomial_action(lhs, k) == monomial_action(rhs, k)


class TestBuilders:
    def test_Ln_coefficients(self):
        ln = build_Ln()
        assert ln.coeff(2, 2) == -1
        assert ln.coeff(1, 0) == K * (-2)
        assert ln.coeff(2, 0) == 1

    def test_T3_inverse_power_coefficient(self):
        assert gen("T3").coeff(-1, 0) == jj1() * Fraction(1, 2)

    def test_Tpm_definition(self):
        assert gen("T+") == -XD + X - gen("T3")
        assert gen("T-") == XD + X - gen("T3")

    def test_Tpm_n_shape(self):
        tp, tm = derived_factors()
        assert tp == NormalOrderedOperator({(1, 1): -1, (1, 0): 1, (0, 0): -K})
        assert tm == NormalOrderedOperator({(1, 1): 1, (1, 0): 1, (0, 0): -K})

    def test_generator_table_matches_fresh_builds(self):
        table = generator_table()
        assert generator_table() is table
        assert list(table) == list(GENERATORS)
        assert dict(table) == reference_table()
        with pytest.raises(TypeError):
            table["T3"] = ONE

    @pytest.mark.parametrize("name", GENERATORS)
    def test_derived_terms_keep_the_reference_order(self, name):
        # `substitute` sums each coefficient in insertion order, so equal operators
        # substitute to the same floats only if their terms are also ordered alike
        def layout(op):
            return [(key, list(poly.items())) for key, poly in op.items()]

        assert layout(gen(name)) == layout(reference_table()[name])

    def test_float_terms_are_pinned(self):
        assert {name: gen(name)._float_terms() for name in GENERATORS} == FLOAT_TERMS
        assert list(FLOAT_TERMS) == list(GENERATORS)

    @pytest.mark.parametrize("jval, kval", [(0.0, 1.0), (0.5, 3.5), (1.2071067811865475, 4.2071067811865475),
                                            (7.25, 9.25), (84.0, 90.0), (3.0e5, 3.0e5 + 17.0)])
    def test_substitute_matches_the_reference_bit_for_bit(self, jval, kval):
        reference = reference_table()
        for name in GENERATORS:
            assert substitute(gen(name), jval, kval).terms == substitute(reference[name], jval, kval).terms

    @pytest.mark.parametrize("jval, kval", [(0.5, 3.5), (7.366025403784438, 9.366025403784438), (3.0e5, 3.0e5 + 17.0)])
    def test_substitute_sums_each_fraction_in_stored_order(self, jval, kval):
        # the float table holds float(c) for each exact c, so substitute is the
        # plain Fraction sum float(sum(float(c) J^jp K^kp)) in canonical term order
        for name in GENERATORS:
            op = gen(name)
            expected = []
            for (xp, dq), poly in op.canonical_terms():
                c = float(sum(float(f) * jval**jp * kval**kp for (jp, kp), f in poly.items()))
                if c != 0.0:
                    expected.append((xp, dq, c))
            got = substitute(op, jval, kval).terms
            assert [(xp, dq, c.hex()) for xp, dq, c in got] == [(xp, dq, c.hex()) for xp, dq, c in expected]

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            build_Tpm(0)
        with pytest.raises(ValueError):
            build_Tpm_n(2)

    def test_lowering_factor_annihilates_hydrogen_ground_state(self):
        # T-^n at K=1, J=0 applied to 2x e^-x via closed-form derivatives
        numop = substitute(derived_factors()[1], 0.0, 1.0)
        x = np.linspace(0.05, 12.0, 200)
        derivs = {
            0: 2.0 * x * np.exp(-x),
            1: 2.0 * np.exp(-x) * (1.0 - x),
        }
        out = np.zeros_like(x)
        for xp, dq, c in numop.terms:
            out += c * x**xp * derivs[dq]
        assert np.max(np.abs(out)) <= 1e-13 * np.max(np.abs(derivs[0]))


class TestAlgebraIdentities:
    def test_su11_commutators(self):
        t3, tp, tm = gen("T3"), gen("T+"), gen("T-")
        assert commutator(tp, tm) == -2 * t3
        assert commutator(tp, t3) == -tp
        assert commutator(tm, t3) == tm

    def test_factorization_products(self):
        ln = build_Ln()
        tpn, tmn = derived_factors()
        assert compose(tmn - ONE, tpn) == ln + (K * (K + 1)) * ONE
        assert compose(tpn + ONE, tmn) == ln + (K * (K - 1)) * ONE

    def test_casimir_is_constant(self):
        assert casimir() == jj1() * ONE
        t3, tp, tm = gen("T3"), gen("T+"), gen("T-")
        assert -compose(tm, tp) + compose(t3, t3) + t3 == casimir()  # the mirror form

    def test_identity_suite_all_zero(self):
        suite = identity_suite()
        assert len(suite) == 6
        for name, diff in suite:
            assert diff.is_zero, name
        for name, diff in extra_identity_checks():
            assert diff.is_zero, name

    def test_corrupted_generators_fail_the_suites(self, monkeypatch):
        monkeypatch.setattr(operator_algebra, "_generators", corrupted_generators())
        failing = [name for name, diff in identity_suite() if not diff.is_zero]
        assert failing == ["[T+,T-] + 2 T3", "[T+,T3] + T+", "[T-,T3] - T-", "T^2 - J(J+1)"]
        extra = {name: diff.is_zero for name, diff in extra_identity_checks()}
        # T+- are rebuilt from the corrupted T3, so the definitional rows still hold
        assert extra == {"casimir mirror - casimir": False, "T+ - (T+^n with K -> T3)": True,
                         "T- - (T-^n with K -> T3)": True}

    def test_definitional_K_replacement(self):
        for sign, name in ((+1, "T+"), (-1, "T-")):
            assert replace_K(build_Tpm_n(sign), build_T3()) == build_Tpm(sign)
            assert replace_K(build_Tpm_n(sign), gen("T3")) == gen(name)

    def test_replace_K_rejects_quadratic_K(self):
        op = NormalOrderedOperator({(0, 0): K * K})
        with pytest.raises(ValueError):
            replace_K(op, gen("T3"))


class TestComposeCount:
    """The products are composed once, in the derivation, and the suites read them."""

    @staticmethod
    def count_compose(monkeypatch) -> list:
        calls = []
        real = operator_algebra.compose

        def counted(lhs, rhs):
            calls.append(None)
            return real(lhs, rhs)

        monkeypatch.setattr(operator_algebra, "compose", counted)
        return calls

    def test_an_identity_pass_composes_at_most_8_times(self, monkeypatch):
        operator_algebra._generators()
        calls = self.count_compose(monkeypatch)
        identity_suite()
        extra_identity_checks()
        # [T+-,T3] twice each, the two factorization rows, T+- from T+-^n again
        assert len(calls) <= 8

    def test_fresh_verify_algebra_composes_at_most_18_times(self, monkeypatch, capsys):
        monkeypatch.setattr(operator_algebra, "_generators", cache(operator_algebra._generators.__wrapped__))
        calls = self.count_compose(monkeypatch)
        assert cli.main(["verify-algebra", "--deg-check-max", "20"]) == 0
        capsys.readouterr()
        # 10 in the derivation (ansatz 2, T3 1, T+- 2, products 5) and 8 in the identity pass
        assert len(calls) <= 18


class TestSubstitute:
    def test_T3_at_J_zero_drops_inverse_power(self):
        numop = substitute(gen("T3"), 0.0, 123.0)
        assert numop.terms == ((1, 2, -0.5), (1, 0, 0.5))

    def test_Ln_linear_coefficient_at_K_one(self):
        numop = substitute(build_Ln(), 0.7, 1.0)
        assert (1, 0, -2.0) in numop.terms

    def test_casimir_constant_value(self):
        numop = substitute(casimir(), 1.5, 99.0)
        assert numop.terms == ((0, 0, 3.75),)


class TestSchrodingerAnsatz:
    def test_two_branches_recovered(self):
        sols = solve_schrodinger_ansatz(build_Ln())
        assert [s.branch for s in sols] == [1, -1]
        plus, minus = sols
        assert plus.a == 1 and plus.c == 1
        assert plus.b == -K - 1 and plus.f == -K
        assert plus.g == K * (K + 1) - jj1()
        assert minus.a == -1 and minus.c == -1
        assert minus.b == K - 1 and minus.f == K
        assert minus.g == K * (K - 1) - jj1()

    def test_branches_satisfy_b_equals_f_minus_one(self):
        for sol in solve_schrodinger_ansatz(build_Ln()):
            assert sol.b == sol.f - 1

    def test_reexpansion(self):
        ln = build_Ln()
        for sol in solve_schrodinger_ansatz(ln):
            assert sol.product() == ln + (sol.g - sol.eigenvalue) * ONE

    def test_plus_branch_factors_are_the_ladder_factors(self):
        plus = solve_schrodinger_ansatz(build_Ln())[0]
        assert plus.right_factor() == build_Tpm_n(+1)
        assert plus.left_factor() == build_Tpm_n(-1) - ONE

    def test_degenerate_target_reported(self):
        bare = NormalOrderedOperator({(2, 2): -1})
        with pytest.raises(NoFactorization, match="unconstrained"):
            solve_schrodinger_ansatz(bare)

    def test_wrong_leading_term_rejected(self):
        with pytest.raises(NoFactorization):
            solve_schrodinger_ansatz(NormalOrderedOperator({(2, 2): 1, (2, 0): 1}))

    def test_extraneous_terms_rejected(self):
        bad = build_Ln() + NormalOrderedOperator({(0, 3): 1})
        with pytest.raises(NoFactorization):
            solve_schrodinger_ansatz(bad)

    def test_non_square_quadratic_rejected(self):
        bad = NormalOrderedOperator({(2, 2): -1, (2, 0): 2, (1, 0): K * (-2)})
        with pytest.raises(NoFactorization):
            solve_schrodinger_ansatz(bad)

    @pytest.mark.parametrize("key", [(2, 1), (1, 1)], ids=["x^2 D", "x D"])
    def test_first_derivative_term_rejected(self, key):
        with pytest.raises(NoFactorization, match="x\\^2 D or x D terms"):
            solve_schrodinger_ansatz(build_Ln() + NormalOrderedOperator({key: 1}))

    def test_parameter_dependent_quadratic_rejected(self):
        bad = NormalOrderedOperator({(2, 2): -1, (2, 0): K, (1, 0): K * (-2)})
        with pytest.raises(NoFactorization, match="x\\^2 coefficient must be a constant"):
            solve_schrodinger_ansatz(bad)

    def test_negative_quadratic_is_not_a_rational_square(self):
        bad = NormalOrderedOperator({(2, 2): -1, (2, 0): -1, (1, 0): K * (-2)})
        with pytest.raises(NoFactorization, match="-1 is not a rational square"):
            solve_schrodinger_ansatz(bad)


class TestCanonicalInput:
    """Every stored power is an int, so the kernel's integer arithmetic stays exact."""

    @pytest.mark.parametrize("key", [(1.5, 0), (0, 0.5), (Fraction(1), 0), (0, 1.0)])
    def test_parampoly_rejects_non_integer_powers(self, key):
        with pytest.raises(TypeError):
            ParamPoly({key: 1})

    @pytest.mark.parametrize("key", [(0.5, 0), (0, 1.0), (Fraction(1, 2), 1), (2, Fraction(1))])
    def test_operator_rejects_non_integer_powers(self, key):
        with pytest.raises(TypeError):
            NormalOrderedOperator({key: 1})

    @pytest.mark.parametrize("k", [-0.5, 1.0, Fraction(1, 2)])
    def test_x_power_rejects_non_integer_powers(self, k):
        with pytest.raises(TypeError):
            NormalOrderedOperator.x_power(k)

    @pytest.mark.parametrize("k", [0.5, 2.0, Fraction(1, 2), Fraction(3)])
    def test_monomial_action_rejects_non_integer_powers(self, k):
        with pytest.raises(TypeError):
            monomial_action(compose(D, D), k)

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-2, 3), (np.int64(1), np.int64(-1))],
                             ids=["J", "K", "J-in-a-product", "numpy-K"])
    def test_parampoly_rejects_negative_powers(self, key):
        with pytest.raises(ValueError, match="J and K powers must be non-negative"):
            ParamPoly({key: 1})

    def test_negative_power_with_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="got J\\^0 K\\^-1"):
            ParamPoly({(0, 0): 1, (0, -1): 0})

    @pytest.mark.parametrize("build", [lambda c: NormalOrderedOperator({(0, 0): c}),
                                       lambda c: NormalOrderedOperator.x_power(-1, c)],
                             ids=["operator", "x_power"])
    def test_operator_coefficients_cannot_carry_negative_powers(self, build):
        # J^-1 once rendered as "J^-1" and its substitute at J = 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="got J\\^-1 K\\^0"):
            build(ParamPoly({(-1, 0): 1}))

    def test_integer_like_powers_are_stored_as_ints(self):
        op = NormalOrderedOperator({(np.int64(-1), np.int64(2)): ParamPoly({(np.int64(1), True): 3})})
        assert [(type(xp), type(dq)) for xp, dq in op._terms] == [(int, int)]
        assert [(type(jp), type(kp)) for jp, kp in op.coeff(-1, 2)._terms] == [(int, int)]
        assert monomial_action(D, np.int64(3)) == [(2, ParamPoly.const(3))]

    @pytest.mark.parametrize("value", [0, 2, -7, Fraction(1, 2)])
    def test_constant_hashes_like_its_value(self, value):
        poly = ParamPoly.const(value)
        assert poly == value and hash(poly) == hash(value)
        assert {value: "v"}.get(poly) == "v"
        assert {poly: "p"}.get(value) == "p"


class TestRendering:
    def test_Ln_render(self):
        assert build_Ln().render() == "(-1) x^2 D^2 + (-2K) x + x^2"

    def test_zero_and_identity_render(self):
        assert NormalOrderedOperator.zero().render() == "0"
        assert ONE.render() == "(1)"

    def test_parampoly_render(self):
        assert (K * (K + 1) - jj1()).render() == "K^2 - J^2 + K - J"
        assert ParamPoly.const(Fraction(-1, 2)).render() == "-1/2"
        assert (jj1() * Fraction(1, 2)).render() == "(1/2)J^2 + (1/2)J"

    def test_render_is_deterministic(self):
        a = casimir() - jj1() * ONE
        assert a.render() == "0"
        op = gen("T3")
        assert op.render() == NormalOrderedOperator(dict(op.items())).render()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def small_polys():
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(keys, frac, max_size=2).map(ParamPoly)


def small_operators():
    keys = st.tuples(st.integers(-2, 3), st.integers(0, 3))
    return st.dictionaries(keys, small_polys(), max_size=3).map(NormalOrderedOperator)
