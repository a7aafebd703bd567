"""The exact kernel against its old accumulation, and the canonical form it builds.

Each `ParamPoly` stores int numerators over one reduced int denominator, and
`compose` and `monomial_action` work on those numerators directly;
`oracles.compose_reference` and `oracles.monomial_action_reference` still
build a validated ParamPoly from `Fraction`s for every partial sum.  Both
must give the same coefficients, every result must be in
the canonical form that `==`, `hash` and `is_zero` rely on, and values built
along different paths must be equal and hash alike.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from micz_su11.operator_algebra import NormalOrderedOperator, ParamPoly, compose, monomial_action
from oracles import compose_reference, monomial_action_reference

X_INV = NormalOrderedOperator.x_power(-1)


def plain(op: NormalOrderedOperator) -> dict:
    return {key: dict(poly.items()) for key, poly in op.items()}


def plain_image(image: list) -> list:
    return [(power, dict(poly.items())) for power, poly in image]


def assert_canonical_poly(poly: ParamPoly) -> None:
    # the stored form: nonzero int numerators over one int denominator, reduced together
    assert type(poly._den) is int and poly._den >= 1
    for n in poly._terms.values():
        assert type(n) is int and n != 0, f"numerator {n!r} stored"
    assert math.gcd(poly._den, *poly._terms.values()) == 1, "numerators and denominator share a factor"
    for (jp, kp), c in poly.items():
        assert type(jp) is int and type(kp) is int
        assert type(c) is Fraction, f"coefficient {c!r} is a {type(c).__name__}"
        assert c != 0, "zero coefficient stored"


def assert_canonical(op: NormalOrderedOperator) -> None:
    for (xp, dq), poly in op.items():
        assert type(xp) is int and type(dq) is int and dq >= 0
        assert type(poly) is ParamPoly
        assert not poly.is_zero, f"zero coefficient stored at x^{xp} D^{dq}"
        assert_canonical_poly(poly)


def assert_canonical_image(image: list) -> None:
    for _, poly in image:
        assert not poly.is_zero
        assert_canonical_poly(poly)


# coefficients of J/K degree <= 2; ints and zeros exercise the public constructors
coefficients = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(-3, 3))
monomials = st.integers(0, 2).flatmap(lambda jp: st.tuples(st.just(jp), st.integers(0, 2 - jp)))
polys = st.dictionaries(monomials, coefficients, max_size=3).map(ParamPoly)
operators = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 3)), polys, max_size=4
).map(NormalOrderedOperator)


# 1 and the primes up to 97: distinct draws are pairwise coprime, so the common
# denominator of an operator is the product of its coefficients' denominators
COPRIME_DENOMINATORS = [1] + [d for d in range(2, 98) if all(d % f for f in range(2, d))]


@st.composite
def coprime_operators(draw):
    """Up to four terms of up to three monomials each, every coefficient n/d with its own d."""
    keys = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), max_size=4, unique=True))
    shapes = [draw(st.lists(monomials, min_size=1, max_size=3, unique=True)) for _ in keys]
    size = sum(map(len, shapes))
    dens = iter(draw(st.lists(st.sampled_from(COPRIME_DENOMINATORS), min_size=size, max_size=size, unique=True)))
    nums = iter(draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size)))
    return NormalOrderedOperator(
        {key: ParamPoly({m: Fraction(next(nums), next(dens)) for m in shape}) for key, shape in zip(keys, shapes)}
    )


def vanishing_powers(op: NormalOrderedOperator) -> set[int]:
    """x^k for k in {0, 1, q-1}: images where falling factorials vanish and terms cancel."""
    return {0, 1} | {dq - 1 for (_, dq), _ in op.items()}


@settings(max_examples=150, deadline=None)
@given(operators, operators, polys)
def test_kernel_matches_reference(a, b, p):
    cases = [
        (a, b),
        (a + (-a), b),
        (a, b - b),
        (a, b + a),
        # D + x^-1 composed with x^-1: the x^-2 terms cancel inside one product
        (NormalOrderedOperator({(0, 1): p, (-1, 0): p}), X_INV),
    ]
    cases += [(a, NormalOrderedOperator.x_power(k, p)) for k in vanishing_powers(a)]
    for lhs, rhs in cases:
        new = compose(lhs, rhs)
        assert plain(new) == plain(compose_reference(lhs, rhs))
        assert_canonical(new)
    assert compose(a, b) - compose(a, b) == NormalOrderedOperator.zero()
    assert plain(compose(NormalOrderedOperator({(0, 1): p, (-1, 0): p}), X_INV)) == plain(
        NormalOrderedOperator({(-1, 1): p})
    )
    ab = compose(a, b)
    for op in (a, ab, ab - compose_reference(a, b), a + (-a)):
        for k in sorted(vanishing_powers(op) | {-2, 3}):
            image = monomial_action(op, k)
            assert plain_image(image) == plain_image(monomial_action_reference(op, k))
            assert_canonical_image(image)


@settings(max_examples=100, deadline=None)
@given(coprime_operators(), coprime_operators(), st.lists(st.integers(-200, 200), min_size=1, max_size=4))
def test_kernel_matches_reference_over_coprime_denominators(a, b, powers):
    ab = compose(a, b)
    assert plain(ab) == plain(compose_reference(a, b))
    assert_canonical(ab)
    for op in (a, ab):
        for k in powers + [200, -200]:
            image = monomial_action(op, k)
            assert plain_image(image) == plain_image(monomial_action_reference(op, k))
            assert_canonical_image(image)


@settings(max_examples=150, deadline=None)
@given(operators, operators, polys, polys, st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)))
def test_results_are_canonical(a, b, p, q, scalar):
    assert_canonical(a)
    assert_canonical_poly(p)
    for poly in (p + q, p - q, p + (-p), -p, p * q, p * scalar, scalar * p, p + scalar, scalar - p, p * 0):
        assert_canonical_poly(poly)
    for op in (a + b, a - b, a + (-a), -a, a * p, a * scalar, scalar * a, a * 0, p * a,
               compose(a, b), compose(a, a) - compose(a, a)):
        assert_canonical(op)
    assert (a + (-a)).is_zero and (p - p).is_zero and (a * 0).is_zero
    for k in range(-3, 4):
        assert_canonical_image(monomial_action(a, k))


def test_integer_coefficients_become_fractions():
    op = NormalOrderedOperator({(1, 0): 2, (0, 1): ParamPoly({(1, 0): 3})})
    for result in (op, op + NormalOrderedOperator.zero(), op * 1, compose(op, NormalOrderedOperator.identity())):
        assert_canonical(result)
    assert_canonical_poly(ParamPoly.const(5) * 2)


def assert_same(x, y) -> None:
    assert x == y and y == x
    assert hash(x) == hash(y)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(monomials, st.integers(-12, 12), max_size=4), st.integers(1, 12), st.integers(2, 6),
       polys, operators, operators)
def test_equal_values_hash_equal_across_construction_paths(nums, d, f, q, a, b):
    exact = ParamPoly({m: Fraction(n, d) for m, n in nums.items()})
    builds = [
        ParamPoly({m: Fraction(n * f, d * f) for m, n in nums.items()}),
        ParamPoly(nums) * Fraction(1, d),
        # every scaled numerator shares f with the denominator until it is reduced
        ParamPoly({m: n * f for m, n in nums.items()}) * Fraction(1, d * f),
        (exact + q) - q,
        -(-exact),
    ]
    for poly in builds:
        assert_canonical_poly(poly)
        assert_same(poly, exact)
    assert_same(ParamPoly(nums), ParamPoly({m: Fraction(n) for m, n in nums.items()}))
    assert_same(ParamPoly(nums), ParamPoly({m: Fraction(n * f, f) for m, n in nums.items()}))
    assert_same(exact * q, q * exact)
    if exact.is_constant:
        value = exact.constant_value()
        assert_same(exact, value)
        for poly in builds:
            assert hash(poly) == hash(value)

    op = NormalOrderedOperator({(1, 0): exact, (0, 2): q})
    assert_same(op, NormalOrderedOperator({(1, 0): builds[2], (0, 2): (q + exact) - exact}))
    assert_same((a + b) - b, a)
    assert_same(compose(a, b), compose_reference(a, b))
    assert_same(compose(op, a), compose_reference(op, a))
