"""The factorization of the radial operator derived a second time, in sympy.

The program's generators come from `operator_algebra`'s own kernel: its
`ParamPoly` coefficients, its normal-ordering rule D x^k = x^k D + k x^(k-1)
and `solve_schrodinger_ansatz`.  Here sympy derives them again from
Ln = -x^2 D^2 - 2K x + x^2 alone, with every operator a map on a function
u(x), and every `generator_table()` entry is compared with the sympy one
term by term.  sympy then proves the su(1,1) relations, the Casimir and the
discrete-series representation T+ Q_k = -Q_(k+1),
T- Q_(k+1) = -(k+1)(k+2J+2) Q_k on Q_k = k! L_k^(2J+1)(2x), symbolic in J.
A corrupted T3 and a flipped normal-ordering sign each fail the comparison.
"""

import inspect
import math
from fractions import Fraction
from functools import cache

import pytest
import sympy

from micz_su11 import operator_algebra
from micz_su11.operator_algebra import NoFactorization, NormalOrderedOperator, ParamPoly
from oracles import corrupted_generators

x = sympy.Symbol("x", positive=True)
J, K = sympy.symbols("J K")
u = sympy.Function("u")(x)
KMAX = 10  # the depth of the representation check


def D(e):
    return sympy.diff(e, x)


def Ln(e):
    return -x**2 * D(D(e)) - 2 * K * x * e + x**2 * e


def T3(e):
    """Ln chi = -J(J+1) chi divided by 2x: T3 = (1/2) x^-1 (Ln + J(J+1)) + K, with T3 chi = K chi."""
    return (Ln(e) + J * (J + 1) * e) / (2 * x) + K * e


def normal_form(image) -> dict[tuple[int, int], sympy.Expr]:
    """The coefficients c(J, K) of x^p D^q in an operator's image of u, keyed by (p, q), zeros dropped."""
    terms: dict[tuple[int, int], sympy.Expr] = {}
    for term in sympy.Add.make_args(sympy.expand(image)):
        q = next((d.derivative_count for d in term.atoms(sympy.Derivative)), 0)
        rest = term / (sympy.diff(u, (x, q)) if q else u)
        c, p = rest.as_coeff_exponent(x)
        terms[(int(p), q)] = terms.get((int(p), q), 0) + c
    return {key: c for key, c in ((key, sympy.expand(c)) for key, c in terms.items()) if c != 0}


@cache
def ansatz_branches() -> tuple[dict, ...]:
    """Every solution of (xD + a x + b)(-xD + c x + f) = Ln + g, each coefficient a polynomial in K."""
    a, b, c, f, g = coeffs = sympy.symbols("a b c f g")
    residual = normal_form(x * D(-x * D(u) + c * x * u + f * u) + (a * x + b) * (-x * D(u) + c * x * u + f * u)
                           - Ln(u) - g * u)
    return tuple(sympy.solve(list(residual.values()), coeffs, dict=True))


@cache
def sympy_operators() -> dict[str, object]:
    """Ln, T3, T_pm, the five products and T_pm^n, all from the +1 branch of the ansatz.

    T+^n is the right factor and T-^n the left factor plus 1; T_pm is
    T_pm^n with the scalar K replaced by T3, composed on the right of the
    K-linear part.
    """
    a, b, c, f, g = sympy.symbols("a b c f g")
    branch = next(s for s in ansatz_branches() if s[a] == 1)
    a, b, c, f = (branch[v] for v in (a, b, c, f))
    assert (a, b, c, f, branch[g]) == (1, -K - 1, 1, -K, K**2 + K)
    right_rest, left_rest = c * x + f, a * x + b + 1
    assert sympy.degree(right_rest, K) <= 1 and sympy.degree(left_rest, K) <= 1

    def tpn(e, k=K):
        return -x * D(e) + right_rest.subs(K, k) * e

    def tmn(e, k=K):
        return x * D(e) + left_rest.subs(K, k) * e

    def with_T3(factor):
        return lambda e: factor(e, 0) + factor(T3(e), 1) - factor(T3(e), 0)

    ops = {"T3": T3, "T+": with_T3(tpn), "T-": with_T3(tmn), "Ln": Ln}
    for name in ("T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+"):
        left, right = (ops[n] for n in name.split())
        ops[name] = lambda e, left=left, right=right: left(right(e))
    return {**ops, "T+^n": tpn, "T-^n": tmn}


@cache
def sympy_table() -> dict[str, dict[tuple[int, int], sympy.Expr]]:
    return {name: normal_form(op(u)) for name, op in sympy_operators().items()}


def program_terms(op: NormalOrderedOperator) -> dict[tuple[int, int], sympy.Expr]:
    return {key: sympy.expand(sum(sympy.Rational(c.numerator, c.denominator) * J**jp * K**kp
                                  for (jp, kp), c in poly.items()))
            for key, poly in op.items()}


def to_program(terms: dict[tuple[int, int], sympy.Expr]) -> NormalOrderedOperator:
    return NormalOrderedOperator({
        key: ParamPoly({(jp, kp): Fraction(int(c.p), int(c.q)) for (jp, kp), c in sympy.Poly(coeff, J, K).terms()})
        for key, coeff in terms.items()
    })


def mismatches(table) -> list[str]:
    """The names of `table` whose terms differ from the sympy derivation's."""
    ours = sympy_table()
    return [name for name, op in table.items() if program_terms(op) != ours[name]]


# ---------------------------------------------------------------------------
# The derivation
# ---------------------------------------------------------------------------

def test_ansatz_has_the_two_branches():
    a, b, c, f, g = sympy.symbols("a b c f g")
    branches = {tuple(s[v] for v in (a, b, c, f, g)) for s in ansatz_branches()}
    assert branches == {(1, -K - 1, 1, -K, K**2 + K), (-1, K - 1, -1, K, K**2 - K)}


def test_T3_eigenvalue_equation():
    # T3 chi = K chi exactly when Ln chi = -J(J+1) chi
    diff = normal_form(2 * x * (T3(u) - K * u) - Ln(u) - J * (J + 1) * u)
    assert diff == {}


def test_generator_table_matches_the_sympy_derivation_term_by_term():
    table = operator_algebra.generator_table()
    assert list(table) == ["T3", "T+", "T-", "Ln", "T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+"]
    assert mismatches(table) == []


def test_first_order_factors_match():
    plus = operator_algebra.solve_schrodinger_ansatz(operator_algebra.build_Ln())[0]
    ours = sympy_table()
    assert program_terms(plus.right_factor()) == ours["T+^n"]
    assert program_terms(plus.left_factor() + NormalOrderedOperator.identity()) == ours["T-^n"]


# ---------------------------------------------------------------------------
# The algebra, proved in sympy
# ---------------------------------------------------------------------------

def test_su11_relations():
    ops = sympy_operators()
    t3, tp, tm = ops["T3"], ops["T+"], ops["T-"]
    assert normal_form(tp(tm(u)) - tm(tp(u)) + 2 * t3(u)) == {}
    assert normal_form(t3(tp(u)) - tp(t3(u)) - tp(u)) == {}
    assert normal_form(t3(tm(u)) - tm(t3(u)) + tm(u)) == {}


def test_casimir():
    ops = sympy_operators()
    t3, tp, tm = ops["T3"], ops["T+"], ops["T-"]
    assert normal_form(t3(t3(u)) - t3(u) - tp(tm(u)) - J * (J + 1) * u) == {}


def test_factorization_products():
    ops = sympy_operators()
    tpn, tmn = ops["T+^n"], ops["T-^n"]
    assert normal_form(tmn(tpn(u)) - tpn(u) - Ln(u) - (K**2 + K) * u) == {}
    assert normal_form(tpn(tmn(u)) + tmn(u) - Ln(u) - (K**2 - K) * u) == {}


# ---------------------------------------------------------------------------
# The representation on Q_k = k! L_k^(2J+1)(2x), in Poly over QQ[J]
# ---------------------------------------------------------------------------

def conjugated(terms: dict[tuple[int, int], sympy.Expr]):
    """The map Q -> w^-1 T (w Q) on polynomials Q in x, w = (2x)^(J+1) e^(-x), so D -> D + (J+1)/x - 1.

    (D + (J+1)/x - 1) (P x^-m) = (x P' + (J+1-m) P - x P) x^-(m+1), so each
    term c x^p D^q sends Q to c P_q x^(p-q) with P_0 = Q.
    """
    X = sympy.Poly(x, x, domain="QQ[J]")
    J1 = sympy.Poly(J + 1, x, domain="QQ[J]")
    qmax = max(q for _, q in terms)
    coeffs = {key: sympy.Poly(c, x, domain="QQ[J]") for key, c in terms.items()}
    low = min(p - q for p, q in terms)

    def apply(Q):
        P = [Q]
        for m in range(qmax):
            P.append(X * P[m].diff(x) + (J1 - m) * P[m] - X * P[m])
        total = sum((coeffs[(p, q)] * P[q] * X**(p - q - low) for p, q in terms), sympy.Poly(0, x, domain="QQ[J]"))
        quotient, remainder = total.div(X**(-low)) if low < 0 else (total, 0)
        assert remainder == 0  # w^-1 T w keeps polynomials polynomial
        return quotient

    return apply


def laguerre_Q(k: int):
    """k! L_k^(2J+1)(2x) = sum_i (-1)^i C(k, i) (2J+2+i)_(k-i) (2x)^i."""
    return sympy.Poly(sum((-1)**i * math.comb(k, i) * sympy.rf(2 * J + 2 + i, k - i) * (2 * x)**i
                          for i in range(k + 1)), x, domain="QQ[J]")


def test_discrete_series_representation():
    table = sympy_table()
    tp, tm, t3 = conjugated(table["T+"]), conjugated(table["T-"]), conjugated(table["T3"])
    Q = [laguerre_Q(k) for k in range(KMAX + 2)]
    assert tm(Q[0]).is_zero
    for k in range(KMAX + 1):
        assert t3(Q[k]) == (J + 1 + k) * Q[k]
        assert tp(Q[k]) == -Q[k + 1]
        assert tm(Q[k + 1]) == -(k + 1) * (k + 2 * J + 2) * Q[k]


# ---------------------------------------------------------------------------
# The comparison catches a corrupted derivation
# ---------------------------------------------------------------------------

def fresh_table(monkeypatch):
    """Give `generator_table` a cache of its own, so that it reads a patched derivation."""
    monkeypatch.setattr(operator_algebra, "generator_table", cache(operator_algebra.generator_table.__wrapped__))


def test_corrupted_generators_fail(monkeypatch):
    monkeypatch.setattr(operator_algebra, "_generators", corrupted_generators())
    fresh_table(monkeypatch)
    assert mismatches(operator_algebra.generator_table()) == [
        "T3", "T+", "T-", "T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+"]


def flipped_compose():
    """A copy of `operator_algebra.compose` that orders by D x^r = x^r D - r x^(r-1).

    Each weight C(q, i) r^(i-falling) of the rule takes the sign (-1)^i.
    """
    source = inspect.getsource(operator_algebra.compose)
    rule = "w = w * (q - i) * (r - i) // (i + 1)"
    assert source.count(rule) == 1
    namespace = dict(vars(operator_algebra))
    exec(source.replace(rule, "w = -w * (q - i) * (r - i) // (i + 1)"), namespace)
    return namespace["compose"]


def test_flipped_normal_ordering_fails(monkeypatch):
    monkeypatch.setattr(operator_algebra, "compose", flipped_compose())
    monkeypatch.setattr(operator_algebra, "_generators", cache(operator_algebra._generators.__wrapped__))
    fresh_table(monkeypatch)
    with pytest.raises(NoFactorization):  # the ansatz no longer re-expands to Ln
        operator_algebra.generator_table()
    # and the products composed from the true T3, T+^n and T-^n come out wrong
    ours = sympy_table()
    table = operator_algebra._derivation(*(to_program(ours[name]) for name in ("T3", "T+^n", "T-^n")))
    assert mismatches(table) == ["T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+"]
