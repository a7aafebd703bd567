"""Exact kernel for one-variable differential operators with Laurent coefficients.

Operators are kept in normal-ordered canonical form: sums of
coeff(J, K) * x^p * D^q with every D moved to the right through the rewrite
D x^k = x^k D + k x^(k-1) (valid for any integer k, negative included).
Coefficients are polynomials in the two indeterminates J and K over exact
rationals; floats only appear in `NormalOrderedOperator._float_terms`.

Canonical form, which `==`, `hash` and `is_zero` rely on: a `ParamPoly`
stores one `int` denominator `_den` >= 1 and maps (jpow, kpow) to nonzero
`int` numerators in first-appearance order, reduced so that
gcd(_den, *numerators) == 1, which makes the form unique for its rational
coefficients; `items()` builds each coefficient as a `Fraction` on demand.
A `NormalOrderedOperator` maps (xpow, dorder >= 0) to a nonzero `ParamPoly`,
every power an `int` and every J or K power >= 0.  The public constructors
check and convert outside input into that form (each power through
`operator.index`, so a float or `Fraction` power raises `TypeError`, and a
negative J or K power raises `ValueError`); the arithmetic, `compose` and
`monomial_action` work on the numerators directly, with one common
denominator per result polynomial and one gcd reduction of it, and hand each
result to the private `_adopt`, which checks nothing.  `compose` puts each
product over the lcm of the left operand's denominators times the right's;
`monomial_action` puts each power's image over the lcm of the denominators
that reach it.

The su(1,1) generators are derived, not typed in, by the Schroedinger
factorization of the radial operator Ln = -x^2 D^2 - 2K x + x^2, whose
bound states satisfy Ln chi = -J(J+1) chi.  Dividing that equation by 2x
gives T3 = (1/2) x^-1 (Ln + J(J+1)) + K, with T3 chi = K chi.  The +1 branch
of `solve_schrodinger_ansatz(Ln)` writes Ln + K(K+1) = (T-^n - 1) T+^n with
the first-order factors T+^n = -xD + x - K and T-^n = xD + x - K, and
replacing the scalar K by T3 (`replace_K`) turns them into the ladder
generators T_pm = -+xD + x - T3.  This derivation runs once per process
into one read-only mapping, `_generators()`, that holds T3, T_pm, Ln, the
five products T3 T+, T3 T-, T3 T3, T+ T- and T- T+, each composed once
there, and T_pm^n; `generator_table()`, `casimir()` and both identity
suites read their operators and products from it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping

Scalar = int | Fraction


class NoFactorization(ValueError):
    """The first-order ansatz cannot reproduce the requested operator."""


def _accumulate(acc: dict, items) -> None:
    """acc[key] += c for each (key, c) in items; a sum that cancels stays as a zero entry."""
    for key, c in items:
        s = acc.get(key)
        acc[key] = c if s is None else s + c


def _reduced(den: int, raw: dict[tuple[int, int], int]) -> "ParamPoly":
    """The ParamPoly of raw's nonzero int numerators over den >= 1, divided through by their gcd with den.

    raw must be a dict that the caller no longer uses: it may become the result's own.
    """
    if 0 in raw.values():
        raw = {m: n for m, n in raw.items() if n}
        if not raw:
            return ParamPoly._adopt(1, raw)
    g = math.gcd(den, *raw.values())
    if g != 1:
        den //= g
        raw = {m: n // g for m, n in raw.items()}
    return ParamPoly._adopt(den, raw)


class ParamPoly:
    """Polynomial in J and K with rational coefficients: int numerators keyed by (jpow, kpow) over one denominator."""

    __slots__ = ("_den", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        coeffs: dict[tuple[int, int], int | Fraction] = {}
        for (jp, kp), c in (terms or {}).items():
            jp, kp = operator.index(jp), operator.index(kp)
            if jp < 0 or kp < 0:
                raise ValueError(f"J and K powers must be non-negative, got J^{jp} K^{kp}")
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            if c:
                coeffs[(jp, kp)] = c
        # over the lcm of reduced denominators the numerators already have no common factor with it
        self._den = den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}

    @classmethod
    def _adopt(cls, den: int, terms: dict[tuple[int, int], int]) -> "ParamPoly":
        """Wrap a denominator and numerator dict already in canonical form, without copying or checking them."""
        poly = object.__new__(cls)
        poly._den = den
        poly._terms = terms
        return poly

    @classmethod
    def const(cls, c: Scalar) -> "ParamPoly":
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def one(cls) -> "ParamPoly":
        return cls.const(1)

    @classmethod
    def J(cls) -> "ParamPoly":
        return cls({(1, 0): 1})

    @classmethod
    def K(cls) -> "ParamPoly":
        return cls({(0, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self.render()} is not a constant")
        return Fraction(self._terms.get((0, 0), 0), self._den)

    def items(self):
        """((jpow, kpow), Fraction) pairs in stored order, each coefficient built on demand."""
        den = self._den
        return ((m, Fraction(n, den)) for m, n in self._terms.items())

    def kpow_split(self) -> dict[int, "ParamPoly"]:
        """Group terms by their power of K (coefficients are polynomials in J)."""
        out: dict[int, dict[tuple[int, int], int]] = {}
        for (jp, kp), n in self._terms.items():
            out.setdefault(kp, {})[(jp, 0)] = n
        return {kp: _reduced(self._den, t) for kp, t in out.items()}

    @staticmethod
    def _coerce(other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = math.lcm(self._den, o._den)
        sa, sb = d // self._den, d // o._den
        terms = {m: n * sa for m, n in self._terms.items()}
        _accumulate(terms, ((m, n * sb) for m, n in o._terms.items()))
        return _reduced(d, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o + (-self)

    def __neg__(self):
        return ParamPoly._adopt(self._den, {m: -n for m, n in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # an int has numerator and denominator too
            num = other.numerator
            return _reduced(self._den * other.denominator, {m: n * num for m, n in self._terms.items()})
        if not isinstance(other, ParamPoly):
            return NotImplemented
        # a product of nonzero polynomials is nonzero, but single terms may cancel
        terms: dict[tuple[int, int], int] = {}
        for (ja, ka), a in self._terms.items():
            for (jb, kb), b in other._terms.items():
                m = (ja + jb, ka + kb)
                terms[m] = terms.get(m, 0) + a * b
        return _reduced(self._den * other._den, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._den == o._den and self._terms == o._terms

    def __hash__(self):
        if self.is_constant:  # equal to its constant, so it hashes like it
            return hash(Fraction(self._terms.get((0, 0), 0), self._den))
        return hash((self._den, frozenset(self._terms.items())))

    def render(self) -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda t: (-(t[0] + t[1]), -t[1], -t[0]))
        parts: list[str] = []
        for key in keys:
            c = Fraction(self._terms[key], self._den)
            mono = ""
            jp, kp = key
            if jp:
                mono += "J" if jp == 1 else f"J^{jp}"
            if kp:
                mono += "K" if kp == 1 else f"K^{kp}"
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                coeff = str(mag) if mag.denominator == 1 else f"({mag})"
                body = coeff + mono
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


def _poly_jj1() -> ParamPoly:
    """J(J+1)."""
    J = ParamPoly.J()
    return J * (J + 1)


class NormalOrderedOperator:
    """Canonical normal-ordered operator: (xpow, dorder) -> ParamPoly coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], ParamPoly | Scalar] | None = None):
        clean: dict[tuple[int, int], ParamPoly] = {}
        for (xp, dq), c in (terms or {}).items():
            xp, dq = operator.index(xp), operator.index(dq)
            if dq < 0:
                raise ValueError("derivative order must be non-negative")
            poly = c if isinstance(c, ParamPoly) else ParamPoly.const(c)
            if not poly.is_zero:
                clean[(xp, dq)] = poly
        self._terms = clean

    @classmethod
    def _adopt(cls, terms: dict[tuple[int, int], ParamPoly]) -> "NormalOrderedOperator":
        """Wrap a dict already in canonical form, without copying or checking it."""
        op = object.__new__(cls)
        op._terms = terms
        return op

    @classmethod
    def zero(cls) -> "NormalOrderedOperator":
        return cls()

    @classmethod
    def identity(cls) -> "NormalOrderedOperator":
        return cls({(0, 0): 1})

    @classmethod
    def x_power(cls, k: int, coeff: ParamPoly | Scalar = 1) -> "NormalOrderedOperator":
        return cls({(k, 0): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, xpow: int, dorder: int) -> ParamPoly:
        return self._terms.get((xpow, dorder), ParamPoly.zero())

    def items(self):
        return self._terms.items()

    def canonical_terms(self) -> list[tuple[tuple[int, int], ParamPoly]]:
        """Terms ordered derivative-major, then by ascending x power."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][1], kv[0][0]))

    def _float_terms(self) -> tuple[tuple[int, int, tuple[tuple[float, int, int], ...]], ...]:
        """(xpow, dorder, ((float(c), jpow, kpow), ...)) in canonical order, built on each call.

        The one place exact coefficients become floats: the grid checks'
        `numeric_verify._image_plan` reads it once per process, and so does
        the per-term reference `substitute` in `tests/oracles.py`.
        """
        return tuple((xp, dq, tuple((float(c), jp, kp) for (jp, kp), c in poly.items()))
                     for (xp, dq), poly in self.canonical_terms())

    def __add__(self, other):
        if not isinstance(other, NormalOrderedOperator):
            return NotImplemented
        terms: dict[tuple[int, int], ParamPoly] = dict(self._terms)
        _accumulate(terms, other._terms.items())
        return NormalOrderedOperator._adopt({key: c for key, c in terms.items() if not c.is_zero})

    def __sub__(self, other):
        if not isinstance(other, NormalOrderedOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NormalOrderedOperator._adopt({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            terms = {key: c * other for key, c in self._terms.items()}
            return NormalOrderedOperator._adopt({key: c for key, c in terms.items() if not c.is_zero})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, NormalOrderedOperator):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset((key, c) for key, c in self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (xp, dq), poly in self.canonical_terms():
            pieces = []
            if poly != 1 or (xp, dq) == (0, 0):
                pieces.append(f"({poly.render()})")
            if xp:
                pieces.append("x" if xp == 1 else f"x^{xp}")
            if dq:
                pieces.append("D" if dq == 1 else f"D^{dq}")
            parts.append(" ".join(pieces))
        return " + ".join(parts)

    def __repr__(self):
        return f"NormalOrderedOperator({self.render()})"


def compose(lhs: NormalOrderedOperator, rhs: NormalOrderedOperator) -> NormalOrderedOperator:
    """Normal-ordered product: D^q x^r = sum_i C(q,i) r^(i-falling) x^(r-i) D^(q-i)."""
    dl = math.lcm(*(c._den for c in lhs._terms.values()))
    dr = math.lcm(*(c._den for c in rhs._terms.values()))
    raw: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (p, q), cl in lhs._terms.items():
        sl = dl // cl._den
        for (r, s), cr in rhs._terms.items():
            scale = sl * (dr // cr._den)  # puts cl * cr over dl * dr
            cc: dict[tuple[int, int], int] = {}  # a term that cancels stays as a zero entry
            for (ja, ka), a in cl._terms.items():
                for (jb, kb), b in cr._terms.items():
                    m = (ja + jb, ka + kb)
                    cc[m] = cc.get(m, 0) + a * b
            w = scale  # C(q, i) r^(i-falling), times scale, built up one i at a time
            for i in range(q + 1):
                acc = raw.setdefault((p + r - i, q - i + s), {})
                for m, n in cc.items():
                    acc[m] = acc.get(m, 0) + w * n
                w = w * (q - i) * (r - i) // (i + 1)  # exact: C(q, i+1) (i+1) = C(q, i) (q-i)
                if w == 0:  # i = q, or r is an integer in [0, i], so every later weight vanishes too
                    break
    out = {}
    for key, acc in raw.items():
        if (poly := _reduced(dl * dr, acc))._terms:
            out[key] = poly
    return NormalOrderedOperator._adopt(out)


def commutator(lhs: NormalOrderedOperator, rhs: NormalOrderedOperator) -> NormalOrderedOperator:
    return compose(lhs, rhs) - compose(rhs, lhs)


def monomial_action(op: NormalOrderedOperator, k: int) -> list[tuple[int, ParamPoly]]:
    """Image of x^k: x^p D^q x^k = k^(q-falling) x^(k+p-q).  The equality oracle."""
    k = operator.index(k)
    falling = [1]  # falling[q] = k^(q-falling)
    for i in range(max((q for _, q in op._terms), default=0)):
        falling.append(falling[-1] * (k - i))
    by_power: dict[int, list[tuple[int, ParamPoly]]] = {}
    for (p, q), poly in op._terms.items():
        if w := falling[q]:
            by_power.setdefault(k + p - q, []).append((w, poly))
    image = []
    for power in sorted(by_power):
        terms = by_power[power]
        d = math.lcm(*(poly._den for _, poly in terms))
        acc: dict[tuple[int, int], int] = {}
        for w, poly in terms:
            w *= d // poly._den
            for m, n in poly._terms.items():
                acc[m] = acc.get(m, 0) + w * n
        if (poly := _reduced(d, acc))._terms:
            image.append((power, poly))
    return image


# ---------------------------------------------------------------------------
# The concrete operators of the radial problem (scaled variable x = r/K_n)
# ---------------------------------------------------------------------------

def build_Ln() -> NormalOrderedOperator:
    """-x^2 D^2 - 2K x + x^2 with K symbolic; eigenvalue on bound states is -J(J+1)."""
    return NormalOrderedOperator(
        {(2, 2): -1, (1, 0): ParamPoly.K() * (-2), (2, 0): 1}
    )


def _derivation(t3: NormalOrderedOperator, tpn: NormalOrderedOperator,
                tmn: NormalOrderedOperator) -> Mapping[str, NormalOrderedOperator]:
    """Read-only mapping of every named operator of the factorization, each product composed once.

    Keys "T3", "T+", "T-", "Ln", the normal-ordered products "T3 T+",
    "T3 T-", "T3 T3", "T+ T-", "T- T+", then "T+^n" and "T-^n"; T_pm is
    `replace_K`(T_pm^n, T3).
    """
    ops = {"T3": t3, "T+": replace_K(tpn, t3), "T-": replace_K(tmn, t3), "Ln": build_Ln()}
    for name in ("T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+"):
        left, right = name.split()
        ops[name] = compose(ops[left], ops[right])
    return MappingProxyType({**ops, "T+^n": tpn, "T-^n": tmn})


@cache
def _generators() -> Mapping[str, NormalOrderedOperator]:
    """The `_derivation` of T3, T+^n and T-^n from `build_Ln()`, run once per process (see `generator_table`)."""
    ln = build_Ln()
    one = NormalOrderedOperator.identity()
    plus, _ = solve_schrodinger_ansatz(ln)  # the branch +1, then -1
    half_inv_x = NormalOrderedOperator.x_power(-1, Fraction(1, 2))
    t3 = compose(half_inv_x, ln + one * _poly_jj1()) + one * ParamPoly.K()
    return _derivation(t3, plus.right_factor(), plus.left_factor() + one)


@cache
def generator_table() -> Mapping[str, NormalOrderedOperator]:
    """The level-independent generators and products: `_generators()` less the first-order factors.

    Read-only mapping with keys "T3", "T+", "T-", "Ln" and the normal-ordered
    products "T3 T+", "T3 T-", "T3 T3", "T+ T-", "T- T+".  The generators
    are derived from Ln = `build_Ln()` as the module docstring says:
    T3 = (1/2) x^-1 (Ln + J(J+1)) + K; T+^n and T-^n - 1 are the right and
    left factors of the +1 branch of `solve_schrodinger_ansatz(Ln)`; and
    T_pm = `replace_K`(T_pm^n, T3).  Built on first call, so importing the
    module composes nothing.
    """
    return MappingProxyType({name: op for name, op in _generators().items() if not name.endswith("^n")})


def casimir() -> NormalOrderedOperator:
    """Quadratic Casimir -T+T- + T3^2 - T3, which canonicalizes to the constant J(J+1) times the identity.

    The mirror form -T-T+ + T3^2 + T3 is the row "casimir mirror - casimir"
    of `extra_identity_checks`.
    """
    ops = _generators()
    return -ops["T+ T-"] + ops["T3 T3"] - ops["T3"]


def replace_K(op: NormalOrderedOperator, replacement: NormalOrderedOperator) -> NormalOrderedOperator:
    """Substitute the scalar K by an operator (coefficients must be K-linear).

    The K-linear part acts with the replacement composed on the right, which
    reproduces the definitional identity T_pm = -+xD + x - T3 from the
    first-order factors.
    """
    free: dict[tuple[int, int], ParamPoly] = {}
    linear: dict[tuple[int, int], ParamPoly] = {}
    for key, poly in op.items():
        split = poly.kpow_split()
        if any(kp > 1 for kp in split):
            raise ValueError("operator coefficients must be at most linear in K")
        if 0 in split:
            free[key] = split[0]
        if 1 in split:
            linear[key] = split[1]
    return NormalOrderedOperator._adopt(free) + compose(NormalOrderedOperator._adopt(linear), replacement)


# ---------------------------------------------------------------------------
# Schroedinger factorization ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationSolution:
    """One branch of (xD + a x + b)(-xD + c x + f) = target + (g - eigenvalue)."""

    branch: int
    a: ParamPoly
    b: ParamPoly
    c: ParamPoly
    f: ParamPoly
    g: ParamPoly
    eigenvalue: ParamPoly

    def left_factor(self) -> NormalOrderedOperator:
        return NormalOrderedOperator({(1, 1): 1, (1, 0): self.a, (0, 0): self.b})

    def right_factor(self) -> NormalOrderedOperator:
        return NormalOrderedOperator({(1, 1): -1, (1, 0): self.c, (0, 0): self.f})

    def product(self) -> NormalOrderedOperator:
        return compose(self.left_factor(), self.right_factor())


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def solve_schrodinger_ansatz(target: NormalOrderedOperator) -> list[FactorizationSolution]:
    """All first-order factorizations of a -x^2 D^2 + (lin in x) + (quad in x) operator.

    The eigenvalue is -J(J+1), the constant Ln produces on its bound states;
    it is absorbed into g so the returned g matches the eigenspace statement
    of the factorization, and the product exceeds the target by g - eigenvalue.
    """
    eigenvalue = -_poly_jj1()
    allowed = {(2, 2), (2, 1), (1, 1), (2, 0), (1, 0), (0, 0)}
    extra = [key for key, _ in target.items() if key not in allowed]
    if extra:
        raise NoFactorization(f"target has terms outside the ansatz family at {sorted(extra)}")
    if target.coeff(2, 2) != -1:
        raise NoFactorization("target must have leading term -x^2 D^2")
    if not target.coeff(2, 1).is_zero or not target.coeff(1, 1).is_zero:
        raise NoFactorization("targets with x^2 D or x D terms are outside the ansatz family")
    gamma = target.coeff(2, 0)
    if not gamma.is_constant:
        raise NoFactorization(f"x^2 coefficient must be a constant, got {gamma.render()}")
    g0 = gamma.constant_value()
    if g0 == 0:
        raise NoFactorization(
            "degenerate target: the x^2 coefficient vanishes, so a = c = 0 and "
            "b, f are unconstrained; no discrete solution branches exist"
        )
    root = _rational_sqrt(g0)
    if root is None:
        raise NoFactorization(f"x^2 coefficient {g0} is not a rational square")
    beta = target.coeff(1, 0)
    t00 = target.coeff(0, 0)

    solutions = []
    for branch in (+1, -1):
        a = ParamPoly.const(branch * root)
        inv2a = Fraction(1, 2) * Fraction(1, branch * root)
        f = beta * inv2a
        b = f - 1
        c = a
        offset = b * f - t00
        g = eigenvalue + offset
        sol = FactorizationSolution(branch=branch, a=a, b=b, c=c, f=f, g=g, eigenvalue=eigenvalue)
        if sol.product() != target + (offset * NormalOrderedOperator.identity()):
            raise NoFactorization(
                f"branch {branch:+d} failed re-expansion; target is not factorizable"
            )
        solutions.append(sol)
    return solutions


# ---------------------------------------------------------------------------
# Named identity suite (exact zero checks)
# ---------------------------------------------------------------------------

def identity_suite() -> list[tuple[str, NormalOrderedOperator]]:
    """The six defining identities of the derived generators as (name, difference) pairs; all must be zero."""
    ops = _generators()
    t3, tp, tm, tpn, tmn = ops["T3"], ops["T+"], ops["T-"], ops["T+^n"], ops["T-^n"]
    one = NormalOrderedOperator.identity()
    K = ParamPoly.K()
    kk1 = K * (K + 1)
    kk1m = K * (K - 1)
    return [
        ("[T+,T-] + 2 T3", ops["T+ T-"] - ops["T- T+"] + 2 * t3),
        ("[T+,T3] + T+", commutator(tp, t3) + tp),
        ("[T-,T3] - T-", commutator(tm, t3) - tm),
        ("(T-^n - 1) T+^n - Ln - K(K+1)", compose(tmn - one, tpn) - ops["Ln"] - kk1 * one),
        ("(T+^n + 1) T-^n - Ln - K(K-1)", compose(tpn + one, tmn) - ops["Ln"] - kk1m * one),
        ("T^2 - J(J+1)", casimir() - _poly_jj1() * one),
    ]


def extra_identity_checks() -> list[tuple[str, NormalOrderedOperator]]:
    """Supplementary exact zeros: the Casimir mirror and the definitional T_pm.

    T_pm is built as `replace_K`(T_pm^n, T3), so the two T_pm rows hold by
    construction; they stay as named rows of the `verify-algebra` document.
    """
    ops = _generators()
    t3 = ops["T3"]
    mirror = -ops["T- T+"] + ops["T3 T3"] + t3
    return [
        ("casimir mirror - casimir", mirror - casimir()),
        ("T+ - (T+^n with K -> T3)", ops["T+"] - replace_K(ops["T+^n"], t3)),
        ("T- - (T-^n with K -> T3)", ops["T-"] - replace_K(ops["T-^n"], t3)),
    ]
