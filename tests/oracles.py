"""Independent reference implementations used as test oracles.

These deliberately avoid the library code paths they check: the Jacobi
oracle is the explicit terminating hypergeometric sum and the Kummer oracle
the explicit finite series, both evaluated in exact rational arithmetic
(float inputs are binary rationals, so the sums are exact) and rounded only
at the very end.
"""

import math
from fractions import Fraction

from micz_su11.operator_algebra import NormalOrderedOperator, ParamPoly


def _rising(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def jacobi_series(n: int, a, b, z) -> float:
    """P_n^(a,b)(z) = ((a+1)_n / n!) 2F1(-n, n+a+b+1; a+1; (1-z)/2), exact sum."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    pref = _rising(a + 1, n) / math.factorial(n)
    half = (1 - z) / 2
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            _rising(Fraction(-n), k)
            * _rising(n + a + b + 1, k)
            / (_rising(a + 1, k) * math.factorial(k))
            * half**k
        )
    return float(pref * total)


def kummer_rational(k: int, b: Fraction, z: Fraction) -> Fraction:
    """F(-k, b; z) summed exactly over rationals."""
    total = Fraction(0)
    term = Fraction(1)
    for i in range(k + 1):
        total += term
        term = term * (i - k) * z / ((b + i) * (i + 1))
    return total


# ---------------------------------------------------------------------------
# Full-sweep Sturm bisection: the FD eigenvalue oracle without the early stop
# or the count memo, kept as the bit-for-bit reference for `eig_oracle`.
# ---------------------------------------------------------------------------

def fd_matrix(J: float, grid) -> tuple[list[float], float]:
    """Diagonal and constant off-diagonal of the FD radial Hamiltonian."""
    r = grid.nodes
    h = grid.h
    off = -1.0 / (2.0 * h * h)
    diag_arr = 1.0 / (h * h) - 1.0 / r + J * (J + 1.0) / (2.0 * r * r)
    return diag_arr.tolist(), off


def gershgorin(diag: list[float], off: float) -> tuple[float, float]:
    return min(diag) - 2.0 * abs(off), max(diag) + 2.0 * abs(off)


def sturm_count_full(diag: list[float], e2: float, lam: float) -> int:
    """Number of eigenvalues strictly below lam (LDL^T pivot signs)."""
    count = 0
    q = diag[0] - lam
    if q < 0.0:
        count += 1
    for d in diag[1:]:
        if q == 0.0:
            q = 1e-300
        q = d - lam - e2 / q
        if q < 0.0:
            count += 1
    return count


def bisect_eigenvalue_full(diag: list[float], e2: float, k: int, lo: float, hi: float) -> float:
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if sturm_count_full(diag, e2, mid) > k:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise RuntimeError(f"bisection stalled for eigenvalue {k} in [{lo}, {hi}]")


def eig_oracle_full_sweep(J: float, grid, count: int) -> list[float]:
    """Lowest `count` FD eigenvalues, every Sturm count a full sweep."""
    diag, off = fd_matrix(J, grid)
    lo, hi = gershgorin(diag, off)
    return [bisect_eigenvalue_full(diag, off * off, k, lo, hi) for k in range(count)]


# ---------------------------------------------------------------------------
# The exact kernel as it accumulated before it built results in canonical
# form: every partial sum is a fresh ParamPoly from the validating public
# constructor.  Kept as the reference for `compose` and `monomial_action`.
# ---------------------------------------------------------------------------

def _falling(k: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= k - i
    return out


def _poly_add(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    terms = dict(a.items())
    for key, c in b.items():
        terms[key] = terms.get(key, Fraction(0)) + c
    return ParamPoly(terms)


def _poly_mul(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    terms = {}
    for (ja, ka), ca in a.items():
        for (jb, kb), cb in b.items():
            key = (ja + jb, ka + kb)
            terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return ParamPoly(terms)


def compose_reference(lhs: NormalOrderedOperator, rhs: NormalOrderedOperator) -> NormalOrderedOperator:
    """Normal-ordered product: D^q x^r = sum_i C(q,i) r^(i-falling) x^(r-i) D^(q-i)."""
    terms = {}
    for (p, q), cl in lhs.items():
        for (r, s), cr in rhs.items():
            cc = _poly_mul(cl, cr)
            for i in range(q + 1):
                w = math.comb(q, i) * _falling(r, i)
                if w == 0:
                    continue
                key = (p + r - i, q - i + s)
                add = _poly_mul(cc, ParamPoly.const(w))
                acc = terms.get(key)
                acc = add if acc is None else _poly_add(acc, add)
                if acc.is_zero:
                    terms.pop(key, None)
                else:
                    terms[key] = acc
    return NormalOrderedOperator(terms)


def monomial_action_reference(op: NormalOrderedOperator, k: int) -> list[tuple[int, ParamPoly]]:
    """Image of x^k: x^p D^q x^k = k^(q-falling) x^(k+p-q)."""
    acc = {}
    for (p, q), c in op.items():
        w = _falling(k, q)
        if w == 0:
            continue
        power = k + p - q
        cur = acc.get(power)
        add = _poly_mul(c, ParamPoly.const(w))
        cur = add if cur is None else _poly_add(cur, add)
        if cur.is_zero:
            acc.pop(power, None)
        else:
            acc[power] = cur
    return sorted(acc.items())
