"""Independent reference implementations used as test oracles.

These deliberately avoid the library code paths they check: the Jacobi
oracle is the explicit terminating hypergeometric sum and the Kummer oracle
the explicit finite series, both evaluated in exact rational arithmetic
(float inputs are binary rationals, so the sums are exact) and rounded only
at the very end.
"""

import bisect
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from micz_su11 import numeric_verify, operator_algebra
from micz_su11.analytic_states import (
    ANGULAR_THETAS, AngularState, RadialState, TowerSampler, _as_array, _theta_profile,
)
from micz_su11.fd_oracle import STURM_TAIL_MARGIN, _report, _sturm_count
from micz_su11.numeric_verify import (
    _dot, _Level, _norm, _radial_equation_start, angular_residual_check, states_grid,
)
from micz_su11.operator_algebra import NormalOrderedOperator, ParamPoly
from micz_su11.quantum_numbers import GridUnderflow, make_sector, sector_inputs
from micz_su11.special_functions import KummerParams, KummerSweep, _kummer_deriv_scale


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
# The two float recurrences as the separate loops they were before both ran
# `special_functions.Sweep`: the one sweep must give their bits, overflow,
# NaN and signed zeros included.
# ---------------------------------------------------------------------------

def jacobi_reference(degree: int, a: float, b: float, z):
    """P^(a,b)_degree(z) by its own three-term loop in the degree."""
    one = np.ones_like(z, dtype=float) if isinstance(z, np.ndarray) else 1.0
    if degree == 0:
        return one
    prev = one
    cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * z
    for n in range(2, degree + 1):
        apb = a + b
        c1 = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        c2 = (2.0 * n + apb - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + apb - 1.0) * (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + apb)
        prev, cur = cur, ((c2 + c3 * z) * cur - c4 * prev) / c1
    return cur


def kummer_row_reference(k: int, b: float, z):
    """F(-k, b; z) by its own three-term loop in the order, started at F_0 = 1."""
    prev, cur = 0.0, np.ones_like(z, dtype=float) if isinstance(z, np.ndarray) else 1.0
    for i in range(k):
        prev, cur = cur, ((2.0 * i + b - z) * cur - i * prev) / (b + i)
    return cur


# ---------------------------------------------------------------------------
# The su(1,1) generators as typed-in formulas: the reference that
# `operator_algebra.generator_table()`, which derives them from the
# factorization of Ln, must reproduce term for term.
# ---------------------------------------------------------------------------

def build_T3() -> NormalOrderedOperator:
    """(1/2)(-x D^2 + x + J(J+1)/x)."""
    half = Fraction(1, 2)
    J = ParamPoly.J()
    return NormalOrderedOperator({(1, 2): -half, (1, 0): half, (-1, 0): J * (J + 1) * half})


def build_Tpm_n(sign: int) -> NormalOrderedOperator:
    """First-order ladder factor -+x D + x - K; sign=+1 gives the raising one."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return NormalOrderedOperator({(1, 1): -sign, (1, 0): 1, (0, 0): -ParamPoly.K()})


def build_Tpm(sign: int) -> NormalOrderedOperator:
    """Second-order su(1,1) ladder generator -+x D + x - T3; sign=+1 raises."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return NormalOrderedOperator({(1, 1): -sign, (1, 0): 1}) - build_T3()


def corrupted_generators():
    """A stand-in for `operator_algebra._generators` whose T3 is the derived T3 - x.

    That flips the sign of T3's x/2 term; `operator_algebra._derivation`
    rebuilds T+- and the five products from it, and T+-^n stay as derived.
    Monkeypatch it over `_generators` to drive `identity_suite`,
    `extra_identity_checks` and `verify-algebra` down their failure path.
    """
    ops = operator_algebra._generators()
    bad = ops["T3"] - NormalOrderedOperator.x_power(1)
    derivation = operator_algebra._derivation(bad, ops["T+^n"], ops["T-^n"])
    return lambda: derivation


# ---------------------------------------------------------------------------
# Full-sweep Sturm bisection: the FD eigenvalue oracle without the early stop
# or the per-call sweep memo, kept as the bit-for-bit reference for `eig_oracle`.
# ---------------------------------------------------------------------------

def fd_matrix(J: float, grid) -> tuple[list[float], float]:
    """Diagonal and constant off-diagonal of the FD radial Hamiltonian, from numpy arrays.

    The array expression `eig_oracle` evaluated before it built the diagonal
    in plain floats; an entry that overflows is inf or nan, without a warning.
    """
    r = grid.nodes
    h = grid.h
    off = -1.0 / (2.0 * h * h)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diag_arr = 1.0 / (h * h) - 1.0 / r + J * (J + 1.0) / (2.0 * r * r)
    return diag_arr.tolist(), off


def gershgorin(diag: list[float], off: float) -> tuple[float, float]:
    return min(diag) - 2.0 * abs(off), max(diag) + 2.0 * abs(off)


def fd_matrix_checked(J: float, grid) -> tuple[list[float], float, float, float]:
    """`fd_matrix` and its Gershgorin bounds behind the checks `eig_oracle` made on the arrays.

    GridUnderflow when h^2 underflows, before any array is built; ValueError
    when an entry or a bound is not finite.
    """
    h = grid.h
    if h * h == 0.0:
        raise GridUnderflow(f"the grid spacing h={h:.4g} of rmax={grid.rmax!r} over "
                            f"{grid.npoints} points squares to zero")
    diag, off = fd_matrix(J, grid)
    lo, hi = gershgorin(diag, off)
    if not (np.all(np.isfinite(diag)) and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"J={J} on a grid with h={h:.4g} overflows the finite-difference matrix")
    return diag, off, lo, hi


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


def sturm_count(matrix, lam: float) -> int:
    """The early-stopping count of `eig_oracle`, run to its end: no count exceeds the number of nodes."""
    return _sturm_count(matrix, lam, matrix.npoints)


def suffix_min(diag: list[float]) -> list[float]:
    """suffix_min[i] = min(diag[i:]), the running minimum of the reversed list."""
    return list(itertools.accumulate(reversed(diag), min))[::-1]


def tail_start(diag: list[float], off: float, lam: float) -> int:
    """The first node i with fl(min(diag[i:]) - lam) >= 2|off|(1 + STURM_TAIL_MARGIN), by binary search."""
    bound = 2.0 * abs(off) * (1.0 + STURM_TAIL_MARGIN)
    return bisect.bisect_left(suffix_min(diag), bound, key=lambda d: d - lam)


class ListMatrix:
    """A whole diagonal list and an off-diagonal, read as `_sturm_count` reads `fd_oracle._FdMatrix`.

    Its tail start is the exact one of the full suffix minimum, so the sweep
    can run on a diagonal no grid gives (a pivot that is exactly zero).
    """

    def __init__(self, diag: list[float], off: float):
        self.values, self.off, self.npoints = diag, off, len(diag)

    def upto(self, end: int) -> list[float]:
        return self.values

    def certified_tail(self, lam: float) -> int:
        return tail_start(self.values, self.off, lam)

    tail_start = certified_tail


def locate_untruncated(diag: list[float], off: float, m: int, a: float, b: float) -> float:
    """The root near a < b of gamma_m(lam) = 1 / [(T - lam)^-1]_mm, every backward pivot from the last node.

    The twisted factorization of the whole matrix: forward pivots from node
    0, backward ones from the matrix's own end (its Dirichlet condition),
    so nothing is truncated.  Plain secant from a and b until a step falls
    below 1e-15 max(1, |lam|); nan when an evaluation fails.
    """
    e2 = off * off

    def gamma(lam):
        q, p = diag[0] - lam, diag[-1] - lam
        for d in diag[1:m]:
            q = d - lam - e2 / q
        for d in reversed(diag[m + 1:-1]):
            p = d - lam - e2 / p
        return diag[m] - lam - e2 / q - e2 / p

    try:
        x0, g0, x1, g1 = a, gamma(a), b, gamma(b)
        for _ in range(50):
            if not (math.isfinite(g1) and g1 != g0):
                break
            step = g1 * (x1 - x0) / (g1 - g0)
            x0, g0, x1 = x1, g1, x1 - step
            if abs(step) <= 1e-15 * max(1.0, abs(x1)):
                break
            g1 = gamma(x1)
    except ZeroDivisionError:
        return math.nan
    return x1


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


# ---------------------------------------------------------------------------
# Operator application from a derivative callback: each generator's
# coefficients evaluated at one (J, K) (`substitute`), then summed term by
# term over derivative samples.  The reference for the images
# `numeric_verify._Level` builds from one sampler pass.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericOperator:
    """Operator with coefficients evaluated at fixed (J, K): (xpow, dorder, coeff)."""

    terms: tuple[tuple[int, int, float], ...]
    jval: float
    kval: float


def substitute(op: NormalOrderedOperator, jval: float, kval: float) -> NumericOperator:
    """Each coefficient as sum(float(c) J^jpow K^kpow) in stored term order; zero terms are dropped."""
    terms = []
    for xp, dq, coeffs in op._float_terms():
        c = float(sum(fc * jval**jp * kval**kp for fc, jp, kp in coeffs))
        if c != 0.0:
            terms.append((xp, dq, c))
    return NumericOperator(terms=tuple(terms), jval=jval, kval=kval)


def apply_operator(numop, grid, f: np.ndarray, derivatives) -> np.ndarray:
    """Sum of c x^xp f^(dq) over the terms of `numop`, in their order, on `grid.nodes`.

    `f` holds the samples of f on `grid.nodes`, and `derivatives(order)`
    those of its order-th derivative; it is called once for each order >= 1
    that the operator needs.
    """
    samples = {0: f}
    out = np.zeros_like(f)
    for xp, dq, c in numop.terms:
        if dq not in samples:
            samples[dq] = np.asarray(derivatives(dq), dtype=float)
        out += c * (samples[dq] if xp == 0 else samples[dq] * grid.nodes ** float(xp))
    return out


# ---------------------------------------------------------------------------
# The angular residual over a (theta, phi) mesh: the form `angular_residual`
# had before it dropped the phase e^(i(m-s)phi), whose modulus is 1.
# ---------------------------------------------------------------------------

def angular_residual_phi_mesh(state: AngularState) -> float:
    """max over ANGULAR_THETAS x {2 pi i/8} of |residual(theta) e^(i(m-s)phi)|, over max |w|."""
    sec = state.sector
    thetas = ANGULAR_THETAS
    w, w1, w2 = _theta_profile(state, thetas)
    half = 0.5 * thetas
    radial_part = (
        w2
        + (np.cos(thetas) / np.sin(thetas)) * w1
        - (sec.m1**2 / (4.0 * np.cos(half) ** 2) + sec.m2**2 / (4.0 * np.sin(half) ** 2)) * w
        + sec.sep_const * w
    )
    worst = 0.0
    for phi in 2.0 * math.pi * np.arange(8) / 8:
        field = radial_part * np.exp(1j * state.phase_rate * phi)
        worst = max(worst, float(np.max(np.abs(field))))
    return worst / float(np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# Finite-difference derivatives: an approximation independent of the closed
# forms, passed to `apply_operator` as its derivative callback.
# ---------------------------------------------------------------------------

class StencilUnsupported(ValueError):
    """Finite-difference derivative asked for an order above 4."""


def fd_weights(offsets, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at 0 on integer offsets."""
    x = [float(o) for o in offsets]
    n = len(x)
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


def fd_derivative(vals: np.ndarray, h: float, m: int) -> np.ndarray:
    """4th-order central differences, one-sided closures at the edges."""
    width = 5 if m <= 2 else 7
    half = width // 2
    n = len(vals)
    if n < width:
        raise StencilUnsupported(f"grid too small for the {width}-point stencil")
    out = np.empty_like(vals)
    wc = fd_weights(range(-half, half + 1), m)
    out[half : n - half] = np.convolve(vals, wc[::-1], mode="valid")
    for i in range(half):
        w = fd_weights([o - i for o in range(width)], m)
        out[i] = np.dot(w, vals[:width])
        w = fd_weights([o - (n - 1 - i) for o in range(n - width, n)], m)
        out[n - 1 - i] = np.dot(w, vals[n - width :])
    return out / h**m


def fd_derivatives(grid, f):
    """Derivative callback for `apply_operator` from the samples of f on `grid.nodes` alone."""

    def derivs(order):
        if order > 4:
            raise StencilUnsupported(f"finite differences stop at D^4, asked for D^{order}")
        return fd_derivative(f, grid.h, order)

    return derivs


# ---------------------------------------------------------------------------
# Exact derivatives of the radial states: chi = (2x)^alpha e^(-x) P(x) with
# P given by its rational coefficients, summed exactly at the float nodes.
# ---------------------------------------------------------------------------

def poly_coeffs(state: RadialState) -> tuple[Fraction, ...]:
    """Exact coefficients of F(-k, 2J+2; 2x) in powers of x at the state's J."""
    k = state.kummer.k
    b = 2 * Fraction(state.sector.bigJ) + 2
    coeffs = [Fraction(1)]
    for i in range(k):
        coeffs.append(coeffs[-1] * 2 * (i - k) / ((b + i) * (i + 1)))
    return tuple(coeffs)


def chi_dn_reference(coeffs, alpha: float, max_order: int, nodes) -> list[np.ndarray]:
    """d^l/dx^l of (2x)^alpha e^(-x) P(x) at the nodes for l = 0..max_order.

    P = sum coeffs[m] x^m.  d/dx [x^a e^(-x) R] = x^(a-1) e^(-x) (a R + x R' - x R),
    so the l-th derivative is 2^alpha x^(alpha-l) e^(-x) R_l(x) with R_0 = P
    and R_(l+1) = (alpha - l) R_l + x R_l' - x R_l.  A float alpha and float
    nodes are binary rationals, so each R_l is carried exactly as integer
    coefficients over one denominator and summed exactly at every node;
    only the prefactor and one final rounding of R_l(x) are float.
    """
    anum, aden = Fraction(alpha).as_integer_ratio()
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    r = [Fraction(c).numerator * (den // Fraction(c).denominator) for c in coeffs]
    pref = 2.0**alpha
    out = []
    for l in range(max_order + 1):
        vals = []
        for x in nodes:
            # R(p/q) = (sum r_m p^m q^(d-m)) / (den q^d), homogeneous Horner
            p, q = float(x).as_integer_ratio()
            acc, qk = r[-1], 1
            for c in reversed(r[:-1]):
                qk *= q
                acc = acc * p + c * qk
            vals.append(pref * x ** (alpha - l) * math.exp(-x) * (acc / (den * qk)))
        out.append(np.array(vals))
        nxt = [(anum - l * aden + m * aden) * c for m, c in enumerate(r)] + [0]
        for m, c in enumerate(r):
            nxt[m + 1] -= aden * c
        r, den = nxt, den * aden
    return out


# ---------------------------------------------------------------------------
# Scalar-or-array calls into the library's one sampler: `chi` and `chi_dn`
# each read a `TowerSampler` of their own, `kummer_terminating` a
# `KummerSweep`.
# ---------------------------------------------------------------------------

def kummer_terminating(p: KummerParams, z):
    """F(-k, b; z) from a `KummerSweep` of its own; z is a scalar or an ndarray."""
    return KummerSweep(p.bparam, z).row(p.k)


def chi(state: RadialState, x):
    """chi_{n,j} at x > 0 (scalar or array)."""
    return chi_dn(state, x, 0)


def chi_dn(state: RadialState, x, order: int):
    """The order-th derivative of chi at x > 0, order 0 being chi itself, from a sampler of its own."""
    x, scalar = _as_array(x, "x")
    sampler = TowerSampler(state.sector, x)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    val = sampler.derivatives(state, order)[-1] if order else sampler.chi(state)
    return float(val) if scalar else val


# ---------------------------------------------------------------------------
# chi_dn as one self-contained call: every P^(l) from its own Kummer sweep
# started at order 0 (`kummer_deriv`), the evaluation that `TowerSampler`
# must reproduce bit for bit.
# ---------------------------------------------------------------------------

def kummer_deriv(p: KummerParams, z, order: int):
    """d^l/dz^l F(-k, b; z) = (-k)_l/(b)_l F(-k+l, b+l; z), zero for l > k."""
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order > p.k:
        return np.zeros_like(z, dtype=float) if isinstance(z, np.ndarray) else 0.0
    return _kummer_deriv_scale(p, order) * kummer_terminating(KummerParams(p.k - order, p.bparam + order), z)


def chi_dn_per_call(state: RadialState, x, order: int):
    """Exact order-th derivative of chi via the three-factor product rule.

    chi = 2^alpha * x^alpha * e^(-x) * P(x) with alpha = J+1, so the
    derivative is a finite multinomial sum; no finite differences anywhere.
    Each P^(l)(x) = 2^l F^(l)(-k, b; 2x) is evaluated once per call.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order == 0:
        return chi(state, x)
    arr, scalar = _as_array(x, "x")
    alpha = state.sector.bigJ + 1.0
    pref = 2.0**alpha
    expf = np.exp(-arr)
    z = 2.0 * arr
    dpoly = [2.0**l * kummer_deriv(state.kummer, z, l) for l in range(min(order, state.kummer.k) + 1)]
    total = np.zeros_like(arr)
    for i in range(order + 1):
        fall = 1.0
        for t in range(i):
            fall *= alpha - t
        if fall == 0.0:
            continue
        xpow = arr ** (alpha - i)
        for jj in range(order - i + 1):
            l = order - i - jj
            if l >= len(dpoly):
                continue
            mult = math.factorial(order) // (
                math.factorial(i) * math.factorial(jj) * math.factorial(l)
            )
            sgn = -1.0 if jj % 2 else 1.0
            total += mult * fall * sgn * xpow * dpoly[l]
    val = pref * expf * total
    return float(val) if scalar else val


# ---------------------------------------------------------------------------
# Per-vector grid checks: the bodies of the `numeric_verify` checks with one
# `_dot` per inner product and one `_norm` per vector, each shared product
# taken again wherever it is read, and a suite that walks a tower with them
# as `verify_states_suite` does.  The library's checks must give the same
# reports bit for bit.
# ---------------------------------------------------------------------------

def _level_inputs(level) -> dict:
    return sector_inputs(level.state.sector, level.grid, level.state.level.n)


def ladder_reference(level, target, sign: int, tol):
    t0 = time.perf_counter()
    sector, grid = level.state.sector, level.grid
    y = level.images["T+" if sign == 1 else "T-"]
    k = level.state.kummer.k
    inputs = _level_inputs(level)
    if sign == -1 and k == 0:
        residual = _norm(grid, y) / math.sqrt(level.norm2)
        return _report("ladder_annihilation", inputs, residual, tol, t0)
    expected = -(k + 2.0 * sector.bigJ + 2.0) if sign == 1 else -float(k)
    scale = np.max(np.abs(y))
    diff = (y - expected * target.chi) / scale
    scaled = y / scale
    residual = math.sqrt(_dot(diff, diff)) / math.sqrt(_dot(scaled, scaled))
    name = "ladder_raise" if sign == 1 else "ladder_lower"
    details = {"expected_ratio": expected, "proportionality_ratio": grid.h * _dot(y, target.chi) / target.norm2}
    return _report(name, inputs, residual, tol, t0, details)


def t3_eigen_reference(level, tol):
    t0 = time.perf_counter()
    grid, chi = level.grid, level.chi
    K = level.state.level.K
    y = level.images["T3"]
    residual = _norm(grid, y - K * chi) / math.sqrt(level.norm2)
    details = {"measured_eigenvalue": grid.h * _dot(y, chi) / level.norm2}
    for sign, tag, tpm in ((1, "raised", "T+"), (-1, "lowered", "T-")):
        if sign == -1 and level.state.kummer.k == 0:
            continue
        z = level.images[tpm]
        w = level.images["T3 " + tpm]
        r_shift = _norm(grid, w - (K + sign) * z) / _norm(grid, z)
        details[f"{tag}_eigenvalue"] = grid.h * _dot(w, z) / (grid.h * _dot(z, z))
        residual = max(residual, r_shift)
    return _report("t3_eigen", _level_inputs(level), residual, tol, t0, details)


def t3_spacing_reference(level, above, tol):
    t0 = time.perf_counter()
    measured = [lv.grid.h * _dot(lv.images["T3"], lv.chi) / lv.norm2 for lv in (level, above)]
    spacing = measured[1] - measured[0]
    return _report("t3_spacing", _level_inputs(level), abs(spacing - 1.0), tol, t0, {"spacing": spacing})


def casimir_reference(level, tol):
    t0 = time.perf_counter()
    fnorm = math.sqrt(level.norm2)
    target = level.state.sector.sep_const * level.chi
    t3f, t3sq, pm, mp = (level.images[name] for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
    res_direct = _norm(level.grid, -pm + t3sq - t3f - target) / fnorm
    res_mirror = _norm(level.grid, -mp + t3sq + t3f - target) / fnorm
    details = {"direct": res_direct, "mirror": res_mirror}
    return _report("casimir_action", _level_inputs(level), max(res_direct, res_mirror), tol, t0, details)


def radial_equation_reference(level, tol):
    t0 = time.perf_counter()
    start = _radial_equation_start(level.grid)
    chi = level.chi[start:]
    resid = level.images["Ln"][start:] + level.state.sector.sep_const * chi
    residual = float(np.max(np.abs(resid)) / np.max(np.abs(chi)))
    return _report("radial_equation", _level_inputs(level), residual, tol, t0)


def states_suite_reference(params, m, j, nlevels: int, tol=None):
    """`verify_states_suite` on its default grid, each check by its per-vector reference body."""
    sector = make_sector(params, m, j)
    grid = states_grid(sector, nlevels, None, None)
    reports = [angular_residual_check(sector, tol=tol)]
    sampler = TowerSampler(sector, grid.nodes)
    below, level = None, _Level(sampler, sector.j + 1, grid)
    for i in range(nlevels):
        reports += [radial_equation_reference(level, tol), t3_eigen_reference(level, tol),
                    casimir_reference(level, tol)]
        above = _Level(sampler, level.state.level.n + 1, grid)
        reports.append(ladder_reference(level, above, +1, tol))
        reports.append(ladder_reference(level, below, -1, tol))
        if i + 1 < nlevels:
            reports.append(t3_spacing_reference(level, above, tol))
        below, level = level, above
    return reports


# ---------------------------------------------------------------------------
# The level checks one at a time: each builds its one or two levels from a
# sampler of its own and runs the suite's body on them.  A sweep's rows do
# not depend on where it resumed, so a check called alone reports bit for
# bit what `verify_states_suite` reports for that level.  Each reads
# `TowerSampler`, `_Level` and its body through the `numeric_verify` module,
# so a test that patches one of them there reaches these checks too.
# ---------------------------------------------------------------------------

def _alone(sector, n, grid):
    """Level n on `grid` from a `TowerSampler` of its own."""
    return numeric_verify._Level(numeric_verify.TowerSampler(sector, grid.nodes), n, grid)


def ladder_check(sector, n, sign: int, grid, tol=None):
    """`numeric_verify._ladder` of level n against level n+-1; the annihilation at the bottom."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    level = _alone(sector, n, grid)
    bottom = sign == -1 and level.state.kummer.k == 0
    target = None if bottom else numeric_verify._Level(level.sampler, n + sign, grid)
    return numeric_verify._ladder(level, target, sign, tol)


def t3_eigen_check(sector, n, grid, tol=None):
    """`numeric_verify._t3_eigen` of level n."""
    return numeric_verify._t3_eigen(_alone(sector, n, grid), tol)


def t3_spacing_check(sector, n, grid, tol=None):
    """`numeric_verify._t3_spacing` between levels n and n+1."""
    level = _alone(sector, n, grid)
    return numeric_verify._t3_spacing(level, numeric_verify._Level(level.sampler, n + 1, grid), tol)


def casimir_check(sector, n, grid, tol=None):
    """`numeric_verify._casimir` of level n."""
    return numeric_verify._casimir(_alone(sector, n, grid), tol)


def radial_equation_check(sector, n, grid, tol=None):
    """`numeric_verify._radial_equation` of level n."""
    return numeric_verify._radial_equation(_alone(sector, n, grid), tol)
