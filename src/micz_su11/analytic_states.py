"""Closed-form radial and angular eigenfunctions with analytic derivatives.

The radial function is stored in the scaled variable x = r/K_n, where it
reads chi(x) = (2x)^(J+1) e^(-x) F(j+1-n, 2J+2; 2x).  That form contains no
K, so every level of a j tower lives on one common x axis and the ladder
checks can compare levels pointwise.  The polynomial factor and its
derivatives are evaluated in float only through the Kummer recurrence
(`KummerSweep`); the tests keep the exact rational coefficients as a
reference.

`TowerSampler` is the one float evaluation of chi: it samples chi for every
level of one tower on one fixed x, resuming its Kummer sweeps from level to
level.  Its `chi` gives chi, its `derivatives` every order up to a top one
and its `images` the images of chi under a table of operators, each from
one list of Kummer rows (`row`), the factor w = (2x)^(J+1) e^(-x) that chi
shares with them and the one cache of the powers x^e on that x (`power`).
`product_rule` is the one body of the product rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quantum_numbers import HalfInt, LevelLabels, SectorLabels, energy
from .special_functions import (
    JacobiParams,
    KummerParams,
    jacobi,
    jacobi_deriv,
    KummerSweep,
    _kummer_deriv_scale,
)


class DomainError(ValueError):
    """Evaluation outside the coordinate domain.

    x must lie in (0, inf) and theta in (0, pi), phi must be finite, and NaN lies in no domain.
    """


def _as_array(x, what: str, upper: float = math.inf):
    """(float array, was scalar); DomainError unless every entry, NaN included, lies in (0, upper)."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < upper)):
        raise DomainError(f"{what} must lie in (0, {upper})")
    return arr, np.isscalar(x) or arr.ndim == 0


@dataclass(frozen=True)
class RadialState:
    """One bound level: polynomial factor F(-k, b; 2x); the leading exponent is J+1."""

    sector: SectorLabels
    level: LevelLabels
    kummer: KummerParams


def radial_state(sector: SectorLabels, n: HalfInt | int) -> RadialState:
    """Build chi_{n,j}: its level and the Kummer parameters of its polynomial factor."""
    level = energy(sector, n)
    k = (level.n.twice_value - sector.j.twice_value) // 2 - 1
    return RadialState(
        sector=sector,
        level=level,
        kummer=KummerParams(k, 2.0 * sector.bigJ + 2.0),
    )


def radial_window(K: float) -> float:
    """The default sampling window 0 < x <= 10 + 4K of a level with scale K."""
    return 10.0 + 4.0 * K


def product_rule(order: int, alpha: float) -> list[tuple[int, int, float]]:
    """The terms (i, l, c) of d^order/dx^order [x^alpha e^(-x) P(x)] = sum c x^(alpha-i) e^(-x) P^(l)(x).

    With i + t + l = order, c = C(order, i) C(order-i, t) alpha (alpha-1) ... (alpha-i+1) (-1)^t.
    Terms whose falling factorial vanishes are left out; the rest come in
    the order `TowerSampler.derivatives` sums them, i ascending, then t.
    """
    out = []
    for i in range(order + 1):
        fall = 1.0
        for t in range(i):
            fall *= alpha - t
        if fall == 0.0:
            continue
        for t in range(order - i + 1):
            sgn = -1.0 if t % 2 else 1.0
            out.append((i, order - i - t, math.comb(order, i) * math.comb(order - i, t) * fall * sgn))
    return out


class TowerSampler:
    """chi and its derivatives for every level of one j tower on one fixed x.

    Derivative order l of level k needs F(-(k-l), b+l; 2x), and the
    recurrence in the order does not depend on k.  So the sampler keeps one
    `KummerSweep` per shift l, which resumes when a higher level is asked
    for, serves the level just below from the row it holds and restarts
    when a lower one is: a walk over the tower that steps back at most one
    level runs each sweep once.  It also keeps 2x, e^(-x),
    w = (2x)^alpha e^(-x) with alpha = J+1 (from its first read), every
    power x^e it has been asked for (`power`) and the read-only matrix
    M(alpha) of each product list `images` gets.  A sweep's rows do not
    depend on where it resumed from, so a value does not depend on the
    levels asked for before.

    x is an array or a scalar (which gives 0-d arrays); DomainError unless
    every x lies in (0, max/2], where 2x is finite.
    """

    def __init__(self, sector: SectorLabels, x):
        self.x = _as_array(x, "x")[0]
        if not np.all(self.x <= 0.5 * sys.float_info.max):
            raise DomainError("x must not exceed half the largest float: the sampler works on 2x")
        self.sector = sector
        self.alpha = sector.bigJ + 1.0
        self.z = 2.0 * self.x
        self.expf = np.exp(-self.x)
        self._powers: dict[float, np.ndarray] = {}
        self._sweeps: list[KummerSweep] = []
        self._matrices: dict[tuple, np.ndarray] = {}

    def power(self, e: float):
        """x^e on the sampler's x, computed on the first call for e and kept."""
        out = self._powers.get(e)
        if out is None:
            out = self._powers[e] = self.x ** e
        return out

    @cached_property
    def w(self):
        """(2x)^alpha e^(-x), the factor chi = w F(-k, b; 2x) shares with every level of the tower."""
        return self.z**self.alpha * self.expf

    def row(self, p: KummerParams, l: int):
        """F(-(k-l), b+l; 2x) for l <= k, from the sweep of shift l."""
        while len(self._sweeps) <= l:
            self._sweeps.append(KummerSweep(p.bparam + len(self._sweeps), self.z))
        return self._sweeps[l].row(p.k - l)

    def _check(self, state: RadialState) -> None:
        if state.sector != self.sector:
            raise ValueError("state belongs to another sector than the sampler")

    def chi(self, state: RadialState):
        """chi of `state` on the sampler's x."""
        self._check(state)
        return self.w * self.row(state.kummer, 0)

    def derivatives(self, state: RadialState, top: int) -> list:
        """Exact chi', chi'', ..., chi^(top) via the three-factor product rule.

        chi = 2^alpha * x^alpha * e^(-x) * P(x) with alpha = J+1, so each
        derivative is the finite multinomial sum of `product_rule`; no
        finite differences anywhere.  Each P^(l)(x) = 2^l F^(l)(-k, b; 2x) that does not vanish
        identically (l <= k) is taken once, for all orders, from the sweep of
        shift l; the terms are formed in one scratch array.
        """
        self._check(state)
        p = state.kummer
        dpoly = [2.0**l * (_kummer_deriv_scale(p, l) * self.row(p, l))
                 for l in range(min(top, p.k) + 1)]
        pref = 2.0**self.alpha if self.alpha < 1024.0 else math.inf  # ** raises OverflowError from 2^1024 on
        tmp = np.empty_like(self.x)
        out = []
        for order in range(1, top + 1):
            total = np.zeros_like(self.x)
            for i, l, c in product_rule(order, self.alpha):
                if l < len(dpoly):
                    np.multiply(c, self.power(self.alpha - i), out=tmp)
                    total += np.multiply(tmp, dpoly[l], out=tmp)
            out.append(pref * self.expf * total)
        return out

    def images(self, state: RadialState, products: tuple[tuple[int, int], ...], C: np.ndarray):
        """The block w (C M(alpha) S_k) @ B on a 1-d x: row r is sum_j C[r, j] x^p chi^(q), (p, q) = products[j].

        By `product_rule`, x^p chi^(q) = w sum c x^(p-i) P^(l), with
        P^(l) = 2^l (-k)_l/(b)_l F_l and F_l = F(-(k-l), b+l; 2x).  Every
        key (p-i, l) a product expands into must itself be in `products`,
        read as (e, l) (KeyError otherwise), so the products are one matrix
        product over the rows x^e F_l.  M(alpha) holds the coefficients c,
        which depend only on alpha = J+1 and are built once per `products`.
        S_k = diag(2^l (-k)_l/(b)_l) is zero past l = k, so B stacks only
        the rows with l <= k, each one multiply of a cached power by a Kummer
        row.  Terms that cancel in closed form cancel in C M, so some images
        are exact (at k = 0 the rows are plain powers of x).
        """
        self._check(state)
        p = state.kummer
        M = self._matrices.get(products)
        if M is None:
            column = {key: i for i, key in enumerate(products)}
            M = np.zeros((len(products), len(products)))
            for row, (xp, dq) in zip(M, products):
                for i, l, c in product_rule(dq, self.alpha):
                    row[column[xp - i, l]] = c
            M.flags.writeable = False
            self._matrices[products] = M
        basis = [i for i, (_, l) in enumerate(products) if l <= p.k]
        kummer = [self.row(p, l) for l in range(max(products[i][1] for i in basis) + 1)]
        B = np.empty((len(basis), self.x.size))
        for row, i in zip(B, basis):
            xe, l = products[i]
            np.multiply(self.power(float(xe)), kummer[l], out=row)
        S = [2.0**l * _kummer_deriv_scale(p, l) for _, l in (products[i] for i in basis)]
        images = ((C @ M)[:, basis] * S) @ B
        images *= self.w
        return images


# the angular check's mesh: the 200 interior theta nodes pi i/201, read-only
ANGULAR_THETAS = math.pi * np.arange(1, 201) / 201.0
ANGULAR_THETAS.flags.writeable = False


@dataclass(frozen=True)
class AngularState:
    """Angular eigenfunction of one (m, j) sector in the Jacobi form."""

    sector: SectorLabels
    phase_rate: int
    jacobi: JacobiParams


def angular_state(sector: SectorLabels) -> AngularState:
    degree = (sector.j.twice_value - sector.mplus.twice_value) // 2
    phase_rate = (sector.m.twice_value - sector.params.s.twice_value) // 2
    return AngularState(
        sector=sector,
        phase_rate=phase_rate,
        jacobi=JacobiParams(degree=degree, a=sector.m2, b=sector.m1),
    )


def angular_Z(state: AngularState, theta, phi):
    """Z(theta, phi) = cos(t/2)^m1 sin(t/2)^m2 P^(m2,m1)_deg(cos t) e^(i(m-s)phi)."""
    arr, scalar = _as_array(theta, "theta", upper=math.pi)
    sec = state.sector
    half = 0.5 * arr
    w = (
        np.cos(half) ** sec.m1
        * np.sin(half) ** sec.m2
        * jacobi(state.jacobi, np.cos(arr))
    )
    phis = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phis)):
        raise DomainError("phi must be finite")
    val = w * np.exp(1j * state.phase_rate * phis)
    return complex(val) if scalar and np.isscalar(phi) else val


def _theta_profile(state: AngularState, thetas: np.ndarray):
    """w(theta) and its first two theta derivatives, all analytic."""
    sec = state.sector
    m1, m2 = sec.m1, sec.m2
    half = 0.5 * thetas
    C = np.cos(half)
    S = np.sin(half)
    z = np.cos(thetas)
    sin_t = np.sin(thetas)

    F1 = C**m1
    F1p = -0.5 * m1 * C ** (m1 - 1.0) * S
    F1pp = 0.25 * m1 * (m1 - 1.0) * C ** (m1 - 2.0) * S**2 - 0.25 * m1 * C**m1

    F2 = S**m2
    F2p = 0.5 * m2 * S ** (m2 - 1.0) * C
    F2pp = 0.25 * m2 * (m2 - 1.0) * S ** (m2 - 2.0) * C**2 - 0.25 * m2 * S**m2

    jp = state.jacobi
    P = jacobi(jp, z)
    P1 = jacobi_deriv(jp, z)
    if jp.degree >= 1:
        shifted = JacobiParams(jp.degree - 1, jp.a + 1.0, jp.b + 1.0)
        P2 = 0.5 * (jp.degree + jp.a + jp.b + 1.0) * jacobi_deriv(shifted, z)
    else:
        P2 = np.zeros_like(z)
    F3 = P
    F3p = -sin_t * P1
    F3pp = sin_t**2 * P2 - np.cos(thetas) * P1

    w = F1 * F2 * F3
    w1 = F1p * F2 * F3 + F1 * F2p * F3 + F1 * F2 * F3p
    w2 = (
        F1pp * F2 * F3
        + F1 * F2pp * F3
        + F1 * F2 * F3pp
        + 2.0 * (F1p * F2p * F3 + F1p * F2 * F3p + F1 * F2p * F3p)
    )
    return w, w1, w2


def angular_residual(state: AngularState) -> float:
    """Max-norm residual of the angular equation on `ANGULAR_THETAS`, relative to max |w|.

    Z = w(theta) e^(i(m-s)phi) and the phase has modulus 1, so the residual
    depends on theta alone.  The phi action is analytic: the second phi
    derivative contributes -(m-s)^2 and the gauged derivative -(m+s)^2,
    which combine with the 4c_i into -m1^2/(4 cos^2(t/2)) and
    -m2^2/(4 sin^2(t/2)).  The separation constant is the sector's
    `sep_const`.
    """
    sec = state.sector
    thetas = ANGULAR_THETAS
    w, w1, w2 = _theta_profile(state, thetas)
    half = 0.5 * thetas
    C2 = np.cos(half) ** 2
    S2 = np.sin(half) ** 2
    residual = (
        w2
        + (np.cos(thetas) / np.sin(thetas)) * w1
        - (sec.m1**2 / (4.0 * C2) + sec.m2**2 / (4.0 * S2)) * w
        + sec.sep_const * w
    )
    return float(np.max(np.abs(residual))) / _peak(w)


def _peak(w) -> float:
    """max |w| of an angular profile or table; DomainError when it underflows to 0 on every node."""
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        raise DomainError("angular profile vanishes identically on the mesh")
    return scale
