"""Closed-form radial and angular eigenfunctions with analytic derivatives.

The radial function is stored in the scaled variable x = r/K_n, where it
reads chi(x) = (2x)^(J+1) e^(-x) F(j+1-n, 2J+2; 2x).  That form contains no
K, so every level of a j tower lives on one common x axis and the ladder
checks can compare levels pointwise.  The polynomial factor and its
derivatives are evaluated in float only through the Kummer recurrence
(`KummerSweep`, which `kummer_terminating` runs once); the exact rational
coefficients, `RadialState.poly_coeffs`, are a reference computed on first read.

`TowerSampler` samples chi and its derivatives for every level of one tower
on one fixed x, resuming its Kummer sweeps from level to level; its
`derivatives` gives all orders up to a top one from one list of Kummer rows.
`chi` and `chi_dn` read a sampler of their own (its `chi`, or the last of its
`derivatives`), so there is one float evaluation of chi and one product-rule
body for its derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    """Evaluation outside the coordinate domain or on an empty angular mesh.

    x must lie in (0, inf) and theta in (0, pi), phi must be finite, and NaN lies in no domain.
    """


def _as_array(x, what: str, upper: float = math.inf):
    """(float array, was scalar); DomainError unless every entry, NaN included, lies in (0, upper)."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < upper)):
        raise DomainError(f"{what} must lie in (0, {upper})")
    return arr, np.isscalar(x) or arr.ndim == 0


def _as_phi(phi) -> np.ndarray:
    """phi as a float array; DomainError unless every entry is finite."""
    arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("phi must be finite")
    return arr


@dataclass(frozen=True)
class RadialState:
    """One bound level: polynomial factor F(-k, b; 2x), leading exponent J+1."""

    sector: SectorLabels
    level: LevelLabels
    kummer: KummerParams
    exponent: float

    @cached_property
    def poly_coeffs(self) -> tuple[Fraction, ...]:
        """Exact coefficients of F(-k, 2J+2; 2x) in powers of x at the sector's J, computed on first read."""
        k = self.kummer.k
        b = 2 * Fraction(self.sector.bigJ) + 2
        coeffs = [Fraction(1)]
        for i in range(k):
            coeffs.append(coeffs[-1] * 2 * (i - k) / ((b + i) * (i + 1)))
        return tuple(coeffs)


def radial_state(sector: SectorLabels, n: HalfInt | int) -> RadialState:
    """Build chi_{n,j}: its level and the Kummer parameters of its polynomial factor."""
    level = energy(sector, n)
    k = (level.n.twice_value - sector.j.twice_value) // 2 - 1
    return RadialState(
        sector=sector,
        level=level,
        kummer=KummerParams(k, 2.0 * sector.bigJ + 2.0),
        exponent=sector.bigJ + 1.0,
    )


class TowerSampler:
    """chi and its derivatives for every level of one j tower on one fixed x.

    Derivative order l of level k needs F(-(k-l), b+l; 2x), and the
    recurrence in the order does not depend on k.  So the sampler keeps one
    `KummerSweep` per shift l, which resumes when a higher level is asked
    for and restarts when a lower one is: an ascending walk over the tower
    runs each sweep once.  It also keeps 2x, e^(-x) and the powers
    x^(alpha-i) it has used.  A sweep's rows do not depend on where it
    resumed from, so a value does not depend on the levels asked for before.
    """

    def __init__(self, sector: SectorLabels, x):
        self.x, self.scalar = _as_array(x, "x")
        self.sector = sector
        self.alpha = sector.bigJ + 1.0
        self.z = 2.0 * self.x
        self.expf = np.exp(-self.x)
        self._xpow: dict[int, np.ndarray] = {}
        self._sweeps: list[KummerSweep] = []

    def _xpow_at(self, i: int):
        out = self._xpow.get(i)
        if out is None:
            out = self._xpow[i] = self.x ** (self.alpha - i)
        return out

    def _row(self, p: KummerParams, l: int):
        """F(-(k-l), b+l; 2x), from the sweep of shift l."""
        while len(self._sweeps) <= l:
            self._sweeps.append(KummerSweep(p.bparam + len(self._sweeps), self.z))
        return self._sweeps[l].row(p.k - l)

    def _check(self, state: RadialState) -> None:
        if state.sector != self.sector:
            raise ValueError("state belongs to another sector than the sampler")

    def chi(self, state: RadialState):
        """chi of `state` on the sampler's x."""
        self._check(state)
        return self.z**self.alpha * self.expf * self._row(state.kummer, 0)

    def derivatives(self, state: RadialState, top: int) -> list:
        """Exact chi', chi'', ..., chi^(top) via the three-factor product rule.

        chi = 2^alpha * x^alpha * e^(-x) * P(x) with alpha = J+1, so each
        derivative is a finite multinomial sum; no finite differences
        anywhere.  Each P^(l)(x) = 2^l F^(l)(-k, b; 2x) that does not vanish
        identically (l <= k) is taken once, for all orders, from the sweep of
        shift l; the terms are formed in one scratch array.
        """
        self._check(state)
        p = state.kummer
        dpoly = [2.0**l * (_kummer_deriv_scale(p, l) * self._row(p, l))
                 for l in range(min(top, p.k) + 1)]
        alpha = self.alpha
        pref = 2.0**alpha
        tmp = np.empty_like(self.x)
        out = []
        for order in range(1, top + 1):
            total = np.zeros_like(self.x)
            for i in range(order + 1):
                fall = 1.0
                for t in range(i):
                    fall *= alpha - t
                if fall == 0.0:
                    continue
                xp = self._xpow_at(i)
                for jj in range(order - i + 1):
                    l = order - i - jj
                    if l >= len(dpoly):
                        continue
                    sgn = -1.0 if jj % 2 else 1.0
                    np.multiply(math.comb(order, i) * math.comb(order - i, jj) * fall * sgn, xp, out=tmp)
                    total += np.multiply(tmp, dpoly[l], out=tmp)
            out.append(pref * self.expf * total)
        return out


def chi(state: RadialState, x):
    """chi_{n,j} at x > 0 (scalar or array)."""
    return chi_dn(state, x, 0)


def chi_dn(state: RadialState, x, order: int):
    """The order-th derivative of chi at x > 0, order 0 being chi itself, from a sampler of its own."""
    sampler = TowerSampler(state.sector, x)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    val = sampler.derivatives(state, order)[-1] if order else sampler.chi(state)
    return float(val) if sampler.scalar else val


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
    val = w * np.exp(1j * state.phase_rate * _as_phi(phi))
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


def angular_residual(state: AngularState, thetas, phis) -> float:
    """Max-norm residual of the angular equation over the (theta, phi) mesh.

    The phi action is analytic: the second phi derivative contributes
    -(m-s)^2 and the gauged derivative -(m+s)^2, which combine with the 4c_i
    into -m1^2/(4 cos^2(t/2)) and -m2^2/(4 sin^2(t/2)).  The separation
    constant is the sector's `sep_const`.  An empty theta or phi mesh raises
    DomainError.
    """
    thetas, _ = _as_array(thetas, "theta", upper=math.pi)
    thetas = np.atleast_1d(thetas)
    phis = np.atleast_1d(_as_phi(phis))
    for name, mesh in (("theta", thetas), ("phi", phis)):
        if mesh.size == 0:
            raise DomainError(f"the {name} mesh is empty")
    sec = state.sector

    w, w1, w2 = _theta_profile(state, thetas)
    half = 0.5 * thetas
    C2 = np.cos(half) ** 2
    S2 = np.sin(half) ** 2
    radial_part = (
        w2
        + (np.cos(thetas) / np.sin(thetas)) * w1
        - (sec.m1**2 / (4.0 * C2) + sec.m2**2 / (4.0 * S2)) * w
        + sec.sep_const * w
    )
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        raise DomainError("angular profile vanishes identically on the mesh")
    worst = 0.0
    for phi in phis:
        field = radial_part * np.exp(1j * state.phase_rate * phi)
        worst = max(worst, float(np.max(np.abs(field))))
    return worst / scale


def default_angular_mesh():
    """200 interior theta nodes pi i/201 and 8 phi nodes 2 pi i/8 on the circle."""
    thetas = math.pi * np.arange(1, 201) / 201.0
    phis = 2.0 * math.pi * np.arange(8) / 8
    return thetas, phis
