"""Quantum-number bookkeeping for the generalized MICZ-Kepler problem.

The monopole charge s restricts m, j and n to share its integer /
half-odd-integer character, so all of those labels are kept as exact
twice-value integers and only the coupling shifts delta1, delta2 (and
everything built from them) live in floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


class InvalidQuantumNumbers(ValueError):
    """Raised when (s, c1, c2, m, j) violate the quantization constraints."""


class InvalidLevel(ValueError):
    """Raised when a principal quantum number n does not belong to the sector."""


# The two numeric failures the CLI reports; they live here, next to the other
# error classes, so that catching them needs no numpy.  `numeric_verify`
# raises and re-exports them.

class ConvergenceFailure(RuntimeError):
    """Sturm bisection could not isolate an eigenvalue."""


class GridUnderflow(ValueError):
    """The grid is too small for floats: h^2 or the norm of a sampled state is zero."""


# the inverse of 2 modulo the hash modulus: hash(t/2) = hash(t) * _HASH_HALF
_HASH_HALF = pow(2, -1, sys.hash_info.modulus)


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """Exact integer or half-integer, stored as twice its value."""

    twice_value: int

    @classmethod
    def from_int(cls, k: int) -> "HalfInt":
        return cls(2 * k)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '3/2', '-1/2', '1.5' or '2' into an exact half-integer."""
        try:
            q = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidQuantumNumbers(f"cannot parse half-integer from {text!r}") from exc
        if q.denominator not in (1, 2):
            raise InvalidQuantumNumbers(f"{text!r} is not an exact integer or half-integer")
        return cls(q.numerator * (2 // q.denominator))

    @property
    def parity(self) -> int:
        """0 for integers, 1 for half-odd integers."""
        return self.twice_value & 1

    def __float__(self) -> float:
        return self.twice_value / 2.0

    def __str__(self) -> str:
        if not self.parity:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"

    @staticmethod
    def _coerce(other) -> "HalfInt":
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, int):
            return HalfInt(2 * other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.twice_value == o.twice_value

    def __hash__(self) -> int:
        # equal to hash(Fraction(self.twice_value, 2)), by Python's rule for
        # rationals, without building the Fraction
        t = self.twice_value
        if not t & 1:
            return hash(t >> 1)
        h = hash(hash(abs(t)) * _HASH_HALF)
        return h if t > 0 else -h  # Python turns a returned -1 into -2, as for Fraction

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self.twice_value < o.twice_value

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else HalfInt(self.twice_value + o.twice_value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else HalfInt(self.twice_value - o.twice_value)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice_value))


@dataclass(frozen=True)
class MonopoleParams:
    """External couplings: monopole charge s and the axial strengths c1, c2 >= 0."""

    s: HalfInt
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidQuantumNumbers(f"coupling {name} must be finite, got {value}")
            if value == 0.0:
                object.__setattr__(self, name, 0.0)  # -0.0 is +0.0, so no document echoes -0
        if self.c1 < 0 or self.c2 < 0:
            raise InvalidQuantumNumbers(
                f"couplings must be non-negative, got c1={self.c1}, c2={self.c2}"
            )


@dataclass(frozen=True)
class SectorLabels:
    """Derived quantities of one (m, j) angular sector."""

    params: MonopoleParams
    m: HalfInt
    j: HalfInt
    m1: float
    m2: float
    mplus: HalfInt
    delta1: float
    delta2: float
    bigJ: float
    sep_const: float


@dataclass(frozen=True)
class LevelLabels:
    """Bound-state level: principal number n, scale K, epsilon = 1/K and energy."""

    n: HalfInt
    K: float
    epsilon: float
    energy: float


def m_plus(s: HalfInt, m: HalfInt) -> HalfInt:
    """(|m+s| + |m-s|)/2, exact.  Always >= |m| and shares the parity of m."""
    tv = abs(m.twice_value + s.twice_value) + abs(m.twice_value - s.twice_value)
    # tv is a sum of two same-parity integers, hence even
    return HalfInt(tv // 2)


def make_sector(params: MonopoleParams, m: HalfInt, j: HalfInt) -> SectorLabels:
    """Validate (m, j) against the monopole charge and derive the sector labels.

    m1 = sqrt((m-s)^2 + 4 c1), m2 = sqrt((m+s)^2 + 4 c2), delta_i the excess of
    m_i over the unshifted |m -+ s|, J = j + (delta1+delta2)/2 and the angular
    separation constant J(J+1).  Labels or a coupling so large that m1, m2 or
    J(J+1) overflows are rejected, naming m -+ s when its square alone
    overflows and the coupling otherwise.
    """
    s = params.s
    for name, label in (("s", s), ("m", m), ("j", j)):
        if abs(label.twice_value) > sys.float_info.max:  # |label| > max/2, so m -+ s fit a float
            raise InvalidQuantumNumbers(f"{name} is too large: |{name}| must not exceed {sys.float_info.max / 2:g}")
    if m.parity != s.parity:
        raise InvalidQuantumNumbers(
            f"m={m} must be integer/half-integer exactly as s={s} is"
        )
    if j.parity != s.parity:
        raise InvalidQuantumNumbers(
            f"j={j} must be integer/half-integer exactly as s={s} is"
        )
    if abs(m) > j:
        raise InvalidQuantumNumbers(f"m={m} violates -j <= m <= j for j={j}")
    mp = m_plus(s, m)  # shares the parity of m, hence of j: j - m_plus is an integer
    if j < mp:
        raise InvalidQuantumNumbers(
            f"j={j} is invalid: the sector requires j >= m_plus = {mp}"
        )

    dm = float(m - s)
    dp = float(m + s)
    m1 = math.sqrt(dm * dm + 4.0 * params.c1)
    m2 = math.sqrt(dp * dp + 4.0 * params.c2)
    for name, label, d, value, formula in (("c1", "m-s", dm, m1, "m1 = sqrt((m-s)^2 + 4 c1)"),
                                           ("c2", "m+s", dp, m2, "m2 = sqrt((m+s)^2 + 4 c2)")):
        if math.isfinite(value):
            continue
        if not math.isfinite(d * d):
            raise InvalidQuantumNumbers(f"labels too large: {label}={d:g} squared overflows in {formula}")
        raise InvalidQuantumNumbers(f"coupling {name}={getattr(params, name)} is too large: {formula} overflows")
    delta1 = m1 - abs(dm)
    delta2 = m2 - abs(dp)
    bigJ = float(j) + 0.5 * (delta1 + delta2)
    sep_const = bigJ * (bigJ + 1.0)
    if not math.isfinite(sep_const):
        raise InvalidQuantumNumbers(
            f"J(J+1) overflows at J={bigJ:g} (j={float(j):g}, c1={params.c1}, c2={params.c2})"
        )
    return SectorLabels(
        params=params,
        m=m,
        j=j,
        m1=m1,
        m2=m2,
        mplus=mp,
        delta1=delta1,
        delta2=delta2,
        bigJ=bigJ,
        sep_const=sep_const,
    )


def energy(sector: SectorLabels, n: HalfInt) -> LevelLabels:
    """Level labels for principal number n = j + 1, j + 2, ... of the sector.

    K = J + (n - j) keeps the unit spacing K_{n+1} = K_n + 1 exact in floating
    point; the energy is -1/(2 K^2).
    """
    if not isinstance(n, HalfInt):
        n = HalfInt.from_int(n)
    j = sector.j
    if n.twice_value - j.twice_value > sys.float_info.max:
        raise InvalidLevel(f"n is too large: n - j must not exceed {sys.float_info.max / 2:g}")
    if n.parity != j.parity:
        raise InvalidLevel(f"n={n} must share the integer/half-integer parity of j={j}")
    if n.twice_value - j.twice_value < 2:
        raise InvalidLevel(f"n={n} is below the tower bottom n = j + 1 = {j + 1}")
    K = sector.bigJ + float(n - j)
    level = LevelLabels(n=n, K=K, epsilon=1.0 / K, energy=-1.0 / (2.0 * K * K))
    if level.energy == 0.0:
        raise InvalidLevel(f"2K^2 overflows at K={K:g}, so the energy -1/(2K^2) underflows to 0")
    return level


def levels(sector: SectorLabels, count: int) -> list[LevelLabels]:
    """The lowest `count` bound levels n = j+1, ..., j+count of the sector."""
    return [energy(sector, sector.j + (i + 1)) for i in range(count)]


def sector_inputs(sector: SectorLabels, grid=None, n: HalfInt | None = None) -> dict:
    """The labels that name a sector in reports and CLI documents.

    Keys in order: s, c1, c2, m, j, then the level n when given, then the
    `rmax` and `npoints` of `grid` (a `fd_oracle.RadialGrid`) when given.
    """
    p = sector.params
    out = {"s": str(p.s), "c1": p.c1, "c2": p.c2, "m": str(sector.m), "j": str(sector.j)}
    if n is not None:
        out["n"] = str(n)
    if grid is not None:
        out["rmax"] = grid.rmax
        out["npoints"] = grid.npoints
    return out
