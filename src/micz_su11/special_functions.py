"""Jacobi polynomials with real parameters and the terminating Kummer function.

These are the only special functions the closed-form eigenfunctions need:
the bound-state first argument of F(a, b; z) is always a non-positive
integer, so no non-terminating hypergeometric machinery is provided.  Both
are evaluated by one recurrence body, the resumable three-term `Sweep`,
over two coefficient sets: `jacobi`'s step in the degree and
`KummerSweep`'s in the order.  The derivatives of each are the same
function at shifted parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `jacobi` and `jacobi_deriv` refuse degrees above this
DEGREE_CAP = 200


class ParamOutOfRange(ValueError):
    """Parameter outside the orthogonality/convergence range."""


class DegreeCapExceeded(ValueError):
    """Requested polynomial degree above DEGREE_CAP."""


@dataclass(frozen=True)
class JacobiParams:
    degree: int
    a: float
    b: float

    def __post_init__(self):
        if self.degree < 0:
            raise ParamOutOfRange(f"degree must be non-negative, got {self.degree}")
        if self.a <= -1.0 or self.b <= -1.0:
            raise ParamOutOfRange(f"Jacobi parameters need a, b > -1, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class KummerParams:
    k: int
    bparam: float

    def __post_init__(self):
        if self.k < 0:
            raise ParamOutOfRange(f"terminating order k must be non-negative, got {self.k}")
        if self.bparam <= 0.0:
            raise ParamOutOfRange(f"Kummer parameter b must be positive, got {self.bparam}")


def jacobi(p: JacobiParams, z):
    """P^(a,b)_degree(z) by the three-term recurrence in the degree, run by `Sweep`.

    Accepts a scalar or an ndarray for z.  With a, b > -1 none of the
    recurrence denominators can vanish.
    """
    if p.degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {p.degree} exceeds cap {DEGREE_CAP}")
    a, b = p.a, p.b

    def step(i, z):
        # P_1 is its own row: the general c1 vanishes at n = 1 when a + b = 0
        if i == 0:
            return 0.5 * (a - b) + 0.5 * (a + b + 2.0) * z, 0.0, 1.0
        n = i + 1
        apb = a + b
        c1 = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        c2 = (2.0 * n + apb - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + apb - 1.0) * (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + apb)
        return c2 + c3 * z, c4, c1

    return Sweep(step, z).row(p.degree)


def jacobi_deriv(p: JacobiParams, z):
    """d/dz P^(a,b)_k(z) = ((k+a+b+1)/2) P^(a+1,b+1)_(k-1)(z) for k >= 1, else 0."""
    if p.degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {p.degree} exceeds cap {DEGREE_CAP}")
    if p.degree == 0:
        return np.zeros_like(z, dtype=float) if isinstance(z, np.ndarray) else 0.0
    shifted = JacobiParams(p.degree - 1, p.a + 1.0, p.b + 1.0)
    return 0.5 * (p.degree + p.a + p.b + 1.0) * jacobi(shifted, z)


class Sweep:
    """A three-term recurrence on a fixed z, resumable in the index.

    From P_0 = 1 and P_(-1) = 0 it runs P_(i+1) = (L_i(z) P_i - C_i P_(i-1)) / D_i,
    with (L_i(z), C_i, D_i) = step(i, z); an array L_i(z) must be a new
    one, which the sweep overwrites with P_(i+1).  `row(k)` returns P_k.  The
    sweep keeps only its last two rows (i, P_(i-1), P_i): row i - 1 is the
    one it holds, a higher k resumes from them and a lower one restarts
    from i = 0, so every row is computed by the same operations in the
    same order as a fresh sweep, bit for bit, whatever rows were read
    before.  Returned rows are never modified afterwards.
    """

    def __init__(self, step, z):
        self.step = step
        self.z = z
        self.restart()

    def restart(self) -> None:
        z = self.z
        self.i = 0
        self.prev = 0.0
        self.cur = np.ones_like(z, dtype=float) if isinstance(z, np.ndarray) else 1.0

    def row(self, k: int):
        if k == self.i - 1:
            return self.prev
        if k < self.i:
            self.restart()
        step, z, i, prev, cur = self.step, self.z, self.i, self.prev, self.cur
        for i in range(i, k):
            L, C, D = step(i, z)
            # P_(i+1) is formed in the step's new L where L P_i keeps its dtype:
            # the operations of (L P_i - C P_(i-1)) / D, one temporary fewer
            own = isinstance(L, np.ndarray) and L.dtype == np.result_type(L, cur)
            nxt = np.multiply(L, cur, out=L) if own else L * cur
            nxt -= C * prev
            nxt /= D
            prev, cur = cur, nxt
        self.i, self.prev, self.cur = k, prev, cur
        return cur


class KummerSweep(Sweep):
    """F(-k, b; z) by the three-term recurrence in the order k, on a fixed z: `row(k)` returns it.

    The contiguous relation (DLMF 13.3.1; the Laguerre recurrence, DLMF
    18.9.13, with F(-k, b; z) = k!/(b)_k L_k^(b-1)(z)) is
    F_(i+1) = ((2i + b - z) F_i - i F_(i-1)) / (b + i) from F_0 = 1, an
    evaluation without the cancellation of the alternating monomial sum.
    Accepts a scalar or an ndarray for z.
    """

    def __init__(self, b: float, z):
        self.b = b
        super().__init__(lambda i, z: (2.0 * i + b - z, i, b + i), z)


def _kummer_deriv_scale(p: KummerParams, order: int) -> float:
    """(-k)_l/(b)_l for l = order, accumulated factor by factor."""
    scale = 1.0
    for i in range(order):
        scale *= (i - p.k) / (p.bparam + i)
    return scale
