"""The independent FD eigensolver oracle, in plain floats: no numpy, no closed forms.

The eigensolver is deliberately independent of the closed forms: it
discretizes -chi''/2 - chi/r + J(J+1)/(2r^2) chi = E chi on a uniform
Dirichlet grid and extracts eigenvalues of the symmetric tridiagonal matrix
by Sturm-sequence bisection, so agreement with the algebraic spectrum is a
genuine cross-check and not a tautology.

Bisection for eigenvalue k asks only whether count(lam) > k, so each pivot
sweep runs only until that is known.  It stops once its count passes k, and
it finishes early, and exactly, past the turning point: for lam < 0 every
node past the classical turning point V(r) = lam has d_i - lam >= 2|off|,
and once a pivot there reaches |off| no later pivot can turn negative, so
the sweep never visits the forbidden tail (see `_PivotSweep`).  Each
`eig_oracle` call keeps one resumable sweep per exact float lam, because the
bisections for different eigenvalues share their first midpoints: a later
question at the same lam with a larger k resumes the sweep where it
stopped, and one with a smaller k is answered from the count it reached.
Counts only grow along a sweep, so every answer is the full sweep's.
Brackets, midpoints and the stopping rule are those of the plain full-sweep
bisection, so the eigenvalues are bit-for-bit the same.

The module imports only the standard library and `quantum_numbers`, so the
`oracle` subcommand starts without numpy.  `RadialGrid.nodes`, the one numpy
array here, is built on first access for the grid checks of `numeric_verify`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .quantum_numbers import ConvergenceFailure, GridUnderflow, HalfInt, MonopoleParams, make_sector, sector_inputs
from .quantum_numbers import levels as sector_levels

MIN_NODES_PER_WAVELENGTH = 8
# relative margin of the early-stop bound in `_PivotSweep`; any value far
# above machine epsilon keeps the stop exact
STURM_TAIL_MARGIN = 1e-12

DEFAULT_TOLERANCES = {
    "angular_residual": 1e-9,
    "radial_equation": 1e-9,
    "t3_eigen": 1e-8,
    "t3_spacing": 1e-8,
    "casimir_action": 1e-8,
    "ladder_raise": 1e-7,
    "ladder_lower": 1e-7,
    "ladder_annihilation": 1e-8,
    "spectrum_level": 1e-4,
}


class GridTooCoarse(ValueError):
    """Fewer than the required nodes per expected wavelength."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior nodes r_i = i h, h = rmax/(npoints+1); Dirichlet ends.

    `npoints` must be an integer (a numpy integer is stored as an int).
    """

    rmax: float
    npoints: int

    def __post_init__(self):
        if not math.isfinite(self.rmax) or self.rmax <= 0.0:
            raise ValueError(f"rmax must be positive and finite, got {self.rmax}")
        try:
            object.__setattr__(self, "npoints", operator.index(self.npoints))
        except TypeError:
            raise ValueError(f"npoints must be an integer, got {self.npoints!r}") from None
        if self.npoints < 16:
            raise ValueError(f"need at least 16 grid points, got {self.npoints}")

    @property
    def h(self) -> float:
        return self.rmax / (self.npoints + 1)

    @cached_property
    def nodes(self):
        """The nodes as a read-only numpy array; numpy is imported on first access."""
        import numpy as np

        nodes = self.h * np.arange(1, self.npoints + 1, dtype=float)
        nodes.flags.writeable = False
        return nodes


@dataclass
class VerificationReport:
    check_name: str
    inputs: dict
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, inputs, residual, tolerance, t0, details=None) -> VerificationReport:
    """Report timed from t0; a tolerance of None is the check's default."""
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCES[name]
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(name, inputs, float(residual), float(tolerance), bool(residual <= tolerance),
                              runtime_ms, details or {})


def _suffix_min(diag: list[float]) -> list[float]:
    """suffix_min[i] = min(diag[i:]); nondecreasing in i."""
    out = list(itertools.accumulate(reversed(diag), min))
    out.reverse()
    return out


class _PivotSweep:
    """The LDL^T pivot sweep at one lam, resumable: counts negative pivots only as far as asked.

    The matrix has diagonal `diag` and constant off-diagonal `off`; the
    pivots are q_0 = d_0 - lam, q_i = d_i - lam - off^2 / q_{i-1}, and the
    number of negative ones is the number of eigenvalues strictly below lam.
    The sweep keeps the node it reached (the position of its two node
    iterators), the last pivot `q`, the negatives counted so far `count` and
    whether it has finished `done`.

    A finished sweep has the count of the full sweep over every node, but it
    stops once no later pivot can turn negative.  With b = |off|:

    - if d_j - lam >= 2b for every j >= i and some q_{i-1} >= b, then
      q_i >= 2b - b^2/b = b, and by induction every later pivot is >= b > 0;
    - in floating point the tail must satisfy fl(d_j - lam) >= 2b(1 + eta)
      with eta = STURM_TAIL_MARGIN = 1e-12.  The rounding of off^2, of
      off^2/q and of the subtraction costs a few ulps (about 7e-16
      relative), far below eta, so fl(q_i) >= b still holds.  This needs
      off^2 to be a normal float; otherwise the early stop is off.

    Since fl(d - lam) is monotone in d, the tail where the bound holds for
    every later node starts at the first i with fl(suffix_min[i] - lam) >=
    2b(1 + eta), found by binary search.  For lam < 0 that is just past the
    outer turning point V(r) = lam.  The recurrence runs unchanged up to
    that node; past it, the sweep finishes at the first pivot >= b.

    The head loop (nodes before the tail) and the tail loop take the same
    step; only the tail tests for the finish, which keeps that test off the
    nodes that make up most of a sweep.
    """

    __slots__ = ("lam", "e2", "b", "head", "tail", "q", "count", "done")

    def __init__(self, diag: list[float], suffix_min: list[float], off: float, lam: float):
        self.lam = lam
        self.e2 = off * off
        self.b = abs(off)
        if self.e2 >= sys.float_info.min:
            tail = bisect.bisect_left(suffix_min, 2.0 * self.b * (1.0 + STURM_TAIL_MARGIN), key=lambda d: d - lam)
        else:
            tail = len(diag)
        self.head = itertools.islice(diag, 1, tail)
        self.tail = itertools.islice(diag, max(tail, 1), None)
        self.q = diag[0] - lam
        self.count = 1 if self.q < 0.0 else 0
        self.done = False

    def exceeds(self, k: int) -> bool:
        """Whether the finished sweep counts more than k negative pivots.

        Counts only grow along the sweep, so it runs until its count passes
        k or it finishes, and a later call resumes from there.
        """
        if self.count > k or self.done:
            return self.count > k
        lam, e2, q, count = self.lam, self.e2, self.q, self.count
        for d in self.head:
            if q == 0.0:
                q = 1e-300
            q = d - lam - e2 / q
            if q < 0.0:
                count += 1
                if count > k:
                    self.q, self.count = q, count
                    return True
        b = self.b
        for d in self.tail:
            if q >= b:
                break
            if q == 0.0:
                q = 1e-300
            q = d - lam - e2 / q
            if q < 0.0:
                count += 1
                if count > k:
                    self.q, self.count = q, count
                    return True
        self.q, self.count, self.done = q, count, True
        return False


def _bisect_eigenvalue(exceeds, k: int, lo: float, hi: float) -> float:
    """Eigenvalue k (from 0) by bisection of [lo, hi].

    `exceeds(lam, k)` tells whether more than k eigenvalues lie strictly
    below lam, the one decision a step needs; it need not compute the count.
    """
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if exceeds(mid, k):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection stalled for eigenvalue {k} in [{lo}, {hi}]")


def _fd_matrix(J: float, grid: RadialGrid) -> tuple[list[float], float, float, float]:
    """Diagonal, constant off-diagonal and Gershgorin bounds lo, hi of the FD matrix.

    d_i = 1/h^2 - 1/r_i + J(J+1)/(2 r_i^2) with r_i = h i, off = -1/(2 h^2).
    Each d_i takes the operations of the elementwise array expression in the
    same order, so it is bit for bit that expression's value.  GridUnderflow
    when h^2 underflows to zero; ValueError when an entry or a bound is not
    finite (J(J+1) overflows above J of about 1.3e154).
    """
    h = grid.h
    if h * h == 0.0:
        raise GridUnderflow(f"the grid spacing h={h:.4g} of rmax={grid.rmax!r} over "
                            f"{grid.npoints} points squares to zero")
    off = -1.0 / (2.0 * h * h)
    inv_h2, jj = 1.0 / (h * h), J * (J + 1.0)
    diag = [inv_h2 - 1.0 / r + jj / (2.0 * r * r) for i in range(1, grid.npoints + 1) for r in (h * i,)]
    lo = min(diag) - 2.0 * abs(off)
    hi = max(diag) + 2.0 * abs(off)
    if not (math.isfinite(lo) and math.isfinite(hi) and all(map(math.isfinite, diag))):
        raise ValueError(f"J={J} on a grid with h={h:.4g} overflows the finite-difference matrix")
    return diag, off, lo, hi


def eig_oracle(J: float, grid: RadialGrid, count: int) -> list[float]:
    """Lowest `count` eigenvalues of the radial problem at angular label J, ascending.

    Sturm-sequence bisection of `_fd_matrix` between its Gershgorin bounds
    (see the module docstring).  The sweeps are kept for the whole call, one
    per exact float lam, so every eigenvalue is bit-for-bit that of the
    full-sweep bisection.

    J must be finite and non-negative, and the matrix must not overflow;
    otherwise ValueError.  A spacing h whose square underflows to zero
    raises GridUnderflow.
    """
    if not (math.isfinite(J) and J >= 0.0):
        raise ValueError(f"J must be non-negative and finite, got {J}")
    if count < 0 or count > grid.npoints:
        raise ValueError(f"count must lie in [0, {grid.npoints}], got {count}")
    if count == 0:
        return []
    # ground-state de Broglie scale of the J tower; coarser grids cannot
    # resolve even the lowest eigenfunction
    wavelength = 2.0 * math.pi * (J + 1.0)
    if grid.h * MIN_NODES_PER_WAVELENGTH > wavelength:
        raise GridTooCoarse(
            f"h={grid.h:.4g} gives fewer than {MIN_NODES_PER_WAVELENGTH} nodes "
            f"per expected wavelength {wavelength:.4g}"
        )
    diag, off, lo, hi = _fd_matrix(J, grid)
    suffix_min = _suffix_min(diag)
    sweeps: dict[float, _PivotSweep] = {}

    def exceeds(lam: float, k: int) -> bool:
        sweep = sweeps.get(lam)
        if sweep is None:
            sweep = sweeps[lam] = _PivotSweep(diag, suffix_min, off, lam)
        return sweep.exceeds(k)

    return [_bisect_eigenvalue(exceeds, k, lo, hi) for k in range(count)]


def oracle_reports(J: float, levels: list[tuple[float, dict]], grid: RadialGrid,
                   tol: float = DEFAULT_TOLERANCES["spectrum_level"]) -> list[VerificationReport]:
    """Relative error of the FD oracle's lowest eigenvalues against -1/(2K^2).

    `levels` pairs each K, ascending, with the `inputs` of its report.  One
    `eig_oracle` call solves for every level; the first report's runtime
    carries that solve.  Raises ValueError when an analytic energy
    underflows to zero or a relative error is not finite (the grid cannot
    hold the level).
    """
    t0 = time.perf_counter()
    oracle_vals = eig_oracle(J, grid, len(levels))
    reports = []
    for (K, inputs), ev in zip(levels, oracle_vals):
        exact = -1.0 / (2.0 * K * K)
        if exact == 0.0:
            raise ValueError(f"the analytic energy at K={K} underflows to zero")
        rel = abs(ev - exact) / abs(exact)
        if not math.isfinite(rel):
            raise ValueError(f"a grid with rmax={grid.rmax} cannot hold the level at K={K} "
                             f"(oracle eigenvalue {ev}, analytic energy {exact})")
        details = {"oracle_energy": ev, "analytic_energy": exact, "K": K}
        reports.append(_report("spectrum_level", inputs, rel, tol, t0, details))
        t0 = time.perf_counter()
    return reports


def spectrum_cross_check(params: MonopoleParams, m: HalfInt, j: HalfInt, levels: int, grid: RadialGrid,
                         tol: float = DEFAULT_TOLERANCES["spectrum_level"]) -> list[VerificationReport]:
    """Per-level relative error of the FD oracle against the analytic spectrum."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    sector = make_sector(params, m, j)
    pairs = [(lv.K, sector_inputs(sector, grid, lv.n)) for lv in sector_levels(sector, levels)]
    return oracle_reports(sector.bigJ, pairs, grid, tol)
