"""Grid-based verification: FD eigensolver oracle, operator action, ladder checks.

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

The grid checks reuse work in process-wide caches:

- `operator_algebra.generator_table()` composes the su(1,1) generators and
  their products once per process; each keeps the float image of its exact
  coefficients, built by its first `substitute`, and a level substitutes
  (J, K) into each of the nine once;
- `_node_power(grid, xp)` holds x^xp on the grid nodes (NODE_POWER_CACHE = 6
  arrays; the generators use xp in {-2, -1, 1, 2});
- `_tower_sampler(sector, grid)` keeps one `analytic_states.TowerSampler`
  for the last (sector, grid): 2x, e^(-x), up to five powers x^(J+1-i) and
  the last two rows of the resumable Kummer sweep of each derivative order
  l <= 4, at most 17 arrays.  A walk up the tower runs each sweep once;
- `_level(sector, n, grid)` is an LRU of SAMPLE_CACHE_LEVELS = 4 `_Level`s,
  enough for the n-1, n, n+1 window of `verify_states_suite`.  A `_Level`
  holds the state, chi on the nodes and, from the first `apply`, the images
  of chi under the nine `generator_table()` operators at its (J, K): at most
  40 arrays.  The images are built together: one `TowerSampler.derivatives`
  pass gives orders 1-4, each of the 15 distinct products x^p chi^(q) behind
  the 69 terms is formed once, and each image sums its terms in
  `apply_operator`'s order with its operations, so it is bit for bit that
  operator's `apply_operator` image.  Each image is checked for non-finite
  entries once, as it is built, so a bad image raises ValueError from the
  build; `apply(name)` hands out the checked `GridFunction` as it is.

Together that is at most 63 arrays of npoints x 8 B (2.0 MB at the default
4000 points), plus, while one level builds its images, 4 derivative samples,
12 products with p != 0 and 2 scratch arrays.  Every cached array is read-only.

The caches are not thread-safe.  The cached sampler's sweeps advance in
place, so two threads that sample one (sector, grid) at once can mix their
rows and get wrong values with no error.  Run concurrent suites in separate
processes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .analytic_states import (
    TowerSampler,
    angular_residual,
    angular_state,
    default_angular_mesh,
    radial_state,
)
from .operator_algebra import NumericOperator, generator_table, substitute
from .quantum_numbers import (
    ConvergenceFailure,
    GridUnderflow,
    HalfInt,
    MonopoleParams,
    SectorLabels,
    make_sector,
    levels as sector_levels,
    sector_inputs,
)

MIN_NODES_PER_WAVELENGTH = 8
# relative margin of the early-stop bound in `_PivotSweep`; any value far
# above machine epsilon keeps the stop exact
STURM_TAIL_MARGIN = 1e-12
SAMPLE_CACHE_LEVELS = 4
# x^xp per (grid, xp): the generators use xp in {-2, -1, 1, 2}
NODE_POWER_CACHE = 6
# the x range on which `radial_equation_check` takes its max-norm residual
RADIAL_EQUATION_WINDOW = (0.01, 40.0)

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
    """Uniform interior nodes r_i = i h, h = rmax/(npoints+1); Dirichlet ends."""

    rmax: float
    npoints: int

    def __post_init__(self):
        if not math.isfinite(self.rmax) or self.rmax <= 0.0:
            raise ValueError(f"rmax must be positive and finite, got {self.rmax}")
        if self.npoints < 16:
            raise ValueError(f"need at least 16 grid points, got {self.npoints}")

    @property
    def h(self) -> float:
        return self.rmax / (self.npoints + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = self.h * np.arange(1, self.npoints + 1, dtype=float)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True, eq=False)
class GridFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.npoints,):
            raise ValueError(f"expected {self.grid.npoints} values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("grid function contains non-finite entries")
        object.__setattr__(self, "values", vals)

    def inner(self, other: "GridFunction") -> float:
        return float(self.grid.h * np.dot(self.values, other.values))

    def norm(self) -> float:
        return math.sqrt(self.inner(self))


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
    return VerificationReport(
        check_name=name,
        inputs=inputs,
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        details=details or {},
    )


# ---------------------------------------------------------------------------
# Independent eigensolver oracle
# ---------------------------------------------------------------------------

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


def _sturm_count(diag: list[float], suffix_min: list[float], off: float, lam: float) -> int:
    """Number of eigenvalues strictly below lam: the `_PivotSweep` at lam run to its end."""
    sweep = _PivotSweep(diag, suffix_min, off, lam)
    sweep.exceeds(len(diag))  # no count exceeds the number of nodes
    return sweep.count


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


def eig_oracle(J: float, grid: RadialGrid, count: int) -> list[float]:
    """Lowest `count` eigenvalues of the radial problem at angular label J.

    Discretization: diagonal 1/h^2 + V(r_i) with V = -1/r + J(J+1)/(2 r^2),
    off-diagonal -1/(2 h^2); eigenvalues by Sturm-sequence bisection between
    Gershgorin bounds, sorted ascending.  Each bisection step asks only
    whether count(lam) > k, and the pivot sweep at lam runs only until that
    is known: until its count passes k, or past the classical turning point
    where no later pivot can turn negative (see `_PivotSweep`).  The sweeps
    are kept for the whole call, one per exact float lam, so a later
    eigenvalue's question at a shared midpoint resumes the sweep or reads
    the count it reached.  Every decision is the full sweep's, so every
    eigenvalue is bit-for-bit that of the full-sweep bisection.

    J must be finite and non-negative, and the diagonal must not overflow
    (J(J+1) overflows above J of about 1.3e154); otherwise ValueError.  A
    spacing h whose square underflows to zero raises GridUnderflow.
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
    r = grid.nodes
    h = grid.h
    if h * h == 0.0:
        raise GridUnderflow(f"the grid spacing h={h:.4g} of rmax={grid.rmax!r} over "
                            f"{grid.npoints} points squares to zero")
    off = -1.0 / (2.0 * h * h)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diag_arr = 1.0 / (h * h) - 1.0 / r + J * (J + 1.0) / (2.0 * r * r)
    diag = diag_arr.tolist()
    lo = min(diag) - 2.0 * abs(off)
    hi = max(diag) + 2.0 * abs(off)
    if not (np.all(np.isfinite(diag_arr)) and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"J={J} on a grid with h={h:.4g} overflows the finite-difference matrix")
    suffix_min = _suffix_min(diag)
    sweeps: dict[float, _PivotSweep] = {}

    def exceeds(lam: float, k: int) -> bool:
        sweep = sweeps.get(lam)
        if sweep is None:
            sweep = sweeps[lam] = _PivotSweep(diag, suffix_min, off, lam)
        return sweep.exceeds(k)

    return [_bisect_eigenvalue(exceeds, k, lo, hi) for k in range(count)]


# ---------------------------------------------------------------------------
# Operator application on grid functions
# ---------------------------------------------------------------------------

def apply_operator(numop: NumericOperator, f: GridFunction, derivatives) -> GridFunction:
    """Apply sum of coeff x^xpow D^dorder to f per node.

    `derivatives(order)` supplies the samples of the order-th derivative of
    f on the grid nodes; it is called once for each order >= 1 that the
    operator needs.
    """
    return GridFunction(f.grid, _sum_terms(numop, _term_products(f, derivatives)))


def _term_products(f: GridFunction, derivatives):
    """product(xp, dq): x^xp f^(dq) on the nodes; each order dq >= 1 is asked of `derivatives` once."""
    samples = {0: f.values}

    def product(xp: int, dq: int) -> np.ndarray:
        if dq not in samples:
            samples[dq] = np.asarray(derivatives(dq), dtype=float)
        return samples[dq] if xp == 0 else samples[dq] * _node_power(f.grid, xp)

    return product


def _sum_terms(numop: NumericOperator, product) -> np.ndarray:
    """The one body of operator application: sum of c * product(xp, dq) in term order."""
    out = np.zeros_like(product(0, 0))
    tmp = np.empty_like(out)
    for xp, dq, c in numop.terms:
        out += np.multiply(c, product(xp, dq), out=tmp)
    return out


@lru_cache(maxsize=NODE_POWER_CACHE)
def _node_power(grid: RadialGrid, xp: int) -> np.ndarray:
    """Read-only x^xp on the grid nodes."""
    out = grid.nodes ** float(xp)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Verification pipelines
# ---------------------------------------------------------------------------

def _as_halfint(n) -> HalfInt:
    return n if isinstance(n, HalfInt) else HalfInt.from_int(n)


@cache
def _top_order() -> int:
    """The highest derivative order among the `generator_table()` operators."""
    return max(dq for op in generator_table().values() for (_, dq), _ in op.items())


@lru_cache(maxsize=1)
def _tower_sampler(sector: SectorLabels, grid: RadialGrid) -> TowerSampler:
    return TowerSampler(sector, grid.nodes)


class _Level:
    """Level n of a tower on one grid: its state, read-only chi on the nodes and its images.

    `norm2` is the squared grid norm of chi, `f.inner(f)`, which the checks read.

    Raises GridUnderflow when the squared norm of chi on the grid is zero or
    subnormal: below `sys.float_info.min` the norm has lost precision to
    gradual underflow, and so have the overlaps the checks divide by it.
    """

    def __init__(self, sector: SectorLabels, n: HalfInt, grid: RadialGrid):
        self.state = radial_state(sector, n)
        self.grid = grid
        values = self._sampler().chi(self.state)
        values.flags.writeable = False
        self.f = GridFunction(grid, values)
        self.norm2 = norm2 = self.f.inner(self.f)
        if norm2 < sys.float_info.min:
            what = "zero norm" if norm2 == 0.0 else f"a subnormal squared norm {norm2:.3g}"
            raise GridUnderflow(f"chi at n={n} has {what} on the grid with rmax={grid.rmax!r} "
                                f"and {grid.npoints} points")

    def _sampler(self):
        return _tower_sampler(self.state.sector, self.grid)

    @cached_property
    def images(self) -> Mapping[str, GridFunction]:
        """Read-only image of chi under each `generator_table()` operator at this level's (J, K).

        All nine are built at once (see the module docstring).  ValueError if one is not finite.
        """
        J, K = self.state.sector.bigJ, self.state.level.K
        derived = self._sampler().derivatives(self.state, _top_order())
        product = cache(_term_products(self.f, lambda order: derived[order - 1]))
        images = {}
        for name, op in generator_table().items():
            image = _sum_terms(substitute(op, J, K), product)
            image.flags.writeable = False
            images[name] = GridFunction(self.grid, image)
        return MappingProxyType(images)

    def apply(self, name: str) -> GridFunction:
        """The image of chi under `generator_table()[name]` at this level's (J, K)."""
        return self.images[name]


# _level(sector, n, grid): the `_Level`, from an LRU cache of SAMPLE_CACHE_LEVELS entries
_level = lru_cache(maxsize=SAMPLE_CACHE_LEVELS)(_Level)


def ladder_check(sector: SectorLabels, n, sign: int, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Similarity of T_pm chi_n against chi_{n+-1}; annihilation at the bottom.

    The proportionality constant is never asserted, only measured and
    reported; the sign of the overlap is discarded.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t0 = time.perf_counter()
    n = _as_halfint(n)
    level = _level(sector, n, grid)
    y = level.apply("T+" if sign == 1 else "T-")
    bottom = n - sector.j == 1
    inputs = sector_inputs(sector, grid, n)
    if sign == -1 and bottom:
        residual = y.norm() / math.sqrt(level.norm2)
        return _report("ladder_annihilation", inputs, residual, tol, t0)
    target = _level(sector, n + sign, grid)
    overlap = y.inner(target.f)
    sim = abs(overlap) / (y.norm() * math.sqrt(target.norm2))
    residual = max(0.0, 1.0 - sim)
    name = "ladder_raise" if sign == 1 else "ladder_lower"
    details = {"proportionality_ratio": overlap / target.norm2}
    return _report(name, inputs, residual, tol, t0, details)


def t3_eigen_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """||T3 chi - K chi||/||chi|| plus the shifted eigenvalues of T3 on T_pm chi."""
    t0 = time.perf_counter()
    n = _as_halfint(n)
    level = _level(sector, n, grid)
    f = level.f
    K = level.state.level.K
    y = level.apply("T3")
    residual = GridFunction(grid, y.values - K * f.values).norm() / math.sqrt(level.norm2)
    details = {"measured_eigenvalue": y.inner(f) / level.norm2}
    bottom = n - sector.j == 1
    for sign, tag, tpm in ((1, "raised", "T+"), (-1, "lowered", "T-")):
        if sign == -1 and bottom:
            continue
        z = level.apply(tpm)
        w = level.apply("T3 " + tpm)
        r_shift = GridFunction(grid, w.values - (K + sign) * z.values).norm() / z.norm()
        details[f"{tag}_eigenvalue"] = w.inner(z) / z.inner(z)
        residual = max(residual, r_shift)
    return _report("t3_eigen", sector_inputs(sector, grid, n), residual, tol, t0, details)


def t3_spacing_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Measured T3 eigenvalue difference between levels n+1 and n, against 1."""
    t0 = time.perf_counter()
    n = _as_halfint(n)
    measured = []
    for level_n in (n, n + 1):
        level = _level(sector, level_n, grid)
        y = level.apply("T3")
        measured.append(y.inner(level.f) / level.norm2)
    spacing = measured[1] - measured[0]
    return _report(
        "t3_spacing",
        sector_inputs(sector, grid, n),
        abs(spacing - 1.0),
        tol,
        t0,
        {"spacing": spacing},
    )


def casimir_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Casimir action assembled from uncancelled pieces; target J(J+1) chi.

    -T+T- + T3^2 - T3 and the mirror -T-T+ + T3^2 + T3 are each applied as
    three separate composed operators so the cancellation down to the
    constant happens numerically on the grid.
    """
    t0 = time.perf_counter()
    n = _as_halfint(n)
    level = _level(sector, n, grid)
    fnorm = math.sqrt(level.norm2)
    target = sector.sep_const * level.f.values
    t3f, t3sq, pm, mp = (level.apply(name).values for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
    res_direct = GridFunction(grid, -pm + t3sq - t3f - target).norm() / fnorm
    res_mirror = GridFunction(grid, -mp + t3sq + t3f - target).norm() / fnorm
    details = {"direct": float(res_direct), "mirror": float(res_mirror)}
    return _report(
        "casimir_action",
        sector_inputs(sector, grid, n),
        max(res_direct, res_mirror),
        tol,
        t0,
        details,
    )


def radial_equation_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Max-norm residual of (-x^2 D^2 - 2Kx + x^2) chi = -J(J+1) chi on RADIAL_EQUATION_WINDOW."""
    t0 = time.perf_counter()
    n = _as_halfint(n)
    level = _level(sector, n, grid)
    f = level.f
    resid = level.apply("Ln").values + sector.sep_const * f.values
    x = grid.nodes
    mask = (x >= RADIAL_EQUATION_WINDOW[0]) & (x <= RADIAL_EQUATION_WINDOW[1])
    if not np.any(mask):
        mask = np.ones_like(x, dtype=bool)
    residual = float(np.max(np.abs(resid[mask])) / np.max(np.abs(f.values[mask])))
    return _report("radial_equation", sector_inputs(sector, grid, n), residual, tol, t0)


def angular_residual_check(sector: SectorLabels, tol: float | None = None) -> VerificationReport:
    """Angular equation residual on `default_angular_mesh()`, whose size the inputs echo."""
    t0 = time.perf_counter()
    thetas, phis = default_angular_mesh()
    residual = angular_residual(angular_state(sector), thetas, phis)
    inputs = sector_inputs(sector)
    inputs["ntheta"] = len(thetas)
    inputs["nphi"] = len(phis)
    return _report("angular_residual", inputs, residual, tol, t0)


def oracle_reports(
    J: float,
    levels: list[tuple[float, dict]],
    grid: RadialGrid,
    tol: float = DEFAULT_TOLERANCES["spectrum_level"],
) -> list[VerificationReport]:
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


def spectrum_cross_check(
    params: MonopoleParams,
    m: HalfInt,
    j: HalfInt,
    levels: int,
    grid: RadialGrid,
    tol: float = DEFAULT_TOLERANCES["spectrum_level"],
) -> list[VerificationReport]:
    """Per-level relative error of the FD oracle against the analytic spectrum."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    sector = make_sector(params, m, j)
    pairs = [(lv.K, sector_inputs(sector, grid, lv.n)) for lv in sector_levels(sector, levels)]
    return oracle_reports(sector.bigJ, pairs, grid, tol)


def verify_states_suite(
    params: MonopoleParams,
    m: HalfInt,
    j: HalfInt,
    nlevels: int = 5,
    grid: RadialGrid | None = None,
    tol: float | None = None,
) -> list[VerificationReport]:
    """The full per-sector state-level suite used by the CLI.

    Runs the angular residual, then per level the radial-equation residual,
    the T3 eigenvalue (with shifted eigenvalues), the Casimir action, the
    raising similarity, the in-tower lowering similarity and the bottom
    annihilation, plus the T3 spacing between consecutive levels.
    """
    sector = make_sector(params, m, j)
    if grid is None:
        k_top = sector.bigJ + nlevels
        grid = RadialGrid(rmax=10.0 + 4.0 * k_top, npoints=4000)
    reports = [angular_residual_check(sector, tol=tol)]
    bottom = sector.j + 1
    for i in range(nlevels):
        n = bottom + i
        reports.append(radial_equation_check(sector, n, grid, tol=tol))
        reports.append(t3_eigen_check(sector, n, grid, tol=tol))
        reports.append(casimir_check(sector, n, grid, tol=tol))
        reports.append(ladder_check(sector, n, +1, grid, tol=tol))
        # at i == 0 the lowering check is the bottom annihilation
        reports.append(ladder_check(sector, n, -1, grid, tol=tol))
        if i + 1 < nlevels:
            reports.append(t3_spacing_check(sector, n, grid, tol=tol))
    return reports
