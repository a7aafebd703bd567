"""Grid-based verification: FD eigensolver oracle, operator action, ladder checks.

The eigensolver is deliberately independent of the closed forms: it
discretizes -chi''/2 - chi/r + J(J+1)/(2r^2) chi = E chi on a uniform
Dirichlet grid and extracts eigenvalues of the symmetric tridiagonal matrix
by Sturm-sequence bisection, so agreement with the algebraic spectrum is a
genuine cross-check and not a tautology.

Each Sturm count stops early, and exactly: for lam < 0 every node past the
classical turning point V(r) = lam has d_i - lam >= 2|off|, and once a pivot
there reaches |off| no later pivot can turn negative, so the sweep ends
without visiting the forbidden tail (see `_sturm_count`).  Counts are
memoized per `eig_oracle` call, because the bisections for different
eigenvalues share their first midpoints.  Brackets, midpoints and the
stopping rule are those of the plain full sweep, so the eigenvalues are
bit-for-bit the same.

The grid checks reuse work in process-wide caches:

- the su(1,1) generators and their products come from
  `operator_algebra.generator_table()`, composed once per process; a level
  `substitute`s (J, K) into each of the nine once;
- `_node_power(grid, xp)` holds x^xp on the grid nodes for
  `apply_operator` (NODE_POWER_CACHE = 6 arrays; the generators use xp in
  {-2, -1, 1, 2});
- `_tower_sampler(sector, grid)` keeps one `analytic_states.TowerSampler`
  (the last (sector, grid) asked for).  It holds 2x, e^(-x), up to five
  powers x^(J+1-i) and, for each derivative order l <= 4, the last two rows
  of its resumable Kummer sweep: at most 17 arrays.  A walk up the tower
  runs each sweep from order 0 once;
- `_level(sector, n, grid)` is an LRU cache keyed on the frozen
  (SectorLabels, HalfInt, RadialGrid) triple.  An entry is a `_Level`: the
  state, chi on the grid nodes and, from the first `apply`, the images of
  chi under all nine `generator_table()` operators at the level's (J, K).
  They are built together: the nine operators have 69 terms but only 15
  distinct (p, q), so each product x^p chi^(q) is formed once (and each
  derivative order sampled once), and each image sums its terms in
  `apply_operator`'s order with `apply_operator`'s operations, so it is
  bit-for-bit that operator's `apply_operator` image.  The four derivative
  samples and twelve products with p != 0 live only while the images are
  built.  `_Level.apply(name)` is the one path from a `generator_table()`
  name to its image.  The LRU keeps SAMPLE_CACHE_LEVELS = 4 levels, enough
  for the n-1, n, n+1 window that `verify_states_suite` walks: at most 40
  arrays (chi and nine images each).

Together that is at most 63 arrays of npoints x 8 B (2.0 MB at the default
4000 points), plus the 16 arrays of the one level whose images are being
built.  Every array the caches hand out is read-only.

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
)

MIN_NODES_PER_WAVELENGTH = 8
# relative margin of the early-stop bound in `_sturm_count`; any value far
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
        if not np.all(np.isfinite(vals)):
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


def _sector_inputs(sector: SectorLabels, grid: RadialGrid | None = None, n: HalfInt | None = None) -> dict:
    p = sector.params
    out = {"s": str(p.s), "c1": p.c1, "c2": p.c2, "m": str(sector.m), "j": str(sector.j)}
    if n is not None:
        out["n"] = str(n)
    if grid is not None:
        out["rmax"] = grid.rmax
        out["npoints"] = grid.npoints
    return out


# ---------------------------------------------------------------------------
# Independent eigensolver oracle
# ---------------------------------------------------------------------------

def _suffix_min(diag: list[float]) -> list[float]:
    """suffix_min[i] = min(diag[i:]); nondecreasing in i."""
    out = list(itertools.accumulate(reversed(diag), min))
    out.reverse()
    return out


def _sturm_count(diag: list[float], suffix_min: list[float], off: float, lam: float) -> int:
    """Number of eigenvalues strictly below lam (LDL^T pivot signs).

    The matrix has diagonal `diag` and constant off-diagonal `off`; the
    pivots are q_0 = d_0 - lam, q_i = d_i - lam - off^2 / q_{i-1}.  The
    count equals that of the full sweep over every node, but the sweep stops
    once no later pivot can turn negative.  With b = |off|:

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
    that node; past it, the sweep breaks at the first pivot >= b.
    """
    e2 = off * off
    b = abs(off)
    if e2 >= sys.float_info.min:
        tail = bisect.bisect_left(suffix_min, 2.0 * b * (1.0 + STURM_TAIL_MARGIN), key=lambda d: d - lam)
    else:
        tail = len(diag)
    count = 0
    q = diag[0] - lam
    if q < 0.0:
        count += 1
    for d in itertools.islice(diag, 1, tail):
        if q == 0.0:
            q = 1e-300
        q = d - lam - e2 / q
        if q < 0.0:
            count += 1
    for d in itertools.islice(diag, max(tail, 1), None):
        if q >= b:
            break
        if q == 0.0:
            q = 1e-300
        q = d - lam - e2 / q
        if q < 0.0:
            count += 1
    return count


def _bisect_eigenvalue(count_below, k: int, lo: float, hi: float) -> float:
    """Eigenvalue k (from 0) by bisection of [lo, hi] on `count_below(lam)`."""
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if count_below(mid) > k:
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
    Gershgorin bounds, sorted ascending.  Each Sturm count stops past the
    classical turning point, where no later pivot can turn negative (see
    `_sturm_count`), and counts are shared between the eigenvalues through
    a per-call memo keyed on the exact float lam; both leave every
    eigenvalue bit-for-bit equal to the full-sweep bisection.

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
    counts: dict[float, int] = {}

    def count_below(lam: float) -> int:
        c = counts.get(lam)
        if c is None:
            c = counts[lam] = _sturm_count(diag, suffix_min, off, lam)
        return c

    return [_bisect_eigenvalue(count_below, k, lo, hi) for k in range(count)]


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
    for xp, dq, c in numop.terms:
        out += c * product(xp, dq)
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


@lru_cache(maxsize=1)
def _tower_sampler(sector: SectorLabels, grid: RadialGrid) -> TowerSampler:
    return TowerSampler(sector, grid.nodes)


class _Level:
    """Level n of a tower on one grid: its state, read-only chi on the nodes and its images.

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
        norm2 = self.f.inner(self.f)
        if norm2 < sys.float_info.min:
            what = "zero norm" if norm2 == 0.0 else f"a subnormal squared norm {norm2:.3g}"
            raise GridUnderflow(f"chi at n={n} has {what} on the grid with rmax={grid.rmax!r} "
                                f"and {grid.npoints} points")

    def _sampler(self):
        return _tower_sampler(self.state.sector, self.grid)

    @cached_property
    def images(self) -> Mapping[str, np.ndarray]:
        """Read-only image of chi under each `generator_table()` operator at this level's (J, K).

        All nine are built at once: (J, K) is substituted once per name, each
        derivative order sampled once and each product x^p chi^(q) formed
        once; the samples and products are dropped once the images exist.
        """
        J, K = self.state.sector.bigJ, self.state.level.K
        sampler = self._sampler()
        product = cache(_term_products(self.f, lambda order: sampler.chi_dn(self.state, order)))
        images = {}
        for name, op in generator_table().items():
            image = images[name] = _sum_terms(substitute(op, J, K), product)
            image.flags.writeable = False
        return MappingProxyType(images)

    def apply(self, name: str) -> GridFunction:
        """The image of chi under `generator_table()[name]` at this level's (J, K)."""
        return GridFunction(self.grid, self.images[name])


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
    inputs = _sector_inputs(sector, grid, n)
    if sign == -1 and bottom:
        residual = y.norm() / level.f.norm()
        return _report("ladder_annihilation", inputs, residual, tol, t0)
    t = _level(sector, n + sign, grid).f
    overlap = y.inner(t)
    sim = abs(overlap) / (y.norm() * t.norm())
    residual = max(0.0, 1.0 - sim)
    name = "ladder_raise" if sign == 1 else "ladder_lower"
    details = {"proportionality_ratio": overlap / t.inner(t)}
    return _report(name, inputs, residual, tol, t0, details)


def t3_eigen_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """||T3 chi - K chi||/||chi|| plus the shifted eigenvalues of T3 on T_pm chi."""
    t0 = time.perf_counter()
    n = _as_halfint(n)
    level = _level(sector, n, grid)
    f = level.f
    K = level.state.level.K
    y = level.apply("T3")
    residual = GridFunction(grid, y.values - K * f.values).norm() / f.norm()
    details = {"measured_eigenvalue": y.inner(f) / f.inner(f)}
    bottom = n - sector.j == 1
    for sign, tag, tpm in ((1, "raised", "T+"), (-1, "lowered", "T-")):
        if sign == -1 and bottom:
            continue
        z = level.apply(tpm)
        w = level.apply("T3 " + tpm)
        r_shift = GridFunction(grid, w.values - (K + sign) * z.values).norm() / z.norm()
        details[f"{tag}_eigenvalue"] = w.inner(z) / z.inner(z)
        residual = max(residual, r_shift)
    return _report("t3_eigen", _sector_inputs(sector, grid, n), residual, tol, t0, details)


def t3_spacing_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Measured T3 eigenvalue difference between levels n+1 and n, against 1."""
    t0 = time.perf_counter()
    n = _as_halfint(n)
    measured = []
    for level_n in (n, n + 1):
        level = _level(sector, level_n, grid)
        y = level.apply("T3")
        measured.append(y.inner(level.f) / level.f.inner(level.f))
    spacing = measured[1] - measured[0]
    return _report(
        "t3_spacing",
        _sector_inputs(sector, grid, n),
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
    fnorm = level.f.norm()
    target = sector.sep_const * level.f.values
    t3f, t3sq, pm, mp = (level.apply(name).values for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
    res_direct = GridFunction(grid, -pm + t3sq - t3f - target).norm() / fnorm
    res_mirror = GridFunction(grid, -mp + t3sq + t3f - target).norm() / fnorm
    details = {"direct": float(res_direct), "mirror": float(res_mirror)}
    return _report(
        "casimir_action",
        _sector_inputs(sector, grid, n),
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
    return _report("radial_equation", _sector_inputs(sector, grid, n), residual, tol, t0)


def angular_residual_check(sector: SectorLabels, tol: float | None = None) -> VerificationReport:
    """Angular equation residual on `default_angular_mesh()`, whose size the inputs echo."""
    t0 = time.perf_counter()
    thetas, phis = default_angular_mesh()
    residual = angular_residual(angular_state(sector), thetas, phis)
    inputs = _sector_inputs(sector)
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
    pairs = [(lv.K, _sector_inputs(sector, grid, lv.n)) for lv in sector_levels(sector, levels)]
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
