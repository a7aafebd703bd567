"""Grid-based verification: operator action on grid functions and the su(1,1) state checks.

The FD eigensolver oracle lives in `fd_oracle`, which needs no numpy; its
grid, report and oracle names are imported here, each defined once there.

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
  the 69 terms is formed once, and each image sums c x^p chi^(q) over its
  operator's terms in canonical order (`_sum_terms`).  Each image is checked
  for non-finite entries once, as it is built, so a bad image raises
  ValueError from the build; `apply(name)` hands out the checked
  `GridFunction` as it is.

Together that is at most 63 arrays of npoints x 8 B (2.0 MB at the default
4000 points), plus, while one level builds its images, 4 derivative samples,
12 products with p != 0 and 2 scratch arrays.  Every cached array is read-only.

The caches are not thread-safe.  The cached sampler's sweeps advance in
place, so two threads that sample one (sector, grid) at once can mix their
rows and get wrong values with no error.  Run concurrent suites in separate
processes.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .analytic_states import TowerSampler, angular_residual, angular_state, default_angular_mesh, radial_state
# the oracle's names, defined once in fd_oracle and re-exported here
from .fd_oracle import (  # noqa: F401
    DEFAULT_TOLERANCES, MIN_NODES_PER_WAVELENGTH, STURM_TAIL_MARGIN, GridTooCoarse, RadialGrid, VerificationReport,
    _bisect_eigenvalue, _PivotSweep, _report, _suffix_min, eig_oracle, oracle_reports, spectrum_cross_check,
)
from .operator_algebra import NumericOperator, generator_table, substitute
from .quantum_numbers import (  # noqa: F401  (ConvergenceFailure re-exported)
    ConvergenceFailure, GridUnderflow, HalfInt, MonopoleParams, SectorLabels, make_sector, sector_inputs,
)

SAMPLE_CACHE_LEVELS = 4
# x^xp per (grid, xp): the generators use xp in {-2, -1, 1, 2}
NODE_POWER_CACHE = 6
# the x range on which `radial_equation_check` takes its max-norm residual
RADIAL_EQUATION_WINDOW = (0.01, 40.0)


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


# ---------------------------------------------------------------------------
# Operator application on grid functions
# ---------------------------------------------------------------------------

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
        samples = [self.f.values, *self._sampler().derivatives(self.state, _top_order())]

        @cache
        def product(xp: int, dq: int) -> np.ndarray:
            """x^xp chi^(dq) on the nodes."""
            return samples[dq] if xp == 0 else samples[dq] * _node_power(self.grid, xp)

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
    return _report("t3_spacing", sector_inputs(sector, grid, n), abs(spacing - 1.0), tol, t0, {"spacing": spacing})


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
    return _report("casimir_action", sector_inputs(sector, grid, n), max(res_direct, res_mirror), tol, t0, details)


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


def verify_states_suite(params: MonopoleParams, m: HalfInt, j: HalfInt, nlevels: int = 5,
                        grid: RadialGrid | None = None, tol: float | None = None) -> list[VerificationReport]:
    """The full per-sector state-level suite used by the CLI.

    Runs the angular residual, then per level the radial-equation residual,
    the T3 eigenvalue (with shifted eigenvalues), the Casimir action, the
    raising similarity, the in-tower lowering similarity and the bottom
    annihilation, plus the T3 spacing between consecutive levels.
    """
    if nlevels < 1:
        raise ValueError(f"nlevels must be >= 1, got {nlevels}")
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
