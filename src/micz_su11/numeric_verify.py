"""Grid-based verification: the su(1,1) state checks on samples at the grid nodes.

The FD eigensolver oracle lives in `fd_oracle`, which needs no numpy; its
grid, report and oracle names are imported here, each defined once there.

The grid checks reuse work in process-wide caches:

- `operator_algebra.generator_table()` composes the su(1,1) generators and
  their products once per process, and `_image_plan()` reads their float
  coefficients (`_float_terms()`) once into F: for each of the 6 monomials
  J^a K^b in them (1, K, J, J^2, J^3, J^4), a 9 x 15 matrix over the 9
  operators and the 15 distinct products x^p chi^(q) behind their 69 terms;
- `_tower_sampler(sector, grid)` keeps one `analytic_states.TowerSampler`
  for the last (sector, grid): 2x, e^(-x), w = (2x)^(J+1) e^(-x), the
  powers x^e it has handed out (e in {-2, -1, 1, 2}) and the last two rows
  of the resumable Kummer sweep of each shift l <= 4, F_l = F(-(k-l), b+l;
  2x), at most 17 arrays.  A walk up the tower runs each sweep once;
  `_product_rule_matrix(alpha)` keeps M(alpha) for the last tower (below);
- `_level(sector, n, grid)` is an LRU of SAMPLE_CACHE_LEVELS = 4 `_Level`s,
  enough for the n-1, n, n+1 window of `verify_states_suite`.  A `_Level`
  holds the state, chi = w F_0 on the nodes and, from the first read of
  `images`, the images of chi under the nine `generator_table()` operators
  at its (J, K): 10 arrays, the images as the rows of one 9 x npoints
  block.  No derivative of chi is sampled.  By the product rule
  (`analytic_states.product_rule`), x^p chi^(q) = w sum c x^(p-i) P^(l)
  with P^(l) = 2^l (-k)_l/(b)_l F_l, and for every product x^p chi^(q)
  behind the generators' terms the rows x^e F_l it expands into have keys
  (e, l) among the same 15 keys.  So the images are one matrix product
  w (C(J, K) M(alpha) S_k) @ B: B stacks the rows x^e F_l with l <= k (at
  most 15 x npoints, each one multiply of a cached power by a Kummer row),
  M(alpha) (15 x 15) holds the product-rule coefficients, which depend only
  on alpha = J+1, S_k = diag(2^l (-k)_l/(b)_l) is zero past l = k, and
  C(J, K) = sum F_ab J^a K^b (`_coefficients`).  Terms that cancel in
  closed form cancel in the coefficients, so some residuals read exactly 0
  (at k = 0 the rows are plain powers of x).  The block is checked for
  non-finite entries once, as it is built, so a bad image raises ValueError
  from the build.  An image differs from the per-term sum over derivative
  samples, each coefficient evaluated at (J, K) on its own, by rounding
  only: at most gamma_n sum |c| |x^p chi^(q)| + gamma_N sum |c| |M S|
  |w x^e F_l| on each node, n being the operator's terms plus the 6
  monomials and N its expanded terms plus 15 + 6 (the bound `tests/`
  asserts).

Together that is at most 17 + 4 x 10 = 57 arrays of npoints x 8 B (1.8 MB at
the default 4000 points), plus, while one level builds its images, the rows
of B, 15 arrays more.  Every array a `_Level` hands out is read-only.

A grid function is a plain float array of its samples on `grid.nodes`.
Inner products h <a, b> and norms (`_norm`) are sums in one fixed order
(`_dot`), not BLAS ddot, which splits long sums over threads: a report does
not depend on the BLAS thread count.  A non-finite entry in chi, in the
image block or in a vector a check takes the norm of raises ValueError.

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
from functools import cache, cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .analytic_states import (
    ANGULAR_THETAS, TowerSampler, angular_residual, angular_state, product_rule, radial_state,
)
# the oracle's public names, defined once in fd_oracle and re-exported here
from .fd_oracle import (  # noqa: F401
    DEFAULT_TOLERANCES, GridTooCoarse, RadialGrid, VerificationReport, _report, eig_oracle, oracle_reports,
    spectrum_cross_check,
)
from .operator_algebra import generator_table
from .quantum_numbers import (  # noqa: F401  (ConvergenceFailure re-exported)
    ConvergenceFailure, GridUnderflow, HalfInt, MonopoleParams, SectorLabels, make_sector, sector_inputs,
)
from .special_functions import _kummer_deriv_scale

SAMPLE_CACHE_LEVELS = 4
# `radial_equation_check` takes its max-norm residual from this x to the end of the grid
RADIAL_EQUATION_START = 0.01


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_i b_i in one fixed order: `np.dot` is a BLAS ddot, which splits long sums over threads."""
    return float(np.einsum("i,i->", a, b))


def _finite(v: np.ndarray) -> np.ndarray:
    """v, or ValueError when v has a NaN or infinite entry."""
    if not np.isfinite(v).all():
        raise ValueError("grid function contains non-finite entries")
    return v


def _norm(grid: RadialGrid, v: np.ndarray) -> float:
    """sqrt(h <v, v>), inf when finite squares overflow; ValueError if v has a non-finite entry.

    Such an entry always makes the sum non-finite, so v is scanned only then.
    """
    norm2 = grid.h * _dot(v, v)
    if not math.isfinite(norm2):
        _finite(v)
    return math.sqrt(norm2)


# ---------------------------------------------------------------------------
# Verification pipelines
# ---------------------------------------------------------------------------

@cache
def _image_plan() -> tuple[tuple[str, ...], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], np.ndarray]:
    """How a level forms its images: (names, products, monomials, F), built once per process.

    `names` are the `generator_table()` keys; `products` the distinct (p, q)
    of the products x^p chi^(q) behind their terms, ordered by (-q, p) as
    `canonical_terms` orders terms; `monomials` the distinct (a, b) of the
    J^a K^b in their coefficients.  F[m] is the (operators, products) matrix
    of the float coefficients of monomial m, read from each operator's
    `_float_terms()`, flattened to one row per monomial for `_coefficients`.
    """
    table = generator_table()
    terms = [op._float_terms() for op in table.values()]
    products = sorted({(xp, dq) for op_terms in terms for xp, dq, _ in op_terms}, key=lambda key: (-key[1], key[0]))
    monomials = sorted({(jp, kp) for op_terms in terms for _, _, coeffs in op_terms for _, jp, kp in coeffs})
    column = {key: i for i, key in enumerate(products)}
    row = {key: i for i, key in enumerate(monomials)}
    F = np.zeros((len(monomials), len(table), len(products)))
    for i, op_terms in enumerate(terms):
        for xp, dq, coeffs in op_terms:
            for c, jp, kp in coeffs:
                F[row[jp, kp], i, column[xp, dq]] = c
    F = F.reshape(len(monomials), -1)
    F.flags.writeable = False
    return tuple(table), tuple(products), tuple(monomials), F


@lru_cache(maxsize=1)
def _product_rule_matrix(alpha: float) -> np.ndarray:
    """M(alpha): row (p, q) holds x^p chi^(q) on the rows x^e F_l of the tower's sampler.

    The rows and the columns both follow `_image_plan`'s products, read as
    (p, q) and as (e, l): by `product_rule`, x^p chi^(q) = w sum c x^(p-i)
    P^(l), and P^(l) = 2^l (-k)_l/(b)_l F_l.  M holds the c, which depend
    only on alpha = J+1; the level's S_k = diag(2^l (-k)_l/(b)_l) stays out.
    """
    _, products, _, _ = _image_plan()
    column = {key: i for i, key in enumerate(products)}
    M = np.zeros((len(products), len(products)))
    for row, (xp, dq) in zip(M, products):
        for i, l, c in product_rule(dq, alpha):
            row[column[xp - i, l]] = c
    M.flags.writeable = False
    return M


def _coefficients(J: float, K: float) -> np.ndarray:
    """C(J, K) = sum_m F[m] J^a K^b: row i holds operator i's coefficient on each product of `_image_plan`."""
    names, products, monomials, F = _image_plan()
    weights = np.array([J**jp * K**kp for jp, kp in monomials])
    return (weights @ F).reshape(len(names), len(products))


@lru_cache(maxsize=1)
def _tower_sampler(sector: SectorLabels, grid: RadialGrid) -> TowerSampler:
    return TowerSampler(sector, grid.nodes)


class _Level:
    """Level n of a tower on one grid: its state, read-only chi on the nodes and its images.

    `chi` and each image are read-only arrays on `grid.nodes`; `norm2` is the
    squared grid norm h <chi, chi> of chi, which the checks read.  ValueError
    if chi is not finite.

    Raises GridUnderflow when the squared norm of chi on the grid is zero or
    subnormal: below `sys.float_info.min` the norm has lost precision to
    gradual underflow, and so have the overlaps the checks divide by it.
    """

    def __init__(self, sector: SectorLabels, n: HalfInt, grid: RadialGrid):
        self.state = radial_state(sector, n)
        self.grid = grid
        self.chi = chi = _finite(self._sampler().chi(self.state))
        chi.flags.writeable = False
        self.norm2 = norm2 = grid.h * _dot(chi, chi)
        if norm2 < sys.float_info.min:
            what = "zero norm" if norm2 == 0.0 else f"a subnormal squared norm {norm2:.3g}"
            raise GridUnderflow(f"chi at n={n} has {what} on the grid with rmax={grid.rmax!r} "
                                f"and {grid.npoints} points")

    def _sampler(self):
        return _tower_sampler(self.state.sector, self.grid)

    @cached_property
    def images(self) -> Mapping[str, np.ndarray]:
        """Read-only image of chi under each `generator_table()` operator at this level's (J, K).

        All nine are rows of one product w (C(J, K) M(alpha) S_k) @ B (see the module
        docstring).  ValueError if one is not finite.
        """
        names, products, _, _ = _image_plan()
        sampler = self._sampler()
        p = self.state.kummer
        # S_k is zero past l = k, so B leaves out the rows x^e F_l with l > k
        basis = [i for i, (_, l) in enumerate(products) if l <= p.k]
        shifts = range(max(products[i][1] for i in basis) + 1)
        kummer = [sampler.row(p, l) for l in shifts]
        diag = [2.0**l * _kummer_deriv_scale(p, l) for l in shifts]
        B = np.empty((len(basis), self.grid.npoints))
        for row, i in zip(B, basis):
            xe, l = products[i]
            if xe == 0:
                row[:] = kummer[l]
            else:
                np.multiply(sampler.power(float(xe)), kummer[l], out=row)
        CM = _coefficients(self.state.sector.bigJ, self.state.level.K) @ _product_rule_matrix(sampler.alpha)
        images = (CM[:, basis] * [diag[products[i][1]] for i in basis]) @ B
        images *= sampler.w
        images.flags.writeable = False
        return MappingProxyType(dict(zip(names, _finite(images))))


# _level(sector, n, grid): the `_Level`, from an LRU cache of SAMPLE_CACHE_LEVELS entries
_level = lru_cache(maxsize=SAMPLE_CACHE_LEVELS)(_Level)


def ladder_check(sector: SectorLabels, n, sign: int, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """T_pm chi_n against the exact multiple c chi_(n+-1); annihilation at the bottom.

    With k = n - j - 1, T+ chi_k = -(k + 2J + 2) chi_(k+1) and T- chi_k =
    -k chi_(k-1) for the unnormalized chi of `analytic_states`.  The
    residual ||y - c t||/||y||, with y = T_pm chi_n and t = chi_(n+-1), is
    linear in an error of y.  `details` gives the expected c and the fitted
    <y, t>/<t, t> (`proportionality_ratio`).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t0 = time.perf_counter()
    level = _level(sector, n, grid)
    y = level.images["T+" if sign == 1 else "T-"]
    k = level.state.kummer.k
    inputs = sector_inputs(sector, grid, n)
    if sign == -1 and k == 0:
        residual = _norm(grid, y) / math.sqrt(level.norm2)
        return _report("ladder_annihilation", inputs, residual, tol, t0)
    target = _level(sector, n + sign, grid)
    expected = -(k + 2.0 * sector.bigJ + 2.0) if sign == 1 else -float(k)
    # scaled by max|y|, as ||y|| itself can pass the float range at large J
    scale = np.max(np.abs(y))
    diff = (y - expected * target.chi) / scale
    scaled = y / scale
    residual = math.sqrt(_dot(diff, diff)) / math.sqrt(_dot(scaled, scaled))
    name = "ladder_raise" if sign == 1 else "ladder_lower"
    details = {"expected_ratio": expected, "proportionality_ratio": grid.h * _dot(y, target.chi) / target.norm2}
    return _report(name, inputs, residual, tol, t0, details)


def t3_eigen_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """||T3 chi - K chi||/||chi|| plus the shifted eigenvalues of T3 on T_pm chi."""
    t0 = time.perf_counter()
    level = _level(sector, n, grid)
    chi = level.chi
    K = level.state.level.K
    y = level.images["T3"]
    residual = _norm(grid, y - K * chi) / math.sqrt(level.norm2)
    details = {"measured_eigenvalue": grid.h * _dot(y, chi) / level.norm2}
    bottom = n - sector.j == 1
    for sign, tag, tpm in ((1, "raised", "T+"), (-1, "lowered", "T-")):
        if sign == -1 and bottom:
            continue
        z = level.images[tpm]
        w = level.images["T3 " + tpm]
        r_shift = _norm(grid, w - (K + sign) * z) / _norm(grid, z)
        details[f"{tag}_eigenvalue"] = grid.h * _dot(w, z) / (grid.h * _dot(z, z))
        residual = max(residual, r_shift)
    return _report("t3_eigen", sector_inputs(sector, grid, n), residual, tol, t0, details)


def t3_spacing_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Measured T3 eigenvalue difference between levels n+1 and n, against 1."""
    t0 = time.perf_counter()
    measured = []
    for level_n in (n, n + 1):
        level = _level(sector, level_n, grid)
        measured.append(grid.h * _dot(level.images["T3"], level.chi) / level.norm2)
    spacing = measured[1] - measured[0]
    return _report("t3_spacing", sector_inputs(sector, grid, n), abs(spacing - 1.0), tol, t0, {"spacing": spacing})


def casimir_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Casimir action assembled from uncancelled pieces; target J(J+1) chi.

    -T+T- + T3^2 - T3 and the mirror -T-T+ + T3^2 + T3 are each applied as
    three separate composed operators so the cancellation down to the
    constant happens numerically on the grid.
    """
    t0 = time.perf_counter()
    level = _level(sector, n, grid)
    fnorm = math.sqrt(level.norm2)
    target = sector.sep_const * level.chi
    t3f, t3sq, pm, mp = (level.images[name] for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
    res_direct = _norm(grid, -pm + t3sq - t3f - target) / fnorm
    res_mirror = _norm(grid, -mp + t3sq + t3f - target) / fnorm
    details = {"direct": res_direct, "mirror": res_mirror}
    return _report("casimir_action", sector_inputs(sector, grid, n), max(res_direct, res_mirror), tol, t0, details)


@lru_cache(maxsize=1)
def _radial_equation_start(grid: RadialGrid) -> int:
    """The first node at or past RADIAL_EQUATION_START, or 0 when the grid ends before it."""
    start = int(np.searchsorted(grid.nodes, RADIAL_EQUATION_START))
    return 0 if start == grid.npoints else start


def radial_equation_check(sector: SectorLabels, n, grid: RadialGrid, tol: float | None = None) -> VerificationReport:
    """Max-norm residual of (-x^2 D^2 - 2Kx + x^2) chi = -J(J+1) chi from x = RADIAL_EQUATION_START to rmax."""
    t0 = time.perf_counter()
    level = _level(sector, n, grid)
    start = _radial_equation_start(grid)
    chi = level.chi[start:]
    resid = level.images["Ln"][start:] + sector.sep_const * chi
    residual = float(np.max(np.abs(resid)) / np.max(np.abs(chi)))
    return _report("radial_equation", sector_inputs(sector, grid, n), residual, tol, t0)


def angular_residual_check(sector: SectorLabels, tol: float | None = None) -> VerificationReport:
    """Angular equation residual on `ANGULAR_THETAS`, whose size the inputs echo as `ntheta`."""
    t0 = time.perf_counter()
    residual = angular_residual(angular_state(sector))
    inputs = sector_inputs(sector)
    inputs["ntheta"] = len(ANGULAR_THETAS)
    return _report("angular_residual", inputs, residual, tol, t0)


def states_grid(sector: SectorLabels, nlevels: int, rmax: float | None, npoints: int | None) -> RadialGrid:
    """The suite's grid: rmax 10 + 4(J + nlevels) and 4000 points, each unless given."""
    if rmax is None:
        rmax = 10.0 + 4.0 * (sector.bigJ + nlevels)
    return RadialGrid(rmax=rmax, npoints=4000 if npoints is None else npoints)


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
        grid = states_grid(sector, nlevels, None, None)
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
