"""Grid-based verification: the su(1,1) state checks on samples at the grid nodes.

The FD eigensolver oracle lives in `fd_oracle`, which needs no numpy; the
grid and report types used here are defined there.

The grid checks reuse work at two scopes:

- per process, `operator_algebra.generator_table()` holds the su(1,1)
  generators and their products, each composed once, and `_image_plan()`
  reads their float coefficients (`_float_terms()`) once into F: for each
  of the 6 monomials J^a K^b in them (1, K, J, J^2, J^3, J^4), a 9 x 15
  matrix over the 9 operators and the 15 distinct products x^p chi^(q)
  behind their 69 terms.  Both are built once and never change;
- per suite, one `analytic_states.TowerSampler` on `grid.nodes` serves
  every level the suite builds: 2x, e^(-x), w = (2x)^(J+1) e^(-x), the
  powers x^e it has handed out (e = -2 ... 2),
  the last two rows of the resumable Kummer sweep of each shift l <= 4,
  F_l = F(-(k-l), b+l; 2x), and the 15 x 15 product-rule matrix M(alpha):
  at most 18 arrays.  A walk up the tower runs each sweep once.  A
  `_Level` holds its sampler, the state, chi = w F_0 on the nodes and,
  from the first read of `images`, the images of chi under the nine
  `generator_table()` operators at its (J, K): 10 arrays.  The images are
  the rows of one 9 x npoints block, the sampler's `images` over the 15
  products and C(J, K) = sum F_ab J^a K^b (`_coefficients`),
  w (C M(alpha) S_k) @ B by the product rule that `TowerSampler.images`
  states; no derivative of chi is sampled.  The block is checked for
  non-finite entries as it is built, so a bad image raises ValueError from
  the build.  An image differs from the per-term sum over derivative
  samples, each coefficient evaluated at (J, K) on its own, by rounding
  only: at most gamma_n sum |c| |x^p chi^(q)| + gamma_N sum |c| |M S|
  |w x^e F_l| on each node, n being the operator's terms plus the 6
  monomials and N its expanded terms plus 15 + 6 (the bound `tests/`
  asserts).

`verify_states_suite` is the one entry into the level checks: it runs
their bodies (`_radial_equation`, `_t3_eigen`, `_casimir`, `_ladder` and
`_t3_spacing`) on one walk up the tower, holding the levels below, at and
above n: nlevels + 1 levels.  That is at most 18 + 3 x 10 = 48 arrays of
npoints x 8 B (1.5 MB at the default 4000 points), plus, while one level
builds its images, the rows of B, 15 arrays more.  Every array a `_Level`
hands out is read-only.

At its end a suite puts its top two levels, and through them its sampler,
in the module slot `_retained`, which nothing reads: 18 + 10 + 1 = 29
arrays kept until the next suite replaces them.  Freed at once, the heap
they held is trimmed and the next suite faults it back in (the `states`
benchmark ran 4% fewer items a second without the slot).

A grid function is a plain float array of its samples on `grid.nodes`.
Inner products h <a, b> are sums in one fixed order (`_dot`), not BLAS ddot,
which splits long sums over threads: a report does not depend on the BLAS
thread count.  Each check reduces its residual rows at once (`_row_dots`),
bit for bit `_dot` on each row, and a level takes its report labels and
h <T3 chi, chi> once.  A non-finite entry in chi, in the image block or in a
residual row whose norm a check takes raises ValueError; a suite runs under
`np.errstate(over="ignore", invalid="ignore")`, so an overflow in the
samples surfaces as that one ValueError and not as a RuntimeWarning.

Concurrent suites share no mutable state: each samples from a
`TowerSampler` of its own, and what is shared per process is built once
and never changed.  Suites may run in threads at once, each reporting what
it reports alone.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Mapping
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .analytic_states import (
    ANGULAR_THETAS, TowerSampler, angular_residual, angular_state, radial_state, radial_window,
)
from .fd_oracle import RadialGrid, VerificationReport, _integer, _report
# not used here: bench/workloads.py calls nv.spectrum_cross_check(..., nv.RadialGrid(...))
from .fd_oracle import spectrum_cross_check  # noqa: F401
from .operator_algebra import generator_table
from .quantum_numbers import GridUnderflow, HalfInt, MonopoleParams, SectorLabels, make_sector, sector_inputs

# `_radial_equation` takes its max-norm residual from this x to the end of the grid
RADIAL_EQUATION_START = 0.01


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_i b_i in one fixed order: `np.dot` is a BLAS ddot, which splits long sums over threads."""
    return float(np.einsum("i,i->", a, b))


def _finite(v: np.ndarray) -> np.ndarray:
    """v, or ValueError when v has a NaN or infinite entry."""
    if not np.isfinite(v).all():
        raise ValueError("grid function contains non-finite entries")
    return v


def _row_dots(rows: np.ndarray) -> list[float]:
    """<r, r> of each row r of a C-contiguous 2-D array, one reduction that sums each row as `_dot` does."""
    return np.einsum("ij,ij->i", rows, rows).tolist()


def _root(grid: RadialGrid, dot: float, v: np.ndarray) -> float:
    """sqrt(h dot) for dot = <v, v>, inf when finite squares overflow; ValueError if v has a non-finite entry.

    Such an entry always makes the sum non-finite, so v is scanned only then.
    """
    norm2 = grid.h * dot
    if not math.isfinite(norm2):
        _finite(v)
    return math.sqrt(norm2)


def _norm(grid: RadialGrid, v: np.ndarray) -> float:
    """sqrt(h <v, v>), by `_root`'s rules."""
    return _root(grid, _dot(v, v), v)


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


def _coefficients(J: float, K: float) -> np.ndarray:
    """C(J, K) = sum_m F[m] J^a K^b: row i holds operator i's coefficient on each product of `_image_plan`."""
    names, products, monomials, F = _image_plan()
    weights = np.array([J**jp * K**kp for jp, kp in monomials])
    return (weights @ F).reshape(len(names), len(products))


class _Level:
    """Level n of a tower on one grid: its state, read-only chi on the nodes and its images.

    The level samples from `sampler`, its tower's `TowerSampler` on
    `grid.nodes`, which it keeps.  `chi` and each image are read-only arrays
    on `grid.nodes`; `norm2` is h <chi, chi>, `inputs` the labels each
    report copies.  ValueError if chi is not finite.

    Raises GridUnderflow when the squared norm of chi on the grid is zero or
    subnormal: below `sys.float_info.min` the norm has lost precision to
    gradual underflow, and so have the overlaps the checks divide by it.
    """

    def __init__(self, sampler: TowerSampler, n: HalfInt, grid: RadialGrid):
        self.sampler = sampler
        self.state = radial_state(sampler.sector, n)
        self.grid = grid
        self.chi = chi = _finite(sampler.chi(self.state))
        chi.flags.writeable = False
        self.norm2 = norm2 = grid.h * _dot(chi, chi)
        if norm2 < sys.float_info.min:
            what = "zero norm" if norm2 == 0.0 else f"a subnormal squared norm {norm2:.3g}"
            raise GridUnderflow(f"chi at n={n} has {what} on the grid with rmax={grid.rmax!r} "
                                f"and {grid.npoints} points")
        self.inputs = sector_inputs(sampler.sector, grid, self.state.level.n)

    @cached_property
    def images(self) -> Mapping[str, np.ndarray]:
        """Read-only image of chi under each `generator_table()` operator at this level's (J, K).

        All nine are rows of one `TowerSampler.images` block over C(J, K)
        (see the module docstring).  ValueError if one is not finite.
        """
        names, products, _, _ = _image_plan()
        C = _coefficients(self.state.sector.bigJ, self.state.level.K)
        block = _finite(self.sampler.images(self.state, products, C))
        block.flags.writeable = False
        return MappingProxyType(dict(zip(names, block)))

    @cached_property
    def t3_eigenvalue(self) -> float:
        """The measured T3 eigenvalue h <T3 chi, chi> / norm2."""
        return self.grid.h * _dot(self.images["T3"], self.chi) / self.norm2


# the last suite's top two levels and sampler: freed at once, the heap is trimmed and the next suite faults it back in
_retained: tuple[_Level, ...] = ()


def _ladder(level: _Level, target: _Level | None, sign: int, tol: float | None) -> VerificationReport:
    """T_pm chi_n against the exact multiple c chi_(n+-1) of `target`; annihilation at the bottom, target None.

    With k = n - j - 1, T+ chi_k = -(k + 2J + 2) chi_(k+1) and T- chi_k =
    -k chi_(k-1) for the unnormalized chi of `analytic_states`.  The
    residual ||y - c t||/||y||, with y = T_pm chi_n and t = chi_(n+-1), is
    linear in an error of y.  `details` gives the expected c and the fitted
    <y, t>/<t, t> (`proportionality_ratio`).
    """
    t0 = time.perf_counter()
    sector, grid = level.state.sector, level.grid
    y = level.images["T+" if sign == 1 else "T-"]
    k = level.state.kummer.k
    if sign == -1 and k == 0:
        residual = _norm(grid, y) / math.sqrt(level.norm2)
        return _report("ladder_annihilation", dict(level.inputs), residual, tol, t0)
    expected = -(k + 2.0 * sector.bigJ + 2.0) if sign == 1 else -float(k)
    # scaled by max|y|, as ||y|| itself can pass the float range at large J
    scale = np.abs(y).max()
    diff, scaled = rows = np.empty((2, y.size))
    np.subtract(y, np.multiply(expected, target.chi, out=diff), out=diff)
    diff /= scale
    np.divide(y, scale, out=scaled)
    diff2, scaled2 = _row_dots(rows)
    residual = math.sqrt(diff2) / math.sqrt(scaled2)
    name = "ladder_raise" if sign == 1 else "ladder_lower"
    details = {"expected_ratio": expected, "proportionality_ratio": grid.h * _dot(y, target.chi) / target.norm2}
    return _report(name, dict(level.inputs), residual, tol, t0, details)


def _t3_eigen(level: _Level, tol: float | None) -> VerificationReport:
    """||T3 chi - K chi||/||chi|| plus the shifted eigenvalues of T3 on T_pm chi."""
    t0 = time.perf_counter()
    grid, chi, images = level.grid, level.chi, level.images
    K = level.state.level.K
    shifts = ((1, "raised", "T+"), (-1, "lowered", "T-"))[:1 if level.state.kummer.k == 0 else 2]
    # row 0 is T3 chi - K chi, then one row T3 T_pm chi - (K +- 1) T_pm chi per shift
    rows = np.empty((1 + len(shifts), chi.size))
    np.subtract(images["T3"], np.multiply(K, chi, out=rows[0]), out=rows[0])
    for row, (sign, _, tpm) in zip(rows[1:], shifts):
        np.subtract(images["T3 " + tpm], np.multiply(K + sign, images[tpm], out=row), out=row)
    norms = [_root(grid, dot, row) for row, dot in zip(rows, _row_dots(rows))]
    residual = norms[0] / math.sqrt(level.norm2)
    details = {"measured_eigenvalue": level.t3_eigenvalue}
    for norm, (_, tag, tpm) in zip(norms[1:], shifts):
        z = images[tpm]
        zz = _dot(z, z)
        residual = max(residual, norm / _root(grid, zz, z))
        details[f"{tag}_eigenvalue"] = grid.h * _dot(images["T3 " + tpm], z) / (grid.h * zz)
    return _report("t3_eigen", dict(level.inputs), residual, tol, t0, details)


def _t3_spacing(level: _Level, above: _Level, tol: float | None) -> VerificationReport:
    """Measured T3 eigenvalue difference between `above`, level n+1, and `level`, against 1."""
    t0 = time.perf_counter()
    spacing = above.t3_eigenvalue - level.t3_eigenvalue
    return _report("t3_spacing", dict(level.inputs), abs(spacing - 1.0), tol, t0, {"spacing": spacing})


def _casimir(level: _Level, tol: float | None) -> VerificationReport:
    """Casimir action assembled from uncancelled pieces; target J(J+1) chi.

    -T+T- + T3^2 - T3 and the mirror -T-T+ + T3^2 + T3 are each applied as
    three separate composed operators so the cancellation down to the
    constant happens numerically on the grid.
    """
    t0 = time.perf_counter()
    fnorm = math.sqrt(level.norm2)
    target = level.state.sector.sep_const * level.chi
    t3f, t3sq, pm, mp = (level.images[name] for name in ("T3", "T3 T3", "T+ T-", "T- T+"))
    # row 0 is -pm + t3sq - t3f - target, row 1 the mirror -mp + t3sq + t3f - target
    rows = np.empty((2, target.size))
    for row, lead, t3_term in zip(rows, (pm, mp), (np.subtract, np.add)):
        np.negative(lead, out=row)
        row += t3sq
        t3_term(row, t3f, out=row)
        row -= target
    res_direct, res_mirror = (_root(level.grid, dot, row) / fnorm for row, dot in zip(rows, _row_dots(rows)))
    details = {"direct": res_direct, "mirror": res_mirror}
    return _report("casimir_action", dict(level.inputs), max(res_direct, res_mirror), tol, t0, details)


def _radial_equation_start(grid: RadialGrid) -> int:
    """The first node at or past RADIAL_EQUATION_START, or 0 when the grid ends before it."""
    start = int(np.searchsorted(grid.nodes, RADIAL_EQUATION_START))
    return 0 if start == grid.npoints else start


def _radial_equation(level: _Level, tol: float | None) -> VerificationReport:
    """Max-norm residual of (-x^2 D^2 - 2Kx + x^2) chi = -J(J+1) chi from x = RADIAL_EQUATION_START to rmax."""
    t0 = time.perf_counter()
    start = _radial_equation_start(level.grid)
    chi = level.chi[start:]
    resid = level.images["Ln"][start:] + level.state.sector.sep_const * chi
    residual = float(np.abs(resid).max() / np.abs(chi).max())
    return _report("radial_equation", dict(level.inputs), residual, tol, t0)


def angular_residual_check(sector: SectorLabels, tol: float | None = None) -> VerificationReport:
    """Angular equation residual on `ANGULAR_THETAS`, whose size the inputs echo as `ntheta`."""
    t0 = time.perf_counter()
    residual = angular_residual(angular_state(sector))
    inputs = sector_inputs(sector)
    inputs["ntheta"] = len(ANGULAR_THETAS)
    return _report("angular_residual", inputs, residual, tol, t0)


def states_grid(sector: SectorLabels, nlevels: int, rmax: float | None, npoints: int | None) -> RadialGrid:
    """The suite's grid: rmax `radial_window` at the top level's K = J + nlevels and 4000 points, each unless given."""
    if rmax is None:
        rmax = radial_window(sector.bigJ + nlevels)
    return RadialGrid(rmax=rmax, npoints=4000 if npoints is None else npoints)


def verify_states_suite(params: MonopoleParams, m: HalfInt, j: HalfInt, nlevels: int,
                        grid: RadialGrid | None = None, tol: float | None = None) -> list[VerificationReport]:
    """The full per-sector state-level suite used by the CLI.

    Runs the angular residual, then per level the radial-equation residual,
    the T3 eigenvalue (with shifted eigenvalues), the Casimir action, the
    raising similarity, the in-tower lowering similarity and the bottom
    annihilation, plus the T3 spacing between consecutive levels.
    """
    nlevels = _integer("nlevels", nlevels)
    if nlevels < 1:
        raise ValueError(f"nlevels must be >= 1, got {nlevels}")
    sector = make_sector(params, m, j)
    if grid is None:
        grid = states_grid(sector, nlevels, None, None)
    # an overflow in the samples is refused where chi or an image is built, by one ValueError and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [angular_residual_check(sector, tol=tol)]
        sampler = TowerSampler(sector, grid.nodes)
        below, level = None, _Level(sampler, sector.j + 1, grid)
        for i in range(nlevels):
            reports += [_radial_equation(level, tol), _t3_eigen(level, tol), _casimir(level, tol)]
            above = _Level(sampler, level.state.level.n + 1, grid)
            reports.append(_ladder(level, above, +1, tol))
            # at i == 0 the lowering check is the bottom annihilation
            reports.append(_ladder(level, below, -1, tol))
            if i + 1 < nlevels:
                reports.append(_t3_spacing(level, above, tol))
            below, level = level, above
    global _retained
    _retained = below, level
    return reports
