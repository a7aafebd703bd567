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
the sweep never visits the forbidden tail (see `_sturm_count`).

Most midpoints need no sweep.  In IEEE arithmetic the computed count is
nondecreasing in lam (Kahan 1966; Demmel, Dhillon and Ren, ETNA 3, 1995), so
once sweeps certify count(a) <= k < count(b), a midpoint <= a answers "no"
and one >= b "yes", as its own sweep would.  `eig_oracle` keeps that bracket
per eigenvalue from every sweep of the call and sweeps only inside it: its
`sweep` is the one place that tests a point against the bracket and narrows
it.

Each eigenvalue gets one `_locate` guess theta.  Its secant starts next to
`_predict`'s extrapolation of the call's lower eigenvalues, so no coarse
sweep runs; for the first eigenvalue, and after a prediction fails to
certify (box states), once sweeps narrow a bound state's bracket.  The
secant's backward pivots start LOCATE_EFOLDS e-folds into the forbidden
tail, on the decaying solution's own pivot, and it stops once its error,
superlinear in the last two steps, is below the floor.  One loop then
sweeps at the two ends of each window in turn until a window is certified:
first the final cell that the walk reaches when theta decides each
midpoint, which once certified leaves every midpoint of the walk decided
without a sweep; then theta -+ delta 8^r for r = 0 .. LOCATE_ROUNDS, a
bracket at first about as narrow as the stopping rule, widened while a
count disagrees.  The guess only chooses where sweeps run, and the walk keeps
the steps, midpoints and stopping rule of the full-sweep bisection, so a
wrong or non-finite guess costs sweeps and never changes an eigenvalue:
every eigenvalue is bit-for-bit the full-sweep bisection's.

The diagonal is built only as far as the sweeps and `_locate` reach (0.4
of the grid on the `oracle` benchmark): `_FdMatrix` keeps a prefix of it
that grows on demand.  Each entry is d_i = fl(u_i + t_i) with u_i =
fl(1/h^2 - fl(1/r_i)) nondecreasing in i and t_i = fl(J(J+1) / fl(fl(2 r_i)
r_i)) nonincreasing, and rounding is monotone, so for every i in [p, q]

    fl(u_p + t_q) <= d_i <= fl(u_q + t_p).

`_FdMatrix` samples u and t at every 32nd node and the last, which bounds
each 32-node block from both sides.  That makes three facts about the
whole diagonal cheap and exact:

- its min and max: a branch and bound over the blocks builds the inner
  entries of only those blocks whose bound passes the least (greatest)
  entry seen, so the Gershgorin bounds lo and hi are bit for bit those of
  the full list;
- that every entry is finite: u and t finite at both ends are finite in
  between, so finite lo and hi leave no entry infinite or nan;
- where the tail starts: the running minimum of the block floors from the
  end is a nondecreasing lower bound of the suffix minimum of the
  diagonal, so it certifies where a sweep may stop (`_sturm_count`), and
  from it `_locate` finds the tail start node for node.

The module imports only the standard library and `quantum_numbers`, so the
`oracle` subcommand starts without numpy.  `RadialGrid` holds no node array:
the grid checks of `numeric_verify` build the nodes they sample on.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
import time
from dataclasses import asdict, dataclass, field

from .quantum_numbers import ConvergenceFailure, GridUnderflow, HalfInt, MonopoleParams, make_sector, sector_inputs
from .quantum_numbers import levels as sector_levels

MIN_NODES_PER_WAVELENGTH = 8
# relative margin of the early-stop bound in `_sturm_count`; any value far
# above machine epsilon keeps the stop exact
STURM_TAIL_MARGIN = 1e-12
DIAGONAL_BLOCK = 32  # nodes per block of `_FdMatrix`'s sampled bounds and per finish test of a tail sweep
DIAGONAL_GROWTH = 256  # entries `_FdMatrix.upto` adds at least, when it adds any
# the locator of `eig_oracle` (see `_locate`); no value can change an eigenvalue
LOCATE_WIDTH = 1e-2  # it runs once a bound state's bracket is narrower than this times |b|
LOCATE_TWIST = 0.85  # the twist node as a fraction of the tail start
LOCATE_EFOLDS = 12.0  # e-folds of decay from the tail start to the backward pivots' start on the decaying tail
LOCATE_STRIDE = 32  # nodes per sample of that decay (see `_dirichlet_end`)
LOCATE_STEPS = 12  # secant steps at most, until one is below LOCATE_FLOOR max(1, |lam|) (see `_locate`)
LOCATE_FLOOR = 1e-15
LOCATE_ROUNDS = 6  # widenings by 8 of the certification window
LOCATE_PREDICT = 5e-8  # the secant's first two points lie this far, relative, on either side of `_predict`

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


def _integer(name: str, value) -> int:
    """value as an int (`operator.index`), or ValueError naming `name` when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        object.__setattr__(self, "npoints", _integer("npoints", self.npoints))
        if self.npoints < 16:
            raise ValueError(f"need at least 16 grid points, got {self.npoints}")

    @property
    def h(self) -> float:
        return self.rmax / (self.npoints + 1)


def oracle_grid(k_top: float, rmax: float | None, npoints: int | None) -> RadialGrid:
    """The oracle's grid for levels up to K = k_top: rmax 12 k_top^2 and 6000 points, each unless given.

    ValueError, naming k_top, when the default rmax overflows; an explicit
    rmax goes to `RadialGrid` as given.
    """
    if rmax is None:
        try:
            rmax = 12.0 * k_top ** 2
        except OverflowError:
            rmax = math.inf
        if math.isinf(rmax):
            raise ValueError(f"the default box 12 k_top^2 overflows at k_top={k_top:g}; give --rmax")
    return RadialGrid(rmax=rmax, npoints=6000 if npoints is None else npoints)


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


class _FdMatrix:
    """The FD matrix: its diagonal, built on demand, constant off-diagonal `off` and Gershgorin bounds lo, hi.

    d_i = 1/h^2 - 1/r_i + J(J+1)/(2 r_i^2) with r_i = h (i + 1), off =
    -1/(2 h^2).  Each d_i takes the operations of the elementwise array
    expression in the same order, so it is bit for bit that expression's
    value.  `values` holds the entries built so far, a prefix of the
    diagonal that `upto` extends.  lo and hi are min and max of the whole
    diagonal -+ 2|off|, found exactly without building it (see the module
    docstring).  GridUnderflow when h^2 underflows to zero; ValueError when
    an entry or a bound is not finite (J(J+1) overflows above J of about
    1.3e154).
    """

    def __init__(self, J: float, grid: RadialGrid):
        h = grid.h
        if h * h == 0.0:
            raise GridUnderflow(f"the grid spacing h={h:.4g} of rmax={grid.rmax!r} over "
                                f"{grid.npoints} points squares to zero")
        self.npoints = n = grid.npoints
        self.off = -1.0 / (2.0 * h * h)
        # the early-stop bound of `_sturm_count` on fl(d - lam)
        self._tail_bound = 2.0 * abs(self.off) * (1.0 + STURM_TAIL_MARGIN)
        inv_h2, jj = 1.0 / (h * h), J * (J + 1.0)
        self._h, self._inv_h2, self._jj = h, inv_h2, jj
        # u = 1/h^2 - 1/r and t = J(J+1)/(2 r^2) at every DIAGONAL_BLOCK-th node
        # and the last; block k runs from sample k to sample k + 1
        samples = [*range(1, n, DIAGONAL_BLOCK), n]
        u = [inv_h2 - 1.0 / r for r in map(h.__mul__, samples)]
        t = [jj / (2.0 * r * r) for r in map(h.__mul__, samples)]
        lo = hi = math.nan
        # u and t finite at both ends are finite everywhere between them, and
        # d = u + t is then finite unless it overflows to +inf, which max(d) shows
        if all(map(math.isfinite, (u[0], t[0], u[-1], t[-1]))):
            floors = list(map(operator.add, u, t[1:]))  # <= every entry of the block
            ceilings = list(map(operator.add, u[1:], t))  # >= every entry of the block
            # branch and bound over the blocks: the sampled entries, exact, then
            # the inner entries of each block whose bound passes the best seen
            sampled = list(map(operator.add, u, t))
            low, high = min(sampled), max(sampled)
            for k, (floor, ceiling) in enumerate(zip(floors, ceilings)):
                if floor < low or ceiling > high:
                    inner = self._entries(k * DIAGONAL_BLOCK + 1, min((k + 1) * DIAGONAL_BLOCK, n - 1))
                    low, high = min([low, *inner]), max([high, *inner])
            lo, hi = low - 2.0 * abs(self.off), high + 2.0 * abs(self.off)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"J={J} on a grid with h={h:.4g} overflows the finite-difference matrix")
        self.lo, self.hi = lo, hi
        # _floors[k] <= min(d_j for j >= k DIAGONAL_BLOCK), nondecreasing in k
        self._floors = list(itertools.accumulate(reversed(floors), min))[::-1]
        self.values = self._entries(0, min(DIAGONAL_GROWTH, n))

    def _entries(self, s: int, e: int) -> list[float]:
        """Entries s to e - 1 of the diagonal."""
        h, inv_h2, jj = self._h, self._inv_h2, self._jj
        return [inv_h2 - 1.0 / r + jj / (2.0 * r * r) for r in map(h.__mul__, range(s + 1, e + 1))]

    def upto(self, end: int) -> list[float]:
        """`values`, extended to hold at least the first min(end, npoints) entries.

        The prefix grows by at least a quarter of itself, and at least
        DIAGONAL_GROWTH entries, so a sweep that creeps forward extends it
        a few times per call, not once per chunk.
        """
        values = self.values
        if end > len(values):
            s = len(values)
            values.extend(self._entries(s, min(self.npoints, max(end, s + s // 4, s + DIAGONAL_GROWTH))))
        return values

    def certified_tail(self, lam: float) -> int:
        """A multiple of DIAGONAL_BLOCK, or npoints, from which every entry meets the early-stop bound at lam.

        The bound fl(d_j - lam) >= 2|off|(1 + STURM_TAIL_MARGIN) of
        `_sturm_count` holds for every j from the first block whose floor
        meets it on, since fl(d - lam) is monotone in d.  So the node is
        never before `tail_start`, and needs no entry of the diagonal.
        """
        k = bisect.bisect_left(self._floors, self._tail_bound, key=lambda d: d - lam)
        return k * DIAGONAL_BLOCK if k < len(self._floors) else self.npoints

    def tail_start(self, lam: float) -> int:
        """The first node i with fl(d_j - lam) >= 2|off|(1 + STURM_TAIL_MARGIN) for every j >= i.

        That is the first i with fl(min(d[i:]) - lam) above the bound, node
        for node: every node from `certified_tail` on meets it, so the
        first is one past the last node before it that does not.
        """
        t = self.certified_tail(lam)
        values = self.upto(t)
        while t > 0 and values[t - 1] - lam >= self._tail_bound:
            t -= 1
        return t


def _guarded_steps(chunk: list[float], q: float, count: int, lam: float, e2: float, k: int) -> tuple[float, int]:
    """The steps of `_sturm_count` over chunk from pivot q, a pivot that is exactly zero taken as 1e-300."""
    for d in chunk:
        if q == 0.0:
            q = 1e-300
        q = d - lam - e2 / q
        if q < 0.0:
            count += 1
            if count > k:
                break
    return q, count


def _sturm_count(matrix: _FdMatrix, lam: float, k: int) -> int:
    """The negative pivots of the LDL^T sweep at lam, counted until the count passes k.

    The matrix has diagonal d and constant off-diagonal off; the pivots
    are q_0 = d_0 - lam, q_i = d_i - lam - off^2 / q_{i-1}, and the number
    of negative ones is the number of eigenvalues strictly below lam.
    Counts only grow along the sweep, so the result is > k exactly when the
    full count is, and equals the full count otherwise.

    The sweep also stops once no later pivot can turn negative.  With b = |off|:

    - if d_j - lam >= 2b for every j >= i and some q_{i-1} >= b, then
      q_i >= 2b - b^2/b = b, and by induction every later pivot is >= b > 0;
    - in floating point the tail must satisfy fl(d_j - lam) >= 2b(1 + eta)
      with eta = STURM_TAIL_MARGIN = 1e-12.  The rounding of off^2, of
      off^2/q and of the subtraction costs a few ulps (about 7e-16
      relative), far below eta, so fl(q_i) >= b still holds.  This needs
      off^2 to be a normal float; otherwise the early stop is off.

    `_FdMatrix.certified_tail` gives a node from which the bound holds, at
    or a little past the turning point V(r) = lam for lam < 0.  The sweep
    runs in chunks: the head up to that node as far as the diagonal is
    built (built further when the sweep gets there), then DIAGONAL_BLOCK
    nodes at a time, and it finishes at the end of the first chunk whose last
    pivot is >= b.  Past that pivot every pivot stays >= b, so running to
    the chunk's end changes no count.  An exactly zero pivot would divide
    by zero; its chunk runs again with the pivot taken as 1e-300.
    """
    off = matrix.off
    e2, b, n = off * off, abs(off), matrix.npoints
    tail = matrix.certified_tail(lam) if e2 >= sys.float_info.min else n
    values = matrix.values
    q = values[0] - lam
    count = 1 if q < 0.0 else 0
    if count > k:
        return count
    start = 1
    while start < n:
        if start >= len(values):
            matrix.upto(start + 1)
        end = min(len(values), tail if start < tail else start + DIAGONAL_BLOCK)
        chunk, q0, count0 = values[start:end], q, count
        try:
            for d in chunk:
                q = d - lam - e2 / q
                if q < 0.0:
                    count += 1
                    if count > k:
                        return count
        except ZeroDivisionError:  # a pivot that is exactly zero
            q, count = _guarded_steps(chunk, q0, count0, lam, e2, k)
            if count > k:
                return count
        start = end
        if end >= tail and q >= b:
            break
    return count


def _bisect_cell(exceeds, k: int, lo: float, hi: float) -> tuple[float, float, float]:
    """The bisection walk of [lo, hi] for eigenvalue k: its final cell (lo, hi) and the value it returns.

    `exceeds(lam, k)` decides each midpoint; every midpoint the walk visits
    ends up <= the final lo or >= the final hi.
    """
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi, mid
        if exceeds(mid, k):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            return lo, hi, 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection stalled for eigenvalue {k} in [{lo}, {hi}]")


def _bisect_eigenvalue(exceeds, k: int, lo: float, hi: float) -> float:
    """Eigenvalue k (from 0) by bisection of [lo, hi].

    `exceeds(lam, k)` tells whether more than k eigenvalues lie strictly
    below lam, the one decision a step needs; it need not compute the count.
    """
    return _bisect_cell(exceeds, k, lo, hi)[2]


def _dirichlet_end(matrix: _FdMatrix, t: int, theta: float) -> int:
    """`_locate`'s backward end M: LOCATE_EFOLDS e-folds past the tail start t, or the last node.

    Past t the decaying solution falls by kappa_i = acosh((d_i - theta) / 2b)
    e-folds per node, b = |off|.  A tail start t >= 1 lies past the
    diagonal's minimum, where the FD diagonal rises, so kappa never
    decreases.  The walk samples kappa every LOCATE_STRIDE nodes, credits
    each sample to the nodes up to the next one, and ends in the stride
    that completes the sum at its sample's rate.  Each credit under-counts,
    so M lands at or past the node-by-node end, never closer.
    """
    n, M, efolds, b = matrix.npoints, t, 0.0, abs(matrix.off)
    while M < n:
        kappa = math.acosh((matrix.upto(M + 1)[M] - theta) / (2.0 * b))
        if efolds + LOCATE_STRIDE * kappa >= LOCATE_EFOLDS:
            return min(M + math.ceil((LOCATE_EFOLDS - efolds) / kappa), n)
        efolds += LOCATE_STRIDE * kappa
        M += LOCATE_STRIDE
    return n


def _locate(matrix: _FdMatrix, a: float, b: float) -> tuple[float, float]:
    """A guess at a bound state's eigenvalue near a < b, and the last secant step.

    (a, b) is a narrow certified bracket or a window around a predicted
    eigenvalue.  Secant from a and b on the twisted factorization's
    gamma_m(lam) = q+_m + q-_m - (d_m - lam) = 1 / [(T - lam)^-1]_mm, whose root
    is an eigenvalue: q+ are the forward pivots from node 0, q- the backward
    ones from node M - 1.  The twist m, short of the tail start t at the
    midpoint of (a, b), sits where the eigenvector is large.  M lies
    LOCATE_EFOLDS e-folds of decay past t, placed by a walk that evaluates
    acosh once per LOCATE_STRIDE nodes (`_dirichlet_end`).

    Before the last node, q-_(M-1) is the stable fixed point of the backward
    step p -> (d - lam) - off^2/p at d = d_(M-1): p = g + sqrt(g^2 - off^2)
    with g = (d_(M-1) - lam)/2, the pivot of the solution that keeps
    decaying past M.  A Dirichlet start there would put an O(1) relative
    error on q-_(M-1), damped by about e^(-2 LOCATE_EFOLDS) at m; the
    fixed point leaves only the drift of d past M, so 12 e-folds put the
    guess within a final bisection cell of the untruncated one (the
    Dirichlet start took 20).  When M is the last node, its Dirichlet
    condition is the matrix's own and stays; so does it when g < |off|,
    which a secant point far above the eigenvalue can reach.

    The secant's error after a step s_n is about |s_n| |s_n / s_(n-1)|
    (superlinear convergence), so it stops once s_n^2 <= c LOCATE_FLOOR
    max(1, |x|) |s_(n-1)|, with c = 1e-3 a safety factor on that estimate,
    or once |s_n| itself is below LOCATE_FLOOR max(1, |x|); either way
    without evaluating gamma at the new point.  (nan, nan) when an
    evaluation fails.
    """
    off = matrix.off
    theta, e2, coupling = 0.5 * (a + b), off * off, abs(off)
    t = matrix.tail_start(theta)
    m = int(LOCATE_TWIST * t)
    M = _dirichlet_end(matrix, t, theta)
    truncated = M < matrix.npoints
    if m < 1 or M < m + 2:
        return math.nan, math.nan
    diag = matrix.upto(M)
    head, back, d_m = diag[1:m], diag[M - 2:m:-1], diag[m]

    def gamma(lam):
        q, p = diag[0] - lam, diag[M - 1] - lam
        if truncated and 0.5 * p >= coupling:
            # the decaying tail's stable fixed point p = g + sqrt(g^2 - off^2), g = (d - lam)/2
            p = 0.5 * p + math.sqrt(0.25 * p * p - e2)
        for d in head:
            q = d - lam - e2 / q
        for d in back:
            p = d - lam - e2 / p
        return d_m - lam - e2 / q - e2 / p

    try:
        x0, g0, x1, g1 = a, gamma(a), b, gamma(b)
        step = b - a
        for _ in range(LOCATE_STEPS):
            if not (math.isfinite(g1) and g1 != g0):
                break
            last, step = step, g1 * (x1 - x0) / (g1 - g0)
            x0, g0, x1 = x1, g1, x1 - step
            floor = LOCATE_FLOOR * max(1.0, abs(x1))
            # 1e-3: the safety factor c on the superlinear error estimate
            if abs(step) <= floor or step * step <= 1e-3 * floor * abs(last):
                break
            g1 = gamma(x1)
    except ZeroDivisionError:  # a pivot that is exactly zero
        return math.nan, math.nan
    return x1, abs(step)


def _predict(found: list[float]) -> float:
    """The next eigenvalue of a J tower from the eigenvalues below it; nan unless the last one is negative.

    The excited levels of a Coulomb tail follow a slowly varying quantum
    defect (Seaton 1983): nu = 1/sqrt(-2E) grows by about 1 per level.  So
    nu_k = nu_0 + 1 at k = 1 and nu_{k-1} + (nu_{k-1} - nu_{k-2}) after.
    """
    if not found or not found[-1] < 0.0:
        return math.nan
    nu = [1.0 / math.sqrt(-2.0 * e) for e in found[-2:]]
    x = 2.0 * nu[1] - nu[0] if len(nu) == 2 else nu[0] + 1.0
    return -0.5 / (x * x)


def eig_oracle(J: float, grid: RadialGrid, count: int) -> list[float]:
    """Lowest `count` eigenvalues of the radial problem at angular label J, ascending.

    Sturm-sequence bisection of `_FdMatrix` between its Gershgorin bounds
    that sweeps only inside certified brackets (see the module docstring).
    The one `_locate` of each eigenvalue starts from `_predict` +- LOCATE_PREDICT
    relative while predictions certify, else from the bracket once it is
    narrow.  Its guess theta is certified in one loop over windows, sweeping
    at both ends of each until one is certified: first the walk's final
    cell when theta decides every midpoint (`_bisect_cell`), then theta -+
    delta 8^r for r = 0 .. LOCATE_ROUNDS, with delta = max(2 |step|,
    2 LOCATE_FLOOR max(1, |theta|)).

    J must be finite and non-negative, count an integer in [0, npoints] and
    the matrix must not overflow; otherwise ValueError.  A spacing h whose square underflows to zero
    raises GridUnderflow.
    """
    if not (math.isfinite(J) and J >= 0.0):
        raise ValueError(f"J must be non-negative and finite, got {J}")
    count = _integer("count", count)
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
    matrix = _FdMatrix(J, grid)
    lo, hi = matrix.lo, matrix.hi
    a, out, predicting = -math.inf, [], True
    for k in range(count):
        # the certified bracket count(a) <= k < count(b): a carries over, and
        # no earlier sweep has counted past k, since each stopped once its
        # count passed an earlier k
        b, located = math.inf, False

        def sweep(lam: float) -> None:
            """Narrow the bracket (a, b) by a sweep at lam; lam outside it is already decided."""
            nonlocal a, b
            if a < lam < b:
                if _sturm_count(matrix, lam, k) > k:
                    b = lam
                else:
                    a = lam

        def locate(x0: float, x1: float) -> bool:
            """The one `_locate` of eigenvalue k, from x0 and x1; whether sweeps certify its guess."""
            nonlocal located
            located = True
            theta, step = _locate(matrix, x0, x1)
            if not math.isfinite(theta):
                return False
            # first the final cell of the walk that theta decides (certified, it
            # leaves the walk no sweep to do), then theta -+ delta 8^r
            delta = max(2.0 * step, 2.0 * LOCATE_FLOOR * max(1.0, abs(theta)))
            windows = [_bisect_cell(lambda lam, _k: lam > theta, k, lo, hi)[:2]]
            windows += [(theta - delta * 8.0 ** r, theta + delta * 8.0 ** r) for r in range(LOCATE_ROUNDS + 1)]
            for left, right in windows:
                sweep(left)
                sweep(right)
                if a >= left and b <= right:
                    return True
            return False

        # a predicted level that fails to certify ends prediction for the call:
        # the quantum-defect law has failed there (box states)
        predicted = _predict(out) if predicting else math.nan
        if predicted < 0.0:
            predicting = locate(predicted * (1.0 + LOCATE_PREDICT), predicted * (1.0 - LOCATE_PREDICT))

        def exceeds(lam: float, _k: int) -> bool:
            if not located and b < 0.0 and b - a < LOCATE_WIDTH * -b:
                locate(a, b)
            sweep(lam)
            return lam >= b

        out.append(_bisect_eigenvalue(exceeds, k, lo, hi))
    return out


def oracle_reports(J: float, levels: list[tuple[float, dict]], grid: RadialGrid,
                   tol: float | None = None) -> list[VerificationReport]:
    """Relative error of the FD oracle's lowest eigenvalues against -1/(2K^2).

    `levels` pairs each K, ascending, with the `inputs` of its report.  One
    `eig_oracle` call solves for every level; the first report's runtime
    carries that solve.  A tol of None is DEFAULT_TOLERANCES["spectrum_level"].
    Raises ValueError when an analytic energy underflows to zero or a
    relative error is not finite (the grid cannot hold the level).
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
                         tol: float | None = None) -> list[VerificationReport]:
    """Per-level relative error of the FD oracle against the analytic spectrum.

    `oracle_grid` gives the grid `micz-su11 oracle` uses by default.
    """
    levels = _integer("levels", levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    sector = make_sector(params, m, j)
    pairs = [(lv.K, sector_inputs(sector, grid, lv.n)) for lv in sector_levels(sector, levels)]
    return oracle_reports(sector.bigJ, pairs, grid, tol)
