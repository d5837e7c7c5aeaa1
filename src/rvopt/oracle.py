"""Brute-force lattice oracles: Pareto scans, penalization transfer, and a
derivative-free descent solver.

These are the ground-truth side of the package: dominance is decided by
exhaustive pairwise comparison on a lattice, so the first-order
certificates can be cross-validated against something that involves no
calculus.  Dominance uses the interior of the ordering cone with a small
absolute margin; efficiency uses the punctured cone, so the efficient set
is always contained in the weakly efficient set.

The comparison is exhaustive in result but blocked in execution: objective
values and region membership are evaluated for the whole lattice at once,
feasible points are sorted by their first order-row value, and each block
of lattice points is compared, one order row at a time, only with the
sorted prefix that can still improve on some point of the block.  Float
subtraction is monotone, so skipping the rest changes no mask or count
(see ``grid_scan``).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone
from .errors import PreconditionError
from .problem import Problem
from .sampling import grid_points

DOMINANCE_MARGIN = 1e-9
_BLOCK_ENTRIES = 1 << 18   # entries per dominance-pass buffer: 2 MiB of float gaps
_CSV_BLOCK_ROWS = 1 << 10  # scan-table rows formatted per write


def _interior_gaps(cone: Cone, fx, others) -> np.ndarray:
    """min over the order rows of rows @ (fx - fy), for each row fy of
    ``others``; the stacked products round each row as ``rows @ gap`` does."""
    gaps = np.asarray(fx, dtype=float) - np.atleast_2d(np.asarray(others, dtype=float))
    return np.min(np.matmul(cone.facets()[None], gaps[:, :, None])[..., 0], axis=1)


def strictly_dominates(cone: Cone, fx, fy, margin: float = DOMINANCE_MARGIN) -> bool:
    """True when fy improves on fx into the interior of the cone:
    fx - fy lies in int(cone) with the given margin."""
    return bool(_interior_gaps(cone, fx, fy)[0] >= margin)


@dataclass(frozen=True)
class GridScan:
    """Lattice scan of a problem over a box."""

    lo: np.ndarray
    hi: np.ndarray
    resolution: tuple
    points: np.ndarray
    values: np.ndarray
    merit: np.ndarray
    feasible: np.ndarray
    weak_efficient: np.ndarray
    efficient: np.ndarray
    dominance_count: np.ndarray

    def to_csv(self, path) -> None:
        """The scan table in the csv module's default dialect: floats as
        ``repr``, masks as 0/1, rows ended by CRLF; written in row blocks."""
        n, m = self.points.shape[1], self.values.shape[1]
        header = [f"x{i + 1}" for i in range(n)] + ["merit", "feasible",
                                                    "weak_efficient", "efficient",
                                                    "dominance_count"] \
            + [f"f{k + 1}" for k in range(m)]
        counts = (self.feasible, self.weak_efficient, self.efficient, self.dominance_count)
        with open(path, "w", newline="") as handle:
            handle.write(",".join(header) + "\r\n")
            for start in range(0, self.points.shape[0], _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                columns = ([map(repr, col) for col in self.points[rows].T.tolist()]
                           + [map(repr, self.merit[rows].tolist())]
                           + [map(str, col[rows].astype(int).tolist()) for col in counts]
                           + [map(repr, col) for col in self.values[rows].T.tolist()])
                handle.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def _sample_lattice(problem: Problem, lo, hi, resolution, feas_tol: float):
    """Lattice points, objective values, merit, region and feasibility masks."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if np.isscalar(resolution) or np.ndim(resolution) == 0:
        res_tuple = (int(resolution),) * lo.size
    else:
        res_tuple = tuple(int(r) for r in resolution)
    if min(res_tuple) < 3:
        raise PreconditionError("grid resolution must be at least 3 per axis")
    if np.prod(res_tuple) > 1_000_000:
        raise PreconditionError("grid exceeds the 1e6 point cap")
    pts = grid_points(lo, hi, resolution)
    values = problem.objective.value_many(pts)
    phi = problem.merit_many(pts)
    in_region = problem.region.contains_many(pts, tol=feas_tol)
    feasible = in_region & (phi <= feas_tol)
    return lo, hi, res_tuple, pts, values, phi, in_region, feasible


def grid_scan(problem: Problem, lo, hi, resolution,
              feas_tol: float = 1e-9, margin: float = DOMINANCE_MARGIN) -> GridScan:
    """Feasibility, weak efficiency, and efficiency masks on a lattice.

    A lattice point is feasible when it lies in the region and its merit
    is at most ``feas_tol``.  Given masks F (feasible) and values f, a
    point is weakly efficient when no feasible lattice point improves on it
    into the interior of the ordering cone, and efficient when no other
    feasible lattice point improves into the punctured cone;
    ``dominance_count`` counts, for every lattice point, the feasible
    points that improve on it into the interior.

    The pairwise pass is blocked: feasible points are sorted by their first
    order-row value fp0, lattice points are taken in blocks in the same
    order, and a block is compared only with the sorted prefix where
    max_block_proj0 - fp0 >= -margin.  The prefix is exact because float
    a - b is monotone in b: every later feasible point fails the weak test
    (and so the strict one) on the first order row for every point of the
    block.  The results equal those of comparing every pair.
    """
    lo, hi, res_tuple, pts, values, phi, _, feasible = _sample_lattice(
        problem, lo, hi, resolution, feas_tol)
    proj = values @ problem.ordering_cone.facets().T    # dual-pairing values
    weak, eff, dom_count = _dominance_pass(proj, values, feasible, margin)
    return GridScan(lo=lo, hi=hi, resolution=res_tuple, points=pts,
                    values=values, merit=phi, feasible=feasible,
                    weak_efficient=weak, efficient=eff,
                    dominance_count=dom_count)


def _dominance_pass(proj, values, feasible, margin):
    """Weak and efficient masks and dominance counts; see ``grid_scan``.

    Feasible j improves on point i strictly when every order-row gap
    proj[i] - proj[j] is >= margin, and weakly when every gap is >= -margin.
    A block holds as many points as keep its (block, feasible) buffers
    within _BLOCK_ENTRIES entries; the strict and weak masks are built one
    order row at a time into those 2-D buffers.  A feasible point is
    efficient when none of its weak hits lies farther than margin from it:
    each row's first hit (smallest fp0) is tested, and only rows whose first
    hit lies within margin test all their hits.
    """
    n_pts = proj.shape[0]
    weak = np.zeros(n_pts, dtype=bool)
    eff = np.zeros(n_pts, dtype=bool)
    dom_count = np.zeros(n_pts, dtype=int)
    feas_idx = np.flatnonzero(feasible)
    if not feas_idx.size:
        return weak, eff, dom_count
    feas_idx = feas_idx[np.argsort(proj[feas_idx, 0], kind="stable")]
    feas_proj = np.ascontiguousarray(proj[feas_idx].T)      # one row per order row
    feas_vals = values[feas_idx]
    block_rows = max(1, _BLOCK_ENTRIES // feas_idx.size)
    gap_buf = np.empty(block_rows * feas_idx.size)
    strict_buf = np.empty(gap_buf.size, dtype=bool)
    weak_buf = np.empty(gap_buf.size, dtype=bool)
    order = np.argsort(proj[:, 0], kind="stable")
    for start in range(0, n_pts, block_rows):
        idx = order[start:start + block_rows]
        block = proj[idx]
        # fmax skips NaN rows, whose gaps all compare false; one column at
        # least, so that every row has a first column below
        width = max(1, int(np.count_nonzero(
            np.fmax.reduce(block[:, 0]) - feas_proj[0] >= -margin)))
        shape = (idx.size, width)
        gap, strict, weak_gap = (buf[:idx.size * width].reshape(shape)
                                 for buf in (gap_buf, strict_buf, weak_buf))
        strict[...] = True
        weak_gap[...] = True
        for k in range(proj.shape[1]):
            np.subtract(block[:, k, None], feas_proj[k, :width], out=gap)
            strict &= gap >= margin
            weak_gap &= gap >= -margin
        dom_count[idx] = np.count_nonzero(strict, axis=1)
        rows = np.flatnonzero(feasible[idx])
        weak[idx[rows]] = ~strict.any(axis=1)[rows]
        first = np.argmax(weak_gap[rows], axis=1)
        far_first = weak_gap[rows, first] & (np.linalg.norm(
            values[idx[rows]] - feas_vals[first], axis=1) > margin)
        rows = rows[~far_first]
        pair_row, pair_col = np.nonzero(weak_gap[rows])
        far = np.linalg.norm(values[idx[rows[pair_row]]] - feas_vals[pair_col],
                             axis=1) > margin
        dominated = np.zeros(rows.size, dtype=bool)
        dominated[pair_row[far]] = True
        eff[idx[rows]] = ~dominated
    return weak, eff, dom_count


# ===== penalization ======================================================


@dataclass(frozen=True)
class PenalizedObjective:
    """f(x) + (ell / sigma) merit(x) e  over the bare region."""

    problem: Problem
    ell: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise PreconditionError("penalization needs sigma > 0")
        if self.ell < 0.0:
            raise PreconditionError("penalty weight must be nonnegative")
        if self.ell == 0.0:
            warnings.warn("penalization with ell = 0 is degenerate", stacklevel=3)

    def value(self, x) -> np.ndarray:
        prob = self.problem
        return prob.objective.value(x) \
            + (self.ell / self.sigma) * prob.merit(x) * prob.direction

    def value_many(self, points) -> np.ndarray:
        prob = self.problem
        base = prob.objective.value_many(points)
        phi = prob.merit_many(points)
        return base + (self.ell / self.sigma) * phi[:, None] * prob.direction[None, :]


def build_penalized(problem: Problem, ell: float, sigma: float,
                    lipschitz_floor: float | None = None) -> PenalizedObjective:
    """Penalized objective; warns when ell is below a known order-Lipschitz
    floor, since the transfer argument then has no backing."""
    if lipschitz_floor is not None and ell < lipschitz_floor:
        warnings.warn("ell is below the order-Lipschitz estimate; "
                      "penalization transfer is not guaranteed", stacklevel=2)
    return PenalizedObjective(problem=problem, ell=ell, sigma=sigma)


@dataclass(frozen=True)
class TransferReport:
    passed: bool
    dominator: np.ndarray | None
    ell: float
    sigma: float


def check_penalization_transfer(problem: Problem, x, ell: float, sigma: float,
                                lo, hi, resolution,
                                margin: float = DOMINANCE_MARGIN,
                                feas_tol: float = 1e-9) -> TransferReport:
    """Does the reference point stay weakly efficient when the constraint is
    replaced by the merit penalty?

    Precondition: the point is weakly efficient for the constrained lattice
    scan.  The check then drops the constraint, keeps the region, and looks
    for a lattice point whose penalized value improves on the reference
    into the interior of the ordering cone.
    """
    x = np.asarray(x, dtype=float).ravel()
    _, _, _, pts, values, _, in_region, feasible = _sample_lattice(
        problem, lo, hi, resolution, feas_tol)
    fx = problem.objective.value(x)
    if not problem.feasible(x, tol=feas_tol):
        raise PreconditionError("reference point is not feasible")
    if np.any(_interior_gaps(problem.ordering_cone, fx, values[feasible]) >= margin):
        raise PreconditionError("reference point is not weakly efficient "
                                "on the constrained lattice")

    pen = build_penalized(problem, ell, sigma)
    region_pts = pts[in_region]
    beats = _interior_gaps(problem.ordering_cone, pen.value(x),
                           pen.value_many(region_pts)) >= margin
    if beats.any():
        return TransferReport(passed=False, dominator=region_pts[np.argmax(beats)],
                              ell=ell, sigma=sigma)
    return TransferReport(passed=True, dominator=None, ell=ell, sigma=sigma)


# ===== descent solver ====================================================


@dataclass(frozen=True)
class DescentResult:
    x: np.ndarray
    value: float
    trace: tuple
    evaluations: int
    stalled: bool


def descent_solve(problem: Problem, start, weights, ell: float, sigma: float,
                  budget: int = 4000, initial_step: float = 0.5,
                  step_tol: float = 1e-9) -> DescentResult:
    """Projected coordinate pattern search on the weighted penalized scalar
    w . [f(x) + (ell/sigma) merit(x) e]  over the region.

    Coordinate steps with a halving schedule; the trace of accepted values
    is monotone nonincreasing.  Runs until the step drops below tolerance
    or the budget is spent; the stall flag is set when the budget ran out
    with no decrease over the last three step levels.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    if float(weights @ problem.direction) <= 0.0:
        raise PreconditionError("weights must pair positively with the "
                                "interior direction")
    pen = build_penalized(problem, ell, sigma)

    def scalar(p):
        return float(weights @ pen.value(p))

    x = problem.region.project(np.asarray(start, dtype=float).ravel())
    if budget <= 0:
        return DescentResult(x=x, value=scalar(x), trace=((x.copy(),
                             scalar(x)),), evaluations=0, stalled=True)
    evals = 1
    best = scalar(x)
    trace = [(x.copy(), best)]
    step = initial_step
    idle_levels = 0
    while step >= step_tol and evals < budget:
        best_cand, best_val = None, best
        for i in range(x.size):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = x.copy()
                cand[i] += sign * step
                cand = problem.region.project(cand)
                val = scalar(cand)
                evals += 1
                if val < best_val - 1e-15:
                    best_cand, best_val = cand, val
            if evals >= budget:
                break
        if best_cand is not None:
            x, best = best_cand, best_val
            trace.append((x.copy(), best))
            idle_levels = 0
        else:
            step *= 0.5
            idle_levels += 1
    stalled = evals >= budget and step >= step_tol and idle_levels >= 3
    return DescentResult(x=x, value=best, trace=tuple(trace),
                         evaluations=evals, stalled=stalled)


@dataclass(frozen=True)
class RefutationResult:
    witness: np.ndarray | None
    searched: int
    note: str


def refute_efficiency(problem: Problem, x, lo, hi, resolution,
                      margin: float = DOMINANCE_MARGIN,
                      feas_tol: float = 1e-9) -> RefutationResult:
    """Search the lattice for a feasible point strictly dominating the
    reference.  An infeasible reference yields no witness, flagged as such."""
    x = np.asarray(x, dtype=float).ravel()
    if not problem.feasible(x, tol=feas_tol):
        return RefutationResult(witness=None, searched=0,
                                note="reference point infeasible")
    _, _, _, pts, values, _, _, feasible = _sample_lattice(problem, lo, hi, resolution,
                                                           feas_tol)
    feas_idx = np.flatnonzero(feasible)
    gaps = _interior_gaps(problem.ordering_cone, problem.objective.value(x),
                          values[feas_idx])
    dominating = gaps >= margin
    if not dominating.any():
        return RefutationResult(witness=None, searched=feas_idx.size,
                                note="no dominating lattice point")
    best = feas_idx[np.argmax(np.where(dominating, gaps, -np.inf))]   # first largest
    return RefutationResult(witness=pts[best], searched=feas_idx.size,
                            note="dominating witness found")
