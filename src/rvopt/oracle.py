"""Brute-force lattice oracles: Pareto scans, penalization transfer and
refutation search.

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
(see ``grid_scan``).  Weak-hit masks cover the block's feasible points
only.  The scan table formats each distinct value once per block of rows.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .cones import Cone
from .errors import PreconditionError
from .problem import Problem
from .sampling import grid_points

DOMINANCE_MARGIN = 1e-9
_BLOCK_ENTRIES = 1 << 18   # entries per dominance-pass buffer: 2 MiB of float gaps
_CSV_BLOCK_ROWS = 1 << 9   # scan-table rows formatted per write


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
                columns = ([*self.points[rows].T, self.merit[rows]]
                           + [col[rows].astype(np.int64) for col in counts]
                           + [*self.values[rows].T])
                lines = map(",".join, zip(*map(_formatted, columns)))
                handle.write("\r\n".join(lines) + "\r\n")


def _formatted(column) -> list:
    """``repr`` of each entry of a float64 or int64 column, called once per
    distinct bit pattern in the block (so -0.0 and 0.0 stay apart)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(column.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


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
    within _BLOCK_ENTRIES entries; its points are taken feasible first (no
    result depends on the order within a block).  The strict mask is built
    for every point and the weak-hit mask for the feasible ones only, one
    order row at a time.  A feasible point is weakly efficient when its
    count is 0, and efficient when none of its weak hits lies farther than
    margin from it: each row's first hit (smallest fp0) is tested, and only
    rows whose first hit lies within margin test all their hits.
    """
    n_pts = proj.shape[0]
    eff = np.zeros(n_pts, dtype=bool)
    dom_count = np.zeros(n_pts, dtype=int)
    feas_idx = np.flatnonzero(feasible)
    if not feas_idx.size:
        return np.zeros(n_pts, dtype=bool), eff, dom_count
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
        idx = idx[np.argsort(~feasible[idx], kind="stable")]
        n_feas = int(np.count_nonzero(feasible[idx]))
        block = proj[idx]
        # fmax skips NaN rows, whose gaps all compare false; one column at
        # least, so that every row has a first column below
        width = max(1, int(np.count_nonzero(
            np.fmax.reduce(block[:, 0]) - feas_proj[0] >= -margin)))
        gap, strict = (buf[:idx.size * width].reshape(idx.size, width)
                       for buf in (gap_buf, strict_buf))
        weak_gap = weak_buf[:n_feas * width].reshape(n_feas, width)
        strict[...] = True
        weak_gap[...] = True
        for k in range(proj.shape[1]):
            np.subtract(block[:, k, None], feas_proj[k, :width], out=gap)
            strict &= gap >= margin
            weak_gap &= gap[:n_feas] >= -margin
        dom_count[idx] = np.count_nonzero(strict, axis=1)
        first = np.argmax(weak_gap, axis=1)
        far_first = weak_gap[np.arange(n_feas), first] & (np.linalg.norm(
            values[idx[:n_feas]] - feas_vals[first], axis=1) > margin)
        rows = np.flatnonzero(~far_first)
        pair_row, pair_col = np.nonzero(weak_gap[rows])
        far = np.linalg.norm(values[idx[rows[pair_row]]] - feas_vals[pair_col],
                             axis=1) > margin
        dominated = np.zeros(rows.size, dtype=bool)
        dominated[pair_row[far]] = True
        eff[idx[rows]] = ~dominated
    return feasible & (dom_count == 0), eff, dom_count


# ===== penalization ======================================================


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
    for a lattice point whose penalized value f + (ell / sigma) merit e
    improves on the reference into the interior of the ordering cone.
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
    if sigma <= 0.0:
        raise PreconditionError("penalization needs sigma > 0")
    if ell < 0.0:
        raise PreconditionError("penalty weight must be nonnegative")
    if ell == 0.0:
        warnings.warn("penalization with ell = 0 is degenerate", stacklevel=2)

    def penalized(points):
        return problem.objective.value_many(points) \
            + (ell / sigma) * problem.merit_many(points)[:, None] * problem.direction

    region_pts = pts[in_region]
    beats = _interior_gaps(problem.ordering_cone, penalized(x[None])[0],
                           penalized(region_pts)) >= margin
    if beats.any():
        return TransferReport(passed=False, dominator=region_pts[np.argmax(beats)],
                              ell=ell, sigma=sigma)
    return TransferReport(passed=True, dominator=None, ell=ell, sigma=sigma)


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
