"""Brute-force lattice oracles: Pareto scans and refutation search.

These are the ground-truth side of the package: dominance is decided by
exhaustive pairwise comparison on a lattice, so the first-order
certificates can be cross-validated against something that involves no
calculus.  Dominance uses the interior of the ordering cone with a small
absolute margin; efficiency uses the punctured cone, so the efficient set
is always contained in the weakly efficient set.

The comparison is exhaustive in result but made in rank space: objective
values and membership in Solv are evaluated for the whole lattice at once;
float subtraction is monotone, so per order row the feasible values that
pass a point's gap test are a prefix of that row's sorted distinct
values, and the feasible points passing every row are the AND of
bit-packed prefix sets, one gathered row per order row (counting
dominance by sorted prefixes: Kung, Luccio & Preparata, J. ACM 1975).
Prefix tables and hit sets stay within the lattice kernels' WORK_BYTES,
so memory does not grow with the square of the feasible count.  The scan
table formats each distinct value, and each distinct tuple of its integer
fields, once per block of rows.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import Cone, work_rows
from .errors import DimensionError, PreconditionError
from .problem import Problem
from .sampling import grid_points

DOMINANCE_MARGIN = 1e-9
_CSV_BLOCK_ROWS = 1 << 11  # scan-table rows formatted per write
# position of a byte's first set bit, counting from bit 7 as np.packbits does
_LEADING_ZEROS = np.array([8 - v.bit_length() for v in range(256)], dtype=np.intp)


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
        ``repr``, masks as 0/1, rows ended by CRLF; written in row blocks.
        The four integer fields of a row are one int64 key, 8 * count +
        4 * efficient + 2 * weak + feasible, formatted once per distinct key."""
        n, m = self.points.shape[1], self.values.shape[1]
        header = [f"x{i + 1}" for i in range(n)] + ["merit", "feasible",
                                                    "weak_efficient", "efficient",
                                                    "dominance_count"] \
            + [f"f{k + 1}" for k in range(m)]
        key = ((self.dominance_count.astype(np.int64) * 2 + self.efficient) * 2
               + self.weak_efficient) * 2 + self.feasible
        with open(path, "w", newline="") as handle:
            handle.write(",".join(header) + "\r\n")
            for start in range(0, self.points.shape[0], _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                fields = ([_formatted(col) for col in (*self.points[rows].T, self.merit[rows])]
                          + [_formatted(key[rows], _count_fields)]
                          + [_formatted(col) for col in self.values[rows].T])
                handle.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _formatted(column, text=repr) -> list:
    """``text`` of each entry of a float64 or int64 column, called once per
    distinct bit pattern in the block (so -0.0 and 0.0 stay apart)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    distinct = np.array([text(v) for v in bits.view(column.dtype).tolist()], dtype=object)
    return distinct[inverse].tolist()


def _count_fields(key: int) -> str:
    """The feasible,weak_efficient,efficient,dominance_count fields of a
    scan-table key."""
    return f"{key & 1},{key >> 1 & 1},{key >> 2 & 1},{key >> 3}"


def _sample_lattice(problem: Problem, lo, hi, resolution, feas_tol: float):
    """Lattice points, objective values and :meth:`Problem.feasible_many`'s mask."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if np.isscalar(resolution) or np.ndim(resolution) == 0:
        res_tuple = (int(resolution),) * lo.size
    else:
        res_tuple = tuple(int(r) for r in resolution)
    n = problem.domain_dim
    if not lo.size == hi.size == len(res_tuple) == n:
        raise DimensionError(f"the lattice of a problem in dimension {n} needs {n} lo, "
                             f"hi and resolution entries, got {lo.size}, {hi.size} "
                             f"and {len(res_tuple)}")
    if min(res_tuple) < 3:
        raise PreconditionError("grid resolution must be at least 3 per axis")
    pts = grid_points(lo, hi, resolution)
    values = problem.objective.value_many(pts)
    return lo, hi, res_tuple, pts, values, problem.feasible_many(pts, tol=feas_tol)


def grid_scan(problem: Problem, lo, hi, resolution,
              feas_tol: float = 1e-9, margin: float = DOMINANCE_MARGIN) -> GridScan:
    """Feasibility, weak efficiency, and efficiency masks on a lattice.

    lo, hi and a per-axis resolution need one entry per variable
    (DimensionError otherwise).  A lattice point is feasible when it lies
    in Solv within ``feas_tol`` (:meth:`Problem.feasible_many`).  Given masks F
    (feasible) and values f, a point is weakly efficient when no feasible
    lattice point improves on it into the interior of the ordering cone,
    and efficient when no other feasible lattice point improves into the
    punctured cone; ``dominance_count`` counts, for every lattice point,
    the feasible points that improve on it into the interior.

    The pass works in rank space (``_dominance_pass``).  Float a - b is
    monotone in b, so per order row the feasible values b with
    a - b >= margin (or >= -margin) are a prefix of the row's sorted
    distinct values, found with that very float test; the feasible points
    that pass every row are the AND of bit-packed prefix sets.  The masks
    and counts equal those of comparing every pair, bit for bit.
    """
    lo, hi, res_tuple, pts, values, feasible = _sample_lattice(problem, lo, hi, resolution,
                                                               feas_tol)
    proj = values @ problem.ordering_cone.facets().T    # dual-pairing values
    weak, eff, dom_count = _dominance_pass(proj, values, feasible, margin)
    return GridScan(lo=lo, hi=hi, resolution=res_tuple, points=pts,
                    values=values, merit=problem.merit_many(pts), feasible=feasible,
                    weak_efficient=weak, efficient=eff,
                    dominance_count=dom_count)


def _dominance_pass(proj, values, feasible, margin):
    """Weak and efficient masks and dominance counts; see ``grid_scan``.

    Feasible j improves on point i strictly when every order-row gap
    proj[i] - proj[j] is >= margin, and weakly when every gap is >= -margin.
    Per order row, the feasible values that pass either test for point i
    form a prefix of that row's sorted distinct values (``_prefix_counts``),
    so the points passing all rows are the AND of one packed row per order
    row of a prefix table (``_prefix_table``).  Feasible points, sorted by
    their first order-row value, are taken in column chunks whose tables
    fit WORK_BYTES, and points in blocks whose gathered hit sets fit it
    too, so that they stay in cache.  ``dominance_count`` is the
    popcount of the strict hit set, and a feasible point is weakly
    efficient when it is 0.  A feasible point is efficient when none of its
    weak hits lies farther than margin from it: the first hit of each point
    (smallest first order-row value) is tested, and only points whose first
    hit lies within margin test all their hits; a point stops being tested
    once a far hit is found.
    """
    n_pts, n_rows = proj.shape
    dom_count = np.zeros(n_pts, dtype=int)
    feas_idx = np.flatnonzero(feasible)
    if not feas_idx.size:
        return np.zeros(n_pts, dtype=bool), np.zeros(n_pts, dtype=bool), dom_count
    feas_idx = feas_idx[np.argsort(proj[feas_idx, 0], kind="stable")]
    feas_vals = values[feas_idx]
    ranks, sizes, strict_cuts, weak_cuts = [], [], [], []
    for k in range(n_rows):
        # a NaN sorts last and fails every test, so its rank is never counted
        distinct, rank = np.unique(proj[feas_idx, k], return_inverse=True)
        ranks.append(rank)
        sizes.append(distinct.size)
        strict_cuts.append(_prefix_counts(proj[:, k], distinct, margin))
        weak_cuts.append(_prefix_counts(proj[feas_idx, k], distinct, -margin))
    chunk = 8 * work_rows(sum(sizes) + n_rows)
    dominated = np.zeros(feas_idx.size, dtype=bool)
    for start in range(0, feas_idx.size, chunk):
        cols = slice(start, start + chunk)
        tables = [_prefix_table(rank[cols], size) for rank, size in zip(ranks, sizes)]
        block = work_rows(tables[0][0].nbytes)
        for lo in range(0, n_pts, block):
            rows = slice(lo, lo + block)
            hits = _hit_sets(tables, strict_cuts, rows)
            dom_count[rows] += np.bitwise_count(hits).sum(axis=1, dtype=int)
        open_rows = np.flatnonzero(~dominated)
        for lo in range(0, open_rows.size, block):
            rows = open_rows[lo:lo + block]
            hits = _hit_sets(tables, weak_cuts, rows).view(np.uint8)
            dominated[rows] = _far_hits(hits, feas_vals, rows, start, margin)
    eff = np.zeros(n_pts, dtype=bool)
    eff[feas_idx] = ~dominated
    return feasible & (dom_count == 0), eff, dom_count


def _prefix_counts(a, distinct, threshold):
    """For each entry of ``a``, how many of the sorted ``distinct`` values b
    have fl(a - b) >= threshold.  Float a - b is monotone in b, so those b
    are a prefix; ``searchsorted`` places its end, and the same float test
    moves each end until it holds.  A NaN entry counts 0."""
    count = np.searchsorted(distinct, a - threshold, side="right")
    count[np.isnan(a)] = 0
    padded = np.concatenate(([np.nan], distinct, [np.nan]))   # NaN gaps fail
    while (grow := a - padded[count + 1] >= threshold).any():
        count += grow
    while (shrink := (count > 0) & ~(a - padded[count] >= threshold)).any():
        count -= shrink
    return count


def _prefix_table(rank, size):
    """Packed bit sets over a chunk of points, in 64-bit words: row u holds
    the points whose rank is below u, for u = 0..size; bit q is bit 7 - q % 8
    of byte q // 8, as ``np.packbits`` sets it."""
    table = np.zeros((size + 1, 8 * -(-rank.size // 64)), dtype=np.uint8)
    col = np.arange(rank.size)
    np.bitwise_or.at(table, (rank + 1, col >> 3), (0x80 >> (col & 7)).astype(np.uint8))
    np.bitwise_or.accumulate(table, axis=0, out=table)
    return table.view(np.uint64)


def _hit_sets(tables, cuts, rows):
    """Each point's hit set in the chunk: the AND over the order rows of its
    prefix row."""
    hits = tables[0][cuts[0][rows]]
    for table, cut in zip(tables[1:], cuts[1:]):
        hits &= table[cut[rows]]
    return hits


def _far_hits(hits, feas_vals, rows, start, margin):
    """Which of the feasible points ``rows`` have a weak hit, among the
    chunk's columns from ``start`` on, that lies farther than margin."""
    first_byte = np.argmax(hits != 0, axis=1)
    byte = hits[np.arange(rows.size), first_byte]
    first = start + 8 * first_byte + _LEADING_ZEROS[byte]
    has = byte != 0
    far = np.zeros(rows.size, dtype=bool)
    far[has] = np.linalg.norm(feas_vals[rows[has]] - feas_vals[first[has]],
                              axis=1) > margin
    listed = np.flatnonzero(has & ~far)
    step = work_rows(64 * hits.shape[1])
    for lo in range(0, listed.size, step):
        sub = listed[lo:lo + step]
        pair_row, pair_col = np.nonzero(np.unpackbits(hits[sub], axis=1))
        far_pair = np.linalg.norm(feas_vals[rows[sub[pair_row]]]
                                  - feas_vals[start + pair_col], axis=1) > margin
        far[sub[pair_row[far_pair]]] = True
    return far


class RefutationResult(NamedTuple):
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
    _, _, _, pts, values, feasible = _sample_lattice(problem, lo, hi, resolution, feas_tol)
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
