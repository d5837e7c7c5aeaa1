"""Polyhedral convex cones in three representations.

A cone is stored as one of

* ``orthant``     -- the nonnegative orthant of R^dim,
* ``halfspaces``  -- {z : m_j . z >= 0 for every row m_j},
* ``rays``        -- {sum_i lam_i r_i : lam >= 0} for generators r_i.

Rows and generators are unit-normalized at construction.  Projections are
exact: clamping for the orthant, and one Lawson-Hanson active-set solver
for nonnegative least squares (:func:`_nnls`) otherwise.  That solver takes
a batch of points and runs their active-set steps in lockstep: one matrix
product pairs every live residual with the generators, and the
least-squares solves are grouped by free set, one ``lstsq`` call per
group.  :func:`project_many` and :func:`distance_many` hand it whole
batches; a one-row call, such as :meth:`Cone.project`, runs the plain
one-point loop :func:`_nnls_row`, whose arithmetic is the lockstep path's
on a single row.  A ray cone is projected by solving for its generator
coefficients directly.  A halfspace cone K uses Moreau's decomposition
z = P_K(z) + P_{K°}(z), whose polar K° = cone{-m_j} is a ray cone.
Least-distance programming (:func:`least_distance`) reduces every other
Euclidean projection in the library to the same solver: onto a polyhedral
region, and onto the convex hull of finitely many points plus the cone of
others (:func:`nearest_hull_point`).  The certificates' programs, max-margin,
fan-cone and column generation, run on it through :func:`nearest_hull_point`.
Dual cones follow the polyhedral duality
``({z : m_j.z >= 0})^- = cone{-m_j}`` and its converse.  Every kind has
facet rows (:meth:`Cone.facets`): by Minkowski-Weyl the facet normals of
cone(G) generate its positive dual {y : G y >= 0}, which double
description (:func:`cone_generators`) enumerates once per cone, within
its generator cap.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ConvergenceError, DimensionError, RepresentationError

ORTHANT = "orthant"
HALFSPACES = "halfspaces"
RAYS = "rays"

PROJECTION_TOL = 1e-10
PROJECTION_BUDGET = 10_000
GENERATOR_CAP = 64
# Working-buffer budget of the lattice kernels: merit row blocks, the error
# bound's distance passes and tie shells, the dominance pass's prefix tables
# and hit sets, and the increase check's difference chunks.  Buffers this small stay in
# cache and are reused by the allocator instead of being faulted in afresh;
# 256 KiB measured faster than 512 KiB on the benchmark's lattice workload.
WORK_BYTES = 1 << 18


def work_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes fit WORK_BYTES; at least one."""
    return max(1, WORK_BYTES // row_bytes)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _unit_rows(rows: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows scaled to unit length, and the divisors used.  A row whose
    norm is within 4 eps of 1 is divided by 1, so that a second
    normalization (a saved and reloaded problem) changes no bit.  A finite
    row whose sum of squares overflows gets :func:`_rescale`'s norm."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        big = np.flatnonzero(np.isinf(norms))
        if big.size:
            _rescale(norms, big, rows[big])
    if np.any(norms < 1e-12):
        raise ValueError(f"{label}: zero row")
    norms = np.where(np.abs(norms - 1.0) <= 4.0 * np.finfo(float).eps, 1.0, norms)
    return rows / norms[:, None], norms


@dataclass(frozen=True)
class Cone:
    """A polyhedral convex cone; build via :meth:`orthant`, :meth:`halfspaces`
    or :meth:`rays`."""

    kind: str
    dim: int
    rows: np.ndarray | None = None
    gens: np.ndarray | None = None

    # ----- constructors ---------------------------------------------------

    @classmethod
    def orthant(cls, dim: int) -> "Cone":
        if dim < 1:
            raise DimensionError("orthant needs dim >= 1")
        return cls(kind=ORTHANT, dim=dim)

    @classmethod
    def halfspaces(cls, rows) -> "Cone":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            raise DimensionError("halfspaces: cannot infer dimension from no rows; "
                                 "use whole_space(dim)")
        rows, _ = _unit_rows(rows, "halfspaces")
        return cls(kind=HALFSPACES, dim=rows.shape[1], rows=_readonly(rows))

    @classmethod
    def whole_space(cls, dim: int) -> "Cone":
        """The halfspace representation with no rows: all of R^dim."""
        if dim < 1:
            raise DimensionError("whole_space needs dim >= 1")
        return cls(kind=HALFSPACES, dim=dim, rows=_readonly(np.zeros((0, dim))))

    @classmethod
    def rays(cls, gens, dim: int | None = None) -> "Cone":
        gens = np.asarray(gens, dtype=float)
        if gens.size == 0:
            if dim is None:
                raise DimensionError("rays: need dim for the trivial cone {0}")
            return cls(kind=RAYS, dim=dim, gens=_readonly(np.zeros((0, dim))))
        gens, _ = _unit_rows(gens, "rays")
        return cls(kind=RAYS, dim=gens.shape[1], gens=_readonly(gens))

    # ----- basic queries --------------------------------------------------

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.dim:
            raise DimensionError(f"expected dim {self.dim}, got {z.size}")
        return z

    def contains(self, z, tol: float = 1e-9) -> bool:
        """Membership within an absolute tolerance on unit-normalized data."""
        z = self._check_dim(z)
        if self.kind == ORTHANT:
            return bool(np.min(z) >= -tol)
        if self.kind == HALFSPACES:
            if self.rows.shape[0] == 0:
                return True
            return bool(np.min(self.rows @ z) >= -tol)
        return self.distance(z) <= tol

    def interior_contains(self, z, margin: float) -> bool:
        """True when a ball of radius ``margin`` around z fits in the cone;
        unit facet rows make the row values Euclidean margins."""
        z = self._check_dim(z)
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        return bool(np.min(self.facets() @ z, initial=np.inf) >= margin)

    def facets(self) -> np.ndarray:
        """Unit rows m_j with cone = {z : m_j . z >= 0}; they generate the
        positive dual.  Read-only and computed once per cone."""
        return self._facets

    @cached_property
    def _facets(self) -> np.ndarray:
        if self.kind == ORTHANT:
            return _readonly(np.eye(self.dim))
        if self.kind == HALFSPACES:
            return self.rows
        # the dual of {0} is the whole space
        dual = Cone.halfspaces(self.gens) if self.gens.shape[0] else Cone.whole_space(self.dim)
        return _readonly(cone_generators(dual))

    # ----- projection and distance ---------------------------------------

    def project(self, z) -> np.ndarray:
        """Euclidean projection onto the cone (one row of :func:`project_many`)."""
        return project_many(self, self._check_dim(z))[0]

    def distance(self, z) -> float:
        """Distance to the cone (one row of :func:`distance_many`)."""
        return float(distance_many(self, self._check_dim(z))[0])

    # ----- duality --------------------------------------------------------

    def negative_dual(self) -> "Cone":
        """{y : <y, z> <= 0 for all z in the cone}."""
        if self.kind != RAYS:
            return Cone.rays(-self.facets(), dim=self.dim)
        if self.gens.shape[0] == 0:
            return Cone.whole_space(self.dim)
        return Cone.halfspaces(-self.gens)

    # ----- preimages ------------------------------------------------------

    def linear_preimage(self, mat) -> "Cone":
        """The cone {v : mat @ v in self}, as a halfspace cone."""
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        if mat.shape[0] != self.dim:
            raise DimensionError("matrix rows must match cone dim")
        rows = preimage_rows(self, mat[None])[0]
        return Cone.halfspaces(rows) if rows.shape[0] else Cone.whole_space(mat.shape[1])

    # ----- serialization hooks (see docio) --------------------------------

    def to_document(self) -> dict:
        if self.kind == ORTHANT:
            return {"kind": ORTHANT, "dim": self.dim}
        if self.kind == HALFSPACES:
            return {"kind": HALFSPACES, "dim": self.dim,
                    "rows": self.rows.tolist()}
        return {"kind": RAYS, "dim": self.dim, "gens": self.gens.tolist()}


def preimage_rows(cone: Cone, mats: np.ndarray):
    """Unit rows of {v : A v in cone for every matrix A of the (w, dim, n)
    stack ``mats``}: the facet rows times every matrix in one stacked
    product (the matrices themselves for the orthant), zero rows dropped
    with one warning.  Returns the rows, their divisors and the (w, facet
    count) mask of the products kept: row i is m_j A_w / norms[i] for the
    i-th kept (w, j)."""
    rows = mats if cone.kind == ORTHANT else np.matmul(cone.facets(), mats)
    keep = np.linalg.norm(rows, axis=2) >= 1e-12
    if not np.all(keep):
        warnings.warn("preimage dropped zero rows; result may not be proper", stacklevel=2)
    return (*_unit_rows(rows[keep], "preimage"), keep)


# ===== generator enumeration =============================================


def cone_generators(cone: Cone, cap: int = GENERATOR_CAP) -> np.ndarray:
    """A finite generating set of a polyhedral cone.

    Ray cones return their stored generators; the orthant returns the
    axes; halfspace cones are converted by double description: a basis
    (both signs) of the lineality space plus the extreme rays of the
    pointed part, found by enumerating row subsets.
    """
    if cone.kind == RAYS:
        return np.array(cone.gens)
    if cone.kind == ORTHANT:
        return np.eye(cone.dim)
    rows, dim = cone.rows, cone.dim
    if rows.shape[0] == 0:
        return np.vstack([np.eye(dim), -np.eye(dim)])

    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-10))
    gens = [sign * b for b in vt[rank:] for sign in (1.0, -1.0)]

    comp = vt[:rank]
    reduced = rows @ comp.T
    if rank == 1:
        for sign in (1.0, -1.0):
            if np.min(reduced * sign) >= -1e-9:
                gens.append(sign * comp[0])
    elif rank > 1:
        for subset in combinations(range(reduced.shape[0]), rank - 1):
            sub = reduced[list(subset)]
            _, s2, vt2 = np.linalg.svd(sub)
            if int(np.sum(s2 > 1e-10)) != rank - 1:
                continue
            w = vt2[-1]
            for sign in (1.0, -1.0):
                cand = sign * w
                if np.min(reduced @ cand) >= -1e-9:
                    g = cand @ comp
                    norm = float(np.linalg.norm(g))
                    if norm < 1e-12:
                        continue
                    g = g / norm
                    if not any(np.linalg.norm(g - h) < 1e-9 for h in gens):
                        gens.append(g)
    if len(gens) > cap:
        raise RepresentationError(f"generator enumeration exceeded cap {cap}")
    return np.array(gens) if gens else np.zeros((0, dim))


def _gemv(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mat @ row`` for every row, as one matrix-vector product per row, so
    each result rounds exactly like the one-row product."""
    return np.matmul(mat[None], rows[:, :, None])[:, :, 0]


def _norms(rows: np.ndarray) -> np.ndarray:
    """Row norms, each rounded like ``np.linalg.norm`` of that row, except
    where the sum of squares of a finite row overflows (:func:`_rescale`)."""
    with np.errstate(over="ignore"):
        out = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
        big = np.flatnonzero(np.isinf(out))
        if big.size:
            _rescale(out, big, rows[big])
    return out


def _rescale(norms: np.ndarray, index: np.ndarray, rows: np.ndarray):
    """Recompute ``norms[index]``, infinite norms of ``rows``, as s |row / s|
    with s the row's largest absolute entry, for the rows that are finite:
    their sum of squares overflowed (past about 1.34e154), not their norm.
    The scaled squares are summed one column at a time, in order.  Call
    under ``np.errstate(over="ignore")``: a norm can still overflow."""
    finite = np.isfinite(rows).all(axis=1)
    rows = rows[finite]
    scale = np.abs(rows).max(axis=1)
    total = np.zeros(rows.shape[0])
    for column in (rows / scale[:, None]).T:
        total += column * column
    norms[index[finite]] = scale * np.sqrt(total)


def _solve_groups(gens: np.ndarray, points: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Least-squares coefficients on each row's free set, one ``lstsq`` call
    per distinct free-set pattern with all of its rows as right-hand sides."""
    trial = np.zeros(free.shape)
    rest = np.arange(free.shape[0])
    while rest.size:
        pattern = free[rest[0]]
        same = (free[rest] == pattern).all(axis=1)
        group, cols = rest[same], np.flatnonzero(pattern)
        trial[group[:, None], cols] = np.linalg.lstsq(gens[cols].T, points[group].T,
                                                      rcond=None)[0].T
        rest = rest[~same]
    return trial


def _nnls(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set NNLS, argmin_{lam >= 0} ||gens.T lam - z||,
    for every row z of ``points``; returns one coefficient row per point.

    The rows run in lockstep.  Each entering step pairs every live row's
    residual with the generators at once, retires the rows whose pairings
    are all <= PROJECTION_TOL * |z|, and enters each other row's largest
    pairing into its free set.  The least-squares solves that follow are
    grouped by free-set pattern (:func:`_solve_groups`); interpolation
    steps back to lam >= 0 drop the coefficients reaching zero.  A row
    whose entering coefficient is <= 0 on its first solve is optimal: the
    entering pairing was rounding noise.  The result is exact up to
    rounding, and each row rounds as it would alone, in :func:`_nnls_row`,
    while the dimension and free-set size stay below 8 (LAPACK takes a
    blocked path for larger solves with several right-hand sides).  A
    single point skips the lockstep bookkeeping and runs that loop.  The
    tolerance must stay well above rounding, or dependent generators can
    enter the free set and the steps cycle.  Raises ConvergenceError after
    PROJECTION_BUDGET entering steps, carrying the point gens.T lam of the
    first unfinished row and its largest pairing.
    """
    if points.shape[0] == 1:
        return _nnls_row(gens, points[0])[None]
    out = np.zeros((points.shape[0], gens.shape[0]))
    # live rows: their indices, points, tolerances, coefficients, free sets
    rows, z = np.arange(points.shape[0]), points
    tol = PROJECTION_TOL * _norms(points)
    lam, free = out.copy(), out > 0.0
    for _ in range(PROJECTION_BUDGET):
        pairing = _gemv(gens, z - _gemv(gens.T, lam))
        pairing[free] = -np.inf
        done = (pairing <= tol[:, None]).all(axis=1)
        if done.any():
            out[rows[done]] = lam[done]
            go = ~done
            rows, z, tol, lam, free, pairing = (rows[go], z[go], tol[go], lam[go],
                                                free[go], pairing[go])
        if rows.size == 0:
            return out
        enter = pairing.argmax(axis=1)
        free[np.arange(rows.size), enter] = True
        done = _descend(gens, z, lam, free, enter)
        if done.any():
            out[rows[done]] = lam[done]
            go = ~done
            rows, z, tol, lam, free = rows[go], z[go], tol[go], lam[go], free[go]
            if rows.size == 0:
                return out
    point = gens.T @ lam[0]
    raise ConvergenceError("active-set NNLS exceeded its budget", last_iterate=point,
                           residual=float(np.max(gens @ (z[0] - point), initial=0.0)))


def _nnls_row(gens: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`_nnls` for the one point z: the textbook Lawson-Hanson loop.
    Every step is the lockstep path's arithmetic on a single row, one
    one-column ``lstsq`` per least-squares solve, so the two round alike."""
    tol = PROJECTION_TOL * _norms(z[None])[0]
    lam, free = np.zeros(gens.shape[0]), np.zeros(gens.shape[0], dtype=bool)
    for _ in range(PROJECTION_BUDGET):
        pairing = gens @ (z - gens.T @ lam)
        pairing[free] = -np.inf
        if (pairing <= tol).all():
            return lam
        enter = pairing.argmax()
        free[enter] = True
        trial = _solve_row(gens, z, free)
        if trial[enter] <= 0.0:
            return lam           # the entering pairing was rounding noise
        blocked = free & (trial <= 0.0)
        while blocked.any():
            ratios = np.full(lam.shape, np.inf)
            ratios[blocked] = lam[blocked] / (lam[blocked] - trial[blocked])
            drop = ratios.argmin()
            lam += ratios.min() * (trial - lam)
            lam[drop] = 0.0
            free &= lam > 0.0
            lam[~free] = 0.0
            trial = _solve_row(gens, z, free)
            blocked = free & (trial <= 0.0)
        lam = trial
    point = gens.T @ lam
    raise ConvergenceError("active-set NNLS exceeded its budget", last_iterate=point,
                           residual=float(np.max(gens @ (z - point), initial=0.0)))


def _solve_row(gens: np.ndarray, z: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of z on the free generators, zero elsewhere."""
    trial = np.zeros(free.shape)
    cols = np.flatnonzero(free)
    trial[cols] = np.linalg.lstsq(gens[cols].T, z[:, None], rcond=None)[0][:, 0]
    return trial


def _descend(gens, z, lam, free, enter) -> np.ndarray:
    """The least-squares and interpolation steps after an entering step,
    updating ``lam`` and ``free`` in place.  Returns a mask of the rows the
    rounding guard finished, whose ``lam`` is left as it was."""
    trial = _solve_groups(gens, z, free)
    noise = trial[np.arange(z.shape[0]), enter] <= 0.0
    step = (free & (trial <= 0.0)).any(axis=1) & ~noise
    accept = ~(step | noise)
    lam[accept] = trial[accept]
    act = np.flatnonzero(step)       # rows that need interpolation steps
    trial = trial[act]
    while act.size:
        cur, on = lam[act], free[act]
        blocked = on & (trial <= 0.0)
        ratios = np.full(cur.shape, np.inf)
        ratios[blocked] = cur[blocked] / (cur[blocked] - trial[blocked])
        drop = ratios.argmin(axis=1)
        cur += ratios.min(axis=1)[:, None] * (trial - cur)
        cur[np.arange(act.size), drop] = 0.0
        on &= cur > 0.0
        cur[~on] = 0.0
        lam[act], free[act] = cur, on
        trial = _solve_groups(gens, z[act], on)
        step = (on & (trial <= 0.0)).any(axis=1)
        lam[act[~step]] = trial[~step]
        act, trial = act[step], trial[step]
    return noise


def least_distance(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-distance programming, min ||y|| s.t. g y >= h (Lawson & Hanson
    1974, ch. 23), as one :func:`_nnls` call with generators [g | h] and
    target e_{n+1}.  Returns u >= 0 and r = [g | h].T u - e_{n+1}.  Since
    ||r||^2 = -r[n], y = -r[:n] / r[n] when r[n] < 0; r = 0 means g y >= h
    is inconsistent."""
    gens = np.column_stack([g, h])
    target = np.zeros((1, gens.shape[1]))
    target[0, -1] = 1.0
    u = _nnls(gens, target)[0]
    return u, gens.T @ u - target[0]


def least_distance_point(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray | None,
                                                                  np.ndarray]:
    """The shortest y with g y >= h by :func:`least_distance`, or None when
    the system is inconsistent: r = 0 up to rounding in u . |h|; returned
    with the multipliers u, which then make g^T u ~ 0 < h . u.  Since
    -r[n] = 1 / (1 + |y|^2), the rule tells consistent systems apart only
    while |y| stays well below PROJECTION_TOL^(-1/2) = 1e5; callers pose
    their programs so the least-norm point is of order one."""
    u, r = least_distance(g, h)
    if -r[-1] <= PROJECTION_TOL * float(u @ np.abs(h)):
        return None, u
    return -r[:-1] / r[-1], u


def nearest_hull_point(points: np.ndarray, rays: np.ndarray | None = None):
    """The point p of conv(points) + cone(rays) nearest to 0, with its
    weights: p = points.T lam + rays.T mu, lam on the simplex and mu >= 0.
    Least-distance programming over [points; rays] y >= [1; 0]
    (:func:`least_distance`) gives u, and dividing u by the sum of its
    points part gives lam and mu, so p is r[:n] / that sum (Lawson & Hanson
    1974, ch. 23).  Nothing divides by r[n], so p stays accurate however
    close to 0 it lies; when 0 is in the set it is rounding noise."""
    count = points.shape[0]
    rays = np.zeros((0, points.shape[1])) if rays is None else rays
    u, r = least_distance(np.vstack([points, rays]),
                          np.concatenate([np.ones(count), np.zeros(rays.shape[0])]))
    total = float(np.sum(u[:count]))
    return r[:-1] / total, u[:count] / total, u[count:] / total


def project_many(cone: Cone, points: np.ndarray) -> np.ndarray:
    """Projections of the rows of ``points`` onto the cone, in one batched
    NNLS call for halfspace and ray cones."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if cone.kind == ORTHANT:
        return np.maximum(points, 0.0)
    if cone.kind == HALFSPACES:
        # Moreau: P_K(z) = z - P_{K°}(z), the polar K° = cone{-m_j} being a ray cone
        return points + _gemv(cone.rows.T, _nnls(-cone.rows, points))
    return _gemv(cone.gens.T, _nnls(cone.gens, points))


def distance_many(cone: Cone, points: np.ndarray) -> np.ndarray:
    """Distances from the rows of ``points`` to the cone: a clamp for the
    orthant, one batched NNLS call (:func:`project_many`) otherwise.

    The orthant's squared clamped coordinates are summed one column at a
    time, in order, in one buffer; numpy's row reduction adds rows shorter
    than 8 entries in that same order, so below width 8 each distance equals
    ``np.linalg.norm(np.minimum(row, 0), axis=1)`` bit for bit (wider rows,
    which numpy sums pairwise, get the plain sequential sum), except where
    the squares of a finite row overflow (:func:`_rescale`).  The NNLS
    branch works on a C-ordered copy of a transposed or strided ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if cone.kind == ORTHANT:
        total, part = np.zeros(points.shape[0]), np.empty(points.shape[0])
        with np.errstate(over="ignore"):
            for column in points.T:
                np.minimum(column, 0.0, out=part)
                part *= part
                total += part
            np.sqrt(total, out=total)
            big = np.flatnonzero(np.isinf(total))
            if big.size:
                _rescale(total, big, np.minimum(points[big], 0.0))
        return total
    points = np.ascontiguousarray(points)
    return _norms(points - project_many(cone, points))
