"""Set-valued references for the paper's groundwork, checked by sampling.

No command runs these.  They hold the set-valued facts behind the
library's exact checks, so the tests and acceptance criteria 8 and 9 can
compare the library's merit function, fan and scenario map against them:

* the excess and Hausdorff distance of finite point sets, such as the
  (w, m) scenario images of :meth:`ScenarioMap.evaluate`;
* the vertices L_i u of a fan's value H(u) = conv{L_i u}, the fan's
  Lipschitz bound, and the distance from a point to a polytope;
* the outer-prederivative inclusion G(y) in G(x) + H(y - x) + eps |y - x| B;
* the order-Lipschitz inclusion for one pair of points;
* the transfer of weak efficiency to the penalized problem on a lattice.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from rvopt.cones import Cone, distance_many, nearest_hull_point
from rvopt.errors import DimensionError, PreconditionError
from rvopt.firstorder import Fan
from rvopt.oracle import DOMINANCE_MARGIN, _interior_gaps, _sample_lattice
from rvopt.problem import Problem
from rvopt.sampling import ball_points
from rvopt.scenarios import ScenarioMap


# ===== set distances =====================================================


def _point_set_distance(z: np.ndarray, points: np.ndarray) -> float:
    return float(np.min(np.linalg.norm(points - z[None, :], axis=1)))


def excess(points, target) -> float:
    """sup over the rows of ``points`` of the distance to ``target``.

    ``target`` may be a Cone, another array of points, or a (points, Cone)
    pair standing for the Minkowski sum of the two: the distance from z to
    {p} + C is dist(z - p, C), minimized over the points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(target, Cone):
        return float(np.max(distance_many(target, points)))
    if isinstance(target, tuple):
        base, cone = target
        diffs = points[:, None, :] - np.atleast_2d(np.asarray(base, dtype=float))
        dist = distance_many(cone, diffs.reshape(-1, points.shape[1])).reshape(diffs.shape[:-1])
        return float(np.max(np.min(dist, axis=1), initial=0.0))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    return float(max(_point_set_distance(z, target) for z in points))


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite point sets, one point a row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionError("point sets live in different spaces")
    return max(excess(a, b), excess(b, a))


# ===== fans ==============================================================


def image_vertices(fan: Fan, u) -> np.ndarray:
    """The vertices bundle[i] @ u of H(u), one row each."""
    return fan.bundle @ np.asarray(u, dtype=float).ravel()


def lipschitz_bound(fan: Fan) -> float:
    """max_i ||bundle[i]||, the largest spectral norm."""
    return float(max(np.linalg.norm(mat, 2) for mat in fan.bundle))


def polytope_distance(point, vertices) -> float:
    """Distance from a point to conv(vertices): the length of the hull
    point nearest to it (:func:`cones.nearest_hull_point` of the offsets
    v_i - point).  The nearest vertex is taken too, so exact vertex hits
    give 0."""
    point = np.asarray(point, dtype=float).ravel()
    offsets = np.atleast_2d(np.asarray(vertices, dtype=float)) - point
    best = float(np.min(np.linalg.norm(offsets, axis=1)))
    return min(best, float(np.linalg.norm(nearest_hull_point(offsets)[0])))


@dataclass(frozen=True)
class PrederivativeReport:
    residual: float
    passed: bool
    witness: np.ndarray | None


def check_outer_prederivative(scenario_map: ScenarioMap, x, fan: Fan,
                              eps: float = 0.0, radius: float = 0.5,
                              samples: int = 32, seed: int = 0,
                              tol: float = 1e-9) -> PrederivativeReport:
    """Sampled residual of the outer prederivative inclusion

        G(y)  subset of  G(x) + H(y - x) + eps |y - x| B

    over points y near x.  For affine scenario families with the full
    scenario bundle the residual is exactly zero.
    """
    x = np.asarray(x, dtype=float).ravel()
    base = scenario_map.evaluate(x)
    worst, witness = -np.inf, None
    if radius <= 0.0 or samples <= 0:
        return PrederivativeReport(residual=0.0, passed=True, witness=None)
    for y in ball_points(x, radius, samples, seed=seed):
        u = y - x
        verts = image_vertices(fan, u)
        gap = 0.0
        for z in scenario_map.evaluate(y):
            gap = max(gap, min(polytope_distance(z - q, verts) for q in base))
        slack = gap - eps * float(np.linalg.norm(u))
        if slack > worst:
            worst, witness = slack, y
    return PrederivativeReport(residual=worst, passed=worst <= tol,
                               witness=None if worst <= tol else witness)


# ===== order-Lipschitz inclusion =========================================


def order_lipschitz_holds(problem: Problem, x1, x2, ell: float,
                          tol: float = 1e-9) -> bool:
    """Direct test of the order-Lipschitz inclusion for one pair."""
    gap = float(np.linalg.norm(np.asarray(x1, float) - np.asarray(x2, float)))
    diff = problem.objective.value(x1) - problem.objective.value(x2)
    return problem.ordering_cone.contains(diff + ell * gap * problem.direction,
                                          tol=tol)


# ===== penalization transfer =============================================


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
    _, _, _, pts, values, feasible = _sample_lattice(problem, lo, hi, resolution, feas_tol)
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

    region_pts = pts[problem.region.contains_many(pts, tol=feas_tol)]
    beats = _interior_gaps(problem.ordering_cone, penalized(x[None])[0],
                           penalized(region_pts)) >= margin
    if beats.any():
        return TransferReport(passed=False, dominator=region_pts[np.argmax(beats)],
                              ell=ell, sigma=sigma)
    return TransferReport(passed=True, dominator=None, ell=ell, sigma=sigma)
