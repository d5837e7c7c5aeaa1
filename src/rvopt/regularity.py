"""Metric increase checks and local error bounds for the merit function.

A constraint family is metrically increasing (with rate alpha > 1) near a
reference point when small moves inside the ambient region can push the
whole scenario image a factor alpha deeper into the constraint cone:
for points x near the reference and small r there must be a witness
z in B(x, r) with

    B(G(z), alpha r)  contained in  B(G(x) + C, r).

The largest certified alpha yields the descent constant sigma = alpha - 1
for the scaled merit function, which then bounds the distance to the
feasible region:  dist(x, Solv) <= merit(x) / sigma  near the reference.
Both facts are checked by sampling: the inclusion on boundary spheres of
the enlarged images, the error bound on a lattice approximation of Solv.
"""

from dataclasses import dataclass

import numpy as np

from .cones import Cone, distance_many
from .errors import PreconditionError
from .firstorder import PolyhedralSet
from .sampling import ball_points, grid_points, sphere_directions
from .scenarios import ScenarioMap

INCREASE_FLOOR = 1.0 + 1e-3
INCREASE_CAP = 10.0


@dataclass(frozen=True)
class IncreaseReport:
    alpha_tested: float
    radius: float
    passed: bool
    witness: tuple | None
    alpha_hat: float


@dataclass(frozen=True)
class ErrorBoundReport:
    sigma: float
    radius: float
    slack: float
    max_violation: float
    passed: bool
    witness: np.ndarray | None


def check_metric_increase(scenario_map: ScenarioMap, cone: Cone,
                          region: PolyhedralSet, x, alpha: float,
                          radius: float, point_samples: int = 12,
                          radius_levels: int = 4, step_dirs: int = 16,
                          boundary_dirs: int = 16, seed: int = 0,
                          tol: float = 1e-9) -> IncreaseReport:
    """Sampled test of the metric increase property at rate ``alpha``.

    For every sampled (x', r) the checker looks for a step z = P_S(x' + r d)
    whose enlarged image ball stays inside B(G(x') + C, r); the boundary
    spheres of the enlarged images are sampled with a fixed direction set.
    Failure reports the first (x', r) pair with no passing step.
    """
    if alpha <= 1.0:
        raise PreconditionError("metric increase needs alpha > 1")
    if radius <= 0.0:
        raise PreconditionError("metric increase needs radius > 0")
    x = np.asarray(x, dtype=float).ravel()
    if not region.contains(x):
        raise PreconditionError("reference point is outside the region")

    probes = [x] + [region.project(p)
                    for p in ball_points(x, radius, point_samples, seed=seed)]
    test_radii = [radius * 0.75 / 2.0 ** k for k in range(radius_levels)]
    step_set = sphere_directions(x.size, step_dirs, seed=seed)
    sphere = sphere_directions(scenario_map.image_dim, boundary_dirs, seed=seed)

    for probe in probes:
        base = scenario_map.evaluate(probe).points
        for r in test_radii:
            if _increase_witness(scenario_map, cone, region, probe, base,
                                 alpha, r, step_set, sphere, tol) is None:
                return IncreaseReport(alpha_tested=alpha, radius=radius,
                                      passed=False, witness=(probe, r),
                                      alpha_hat=1.0)
    return IncreaseReport(alpha_tested=alpha, radius=radius, passed=True,
                          witness=None, alpha_hat=alpha)


def _increase_witness(scenario_map, cone, region, probe, base, alpha, r,
                      step_set, sphere, tol):
    candidates = [probe] + [region.project(probe + r * d) for d in step_set]
    shift = alpha * r * sphere
    for z in candidates:
        images = scenario_map.evaluate(z).points
        worst = 0.0
        ok = True
        for g in images:
            boundary = g[None, :] + shift
            # dist to G(x') + C = min over scenario anchors of cone distance
            dist = np.full(boundary.shape[0], np.inf)
            for q in base:
                np.minimum(dist, distance_many(cone, boundary - q[None, :]), out=dist)
            worst = max(worst, float(np.max(dist)))
            if worst > r + tol:
                ok = False
                break
        if ok and worst <= r + tol:
            return z
    return None


def estimate_increase_bound(scenario_map: ScenarioMap, cone: Cone,
                            region: PolyhedralSet, x, radius: float,
                            resolution: float = 0.01, seed: int = 0,
                            **check_kwargs) -> float | None:
    """Largest alpha passing the sampled increase check, by bisection.

    Returns None when even alpha slightly above 1 fails, in which case no
    descent constant can be certified from these samples.
    """
    def passes(alpha: float) -> bool:
        return check_metric_increase(scenario_map, cone, region, x, alpha,
                                     radius, seed=seed, **check_kwargs).passed

    if not passes(INCREASE_FLOOR):
        return None
    if passes(INCREASE_CAP):
        return INCREASE_CAP
    lo, hi = INCREASE_FLOOR, INCREASE_CAP
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def cq_sigma(alpha_hat: float) -> float:
    """Descent constant sigma = alpha_hat - 1 from an increase estimate."""
    if alpha_hat is None or alpha_hat <= 1.0:
        raise PreconditionError("increase estimate must exceed 1")
    return float(alpha_hat) - 1.0


def verify_error_bound(scenario_map: ScenarioMap, cone: Cone,
                       region: PolyhedralSet, x, sigma: float, radius: float,
                       resolution: int = 101, feas_tol: float = 1e-9,
                       tol: float = 1e-9) -> ErrorBoundReport:
    """Lattice check of  dist(., Solv) <= merit(.) / sigma  near ``x``.

    Solv is approximated by the feasible sublattice of the radius box; the
    comparison gets a slack of two lattice spacings to absorb the
    discretization.  Points are tested inside the half-radius ball, the
    localization under which the bound is justified.
    """
    if sigma <= 0.0:
        raise PreconditionError("sigma must be positive")
    x = np.asarray(x, dtype=float).ravel()
    pts = grid_points(x - radius, x + radius, resolution)
    spacing = 2.0 * radius / (resolution - 1)
    slack = 2.0 * spacing

    in_region = np.array([region.contains(p) for p in pts])
    phi = scenario_map.merit_many(cone, pts)
    solv = pts[in_region & (phi <= feas_tol)]
    if solv.shape[0] == 0:
        raise PreconditionError("no feasible lattice points within the radius")

    close = np.linalg.norm(pts - x[None, :], axis=1) <= radius / 2.0
    tested = in_region & close
    sample_pts = pts[tested]
    sample_phi = phi[tested]

    worst, witness = -np.inf, None
    for chunk in range(0, sample_pts.shape[0], 256):
        block = sample_pts[chunk:chunk + 256]
        diff = block[:, None, :] - solv[None, :, :]
        dist = np.min(np.linalg.norm(diff, axis=2), axis=1)
        viol = dist - sample_phi[chunk:chunk + 256] / sigma - slack
        k = int(np.argmax(viol))
        if viol[k] > worst:
            worst, witness = float(viol[k]), block[k]
    passed = worst <= tol
    return ErrorBoundReport(sigma=sigma, radius=radius, slack=slack,
                            max_violation=worst, passed=passed,
                            witness=None if passed else witness)
