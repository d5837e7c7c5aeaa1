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

The increase samples (probes, radii, candidate steps and their scenario
images) do not depend on alpha.  They are drawn once per check or per
bisection, and each tested alpha costs only the boundary distances: one
batched distance call for the first (probe, r) pair, where a failing rate
almost always fails, then one per chunk of the remaining pairs.
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
_CHUNK_ENTRIES = 1 << 18   # entries per increase difference buffer: 2 MiB of floats


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
    samples = _increase_samples(scenario_map, region, x, radius, seed,
                                point_samples, radius_levels, step_dirs,
                                boundary_dirs)
    failed = _first_failing_pair(samples, cone, alpha, tol)
    if failed is None:
        return IncreaseReport(alpha_tested=alpha, radius=radius, passed=True,
                              witness=None, alpha_hat=alpha)
    return IncreaseReport(alpha_tested=alpha, radius=radius, passed=False,
                          witness=samples.pairs[failed], alpha_hat=1.0)


@dataclass(frozen=True)
class _IncreaseSamples:
    """The alpha-independent part of the increase check, one entry per
    (probe, r) pair in checking order: ``images[k, c, w]`` is A_w z_c + b_w
    for candidate step c of pair k (candidate 0 is the probe itself) and
    ``base[k]`` the scenario image of the probe of pair k."""

    pairs: list
    radii: np.ndarray
    images: np.ndarray
    base: np.ndarray
    sphere: np.ndarray


def _increase_samples(scenario_map, region, x, radius, seed, point_samples=12,
                      radius_levels=4, step_dirs=16, boundary_dirs=16):
    """Probes, test radii, candidate steps z = P_S(x' + r d) with their
    scenario images, and the boundary sphere."""
    if radius <= 0.0:
        raise PreconditionError("metric increase needs radius > 0")
    x = np.asarray(x, dtype=float).ravel()
    if not region.contains(x):
        raise PreconditionError("reference point is outside the region")

    probes = np.vstack([x, region.project_many(
        ball_points(x, radius, point_samples, seed=seed))])
    pairs = [(probe, radius * 0.75 / 2.0 ** k) for probe in probes
             for k in range(radius_levels)]
    starts = np.repeat(probes, radius_levels, axis=0)
    radii = np.array([r for _, r in pairs])
    step_set = sphere_directions(x.size, step_dirs, seed=seed)
    steps = region.project_many(
        (starts[:, None, :] + radii[:, None, None] * step_set).reshape(-1, x.size))
    candidates = np.concatenate([starts[:, None, :],
                                 steps.reshape(len(pairs), step_set.shape[0], x.size)], axis=1)
    # images[k, c, w] = A_w z_c + b_w, each rounded like ScenarioMap.evaluate
    images = (np.matmul(scenario_map.mats[None, None], candidates[:, :, None, :, None])[..., 0]
              + scenario_map.offsets)
    base = np.repeat([scenario_map.evaluate(p).points for p in probes], radius_levels, axis=0)
    return _IncreaseSamples(pairs=pairs, radii=radii, images=images, base=base,
                            sphere=sphere_directions(scenario_map.image_dim,
                                                     boundary_dirs, seed=seed))


def _first_failing_pair(samples, cone, alpha, tol):
    """Index of the first pair with no candidate whose enlarged images stay
    within r + tol of G(probe) + C on every sampled boundary point, or None.

    Pair 0 is tested alone, since a failing rate almost always fails there;
    the rest go in order, in chunks whose difference buffer holds at most
    _CHUNK_ENTRIES entries (but at least one pair), one distance call each.
    """
    start, stop = 0, 1
    while start < len(samples.pairs):
        r = samples.radii[start:stop]
        boundary = (samples.images[start:stop, :, :, None, :]
                    + (alpha * r)[:, None, None, None, None] * samples.sphere)
        # dist to G(x') + C = min over scenario anchors q of dist(. - q, C)
        diffs = boundary[:, :, :, :, None, :] - samples.base[start:stop, None, None, None]
        dist = distance_many(cone, diffs.reshape(-1, diffs.shape[-1])).reshape(diffs.shape[:-1])
        worst = dist.min(axis=4).max(axis=(2, 3))
        failing = np.flatnonzero(~np.any(worst <= (r + tol)[:, None], axis=1))
        if failing.size:
            return start + int(failing[0])
        start, stop = stop, min(len(samples.pairs),
                                stop + max(1, _CHUNK_ENTRIES // diffs[0].size))
    return None


def estimate_increase_bound(scenario_map: ScenarioMap, cone: Cone,
                            region: PolyhedralSet, x, radius: float,
                            resolution: float = 0.01, seed: int = 0,
                            tol: float = 1e-9, **sample_kwargs) -> float | None:
    """Largest alpha passing the sampled increase check, by bisection.

    The samples do not depend on alpha, so they are drawn, projected and
    mapped once (``sample_kwargs`` as in ``check_metric_increase``); each
    tested alpha costs only its boundary distances.  Returns None when
    even alpha slightly above 1 fails, in which case no descent constant
    can be certified from these samples.
    """
    samples = _increase_samples(scenario_map, region, x, radius, seed,
                                **sample_kwargs)

    def passes(alpha: float) -> bool:
        return _first_failing_pair(samples, cone, alpha, tol) is None

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

    in_region = region.contains_many(pts)
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
        diff *= diff             # squared in place: one block-sized buffer
        dist = np.sqrt(np.min(diff.sum(axis=2), axis=1))
        viol = dist - sample_phi[chunk:chunk + 256] / sigma - slack
        k = int(np.argmax(viol))
        if viol[k] > worst:
            worst, witness = float(viol[k]), block[k]
    passed = worst <= tol
    return ErrorBoundReport(sigma=sigma, radius=radius, slack=slack,
                            max_violation=worst, passed=passed,
                            witness=None if passed else witness)
