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
Solv is polyhedral, so the report takes sigma instead from the exact
local Hoffman modulus of its active rows (:func:`local_error_bound`); the
sampled checks stay as independent checks of it.

The increase samples (probes, radii, candidate steps and their scenario
images) do not depend on alpha.  They are drawn once per check or per
bisection, and each tested alpha costs only the boundary distances.  The
first (probe, r) pair is tested with every candidate step; a failing rate
almost always fails there.  Its first passing step, one direction of the
shared step set, almost always passes the other pairs too, so only that
step is tested on them, and every step only on the pairs it leaves open.
Whether some step passes is still decided exactly for every pair.

The error bound needs the distance from each tested lattice point to the
feasible sublattice.  An exact separable distance transform gives every
lattice point its integer squared index distance D to that sublattice,
with O(N R n) integer work for N lattice points, R per axis, in place of
the O(N |Solv|) float work of comparing every pair.  Feasible points at a
larger integer distance are at least one squared spacing farther away,
far more than any rounding error.  So the float distance is the minimum
over the feasible points at exactly D, and it equals, bit for bit, the
minimum over every feasible point.
"""

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from .cones import Cone, distance_many
from .errors import PreconditionError
from .firstorder import ACTIVE_TOL, PolyhedralSet
from .problem import Problem, max_margin_point
from .sampling import ball_points, grid_points, sphere_directions
from .scenarios import ScenarioMap

INCREASE_FLOOR = 1.0 + 1e-3
INCREASE_CAP = 10.0
SUBSET_BUDGET = 256        # bases of the active rows the modulus may try
_CHUNK_ENTRIES = 1 << 18   # entries per difference or distance buffer: 2 MiB


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

    Pair 0 is tested with all of its candidates; a failing rate almost
    always fails there.  Otherwise its first passing candidate c, one step
    direction of the shared step set, almost always passes every other
    pair too, so candidate c is tested on the remaining pairs, and all
    candidates only on the pairs that c leaves open.  Each pair's "some
    candidate passes" is still decided exactly, so the verdict and the
    witness are those of testing every candidate of every pair in order.
    """
    every = slice(None)
    _, passes = next(_candidate_passes(samples, cone, alpha, tol, np.arange(1), every))
    if not passes.any():
        return 0
    c = int(np.argmax(passes[0]))
    rest = np.arange(1, len(samples.pairs))
    open_pairs = np.concatenate(
        [rest[:0]] + [chunk[~passes[:, 0]] for chunk, passes in
                      _candidate_passes(samples, cone, alpha, tol, rest, slice(c, c + 1))])
    for chunk, passes in _candidate_passes(samples, cone, alpha, tol, open_pairs, every):
        failing = chunk[~passes.any(axis=1)]
        if failing.size:
            return int(failing[0])
    return None


def _candidate_passes(samples, cone, alpha, tol, pairs, candidates):
    """Yield (chunk, passes) over the index array ``pairs`` in order, where
    ``passes[i, j]`` tells whether candidate j of the slice ``candidates``
    keeps the enlarged images of pair chunk[i] within r + tol of its
    G(probe) + C on every sampled boundary point.  Chunks hold at most
    _CHUNK_ENTRIES difference entries (but at least one pair), one
    distance call each."""
    images = samples.images[:, candidates]
    per_pair = images[0].size * samples.sphere.shape[0] * samples.base.shape[1]
    step = max(1, _CHUNK_ENTRIES // per_pair)
    for start in range(0, pairs.size, step):
        chunk = pairs[start:start + step]
        r = samples.radii[chunk]
        boundary = (images[chunk, :, :, None, :]
                    + (alpha * r)[:, None, None, None, None] * samples.sphere)
        # dist to G(x') + C = min over scenario anchors q of dist(. - q, C)
        diffs = boundary[:, :, :, :, None, :] - samples.base[chunk, None, None, None]
        dist = distance_many(cone, diffs.reshape(-1, diffs.shape[-1])).reshape(diffs.shape[:-1])
        yield chunk, dist.min(axis=4).max(axis=(2, 3)) <= (r + tol)[:, None]


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


class LocalErrorBound(NamedTuple):
    """Outcome of :func:`local_error_bound`; ``active_rows`` index the rows
    of :attr:`Problem.solv_rows`.  A NamedTuple, as building a frozen
    dataclass costs about 1 ms at every import."""

    established: bool
    sigma: float | None
    radius: float | None
    active_rows: tuple
    subsets: int
    notes: tuple = ()


def local_error_bound(problem: Problem, x) -> LocalErrorBound:
    """dist(z, Solv) <= merit(z) / sigma for region points z within the
    radius rho / 2 of x, sigma the exact local Hoffman modulus of Solv =
    {z : G z <= h} (Hoffman 1952; Pena, Vera & Zuluaga, Math. Program. 2021).

    Rows with slack at most ACTIVE_TOL are active, and rho is the least
    slack / |row| of the others (radius None: no row is inactive).  The
    projection p of such a z onto Solv lies within rho of x, and z - p =
    sum lam_j G_j over rows active at p, so |z - p|^2 <= merit(z) L, L the
    C-row weight, while |z - p| >= L sigma for sigma = dist(0, conv(active
    C rows) + cone(active region rows)), one :func:`max_margin_point` call.
    With no active C row merit is 0 on the radius and sigma is None.  When
    the distance reads as 0 the weights can be taken on linearly independent
    rows (Caratheodory): sigma is the least distance over the bases of the
    active rows that hold a C row, if there are at most SUBSET_BUDGET, and
    otherwise the bound is not established."""
    x = np.asarray(x, dtype=float).ravel()
    g, h, count = problem.solv_rows
    slack = h - g @ x
    on = slack <= ACTIVE_TOL
    rho = float(np.min(slack[~on] / np.linalg.norm(g[~on], axis=1), initial=np.inf))
    active = np.flatnonzero(on)
    bound = functools.partial(LocalErrorBound, radius=rho / 2.0 if rho < np.inf else None,
                              active_rows=tuple(active.tolist()))
    if not np.any(active < count):
        return bound(True, None, subsets=0,
                     notes=("no constraint row is active: merit is 0 on the radius",))

    def modulus(rows):
        return max_margin_point(g[rows[rows < count]], x.size, g[rows[rows >= count]])[0]

    sigma = modulus(active)
    if sigma > 0.0:
        return bound(True, sigma, subsets=0)
    rank = np.linalg.matrix_rank(g[active])
    if comb(active.size, rank) > SUBSET_BUDGET:
        return bound(False, None, subsets=0, notes=(
            f"not established: over {SUBSET_BUDGET} subsets of {rank} active rows",))
    bases = [np.array(b) for b in combinations(active.tolist(), rank)
             if b[0] < count and np.linalg.matrix_rank(g[list(b)]) == rank]
    sigma = min(map(modulus, bases))
    if sigma > 0.0:
        return bound(True, sigma, subsets=len(bases))
    return bound(False, None, subsets=len(bases),
                 notes=("not established: a basis of the active rows reads as degenerate",))


def verify_error_bound(scenario_map: ScenarioMap, cone: Cone,
                       region: PolyhedralSet, x, sigma: float, radius: float,
                       resolution: int = 101, feas_tol: float = 1e-9,
                       tol: float = 1e-9) -> ErrorBoundReport:
    """Lattice check of  dist(., Solv) <= merit(.) / sigma  near ``x``.

    Solv is approximated by the feasible sublattice of the radius box; the
    comparison gets a slack of two lattice spacings to absorb the
    discretization.  Points are tested inside the half-radius ball, the
    localization under which the bound is justified.

    The distances equal, bit for bit, those of a comparison with every
    feasible point.  An exact distance transform gives each lattice point
    its squared index distance D to the feasible sublattice
    (``_distance_passes``).  Every feasible point at a larger integer
    distance is then at least spacing^2 farther away in squared Euclidean
    distance, far more than any rounding error, so the nearest feasible
    points are among the tie shell: the feasible points at an integer
    offset o with |o|^2 = D.  The float distance is the smallest one over
    the tie shell (``_tie_shell_min``), computed with the same arithmetic
    as a comparison with every point.  The witness is the first largest
    violation in row-major lattice order.
    """
    if sigma <= 0.0:
        raise PreconditionError("sigma must be positive")
    if radius <= 0.0:
        raise PreconditionError("error bound needs radius > 0")
    if resolution < 2:
        raise PreconditionError("error bound needs resolution >= 2")
    x = np.asarray(x, dtype=float).ravel()
    pts = grid_points(x - radius, x + radius, resolution)
    spacing = 2.0 * radius / (resolution - 1)
    slack = 2.0 * spacing

    in_region = region.contains_many(pts)
    phi = scenario_map.merit_many(cone, pts)
    feasible = in_region & (phi <= feas_tol)
    if not feasible.any():
        raise PreconditionError("no feasible lattice points within the radius")
    close = np.linalg.norm(pts - x[None, :], axis=1) <= radius / 2.0
    tested = np.flatnonzero(in_region & close)
    if tested.size == 0:
        raise PreconditionError("no region lattice points within half the radius")

    stages = _distance_passes(feasible.reshape((resolution,) * x.size))
    dist = np.sqrt(_tie_shell_min(pts, stages, tested))
    viol = dist - phi[tested] / sigma - slack
    k = int(np.argmax(viol))
    worst = float(viol[k])
    passed = worst <= tol
    return ErrorBoundReport(sigma=sigma, radius=radius, slack=slack,
                            max_violation=worst, passed=passed,
                            witness=None if passed else pts[tested[k]].copy())


def _distance_passes(feasible: np.ndarray) -> list:
    """Exact squared index distances to the True entries of the n-d mask
    ``feasible``, which has at least one: the list [D_0, ..., D_n], where
    D_0 is 0 on the mask and huge elsewhere, and

        D_(k+1)(i) = min_j D_k(j) + (i - j)^2   along every line of axis k

    (Felzenszwalb & Huttenlocher, "Distance transforms of sampled
    functions", Theory of Computing 2012).  D_n is the squared index
    distance to the nearest True entry.  Each pass runs over blocks of
    lines and output positions whose sum buffer holds at most
    _CHUNK_ENTRIES entries, but at least one line of sums.
    """
    far = np.iinfo(np.int64).max // 2      # no feasible point yet; far + (i - j)^2 fits
    stages = [np.where(feasible, 0, far)]
    for axis in range(feasible.ndim):
        moved = np.moveaxis(stages[-1], axis, -1)
        length = moved.shape[-1]
        lines = np.ascontiguousarray(moved).reshape(-1, length)
        out = np.empty_like(lines)
        per_out = max(1, min(length, _CHUNK_ENTRIES // length))
        per_line = max(1, _CHUNK_ENTRIES // (per_out * length))
        for i0 in range(0, length, per_out):
            i = np.arange(i0, min(length, i0 + per_out))
            penalty = (i[:, None] - np.arange(length)) ** 2
            for l0 in range(0, lines.shape[0], per_line):
                block = lines[l0:l0 + per_line, None, :] + penalty
                out[l0:l0 + per_line, i0:i0 + i.size] = block.min(axis=2)
        stages.append(np.moveaxis(out.reshape(moved.shape), -1, axis))
    return stages


def _tie_shell_min(pts, stages, tested) -> np.ndarray:
    """Smallest float squared distance from each tested lattice point (flat
    index ``tested[k]``) to its tie shell: the feasible points at exactly
    its squared index distance D = D_n.

    The shell is found by walking the passes of ``_distance_passes``
    backwards.  A path starts at the tested point with remaining distance
    D.  Along axis k (last first) it branches into every position j of its
    line where D_k(j) + (i - j)^2 equals the remaining distance, which
    drops by (i - j)^2.  The paths that reach axis 0 end exactly on the
    shell, and every shell point ends one path.  Every D_k is >= 0, so a
    block of paths gathers only |i - j| <= isqrt(its largest remaining
    distance), clipped to the line: at most 2 R - 1 positions per path and
    _CHUNK_ENTRIES per block, but at least one path.  The differences are
    squared in place and summed along the last axis, as in a comparison
    with every feasible point.
    """
    shape = stages[0].shape
    owner = np.arange(tested.size)
    index = np.stack(np.unravel_index(tested, shape), axis=1)
    remaining = stages[-1].ravel()[tested]
    for axis in reversed(range(len(shape))):
        lines = np.moveaxis(stages[axis], axis, -1)
        step = max(1, _CHUNK_ENTRIES // (2 * shape[axis] - 1))
        paths = []
        for start in range(0, owner.size, step):
            at = index[start:start + step]
            reach = min(isqrt(int(remaining[start:start + step].max())), shape[axis] - 1)
            offsets = np.arange(-reach, reach + 1)
            j = np.clip(at[:, axis, None] + offsets, 0, shape[axis] - 1)
            rest = remaining[start:start + step, None] - offsets ** 2
            line = lines[(*np.delete(at, axis, axis=1).T[:, :, None], j)]
            row, col = np.nonzero((j - at[:, axis, None] == offsets) & (line == rest))
            moved = at[row]
            moved[:, axis] = j[row, col]
            paths.append((owner[start + row], moved, rest[row, col]))
        owner, index, remaining = (np.concatenate(part) for part in zip(*paths))
    diff = pts[tested[owner]] - pts[np.ravel_multi_index(index.T, shape)]
    diff *= diff
    best = np.full(tested.size, np.inf)
    np.minimum.at(best, owner, diff.sum(axis=1))
    return best
