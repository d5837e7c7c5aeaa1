"""Deterministic low-discrepancy sample generators.

All sampling in the package flows through this module so that every check
is reproducible: the same (dim, count, seed) triple always yields the same
points.  Directions come from a Halton sequence pushed through the inverse
normal CDF and normalized; a seed shifts the Halton start index.
"""

from functools import lru_cache
from math import prod
from statistics import NormalDist

import numpy as np

from .errors import PreconditionError

_SEED_STRIDE = 8191
LATTICE_CAP = 1_000_000     # points of the largest lattice a check may build
_NORMAL = NormalDist()


def _van_der_corput(index: int, base: int) -> float:
    """Radical-inverse of ``index`` in the given base."""
    out, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        out += digit / denom
    return out


def halton(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """First ``count`` Halton points in [0, 1)^dim, offset by the seed; axis
    j takes the (j + 1)-th prime as its base."""
    primes, candidate = [], 2
    while len(primes) < dim:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    start = 1 + seed * _SEED_STRIDE
    pts = np.empty((count, dim))
    for i in range(count):
        for j in range(dim):
            pts[i, j] = _van_der_corput(start + i, primes[j])
    return pts


def _gauss_map(u: np.ndarray) -> np.ndarray:
    # inverse normal CDF, clipped away from {0, 1}
    flat = np.clip(u, 1e-12, 1.0 - 1e-12)
    return np.array([_NORMAL.inv_cdf(v) for v in flat.ravel()]).reshape(u.shape)


@lru_cache(maxsize=256)
def _sphere_directions_cached(dim: int, count: int, seed: int):
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        gauss = _gauss_map(halton(count, dim, seed=seed))
        norms = np.linalg.norm(gauss, axis=1)
        norms[norms < 1e-12] = 1.0
        dirs = gauss / norms[:, None]
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        diag = np.ones(dim) / np.sqrt(dim)
        dirs = np.vstack([axes, diag, -diag, dirs])
    dirs = np.ascontiguousarray(dirs)
    dirs.setflags(write=False)
    return dirs


def sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Unit directions: the ±axes, ±(1,..,1)/sqrt(dim), then Halton points.

    The canonical directions come first so coarse scans always probe the
    axis-aligned and diagonal extremes regardless of ``count``.
    """
    return _sphere_directions_cached(dim, count, seed)


def ball_points(center: np.ndarray, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points of the closed Euclidean ball around ``center``."""
    center = np.asarray(center, dtype=float)
    dim = center.size
    u = halton(count, dim + 1, seed=seed)
    gauss = _gauss_map(u[:, :dim])
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms < 1e-12] = 1.0
    dirs = gauss / norms[:, None]
    radii = radius * u[:, dim] ** (1.0 / dim)
    return center[None, :] + radii[:, None] * dirs


def grid_points(lo, hi, resolution) -> np.ndarray:
    """Row-major lattice over the box [lo, hi] with ``resolution`` points per
    axis (an int, or one int per axis).  A lattice of more than LATTICE_CAP
    points is refused with a PreconditionError before anything is built."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if np.isscalar(resolution) or np.ndim(resolution) == 0:
        resolution = [int(resolution)] * lo.size
    shape = tuple(int(r) for r in resolution)
    if prod(shape) > LATTICE_CAP:
        raise PreconditionError("grid exceeds the 1e6 point cap")
    pts = np.empty(shape + (lo.size,))
    for i in range(lo.size):        # axis i's coordinates, broadcast along the later axes
        axis = np.linspace(lo[i], hi[i], shape[i])
        pts[..., i] = axis.reshape((-1,) + (1,) * (lo.size - 1 - i))
    return pts.reshape(-1, lo.size)
