"""Finite families of affine maps and the merit function they induce.

An uncertain constraint mapping is a finite family x |-> {A_w x + b_w}.
Its image at a point is a finite point cloud, and the merit of a point
against a constraint cone is the excess of that cloud over the cone:

    merit(x) = max_w dist(A_w x + b_w, cone),

which is zero exactly when every scenario lands in the cone.  Affine
scenarios make the merit function convex and globally Lipschitz with
constant max_w ||A_w||.
"""

from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, distance_many
from .errors import DimensionError


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in a common space, stored row-wise."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts = np.array(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ScenarioMap:
    """x |-> {mats[w] @ x + offsets[w]} over a nonempty scenario list."""

    mats: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim == 2:
            mats = mats[None, :, :]
        offsets = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        if mats.ndim != 3 or mats.shape[0] == 0:
            raise DimensionError("scenario matrices must form a nonempty (w, m, n) stack")
        if offsets.shape != mats.shape[:2]:
            raise DimensionError("scenario offsets must be shaped (w, m)")
        mats = np.array(mats)
        offsets = np.array(offsets)
        mats.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "offsets", offsets)

    @property
    def scenario_count(self) -> int:
        return self.mats.shape[0]

    @property
    def image_dim(self) -> int:
        return self.mats.shape[1]

    @property
    def domain_dim(self) -> int:
        return self.mats.shape[2]

    def evaluate(self, x) -> PointCloud:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.domain_dim:
            raise DimensionError(f"expected a point of dim {self.domain_dim}")
        return PointCloud(self.mats @ x + self.offsets)

    def merit(self, cone: Cone, x) -> float:
        """Excess of the scenario image over the cone; 0 iff all scenarios fit."""
        return float(self.merit_many(cone, np.asarray(x, dtype=float).reshape(1, -1))[0])

    def merit_many(self, cone: Cone, points: np.ndarray) -> np.ndarray:
        """Merit values for the rows of ``points``: one distance call over
        all scenario images, then the max over scenarios.  The images are
        stacked matrix-vector products, which round each row as
        ``evaluate`` does."""
        if cone.dim != self.image_dim:
            raise DimensionError("cone dimension must match the image space")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.domain_dim:
            raise DimensionError(f"expected points of dim {self.domain_dim}")
        images = (np.matmul(self.mats[:, None], points[None, :, :, None])[..., 0]
                  + self.offsets[:, None, :])
        dist = distance_many(cone, images.reshape(-1, self.image_dim))
        return np.max(dist.reshape(self.scenario_count, -1), axis=0, initial=0.0)

    def to_document(self) -> list:
        return [{"A": self.mats[w].tolist(), "b": self.offsets[w].tolist()}
                for w in range(self.scenario_count)]


def _point_set_distance(z: np.ndarray, cloud: PointCloud) -> float:
    return float(np.min(np.linalg.norm(cloud.points - z[None, :], axis=1)))


def excess(cloud: PointCloud, target) -> float:
    """sup over the cloud of the distance to ``target``.

    ``target`` may be a Cone, another PointCloud, or a (PointCloud, Cone)
    pair standing for the Minkowski sum of the two: the distance from z to
    {p} + C is dist(z - p, C), minimized over the cloud.
    """
    if isinstance(target, Cone):
        return float(np.max(distance_many(target, cloud.points)))
    if isinstance(target, PointCloud):
        return float(max(_point_set_distance(z, target) for z in cloud.points))
    base, cone = target
    diffs = cloud.points[:, None, :] - base.points
    dist = distance_many(cone, diffs.reshape(-1, cloud.dim)).reshape(diffs.shape[:-1])
    return float(np.max(np.min(dist, axis=1), initial=0.0))


def hausdorff(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between two point clouds."""
    if a.dim != b.dim:
        raise DimensionError("clouds live in different spaces")
    return max(excess(a, b), excess(b, a))
