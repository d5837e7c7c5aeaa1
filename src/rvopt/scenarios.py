"""Finite families of affine maps and the merit function they induce.

An uncertain constraint mapping is a finite family x |-> {A_w x + b_w}.
Its image at a point is the (w, m) array of scenario images, one row per
scenario, and the merit of a point against a constraint cone is the
largest distance from one of them to the cone:

    merit(x) = max_w dist(A_w x + b_w, cone),

which is zero exactly when every scenario lands in the cone.  Affine
scenarios make the merit function convex and globally Lipschitz with
constant max_w ||A_w||.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import Cone, distance_many, work_rows
from .errors import DimensionError


def column_sums(coefs: np.ndarray, offsets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Affine values of the rows p_r of ``points`` (k, n), summed in a fixed
    column order in IEEE double: entry [..., r] of the result is

        ((coefs[0] p_r0 + coefs[1] p_r1) + ...) + offsets

    for the (..., 1)-shaped coefficient columns ``coefs[j]`` and ``offsets``.
    The loop runs over the n columns only, one product and one sum over
    the whole block each, into one reused buffer; no BLAS call is made."""
    cols = np.ascontiguousarray(points.T)
    out = coefs[0] * cols[0]
    part = np.empty_like(out)
    for coef, col in zip(coefs[1:], cols[1:]):
        out += np.multiply(coef, col, out=part)
    out += offsets
    return out


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

    @cached_property
    def _columns(self) -> tuple:
        """``column_sums``' operands: A_w[i, j] at [j, i, w, 0], b_w[i] at
        [i, w, 0], laid out once per map."""
        return (np.ascontiguousarray(self.mats.transpose(2, 1, 0)[..., None]),
                np.ascontiguousarray(self.offsets.T[..., None]))

    def images(self, points) -> np.ndarray:
        """The scenario images of the rows p_r of ``points``, coordinate-major:
        entry [i, w k + r] of the (m, w k) result is A_w p_r + b_w summed by
        ``column_sums``' fixed rule, so an image's bits depend neither on the
        batch nor on the host's BLAS."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.domain_dim:
            raise DimensionError(f"expected points of dim {self.domain_dim}")
        return column_sums(*self._columns, points).reshape(self.image_dim, -1)

    def evaluate(self, x) -> np.ndarray:
        """The scenario images A_w x + b_w, one row per scenario: (w, m);
        the one-point case of ``images``."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.domain_dim:
            raise DimensionError(f"expected a point of dim {self.domain_dim}")
        return self.images(x[None]).T

    def merit(self, cone: Cone, x) -> float:
        """Excess of the scenario image over the cone; 0 iff all scenarios fit."""
        return float(self.merit_many(cone, np.asarray(x, dtype=float).reshape(1, -1))[0])

    def merit_many(self, cone: Cone, points: np.ndarray) -> np.ndarray:
        """Merit values for the rows of ``points``, in row blocks whose
        scenario images fit the lattice kernels' WORK_BYTES: one ``images``
        call and one distance call over a block, then the max over
        scenarios.  The images are summed in ``images``' fixed column order,
        so a row's value is the same in any block and equals the excess of
        ``evaluate``'s image.  The distance kernel gets the transposed images,
        one row per (scenario, point), whose columns the orthant's clamp
        reads contiguously."""
        if cone.dim != self.image_dim:
            raise DimensionError("cone dimension must match the image space")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.domain_dim:
            raise DimensionError(f"expected points of dim {self.domain_dim}")
        merit = np.empty(points.shape[0])
        step = work_rows(self.offsets.nbytes)      # a point's images: one float per offset
        for start in range(0, points.shape[0], step):
            block = slice(start, start + step)
            dist = distance_many(cone, self.images(points[block]).T)
            np.max(dist.reshape(self.scenario_count, -1), axis=0, initial=0.0,
                   out=merit[block])
        return merit

    def to_document(self) -> list:
        return [{"A": self.mats[w].tolist(), "b": self.offsets[w].tolist()}
                for w in range(self.scenario_count)]
