"""First-order geometry: ambient sets, objectives, sampled upper
subgradients, and matrix-bundle fans.

A polyhedral region exposes its rows {x : A x <= b}, from which the one
activity rule, :meth:`Problem.activity`, reads T_S(x) and N_S(x).
Central finite-difference upper subgradients, checked on a sampled ball,
are kept as the sampled reference for :func:`certificates.merit_is_flat`.

A fan is a positively homogeneous convex-valued map generated by a matrix
bundle: H(u) = conv{L_1 u, ..., L_p u}.  For finite affine scenario
families the bundle of distinct scenario matrices is an exact outer
prederivative of the constraint map; the certificates read it through
:attr:`Problem.preimage_rows`.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cones import Cone, _norms, _readonly, _unit_rows, least_distance_point, project_many
from .errors import DimensionError, PreconditionError
from .sampling import ball_points, sphere_directions
from .scenarios import ScenarioMap, column_sums


# ===== ambient sets ======================================================


@dataclass(frozen=True)
class PolyhedralSet:
    """A box or a finite intersection of halfspaces {x : a_j . x <= b_j}."""

    kind: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    @classmethod
    def box(cls, lo, hi) -> "PolyhedralSet":
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.size != hi.size:
            raise DimensionError("box bounds disagree on dimension")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        return cls(kind="box", lo=_readonly(lo), hi=_readonly(hi))

    @classmethod
    def halfspaces(cls, a, b) -> "PolyhedralSet":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if a.shape[0] != b.size:
            raise DimensionError("halfspace matrix and rhs disagree on rows")
        a, norms = _unit_rows(a, "halfspaces")
        return cls(kind="halfspaces", a=_readonly(a), b=_readonly(b / norms))

    @classmethod
    def whole_space(cls, dim: int) -> "PolyhedralSet":
        return cls.box(np.full(dim, -np.inf), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lo.size if self.kind == "box" else self.a.shape[1]

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership of one point: the one-row case of ``contains_many``."""
        return bool(self.contains_many(np.asarray(x, dtype=float).reshape(1, -1), tol=tol)[0])

    def contains_many(self, points, tol: float = 1e-9) -> np.ndarray:
        """Membership of each row of ``points``, within ``tol``.  A box is
        tested one coordinate column at a time into one mask, which avoids
        numpy's slow reduction over rows of a few entries; the comparisons
        are those of the row-wise rule, so the mask is the same."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionError(f"expected rows of dim {self.dim}")
        if self.kind == "box":
            inside, test = np.ones(pts.shape[0], dtype=bool), np.empty(pts.shape[0], dtype=bool)
            for column, lo, hi in zip(pts.T, self.lo - tol, self.hi + tol):
                inside &= np.greater_equal(column, lo, out=test)
                inside &= np.less_equal(column, hi, out=test)
            return inside
        # stacked matrix-vector products round each row as ``a @ x`` does
        slack = np.matmul(self.a[None], pts[:, :, None])[..., 0] - self.b
        return np.max(slack, axis=1) <= tol

    def project(self, x) -> np.ndarray:
        """Euclidean projection.  A box clips; a halfspace intersection
        solves the least-distance program min ||y|| s.t. a (x + y) <= b
        with the one NNLS kernel (:func:`cones.least_distance_point`).  Raises
        PreconditionError when the region is empty."""
        x = np.asarray(x, dtype=float).ravel()
        if self.kind == "box":
            return np.clip(x, self.lo, self.hi)
        excess = self.a @ x - self.b
        scale = float(np.max(excess))
        if scale <= 0.0:
            return x.copy()
        # scaled by the largest violation: y is the displacement relative to it
        h = excess / scale
        y, _ = least_distance_point(-self.a, h)
        if y is None:
            raise PreconditionError("projection onto an empty region")
        return x + scale * y

    def project_many(self, points) -> np.ndarray:
        """Row-wise ``project``: one clip for boxes, one least-distance
        NNLS call per row for halfspace intersections (the program's
        matrix depends on the row)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionError(f"expected rows of dim {self.dim}")
        if self.kind == "box":
            return np.clip(pts, self.lo, self.hi)
        return np.array([self.project(p) for p in pts]).reshape(pts.shape)

    @cached_property
    def rows(self) -> tuple:
        """(A, b) with the set = {x : A x <= b}, read-only: a halfspace
        intersection's unit rows, or -e_i, e_i for the finite bounds of a
        box, axis by axis."""
        if self.kind != "box":
            return self.a, self.b
        keep = np.isfinite(np.column_stack([self.lo, self.hi]))
        axes = np.eye(self.dim)
        return (_readonly(np.stack([-axes, axes], axis=1)[keep]),
                _readonly(np.column_stack([-self.lo, self.hi])[keep]))

    def to_document(self) -> dict:
        if self.kind == "box":
            lo = [None if not np.isfinite(v) else float(v) for v in self.lo]
            hi = [None if not np.isfinite(v) else float(v) for v in self.hi]
            return {"kind": "box", "lo": lo, "hi": hi}
        return {"kind": "halfspaces", "A": self.a.tolist(), "b": self.b.tolist()}


# ===== objectives ========================================================


@dataclass(frozen=True)
class AffineObjective:
    """f(x) = jac @ x + offset."""

    jac: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        jac = np.atleast_2d(np.asarray(self.jac, dtype=float))
        offset = np.asarray(self.offset, dtype=float).ravel()
        if offset.size != jac.shape[0]:
            raise DimensionError("offset length must match jacobian rows")
        object.__setattr__(self, "jac", _readonly(jac))
        object.__setattr__(self, "offset", _readonly(offset))

    is_affine = True

    @property
    def domain_dim(self) -> int:
        return self.jac.shape[1]

    @property
    def image_dim(self) -> int:
        return self.jac.shape[0]

    @cached_property
    def _columns(self) -> tuple:
        """``column_sums``' operands: jac[:, j] at [j, :, 0], offset at [:, 0]."""
        return np.ascontiguousarray(self.jac.T[..., None]), self.offset[:, None]

    def value(self, x) -> np.ndarray:
        """f(x): the one-row case of ``value_many``."""
        return self.value_many(np.asarray(x, dtype=float).ravel()[None])[0]

    def value_many(self, points) -> np.ndarray:
        """f at each row p of ``points``: ((jac[:, 0] p_0 + jac[:, 1] p_1)
        + ...) + offset, summed by :func:`scenarios.column_sums`' fixed rule
        as the scenario images are, so a row's bits depend neither on the
        batch nor on the host's BLAS.  Row-major, like ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain_dim:
            raise DimensionError(f"expected points of dim {self.domain_dim}")
        return np.ascontiguousarray(column_sums(*self._columns, pts).T)

    def jacobian(self, x) -> np.ndarray:
        del x
        return self.jac

    def to_document(self) -> dict:
        return {"kind": "affine", "J": self.jac.tolist(), "c": self.offset.tolist()}


@dataclass(frozen=True)
class QuadraticObjective:
    """Component k is x.quads[k].x + lins[k].x + consts[k]."""

    quads: np.ndarray
    lins: np.ndarray
    consts: np.ndarray

    def __post_init__(self):
        quads = np.asarray(self.quads, dtype=float)
        if quads.ndim == 2:
            quads = quads[None]
        lins = np.atleast_2d(np.asarray(self.lins, dtype=float))
        consts = np.asarray(self.consts, dtype=float).ravel()
        if quads.shape[1] != quads.shape[2]:
            raise DimensionError("quadratic blocks must be square")
        if lins.shape != quads.shape[:2] or consts.size != quads.shape[0]:
            raise DimensionError("quadratic component shapes disagree")
        object.__setattr__(self, "quads", _readonly(quads))
        object.__setattr__(self, "lins", _readonly(lins))
        object.__setattr__(self, "consts", _readonly(consts))

    is_affine = False

    @property
    def domain_dim(self) -> int:
        return self.quads.shape[1]

    @property
    def image_dim(self) -> int:
        return self.quads.shape[0]

    def value(self, x) -> np.ndarray:
        return self.value_many(np.asarray(x, dtype=float).ravel()[None])[0]

    def value_many(self, points) -> np.ndarray:
        """Row-wise ``value``.  Every product is a stacked matrix-vector
        product, which rounds a row the same way whatever the batch size;
        einsum's summation order depends on the operand shapes."""
        pts = np.asarray(points, dtype=float)
        quad_x = np.matmul(self.quads[None], pts[:, None, :, None])[..., 0]
        return (np.matmul(quad_x, pts[:, :, None])[..., 0]
                + np.matmul(self.lins[None], pts[:, :, None])[..., 0] + self.consts)

    def jacobian(self, x) -> np.ndarray:
        """Row k is (Q_k + Q_k^T) x + j_k, the gradient of component k for
        any Q_k; 2 Q_k x bit for bit when Q_k is symmetric."""
        x = np.asarray(x, dtype=float).ravel()
        return np.einsum("kij,j->ki", self.quads + self.quads.transpose(0, 2, 1), x) + self.lins

    def to_document(self) -> dict:
        return {"kind": "quadratic",
                "components": [{"Q": self.quads[k].tolist(),
                                "j": self.lins[k].tolist(),
                                "c": float(self.consts[k])}
                               for k in range(self.image_dim)]}


Objective = AffineObjective | QuadraticObjective


# ===== upper subgradients ================================================


def upper_subgradient_candidate(phi, x, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient candidate at x for the row-batched
    function ``phi`` (rows in, one value per row out), from one call on the
    2n points x + step e_i, then x - step e_i."""
    x = np.asarray(x, dtype=float).ravel()
    e = step * np.eye(x.size)
    values = phi(np.vstack([x + e, x - e]))
    return (values[:x.size] - values[x.size:]) / (2.0 * step)


class SubgradientCheck(NamedTuple):
    passed: bool
    worst_violation: float
    witness: np.ndarray | None


def check_upper_subgradient(phi, x, candidate, eps: float, radius: float,
                            samples: int = 256, seed: int = 0,
                            tol: float = 1e-9) -> SubgradientCheck:
    """Sampled test of the upper-subgradient inequality

        phi(y) <= phi(x) + <candidate, y - x> + eps |y - x|

    over a ball around x, for the row-batched function ``phi``, called once
    on x and the ball points.  Failure reports the worst violating point.
    """
    x = np.asarray(x, dtype=float).ravel()
    candidate = np.asarray(candidate, dtype=float).ravel()
    ys = ball_points(x, radius, samples, seed=seed)
    values = phi(np.vstack([x, ys]))
    base = float(values[0])
    worst, witness = 0.0, None
    for y, value in zip(ys, values[1:]):
        gap = y - x
        slack = float(value) - base - float(candidate @ gap) \
            - eps * float(np.linalg.norm(gap))
        if slack > worst:
            worst, witness = slack, y
    return SubgradientCheck(passed=worst <= tol, worst_violation=worst,
                            witness=witness)


# ===== fans ==============================================================


@dataclass(frozen=True)
class Fan:
    """Convex-valued map H(u) = conv{bundle[i] @ u} from a matrix bundle."""

    bundle: np.ndarray

    def __post_init__(self):
        bundle = np.asarray(self.bundle, dtype=float)
        if bundle.ndim == 2:
            bundle = bundle[None]
        if bundle.ndim != 3 or bundle.shape[0] == 0:
            raise DimensionError("fan bundle must be a nonempty (p, m, n) stack")
        object.__setattr__(self, "bundle", _readonly(bundle))

    @property
    def size(self) -> int:
        return self.bundle.shape[0]

    @property
    def image_dim(self) -> int:
        return self.bundle.shape[1]

    @property
    def domain_dim(self) -> int:
        return self.bundle.shape[2]

    def to_document(self) -> dict:
        return {"bundle": self.bundle.tolist()}


def fan_from_scenarios(scenario_map: ScenarioMap) -> Fan:
    """Bundle of distinct scenario matrices, exact for affine families: equal
    as ``np.array_equal`` (-0.0 == 0.0), in first-seen order.  One stable
    lexicographic sort finds them; adding 0.0 turns -0.0 into 0.0."""
    mats = scenario_map.mats
    flat = mats.reshape(mats.shape[0], -1) + 0.0
    return Fan(mats[np.sort(np.unique(flat, axis=0, return_index=True)[1])])


def sampled_cone_directions(cone: Cone, count: int = 64, seed: int = 0) -> np.ndarray:
    """Nonzero unit directions inside a cone, by projecting a sphere sample,
    each kept when it lies at least 1e-9 from every one kept before it.

    Projection catches thin cones that rejection sampling would miss; the
    result may be empty only when the cone is (numerically) {0}.
    """
    proj = project_many(cone, sphere_directions(cone.dim, count, seed=seed))
    norms = _norms(proj)
    dirs = proj[norms >= 1e-9] / norms[norms >= 1e-9, None]
    gaps = (dirs[:, None, :] - dirs[None, :, :]).reshape(-1, cone.dim)
    close = (_norms(gaps) < 1e-9).reshape(dirs.shape[0], dirs.shape[0])
    take = np.ones(dirs.shape[0], dtype=bool)
    for j in range(dirs.shape[0]):
        take[j] = not np.any(close[j, :j] & take[:j])
    return dirs[take]
