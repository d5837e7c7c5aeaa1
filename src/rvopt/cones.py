"""Polyhedral convex cones in three representations.

A cone is stored as one of

* ``orthant``     -- the nonnegative orthant of R^dim,
* ``halfspaces``  -- {z : m_j . z >= 0 for every row m_j},
* ``rays``        -- {sum_i lam_i r_i : lam >= 0} for generators r_i.

Rows and generators are unit-normalized at construction.  Projections are
exact: clamping for the orthant, and one Lawson-Hanson active-set solver
for nonnegative least squares (:func:`_nnls`) otherwise.  A ray cone is
projected by solving for its generator coefficients directly.  A halfspace
cone K uses Moreau's decomposition z = P_K(z) + P_{K°}(z), whose polar
K° = cone{-m_j} is a ray cone.
Dual cones follow the polyhedral duality
``({z : m_j.z >= 0})^- = cone{-m_j}`` and its converse.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, RepresentationError

ORTHANT = "orthant"
HALFSPACES = "halfspaces"
RAYS = "rays"

PROJECTION_TOL = 1e-10
PROJECTION_BUDGET = 10_000


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _unit_rows(rows: np.ndarray, label: str) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError(f"{label}: zero row")
    return rows / norms[:, None]


@dataclass(frozen=True)
class Cone:
    """A polyhedral convex cone; build via :meth:`orthant`, :meth:`halfspaces`
    or :meth:`rays`."""

    kind: str
    dim: int
    rows: np.ndarray | None = None
    gens: np.ndarray | None = None
    proper: bool = True

    # ----- constructors ---------------------------------------------------

    @classmethod
    def orthant(cls, dim: int) -> "Cone":
        if dim < 1:
            raise DimensionError("orthant needs dim >= 1")
        return cls(kind=ORTHANT, dim=dim, proper=True)

    @classmethod
    def halfspaces(cls, rows) -> "Cone":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            raise DimensionError("halfspaces: cannot infer dimension from no rows; "
                                 "use whole_space(dim)")
        rows = _unit_rows(rows, "halfspaces")
        return cls(kind=HALFSPACES, dim=rows.shape[1], rows=_readonly(rows),
                   proper=True)

    @classmethod
    def whole_space(cls, dim: int) -> "Cone":
        """The halfspace representation with no rows: all of R^dim."""
        if dim < 1:
            raise DimensionError("whole_space needs dim >= 1")
        return cls(kind=HALFSPACES, dim=dim, rows=_readonly(np.zeros((0, dim))),
                   proper=False)

    @classmethod
    def rays(cls, gens, dim: int | None = None) -> "Cone":
        gens = np.asarray(gens, dtype=float)
        if gens.size == 0:
            if dim is None:
                raise DimensionError("rays: need dim for the trivial cone {0}")
            return cls(kind=RAYS, dim=dim, gens=_readonly(np.zeros((0, dim))),
                       proper=True)
        gens = _unit_rows(gens, "rays")
        cone = cls(kind=RAYS, dim=gens.shape[1], gens=_readonly(gens), proper=True)
        if cone._positively_spans():
            cone = cls(kind=RAYS, dim=gens.shape[1], gens=cone.gens, proper=False)
        return cone

    # ----- basic queries --------------------------------------------------

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.dim:
            raise DimensionError(f"expected dim {self.dim}, got {z.size}")
        return z

    def _positively_spans(self) -> bool:
        # cone(gens) = R^d iff it contains every +-axis vector
        for i in range(self.dim):
            for sign in (1.0, -1.0):
                e = np.zeros(self.dim)
                e[i] = sign
                if self.distance(e) > 1e-9:
                    return False
        return True

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
        """True when a ball of radius ``margin`` around z fits in the cone.

        Defined for the orthant and halfspace representations, where unit
        rows make the row values Euclidean margins.
        """
        z = self._check_dim(z)
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.kind == ORTHANT:
            return bool(np.min(z) >= margin)
        if self.kind == HALFSPACES:
            if self.rows.shape[0] == 0:
                return True
            return bool(np.min(self.rows @ z) >= margin)
        raise RepresentationError("interior_contains is undefined for ray-generated cones")

    # ----- projection and distance ---------------------------------------

    def project(self, z) -> np.ndarray:
        """Euclidean projection onto the cone."""
        z = self._check_dim(z)
        if self.kind == ORTHANT:
            return np.maximum(z, 0.0)
        if self.kind == HALFSPACES:
            return self._moreau_project(z)
        return self.gens.T @ _nnls(self.gens, z)

    def distance(self, z) -> float:
        z = self._check_dim(z)
        if self.kind == ORTHANT:
            return float(np.linalg.norm(np.minimum(z, 0.0)))
        return float(np.linalg.norm(z - self.project(z)))

    def _moreau_project(self, z: np.ndarray) -> np.ndarray:
        """P_K(z) = z - P_{K°}(z), the polar K° = cone{-m_j} being a ray cone."""
        return z + self.rows.T @ _nnls(-self.rows, z)

    # ----- duality --------------------------------------------------------

    def negative_dual(self) -> "Cone":
        """{y : <y, z> <= 0 for all z in the cone}."""
        if self.kind == ORTHANT:
            return Cone.rays(-np.eye(self.dim))
        if self.kind == HALFSPACES:
            if self.rows.shape[0] == 0:
                return Cone.rays(np.zeros((0, self.dim)), dim=self.dim)
            return Cone.rays(-self.rows)
        if self.gens.shape[0] == 0:
            return Cone.whole_space(self.dim)
        return Cone.halfspaces(-self.gens)

    def positive_dual(self) -> "Cone":
        """{y : <y, z> >= 0 for all z in the cone} = -(negative dual)."""
        neg = self.negative_dual()
        if neg.kind == RAYS:
            if neg.gens.shape[0] == 0:
                return neg
            return Cone.rays(-neg.gens)
        if neg.rows.shape[0] == 0:
            return neg
        return Cone.halfspaces(-neg.rows)

    # ----- preimages ------------------------------------------------------

    def linear_preimage(self, mat) -> "Cone":
        """The cone {v : mat @ v in self} for orthant/halfspace representations."""
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        if self.kind == ORTHANT:
            rows = mat
            if mat.shape[0] != self.dim:
                raise DimensionError("matrix rows must match cone dim")
        elif self.kind == HALFSPACES:
            if mat.shape[0] != self.dim:
                raise DimensionError("matrix rows must match cone dim")
            rows = self.rows @ mat
        else:
            raise RepresentationError("preimage needs an orthant or halfspace cone")
        norms = np.linalg.norm(rows, axis=1)
        keep = norms >= 1e-12
        if not np.all(keep):
            warnings.warn("preimage dropped zero rows; result may not be proper",
                          stacklevel=2)
        rows = rows[keep]
        if rows.shape[0] == 0:
            return Cone.whole_space(mat.shape[1])
        return Cone.halfspaces(rows)

    # ----- serialization hooks (see docio) --------------------------------

    def to_document(self) -> dict:
        if self.kind == ORTHANT:
            return {"kind": ORTHANT, "dim": self.dim}
        if self.kind == HALFSPACES:
            return {"kind": HALFSPACES, "dim": self.dim,
                    "rows": self.rows.tolist()}
        return {"kind": RAYS, "dim": self.dim, "gens": self.gens.tolist()}


def _nnls(gens: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set NNLS: argmin_{lam >= 0} ||gens.T lam - z||.

    A coefficient enters the free set when its generator has the largest
    positive pairing with the residual; a least-squares solve on the free
    set follows, with interpolation steps back to lam >= 0 that drop the
    coefficients reaching zero.  The result is exact up to rounding once
    no pairing exceeds PROJECTION_TOL * |z|.  That tolerance must stay well
    above rounding, or dependent generators can enter the free set and
    the steps cycle.  Raises ConvergenceError, carrying the point
    gens.T lam reached, after PROJECTION_BUDGET entries.
    """
    lam = np.zeros(gens.shape[0])
    free = np.zeros(gens.shape[0], dtype=bool)
    tol = PROJECTION_TOL * float(np.linalg.norm(z))
    for _ in range(PROJECTION_BUDGET):
        pairing = gens @ (z - gens.T @ lam)
        pairing[free] = -np.inf
        if np.all(pairing <= tol):
            return lam
        enter = int(np.argmax(pairing))
        free[enter] = True
        first = True
        while True:
            trial = np.zeros_like(lam)
            trial[free] = np.linalg.lstsq(gens[free].T, z, rcond=None)[0]
            if first and trial[enter] <= 0.0:
                # the entering pairing was rounding noise: lam is optimal
                return lam
            if np.all(trial[free] > 0.0):
                lam = trial
                break
            first = False
            blocked = np.flatnonzero(free & (trial <= 0.0))
            ratios = lam[blocked] / (lam[blocked] - trial[blocked])
            lam = lam + float(np.min(ratios)) * (trial - lam)
            lam[blocked[int(np.argmin(ratios))]] = 0.0
            free &= lam > 0.0
            lam[~free] = 0.0
    point = gens.T @ lam
    raise ConvergenceError("active-set NNLS exceeded its budget", last_iterate=point,
                           residual=float(np.max(gens @ (z - point), initial=0.0)))


def distance_many(cone: Cone, points: np.ndarray) -> np.ndarray:
    """Distances from the rows of ``points`` to the cone.

    Vectorized for the orthant; representation-generic otherwise.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if cone.kind == ORTHANT:
        return np.linalg.norm(np.minimum(points, 0.0), axis=1)
    return np.array([cone.distance(p) for p in points])
