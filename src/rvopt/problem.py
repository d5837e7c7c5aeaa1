"""The optimization problem container and its validation rules.

A problem bundles a vector objective ordered by a solid cone, an ambient
polyhedral region, and an uncertain cone constraint given by a finite
scenario family:  feasible points are those whose whole scenario image
lies in the constraint cone.  Validation enforces the structural facts
the certificates rely on: an ordering cone with nonempty interior, a
nontrivial constraint cone, and coherent dimensions.  The distinguished
interior direction used for penalization defaults to a normalized
interior witness of the ordering cone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import (ORTHANT, PROJECTION_TOL, RAYS, Cone, _readonly, nearest_hull_point,
                    preimage_rows)
from .errors import ValidationError
from .firstorder import Fan, Objective, PolyhedralSet, fan_from_scenarios
from .scenarios import ScenarioMap
# unused; bench/tracing.py wraps rvopt.problem.solve_lp by name (see certificates.py)
from .simplex import solve_lp  # noqa: F401

INTERIOR_WITNESS_TOL = 1e-8


def max_margin_point(rows: np.ndarray, dim: int, cone_rows: np.ndarray | None = None):
    """max over |z| <= 1 with cone_rows z >= 0 of min_i rows_i . z; returns
    (margin, z, lam, mu).

    The margin is the distance from 0 to conv(rows) + cone(cone_rows): with
    p = rows.T lam + cone_rows.T mu the nearest point
    (:func:`cones.nearest_hull_point`), z = p / |p| lies in the cone and the
    margin is min_i rows_i . z, which no admissible unit z exceeds.  By
    Gordan's and Farkas' theorems it is positive exactly when 0 is outside
    that set; a margin or |p| at rounding level, at most PROJECTION_TOL
    times the longest row, reads as 0 with z = 0 (a p of rounding noise
    points anywhere, in the cone or not).  With no rows the
    margin is unbounded: (inf, 0, no weights, no weights).
    """
    if rows.shape[0] == 0:
        return float("inf"), np.zeros(dim), np.zeros(0), np.zeros(0)
    p, lam, mu = nearest_hull_point(rows, cone_rows)
    norm = float(np.linalg.norm(p))
    tol = PROJECTION_TOL * float(np.max(np.linalg.norm(rows, axis=1)))
    if norm > tol:
        z = p / norm
        margin = float(np.min(rows @ z))
        if margin > tol:
            return margin, z, lam, mu
    return 0.0, np.zeros(dim), lam, mu


def interior_witness(cone: Cone):
    """A unit interior point of the cone and its interiority margin, by the
    max-margin program on its facet rows.

    Returns (witness, margin); margin <= 0 means the interior is empty.
    """
    if cone.kind == ORTHANT:
        e = np.ones(cone.dim) / np.sqrt(cone.dim)
        return e, float(np.min(e))
    rows = cone.facets()
    if rows.shape[0] == 0:
        e = np.zeros(cone.dim)
        e[0] = 1.0
        return e, 1.0
    margin, z, _, _ = max_margin_point(rows, cone.dim)
    if margin <= INTERIOR_WITNESS_TOL:
        return np.zeros(cone.dim), 0.0
    return z, margin


@dataclass(frozen=True)
class Problem:
    """A robust vector optimization instance; see the module docstring."""

    objective: Objective
    ordering_cone: Cone
    constraint_cone: Cone
    region: PolyhedralSet
    scenarios: ScenarioMap
    direction: np.ndarray | None = None
    fan_override: Fan | None = None

    def __post_init__(self):
        obj, k_cone, c_cone = self.objective, self.ordering_cone, self.constraint_cone
        n = obj.domain_dim
        if self.region.dim != n:
            raise ValidationError("s: dimension differs from the objective domain")
        if self.scenarios.domain_dim != n:
            raise ValidationError("scenarios: domain dimension differs from the objective")
        if k_cone.dim != obj.image_dim:
            raise ValidationError("k: dimension differs from the objective image")
        if c_cone.dim != self.scenarios.image_dim:
            raise ValidationError("c: dimension differs from the scenario image")
        if k_cone.kind == RAYS:
            raise ValidationError("k: ordering cone needs an orthant or halfspace "
                                  "representation")
        if c_cone.kind == RAYS and c_cone.gens.shape[0] == 0:
            raise ValidationError("c: constraint cone must differ from {0}")
        if self.fan_override is not None:
            fan = self.fan_override
            if fan.domain_dim != n or fan.image_dim != c_cone.dim:
                raise ValidationError("fan: bundle shape does not match the instance")

        witness, margin = interior_witness(k_cone)
        if margin <= INTERIOR_WITNESS_TOL:
            raise ValidationError("k: ordering cone has empty interior")
        if self.direction is None:
            object.__setattr__(self, "direction", witness)
        else:
            e = np.asarray(self.direction, dtype=float).ravel()
            if e.size != k_cone.dim:
                raise ValidationError("e: dimension differs from the ordering cone")
            if np.linalg.norm(e) > 1.0 + 1e-9:
                raise ValidationError("e: must lie in the unit ball")
            if not k_cone.interior_contains(e, margin=1e-9):
                raise ValidationError("e: must lie in the interior of k")
            object.__setattr__(self, "direction", e)

    # ----- convenience ----------------------------------------------------

    @property
    def domain_dim(self) -> int:
        return self.objective.domain_dim

    def merit(self, x) -> float:
        return self.scenarios.merit(self.constraint_cone, x)

    def merit_many(self, points) -> np.ndarray:
        return self.scenarios.merit_many(self.constraint_cone, points)

    def feasible(self, x, tol: float = 1e-9) -> bool:
        """Membership in Solv = region  intersect  {merit <= tol}."""
        return self.region.contains(x, tol=tol) and self.merit(x) <= tol

    def fan(self) -> Fan:
        """The fan of distinct scenario matrices, or ``fan_override``; derived
        once per problem, like :attr:`preimage_rows`."""
        return self._fan

    @cached_property
    def _fan(self) -> Fan:
        return self.fan_override if self.fan_override is not None \
            else fan_from_scenarios(self.scenarios)

    @property
    def preimage_rows(self) -> np.ndarray:
        """Unit rows of the fan preimage {v : A v in C for every fan matrix A}."""
        return self.preimage[0]

    @cached_property
    def preimage(self) -> tuple:
        """(rows, divisors, mask) of :func:`cones.preimage_rows` for the fan,
        which map a weight on each row to its fan matrix and facet row of C."""
        rows, norms, keep = preimage_rows(self.constraint_cone, self._fan.bundle)
        keep.setflags(write=False)
        return _readonly(rows), _readonly(norms), keep

    @cached_property
    def solv_rows(self) -> tuple:
        """(G, h, count) with Solv = {z : G z <= h}, read-only: the first
        ``count`` rows are -m_j A_w, h = m_j b_w for each scenario w and unit
        facet row m_j of C (zero rows dropped), the rest the region's rows.
        A region point's C-row excess is at most its merit."""
        rows = self.constraint_cone.facets()
        g = -np.matmul(rows, self.scenarios.mats).reshape(-1, self.domain_dim)
        h = (self.scenarios.offsets @ rows.T).ravel()
        keep = np.linalg.norm(g, axis=1) >= 1e-12
        a, b = self.region.rows
        return (_readonly(np.vstack([g[keep], a])), _readonly(np.concatenate([h[keep], b])),
                int(np.count_nonzero(keep)))

    @cached_property
    def _latest_program(self) -> dict:
        """Single-entry memo of the latest point's certificate program."""
        return {}
