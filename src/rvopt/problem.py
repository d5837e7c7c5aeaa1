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
from typing import NamedTuple

import numpy as np

from .cones import (ORTHANT, PROJECTION_TOL, RAYS, Cone, _norms, _readonly, nearest_hull_point,
                    preimage_rows, work_rows)
from .errors import DimensionError, ValidationError
from .firstorder import Fan, Objective, PolyhedralSet, fan_from_scenarios
from .scenarios import ScenarioMap, column_sums
# unused; bench/tracing.py wraps rvopt.problem.solve_lp by name (see certificates.py)
from .simplex import solve_lp  # noqa: F401

INTERIOR_WITNESS_TOL = 1e-8
ACTIVE_TOL = 1e-7          # slack of an active row; see Problem.activity


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


class Activity(NamedTuple):
    """The rows of Solv active at a point; see :meth:`Problem.activity`."""

    slack: np.ndarray
    solv: np.ndarray
    slopes: np.ndarray
    tangent: np.ndarray | None


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
        return self.reading(x, "merit", lambda x: self.scenarios.merit(self.constraint_cone, x))

    def merit_many(self, points) -> np.ndarray:
        return self.scenarios.merit_many(self.constraint_cone, points)

    def feasible(self, x, tol: float = 1e-9) -> bool:
        """The one-row case of :meth:`feasible_many`, read once per tol."""
        return self.reading(x, ("feasible", tol),
                            lambda x: bool(self.feasible_many(x[None], tol)[0]))

    def feasible_many(self, points, tol: float = 1e-9) -> np.ndarray:
        """Membership in Solv of each row z of ``points``: G z <= h + tol on the
        unit rows of :attr:`solv_rows`, summed by ``column_sums`` in WORK_BYTES
        row blocks.  A C row that does not move is the test m_j b_w >= -tol."""
        coefs, offsets, fixed = self._unit_solv
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.domain_dim:
            raise DimensionError(f"expected points of dim {self.domain_dim}")
        inside, step = np.zeros(points.shape[0], dtype=bool), work_rows(max(offsets.nbytes, 8))
        for i in range(0, points.shape[0] if fixed >= -tol else 0, step):
            inside[i:i + step] = np.max(column_sums(coefs, offsets, points[i:i + step]),
                                        axis=0, initial=-np.inf) <= tol
        return inside

    @cached_property
    def _unit_solv(self) -> tuple:
        """feasible_many's operands: solv_rows' unit rows (by _norms), least fixed m_j b_w."""
        (g, h, _), (_, h_c, moving) = self.solv_rows, self._c_rows
        norms = _norms(g)
        return (np.ascontiguousarray((g / norms[:, None]).T[..., None]),
                (-h / norms)[:, None], float(np.min(h_c[~moving], initial=np.inf)))

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
    def _c_rows(self) -> tuple:
        """(G_C, h_C, moving) for every scenario w and unit facet row m_j of
        C, in (w, j) order: G_C[w, j] = -m_j A_w, h_C[w, j] = m_j b_w, and
        the mask |m_j A_w| >= 1e-12 of the rows that move with x."""
        rows = self.constraint_cone.facets()
        g = -np.matmul(rows, self.scenarios.mats)
        return g, self.scenarios.offsets @ rows.T, np.linalg.norm(g, axis=2) >= 1e-12

    @cached_property
    def solv_rows(self) -> tuple:
        """(G, h, count) with Solv = {z : G z <= h}, read-only: the first
        ``count`` rows are the moving rows of the C-row table, in (w, j)
        order, the rest the region's rows.  A region point's C-row excess
        is at most its merit."""
        g, h, moving = self._c_rows
        a, b = self.region.rows
        return (_readonly(np.vstack([g[moving], a])), _readonly(np.concatenate([h[moving], b])),
                int(np.count_nonzero(moving)))

    def activity(self, x) -> Activity:
        """The one activity rule: a row of Solv is active at x when its slack
        h - G x (``slack`` over :attr:`solv_rows`) is at most ACTIVE_TOL
        (``solv``).  ``slopes`` is the (w, j) mask of the facet rows of C
        active at A_w x + b_w, a row that does not move having slack m_j b_w,
        cleared in each scenario where no active row moves: the source of
        the merit function's flatness and slopes.  ``tangent`` is the rows
        -a_i of the active region rows, which give T_S(x) = {v : -a_i v >=
        0}, or None when x misses the region by more than ACTIVE_TOL.  Read
        once per point (:meth:`reading`)."""
        return self.reading(x, "activity", self._activity)

    def _activity(self, x) -> Activity:
        g, h, count = self.solv_rows
        slack = h - g @ x
        on = slack <= ACTIVE_TOL
        _, h_c, moving = self._c_rows
        c_on = h_c <= ACTIVE_TOL
        c_on[moving] = on[:count]
        inside = np.all(slack[count:] >= -ACTIVE_TOL)
        reading = Activity(slack, on, c_on & np.any(c_on & moving, axis=1)[:, None],
                           -self.region.rows[0][on[count:]] if inside else None)
        for arr in (a for a in reading if a is not None):
            arr.setflags(write=False)
        return reading

    def reading(self, x, name, compute):
        """``compute(x)`` at the flat float point x, once per name until another
        point is read; readings are shared, so their arrays are read-only."""
        x = np.asarray(x, dtype=float).ravel()
        if x.tobytes() not in self._memo:
            self._memo.clear()
        memo = self._memo.setdefault(x.tobytes(), {})
        return memo[name] if name in memo else memo.setdefault(name, compute(x))

    @cached_property
    def _memo(self) -> dict:
        return {}
