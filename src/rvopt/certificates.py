"""First-order weak-efficiency certificates and their refutations.

A locally weakly efficient point admits no feasible direction along which
the objective improves into the negative interior of the ordering cone.
This module checks several necessary conditions of that kind:

* a penalization condition along tangent directions, using an
  error-bound constant for the merit function and an order-Lipschitz bound
  on the objective (:func:`order_lipschitz_bound`), where the merit function is flat (:func:`merit_is_flat`);
* a tangential condition along directions kept feasible by the fan of
  scenario matrices, its scalarized form, a dual vector in the positive
  dual of the ordering cone, and the multiplier rule, which adds
  constraint-cone duals per fan matrix and a normal-cone element: one
  conic least-distance program decides these four exactly, its nearest
  point giving a violating direction and its weights the multipliers; and
* a scalarized penalization condition for convex data, decided exactly by
  column generation on the same program, its atoms built from the merit
  slopes of :func:`merit_slopes`.

Every program here, the qualification margins included, runs on the one
Lawson-Hanson kernel of :mod:`rvopt.cones`, and none samples.  Certificates
carry status, raw multipliers, and a residual, and can be re-validated from
the stored data without re-solving, memberships, witnesses, slopes and
atoms included.  An infeasible scalarization or multiplier rule refutes
weak efficiency whenever the accompanying qualification check passes.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .cones import (ORTHANT, PROJECTION_TOL, Cone, _norms, _readonly, nearest_hull_point,
                    project_many)
from .errors import PreconditionError
from .firstorder import ACTIVE_TOL, contingent_cone, normal_cone
from .problem import Problem, interior_witness, max_margin_point
from .sampling import ball_points
# unused; bench/tracing.py wraps these names here, and rvopt.problem.solve_lp, so
# they stay until it drops those sites
from .firstorder import sampled_cone_directions  # noqa: F401
from .simplex import feasibility, solve_lp  # noqa: F401

HOLDS = "holds"
VIOLATED = "violated"
LP_INFEASIBLE = "lp-infeasible"
INCONCLUSIVE = "inconclusive"

LP_SLACK = 1e-8
INTERIOR_MARGIN = 1e-7
COLUMN_ROUNDS = 16      # atom rounds of convex_scalarized_certificate


@dataclass(frozen=True)
class Certificate:
    """Outcome of one first-order check; raw multipliers included: ``duals``
    holds the multiplier rule's constraint duals when ``v`` is set, else its
    program's weights, (lam, mu) or scalarized-convex's (lam, theta, mu)."""

    kind: str
    status: str
    residual: float = 0.0
    y_star: np.ndarray | None = None
    v: np.ndarray | None = None
    duals: tuple = ()
    normal: np.ndarray | None = None
    witness: np.ndarray | None = None
    notes: tuple = field(default_factory=tuple)
    beta: float | None = None
    atoms: tuple = ()


@dataclass(frozen=True)
class KLipschitzEstimate:
    """Sampled order-Lipschitz bound: f(x1) - f(x2) + ell |x1-x2| e stays in
    the ordering cone for all sampled pairs."""

    ell: float
    radius: float
    pair_count: int


@dataclass(frozen=True)
class QualificationReport:
    passed: bool
    margin: float
    witness: np.ndarray | None
    notes: tuple = field(default_factory=tuple)
    applicable: bool = True     # False where the Slater variant does not apply


# ===== order-Lipschitz estimation ========================================


def estimate_order_lipschitz(problem: Problem, x, radius: float = 0.5,
                             samples: int = 48, seed: int = 0) -> KLipschitzEstimate:
    """Smallest ell keeping f(x1) - f(x2) + ell |x1-x2| e in the ordering
    cone over sampled pairs in the radius ball: a lower estimate of the
    true order-Lipschitz constant.

    The per-pair threshold is available in closed form because the
    interior direction pairs positively with every dual row.
    """
    x = np.asarray(x, dtype=float).ravel()
    e = problem.direction
    rows = problem.ordering_cone.facets()
    row_e = rows @ e
    if np.min(row_e) <= 1e-12:
        raise PreconditionError("interior direction degenerate for the ordering cone")

    pts = [x]
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = radius
        pts.extend([x + step, x - step])
    pts.extend(ball_points(x, radius, samples, seed=seed))
    pts = np.array(pts)

    first, second = np.triu_indices(pts.shape[0], k=1)
    steps = pts[first] - pts[second]
    # stacked products round each pair as the 1-D norm and rows @ diff do
    gap = np.sqrt(np.matmul(steps[:, None, :], steps[:, :, None])[:, 0, 0])
    kept = gap >= 1e-12
    values = problem.objective.value_many(pts)
    diffs = values[first[kept]] - values[second[kept]]
    diff = np.matmul(rows[None], diffs[:, :, None])[..., 0]
    ratios = np.abs(diff) / (gap[kept, None] * row_e)
    ell = float(ratios.max(initial=0.0))
    count = int(np.count_nonzero(kept))
    return KLipschitzEstimate(ell=ell, radius=radius, pair_count=count)


def order_lipschitz_bound(problem: Problem, x, radius: float) -> float:
    """Closed-form order-Lipschitz constant of f on the ball B(x, radius):
    max_j (|r_j J(x)| + radius |M_j|_2) / (r_j . e) over the facet rows r_j
    of K, with M_j = sum_k r_jk (Q_k + Q_k^T) the Hessian of r_j . f (0 for
    affine f).  By the mean value theorem |r_j . (f(x1) - f(x2))| is at most
    sup over the ball of |grad (r_j . f)| = |r_j J(x) + M_j (y - x)| times
    |x1 - x2|, so f(x1) - f(x2) + ell |x1 - x2| e lies in K."""
    rows = problem.ordering_cone.facets()
    grads = np.linalg.norm(rows @ problem.objective.jacobian(x), axis=1)
    if not problem.objective.is_affine:
        quads = problem.objective.quads
        hessians = np.einsum("jk,kab->jab", rows, quads + quads.transpose(0, 2, 1))
        grads = grads + radius * np.linalg.norm(hessians, 2, axis=(1, 2))
    return float(np.max(grads / (rows @ problem.direction)))


def order_lipschitz_holds(problem: Problem, x1, x2, ell: float,
                          tol: float = 1e-9) -> bool:
    """Direct test of the order-Lipschitz inclusion for one pair."""
    gap = float(np.linalg.norm(np.asarray(x1, float) - np.asarray(x2, float)))
    diff = problem.objective.value(x1) - problem.objective.value(x2)
    return problem.ordering_cone.contains(diff + ell * gap * problem.direction,
                                          tol=tol)


def _slope_facets(problem: Problem, x) -> np.ndarray:
    """(w, q) mask of the facet rows of C active at A_w x + b_w (within
    ACTIVE_TOL), cleared where every active row annihilates A_w (within
    ACTIVE_TOL): the one source of the merit function's flatness and slopes."""
    rows = problem.constraint_cone.facets()
    smap = problem.scenarios
    active = smap.evaluate(x).points @ rows.T <= ACTIVE_TOL                     # (w, q)
    moving = np.any(np.abs(np.matmul(rows, smap.mats)) > ACTIVE_TOL, axis=2)   # (w, q)
    return active & np.any(active & moving, axis=1)[:, None]


def merit_is_flat(problem: Problem, x) -> bool:
    """Whether merit(x + h) = o(|h|) at a feasible x: merit >= 0 = merit(x)
    leaves 0 as the only possible upper gradient, and it is one exactly
    when every slope of :func:`merit_slopes` is 0, each facet row of C
    active at A_w x + b_w annihilating A_w.  A rank-deficient A_w can sit
    on the boundary of C with merit 0 nearby."""
    return not np.any(_slope_facets(problem, x))


def merit_slopes(problem: Problem, x, dirs) -> np.ndarray:
    """The merit function's slope at a feasible x along each row d of
    ``dirs``, max_w dist(A_w d, T_w) (Rockafellar & Wets 1998), T_w the
    halfspace cone of the rows of :func:`_slope_facets`; all exactly 0
    where :func:`merit_is_flat` holds."""
    return _slope_residuals(problem, x, dirs)[0]


def _slope_residuals(problem: Problem, x, dirs):
    """(slopes, scenarios, residuals) along the rows d of ``dirs``: the first
    w attaining each slope, and the Moreau residual r = A_w d - P_{T_w}(A_w d)
    in T_w°, |r| the slope and r . A_w d = |r|^2 (w = 0, r = 0 at slope 0)."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    rows = problem.constraint_cone.facets()
    slopes, scenarios = np.zeros(dirs.shape[0]), np.zeros(dirs.shape[0], dtype=int)
    residuals = np.zeros((dirs.shape[0], rows.shape[1]))
    for w, (mat, active) in enumerate(zip(problem.scenarios.mats, _slope_facets(problem, x))):
        if active.any():
            images = dirs @ mat.T
            moved = images - project_many(Cone.halfspaces(rows[active]), images)
            dist = _norms(moved)
            steeper = dist > slopes
            scenarios[steeper], residuals[steeper] = w, moved[steeper]
            slopes = np.maximum(slopes, dist)
    return slopes, scenarios, residuals


def _direction_cone_rows(problem: Problem, x: np.ndarray, kind: str) -> np.ndarray:
    """Unit rows P of the direction cone T = {v : P v >= 0} of a
    certificate: T_S(x) for penalization, else the fan preimage cone of C
    intersected with T_S(x)."""
    tangent = contingent_cone(problem.region, x).rows
    return tangent if kind == "penalization" else np.vstack([problem.preimage_rows, tangent])


def _depth_rows(problem: Problem, x: np.ndarray) -> np.ndarray:
    """A = -R_K J(x): min_j a_j . v is the depth of -f'(x; v) in K, positive
    when v improves f into -int K."""
    return -(problem.ordering_cone.facets() @ problem.objective.jacobian(x))


def _cone_program(problem: Problem, x, kind: str) -> dict:
    """The program of :func:`_cone_certificate`, solved once per point and
    direction cone (penalization's T_S(x) or the fan cone): the problem
    keeps the latest solve, whose witness and weights every certificate
    read from it shares, so they are read-only."""
    x = np.asarray(x, dtype=float).ravel()
    key = (x.tobytes(), kind == "penalization")
    program = problem._latest_program
    if program.get("key") != key:
        a, rows = _depth_rows(problem, x), _direction_cone_rows(problem, x, kind)
        m, witness, lam, mu = max_margin_point(a, x.size, rows)
        program.clear()
        program.update(key=key, a=a, rows=rows, m=m, witness=_readonly(witness),
                       duals=(_readonly(lam), _readonly(mu)))
    return program


def _exact_weights(problem: Problem, x):
    """(y, lam, mu) of the fan-cone program at a zero margin, y = R_K^T lam
    scaled to n . y = 1 with n the normalization row: weights at rounding
    level (at most PROJECTION_TOL times the largest) leave the support, and
    one least-squares refinement step of A^T lam + P^T mu = 0, n . y = 1 on
    the rest makes exact data give exact weights, whatever the length of e.
    Computed once per solve, read-only like it."""
    program = _cone_program(problem, x, "scalarized-fan")
    if "exact" in program:
        return program["exact"]
    a, rows, (lam, mu) = program["a"], program["rows"], program["duals"]
    weights = np.concatenate([lam, mu])
    weights[weights <= PROJECTION_TOL * np.max(weights)] = 0.0
    norm_row = _normalization_row(problem) @ problem.ordering_cone.facets().T
    system = np.vstack([np.hstack([a.T, rows.T]), np.append(norm_row, np.zeros(mu.size))])
    weights /= float(system[-1] @ weights)
    free = weights > 0.0
    step = np.linalg.lstsq(system[:, free], np.eye(len(system))[-1] - system @ weights,
                           rcond=None)[0]
    weights[free] = np.maximum(weights[free] + step, 0.0)
    # adding 0.0 turns a -0.0 from a zero weight into 0.0
    y = problem.ordering_cone.facets().T @ weights[:lam.size] + 0.0
    program["exact"] = tuple(map(_readonly, (y, weights[:lam.size], weights[lam.size:])))
    return program["exact"]


def _cone_certificate(kind: str, problem: Problem, x) -> Certificate:
    """One :func:`max_margin_point` program (:func:`_cone_program`) decides
    the kind exactly: m, the max over unit v in T of min_j a_j . v
    (:func:`_direction_cone_rows`, :func:`_depth_rows`), is the distance
    from 0 to conv(A) + cone(P).  m > INTERIOR_MARGIN: the witness v =
    p / |p| lies in T and improves f into -int K by m, which violates the
    condition (no dual vector or multipliers exist); LP_SLACK < m <=
    INTERIOR_MARGIN is inconclusive, and so is a v that rounding leaves
    outside T, which is no evidence.  Otherwise the condition holds, and
    the weights (lam, mu) of the nearest point, on the simplex in ``duals``,
    give y = R_K^T lam in K+ with J^T y = P^T mu / (n . lam) in the dual of
    T, n the normalization row (exact where read, :func:`_exact_weights`)."""
    program = _cone_program(problem, x, kind)
    m, witness, duals = program["m"], program["witness"], program["duals"]
    if m > LP_SLACK and np.min(program["rows"] @ witness, initial=0.0) < -PROJECTION_TOL:
        return Certificate(kind=kind, status=INCONCLUSIVE, residual=m, duals=duals,
                           notes=("the nearest point's direction leaves the cone",))
    if m > LP_SLACK:
        failed = VIOLATED if kind in ("tangential", "penalization") else LP_INFEASIBLE
        status, notes = (failed, ()) if m > INTERIOR_MARGIN else (
            INCONCLUSIVE, ("within the margin zone",))
        return Certificate(kind=kind, status=status, residual=m, witness=witness,
                           duals=duals, notes=notes)
    return Certificate(kind=kind, status=HOLDS, residual=m, duals=duals)


def check_penalization_condition(problem: Problem, x, sigma: float,
                                 ell: float) -> Certificate:
    """Necessary condition via merit penalization: along no tangent
    direction v may f'(x; v) + (ell / sigma) <x*, v> e fall in the
    negative interior of the ordering cone, x* an upper gradient of the
    merit function.  One exists only where :func:`merit_is_flat` holds, and
    it is 0 there, so the term drops and :func:`_cone_certificate` decides
    the condition over T_S(x); sigma > 0 (an error-bound constant, inf where
    merit is 0 nearby) and ell >= 0 (an order-Lipschitz bound) stay the
    checked hypotheses.
    """
    if not sigma > 0.0:
        raise PreconditionError("penalization needs sigma > 0")
    if ell < 0.0:
        raise PreconditionError("penalization needs ell >= 0")
    return _cone_certificate("penalization", problem, x)


def check_tangential_condition(problem: Problem, x) -> Certificate:
    """Necessary condition via the problem's fan: along no direction of the
    fan preimage cone of C intersected with the tangent cone may the
    derivative fall in the negative interior of the ordering cone, decided
    by :func:`_cone_certificate`."""
    return _cone_certificate("tangential", problem, x)


# ===== scalarized certificates ===========================================


def _normalization_row(problem: Problem) -> np.ndarray:
    """The row n normalizing a dual vector y, n . y = 1: sum(y) = 1 on the
    orthant, y . e = 1 otherwise."""
    if problem.ordering_cone.kind == ORTHANT:
        return np.ones(problem.ordering_cone.dim)
    return problem.direction


def _penalized_depth(problem: Problem, x, v, beta: float, slope: float) -> float:
    """min_j r_j . -(J v + beta slope e) over the facet rows r_j of K: the
    depth of the penalized derivative in -K, positive when v refutes."""
    scale = problem.ordering_cone.facets() @ problem.direction
    return float(np.min(_depth_rows(problem, x) @ v - beta * slope * scale))


def convex_scalarized_certificate(problem: Problem, x, sigma: float, ell: float) -> Certificate:
    """Scalarized penalization condition for convex data: a y* in K+ with
    y* . e = 1 and  y* . [f'(x; v) + beta Dphi(x; v) e] >= 0  on T = T_S(x)
    = {v : P v >= 0}, Dphi the slope of :func:`merit_slopes`, beta = ell /
    sigma, sigma > 0 an error-bound constant (inf gives beta = 0).

    Dphi is the support function of U = union_w A_w^T (T_w° cap B), so by
    minimax y* exists iff 0 is in conv{a_j - beta (r_j . e) u : u in U} +
    cone(P), a_j = -r_j J over the facet rows r_j of K.  Column generation
    (fully corrective Frank-Wolfe: Gilbert 1966; von Hohenbalken 1977) runs
    one :func:`nearest_hull_point` per round on the pairs a_j - beta (r_j . e)
    u_k of the atoms, first 0.  |p| <= LP_SLACK holds with y* = sum_j lam_j
    r_j / (r_j . e), lam and theta the sums of w_jk (r_j . e) / s per row and
    atom, s their total, and residual |p| / s = |J^T y* + beta sum_k theta_k
    u_k - P^T mu / s|.  Otherwise v = p / |p| in T of depth above
    INTERIOR_MARGIN (:func:`_penalized_depth`) is lp-infeasible; else the
    atom A_w^T r / |r| of v's Moreau residual (:func:`_slope_residuals`)
    joins, kept as (w, r / |r|) in ``atoms``.  A repeated atom or
    COLUMN_ROUNDS rounds leave it inconclusive."""
    if not sigma > 0.0:
        raise PreconditionError("scalarization needs sigma > 0")
    x = np.asarray(x, dtype=float).ravel()
    beta, facets, mats = ell / sigma, problem.ordering_cone.facets(), problem.scenarios.mats
    depth, scale = _depth_rows(problem, x), facets @ problem.direction
    rows = contingent_cone(problem.region, x).rows
    stored = [(0, np.zeros(problem.constraint_cone.dim))]
    for _ in range(COLUMN_ROUNDS):
        atoms = np.array([mats[w].T @ r for w, r in stored])
        pairs = depth[:, None, :] - beta * scale[:, None, None] * atoms[None, :, :]
        p, weights, mu = nearest_hull_point(pairs.reshape(-1, x.size), rows)
        weights = weights.reshape(pairs.shape[:2]) * scale[:, None]
        total, norm = float(np.sum(weights)), float(np.linalg.norm(p))
        lam = weights.sum(axis=1) / total
        cert = Certificate(kind="scalarized-convex", status=INCONCLUSIVE, residual=norm / total,
                           duals=(lam, weights.sum(axis=0) / total, mu / total),
                           beta=beta, atoms=tuple(stored))
        if norm <= LP_SLACK:
            return replace(cert, status=HOLDS, y_star=facets.T @ (lam / scale))
        v = p / norm
        slopes, scenarios, residuals = _slope_residuals(problem, x, v)
        bound = _penalized_depth(problem, x, v, beta, slopes[0])
        if np.min(rows @ v, initial=0.0) >= -PROJECTION_TOL and bound > INTERIOR_MARGIN:
            return replace(cert, status=LP_INFEASIBLE, residual=bound, witness=v)
        w, r = int(scenarios[0]), residuals[0] / (slopes[0] if slopes[0] > 0.0 else 1.0)
        if np.min(_norms(atoms - mats[w].T @ r)) <= PROJECTION_TOL:
            return replace(cert, notes=("the next atom is already an atom",))
        stored.append((w, r))
    return replace(cert, notes=(f"no decision within {COLUMN_ROUNDS} atom rounds",))


def scalarized_fan_certificate(problem: Problem, x) -> Certificate:
    """Scalarized tangential condition: a normalized dual vector y* in the
    positive dual of the ordering cone with  y* . (J v) >= 0  for every
    direction v in the intersection of the preimage cone of the problem's
    fan with the tangent cone.  It is the dual report of the tangential
    condition's program (:func:`_cone_certificate`): it exists exactly when
    m = 0, and m > 0 gives a direction v that every candidate y* fails.
    Also emits the inclusion datum J^T y* = P^T mu / (n . lam), a member of
    the dual of that cone.
    """
    if not problem.objective.is_affine:
        raise PreconditionError("fan scalarization requires an affine objective")
    cert = _cone_certificate("scalarized-fan", problem, x)
    if cert.status != HOLDS:
        return cert
    y, lam, mu = _exact_weights(problem, x)
    return replace(cert, y_star=y, duals=(lam / np.sum(lam), mu / np.sum(lam)),
                   notes=("inclusion datum J^T y* = P^T mu / (n . lam) in the dual of T",))


def multiplier_certificate(problem: Problem, x, tol: float = 1e-9) -> Certificate:
    """Finite-dimensional multiplier rule: find a nonzero normalized
    objective multiplier v in the positive dual of the ordering cone,
    constraint duals c_i in the negative dual of the constraint cone (one
    per matrix of the problem's fan), and a normal-cone element n with

        J^T v + sum_i L_i^T c_i + n = 0.

    By Motzkin's theorem they exist exactly when 0 is in conv(-R_K J) +
    cone(P), so this is the third reading of the tangential condition's
    program (:func:`_cone_certificate`): with P the preimage rows
    m_j L_w / |m_j L_w| on the tangent rows t_k, the exact weights give v =
    y, c_w = -sum_j mu_wj m_j / |m_j L_w| in -C* and n = -sum_k mu_k t_k in
    N_S(x), which hold when |J^T v + sum_w L_w^T c_w + n| is at most
    max(tol, 1e-8).  When m > INTERIOR_MARGIN, r = (witness, m) is the
    Farkas vector of the system in generator coordinates.  Infeasibility
    refutes weak efficiency when the qualification condition holds."""
    cert = _cone_certificate("multiplier", problem, x)
    if cert.status != HOLDS:
        return cert
    y, _, mu = _exact_weights(problem, x)
    _, norms, keep = problem.preimage
    coeffs = np.zeros(keep.shape)
    coeffs[keep] = mu[:norms.size] / norms
    duals = tuple(0.0 - coeffs @ problem.constraint_cone.facets())
    tangent = _cone_program(problem, x, "multiplier")["rows"][norms.size:]
    normal = 0.0 - tangent.T @ mu[norms.size:]
    residual = _multiplier_residual(problem, x, y, duals, normal)
    return replace(cert, status=HOLDS if residual <= max(tol, 1e-8) else INCONCLUSIVE,
                   residual=residual, v=y, duals=duals, normal=normal)


def _multiplier_residual(problem, x, v, duals, normal) -> float:
    total = problem.objective.jacobian(x).T @ v + normal
    for mat, dual in zip(problem.fan().bundle, duals):
        total = total + mat.T @ dual
    return float(np.max(np.abs(total)))


def _replay_cone_certificate(problem: Problem, x: np.ndarray, cert: Certificate) -> float:
    """Replay of :func:`_cone_certificate`: inf unless lam >= 0 lies on the
    simplex, mu >= 0, |A^T lam + P^T mu|_inf is at most the residual plus
    LP_SLACK, a witness v is a unit vector, to PROJECTION_TOL, with
    P v >= -PROJECTION_TOL, and a y* is the scaled R_K^T lam; then the
    witness's depth min_j a_j . v, or the stored residual when there is
    none."""
    a, rows = _depth_rows(problem, x), _direction_cone_rows(problem, x, cert.kind)
    lam, mu = cert.duals
    gap = float(np.max(np.abs(a.T @ lam + rows.T @ mu)))
    valid = (np.min(lam) >= 0.0 and abs(np.sum(lam) - 1.0) <= PROJECTION_TOL
             and np.min(mu, initial=0.0) >= 0.0 and gap <= cert.residual + LP_SLACK)
    if cert.witness is not None:
        valid = (valid and abs(np.linalg.norm(cert.witness) - 1.0) <= PROJECTION_TOL
                 and np.min(rows @ cert.witness, initial=0.0) >= -PROJECTION_TOL)
    if cert.y_star is not None:
        y = problem.ordering_cone.facets().T @ lam
        y = y / float(_normalization_row(problem) @ y)
        valid = valid and np.max(np.abs(cert.y_star - y)) <= PROJECTION_TOL * np.max(np.abs(y))
    if not valid:
        return np.inf
    return cert.residual if cert.witness is None else float(np.min(a @ cert.witness))


def _replay_convex_certificate(problem: Problem, x: np.ndarray, cert: Certificate) -> float:
    """Replay of :func:`convex_scalarized_certificate`.  A witness: inf unless
    a unit vector in T, else its depth (slope by :func:`merit_slopes`).  A y*:
    inf unless in K+ with y* . e = 1, lam and theta on the simplex, mu >= 0,
    each atom (w, r) with r in T_w° and |r| <= 1, and |J^T y* + beta sum_k theta_k
    A_w^T r_k - P^T mu| <= residual + LP_SLACK (to PROJECTION_TOL).  Else the residual."""
    rows = contingent_cone(problem.region, x).rows
    if cert.witness is not None:
        v = cert.witness
        if (abs(np.linalg.norm(v) - 1.0) > PROJECTION_TOL
                or np.min(rows @ v, initial=0.0) < -PROJECTION_TOL):
            return np.inf
        return _penalized_depth(problem, x, v, cert.beta, merit_slopes(problem, x, v)[0])
    if cert.y_star is None:
        return cert.residual
    (lam, theta, mu), y, mats = cert.duals, cert.y_star, problem.scenarios.mats
    c_rows, masks = problem.constraint_cone.facets(), _slope_facets(problem, x)
    valid = (abs(float(y @ problem.direction) - 1.0) <= PROJECTION_TOL
             and problem.ordering_cone.negative_dual().contains(
                 -y, tol=PROJECTION_TOL * (1.0 + np.linalg.norm(y)))
             and all(np.min(z) >= 0.0 and abs(np.sum(z) - 1.0) <= PROJECTION_TOL
                     for z in (lam, theta))
             and len(theta) == len(cert.atoms) and np.min(mu, initial=0.0) >= 0.0
             and all(0 <= w < len(mats) and np.linalg.norm(r) <= 1.0 + PROJECTION_TOL
                     and Cone.rays(-c_rows[masks[w]], dim=c_rows.shape[1]).contains(
                         r, tol=PROJECTION_TOL) for w, r in cert.atoms))
    if valid:
        pull = sum(t * (mats[w].T @ r) for t, (w, r) in zip(theta, cert.atoms))
        gap = problem.objective.jacobian(x).T @ y + cert.beta * pull - rows.T @ mu
        valid = np.linalg.norm(gap) <= cert.residual + LP_SLACK
    return cert.residual if valid else np.inf


def replay_certificate(problem: Problem, x, cert: Certificate) -> float:
    """Recompute a certificate's residual from its stored multipliers, against
    the problem's fan, or from its stored weights, atoms and witness
    (:func:`_replay_cone_certificate`, :func:`_replay_convex_certificate`).
    Multipliers replay to inf unless v lies in K+ on its normalization row,
    each c_i in -C* and n in N_S(x), each membership to PROJECTION_TOL
    relative to the vector's length."""
    x = np.asarray(x, dtype=float).ravel()
    if cert.kind == "multiplier" and cert.v is not None:
        cones = [problem.ordering_cone.negative_dual(), normal_cone(problem.region, x)]
        members = zip(cones + [problem.constraint_cone.negative_dual()] * len(cert.duals),
                      [-cert.v, cert.normal, *cert.duals])
        valid = (abs(float(_normalization_row(problem) @ cert.v) - 1.0) <= PROJECTION_TOL
                 and len(cert.duals) == problem.fan().size
                 and all(cone.contains(z, tol=PROJECTION_TOL * (1.0 + np.linalg.norm(z)))
                         for cone, z in members))
        return _multiplier_residual(problem, x, cert.v, cert.duals, cert.normal) \
            if valid else np.inf
    if cert.kind == "scalarized-convex":
        return _replay_convex_certificate(problem, x, cert)
    return _replay_cone_certificate(problem, x, cert)


# ===== qualification =====================================================


def qualification_check(problem: Problem, x, tol: float = LP_SLACK) -> QualificationReport:
    """Interior-compatibility of the fan preimages with the tangent cone.

    The condition asks for a direction interior to every fan-matrix
    preimage of the constraint cone and to the tangent cone at once; it is
    decided by maximizing the joint interiority margin over the unit ball,
    which is the distance from 0 to the convex hull of the rows, the
    problem's raw :attr:`~rvopt.problem.Problem.preimage_rows` and the
    tangent cone's.  The report also runs :func:`slater_check`.
    """
    x = np.asarray(x, dtype=float).ravel()
    rows = np.vstack([problem.preimage_rows, contingent_cone(problem.region, x).rows])
    margin, witness, _, _ = max_margin_point(rows, x.size)
    notes = () if rows.shape[0] else ("no active rows; condition vacuous",)
    return QualificationReport(passed=margin > tol, margin=margin, witness=witness, notes=notes)


def slater_check(problem: Problem, x, tol: float = LP_SLACK) -> QualificationReport:
    """The Slater variant of :func:`qualification_check`: a direction mapped
    into the interior of the constraint cone by every fan matrix.  It
    applies only when that interior is nonempty and the point is interior
    to the region, where the tangent cone has no rows."""
    x = np.asarray(x, dtype=float).ravel()
    if interior_witness(problem.constraint_cone)[1] <= tol:
        reason = "constraint cone has empty interior"
    elif contingent_cone(problem.region, x).rows.shape[0]:
        reason = "reference point is not interior to the region"
    else:
        stacked = np.vstack([problem.constraint_cone.facets() @ mat
                             for mat in problem.fan().bundle])
        margin, witness, _, _ = max_margin_point(stacked, x.size)
        return QualificationReport(passed=margin > tol, margin=margin, witness=witness)
    return QualificationReport(False, 0.0, None, notes=(reason,), applicable=False)
