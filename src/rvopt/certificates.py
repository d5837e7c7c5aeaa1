"""First-order weak-efficiency certificates and their refutations.

A locally weakly efficient point admits no feasible direction along which
the objective improves into the negative interior of the ordering cone.
This module checks several necessary conditions of that kind:

* a penalization condition along tangent directions, using a descent
  constant for the merit function and an order-Lipschitz bound on the
  objective, where the merit function is flat (:func:`merit_is_flat`);
* a tangential condition along directions kept feasible by the fan of
  scenario matrices, its scalarized form, a dual vector in the positive
  dual of the ordering cone, and the multiplier rule, which adds
  constraint-cone duals per fan matrix and a normal-cone element: one
  conic least-distance program decides these four exactly, its nearest
  point giving a violating direction and its weights the multipliers; and
* a scalarized penalization condition for convex data, searching for a
  dual vector by least-distance programming over sampled directions
  weighted by the merit slopes of :func:`merit_slopes`.

Every program here, the qualification margins included, runs on the one
Lawson-Hanson kernel of :mod:`rvopt.cones`.  Certificates carry status,
raw multipliers, and a residual, and can be re-validated from the stored
data without re-solving, memberships, witnesses, slopes and Farkas vectors
included.  An infeasible scalarization or multiplier rule refutes weak
efficiency whenever the accompanying qualification check passes.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .cones import (ORTHANT, PROJECTION_TOL, Cone, _readonly, cone_generators,
                    distance_many, least_distance_point)
from .errors import PreconditionError, RepresentationError
from .firstorder import (ACTIVE_TOL, _merge_directions, contingent_cone, normal_cone,
                         sampled_cone_directions)
from .problem import Problem, interior_witness, max_margin_point
from .sampling import ball_points
# unused; bench/tracing.py wraps rvopt.problem.solve_lp, rvopt.certificates.solve_lp
# and rvopt.certificates.feasibility by name, so they stay until it drops those sites
from .simplex import feasibility, solve_lp  # noqa: F401

HOLDS = "holds"
VIOLATED = "violated"
LP_INFEASIBLE = "lp-infeasible"
INCONCLUSIVE = "inconclusive"

LP_SLACK = 1e-8
INTERIOR_MARGIN = 1e-7


@dataclass(frozen=True)
class Certificate:
    """Outcome of one first-order check; raw multipliers included: ``duals``
    holds the multiplier rule's constraint duals when ``v`` is set, else the
    weights (lam, mu) of a fan-cone program (:func:`_cone_certificate`)."""

    kind: str
    status: str
    residual: float = 0.0
    y_star: np.ndarray | None = None
    v: np.ndarray | None = None
    duals: tuple = ()
    normal: np.ndarray | None = None
    witness: np.ndarray | None = None
    directions: np.ndarray | None = None
    notes: tuple = field(default_factory=tuple)
    beta: float | None = None
    farkas: np.ndarray | None = None


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
    ``dirs``, max_w dist(A_w d, T_C(A_w x + b_w)) (Rockafellar & Wets 1998),
    T_C the halfspace cone of the rows of :func:`_slope_facets`; all exactly
    0 where :func:`merit_is_flat` holds."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    rows = problem.constraint_cone.facets()
    slopes = np.zeros(dirs.shape[0])
    for mat, active in zip(problem.scenarios.mats, _slope_facets(problem, x)):
        if active.any():
            tangent = Cone.halfspaces(rows[active])
            slopes = np.maximum(slopes, distance_many(tangent, dirs @ mat.T))
    return slopes


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


def check_penalization_condition(problem: Problem, x, alpha: float,
                                 ell: float) -> Certificate:
    """Necessary condition via merit penalization: along no tangent
    direction v may f'(x; v) + (ell / (alpha - 1)) <x*, v> e fall in the
    negative interior of the ordering cone, x* an upper gradient of the
    merit function.  One exists only where :func:`merit_is_flat` holds, and
    it is 0 there, so the term drops and :func:`_cone_certificate` decides
    the condition over T_S(x); alpha > 1 (a certified increase rate) and
    ell >= 0 (an order-Lipschitz bound) stay the checked hypotheses.
    """
    if alpha <= 1.0:
        raise PreconditionError("penalization needs alpha > 1")
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


def _dual_vector_system(problem: Problem, constraint_vectors: np.ndarray):
    """The dual-vector search as g c >= h: [V G; I; 1; -1] c >= [0; 0; 1; -1],
    with the rows of V the constraint vectors and the columns of G
    generators of the positive dual of the ordering cone; returns g, h, G."""
    dual_gens = problem.ordering_cone.facets().T      # columns generate K+
    q = dual_gens.shape[1]
    ones = np.ones(q)
    g = np.vstack([constraint_vectors @ dual_gens, np.eye(q), ones, -ones])
    h = np.concatenate([np.zeros(constraint_vectors.shape[0] + q), [1.0, -1.0]])
    return g, h, dual_gens


def _dual_vector_lp(problem: Problem, constraint_vectors: np.ndarray):
    """A dual vector y = G c with c >= 0, n . c = 1 and y . w >= 0 for every
    constraint vector w, where n is the normalization row.  K+ is pointed
    and n . c = e . G c, so n . c > 0 for every nonzero c >= 0: the program
    takes the least-norm c on the simplex, one least-distance program over
    :func:`_dual_vector_system`, and scales it by 1 / n . c.  The simplex
    keeps |c| <= 1 whatever e is, where normalizing by n directly makes |c|
    grow like 1 / |e|.  Returns y and the least-distance multipliers u;
    y is None when the system is inconsistent, and u is then its Farkas
    vector (:func:`replay_certificate`)."""
    g, h, dual_gens = _dual_vector_system(problem, constraint_vectors)
    coeffs, u = least_distance_point(g, h)
    if coeffs is None:
        return None, u
    return dual_gens @ (coeffs / float(_normalization_row(problem) @ dual_gens @ coeffs)), u


def _penalized_vectors(problem: Problem, x, dirs, beta: float) -> np.ndarray:
    """f'(x; v) + beta slope_v e for every direction v (:func:`merit_slopes`)."""
    vectors = [problem.objective.directional(x, v) + beta * slope * problem.direction
               for v, slope in zip(dirs, merit_slopes(problem, x, dirs))]
    return np.array(vectors) if vectors else np.zeros((0, problem.ordering_cone.dim))


def _scalarized_residual(vectors: np.ndarray, y: np.ndarray) -> float:
    return float(max(0.0, np.max(-(vectors @ y), initial=0.0)))


def convex_scalarized_certificate(problem: Problem, x, alpha: float, ell: float,
                                  dir_count: int = 64, seed: int = 0) -> Certificate:
    """Scalarized penalization condition for convex data: search for a dual
    vector y* in the positive dual of the ordering cone, normalized, with

        y* . [ f'(x; v) + (ell/(alpha-1)) Dphi(x; v) e ]  >=  0

    along tangent generators and sampled tangent directions, where
    Dphi(x; v) is the merit function's exact slope (:func:`merit_slopes`).
    The certificate keeps beta = ell/(alpha-1) and the directions, from
    which :func:`replay_certificate` recomputes the slopes and the system."""
    if alpha <= 1.0:
        raise PreconditionError("scalarization needs alpha > 1")
    x = np.asarray(x, dtype=float).ravel()
    beta = ell / (alpha - 1.0)
    tangent = contingent_cone(problem.region, x)
    try:
        gens = cone_generators(tangent)
    except RepresentationError:
        gens = np.zeros((0, x.size))
    dirs = _merge_directions(gens, sampled_cone_directions(tangent, dir_count, seed=seed))

    vectors = _penalized_vectors(problem, x, dirs, beta)
    y, farkas = _dual_vector_lp(problem, vectors)
    if y is None:
        return Certificate(kind="scalarized-convex", status=LP_INFEASIBLE,
                           directions=dirs, beta=beta, farkas=farkas)
    return Certificate(kind="scalarized-convex", status=HOLDS, y_star=y, directions=dirs,
                       residual=_scalarized_residual(vectors, y), beta=beta,
                       notes=("sampled directions; holds is not proof-grade between generators",))


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


def replay_certificate(problem: Problem, x, cert: Certificate) -> float:
    """Recompute a certificate's residual from its stored multipliers, against
    the problem's fan, or from its stored weights and witness
    (:func:`_replay_cone_certificate`; an infeasible multiplier rule
    included), or, for scalarized-convex, from its stored directions and
    merit slopes.  Multipliers replay to inf unless v lies in K+ on its
    normalization row, each c_i in -C* and n in N_S(x), each membership to
    PROJECTION_TOL relative to the vector's length.
    An infeasible scalarized system g c >= h (:func:`_dual_vector_system`)
    does so while its Farkas vector u >= 0 has |g^T u| < h . u: every c with
    g c >= h lies on the simplex, so |c| <= 1 and h . u <= u . g c <= |g^T u|."""
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
    if cert.kind in ("tangential", "penalization", "scalarized-fan", "multiplier"):
        return _replay_cone_certificate(problem, x, cert)
    if cert.directions is None:
        return cert.residual
    vectors = _penalized_vectors(problem, x, cert.directions, cert.beta)
    if cert.status == LP_INFEASIBLE:
        g, h, _ = _dual_vector_system(problem, vectors)
        u = cert.farkas
        separates = (u is not None and np.min(u) >= 0.0
                     and np.linalg.norm(g.T @ u) < h @ u)
        return cert.residual if separates else np.inf
    if cert.y_star is None:
        return cert.residual
    return _scalarized_residual(vectors, cert.y_star)


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
