"""First-order weak-efficiency certificates and their refutations.

A locally weakly efficient point admits no feasible direction along which
the objective improves into the negative interior of the ordering cone.
This module checks several necessary conditions of that kind:

* a penalization condition along tangent directions, using a descent
  constant for the merit function and an order-Lipschitz bound on the
  objective;
* a tangential condition along directions kept feasible by the fan of
  scenario matrices;
* scalarized versions of both, searching for a dual vector in the
  positive dual of the ordering cone by linear programming; and
* a multiplier rule combining objective multipliers, constraint-cone
  duals per fan matrix, and a normal-cone element.

Certificates carry status, raw multipliers, and a residual, and can be
re-validated from the stored data without re-solving.  An LP-infeasible
scalarization or multiplier system refutes weak efficiency whenever the
accompanying qualification check passes.
"""

from dataclasses import dataclass, field

import numpy as np

from .cones import ORTHANT, Cone, cone_generators, limited_generators
from .errors import PreconditionError, RepresentationError
from .firstorder import (_merge_directions, contingent_cone, normal_cone,
                         sampled_cone_directions, upper_inverse_cone, Fan)
from .problem import Problem, interior_witness, max_margin_point
from .sampling import ball_points
# solve_lp is unused here but stays importable: bench/tracing.py wraps it at
# this import site.
from .simplex import INFEASIBLE, LinearProgram, OPTIMAL, feasibility, solve_lp  # noqa: F401

HOLDS = "holds"
VIOLATED = "violated"
LP_INFEASIBLE = "lp-infeasible"
INCONCLUSIVE = "inconclusive"

LP_SLACK = 1e-8
INTERIOR_MARGIN = 1e-7


@dataclass(frozen=True)
class Certificate:
    """Outcome of one first-order check; raw multipliers included."""

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
    slater_applicable: bool
    slater_passed: bool
    slater_margin: float
    slater_witness: np.ndarray | None
    notes: tuple = field(default_factory=tuple)


def _intersect_halfspace_cones(a: Cone, b: Cone) -> Cone:
    rows = np.vstack([a.rows, b.rows])
    return Cone.halfspaces(rows) if rows.shape[0] else Cone.whole_space(a.dim)


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


# ===== directional interior tests ========================================


def _direction_set(cone: Cone, count: int, seed: int):
    """Sampled unit directions in the cone, merged with its exact
    generators when enumeration is tractable.

    The flag reports whether an empty result proves the cone trivial
    (generators enumerated and none found) rather than merely unsampled.
    """
    dirs = sampled_cone_directions(cone, count, seed=seed)
    try:
        gens = limited_generators(cone)
    except RepresentationError:
        return dirs, False
    return _merge_directions(dirs, gens), True


def _directional_certificate(kind, k_cone, dirs, value_of, margin_scale,
                             notes=(), trivial_is_exact=False):
    if dirs.shape[0] == 0:
        if trivial_is_exact:
            return Certificate(kind=kind, status=HOLDS,
                               notes=notes + ("direction cone is trivial; "
                                              "the condition is vacuous",))
        return Certificate(kind=kind, status=INCONCLUSIVE,
                           notes=notes + ("no directions sampled; cone may be trivial",))
    rows, worst, witness = k_cone.facets(), -np.inf, None
    for v in dirs:
        # depth of -value_of(v) inside K; > 0 means v improves into -int K
        depth = float(np.min(rows @ (-value_of(v))))
        if depth > worst:
            worst, witness = depth, v
    margin = margin_scale  # directions are unit vectors
    if worst > margin:
        return Certificate(kind=kind, status=VIOLATED, residual=worst,
                           witness=witness, directions=dirs, notes=notes)
    if worst > LP_SLACK:
        return Certificate(kind=kind, status=INCONCLUSIVE, residual=worst,
                           witness=witness, directions=dirs,
                           notes=notes + ("within the margin zone",))
    return Certificate(kind=kind, status=HOLDS, residual=max(0.0, worst),
                       directions=dirs, notes=notes)


def check_penalization_condition(problem: Problem, x, alpha: float, ell: float,
                                 upper_gradient, dir_count: int = 64,
                                 seed: int = 0,
                                 margin: float = INTERIOR_MARGIN) -> Certificate:
    """Necessary condition via merit penalization: along no sampled tangent
    direction v may

        f'(x; v) + (ell / (alpha - 1)) <x*, v> e

    fall in the negative interior of the ordering cone.  ``upper_gradient``
    is the upper subgradient x* of the merit function used in the
    penalization argument; alpha is a certified increase rate.
    """
    if alpha <= 1.0:
        raise PreconditionError("penalization needs alpha > 1")
    if ell < 0.0:
        raise PreconditionError("penalization needs ell >= 0")
    x = np.asarray(x, dtype=float).ravel()
    grad = np.asarray(upper_gradient, dtype=float).ravel()
    beta = ell / (alpha - 1.0)
    tangent = contingent_cone(problem.region, x)
    dirs, exact = _direction_set(tangent, dir_count, seed=seed)

    def value_of(v):
        return problem.objective.directional(x, v) \
            + beta * float(grad @ v) * problem.direction

    return _directional_certificate("penalization", problem.ordering_cone,
                                    dirs, value_of, margin,
                                    trivial_is_exact=exact)


def check_tangential_condition(problem: Problem, x, fan: Fan | None = None,
                               dir_count: int = 64, seed: int = 0,
                               margin: float = INTERIOR_MARGIN) -> Certificate:
    """Necessary condition via the fan: along no sampled direction of
    (fan preimage of the constraint cone) intersected with the tangent cone
    may the derivative fall in the negative interior of the ordering cone."""
    x = np.asarray(x, dtype=float).ravel()
    fan = problem.fan() if fan is None else fan
    keep = _intersect_halfspace_cones(
        upper_inverse_cone(fan, problem.constraint_cone),
        contingent_cone(problem.region, x))
    dirs, exact = _direction_set(keep, dir_count, seed=seed)

    def value_of(v):
        return problem.objective.directional(x, v)

    return _directional_certificate("tangential", problem.ordering_cone,
                                    dirs, value_of, margin,
                                    trivial_is_exact=exact)


# ===== scalarized certificates ===========================================


def _normalization_row(problem: Problem, dual_gens: np.ndarray) -> np.ndarray:
    """The row normalizing y = dual_gens @ coeffs, in generator coordinates:
    sum(y) = 1 on the orthant, y . e = 1 otherwise."""
    if problem.ordering_cone.kind == ORTHANT:
        return np.ones(dual_gens.shape[0]) @ dual_gens
    return problem.direction @ dual_gens


def _dual_vector_lp(problem: Problem, constraint_vectors: np.ndarray,
                    slack: float = LP_SLACK):
    """Find y in the positive dual of the ordering cone, normalized, with
    y . w >= -slack for every constraint vector w.  Returns (status, y)."""
    dual_gens = problem.ordering_cone.facets().T      # columns generate K+
    q = dual_gens.shape[1]
    a_eq = _normalization_row(problem, dual_gens)[None, :]
    b_eq = np.array([1.0])
    if constraint_vectors.size:
        a_ub = -(constraint_vectors @ dual_gens)
        b_ub = np.full(constraint_vectors.shape[0], slack)
    else:
        a_ub, b_ub = None, None
    res = feasibility(LinearProgram(c=np.zeros(q), a_ub=a_ub, b_ub=b_ub,
                                    a_eq=a_eq, b_eq=b_eq))
    if res.status != OPTIMAL:
        return res.status, None
    return OPTIMAL, dual_gens @ res.x


def convex_scalarized_certificate(problem: Problem, x, alpha: float, ell: float,
                                  dir_count: int = 64, seed: int = 0,
                                  fd_step: float = 1e-6,
                                  slack: float = LP_SLACK) -> Certificate:
    """Scalarized penalization condition for convex data: search for a dual
    vector y* in the positive dual of the ordering cone, normalized, with

        y* . [ f'(x; v) + (ell/(alpha-1)) Dphi(x; v) e ]  >=  0

    along tangent generators and sampled tangent directions; Dphi is a
    one-sided finite difference of the merit function."""
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

    values = problem.merit_many(np.vstack([x, x + fd_step * dirs]))
    base = float(values[0])
    vectors = []
    for v, value in zip(dirs, values[1:]):
        slope = (float(value) - base) / fd_step
        vectors.append(problem.objective.directional(x, v)
                       + beta * slope * problem.direction)
    vectors = np.array(vectors) if vectors else np.zeros((0, problem.ordering_cone.dim))

    status, y = _dual_vector_lp(problem, vectors, slack)
    if status != OPTIMAL:
        return Certificate(kind="scalarized-convex", status=LP_INFEASIBLE,
                           directions=dirs)
    residual = float(max(0.0, np.max(-(vectors @ y), initial=0.0)))
    return Certificate(kind="scalarized-convex", status=HOLDS, y_star=y,
                       residual=residual, directions=dirs)


def scalarized_fan_certificate(problem: Problem, x, fan: Fan | None = None,
                               dir_count: int = 64, seed: int = 0,
                               slack: float = LP_SLACK) -> Certificate:
    """Scalarized tangential condition: search for a normalized dual vector
    y* with  y* . (J v) >= 0  for every direction v in the intersection of
    the fan preimage cone with the tangent cone.

    On small cones the directions are a complete generator set and a
    feasible LP is proof-grade; otherwise sampled directions are used and
    a feasible answer is only inconclusive evidence.  Infeasibility is a
    refutation either way, since the sampled system is a relaxation.
    Also emits the inclusion datum -J^T y* paired against the directions.
    """
    if not problem.objective.is_affine:
        raise PreconditionError("fan scalarization requires an affine objective")
    x = np.asarray(x, dtype=float).ravel()
    fan = problem.fan() if fan is None else fan
    keep = _intersect_halfspace_cones(
        upper_inverse_cone(fan, problem.constraint_cone),
        contingent_cone(problem.region, x))

    proof_grade, notes = True, ()
    try:
        dirs = limited_generators(keep)
    except RepresentationError:
        proof_grade = False
        notes = ("sampled directions only; feasibility is not proof-grade",)
        dirs = sampled_cone_directions(keep, dir_count, seed=seed)

    jac = problem.objective.jacobian(x)
    vectors = dirs @ jac.T if dirs.size else np.zeros((0, jac.shape[0]))
    status, y = _dual_vector_lp(problem, vectors, slack)
    if status != OPTIMAL:
        return Certificate(kind="scalarized-fan", status=LP_INFEASIBLE,
                           directions=dirs, notes=notes)
    inclusion = -jac.T @ y
    pair_res = float(max(0.0, np.max(dirs @ inclusion, initial=0.0))) if dirs.size else 0.0
    residual = float(max(0.0, np.max(-(vectors @ y), initial=0.0), pair_res))
    if not proof_grade:
        return Certificate(kind="scalarized-fan", status=INCONCLUSIVE, y_star=y,
                           residual=residual, directions=dirs, notes=notes)
    return Certificate(kind="scalarized-fan", status=HOLDS, y_star=y,
                       residual=residual, directions=dirs,
                       notes=("inclusion datum verified against generators",))


# ===== multiplier rule ===================================================


def multiplier_certificate(problem: Problem, x, fan: Fan | None = None,
                           tol: float = 1e-9) -> Certificate:
    """Finite-dimensional multiplier rule: find a nonzero normalized
    objective multiplier v in the positive dual of the ordering cone,
    constraint duals c_i in the negative dual of the constraint cone (one
    per fan matrix), and a normal-cone element n with

        J^T v + sum_i L_i^T c_i + n = 0.

    All unknowns are expanded in generator coordinates, so the search is a
    single LP feasibility run; infeasibility refutes weak efficiency when
    the qualification condition holds.
    """
    x = np.asarray(x, dtype=float).ravel()
    fan = problem.fan() if fan is None else fan
    jac = problem.objective.jacobian(x)
    n_dim = jac.shape[1]

    dual_k = problem.ordering_cone.facets().T                       # (m, qk)
    neg_dual_c = cone_generators(problem.constraint_cone.negative_dual())
    neg_dual_c = neg_dual_c.T                                       # (p_dim, qc)
    normal_gens = cone_generators(normal_cone(problem.region, x)).T  # (n, qn)

    qk = dual_k.shape[1]
    qc = neg_dual_c.shape[1]
    qn = normal_gens.shape[1]
    p = fan.size

    blocks = [jac.T @ dual_k]
    for i in range(p):
        blocks.append(fan.bundle[i].T @ neg_dual_c)
    if qn:
        blocks.append(normal_gens)
    a_eq = np.hstack(blocks) if blocks else np.zeros((n_dim, 0))

    norm_full = np.concatenate([_normalization_row(problem, dual_k),
                                np.zeros(p * qc + qn)])
    a_eq = np.vstack([a_eq, norm_full[None, :]])
    b_eq = np.concatenate([np.zeros(n_dim), [1.0]])

    res = feasibility(LinearProgram(c=np.zeros(a_eq.shape[1]), a_eq=a_eq, b_eq=b_eq))
    if res.status == INFEASIBLE:
        return Certificate(kind="multiplier", status=LP_INFEASIBLE,
                           notes=(f"phase-one optimum {res.phase_one:.3e}",))
    coeffs = res.x
    v = dual_k @ coeffs[:qk]
    duals = []
    offset = qk
    for i in range(p):
        duals.append(neg_dual_c @ coeffs[offset:offset + qc])
        offset += qc
    normal = normal_gens @ coeffs[offset:offset + qn] if qn else np.zeros(n_dim)
    residual = _multiplier_residual(problem, x, fan, v, duals, normal)
    status = HOLDS if residual <= max(tol, 1e-8) else INCONCLUSIVE
    return Certificate(kind="multiplier", status=status, residual=residual,
                       v=v, duals=tuple(duals), normal=normal)


def _multiplier_residual(problem, x, fan, v, duals, normal) -> float:
    jac = problem.objective.jacobian(x)
    total = jac.T @ v + normal
    for i in range(fan.size):
        total = total + fan.bundle[i].T @ duals[i]
    return float(np.max(np.abs(total)))


def replay_certificate(problem: Problem, x, cert: Certificate,
                       fan: Fan | None = None) -> float:
    """Recompute a certificate's residual from its stored multipliers."""
    x = np.asarray(x, dtype=float).ravel()
    if cert.kind == "multiplier":
        if cert.status != HOLDS:
            return cert.residual
        fan = problem.fan() if fan is None else fan
        return _multiplier_residual(problem, x, fan, cert.v, list(cert.duals),
                                    cert.normal)
    if cert.kind in ("scalarized-fan", "scalarized-convex"):
        if cert.y_star is None or cert.directions is None or not cert.directions.size:
            return cert.residual
        jac = problem.objective.jacobian(x)
        vectors = cert.directions @ jac.T
        return float(max(0.0, np.max(-(vectors @ cert.y_star))))
    return cert.residual


# ===== qualification =====================================================


def qualification_check(problem: Problem, x, fan: Fan | None = None,
                        tol: float = LP_SLACK) -> QualificationReport:
    """Interior-compatibility of the fan preimages with the tangent cone.

    The main condition asks for a direction interior to every fan-matrix
    preimage of the constraint cone and to the tangent cone at once; it is
    decided by maximizing the joint interiority margin over the unit box.
    The Slater variant asks instead for a direction mapped into the
    interior of the constraint cone by every fan matrix; it applies only
    when that interior is nonempty and the point is interior to the region.
    """
    x = np.asarray(x, dtype=float).ravel()
    fan = problem.fan() if fan is None else fan
    notes = []

    c_cone = problem.constraint_cone
    rows = np.vstack([c_cone.linear_preimage(mat).rows for mat in fan.bundle]
                     + [contingent_cone(problem.region, x).rows])
    margin, witness = max_margin_point(rows, x.size)
    if not rows.shape[0]:
        notes.append("no active rows; condition vacuous")
    passed = margin > tol

    slater_applicable, slater_passed, s_margin, s_witness = False, False, 0.0, None
    if interior_witness(c_cone)[1] <= tol:
        notes.append("constraint cone has empty interior")
    elif not _strictly_inside(problem.region, x):
        notes.append("reference point is not interior to the region")
    else:
        slater_applicable = True
        stacked = np.vstack([c_cone.facets() @ mat for mat in fan.bundle])
        s_margin, s_witness = max_margin_point(stacked, x.size)
        slater_passed = s_margin > tol

    return QualificationReport(passed=passed, margin=margin, witness=witness,
                               slater_applicable=slater_applicable,
                               slater_passed=slater_passed,
                               slater_margin=s_margin,
                               slater_witness=s_witness, notes=tuple(notes))


def _strictly_inside(region, x, margin: float = INTERIOR_MARGIN) -> bool:
    if region.kind == "box":
        above = np.all(~np.isfinite(region.lo) | (x >= region.lo + margin))
        below = np.all(~np.isfinite(region.hi) | (x <= region.hi - margin))
        return bool(above and below)
    return bool(np.max(region.a @ x - region.b) <= -margin)
