"""First-order weak-efficiency certificates and their refutations.

A locally weakly efficient point admits no feasible direction along which
the objective improves into the negative interior of the ordering cone.
This module checks several necessary conditions of that kind:

* a penalization condition along tangent directions, using a descent
  constant for the merit function and an order-Lipschitz bound on the
  objective, where the merit function is flat (:func:`merit_is_flat`);
* a tangential condition along directions kept feasible by the fan of
  scenario matrices;
* scalarized versions of both, searching for a dual vector in the
  positive dual of the ordering cone by least-distance programming, the
  convex one with the merit slopes of :func:`merit_slopes`; and
* a multiplier rule combining objective multipliers, constraint-cone
  duals per fan matrix, and a normal-cone element, found by nonnegative
  least squares.

Every program here, the qualification margins included, runs on the one
Lawson-Hanson kernel of :mod:`rvopt.cones`.  Certificates carry status,
raw multipliers, and a residual, and can be re-validated from the stored
data without re-solving, slopes and Farkas vectors included.  An
infeasible scalarization or multiplier system refutes weak efficiency
whenever the accompanying qualification check passes.
"""

from dataclasses import dataclass, field

import numpy as np

from .cones import (ORTHANT, PROJECTION_TOL, Cone, _nnls, _readonly, cone_generators,
                    distance_many, least_distance_point, limited_generators)
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
    slater_applicable: bool
    slater_passed: bool
    slater_margin: float
    slater_witness: np.ndarray | None
    notes: tuple = field(default_factory=tuple)


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


def _depths(problem: Problem, x, dirs) -> np.ndarray:
    """Depth min_j R_K (-f'(x; v)) of -f'(x; v) in K for each direction v;
    positive when v improves f into -int K."""
    rows = problem.ordering_cone.facets()
    return np.array([np.min(rows @ (-problem.objective.directional(x, v)))
                     for v in dirs])


def _directional_certificate(kind, problem, x, dirs, margin, trivial_is_exact):
    if dirs.shape[0] == 0:
        if trivial_is_exact:
            return Certificate(kind=kind, status=HOLDS, directions=dirs,
                               notes=("direction cone is trivial; "
                                      "the condition is vacuous",))
        return Certificate(kind=kind, status=INCONCLUSIVE, directions=dirs,
                           notes=("no directions sampled; cone may be trivial",))
    depths = _depths(problem, x, dirs)
    best = int(np.argmax(depths))
    worst, witness = float(depths[best]), dirs[best]
    if worst > margin:  # directions are unit vectors
        return Certificate(kind=kind, status=VIOLATED, residual=worst,
                           witness=witness, directions=dirs)
    if worst > LP_SLACK:
        return Certificate(kind=kind, status=INCONCLUSIVE, residual=worst,
                           witness=witness, directions=dirs,
                           notes=("within the margin zone",))
    return Certificate(kind=kind, status=HOLDS, residual=max(0.0, worst),
                       directions=dirs)


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


def check_penalization_condition(problem: Problem, x, alpha: float, ell: float,
                                 dir_count: int = 64, seed: int = 0,
                                 margin: float = INTERIOR_MARGIN) -> Certificate:
    """Necessary condition via merit penalization: along no sampled tangent
    direction v may f'(x; v) + (ell / (alpha - 1)) <x*, v> e fall in the
    negative interior of the ordering cone, x* an upper gradient of the
    merit function.  One exists only where :func:`merit_is_flat` holds, and
    it is 0 there, so the term drops; alpha > 1 (a certified increase rate)
    and ell >= 0 (an order-Lipschitz bound) stay the checked hypotheses.
    """
    if alpha <= 1.0:
        raise PreconditionError("penalization needs alpha > 1")
    if ell < 0.0:
        raise PreconditionError("penalization needs ell >= 0")
    x = np.asarray(x, dtype=float).ravel()
    tangent = contingent_cone(problem.region, x)
    dirs, exact = _direction_set(tangent, dir_count, seed=seed)
    return _directional_certificate("penalization", problem, x, dirs, margin,
                                    trivial_is_exact=exact)


def _fan_cone_directions(problem: Problem, x: np.ndarray, dir_count: int, seed: int):
    """Sampled directions (:func:`sampled_cone_directions`) and generators,
    None beyond the double-description limits, of the fan cone at x: the
    fan preimage cone of C intersected with the tangent cone.  Read-only;
    ``problem.fan_cones`` keeps the latest call's for the next certificate."""
    key = (x.tobytes(), dir_count, seed)
    if key not in problem.fan_cones:
        # unit rows of the preimage cone, then T_S(x)'s
        rows = np.vstack([problem.preimage_rows, contingent_cone(problem.region, x).rows])
        keep = Cone.halfspaces(rows) if rows.shape[0] else Cone.whole_space(x.size)
        dirs = _readonly(sampled_cone_directions(keep, dir_count, seed=seed))
        try:
            gens = _readonly(limited_generators(keep))
        except RepresentationError:
            gens = None
        problem.fan_cones.clear()
        problem.fan_cones[key] = dirs, gens
    return problem.fan_cones[key]


def check_tangential_condition(problem: Problem, x, dir_count: int = 64, seed: int = 0,
                               margin: float = INTERIOR_MARGIN) -> Certificate:
    """Necessary condition via the problem's fan: along no direction of
    :func:`_fan_cone_directions` (samples and generators of the fan
    preimage of C intersected with the tangent cone) may the derivative
    fall in the negative interior of the ordering cone."""
    x = np.asarray(x, dtype=float).ravel()
    dirs, gens = _fan_cone_directions(problem, x, dir_count, seed)
    dirs = dirs if gens is None else _merge_directions(dirs, gens)
    return _directional_certificate("tangential", problem, x, dirs, margin,
                                    trivial_is_exact=gens is not None)


# ===== scalarized certificates ===========================================


def _normalization_row(problem: Problem, dual_gens: np.ndarray) -> np.ndarray:
    """The row normalizing y = dual_gens @ coeffs, in generator coordinates:
    sum(y) = 1 on the orthant, y . e = 1 otherwise."""
    if problem.ordering_cone.kind == ORTHANT:
        return np.ones(dual_gens.shape[0]) @ dual_gens
    return problem.direction @ dual_gens


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
    return dual_gens @ (coeffs / float(_normalization_row(problem, dual_gens) @ coeffs)), u


def _penalized_vectors(problem: Problem, x, dirs, beta: float) -> np.ndarray:
    """f'(x; v) + beta slope_v e for every direction v (:func:`merit_slopes`)."""
    vectors = [problem.objective.directional(x, v) + beta * slope * problem.direction
               for v, slope in zip(dirs, merit_slopes(problem, x, dirs))]
    return np.array(vectors) if vectors else np.zeros((0, problem.ordering_cone.dim))


def _scalarized_residual(vectors: np.ndarray, y: np.ndarray) -> float:
    return float(max(0.0, np.max(-(vectors @ y), initial=0.0)))


def _fan_vectors(dirs: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """J v for every direction v."""
    return dirs @ jac.T if dirs.size else np.zeros((0, jac.shape[0]))


def _fan_residual(dirs: np.ndarray, jac: np.ndarray, y: np.ndarray) -> float:
    """Worst violation of y . (J v) >= 0 and of the inclusion datum -J^T y
    paired against the directions."""
    if not dirs.size:
        return 0.0
    pair_res = float(max(0.0, np.max(dirs @ (-jac.T @ y))))
    return max(_scalarized_residual(_fan_vectors(dirs, jac), y), pair_res)


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
                       residual=_scalarized_residual(vectors, y), beta=beta)


def scalarized_fan_certificate(problem: Problem, x, dir_count: int = 64,
                               seed: int = 0) -> Certificate:
    """Scalarized tangential condition: search for a normalized dual vector
    y* with  y* . (J v) >= 0  for every direction v in the intersection of
    the preimage cone of the problem's fan with the tangent cone.

    On small cones the directions are a complete generator set and a
    feasible program is proof-grade; otherwise sampled directions are used
    and a feasible answer is only inconclusive evidence.  Both come from
    :func:`_fan_cone_directions`.  Infeasibility is a refutation either
    way, since the sampled system is a relaxation.  Also emits the
    inclusion datum -J^T y* paired against the directions.
    """
    if not problem.objective.is_affine:
        raise PreconditionError("fan scalarization requires an affine objective")
    x = np.asarray(x, dtype=float).ravel()
    samples, gens = _fan_cone_directions(problem, x, dir_count, seed)
    proof_grade = gens is not None
    dirs = gens if proof_grade else samples
    notes = () if proof_grade else ("sampled directions only; feasibility is not proof-grade",)

    jac = problem.objective.jacobian(x)
    y, farkas = _dual_vector_lp(problem, _fan_vectors(dirs, jac))
    if y is None:
        return Certificate(kind="scalarized-fan", status=LP_INFEASIBLE,
                           directions=dirs, notes=notes, farkas=farkas)
    residual = _fan_residual(dirs, jac, y)
    if not proof_grade:
        return Certificate(kind="scalarized-fan", status=INCONCLUSIVE, y_star=y,
                           residual=residual, directions=dirs, notes=notes)
    return Certificate(kind="scalarized-fan", status=HOLDS, y_star=y,
                       residual=residual, directions=dirs,
                       notes=("inclusion datum verified against generators",))


# ===== multiplier rule ===================================================


def _multiplier_system(problem: Problem, x):
    """The multiplier rule as A c = b over c >= 0, the coefficients of v on
    the simplex; returns A, b and the generators (as columns) of K+, of the
    negative dual of C and of the normal cone."""
    dual_k = problem.ordering_cone.facets().T                                  # (m, qk)
    neg_dual_c = cone_generators(problem.constraint_cone.negative_dual()).T    # (p_dim, qc)
    normal_gens = cone_generators(normal_cone(problem.region, x)).T           # (n, qn)
    blocks = ([problem.objective.jacobian(x).T @ dual_k]
              + [mat.T @ neg_dual_c for mat in problem.fan().bundle] + [normal_gens])
    simplex = [np.ones(dual_k.shape[1])] + [np.zeros(b.shape[1]) for b in blocks[1:]]
    a_eq = np.vstack([np.hstack(blocks), np.concatenate(simplex)])
    return a_eq, np.eye(a_eq.shape[0])[-1], (dual_k, neg_dual_c, normal_gens)


def multiplier_certificate(problem: Problem, x, tol: float = 1e-9) -> Certificate:
    """Finite-dimensional multiplier rule: find a nonzero normalized
    objective multiplier v in the positive dual of the ordering cone,
    constraint duals c_i in the negative dual of the constraint cone (one
    per matrix of the problem's fan), and a normal-cone element n with

        J^T v + sum_i L_i^T c_i + n = 0.

    All unknowns are expanded in generator coordinates c >= 0, so the
    search is one nonnegative least-squares problem, min |A c - b| over
    c >= 0.  Its normalization puts the coefficients of v on the simplex,
    where they stay of order one whatever e is; K+ is pointed, so e . v > 0
    for every nonzero v in it, and a solution is scaled to the
    normalization row afterwards (on the orthant the two rows coincide).
    A residual r = b - A c above the tolerance makes the system
    infeasible, and r is kept as its Farkas vector: A^T r <= 0 < b . r
    (Lawson & Hanson 1974, ch. 23).  Infeasibility refutes weak efficiency
    when the qualification condition holds.
    """
    x = np.asarray(x, dtype=float).ravel()
    a_eq, b_eq, (dual_k, neg_dual_c, normal_gens) = _multiplier_system(problem, x)
    qk, qc = dual_k.shape[1], neg_dual_c.shape[1]

    coeffs = _nnls(a_eq.T, b_eq[None])[0]
    r = b_eq - a_eq @ coeffs
    limit = max(tol, 1e-8)
    if np.max(np.abs(r)) > limit:
        return Certificate(kind="multiplier", status=LP_INFEASIBLE, farkas=r,
                           notes=(f"NNLS residual {np.linalg.norm(r):.3e}",))
    if problem.ordering_cone.kind != ORTHANT:
        # scaled to the normalization row, the simplex row on the orthant
        a_eq[-1, :qk] = _normalization_row(problem, dual_k)
        coeffs /= float(a_eq[-1] @ coeffs)
        r = b_eq - a_eq @ coeffs
    # one step of iterative refinement on the support removes the rounding
    # the free-set solve leaves, so exact data gives exact multipliers
    free = coeffs > 0.0
    coeffs[free] = np.maximum(coeffs[free] + np.linalg.lstsq(a_eq[:, free], r,
                                                             rcond=None)[0], 0.0)
    v = dual_k @ coeffs[:qk]
    end = qk + problem.fan().size * qc
    duals = [neg_dual_c @ c for c in coeffs[qk:end].reshape(-1, qc)]
    normal = normal_gens @ coeffs[end:]
    residual = _multiplier_residual(problem, x, v, duals, normal)
    status = HOLDS if residual <= limit else INCONCLUSIVE
    return Certificate(kind="multiplier", status=status, residual=residual,
                       v=v, duals=tuple(duals), normal=normal)


def _multiplier_residual(problem, x, v, duals, normal) -> float:
    total = problem.objective.jacobian(x).T @ v + normal
    for mat, dual in zip(problem.fan().bundle, duals):
        total = total + mat.T @ dual
    return float(np.max(np.abs(total)))


def replay_certificate(problem: Problem, x, cert: Certificate) -> float:
    """Recompute a certificate's residual from its stored multipliers, against
    the problem's fan, or, for the directional kinds, from its stored
    directions (and merit slopes).
    An infeasible multiplier system replays to its stored residual while its
    Farkas vector r separates, A^T r <= PROJECTION_TOL and b . r > 0, else inf.
    An infeasible scalarized system g c >= h (:func:`_dual_vector_system`)
    does so while its Farkas vector u >= 0 has |g^T u| < h . u: every c with
    g c >= h lies on the simplex, so |c| <= 1 and h . u <= u . g c <= |g^T u|."""
    x = np.asarray(x, dtype=float).ravel()
    if cert.kind in ("tangential", "penalization"):
        return float(np.max(_depths(problem, x, cert.directions), initial=0.0))
    if cert.kind == "multiplier":
        if cert.status == LP_INFEASIBLE:
            a_eq, b_eq, _ = _multiplier_system(problem, x)
            separates = (np.max(a_eq.T @ cert.farkas) <= PROJECTION_TOL
                         and b_eq @ cert.farkas > 0.0)
            return cert.residual if separates else np.inf
        return _multiplier_residual(problem, x, cert.v, list(cert.duals), cert.normal)
    if cert.directions is None:
        return cert.residual
    jac = problem.objective.jacobian(x)
    vectors = (_fan_vectors(cert.directions, jac) if cert.kind == "scalarized-fan"
               else _penalized_vectors(problem, x, cert.directions, cert.beta))
    if cert.status == LP_INFEASIBLE:
        g, h, _ = _dual_vector_system(problem, vectors)
        u = cert.farkas
        separates = (u is not None and np.min(u) >= 0.0
                     and np.linalg.norm(g.T @ u) < h @ u)
        return cert.residual if separates else np.inf
    if cert.y_star is None:
        return cert.residual
    if cert.kind == "scalarized-fan":
        return _fan_residual(cert.directions, jac, cert.y_star)
    return _scalarized_residual(vectors, cert.y_star)


# ===== qualification =====================================================


def qualification_check(problem: Problem, x, tol: float = LP_SLACK) -> QualificationReport:
    """Interior-compatibility of the fan preimages with the tangent cone.

    The main condition asks for a direction interior to every fan-matrix
    preimage of the constraint cone and to the tangent cone at once; it is
    decided by maximizing the joint interiority margin over the unit ball,
    which is the distance from 0 to the convex hull of the rows, the
    problem's raw :attr:`~rvopt.problem.Problem.preimage_rows` and the
    tangent cone's.
    The Slater variant asks instead for a direction mapped into the
    interior of the constraint cone by every fan matrix; it applies only
    when that interior is nonempty and the point is interior to the region,
    where the tangent cone has no rows.
    """
    x = np.asarray(x, dtype=float).ravel()
    notes = []

    c_cone = problem.constraint_cone
    tangent = contingent_cone(problem.region, x)
    rows = np.vstack([problem.preimage_rows, tangent.rows])
    margin, witness = max_margin_point(rows, x.size)
    if not rows.shape[0]:
        notes.append("no active rows; condition vacuous")
    passed = margin > tol

    slater_applicable, slater_passed, s_margin, s_witness = False, False, 0.0, None
    if interior_witness(c_cone)[1] <= tol:
        notes.append("constraint cone has empty interior")
    elif tangent.rows.shape[0]:
        notes.append("reference point is not interior to the region")
    else:
        slater_applicable = True
        stacked = np.vstack([c_cone.facets() @ mat for mat in problem.fan().bundle])
        s_margin, s_witness = max_margin_point(stacked, x.size)
        slater_passed = s_margin > tol

    return QualificationReport(passed=passed, margin=margin, witness=witness,
                               slater_applicable=slater_applicable,
                               slater_passed=slater_passed,
                               slater_margin=s_margin,
                               slater_witness=s_witness, notes=tuple(notes))

