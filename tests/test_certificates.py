"""First-order certificates: directional, scalarized, multiplier, CQ."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.certificates
import rvopt.problem
import rvopt.reporting
from rvopt.cli import main as cli_main
from rvopt.certificates import (HOLDS, INCONCLUSIVE, INTERIOR_MARGIN, LP_INFEASIBLE,
                                LP_SLACK, VIOLATED, check_penalization_condition,
                                check_tangential_condition, convex_scalarized_certificate,
                                estimate_order_lipschitz, merit_slopes,
                                multiplier_certificate, order_lipschitz_bound,
                                order_lipschitz_holds, qualification_check, replay_certificate,
                                scalarized_fan_certificate, slater_check)
from rvopt.cones import Cone, cone_generators, distance_many, least_distance_point
from rvopt.docio import load_problem, save_problem
from rvopt.errors import PreconditionError, RepresentationError
from rvopt.firstorder import (ACTIVE_TOL, AffineObjective, Fan, PolyhedralSet,
                              QuadraticObjective, contingent_cone, fan_from_scenarios,
                              polytope_distance, sampled_cone_directions)
from rvopt.problem import Problem, max_margin_point
from rvopt.regularity import local_error_bound
from rvopt.reporting import run_report
from rvopt.sampling import ball_points, sphere_directions
from rvopt.scenarios import ScenarioMap
from rvopt.simplex import INFEASIBLE, OPTIMAL, LinearProgram, feasibility, solve_lp

from conftest import (PROBLEMS_DIR, SCENARIO_COUNTS, boundary_points, grid_cases,
                      merge_directions, merit_cases, negated_scenario, ray_cone_r5_problem,
                      synthetic_problem)
from test_verdict import certify_code, exact_weakly_efficient, synthetic_cases

BENCH_CASES = Path(__file__).resolve().parents[1] / "bench" / "cases.py"

ROOT2 = np.sqrt(2.0)


def scalar_first_coordinate_problem():
    """min x1 over {x <= 0} with a one-dimensional ordering cone."""
    return Problem(objective=AffineObjective([[1.0, 0.0]], [0.0]),
                   ordering_cone=Cone.orthant(1),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.whole_space(2),
                   scenarios=negated_scenario())


def reference_slopes(problem, x, dirs):
    """max_w dist(A_w d, T_w) with T_w = {u : m_j . u >= 0 for the facet
    rows m_j of C active at A_w x + b_w}, in closed form.  On the orthant
    it is |min((A_w d)_active, 0)|.  Otherwise, in R^2, the projection onto
    T_w is A_w d itself, its projection onto one of the active facet lines,
    or 0, and the distance is the least over those that lie in T_w."""
    rows = problem.constraint_cone.facets()
    slopes = np.zeros(len(dirs))
    for mat, image in zip(problem.scenarios.mats, problem.scenarios.evaluate(x).points):
        active = rows[rows @ image <= ACTIVE_TOL]
        for i, d in enumerate(dirs):
            u = mat @ d
            if problem.constraint_cone.kind == "orthant":
                dist = np.linalg.norm(np.minimum(active @ u, 0.0))
            else:
                candidates = [u] + [u - (m @ u) * m for m in active] + [np.zeros(2)]
                dist = min(np.linalg.norm(u - c) for c in candidates
                           if np.all(active @ c >= -1e-12))
            slopes[i] = max(slopes[i], dist)
    return slopes


def cone_program_rows(problem, x, kind):
    """A = -R_K J(x) and the rows P of a certificate's direction cone
    {v : P v >= 0}: T_S(x) for penalization, else each fan matrix's
    Cone.linear_preimage rows and then T_S(x)'s."""
    x = np.asarray(x, dtype=float)
    a = -(problem.ordering_cone.facets() @ problem.objective.jacobian(x))
    rows = [contingent_cone(problem.region, x).rows]
    if kind != "penalization":
        rows = [problem.constraint_cone.linear_preimage(m).rows
                for m in problem.fan().bundle] + rows
    return a, np.vstack(rows)


def multiplier_gap(problem, x, cert):
    """|A^T lam + P^T mu| for the stored weights, after checking that lam
    lies on the simplex and mu >= 0."""
    a, rows = cone_program_rows(problem, x, cert.kind)
    lam, mu = cert.duals
    assert np.min(lam) >= 0.0 and abs(np.sum(lam) - 1.0) <= 1e-12
    assert np.min(mu, initial=0.0) >= 0.0 and mu.shape == (rows.shape[0],)
    return float(np.linalg.norm(a.T @ lam + rows.T @ mu))


def distance_slopes(problem, x, dirs):
    """The slopes as merit_slopes computed them before the Moreau residuals
    were kept: the largest distance_many to each scenario's tangent cone."""
    rows = problem.constraint_cone.facets()
    slopes = np.zeros(len(dirs))
    for mat, active in zip(problem.scenarios.mats,
                           rvopt.certificates._slope_facets(problem, x)):
        if active.any():
            slopes = np.maximum(slopes, distance_many(Cone.halfspaces(rows[active]),
                                                      dirs @ mat.T))
    return slopes


def report_constants(problem, x):
    """(sigma, ell) as run_report takes them: the exact local modulus (inf
    where no C row is active) and the closed-form ell on radius 0.5."""
    bound = local_error_bound(problem, x)
    assert bound.established
    return (np.inf if bound.sigma is None else bound.sigma), order_lipschitz_bound(problem, x, 0.5)


def penalized_derivative(problem, x, cert):
    """J v + beta slope_v e at the certificate's witness v."""
    v = cert.witness
    slope = merit_slopes(problem, x, v)[0]
    return problem.objective.jacobian(x) @ v + cert.beta * slope * problem.direction


# ----- the former sampled scalarized-convex certificate, kept as a reference

def dual_vector_system(problem, vectors):
    """The dual-vector search as g c >= h: [V G; I; 1; -1] c >= [0; 0; 1; -1],
    with the rows of V the constraint vectors and the columns of G the
    facet rows of the ordering cone, which generate its positive dual."""
    dual_gens = problem.ordering_cone.facets().T
    q = dual_gens.shape[1]
    ones = np.ones(q)
    g = np.vstack([vectors @ dual_gens, np.eye(q), ones, -ones])
    h = np.concatenate([np.zeros(vectors.shape[0] + q), [1.0, -1.0]])
    return g, h, dual_gens


def dual_vector_lp(problem, vectors):
    """A dual vector y = G c, c >= 0 on the simplex, with y . w >= 0 for
    every constraint vector w, by one least-distance program, scaled to the
    normalization row; or None and the multipliers u of the inconsistent
    system, its Farkas vector (farkas_separates)."""
    g, h, dual_gens = dual_vector_system(problem, vectors)
    coeffs, u = least_distance_point(g, h)
    if coeffs is None:
        return None, u
    y = dual_gens @ coeffs
    return y / float(rvopt.certificates._normalization_row(problem) @ y), u


def farkas_separates(g, h, u):
    """u >= 0 with |g^T u| < h . u: every c with g c >= h lies on the
    simplex, so |c| <= 1 and h . u <= u . g c <= |g^T u|, a contradiction."""
    return bool(np.min(u) >= 0.0 and np.linalg.norm(g.T @ u) < h @ u)


def sampled_convex_certificate(problem, x, sigma, ell):
    """The former sampled scalarized-convex rule: (status, y, vectors, u).
    Its directions are the generators of T_S(x), where double description
    gives them, followed by the new ones of 64 sampled directions (seed 0);
    the vectors are f'(x; v) + beta slope_v e, and y . w >= 0 is asked of
    each.  Every direction lies in T_S(x), so lp-infeasible is proof-grade;
    holds is not, between the directions."""
    x = np.asarray(x, dtype=float)
    tangent = contingent_cone(problem.region, x)
    try:
        gens = cone_generators(tangent)
    except RepresentationError:
        gens = np.zeros((0, x.size))
    dirs = merge_directions(gens, sampled_cone_directions(tangent, 64, seed=0))
    beta = ell / sigma
    vectors = np.array([problem.objective.directional(x, v) + beta * slope * problem.direction
                        for v, slope in zip(dirs, merit_slopes(problem, x, dirs))])
    vectors = vectors.reshape(-1, problem.ordering_cone.dim)
    y, u = dual_vector_lp(problem, vectors)
    return (LP_INFEASIBLE if y is None else HOLDS), y, vectors, u


# merit_cases() and the halfspace-C boundary points, whose scenario images
# miss C by up to 3e-10
SLOPE_CASES = merit_cases() + [
    (f"halfspaces-w{w}-boundary{i}", problem, x)
    for w in SCENARIO_COUNTS for problem in [synthetic_problem("halfspaces", w)]
    for i, x in enumerate(boundary_points(problem, w))]


def loop_order_lipschitz(problem, x, radius=0.5, samples=48, seed=0):
    """Per-pair reference for estimate_order_lipschitz."""
    from rvopt.sampling import ball_points
    cone = problem.ordering_cone
    rows = np.eye(cone.dim) if cone.kind == "orthant" else cone.rows
    row_e = rows @ problem.direction
    x = np.asarray(x, dtype=float)
    pts = [x]
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = radius
        pts.extend([x + step, x - step])
    pts = np.array(pts + list(ball_points(x, radius, samples, seed=seed)))
    values = [problem.objective.value(p) for p in pts]
    ell, count = 0.0, 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            if gap < 1e-12:
                continue
            count += 1
            diff = rows @ (values[i] - values[j])
            ell = max(ell, float(np.max(np.abs(diff) / (gap * row_e))))
    return ell, count


class TestOrderLipschitz:
    """With e = (1,1)/sqrt(2) the identity map needs exactly ell = sqrt(2):
    an axis-aligned pair stresses one component with full step length."""

    def test_matches_the_pair_loop(self, free_negative):
        from rvopt.firstorder import QuadraticObjective
        rng = np.random.default_rng(43)
        objectives = [free_negative.objective,
                      AffineObjective(rng.standard_normal((2, 2)), np.zeros(2)),
                      QuadraticObjective(quads=rng.standard_normal((2, 2, 2)),
                                         lins=rng.standard_normal((2, 2)),
                                         consts=np.zeros(2))]
        cones = [Cone.orthant(2), Cone.halfspaces([[1.0, -0.3], [-0.3, 1.0]])]
        for objective in objectives:
            for cone in cones:
                prob = Problem(objective=objective, ordering_cone=cone,
                               constraint_cone=free_negative.constraint_cone,
                               region=free_negative.region,
                               scenarios=free_negative.scenarios)
                for x, seed in (([0.0, 0.0], 0), ([0.3, -1.2], 5)):
                    est = estimate_order_lipschitz(prob, x, seed=seed)
                    assert (est.ell, est.pair_count) \
                        == loop_order_lipschitz(prob, x, seed=seed)
        eye = np.eye(3)
        prob = Problem(objective=AffineObjective(rng.standard_normal((3, 3)), np.zeros(3)),
                       ordering_cone=Cone.orthant(3), constraint_cone=Cone.orthant(3),
                       region=PolyhedralSet.whole_space(3),
                       scenarios=ScenarioMap(mats=-eye[None], offsets=np.zeros((1, 3))))
        est = estimate_order_lipschitz(prob, [0.1, 0.2, 0.3], radius=1.7)
        assert (est.ell, est.pair_count) == loop_order_lipschitz(prob, [0.1, 0.2, 0.3],
                                                                 radius=1.7)

    def test_identity_costs_root_two(self, free_negative):
        est = estimate_order_lipschitz(free_negative, [0.0, 0.0])
        assert est.ell == pytest.approx(ROOT2, abs=1e-12)
        assert est.pair_count > 100

    def test_constant_objective_is_free(self, free_negative):
        prob = Problem(objective=AffineObjective(np.zeros((2, 2)), np.ones(2)),
                       ordering_cone=free_negative.ordering_cone,
                       constraint_cone=free_negative.constraint_cone,
                       region=free_negative.region,
                       scenarios=free_negative.scenarios)
        assert estimate_order_lipschitz(prob, [0.0, 0.0]).ell == 0.0

    def test_scaling_doubles_the_constant(self, free_negative):
        prob = Problem(objective=AffineObjective(2.0 * np.eye(2), np.zeros(2)),
                       ordering_cone=free_negative.ordering_cone,
                       constraint_cone=free_negative.constraint_cone,
                       region=free_negative.region,
                       scenarios=free_negative.scenarios)
        est = estimate_order_lipschitz(prob, [0.0, 0.0])
        assert est.ell == pytest.approx(2.0 * ROOT2, abs=1e-12)

    def test_pairwise_inclusion(self, free_negative):
        """ell = sqrt(2) passes every pair; ell = 1 loses an axis pair."""
        rng = np.random.default_rng(41)
        for _ in range(50):
            x1, x2 = rng.standard_normal((2, 2))
            assert order_lipschitz_holds(free_negative, x1, x2, ROOT2 + 1e-9)
        assert not order_lipschitz_holds(free_negative, [0.0, 0.0],
                                         [1.0, 0.0], 1.0)


def lipschitz_cases():
    """(label, problem, x): the 139 harness points (affine f, orthant K),
    then affine, symmetric-quadratic and nonsymmetric-quadratic f under an
    orthant and a halfspace K."""
    cases = grid_cases() + synthetic_cases()
    base = cases[0][1]
    rng = np.random.default_rng(47)
    quads = rng.standard_normal((2, 2, 2))
    lins = rng.standard_normal((2, 2))
    objectives = {"affine": AffineObjective(rng.standard_normal((2, 2)), np.zeros(2)),
                  "symmetric": QuadraticObjective(quads + quads.transpose(0, 2, 1), lins,
                                                  np.zeros(2)),
                  "nonsymmetric": QuadraticObjective(quads, lins, np.zeros(2))}
    for name, objective in objectives.items():
        for cone in (Cone.orthant(2), Cone.halfspaces([[1.0, -0.3], [-0.3, 1.0]])):
            problem = dataclasses.replace(base, objective=objective, ordering_cone=cone,
                                          direction=None)
            for x in ([0.5, 1.0], [-1.2, 0.3]):
                cases.append((f"{name}-{cone.kind}{x}", problem, np.array(x)))
    return cases


class TestOrderLipschitzBound:
    def test_hand_values(self, free_negative):
        """The identity needs sqrt(2) with e = (1, 1)/sqrt(2); x1 x2 (a
        nonsymmetric Q) on the ball of radius 0.5 around (1, 2) needs its
        gradient norm sqrt(5) plus 0.5 |Q + Q^T|_2 = 0.5."""
        assert order_lipschitz_bound(free_negative, [3.0, -1.0], 0.5) == pytest.approx(ROOT2)
        product = dataclasses.replace(
            free_negative, ordering_cone=Cone.orthant(1), direction=None,
            objective=QuadraticObjective([[[0.0, 1.0], [0.0, 0.0]]], [[0.0, 0.0]], [0.0]))
        assert order_lipschitz_bound(product, [1.0, 2.0], 0.5) \
            == pytest.approx(np.sqrt(5.0) + 0.5)

    def test_bounds_the_sampled_estimate_and_every_sampled_pair(self):
        """The sampled estimate is a lower estimate of the same constant, so
        it may exceed the closed form only by the rounding of its quotients
        (the identity's sqrt(2) reads 2 ulps high there); every pair of 12
        ball points passes the inclusion at the closed form."""
        for label, problem, x in lipschitz_cases():
            ell = order_lipschitz_bound(problem, x, 0.5)
            sampled = estimate_order_lipschitz(problem, x, radius=0.5).ell
            assert ell >= sampled * (1.0 - 8.0 * np.finfo(float).eps), label
            pts = ball_points(x, 0.5, 12, seed=3)
            assert all(order_lipschitz_holds(problem, p, q, ell)
                       for i, p in enumerate(pts) for q in pts[:i]), label


class TestPenalizationCondition:
    def test_unrestricted_descent_violates(self, free_negative):
        """With the whole plane tangent, v = -e drives f into -int K."""
        cert = check_penalization_condition(free_negative, [-1.0, -1.0],
                                            sigma=0.5, ell=ROOT2)
        assert cert.status == VIOLATED
        assert_allclose(cert.witness, -np.ones(2) / ROOT2, atol=1e-9)
        assert cert.residual == pytest.approx(1.0 / ROOT2, abs=1e-9)

    def test_edge_point_holds(self, boxed_negative):
        cert = check_penalization_condition(boxed_negative, [-1.0, 0.0],
                                            sigma=0.5, ell=ROOT2)
        assert cert.status == HOLDS

    def test_pinned_region_is_vacuous(self, free_negative):
        """A singleton region has the trivial tangent cone, whose rows span
        the plane, so the check holds with multipliers that cancel A
        exactly."""
        point = PolyhedralSet.halfspaces(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [0.0, 0.0, 0.0, 0.0])
        prob = Problem(objective=free_negative.objective,
                       ordering_cone=free_negative.ordering_cone,
                       constraint_cone=free_negative.constraint_cone,
                       region=point, scenarios=free_negative.scenarios)
        cert = check_penalization_condition(prob, [0.0, 0.0], sigma=0.5,
                                            ell=1.0)
        assert cert.status == HOLDS and cert.residual == 0.0
        assert multiplier_gap(prob, [0.0, 0.0], cert) <= 1e-12

    def test_preconditions(self, free_negative):
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], sigma=0.0,
                                         ell=1.0)
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], sigma=0.5,
                                         ell=-1.0)


class TestTangentialCondition:
    def test_interior_dominated_point_violates(self, free_negative):
        cert = check_tangential_condition(free_negative, [-1.0, -1.0])
        assert cert.status == VIOLATED
        assert_allclose(cert.witness, -np.ones(2) / ROOT2, atol=1e-9)

    def test_pareto_edge_holds(self, boxed_negative):
        cert = check_tangential_condition(boxed_negative, [-1.0, 0.0])
        assert cert.status == HOLDS
        assert cert.residual <= 1e-9

    def test_box_corner_is_vacuous(self, boxed_negative):
        """At (-1,-1) the admissible directions reduce to {0} exactly, and
        the multipliers cancel A exactly."""
        cert = check_tangential_condition(boxed_negative, [-1.0, -1.0])
        assert cert.status == HOLDS and cert.residual == 0.0
        assert multiplier_gap(boxed_negative, [-1.0, -1.0], cert) <= 1e-12


    def test_witness_outside_the_cone_refutes_nothing(self, monkeypatch, free_negative):
        """A program whose direction leaves T (here, a forged one) gives no
        evidence: the certificate is inconclusive and stores no witness."""
        solve = rvopt.certificates.max_margin_point

        def forged(rows, dim, cone_rows):
            m, v, lam, mu = solve(rows, dim, cone_rows)
            return m, -v, lam, mu

        monkeypatch.setattr(rvopt.certificates, "max_margin_point", forged)
        for certify in (check_tangential_condition, scalarized_fan_certificate):
            cert = certify(free_negative, [-1.0, -1.0])
            assert cert.status == INCONCLUSIVE and cert.witness is None
            assert cert.residual == pytest.approx(1.0 / ROOT2, abs=1e-12)


class TestScalarizedFan:
    def test_edge_certificate_with_dual_vector(self, boxed_negative):
        cert = scalarized_fan_certificate(boxed_negative, [-1.0, 0.0])
        assert cert.status == HOLDS
        assert_allclose(cert.y_star, [1.0, 0.0], atol=1e-6)
        assert cert.residual <= 1e-7
        assert "inclusion datum" in " ".join(cert.notes)

    def test_interior_dominated_point_infeasible(self, free_negative):
        cert = scalarized_fan_certificate(free_negative, [-1.0, -1.0])
        assert cert.status == LP_INFEASIBLE

    def test_unconstrained_plane_infeasible(self, free_negative):
        """With no binding constraint no normalized dual vector can keep
        the identity objective stationary."""
        prob = Problem(objective=free_negative.objective,
                       ordering_cone=free_negative.ordering_cone,
                       constraint_cone=Cone.whole_space(2),
                       region=free_negative.region,
                       scenarios=free_negative.scenarios)
        cert = scalarized_fan_certificate(prob, [0.0, 0.0])
        assert cert.status == LP_INFEASIBLE

    def test_requires_affine_objective(self, free_negative):
        from rvopt.firstorder import QuadraticObjective
        prob = Problem(objective=QuadraticObjective(
            quads=np.zeros((2, 2, 2)), lins=np.eye(2), consts=np.zeros(2)),
            ordering_cone=free_negative.ordering_cone,
            constraint_cone=free_negative.constraint_cone,
            region=free_negative.region, scenarios=free_negative.scenarios)
        with pytest.raises(PreconditionError):
            scalarized_fan_certificate(prob, [0.0, 0.0])


class TestConvexScalarized:
    def test_weakly_efficient_point_holds(self, quarter_box):
        cert = convex_scalarized_certificate(quarter_box, [0.5, 1.0],
                                             sigma=1.704046875 - 1.0, ell=ROOT2)
        assert cert.status == HOLDS
        assert abs(cert.y_star @ quarter_box.direction - 1.0) <= 1e-12
        assert_allclose(cert.y_star / np.linalg.norm(cert.y_star), [1.0, 0.0], atol=1e-6)

    def test_dominated_point_infeasible(self, free_negative):
        cert = convex_scalarized_certificate(free_negative, [-1.0, -1.0],
                                             sigma=0.5, ell=ROOT2)
        assert cert.status == LP_INFEASIBLE

    def test_sigma_must_be_positive(self, free_negative):
        with pytest.raises(PreconditionError):
            convex_scalarized_certificate(free_negative, [0.0, 0.0],
                                          sigma=0.0, ell=1.0)

    @pytest.mark.parametrize("name, problem, x", SLOPE_CASES,
                             ids=[case[0] for case in SLOPE_CASES])
    def test_slope_residuals_attain_the_exact_slopes(self, name, problem, x):
        """Along 64 unit directions the slopes are distance_slopes' bit for
        bit and reference_slopes' to 1e-12, and the residual r of the
        scenario w attaining each lies in the polar of T_w, with |r| the
        slope and r . A_w d = |r|^2: the Moreau residual of A_w d, from
        which the next atom A_w^T r / |r| is built."""
        dirs = sphere_directions(2, 64, seed=0)
        slopes, scenarios, residuals = rvopt.certificates._slope_residuals(problem, x, dirs)
        assert np.array_equal(slopes, distance_slopes(problem, x, dirs))
        assert np.array_equal(merit_slopes(problem, x, dirs), slopes)
        assert_allclose(slopes, reference_slopes(problem, x, dirs), rtol=0.0, atol=1e-12)
        rows = problem.constraint_cone.facets()
        active = rvopt.certificates._slope_facets(problem, x)
        for d, slope, w, r in zip(dirs, slopes, scenarios, residuals):
            polar = Cone.rays(-rows[active[w]], dim=rows.shape[1])
            assert polar.distance(r) <= 1e-12, name
            assert abs(np.linalg.norm(r) - slope) <= 1e-12, name
            assert abs(r @ problem.scenarios.mats[w] @ d - slope ** 2) <= 1e-12, name

    def test_makes_no_merit_call(self, monkeypatch):
        """The slopes come from the active facet rows, not from merit values."""
        def refuse(*args, **kwargs):
            raise AssertionError("merit function evaluated")

        monkeypatch.setattr(Problem, "merit_many", refuse)
        monkeypatch.setattr(ScenarioMap, "merit_many", refuse)
        for name, problem, x in SLOPE_CASES:
            convex_scalarized_certificate(problem, x, sigma=0.5, ell=ROOT2)

    def test_ray_cone_in_r5_runs_every_stage(self):
        """A ray C in R^5 gets its facet rows from the one double-description
        path, so the slopes are formed and every report stage runs."""
        problem, x = ray_cone_r5_problem(), np.zeros(2)
        cert = convex_scalarized_certificate(problem, x, sigma=0.5, ell=1.0)
        assert replay_certificate(problem, x, cert) == cert.residual
        stages = run_report(problem, x)["stages"]
        assert [s["name"] for s in stages if s["status"] == "error"] == []


class TestMultiplierRule:
    def test_edge_point_exact_multipliers(self, boxed_negative):
        """At (-1, 0): v = (1,0), no constraint dual, normal (-1,0)."""
        cert = multiplier_certificate(boxed_negative, [-1.0, 0.0])
        assert cert.status == HOLDS
        assert_allclose(cert.v, [1.0, 0.0], atol=1e-9)
        assert_allclose(cert.duals[0], [0.0, 0.0], atol=1e-9)
        assert_allclose(cert.normal, [-1.0, 0.0], atol=1e-9)
        assert cert.residual <= 1e-9

    def test_interior_dominated_point_infeasible(self, free_negative):
        """The witness and margin r = (v, m) separate b from the generated
        cone.  Unknowns (v1, v2, c1, c2) >= 0 of J^T v - L^T c = 0 and
        v1 + v2 = 1, with J = I, L = -I and the constraint duals -c."""
        cert = multiplier_certificate(free_negative, [-1.0, -1.0])
        assert cert.status == LP_INFEASIBLE
        a = np.array([[1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        r = np.append(cert.witness, cert.residual)
        assert np.max(a.T @ r) <= 1e-9
        assert b @ r > 0.0

    def test_scalar_objective_infeasible_matches_direct_lp(self):
        """min x1 over {x <= 0} at the origin: stationarity would need the
        constraint dual (1, 0), which has the wrong sign.  The certificate
        and an independently assembled feasibility system must agree.
        """
        prob = scalar_first_coordinate_problem()
        cert = multiplier_certificate(prob, [0.0, 0.0])
        assert cert.status == LP_INFEASIBLE

        # unknowns (v, mu1, mu2) >= 0 with c = -mu:  J^T v + mu = 0,  v = 1
        a_eq = np.array([[1.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0]])
        b_eq = np.array([0.0, 0.0, 1.0])
        res = feasibility(LinearProgram(c=np.zeros(3), a_eq=a_eq, b_eq=b_eq))
        assert res.status == INFEASIBLE

    def test_quadratic_objective_reads_its_jacobian(self, boxed_negative):
        """The rule needs no affine objective: f = x + 0.1 |x|^2 (1, 1) at the
        edge (-1, 0) has J = [[0.8, 0], [-0.2, 1]], which v = (1, 0) and the
        normal (-0.8, 0) cancel."""
        from rvopt.firstorder import QuadraticObjective
        problem = dataclasses.replace(boxed_negative, objective=QuadraticObjective(
            quads=0.1 * np.array([np.eye(2), np.eye(2)]), lins=np.eye(2), consts=np.zeros(2)))
        cert = multiplier_certificate(problem, [-1.0, 0.0])
        assert cert.status == HOLDS and cert.residual <= 1e-12
        assert_allclose(cert.v, [1.0, 0.0], atol=1e-12)
        assert_allclose(cert.normal, [-0.8, 0.0], atol=1e-12)
        assert replay_certificate(problem, [-1.0, 0.0], cert) == cert.residual

    def test_exact_data_gives_exact_multipliers(self):
        """Weights at rounding level leave the support and one refinement
        step solves the rest, so e1 at (0.5, 1) gets y* and v exactly
        (0, 1), where the solver alone leaves 1.1e-16 in the first entry."""
        problem, x = load_problem(PROBLEMS_DIR / "e1.json"), [0.5, 1.0]
        fan = scalarized_fan_certificate(problem, x)
        cert = multiplier_certificate(problem, x)
        assert fan.y_star.tolist() == cert.v.tolist() == [0.0, 1.0]
        assert cert.status == HOLDS and cert.residual == 0.0

    def test_report_point_multipliers_replay(self):
        """At the 144 report points, the grid and synthetic points and the
        bench report cases, every multiplier certificate replays to its
        residual and stores no -0.0."""
        cases = grid_cases() + synthetic_cases() + [
            case for case in bench_cases() if case[0].endswith("-report")]
        assert len(cases) == 144
        for label, problem, x in cases:
            cert = multiplier_certificate(problem, x)
            assert replay_certificate(problem, x, cert) == cert.residual, label
            stored = np.concatenate([np.ravel(part) for part in
                                     (cert.v, cert.normal, cert.witness) + cert.duals
                                     if part is not None])
            assert not np.any(np.signbit(stored) & (stored == 0.0)), label

    def test_replay_reproduces_residual(self, boxed_negative):
        cert = multiplier_certificate(boxed_negative, [-1.0, 0.0])
        assert replay_certificate(boxed_negative, [-1.0, 0.0], cert) <= 1e-12
        fan_cert = scalarized_fan_certificate(boxed_negative, [-1.0, 0.0])
        assert replay_certificate(boxed_negative, [-1.0, 0.0], fan_cert) <= 1e-8

    def test_objective_scaling_never_flips_status(self, boxed_negative,
                                                  free_negative):
        """Positive rescaling of f preserves every multiplier verdict."""
        for prob, x in ((boxed_negative, [-1.0, 0.0]),
                        (free_negative, [-1.0, -1.0])):
            base = multiplier_certificate(prob, x).status
            for t in (0.5, 3.0):
                scaled = Problem(
                    objective=AffineObjective(t * prob.objective.jac,
                                              t * prob.objective.offset),
                    ordering_cone=prob.ordering_cone,
                    constraint_cone=prob.constraint_cone,
                    region=prob.region, scenarios=prob.scenarios)
                assert multiplier_certificate(scaled, x).status == base


def box_margin(rows, dim):
    """Reference LP: max t s.t. rows z >= t, |z_i| <= 1, on the simplex."""
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.vstack([np.hstack([-rows, np.ones((rows.shape[0], 1))]),
                      np.hstack([np.eye(dim), np.zeros((dim, 1))]),
                      np.hstack([-np.eye(dim), np.zeros((dim, 1))])])
    b_ub = np.concatenate([np.zeros(rows.shape[0]), np.ones(2 * dim)])
    res = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub,
                                 nonneg=np.zeros(dim + 1, dtype=bool)))
    assert res.status == OPTIMAL
    return float(res.x[dim])


class TestMaxMarginPoint:
    def test_agrees_with_the_box_lp(self):
        """Unit-ball margins on seeded row sets in R^2-R^4: the box LP gives
        the same pass/fail, the witness is a unit vector attaining the
        margin, and the margin is dist(0, conv rows).  Every fourth set has
        0 in the hull of its rows by construction."""
        rng = np.random.default_rng(17)
        passed = failed = 0
        for i in range(240):
            dim = 2 + i % 3
            rows = rng.standard_normal((int(rng.integers(1, 3 * dim)), dim))
            if i % 4 == 0:
                rows = np.vstack([rows, -(rng.random(rows.shape[0]) @ rows)])
            elif i % 4 == 1:
                shift = rng.standard_normal(dim)
                rows = rows + 1.5 * shift / np.linalg.norm(shift)
            margin, witness, _, _ = max_margin_point(rows, dim)
            assert (margin > 1e-8) == (box_margin(rows, dim) > 1e-8)
            assert abs(float(np.min(rows @ witness)) - margin) <= 1e-12
            assert abs(margin - polytope_distance(np.zeros(dim), rows)) <= 1e-9
            if margin > 1e-8:
                assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
                passed += 1
            else:
                assert i % 4 != 0 or margin == 0.0
                failed += 1
        assert passed >= 40 and failed >= 60


    def test_resolves_a_small_margin(self):
        """Rows (1, eps), (-1, eps), (0.3, 1) have margin eps, attained at
        (0, 1); the nearest hull point (0, eps) keeps it, and the box LP
        passes it too."""
        eps = 1e-6
        rows = np.array([[1.0, eps], [-1.0, eps], [0.3, 1.0]])
        margin, witness, _, _ = max_margin_point(rows, 2)
        assert abs(margin - eps) <= 1e-9
        assert_allclose(witness, [0.0, 1.0], atol=1e-9)
        assert box_margin(rows, 2) > 1e-8

    def test_thin_ordering_cone_is_accepted(self):
        """A halfspace ordering cone of interior margin about 1e-6 has a
        nonempty interior, and its default direction is its axis."""
        prob = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                       ordering_cone=Cone.halfspaces([[1.0, 1e-6], [-1.0, 1e-6]]),
                       constraint_cone=Cone.orthant(2),
                       region=PolyhedralSet.whole_space(2),
                       scenarios=negated_scenario())
        assert_allclose(prob.direction, [0.0, 1.0], atol=1e-9)


class TestShortDirection:
    """A halfspace ordering cone with a short or near-boundary e.  The
    normalization e . y = 1 then asks for a long dual vector; the programs
    normalize on the simplex and scale afterwards, so they still find it."""

    @staticmethod
    def boxed(e):
        return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                       ordering_cone=Cone.halfspaces(np.eye(2)),
                       constraint_cone=Cone.orthant(2),
                       region=PolyhedralSet.box([-1.0, -1.0], [0.0, 0.0]),
                       scenarios=negated_scenario(), direction=e)

    @pytest.mark.parametrize("e", [[1e-6, 1e-6], [1e-8, 0.999]])
    def test_dual_vector_without_constraints(self, e):
        """The sampled reference's program, which the exact one is held to."""
        y, _ = dual_vector_lp(self.boxed(e), np.zeros((0, 2)))
        assert y is not None
        assert abs(np.dot(e, y) - 1.0) <= 1e-12
        assert np.min(y) >= -1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("e", [[1e-6, 1e-6], [1e-8, 0.999], [0.999, 1e-8], [1e-8, 1e-8]])
    def test_scalarized_convex_holds_on_the_edge(self, e):
        """At (-1, 0) the slope is 0 on T_S(x) and y* = (1, 0) / e1: the pair
        atoms are the unit depth rows, and y* is scaled afterwards."""
        problem, x = self.boxed(e), [-1.0, 0.0]
        cert = convex_scalarized_certificate(problem, x, sigma=0.5, ell=1.0)
        assert cert.status == HOLDS
        assert abs(np.dot(e, cert.y_star) - 1.0) <= 1e-12
        assert_allclose(cert.y_star / np.linalg.norm(cert.y_star), [1.0, 0.0], atol=1e-12)
        assert replay_certificate(problem, x, cert) == cert.residual

    @pytest.mark.parametrize("e", [[1e-6, 1e-6], [1e-8, 0.999], [0.999, 1e-8], [1e-8, 1e-8]])
    def test_scalarized_fan_holds_on_the_edge(self, e):
        """At (-1, 0) the dual vector is (1, 0) / e1."""
        cert = scalarized_fan_certificate(self.boxed(e), [-1.0, 0.0])
        assert cert.status == HOLDS
        assert cert.residual <= 1e-12
        assert abs(np.dot(e, cert.y_star) - 1.0) <= 1e-12
        assert_allclose(cert.y_star / np.linalg.norm(cert.y_star), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("e", [[1e-6, 1e-6], [1e-8, 0.999], [1e-8, 1e-8]])
    def test_multiplier_rule_holds_on_the_edge(self, e):
        """At (-1, 0): v = (1, 0) / e1 and normal (-1, 0) / e1."""
        cert = multiplier_certificate(self.boxed(e), [-1.0, 0.0])
        assert cert.status == HOLDS
        assert cert.residual <= 1e-9
        assert_allclose(cert.v * e[0], [1.0, 0.0], atol=1e-9)
        assert_allclose(cert.normal * e[0], [-1.0, 0.0], atol=1e-9)


class TestReplay:
    def test_scalarized_convex_replay_keeps_the_slope_term(self):
        """At e1's (0.5, 1) with beta = 6 the program needs the atom
        A_w^T r of its first witness: replay rebuilds J^T y + beta sum_k
        theta_k A_w^T r_k - P^T mu from the stored beta, weights and atoms,
        so it reproduces the stored residual; dropping the slope term leaves
        a gap, which replays to inf."""
        problem, x = load_problem(PROBLEMS_DIR / "e1.json"), [0.5, 1.0]
        cert = convex_scalarized_certificate(problem, x, sigma=0.5, ell=3.0)
        assert cert.status == HOLDS and cert.beta == 6.0
        (w0, r0), (_, r1) = cert.atoms
        assert w0 == 0 and np.all(r0 == 0.0) and abs(np.linalg.norm(r1) - 1.0) <= 1e-12
        assert cert.duals[1][1] > 0.0
        assert replay_certificate(problem, x, cert) == cert.residual
        unweighted = dataclasses.replace(cert, beta=0.0)
        assert replay_certificate(problem, x, unweighted) == np.inf

    def test_report_certificates_replay_to_their_stored_residual(self, monkeypatch):
        """Every certificate run_report stores on the e1-e3 grid, of every
        kind, replays from its stored data to the residual in the report."""
        seen = []
        entry = rvopt.reporting._certificate_entry

        def spy(cert):
            seen.append(cert)
            return entry(cert)

        monkeypatch.setattr(rvopt.reporting, "_certificate_entry", spy)
        kinds = set()
        for label, problem, x in grid_cases():
            seen.clear()
            stages = {s["name"]: s for s in run_report(problem, x)["stages"]}
            for cert in seen:
                replayed = replay_certificate(problem, x, cert)
                assert replayed == cert.residual, (label, cert.kind)
                assert replayed == stages[cert.kind.replace("-", "_")]["residual"]
                kinds.add(cert.kind)
        assert kinds == {"penalization", "tangential", "scalarized-fan",
                         "scalarized-convex", "multiplier"}

    @pytest.mark.parametrize("kind", ["scalarized-fan", "scalarized-convex"])
    @pytest.mark.parametrize("x", [[-0.5, -0.5], [-0.5, 0.0], [0.0, -0.5], [0.0, 0.0]])
    def test_infeasible_scalarized_systems_store_a_separating_vector(self, kind, x):
        """The four e2 grid points with no dual vector.  Both certificates
        store a unit witness v in their direction cone: scalarized-fan's has
        R_K J v < 0, scalarized-convex's R_K (J v + beta slope_v e) < 0, on
        which every nonzero y* in K+ fails.  The sampled reference's
        inconsistent system g c >= h has multipliers u >= 0 with
        |g^T u| < h . u there.  Both replay to their stored residual."""
        problem = load_problem(PROBLEMS_DIR / "e2.json")
        if kind == "scalarized-fan":
            cert = scalarized_fan_certificate(problem, x)
            a, rows = cone_program_rows(problem, x, kind)
            assert np.min(a @ cert.witness) == cert.residual > INTERIOR_MARGIN
        else:
            cert = convex_scalarized_certificate(problem, x, sigma=0.5, ell=3.0)
            rows = contingent_cone(problem.region, x).rows
            depth = -(problem.ordering_cone.facets() @ penalized_derivative(problem, x, cert))
            assert abs(np.min(depth) - cert.residual) <= 1e-12
            assert cert.residual > INTERIOR_MARGIN
            status, _, vectors, u = sampled_convex_certificate(problem, x, 0.5, 3.0)
            g, h, _ = dual_vector_system(problem, vectors)
            assert status == LP_INFEASIBLE and farkas_separates(g, h, u)
            assert np.linalg.norm(g.T @ u) < 1e-9 < h @ u
        assert np.min(rows @ cert.witness, initial=0.0) >= -1e-12
        assert abs(np.linalg.norm(cert.witness) - 1.0) <= 1e-12
        assert cert.kind == kind and cert.status == LP_INFEASIBLE
        assert replay_certificate(problem, x, cert) == cert.residual

    def test_tampered_witnesses_replay_to_inf(self, free_negative):
        """The infeasible scalarized-convex certificate of e2 at (0, 0) and the
        infeasible multiplier rule at (-1, -1) replay to their residuals
        because their witnesses are unit vectors in the direction cone; the
        negated (outside T_S(x) at e2's corner), zeroed or tripled witness
        replays to inf."""
        e2, x = load_problem(PROBLEMS_DIR / "e2.json"), [0.0, 0.0]
        cert = convex_scalarized_certificate(e2, x, 0.5, 3.0)
        assert cert.status == LP_INFEASIBLE
        assert replay_certificate(e2, x, cert) == cert.residual > INTERIOR_MARGIN
        for scale in (-1.0, 0.0, 3.0):
            tampered = dataclasses.replace(cert, witness=scale * cert.witness)
            assert replay_certificate(e2, x, tampered) == np.inf
        cert = multiplier_certificate(free_negative, [-1.0, -1.0])
        assert cert.status == LP_INFEASIBLE and cert.residual > INTERIOR_MARGIN
        assert replay_certificate(free_negative, [-1.0, -1.0], cert) == cert.residual
        for scale in (-1.0, 0.0, 3.0):
            tampered = dataclasses.replace(cert, witness=scale * cert.witness)
            assert replay_certificate(free_negative, [-1.0, -1.0], tampered) == np.inf

    def test_tampered_scalarized_convex_weights_replay_to_inf(self):
        """At e1's (0.5, 1) with beta = 6 the holding certificate replays to
        its residual.  Weights off the simplex or negative, a y* that is not
        sum_j lam_j r_j / (r_j . e), an atom longer than 1 or outside the
        polar of its T_w, an atom moved to another scenario, or swapped atom
        weights replay to inf."""
        problem, x = load_problem(PROBLEMS_DIR / "e1.json"), [0.5, 1.0]
        cert = convex_scalarized_certificate(problem, x, sigma=0.5, ell=3.0)
        assert cert.status == HOLDS
        assert replay_certificate(problem, x, cert) == cert.residual
        lam, theta, mu = cert.duals
        (w0, r0), (w1, r1) = cert.atoms
        for tampered in (dataclasses.replace(cert, duals=(2.0 * lam, theta, mu)),
                         dataclasses.replace(cert, duals=(lam, -theta, mu)),
                         dataclasses.replace(cert, duals=(lam, theta[::-1], mu)),
                         dataclasses.replace(cert, y_star=2.0 * cert.y_star),
                         dataclasses.replace(cert, atoms=((w0, r0), (w1, 2.0 * r1))),
                         dataclasses.replace(cert, atoms=((w0, r0), (w1, -r1))),
                         dataclasses.replace(cert, atoms=((w0, r0), (1 - w1, r1))),
                         dataclasses.replace(cert, atoms=((w0, r0),))):
            assert replay_certificate(problem, x, tampered) == np.inf

    def test_tampered_multiplier_rule_replays_to_inf(self):
        """On e2 at (-1, 0) the negated multipliers and the all-zero ones
        still cancel, |J^T v + L^T c + n| = 0, but leave K+ on its
        normalization row, -C* or the normal cone, so replay rejects them;
        so do a negated v or a negated n alone, and a constraint dual
        outside -C*."""
        problem, x = load_problem(PROBLEMS_DIR / "e2.json"), [-1.0, 0.0]
        cert = multiplier_certificate(problem, x)
        assert cert.status == HOLDS
        assert replay_certificate(problem, x, cert) == cert.residual == 0.0
        for scale in (-1.0, 0.0):
            tampered = dataclasses.replace(cert, v=scale * cert.v, normal=scale * cert.normal,
                                           duals=tuple(scale * c for c in cert.duals))
            assert rvopt.certificates._multiplier_residual(
                problem, x, tampered.v, tampered.duals, tampered.normal) == 0.0
            assert replay_certificate(problem, x, tampered) == np.inf
        for tampered in (dataclasses.replace(cert, v=-cert.v),
                         dataclasses.replace(cert, normal=-cert.normal),
                         dataclasses.replace(cert, duals=(np.ones(2),))):
            assert replay_certificate(problem, x, tampered) == np.inf

    def test_tampered_directions_replay_differently(self, boxed_negative):
        """At the dominated corner (0, 0) all four fan-cone certificates
        fail with residual 1/sqrt(2), the depth of the witness (-1, -1)/sqrt(2).
        The negated witness leaves the direction cone, a zeroed or tripled
        one is no unit vector, and negated or zeroed weights leave the
        simplex, so all replay to inf."""
        x = [0.0, 0.0]
        for cert in (check_tangential_condition(boxed_negative, x),
                     check_penalization_condition(boxed_negative, x, sigma=0.5, ell=ROOT2),
                     scalarized_fan_certificate(boxed_negative, x),
                     multiplier_certificate(boxed_negative, x)):
            assert cert.status in (VIOLATED, LP_INFEASIBLE)
            assert cert.residual == pytest.approx(1.0 / ROOT2, abs=1e-12)
            assert_allclose(cert.witness, -np.ones(2) / ROOT2, atol=1e-12)
            assert replay_certificate(boxed_negative, x, cert) == cert.residual
            lam, mu = cert.duals
            for tampered in (dataclasses.replace(cert, witness=-cert.witness),
                             dataclasses.replace(cert, witness=0.0 * cert.witness),
                             dataclasses.replace(cert, witness=3.0 * cert.witness),
                             dataclasses.replace(cert, duals=(-lam, mu)),
                             dataclasses.replace(cert, duals=(np.zeros_like(lam), mu))):
                assert replay_certificate(boxed_negative, x, tampered) == np.inf

    def test_tampered_multipliers_replay_differently(self, boxed_negative):
        """On the Pareto edge (-1, 0) the fan-cone certificates hold with
        weights that cancel A; dropping mu, moving lam off the simplex or
        rescaling y* replays to inf."""
        x = [-1.0, 0.0]
        for cert in (check_tangential_condition(boxed_negative, x),
                     scalarized_fan_certificate(boxed_negative, x)):
            assert cert.status == HOLDS and cert.witness is None
            assert replay_certificate(boxed_negative, x, cert) == cert.residual == 0.0
            lam, mu = cert.duals
            tampered = [dataclasses.replace(cert, duals=(lam, np.zeros_like(mu))),
                        dataclasses.replace(cert, duals=(2.0 * lam, 2.0 * mu))]
            if cert.y_star is not None:
                tampered.append(dataclasses.replace(cert, y_star=2.0 * cert.y_star))
            for bad in tampered:
                assert replay_certificate(boxed_negative, x, bad) == np.inf


class TestQualification:
    def test_identity_fan_passes_with_slater(self, free_negative):
        problem = dataclasses.replace(free_negative, fan_override=Fan(np.eye(2)))
        report = qualification_check(problem, [0.0, 0.0])
        assert report.passed and report.margin == pytest.approx(1.0 / ROOT2, abs=1e-7)
        slater = slater_check(problem, [0.0, 0.0])
        assert slater.applicable and slater.passed

    def test_opposed_fan_fails(self, free_negative):
        fan = Fan(np.array([np.eye(2), -np.eye(2)]))
        report = qualification_check(dataclasses.replace(free_negative, fan_override=fan),
                                     [0.0, 0.0])
        assert not report.passed
        assert report.margin <= 1e-7

    def test_boxed_edge_fails_without_slater(self, boxed_negative):
        report = qualification_check(boxed_negative, [-1.0, 0.0])
        assert not report.passed
        assert report.margin == pytest.approx(0.0, abs=1e-9)
        slater = slater_check(boxed_negative, [-1.0, 0.0])
        assert not slater.applicable
        assert any("not interior" in note for note in slater.notes)
        stages = run_report(boxed_negative, [-1.0, 0.0])["stages"]
        entry = next(s for s in stages if s["name"] == "qualification")["report"]
        assert (entry["passed"], entry["slater_applicable"], entry["slater_passed"],
                entry["slater_margin"], entry["slater_witness"]) == (
                    False, False, False, 0.0, None)
        assert entry["notes"] == list(report.notes + slater.notes)

    def test_negated_scenario_passes_on_the_interior(self, free_negative):
        report = qualification_check(free_negative, [-1.0, -1.0])
        assert report.passed and report.margin == pytest.approx(1.0 / ROOT2, abs=1e-7)
        assert_allclose(report.witness, [-1.0, -1.0] / ROOT2, atol=1e-7)
        slater = slater_check(free_negative, [-1.0, -1.0])
        assert slater.passed
        assert slater.margin == pytest.approx(1.0 / ROOT2, abs=1e-7)


class TestConeGenerators:
    def test_orthant_axes(self):
        assert_allclose(cone_generators(Cone.orthant(2)), np.eye(2))

    def test_wedge_extreme_rays(self):
        gens = cone_generators(Cone.halfspaces([[-1.0, 1.0], [1.0, 1.0]]))
        expected = {(1.0, 1.0), (-1.0, 1.0)}
        got = {tuple(np.round(g * ROOT2, 9)) for g in gens}
        assert got == expected

    def test_whole_space_basis_pairs(self):
        gens = cone_generators(Cone.whole_space(2))
        assert gens.shape == (4, 2)
        for v in np.vstack([np.eye(2), -np.eye(2)]):
            assert any(np.allclose(v, g) for g in gens)

    def test_halfplane_lineality_plus_ray(self):
        gens = cone_generators(Cone.halfspaces([[1.0, 0.0]]))
        assert gens.shape == (3, 2)
        members = {tuple(np.round(g, 9)) for g in gens}
        assert (1.0, 0.0) in members
        assert (0.0, 1.0) in members and (0.0, -1.0) in members

    def test_cap_enforced(self):
        with pytest.raises(RepresentationError, match="cap"):
            cone_generators(Cone.halfspaces([[-1.0, 1.0], [1.0, 1.0]]), cap=1)

    def test_generators_span_the_cone(self):
        """Every sampled member is a nonnegative combination: projecting
        onto the generated cone moves it by nothing."""
        rng = np.random.default_rng(42)
        for rows in (np.array([[-1.0, 1.0], [1.0, 1.0]]),
                     rng.standard_normal((3, 3))):
            cone = Cone.halfspaces(rows)
            gen_cone = Cone.rays(cone_generators(cone))
            for z in rng.standard_normal((50, cone.dim)):
                if cone.contains(z, tol=0.0):
                    assert gen_cone.distance(z) <= 1e-7


class TestFanDataDerivedOnce:
    """One certify or report derives the fan and its preimage of C once,
    with one batched preimage call, solves the fan-cone program once, and
    samples no fan-cone directions; nothing outlives the problem: every
    CLI invocation loads a fresh one and redoes the work."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"fan": 0, "preimage": [], "sampled": [], "margin": [], "interior": 0}
        build_fan = rvopt.problem.fan_from_scenarios
        preimage = rvopt.problem.preimage_rows
        sample = rvopt.certificates.sampled_cone_directions
        solve = rvopt.certificates.max_margin_point
        interior = rvopt.certificates.interior_witness

        def count_solve(rows, dim, cone_rows=None):
            calls["margin"].append(cone_rows)
            return solve(rows, dim, cone_rows)

        def count_interior(cone):
            calls["interior"] += 1
            return interior(cone)

        def count_fan(smap):
            calls["fan"] += 1
            return build_fan(smap)

        def count_preimage(cone, mats):
            calls["preimage"].append(np.array(mats))
            return preimage(cone, mats)

        def count_sample(cone, *args, **kwargs):
            calls["sampled"].append(cone)
            return sample(cone, *args, **kwargs)

        monkeypatch.setattr(rvopt.problem, "fan_from_scenarios", count_fan)
        monkeypatch.setattr(rvopt.problem, "preimage_rows", count_preimage)
        monkeypatch.setattr(rvopt.certificates, "sampled_cone_directions", count_sample)
        monkeypatch.setattr(rvopt.certificates, "max_margin_point", count_solve)
        monkeypatch.setattr(rvopt.certificates, "interior_witness", count_interior)
        return calls

    @staticmethod
    def assert_derived_once(calls, bundle):
        assert calls["fan"] == 1
        assert len(calls["preimage"]) == 1
        assert np.array_equal(calls["preimage"][0], bundle)

    def test_certify_derives_once_per_invocation(self, monkeypatch, tmp_path, capsys):
        path = str(tmp_path / "wide.json")
        save_problem(synthetic_problem("halfspaces", 16), path)
        bundle = fan_from_scenarios(load_problem(path).scenarios).bundle
        assert bundle.shape[0] == 16
        calls = self.spy(monkeypatch)
        outputs = []
        for _ in range(2):
            code = cli_main(["certify", path, "--at", "0", "0"])
            outputs.append((code, capsys.readouterr().out))
            self.assert_derived_once(calls, bundle)
            assert calls["sampled"] == []
            # the fan-cone program, then qualification's margin; no Slater program
            assert [rows is None for rows in calls["margin"]] == [False, True]
            assert calls["interior"] == 0
            calls.update(fan=0, preimage=[], sampled=[], margin=[])
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith("qualification passed")

    def test_report_derives_once(self, monkeypatch):
        """No report stage samples directions."""
        problem, x = load_problem(PROBLEMS_DIR / "e1.json"), np.array([0.5, 1.0])
        bundle = fan_from_scenarios(problem.scenarios).bundle
        tangent = contingent_cone(problem.region, x).rows
        calls = self.spy(monkeypatch)
        report = run_report(problem, x)
        self.assert_derived_once(calls, bundle)
        assert calls["sampled"] == []
        stages = {stage["name"]: stage["status"] for stage in report["stages"]}
        assert stages["tangential"] == stages["scalarized_fan"] == "holds"
        fan_rows = np.vstack([problem.preimage_rows, tangent])
        assert sum(rows is not None and np.array_equal(rows, fan_rows)
                   for rows in calls["margin"]) == 1

    def test_point_sweep_derives_once(self, monkeypatch):
        """Sweeping one problem over many points reuses its preimage rows
        and samples nothing."""
        problem = synthetic_problem("orthant", 4)
        calls = self.spy(monkeypatch)
        for x in ([0.0, 0.0], [0.1, 0.0], [0.0, 0.0]):
            check_tangential_condition(problem, x)
            scalarized_fan_certificate(problem, x)
        assert calls["fan"] == 1 and len(calls["preimage"]) == 1
        assert calls["sampled"] == []

    def test_batched_preimage_rows_match_the_per_matrix_stack(self, recwarn):
        """Problem.preimage_rows equals, bit for bit, the stack of each fan
        matrix's rows from the per-matrix rule it replaced, on the shipped
        problems, the synthetic instances and the certify-wide bench cases;
        a zero row warns once per problem."""
        def per_matrix(cone, mats):
            stacked = []
            for mat in mats:
                rows = mat if cone.kind == "orthant" else cone.facets() @ mat
                rows = rows[np.linalg.norm(rows, axis=1) >= 1e-12]
                if rows.shape[0]:
                    stacked.append(Cone.halfspaces(rows).rows)
            return np.vstack(stacked) if stacked else np.zeros((0, mats.shape[2]))

        problems = [load_problem(PROBLEMS_DIR / f"{name}.json") for name in ("e1", "e2", "e3")]
        problems += [synthetic_problem(kind, w) for kind in ("orthant", "halfspaces", "rays")
                     for w in SCENARIO_COUNTS + (16, 32)]
        problems += [problem for label, problem, _ in bench_cases() if "certify" in label]
        for problem in problems:
            reference = per_matrix(problem.constraint_cone, problem.fan().bundle)
            assert problem.preimage_rows.tobytes() == reference.tobytes()
        assert len(recwarn) == 0
        zero = ScenarioMap([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]], np.ones((2, 2)))
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2), constraint_cone=Cone.orthant(2),
                          region=PolyhedralSet.whole_space(2), scenarios=zero)
        with pytest.warns(UserWarning, match="dropped zero rows") as caught:
            assert np.array_equal(problem.preimage_rows, np.eye(2))
        assert len(caught) == 1


def same_field(a, b):
    """Equal values and shapes, signs of zero included, through tuples."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
                and all(map(same_field, a, b)))
    if a is None or b is None or isinstance(a, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestSharedConeProgram:
    """The problem keeps the latest fan-cone solve, which the tangential,
    scalarized-fan and multiplier certificates read; penalization's T_S(x)
    program replaces it.  No order of calls may change an answer."""

    READERS = {"penalization": lambda p, x: check_penalization_condition(p, x, 0.5, 1.0),
               "tangential": check_tangential_condition,
               "scalarized-fan": scalarized_fan_certificate,
               "multiplier": multiplier_certificate}
    # the second order keeps the fan-cone kinds from point to point, the
    # third begins and ends each point with penalization
    ORDERS = (("penalization", "tangential", "scalarized-fan", "multiplier"),
              ("multiplier", "scalarized-fan", "tangential"),
              ("penalization", "multiplier", "penalization", "scalarized-fan", "tangential",
               "penalization"))

    @staticmethod
    def assert_same(cert, fresh, label):
        for item in dataclasses.fields(cert):
            got, want = getattr(cert, item.name), getattr(fresh, item.name)
            assert same_field(got, want), (label, cert.kind, item.name)

    def test_any_order_matches_a_fresh_problem(self):
        """Each of the 139 points is swept on its instance's one problem in
        three orders, forward and backward over the points; every field
        equals the one from a fresh problem."""
        sweeps, fresh = {}, {}
        for label, problem, x in grid_cases() + synthetic_cases():
            sweeps.setdefault(id(problem), (problem, []))[1].append((label, x))
            new = dataclasses.replace(problem)
            fresh[label] = {kind: read(new, x) for kind, read in self.READERS.items()}
        assert len(fresh) == 139
        for problem, points in sweeps.values():
            for turn, order in enumerate(self.ORDERS):
                for label, x in points[::-1] if turn % 2 else points:
                    for kind in order:
                        self.assert_same(self.READERS[kind](problem, x), fresh[label][kind],
                                         label)

    def test_replaced_problem_solves_afresh(self, free_negative):
        """A problem made by dataclasses.replace, here with another fan,
        does not see the solve of the problem it came from."""
        x = [-1.0, -1.0]
        before = check_tangential_condition(free_negative, x)
        opposed = dataclasses.replace(
            free_negative, fan_override=Fan(np.array([np.eye(2), -np.eye(2)])))
        after = check_tangential_condition(opposed, x)
        assert (before.status, after.status) == (VIOLATED, HOLDS)
        assert (before.duals[1].size, after.duals[1].size) == (2, 4)
        for kind, read in self.READERS.items():
            self.assert_same(read(opposed, x), read(dataclasses.replace(opposed), x), kind)

    @pytest.mark.parametrize("fixture, x", [("boxed_negative", [-1.0, 0.0]),
                                            ("free_negative", [-1.0, -1.0])])
    def test_shared_arrays_are_read_only(self, request, fixture, x):
        """The weights, witness and exact weights shared through the solve
        cannot be written, so editing one certificate's arrays cannot
        corrupt a later reading."""
        problem = request.getfixturevalue(fixture)
        tangential = check_tangential_condition(problem, x)
        fan = scalarized_fan_certificate(problem, x)
        multiplier = multiplier_certificate(problem, x)
        shared = [*tangential.duals]
        if tangential.status == HOLDS:
            shared += [fan.y_star, multiplier.v]
        else:
            shared += [tangential.witness, fan.witness, multiplier.witness]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        fresh = dataclasses.replace(problem)
        for cert, read in ((fan, scalarized_fan_certificate),
                           (multiplier, multiplier_certificate)):
            self.assert_same(cert, read(fresh, x), fixture)


# ----- the exact fan-cone programs against the sampled certificates they replaced

def bench_module():
    """The benchmark's case module, with its synthetic instance family."""
    spec = importlib.util.spec_from_file_location("bench_cases", BENCH_CASES)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def bench_cases():
    """(label, problem, x) for every benchmark case run at a point, with the
    synthetic instances at workload seed 7."""
    cases = bench_module()
    out = []
    for workload in cases.WORKLOADS.values():
        for label, source, argv in workload:
            if "--at" not in argv:
                continue
            problem = (cases.synthetic(source, 7) if isinstance(source, cases.Family)
                       else load_problem(PROBLEMS_DIR.parent / source))
            at = argv[argv.index("--at") + 1:]
            at = at[:next((i for i, a in enumerate(at) if a.startswith("--")), len(at))]
            out.append((label, problem, np.array([float(a) for a in at])))
    return out


def sampled_directions(cone):
    """The former direction set of a cone: 64 sampled directions (seed 0)
    and its generators, None beyond the double-description limits the
    sampled certificates had, 4 dimensions and 12 rows."""
    dirs = sampled_cone_directions(cone, 64, seed=0)
    if cone.kind == "halfspaces" and (cone.dim > 4 or cone.rows.shape[0] > 12):
        return dirs, None
    try:
        return dirs, cone_generators(cone)
    except RepresentationError:
        return dirs, None


def sampled_directional(problem, x, dirs, gens):
    """The former tangential and penalization rule: (status, worst depth)
    over the samples merged with the generators."""
    if gens is not None:
        dirs = merge_directions(dirs, gens)
    if dirs.shape[0] == 0:
        return (HOLDS if gens is not None else INCONCLUSIVE), 0.0
    rows = problem.ordering_cone.facets()
    worst = max(float(np.min(rows @ (-problem.objective.directional(x, v)))) for v in dirs)
    if worst > INTERIOR_MARGIN:
        return VIOLATED, worst
    return (INCONCLUSIVE if worst > LP_SLACK else HOLDS), worst


def sampled_certificates(problem, x):
    """Statuses of the former sampled certificates, with the flags telling
    where their directions included a complete generator set."""
    tangent = contingent_cone(problem.region, x)
    rows = np.vstack([problem.preimage_rows, tangent.rows])
    fan_dirs, fan_gens = sampled_directions(
        Cone.halfspaces(rows) if rows.shape[0] else Cone.whole_space(x.size))
    pen_dirs, pen_gens = sampled_directions(tangent)
    vectors = (fan_dirs if fan_gens is None else fan_gens) @ problem.objective.jacobian(x).T
    y, _ = dual_vector_lp(problem, vectors)
    fan = LP_INFEASIBLE if y is None else (HOLDS if fan_gens is not None else INCONCLUSIVE)
    return {"tangential": sampled_directional(problem, x, fan_dirs, fan_gens) + (fan_gens is not None,),
            "penalization": sampled_directional(problem, x, pen_dirs, pen_gens) + (pen_gens is not None,),
            "scalarized-fan": (fan, None, fan_gens is not None)}


@pytest.fixture(scope="module")
def exact_and_sampled():
    """(label, problem, x, exact certificates by kind, sampled results by
    kind) on the 139 grid and synthetic points and every bench case."""
    rows = []
    for label, problem, x in grid_cases() + synthetic_cases() + bench_cases():
        assert problem.feasible(x), label
        exact = {"tangential": check_tangential_condition(problem, x),
                 "penalization": check_penalization_condition(problem, x, sigma=0.5, ell=1.0),
                 "scalarized-fan": scalarized_fan_certificate(problem, x)}
        rows.append((label, problem, x, exact, sampled_certificates(problem, x)))
    return rows


def past_limit_cases():
    """(label, problem, x) with a ray C past the former double-description
    limits of 4 dimensions and 12 rows: the ray C in R^5 at four points,
    and with its scenario matrix negated at the origin, where every
    direction v <= 0 keeps the images in C and improves f; and the bench
    family's ray C at n = 5 and 6 (workload seed 7), at x0 = 2 * 1 and at
    the last feasible point toward 0."""
    r5 = ray_cone_r5_problem()
    cases = [(f"rays-r5{tuple(x)}", r5, np.array(x))
             for x in ([0.0, 0.0], [-0.5, -0.5], [-1.0, 0.0], [-1.0, 1.0])]
    negated = ScenarioMap(-r5.scenarios.mats, r5.scenarios.offsets)
    cases.append(("rays-r5-negated", dataclasses.replace(r5, scenarios=negated), np.zeros(2)))
    bench = bench_module()
    for n in (5, 6):
        problem = bench.synthetic(bench.Family(n, 4, "rays", 0.3, 2.0, 1.0, 40 + n), 7)
        lo, hi = 0.0, 2.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if problem.feasible(np.full(n, 2.0 - mid)) else (lo, mid)
        cases += [(f"rays-n{n}-x0", problem, np.full(n, 2.0)),
                  (f"rays-n{n}-boundary", problem, np.full(n, 2.0 - lo))]
    return cases


class TestPastTheFormerLimits:
    def test_every_certificate_runs_and_agrees_with_the_lp(self, tmp_path):
        """Every certificate stage runs on ray C past the former limits; the
        three readings of the fan-cone program agree, and neither they nor
        certify refute a point the max-t LP calls weakly efficient."""
        refuted = 0
        for label, problem, x in past_limit_cases():
            assert problem.feasible(x), label
            convex_scalarized_certificate(problem, x, sigma=0.5, ell=1.0)
            check_penalization_condition(problem, x, sigma=0.5, ell=1.0)
            qualification_check(problem, x)
            tangential = check_tangential_condition(problem, x).status
            fan = scalarized_fan_certificate(problem, x).status
            cert = multiplier_certificate(problem, x)
            assert cert.status == fan == (LP_INFEASIBLE if tangential == VIOLATED
                                          else tangential), label
            assert replay_certificate(problem, x, cert) == cert.residual, label
            code = certify_code(tmp_path, problem, x)
            assert code in (0, 2, 3), label
            if exact_weakly_efficient(problem, x):
                assert code != 2 and tangential != VIOLATED, label
            refuted += code == 2
        assert refuted > 0


class TestExactAgainstSampled:
    def test_statuses_match_where_generators_exist(self, exact_and_sampled):
        compared = 0
        for label, _, _, exact, sampled in exact_and_sampled:
            for kind, cert in exact.items():
                status, _, complete = sampled[kind]
                if complete:
                    assert cert.status == status, (label, kind)
                    compared += 1
        assert len(exact_and_sampled) == 148 and compared == 438

    def test_margin_is_at_least_the_sampled_depth(self, exact_and_sampled):
        """Every sampled direction lies in the cone, so none beats m."""
        for label, _, _, exact, sampled in exact_and_sampled:
            for kind in ("tangential", "penalization"):
                assert exact[kind].residual >= sampled[kind][1] - 1e-12, (label, kind)

    def test_witnesses_lie_in_the_cone_and_attain_the_margin(self, exact_and_sampled):
        """A unit witness in T of depth m, and weights whose point has norm
        m: primal and dual values agree, so both are optimal."""
        witnessed = 0
        for label, problem, x, exact, _ in exact_and_sampled:
            for kind, cert in exact.items():
                if cert.witness is None:
                    continue
                a, rows = cone_program_rows(problem, x, kind)
                v = cert.witness
                assert np.min(rows @ v, initial=0.0) >= -1e-9, (label, kind)
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-9, (label, kind)
                assert abs(np.min(a @ v) - cert.residual) <= 1e-9, (label, kind)
                assert abs(multiplier_gap(problem, x, cert) - cert.residual) <= 1e-9
                assert replay_certificate(problem, x, cert) == cert.residual
                witnessed += 1
        assert witnessed == 144

    def test_multipliers_cancel_where_the_margin_is_zero(self, exact_and_sampled):
        """At m = 0, |A^T lam + P^T mu| <= 1e-9; scalarized-fan's y* is
        R_K^T lam scaled to the normalization row, in K+, and J^T y* lies
        in the dual of T."""
        held = 0
        for label, problem, x, exact, _ in exact_and_sampled:
            for kind, cert in exact.items():
                if cert.residual != 0.0:
                    continue
                assert cert.status == HOLDS and cert.witness is None, (label, kind)
                assert multiplier_gap(problem, x, cert) <= 1e-9, (label, kind)
                assert replay_certificate(problem, x, cert) == 0.0
                if kind == "scalarized-fan":
                    y = cert.y_star
                    assert np.min(problem.ordering_cone.facets() @ y) >= -1e-12
                    assert abs(np.sum(y) - 1.0) <= 1e-12   # every case orders by the orthant
                    _, rows = cone_program_rows(problem, x, kind)
                    dirs, gens = sampled_directions(Cone.halfspaces(rows) if rows.shape[0]
                                                    else Cone.whole_space(x.size))
                    assert np.min(dirs @ problem.objective.jacobian(x).T @ y,
                                  initial=0.0) >= -1e-9, label
                held += 1
        assert held == 300

    def test_multiplier_rule_is_the_third_reading(self, exact_and_sampled):
        """The multiplier rule reads the same program: its status equals
        tangential's (violated as lp-infeasible) and scalarized-fan's at
        every point, and a holding multiplier cancels to 1e-8."""
        for label, problem, x, exact, _ in exact_and_sampled:
            cert = multiplier_certificate(problem, x)
            tangential = exact["tangential"].status
            assert cert.status == exact["scalarized-fan"].status, label
            assert cert.status == (LP_INFEASIBLE if tangential == VIOLATED else tangential)
            if cert.status == HOLDS:
                assert cert.residual <= 1e-8, label

    def test_certify_wide_cases_hold(self, exact_and_sampled):
        """The fan cones of the certify-wide cases have 32-64 rows, past the
        double-description limit, where scalarized-fan was inconclusive; the
        exact program proves both fan-cone conditions there."""
        wide = [row for row in exact_and_sampled if row[0].endswith("-certify")]
        assert len(wide) == 3
        for label, _, _, exact, sampled in wide:
            assert sampled["scalarized-fan"][0] == INCONCLUSIVE, label
            assert exact["tangential"].status == exact["scalarized-fan"].status == HOLDS


def family_boundary(kind):
    """The bench family Family(6, 4, kind, 0.3, 2.0, 1.0, 31) at workload
    seed 7, at its last feasible point from x0 = 2 * 1 along -x0 / |x0|:
    60 bisection steps on t in [0, 8] with feasible(., tol=0.0)."""
    bench = bench_module()
    problem = bench.synthetic(bench.Family(6, 4, kind, 0.3, 2.0, 1.0, 31), 7)
    x0 = np.full(6, 2.0)
    d = -x0 / np.linalg.norm(x0)
    lo, hi = 0.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if problem.feasible(x0 + mid * d, tol=0.0) else (lo, mid)
    return problem, x0 + lo * d


@pytest.fixture(scope="module")
def convex_and_sampled():
    """(label, problem, x, exact certificate, sampled reference) for
    scalarized-convex at the 139 harness points, at the report's sigma and
    ell."""
    rows = []
    for label, problem, x in grid_cases() + synthetic_cases():
        sigma, ell = report_constants(problem, x)
        rows.append((label, problem, x, convex_scalarized_certificate(problem, x, sigma, ell),
                     sampled_convex_certificate(problem, x, sigma, ell)))
    return rows


class TestConvexScalarizedAgainstSampled:
    def test_status_matches_the_sampled_reference(self, convex_and_sampled):
        """Equal statuses at all 139 points, so every sampled lp-infeasible
        is an exact one too, and both statuses occur."""
        assert len(convex_and_sampled) == 139
        for label, _, _, cert, sampled in convex_and_sampled:
            assert cert.status == sampled[0], label
        assert {cert.status for *_, cert, _ in convex_and_sampled} == {HOLDS, LP_INFEASIBLE}

    def test_certificates_replay_and_check(self, convex_and_sampled):
        """A holding certificate gives y* in K+ with y* . e = 1 from weights
        on the simplex; a refuting one a unit witness in T_S(x) on which
        R_K (J v + beta slope_v e) <= -residual.  Both replay to their
        residual, and at most one atom joins 0."""
        for label, problem, x, cert, _ in convex_and_sampled:
            assert replay_certificate(problem, x, cert) == cert.residual, label
            assert 1 <= len(cert.atoms) <= 2, label
            if cert.status == HOLDS:
                assert np.min(problem.ordering_cone.facets() @ cert.y_star) >= -1e-12
                assert abs(cert.y_star @ problem.direction - 1.0) <= 1e-12, label
                assert cert.residual <= 1e-9, label
            else:
                rows = contingent_cone(problem.region, x).rows
                assert np.min(rows @ cert.witness, initial=0.0) >= -1e-12, label
                depth = -(problem.ordering_cone.facets()
                          @ penalized_derivative(problem, x, cert))
                assert np.min(depth) >= cert.residual - 1e-12 > 0.0, label

    @pytest.mark.parametrize("kind", ["orthant", "halfspaces"])
    def test_sampled_holds_is_refuted(self, kind):
        """At the family's last feasible point toward 0 the sampled
        directions miss the refuting one: the exact program finds a witness
        v in T_S(x) with every component of J v + beta slope_v e at most
        -0.02, and the qualification check passes, while the max-t LP
        confirms that the point is dominated."""
        problem, x = family_boundary(kind)
        sigma, ell = report_constants(problem, x)
        assert sampled_convex_certificate(problem, x, sigma, ell)[0] == HOLDS
        cert = convex_scalarized_certificate(problem, x, sigma, ell)
        assert cert.status == LP_INFEASIBLE
        rows = contingent_cone(problem.region, x).rows
        assert np.min(rows @ cert.witness, initial=0.0) >= 0.0
        assert np.max(penalized_derivative(problem, x, cert)) <= -0.02
        assert replay_certificate(problem, x, cert) == cert.residual
        assert qualification_check(problem, x).passed
        assert not exact_weakly_efficient(problem, x)
