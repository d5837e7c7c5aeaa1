"""First-order certificates: directional, scalarized, multiplier, CQ."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.certificates
import rvopt.problem
import rvopt.reporting
from rvopt.cli import main as cli_main
from rvopt.certificates import (HOLDS, INCONCLUSIVE, LP_INFEASIBLE, VIOLATED,
                                _direction_set,
                                check_penalization_condition,
                                check_tangential_condition, cone_generators,
                                convex_scalarized_certificate,
                                estimate_order_lipschitz, merit_slopes,
                                multiplier_certificate, order_lipschitz_holds,
                                qualification_check, replay_certificate,
                                scalarized_fan_certificate)
from rvopt.cones import Cone
from rvopt.docio import load_problem, save_problem
from rvopt.errors import PreconditionError, RepresentationError
from rvopt.firstorder import (ACTIVE_TOL, AffineObjective, Fan, PolyhedralSet,
                              contingent_cone, fan_from_scenarios, polytope_distance,
                              sampled_cone_directions)
from rvopt.problem import Problem, max_margin_point
from rvopt.reporting import run_report
from rvopt.scenarios import ScenarioMap
from rvopt.simplex import INFEASIBLE, OPTIMAL, LinearProgram, feasibility, solve_lp

from conftest import (PROBLEMS_DIR, SCENARIO_COUNTS, boundary_points, grid_cases,
                      merit_cases, negated_scenario, synthetic_problem)

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


class TestPenalizationCondition:
    def test_unrestricted_descent_violates(self, free_negative):
        """With the whole plane tangent, v = -e drives f into -int K."""
        cert = check_penalization_condition(free_negative, [-1.0, -1.0],
                                            alpha=1.5, ell=ROOT2)
        assert cert.status == VIOLATED
        assert_allclose(cert.witness, -np.ones(2) / ROOT2, atol=1e-9)
        assert cert.residual == pytest.approx(1.0 / ROOT2, abs=1e-9)

    def test_edge_point_holds(self, boxed_negative):
        cert = check_penalization_condition(boxed_negative, [-1.0, 0.0],
                                            alpha=1.5, ell=ROOT2)
        assert cert.status == HOLDS

    def test_pinned_region_is_vacuous(self, free_negative):
        """A singleton region has the trivial tangent cone, which the
        generator enumeration certifies, so the check holds vacuously."""
        point = PolyhedralSet.halfspaces(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [0.0, 0.0, 0.0, 0.0])
        prob = Problem(objective=free_negative.objective,
                       ordering_cone=free_negative.ordering_cone,
                       constraint_cone=free_negative.constraint_cone,
                       region=point, scenarios=free_negative.scenarios)
        cert = check_penalization_condition(prob, [0.0, 0.0], alpha=1.5,
                                            ell=1.0)
        assert cert.status == HOLDS
        assert "vacuous" in " ".join(cert.notes)

    def test_preconditions(self, free_negative):
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], alpha=1.0,
                                         ell=1.0)
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], alpha=1.5,
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
        """At (-1,-1) the admissible directions reduce to {0} exactly."""
        cert = check_tangential_condition(boxed_negative, [-1.0, -1.0])
        assert cert.status == HOLDS
        assert "vacuous" in " ".join(cert.notes)


class TestScalarizedFan:
    def test_edge_certificate_with_dual_vector(self, boxed_negative):
        cert = scalarized_fan_certificate(boxed_negative, [-1.0, 0.0])
        assert cert.status == HOLDS
        assert_allclose(cert.y_star, [1.0, 0.0], atol=1e-6)
        assert cert.residual <= 1e-7
        assert "generators" in " ".join(cert.notes)

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
                                             alpha=1.704046875, ell=ROOT2)
        assert cert.status == HOLDS
        assert_allclose(cert.y_star, [1.0, 0.0], atol=1e-6)

    def test_dominated_point_infeasible(self, free_negative):
        cert = convex_scalarized_certificate(free_negative, [-1.0, -1.0],
                                             alpha=1.5, ell=ROOT2)
        assert cert.status == LP_INFEASIBLE

    def test_alpha_must_exceed_one(self, free_negative):
        with pytest.raises(PreconditionError):
            convex_scalarized_certificate(free_negative, [0.0, 0.0],
                                          alpha=1.0, ell=1.0)


    @pytest.mark.parametrize("region, x", [
        (PolyhedralSet.box([0.0, 0.0], [2.0, 2.0]), [0.0, 0.0]),
        (PolyhedralSet.box([0.0, 0.0], [2.0, 2.0]), [0.5, 0.0]),
        (PolyhedralSet.whole_space(2), [0.5, 0.5]),
        (PolyhedralSet.halfspaces([[1.0, 1.0], [-1.0, 2.0]], [1.0, 1.0]), [1.0 / 3, 2.0 / 3]),
    ], ids=["corner", "edge", "interior", "halfspace-vertex"])
    def test_directions_merge_like_the_loop(self, quarter_box, region, x):
        """Tangent generators first, then each new sampled direction."""
        problem = Problem(objective=quarter_box.objective,
                          ordering_cone=quarter_box.ordering_cone,
                          constraint_cone=quarter_box.constraint_cone,
                          region=region, scenarios=quarter_box.scenarios)
        tangent = contingent_cone(region, x)
        dirs = list(cone_generators(tangent))
        for v in sampled_cone_directions(tangent, 64, seed=0):
            if not any(np.linalg.norm(v - w) < 1e-9 for w in dirs):
                dirs.append(v)
        cert = convex_scalarized_certificate(problem, x, alpha=1.5, ell=1.0)
        assert np.array_equal(cert.directions, np.array(dirs).reshape(-1, 2))


    @pytest.mark.parametrize("name, problem, x", SLOPE_CASES,
                             ids=[case[0] for case in SLOPE_CASES])
    def test_dual_vector_program_gets_the_exact_slopes(self, monkeypatch, name,
                                                      problem, x):
        """The program receives f'(x; v) + beta slope_v e with the slopes of
        reference_slopes, to 1e-12; its y* and residual are the
        certificate's."""
        seen = []
        solve = rvopt.certificates._dual_vector_lp

        def spy(prob, vectors):
            seen.append(vectors)
            return solve(prob, vectors)

        monkeypatch.setattr(rvopt.certificates, "_dual_vector_lp", spy)
        alpha, ell = 1.5, ROOT2
        cert = convex_scalarized_certificate(problem, x, alpha, ell)
        x = np.asarray(x, dtype=float)
        slopes = reference_slopes(problem, x, cert.directions)
        vectors = np.array([problem.objective.directional(x, v)
                            + ell / (alpha - 1.0) * slope * problem.direction
                            for v, slope in zip(cert.directions, slopes)])
        assert_allclose(seen[0], vectors, rtol=0.0, atol=1e-12)
        y, _ = solve(problem, seen[0])
        if y is None:
            assert cert.status == LP_INFEASIBLE and cert.y_star is None
        else:
            assert np.array_equal(cert.y_star, y)
            assert cert.residual == float(max(0.0, np.max(-(seen[0] @ y), initial=0.0)))

    def test_makes_no_merit_call(self, monkeypatch):
        """The slopes come from the active facet rows, not from merit values."""
        def refuse(*args, **kwargs):
            raise AssertionError("merit function evaluated")

        monkeypatch.setattr(Problem, "merit_many", refuse)
        monkeypatch.setattr(ScenarioMap, "merit_many", refuse)
        for name, problem, x in SLOPE_CASES:
            convex_scalarized_certificate(problem, x, alpha=1.5, ell=ROOT2)

    def test_ray_cone_beyond_double_description_is_a_stage_error(self):
        """A ray C in R^5 has no facet rows within the double-description
        limits, so the slopes cannot be formed: the certificate raises
        RepresentationError, and the report records a stage error, as it
        does for the other stages that need those rows."""
        gens = np.vstack([np.eye(5), np.ones(5)])
        mats = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2), constraint_cone=Cone.rays(gens),
                          region=PolyhedralSet.box([-2.0, -2.0], [2.0, 2.0]),
                          scenarios=ScenarioMap(mats, np.ones((1, 5))))
        x = np.zeros(2)
        with pytest.raises(RepresentationError):
            convex_scalarized_certificate(problem, x, alpha=1.5, ell=1.0)
        stages = {s["name"]: s for s in run_report(problem, x)["stages"]}
        assert stages["increase"]["status"] == "ok"
        assert stages["order_lipschitz"]["status"] == "ok"
        for name in ("penalization", "tangential", "scalarized_fan",
                     "scalarized_convex", "qualification"):
            assert stages[name]["status"] == "error", name
            assert stages[name]["error"].startswith("RepresentationError"), name


class TestDirectionSet:
    @pytest.mark.parametrize("cone", [
        Cone.orthant(2), Cone.halfspaces([[1.0, 1.0], [-1.0, 1.0]]),
        Cone.halfspaces([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        Cone.rays([[1.0, 0.2], [0.3, 1.0]]), Cone.whole_space(2)])
    def test_matches_the_merge_loop(self, cone):
        """Sampled directions first, then each new exact generator."""
        merged = list(sampled_cone_directions(cone, 32, seed=1))
        for g in cone_generators(cone):
            if not any(np.linalg.norm(g - w) < 1e-9 for w in merged):
                merged.append(g)
        dirs, exact = _direction_set(cone, 32, seed=1)
        assert exact
        assert np.array_equal(dirs, np.array(merged).reshape(-1, cone.dim))


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
        """The stored Farkas vector r separates b from the generated cone.
        Unknowns (v1, v2, c1, c2) >= 0 of J^T v - L^T c = 0 and v1 + v2 = 1,
        with J = I, L = -I and the constraint duals -c."""
        cert = multiplier_certificate(free_negative, [-1.0, -1.0])
        assert cert.status == LP_INFEASIBLE
        a = np.array([[1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        assert np.max(a.T @ cert.farkas) <= 1e-9
        assert b @ cert.farkas > 0.0

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
            margin, witness = max_margin_point(rows, dim)
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
        margin, witness = max_margin_point(rows, 2)
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
        y, _ = rvopt.certificates._dual_vector_lp(self.boxed(e), np.zeros((0, 2)))
        assert y is not None
        assert abs(np.dot(e, y) - 1.0) <= 1e-12
        assert np.min(y) >= -1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("e", [[1e-6, 1e-6], [1e-8, 0.999], [0.999, 1e-8]])
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
    @pytest.mark.parametrize("name, x", [("e1", [0.5, 1.0]), ("e3", [0.5, 0.0])])
    def test_scalarized_convex_replay_keeps_the_slope_term(self, name, x):
        """Replay rebuilds f'(x; v) + beta slope_v e from the stored beta
        and directions, recomputing the merit slopes, so it reproduces the
        stored residual; dropping the slope term leaves a violation here."""
        problem = load_problem(PROBLEMS_DIR / f"{name}.json")
        cert = convex_scalarized_certificate(problem, x, alpha=1.5, ell=3.0)
        assert cert.status == HOLDS and cert.beta == 6.0
        assert np.max(merit_slopes(problem, x, cert.directions)) > 0.0
        assert replay_certificate(problem, x, cert) == cert.residual
        unweighted = dataclasses.replace(cert, beta=0.0)
        assert replay_certificate(problem, x, unweighted) > 0.0

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
        """The four e2 grid points with an inconsistent dual-vector system
        g c >= h store multipliers u >= 0 with |g^T u| < h . u, which no c
        on the simplex can meet, and replay to their stored residual."""
        problem = load_problem(PROBLEMS_DIR / "e2.json")
        if kind == "scalarized-fan":
            cert = scalarized_fan_certificate(problem, x)
            vectors = rvopt.certificates._fan_vectors(
                cert.directions, problem.objective.jacobian(x))
        else:
            cert = convex_scalarized_certificate(problem, x, alpha=1.5, ell=3.0)
            vectors = rvopt.certificates._penalized_vectors(
                problem, x, cert.directions, cert.beta)
        assert cert.kind == kind and cert.status == LP_INFEASIBLE
        g, h, _ = rvopt.certificates._dual_vector_system(problem, vectors)
        u = cert.farkas
        assert u.shape == h.shape and np.min(u) >= 0.0
        assert np.linalg.norm(g.T @ u) < 1e-9 < h @ u
        assert replay_certificate(problem, x, cert) == cert.residual

    def test_tampered_farkas_vector_replays_differently(self, free_negative):
        """The infeasible multiplier system at (-1, -1) replays to its stored
        residual 0 because its Farkas vector r separates, A^T r <= 0 < b . r,
        and so does the infeasible scalarized-fan system of e2 at (0, 0),
        whose vector u >= 0 has |g^T u| < h . u; the negated or zeroed
        vectors do not, and replay to inf."""
        e2 = load_problem(PROBLEMS_DIR / "e2.json")
        for problem, x, certify in ((free_negative, [-1.0, -1.0], multiplier_certificate),
                                    (e2, [0.0, 0.0], scalarized_fan_certificate)):
            cert = certify(problem, x)
            assert cert.status == LP_INFEASIBLE
            assert replay_certificate(problem, x, cert) == cert.residual == 0.0
            for farkas in (-cert.farkas, np.zeros_like(cert.farkas)):
                tampered = dataclasses.replace(cert, farkas=farkas)
                assert replay_certificate(problem, x, tampered) == np.inf

    def test_tampered_directions_replay_differently(self, boxed_negative):
        """At the dominated corner (0, 0) both directional conditions are
        violated with residual 1/sqrt(2); the negated directions improve
        nothing, so their replay gives 0."""
        x = [0.0, 0.0]
        for cert in (check_tangential_condition(boxed_negative, x),
                     check_penalization_condition(boxed_negative, x, alpha=1.5, ell=ROOT2)):
            assert cert.status == VIOLATED
            assert replay_certificate(boxed_negative, x, cert) == cert.residual
            tampered = dataclasses.replace(cert, directions=-cert.directions)
            assert replay_certificate(boxed_negative, x, tampered) == 0.0


class TestQualification:
    def test_identity_fan_passes_with_slater(self, free_negative):
        problem = dataclasses.replace(free_negative, fan_override=Fan(np.eye(2)))
        report = qualification_check(problem, [0.0, 0.0])
        assert report.passed and report.margin == pytest.approx(1.0 / ROOT2, abs=1e-7)
        assert report.slater_applicable and report.slater_passed

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
        assert not report.slater_applicable
        assert any("not interior" in note for note in report.notes)

    def test_negated_scenario_passes_on_the_interior(self, free_negative):
        report = qualification_check(free_negative, [-1.0, -1.0])
        assert report.passed and report.margin == pytest.approx(1.0 / ROOT2, abs=1e-7)
        assert_allclose(report.witness, [-1.0, -1.0] / ROOT2, atol=1e-7)
        assert report.slater_passed
        assert report.slater_margin == pytest.approx(1.0 / ROOT2, abs=1e-7)


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
    """One certify or report derives the fan, each fan matrix's preimage
    and the fan cone's direction sample once, and nothing outlives the
    problem: every CLI invocation loads a fresh one and redoes the work."""

    @staticmethod
    def fan_cone_rows(problem, x):
        """Rows of (fan preimage cone of C) intersected with the tangent cone."""
        rows = Cone.halfspaces(problem.preimage_rows).rows
        tangent = contingent_cone(problem.region, x).rows
        return Cone.halfspaces(np.vstack([rows, tangent])).rows

    @staticmethod
    def spy(monkeypatch):
        calls = {"fan": 0, "preimage": [], "sampled": []}
        build_fan = rvopt.problem.fan_from_scenarios
        preimage = Cone.linear_preimage
        sample = rvopt.certificates.sampled_cone_directions

        def count_fan(smap):
            calls["fan"] += 1
            return build_fan(smap)

        def count_preimage(cone, mat):
            calls["preimage"].append(np.array(mat))
            return preimage(cone, mat)

        def count_sample(cone, *args, **kwargs):
            calls["sampled"].append(cone)
            return sample(cone, *args, **kwargs)

        monkeypatch.setattr(rvopt.problem, "fan_from_scenarios", count_fan)
        monkeypatch.setattr(Cone, "linear_preimage", count_preimage)
        monkeypatch.setattr(rvopt.certificates, "sampled_cone_directions", count_sample)
        return calls

    @staticmethod
    def assert_derived_once(calls, bundle, cone_rows):
        assert calls["fan"] == 1
        assert np.array_equal(np.array(calls["preimage"]), bundle)
        fan_cone = [cone for cone in calls["sampled"]
                    if cone.rows is not None and np.array_equal(cone.rows, cone_rows)]
        assert len(fan_cone) == 1

    def test_certify_derives_once_per_invocation(self, monkeypatch, tmp_path, capsys):
        path, x = str(tmp_path / "wide.json"), np.zeros(2)
        save_problem(synthetic_problem("halfspaces", 16), path)
        problem = load_problem(path)
        bundle = fan_from_scenarios(problem.scenarios).bundle
        cone_rows = self.fan_cone_rows(problem, x)
        assert bundle.shape[0] == 16 and cone_rows.shape[0] == 32
        calls = self.spy(monkeypatch)
        outputs = []
        for _ in range(2):
            code = cli_main(["certify", path, "--at", "0", "0"])
            outputs.append((code, capsys.readouterr().out))
            self.assert_derived_once(calls, bundle, cone_rows)
            assert len(calls["sampled"]) == 1
            calls.update(fan=0, preimage=[], sampled=[])
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith("qualification passed")

    def test_report_derives_once(self, monkeypatch):
        problem, x = load_problem(PROBLEMS_DIR / "e1.json"), np.array([0.5, 1.0])
        bundle = fan_from_scenarios(problem.scenarios).bundle
        cone_rows = self.fan_cone_rows(problem, x)
        problem = load_problem(PROBLEMS_DIR / "e1.json")
        calls = self.spy(monkeypatch)
        report = run_report(problem, x)
        self.assert_derived_once(calls, bundle, cone_rows)
        stages = {stage["name"]: stage["status"] for stage in report["stages"]}
        assert stages["tangential"] == stages["scalarized_fan"] == "holds"

    def test_memo_keeps_one_point(self, monkeypatch):
        """The fan cone's directions are memoized for the latest point only,
        so sweeping one problem over many points holds one entry."""
        problem = synthetic_problem("orthant", 4)
        calls = self.spy(monkeypatch)
        for x in ([0.0, 0.0], [0.1, 0.0], [0.0, 0.0]):
            check_tangential_condition(problem, x)
            scalarized_fan_certificate(problem, x)
            assert len(problem.fan_cones) == 1
        assert calls["fan"] == 1 and len(calls["preimage"]) == 4
        assert len(calls["sampled"]) == 3
