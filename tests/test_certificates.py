"""First-order certificates: directional, scalarized, multiplier, CQ."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.certificates
from rvopt.certificates import (HOLDS, INCONCLUSIVE, LP_INFEASIBLE, VIOLATED,
                                _direction_set,
                                check_penalization_condition,
                                check_tangential_condition, cone_generators,
                                convex_scalarized_certificate,
                                estimate_order_lipschitz,
                                multiplier_certificate, order_lipschitz_holds,
                                qualification_check, replay_certificate,
                                scalarized_fan_certificate)
from rvopt.cones import Cone
from rvopt.errors import PreconditionError, RepresentationError
from rvopt.firstorder import (AffineObjective, Fan, PolyhedralSet, contingent_cone,
                              sampled_cone_directions)
from rvopt.problem import Problem
from rvopt.scenarios import ScenarioMap, excess
from rvopt.simplex import INFEASIBLE, LinearProgram, feasibility

from conftest import merit_cases, negated_scenario

ROOT2 = np.sqrt(2.0)


def scalar_first_coordinate_problem():
    """min x1 over {x <= 0} with a one-dimensional ordering cone."""
    return Problem(objective=AffineObjective([[1.0, 0.0]], [0.0]),
                   ordering_cone=Cone.orthant(1),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.whole_space(2),
                   scenarios=negated_scenario())


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
                                            alpha=1.5, ell=ROOT2,
                                            upper_gradient=np.zeros(2))
        assert cert.status == VIOLATED
        assert_allclose(cert.witness, -np.ones(2) / ROOT2, atol=1e-9)
        assert cert.residual == pytest.approx(1.0 / ROOT2, abs=1e-9)

    def test_edge_point_holds(self, boxed_negative):
        cert = check_penalization_condition(boxed_negative, [-1.0, 0.0],
                                            alpha=1.5, ell=ROOT2,
                                            upper_gradient=np.zeros(2))
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
                                            ell=1.0, upper_gradient=np.zeros(2))
        assert cert.status == HOLDS
        assert "vacuous" in " ".join(cert.notes)

    def test_preconditions(self, free_negative):
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], alpha=1.0,
                                         ell=1.0, upper_gradient=np.zeros(2))
        with pytest.raises(PreconditionError):
            check_penalization_condition(free_negative, [0.0, 0.0], alpha=1.5,
                                         ell=-1.0, upper_gradient=np.zeros(2))


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


    @pytest.mark.parametrize("name, problem, x", merit_cases(),
                             ids=[case[0] for case in merit_cases()])
    def test_batched_merit_matches_the_scalar_loop(self, monkeypatch, name, problem, x):
        """One merit call over [x; x + fd_step * dirs] gives, bit for bit,
        the LP vectors, y* and residual of one scalar merit call per point."""
        seen = []
        solve = rvopt.certificates._dual_vector_lp

        def spy(prob, vectors, slack):
            seen.append(vectors)
            return solve(prob, vectors, slack)

        monkeypatch.setattr(rvopt.certificates, "_dual_vector_lp", spy)
        alpha, ell, fd_step = 1.5, ROOT2, 1e-6
        cert = convex_scalarized_certificate(problem, x, alpha, ell)
        phi = lambda z: excess(problem.scenarios.evaluate(z), problem.constraint_cone)
        x = np.asarray(x, dtype=float)
        base = phi(x)
        vectors = np.array([problem.objective.directional(x, v)
                            + ell / (alpha - 1.0) * ((phi(x + fd_step * v) - base) / fd_step)
                            * problem.direction for v in cert.directions])
        assert np.array_equal(seen[0], vectors)
        status, y = solve(problem, vectors, rvopt.certificates.LP_SLACK)
        if y is None:
            assert cert.status == LP_INFEASIBLE and cert.y_star is None
        else:
            assert np.array_equal(cert.y_star, y)
            assert cert.residual == float(max(0.0, np.max(-(vectors @ y), initial=0.0)))


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
        cert = multiplier_certificate(free_negative, [-1.0, -1.0])
        assert cert.status == LP_INFEASIBLE
        assert any("phase-one" in note for note in cert.notes)

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


class TestQualification:
    def test_identity_fan_passes_with_slater(self, free_negative):
        report = qualification_check(free_negative, [0.0, 0.0],
                                     fan=Fan(np.eye(2)))
        assert report.passed and report.margin == pytest.approx(1.0, abs=1e-7)
        assert report.slater_applicable and report.slater_passed

    def test_opposed_fan_fails(self, free_negative):
        report = qualification_check(free_negative, [0.0, 0.0],
                                     fan=Fan(np.array([np.eye(2), -np.eye(2)])))
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
        assert report.passed and report.margin == pytest.approx(1.0, abs=1e-7)
        assert_allclose(report.witness, [-1.0, -1.0], atol=1e-7)
        assert report.slater_passed
        assert report.slater_margin == pytest.approx(1.0, abs=1e-7)


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
