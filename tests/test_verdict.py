"""The verdict rule shared by certify and report, the exact flatness rule
of the merit function, and a soundness harness against an exact oracle.

For affine objectives and polyhedral data one LP decides weak efficiency:
maximize t subject to R_K J (z - x) <= -t, z in Solv, |z - x|_inf <= 1 and
t <= 1, with R_K the facet rows of K; x is weakly efficient iff t* <= 0.
The LP runs on the dense simplex of ``rvopt.simplex``, which no certificate
uses, and is held against ``run_report`` and ``rvopt certify`` on the
feasible points of the e1-e3 7x7 grid on [-1, 2]^2 and on seeded synthetic
instances of every constraint-cone kind.
"""

import contextlib
import dataclasses
import io
import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.firstorder
import rvopt.reporting
from rvopt import (AffineObjective, Cone, PolyhedralSet, Problem, ScenarioMap,
                   render_report, run_report, save_problem, verify_error_bound)
from rvopt.certificates import (HOLDS, INCONCLUSIVE, LP_INFEASIBLE, VIOLATED,
                                Certificate, check_penalization_condition,
                                check_tangential_condition, convex_scalarized_certificate,
                                merit_is_flat, merit_slopes, qualification_check,
                                replay_certificate, slater_check)
from rvopt.cli import main
from rvopt.errors import PreconditionError
from rvopt.firstorder import check_upper_subgradient, upper_subgradient_candidate
from rvopt.oracle import grid_scan
from rvopt.problem import ACTIVE_TOL
from rvopt.regularity import local_error_bound
from rvopt.reporting import verdict
from rvopt.sampling import ball_points, sphere_directions
from rvopt.simplex import OPTIMAL, LinearProgram, solve_lp

from conftest import (KINDS, SCENARIO_COUNTS, boundary_points, grid_cases,
                      merit_cases, synthetic_problem, tangent_rows)



# ----- the exact oracle ----------------------------------------------------

def solv_rows(problem):
    """(G, h) with Solv = {z : G z <= h}: the facet rows of C at every
    scenario image, then the region's rows."""
    rc = problem.constraint_cone.facets()
    g = [-(rc @ a) for a in problem.scenarios.mats]
    h = [rc @ b for b in problem.scenarios.offsets]
    region = problem.region
    if region.kind == "box":
        n = region.dim
        for sign, bound in ((1.0, region.hi), (-1.0, region.lo)):
            keep = np.isfinite(bound)
            g.append(sign * np.eye(n)[keep])
            h.append(sign * bound[keep])
    else:
        g.append(region.a)
        h.append(region.b)
    return np.vstack(g), np.concatenate(h)


def _free_lp(cost, g, h):
    res = solve_lp(LinearProgram(c=cost, a_ub=g, b_ub=h,
                                 nonneg=np.zeros(cost.size, dtype=bool)))
    assert res.status == OPTIMAL, res.status
    return res


def exact_weakly_efficient(problem, x) -> bool:
    """max t over (u, t) = (z - x, t) subject to R_K J u + t <= 0,
    x + u in Solv, |u|_inf <= 1 and t <= 1; weakly efficient iff t* <= 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    g_solv, h_solv = solv_rows(problem)
    order = problem.ordering_cone.facets() @ problem.objective.jacobian(x)
    box = np.vstack([np.eye(n), -np.eye(n)])
    g = np.vstack([np.hstack([order, np.ones((order.shape[0], 1))]),
                   np.hstack([g_solv, np.zeros((g_solv.shape[0], 1))]),
                   np.hstack([box, np.zeros((2 * n, 1))]),
                   np.append(np.zeros(n), 1.0)])
    h = np.concatenate([np.zeros(order.shape[0]), h_solv - g_solv @ x,
                        np.ones(2 * n), [1.0]])
    cost = np.append(np.zeros(n), -1.0)
    return -_free_lp(cost, g, h).value <= 1e-9


# ----- the sample ----------------------------------------------------------

def weighted_minimizer(problem, y):
    """A vertex of Solv minimizing y . J z: weakly efficient for y >= 0."""
    g, h = solv_rows(problem)
    return _free_lp(problem.objective.jacobian(np.zeros(2)).T @ y, g, h).x


def synthetic_cases(per_instance=None):
    """(label, problem, x) on every instance: a random interior point, a
    weighted-sum minimizer, then boundary points found by line search."""
    cases = []
    for kind in KINDS:
        for w in SCENARIO_COUNTS:
            problem = synthetic_problem(kind, w)
            rng = np.random.default_rng([w, 7])
            points = [z for z in rng.uniform(-1.0, 1.0, (20, 2))
                      if problem.feasible(z)][:1]
            points.append(weighted_minimizer(problem, rng.uniform(0.1, 1.0, 2)))
            points += boundary_points(problem, w)
            for i, x in enumerate(points[:per_instance]):
                assert problem.feasible(x)
                cases.append((f"{kind}-w{w}-{i}", problem, x))
    return cases


def certify_code(tmp_path, problem, x):
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    argv = ["certify", str(path), "--at"] + [np.format_float_positional(v, trim="-") for v in x]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def harness_reports():
    """(source, label, problem, x, report) over the grid and four synthetic
    points per instance."""
    return [(source, label, problem, x, run_report(problem, x))
            for source, cases in (("grid", grid_cases()), ("synthetic", synthetic_cases(4)))
            for label, problem, x in cases]


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory, harness_reports):
    """(source, label, weakly efficient, report exit code, certify exit
    code) for every point of ``harness_reports``."""
    tmp_path = tmp_path_factory.mktemp("verdict")
    return [(source, label, exact_weakly_efficient(problem, x), report["exit_code"],
             certify_code(tmp_path, problem, x))
            for source, label, problem, x, report in harness_reports]


@pytest.fixture(scope="module")
def error_bounds():
    """(label, problem, x, local_error_bound) at the 139 harness points: the
    grid and every synthetic point."""
    return [(label, problem, x, local_error_bound(problem, x))
            for label, problem, x in grid_cases() + synthetic_cases()]


def polygon_distances(points, g, h):
    """Distance from each row z of ``points`` to the polygon {y : g y <= h}
    in the plane: its nearest point is z, the projection of z onto the line
    of a row, or the meeting point of two rows' lines, whichever feasible
    one is nearest."""
    vertices = [np.linalg.solve(g[[i, j]], h[[i, j]])
                for i, j in itertools.combinations(range(h.size), 2)
                if abs(np.linalg.det(g[[i, j]])) > 1e-12]
    feet = points[:, None, :] - ((points @ g.T - h) / np.sum(g * g, axis=1))[:, :, None] * g
    candidates = np.concatenate([points[:, None, :], feet,
                                 np.broadcast_to(vertices, (len(points), len(vertices), 2))],
                                axis=1)
    gaps = np.linalg.norm(candidates - points[:, None, :], axis=2)
    gaps[np.any(candidates @ g.T > h + 1e-12, axis=2)] = np.inf
    return gaps.min(axis=1)


# ----- tests ---------------------------------------------------------------

def cert(kind, status):
    return Certificate(kind=kind, status=status)


MULT, TANG, PEN = "multiplier", "tangential", "penalization"
FAN, CONVEX = "scalarized_fan", "scalarized_convex"
KIND = {MULT: "multiplier", TANG: "tangential", PEN: "penalization",
        FAN: "scalarized-fan", CONVEX: "scalarized-convex"}


class TestVerdict:
    """One row per rule; the first two rows are where the former certify
    and report rules disagreed."""

    @pytest.mark.parametrize("failed, cq, witness, errored, summary, code, downgraded", [
        # certify gave 3, report 2: an infeasible scalarization refutes
        ({FAN: LP_INFEASIBLE}, True, False, (),
         "refuted: scalarized LP infeasible", 2, []),
        # certify gave 3, report 0: a failed qualification downgrades
        ({MULT: LP_INFEASIBLE}, False, False, (),
         "inconclusive: multiplier downgraded: qualification check failed", 3, [MULT]),
        ({}, True, False, (), "consistent with necessary conditions", 0, []),
        ({}, None, False, (), "consistent with necessary conditions", 0, []),
        ({TANG: VIOLATED}, False, False, (), "refuted: tangential condition violated", 2, []),
        ({PEN: VIOLATED}, True, False, (), "refuted: penalization condition violated", 2, []),
        ({CONVEX: LP_INFEASIBLE}, None, False, (), "refuted: scalarized LP infeasible", 2, []),
        ({MULT: LP_INFEASIBLE, TANG: VIOLATED}, True, True, (),
         "refuted: multiplier LP infeasible; dominating witness found", 2, []),
        ({MULT: LP_INFEASIBLE, TANG: VIOLATED}, False, False, (),
         "refuted: tangential condition violated", 2, [MULT]),
        ({MULT: LP_INFEASIBLE, FAN: LP_INFEASIBLE}, False, True, (),
         "refuted: dominating witness found", 2, [MULT, FAN]),
        ({TANG: INCONCLUSIVE}, True, False, (),
         "inconclusive: some certificates were inconclusive", 3, []),
        ({}, True, False, ("oracle",), "inconclusive: stage errors in oracle", 3, []),
        ({CONVEX: LP_INFEASIBLE, TANG: INCONCLUSIVE}, False, False, ("error_bound",),
         "inconclusive: stage errors in error_bound; scalarized_convex downgraded: "
         "qualification check failed; some certificates were inconclusive", 3, [CONVEX]),
    ])
    def test_table(self, failed, cq, witness, errored, summary, code, downgraded):
        certs = {name: cert(KIND[name], failed.get(name, HOLDS))
                 for name in (PEN, TANG, FAN, CONVEX, MULT)}
        assert verdict(certs, cq, witness, errored) == (summary, code, downgraded)


class TestMeritIsFlat:
    def test_agrees_with_the_sampled_check_on_the_grid(self):
        """The sampled upper-subgradient check (eps 1e-6, radius 0.25, seed
        0) of the finite-difference candidate passes exactly where the rule
        holds."""
        cases = grid_cases()
        assert len(cases) == 49
        for label, problem, x in cases:
            candidate = upper_subgradient_candidate(problem.merit_many, x)
            check = check_upper_subgradient(problem.merit_many, x, candidate,
                                            eps=1e-6, radius=0.25, seed=0)
            assert merit_is_flat(problem, x) == check.passed, label

    def test_rank_deficient_scenario_on_the_boundary_is_flat(self):
        """A x + b = (0, 1) at x = 0 sits on the boundary of the orthant,
        but the active row e1 annihilates A, so merit is 0 nearby."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2),
                          constraint_cone=Cone.orthant(2),
                          region=PolyhedralSet.whole_space(2),
                          scenarios=ScenarioMap([[[0.0, 0.0], [0.0, 1.0]]], [[0.0, 1.0]]))
        assert merit_is_flat(problem, [0.0, 0.0])
        assert np.max(problem.merit_many(sphere_directions(2, 64, seed=0))) == 0.0

    def test_agrees_with_a_small_step_slope_on_synthetic_points(self):
        """Flat iff max_d merit(x + 1e-6 d) / 1e-6 <= 1e-6 over unit d."""
        dirs = sphere_directions(2, 64, seed=0)
        flat = []
        for label, problem, x in synthetic_cases():
            slope = float(np.max(problem.merit_many(x + 1e-6 * dirs))) / 1e-6
            assert merit_is_flat(problem, x) == (slope <= 1e-6), (label, slope)
            flat.append(slope <= 1e-6)
        assert 0 < sum(flat) < len(flat)


class TestMeritSlopes:
    def test_zero_exactly_where_flat(self):
        """Flatness and slopes are one decision: over 64 unit directions
        every slope is exactly 0 where merit_is_flat holds, and some slope
        is positive everywhere else."""
        dirs = sphere_directions(2, 64, seed=0)
        flat = 0
        for label, problem, x in grid_cases() + synthetic_cases():
            slopes = merit_slopes(problem, x, dirs)
            if merit_is_flat(problem, x):
                assert np.all(slopes == 0.0), label
                flat += 1
            else:
                assert np.max(slopes) > 0.0, label
        assert 0 < flat < 139

    def test_difference_quotients_on_exact_data(self):
        """At the halfspace-C boundary points the scenario images lie on
        facets of C up to rounding.  Moving each image onto the facets it
        violates makes the data exact, and the merit function's difference
        quotient at step 1e-4 then gives the slopes of the point as it is."""
        dirs = sphere_directions(2, 64, seed=0)
        rows = Cone.halfspaces([[1.0, 0.3], [-0.2, 1.0]]).facets()
        sloped = 0
        for w in SCENARIO_COUNTS:
            problem = synthetic_problem("halfspaces", w)
            smap = problem.scenarios
            for x in boundary_points(problem, w):
                moved = -np.minimum(smap.evaluate(x) @ rows.T, 0.0) @ rows
                exact = dataclasses.replace(
                    problem, scenarios=ScenarioMap(smap.mats, smap.offsets + moved))
                quotient = (exact.merit_many(x + 1e-4 * dirs) - exact.merit(x)) / 1e-4
                slopes = merit_slopes(problem, x, dirs)
                assert_allclose(quotient, slopes, rtol=0.0, atol=1e-10)
                sloped += np.max(slopes) > 0.0
        assert sloped >= 15


def unit_slack(problem, x):
    """The largest slack G_i x - h_i over the unit rows of this module's
    rows of Solv."""
    g, h = solv_rows(problem)
    norms = np.linalg.norm(g, axis=1)
    return float(np.max((g @ x - h) / norms))


class TestOneMembershipRule:
    """Problem.feasible is G z <= h + tol on the unit rows of Solv: a slack
    per row, not a merit distance."""

    def test_a_row_miss_below_the_projection_tolerance_is_infeasible(self):
        """At a halfspace-C boundary point moved 3e-10 out along the unit
        normal of its binding row the NNLS merit still reads 0, but the
        point misses Solv."""
        problem = synthetic_problem("halfspaces", 2)
        g, h = solv_rows(problem)
        norms = np.linalg.norm(g, axis=1)
        x = boundary_points(problem, 2)[2]
        binding = np.argmax((g @ x - h) / norms)
        z = x + 3e-10 * g[binding] / norms[binding]
        assert unit_slack(problem, z) == pytest.approx(3e-10, rel=1e-3)
        assert problem.merit(z) == 0.0
        assert not problem.feasible(z, tol=0.0)
        assert problem.feasible(z, tol=1e-9)

    @pytest.mark.parametrize("w", SCENARIO_COUNTS)
    def test_the_ray_origin_is_feasible(self, w):
        """The origin lies inside Solv for ray C, where the merit reads
        rounding of order 1e-16."""
        problem = synthetic_problem("rays", w)
        assert unit_slack(problem, np.zeros(2)) < -0.05
        assert problem.feasible(np.zeros(2), tol=0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_boundary_points_lie_on_the_boundary(self, kind):
        """The line-search boundary points of each instance are distinct,
        accepted at tol 0, and on a row of Solv: the largest unit-row slack,
        in this module's arithmetic, is 0 up to rounding."""
        for w in SCENARIO_COUNTS:
            problem = synthetic_problem(kind, w)
            points = np.array(boundary_points(problem, w))
            assert np.unique(points, axis=0).shape[0] == len(points), (kind, w)
            for x in points:
                assert problem.feasible(x, tol=0.0), (kind, w, x)
                assert -1e-12 <= unit_slack(problem, x) <= 1e-15, (kind, w, x)

    @pytest.mark.parametrize("offset, tol", [(-5e-11, 0.0), (-1.0, 1e-9)])
    def test_a_violated_fixed_row_empties_solv(self, offset, tol):
        """The second image coordinate is the constant ``offset`` < 0, so the
        C row e_2 does not move and fails m_j b_w >= -tol everywhere."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2),
                          constraint_cone=Cone.halfspaces([[1.0, 0.0], [0.0, 1.0]]),
                          region=PolyhedralSet.box([-1.0, -1.0], [1.0, 1.0]),
                          scenarios=ScenarioMap([[[1.0, 0.0], [0.0, 0.0]]], [[0.0, offset]]))
        assert problem.solv_rows[2] == 1
        assert not problem.feasible([0.5, 0.0], tol=tol)
        scan = grid_scan(problem, [-1.0, -1.0], [1.0, 1.0], 5, feas_tol=tol)
        assert not (scan.feasible.any() or scan.weak_efficient.any() or scan.efficient.any())
        assert problem.feasible([0.5, 0.0], tol=-offset)


class TestOneActivityRule:
    """Problem.activity decides which rows of Solv are active at x for the
    error bound, the merit slopes and every certificate."""

    def test_agrees_with_the_rules_it_replaced(self):
        """At the 139 harness points the reading equals, bit for bit, the C
        activity m_j . (A_w x + b_w) <= ACTIVE_TOL of the evaluated images,
        the slope mask built from it with the moving test max|m_j A_w| >
        ACTIVE_TOL, and the tangent rows of conftest.tangent_rows, zero sign
        bits included."""
        cases = grid_cases() + synthetic_cases()
        assert len(cases) == 139
        for label, problem, x in cases:
            reading = problem.activity(x)
            rows, smap = problem.constraint_cone.facets(), problem.scenarios
            active = smap.evaluate(x) @ rows.T <= ACTIVE_TOL
            moving = np.any(np.abs(np.matmul(rows, smap.mats)) > ACTIVE_TOL, axis=2)
            count = problem.solv_rows[2]
            assert moving.all() and count == moving.size, label
            assert np.array_equal(reading.solv[:count], active.ravel()), label
            assert np.array_equal(reading.slopes,
                                  active & np.any(active & moving, axis=1)[:, None]), label
            tangent = tangent_rows(problem.region, x)
            assert reading.tangent.shape == tangent.shape, label
            assert reading.tangent.tobytes() == tangent.tobytes(), label

    def test_a_barely_moving_row_has_a_slope(self):
        """A x + b = (0, 1) at x = 0 with A = diag(1e-9, 1): the one active
        facet product m_1 A = (1e-9, 0) is below ACTIVE_TOL but moves, so
        merit grows as 1e-9 t along -e1.  The merit slopes and the error
        bound count the same row."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2),
                          constraint_cone=Cone.orthant(2),
                          region=PolyhedralSet.whole_space(2),
                          scenarios=ScenarioMap([[[1e-9, 0.0], [0.0, 1.0]]], [[0.0, 1.0]]))
        x = np.zeros(2)
        assert problem.merit([-1.0, 0.0]) == pytest.approx(1e-9, rel=1e-12)
        assert not merit_is_flat(problem, x)
        assert merit_slopes(problem, x, [[-1.0, 0.0]])[0] == pytest.approx(1e-9, rel=1e-12)
        bound = local_error_bound(problem, x)
        assert bound.established and bound.active_rows == (0,)
        assert bound.sigma == pytest.approx(1e-9, rel=1e-12)

    def test_certificates_refuse_points_outside_the_region(self):
        """Every certificate reading the tangent rows raises outside the
        region, where Problem.activity reads none."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2), constraint_cone=Cone.orthant(2),
                          region=PolyhedralSet.box([-1.0, -1.0], [1.0, 1.0]),
                          scenarios=ScenarioMap([np.eye(2)], [[2.0, 2.0]]))
        cert = convex_scalarized_certificate(problem, [1.0, 0.0], sigma=1.0, ell=1.0)
        outside = [1.0 + 1e-6, 0.0]
        for check in (lambda: check_tangential_condition(problem, outside),
                      lambda: check_penalization_condition(problem, outside, 1.0, 1.0),
                      lambda: convex_scalarized_certificate(problem, outside, 1.0, 1.0),
                      lambda: qualification_check(problem, outside),
                      lambda: slater_check(problem, outside),
                      lambda: replay_certificate(problem, outside, cert)):
            with pytest.raises(PreconditionError, match="non-member point"):
                check()


class TestSoundness:
    def test_report_never_refutes_a_weakly_efficient_point(self, outcomes):
        refuted = [label for _, label, weak, report, _ in outcomes if weak and report == 2]
        assert refuted == []
        weak = {source: sum(row[2] for row in outcomes if row[0] == source)
                for source in ("grid", "synthetic")}
        assert weak["grid"] == 21 and weak["synthetic"] > 0

    def test_certify_never_refutes_a_weakly_efficient_point(self, outcomes):
        assert [label for _, label, weak, _, code in outcomes if weak and code == 2] == []

    def test_certify_refutations_are_report_refutations(self, outcomes):
        assert [label for *_, report, code in outcomes
                if code == 2 and report != 2] == []

    def test_report_refutes_every_dominated_grid_point(self, outcomes):
        dominated = [row for row in outcomes if row[0] == "grid" and not row[2]]
        assert len(dominated) == 28
        assert [label for _, label, _, report, _ in dominated if report != 2] == []

    def test_penalization_stages_never_fail_at_a_weakly_efficient_point(self, outcomes,
                                                                          harness_reports):
        """The penalization and scalarized-convex stages run wherever the
        error bound is established, and at a weakly efficient point neither
        reads violated or lp-infeasible, downgraded or not."""
        ran, failed = 0, []
        for (_, label, weak, *_), (*_, report) in zip(outcomes, harness_reports):
            for stage in report["stages"]:
                if stage["name"] in ("penalization", "scalarized_convex") \
                        and stage["status"] != "skipped":
                    ran += 1
                    if weak and stage["status"] in (VIOLATED, LP_INFEASIBLE):
                        failed.append((label, stage["name"]))
        assert failed == [] and ran > 0

    def test_report_never_calls_a_dominated_point_consistent(self, outcomes):
        """Off the grid a dominating sliver can be thinner than the spacing
        of the report's lattice oracle, so a dominated point may be left
        inconclusive, but never consistent."""
        assert [label for _, label, weak, report, _ in outcomes
                if not weak and report == 0] == []


class TestNoFiniteDifferenceUpperGradient:
    def test_reports_run_without_it(self, monkeypatch):
        """With both finite-difference functions made to raise, no report
        stage errors: the penalization stage uses the exact rule."""
        def refuse(*args, **kwargs):
            raise AssertionError("finite-difference upper gradient reached")

        for module in (rvopt.firstorder, rvopt.reporting):
            monkeypatch.setattr(module, "upper_subgradient_candidate", refuse)
            monkeypatch.setattr(module, "check_upper_subgradient", refuse)
        for name, problem, x in merit_cases():
            report = run_report(problem, x)
            errors = [s["name"] for s in report["stages"] if s["status"] == "error"]
            assert errors == [], name


class TestReportDocuments:
    def test_strict_json_and_no_stage_error(self, harness_reports):
        """No NaN or Infinity reaches a rendered report: an established
        error bound with no active constraint row records sigma null."""
        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        for _, label, _, _, report in harness_reports:
            parsed = json.loads(render_report(report), parse_constant=refuse)
            assert [s["name"] for s in parsed["stages"] if s["status"] == "error"] == [], label
        stages = [{s["name"]: s for s in report["stages"]}
                  for *_, report in harness_reports]
        assert {s["error_bound"]["sigma"] is None for s in stages} == {True, False}

    def test_unbounded_margin_is_null(self):
        """With C = {z : z_1 >= 0}, one zero scenario matrix and b = (1, 0)
        at x = 0, the qualification program has no rows and its margin is
        unbounded: the report writes it null and stays strict JSON."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2),
                          constraint_cone=Cone.halfspaces([[1.0, 0.0]]),
                          region=PolyhedralSet.whole_space(2),
                          scenarios=ScenarioMap(np.zeros((1, 2, 2)), [[1.0, 0.0]]))
        with pytest.warns(UserWarning, match="preimage dropped zero rows"):
            assert qualification_check(problem, np.zeros(2)).margin == np.inf

        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        parsed = json.loads(render_report(run_report(problem, np.zeros(2))),
                            parse_constant=refuse)
        stages = {s["name"]: s for s in parsed["stages"]}
        assert stages["merit"]["feasible"] is True      # Solv has no rows
        stage = stages["qualification"]
        assert stage["status"] == "ok"
        assert stage["report"]["margin"] is None
        assert stage["report"]["notes"] == ["no active rows; condition vacuous"]

    def test_render_is_json_dumps(self, harness_reports):
        """The writer's bytes are json.dumps(indent=2, sort_keys=True) plus a
        newline on every harness report."""
        for _, label, _, _, report in harness_reports:
            assert render_report(report) == json.dumps(report, indent=2, sort_keys=True) \
                + "\n", label

    def test_render_edge_values(self):
        document = {
            "floats": [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1],
            "ints": [10 ** 40, -3, True, 1, False, 0, None],
            "text": ["caf\u00e9 \U0001f600", "\x00\x1f\x7f\"\\/\n\t\u2028", ""],
            "\u00fc\x01": {"b": {}, "a": [[], {}, [{}], {"z": []}]},
            "empty": {}, "none": [], "tuple": (1, (2.5, "x")),
        }
        assert render_report(document) \
            == json.dumps(document, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("document", [{1: 0}, {"a": [{None: 0}]}, {"a": {2.5: 0}}])
    def test_render_refuses_keys_that_are_not_str(self, document):
        with pytest.raises(TypeError):
            render_report(document)


class TestLocalErrorBound:
    """The exact local modulus sigma held against the lattice check, against
    exact distances to Solv, and against a hand-derived value."""

    def test_established_everywhere(self, error_bounds):
        assert all(bound.established for *_, bound in error_bounds)
        vacuous = [bound.sigma is None for *_, bound in error_bounds]
        assert len(vacuous) == 139 and 0 < sum(vacuous) < 139

    def test_lattice_check_passes(self, error_bounds):
        """verify_error_bound at sigma on min(0.5, certified radius), 41 per
        axis, at every point with an active constraint row."""
        checked = 0
        for label, problem, x, bound in error_bounds:
            if bound.sigma is None:
                continue
            radius = min(0.5, bound.radius)
            report = verify_error_bound(problem.scenarios, problem.constraint_cone,
                                        problem.region, x, bound.sigma, radius, resolution=41)
            assert report.passed, (label, bound, report.max_violation)
            checked += 1
        assert checked == 88

    def test_exact_distances_on_the_certified_ball(self, error_bounds):
        """dist(z, Solv) <= merit(z) / sigma at 32 sampled region points z
        within the certified radius (1 where it is unbounded), the distance
        taken to this module's own rows of Solv.  With no active constraint
        row z lies in Solv."""
        for label, problem, x, bound in error_bounds:
            points = ball_points(x, min(1.0, bound.radius or 1.0), 32, seed=1)
            points = points[problem.region.contains_many(points, tol=0.0)]
            dist, merit = polygon_distances(points, *solv_rows(problem)), problem.merit_many(points)
            if bound.sigma is None:     # merit reads 0 up to projection rounding
                assert np.all(merit <= 1e-12) and np.all(dist <= 1e-12), label
            else:
                assert np.all(dist <= merit / bound.sigma + 1e-12), label

    def test_two_active_rows_by_hand(self, error_bounds):
        """At halfspaces-w1-1 only the two constraint rows G_0, G_1 are
        active, so sigma is the distance from 0 to the segment [G_0, G_1]."""
        (problem, x, bound), = [case[1:] for case in error_bounds
                                if case[0] == "halfspaces-w1-1"]
        g, h = solv_rows(problem)
        assert np.flatnonzero(h - g @ x <= 1e-7).tolist() == [0, 1]
        d = g[0] - g[1]
        t = np.clip(-(g[1] @ d) / (d @ d), 0.0, 1.0)
        assert bound.sigma == pytest.approx(np.linalg.norm(g[1] + t * d), abs=1e-12)
        assert bound.sigma == pytest.approx(0.79331, abs=1e-5)
