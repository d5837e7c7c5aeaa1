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

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.firstorder
import rvopt.reporting
from rvopt import (AffineObjective, Cone, PolyhedralSet, Problem, ScenarioMap,
                   run_report, save_problem)
from rvopt.certificates import (HOLDS, INCONCLUSIVE, LP_INFEASIBLE, VIOLATED,
                                Certificate, merit_is_flat, merit_slopes)
from rvopt.cli import main
from rvopt.firstorder import check_upper_subgradient, upper_subgradient_candidate
from rvopt.reporting import verdict
from rvopt.sampling import sphere_directions
from rvopt.simplex import OPTIMAL, LinearProgram, solve_lp

from conftest import (KINDS, SCENARIO_COUNTS, boundary_points, grid_cases,
                      merit_cases, synthetic_problem)



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
def outcomes(tmp_path_factory):
    """(source, label, weakly efficient, report exit code, certify exit
    code) over the grid and four synthetic points per instance."""
    tmp_path = tmp_path_factory.mktemp("verdict")
    rows = []
    for source, cases in (("grid", grid_cases()), ("synthetic", synthetic_cases(4))):
        for label, problem, x in cases:
            rows.append((source, label, exact_weakly_efficient(problem, x),
                         run_report(problem, x)["exit_code"],
                         certify_code(tmp_path, problem, x)))
    return rows


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
        """At the halfspace-C boundary points the scenario images miss C by
        up to 3e-10, within the projection tolerance, and a forward
        difference at step 1e-6 reads that miss as a slope error of up to
        3e-4.  Moving each image onto the facets it violates makes the data
        exact, and the merit function's difference quotient at step 1e-4
        then gives the slopes of the point as it is."""
        dirs = sphere_directions(2, 64, seed=0)
        rows = Cone.halfspaces([[1.0, 0.3], [-0.2, 1.0]]).facets()
        sloped = 0
        for w in SCENARIO_COUNTS:
            problem = synthetic_problem("halfspaces", w)
            smap = problem.scenarios
            for x in boundary_points(problem, w):
                moved = -np.minimum(smap.evaluate(x).points @ rows.T, 0.0) @ rows
                exact = dataclasses.replace(
                    problem, scenarios=ScenarioMap(smap.mats, smap.offsets + moved))
                quotient = (exact.merit_many(x + 1e-4 * dirs) - exact.merit(x)) / 1e-4
                slopes = merit_slopes(problem, x, dirs)
                assert_allclose(quotient, slopes, rtol=0.0, atol=1e-10)
                sloped += np.max(slopes) > 0.0
        assert sloped >= 15


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
