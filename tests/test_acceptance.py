"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line so the run
reads as a checklist.  Expected numbers come from independent constructions:
lattice oracles, by-construction LP optima, members certified by generator
combinations, and hand arithmetic on the shipped instances.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rvopt import (
    AffineObjective,
    Cone,
    PolyhedralSet,
    Problem,
    ScenarioMap,
    check_tangential_condition,
    estimate_increase_bound,
    estimate_order_lipschitz,
    fan_from_scenarios,
    grid_scan,
    load_problem,
    multiplier_certificate,
    problem_from_document,
    problem_to_document,
    qualification_check,
    refute_efficiency,
    verify_error_bound,
)
from rvopt.cli import main as cli_main
from rvopt.docio import load_document
from rvopt.cones import _nnls
from rvopt.simplex import OPTIMAL, LinearProgram, solve_lp

from setvalued import (check_outer_prederivative, check_penalization_transfer, hausdorff,
                       image_vertices, lipschitz_bound, polytope_distance)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

# values shared between criteria (the transfer test reuses the modulus
# certified by the regularity chain)
_shared = {}


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _announce(number, title):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {number}: {title}")
            raise
        with capsys.disabled():
            print(f"PASS criterion {number}: {title}")

    return _announce


def exact_members(cone, count, rng):
    """Cone members certified by construction rather than by projection."""
    if cone.kind == "orthant":
        return np.abs(rng.standard_normal((count, cone.dim)))
    if cone.kind == "rays":
        if cone.gens.shape[0] == 0:
            return np.zeros((1, cone.dim))
        weights = np.abs(rng.standard_normal((count, cone.gens.shape[0])))
        return weights @ cone.gens
    if cone.rows.shape[0] == 0:
        return rng.standard_normal((count, cone.dim))
    out = [np.zeros(cone.dim)]
    for z in rng.standard_normal((400 * count, cone.dim)):
        if float(np.min(cone.rows @ z)) >= 0.0:
            out.append(z)
            if len(out) > count:
                break
    return np.array(out)


def certified_lp(rng, n, m):
    """LP with a known optimum built from a complementary primal-dual pair."""
    a = rng.standard_normal((m, n))
    x_star = np.where(rng.random(n) < 0.6, rng.random(n) + 0.1, 0.0)
    y_star = np.where(rng.random(m) < 0.6, rng.random(m) + 0.1, 0.0)
    slack = np.where(y_star > 0, 0.0, rng.random(m) + 0.1)
    s = np.where(x_star > 0, 0.0, rng.random(n) + 0.1)
    lp = LinearProgram(c=s - a.T @ y_star, a_ub=a, b_ub=a @ x_star + slack)
    return lp, float(lp.c @ x_star)


def increase_sigma():
    if "sigma" not in _shared:
        problem = load_problem(PROBLEMS / "e1.json")
        alpha = estimate_increase_bound(problem.scenarios,
                                        problem.constraint_cone,
                                        problem.region,
                                        (0.25, 1.0), 0.5, seed=0)
        _shared["alpha"] = alpha
        _shared["sigma"] = alpha - 1.0
    return _shared["sigma"]


def free_region_variant(problem):
    span = np.full(problem.region.dim, np.inf)
    return Problem(objective=problem.objective,
                   ordering_cone=problem.ordering_cone,
                   constraint_cone=problem.constraint_cone,
                   region=PolyhedralSet.box(-span, span),
                   scenarios=problem.scenarios)


def test_criterion_01_cone_kernel(announce):
    with announce(1, "cone projections, duality pairing, bipolarity"):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        checked = 0
        for dim in (2, 3, 4, 5):
            for cone in (Cone.orthant(dim),
                         Cone.halfspaces(rng.standard_normal((dim + 1, dim))),
                         Cone.rays(rng.standard_normal((dim, dim)))):
                members = exact_members(cone, 40, rng)
                dual = cone.negative_dual()
                dual_members = exact_members(dual, 40, rng)
                if members.size and dual_members.size:
                    assert float(np.max(members @ dual_members.T)) <= 1e-9
                bipolar = dual.negative_dual()
                for z in rng.standard_normal((84, dim)) * 2.0:
                    proj = cone.project(z)
                    gap = float(np.linalg.norm(proj - z))
                    best = float(np.min(
                        np.linalg.norm(members - z[None, :], axis=1)))
                    assert gap <= best + 1e-7
                    assert np.linalg.norm(cone.project(proj) - proj) <= 1e-9
                    assert abs(cone.distance(z) - bipolar.distance(z)) <= 1e-7
                    checked += 1
        assert checked >= 1000
        assert time.perf_counter() - start < 10.0


def nnls_system(a, b):
    """The NNLS answer to A c = b, c >= 0: c and the residual r = b - A c."""
    coeffs = _nnls(a.T, b[None])[0]
    return coeffs, b - a @ coeffs


def test_criterion_02_lp_kernel(announce):
    with announce(2, "simplex and NNLS kernels against constructed optima"):
        start = time.perf_counter()
        hand = solve_lp(LinearProgram(c=[-1.0, -1.0],
                                      a_ub=[[1.0, 2.0], [3.0, 1.0]],
                                      b_ub=[4.0, 6.0]))
        assert hand.status == OPTIMAL
        np.testing.assert_allclose(hand.x, [1.6, 1.2], atol=1e-9)
        assert hand.value == pytest.approx(-2.8, abs=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(100):
            lp, target = certified_lp(rng, int(rng.integers(2, 7)),
                                      int(rng.integers(2, 7)))
            res = solve_lp(lp)
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(target, abs=1e-8)
            # [a I] (x, s) = b_ub holds at the constructed optimum, so the
            # NNLS residual vanishes; adding c.x + t = target - 1 with t >= 0
            # asks for a value below the optimum, so NNLS must return a
            # Farkas vector r with A^T r <= 0 < b . r.
            m, n = lp.a_ub.shape
            feasible = np.hstack([lp.a_ub, np.eye(m)])
            _, r = nnls_system(feasible, lp.b_ub)
            assert np.max(np.abs(r)) <= 1e-9
            below = np.vstack([np.hstack([feasible, np.zeros((m, 1))]),
                               np.concatenate([lp.c, np.zeros(m), [1.0]])])
            rhs = np.concatenate([lp.b_ub, [target - 1.0]])
            _, r = nnls_system(below, rhs)
            assert np.max(np.abs(r)) > 1e-8
            assert np.max(below.T @ r) <= 1e-9
            assert rhs @ r > 0.0
        assert time.perf_counter() - start < 5.0


def test_criterion_03_merit_and_feasibility(announce):
    with announce(3, "merit values and the feasible-set grid"):
        problem = load_problem(PROBLEMS / "e1.json")
        sc, cone = problem.scenarios, problem.constraint_cone
        assert sc.merit(cone, [1.0, 1.0]) == 0.0
        assert sc.merit(cone, [0.25, 1.0]) == pytest.approx(0.25, abs=1e-12)
        assert sc.merit(cone, [0.0, -1.0]) \
            == pytest.approx(np.sqrt(1.25), abs=1e-12)
        axis = np.linspace(-1.0, 2.0, 201)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([x1.ravel(), x2.ravel()])
        zero_set = sc.merit_many(cone, pts) <= 1e-9
        target = (pts[:, 0] >= 0.5) & (pts[:, 1] >= 0.0)
        assert np.array_equal(zero_set, target)


def test_criterion_04_merit_convexity(announce):
    with announce(4, "merit midpoint convexity on random scenario maps"):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            w = int(rng.integers(1, 4))
            sc = ScenarioMap(rng.standard_normal((w, m, n)),
                             rng.standard_normal((w, m)))
            cone = Cone.orthant(m)
            xs = rng.standard_normal((10_000, n)) * 2.0
            ys = rng.standard_normal((10_000, n)) * 2.0
            gap = sc.merit_many(cone, 0.5 * (xs + ys)) \
                - 0.5 * (sc.merit_many(cone, xs) + sc.merit_many(cone, ys))
            assert float(gap.max()) <= 1e-9


def test_criterion_05_regularity_chain(announce):
    with announce(5, "increase estimate feeding a verified error bound"):
        start = time.perf_counter()
        sigma = increase_sigma()
        assert _shared["alpha"] >= 1.3
        problem = load_problem(PROBLEMS / "e1.json")
        report = verify_error_bound(problem.scenarios,
                                    problem.constraint_cone, problem.region,
                                    (0.25, 1.0), sigma, 0.5, resolution=101)
        assert report.passed
        assert report.witness is None
        assert time.perf_counter() - start < 60.0


def test_criterion_06_multiplier_soundness_sweep(announce):
    with announce(6, "multiplier sweep over the box lattice"):
        start = time.perf_counter()
        problem = load_problem(PROBLEMS / "e3.json")
        scan = grid_scan(problem, [0.0, 0.0], [2.0, 2.0], 41)
        assert int(scan.weak_efficient.sum()) == 71
        for point, feasible, weak in zip(scan.points, scan.feasible,
                                         scan.weak_efficient):
            if not feasible:
                continue
            cert = multiplier_certificate(problem, point)
            if weak:
                assert cert.status == "holds", point
                assert cert.residual <= 1e-8
            elif cert.status == "lp-infeasible" \
                    and qualification_check(problem, point).passed:
                found = refute_efficiency(problem, point,
                                          [0.0, 0.0], [2.0, 2.0], 41)
                assert found.witness is not None, point
        assert time.perf_counter() - start < 120.0


def test_criterion_07_refutation_instance(announce):
    with announce(7, "refuted free instance, certified boxed instance"):
        boxed = load_problem(PROBLEMS / "e2.json")
        cert = multiplier_certificate(boxed, [-1.0, 0.0])
        assert cert.status == "holds"
        assert cert.residual <= 1e-9
        np.testing.assert_allclose(cert.v, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(cert.duals[0], [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(cert.normal, [-1.0, 0.0], atol=1e-9)

        free = free_region_variant(boxed)
        assert multiplier_certificate(free, [-1.0, -1.0]).status \
            == "lp-infeasible"
        assert check_tangential_condition(free, [-1.0, -1.0]).status \
            == "violated"
        found = refute_efficiency(free, [-1.0, -1.0],
                                  [-2.0, -2.0], [0.0, 0.0], 21)
        assert found.witness is not None


def test_criterion_08_penalization_transfer(announce):
    with announce(8, "penalized scan keeps the efficient point"):
        problem = load_problem(PROBLEMS / "e3.json")
        sigma = increase_sigma()
        ell_hat = estimate_order_lipschitz(problem, [0.5, 1.0]).ell
        kept = check_penalization_transfer(problem, [0.5, 1.0], 2.0 * ell_hat,
                                           sigma, [0.0, 0.0], [2.0, 2.0], 41)
        assert kept.passed
        with pytest.warns(UserWarning, match="degenerate"):
            lost = check_penalization_transfer(problem, [0.5, 1.0], 0.0,
                                               sigma, [0.0, 0.0], [2.0, 2.0],
                                               41)
        assert not lost.passed
        assert lost.dominator is not None


def test_criterion_09_prederivative_exactness(announce):
    with announce(9, "exact prederivatives and fan behavior"):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            w = int(rng.integers(1, 4))
            sc = ScenarioMap(rng.standard_normal((w, m, n)),
                             rng.standard_normal((w, m)))
            fan = fan_from_scenarios(sc)
            x = rng.standard_normal(n)
            assert check_outer_prederivative(sc, x, fan).residual <= 1e-12

            # sampled fan axioms: homogeneity, convex values, subadditivity
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            np.testing.assert_allclose(image_vertices(fan, 2.5 * u),
                                       2.5 * image_vertices(fan, u),
                                       atol=1e-12)
            verts = image_vertices(fan, u)
            mid = 0.5 * (verts[0] + verts[-1])
            assert polytope_distance(mid, verts) <= 1e-9
            sum_verts = (image_vertices(fan, u)[:, None, :]
                         + image_vertices(fan, v)[None, :, :])
            sum_verts = sum_verts.reshape(-1, m)
            for vertex in image_vertices(fan, u + v):
                assert polytope_distance(vertex, sum_verts) <= 1e-9

            bound = lipschitz_bound(fan)
            for _pair in range(100):
                a = rng.standard_normal(n)
                b = rng.standard_normal(n)
                gap = hausdorff(image_vertices(fan, a), image_vertices(fan, b))
                assert gap <= bound * np.linalg.norm(a - b) + 1e-8


def test_criterion_10_reproducibility(announce, tmp_path):
    with announce(10, "deterministic reports and document round-trips"):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code = cli_main(["report", str(PROBLEMS / "e2.json"),
                             "--at", "-1", "0", "--seed", "0",
                             "--out", str(target)])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

        for name in ("e1.json", "e2.json", "e3.json"):
            doc = problem_to_document(
                problem_from_document(load_document(PROBLEMS / name)))
            assert problem_to_document(problem_from_document(doc)) == doc
