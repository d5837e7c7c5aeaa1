"""Tangent and normal cones, directional data, upper subgradients, and fans."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvopt.cones import Cone, project_many
from rvopt.errors import DimensionError, PreconditionError
from rvopt.firstorder import (AffineObjective, Fan, PolyhedralSet, QuadraticObjective,
                              check_upper_subgradient, fan_from_scenarios,
                              sampled_cone_directions, upper_subgradient_candidate)
from rvopt.problem import Problem
from rvopt.sampling import ball_points, sphere_directions
from rvopt.scenarios import ScenarioMap

from conftest import merge_directions, merit_cases, shifted_pair_scenarios
from setvalued import (check_outer_prederivative, excess, hausdorff, image_vertices,
                       lipschitz_bound, polytope_distance)


def fan_preimage_cone(fan, cone):
    """{v : fan image of v in the cone}, from ``Problem.preimage_rows`` of a
    problem carrying the fan as its ``fan_override``."""
    n = fan.domain_dim
    problem = Problem(objective=AffineObjective(np.eye(n), np.zeros(n)),
                      ordering_cone=Cone.orthant(n), constraint_cone=cone,
                      region=PolyhedralSet.whole_space(n),
                      scenarios=ScenarioMap(fan.bundle, np.zeros((fan.size, fan.image_dim))),
                      fan_override=fan)
    return Cone.halfspaces(problem.preimage_rows)


def dedupe_loop(mats):
    """The reference dedupe: keep each matrix unequal (``np.array_equal``)
    to every matrix kept before it."""
    kept = []
    for mat in mats:
        if not any(np.array_equal(mat, other) for other in kept):
            kept.append(mat)
    return np.array(kept)


def dense_hull_distance(point, vertices, steps=101):
    """Convex-hull distance oracle: scan barycentric weights on a lattice.

    Only for vertex counts 1-3; resolution limits accuracy to about one
    lattice spacing times the hull diameter.
    """
    point = np.asarray(point, dtype=float)
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    grid = np.linspace(0.0, 1.0, steps)
    best = np.inf
    if verts.shape[0] == 1:
        return float(np.linalg.norm(point - verts[0]))
    if verts.shape[0] == 2:
        for t in grid:
            best = min(best, np.linalg.norm(point - (1 - t) * verts[0] - t * verts[1]))
        return float(best)
    for a in grid:
        for b in grid:
            if a + b > 1.0:
                continue
            q = a * verts[0] + b * verts[1] + (1 - a - b) * verts[2]
            best = min(best, np.linalg.norm(point - q))
    return float(best)


def near_boundary_points(region, rng, tol):
    """Points on each bounding hyperplane and shifted by -tol, +tol and
    +2 tol across it, plus a spread of random points."""
    pts = [3.0 * rng.standard_normal((60, region.dim))]
    if region.kind == "box":
        for i in range(region.dim):
            for bound in (region.lo[i], region.hi[i]):
                if np.isfinite(bound):
                    for shift in (-tol, 0.0, tol, 2.0 * tol):
                        p = rng.standard_normal((8, region.dim))
                        p[:, i] = bound + shift
                        pts.append(p)
    else:
        for a, b in zip(region.a, region.b):
            p = rng.standard_normal((8, region.dim))
            on = p + (b - p @ a)[:, None] * a
            pts += [on + shift * a for shift in (-tol, 0.0, tol, 2.0 * tol)]
    return np.vstack(pts)


class TestContainsMany:
    rng = np.random.default_rng(17)
    regions = [PolyhedralSet.box([-1.0, -np.inf], [np.inf, 2.0]),
               PolyhedralSet.box([0.0, 0.0, -1.0], [1.0, 1.0, 1.0]),
               PolyhedralSet.halfspaces(rng.standard_normal((5, 2)),
                                        rng.random(5) + 0.5),
               PolyhedralSet.halfspaces(rng.standard_normal((7, 3)), rng.random(7) + 0.5)]

    @pytest.mark.parametrize("index", range(len(regions)))
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_matches_contains(self, index, tol):
        """Against a per-row rule written here: lo - tol <= x <= hi + tol for
        boxes, max(a @ x - b) <= tol for halfspaces."""
        region = self.regions[index]
        pts = near_boundary_points(region, np.random.default_rng(index), tol)
        if region.kind == "box":
            rows = [bool(np.all(region.lo - tol <= p) and np.all(p <= region.hi + tol))
                    for p in pts]
        else:
            rows = [bool(np.max(region.a @ p - region.b) <= tol) for p in pts]
        assert np.array_equal(region.contains_many(pts, tol=tol), rows)
        assert 0 < sum(rows) < len(rows)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
    def test_box_equals_the_row_reduction(self, tol):
        """The column-by-column box test against the rule it replaced,
        np.all over rows, with +-inf bounds (one axis unbounded both ways),
        points on and just past the bounds, infinite and NaN coordinates."""
        rng = np.random.default_rng(18)
        region = PolyhedralSet.box([-1.0, -np.inf, 0.0, -np.inf], [1.0, 2.0, np.inf, np.inf])
        pool = np.array([-1.0, 1.0, 2.0, 0.0, -0.0, np.nextafter(1.0, 2.0), -1.0 - tol,
                         1.0 + tol, 2.0 + tol, -tol, np.inf, -np.inf, np.nan, 0.3, -7.0])
        pts = rng.choice(pool, size=(4000, 4))
        expect = (np.all(pts >= region.lo - tol, axis=1)
                  & np.all(pts <= region.hi + tol, axis=1))
        assert np.array_equal(region.contains_many(pts, tol=tol), expect)
        assert 0 < expect.sum() < expect.size

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            PolyhedralSet.box([0.0, 0.0], [1.0, 1.0]).contains_many(np.zeros((4, 3)))


class TestProjectMany:
    @pytest.mark.parametrize("index", range(len(TestContainsMany.regions)))
    def test_matches_project(self, index):
        region = TestContainsMany.regions[index]
        pts = 3.0 * np.random.default_rng(index).standard_normal((40, region.dim))
        rows = np.array([region.project(p) for p in pts])
        assert np.array_equal(region.project_many(pts), rows)
        assert not np.array_equal(rows, pts)          # some points move
        assert region.project_many(np.zeros((0, region.dim))).shape == (0, region.dim)

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            PolyhedralSet.box([0.0, 0.0], [1.0, 1.0]).project_many(np.zeros((4, 3)))


class TestHalfspaceRegion:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_halfspace_region_rows_are_bit_stable(self, dim):
        """Rebuilding a region from its own unit rows and scaled right-hand
        side, as a saved and reloaded problem does, changes no bit."""
        rng = np.random.default_rng(dim)
        for _ in range(200):
            once = PolyhedralSet.halfspaces(rng.standard_normal((3, dim)), rng.random(3) + 0.5)
            again = PolyhedralSet.halfspaces(once.a, once.b)
            assert np.array_equal(again.a, once.a) and np.array_equal(again.b, once.b)


class TestRegionProjection:
    def test_kkt_conditions(self):
        """p is in S and z - p lies in the normal cone at p: a nonnegative
        combination of the rows active at p, found here by plain lstsq."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 3 * n + 2))
            region = PolyhedralSet.halfspaces(rng.standard_normal((m, n)), rng.random(m) + 0.1)
            z = 3.0 * rng.standard_normal(n)
            p = region.project(z)
            slack = region.a @ p - region.b
            assert np.max(slack) <= 1e-9
            active = region.a[slack >= -1e-9]
            mu = np.linalg.lstsq(active.T, z - p, rcond=None)[0]
            assert np.linalg.norm(active.T @ mu - (z - p)) <= 1e-8
            assert np.min(mu, initial=0.0) >= -1e-9

    def test_empty_region_raises(self):
        region = PolyhedralSet.halfspaces([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
        with pytest.raises(PreconditionError):
            region.project([3.0, 2.0])
        with pytest.raises(PreconditionError):
            region.project_many(np.array([[3.0, 2.0]]))


class TestTangentAndNormalCones:
    """T_S(x) = {v : P v >= 0} with P the rows ``Problem.activity(x).tangent``,
    and N_S(x) generated by the rows of -P, as the multiplier rule builds it."""

    box = PolyhedralSet.box([-1.0, -1.0], [0.0, 0.0])

    @staticmethod
    def tangent(region, x):
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2), constraint_cone=Cone.orthant(2),
                          region=region, scenarios=ScenarioMap([np.eye(2)], [[5.0, 5.0]]))
        return problem.activity(x).tangent

    def test_interior_point_gives_whole_space(self):
        assert self.tangent(self.box, [-0.5, -0.5]).shape == (0, 2)

    def test_edge_point(self):
        """At (-1, 0) the box allows v1 >= 0 and v2 <= 0."""
        rows = self.tangent(self.box, [-1.0, 0.0])
        cone = Cone.halfspaces(rows)
        assert cone.contains([1.0, -1.0])
        assert not cone.contains([-0.1, 0.0])
        assert not cone.contains([0.0, 0.1])
        assert_allclose(sorted(map(tuple, -rows)), [(-1.0, 0.0), (0.0, 1.0)])

    def test_halfspace_region(self):
        region = PolyhedralSet.halfspaces([[1.0, 1.0]], [1.0])
        rows = self.tangent(region, [0.5, 0.5])
        cone = Cone.halfspaces(rows)
        assert cone.contains([-1.0, 0.0])
        assert not cone.contains([1.0, 1.0])
        assert Cone.rays(-rows, dim=2).contains(np.array([1.0, 1.0]) / np.sqrt(2.0), tol=1e-8)

    def test_nonmember_rejected(self):
        assert self.tangent(self.box, [1.0, 1.0]) is None


class TestObjectives:
    def test_affine_directional_is_linear_map(self):
        obj = AffineObjective([[1.0, 2.0], [0.0, 1.0]], [3.0, -1.0])
        assert_allclose(obj.value([1.0, 1.0]), [6.0, 0.0])
        assert_allclose(obj.jacobian([9.0, 9.0]) @ [1.0, -1.0], [-1.0, -1.0])

    def test_quadratic_directional_matches_finite_difference(self):
        """d/dt of x1^2 at (1, 0) along (1, 0) is 2."""
        obj = QuadraticObjective(quads=[[[1.0, 0.0], [0.0, 0.0]]],
                                 lins=[[0.0, 0.0]], consts=[0.0])
        x, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        assert_allclose(obj.jacobian(x) @ v, [2.0])
        t = 1e-6
        fd = (obj.value(x + t * v) - obj.value(x)) / t
        assert_allclose(obj.jacobian(x) @ v, fd, atol=1e-5)

    def test_directional_positively_homogeneous(self):
        rng = np.random.default_rng(32)
        obj = QuadraticObjective(quads=rng.standard_normal((2, 3, 3)),
                                 lins=rng.standard_normal((2, 3)),
                                 consts=rng.standard_normal(2))
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        for t in (0.5, 2.0, 7.0):
            assert_allclose(obj.jacobian(x) @ (t * v),
                            t * (obj.jacobian(x) @ v), rtol=1e-12)

    def test_quadratic_jacobian_for_nonsymmetric_q(self):
        """x^T Q x with Q = [[0, 1], [0, 0]] is x1 x2, whose gradient at
        (1, 2) is (2, 1), not 2 Q x = (4, 0).  Random nonsymmetric blocks
        match central differences, which are exact for quadratics up to
        rounding."""
        obj = QuadraticObjective(quads=[[[0.0, 1.0], [0.0, 0.0]]], lins=[[0.0, 0.0]],
                                 consts=[0.0])
        assert np.array_equal(obj.jacobian([1.0, 2.0]), [[2.0, 1.0]])
        rng = np.random.default_rng(29)
        obj = QuadraticObjective(quads=rng.standard_normal((3, 4, 4)),
                                 lins=rng.standard_normal((3, 4)), consts=rng.standard_normal(3))
        t = 1e-3
        for x in rng.standard_normal((5, 4)):
            central = np.column_stack([(obj.value(x + t * e) - obj.value(x - t * e)) / (2 * t)
                                       for e in np.eye(4)])
            assert_allclose(obj.jacobian(x), central, rtol=0.0, atol=1e-10)

    def test_symmetric_quadratic_jacobian_is_two_q_x_bit_for_bit(self):
        rng = np.random.default_rng(31)
        quads = rng.standard_normal((3, 4, 4))
        quads = quads + quads.transpose(0, 2, 1)
        obj = QuadraticObjective(quads=quads, lins=rng.standard_normal((3, 4)),
                                 consts=np.zeros(3))
        for x in 3.0 * rng.standard_normal((50, 4)):
            assert np.array_equal(obj.jacobian(x),
                                  2.0 * np.einsum("kij,j->ki", quads, x) + obj.lins)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_value_many_matches_value(self, n):
        rng = np.random.default_rng(n)
        pts = 3.0 * rng.standard_normal((400, n))
        for k in (1, 2, 3):
            affine = AffineObjective(rng.standard_normal((k, n)), rng.standard_normal(k))
            quad = QuadraticObjective(quads=rng.standard_normal((k, n, n)),
                                      lins=rng.standard_normal((k, n)),
                                      consts=rng.standard_normal(k))
            for obj in (affine, quad):
                assert np.array_equal(obj.value_many(pts),
                                      np.array([obj.value(p) for p in pts]))
            assert_allclose(quad.value_many(pts),
                            np.einsum("ni,kij,nj->nk", pts, quad.quads, pts)
                            + pts @ quad.lins.T + quad.consts, rtol=1e-12, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            AffineObjective(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            QuadraticObjective(quads=[np.eye(2)], lins=[[1.0, 2.0, 3.0]],
                               consts=[0.0])


class TestUpperSubgradient:
    def test_candidate_matches_smooth_gradient(self):
        target = np.array([0.3, -0.7])

        def phi(xs):
            return np.sum((np.asarray(xs) - target) ** 2, axis=1)

        x = np.array([1.0, 1.0])
        assert_allclose(upper_subgradient_candidate(phi, x),
                        2.0 * (x - target), atol=1e-4)

    def test_zero_function(self):
        zero = lambda xs: np.zeros(len(xs))
        cand = upper_subgradient_candidate(zero, np.zeros(3))
        assert_allclose(cand, np.zeros(3))
        check = check_upper_subgradient(zero, np.zeros(3), cand,
                                        eps=0.0, radius=1.0)
        assert check.passed and check.worst_violation == 0.0

    def test_norm_kink_fails_at_origin(self):
        """x* = 0 is not an upper subgradient of |.| at 0 for eps < 1."""
        phi = lambda xs: np.linalg.norm(xs, axis=1)
        check = check_upper_subgradient(phi, np.zeros(2), np.zeros(2),
                                        eps=0.5, radius=1.0)
        assert not check.passed
        assert check.worst_violation > 0.1
        assert check.witness is not None

    def test_concave_function_passes(self):
        phi = lambda xs: -np.sum(np.asarray(xs) ** 2, axis=1)
        x = np.array([0.5, 0.5])
        cand = upper_subgradient_candidate(phi, x)
        check = check_upper_subgradient(phi, x, cand, eps=0.0, radius=0.5)
        assert check.passed


def scalar_merit(problem):
    """The merit one point at a time, through ``excess`` of the scenario
    image over the constraint cone."""
    return lambda x: excess(problem.scenarios.evaluate(x), problem.constraint_cone)


def candidate_loop(phi, x, step=1e-5):
    """Central differences with one scalar ``phi`` call per point."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        out[i] = (float(phi(x + e)) - float(phi(x - e))) / (2.0 * step)
    return out


def subgradient_loop(phi, x, candidate, eps, radius, samples=256, seed=0):
    """The sampled upper-subgradient test with one scalar ``phi`` call per
    point: returns (worst violation, witness)."""
    x = np.asarray(x, dtype=float).ravel()
    base = float(phi(x))
    worst, witness = 0.0, None
    for y in ball_points(x, radius, samples, seed=seed):
        gap = y - x
        slack = float(phi(y)) - base - float(candidate @ gap) \
            - eps * float(np.linalg.norm(gap))
        if slack > worst:
            worst, witness = slack, y
    return worst, witness


class TestBatchedMeritCalls:
    """One row-batched merit call gives, bit for bit, the candidates,
    violations and witnesses of one scalar merit call per point."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name, problem, x", merit_cases(),
                             ids=[case[0] for case in merit_cases()])
    def test_penalization_stage_matches_the_scalar_loops(self, name, problem, x, seed):
        phi = scalar_merit(problem)
        cand = upper_subgradient_candidate(problem.merit_many, x)
        assert np.array_equal(cand, candidate_loop(phi, x))
        for candidate, eps in ((cand, 1e-6), (np.zeros(2), 0.0), (-cand, 0.0)):
            check = check_upper_subgradient(problem.merit_many, x, candidate,
                                            eps=eps, radius=0.25, seed=seed)
            worst, witness = subgradient_loop(phi, x, candidate, eps, 0.25, seed=seed)
            assert check.worst_violation == worst
            if witness is None:
                assert check.witness is None
            else:
                assert np.array_equal(check.witness, witness)


class TestFans:
    def test_bundle_deduplication(self):
        fan = fan_from_scenarios(shifted_pair_scenarios())
        assert fan.size == 1
        assert_allclose(fan.bundle[0], np.eye(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_dedupe_matches_the_reference_loop(self, seed):
        """Exact duplicates merge and -0.0 equals 0.0, while matrices 1 ulp
        apart stay distinct; first-seen order and the first copy's bits
        (signed zeros included) survive."""
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 4, 2)
        base = rng.integers(-1, 2, (6, m, n)) * rng.random((6, m, n))
        mats = base[rng.integers(0, 6, 30)]                          # exact duplicates
        mats[(rng.random(mats.shape) < 0.5) & (mats == 0.0)] = -0.0   # signed zeros
        bump = rng.random(30) < 0.2
        mats[bump, 0, 0] = np.nextafter(mats[bump, 0, 0], np.inf)      # 1-ulp neighbours
        fan = fan_from_scenarios(ScenarioMap(mats, np.zeros((30, m))))
        expected = dedupe_loop(mats)
        assert fan.size < 30
        assert fan.bundle.shape == expected.shape
        assert np.array_equal(fan.bundle, expected)
        assert np.array_equal(np.signbit(fan.bundle), np.signbit(expected))

    def test_dedupe_keeps_ulp_neighbours_and_merges_signed_zeros(self):
        one = np.eye(2)
        ulp = one.copy()
        ulp[0, 1] = np.nextafter(0.0, 1.0)
        signed = one.copy()
        signed[1, 0] = -0.0
        fan = fan_from_scenarios(ScenarioMap(np.array([signed, ulp, one, ulp]),
                                             np.zeros((4, 2))))
        assert fan.size == 2
        assert np.array_equal(fan.bundle, [signed, ulp])
        assert np.signbit(fan.bundle[0, 1, 0])

    def test_image_vertices(self):
        fan = Fan(np.array([np.eye(2), 2.0 * np.eye(2)]))
        assert_allclose(image_vertices(fan, [1.0, 0.0]), [[1.0, 0.0], [2.0, 0.0]])

    def test_lipschitz_bound_is_max_norm(self):
        fan = Fan(np.array([np.eye(2), np.diag([1.0, 3.0])]))
        assert lipschitz_bound(fan) == pytest.approx(3.0, abs=1e-9)

    def test_fan_axioms_on_samples(self):
        """Positive homogeneity, 0 in H(0), and additivity up to hulls."""
        rng = np.random.default_rng(33)
        fan = Fan(rng.standard_normal((3, 2, 2)))
        assert_allclose(image_vertices(fan, np.zeros(2)),
                        np.zeros((3, 2)), atol=1e-12)
        for _ in range(20):
            u, w = rng.standard_normal((2, 2))
            for t in (0.5, 2.0):
                assert_allclose(image_vertices(fan, t * u),
                                t * image_vertices(fan, u), rtol=1e-12)
            # H(u + w) vertices lie inside H(u) + H(w) vertex sums
            sums = (image_vertices(fan, u)[:, None, :]
                    + image_vertices(fan, w)[None, :, :]).reshape(-1, 2)
            for z in image_vertices(fan, u + w):
                assert polytope_distance(z, sums) <= 1e-9

    def test_hausdorff_lipschitz_inequality(self):
        rng = np.random.default_rng(34)
        fan = Fan(rng.standard_normal((3, 2, 2)))
        bound = lipschitz_bound(fan)
        for _ in range(100):
            u, w = rng.standard_normal((2, 2))
            gap = hausdorff(image_vertices(fan, u), image_vertices(fan, w))
            assert gap <= bound * np.linalg.norm(u - w) + 1e-8

    def test_empty_bundle_rejected(self):
        with pytest.raises(DimensionError):
            Fan(np.zeros((0, 2, 2)))


class TestUpperInverse:
    def test_identity_fan_recovers_cone(self):
        fan = Fan(np.eye(2))
        pre = fan_preimage_cone(fan, Cone.orthant(2))
        rng = np.random.default_rng(35)
        for v in rng.standard_normal((200, 2)):
            assert pre.contains(v, tol=1e-9) == Cone.orthant(2).contains(v, tol=1e-9)

    def test_opposed_pair_gives_trivial_cone(self):
        fan = Fan(np.array([np.eye(2), -np.eye(2)]))
        pre = fan_preimage_cone(fan, Cone.orthant(2))
        assert pre.contains([0.0, 0.0])
        rng = np.random.default_rng(36)
        for v in rng.standard_normal((100, 2)):
            if np.linalg.norm(v) > 1e-6:
                assert not pre.contains(v, tol=1e-12)

    def test_membership_equivalence(self):
        """v in preimage iff every bundle image lies in the cone."""
        rng = np.random.default_rng(37)
        fan = Fan(rng.standard_normal((3, 2, 2)))
        cone = Cone.orthant(2)
        pre = fan_preimage_cone(fan, cone)
        for v in rng.standard_normal((1000, 2)):
            direct = all(cone.contains(mat @ v, tol=1e-8) for mat in fan.bundle)
            if direct != pre.contains(v, tol=1e-8):
                worst = max(cone.distance(mat @ v) for mat in fan.bundle)
                assert worst <= 1e-6


class TestPolytopeDistance:
    def test_vertex_hit_is_zero(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert polytope_distance([1.0, 0.0], verts) == 0.0

    def test_matches_lattice_oracle(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            verts = rng.standard_normal((3, 2)) * 2.0
            z = rng.standard_normal(2) * 2.0
            oracle = dense_hull_distance(z, verts)
            assert polytope_distance(z, verts) == pytest.approx(oracle, abs=0.05)
            assert polytope_distance(z, verts) <= oracle + 1e-9

    def test_interior_point(self):
        verts = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 2.0]])
        assert polytope_distance([0.0, 0.0], verts) <= 1e-9

    def test_inside_hull_is_zero(self):
        """Inside the hull the least-distance residual is rounding noise;
        the distance must not be read off it.  The exact kernel stays near
        1e-14 here."""
        rng = np.random.default_rng(0)
        for _ in range(2000):
            verts = rng.standard_normal((8, 3))
            z = rng.dirichlet(np.ones(8)) @ verts
            assert polytope_distance(z, verts) <= 1e-12

    def test_segment_distance(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert polytope_distance([1.0, 1.0], verts) == pytest.approx(1.0, abs=1e-9)


class TestOuterPrederivative:
    def test_affine_family_is_exact(self):
        """The full scenario bundle reproduces affine increments exactly."""
        rng = np.random.default_rng(39)
        for _ in range(5):
            mats = rng.standard_normal((2, 2, 2))
            offsets = rng.standard_normal((2, 2))
            smap = ScenarioMap(mats=mats, offsets=offsets)
            fan = fan_from_scenarios(smap)
            report = check_outer_prederivative(smap, rng.standard_normal(2), fan,
                                               radius=0.5, samples=16)
            assert report.passed
            assert report.residual <= 1e-12

    def test_dropped_matrix_fails(self):
        smap = ScenarioMap(mats=np.array([np.eye(2), np.diag([3.0, 1.0])]),
                           offsets=np.zeros((2, 2)))
        fan = Fan(np.eye(2))
        report = check_outer_prederivative(smap, [1.0, 1.0], fan,
                                           radius=0.5, samples=16)
        assert not report.passed
        assert report.residual > 0.1
        assert report.witness is not None

    def test_zero_radius_is_vacuous(self):
        smap = shifted_pair_scenarios()
        report = check_outer_prederivative(smap, [0.0, 0.0],
                                           fan_from_scenarios(smap), radius=0.0)
        assert report.passed and report.residual == 0.0


class TestSampledDirections:
    def test_directions_are_unit_members(self):
        cone = Cone.halfspaces([[1.0, 1.0], [-1.0, 1.0]])
        dirs = sampled_cone_directions(cone, 32, seed=0)
        assert dirs.shape[0] > 0
        for v in dirs:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
            assert cone.contains(v, tol=1e-8)

    def test_trivial_cone_yields_nothing(self):
        cone = Cone.rays(np.zeros((0, 2)), dim=2)
        assert sampled_cone_directions(cone, 16, seed=0).shape[0] == 0


def sampled_directions_loop(cone, count, seed):
    """Reference for sampled_cone_directions: one row at a time."""
    unit = []
    for v in project_many(cone, sphere_directions(cone.dim, count, seed=seed)):
        norm = float(np.linalg.norm(v))
        if norm >= 1e-9:
            unit.append(v / norm)
    return merge_directions(np.zeros((0, cone.dim)), np.array(unit).reshape(-1, cone.dim))


class TestMergeDirections:
    @pytest.mark.parametrize("cone", [
        Cone.orthant(2), Cone.orthant(3), Cone.whole_space(2),
        Cone.halfspaces([[1.0, 1.0], [-1.0, 1.0]]),
        Cone.halfspaces([[1.0, 1e-3], [-1.0, 1e-3]]),
        Cone.rays([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.0, 1.0]]),
        Cone.rays(np.zeros((0, 2)), dim=2)])
    @pytest.mark.parametrize("count", [16, 64])
    def test_sampled_directions_match_the_loop(self, cone, count):
        assert np.array_equal(sampled_cone_directions(cone, count, seed=3),
                              sampled_directions_loop(cone, count, 3))

    def test_near_duplicates_first_seen_wins(self):
        """The reference merge of the former sampled certificates; a ray
        cone's projected sample dedupes to its one generator."""
        kept = np.array([[1.0, 0.0], [0.0, 1.0]])
        extra = np.array([[1.0, 5e-10], [0.6, 0.8], [0.6, 0.8 + 2e-9],
                          [0.6, 0.8 + 5e-10], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0],
                          [0.0, 1.0 + 8e-10], [0.0, 1.0 + 1.6e-9]])
        merged = merge_directions(kept, extra)
        # a dropped row does not shadow a later one that is near only to it
        assert np.array_equal(merged, [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8],
                                       [0.6, 0.8 + 2e-9], [-1.0, 0.0],
                                       [0.0, 1.0 + 1.6e-9]])
        assert np.array_equal(merge_directions(kept, np.zeros((0, 2))), kept)
        assert merge_directions(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2)
        assert np.array_equal(sampled_cone_directions(Cone.rays([[1.0, 0.0]]), 16, seed=0),
                              [[1.0, 0.0]])
