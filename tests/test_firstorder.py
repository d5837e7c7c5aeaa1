"""Tangent and normal cones, directional data, slopes, and fans."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvopt.cones import Cone, project_many
from rvopt.errors import DimensionError, PreconditionError
from rvopt.firstorder import (AffineObjective, Fan, PolyhedralSet, _merge_directions,
                              QuadraticObjective, check_outer_prederivative,
                              check_upper_subgradient, contingent_cone,
                              fan_from_scenarios, normal_cone,
                              polytope_distance, sampled_cone_directions,
                              strong_slope, upper_inverse_cone,
                              upper_subgradient_candidate)
from rvopt.sampling import sphere_directions
from rvopt.scenarios import ScenarioMap, hausdorff

from conftest import shifted_pair_scenarios


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
        region = self.regions[index]
        pts = near_boundary_points(region, np.random.default_rng(index), tol)
        rows = [region.contains(p, tol=tol) for p in pts]
        assert np.array_equal(region.contains_many(pts, tol=tol), rows)
        assert 0 < sum(rows) < len(rows)

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
    box = PolyhedralSet.box([-1.0, -1.0], [0.0, 0.0])

    def test_interior_point_gives_whole_space(self):
        cone = contingent_cone(self.box, [-0.5, -0.5])
        assert cone.rows.shape[0] == 0
        assert normal_cone(self.box, [-0.5, -0.5]).gens.shape[0] == 0

    def test_edge_point(self):
        """At (-1, 0) the box allows v1 >= 0 and v2 <= 0."""
        cone = contingent_cone(self.box, [-1.0, 0.0])
        assert cone.contains([1.0, -1.0])
        assert not cone.contains([-0.1, 0.0])
        assert not cone.contains([0.0, 0.1])
        normal = normal_cone(self.box, [-1.0, 0.0])
        assert_allclose(sorted(map(tuple, normal.gens)),
                        [(-1.0, 0.0), (0.0, 1.0)])

    def test_halfspace_region(self):
        region = PolyhedralSet.halfspaces([[1.0, 1.0]], [1.0])
        cone = contingent_cone(region, [0.5, 0.5])
        assert cone.contains([-1.0, 0.0])
        assert not cone.contains([1.0, 1.0])
        assert normal_cone(region, [0.5, 0.5]).contains(
            np.array([1.0, 1.0]) / np.sqrt(2.0), tol=1e-8)

    def test_nonmember_rejected(self):
        with pytest.raises(PreconditionError):
            contingent_cone(self.box, [1.0, 1.0])
        with pytest.raises(PreconditionError):
            normal_cone(self.box, [1.0, 1.0])

    def test_normal_tangent_pairing(self):
        """<n, v> <= 0 for normals n and tangent directions v."""
        rng = np.random.default_rng(31)
        for x in ([-1.0, 0.0], [0.0, 0.0], [-1.0, -1.0], [-0.3, 0.0]):
            tangent = contingent_cone(self.box, x)
            normal = normal_cone(self.box, x)
            weights = np.abs(rng.standard_normal((8, max(normal.gens.shape[0], 1))))
            normals = weights[:, :normal.gens.shape[0]] @ normal.gens \
                if normal.gens.shape[0] else np.zeros((1, 2))
            members = [v for v in rng.standard_normal((200, 2))
                       if tangent.contains(v, tol=0.0)]
            for n in normals:
                for v in members:
                    assert float(n @ v) <= 1e-9


class TestObjectives:
    def test_affine_directional_is_linear_map(self):
        obj = AffineObjective([[1.0, 2.0], [0.0, 1.0]], [3.0, -1.0])
        assert_allclose(obj.value([1.0, 1.0]), [6.0, 0.0])
        assert_allclose(obj.directional([9.0, 9.0], [1.0, -1.0]), [-1.0, -1.0])

    def test_quadratic_directional_matches_finite_difference(self):
        """d/dt of x1^2 at (1, 0) along (1, 0) is 2."""
        obj = QuadraticObjective(quads=[[[1.0, 0.0], [0.0, 0.0]]],
                                 lins=[[0.0, 0.0]], consts=[0.0])
        x, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        assert_allclose(obj.directional(x, v), [2.0])
        t = 1e-6
        fd = (obj.value(x + t * v) - obj.value(x)) / t
        assert_allclose(obj.directional(x, v), fd, atol=1e-5)

    def test_directional_positively_homogeneous(self):
        rng = np.random.default_rng(32)
        obj = QuadraticObjective(quads=rng.standard_normal((2, 3, 3)),
                                 lins=rng.standard_normal((2, 3)),
                                 consts=rng.standard_normal(2))
        # symmetrize so jacobian(x) = 2 Q x + j is the true derivative
        sym = 0.5 * (obj.quads + np.transpose(obj.quads, (0, 2, 1)))
        obj = QuadraticObjective(quads=sym, lins=obj.lins, consts=obj.consts)
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        for t in (0.5, 2.0, 7.0):
            assert_allclose(obj.directional(x, t * v),
                            t * obj.directional(x, v), rtol=1e-12)

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


class TestStrongSlope:
    cone = Cone.orthant(2)
    smap = shifted_pair_scenarios()

    def phi(self, x):
        return self.smap.merit(self.cone, x)

    def test_merit_slope_near_one_outside(self):
        """Below the feasible set the merit falls at unit rate."""
        slope = strong_slope(self.phi, PolyhedralSet.whole_space(2),
                             [0.0, -1.0], radius=0.5)
        assert 0.9 <= slope <= 1.0 + 1e-9

    def test_minimizer_scores_zero(self):
        slope = strong_slope(self.phi, PolyhedralSet.whole_space(2),
                             [1.0, 1.0], radius=0.25)
        assert slope == 0.0

    def test_scaling(self):
        doubled = strong_slope(lambda x: 2.0 * self.phi(x),
                               PolyhedralSet.whole_space(2),
                               [0.0, -1.0], radius=0.5)
        single = strong_slope(self.phi, PolyhedralSet.whole_space(2),
                              [0.0, -1.0], radius=0.5)
        assert doubled == pytest.approx(2.0 * single, rel=1e-9)


class TestUpperSubgradient:
    def test_candidate_matches_smooth_gradient(self):
        target = np.array([0.3, -0.7])

        def phi(x):
            return float(np.sum((np.asarray(x) - target) ** 2))

        x = np.array([1.0, 1.0])
        assert_allclose(upper_subgradient_candidate(phi, x),
                        2.0 * (x - target), atol=1e-4)

    def test_zero_function(self):
        cand = upper_subgradient_candidate(lambda x: 0.0, np.zeros(3))
        assert_allclose(cand, np.zeros(3))
        check = check_upper_subgradient(lambda x: 0.0, np.zeros(3), cand,
                                        eps=0.0, radius=1.0)
        assert check.passed and check.worst_violation == 0.0

    def test_norm_kink_fails_at_origin(self):
        """x* = 0 is not an upper subgradient of |.| at 0 for eps < 1."""
        phi = lambda x: float(np.linalg.norm(x))
        check = check_upper_subgradient(phi, np.zeros(2), np.zeros(2),
                                        eps=0.5, radius=1.0)
        assert not check.passed
        assert check.worst_violation > 0.1
        assert check.witness is not None

    def test_concave_function_passes(self):
        phi = lambda x: -float(np.sum(np.asarray(x) ** 2))
        x = np.array([0.5, 0.5])
        cand = upper_subgradient_candidate(phi, x)
        check = check_upper_subgradient(phi, x, cand, eps=0.0, radius=0.5)
        assert check.passed


class TestFans:
    def test_bundle_deduplication(self):
        fan = fan_from_scenarios(shifted_pair_scenarios())
        assert fan.size == 1
        assert_allclose(fan.bundle[0], np.eye(2))

    def test_image_vertices(self):
        fan = Fan(np.array([np.eye(2), 2.0 * np.eye(2)]))
        cloud = fan.image_vertices([1.0, 0.0])
        assert_allclose(cloud.points, [[1.0, 0.0], [2.0, 0.0]])

    def test_lipschitz_bound_is_max_norm(self):
        fan = Fan(np.array([np.eye(2), np.diag([1.0, 3.0])]))
        assert fan.lipschitz_bound() == pytest.approx(3.0, abs=1e-9)

    def test_fan_axioms_on_samples(self):
        """Positive homogeneity, 0 in H(0), and additivity up to hulls."""
        rng = np.random.default_rng(33)
        fan = Fan(rng.standard_normal((3, 2, 2)))
        assert_allclose(fan.image_vertices(np.zeros(2)).points,
                        np.zeros((3, 2)), atol=1e-12)
        for _ in range(20):
            u, w = rng.standard_normal((2, 2))
            for t in (0.5, 2.0):
                assert_allclose(fan.image_vertices(t * u).points,
                                t * fan.image_vertices(u).points, rtol=1e-12)
            # H(u + w) vertices lie inside H(u) + H(w) vertex sums
            sums = (fan.image_vertices(u).points[:, None, :]
                    + fan.image_vertices(w).points[None, :, :]).reshape(-1, 2)
            for z in fan.image_vertices(u + w).points:
                assert polytope_distance(z, sums) <= 1e-9

    def test_hausdorff_lipschitz_inequality(self):
        rng = np.random.default_rng(34)
        fan = Fan(rng.standard_normal((3, 2, 2)))
        bound = fan.lipschitz_bound()
        for _ in range(100):
            u, w = rng.standard_normal((2, 2))
            gap = hausdorff(fan.image_vertices(u), fan.image_vertices(w))
            assert gap <= bound * np.linalg.norm(u - w) + 1e-8

    def test_empty_bundle_rejected(self):
        with pytest.raises(DimensionError):
            Fan(np.zeros((0, 2, 2)))


class TestUpperInverse:
    def test_identity_fan_recovers_cone(self):
        fan = Fan(np.eye(2))
        pre = upper_inverse_cone(fan, Cone.orthant(2))
        rng = np.random.default_rng(35)
        for v in rng.standard_normal((200, 2)):
            assert pre.contains(v, tol=1e-9) == Cone.orthant(2).contains(v, tol=1e-9)

    def test_opposed_pair_gives_trivial_cone(self):
        fan = Fan(np.array([np.eye(2), -np.eye(2)]))
        pre = upper_inverse_cone(fan, Cone.orthant(2))
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
        pre = upper_inverse_cone(fan, cone)
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


def greedy_merge_loop(kept, extra, dim):
    """Reference dedupe: one norm per pair, first seen wins."""
    out = list(kept)
    for v in extra:
        if not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return np.array(out) if out else np.zeros((0, dim))


def sampled_directions_loop(cone, count, seed):
    """Reference for sampled_cone_directions: one row at a time."""
    unit = []
    for v in project_many(cone, sphere_directions(cone.dim, count, seed=seed)):
        norm = float(np.linalg.norm(v))
        if norm >= 1e-9:
            unit.append(v / norm)
    return greedy_merge_loop([], unit, cone.dim)


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
        kept = np.array([[1.0, 0.0], [0.0, 1.0]])
        extra = np.array([[1.0, 5e-10], [0.6, 0.8], [0.6, 0.8 + 2e-9],
                          [0.6, 0.8 + 5e-10], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0],
                          [0.0, 1.0 + 8e-10], [0.0, 1.0 + 1.6e-9]])
        merged = _merge_directions(kept, extra)
        assert np.array_equal(merged, greedy_merge_loop(kept, extra, 2))
        # a dropped row does not shadow a later one that is near only to it
        assert np.array_equal(merged, [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8],
                                       [0.6, 0.8 + 2e-9], [-1.0, 0.0],
                                       [0.0, 1.0 + 1.6e-9]])
        assert np.array_equal(_merge_directions(kept, np.zeros((0, 2))), kept)
        assert _merge_directions(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2)
