"""Cone representations, projections, duality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.cones as cones_mod
from rvopt.cones import Cone, distance_many
from rvopt.errors import ConvergenceError, DimensionError, RepresentationError
from rvopt.sampling import grid_points, sphere_directions


def lattice_projection(cone, z, span=3.0, resolution=121):
    """Brute-force oracle: nearest cone member on a dense lattice.

    Accuracy is about one lattice diagonal, so comparisons against it use
    a tolerance of two spacings.
    """
    z = np.asarray(z, dtype=float)
    pts = grid_points(np.full(z.size, -span), np.full(z.size, span), resolution)
    members = pts[[cone.contains(p, tol=1e-9) for p in pts]]
    gaps = np.linalg.norm(members - z[None, :], axis=1)
    best = int(np.argmin(gaps))
    spacing = 2.0 * span / (resolution - 1)
    return members[best], float(gaps[best]), 2.0 * spacing


def random_cones(rng, dim):
    yield Cone.orthant(dim)
    rows = rng.standard_normal((dim + 1, dim))
    yield Cone.halfspaces(rows)
    gens = rng.standard_normal((dim, dim))
    yield Cone.rays(gens)


def member_samples(cone, count, seed):
    """Approximate cone members from sphere-direction projections."""
    dirs = sphere_directions(cone.dim, count, seed=seed)
    pts = [cone.project(d) for d in dirs]
    pts.append(np.zeros(cone.dim))
    return np.array(pts)


def exact_members(cone, count, rng):
    """Cone members certified by construction, no iterative projections.

    Generator combinations for ray cones, rejection sampling for
    halfspace cones; pairing products against these are exact up to
    float rounding.
    """
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


class TestOrthant:
    def test_projection_clamps(self):
        cone = Cone.orthant(3)
        assert_allclose(cone.project([1.0, -2.0, 0.0]), [1.0, 0.0, 0.0])

    def test_distance(self):
        """dist((-3, 4), orthant) = 3: only the negative part counts."""
        assert Cone.orthant(2).distance([-3.0, 4.0]) == pytest.approx(3.0)

    def test_distance_many_matches_loop(self):
        cone = Cone.orthant(3)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 3))
        assert_allclose(distance_many(cone, pts),
                        [cone.distance(p) for p in pts], atol=1e-12)

    def test_membership(self):
        cone = Cone.orthant(2)
        assert cone.contains([0.0, 5.0])
        assert not cone.contains([-1e-6, 1.0])
        assert cone.interior_contains([1.0, 1.0], margin=0.5)
        assert not cone.interior_contains([1.0, 0.1], margin=0.5)


class TestHalfspaceWedge:
    """The wedge {z : z2 >= |z1|}, rows (-1, 1) and (1, 1) normalized."""

    wedge = Cone.halfspaces([[-1.0, 1.0], [1.0, 1.0]])

    def test_projection_against_lattice_oracle(self):
        proj = self.wedge.project([1.0, 0.0])
        point, dist, tol = lattice_projection(self.wedge, [1.0, 0.0])
        assert np.linalg.norm(proj - point) <= tol
        assert self.wedge.distance([1.0, 0.0]) == pytest.approx(dist, abs=tol)

    def test_projection_exact(self):
        """(1, 0) lands on the boundary ray (1,1)/sqrt(2) at (0.5, 0.5)."""
        assert_allclose(self.wedge.project([1.0, 0.0]), [0.5, 0.5], atol=1e-9)
        assert self.wedge.distance([1.0, 0.0]) == pytest.approx(np.sqrt(0.5))

    def test_members_are_fixed_points(self):
        for z in ([0.0, 1.0], [1.0, 2.0], [-0.5, 0.5], [0.0, 0.0]):
            assert_allclose(self.wedge.project(z), z, atol=1e-9)

    def test_rows_are_normalized(self):
        assert_allclose(np.linalg.norm(self.wedge.rows, axis=1), [1.0, 1.0])

    def test_budget_exhaustion_reports_last_iterate(self, monkeypatch):
        ray = Cone.rays([[1.0, 1.0]])
        monkeypatch.setattr(cones_mod, "PROJECTION_BUDGET", 0)
        for cone in (self.wedge, ray):
            with pytest.raises(ConvergenceError) as err:
                cone.project([1.0, 0.0])
            assert err.value.last_iterate is not None
            assert err.value.residual >= 0.0


class TestRayCones:
    def test_single_ray_projection(self):
        cone = Cone.rays([[1.0, 1.0]])
        assert_allclose(cone.project([1.0, 0.0]), [0.5, 0.5], atol=1e-8)

    def test_projection_against_lattice_oracle(self):
        cone = Cone.rays([[1.0, 0.0], [1.0, 1.0]])
        for z in ([2.0, -1.0], [-1.0, 2.0], [-2.0, -2.0]):
            point, dist, tol = lattice_projection(cone, z)
            assert cone.distance(z) == pytest.approx(dist, abs=tol)
            assert np.linalg.norm(cone.project(z) - point) <= tol

    def test_trivial_cone(self):
        cone = Cone.rays(np.zeros((0, 2)), dim=2)
        assert_allclose(cone.project([3.0, -4.0]), [0.0, 0.0])
        assert cone.distance([3.0, -4.0]) == pytest.approx(5.0)

    def test_spanning_generators_flagged_improper(self):
        cone = Cone.rays([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert not cone.proper

    def test_trivial_cone_needs_dim(self):
        with pytest.raises(DimensionError):
            Cone.rays(np.zeros((0, 2)))


class TestConstruction:
    def test_empty_halfspaces_rejected(self):
        with pytest.raises(DimensionError, match="whole_space"):
            Cone.halfspaces(np.zeros((0, 2)))

    def test_whole_space(self):
        cone = Cone.whole_space(3)
        assert not cone.proper
        assert cone.contains([-5.0, 2.0, 0.0])
        assert_allclose(cone.project([-5.0, 2.0, 0.0]), [-5.0, 2.0, 0.0])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row"):
            Cone.halfspaces([[0.0, 0.0], [1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Cone.orthant(2).contains([1.0, 2.0, 3.0])


class TestProjectionInvariants:
    """Sampled optimality, idempotence, Lipschitz and homogeneity laws."""

    def test_projection_beats_sampled_members(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4, 5):
            for cone in random_cones(rng, dim):
                members = member_samples(cone, 24, seed=1)
                for z in rng.standard_normal((10, dim)) * 2.0:
                    d = cone.distance(z)
                    gaps = np.linalg.norm(members - z[None, :], axis=1)
                    assert d <= float(np.min(gaps)) + 1e-7

    def test_projection_idempotent(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4):
            for cone in random_cones(rng, dim):
                for z in rng.standard_normal((10, dim)) * 3.0:
                    p = cone.project(z)
                    assert np.linalg.norm(cone.project(p) - p) <= 1e-9

    def test_distance_is_one_lipschitz(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3):
            for cone in random_cones(rng, dim):
                pts = rng.standard_normal((12, dim)) * 2.0
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        gap = np.linalg.norm(pts[i] - pts[j])
                        assert abs(cone.distance(pts[i]) - cone.distance(pts[j])) \
                            <= gap + 1e-9

    def test_distance_positively_homogeneous(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            for cone in random_cones(rng, dim):
                for z in rng.standard_normal((6, dim)):
                    base = cone.distance(z)
                    for t in (0.5, 2.0, 10.0):
                        assert cone.distance(t * z) == pytest.approx(
                            t * base, rel=1e-8, abs=1e-10)


def kkt_cases(seed):
    """Ray cones with dim + 2 generators and halfspace cones with 8 rows in
    R^2..R^4, each with 8 points to project."""
    rng = np.random.default_rng(seed)
    dims = (2, 3, 4)
    data = [rng.standard_normal((d + 2, d)) for d in dims]
    data += [rng.standard_normal((8, d)) for d in dims]
    cones = [Cone.rays(a) for a in data[:3]] + [Cone.halfspaces(a) for a in data[3:]]
    return [(cone, rng.standard_normal((8, cone.dim)) * 2.0) for cone in cones]


class TestProjectionKKT:
    """p = P_K(z) iff p in K, z - p in the negative dual and <z - p, p> = 0.

    Seeds 4, 14, 28 and 31 hold slowly converging cases for iterative
    schemes: a ray cone whose spanning test (seed 14), and halfspace cones
    whose projections (seeds 4, 28, 31), run past 10,000 cyclic-projection
    or projected-gradient steps.
    """

    @pytest.mark.parametrize("seed", (0, 4, 14, 28, 31))
    def test_kkt_conditions(self, seed):
        for cone, points in kkt_cases(seed):
            dual = cone.negative_dual()
            for z in points:
                p = cone.project(z)
                assert cone.contains(p, tol=1e-9)
                assert dual.contains(z - p, tol=1e-9)
                assert abs(float((z - p) @ p)) <= 1e-9 * float(z @ z)


class TestDuality:
    def test_orthant_negative_dual(self):
        dual = Cone.orthant(2).negative_dual()
        assert dual.kind == "rays"
        assert_allclose(sorted(map(tuple, dual.gens)),
                        [(-1.0, 0.0), (0.0, -1.0)])

    def test_ray_negative_dual_is_halfspaces(self):
        dual = Cone.rays([[1.0, 1.0]]).negative_dual()
        assert dual.kind == "halfspaces"
        assert dual.contains([1.0, -1.0])
        assert not dual.contains([1.0, 0.0])

    def test_dual_pairing_nonpositive(self):
        """<y, z> <= 0 for y in the negative dual and z in the cone."""
        rng = np.random.default_rng(4)
        for dim in (2, 3, 4):
            for cone in random_cones(rng, dim):
                dual = cone.negative_dual()
                zs = exact_members(cone, 16, rng)
                ys = exact_members(dual, 16, rng)
                assert float(np.max(ys @ zs.T, initial=-np.inf)) <= 1e-9

    def test_positive_dual_negates_negative_dual(self):
        rng = np.random.default_rng(5)
        for cone in random_cones(rng, 3):
            pos, neg = cone.positive_dual(), cone.negative_dual()
            for y in exact_members(neg, 12, rng):
                assert pos.contains(-y, tol=1e-8)

    def test_bipolar_membership(self):
        """Bidual membership agrees with the cone on sampled points."""
        rng = np.random.default_rng(6)
        for cone in [Cone.orthant(3), Cone.halfspaces([[1.0, 2.0], [2.0, 1.0]]),
                     Cone.rays([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])]:
            bidual = cone.negative_dual().negative_dual()
            for z in rng.standard_normal((100, cone.dim)):
                assert cone.contains(z, tol=1e-7) == bidual.contains(z, tol=1e-7) \
                    or min(cone.distance(z), bidual.distance(z)) <= 1e-6

    def test_whole_space_dual_is_trivial(self):
        dual = Cone.whole_space(2).negative_dual()
        assert dual.kind == "rays" and dual.gens.shape[0] == 0


class TestLinearPreimage:
    def test_identity_preimage_of_orthant(self):
        pre = Cone.orthant(2).linear_preimage(np.eye(2))
        for z in ([1.0, 2.0], [0.0, 0.0], [-1.0, 1.0]):
            assert pre.contains(z) == Cone.orthant(2).contains(z)

    def test_negated_identity(self):
        pre = Cone.orthant(2).linear_preimage(-np.eye(2))
        assert pre.contains([-1.0, -2.0])
        assert not pre.contains([1.0, 0.0])

    def test_membership_equivalence(self):
        """v in preimage iff M v in the cone, on random data."""
        rng = np.random.default_rng(8)
        for cone in [Cone.orthant(3), Cone.halfspaces(rng.standard_normal((4, 3)))]:
            mat = rng.standard_normal((3, 2))
            pre = cone.linear_preimage(mat)
            for v in rng.standard_normal((1000, 2)):
                direct = cone.contains(mat @ v, tol=1e-8)
                lifted = pre.contains(v, tol=1e-8)
                if direct != lifted:
                    # disagreement is only allowed within tolerance of the boundary
                    assert cone.distance(mat @ v) <= 1e-6

    def test_zero_rows_dropped_with_warning(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="dropped zero rows"):
            pre = Cone.orthant(2).linear_preimage(mat)
        assert pre.rows.shape[0] == 1

    def test_rays_unsupported(self):
        with pytest.raises(RepresentationError):
            Cone.rays([[1.0, 0.0]]).linear_preimage(np.eye(2))

    def test_row_count_checked(self):
        with pytest.raises(DimensionError):
            Cone.orthant(3).linear_preimage(np.eye(2))


class TestDocuments:
    def test_round_trip_shapes(self):
        assert Cone.orthant(2).to_document() == {"kind": "orthant", "dim": 2}
        doc = Cone.whole_space(2).to_document()
        assert doc == {"kind": "halfspaces", "dim": 2, "rows": []}
        doc = Cone.rays([[1.0, 0.0]]).to_document()
        assert doc["kind"] == "rays" and doc["gens"] == [[1.0, 0.0]]
