"""Cone representations, projections, duality."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rvopt.cones as cones_mod
from rvopt.cones import Cone, _nnls, _norms, _unit_rows, distance_many, project_many
from rvopt.errors import ConvergenceError, DimensionError
from rvopt.firstorder import PolyhedralSet
from rvopt.sampling import grid_points, sphere_directions


def lattice_projection(cone, z, span=3.0, resolution=121):
    """Brute-force oracle: nearest cone member on a dense lattice.

    Accuracy is about one lattice diagonal, so comparisons against it use
    a tolerance of two spacings.
    """
    z = np.asarray(z, dtype=float)
    pts = grid_points(np.full(z.size, -span), np.full(z.size, span), resolution)
    members = pts[distance_many(cone, pts) <= 1e-9]     # cone.contains(p, tol=1e-9), batched
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
        """The one-point distance is the one-row case of ``distance_many``,
        bit for bit (a BLAS norm of the clamped point rounds differently)."""
        rng = np.random.default_rng(7)
        for width in range(1, 8):
            cone = Cone.orthant(width)
            pts = rng.standard_normal((2_000, width))
            assert np.array_equal(distance_many(cone, pts),
                                  [cone.distance(p) for p in pts]), width

    @pytest.mark.parametrize("width", range(1, 8))
    def test_distance_many_equals_the_row_norm(self, width):
        """The column-by-column sum is numpy's row reduction bit for bit
        below width 8, signed zeros, subnormals, +-1e300 and NaN included.
        A finite row whose squares overflow is that reduction on the row
        divided by its largest absolute entry, times that entry."""
        rng = np.random.default_rng(40 + width)
        scale = 10.0 ** rng.integers(-160, 160, (20_000, width))
        pts = rng.standard_normal((20_000, width)) * scale
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, -2.2e-308, 1e300, -1e300, np.nan,
                            -np.inf, -1.0 / 3.0])
        mask = rng.random(pts.shape) < 0.2
        pts[mask] = rng.choice(special, size=np.count_nonzero(mask))
        with np.errstate(over="ignore", invalid="ignore"):
            clamped = np.minimum(pts, 0.0)
            expect = np.linalg.norm(clamped, axis=1)
            big = np.isinf(expect) & np.isfinite(clamped).all(axis=1)
            scale = np.abs(clamped[big]).max(axis=1)
            expect[big] = scale * np.linalg.norm(clamped[big] / scale[:, None], axis=1)
            got = distance_many(Cone.orthant(width), pts)
        assert np.array_equal(got, expect, equal_nan=True)
        assert big.any() and np.isfinite(got[big]).all()
        assert np.isinf(got).any() and np.isnan(got).any() and (got == 0.0).any()

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

    def test_trivial_cone_needs_dim(self):
        with pytest.raises(DimensionError):
            Cone.rays(np.zeros((0, 2)))


RAY_CONES = {
    "pointed": Cone.rays([[1.0, 0.2], [0.3, 1.0]]),
    "pointed-3d": Cone.rays([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 1.0],
                             [0.5, 0.5, 0.5]]),
    "half-line": Cone.rays([[1.0, 1.0]]),
    "line": Cone.rays([[1.0, -2.0], [-1.0, 2.0]]),
    "half-plane": Cone.rays([[1.0, 0.0], [-1.0, 0.0], [0.2, 1.0]]),
    "wedge-in-3d": Cone.rays([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
    "trivial": Cone.rays(np.zeros((0, 2)), dim=2),
    "whole-space": Cone.rays([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
}


class TestRayFacets:
    """Facet rows of ray cones (double description of the positive dual),
    checked against projection distances on a lattice."""

    @staticmethod
    def lattice(dim):
        resolution = 41 if dim == 2 else 21
        pts = grid_points(np.full(dim, -3.0), np.full(dim, 3.0), resolution)
        return pts, 6.0 / (resolution - 1)

    @pytest.mark.parametrize("name", RAY_CONES)
    def test_facets_match_lattice_membership(self, name):
        cone = RAY_CONES[name]
        pts, _ = self.lattice(cone.dim)
        by_distance = distance_many(cone, pts) <= 1e-9
        by_facets = np.min(pts @ cone.facets().T, axis=1, initial=np.inf) >= -1e-9
        assert np.array_equal(by_distance, by_facets)
        assert_allclose(np.linalg.norm(cone.facets(), axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("name", RAY_CONES)
    def test_interior_contains_matches_lattice(self, name):
        """A ball of radius ``margin`` fits around p iff no lattice point
        within ``margin`` of p lies outside (up to the lattice spacing)."""
        cone, margin = RAY_CONES[name], 0.5
        pts, spacing = self.lattice(cone.dim)
        outside = pts[distance_many(cone, pts) > 1e-9]
        slack = spacing * np.sqrt(cone.dim)
        probes = pts[np.max(np.abs(pts), axis=1) <= 3.0 - margin - slack][::5]
        for p in probes:
            gaps = np.linalg.norm(outside - p, axis=1)
            nearest_out = float(np.min(gaps, initial=np.inf))
            if cone.interior_contains(p, margin):
                assert nearest_out >= margin - 1e-9
            else:
                assert nearest_out <= margin + slack

    def test_facets_are_cached_and_read_only(self):
        cone = Cone.rays([[1.0, 0.2], [0.3, 1.0]])
        assert cone.facets() is cone.facets()
        with pytest.raises(ValueError):
            cone.facets()[0, 0] = 2.0

    def test_large_ray_cones_have_facets(self):
        """Past 4 dimensions or 12 generators double description still
        enumerates the facets, within its cap of 64: the orthant of R^5 as
        a ray cone has the axes as facets, and a ring of 13 generators has
        13 facets, each tight at 2 neighbouring generators."""
        orthant = Cone.rays(np.eye(5))
        facets = orthant.facets()
        assert_allclose(facets[np.argsort(np.argmax(facets, axis=1))], np.eye(5), atol=1e-12)
        assert_allclose(orthant.linear_preimage(np.eye(5)).rows @ np.ones(5),
                        np.ones(5), atol=1e-12)
        ring = Cone.rays([[np.cos(t), np.sin(t), 1.0]
                          for t in np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False)])
        values = ring.facets() @ ring.gens.T
        assert values.shape == (13, 13) and np.min(values) >= -1e-12
        assert np.all(np.sum(np.abs(values) <= 1e-12, axis=1) == 2)
        assert ring.linear_preimage(np.eye(3)).rows.shape == (13, 3)


class TestConstruction:
    def test_empty_halfspaces_rejected(self):
        with pytest.raises(DimensionError, match="whole_space"):
            Cone.halfspaces(np.zeros((0, 2)))

    def test_whole_space(self):
        cone = Cone.whole_space(3)
        assert cone.contains([-5.0, 2.0, 0.0])
        assert_allclose(cone.project([-5.0, 2.0, 0.0]), [-5.0, 2.0, 0.0])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row"):
            Cone.halfspaces([[0.0, 0.0], [1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Cone.orthant(2).contains([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_normalized_rows_are_bit_stable(self, dim):
        """Rebuilding a cone from its own unit rows, as a saved and reloaded
        problem does, changes no bit of the rows or generators."""
        rng = np.random.default_rng(dim)
        for _ in range(200):
            rows = rng.standard_normal((3, dim))
            for build, field in ((Cone.halfspaces, "rows"), (Cone.rays, "gens")):
                once = getattr(build(rows), field)
                assert np.array_equal(getattr(build(once), field), once)


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


def batch_cases():
    """Halfspace and ray cones, with more rows than dimensions among them,
    each with a batch of points that holds the zero point and cone members."""
    rng = np.random.default_rng(11)
    cones = [Cone.halfspaces(rng.standard_normal((8, 2))),
             Cone.halfspaces(rng.standard_normal((3, 3))),
             Cone.rays(rng.standard_normal((5, 3))),
             Cone.rays(rng.standard_normal((2, 4))),
             Cone.rays([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
             Cone.whole_space(3),
             Cone.rays(np.zeros((0, 2)), dim=2)]
    for cone in cones:
        points = rng.standard_normal((40, cone.dim)) * 2.0
        points[0] = 0.0
        points[1:6] = [cone.project(z) for z in points[1:6]]
        yield cone, points


class TestBatchedProjection:
    """One batched NNLS call gives each row exactly what a one-row call gives."""

    def test_batch_equals_row_calls(self):
        for cone, points in batch_cases():
            projections = project_many(cone, points)
            assert np.array_equal(projections, [cone.project(z) for z in points])
            assert np.array_equal(distance_many(cone, points),
                                  [cone.distance(z) for z in points])

    @pytest.mark.parametrize("budget", (0, 1, 2, 3))
    def test_budget_exhaustion_in_a_batch(self, monkeypatch, budget):
        """The error describes the first unfinished row, as a one-row call
        on that row would; rows that finish within the budget are skipped.
        A batch whose rows all finish equals its one-row calls.  The 4-D
        points (4, 3, 2, 1) and its negative need four entering steps, so
        every budget here leaves a row unfinished."""
        tri = np.tril(np.ones((4, 4)))
        plane = np.array([[0.0, 1.0], [0.0, -1.0], [2.0, 3.0], [-1.0, -2.0], [1.0, 0.0]])
        space = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 2.0, 0.5],
                          [4.0, 3.0, 2.0, 1.0], [-4.0, -3.0, -2.0, -1.0]])
        cases = ((Cone.halfspaces([[-1.0, 1.0], [1.0, 1.0]]), plane),
                 (Cone.rays([[1.0, 0.0], [1.0, 1.0]]), plane),
                 (Cone.halfspaces(tri), space), (Cone.rays(tri), space))
        monkeypatch.setattr(cones_mod, "PROJECTION_BUDGET", budget)
        raised = 0
        for cone, points in cases:
            alone = None
            for z in points:
                try:
                    cone.project(z)
                except ConvergenceError as exc:
                    alone = exc
                    break
            if alone is None:
                assert np.array_equal(distance_many(cone, points),
                                      [cone.distance(z) for z in points])
                continue
            with pytest.raises(ConvergenceError) as err:
                distance_many(cone, points)
            assert err.value.last_iterate is not None
            assert err.value.residual is not None
            assert np.array_equal(err.value.last_iterate, alone.last_iterate)
            assert err.value.residual == alone.residual
            raised += 1
        assert raised >= 2


def nnls_programs(seed, count):
    """Seeded NNLS programs (gens, z), with generators in dimension 1-7, in
    four shapes taken in turn: 1-12 random generators, a later one a
    multiple of the first and another a repeat of the second, with a random
    target; the same with a zero target; the least_distance program of a
    random system g y >= h; and that of nearest_hull_point, whose h is 1 on
    its points and 0 on its rays."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = i % 4
        if shape < 2:
            dim = int(rng.integers(1, 8))
            gens = rng.standard_normal((int(rng.integers(1, 13)), dim))
            if gens.shape[0] > 2:
                gens[-1] = rng.uniform(0.5, 2.0) * gens[0]
            if gens.shape[0] > 3:
                gens[-2] = gens[1]
            z = np.zeros(dim) if shape else rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            yield gens, z
            continue
        n, rows = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        g = rng.standard_normal((rows, n))
        if shape == 2:
            h = rng.standard_normal(rows)
        else:
            h = (np.arange(rows) < int(rng.integers(1, rows + 1))).astype(float)
        z = np.zeros(n + 1)
        z[-1] = 1.0
        yield np.column_stack([g, h]), z


class TestRowLoop:
    """The one-point loop and the lockstep path are one iteration: below
    dimension 8 each rounds every program exactly like the other."""

    def test_lockstep_pair_equals_the_row_loop(self):
        """Two copies of a point run the lockstep path on that point's
        pattern; both rows equal the one-row call bit for bit."""
        for gens, z in nnls_programs(35, 1_200):
            alone = _nnls(gens, z[None])
            pair = _nnls(gens, np.vstack([z, z]))
            assert alone.shape == (1, gens.shape[0])
            assert np.array_equal(pair[0], alone[0]) and np.array_equal(pair[1], alone[0])

    def test_mixed_batch_rows_equal_the_row_loop(self):
        """Every row of a batch mixing zero points, cone members and random
        points at several scales equals its one-row call."""
        rng = np.random.default_rng(135)
        for dim in range(1, 8):
            for count in (1, dim, dim + 3, 12):
                gens = rng.standard_normal((count, dim))
                points = rng.standard_normal((30, dim)) * 10.0 ** rng.uniform(-3, 3, (30, 1))
                points[0] = 0.0
                points[1:5] = rng.uniform(0.0, 2.0, (4, count)) @ gens
                batch = _nnls(gens, points)
                for z, row in zip(points, batch):
                    assert np.array_equal(row, _nnls(gens, z[None])[0]), (dim, count)


class TestOverflow:
    """Norms whose squares overflow (entries past about 1.34e154) are taken
    of the row scaled by its largest absolute entry, so distances and the
    NNLS tolerance stay finite; nothing warns (warnings are errors here)."""

    CONES = (Cone.halfspaces([[1.0, 0.0], [0.0, 1.0]]), Cone.rays([[1.0, 0.0], [0.0, 1.0]]),
             Cone.orthant(2))

    @pytest.mark.parametrize("cone", CONES, ids=lambda c: c.kind)
    def test_projection_and_distance(self, cone):
        z = np.array([1e154, -1e154])
        assert np.array_equal(cone.project(z), [1e154, 0.0])
        assert cone.distance(z) == 1e154
        assert not cone.contains(z)
        assert cone.distance([-1e200, 3.0]) == 1e200
        assert cone.distance([-1e154, -1e154]) == pytest.approx(math.sqrt(2.0) * 1e154,
                                                                 rel=1e-15)
        points = np.array([[1e154, -1e154], [-1e200, 3.0], [1.0, -1.0], [2.0, 3.0]])
        assert np.array_equal(distance_many(cone, points),
                              [cone.distance(p) for p in points])
        assert distance_many(cone, points)[2] == 1.0

    def test_orthant_nonfinite_rows_keep_their_values(self):
        points = np.array([[-np.inf, 1.0], [np.inf, -1e200], [np.nan, -1e200]])
        got = distance_many(Cone.orthant(2), points)
        assert got[0] == np.inf and got[1] == 1e200 and np.isnan(got[2])

    def test_norms_rescale_only_overflowing_rows(self):
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((400, 5)) * 10.0 ** rng.integers(-150, 200, (400, 1))
        rows[:3] = [[np.inf, 1.0, 0.0, 0.0, 0.0], [np.nan, 1e200, 0.0, 0.0, 0.0],
                    [1e308, 1e308, 1e308, 1e308, 1e308]]
        got = _norms(rows)
        with np.errstate(over="ignore"):
            plain = np.array([np.linalg.norm(row) for row in rows])
        big = np.isinf(plain) & np.isfinite(rows).all(axis=1)
        assert big[3:].any() and (~big[3:]).any()
        assert np.array_equal(got[~big], plain[~big], equal_nan=True)
        assert got[0] == np.inf and np.isnan(got[1]) and got[2] == np.inf
        assert_allclose(got[big][1:], [math.hypot(*row) for row in rows[big][1:]], rtol=1e-15)

    def test_unit_rows_past_the_square_overflow(self):
        """A cone or region row past about 1.34e154 becomes a unit row, not
        a zero row; a row whose np.linalg.norm is finite keeps that divisor
        bit for bit."""
        rows = [[1e200, 1e200], [0.0, 1.0]]
        unit = [[math.sqrt(0.5), math.sqrt(0.5)], [0.0, 1.0]]
        region = PolyhedralSet.halfspaces(rows, [1e200, 2.0])
        for got in (Cone.halfspaces(rows).rows, Cone.rays(rows).gens, region.a):
            assert_allclose(got, unit, rtol=1e-15, atol=0.0)
        assert_allclose(region.b, [math.sqrt(0.5), 2.0], rtol=1e-15)
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-10, 154, (300, 1))
        units, norms = _unit_rows(rows, "rows")
        plain = np.linalg.norm(rows, axis=1)
        plain[np.abs(plain - 1.0) <= 4.0 * np.finfo(float).eps] = 1.0
        assert np.array_equal(norms, plain)
        assert np.array_equal(units, rows / plain[:, None])


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
        for cone in [Cone.orthant(3), Cone.halfspaces(rng.standard_normal((4, 3))),
                     Cone.rays(rng.standard_normal((3, 3))),
                     Cone.rays(rng.standard_normal((2, 3)))]:
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
