"""Scenario families, their merit function, and set distances."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvopt import cones
from rvopt.cones import Cone
from rvopt.errors import DimensionError
from rvopt.firstorder import AffineObjective, fan_from_scenarios
from rvopt.scenarios import ScenarioMap

from conftest import shifted_pair_scenarios
from setvalued import excess, hausdorff, lipschitz_bound


def orthant_distance(z):
    """Independent distance formula: norm of the negative part."""
    z = np.asarray(z, dtype=float)
    return float(np.linalg.norm(np.minimum(z, 0.0)))


def merit_by_hand(scenario_map, x):
    """Reference merit: max over scenarios of the orthant distance."""
    worst = 0.0
    for a, b in zip(scenario_map.mats, scenario_map.offsets):
        worst = max(worst, orthant_distance(a @ np.asarray(x, float) + b))
    return worst


class TestEvaluate:
    def test_shifted_pair_images(self):
        smap = shifted_pair_scenarios()
        images = smap.evaluate([1.0, 1.0])
        assert images.shape == (2, 2)
        assert_allclose(images, [[1.0, 1.0], [0.5, 1.0]])

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            shifted_pair_scenarios().evaluate([1.0, 2.0, 3.0])

    def test_single_matrix_promoted(self):
        smap = ScenarioMap(mats=np.eye(2), offsets=np.zeros((1, 2)))
        assert smap.scenario_count == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ScenarioMap(mats=np.array([np.eye(2)]), offsets=np.zeros((2, 2)))


class TestMerit:
    """Frozen values for the shifted identity pair against the orthant.

    The binding scenario is the one shifted by (-0.5, 0), so the merit is
    dist((x1 - 0.5, x2), orthant).
    """

    cone = Cone.orthant(2)
    smap = shifted_pair_scenarios()

    def test_feasible_point_scores_zero(self):
        assert self.smap.merit(self.cone, [1.0, 1.0]) == 0.0

    def test_boundary_violation(self):
        assert self.smap.merit(self.cone, [0.25, 1.0]) == pytest.approx(0.25, abs=1e-12)

    def test_two_sided_violation(self):
        assert self.smap.merit(self.cone, [0.0, -1.0]) == pytest.approx(
            np.sqrt(1.25), abs=1e-12)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(21)
        for x in rng.standard_normal((50, 2)) * 2.0:
            assert self.smap.merit(self.cone, x) == pytest.approx(
                merit_by_hand(self.smap, x), abs=1e-12)

    def test_merit_many_matches_scalar(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((64, 2)) * 2.0
        many = self.smap.merit_many(self.cone, pts)
        assert_allclose(many, [self.smap.merit(self.cone, p) for p in pts],
                        atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 100, cones.WORK_BYTES])
    @pytest.mark.parametrize("kind", ["orthant", "halfspaces", "rays"])
    def test_merit_many_rounds_like_merit(self, monkeypatch, kind, budget):
        """Bit for bit, not only close: the batched images must round each
        row as ``evaluate`` does, for every dimension and scenario count,
        so the values equal the excess of the evaluated image over the cone;
        in row blocks of one point, of a few points (the last one short),
        or of the default budget."""
        monkeypatch.setattr(cones, "WORK_BYTES", budget)
        rng = np.random.default_rng(23)
        for n in range(1, 6):
            for w in range(1, 5):
                vecs = rng.standard_normal((n + 1, n)) + 2.0
                cone = {"orthant": Cone.orthant(n), "halfspaces": Cone.halfspaces(vecs),
                        "rays": Cone.rays(vecs)}[kind]
                smap = ScenarioMap(rng.standard_normal((w, n, n)),
                                   rng.standard_normal((w, n)))
                pts = 3.0 * rng.standard_normal((24, n))
                assert np.array_equal(smap.merit_many(cone, pts),
                                      [excess(smap.evaluate(p), cone) for p in pts]), (n, w)
                assert [smap.merit(cone, p) for p in pts] \
                    == [excess(smap.evaluate(p), cone) for p in pts], (n, w)

    def test_nonnegative_and_zero_set_exact(self):
        """merit == 0 exactly on {x1 >= 0.5, x2 >= 0}."""
        grid = np.array([[x1, x2] for x1 in np.linspace(-1, 2, 31)
                         for x2 in np.linspace(-1, 2, 31)])
        vals = self.smap.merit_many(self.cone, grid)
        assert np.all(vals >= 0.0)
        inside = (grid[:, 0] >= 0.5) & (grid[:, 1] >= 0.0)
        assert np.array_equal(vals <= 1e-9, inside)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x, y = rng.standard_normal((2, 2)) * 3.0
            mid = self.smap.merit(self.cone, 0.5 * (x + y))
            avg = 0.5 * (self.smap.merit(self.cone, x)
                         + self.smap.merit(self.cone, y))
            assert mid <= avg + 1e-9

    def test_global_lipschitz_bound(self):
        smap = ScenarioMap(mats=np.array([[[2.0, 0.0], [0.0, 1.0]],
                                          [[1.0, 1.0], [0.0, 1.0]]]),
                           offsets=np.array([[0.0, -1.0], [0.5, 0.0]]))
        lip = lipschitz_bound(fan_from_scenarios(smap))
        assert lip == pytest.approx(2.0, abs=1e-9)
        rng = np.random.default_rng(24)
        cone = Cone.orthant(2)
        for _ in range(100):
            x, y = rng.standard_normal((2, 2)) * 2.0
            gap = abs(smap.merit(cone, x) - smap.merit(cone, y))
            assert gap <= lip * np.linalg.norm(x - y) + 1e-8


    def test_dimensions_checked(self):
        with pytest.raises(DimensionError):
            self.smap.merit(Cone.orthant(3), [1.0, 1.0])
        with pytest.raises(DimensionError):
            self.smap.merit(self.cone, [1.0, 1.0, 1.0])
        with pytest.raises(DimensionError):
            self.smap.merit_many(self.cone, np.ones((4, 3)))


def column_order_sum(coefs, point, offset):
    """((coefs[0] p_0 + coefs[1] p_1) + ...) + offset in Python floats."""
    total = coefs[0] * point[0]
    for coef, coord in zip(coefs[1:], point[1:]):
        total = total + coef * coord
    return total + offset


def orthant_excess(image):
    """Sequential sum of the squared negative parts, then the root; where
    that sum overflows on finite parts, the same with the parts divided by
    the largest of them, times it."""
    parts = [v if v < 0.0 or math.isnan(v) else 0.0 for v in image]
    total = 0.0
    for part in parts:
        total = total + part * part
    if math.isinf(total) and all(map(math.isfinite, parts)):
        scale = max(map(abs, parts))
        total = 0.0
        for part in parts:
            total = total + (part / scale) * (part / scale)
        return scale * math.sqrt(total)
    return math.sqrt(total) if not math.isnan(total) else math.nan


def same_bits(got, expect):
    """Equal bit patterns, except that any NaN matches any NaN."""
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    nan = np.isnan(expect)
    return (got.shape == expect.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), expect[~nan].view(np.int64)))


class TestColumnOrder:
    """Scenario images, merit values and affine objective values are summed
    in a fixed column order with no BLAS call, so they equal a plain Python
    float loop in that order, bit for bit, whatever the host's BLAS."""

    SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, -2.2e-308, 1e300, -1e300])

    def sprinkle(self, rng, arr):
        mask = rng.random(arr.shape) < 0.15
        arr[mask] = rng.choice(self.SPECIAL, size=np.count_nonzero(mask))
        return arr

    def cases(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            w, m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
            scale = 10.0 ** rng.integers(-3, 4, (w, m, n))
            mats = self.sprinkle(rng, rng.standard_normal((w, m, n)) * scale)
            offsets = self.sprinkle(rng, rng.standard_normal((w, m)))
            pts = self.sprinkle(rng, 3.0 * rng.standard_normal((int(rng.integers(1, 7)), n)))
            yield ScenarioMap(mats, offsets), pts

    def test_images_merit_and_values_equal_the_float_loop(self):
        for smap, pts in self.cases():
            w, m, _ = smap.mats.shape
            k = pts.shape[0]
            expect = np.empty((m, w * k))
            for wi in range(w):
                for r in range(k):
                    for i in range(m):
                        expect[i, wi * k + r] = column_order_sum(
                            smap.mats[wi, i].tolist(), pts[r].tolist(), float(smap.offsets[wi, i]))
            merit = []
            for r in range(k):
                dists = [orthant_excess(expect[:, wi * k + r].tolist()) for wi in range(w)]
                merit.append(math.nan if any(map(math.isnan, dists)) else max([0.0] + dists))
            objective = AffineObjective(smap.mats[0], smap.offsets[0])
            with np.errstate(over="ignore", invalid="ignore"):
                assert same_bits(smap.images(pts), expect), smap.mats.shape
                assert same_bits(smap.merit_many(Cone.orthant(m), pts), merit), smap.mats.shape
                assert same_bits(objective.value_many(pts), expect[:, :k].T), smap.mats.shape

    def test_one_row_calls_equal_the_batch_rows(self):
        for smap, pts in self.cases():
            w, m, _ = smap.mats.shape
            k = pts.shape[0]
            cone = Cone.orthant(m)
            objective = AffineObjective(smap.mats[-1], smap.offsets[-1])
            with np.errstate(over="ignore", invalid="ignore"):
                images = smap.images(pts).reshape(m, w, k)
                merit = smap.merit_many(cone, pts)
                values = objective.value_many(pts)
                for r, p in enumerate(pts):
                    assert same_bits(smap.evaluate(p), images[:, :, r].T)
                    assert same_bits(smap.merit(cone, p), merit[r])
                    assert same_bits(objective.value(p), values[r])


class TestSetDistances:
    def test_excess_over_cone(self):
        cloud = np.array([[-1.0, 0.0], [0.0, -2.0]])
        assert excess(cloud, Cone.orthant(2)) == pytest.approx(2.0)

    def test_excess_over_cloud(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0]])
        assert excess(a, b) == pytest.approx(1.0)
        assert excess(b, a) == pytest.approx(0.0)

    def test_excess_over_minkowski_sum(self):
        """dist to {p} + orthant can use either anchor point."""
        base = np.array([[0.0, 0.0], [2.0, -1.0]])
        cloud = np.array([[2.0, -0.5]])
        assert excess(cloud, (base, Cone.orthant(2))) == pytest.approx(0.0)
        below = np.array([[-1.0, -1.0]])
        assert excess(below, (base, Cone.orthant(2))) == pytest.approx(np.sqrt(2.0))

    def test_hausdorff_two_singletons(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert hausdorff(a, b) == pytest.approx(5.0)

    def test_hausdorff_symmetry_and_identity(self):
        rng = np.random.default_rng(25)
        a = np.array(rng.standard_normal((5, 3)))
        b = np.array(rng.standard_normal((4, 3)))
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))
        assert hausdorff(a, a) == 0.0

    def test_hausdorff_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hausdorff(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))
