"""Metric increase sampling, descent constants, and the error bound."""

import numpy as np
import pytest

import rvopt.regularity
from rvopt.cones import Cone, distance_many
from rvopt.errors import PreconditionError
from rvopt.firstorder import PolyhedralSet
from rvopt.regularity import (INCREASE_CAP, INCREASE_FLOOR, check_metric_increase,
                              cq_sigma, estimate_increase_bound, verify_error_bound)
from rvopt.sampling import ball_points, sphere_directions
from rvopt.scenarios import ScenarioMap

from conftest import shifted_pair_scenarios

CONE = Cone.orthant(2)
PLANE = PolyhedralSet.whole_space(2)


def identity_scenario():
    return ScenarioMap(mats=np.eye(2), offsets=np.zeros((1, 2)))


class TestMetricIncrease:
    """For one identity scenario against the plane orthant the largest
    workable rate is 1 + 1/sqrt(2) ~ 1.707: the step budget r must cover
    the enlarged ball alpha r around the image along the worst axis."""

    def test_moderate_rates_pass(self):
        for alpha in (1.2, 1.5, 1.7):
            rep = check_metric_increase(identity_scenario(), CONE, PLANE,
                                        [0.0, 0.0], alpha, 0.5)
            assert rep.passed, alpha
            assert rep.witness is None

    def test_rates_beyond_the_threshold_fail(self):
        for alpha in (1.75, 5.0):
            rep = check_metric_increase(identity_scenario(), CONE, PLANE,
                                        [0.0, 0.0], alpha, 0.5)
            assert not rep.passed
            probe, r = rep.witness
            assert r > 0.0 and probe.shape == (2,)

    def test_pass_set_is_monotone_in_alpha(self):
        """Once a rate fails, every larger rate fails too."""
        outcomes = [check_metric_increase(identity_scenario(), CONE, PLANE,
                                          [0.0, 0.0], a, 0.5).passed
                    for a in (1.2, 1.5, 1.7, 1.75, 2.5, 5.0)]
        seen_failure = False
        for ok in outcomes:
            if not ok:
                seen_failure = True
            assert not (seen_failure and ok)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_metric_increase(identity_scenario(), CONE, PLANE,
                                  [0.0, 0.0], 1.0, 0.5)
        with pytest.raises(PreconditionError):
            check_metric_increase(identity_scenario(), CONE, PLANE,
                                  [0.0, 0.0], 1.5, 0.0)
        box = PolyhedralSet.box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(PreconditionError, match="outside the region"):
            check_metric_increase(identity_scenario(), CONE, box,
                                  [5.0, 5.0], 1.5, 0.5)


SAMPLES = dict(point_samples=3, radius_levels=2, step_dirs=6, boundary_dirs=8)


def increase_oracle(smap, cone, region, x, alpha, radius, point_samples,
                    radius_levels, step_dirs, boundary_dirs, tol=1e-9):
    """The sampled increase check with one cone.distance call per point:
    returns (passed, witness) for the same samples the checker draws."""
    x = np.asarray(x, dtype=float)
    probes = [x] + [region.project(p) for p in ball_points(x, radius, point_samples)]
    steps = sphere_directions(x.size, step_dirs)
    sphere = sphere_directions(smap.image_dim, boundary_dirs)
    for probe in probes:
        base = smap.evaluate(probe).points
        for k in range(radius_levels):
            r = radius * 0.75 / 2.0 ** k
            candidates = [probe] + [region.project(probe + r * d) for d in steps]
            if not any(all(min(cone.distance(g + alpha * r * s - q) for q in base) <= r + tol
                           for g in smap.evaluate(z).points for s in sphere)
                       for z in candidates):
                return False, (probe, r)
    return True, None


class TestIncreaseOnGeneralCones:
    """Halfspace and ray cones reach the batched projection kernel, whose
    verdicts and witnesses must match a per-point distance loop."""

    smap = ScenarioMap(mats=np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]),
                       offsets=np.array([[0.0, 0.0], [0.1, -0.1]]))

    @pytest.mark.parametrize("cone, x, alphas", [
        (Cone.halfspaces([[-1.0, 2.0], [1.0, 1.0]]), [1.0, -1.0], (1.2, 1.5, 1.7, 2.0)),
        (Cone.rays([[1.0, 0.2], [0.3, 1.0]]), [0.5, 1.0], (1.1, 1.3, 1.6, 3.0)),
    ], ids=["halfspaces", "rays"])
    def test_matches_per_point_oracle(self, cone, x, alphas):
        outcomes = set()
        for alpha in alphas:
            rep = check_metric_increase(self.smap, cone, PLANE, x, alpha, 0.5, **SAMPLES)
            passed, witness = increase_oracle(self.smap, cone, PLANE, x, alpha, 0.5,
                                              **SAMPLES)
            assert rep.passed == passed, alpha
            if witness is None:
                assert rep.witness is None
            else:
                assert np.array_equal(rep.witness[0], witness[0])
                assert rep.witness[1] == witness[1]
            outcomes.add(passed)
        assert outcomes == {True, False}


def increase_pair_loop(smap, cone, region, x, alpha, radius, point_samples,
                       radius_levels, step_dirs, boundary_dirs, tol=1e-9):
    """The increase check drawn afresh for one alpha, one distance call per
    (probe, r) pair in checking order: returns (passed, witness)."""
    x = np.asarray(x, dtype=float)
    probes = [x] + [region.project(p) for p in ball_points(x, radius, point_samples)]
    steps = sphere_directions(x.size, step_dirs)
    sphere = sphere_directions(smap.image_dim, boundary_dirs)
    for probe in probes:
        base = smap.evaluate(probe).points
        for k in range(radius_levels):
            r = radius * 0.75 / 2.0 ** k
            cands = np.array([probe] + [region.project(probe + r * d) for d in steps])
            images = np.matmul(smap.mats[None], cands[:, None, :, None])[..., 0] + smap.offsets
            diffs = (images[:, :, None, :] + alpha * r * sphere)[:, :, :, None, :] - base
            dist = distance_many(cone, diffs.reshape(-1, base.shape[1]))
            worst = dist.reshape(diffs.shape[:-1]).min(axis=3).max(axis=(1, 2))
            if not np.any(worst <= r + tol):
                return False, (probe, r)
    return True, None


def bisection_loop(smap, cone, region, x, radius, resolution=0.01, **samples):
    """The increase bisection over ``increase_pair_loop``."""
    def passes(alpha):
        return increase_pair_loop(smap, cone, region, x, alpha, radius, **samples)[0]

    if not passes(INCREASE_FLOOR):
        return None
    if passes(INCREASE_CAP):
        return INCREASE_CAP
    lo, hi = INCREASE_FLOOR, INCREASE_CAP
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


class TestSharedIncreaseSamples:
    """Samples drawn once and tested per alpha in chunks of pairs give the
    verdicts, witnesses and estimates of the per-pair loop, whatever the
    chunk size."""

    cones = {"orthant": Cone.orthant(2),
             "halfspaces": Cone.halfspaces([[-1.0, 2.0], [1.0, 1.0]]),
             "rays": Cone.rays([[1.0, 0.2], [0.3, 1.0]])}
    regions = {"box": PolyhedralSet.box([-np.inf, 0.0], [1.5, np.inf]),
               "halfspaces": PolyhedralSet.halfspaces([[1.0, 1.0], [-1.0, 0.4]],
                                                      [1.8, -0.5])}
    x = np.array([1.2, 0.3])          # within 0.5 of every region's boundary

    @staticmethod
    def smap(w):
        rng = np.random.default_rng(0)
        return ScenarioMap(np.eye(2) + 0.3 * rng.standard_normal((w, 2, 2)),
                           0.2 * rng.standard_normal((w, 2)))

    @staticmethod
    def patch_chunks(monkeypatch, w, chunk_pairs):
        """Chunks of one pair (budget 1 entry) or of ``chunk_pairs`` pairs."""
        if chunk_pairs is not None:
            per_pair = (SAMPLES["step_dirs"] + 1) * w * 2 * SAMPLES["boundary_dirs"] * w
            monkeypatch.setattr(rvopt.regularity, "_CHUNK_ENTRIES",
                                max(1, chunk_pairs * per_pair))

    @pytest.mark.parametrize("chunk_pairs", [0, 3, None], ids=["one", "three", "default"])
    @pytest.mark.parametrize("region", ["box", "halfspaces"])
    @pytest.mark.parametrize("w", [1, 3])
    @pytest.mark.parametrize("kind", ["orthant", "halfspaces", "rays"])
    def test_check_and_estimate_match_the_pair_loop(self, monkeypatch, kind, w,
                                                    region, chunk_pairs):
        self.patch_chunks(monkeypatch, w, chunk_pairs)
        smap, cone, reg = self.smap(w), self.cones[kind], self.regions[region]
        for alpha in (1.1, 1.3, 1.6, 2.0, 3.0):
            rep = check_metric_increase(smap, cone, reg, self.x, alpha, 0.5, **SAMPLES)
            passed, witness = increase_pair_loop(smap, cone, reg, self.x, alpha, 0.5,
                                                 **SAMPLES)
            assert rep.passed == passed, alpha
            if witness is None:
                assert rep.witness is None
            else:
                assert np.array_equal(rep.witness[0], witness[0])
                assert rep.witness[1] == witness[1]
        assert estimate_increase_bound(smap, cone, reg, self.x, 0.5, **SAMPLES) \
            == bisection_loop(smap, cone, reg, self.x, 0.5, **SAMPLES)

    @pytest.mark.parametrize("chunk_pairs", [0, 3, None], ids=["one", "three", "default"])
    def test_failure_after_pair_zero(self, monkeypatch, chunk_pairs):
        """At alpha 1.3 the single-scenario orthant case passes its first six
        pairs and fails on the seventh (probe 3, the larger radius)."""
        self.patch_chunks(monkeypatch, 1, chunk_pairs)
        smap, cone, reg = self.smap(1), self.cones["orthant"], self.regions["box"]
        rep = check_metric_increase(smap, cone, reg, self.x, 1.3, 0.5, **SAMPLES)
        probes = [self.x] + [reg.project(p) for p in ball_points(self.x, 0.5, 3)]
        assert not rep.passed
        assert np.array_equal(rep.witness[0], probes[3])
        assert rep.witness[1] == 0.375
        assert increase_pair_loop(smap, cone, reg, self.x, 1.3, 0.5, **SAMPLES)[0] is False


class TestIncreaseEstimate:
    def test_shifted_pair_estimate_frozen(self):
        """Bisection lands just under the theoretical threshold."""
        est = estimate_increase_bound(shifted_pair_scenarios(), CONE, PLANE,
                                      [0.25, 1.0], 0.5, seed=0)
        assert est == pytest.approx(1.704046875, abs=1e-12)
        assert 1.3 <= est <= 1.0 + 1.0 / np.sqrt(2.0) + 1e-9

    def test_boxed_corner_has_no_bound(self):
        """At the top corner of the box no step direction can absorb the
        enlarged image ball, so no rate above 1 is certifiable."""
        box = PolyhedralSet.box([0.0, 0.0], [2.0, 2.0])
        est = estimate_increase_bound(shifted_pair_scenarios(), CONE, box,
                                      [2.0, 2.0], 0.5, seed=0)
        assert est is None


class TestDescentConstant:
    def test_sigma_from_rate(self):
        assert cq_sigma(1.5) == pytest.approx(0.5)
        assert cq_sigma(2.0) == pytest.approx(1.0)

    def test_rejects_unusable_rates(self):
        with pytest.raises(PreconditionError):
            cq_sigma(1.0)
        with pytest.raises(PreconditionError):
            cq_sigma(None)


class TestErrorBound:
    smap = shifted_pair_scenarios()

    def test_holds_on_the_feasible_boundary(self):
        rep = verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                                 sigma=0.9, radius=0.5, resolution=41)
        assert rep.passed
        assert rep.max_violation == pytest.approx(-0.05, abs=1e-9)
        assert rep.slack == pytest.approx(0.05)
        assert rep.witness is None

    def test_overconfident_sigma_fails(self):
        rep = verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                                 sigma=100.0, radius=0.5, resolution=41)
        assert not rep.passed
        assert rep.max_violation == pytest.approx(0.1975, abs=1e-9)
        np.testing.assert_allclose(rep.witness, [1.0, -0.25])

    def test_certified_sigma_chain(self):
        """The estimated rate minus one is a working descent constant."""
        est = estimate_increase_bound(self.smap, CONE, PLANE, [0.25, 1.0],
                                      0.5, seed=0)
        rep = verify_error_bound(self.smap, CONE, PLANE, [0.25, 1.0],
                                 cq_sigma(est), radius=0.5, resolution=101)
        assert rep.passed

    def test_feasible_points_have_zero_gap(self):
        """On feasible lattice points both sides of the bound vanish."""
        pts = np.array([[x1, x2] for x1 in np.linspace(0.5, 1.0, 6)
                        for x2 in np.linspace(0.0, 0.5, 6)])
        phi = self.smap.merit_many(CONE, pts)
        np.testing.assert_allclose(phi, np.zeros(len(pts)), atol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(PreconditionError):
            verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                               sigma=0.0, radius=0.5)

    def test_needs_feasible_lattice_points(self):
        far = [-50.0, -50.0]
        with pytest.raises(PreconditionError, match="no feasible lattice"):
            verify_error_bound(self.smap, CONE, PLANE, far,
                               sigma=0.5, radius=0.5, resolution=11)
