"""Metric increase sampling, the exact local error-bound modulus, and the
lattice error bound."""

import numpy as np
import pytest

import rvopt.regularity
from rvopt.certificates import convex_scalarized_certificate
from rvopt.cones import Cone, distance_many
from rvopt.errors import PreconditionError
from rvopt.firstorder import AffineObjective, PolyhedralSet
from rvopt.docio import load_problem
from rvopt.problem import Problem
from rvopt.regularity import (INCREASE_CAP, INCREASE_FLOOR, SUBSET_BUDGET, _distance_passes,
                              _tie_shell_min, check_metric_increase,
                              estimate_increase_bound, local_error_bound,
                              verify_error_bound)
from rvopt.reporting import run_report
from rvopt.sampling import ball_points, grid_points, sphere_directions
from rvopt.scenarios import ScenarioMap

from conftest import PROBLEMS_DIR, shifted_pair_scenarios

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


    @staticmethod
    def spy_full_tests(monkeypatch):
        """Record, call by call, the pairs tested with every candidate."""
        calls = []
        inner = rvopt.regularity._candidate_passes

        def spy(samples, cone, alpha, tol, pairs, candidates):
            for chunk, passes in inner(samples, cone, alpha, tol, pairs, candidates):
                if candidates == slice(None):
                    calls.append(chunk.tolist())
                yield chunk, passes

        monkeypatch.setattr(rvopt.regularity, "_candidate_passes", spy)
        return calls

    WIDE = dict(SAMPLES, point_samples=8)

    @pytest.mark.parametrize("chunk_pairs", [0, 3, None], ids=["one", "three", "default"])
    @pytest.mark.parametrize("samples, alpha, open_pairs, failed", [
        (SAMPLES, 1.1, [6], None),
        (SAMPLES, 1.15, [6, 7], None),
        (SAMPLES, 1.3, [6], 6),
        (SAMPLES, 1.6, [6, 7], 6),
        (WIDE, 1.1, [6, 14, 15], 14),
        (WIDE, 1.15, [6, 7, 10, 14, 15], 14),
    ], ids=["one-open-passes", "two-open-pass", "open-fails", "first-open-fails",
            "later-open-fails", "many-open-later-fails"])
    def test_open_pairs_fall_back_to_every_candidate(self, monkeypatch, chunk_pairs,
                                                     samples, alpha, open_pairs, failed):
        """Pair 0's first passing candidate fails on the open pairs of the
        single-scenario orthant case, which are then tested with every
        candidate, in order, up to the first failing one."""
        self.patch_chunks(monkeypatch, 1, chunk_pairs)
        calls = self.spy_full_tests(monkeypatch)
        smap, cone, reg = self.smap(1), self.cones["orthant"], self.regions["box"]
        rep = check_metric_increase(smap, cone, reg, self.x, alpha, 0.5, **samples)
        tested = sum(calls[1:], [])
        assert calls[0] == [0]
        if failed is None:
            assert tested == open_pairs
        else:
            assert tested == open_pairs[:len(tested)] and failed in calls[-1]
        passed, witness = increase_pair_loop(smap, cone, reg, self.x, alpha, 0.5, **samples)
        assert rep.passed == passed == (failed is None)
        if witness is None:
            assert rep.witness is None
        else:
            pairs = rvopt.regularity._increase_samples(smap, reg, self.x, 0.5, 0,
                                                       **samples).pairs
            assert np.array_equal(rep.witness[0], witness[0])
            assert np.array_equal(rep.witness[0], pairs[failed][0])
            assert rep.witness[1] == witness[1] == pairs[failed][1]

    @pytest.mark.parametrize("chunk_pairs", [0, 3, None], ids=["one", "three", "default"])
    @pytest.mark.parametrize("kind", ["orthant", "halfspaces", "rays"])
    def test_pair_zero_failure_stops_at_once(self, monkeypatch, kind, chunk_pairs):
        """A rate that fails on pair 0 is decided by that one pair."""
        self.patch_chunks(monkeypatch, 3, chunk_pairs)
        calls = self.spy_full_tests(monkeypatch)
        smap, cone, reg = self.smap(3), self.cones[kind], self.regions["box"]
        rep = check_metric_increase(smap, cone, reg, self.x, 5.0, 0.5, **SAMPLES)
        assert calls == [[0]]
        passed, witness = increase_pair_loop(smap, cone, reg, self.x, 5.0, 0.5, **SAMPLES)
        assert not rep.passed and not passed
        assert np.array_equal(rep.witness[0], witness[0])
        assert np.array_equal(rep.witness[0], self.x)
        assert rep.witness[1] == witness[1] == 0.375

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


def orthant_problem(mats, offsets):
    """Identity objective over the plane with the orthant C and the given
    scenarios."""
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=CONE, constraint_cone=CONE, region=PLANE,
                   scenarios=ScenarioMap(mats, offsets))


def fan_rows_problem(count):
    """Solv = {0}: 2 count unit rows A z >= 0 spread evenly around the
    circle, two per scenario, all active at 0 and of rank 2."""
    angles = np.pi * np.arange(2 * count) / count
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    return orthant_problem(rows.reshape(count, 2, 2), np.zeros((count, 2)))


class TestLocalErrorBound:
    def test_dependent_active_rows_take_the_bases(self):
        """On Solv = {x1 = 0}, cut out by the rows x1 >= 0 and -x1 >= 0, 0
        lies in the hull of the active rows; each single row is a basis,
        and dist(z, Solv) = |z1| = merit(z) gives sigma = 1."""
        problem = orthant_problem([[[1.0, 0.0], [-1.0, 0.0]]], [[0.0, 0.0]])
        bound = local_error_bound(problem, [0.0, 0.3])
        assert (bound.established, bound.sigma, bound.radius, bound.subsets) \
            == (True, 1.0, None, 2)
        assert verify_error_bound(problem.scenarios, CONE, PLANE, [0.0, 0.3], bound.sigma,
                                  0.5, resolution=41).passed

    def test_the_subset_budget(self):
        """22 active rows of rank 2 have 231 pairs, 11 of them parallel, so
        220 bases are tried; 24 rows have 276 pairs, past the budget, and
        the report names it and skips both penalization stages."""
        bound = local_error_bound(fan_rows_problem(11), [0.0, 0.0])
        assert bound.established and bound.subsets == 220 and bound.sigma > 0.0
        problem = fan_rows_problem(12)
        bound = local_error_bound(problem, [0.0, 0.0])
        assert (bound.established, bound.sigma, bound.subsets) == (False, None, 0)
        assert bound.notes == (f"not established: over {SUBSET_BUDGET} subsets of 2 active rows",)
        report = run_report(problem, [0.0, 0.0])
        stages = {s["name"]: s for s in report["stages"]}
        assert stages["error_bound"]["notes"] == list(bound.notes)
        reason = "needs both the error-bound constant and the order-Lipschitz bound"
        assert stages["penalization"]["reason"] == stages["scalarized_convex"]["reason"] == reason
        assert report["audit"][0] == {"hypothesis": "local error bound of the merit function",
                                      "status": "not established"}

    def test_no_active_constraint_row(self, quarter_box):
        """At (1, 1) in [0, 2]^2 with Solv = {x1 >= 0.5, x2 >= 0} no row is
        active and the nearest one is x1 >= 0.5: merit is 0 on the radius
        0.25, sigma is null in the report, and beta = ell / inf = 0."""
        bound = local_error_bound(quarter_box, [1.0, 1.0])
        assert (bound.established, bound.sigma, bound.radius, bound.active_rows) \
            == (True, None, 0.25, ())
        report = run_report(quarter_box, [1.0, 1.0])
        stages = {s["name"]: s for s in report["stages"]}
        assert (stages["error_bound"]["sigma"], stages["error_bound"]["radius"]) == (None, 0.25)
        assert stages["scalarized_convex"]["inputs"]["sigma"] is None
        assert convex_scalarized_certificate(quarter_box, [1.0, 1.0], np.inf, 1.0).beta == 0.0


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
                                 est - 1.0, radius=0.5, resolution=101)
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

    @pytest.mark.parametrize("radius", [0.0, -0.5])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(PreconditionError, match="radius > 0"):
            verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                               sigma=0.5, radius=radius)

    @pytest.mark.parametrize("resolution", [1, 0])
    def test_resolution_needs_two_points_per_axis(self, resolution):
        with pytest.raises(PreconditionError, match="resolution >= 2"):
            verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                               sigma=0.5, radius=0.5, resolution=resolution)

    def test_needs_tested_lattice_points(self):
        """At resolution 2 the lattice is the corners of the radius box, all
        farther than radius / 2 from the centre: nothing would be tested."""
        with pytest.raises(PreconditionError, match="half the radius"):
            verify_error_bound(self.smap, CONE, PLANE, [1.0, 0.0],
                               sigma=0.5, radius=0.5, resolution=2)


def brute_error_bound(smap, cone, region, x, sigma, radius, resolution,
                      feas_tol=1e-9, tol=1e-9):
    """The error-bound check comparing every tested point with every feasible
    lattice point, in blocks of 256: returns (max_violation, passed, witness)."""
    x = np.asarray(x, dtype=float).ravel()
    pts = grid_points(x - radius, x + radius, resolution)
    slack = 2.0 * (2.0 * radius / (resolution - 1))
    in_region = region.contains_many(pts)
    phi = smap.merit_many(cone, pts)
    solv = pts[in_region & (phi <= feas_tol)]
    tested = in_region & (np.linalg.norm(pts - x[None, :], axis=1) <= radius / 2.0)
    sample_pts, sample_phi = pts[tested], phi[tested]
    worst, witness = -np.inf, None
    for chunk in range(0, sample_pts.shape[0], 256):
        block = sample_pts[chunk:chunk + 256]
        diff = block[:, None, :] - solv[None, :, :]
        diff *= diff
        dist = np.sqrt(np.min(diff.sum(axis=2), axis=1))
        viol = dist - sample_phi[chunk:chunk + 256] / sigma - slack
        k = int(np.argmax(viol))
        if viol[k] > worst:
            worst, witness = float(viol[k]), block[k]
    passed = worst <= tol
    return worst, passed, None if passed else witness


class MaskMerit:
    """A stand-in scenario map whose merit is 0 on a chosen set of lattice
    points and ``level`` (a positive constant or one value per lattice
    point) elsewhere, so that Solv can be any lattice set, convex or not."""

    def __init__(self, x, radius, resolution, mask, level):
        self.lo = np.asarray(x, dtype=float) - radius
        self.spacing = 2.0 * radius / (resolution - 1)
        self.mask = np.asarray(mask, dtype=bool)
        self.level = np.broadcast_to(level, self.mask.shape)

    def merit_many(self, cone, points):
        idx = tuple(np.rint((points - self.lo) / self.spacing).astype(int).T)
        return np.where(self.mask[idx], 0.0, self.level[idx])


def lattice_index(resolution, n):
    return np.indices((resolution,) * n)


def mask_cases():
    """(x, radius, resolution, mask, merit level) per case."""
    rng = np.random.default_rng(3)
    cases = {}
    i = lattice_index(23, 1)[0]
    cases["n1-interval"] = ([0.2], 0.5, 23, i >= 17, 0.05 + 0.01 * np.abs(i - 11))
    i, j = lattice_index(31, 2)
    two_discs = ((i - 6) ** 2 + (j - 8) ** 2 <= 9) | ((i - 22) ** 2 + (j - 25) ** 2 <= 16)
    cases["n2-disconnected"] = ([0.1, -0.3], 0.5, 31, two_discs,
                                rng.uniform(0.01, 0.2, (31, 31)))
    cases["n2-single-point"] = ([0.0, 0.0], 1.0, 31, (i == 20) & (j == 3), 0.1)
    # the nearest feasible points of the centre are both ends of its row:
    # the tie-shell window spans the whole line
    cases["n2-line-ends"] = ([0.0, 0.0], 0.5, 31, (j == 0) | (j == 30), 0.05)
    # a hole in a feasible plane: most tested points are at distance 0
    cases["n2-hole"] = ([0.0, 0.0], 0.5, 31, (i - 15) ** 2 + (j - 15) ** 2 > 16, 0.01)
    cases["n2-random"] = ([0.3, 0.3], 0.5, 31, rng.random((31, 31)) < 0.04,
                          rng.uniform(0.0, 0.3, (31, 31)) + 1e-6)
    i, j = lattice_index(41, 2)
    cases["n2-far-corner"] = ([1.0, 2.0], 0.5, 41, (i <= 1) & (j >= 38), 0.02)
    i, j = lattice_index(21, 2)
    cases["n2-columns"] = ([0.0, 0.0], 0.5, 21, i >= 15, np.where(i == 5, 1.0, 0.01))
    i, j, k = lattice_index(13, 3)
    cases["n3-ball-and-line"] = ([0.0, 0.5, -0.5], 0.5, 13,
                                 ((i - 2) ** 2 + (j - 3) ** 2 + (k - 2) ** 2 <= 4)
                                 | ((i == 11) & (j == 10)), rng.uniform(0.01, 0.1, (13,) * 3))
    i, j, k = lattice_index(15, 3)
    cases["n3-far-corner"] = ([0.0, 0.0, 0.0], 0.5, 15, (i == 0) & (j == 14) & (k <= 1), 0.03)
    return cases


MASK_CASES = mask_cases()


class TestErrorBoundTransform:
    """The distance transform and its tie shells give the max violation,
    the verdict and the witness of the comparison with every feasible
    point, bit for bit, whatever the block size."""

    @staticmethod
    def assert_matches_brute(smap, cone, region, x, sigma, radius, resolution):
        rep = verify_error_bound(smap, cone, region, x, sigma, radius,
                                 resolution=resolution)
        worst, passed, witness = brute_error_bound(smap, cone, region, x, sigma,
                                                   radius, resolution)
        assert rep.max_violation == worst
        assert rep.passed == passed
        if witness is None:
            assert rep.witness is None
        else:
            assert np.array_equal(rep.witness, witness)
        return passed

    @pytest.mark.parametrize("budget", ["one-line", "few-entries", "default"])
    @pytest.mark.parametrize("case", sorted(MASK_CASES))
    def test_lattice_sets_match_brute_force(self, monkeypatch, case, budget):
        x, radius, res, mask, level = MASK_CASES[case]
        if budget == "one-line":
            monkeypatch.setattr(rvopt.regularity, "_CHUNK_ENTRIES", res * res)
        elif budget == "few-entries":
            monkeypatch.setattr(rvopt.regularity, "_CHUNK_ENTRIES", 3)
        smap = MaskMerit(x, radius, res, mask, level)
        region = PolyhedralSet.whole_space(len(x))
        verdicts = {self.assert_matches_brute(smap, CONE, region, x, sigma, radius, res)
                    for sigma in (0.05, 0.5, 9.0)}
        assert False in verdicts

    def test_tied_violations_keep_the_first_witness(self):
        """Solv is the columns i >= 15.  The merit is large on the leftmost
        tested column i = 5 and constant on the others, so every tested
        point of column 6 shares the largest violation; the witness is the
        first of them in row-major order."""
        x, radius, res, mask, level = MASK_CASES["n2-columns"]
        rep = verify_error_bound(MaskMerit(x, radius, res, mask, level), CONE, PLANE,
                                 x, 9.0, radius, resolution=res)
        pts = grid_points(np.array(x) - radius, np.array(x) + radius, res)
        tested = pts[np.linalg.norm(pts, axis=1) <= radius / 2.0]
        column = tested[tested[:, 0] == pts[6 * res, 0]]
        assert not rep.passed and column.shape[0] > 1
        assert np.array_equal(rep.witness, column[0])

    @pytest.mark.parametrize("name, x", [
        ("e1", [0.5, 1.0]), ("e1", [0.3, -0.2]), ("e2", [-0.5, -0.25]),
        ("e2", [0.0, 0.0]), ("e3", [0.5, 1.0]), ("e3", [0.2, 0.1])])
    def test_shipped_problems_match_brute_force(self, name, x):
        problem = load_problem(PROBLEMS_DIR / f"{name}.json")
        for sigma in (0.5, 9.0):
            self.assert_matches_brute(problem.scenarios, problem.constraint_cone,
                                      problem.region, x, sigma, 0.5, 41)

    def test_halfspace_region_and_cone(self):
        smap = ScenarioMap(mats=np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]),
                           offsets=np.array([[0.0, 0.0], [0.1, -0.1]]))
        cone = Cone.halfspaces([[-1.0, 2.0], [1.0, 1.0]])
        region = PolyhedralSet.halfspaces([[1.0, 1.0], [-1.0, 0.4]], [1.8, -0.5])
        for sigma in (0.3, 3.0, 30.0):
            self.assert_matches_brute(smap, cone, region, [1.2, 0.3], sigma, 0.5, 35)

    @pytest.mark.parametrize("shape", [(40,), (9, 14), (5, 7, 6), (12, 12, 12)])
    def test_transform_equals_integer_distances(self, shape):
        rng = np.random.default_rng(len(shape))
        for density in (0.002, 0.05, 0.5):
            mask = rng.random(shape) < density
            mask.flat[rng.integers(mask.size)] = True
            index = np.indices(shape).reshape(len(shape), -1).T
            sites = index[mask.ravel()]
            expect = ((index[:, None, :] - sites[None]) ** 2).sum(axis=2).min(axis=1)
            assert np.array_equal(_distance_passes(mask)[-1].ravel(), expect)

    @pytest.mark.parametrize("budget", ["few-entries", "default"])
    @pytest.mark.parametrize("case", sorted(MASK_CASES))
    def test_tie_shells_give_every_nearest_distance(self, monkeypatch, case, budget):
        """Feasible points at the same integer distance can differ in the last
        bits of their float distance; the tie shell keeps the smallest, the
        one a comparison with every feasible point finds, at every point."""
        if budget == "few-entries":
            monkeypatch.setattr(rvopt.regularity, "_CHUNK_ENTRIES", 3)
        x, radius, res, mask, _ = MASK_CASES[case]
        x = np.asarray(x) + 0.0123          # generic centre: uneven float spacing
        pts = grid_points(x - radius, x + radius, res)
        feasible = mask.ravel()
        tested = np.arange(pts.shape[0])
        diff = pts[:, None, :] - pts[feasible][None, :, :]
        diff *= diff
        assert np.array_equal(_tie_shell_min(pts, _distance_passes(mask), tested),
                              diff.sum(axis=2).min(axis=1))
