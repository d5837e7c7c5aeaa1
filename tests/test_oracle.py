"""Lattice Pareto oracle, penalization transfer, refutation."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvopt.cones import ORTHANT, Cone
from rvopt.docio import load_problem
from rvopt.errors import DimensionError, PreconditionError
from rvopt import cones, oracle
from rvopt.firstorder import AffineObjective, PolyhedralSet, QuadraticObjective
from rvopt.oracle import grid_scan, refute_efficiency, strictly_dominates
from rvopt.problem import Problem
from rvopt.sampling import grid_points
from rvopt.scenarios import ScenarioMap

from conftest import PROBLEMS_DIR, shifted_pair_scenarios, synthetic_problem
from setvalued import check_penalization_transfer

ROOT2 = np.sqrt(2.0)
SIGMA = 0.704046875  # certified descent constant for the shifted pair


def naive_masks(problem, pts, feas_tol=1e-9, margin=1e-9):
    """Reference Pareto oracle: a quadratic double loop with orthant order.

    Written independently of grid_scan so the two can check each other.
    """
    values = np.array([problem.objective.value(p) for p in pts])
    feasible = np.array([problem.feasible(p, tol=feas_tol) for p in pts])
    weak = np.zeros(len(pts), dtype=bool)
    eff = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not feasible[i]:
            continue
        weak[i] = eff[i] = True
        for j in range(len(pts)):
            if not feasible[j] or j == i:
                continue
            gap = values[i] - values[j]
            if np.all(gap >= margin):
                weak[i] = False
            if np.all(gap >= -margin) \
                    and np.linalg.norm(values[i] - values[j]) > margin:
                eff[i] = False
    return feasible, weak, eff


def order_rows(problem):
    cone = problem.ordering_cone
    return np.eye(cone.dim) if cone.kind == ORTHANT else np.array(cone.rows)


def loop_lattice(problem, lo, hi, resolution, feas_tol=1e-9):
    """Lattice points, values and feasibility, one point at a time."""
    pts = grid_points(lo, hi, resolution)
    values = np.array([problem.objective.value(p) for p in pts])
    phi = problem.merit_many(pts)
    in_region = np.array([problem.region.contains(p, tol=feas_tol) for p in pts])
    return pts, values, phi, in_region, in_region & (phi <= feas_tol)


def loop_scan(problem, lo, hi, resolution, feas_tol=1e-9, margin=1e-9, feasible=None):
    """Per-point reference for grid_scan: every lattice point against every
    feasible point, one row of gaps at a time, in any ordering cone; a given
    ``feasible`` mask replaces loop_lattice's."""
    pts, values, phi, _, lattice_feasible = loop_lattice(problem, lo, hi, resolution,
                                                         feas_tol)
    feasible = lattice_feasible if feasible is None else feasible
    proj = values @ order_rows(problem).T
    feas_idx = np.flatnonzero(feasible)
    weak = np.zeros(len(pts), dtype=bool)
    eff = np.zeros(len(pts), dtype=bool)
    dom_count = np.zeros(len(pts), dtype=int)
    if feas_idx.size:
        for i in range(len(pts)):
            gap = proj[i][None, :] - proj[feas_idx]
            strict = np.all(gap >= margin, axis=1)
            dom_count[i] = int(np.sum(strict))
            if not feasible[i]:
                continue
            weak[i] = not np.any(strict)
            weak_gap = np.all(gap >= -margin, axis=1)
            nonzero = np.linalg.norm(values[i][None, :] - values[feas_idx],
                                     axis=1) > margin
            eff[i] = not np.any(weak_gap & nonzero)
    return values, phi, feasible, weak, eff, dom_count


def loop_witness(problem, x, lo, hi, resolution, margin=1e-9):
    """First lattice point with the largest interior gap >= margin."""
    pts, values, _, _, feasible = loop_lattice(problem, lo, hi, resolution)
    fx = problem.objective.value(x)
    best, best_gap = None, -np.inf
    for j in np.flatnonzero(feasible):
        gap = float(np.min(order_rows(problem) @ (fx - values[j])))
        if gap >= margin and gap > best_gap:
            best, best_gap = j, gap
    return None if best is None else pts[best]


def loop_dominator(problem, x, ell, sigma, lo, hi, resolution, margin=1e-9):
    """First region point, in lattice order, whose penalized value improves
    on the reference's into the interior of the ordering cone; the
    penalized value f + (ell/sigma) merit e is computed here, point by point."""
    def penalized(p):
        return problem.objective.value(p) \
            + (ell / sigma) * problem.merit(p) * problem.direction

    ref = penalized(x)
    for p in grid_points(lo, hi, resolution):
        if problem.region.contains(p) \
                and np.min(order_rows(problem) @ (ref - penalized(p))) >= margin:
            return p
    return None


def csv_module_bytes(scan, path):
    """The scan table as csv.writer writes it, row by row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x1", "x2", "merit", "feasible", "weak_efficient",
                         "efficient", "dominance_count", "f1", "f2"])
        for i in range(scan.points.shape[0]):
            writer.writerow([*map(float, scan.points[i]), float(scan.merit[i]),
                             int(scan.feasible[i]), int(scan.weak_efficient[i]),
                             int(scan.efficient[i]), int(scan.dominance_count[i]),
                             *map(float, scan.values[i])])
    return path.read_bytes()


class CheckerboardProblem(Problem):
    """Feasible exactly where the lattice index sum of [-1, 1]^2 at 21 points
    per axis is even, so feasible and infeasible points alternate in every
    block of the dominance pass."""

    def feasible_many(self, points, tol=1e-9):
        index = np.rint((np.asarray(points) + 1.0) * 10.0).astype(int)
        return index.sum(axis=1) % 2 == 0


def everywhere_feasible(objective, ordering_cone, region):
    """The constraint image is the constant (1, 1), inside the orthant."""
    n = objective.domain_dim
    return Problem(objective=objective, ordering_cone=ordering_cone,
                   constraint_cone=Cone.orthant(2), region=region,
                   scenarios=ScenarioMap(mats=np.zeros((1, 2, n)),
                                         offsets=np.ones((1, 2))))


def three_objective_problem():
    """Identity objective on [0, 2]^3 with x1 >= 0.5 and x2, x3 >= 0."""
    eye = np.eye(3)
    return Problem(objective=AffineObjective(eye, np.zeros(3)),
                   ordering_cone=Cone.orthant(3), constraint_cone=Cone.orthant(3),
                   region=PolyhedralSet.box(np.zeros(3), np.full(3, 2.0)),
                   scenarios=ScenarioMap(mats=np.array([eye, eye]),
                                         offsets=np.array([[0.0, 0.0, 0.0],
                                                           [-0.5, 0.0, 0.0]])))


def wedge_ordered_problem():
    """A rotated affine objective ordered by a halfspace cone narrower than
    the orthant, on the quarter_box constraint."""
    return Problem(objective=AffineObjective([[1.0, 0.5], [-0.3, 1.0]], [0.1, 0.0]),
                   ordering_cone=Cone.halfspaces([[1.0, -0.3], [-0.3, 1.0]]),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.box([0.0, 0.0], [2.0, 2.0]),
                   scenarios=shifted_pair_scenarios())


def squares_problem():
    """f = (x1^2, x2^2) on [-1, 1]^2: mirror images tie exactly."""
    return everywhere_feasible(
        QuadraticObjective(quads=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                           lins=np.zeros((2, 2)), consts=np.zeros(2)),
        Cone.orthant(2), PolyhedralSet.box([-1.0, -1.0], [1.0, 1.0]))


def sum_problem():
    """f = (x1 + x2, x1 + x2): anti-diagonals tie up to rounding, so the
    distance test decides efficiency."""
    return everywhere_feasible(AffineObjective([[1.0, 1.0], [1.0, 1.0]], np.zeros(2)),
                               Cone.orthant(2),
                               PolyhedralSet.box([-1.0, -1.0], [1.0, 1.0]))


def first_coordinate_problem():
    """f = (x1, x1): every column of the lattice ties exactly."""
    return everywhere_feasible(AffineObjective([[1.0, 0.0], [1.0, 0.0]], np.zeros(2)),
                               Cone.orthant(2),
                               PolyhedralSet.box([-1.0, -1.0], [1.0, 1.0]))


class TestDominance:
    def test_strict_dominance_is_interior(self):
        cone = Cone.orthant(2)
        assert strictly_dominates(cone, [1.0, 1.0], [0.5, 0.5])
        assert not strictly_dominates(cone, [1.0, 1.0], [0.5, 1.0])
        assert not strictly_dominates(cone, [1.0, 1.0], [1.0, 1.0])

    def test_halfspace_cone_rows(self):
        wedge = Cone.halfspaces([[-1.0, 1.0], [1.0, 1.0]])
        assert strictly_dominates(wedge, [0.0, 1.0], [0.0, 0.0])
        assert not strictly_dominates(wedge, [1.0, 0.0], [0.0, 0.0])


class TestGridScan:
    def test_matches_naive_oracle(self, quarter_box):
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 21)
        feasible, weak, eff = naive_masks(quarter_box, scan.points)
        assert np.array_equal(scan.feasible, feasible)
        assert np.array_equal(scan.weak_efficient, weak)
        assert np.array_equal(scan.efficient, eff)

    def test_weak_set_is_the_boundary_band(self, quarter_box):
        """Weak-Pareto points: the left feasible edge {x1 = 0.5} plus the
        bottom edge {x2 = 0, x1 >= 0.5}."""
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 41)
        x1, x2 = scan.points[:, 0], scan.points[:, 1]
        band = scan.feasible & (np.isclose(x1, 0.5) | np.isclose(x2, 0.0))
        assert np.array_equal(scan.weak_efficient, band)
        assert int(scan.feasible.sum()) == 1271
        assert int(scan.weak_efficient.sum()) == 71

    def test_unique_efficient_corner(self, quarter_box):
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 41)
        assert int(scan.efficient.sum()) == 1
        assert_allclose(scan.points[scan.efficient][0], [0.5, 0.0])

    def test_mask_inclusions(self, quarter_box):
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 31)
        assert np.all(~scan.efficient | scan.weak_efficient)
        assert np.all(~scan.weak_efficient | scan.feasible)
        assert np.all(scan.dominance_count[scan.weak_efficient] == 0)

    def test_infeasible_points_never_marked(self, quarter_box):
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 21)
        outside = ~scan.feasible
        assert not np.any(scan.weak_efficient[outside])
        assert not np.any(scan.efficient[outside])

    def test_degenerate_box_is_weakly_efficient(self, quarter_box):
        scan = grid_scan(quarter_box, [1.0, 1.0], [1.0, 1.0], 3)
        assert np.all(scan.feasible)
        assert np.all(scan.weak_efficient)

    def test_resolution_floor(self, quarter_box):
        with pytest.raises(PreconditionError, match="at least 3"):
            grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 2)

    @pytest.mark.parametrize("lo, hi, res", [([0.0] * 3, [2.0] * 3, 5),
                                             ([0.0], [2.0], 5),
                                             ([0.0, 0.0], [2.0, 2.0], (5, 7, 9)),
                                             ([0.0, 0.0], [2.0], 5)])
    def test_dimensions_must_match_the_problem(self, quarter_box, lo, hi, res):
        with pytest.raises(DimensionError, match="dimension 2 needs 2"):
            grid_scan(quarter_box, lo, hi, res)
        with pytest.raises(DimensionError):
            refute_efficiency(quarter_box, [1.0, 1.0], lo, hi, res)

    def test_point_cap(self, quarter_box):
        with pytest.raises(PreconditionError, match="cap"):
            grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 1001)

    def test_csv_export(self, quarter_box, tmp_path):
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 5)
        out = tmp_path / "scan.csv"
        scan.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("x1,x2,merit,feasible,weak_efficient,"
                            "efficient,dominance_count,f1,f2")
        assert len(lines) == 26

    @pytest.mark.parametrize("block_rows", [7, oracle._CSV_BLOCK_ROWS])
    def test_csv_bytes_match_the_csv_module(self, tmp_path, monkeypatch, block_rows):
        """Byte for byte what csv.writer writes row by row, with negative
        coordinates and values and dominance counts above 9."""
        monkeypatch.setattr(oracle, "_CSV_BLOCK_ROWS", block_rows)
        scan = grid_scan(load_problem(PROBLEMS_DIR / "e1.json"), [-1.0, -1.0], [2.0, 2.0], 23)
        assert scan.points.min() < 0.0 and scan.values.min() < 0.0
        assert scan.dominance_count.max() > 9
        scan.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == csv_module_bytes(scan, tmp_path / "ref.csv")

    @pytest.mark.parametrize("block_rows", [7, oracle._CSV_BLOCK_ROWS])
    def test_csv_edge_values_match_the_csv_module(self, quarter_box, tmp_path, monkeypatch,
                                                  block_rows):
        """Signed zeros, NaNs (two payloads), infinities, a subnormal and
        huge values, repeated in every block and across block boundaries,
        keep the bytes csv.writer writes; so do counts of two digits."""
        monkeypatch.setattr(oracle, "_CSV_BLOCK_ROWS", block_rows)
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 49)
        assert scan.points.shape[0] > oracle._CSV_BLOCK_ROWS
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300,
                            -1e300, 0.1, 1.0 / 3.0, -0.0])
        special[-1] = np.array([0x7ff8000000000001]).view(float)[0]   # another NaN
        column = np.resize(special, scan.points.shape[0])
        rng = np.random.default_rng(20)
        edge = dataclasses.replace(
            scan, points=np.stack([column, column[::-1]], axis=1), merit=np.roll(column, 3),
            values=np.stack([np.roll(column, 5), -column], axis=1),
            dominance_count=np.arange(column.size) % 13 * 7,
            efficient=rng.random(column.size) < 0.5)
        assert np.signbit(edge.points[0, 0]) and not np.signbit(edge.points[1, 0])
        edge.to_csv(tmp_path / "scan.csv")
        table = (tmp_path / "scan.csv").read_bytes()
        assert table == csv_module_bytes(edge, tmp_path / "ref.csv")
        lines = table.split(b"\r\n")
        assert lines[1].startswith(b"-0.0,") and lines[2].startswith(b"0.0,")
        assert b",5e-324," in table and b",-1e+300," in table and b",77," in table


class TestBlockedScanMatchesLoop:
    """grid_scan against the per-point loop it replaced: values, merit and
    all masks equal, counts included, at lattice sizes that are not
    multiples of the block size."""

    @staticmethod
    def assert_same(problem, lo, hi, resolution, margin=1e-9, feasible=None):
        scan = grid_scan(problem, lo, hi, resolution, margin=margin)
        values, phi, feasible, weak, eff, count = loop_scan(problem, lo, hi,
                                                            resolution,
                                                            margin=margin,
                                                            feasible=feasible)
        assert np.array_equal(scan.values, values)
        assert np.array_equal(scan.merit, phi)
        assert np.array_equal(scan.feasible, feasible)
        assert np.array_equal(scan.weak_efficient, weak)
        assert np.array_equal(scan.efficient, eff)
        assert np.array_equal(scan.dominance_count, count)
        assert np.array_equal(scan.weak_efficient, scan.feasible & (scan.dominance_count == 0))
        return scan

    @pytest.mark.parametrize("resolution", [21, 41])
    def test_quarter_box(self, quarter_box, resolution):
        self.assert_same(quarter_box, [0.0, 0.0], [2.0, 2.0], resolution)

    @pytest.mark.parametrize("margin", [1e-9, 0.05])
    def test_e1(self, margin):
        problem = load_problem(PROBLEMS_DIR / "e1.json")
        self.assert_same(problem, [-1.0, -1.0], [2.0, 2.0], 41, margin=margin)

    def test_three_objectives(self):
        scan = self.assert_same(three_objective_problem(), np.zeros(3),
                                np.full(3, 2.0), 9)
        assert scan.efficient.sum() == 1

    def test_halfspace_ordering_cone(self):
        self.assert_same(wedge_ordered_problem(), [0.0, 0.0], [2.0, 2.0], 23)

    @pytest.mark.parametrize("make", [squares_problem, sum_problem,
                                      first_coordinate_problem])
    def test_non_injective_objectives(self, make):
        scan = self.assert_same(make(), [-1.0, -1.0], [1.0, 1.0], 25)
        assert np.unique(scan.values, axis=0).shape[0] < scan.points.shape[0]

    @pytest.mark.parametrize("budget", [1, 256])
    def test_small_buffers(self, monkeypatch, budget):
        """8-point column chunks with one lattice point per block, and chunks
        of a few dozen points with blocks of a few."""
        monkeypatch.setattr(cones, "WORK_BYTES", budget)
        self.assert_same(load_problem(PROBLEMS_DIR / "e1.json"), [-1.0, -1.0],
                         [2.0, 2.0], 21)
        self.assert_same(three_objective_problem(), np.zeros(3), np.full(3, 2.0), 7)

    @pytest.mark.parametrize("budget", [1, 256, cones.WORK_BYTES])
    def test_feasibility_alternating_within_blocks(self, monkeypatch, budget):
        monkeypatch.setattr(cones, "WORK_BYTES", budget)
        e1 = load_problem(PROBLEMS_DIR / "e1.json")
        problem = CheckerboardProblem(**{f.name: getattr(e1, f.name)
                                         for f in dataclasses.fields(e1)})
        index = np.add.outer(np.arange(21), np.arange(21)).ravel()
        scan = self.assert_same(problem, [-1.0, -1.0], [1.0, 1.0], 21,
                                feasible=index % 2 == 0)
        assert 0 < scan.weak_efficient.sum() < scan.feasible.sum() < scan.points.shape[0]
        assert scan.dominance_count[~scan.feasible].max() > 0

    @pytest.mark.parametrize("kind", ["halfspaces", "rays"])
    def test_non_orthant_constraint_cones(self, kind):
        """On a 41^2 lattice Solv's unit rows give loop_lattice's masks,
        which test region membership and merit <= 1e-9 point by point."""
        for w in (1, 2, 4):
            problem = synthetic_problem(kind, w)
            scan = self.assert_same(problem, [-2.0, -2.0], [2.0, 2.0], 41)
            assert 0 < scan.feasible.sum() < scan.points.shape[0]
            assert np.array_equal(problem.feasible_many(scan.points), scan.feasible)

    def test_no_feasible_point(self, free_negative):
        scan = self.assert_same(free_negative, [1.0, 1.0], [2.0, 2.0], 11)
        assert not scan.feasible.any()


def pairwise_pass(proj, values, feasible, margin):
    """O(N·F) reference for the dominance pass: every point against every
    feasible point, with the gap and distance tests written out."""
    feas = np.flatnonzero(feasible)
    weak = np.zeros(len(proj), dtype=bool)
    eff = np.zeros(len(proj), dtype=bool)
    count = np.zeros(len(proj), dtype=int)
    for i in range(len(proj)):
        gap = proj[i] - proj[feas]
        count[i] = np.count_nonzero(np.all(gap >= margin, axis=1))
        if feasible[i]:
            weak[i] = count[i] == 0
            far = np.linalg.norm(values[i] - values[feas], axis=1) > margin
            eff[i] = not np.any(np.all(gap >= -margin, axis=1) & far)
    return weak, eff, count


class TestDominancePassFuzz:
    """The rank-space pass against the pairwise reference on integer values
    with 1e-9 jitter (ties and near-ties at exactly ±margin), NaN and ±inf
    entries, 1 to 4 order rows, and small to tiny buffers."""

    @staticmethod
    def random_case(rng):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(1, 90))
        values = rng.integers(-3, 4, size=(n, p)) \
            + rng.integers(-2, 3, size=(n, p)) * 1e-9 * (rng.random((n, p)) < 0.5)
        if rng.random() < 0.3:
            values.flat[rng.integers(0, values.size, size=3)] = \
                rng.choice([np.nan, np.inf, -np.inf], size=3)
        rows = np.eye(p) if rng.random() < 0.5 else rng.integers(-1, 3, size=(p, p))
        with np.errstate(invalid="ignore"):
            proj = values @ rows.T
        feasible = rng.random(n) < rng.choice([0.1, 0.5, 1.0])
        return proj, values, feasible

    @staticmethod
    def assert_matches(proj, values, feasible, margin=1e-9):
        with np.errstate(invalid="ignore"):
            got = oracle._dominance_pass(proj, values, feasible, margin)
            want = pairwise_pass(proj, values, feasible, margin)
        for mask, ref in zip(got, want):
            assert np.array_equal(mask, ref)

    def test_prefix_counts_at_rounding_boundaries(self):
        """fl(a - b) >= t can hold for b just above fl(a - t), and fail for
        b just below it; the counts follow the float test, not the sort."""
        tiny = np.nextafter(1e-9, np.inf) - 1e-9
        grows = oracle._prefix_counts(np.array([np.nextafter(1e-9, np.inf)]),
                                      np.array([np.nextafter(tiny, np.inf)]), 1e-9)
        shrinks = oracle._prefix_counts(np.array([0.36159505490948474]),
                                        np.array([0.36159505590948476]), -1e-9)
        assert (grows[0], shrinks[0]) == (1, 0)
        rng = np.random.default_rng(29)
        for scale in 10.0 ** np.arange(-12, 17, 2):
            base = rng.standard_normal(4) * scale
            pool = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
                                   base + 1e-9, base - 1e-9, [0.0, -0.0, np.inf, -np.inf, np.nan]])
            distinct = np.unique(rng.choice(pool, size=12))
            a = rng.choice(pool, size=40)
            for threshold in (1e-9, -1e-9, 0.0):
                with np.errstate(invalid="ignore"):
                    passes = a[:, None] - distinct[None, :] >= threshold
                    counts = oracle._prefix_counts(a, distinct, threshold)
                assert np.array_equal(counts, passes.sum(axis=1))
                assert np.array_equal(passes, np.arange(distinct.size) < counts[:, None])

    @pytest.mark.parametrize("budget", [1, 64, cones.WORK_BYTES])
    def test_random_cases(self, monkeypatch, budget):
        monkeypatch.setattr(cones, "WORK_BYTES", budget)
        rng = np.random.default_rng(27)
        for _ in range(100):
            proj, values, feasible = self.random_case(rng)
            self.assert_matches(proj, values, feasible, margin=rng.choice([1e-9, 0.0, 0.5]))

    def test_empty_and_single_feasible_sets(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            proj, values, feasible = self.random_case(rng)
            self.assert_matches(proj, values, np.zeros_like(feasible))
            single = np.zeros_like(feasible)
            single[rng.integers(feasible.size)] = True
            self.assert_matches(proj, values, single)


class TestScanMemory:
    def test_peak_stays_bounded_at_res_301(self):
        """30,351 feasible points: the hit sets and prefix tables stay within
        their byte budget instead of growing as F²."""
        problem = load_problem(PROBLEMS_DIR / "e1.json")
        tracemalloc.start()
        try:
            scan = grid_scan(problem, [-1.0, -1.0], [2.0, 2.0], 301)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(scan.feasible.sum()) == 30351
        assert peak < 32 * 2**20
        assert np.array_equal(scan.weak_efficient, scan.feasible & (scan.dominance_count == 0))


class TestBatchedWitnesses:
    """Refutation witnesses and transfer dominators equal those of the
    per-point loops, ties included."""

    @pytest.mark.parametrize("make, x", [
        (first_coordinate_problem, [0.5, 0.5]),
        (sum_problem, [0.5, 0.5]),
        (squares_problem, [0.5, -0.5]),
        (wedge_ordered_problem, [1.5, 1.5]),
        (wedge_ordered_problem, [0.5, 0.0]),
    ])
    def test_refutation_witness(self, make, x):
        problem = make()
        lo, hi = [-1.0, -1.0], [2.0, 2.0]
        expected = loop_witness(problem, x, lo, hi, 31)
        rep = refute_efficiency(problem, x, lo, hi, 31)
        if expected is None:
            assert rep.witness is None
        else:
            assert np.array_equal(rep.witness, expected)

    @pytest.mark.parametrize("ell", [0.1, 0.3, 0.6, 1.0, 3.0])
    def test_transfer_dominator(self, quarter_box, ell):
        x, lo, hi = [0.5, 1.0], [0.0, 0.0], [2.0, 2.0]
        expected = loop_dominator(quarter_box, x, ell, SIGMA, lo, hi, 41)
        rep = check_penalization_transfer(quarter_box, x, ell=ell, sigma=SIGMA,
                                          lo=lo, hi=hi, resolution=41)
        assert rep.passed == (expected is None)
        if expected is not None:
            assert np.array_equal(rep.dominator, expected)


class TestPenalizationTransfer:
    def test_certified_weights_pass(self, quarter_box):
        rep = check_penalization_transfer(quarter_box, [0.5, 1.0],
                                          ell=2.0 * ROOT2, sigma=SIGMA,
                                          lo=[0.0, 0.0], hi=[2.0, 2.0],
                                          resolution=41)
        assert rep.passed and rep.dominator is None

    def test_zero_weight_fails_with_dominator(self, quarter_box):
        with pytest.warns(UserWarning, match="degenerate"):
            rep = check_penalization_transfer(quarter_box, [0.5, 1.0],
                                              ell=0.0, sigma=SIGMA,
                                              lo=[0.0, 0.0], hi=[2.0, 2.0],
                                              resolution=41)
        assert not rep.passed
        assert_allclose(rep.dominator, [0.0, 0.0])

    def test_infeasible_reference_rejected(self, quarter_box):
        with pytest.raises(PreconditionError, match="not feasible"):
            check_penalization_transfer(quarter_box, [0.25, 1.0], ell=1.0,
                                        sigma=1.0, lo=[0.0, 0.0],
                                        hi=[2.0, 2.0], resolution=21)

    def test_dominated_reference_rejected(self, quarter_box):
        with pytest.raises(PreconditionError, match="not weakly efficient"):
            check_penalization_transfer(quarter_box, [1.0, 1.0], ell=1.0,
                                        sigma=1.0, lo=[0.0, 0.0],
                                        hi=[2.0, 2.0], resolution=21)

    def test_parameter_validation(self, quarter_box):
        def transfer(ell, sigma):
            return check_penalization_transfer(quarter_box, [0.5, 1.0], ell=ell,
                                               sigma=sigma, lo=[0.0, 0.0],
                                               hi=[2.0, 2.0], resolution=21)

        with pytest.raises(PreconditionError, match="sigma > 0"):
            transfer(ell=1.0, sigma=0.0)
        with pytest.raises(PreconditionError, match="nonnegative"):
            transfer(ell=-1.0, sigma=1.0)
        with pytest.warns(UserWarning, match="degenerate"):
            transfer(ell=0.0, sigma=1.0)


class TestRefutation:
    def test_interior_point_yields_witness(self, free_negative):
        rep = refute_efficiency(free_negative, [-1.0, -1.0],
                                [-2.0, -2.0], [0.0, 0.0], 21)
        assert_allclose(rep.witness, [-2.0, -2.0])
        assert rep.note == "dominating witness found"
        assert rep.searched == 441

    def test_weakly_efficient_point_survives(self, quarter_box):
        rep = refute_efficiency(quarter_box, [0.5, 0.0],
                                [0.0, 0.0], [2.0, 2.0], 41)
        assert rep.witness is None
        assert rep.note == "no dominating lattice point"

    def test_infeasible_reference_flagged(self, quarter_box):
        rep = refute_efficiency(quarter_box, [0.25, 1.0],
                                [0.0, 0.0], [2.0, 2.0], 21)
        assert rep.witness is None
        assert rep.note == "reference point infeasible"

    def test_coherent_with_grid_scan(self, quarter_box):
        """A point is refuted exactly when the scan denies weak efficiency."""
        scan = grid_scan(quarter_box, [0.0, 0.0], [2.0, 2.0], 21)
        rng = np.random.default_rng(51)
        feas_idx = np.flatnonzero(scan.feasible)
        for i in rng.choice(feas_idx, size=8, replace=False):
            rep = refute_efficiency(quarter_box, scan.points[i],
                                    [0.0, 0.0], [2.0, 2.0], 21)
            assert (rep.witness is None) == bool(scan.weak_efficient[i])
