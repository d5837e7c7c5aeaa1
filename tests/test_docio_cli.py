"""Problem documents and the command-line front end.

The text the tool prints is part of its interface, so these tests pin exact
lines and exit codes.  Document tests check that a file survives a round trip
through the in-memory model without losing a field.
"""

import contextlib
import io
import json
import re
import sys

import numpy as np
import pytest

import rvopt.cli
import rvopt.reporting
from rvopt import (
    AffineObjective,
    Cone,
    DimensionError,
    PolyhedralSet,
    PreconditionError,
    Problem,
    ScenarioMap,
    ValidationError,
    load_problem,
    problem_from_document,
    problem_to_document,
    save_problem,
)
from rvopt.cli import _HANDLERS, build_parser, main
from rvopt.docio import (
    Tolerances,
    load_document,
    parse_document,
    tolerances_from_document,
)
from rvopt.problem import ACTIVE_TOL
from rvopt.reporting import OUTSIDE_REGION, REPORT_VERSION, run_report
from rvopt.sampling import LATTICE_CAP

from conftest import ray_cone_r5_problem, synthetic_problem
from test_certificates import bench_cases, bench_module


def run_cli(argv):
    """Invoke the entry point capturing streams; argparse exits are folded in."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def free_problem_file(tmp_path, free_negative):
    # the unconstrained instance where every feasible point can be dominated
    path = tmp_path / "free_negative.json"
    path.write_text(json.dumps(problem_to_document(free_negative)))
    return str(path)


class TestDocumentRoundTrip:
    def test_parsed_file_survives_round_trip(self, problems_dir):
        """Rebuilding the document only fills in the default direction."""
        doc = load_document(problems_dir / "e1.json")
        rebuilt = problem_to_document(problem_from_document(doc))
        expected = dict(doc)
        expected["e"] = [0.7071067811865475, 0.7071067811865475]
        assert rebuilt == expected

    def test_round_trip_is_idempotent(self, problems_dir):
        """Serialize, load, serialize is field-identical, also for rows that
        the constructors normalize: halfspace C, K and S."""
        problems = {name: load_problem(problems_dir / name)
                    for name in ("e1.json", "e2.json", "e3.json")}
        base = synthetic_problem("halfspaces", 16)
        rng = np.random.default_rng(16)
        problems["halfspace C"] = base
        problems["halfspace K"] = Problem(
            objective=base.objective, constraint_cone=base.constraint_cone,
            ordering_cone=Cone.halfspaces(np.eye(2) + 0.3 * rng.random((2, 2))),
            region=base.region, scenarios=base.scenarios)
        problems["halfspace S"] = Problem(
            objective=base.objective, ordering_cone=base.ordering_cone,
            constraint_cone=base.constraint_cone,
            region=PolyhedralSet.halfspaces(rng.standard_normal((5, 2)), rng.random(5) + 1.0),
            scenarios=base.scenarios)
        for name, problem in problems.items():
            doc = problem_to_document(problem)
            again = problem_to_document(problem_from_document(doc))
            assert again == doc, name

    def test_save_then_load(self, tmp_path, problems_dir):
        problem = load_problem(problems_dir / "e2.json")
        target = tmp_path / "copy.json"
        save_problem(problem, target)
        assert problem_to_document(load_problem(target)) \
            == problem_to_document(problem)

    def test_null_bounds_become_infinite(self, problems_dir):
        problem = load_problem(problems_dir / "e1.json")
        assert np.all(np.isinf(problem.region.lo))
        assert np.all(np.isinf(problem.region.hi))


class TestDocumentValidation:
    def _doc(self, problems_dir):
        return load_document(problems_dir / "e1.json")

    def test_missing_cone_block(self, problems_dir):
        doc = self._doc(problems_dir)
        del doc["k"]
        with pytest.raises(ValidationError, match="k: required"):
            problem_from_document(doc)

    def test_unsupported_version(self, problems_dir):
        doc = self._doc(problems_dir)
        doc["version"] = 7
        with pytest.raises(ValidationError, match="unsupported version 7"):
            problem_from_document(doc)

    def test_dimension_must_match_objective(self, problems_dir):
        doc = self._doc(problems_dir)
        doc["n"] = 5
        with pytest.raises(ValidationError,
                           match="does not match the objective block"):
            problem_from_document(doc)

    def test_parse_error_reports_position(self):
        with pytest.raises(ValidationError,
                           match=r"parse error at line 2, column 14"):
            parse_document('{\n  "version": }')

    def test_tolerance_block(self):
        tol = tolerances_from_document({"tolerances": {"feasibility": 1e-6}})
        assert tol == Tolerances(feasibility=1e-6)
        assert tolerances_from_document({}) == Tolerances()

    def test_tolerance_block_rejects_junk(self):
        cases = [
            ({"tolerances": {"wobble": 2.0}}, "tolerances.wobble: unknown"),
            ({"tolerances": {"feasibility": -1.0}}, "positive number"),
            ({"tolerances": {"feasibility": True}}, "positive number"),
            ({"tolerances": {"lp": 1e-8}}, "tolerances.lp: unknown"),
            ({"tolerances": {"active": 1e-7}}, "tolerances.active: unknown"),
            ({"tolerances": 3}, "expected an object"),
        ]
        for doc, message in cases:
            with pytest.raises(ValidationError, match=message):
                tolerances_from_document(doc)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tolerances_are_validated_when_built(self, value):
        """A library caller's Tolerances is checked like a document's: an
        infinite tolerance made every point feasible (an infeasible point
        came out refuted), a NaN one none."""
        with pytest.raises(ValidationError,
                           match="tolerances.feasibility: expected a finite positive number"):
            Tolerances(feasibility=value)

    def test_scaling_tolerances(self):
        scaled = Tolerances().scaled(2.0)
        assert scaled == Tolerances(feasibility=2e-9)
        with pytest.raises(ValidationError, match="must be positive"):
            Tolerances().scaled(0.0)


class TestEvaluationCommands:
    def test_merit_values(self, problems_dir):
        path = str(problems_dir / "e1.json")
        assert run_cli(["merit", path, "--at", "0.25", "1"]) \
            == (0, "merit 0.25\n", "")
        assert run_cli(["merit", path, "--at", "1", "1"]) == (0, "merit 0\n", "")

    def test_feasibility_verdicts(self, problems_dir):
        path = str(problems_dir / "e1.json")
        assert run_cli(["feasible", path, "--at", "1", "1"]) \
            == (0, "feasible\n", "")
        assert run_cli(["feasible", path, "--at", "0.25", "1"]) \
            == (0, "infeasible\n", "")

    def test_merit_past_the_square_overflow(self, problems_dir, tmp_path):
        """Scenario images past about 1.34e154, whose squares overflow, keep
        a finite merit for halfspace, ray and orthant C, and nothing warns
        (warnings are errors here)."""
        doc = json.loads((problems_dir / "e1.json").read_text())
        for cone in ({"kind": "halfspaces", "dim": 2, "rows": [[1, 0], [0, 1]]},
                     {"kind": "rays", "dim": 2, "gens": [[1, 0], [0, 1]]}, doc["c"]):
            path = str(tmp_path / f"e1-{cone['kind']}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({**doc, "c": cone}, handle)
            assert run_cli(["merit", path, "--at", "-1e154", "-1e154"]) \
                == (0, "merit 1.41421356237e+154\n", "")
            assert run_cli(["feasible", path, "--at", "-1e154", "-1e154"]) \
                == (0, "infeasible\n", "")
            assert run_cli(["merit", path, "--at", "-1e200", "3"]) == (0, "merit 1e+200\n", "")

    def test_constraint_rows_past_the_square_overflow(self, problems_dir, tmp_path):
        """A C row past about 1.34e154 normalizes to a unit row: (-5, 1)
        misses the first halfspace of C, so it is infeasible with a
        positive merit, and nothing warns (warnings are errors here)."""
        doc = json.loads((problems_dir / "e1.json").read_text())
        path = str(tmp_path / "e1-big-row.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**doc, "c": {"kind": "halfspaces", "dim": 2,
                                    "rows": [[1e200, 0], [0, 1]]}}, handle)
        assert run_cli(["feasible", path, "--at", "-5", "1"]) == (0, "infeasible\n", "")
        code, out, err = run_cli(["merit", path, "--at", "-5", "1"])
        assert (code, err) == (0, "") and float(out.split()[1]) > 0.0

    def test_increase_estimate(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, err = run_cli(["increase", path, "--at", "0.25", "1"])
        assert (code, err) == (0, "")
        assert out == "increase estimate alpha 1.70405\n"

    def test_increase_refutation(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, _ = run_cli(
            ["increase", path, "--at", "0.25", "1", "--alpha", "5"])
        assert code == 2
        assert out == "increase fails at alpha 5; witness (0.25, 1)\n"

    def test_negative_numbers_in_exponent_form(self, problems_dir):
        """-1e-3 and -.5e2 are values of --at, not options."""
        path = str(problems_dir / "e1.json")
        assert run_cli(["merit", path, "--at", "0.25", "-1e-3"]) \
            == run_cli(["merit", path, "--at", "0.25", "-0.001"]) \
            == (0, "merit 0.250001999992\n", "")
        assert run_cli(["merit", path, "--at", "-.5e2", "1"]) \
            == run_cli(["merit", path, "--at", "-50", "1"])

    def test_error_bound_holds(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, _ = run_cli(["errorbound", path, "--at", "0.25", "1",
                                "--sigma", "0.9", "--res", "41"])
        assert code == 0
        assert out == "error bound holds (max violation -0.05, slack 0.05)\n"

    def test_error_bound_fails(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, _ = run_cli(["errorbound", path, "--at", "0.25", "1",
                                "--sigma", "100", "--res", "41"])
        assert code == 2
        assert out == "error bound fails; worst point (0, 1) violates by 0.445\n"

    def test_error_bound_lattice_is_capped(self, tmp_path, monkeypatch):
        """A bench-family point at n = 5 with the default --res 41 asks for
        41^5 lattice points: one error line, before any lattice array is
        built (an array past the cap fails the test instead of allocating)."""
        empty = np.empty

        def capped(shape, *args, **kwargs):
            assert np.prod(shape) <= 5 * LATTICE_CAP
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", capped)
        bench = bench_module()
        path = tmp_path / "n5.json"
        save_problem(bench.synthetic(bench.Family(5, 4, "orthant", 0.3, 2.0, 1.0, 31), 7), path)
        assert run_cli(["errorbound", str(path), "--at"] + ["2"] * 5 + ["--sigma", "0.5"]) \
            == (1, "", "error: grid exceeds the 1e6 point cap\n")


class TestCertifyCommand:
    def test_boundary_point_passes(self, problems_dir):
        path = str(problems_dir / "e2.json")
        code, out, err = run_cli(["certify", path, "--at", "-1", "0"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "qualification failed (margin 0)",
            "tangential holds (residual 0)",
            "scalarized holds (residual 0)",
            "multiplier holds (residual 0)",
        ]

    def test_skip_cq_drops_the_first_line(self, problems_dir):
        path = str(problems_dir / "e2.json")
        code, out, _ = run_cli(["certify", path, "--at", "-1", "0", "--skip-cq"])
        assert code == 0
        assert out.splitlines()[0] == "tangential holds (residual 0)"
        assert "qualification" not in out

    def test_dominated_point_is_refuted(self, free_problem_file):
        code, out, _ = run_cli(["certify", free_problem_file, "--at", "-1", "-1"])
        assert code == 2
        assert out.splitlines() == [
            "qualification passed (margin 0.707)",
            "tangential violated (residual 0.707) "
            "witness (-0.707107, -0.707107)",
            "scalarized lp-infeasible (residual 0.707) "
            "witness (-0.707107, -0.707107)",
            "multiplier lp-infeasible (residual 0.707) "
            "witness (-0.707107, -0.707107)",
        ]

    def test_exact_data_gives_exact_multipliers(self, problems_dir):
        code, out, _ = run_cli(["certify", str(problems_dir / "e1.json"), "--at", "0.5", "1"])
        assert code == 0
        assert out.splitlines()[1:] == ["tangential holds (residual 0)",
                                        "scalarized holds (residual 0)",
                                        "multiplier holds (residual 0)"]


class TestScanCommands:
    def test_scan_summary_line(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, _ = run_cli(
            ["scan", path, "--box", "-1", "2", "-1", "2", "--res", "21"])
        assert code == 0
        assert out == ("scanned 441 points: 154 feasible, "
                       "24 weakly efficient, 1 efficient\n")

    def test_scan_writes_a_table(self, tmp_path, problems_dir):
        path = str(problems_dir / "e1.json")
        table = tmp_path / "table.csv"
        code, out, _ = run_cli(["scan", path, "--box", "-1", "2", "-1", "2",
                                "--res", "5", "--out", str(table)])
        assert code == 0
        assert out.splitlines()[1] == f"table written to {table}"
        lines = table.read_text().splitlines()
        assert lines[0] == ("x1,x2,merit,feasible,weak_efficient,"
                            "efficient,dominance_count,f1,f2")
        assert len(lines) == 26  # header plus one row per lattice point

    def test_box_takes_negative_numbers_in_exponent_form(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, err = run_cli(["scan", path, "--box", "-1e-1", "2", "-1E0", "2",
                                  "--res", "11"])
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(["scan", path, "--box", "-0.1", "2", "-1", "2",
                                            "--res", "11"])

    def test_scan_rejects_odd_bounds(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, err = run_cli(["scan", path, "--box", "-1", "2", "-1"])
        assert (code, out) == (1, "")
        assert err == "error: --box expects lo hi pairs\n"

    @pytest.mark.parametrize("argv", [["--box", "-1", "2", "-1", "2", "-1", "2", "--res", "5"],
                                      ["--box", "-1", "2", "--res", "5"],
                                      ["--box", "-1", "2", "-1", "2", "--res", "5", "7", "9"]])
    def test_scan_rejects_a_lattice_of_another_dimension(self, problems_dir, argv):
        code, out, err = run_cli(["scan", str(problems_dir / "e1.json"), *argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: the lattice of a problem in dimension 2 needs 2 ")
        assert err.count("\n") == 1


class TestReportCommand:
    def test_stdout_is_json_plus_summary(self, problems_dir):
        path = str(problems_dir / "e2.json")
        code, out, err = run_cli(["report", path, "--at", "-1", "0"])
        assert (code, err) == (0, "")
        head, sep, tail = out.rpartition("\nsummary:")
        assert sep, "missing summary line"
        document = json.loads(head)
        assert document["version"] == REPORT_VERSION
        assert document["summary"] == "consistent with necessary conditions"
        assert tail.strip() == "consistent with necessary conditions"
        assert [s["name"] for s in document["stages"]] == [
            "merit", "error_bound", "order_lipschitz", "penalization",
            "tangential", "scalarized_fan", "scalarized_convex", "multiplier",
            "qualification", "oracle",
        ]

    def test_merit_stage_evaluates_merit_once(self, problems_dir, monkeypatch):
        """The merit stage reads merit once and applies Problem.feasible's
        rule to it.  The reference gate, which runs next and is stubbed here
        to end the report, sees one merit_many call."""
        problem = load_problem(str(problems_dir / "e1.json"))
        calls, seen = [], []
        merit_many = ScenarioMap.merit_many
        monkeypatch.setattr(ScenarioMap, "merit_many", lambda self, cone, points: (
            calls.append(len(points)), merit_many(self, cone, points))[1])
        monkeypatch.setattr(rvopt.reporting, "reference_gate",
                            lambda *args: seen.append(len(calls)) or "stopped here")
        for x, feasible in (([0.5, 1.0], True), ([0.25, 1.0], False)):
            calls.clear()
            merit = run_report(problem, x)["stages"][0]
            assert seen.pop() == 1 and calls == [1]
            assert merit["name"] == "merit" and merit["in_region"]
            assert merit["feasible"] is feasible is problem.feasible(x)

    def test_ray_cone_report_runs_every_stage(self, tmp_path):
        """A ray constraint cone reaches every stage: its preimages, Slater
        margin and fan directions come from the cone's facet rows."""
        problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                          ordering_cone=Cone.orthant(2),
                          constraint_cone=Cone.rays([[1.0, 0.1], [0.1, 1.0]]),
                          region=PolyhedralSet.box([0.0, 0.0], [4.0, 4.0]),
                          scenarios=ScenarioMap(mats=30.0 * np.eye(2)[None],
                                                offsets=[[-58.6, -58.9]]))
        path = tmp_path / "rays.json"
        save_problem(problem, path)
        code, out, err = run_cli(["report", str(path), "--at", "2", "2"])
        assert err == ""
        document = json.loads(out.rpartition("\nsummary:")[0])
        assert document["exit_code"] == code
        assert [s["name"] for s in document["stages"] if s["status"] == "error"] == []
        stages = {s["name"]: s for s in document["stages"]}
        assert stages["qualification"]["report"]["slater_applicable"]

    def test_refuted_instance(self, free_problem_file):
        code, out, _ = run_cli(["report", free_problem_file, "--at", "-1", "-1"])
        assert code == 2
        head, _, tail = out.rpartition("\nsummary:")
        assert tail.strip() \
            == "refuted: multiplier LP infeasible; dominating witness found"
        document = json.loads(head)
        statuses = {s["name"]: s["status"] for s in document["stages"]}
        assert statuses["multiplier"] == "lp-infeasible"
        assert statuses["tangential"] == "violated"
        assert statuses["oracle"] == "ok"

    def test_infeasible_reference_is_inconclusive(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, _ = run_cli(["report", path, "--at", "0", "0"])
        assert code == 3
        head, _, tail = out.rpartition("\nsummary:")
        assert tail.strip() == "not applicable: reference point is infeasible"
        document = json.loads(head)
        later = [s["status"] for s in document["stages"] if s["name"] != "merit"]
        assert set(later) == {"skipped"}
        assert document["audit"] == []

    def test_reference_outside_the_region_is_not_applicable(self, problems_dir):
        """e3 at (0.5, -5e-7) with --tol-scale 1000 (feasibility 1e-6) is
        feasible, but misses the box x2 >= 0 by more than ACTIVE_TOL, where
        the activity rule reads no tangent rows: report and certify share
        one gate, and both exit 3 with its one reason, no stage erring."""
        argv = [str(problems_dir / "e3.json"), "--at", "0.5", "-5e-7", "--tol-scale", "1000"]
        code, out, err = run_cli(["report"] + argv)
        assert (code, err) == (3, "")
        head, _, tail = out.rpartition("\nsummary:")
        assert tail.strip() == "not applicable: " + OUTSIDE_REGION
        merit, *later = json.loads(head)["stages"]
        assert merit["feasible"] and merit["in_region"]
        assert len(later) == 9
        assert {(s["status"], s["reason"]) for s in later} == {("skipped", OUTSIDE_REGION)}
        assert run_cli(["certify"] + argv) \
            == (3, OUTSIDE_REGION + "; no certificates computed\n", "")
        assert OUTSIDE_REGION.endswith(" 1e-7") and float("1e-7") == ACTIVE_TOL

    def test_reference_within_the_activity_tolerance_runs(self, problems_dir):
        """At (0.5, -5e-8) the same tolerance passes the gate: the stages run
        and none errs (penalization is skipped for the merit slope there)."""
        argv = [str(problems_dir / "e3.json"), "--at", "0.5", "-5e-8", "--tol-scale", "1000"]
        code, out, _ = run_cli(["report"] + argv)
        stages = json.loads(out.rpartition("\nsummary:")[0])["stages"]
        assert [(s["name"], s["status"]) for s in stages
                if s["status"] in ("skipped", "error")] == [("penalization", "skipped")]
        assert run_cli(["certify"] + argv)[0] == code

    @pytest.mark.parametrize("rest, message", [
        (["--at", "1"], "expected a point of dim 2"),
        (["--at", "0.5", "1", "2"], "expected a point of dim 2"),
        (["--at", "0.5", "1", "--radius", "0"], "report needs a finite radius > 0"),
        (["--at", "0.5", "1", "--radius", "-1"], "report needs a finite radius > 0"),
    ])
    def test_reference_and_radius_are_checked_before_any_stage(self, problems_dir,
                                                               rest, message):
        """A point of the wrong dimension exits 1 as certify does, not 3
        with a merit stage error; a radius of 0 or less scans no copies of
        x or reversed boxes."""
        path = str(problems_dir / "e1.json")
        assert run_cli(["report", path, *rest]) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_library_radius_must_be_positive_and_finite(self, problems_dir, radius):
        problem = load_problem(problems_dir / "e1.json")
        with pytest.raises(PreconditionError, match="radius > 0"):
            run_report(problem, [0.5, 1.0], radius=radius)
        with pytest.raises(DimensionError, match="dim 2"):
            run_report(problem, [0.5])

    def test_written_report_is_deterministic(self, tmp_path, problems_dir):
        path = str(problems_dir / "e2.json")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code, out, _ = run_cli(["report", path, "--at", "-1", "0",
                                    "--out", str(target)])
            assert code == 0
            assert out.splitlines()[0] == f"report written to {target}"
        assert first.read_bytes() == second.read_bytes()


class TestPointMemo:
    """Problem.activity, merit and the certificate programs are read once
    per point and kept for the latest point only."""

    # two feasible points of synthetic_problem(kind, 2) whose error bounds differ
    POINTS = {"orthant": ((0.3877412113712395, -0.08808702901658595),
                          (-0.7370653667887974, 0.011398670409310972)),
              "halfspaces": ((0.5787265840941123, -0.13147507644463152),
                             (-0.7218425977996753, 0.01116325122636922)),
              "rays": ((0.0, -0.0), (0.0819506868264146, 0.23928463686471257))}

    @pytest.mark.parametrize("kind", sorted(POINTS))
    def test_one_problem_across_points_prints_what_fresh_problems_print(
            self, kind, tmp_path, monkeypatch):
        """Reports at x, y and x again and certify at y on one Problem give
        the bytes that a freshly loaded problem gives for each command."""
        path = tmp_path / f"{kind}.json"
        save_problem(synthetic_problem(kind, 2), path)
        x, y = self.POINTS[kind]
        runs = [("report", x), ("report", y), ("report", x), ("certify", y)]

        def outputs():
            return [run_cli([command, str(path), "--at", *map(repr, at)])
                    for command, at in runs]

        fresh = outputs()
        shared = load_problem(path)
        monkeypatch.setattr(rvopt.cli, "problem_from_document", lambda doc: shared)
        assert outputs() == fresh
        bounds = [json.loads(out.rpartition("\nsummary:")[0])["stages"][1]
                  for _, out, _ in fresh[:3]]
        assert bounds[0] == bounds[2] != bounds[1]

    def test_activity_arrays_are_read_only(self):
        problem = synthetic_problem("orthant", 2)
        reading = problem.activity([2.0, 0.0])
        assert reading is problem.activity(np.array([2.0, 0.0]))
        assert reading.tangent.shape == (1, 2)
        for arr in reading:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr


class TestSeedlessReport:
    def test_report_bytes_do_not_depend_on_the_seed(self, problems_dir):
        """No report stage samples, so --seed reaches nothing a report
        prints, and the document carries no seed."""
        path = str(problems_dir / "e2.json")
        first, second = (run_cli(["report", path, "--at", "-1", "0", "--seed", seed])
                         for seed in ("0", "1"))
        assert first == second and first[0] == 0
        assert "seed" not in json.loads(first[1].rpartition("\nsummary:")[0])

    def test_every_subcommand_parses_seed(self):
        """--seed stays a common flag: increase samples with it, and
        existing command lines keep working."""
        argvs = {"merit": ["--at", "0"], "feasible": ["--at", "0"], "increase": ["--at", "0"],
                 "errorbound": ["--at", "0", "--sigma", "1"], "certify": ["--at", "0"],
                 "scan": ["--box", "0", "1"], "report": ["--at", "0"]}
        assert set(argvs) == set(_HANDLERS)
        for command, rest in argvs.items():
            args = build_parser().parse_args([command, "problem.json", *rest, "--seed", "3"])
            assert args.seed == 3, command


class TestCommandErrors:
    def test_missing_file(self):
        code, out, err = run_cli(["merit", "missing.json", "--at", "0", "0"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "missing.json" in err

    def test_unparsable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "version": }')
        code, _, err = run_cli(["merit", str(bad), "--at", "0", "0"])
        assert code == 1
        assert "parse error at line 2, column 14" in err

    @pytest.mark.parametrize("argv", [["bogus"],
                                      ["solve", "e1.json", "--weights", "1", "1",
                                       "--start", "2", "2"]])
    def test_unknown_command(self, argv):
        code, _, err = run_cli(argv)
        assert code == 1
        assert "invalid choice" in err

    def test_no_arguments(self):
        code, _, err = run_cli([])
        assert code == 1
        assert "usage:" in err


class TestMalformedDocuments:
    """Every malformed field exits 1 with one field-path error line and no
    traceback."""

    ZERO_ROW = [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("field, value, message", [
        ("k", {"kind": "orthant", "dim": "two"}, "k.dim: expected a positive integer"),
        ("k", {"kind": "orthant", "dim": None}, "k.dim: expected a positive integer"),
        ("k", {"kind": "orthant", "dim": [2]}, "k.dim: expected a positive integer"),
        ("k", {"kind": "orthant", "dim": 2.5}, "k.dim: expected a positive integer"),
        ("k", {"kind": "orthant", "dim": True}, "k.dim: expected a positive integer"),
        ("c", {"kind": "halfspaces", "dim": "2", "rows": [[1.0, 0.0]]},
         "c.dim: expected a positive integer"),
        ("c", {"kind": "rays", "dim": 0, "gens": [[1.0, 0.0]]},
         "c.dim: expected a positive integer"),
        ("k", {"kind": "halfspaces", "dim": 2, "rows": ZERO_ROW}, "k.rows: halfspaces: zero row"),
        ("c", {"kind": "halfspaces", "dim": 2, "rows": ZERO_ROW}, "c.rows: halfspaces: zero row"),
        ("c", {"kind": "rays", "dim": 2, "gens": ZERO_ROW}, "c.gens: rays: zero row"),
        ("s", {"kind": "halfspaces", "A": ZERO_ROW, "b": [1.0, 1.0]},
         "s.A: halfspaces: zero row"),
        ("s", {"kind": "box", "lo": [0.0, 1.0], "hi": [1.0, 0.0]}, "s.lo[1]: exceeds s.hi[1]"),
    ])
    def test_field_path_error(self, tmp_path, problems_dir, field, value, message):
        doc = load_document(problems_dir / "e1.json")
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["merit", str(path), "--at", "0", "0"]) == (1, "", f"error: {message}\n")

    def test_integer_past_the_digit_limit(self, tmp_path, problems_dir):
        """json.loads raises a plain ValueError for an integer literal longer
        than Python's int-conversion limit; it reads as a parse error."""
        text = json.dumps(load_document(problems_dir / "e1.json"))
        path = tmp_path / "big.json"
        path.write_text(text[:-1] + ', "big": ' + "7" * 5000 + "}")
        assert run_cli(["merit", str(path), "--at", "0", "0"]) == (
            1, "", f"error: parse error: an integer literal exceeds "
                   f"{sys.get_int_max_str_digits()} digits\n")

    def test_nesting_past_the_recursion_limit(self, tmp_path, problems_dir):
        """json.loads raises RecursionError on 100,000 nested arrays; it reads
        as a parse error, not a traceback."""
        text = json.dumps(load_document(problems_dir / "e1.json"))
        path = tmp_path / "deep.json"
        path.write_text(text[:-1] + ', "deep": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run_cli(["merit", str(path), "--at", "0", "0"]) == (
            1, "", "error: parse error: the document is nested too deeply\n")

    def test_increase_past_the_sampling_dimension_cap(self, tmp_path):
        """The increase check draws ball points in n + 1 = 13 dimensions,
        past the former 12-prime Halton table, and runs: the 13th axis takes
        the 13th prime, 41, as its base."""
        n = 12
        problem = Problem(objective=AffineObjective(np.eye(n), np.zeros(n)),
                          ordering_cone=Cone.orthant(n), constraint_cone=Cone.orthant(n),
                          region=PolyhedralSet.box(np.zeros(n), np.ones(n)),
                          scenarios=ScenarioMap([np.eye(n)], [np.zeros(n)]))
        path = tmp_path / "n12.json"
        save_problem(problem, path)
        code, out, err = run_cli(["increase", str(path), "--at"] + ["0.5"] * n)
        assert (code, err) == (0, "")
        assert out.startswith("increase estimate alpha ")


class TestNonFiniteNumbers:
    """NaN and infinities are refused wherever a number enters: document
    literals, in-memory documents, every float flag and the tolerance
    scale.  Each case exits 1 with one error line."""

    @pytest.mark.parametrize("old, new, argv, message", [
        ('"J": [[1, 0]', '"J": [[NaN, 0]', ["--at", "0.5", "1"],
         "parse error: NaN is not a JSON number; numbers must be finite"),
        ('"c": [0, 0]', '"c": [-Infinity, 0]', ["--at", "0.5", "1"],
         "parse error: -Infinity is not a JSON number; numbers must be finite"),
        ('"version"', '"tolerances": {"feasibility": Infinity}, "version"',
         ["--at", "5", "-7"],
         "parse error: Infinity is not a JSON number; numbers must be finite"),
        ('"J": [[1, 0]', '"J": [[1e999, 0]', ["--at", "0.5", "1"],
         "objective.J[0][0]: expected a finite number"),
        ('"version"', '"tolerances": {"feasibility": 1e999}, "version"',
         ["--at", "5", "-7"], "tolerances.feasibility: expected a finite positive number"),
    ])
    def test_document_numbers(self, tmp_path, problems_dir, old, new, argv, message):
        text = json.dumps(load_document(problems_dir / "e1.json"))
        assert old in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new, 1))
        assert run_cli(["certify", str(path), *argv]) == (1, "", f"error: {message}\n")

    EYE = [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("field, value, message", [
        ("objective", {"kind": "affine", "J": [[1.0, 0.0], [0.0, np.nan]], "c": [0.0, 0.0]},
         "objective.J[1][1]: expected a finite number"),
        ("scenarios", [{"A": EYE, "b": [np.inf, 0.0]}],
         "scenarios[0].b[0]: expected a finite number"),
        ("s", {"kind": "box", "lo": [-np.inf, 0.0], "hi": [1.0, 1.0]},
         "s.lo[0]: expected a finite number or null"),
        ("objective", {"kind": "quadratic",
                       "components": [{"Q": EYE, "j": [0.0, 0.0], "c": np.nan}]},
         "objective.components[0].c: expected a finite number"),
    ])
    def test_in_memory_documents(self, problems_dir, field, value, message):
        doc = load_document(problems_dir / "e1.json")
        doc[field] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            problem_from_document(doc)

    @pytest.mark.parametrize("argv, flag, value", [
        (["errorbound", "e1.json", "--at", "0.5", "1", "--sigma", "nan"], "--sigma", "nan"),
        (["report", "e1.json", "--at", "0.5", "1", "--radius", "nan"], "--radius", "nan"),
        (["certify", "e1.json", "--at", "5", "-7", "--tol-scale", "inf"], "--tol-scale", "inf"),
        (["merit", "e1.json", "--at", "nan", "1"], "--at", "nan"),
        (["feasible", "e1.json", "--at", "0.5", "1e999"], "--at", "1e999"),
        (["scan", "e1.json", "--box", "-1", "nan", "-1", "2"], "--box", "nan"),
        (["increase", "e1.json", "--at", "0.5", "1", "--alpha", "nan"], "--alpha", "nan"),
        (["increase", "e1.json", "--at", "0.5", "1", "--delta", "inf"], "--delta", "inf"),
    ])
    def test_float_flags(self, problems_dir, argv, flag, value):
        argv = [str(problems_dir / a) if a == "e1.json" else a for a in argv]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"rvopt {argv[0]}: error: argument {flag}: expected a finite number, got {value!r}"]

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_tolerance_scale(self, factor):
        with pytest.raises(ValidationError, match="positive and finite"):
            Tolerances().scaled(factor)


class TestParserBuiltOnce:
    def test_reused_parser_matches_a_fresh_one(self, monkeypatch, problems_dir):
        """One process builds the parser once; reusing it across commands,
        with an option given and then left at its default and a usage error
        in between, prints and returns what a fresh parser does."""
        import rvopt.cli
        e1, e2 = str(problems_dir / "e1.json"), str(problems_dir / "e2.json")
        box = ["--box", "-1", "2", "-1", "2"]
        runs = [["scan", e1] + box + ["--res", "11"], ["scan", e1] + box,
                ["certify", e2, "--at", "-1", "0", "--skip-cq"], ["certify", e2, "--at", "-1", "0"],
                ["merit", e1, "--at", "0.25", "1", "--tol-scale", "2"], ["certify", e2],
                ["feasible", e1, "--at", "0.25", "1"], ["report", e2, "--at", "-1", "0"]]
        assert rvopt.cli.build_parser() is rvopt.cli.build_parser()
        reused = [run_cli(argv) for argv in runs]
        monkeypatch.setattr(rvopt.cli, "build_parser", rvopt.cli.build_parser.__wrapped__)
        assert reused == [run_cli(argv) for argv in runs]
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 1, 0, 0]


class TestNoSimplexOnCertificatePaths:
    """Every certify and report program runs on the NNLS kernel: with the
    simplex made to raise, no call reaches it and no stage errors, a ray C
    in R^5 included."""

    @staticmethod
    def synthetic_files(tmp_path):
        smap = ScenarioMap(mats=np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]),
                           offsets=np.array([[0.0, 0.0], [0.1, -0.1]]))
        files = []
        for name, k_cone, c_cone in (
                ("halfspaces", Cone.halfspaces([[1.0, 0.2], [0.2, 1.0]]),
                 Cone.halfspaces([[-1.0, 2.0], [1.0, 1.0]])),
                ("rays", Cone.orthant(2), Cone.rays([[1.0, 0.2], [0.3, 1.0]]))):
            problem = Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                              ordering_cone=k_cone, constraint_cone=c_cone,
                              region=PolyhedralSet.box([0.0, 0.0], [2.0, 2.0]),
                              scenarios=smap)
            path = str(tmp_path / f"{name}.json")
            save_problem(problem, path)
            files.append((path, ["1", "1"]))
        path = str(tmp_path / "rays-r5.json")
        save_problem(ray_cone_r5_problem(), path)
        files.append((path, ["0", "0"]))
        return files

    def test_simplex_is_never_called(self, monkeypatch, tmp_path, problems_dir):
        import rvopt.simplex
        calls = []

        def refuse(lp, phase_one_only):
            calls.append(lp)
            raise AssertionError("simplex reached")

        monkeypatch.setattr(rvopt.simplex, "_solve", refuse)
        runs = [(str(problems_dir / "e1.json"), ["0.5", "1"]),
                (str(problems_dir / "e2.json"), ["-1", "0"]),
                (str(problems_dir / "e3.json"), ["0.5", "0"])]
        runs += self.synthetic_files(tmp_path)
        for path, at in runs:
            code, out, err = run_cli(["certify", path, "--at"] + at)
            assert code in (0, 2, 3) and err == "", (path, out, err)
            assert out.startswith("qualification "), (path, out)
            code, out, err = run_cli(["report", path, "--at"] + at)
            assert code in (0, 2, 3) and err == "", (path, err)
            report = json.loads(out.rsplit("summary:", 1)[0])
            for stage in report["stages"]:
                assert stage["status"] != "error", (path, stage)
        assert calls == []


class TestNoSamplingOnReportStages:
    """No report stage samples: with the Halton generator made to raise, and
    the sphere-direction cache that would hide its calls cleared, no stage
    errors on the report bench cases or on a ray C in R^5."""

    def test_halton_is_never_called(self, monkeypatch):
        import rvopt.sampling
        rvopt.sampling._sphere_directions_cached.cache_clear()
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("sampling reached")

        monkeypatch.setattr(rvopt.sampling, "halton", refuse)
        runs = [case for case in bench_cases() if case[0].endswith("-report")]
        assert len(runs) == 5
        runs.append(("rays-r5", ray_cone_r5_problem(), np.zeros(2)))
        for label, problem, x in runs:
            report = run_report(problem, x)
            assert [s["name"] for s in report["stages"] if s["status"] == "error"] == [], label
        assert calls == []
