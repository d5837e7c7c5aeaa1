"""Problem documents and the command-line front end.

The text the tool prints is part of its interface, so these tests pin exact
lines and exit codes.  Document tests check that a file survives a round trip
through the in-memory model without losing a field.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from rvopt import (
    AffineObjective,
    Cone,
    PolyhedralSet,
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
from rvopt.reporting import REPORT_VERSION, run_report

from conftest import ray_cone_r5_problem, synthetic_problem
from test_certificates import bench_cases


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

    def test_scan_rejects_odd_bounds(self, problems_dir):
        path = str(problems_dir / "e1.json")
        code, out, err = run_cli(["scan", path, "--box", "-1", "2", "-1"])
        assert (code, out) == (1, "")
        assert err == "error: --box expects lo hi pairs\n"


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

    def test_written_report_is_deterministic(self, tmp_path, problems_dir):
        path = str(problems_dir / "e2.json")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code, out, _ = run_cli(["report", path, "--at", "-1", "0",
                                    "--out", str(target)])
            assert code == 0
            assert out.splitlines()[0] == f"report written to {target}"
        assert first.read_bytes() == second.read_bytes()


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
