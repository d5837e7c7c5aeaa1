"""Command-line front end.

Each subcommand loads a problem file, runs one check, prints a short
human-readable result, and exits with the shared code convention:
0 = requested checks consistent, 2 = refutation found, 3 = inconclusive,
1 = error.
"""

import argparse
import functools
import sys

import numpy as np

from .certificates import (check_tangential_condition, multiplier_certificate,
                           qualification_check, scalarized_fan_certificate)
from .docio import load_document, problem_from_document, tolerances_from_document
from .errors import (ConvergenceError, DimensionError, PreconditionError,
                     RepresentationError, SamplingError, ValidationError)
from .oracle import grid_scan
from .regularity import check_metric_increase, estimate_increase_bound, verify_error_bound
from .reporting import (EXIT_CONSISTENT, EXIT_ERROR, EXIT_INCONCLUSIVE,
                        EXIT_REFUTED, render_report, run_report, verdict,
                        write_report)


def _common_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0,
                        help="sampling seed of increase (default 0)")
    parent.add_argument("--tol-scale", type=float, default=1.0,
                        help="scale on the feasibility tolerance (default 1)")
    return parent


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with the generic error code, keeping
    code 2 reserved for refutations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rvopt`` parser, built once per process."""
    parser = _Parser(
        prog="rvopt",
        description="Robust vector optimization: merit functions, error "
                    "bounds, and first-order efficiency certificates.")
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merit", parents=[common],
                       help="constraint merit value at a point")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True,
                   metavar="X", help="evaluation point")

    p = sub.add_parser("feasible", parents=[common],
                       help="membership in the robust feasible set")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True, metavar="X")

    p = sub.add_parser("increase", parents=[common],
                       help="sampled metric increase check")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--alpha", type=float, default=None,
                   help="increase factor to test (default: estimate)")
    p.add_argument("--delta", type=float, default=0.5,
                   help="neighborhood radius (default 0.5)")

    p = sub.add_parser("errorbound", parents=[common],
                       help="lattice check of the merit error bound")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--sigma", type=float, required=True,
                   help="descent constant")
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--res", type=int, default=41, help="grid resolution")

    p = sub.add_parser("certify", parents=[common],
                       help="first-order certificates at a point")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--skip-cq", action="store_true",
                   help="do not run the qualification check")

    p = sub.add_parser("scan", parents=[common],
                       help="brute-force lattice efficiency scan")
    p.add_argument("file")
    p.add_argument("--box", type=float, nargs="+", required=True,
                   metavar="B", help="bounds as lo hi pairs, one per axis")
    p.add_argument("--res", type=int, nargs="+", default=[41],
                   help="grid resolution (one value or one per axis)")
    p.add_argument("--out", default=None, help="write the scan table here")

    p = sub.add_parser("report", parents=[common],
                       help="full staged audit of a point")
    p.add_argument("file")
    p.add_argument("--at", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--skip-cq", action="store_true")
    p.add_argument("--radius", type=float, default=0.5)

    return parser


def _load(args):
    doc = load_document(args.file)
    problem = problem_from_document(doc)
    tolerances = tolerances_from_document(doc).scaled(args.tol_scale)
    return problem, tolerances


def _cmd_merit(args) -> int:
    problem, _ = _load(args)
    print(f"merit {problem.merit(args.at):.12g}")
    return EXIT_CONSISTENT


def _cmd_feasible(args) -> int:
    problem, tol = _load(args)
    inside = problem.feasible(args.at, tol=tol.feasibility)
    print("feasible" if inside else "infeasible")
    return EXIT_CONSISTENT


def _cmd_increase(args) -> int:
    problem, _ = _load(args)
    smap, cone, region = problem.scenarios, problem.constraint_cone, \
        problem.region
    if args.alpha is None:
        alpha = estimate_increase_bound(smap, cone, region, args.at,
                                        args.delta, seed=args.seed)
        if alpha is None:
            print("increase: no factor above the floor passed")
            return EXIT_INCONCLUSIVE
        print(f"increase estimate alpha {alpha:.6g}")
        return EXIT_CONSISTENT
    report = check_metric_increase(smap, cone, region, args.at, args.alpha,
                                   args.delta, seed=args.seed)
    if report.passed:
        print(f"increase holds at alpha {args.alpha:.6g}")
        return EXIT_CONSISTENT
    print(f"increase fails at alpha {args.alpha:.6g}; witness "
          f"{_fmt(report.witness[0])}")
    return EXIT_REFUTED


def _cmd_errorbound(args) -> int:
    problem, tol = _load(args)
    report = verify_error_bound(problem.scenarios, problem.constraint_cone,
                                problem.region, args.at, args.sigma,
                                args.radius, resolution=args.res,
                                feas_tol=tol.feasibility)
    if report.passed:
        print(f"error bound holds (max violation {report.max_violation:.3g}, "
              f"slack {report.slack:.3g})")
        return EXIT_CONSISTENT
    print(f"error bound fails; worst point {_fmt(report.witness)} "
          f"violates by {report.max_violation:.3g}")
    return EXIT_REFUTED


def _cmd_certify(args) -> int:
    problem, tol = _load(args)
    x = args.at
    if not problem.feasible(x, tol=tol.feasibility):
        print("reference point infeasible; no certificates computed")
        return EXIT_INCONCLUSIVE
    results = {
        "tangential": check_tangential_condition(problem, x),
        "scalarized": scalarized_fan_certificate(problem, x),
        "multiplier": multiplier_certificate(problem, x, tol=tol.feasibility),
    }
    cq_passed = None
    if not args.skip_cq:
        cq = qualification_check(problem, x)
        cq_passed = cq.passed
        print(f"qualification {'passed' if cq.passed else 'failed'} "
              f"(margin {cq.margin:.3g})")
    for name, cert in results.items():
        line = f"{name} {cert.status} (residual {cert.residual:.3g})"
        if cert.witness is not None:
            line += f" witness {_fmt(cert.witness)}"
        print(line)
    return verdict(results, cq_passed)[1]


def _cmd_scan(args) -> int:
    problem, tol = _load(args)
    bounds = args.box
    if len(bounds) % 2 != 0:
        raise ValidationError("--box expects lo hi pairs")
    lo, hi = bounds[0::2], bounds[1::2]
    res = args.res if len(args.res) > 1 else args.res[0]
    scan = grid_scan(problem, lo, hi, res, feas_tol=tol.feasibility)
    print(f"scanned {scan.points.shape[0]} points: "
          f"{int(scan.feasible.sum())} feasible, "
          f"{int(scan.weak_efficient.sum())} weakly efficient, "
          f"{int(scan.efficient.sum())} efficient")
    if args.out:
        scan.to_csv(args.out)
        print(f"table written to {args.out}")
    return EXIT_CONSISTENT


def _cmd_report(args) -> int:
    problem, tolerances = _load(args)
    report = run_report(problem, args.at, radius=args.radius, skip_cq=args.skip_cq,
                        tolerances=tolerances)
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(render_report(report))
    print(f"summary: {report['summary']}")
    return report["exit_code"]


_HANDLERS = {"merit": _cmd_merit, "feasible": _cmd_feasible,
             "increase": _cmd_increase, "errorbound": _cmd_errorbound,
             "certify": _cmd_certify, "scan": _cmd_scan,
             "report": _cmd_report}


def _fmt(vec) -> str:
    arr = np.asarray(vec, dtype=float).ravel()
    return "(" + ", ".join(f"{v:.6g}" for v in arr) + ")"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, DimensionError, PreconditionError,
            RepresentationError, ConvergenceError, SamplingError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
