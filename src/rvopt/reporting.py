"""Staged audit of one reference point: merit, the exact local error-bound
constant and a closed-form order-Lipschitz bound, and every first-order
certificate, composed into a machine-readable report.

The stages run in a fixed order; a stage that cannot run (missing estimate
upstream, an upstream error, or a hypothesis that fails, such as a flat
merit function for the penalization stage) is recorded as skipped with its
reason rather than aborting the run.  :func:`verdict` is the one verdict
rule of ``report`` and ``certify``.  No stage samples, and reports
contain the full instance echo and all stage inputs, so a replay is
byte-identical.
"""

import json

import numpy as np

from .certificates import (HOLDS, LP_INFEASIBLE, VIOLATED,
                           check_penalization_condition,
                           check_tangential_condition,
                           convex_scalarized_certificate, merit_is_flat,
                           multiplier_certificate, order_lipschitz_bound,
                           qualification_check, scalarized_fan_certificate,
                           slater_check)
from .docio import Tolerances, problem_to_document
from .firstorder import ACTIVE_TOL
from .oracle import refute_efficiency
from .problem import Problem
from .regularity import SUBSET_BUDGET, local_error_bound
# unused; bench/tracing.py wraps these names in rvopt.reporting (its regularity,
# certificates.order_lipschitz and firstorder.subgradient sites), so they stay
# until it drops those sites
from .certificates import estimate_order_lipschitz  # noqa: F401
from .firstorder import check_upper_subgradient, upper_subgradient_candidate  # noqa: F401
from .regularity import estimate_increase_bound, verify_error_bound  # noqa: F401

REPORT_VERSION = 1

EXIT_CONSISTENT = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3

SUMMARY_CONSISTENT = "consistent with necessary conditions"
DOWNGRADED = "downgraded: qualification check failed"

# (certificate kind, failing status, evidence), in the order evidence is cited
_EVIDENCE = (("multiplier", LP_INFEASIBLE, "multiplier LP infeasible"),
             ("tangential", VIOLATED, "tangential condition violated"),
             ("penalization", VIOLATED, "penalization condition violated"),
             ("scalarized-fan", LP_INFEASIBLE, "scalarized LP infeasible"),
             ("scalarized-convex", LP_INFEASIBLE, "scalarized LP infeasible"))


def verdict(certs: dict, cq_passed, witness_found: bool = False, errored=()):
    """(summary, exit code, downgraded names) for certificates by name.

    A failed certificate refutes only when its hypotheses hold: a violated
    directional condition always, an infeasible system unless the
    qualification check failed (``cq_passed`` False), which downgrades it.
    A dominating witness always refutes.  Otherwise the verdict is
    consistent only when no stage errored and every certificate holds."""
    evidence, downgraded = [], []
    for kind, status, reason in _EVIDENCE:
        for name in [n for n, c in certs.items() if (c.kind, c.status) == (kind, status)]:
            if status == LP_INFEASIBLE and cq_passed is False:
                downgraded.append(name)
            elif not evidence:
                evidence.append(reason)
    if witness_found:
        evidence.append("dominating witness found")
    if evidence:
        return "refuted: " + "; ".join(evidence), EXIT_REFUTED, downgraded
    reasons = []
    if errored:
        reasons.append("stage errors in " + ", ".join(errored))
    if downgraded:
        reasons.append(", ".join(downgraded) + " " + DOWNGRADED)
    if any(c.status != HOLDS and name not in downgraded
           for name, c in certs.items()):
        reasons.append("some certificates were inconclusive")
    if reasons:
        return "inconclusive: " + "; ".join(reasons), EXIT_INCONCLUSIVE, downgraded
    return SUMMARY_CONSISTENT, EXIT_CONSISTENT, downgraded


def _clean(value):
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _certificate_entry(cert) -> dict:
    return {"status": cert.status,
            "residual": cert.residual,
            "y_star": cert.y_star,
            "v": cert.v,
            "duals": list(cert.duals),
            "normal": cert.normal,
            "witness": cert.witness,
            "notes": list(cert.notes),
            **({"atoms": list(cert.atoms)} if cert.atoms else {})}


class _NotApplicable(Exception):
    """Raised by a stage whose hypothesis fails; the stage is skipped."""


class _Pipeline:
    def __init__(self):
        self.stages = []

    def run(self, name: str, inputs: dict, fn):
        entry = {"name": name, "status": "ok", "inputs": inputs}
        try:
            detail = fn()
        except _NotApplicable as exc:
            self.skip(name, str(exc))
            return None
        except Exception as exc:              # noqa: BLE001 - stage isolation
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            self.stages.append(entry)
            return None
        entry.update(detail)
        self.stages.append(entry)
        return detail

    def skip(self, name: str, reason: str):
        self.stages.append({"name": name, "status": "skipped", "reason": reason})


def run_report(problem: Problem, x, radius: float = 0.5,
               oracle_resolution: int = 21, skip_cq: bool = False,
               tolerances: Tolerances | None = None) -> dict:
    """Full audit of a reference point; returns the report document."""
    x = np.asarray(x, dtype=float).ravel()
    tol = tolerances if tolerances is not None else Tolerances()
    options = {"radius": radius, "oracle_resolution": oracle_resolution,
               "skip_cq": skip_cq, "tolerances": {"feasibility": tol.feasibility}}
    pipe = _Pipeline()
    audit = []

    merit_detail = pipe.run("merit", {"at": x.tolist()}, lambda: {
        "merit": problem.merit(x),
        "in_region": problem.region.contains(x, tol=tol.feasibility),
        "feasible": problem.feasible(x, tol=tol.feasibility)})
    feasible = bool(merit_detail["feasible"]) if merit_detail else False

    later = ["error_bound", "order_lipschitz", "penalization", "tangential",
             "scalarized_fan", "scalarized_convex", "multiplier", "qualification",
             "oracle"]
    if not feasible:
        reason = "reference point infeasible" if merit_detail else "merit stage failed"
        for name in later:
            pipe.skip(name, reason)
        if merit_detail is None:
            return _finish(problem, x, options, pipe, audit, {}, None)
        return _document(problem, x, options, pipe, audit,
                         "not applicable: reference point is infeasible",
                         EXIT_INCONCLUSIVE)

    bound = pipe.run("error_bound", {"active_tol": ACTIVE_TOL, "subset_budget": SUBSET_BUDGET},
                     lambda: local_error_bound(problem, x)._asdict())
    sigma = None
    if bound and bound["established"]:
        # a null sigma: no constraint row is active, merit is 0 nearby, beta = 0
        sigma = np.inf if bound["sigma"] is None else bound["sigma"]
    audit.append({"hypothesis": "local error bound of the merit function",
                  "status": "established" if sigma is not None else "not established"})

    lip = pipe.run("order_lipschitz", {"radius": radius},
                   lambda: {"ell": order_lipschitz_bound(problem, x, radius)})
    ell = lip["ell"] if lip else None
    audit.append({"hypothesis": "order-Lipschitz bound for the objective",
                  "status": "established" if ell is not None else "not established"})

    certs = {}

    def _cert_stage(name, inputs, fn):
        def wrapped():
            cert = fn()
            certs[name] = cert
            return _certificate_entry(cert)
        pipe.run(name, inputs, wrapped)

    hypotheses = "needs both the error-bound constant and the order-Lipschitz bound"
    if sigma is None or ell is None:
        pipe.skip("penalization", hypotheses)
    else:
        def _penalization():
            flat = merit_is_flat(problem, x)
            audit.append({"hypothesis": "upper gradient of the merit function",
                          "status": "established" if flat else "not established"})
            if not flat:
                raise _NotApplicable("not applicable: the merit function has a "
                                     "nonzero slope at the reference point")
            return check_penalization_condition(problem, x, sigma, ell)

        _cert_stage("penalization", {"sigma": bound["sigma"], "ell": ell}, _penalization)

    _cert_stage("tangential", {}, lambda: check_tangential_condition(problem, x))
    _cert_stage("scalarized_fan", {}, lambda: scalarized_fan_certificate(problem, x))
    if not problem.objective.is_affine:
        pipe.skip("scalarized_convex", "objective is not affine")
    elif sigma is None or ell is None:
        pipe.skip("scalarized_convex", hypotheses)
    else:
        _cert_stage("scalarized_convex", {"sigma": bound["sigma"], "ell": ell},
                    lambda: convex_scalarized_certificate(problem, x, sigma, ell))
    _cert_stage("multiplier", {},
                lambda: multiplier_certificate(problem, x, tol=tol.feasibility))

    cq_passed = None
    if skip_cq:
        pipe.skip("qualification", "skipped by request")
        audit.append({"hypothesis": "constraint qualification",
                      "status": "assumed-by-user"})
    else:
        cq = pipe.run("qualification", {}, lambda: {
            "report": _qualification_entry(qualification_check(problem, x),
                                           slater_check(problem, x))})
        cq_passed = cq["report"]["passed"] if cq else None
        audit.append({"hypothesis": "constraint qualification",
                      "status": "verified" if cq_passed
                      else ("assumed" if cq_passed is None else "refuted")})

    lo = x - radius
    hi = x + radius
    pipe.run("oracle", {"lo": lo.tolist(), "hi": hi.tolist(),
                        "resolution": oracle_resolution}, lambda: {
        "result": vars(refute_efficiency(problem, x, lo, hi,
                                         oracle_resolution,
                                         feas_tol=tol.feasibility))})

    return _finish(problem, x, options, pipe, audit, certs, cq_passed)


def _qualification_entry(main, slater) -> dict:
    return {"passed": main.passed, "margin": main.margin, "witness": main.witness,
            "slater_applicable": slater.applicable, "slater_passed": slater.passed,
            "slater_margin": slater.margin, "slater_witness": slater.witness,
            "notes": list(main.notes + slater.notes)}


def _finish(problem, x, options, pipe, audit, certs, cq_passed):
    stages = {s["name"]: s for s in pipe.stages}
    oracle = stages.get("oracle", {}).get("result")
    errored = [name for name, s in stages.items() if s["status"] == "error"]
    summary, exit_code, downgraded = verdict(
        certs, cq_passed, oracle is not None and oracle["witness"] is not None, errored)
    for name in downgraded:
        stages[name]["notes"] = stages[name]["notes"] + [DOWNGRADED]
    return _document(problem, x, options, pipe, audit, summary, exit_code)


def _document(problem, x, options, pipe, audit, summary, exit_code):
    return _clean({"format": "robust-vopt-report",
                   "version": REPORT_VERSION,
                   "reference": x.tolist(),
                   "options": options,
                   "instance": problem_to_document(problem),
                   "stages": pipe.stages,
                   "audit": audit,
                   "summary": summary,
                   "exit_code": exit_code})


def render_report(report: dict) -> str:
    """Canonical serialization; equal reports render to equal bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(report))
