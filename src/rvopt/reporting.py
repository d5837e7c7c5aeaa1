"""Staged audit of one reference point: merit, regularity estimates, and
every first-order certificate, composed into a machine-readable report.

The stages run in a fixed order; a stage that cannot run (missing estimate
upstream, or an upstream error) is recorded as skipped with its reason
rather than aborting the run.  Reports contain the full instance echo, the
seed, and all stage inputs, so a replay with the same seed is
byte-identical.
"""

import json

import numpy as np

from .certificates import (check_penalization_condition,
                           check_tangential_condition,
                           convex_scalarized_certificate,
                           estimate_order_lipschitz, multiplier_certificate,
                           qualification_check, scalarized_fan_certificate)
from .docio import Tolerances, problem_to_document
from .firstorder import check_upper_subgradient, upper_subgradient_candidate
from .oracle import refute_efficiency
from .problem import Problem
from .regularity import cq_sigma, estimate_increase_bound, verify_error_bound

REPORT_VERSION = 1

EXIT_CONSISTENT = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3

SUMMARY_CONSISTENT = "consistent with necessary conditions"


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
            "notes": list(cert.notes)}


class _Pipeline:
    def __init__(self):
        self.stages = []
        self.failed = {}           # stage name -> error message

    def run(self, name: str, inputs: dict, fn):
        entry = {"name": name, "status": "ok", "inputs": inputs}
        try:
            detail = fn()
        except Exception as exc:              # noqa: BLE001 - stage isolation
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            self.failed[name] = entry["error"]
            self.stages.append(entry)
            return None
        entry.update(detail)
        self.stages.append(entry)
        return detail

    def skip(self, name: str, reason: str):
        self.stages.append({"name": name, "status": "skipped", "reason": reason})


def run_report(problem: Problem, x, seed: int = 0, radius: float = 0.5,
               oracle_resolution: int = 21, skip_cq: bool = False,
               tolerances: Tolerances | None = None) -> dict:
    """Full audit of a reference point; returns the report document."""
    x = np.asarray(x, dtype=float).ravel()
    tol = tolerances if tolerances is not None else Tolerances()
    pipe = _Pipeline()
    audit = []

    merit_detail = pipe.run("merit", {"at": x.tolist()}, lambda: {
        "merit": problem.merit(x),
        "in_region": problem.region.contains(x, tol=tol.feasibility),
        "feasible": problem.feasible(x, tol=tol.feasibility)})
    feasible = bool(merit_detail["feasible"]) if merit_detail else False

    later = ["increase", "sigma", "error_bound", "order_lipschitz",
             "penalization", "tangential", "scalarized_fan",
             "scalarized_convex", "multiplier", "qualification", "oracle"]
    if not feasible:
        reason = "reference point infeasible" if merit_detail \
            else "merit stage failed"
        for name in later:
            pipe.skip(name, reason)
        return _finish(problem, x, pipe, audit, seed, radius,
                       oracle_resolution, skip_cq, tol,
                       infeasible=merit_detail is not None)

    smap, cone, region = problem.scenarios, problem.constraint_cone, problem.region
    inc = pipe.run("increase", {"radius": radius, "seed": seed}, lambda: {
        "alpha_hat": estimate_increase_bound(smap, cone, region, x, radius,
                                             seed=seed)})
    alpha_hat = inc["alpha_hat"] if inc else None
    audit.append({"hypothesis": "metric increase around the reference point",
                  "status": "certified-on-samples" if alpha_hat is not None
                  else "not established"})

    if alpha_hat is None:
        reason = "no increase bound established" if inc else \
            "increase stage failed"
        pipe.skip("sigma", reason)
        sigma = None
    else:
        sig = pipe.run("sigma", {"alpha_hat": alpha_hat},
                       lambda: {"sigma": cq_sigma(alpha_hat)})
        sigma = sig["sigma"] if sig else None

    if sigma is None:
        pipe.skip("error_bound", "no descent constant available")
    else:
        pipe.run("error_bound", {"sigma": sigma, "radius": radius,
                                 "resolution": 41}, lambda: {
            "report": vars(verify_error_bound(smap, cone, region, x, sigma,
                                              radius, resolution=41,
                                              feas_tol=tol.feasibility))})

    lip = pipe.run("order_lipschitz", {"radius": radius, "seed": seed},
                   lambda: {"ell": estimate_order_lipschitz(
                       problem, x, radius=radius, seed=seed).ell})
    ell = lip["ell"] if lip else None
    audit.append({"hypothesis": "order-Lipschitz bound for the objective",
                  "status": "certified-on-samples" if ell is not None
                  else "not established"})

    certs = {}
    if alpha_hat is None or ell is None:
        pipe.skip("penalization", "needs both the increase bound and the "
                  "order-Lipschitz estimate")
    else:
        def _penalization():
            candidate = upper_subgradient_candidate(problem.merit_many, x)
            check = check_upper_subgradient(problem.merit_many, x, candidate,
                                            eps=1e-6,
                                            radius=min(radius, 0.25),
                                            seed=seed)
            cert = check_penalization_condition(problem, x, alpha_hat, ell,
                                                candidate, seed=seed)
            certs["penalization"] = cert
            entry = _certificate_entry(cert)
            entry["upper_gradient"] = candidate
            entry["upper_gradient_valid_on_samples"] = check.passed
            return entry

        pipe.run("penalization", {"alpha": alpha_hat, "ell": ell,
                                  "seed": seed}, _penalization)
        audit.append({"hypothesis": "finite-difference upper gradient of "
                      "the merit function",
                      "status": "certified-on-samples"})

    def _cert_stage(name, inputs, fn):
        def wrapped():
            cert = fn()
            certs[name] = cert
            return _certificate_entry(cert)
        pipe.run(name, inputs, wrapped)

    _cert_stage("tangential", {"seed": seed},
                lambda: check_tangential_condition(problem, x, seed=seed))
    _cert_stage("scalarized_fan", {"seed": seed},
                lambda: scalarized_fan_certificate(problem, x, seed=seed))
    if not problem.objective.is_affine:
        pipe.skip("scalarized_convex", "objective is not affine")
    elif alpha_hat is None or ell is None:
        pipe.skip("scalarized_convex", "needs both the increase bound and "
                  "the order-Lipschitz estimate")
    else:
        _cert_stage("scalarized_convex", {"alpha": alpha_hat, "ell": ell,
                                          "seed": seed},
                    lambda: convex_scalarized_certificate(problem, x,
                                                          alpha_hat, ell,
                                                          seed=seed))
    _cert_stage("multiplier", {},
                lambda: multiplier_certificate(problem, x, tol=tol.feasibility))

    cq_passed = None
    if skip_cq:
        pipe.skip("qualification", "skipped by request")
        audit.append({"hypothesis": "constraint qualification",
                      "status": "assumed-by-user"})
    else:
        cq = pipe.run("qualification", {}, lambda: {
            "report": _qualification_entry(qualification_check(problem, x))})
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

    return _finish(problem, x, pipe, audit, seed, radius, oracle_resolution,
                   skip_cq, tol, infeasible=False, certs=certs,
                   cq_passed=cq_passed)


def _qualification_entry(report) -> dict:
    return {"passed": report.passed, "margin": report.margin,
            "witness": report.witness,
            "slater_applicable": report.slater_applicable,
            "slater_passed": report.slater_passed,
            "slater_margin": report.slater_margin,
            "slater_witness": report.slater_witness,
            "notes": list(report.notes)}


def _finish(problem, x, pipe, audit, seed, radius, oracle_resolution,
            skip_cq, tol, infeasible: bool, certs=None, cq_passed=None):
    certs = certs or {}
    stage_by_name = {s["name"]: s for s in pipe.stages}

    evidence = []
    mult = certs.get("multiplier")
    if mult is not None and mult.status == "lp-infeasible":
        if cq_passed is False:
            stage_by_name["multiplier"].setdefault("notes", [])
            stage_by_name["multiplier"]["notes"] = list(
                stage_by_name["multiplier"].get("notes", [])) + [
                "downgraded: qualification check failed"]
        else:
            evidence.append("multiplier LP infeasible")
    tang = certs.get("tangential")
    if tang is not None and tang.status == "violated" and not evidence:
        evidence.append("tangential condition violated")
    pen = certs.get("penalization")
    if pen is not None and pen.status == "violated" and not evidence:
        evidence.append("penalization condition violated")
    for name in ("scalarized_fan", "scalarized_convex"):
        cert = certs.get(name)
        if cert is not None and cert.status == "lp-infeasible" \
                and not evidence and cq_passed is not False:
            evidence.append("scalarized LP infeasible")
    oracle_stage = stage_by_name.get("oracle")
    witness_found = bool(oracle_stage and oracle_stage.get("status") == "ok"
                         and oracle_stage["result"]["witness"] is not None)
    if witness_found:
        evidence.append("dominating witness found")

    errored = [s["name"] for s in pipe.stages if s["status"] == "error"]
    inconclusive = any(c.status == "inconclusive" for c in certs.values())

    if infeasible:
        summary = "not applicable: reference point is infeasible"
        exit_code = EXIT_INCONCLUSIVE
    elif evidence:
        summary = "refuted: " + "; ".join(evidence)
        exit_code = EXIT_REFUTED
    elif errored:
        summary = "inconclusive: stage errors in " + ", ".join(errored)
        exit_code = EXIT_INCONCLUSIVE
    elif inconclusive:
        summary = "inconclusive: some certificates were inconclusive"
        exit_code = EXIT_INCONCLUSIVE
    else:
        summary = SUMMARY_CONSISTENT
        exit_code = EXIT_CONSISTENT

    return _clean({"format": "robust-vopt-report",
                   "version": REPORT_VERSION,
                   "seed": seed,
                   "reference": x.tolist(),
                   "options": {"radius": radius,
                               "oracle_resolution": oracle_resolution,
                               "skip_cq": skip_cq,
                               "tolerances": {"feasibility": tol.feasibility}},
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
