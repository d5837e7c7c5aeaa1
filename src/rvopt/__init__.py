"""Robust vector optimization with uncertain cone constraints.

The package models problems of the form: minimize a vector objective over
a polyhedral region, subject to every map in a finite scenario family
landing inside a constraint cone.  It provides the constraint merit
function, sampled regularity estimates and error bounds, first-order
weak-efficiency certificates with explicit multipliers, and brute-force
lattice oracles to cross-validate them.
"""

from .cones import Cone
from .docio import (Tolerances, load_problem, problem_from_document,
                    problem_to_document, save_problem)
from .errors import (ConvergenceError, DimensionError, PreconditionError,
                     RepresentationError, SamplingError, ValidationError)
from .firstorder import (AffineObjective, Fan, PolyhedralSet,
                         QuadraticObjective, contingent_cone,
                         fan_from_scenarios, normal_cone)
from .oracle import (GridScan, check_penalization_transfer, grid_scan,
                     refute_efficiency)
from .problem import Problem
from .regularity import (check_metric_increase, estimate_increase_bound,
                         verify_error_bound)
from .certificates import (Certificate, check_penalization_condition,
                           check_tangential_condition,
                           convex_scalarized_certificate,
                           estimate_order_lipschitz, multiplier_certificate,
                           qualification_check, scalarized_fan_certificate)
from .reporting import run_report, render_report, write_report
from .scenarios import PointCloud, ScenarioMap, excess, hausdorff

__version__ = "0.1.0"

__all__ = [
    "AffineObjective", "Certificate", "Cone", "ConvergenceError",
    "DimensionError", "Fan", "GridScan", "PointCloud", "PolyhedralSet",
    "PreconditionError", "Problem",
    "QuadraticObjective", "RepresentationError", "SamplingError",
    "ScenarioMap", "Tolerances", "ValidationError",
    "check_metric_increase", "check_penalization_condition",
    "check_penalization_transfer", "check_tangential_condition",
    "contingent_cone", "convex_scalarized_certificate",
    "estimate_increase_bound", "estimate_order_lipschitz",
    "excess", "fan_from_scenarios", "grid_scan", "hausdorff",
    "load_problem", "multiplier_certificate", "normal_cone",
    "problem_from_document", "problem_to_document", "qualification_check",
    "refute_efficiency", "render_report", "run_report", "save_problem",
    "scalarized_fan_certificate", "verify_error_bound",
    "write_report",
]
