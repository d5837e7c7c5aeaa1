"""Spans around the calls into each rvopt layer, installed from outside.

Wrappers go on every import site a call passes through (``reporting``
imports its stage functions by name, so wrapping only the defining module
would miss them) and on the class methods the kernels are reached by.
Spans are kept in flat arrays while the passes run and written once when
the run ends.  A layer's self time is its span durations minus the part
covered by child spans, so the layers plus the unattributed remainder
add up to the pass.
"""

import functools
import time
from array import array
from collections import Counter

import numpy as np

import rvopt.certificates
import rvopt.cli
import rvopt.firstorder
import rvopt.oracle
import rvopt.problem
import rvopt.regularity
import rvopt.reporting
import rvopt.scenarios
from rvopt.cones import Cone
from rvopt.firstorder import PolyhedralSet
from rvopt.oracle import GridScan
from rvopt.scenarios import ScenarioMap


def _calls(key):
    return lambda args, kwargs, result: ((key, 1),)


def _rows(key, index):
    def count(args, kwargs, result):
        return ((key, np.atleast_2d(args[index]).shape[0]),)
    return count


def _increase_check(args, kwargs, result):
    return (("regularity.increase.checks", 1),
            ("regularity.increase.passes", int(result.passed)))


def _error_bound(args, kwargs, result):
    resolution = kwargs.get("resolution", args[6] if len(args) > 6 else 101)
    return (("regularity.error_bound.points", resolution ** np.size(args[3])),)


def _scan(args, kwargs, result):
    return (("oracle.scan.points", result.points.shape[0]),
            ("oracle.scan.feasible", int(result.feasible.sum())))


def _merit_one(args, kwargs, result):
    return (("scenarios.merit.rows", 1),)


_CERTIFICATE_SITES = {
    "check_penalization_condition": "certificates.penalization",
    "check_tangential_condition": "certificates.tangential",
    "scalarized_fan_certificate": "certificates.scalarized_fan",
    "convex_scalarized_certificate": "certificates.scalarized_convex",
    "multiplier_certificate": "certificates.multiplier",
    "qualification_check": "certificates.qualification",
    "estimate_order_lipschitz": "certificates.order_lipschitz",
}

# (owner, attribute, layer, counter); owners are modules (import sites) or
# classes (methods).
SITES = [
    (rvopt.cli, "load_document", "docio.load", _calls("docio.load.calls")),
    (rvopt.cli, "problem_from_document", "docio.load", None),
    (rvopt.cli, "tolerances_from_document", "docio.load", None),
    (rvopt.cli, "run_report", "reporting.pipeline", None),
    (rvopt.cli, "render_report", "reporting.render", None),
    (rvopt.reporting, "render_report", "reporting.render", None),
    (rvopt.cli, "grid_scan", "oracle.scan", _scan),
    (rvopt.oracle, "grid_scan", "oracle.scan", _scan),
    (rvopt.reporting, "refute_efficiency", "oracle.refute", None),
    (GridScan, "to_csv", "oracle.csv", None),
    (rvopt.reporting, "estimate_increase_bound", "regularity.increase", None),
    (rvopt.regularity, "check_metric_increase", "regularity.increase", _increase_check),
    (rvopt.cli, "verify_error_bound", "regularity.error_bound", _error_bound),
    (rvopt.reporting, "verify_error_bound", "regularity.error_bound", _error_bound),
    (rvopt.reporting, "upper_subgradient_candidate", "firstorder.subgradient", None),
    (rvopt.reporting, "check_upper_subgradient", "firstorder.subgradient", None),
    (rvopt.certificates, "sampled_cone_directions", "firstorder.cone_directions",
     _calls("firstorder.cone_directions.calls")),
    (PolyhedralSet, "contains", "firstorder.region", _calls("firstorder.region.calls")),
    (PolyhedralSet, "project", "firstorder.region", _calls("firstorder.region.calls")),
    (ScenarioMap, "merit", "scenarios.merit", _merit_one),
    (ScenarioMap, "merit_many", "scenarios.merit", _rows("scenarios.merit.rows", 2)),
    (rvopt.regularity, "distance_many", "cones.distance_many",
     _rows("cones.distance_many.rows", 1)),
    (rvopt.scenarios, "distance_many", "cones.distance_many",
     _rows("cones.distance_many.rows", 1)),
    (Cone, "project", "cones.project", _calls("cones.project.calls")),
    (Cone, "linear_preimage", "cones.preimage", None),
    (rvopt.certificates, "solve_lp", "simplex.lp", _calls("simplex.lp.calls")),
    (rvopt.certificates, "feasibility", "simplex.lp", _calls("simplex.lp.calls")),
    (rvopt.problem, "solve_lp", "simplex.lp", _calls("simplex.lp.calls")),
]
for _attr, _layer in _CERTIFICATE_SITES.items():
    SITES.append((rvopt.reporting, _attr, _layer, None))
    if hasattr(rvopt.cli, _attr):
        SITES.append((rvopt.cli, _attr, _layer, None))
for _module, _names in ((rvopt.regularity, ("ball_points", "grid_points", "sphere_directions")),
                        (rvopt.firstorder, ("ball_points", "sphere_directions")),
                        (rvopt.certificates, ("ball_points",)),
                        (rvopt.oracle, ("grid_points",))):
    for _attr in _names:
        SITES.append((_module, _attr, "sampling", _calls("sampling.calls")))

# Counters reported even when a workload never reaches them.
COUNTERS = ("docio.load.calls", "regularity.increase.checks", "regularity.increase.passes",
            "regularity.error_bound.points", "oracle.scan.points", "oracle.scan.feasible",
            "firstorder.cone_directions.calls", "firstorder.region.calls",
            "scenarios.merit.rows", "cones.distance_many.rows", "cones.project.calls",
            "simplex.lp.calls", "sampling.calls", "cones.errors", "simplex.errors")


class Tracer:
    """Records spans (name, start, end, parent, case) for wrapped calls."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.start, self.end = array("d"), array("d")
        self.layer, self.parent, self.case = array("i"), array("i"), array("i")
        self.counts = Counter()          # (case id, counter) -> amount
        self.case_id = -1
        self._stack = []
        self._last_error = None
        self._saved = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, fn, layer: str, count=None):
        layer_id = self._layer_id(layer)
        module = layer.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.layer.append(layer_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.case.append(self.case_id)
            self._stack.append(idx)
            begin = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:          # count where it arose
                    self._last_error = exc
                    self.counts[(self.case_id, f"{module}.errors")] += 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = begin
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts[(self.case_id, key)] += amount
            return result
        return traced

    def install(self):
        for owner, attr, layer, count in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Duration and self time of every span, as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def save(self, path, case_names):
        """Write the spans; a span's case id is pass * len(case_names) + case."""
        np.savez(path, layers=np.array(self.layers), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 case=np.frombuffer(self.case, dtype=np.int32),
                 case_names=np.array(case_names))
