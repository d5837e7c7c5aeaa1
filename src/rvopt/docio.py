"""Problem documents: a versioned JSON format with field-path validation.

A document carries the instance dimensions, the objective, both cones, the
region, the scenario list, and optionally an interior direction, a fan
override, and a tolerances section.  Loading validates into a Problem;
serializing an equivalent document back is loss-free, so load, serialize,
load is field-identical.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from .cones import Cone
from .errors import ValidationError
from .firstorder import AffineObjective, Fan, PolyhedralSet, QuadraticObjective
from .problem import Problem
from .scenarios import ScenarioMap

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack used by the report pipeline; scaled uniformly by the
    command line's --tol-scale."""

    feasibility: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.feasibility < np.inf:
            raise ValidationError("tolerances.feasibility: expected a finite positive number")

    def scaled(self, factor: float) -> "Tolerances":
        if not 0.0 < factor < np.inf:
            raise ValidationError("tolerances: scale factor must be positive and finite")
        return Tolerances(feasibility=self.feasibility * factor)


def _require(doc: dict, field: str, path: str = ""):
    label = f"{path}.{field}" if path else field
    if field not in doc:
        raise ValidationError(f"{label}: required")
    return doc[field]


def _finite(value) -> bool:
    """A number (not a bool) that a float holds finitely: no NaN, no
    infinity, no integer past the float range."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and abs(value) <= sys.float_info.max


def _number_list(value, label: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{label}: expected a list of numbers")
    out = []
    for i, entry in enumerate(value):
        if not _finite(entry):
            raise ValidationError(f"{label}[{i}]: expected a finite number")
        out.append(float(entry))
    return out


def _matrix(value, label: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{label}: expected a nonempty list of rows")
    rows = [_number_list(row, f"{label}[{i}]") for i, row in enumerate(value)]
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValidationError(f"{label}: rows have unequal lengths")
    return rows


def _positive_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{label}: expected a positive integer")
    return value


def _cone_from_document(doc, label: str) -> Cone:
    if not isinstance(doc, dict):
        raise ValidationError(f"{label}: expected an object")
    kind = _require(doc, "kind", label)
    if kind not in ("orthant", "halfspaces", "rays"):
        raise ValidationError(f"{label}.kind: unknown cone kind {kind!r}")
    dim = _positive_int(_require(doc, "dim", label), f"{label}.dim")
    if kind == "orthant":
        return Cone.orthant(dim)
    field = "rows" if kind == "halfspaces" else "gens"
    rows = _require(doc, field, label)
    if rows == []:
        return Cone.whole_space(dim) if kind == "halfspaces" else Cone.rays([], dim=dim)
    rows = _matrix(rows, f"{label}.{field}")
    if len(rows[0]) != dim:
        raise ValidationError(f"{label}.{field}: width differs from dim")
    try:
        return Cone.halfspaces(rows) if kind == "halfspaces" else Cone.rays(rows)
    except ValueError as exc:       # a zero row
        raise ValidationError(f"{label}.{field}: {exc}") from exc


def _objective_from_document(doc) -> AffineObjective | QuadraticObjective:
    if not isinstance(doc, dict):
        raise ValidationError("objective: expected an object")
    kind = _require(doc, "kind", "objective")
    if kind == "affine":
        jac = _matrix(_require(doc, "J", "objective"), "objective.J")
        off = _number_list(_require(doc, "c", "objective"), "objective.c")
        if len(off) != len(jac):
            raise ValidationError("objective.c: length differs from the row "
                                  "count of objective.J")
        return AffineObjective(np.array(jac), np.array(off))
    if kind == "quadratic":
        comps = _require(doc, "components", "objective")
        if not isinstance(comps, list) or not comps:
            raise ValidationError("objective.components: expected a nonempty list")
        quads, lins, consts = [], [], []
        for k, comp in enumerate(comps):
            label = f"objective.components[{k}]"
            quads.append(_matrix(_require(comp, "Q", label), f"{label}.Q"))
            lins.append(_number_list(_require(comp, "j", label), f"{label}.j"))
            const = _require(comp, "c", label)
            if not _finite(const):
                raise ValidationError(f"{label}.c: expected a finite number")
            consts.append(float(const))
        return QuadraticObjective(np.array(quads), np.array(lins),
                                  np.array(consts))
    raise ValidationError(f"objective.kind: unknown objective kind {kind!r}")


def _region_from_document(doc) -> PolyhedralSet:
    if not isinstance(doc, dict):
        raise ValidationError("s: expected an object")
    kind = _require(doc, "kind", "s")
    if kind == "box":
        lo = _require(doc, "lo", "s")
        hi = _require(doc, "hi", "s")
        if not isinstance(lo, list) or not isinstance(hi, list) \
                or len(lo) != len(hi) or not lo:
            raise ValidationError("s: lo and hi must be equal-length lists")

        def side(values, label, fill):
            out = []
            for i, v in enumerate(values):
                if v is None:
                    out.append(fill)
                elif not _finite(v):
                    raise ValidationError(f"s.{label}[{i}]: expected a finite "
                                          "number or null")
                else:
                    out.append(float(v))
            return out

        lo, hi = side(lo, "lo", -np.inf), side(hi, "hi", np.inf)
        for i, (a, b) in enumerate(zip(lo, hi)):
            if a > b:
                raise ValidationError(f"s.lo[{i}]: exceeds s.hi[{i}]")
        return PolyhedralSet.box(lo, hi)
    if kind == "halfspaces":
        mat = _matrix(_require(doc, "A", "s"), "s.A")
        rhs = _number_list(_require(doc, "b", "s"), "s.b")
        if len(rhs) != len(mat):
            raise ValidationError("s.b: length differs from the row count of s.A")
        try:
            return PolyhedralSet.halfspaces(np.array(mat), np.array(rhs))
        except ValueError as exc:   # a zero row
            raise ValidationError(f"s.A: {exc}") from exc
    raise ValidationError(f"s.kind: unknown set kind {kind!r}")


def _scenarios_from_document(doc) -> ScenarioMap:
    if not isinstance(doc, list) or not doc:
        raise ValidationError("scenarios: expected a nonempty list")
    mats, offs = [], []
    for w, entry in enumerate(doc):
        label = f"scenarios[{w}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{label}: expected an object")
        mats.append(_matrix(_require(entry, "A", label), f"{label}.A"))
        offs.append(_number_list(_require(entry, "b", label), f"{label}.b"))
        if len(offs[-1]) != len(mats[-1]):
            raise ValidationError(f"{label}.b: length differs from the row "
                                  f"count of {label}.A")
    widths = {len(m[0]) for m in mats}
    heights = {len(m) for m in mats}
    if len(widths) > 1 or len(heights) > 1:
        raise ValidationError("scenarios: maps have inconsistent shapes")
    return ScenarioMap(mats=[np.array(m) for m in mats],
                       offsets=[np.array(b) for b in offs])


def problem_from_document(doc: dict) -> Problem:
    """Validate a parsed document into a Problem.  Raises ValidationError
    with a field path on the first offending field."""
    if not isinstance(doc, dict):
        raise ValidationError("document: expected a top-level object")
    version = _require(doc, "version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"version: unsupported version {version!r}")
    for field in ("n", "m", "p"):
        _positive_int(_require(doc, field), field)

    objective = _objective_from_document(_require(doc, "objective"))
    k_cone = _cone_from_document(_require(doc, "k"), "k")
    c_cone = _cone_from_document(_require(doc, "c"), "c")
    region = _region_from_document(_require(doc, "s"))
    scenarios = _scenarios_from_document(_require(doc, "scenarios"))

    if objective.domain_dim != doc["n"]:
        raise ValidationError("n: does not match the objective block")
    if objective.image_dim != doc["m"]:
        raise ValidationError("m: does not match the objective block")
    if scenarios.image_dim != doc["p"]:
        raise ValidationError("p: does not match the scenario block")

    direction = None
    if doc.get("e") is not None:
        direction = np.array(_number_list(doc["e"], "e"))
    fan = None
    if doc.get("fan") is not None:
        fan_doc = doc["fan"]
        if not isinstance(fan_doc, dict) or "bundle" not in fan_doc:
            raise ValidationError("fan: expected an object with a bundle field")
        bundle = [_matrix(mat, f"fan.bundle[{i}]")
                  for i, mat in enumerate(fan_doc["bundle"])]
        fan = Fan(np.array(bundle))
    return Problem(objective=objective, ordering_cone=k_cone,
                   constraint_cone=c_cone, region=region, scenarios=scenarios,
                   direction=direction, fan_override=fan)


def tolerances_from_document(doc: dict) -> Tolerances:
    section = doc.get("tolerances") if isinstance(doc, dict) else None
    if section is None:
        return Tolerances()
    if not isinstance(section, dict):
        raise ValidationError("tolerances: expected an object")
    for key in section:
        if key != "feasibility":
            raise ValidationError(f"tolerances.{key}: unknown field")
        if not _finite(section[key]):
            raise ValidationError(f"tolerances.{key}: expected a finite positive number")
    return Tolerances(**{k: float(v) for k, v in section.items()})


def problem_to_document(problem: Problem) -> dict:
    doc = {"version": FORMAT_VERSION,
           "n": problem.domain_dim,
           "m": problem.objective.image_dim,
           "p": problem.scenarios.image_dim,
           "objective": problem.objective.to_document(),
           "k": problem.ordering_cone.to_document(),
           "c": problem.constraint_cone.to_document(),
           "s": problem.region.to_document(),
           "scenarios": problem.scenarios.to_document(),
           "e": problem.direction.tolist()}
    if problem.fan_override is not None:
        doc["fan"] = problem.fan_override.to_document()
    return doc


def _non_finite_literal(name: str):
    raise ValidationError(f"parse error: {name} is not a JSON number; "
                          "numbers must be finite")


def parse_document(text: str) -> dict:
    """Parse strict JSON: the NaN and Infinity literals that Python's json
    module accepts are refused, and so are an integer literal longer than
    Python's int-conversion digit limit and nesting deeper than the
    decoder's recursion limit."""
    try:
        return json.loads(text, parse_constant=_non_finite_literal)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"parse error at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    except ValidationError:
        raise
    except RecursionError as exc:
        raise ValidationError("parse error: the document is nested too deeply") from exc
    except ValueError as exc:       # int() past sys.get_int_max_str_digits()
        raise ValidationError(f"parse error: an integer literal exceeds "
                              f"{sys.get_int_max_str_digits()} digits") from exc


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def load_problem(path) -> Problem:
    """Read and validate a problem file."""
    return problem_from_document(load_document(path))


def save_problem(problem: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_document(problem), handle, indent=2)
        handle.write("\n")
