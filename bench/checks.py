"""Output checks that do not rely on the code under test.

The lattice oracle here is written with blocked numpy broadcasting and
does not import ``rvopt.oracle``; it recomputes feasibility, weak
efficiency, efficiency and dominance counts from the problem document.
Only what the workloads use is supported: affine objectives, orthant
cones K and (for lattice checks) C, and box regions.
"""

import csv
import json
import re

import numpy as np

DOMINANCE_MARGIN = 1e-9
FEAS_TOL = 1e-9
BLOCK = 256

SCAN_LINE = re.compile(r"scanned (\d+) points: (\d+) feasible, (\d+) weakly "
                       r"efficient, (\d+) efficient")
BOUND_HOLDS = re.compile(r"error bound holds \(max violation (\S+), slack (\S+)\)")
BOUND_FAILS = re.compile(r"error bound fails; worst point \(.*\) violates by (\S+)")
CERT_LINE = re.compile(r"(tangential|scalarized|multiplier) (\S+) \(residual (\S+)\)")


class CheckError(Exception):
    """An output that disagrees with the benchmark's own expectation."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ----- the problem document, read independently --------------------------

def _objective(doc: dict):
    obj = doc["objective"]
    _require(obj["kind"] == "affine", "checks support affine objectives only")
    jac, off = np.array(obj["J"], dtype=float), np.array(obj["c"], dtype=float)
    return lambda pts: np.atleast_2d(pts) @ jac.T + off


def _check_ordering(doc: dict):
    _require(doc["k"]["kind"] == "orthant", "checks support an orthant K only")


def _in_region(doc: dict, pts: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
    s = doc["s"]
    _require(s["kind"] == "box", "checks support box regions only")
    lo = np.array([-np.inf if v is None else v for v in s["lo"]])
    hi = np.array([np.inf if v is None else v for v in s["hi"]])
    return np.all((pts >= lo - tol) & (pts <= hi + tol), axis=1)


def orthant_merit(doc: dict, pts: np.ndarray) -> np.ndarray:
    """max over scenarios of the distance of A_w x + b_w to the orthant."""
    _require(doc["c"]["kind"] == "orthant", "lattice checks need an orthant C")
    out = np.zeros(pts.shape[0])
    for sc in doc["scenarios"]:
        img = pts @ np.array(sc["A"], dtype=float).T + np.array(sc["b"], dtype=float)
        out = np.maximum(out, np.linalg.norm(np.minimum(img, 0.0), axis=1))
    return out


def lattice(lo, hi, res) -> np.ndarray:
    axes = [np.linspace(l, h, r) for l, h, r in zip(lo, hi, res)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def dominance_masks(doc: dict, pts: np.ndarray):
    """(merit, feasible, weak, efficient, dominance_count) on a lattice."""
    _check_ordering(doc)
    values = _objective(doc)(pts)        # orthant K: the order rows are the identity
    merit = orthant_merit(doc, pts)
    feasible = _in_region(doc, pts) & (merit <= FEAS_TOL)
    fv = values[feasible]
    count = np.zeros(pts.shape[0], dtype=int)
    weak = np.zeros(pts.shape[0], dtype=bool)
    eff = np.zeros(pts.shape[0], dtype=bool)
    for start in range(0, pts.shape[0], BLOCK):
        blk = slice(start, start + BLOCK)
        gap = values[blk, None, :] - fv[None, :, :]
        strict = np.all(gap >= DOMINANCE_MARGIN, axis=2)
        count[blk] = strict.sum(axis=1)
        weakly = (np.all(gap >= -DOMINANCE_MARGIN, axis=2)
                  & (np.linalg.norm(gap, axis=2) > DOMINANCE_MARGIN))
        weak[blk] = feasible[blk] & ~strict.any(axis=1)
        eff[blk] = feasible[blk] & ~weakly.any(axis=1)
    return merit, feasible, weak, eff, count


def self_test(e1_doc: dict):
    """The README's hand case: e1 over [-1, 2]^2 at res 21."""
    _, feas, weak, eff, _ = dominance_masks(e1_doc, lattice([-1, -1], [2, 2], [21, 21]))
    got = (feas.size, int(feas.sum()), int(weak.sum()), int(eff.sum()))
    _require(got == (441, 154, 24, 1), f"own oracle self-test gave {got}")


# ----- per-command output checks ----------------------------------------

def _box_args(argv):
    box = [float(v) for v in argv[argv.index("--box") + 1:argv.index("--res")]]
    lo, hi = box[0::2], box[1::2]
    return lo, hi, [int(argv[argv.index("--res") + 1])] * len(lo)


def check_scan(doc: dict, argv, out: str):
    """Counts from stdout, and every column of the --out table, against the
    own oracle."""
    match = SCAN_LINE.search(out)
    _require(match is not None, "scan printed no summary line")
    lo, hi, res = _box_args(argv)
    pts = lattice(lo, hi, res)
    merit, feas, weak, eff, count = dominance_masks(doc, pts)
    want = (pts.shape[0], int(feas.sum()), int(weak.sum()), int(eff.sum()))
    got = tuple(int(v) for v in match.groups())
    _require(got == want, f"scan counts {got}, own oracle {want}")
    if "--out" not in argv:
        return
    with open(argv[argv.index("--out") + 1], newline="") as handle:
        rows = list(csv.reader(handle))
    n = pts.shape[1]
    table = np.array([[float(v) for v in row] for row in rows[1:]])
    _require(table.shape[0] == pts.shape[0], "scan table has the wrong row count")
    _require(np.allclose(table[:, :n], pts, rtol=0, atol=1e-12), "scan table points differ")
    _require(np.allclose(table[:, n], merit, rtol=1e-9, atol=1e-12), "scan table merit differs")
    for col, mask, label in ((n + 1, feas, "feasible"), (n + 2, weak, "weak_efficient"),
                             (n + 3, eff, "efficient"), (n + 4, count, "dominance_count")):
        _require(np.array_equal(table[:, col].astype(int), mask.astype(int)),
                 f"scan table column {label} differs from the own oracle")


def check_errorbound(doc: dict, argv, out: str):
    """Recompute the lattice error bound and compare the printed violation."""
    x = np.array([float(v) for v in argv[argv.index("--at") + 1:argv.index("--sigma")]])
    sigma = float(argv[argv.index("--sigma") + 1])
    res = int(argv[argv.index("--res") + 1])
    radius = float(argv[argv.index("--radius") + 1]) if "--radius" in argv else 0.5
    pts = lattice(x - radius, x + radius, [res] * x.size)
    slack = 2.0 * (2.0 * radius / (res - 1))
    phi = orthant_merit(doc, pts)
    inside = _in_region(doc, pts)
    solv = pts[inside & (phi <= FEAS_TOL)]
    tested = inside & (np.linalg.norm(pts - x, axis=1) <= radius / 2.0)
    worst = -np.inf
    for start in range(0, int(tested.sum()), BLOCK):
        blk = pts[tested][start:start + BLOCK]
        dist = np.sqrt(np.min(((blk[:, None, :] - solv[None, :, :]) ** 2).sum(axis=2), axis=1))
        worst = max(worst, float(np.max(dist - phi[tested][start:start + BLOCK] / sigma - slack)))
    holds, fails = BOUND_HOLDS.search(out), BOUND_FAILS.search(out)
    _require((holds is not None) == (worst <= 1e-9) and (holds or fails),
             f"error bound verdict disagrees with own max violation {worst:.3g}")
    printed = float((holds or fails).group(1))
    # the CLI prints three significant digits
    _require(abs(printed - worst) <= 6e-3 * abs(worst) + 1e-12,
             f"printed violation {printed} differs from own {worst:.6g}")
    if holds:
        _require(abs(float(holds.group(2)) - slack) <= 6e-3 * slack, "printed slack differs")


def check_report(doc: dict, out: str, code: int) -> int:
    """Parse the rendered report; verify its exit code and any dominating
    witness.  Returns the number of stages with status error."""
    body, _, tail = out.rpartition("summary: ")
    report = json.loads(body)
    _require(report["exit_code"] == code, "report exit code differs from the process exit")
    _require(tail.strip() == report["summary"], "summary line differs from the report")
    stages = {s["name"]: s for s in report["stages"]}
    oracle = stages.get("oracle", {})
    witness = oracle.get("result", {}).get("witness") if oracle.get("status") == "ok" else None
    if witness is not None:
        ref = np.array(report["reference"], dtype=float)
        wit = np.array(witness, dtype=float)
        _require(bool(_in_region(doc, wit[None, :])[0]), "witness lies outside the region")
        _check_ordering(doc)
        f = _objective(doc)
        gap = f(ref)[0] - f(wit)[0]
        _require(float(np.min(gap)) >= DOMINANCE_MARGIN,
                 "witness does not strictly dominate the reference")
        _require("dominating witness found" in report["summary"],
                 "witness found but not cited in the summary")
    return sum(1 for s in report["stages"] if s["status"] == "error")


def check_error(err: str):
    """Exit 1 must come with the CLI's error message."""
    _require(err.startswith("error: "), "exit 1 without an error message")


def check_certify(out: str, code: int):
    """One line per certificate; exit 0 only when all of them hold."""
    found = {m.group(1): m.group(2) for m in CERT_LINE.finditer(out)}
    _require(set(found) == {"tangential", "scalarized", "multiplier"},
             f"certify printed certificates {sorted(found)}")
    if code == 0:
        _require(all(s == "holds" for s in found.values()), "exit 0 with a certificate not holding")
