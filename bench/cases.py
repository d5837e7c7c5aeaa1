"""Workload case lists and the seeded synthetic instance family.

Each workload is a fixed list of CLI invocations.  Synthetic instances are
written with the public ``save_problem`` into the run's work directory, so
the program receives only problem files.

The family: identity objective ordered by the orthant, box region
[0, 4]^n, scenario maps A_w = scale * (I + spread * N(0, 1)) and offsets
that place every scenario image at ``depth * 1`` at the reference point
x0 = 2 * 1, up to spread-sized noise.  Non-orthant constraint cones
are built around the diagonal.  The geometry of each case comes from a
fixed family seed; the workload seed only adds a perturbation of size
``PERTURBATION`` to every matrix and offset.  Synthetic inputs therefore
differ from seed to seed while the work a run does stays the same, which
keeps run-to-run spread small: the increase bisection and the projection
iteration counts react to the geometry, not to perturbations this small.
The shipped problem files are used as they are.
"""

from typing import NamedTuple

import numpy as np

from rvopt import (AffineObjective, Cone, PolyhedralSet, Problem, ScenarioMap,
                   save_problem)

PERTURBATION = 1e-7
HALF_ANGLE = 0.7            # angle of the halfspace normals / rays off the diagonal
# Passes cycle through these program --seed values: no two consecutive
# passes repeat an input, so a result cache cannot turn a pass into a
# lookup, and every run does the same work.  Deriving them from the
# workload seed would not: sampling-driven work (the increase bisection,
# projection iteration counts) differs by up to 40% between program seeds,
# while seeds 0 and 1 make the same number of projections on every case.
PROGRAM_SEEDS = (0, 1)
REFERENCE = 2.0             # synthetic reference point x0 = REFERENCE * 1


def _diagonal_cone(kind: str, dim: int) -> Cone:
    if kind == "orthant":
        return Cone.orthant(dim)
    diag = np.ones(dim) / np.sqrt(dim)
    tangents = np.eye(dim) - diag / np.sqrt(dim)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    # normals lean away from axis j, generators towards it
    sign = -1.0 if kind == "halfspaces" else 1.0
    vecs = np.cos(HALF_ANGLE) * diag + sign * np.sin(HALF_ANGLE) * tangents
    return Cone.halfspaces(vecs) if kind == "halfspaces" else Cone.rays(vecs)


class Family(NamedTuple):
    n: int                  # domain and image dimension
    w: int                  # scenario count
    kind: str               # constraint cone: orthant, halfspaces or rays
    spread: float
    depth: float
    scale: float
    seed: int               # fixes the geometry


def synthetic(family: Family, seed: int) -> Problem:
    """One member of the family, perturbed by the workload seed."""
    n, w = family.n, family.w
    base = np.random.default_rng(family.seed)
    jitter = np.random.default_rng([seed, family.seed])
    x0 = np.full(n, REFERENCE)
    mats = family.scale * (np.eye(n)[None, :, :]
                           + family.spread * base.standard_normal((w, n, n)))
    offsets = (family.depth - mats @ x0
               + family.spread * np.abs(base.standard_normal((w, n))))
    mats = mats + PERTURBATION * jitter.standard_normal(mats.shape)
    offsets = offsets + PERTURBATION * jitter.standard_normal(offsets.shape)
    return Problem(objective=AffineObjective(np.eye(n), np.zeros(n)),
                   ordering_cone=Cone.orthant(n),
                   constraint_cone=_diagonal_cone(family.kind, n),
                   region=PolyhedralSet.box(np.zeros(n), np.full(n, 4.0)),
                   scenarios=ScenarioMap(mats, offsets))


def _at(n: int) -> list[str]:
    return ["--at"] + [f"{REFERENCE:g}"] * n


# Each case: name, synthetic family or shipped problem file, argv after the file.
WORKLOADS = {
    # The staged audit.  The shipped points are the documented user path
    # (orthant C: distances vectorised, regularity and fixed per-call costs
    # dominate).  The synthetic points have non-orthant C, where every
    # distance is a Dykstra (halfspaces) or NNLS (rays) projection: the
    # halfspace case runs the full increase bisection; the strongly
    # expanding ray case passes the increase cap at once, which keeps the
    # pass short.  Ray C makes the tangential, scalarized_fan and
    # qualification stages raise RepresentationError.
    "report": [
        ("e2-report", "problems/e2.json", ["report", "--at", "-1", "0"]),
        ("e1-report", "problems/e1.json", ["report", "--at", "0.5", "1"]),
        ("e3-report", "problems/e3.json", ["report", "--at", "0.5", "0"]),
        ("halfspaces-n2-w1-report", Family(2, 1, "halfspaces", 0.01, 2.0, 1.0, 11),
         ["report"] + _at(2)),
        ("rays-n2-w1-report", Family(2, 1, "rays", 0.01, 2.0, 30.0, 12),
         ["report"] + _at(2)),
    ],
    # Wide scenario families: few projections, each onto a fan-preimage cone
    # with w * p rows, plus the qualification LPs.  The third family stalls
    # Dykstra: certify exits 1 with "halfspace projection did not converge".
    "certify-wide": [
        ("orthant-n2-w32-certify", Family(2, 32, "orthant", 0.3, 2.0, 1.0, 51),
         ["certify"] + _at(2)),
        ("halfspaces-n2-w16-certify", Family(2, 16, "halfspaces", 0.3, 2.0, 1.0, 24),
         ["certify"] + _at(2)),
        ("halfspaces-n2-w16-stalls-certify", Family(2, 16, "halfspaces", 0.3, 2.0, 1.0, 26),
         ["certify"] + _at(2)),
    ],
    # The lattice oracle: the O(N^2) dominance pass, per-point region
    # membership, merit_many and the chunked error-bound distances.
    "lattice": [
        ("e1-scan", "problems/e1.json",
         ["scan", "--box", "-1", "2", "-1", "2", "--res", "81", "--out", "{work}/e1-scan.csv"]),
        ("orthant-n3-w4-scan", Family(3, 4, "orthant", 0.3, 0.0, 1.0, 31),
         ["scan", "--box", "1", "3", "1", "3", "1", "3", "--res", "17"]),
        ("orthant-n3-w4-errorbound", Family(3, 4, "orthant", 0.3, 0.0, 1.0, 31),
         ["errorbound"] + _at(3) + ["--sigma", "0.5", "--res", "25"]),
    ],
}


def build_cases(workload: str, seed: int, work: str) -> list[dict]:
    """Write the workload's synthetic problem files into ``work`` and return
    its case list: name, problem file and argv (without --seed)."""
    cases = []
    written = {}
    for name, source, args in WORKLOADS[workload]:
        path = source
        if isinstance(source, Family):
            path = written.get(source)
            if path is None:
                path = f"{work}/{source.kind}-n{source.n}-w{source.w}-f{source.seed}.json"
                problem = synthetic(source, seed)
                if source.depth > 0 and not problem.feasible(np.full(source.n, REFERENCE)):
                    raise ValueError(f"{name}: reference point infeasible")
                save_problem(problem, path)
                written[source] = path
        argv = [args[0], path] + [a.format(work=work) for a in args[1:]]
        cases.append({"name": name, "file": path, "argv": argv})
    return cases
