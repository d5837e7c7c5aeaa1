"""Shared instances for the test suite.

Four small plane problems cover most behaviors:

* ``free_plane``: identity objective over all of R^2, orthant cones, the
  two identity scenarios with offsets 0 and (-0.5, 0).  Feasible set
  {x1 >= 0.5, x2 >= 0}, merit dist((x1, x2), feasible values) with unit
  slope across the boundary.
* ``free_negative``: single scenario -I x over all of R^2, so feasibility
  means x <= 0; every feasible point is dominated from within.
* ``boxed_negative``: the same scenario restricted to the box [-1, 0]^2,
  where the whole box is feasible and the Pareto face is {x1 = -1}.
* ``quarter_box``: the free_plane scenarios on the box [0, 2]^2, whose
  weak-Pareto set is the band {x1 = 0.5} union {x2 = 0, x1 >= 0.5}.
"""

from pathlib import Path

import numpy as np
import pytest

from rvopt.cones import Cone
from rvopt.docio import load_problem
from rvopt.firstorder import AffineObjective, PolyhedralSet
from rvopt.problem import Problem
from rvopt.sampling import sphere_directions
from rvopt.scenarios import ScenarioMap

PROBLEMS_DIR = Path(__file__).resolve().parents[1] / "problems"
KINDS = ("orthant", "halfspaces", "rays")
SCENARIO_COUNTS = (1, 2, 4)


def shifted_pair_scenarios() -> ScenarioMap:
    eye = np.eye(2)
    return ScenarioMap(mats=np.array([eye, eye]),
                       offsets=np.array([[0.0, 0.0], [-0.5, 0.0]]))


def negated_scenario() -> ScenarioMap:
    return ScenarioMap(mats=np.array([-np.eye(2)]),
                       offsets=np.array([[0.0, 0.0]]))


def merit_cases() -> list:
    """(name, problem, point) triples for checks of the merit function:
    the shipped problems at their documented points, then halfspace and ray
    constraint cones, which reach the NNLS projection kernel."""
    cases = [(f"{name}{tuple(x)}", load_problem(PROBLEMS_DIR / f"{name}.json"), x)
             for name, x in (("e1", [0.5, 1.0]), ("e1", [0.25, 1.0]),
                             ("e2", [-1.0, 0.0]), ("e3", [0.5, 0.0]))]
    smap = ScenarioMap(mats=np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]),
                       offsets=np.array([[0.0, 0.0], [0.1, -0.1]]))
    for name, cone, x in (("halfspaces", Cone.halfspaces([[-1.0, 2.0], [1.0, 1.0]]), [1.0, -1.0]),
                          ("rays", Cone.rays([[1.0, 0.2], [0.3, 1.0]]), [0.5, 1.0])):
        cases.append((name, Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                                    ordering_cone=Cone.orthant(2), constraint_cone=cone,
                                    region=PolyhedralSet.whole_space(2), scenarios=smap), x))
    return cases


def grid_cases() -> list:
    """(label, problem, point) for the feasible points of the 7x7 grid on
    [-1, 2]^2 (step 0.5) of each shipped problem: 49 points in all."""
    cases = []
    for name in ("e1", "e2", "e3"):
        problem = load_problem(PROBLEMS_DIR / f"{name}.json")
        for a in np.linspace(-1.0, 2.0, 7):
            for b in np.linspace(-1.0, 2.0, 7):
                if problem.feasible([a, b]):
                    cases.append((f"{name}({a:g},{b:g})", problem, np.array([a, b])))
    return cases


def synthetic_problem(kind, w, seed=0):
    """A random objective over the box [-2, 2]^2, ordered by the orthant,
    with w random scenarios placing the origin inside C."""
    rng = np.random.default_rng([seed, w, KINDS.index(kind)])
    cone = {"orthant": Cone.orthant(2),
            "halfspaces": Cone.halfspaces([[1.0, 0.3], [-0.2, 1.0]]),
            "rays": Cone.rays([[1.0, 0.4], [0.3, 1.0]])}[kind]
    inner = np.array([0.6, 0.7]) if kind == "rays" else np.ones(2)
    mats = np.eye(2) + 0.5 * rng.standard_normal((w, 2, 2))
    offsets = 0.5 * inner + 0.1 * np.abs(rng.standard_normal((w, 2)))
    jac = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    return Problem(objective=AffineObjective(jac, np.zeros(2)),
                   ordering_cone=Cone.orthant(2), constraint_cone=cone,
                   region=PolyhedralSet.box([-2.0, -2.0], [2.0, 2.0]),
                   scenarios=ScenarioMap(mats, offsets))


def ray_cone_r5_problem() -> Problem:
    """Identity objective on the box [-2, 2]^2 with a ray C in R^5, the
    axes plus their sum: past the 4 dimensions the double description of
    C's facets was once limited to.  The origin is feasible."""
    mats = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=Cone.orthant(2),
                   constraint_cone=Cone.rays(np.vstack([np.eye(5), np.ones(5)])),
                   region=PolyhedralSet.box([-2.0, -2.0], [2.0, 2.0]),
                   scenarios=ScenarioMap(mats, np.ones((1, 5))))


def merge_directions(kept, extra):
    """``kept`` followed by each row of ``extra`` that lies at least 1e-9
    from every row taken before it: the greedy first-seen merge of
    generators and sampled directions of the former sampled certificates."""
    out = np.asarray(kept, dtype=float).reshape(-1, extra.shape[1])
    for v in extra:
        if np.all(np.linalg.norm(out - v, axis=1) >= 1e-9):
            out = np.vstack([out, v])
    return out


def line_search_boundary(problem, d, steps=60):
    """The last feasible point of the ray from the origin along d, by
    bisection on [0, 4] (the far end leaves the box)."""
    lo, hi = 0.0, 4.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if problem.feasible(mid * d, tol=0.0):
            lo = mid
        else:
            hi = mid
    return lo * d


def boundary_points(problem, w) -> list:
    """Line-search boundary points of ``synthetic_problem(kind, w)`` along
    the Halton part of an 8-direction sphere sample (seed w), past the axes
    and diagonals.  Their scenario images miss C by about 3e-10."""
    return [line_search_boundary(problem, d) for d in sphere_directions(2, 8, seed=w)[6:]]


@pytest.fixture
def free_plane() -> Problem:
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=Cone.orthant(2),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.whole_space(2),
                   scenarios=shifted_pair_scenarios())


@pytest.fixture
def free_negative() -> Problem:
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=Cone.orthant(2),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.whole_space(2),
                   scenarios=negated_scenario())


@pytest.fixture
def boxed_negative() -> Problem:
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=Cone.orthant(2),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.box([-1.0, -1.0], [0.0, 0.0]),
                   scenarios=negated_scenario())


@pytest.fixture
def quarter_box() -> Problem:
    return Problem(objective=AffineObjective(np.eye(2), np.zeros(2)),
                   ordering_cone=Cone.orthant(2),
                   constraint_cone=Cone.orthant(2),
                   region=PolyhedralSet.box([0.0, 0.0], [2.0, 2.0]),
                   scenarios=shifted_pair_scenarios())


@pytest.fixture
def problems_dir() -> Path:
    return PROBLEMS_DIR
