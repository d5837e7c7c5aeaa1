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
from rvopt.scenarios import ScenarioMap

PROBLEMS_DIR = Path(__file__).resolve().parents[1] / "problems"


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
