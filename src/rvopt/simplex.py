"""Dense two-phase primal simplex, the independent reference the tests hold
the NNLS and least-distance programs of the certificates against.

Problems are stated as  min c.x  subject to  a_ub x <= b_ub,  a_eq x = b_eq,
with each variable either nonnegative or free.  Free variables are split,
inequalities get slacks, and both phases run the primal simplex with
Bland's smallest-index anti-cycling rule.  Infeasibility is certified by a
positive phase-one optimum; unboundedness returns the improving ray in the
original variable space.

Everything here is a few hundred variables at most, so the tableau is kept
dense and reduced costs are recomputed from it each pivot.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
_MAX_PIVOTS = 50_000


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x_j >= 0 where nonneg."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    nonneg: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        object.__setattr__(self, "c", c)
        n = c.size
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            vec = getattr(self, "b" + name[1:])
            if mat is None:
                mat = np.zeros((0, n))
                vec = np.zeros(0)
            else:
                mat = np.atleast_2d(np.asarray(mat, dtype=float))
                vec = np.asarray(vec, dtype=float).ravel()
            if mat.shape[1] != n and mat.shape[0] > 0:
                raise DimensionError(f"{name} has {mat.shape[1]} columns, expected {n}")
            if mat.shape[0] != vec.size:
                raise DimensionError(f"{name} and its rhs disagree on row count")
            object.__setattr__(self, name, mat)
            object.__setattr__(self, "b" + name[1:], vec)
        nonneg = self.nonneg
        if nonneg is None:
            nonneg = np.ones(n, dtype=bool)
        else:
            nonneg = np.asarray(nonneg, dtype=bool).ravel()
            if nonneg.size != n:
                raise DimensionError("nonneg mask length mismatch")
        object.__setattr__(self, "nonneg", nonneg)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None = None
    value: float = float("nan")
    ray: np.ndarray | None = None
    residual_eq: float = 0.0
    residual_ub: float = 0.0
    complementarity: float = 0.0
    phase_one: float = 0.0
    notes: tuple = field(default_factory=tuple)


class _Tableau:
    """Mutable simplex state: basis indices plus B^-1 [A | b]."""

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: list[int]):
        self.t = np.hstack([a, b[:, None]])
        self.basis = list(basis)

    @property
    def m(self) -> int:
        return self.t.shape[0]

    @property
    def n(self) -> int:
        return self.t.shape[1] - 1

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        return cost - self.t[:, :-1].T @ cb

    def pivot(self, row: int, col: int) -> None:
        self.t[row] /= self.t[row, col]
        for i in range(self.m):
            if i != row and abs(self.t[i, col]) > 1e-15:
                self.t[i] -= self.t[i, col] * self.t[row]
        self.basis[row] = col

    def solution(self, n_cols: int) -> np.ndarray:
        x = np.zeros(n_cols)
        for i, j in enumerate(self.basis):
            if j < n_cols:
                x[j] = self.t[i, -1]
        return x


def _run_simplex(tab: _Tableau, cost: np.ndarray, allowed: np.ndarray):
    """Bland-rule iterations; returns ('optimal', None) or ('unbounded', col)."""
    for _ in range(_MAX_PIVOTS):
        reduced = tab.reduced_costs(cost)
        entering = -1
        for j in range(tab.n):
            if allowed[j] and reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, None
        col = tab.t[:, entering]
        best, best_ratio = -1, np.inf
        for i in range(tab.m):
            if col[i] > PIVOT_TOL:
                ratio = tab.t[i, -1] / col[i]
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and best >= 0
                    and tab.basis[i] < tab.basis[best]
                ):
                    best, best_ratio = i, ratio
        if best < 0:
            return UNBOUNDED, entering
        tab.pivot(best, entering)
    raise ConvergenceError("simplex exceeded its pivot budget",
                           last_iterate=tab.solution(tab.n))


def _standard_form(lp: LinearProgram):
    """Split free variables, add slacks, and sign-normalize the rhs."""
    n = lp.n_vars
    plus_col = np.zeros(n, dtype=int)
    minus_col = np.full(n, -1, dtype=int)
    col = 0
    for j in range(n):
        plus_col[j] = col
        col += 1
        if not lp.nonneg[j]:
            minus_col[j] = col
            col += 1
    n_split = col

    m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]
    m = m_eq + m_ub
    a = np.zeros((m, n_split + m_ub))
    b = np.concatenate([lp.b_eq, lp.b_ub]).astype(float)
    for j in range(n):
        a[:m_eq, plus_col[j]] = lp.a_eq[:, j] if m_eq else 0.0
        a[m_eq:, plus_col[j]] = lp.a_ub[:, j] if m_ub else 0.0
        if minus_col[j] >= 0:
            a[:, minus_col[j]] = -a[:, plus_col[j]]
    for i in range(m_ub):
        a[m_eq + i, n_split + i] = 1.0

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    cost = np.zeros(n_split + m_ub)
    for j in range(n):
        cost[plus_col[j]] = lp.c[j]
        if minus_col[j] >= 0:
            cost[minus_col[j]] = -lp.c[j]

    def back(y: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        for j in range(n):
            x[j] = y[plus_col[j]]
            if minus_col[j] >= 0:
                x[j] -= y[minus_col[j]]
        return x

    return a, b, cost, back


def _residuals(lp: LinearProgram, x: np.ndarray):
    res_eq = 0.0
    if lp.a_eq.shape[0]:
        res_eq = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq)))
    res_ub = 0.0
    if lp.a_ub.shape[0]:
        res_ub = float(max(0.0, np.max(lp.a_ub @ x - lp.b_ub)))
    bound = float(max(0.0, np.max(-x[lp.nonneg], initial=0.0)))
    return res_eq, max(res_ub, bound)


def _solve(lp: LinearProgram, phase_one_only: bool) -> LpResult:
    a, b, cost, back = _standard_form(lp)
    m, n_tot = a.shape

    if lp.n_vars == 0 or n_tot == 0:
        ok = np.all(np.abs(b) <= FEAS_TOL) if m else True
        if not ok:
            return LpResult(status=INFEASIBLE, phase_one=float(np.sum(np.abs(b))))
        x = np.zeros(lp.n_vars)
        return LpResult(status=OPTIMAL, x=x, value=0.0)

    # phase one: artificial basis
    art = np.arange(n_tot, n_tot + m)
    tab = _Tableau(np.hstack([a, np.eye(m)]), b, list(art))
    cost1 = np.concatenate([np.zeros(n_tot), np.ones(m)])
    allowed = np.ones(n_tot + m, dtype=bool)
    status, _ = _run_simplex(tab, cost1, allowed)
    phase_one = float(cost1[tab.basis] @ tab.t[:, -1])
    if phase_one > FEAS_TOL:
        return LpResult(status=INFEASIBLE, phase_one=phase_one)

    # drive any artificial variables out of the basis; drop redundant rows
    keep_rows = []
    for i in range(tab.m):
        if tab.basis[i] >= n_tot:
            pivot_col = -1
            for j in range(n_tot):
                if abs(tab.t[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tab.pivot(i, pivot_col)
                keep_rows.append(i)
        else:
            keep_rows.append(i)
    if len(keep_rows) < tab.m:
        tab.t = tab.t[keep_rows]
        tab.basis = [tab.basis[i] for i in keep_rows]

    tab.t = np.hstack([tab.t[:, :n_tot], tab.t[:, -1:]])

    y = tab.solution(n_tot)
    if phase_one_only:
        x = back(y)
        res_eq, res_ub = _residuals(lp, x)
        return LpResult(status=OPTIMAL, x=x, value=float(lp.c @ x),
                        residual_eq=res_eq, residual_ub=res_ub,
                        phase_one=phase_one)

    allowed = np.ones(n_tot, dtype=bool)
    status, entering = _run_simplex(tab, cost, allowed)
    y = tab.solution(n_tot)
    x = back(y)

    if status == UNBOUNDED:
        direction = np.zeros(n_tot)
        direction[entering] = 1.0
        for i, j in enumerate(tab.basis):
            direction[j] = -tab.t[i, entering]
        ray = back(direction)
        return LpResult(status=UNBOUNDED, x=x, value=float("-inf"), ray=ray,
                        phase_one=phase_one)

    res_eq, res_ub = _residuals(lp, x)
    if max(res_eq, res_ub) > FEAS_TOL:
        raise ConvergenceError("simplex returned an infeasible optimum",
                               last_iterate=x, residual=max(res_eq, res_ub))
    reduced = tab.reduced_costs(cost)
    comp = float(np.max(np.abs(reduced * y))) if y.size else 0.0
    return LpResult(status=OPTIMAL, x=x, value=float(lp.c @ x),
                    residual_eq=res_eq, residual_ub=res_ub,
                    complementarity=comp, phase_one=phase_one)


def solve_lp(lp: LinearProgram) -> LpResult:
    """Optimize; status is one of OPTIMAL, INFEASIBLE, UNBOUNDED."""
    return _solve(lp, phase_one_only=False)


def feasibility(lp: LinearProgram) -> LpResult:
    """Phase one only: report a feasible point or certified infeasibility."""
    return _solve(lp, phase_one_only=True)
