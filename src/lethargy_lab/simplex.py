"""Condensed-tableau simplex for small linear programs.

Solves ``min c.z  s.t.  A z = b, z >= 0`` starting from a caller-supplied
feasible basis. Only the nonbasic columns are kept: the tableau is
``[B^-1 A[:, nonbasic] | B^-1 b]`` (the dictionary form, Chvatal 1983,
ch. 2-3), and each pivot is a Jordan exchange of one basic and one
nonbasic column, which updates the basic solution in the last column too.
Entering variables follow Dantzig's rule (most negative reduced cost, ties
to the smallest column index) while the objective improves; after a long
degenerate stall the rule switches permanently to Bland's smallest-index
rule, which precludes cycling. Ratio-test ties go to the smallest basic
column index. The iteration cap 50 * (rows + cols) turns a runaway solve
into :class:`SimplexCycleGuard` so callers can fall back to an uncertified
path.

The tableau is refactorized from the original data every few dozen pivots,
and optimality is only declared against a freshly factorized tableau, so
accumulated elimination error cannot produce a bogus optimum. A
refactorization eliminates the basic columns that are +-unit vectors
(surplus and slack variables) exactly and LU-solves only the square block
of the remaining basic columns on the rows the unit columns leave
uncovered; without unit columns that block is the whole basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexCycleGuard

REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-8
REFACTOR_EVERY = 32


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int
    status: str  # "optimal" | "unbounded"
    basis: np.ndarray


def _unit_columns(A):
    """Row of each column of A that is +-e_row (-1 for any other column),
    and the column's entry on that row (its sign for a unit column)."""
    nonzero = A != 0.0
    rows = nonzero.argmax(axis=0)
    entry = A[rows, np.arange(A.shape[1])]
    unit = (nonzero.sum(axis=0) == 1) & (np.abs(entry) == 1.0)
    return np.where(unit, rows, -1), entry


def _refactor(Ab, basis, cols, unit_row, unit_sign, floor=-1e-7):
    """``B^-1 Ab[:, cols]`` for ``B = A[:, basis]``, where ``Ab = [A | b]`` and
    ``cols`` lists the nonbasic columns and then b's: the tableau with the
    basic solution as its last column.

    A basic unit column on row i fixes its variable from row i once the
    others are known, so only the block of the other basic columns on the
    uncovered rows needs an LU solve. A basic solution with an entry below
    ``floor`` counts as infeasible; the rest is clamped at 0.
    """
    rows = unit_row[basis]
    is_unit = rows >= 0
    covered = rows[is_unit]
    free = np.ones(Ab.shape[0], dtype=bool)
    free[covered] = False
    struct = Ab[:, basis[~is_unit]]
    if np.count_nonzero(free) != struct.shape[1]:
        raise SimplexCycleGuard("basis became singular: two unit columns share a row")
    rhs_all = Ab[:, cols]
    try:
        z_struct = np.linalg.solve(struct[free], rhs_all[free])
    except np.linalg.LinAlgError as exc:
        raise SimplexCycleGuard(f"basis became singular: {exc}") from None
    z = np.empty_like(rhs_all)
    z[~is_unit] = z_struct
    z[is_unit] = unit_sign[basis[is_unit], None] * (
        rhs_all[covered] - struct[covered] @ z_struct)
    rhs = z[:, -1]
    if rhs.min() < floor:
        raise SimplexCycleGuard("basis went infeasible during refactorization")
    np.maximum(rhs, 0.0, out=rhs)
    return z, rhs


def _solution(c, basis, rhs, iterations, status):
    x = np.zeros(c.size)
    x[basis] = rhs
    return SimplexResult(x, float(c @ x), iterations, status, basis)


def _split(basis, m, n):
    """The basis as a fresh int array and the nonbasic columns, ascending;
    ValueError unless it lists m distinct columns of the n."""
    basis = np.array(basis, dtype=int)
    if basis.shape != (m,):
        raise ValueError(f"basis must list {m} columns")
    if m and not (0 <= basis.min() and basis.max() < n):
        raise ValueError(f"basis columns must lie in 0..{n - 1}")
    is_basic = np.zeros(n, dtype=bool)
    is_basic[basis] = True
    nonbasic = np.flatnonzero(~is_basic)
    if nonbasic.size != n - m:
        raise ValueError(f"basis must list {m} distinct columns of {n}")
    return basis, nonbasic


def solve_from_basis(
    c,
    A,
    b,
    basis,
    max_iter: int | None = None,
    warm=None,
) -> SimplexResult:
    """Run phase-2 simplex from a feasible starting basis.

    ``A[:, basis]`` must be invertible and the basic solution nonnegative;
    both are checked. Raises SimplexCycleGuard when the iteration cap is hit
    (carrying the best basic solution found so far) or when roundoff drives
    the basis singular or infeasible.

    ``warm`` optionally names another basis to start from, typically the
    optimal basis of an earlier solve with the same ``c`` and ``A`` and a
    different ``b``: that basis stays dual feasible, so when it is still
    primal feasible few pivots remain (re-optimization after a change in
    b, Chvatal 1983, ch. 10). It is used only if its fresh factorization is
    nonsingular and every entry of its basic solution is >= 0 before any
    clamping; otherwise the solve starts from ``basis``. A malformed
    ``warm`` (wrong length, a repeated or out-of-range column) raises
    ValueError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    basis, nonbasic = _split(basis, m, n)
    if max_iter is None:
        max_iter = 50 * (m + n)

    unit_row, unit_sign = _unit_columns(A)
    Ab = np.column_stack([A, b])
    tableau = None
    if warm is not None:
        warm, warm_nonbasic = _split(warm, m, n)
        cols = np.append(warm_nonbasic, n)
        try:
            tableau, rhs = _refactor(Ab, warm, cols, unit_row, unit_sign, floor=0.0)
            basis = warm
        except SimplexCycleGuard:
            pass  # not a feasible start: begin from the cold basis
    if tableau is None:
        cols = np.append(nonbasic, n)
        try:  # rhs is a view of the tableau's last column
            tableau, rhs = _refactor(Ab, basis, cols, unit_row, unit_sign)
        except SimplexCycleGuard:
            raise ValueError("starting basis is infeasible") from None
    nonbasic = cols[:-1]  # a view: exchanges write through to cols
    fresh = True
    bland_mode = False
    stall = 0
    stall_limit = 2 * m + 10
    last_objective = np.inf

    it = 0
    while it < max_iter:
        reduced = c[nonbasic] - c[basis] @ tableau[:, :-1]
        low = np.fmin.reduce(reduced, initial=0.0)  # NaN entries never enter
        if not low < -REDUCED_COST_TOL:
            if fresh:
                return _solution(c, basis, rhs, it, "optimal")
            tableau, rhs = _refactor(Ab, basis, cols, unit_row, unit_sign)
            fresh = True
            continue
        # Bland: every improving column; Dantzig: those at the most negative cost
        candidates = (reduced < -REDUCED_COST_TOL if bland_mode
                      else reduced == low).nonzero()[0]
        enter = int(candidates[0])
        if candidates.size > 1:  # the smallest column index
            enter = int(candidates[np.argmin(nonbasic[candidates])])

        col = tableau[:, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            if fresh:
                return _solution(c, basis, rhs, it, "unbounded")
            tableau, rhs = _refactor(Ab, basis, cols, unit_row, unit_sign)
            fresh = True
            continue
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[0])
        if ties.size > 1:  # the smallest basic column index
            leave = int(ties[np.argmin(basis[ties])])

        # Jordan exchange: the leaving variable takes the entering column's slot
        pivot = col[leave]
        pivot_row = tableau[leave] / pivot
        pivot_row[enter] = 1.0 / pivot
        factor = col.copy()
        factor[leave] = 0.0
        col[:] = 0.0
        tableau -= factor[:, None] * pivot_row
        tableau[leave] = pivot_row
        np.maximum(rhs, 0.0, out=rhs)
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

        objective = float(c[basis] @ rhs)
        if objective < last_objective - 1e-15 * max(1.0, abs(last_objective)):
            stall = 0
        else:
            stall += 1
            if stall >= stall_limit:
                bland_mode = True  # anti-cycling from here on
        last_objective = objective

        it += 1
        if it % REFACTOR_EVERY == 0:
            tableau, rhs = _refactor(Ab, basis, cols, unit_row, unit_sign)
            fresh = True
        else:
            fresh = False

    raise SimplexCycleGuard(
        f"simplex hit the iteration cap of {max_iter}",
        best=_solution(c, basis, rhs, max_iter, "iteration-cap"),
    )
