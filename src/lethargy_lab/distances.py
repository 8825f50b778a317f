"""Best-approximation distances rho(x, Y) = inf_{y in Y} ||x - y||.

Dispatch by norm: the Euclidean case projects onto an orthonormalized
basis (exact), p in {1, inf} becomes a warm-started linear program solved
by the bundled simplex, and any other p runs a backtracking coefficient
descent on the convex objective ||x - B a||_p. A coefficient-grid brute
force serves as the testing oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    SimplexCycleGuard,
    TooManyBasisVectors,
)
from .simplex import solve_from_basis
from .spaces import NormedSpace, Subspace

DESCENT_MAX_ITER = 10_000
DESCENT_STEP_TOL = 1e-10
ARMIJO_DECREASE = 1e-4
ARMIJO_SHRINK = 0.5


@dataclass
class DistanceResult:
    """Distance value with the best minimizer found.

    ``certified`` is True only for the projection and simplex paths, where
    the value equals the infimum up to roundoff; the descent path has
    upper-bound semantics. ``basis`` is the simplex path's optimal LP basis,
    a warm start for the next LP with the same subspace (not serialized).
    """

    value: float
    minimizer: np.ndarray
    method: str  # "projection" | "simplex" | "descent" | "brute-force"
    certified: bool
    iterations: int = 0
    converged: bool = True
    basis: np.ndarray | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "minimizer": self.minimizer.tolist(),
            "method": self.method,
            "certified": self.certified,
            "converged": self.converged,
        }


def _check_dims(space: NormedSpace, x: np.ndarray, subspace: Subspace) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise DimensionMismatch(f"expected length {space.dim}, got {x.shape}")
    if subspace.ambient_dim != space.dim:
        raise DimensionMismatch("subspace does not live in this space")
    return x


def project_euclidean(x, subspace: Subspace, weights=None) -> np.ndarray:
    """Euclidean-norm minimizer of ||x - y|| over the subspace.

    Weights fold in by rescaling coordinates; the returned minimizer lives
    in the original coordinates and in the span of the basis. The frame is
    the subspace's own, orthonormalised once per scaling.
    """
    x = np.asarray(x, dtype=float)
    if weights is None:
        return subspace.project(x)
    w = np.asarray(weights, dtype=float)
    onb = subspace.orthonormal_basis(w)
    return (((x * w) @ onb.T) @ onb) / w


def distance(space: NormedSpace, x, subspace: Subspace, warm=None) -> DistanceResult:
    """rho(x, Y) in the space's norm, dispatching on p.

    ``warm`` is an LP basis from an earlier result for the same space and
    subspace; only the LP path (p in {1, inf}) uses it.
    """
    x = _check_dims(space, x, subspace)
    if space.p == 2.0:
        y = project_euclidean(x, subspace, space.weights)
        return DistanceResult(space.norm_of(x - y), y, "projection", True)
    if space.p == 1.0 or space.p == math.inf:
        return distance_lp(space, x, subspace, warm)
    return descent_distance(space, x, subspace)


def _lp_frame(space: NormedSpace, x, subspace: Subspace, extra: int):
    """Rows ``+-(w (x - B a))`` shared by both LPs, as equalities in (a+, a-).

    Returns the constraint matrix, whose first 2k columns hold the
    ``+-(w B)^T`` block and whose ``extra`` columns after it are zero, the
    right-hand side ``[w x, -w x]``, and the sizes m and k.
    """
    w = space.scaling()
    bt = (subspace.basis * w).T  # columns are scaled basis vectors
    xw = x * w
    m, k = bt.shape
    A = np.zeros((2 * m, 2 * k + extra))
    A[:m, :k] = bt
    A[:m, k:2 * k] = -bt
    A[m:, :k] = -bt
    A[m:, k:2 * k] = bt
    return A, np.concatenate([xw, -xw]), m, k


def _lp_infinity(space: NormedSpace, x, subspace: Subspace):
    """min t  s.t.  |w (x - B a)|_i <= t, as equalities with surplus vars.

    Variables (a+, a-, t, s): the all-slack point a = 0, t = max |w x|
    yields a feasible starting basis, so no phase-1 is needed.
    """
    A, rhs, m, k = _lp_frame(space, x, subspace, 1 + 2 * space.dim)
    rows = np.arange(2 * m)
    A[:, 2 * k] = 1.0
    A[rows, 2 * k + 1 + rows] = -1.0
    c = np.zeros(A.shape[1])
    c[2 * k] = 1.0
    basis = 2 * k + 1 + rows
    basis[int(np.argmax(rhs))] = 2 * k  # t enters at the binding row
    return c, A, rhs, basis, k


def _lp_one(space: NormedSpace, x, subspace: Subspace):
    """min sum s_i  s.t.  -s <= w (x - B a) <= s, with surplus vars.

    For each coordinate the tight side holds s_i and the loose side holds
    its own surplus, giving a feasible starting basis directly.
    """
    A, rhs, m, k = _lp_frame(space, x, subspace, 3 * space.dim)
    rows = np.arange(2 * m)
    A[rows, 2 * k + rows % m] = 1.0
    A[rows, 2 * k + m + rows] = -1.0
    c = np.zeros(A.shape[1])
    c[2 * k:2 * k + m] = 1.0
    plus = rhs[:m] >= 0  # s_i is basic on its tight row, surplus on the other
    basis = np.where(np.concatenate([plus, ~plus]), 2 * k + rows % m, 2 * k + m + rows)
    return c, A, rhs, basis, k


def distance_lp(space: NormedSpace, x, subspace: Subspace, warm=None) -> DistanceResult:
    """LP path for p in {1, inf}; falls back to descent on a cycle guard.

    The LP's ``c`` and ``A`` depend only on the space and the subspace, so
    the ``basis`` of an earlier result on the same pair is a valid ``warm``
    start for :func:`solve_from_basis`; x only moves the right-hand side.
    """
    x = _check_dims(space, x, subspace)
    if space.p == math.inf:
        c, A, rhs, basis, k = _lp_infinity(space, x, subspace)
    elif space.p == 1.0:
        c, A, rhs, basis, k = _lp_one(space, x, subspace)
    else:
        raise ValueError("distance_lp requires p = 1 or p = inf")
    try:
        res = solve_from_basis(c, A, rhs, basis, warm=warm)
    except SimplexCycleGuard:
        return descent_distance(space, x, subspace)
    if res.status != "optimal":
        return descent_distance(space, x, subspace)
    alpha = res.x[:k] - res.x[k:2 * k]
    y = alpha @ subspace.basis
    return DistanceResult(space.norm_of(x - y), y, "simplex", True,
                          iterations=res.iterations, basis=res.basis)


def _euclidean_coefficients(space: NormedSpace, x, subspace: Subspace) -> np.ndarray:
    w = space.scaling()
    sol, *_ = np.linalg.lstsq((subspace.basis * w).T, x * w, rcond=None)
    return sol


def descent_distance(
    space: NormedSpace,
    x,
    subspace: Subspace,
    max_iter: int = DESCENT_MAX_ITER,
    step_tol: float = DESCENT_STEP_TOL,
) -> DistanceResult:
    """Coefficient descent on ||x - B a||_p with backtracking line search.

    The objective is convex in a, so the value converges to the infimum;
    certified stays False because only a stationarity tolerance is checked.
    A stalled run (iteration cap) still returns its best iterate.
    """
    x = _check_dims(space, x, subspace)
    basis = subspace.basis
    w = space.scaling()
    p = space.p

    def value(alpha):
        return space.norm_of(x - alpha @ basis)

    def gradient(alpha):
        r = (x - alpha @ basis) * w
        nrm = float(np.linalg.norm(r, ord=p))
        if nrm == 0.0:
            return np.zeros(basis.shape[0]), 0.0
        if p == math.inf:
            i = int(np.argmax(np.abs(r)))
            dr = np.zeros_like(r)
            dr[i] = np.sign(r[i])
        else:
            dr = np.sign(r) * np.abs(r) ** (p - 1) / nrm ** (p - 1)
        return -(basis * w) @ dr, nrm

    alpha = _euclidean_coefficients(space, x, subspace)
    t = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g, f = gradient(alpha)
        gsq = float(g @ g)
        if gsq == 0.0:
            converged = True
            break
        t = min(t * 2.0, 1e6)
        while t > 1e-18 and value(alpha - t * g) > f - ARMIJO_DECREASE * t * gsq:
            t *= ARMIJO_SHRINK
        if t <= 1e-18:
            # no decrease along the (sub)gradient; stop at the current iterate
            converged = True
            break
        step = -t * g
        alpha = alpha + step
        if float(np.linalg.norm(step)) < step_tol:
            converged = True
            break
    y = alpha @ basis
    return DistanceResult(value(alpha), y, "descent", False,
                          iterations=iterations, converged=converged)


def brute_force_distance(
    space: NormedSpace,
    x,
    subspace: Subspace,
    box: float = 2.0,
    step: float = 1e-4,
) -> float:
    """Minimum of ||x - sum a_j b_j|| over the coefficient grid [-box, box]^k.

    Testing oracle: an upper bound on rho within a Lipschitz-bounded gap of
    the true value. Guarded to at most three basis vectors.
    """
    x = _check_dims(space, x, subspace)
    k = subspace.dim
    if k > 3:
        raise TooManyBasisVectors(f"{k} basis vectors exceed the grid guard of 3")
    axis = np.arange(-box, box + step / 2, step)
    basis = subspace.basis
    w = space.scaling()
    best = math.inf
    # chunk along the first coefficient to bound memory
    if k == 1:
        chunks = [axis[:, None]]
    else:
        rest = np.meshgrid(*([axis] * (k - 1)), indexing="ij")
        tail = np.stack([r.ravel() for r in rest], axis=1)
        chunk_rows = max(1, int(2_000_000 // max(1, tail.shape[0])))
        chunks = (
            np.concatenate(
                [np.repeat(axis[i:i + chunk_rows], tail.shape[0])[:, None],
                 np.tile(tail, (min(chunk_rows, axis.size - i), 1))],
                axis=1,
            )
            for i in range(0, axis.size, chunk_rows)
        )
    for coeffs in chunks:
        residuals = (x[None, :] - coeffs @ basis) * w
        norms = np.linalg.norm(residuals, ord=space.p, axis=1)
        best = min(best, float(norms.min()))
    return best
