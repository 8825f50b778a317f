"""Construct elements realizing prescribed distance sequences.

Two builders under the Euclidean norm:

* ``witness_coordinate_exact``: on the coordinate chain the distances
  telescope, so coefficients c * sqrt(d_k^2 - d_{k+1}^2) on q_k = e_{k+1}
  achieve rho(x, Y_k) = c d_k exactly.
* ``witness_solve``: on a general chain x = sum_j g_j f_{z_j} in the
  orthonormalized staircase frame f. Since f_{z_i} lies in Y_{z_j} for
  i < j, rho(x, Y_{z_j}) depends only on g_j..g_J, and each anchor equation
  is a scalar quadratic in g_j, solved from the last anchor down in
  e_j-relative units. On orthogonal chains this is the telescoping rule;
  when some quadratic has no real root the targets are infeasible in this
  family and NoProgress carries the clamped witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import distance
from .errors import (
    DimensionMismatch,
    HorizonTooLarge,
    NoProgress,
    RankDeficientBasis,
    TargetsNotMonotonic,
)
from .spaces import (
    ErrorSequence,
    NormedSpace,
    Subspace,
    SubspaceChain,
    _readonly,
)

@dataclass
class Witness:
    """Element x = sum_k coefficients[k] q_k with its achieved distances."""

    coefficients: np.ndarray
    vector: np.ndarray
    targets: list[tuple[int, float]]
    achieved: list[float]
    residual: float  # max |achieved - target| over the targets
    method: str  # "telescoping-exact" | "anchor-recurrence"
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "coefficients": self.coefficients.tolist(),
            "vector": self.vector.tolist(),
            "targets": [[z, e] for z, e in self.targets],
            "achieved": list(self.achieved),
            "residual": self.residual,
            "method": self.method,
            "converged": self.converged,
        }


def witness_coordinate_exact(d: ErrorSequence, c: float, dim: int) -> Witness:
    """Exact witness for the coordinate chain: rho(x, Y_k) = c d_k, k = 1..N.

    Requires dim > N so the last staircase direction e_{N+1} exists. The
    achieved distances are recomputed through the certified solver path.
    """
    n = d.N
    if dim <= n:
        raise HorizonTooLarge(f"need ambient dimension > {n}, got {dim}")
    if not (0 < c <= 1):
        raise ValueError("c must lie in (0, 1]")
    # c * sqrt(d_k^2 - d_{k+1}^2), written as c * d_k * sqrt((1 - r)(1 + r))
    # with r = d_{k+1} / d_k (0 after the last term), so tiny d_k do not
    # underflow when squared; ErrorSequence guarantees 0 <= r <= 1
    values = d.values
    r = np.zeros_like(values)
    np.divide(values[1:], values[:-1], out=r[:-1], where=values[:-1] > 0)
    coefficients = c * values * np.sqrt((1.0 - r) * (1.0 + r))

    vector = np.zeros(dim)
    vector[1:n + 1] = coefficients
    space = NormedSpace(dim, 2.0)
    eye = _readonly(np.eye(dim))
    targets = [(k, c * float(d.values[k - 1])) for k in range(1, n + 1)]
    achieved = [distance(space, vector, Subspace(eye[:k], eye[:k])).value
                for k in range(1, n + 1)]
    residual = max(abs(a - t) for (_, t), a in zip(targets, achieved))
    return Witness(coefficients, vector, targets, achieved, residual,
                   "telescoping-exact", True)


def _staircase_frame(chain: SubspaceChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR frame of the scaled staircase: columns of F are orthonormal and
    F @ R recovers the scaled staircase columns."""
    w = chain.space.scaling()
    stair = np.stack([q * w for q in chain.staircase], axis=1)  # dim x K
    f, r = np.linalg.qr(stair)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    f = f * signs
    r = r * signs[:, None]
    if np.min(np.abs(np.diag(r))) <= 1e-12 * max(1.0, float(np.abs(r).max())):
        raise RankDeficientBasis("staircase vectors are numerically dependent")
    return f, r, w


def witness_solve(
    chain: SubspaceChain,
    targets: list[tuple[int, float]],
) -> Witness:
    """Exact x = sum_j g_j f_{z_j} with rho(x, Y_{z_j}) = e_j on a Euclidean chain.

    Targets must be strictly positive, non-increasing, with strictly
    increasing subspace indices no larger than the staircase count. The
    anchor equations are triangular in the staircase frame f, so g_j is a
    root of one scalar quadratic per anchor, taken from the last anchor
    down. Raises NoProgress (with the witness of the clamped pass attached)
    when some anchor equation has no real root.
    """
    if chain.space.p != 2.0:
        raise ValueError("witness construction requires the Euclidean norm")
    if not targets:
        raise TargetsNotMonotonic("no targets supplied")
    z = [int(zj) for zj, _ in targets]
    e = np.array([float(ej) for _, ej in targets])
    K = len(chain.staircase)
    if any(b <= a for a, b in zip(z, z[1:])):
        raise TargetsNotMonotonic("target indices must be strictly increasing")
    if z[0] < 1 or z[-1] > K:
        raise TargetsNotMonotonic(f"target indices must lie in 1..{K}")
    if np.any(e <= 0) or np.any(e[1:] > e[:-1]):
        raise TargetsNotMonotonic("targets must be positive and non-increasing")

    frame, rmat, w = _staircase_frame(chain)
    onbs = [chain.subspaces[zj - 1].orthonormal_basis(chain.space.weights)
            for zj in z]
    gamma = np.zeros(K)
    tail = np.zeros(chain.space.dim)  # T = sum_{i > j} g_i f_{z_i}
    failure = None
    for j in range(len(z) - 1, -1, -1):
        # P-perp x = g_j p + (P_{j+1} - P_j) T + P-perp_{j+1} T; the three
        # parts are orthogonal and the last has norm e_{j+1}
        onb = onbs[j]
        f = frame[:, z[j] - 1]
        p = f - onb.T @ (onb @ f)
        p_norm = float(np.linalg.norm(p))
        p_hat = p / p_norm
        if j + 1 < len(z):
            r = e[j + 1] / e[j]
            above = onbs[j + 1]
            u = (above.T @ (above @ tail) - onb.T @ (onb @ tail)) / e[j]
        else:
            r = 0.0
            u = np.zeros_like(p)
        mu = float(p_hat @ u)
        nu2 = float(np.sum((u - mu * p_hat) ** 2))
        room = (1.0 - r) * (1.0 + r) - nu2
        if room < -8 * np.finfo(float).eps * (1.0 + float(u @ u)) and failure is None:
            failure = (j, -room)
        gamma[z[j] - 1] = e[j] * (math.sqrt(max(room, 0.0)) - mu) / p_norm
        tail += gamma[z[j] - 1] * f
    if failure is not None:
        j, short = failure
        partial = _assemble(chain, gamma, rmat, frame, w, targets, converged=False)
        raise NoProgress(
            f"anchor {j + 1} (Y_{z[j]}) has no real root: its quadratic falls "
            f"short by {short:.3e} relative to the squared target",
            witness=partial,
        )
    return _assemble(chain, gamma, rmat, frame, w, targets, converged=True)


def _assemble(chain, gamma, rmat, frame, w, targets, converged) -> Witness:
    from scipy.linalg import solve_triangular

    coefficients = solve_triangular(rmat, gamma)
    vector = (frame @ gamma) / w
    achieved = [
        distance(chain.space, vector, chain.subspaces[zj - 1]).value
        for zj, _ in targets
    ]
    residual = max(abs(a - ej) for (_, ej), a in zip(targets, achieved))
    return Witness(coefficients, vector, list(targets), achieved, residual,
                   "anchor-recurrence", converged)


def achieved_distances(witness: Witness, chain: SubspaceChain) -> np.ndarray:
    """rho(witness.vector, Y_n) for n = 1..N through the certified path."""
    if witness.vector.shape != (chain.space.dim,):
        raise DimensionMismatch("witness does not live in the chain's space")
    return np.array([
        distance(chain.space, witness.vector, sub).value
        for sub in chain.subspaces
    ])
