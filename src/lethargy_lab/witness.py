"""Construct elements realizing prescribed distance sequences.

Two builders under the Euclidean norm:

* ``witness_coordinate_exact``: on the coordinate chain the distances
  telescope, so coefficients c * sqrt(d_k^2 - d_{k+1}^2) on q_k = e_{k+1}
  achieve rho(x, Y_k) = c d_k exactly.
* ``witness_solve``: on a general chain the anchor equations are solved by a
  damped multiplicative iteration in the orthonormalized staircase frame;
  the telescoping coefficients seed the iteration and each sweep rescales
  the coefficient block supported outside Z_j by (target/achieved)^(1/2).
  On orthogonal chains the seed is already exact; elsewhere convergence is
  not guaranteed and the residual plus a converged flag keep the estimator
  semantics honest.
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

SOLVE_TOL = 1e-10          # relative target error the iteration aims for
SOLVE_ACCEPT = 1e-8        # relative error below which a witness counts as converged
MAX_SWEEPS = 500
STALL_SWEEPS = 50
DAMPING = 0.5


@dataclass
class Witness:
    """Element x = sum_k coefficients[k] q_k with its achieved distances."""

    coefficients: np.ndarray
    vector: np.ndarray
    targets: list[tuple[int, float]]
    achieved: list[float]
    residual: float  # max |achieved - target| over the targets
    method: str  # "telescoping-exact" | "damped-iteration"
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
    tol: float = SOLVE_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> Witness:
    """Damped iteration achieving rho(x, Y_{z_j}) = e_j on a Euclidean chain.

    Targets must be strictly positive, non-increasing, with strictly
    increasing subspace indices no larger than the staircase count. Raises
    NoProgress (with the best partial witness attached) when the residual
    stagnates above the acceptance threshold for 50 consecutive sweeps.
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
    J = len(z)
    # per-target residual maps: achieved_j = || A_j @ gamma[tail_j] ||
    tails = [zj - 1 for zj in z]
    maps = []
    for j in range(J):
        onb = chain.subspaces[z[j] - 1].orthonormal_basis(chain.space.weights)
        block = frame[:, tails[j]:]
        maps.append(block - onb.T @ (onb @ block))

    def achieved_of(gamma: np.ndarray, j: int) -> float:
        return float(np.linalg.norm(maps[j] @ gamma[tails[j]:]))

    gamma = np.zeros(K)
    padded = np.append(e, 0.0)
    for j in range(J):
        gamma[tails[j]] = math.sqrt(max(padded[j] ** 2 - padded[j + 1] ** 2, 0.0))

    best_gamma = gamma.copy()
    best_residual = math.inf
    stall = 0
    converged = False
    for _ in range(max_sweeps):
        for j in range(J - 1, -1, -1):
            ach = achieved_of(gamma, j)
            if ach <= 1e-300:
                gamma[tails[j]] += e[j]
                continue
            gamma[tails[j]:] *= (e[j] / ach) ** DAMPING
        rel = max(abs(achieved_of(gamma, j) - e[j]) / e[j] for j in range(J))
        if rel < best_residual * (1 - 1e-6):
            best_residual = rel
            best_gamma = gamma.copy()
            stall = 0
        else:
            stall += 1
        if rel < tol:
            best_residual = rel
            best_gamma = gamma.copy()
            converged = True
            break
        if stall >= STALL_SWEEPS and best_residual > SOLVE_ACCEPT:
            partial = _assemble(chain, best_gamma, rmat, frame, w, targets,
                                converged=False)
            raise NoProgress(
                f"residual stagnated at {best_residual:.3e} for {STALL_SWEEPS} sweeps",
                witness=partial,
            )
    return _assemble(chain, best_gamma, rmat, frame, w, targets,
                     converged=converged or best_residual < SOLVE_ACCEPT)


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
                   "damped-iteration", converged)


def achieved_distances(witness: Witness, chain: SubspaceChain) -> np.ndarray:
    """rho(witness.vector, Y_n) for n = 1..N through the certified path."""
    if witness.vector.shape != (chain.space.dim,):
        raise DimensionMismatch("witness does not live in the chain's space")
    return np.array([
        distance(chain.space, witness.vector, sub).value
        for sub in chain.subspaces
    ])
