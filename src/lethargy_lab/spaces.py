"""Finite-dimensional normed spaces, subspaces, and strictly nested chains.

The ambient space is R^dim equipped with a weighted l^p norm
``||v|| = ||w * v||_p`` (entrywise weights applied before the norm).
Chains are strictly nested subspaces Y_1 < Y_2 < ... < Y_N together with
staircase vectors q_k in Y_{k+1} \\ Y_k.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadStaircase,
    ConfigInvalid,
    DimensionMismatch,
    HorizonTooLarge,
    NotNested,
    NotNonIncreasing,
    NotStrict,
    RankDeficientBasis,
)

# Absolute residual below which a vector counts as belonging to a subspace.
# Well above double-precision noise for dimensions up to a few hundred,
# far below meaningful geometric gaps in any test scenario.
CONTAINMENT_TOL = 1e-10


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def orthonormal_rows(rows: np.ndarray, require_full_rank: bool = False) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``rows``.

    SVD-based, deterministic. With ``require_full_rank`` a rank drop raises
    RankDeficientBasis instead of silently returning a smaller frame.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0:
        raise RankDeficientBasis("empty basis")
    keep = s > s[0] * max(rows.shape) * np.finfo(float).eps
    if require_full_rank and keep.sum() < rows.shape[0]:
        raise RankDeficientBasis(
            f"rank {int(keep.sum())} < {rows.shape[0]} basis vectors"
        )
    return vh[keep]


@dataclass(frozen=True)
class NormedSpace:
    """R^dim with the weighted p-norm, p in [1, inf], weights > 0."""

    dim: int
    p: float = 2.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not (self.p >= 1.0):
            raise ValueError("p must satisfy p >= 1")
        if self.weights is not None:
            w = _readonly(self.weights)
            if w.shape != (self.dim,):
                raise DimensionMismatch(
                    f"expected {self.dim} weights, got shape {w.shape}"
                )
            if not np.all(w > 0):
                raise ValueError("weights must be strictly positive")
            object.__setattr__(self, "weights", w)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def scaling(self) -> np.ndarray:
        """Entrywise scaling vector (all ones when unweighted)."""
        if self.weights is None:
            return np.ones(self.dim)
        return self.weights

    def norm_of(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected length {self.dim}, got {v.shape}")
        if self.weights is not None:
            v = v * self.weights
        return float(np.linalg.norm(v, ord=self.p))


def norm_of(space: NormedSpace, v) -> float:
    """Weighted p-norm of ``v`` in ``space``."""
    return space.norm_of(v)


@dataclass
class Subspace:
    """Linear subspace given by an ordered, linearly independent basis (rows),
    orthonormalised once: by the rank-checking SVD at construction (unless the
    frame comes in as ``_orthonormal``), and once per distinct scaling."""

    basis: np.ndarray
    _orthonormal: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scaled: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        b = np.atleast_2d(np.array(self.basis, dtype=float))
        if b.shape[0] > b.shape[1]:
            raise RankDeficientBasis("more basis vectors than ambient dimensions")
        b.setflags(write=False)
        self.basis = b
        if self._orthonormal is None:
            self._orthonormal = orthonormal_rows(b, require_full_rank=True)
        self._orthonormal = _readonly(self._orthonormal)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def orthonormal_basis(self, scaling=None) -> np.ndarray:
        """Orthonormal rows spanning the subspace, or with ``scaling`` w the
        rescaled subspace {w * y : y in Y}; each is computed once."""
        if scaling is None:
            return self._orthonormal
        w = np.asarray(scaling, dtype=float)
        key = w.tobytes()
        if key not in self._scaled:
            self._scaled[key] = _readonly(
                orthonormal_rows(self.basis * w, require_full_rank=True))
        return self._scaled[key]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Euclidean orthogonal projection of ``v`` onto the subspace."""
        onb = self.orthonormal_basis()
        return (np.asarray(v, dtype=float) @ onb.T) @ onb

    def residual_of(self, v: np.ndarray) -> float:
        """Euclidean distance of ``v`` from the subspace (membership residual)."""
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v, tol: float = CONTAINMENT_TOL) -> bool:
        return self.residual_of(v) <= tol


@dataclass
class SubspaceChain:
    """Strictly nested subspaces with staircase vectors q_k in Y_{k+1} \\ Y_k.

    Construction only checks shapes; geometric invariants are established by
    the ``make_*`` constructors and re-checkable via :func:`validate_chain`,
    so deliberately broken chains can be built for validator tests.
    """

    space: NormedSpace
    subspaces: list[Subspace]
    staircase: list[np.ndarray]

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("chain needs at least one subspace")
        if len(self.staircase) != len(self.subspaces) - 1:
            raise ValueError(
                f"expected {len(self.subspaces) - 1} staircase vectors, "
                f"got {len(self.staircase)}"
            )
        for sub in self.subspaces:
            if sub.ambient_dim != self.space.dim:
                raise DimensionMismatch("subspace does not live in the chain's space")
        cleaned = []
        for q in self.staircase:
            q = _readonly(q)
            if q.shape != (self.space.dim,):
                raise DimensionMismatch("staircase vector has wrong length")
            cleaned.append(q)
        self.staircase = cleaned

    @property
    def horizon(self) -> int:
        return len(self.subspaces)


def make_coordinate_chain(space: NormedSpace, n: int) -> SubspaceChain:
    """Canonical chain Y_k = span{e_1..e_k} with staircase q_k = e_{k+1}."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    if n >= space.dim:
        raise HorizonTooLarge(f"horizon {n} needs ambient dimension > {n}")
    eye = np.eye(space.dim)
    # identity rows are their own orthonormal frame
    subspaces = [Subspace(eye[:k], eye[:k]) for k in range(1, n + 1)]
    staircase = [eye[k] for k in range(1, n)]
    return SubspaceChain(space, subspaces, staircase)


def make_chain_from_bases(
    space: NormedSpace,
    bases: list,
    staircase: list | None = None,
) -> SubspaceChain:
    """Build and validate a chain from explicit basis lists.

    When ``staircase`` is omitted, q_k is synthesized as the Euclidean
    component outside Y_k of the new basis vector of Y_{k+1} that sticks out
    the most (normalized). Any vector of Y_{k+1} \\ Y_k is admissible; the
    orthogonal complement is a deterministic choice.
    """
    if not bases:
        raise ValueError("bases must be non-empty")
    subspaces = [Subspace(b) for b in bases]
    for sub in subspaces:
        if sub.ambient_dim != space.dim:
            raise DimensionMismatch("basis vectors do not match the space dimension")
    for k in range(len(subspaces) - 1):
        low, high = subspaces[k], subspaces[k + 1]
        worst = max(high.residual_of(row) for row in low.basis)
        if worst > CONTAINMENT_TOL:
            raise NotNested(f"Y_{k + 1} is not contained in Y_{k + 2} "
                            f"(residual {worst:.3e})")
        if low.dim >= high.dim:
            raise NotStrict(f"Y_{k + 1} and Y_{k + 2} span the same set")

    if staircase is None:
        synthesized = []
        for k in range(len(subspaces) - 1):
            low, high = subspaces[k], subspaces[k + 1]
            residuals = [low.residual_of(row) for row in high.basis]
            pick = int(np.argmax(residuals))
            if residuals[pick] <= CONTAINMENT_TOL:
                raise NotStrict(f"no basis vector of Y_{k + 2} leaves Y_{k + 1}")
            q = high.basis[pick] - low.project(high.basis[pick])
            synthesized.append(q / np.linalg.norm(q))
        staircase = synthesized
    else:
        if len(staircase) != len(subspaces) - 1:
            raise BadStaircase(
                f"expected {len(subspaces) - 1} staircase vectors, "
                f"got {len(staircase)}"
            )
        for k, q in enumerate(staircase):
            q = np.asarray(q, dtype=float)
            low, high = subspaces[k], subspaces[k + 1]
            if high.residual_of(q) > CONTAINMENT_TOL:
                raise BadStaircase(f"q_{k + 1} does not lie in Y_{k + 2}")
            if low.residual_of(q) <= CONTAINMENT_TOL:
                raise BadStaircase(f"q_{k + 1} lies in Y_{k + 1}")
    return SubspaceChain(space, subspaces, list(staircase))


@dataclass
class ChainCheckRow:
    k: int
    nesting_residual: float
    strictness_margin: int
    staircase_membership: float
    staircase_distance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "nesting_residual": self.nesting_residual,
            "strictness_margin": self.strictness_margin,
            "staircase_membership": self.staircase_membership,
            "staircase_distance": self.staircase_distance,
            "pass": self.passed,
        }


@dataclass
class ChainValidation:
    rows: list[ChainCheckRow]
    passed: bool

    def as_dict(self) -> dict:
        return {"rows": [r.as_dict() for r in self.rows], "pass": self.passed}


def validate_chain(chain: SubspaceChain) -> ChainValidation:
    """Re-check nesting, strictness, and staircase membership of a chain.

    Report-carrying: never raises on a bad chain, every failure is a row
    with its residuals. Staircase distances use the chain's own norm via
    the distance solver.
    """
    from .distances import distance  # deferred: distances builds on this module

    rows = []
    for k in range(len(chain.subspaces) - 1):
        low, high = chain.subspaces[k], chain.subspaces[k + 1]
        nest = max(high.residual_of(row) for row in low.basis)
        margin = high.dim - low.dim
        q = chain.staircase[k]
        membership = high.residual_of(q)
        dist = distance(chain.space, q, low).value
        passed = (
            nest <= CONTAINMENT_TOL
            and margin >= 1
            and membership <= CONTAINMENT_TOL
            and dist > CONTAINMENT_TOL
        )
        rows.append(ChainCheckRow(k + 1, nest, margin, membership, dist, passed))
    return ChainValidation(rows, all(r.passed for r in rows))


@dataclass(frozen=True)
class ErrorSequence:
    """Non-increasing target errors d_1 >= ... >= d_N >= 0 with scale c in (0, 1]."""

    values: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty vector")
        if np.any(v < 0):
            raise NotNonIncreasing("error values must be nonnegative")
        if np.any(v[1:] > v[:-1]):
            raise NotNonIncreasing("error values must be non-increasing")
        if not (0 < self.c <= 1):
            raise ValueError("c must lie in (0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return int(self.values.size)

    @classmethod
    def geometric(cls, ratio: float, n: int, first: float = 1.0, c: float = 1.0):
        if not (0 < ratio <= 1):
            raise ValueError("geometric ratio must lie in (0, 1]")
        return cls(first * ratio ** np.arange(n), c)


def reject_nonfinite(doc, path: tuple = ()) -> None:
    """Raise ConfigInvalid, with the field path, at the first NaN or infinity
    of a parsed JSON document, or null inside an array (it loads as NaN);
    schema bounds let NaN through."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, (list, np.ndarray)):
        try:  # one vectorized pass over a numeric array
            if np.isfinite(np.asarray(doc, dtype=float)).all():
                return
        except (TypeError, ValueError, OverflowError):  # ragged or non-numeric
            pass
        items = enumerate(doc)
    else:
        return
    for key, item in items:
        if (isinstance(item, float) and not math.isfinite(item)
                or item is None and not isinstance(doc, dict)):
            where = "/".join(str(part) for part in path + (key,))
            raise ConfigInvalid(f"{where}: must be a finite number", path=where)
        reject_nonfinite(item, path + (key,))


def space_from_json(doc: dict) -> NormedSpace:
    # float() also parses the schema's "inf"
    return NormedSpace(int(doc["dim"]), float(doc.get("p", 2)), doc.get("weights"))


def chain_from_json(source) -> SubspaceChain:
    """Load a chain from a JSON document, file path, or already-parsed dict.

    Schema: {"dim": int, "p": number|"inf", "weights": [..]|null,
    "bases": [[[..],..],..], "staircase": [[..],..]|null}; row vectors are
    ambient-length arrays of finite doubles (else ConfigInvalid).
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    reject_nonfinite(doc)
    return make_chain_from_bases(space_from_json(doc), doc["bases"],
                                 doc.get("staircase"))
