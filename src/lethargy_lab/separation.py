"""Separation quantities of nested chains.

For a chain with staircase vectors q_k, the tail-span ratio at level l is

    inf { rho(q, Y_l) / ||q|| : q in span<q_l, ..., q_L>, q != 0 }

and a_n is the minimum of these ratios over l >= n. In the Euclidean norm
the ratio is the sine of the smallest principal angle between the span and
Y_l: one SVD per level of Y_l's frame against rows l.. of one orthonormal
frame of all tail spans, built from the back (Bjorck & Golub 1973). Below
sin^2 = 1/4 the sine comes from the span's residual off Y_l, not from
1 - cos^2 (Knyazev & Argentati 2002). Other norms get a seeded
quasi-random sphere search with local refinement; those values are labeled
estimates with upper-bound semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distances import distance
from .errors import (
    EmptySpan,
    InvariantViolation,
    NotGeometricSequence,
)
from .spaces import ErrorSequence, NormedSpace, Subspace, SubspaceChain, orthonormal_rows

POSITIVITY_EPS = 1e-12
DEFAULT_SAMPLES = 4096


@dataclass
class RatioValue:
    value: float
    method: str  # "principal-angle" | "sampled-descent"
    certified: bool
    witness: np.ndarray | None = None
    samples: int = 0


def _tail_frame(space: NormedSpace, rows) -> tuple[np.ndarray, np.ndarray]:
    """Scaled ``rows`` and a frame whose rows j.. span scaled rows j..: row j
    is scaled row j orthogonalised (twice) against the rows below, normalised."""
    scaled = np.asarray(rows, dtype=float) * space.scaling()
    frame = np.empty_like(scaled)
    for j in range(len(scaled) - 1, -1, -1):
        r, below = scaled[j], frame[j + 1:]
        for _ in range(2):
            r = r - (below @ r) @ below
        frame[j] = orthonormal_rows(r, require_full_rank=True)[0]
    return scaled, frame


def _exact_ratio(space: NormedSpace, rows: np.ndarray, frame: np.ndarray,
                 target: Subspace) -> RatioValue:
    """Sine of the smallest principal angle between the span of the scaled
    ``rows``, with orthonormal ``frame``, and the scaled ``target``."""
    onb = target.orthonormal_basis(space.weights)
    _, s, vh = np.linalg.svd(onb @ frame.T)
    sigma = min(1.0, float(s[0]))
    value = math.sqrt(max(0.0, 1.0 - sigma * sigma))
    direction = vh[0] @ frame
    if value * value < 0.25:
        # 1 - cos^2 cancels here: the sines are the singular values of the
        # rows' residual off the target, written in frame coordinates
        x = np.linalg.solve(rows @ frame.T, rows - (rows @ onb.T) @ onb)
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        value = float(s[-1])
        direction = u[:, -1] @ frame
    witness = direction / space.scaling()
    witness = witness / np.linalg.norm(witness)
    return RatioValue(value, "principal-angle", True, witness)


def _sphere_directions(k: int, samples: int, seed_material) -> np.ndarray:
    if k == 1:
        return np.ones((1, 1))
    from scipy.stats import qmc, norm as gaussian

    rng = np.random.default_rng(seed_material)
    sob = qmc.Sobol(d=k, scramble=True, seed=rng)
    u = sob.random(samples)
    z = gaussian.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-12
    return z[keep] / norms[keep, None]


def _sampled_ratio(
    space: NormedSpace,
    span_rows: np.ndarray,
    target: Subspace,
    samples: int,
    seed_material,
    refine: bool,
) -> RatioValue:
    """Smallest sampled rho(q, target) / ||q|| over unit q in the span.

    Seeded Sobol directions on the span's sphere, then Nelder-Mead from the
    best one when ``refine`` is set. Every LP on this level shares ``c``
    and ``A`` (only x moves the right-hand side), so each distance solve
    warm-starts from the previous solve's optimal basis; the simplex uses
    that basis only where it is still feasible, and the optimum does not
    depend on the start. The result is an estimate with upper-bound
    semantics.
    """
    frame = orthonormal_rows(span_rows)
    k = frame.shape[0]
    dirs = _sphere_directions(k, samples, seed_material)

    warm = None  # the last LP basis on this level: each LP starts from it

    def ratio_of(q: np.ndarray) -> float:
        nonlocal warm
        result = distance(space, q, target, warm)
        warm = result.basis
        return result.value / space.norm_of(q)

    if space.p == 2.0 and not space.weighted:
        onb = target.orthonormal_basis()
        qs = dirs @ frame
        residuals = qs - (qs @ onb.T) @ onb
        ratios = np.linalg.norm(residuals, axis=1)  # directions are unit vectors
    else:
        ratios = np.array([ratio_of(u @ frame) for u in dirs])
    best = int(np.argmin(ratios))
    best_value = float(ratios[best])
    best_dir = dirs[best]

    if refine and k > 1:
        from scipy.optimize import minimize

        def objective(u):
            nrm = np.linalg.norm(u)
            if nrm < 1e-9:
                return 2.0
            return ratio_of((u / nrm) @ frame)

        # evaluations are cheap closed-form projections for the plain
        # Euclidean norm; elsewhere each one is a full distance solve
        budget = 400 * k if (space.p == 2.0 and not space.weighted) \
            else min(200, 60 + 30 * k)
        res = minimize(objective, best_dir, method="Nelder-Mead",
                       options={"maxiter": budget, "xatol": 1e-10, "fatol": 1e-12})
        if res.fun < best_value:
            best_value = float(res.fun)
            best_dir = res.x / np.linalg.norm(res.x)
    witness = best_dir @ frame
    witness = witness / np.linalg.norm(witness)
    return RatioValue(best_value, "sampled-descent", False, witness, len(dirs))


def _exact_path(space: NormedSpace, method: str) -> bool:
    if method not in ("auto", "exact", "estimate"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and space.p != 2.0:
        raise ValueError("exact ratios require the Euclidean norm")
    return method == "exact" or method == "auto" and space.p == 2.0


def min_ratio_over_span(
    chain: SubspaceChain,
    l: int,
    upper: int | None = None,
    method: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    refine: bool = True,
) -> RatioValue:
    """Smallest rho(q, Y_l)/||q|| over q in span<q_l ... q_upper>.

    ``upper`` defaults to the last staircase index (finite-horizon tail).
    """
    k_max = len(chain.staircase)
    if upper is None:
        upper = k_max
    if k_max == 0 or not (1 <= l <= upper <= k_max):
        raise EmptySpan(f"span indices l={l}, upper={upper} invalid for "
                        f"{k_max} staircase vectors")
    target = chain.subspaces[l - 1]
    if _exact_path(chain.space, method):
        rows, frame = _tail_frame(chain.space, chain.staircase[l - 1:upper])
        return _exact_ratio(chain.space, rows, frame, target)
    return _sampled_ratio(chain.space, np.vstack(chain.staircase[l - 1:upper]),
                          target, samples, [seed, l, upper], refine)


@dataclass
class SeparationProfile:
    """Finite-horizon separation values a_1 <= a_2 <= ... <= a_{N-1}.

    ``ratios[l-1]`` is the tail-span ratio at level l that fed the running
    minimum; ``certified`` means every contributing ratio came from the
    principal-angle path.
    """

    a: np.ndarray
    horizon: int
    certified: bool = True
    ratios: list[RatioValue] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 1 or self.a.size == 0:
            raise ValueError("profile needs at least one value")
        if np.any(self.a[:-1] > self.a[1:] + 1e-12):
            raise InvariantViolation("a_n must be non-decreasing")
        floor = 0.0 if self.certified else POSITIVITY_EPS
        if np.any(self.a <= floor):
            raise InvariantViolation("a_n must be strictly positive")
        if np.any(self.a > 1.0 + 1e-12):
            raise InvariantViolation("a_n cannot exceed 1")

    def a_value(self, n: int) -> float:
        if not (1 <= n <= self.a.size):
            raise IndexError(f"a_{n} is outside the horizon (1..{self.a.size})")
        return float(self.a[n - 1])

    def as_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "horizon": self.horizon,
            "certified": self.certified,
            "provenance": None if self.ratios is None else [
                {"method": r.method, "certified": r.certified, "samples": r.samples}
                for r in self.ratios
            ],
        }


def separation_profile(
    chain: SubspaceChain,
    method: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> SeparationProfile:
    """Compute a_n = min over l in [n, N-1] of the tail-span ratio at l.

    Built as a backward running minimum, so monotonicity holds by
    construction; positivity is asserted, not clamped.
    """
    k_max = len(chain.staircase)
    if k_max == 0:
        raise EmptySpan("chain has no staircase vectors")
    if _exact_path(chain.space, method):
        # every tail span's frame is a slice of one frame, built once
        rows, frame = _tail_frame(chain.space, chain.staircase)
        ratios = [_exact_ratio(chain.space, rows[l:], frame[l:], chain.subspaces[l])
                  for l in range(k_max)]
    else:
        ratios = [min_ratio_over_span(chain, l, k_max, method=method,
                                      samples=samples, seed=seed)
                  for l in range(1, k_max + 1)]
    a = np.empty(k_max)
    running = math.inf
    for idx in range(k_max - 1, -1, -1):
        running = min(running, ratios[idx].value)
        a[idx] = running
    certified = all(r.certified for r in ratios)
    return SeparationProfile(a, chain.horizon, certified, ratios)


def check_uniform_separation(profile: SeparationProfile, threshold: float) -> bool:
    """True iff min_n a_n >= threshold (boundary inclusive)."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return bool(profile.a.min() >= threshold)


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass
class ConditionFailure:
    index: int
    lhs: float
    rhs: float
    witness: np.ndarray | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "lhs": _finite_or_none(self.lhs),
            "rhs": _finite_or_none(self.rhs),
            "witness": None if self.witness is None
            else np.asarray(self.witness, dtype=float).tolist(),
        }


@dataclass
class ConditionReport:
    kind: str  # "geometric" | "span-ratio"
    passed: bool
    failures: list[ConditionFailure]
    margin: float | None
    certified: bool = True
    mode: str | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pass": self.passed,
            "failures": [f.as_dict() for f in self.failures],
            "margin": _finite_or_none(self.margin),
            "certified": self.certified,
            "mode": self.mode,
        }


def _geometric_ratio(values: np.ndarray) -> float:
    if values.size < 2 or np.any(values <= 0):
        raise NotGeometricSequence("need at least two positive values")
    r = values[1] / values[0]
    if np.any(np.abs(values[1:] - r * values[:-1]) > 1e-9 * values[0]):
        raise NotGeometricSequence("values are not geometric within tolerance")
    return float(r)


def check_geometric_condition(d: ErrorSequence, mode: str = "truncated") -> ConditionReport:
    """Check d_n > sum of the remaining tail for every n with d_n > 0.

    ``truncated`` sums the literal finite tail, so a geometric sequence with
    ratio exactly 1/2 passes vacuously by the truncation remainder.
    ``idealized-geometric`` requires geometric input and compares the ratio
    against 1/2, reproducing the infinite-tail behavior: ratio >= 1/2 fails
    at every index.
    """
    values = d.values
    failures: list[ConditionFailure] = []
    margins: list[float] = []
    if mode == "truncated":
        for n in range(1, values.size + 1):
            if values[n - 1] <= 0:
                continue
            tail = float(values[n:].sum())
            margins.append(float(values[n - 1]) - tail)
            if not values[n - 1] > tail:
                failures.append(ConditionFailure(n, float(values[n - 1]), tail))
    elif mode == "idealized-geometric":
        r = _geometric_ratio(values)
        for n in range(1, values.size + 1):
            ideal_tail = float(values[n - 1]) * r / (1.0 - r) if r < 1 else math.inf
            margins.append(float(values[n - 1]) - ideal_tail)
            if r >= 0.5:
                failures.append(ConditionFailure(n, float(values[n - 1]), ideal_tail))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    margin = min(margins) if margins else None
    return ConditionReport("geometric", not failures, failures, margin, True, mode)


def check_span_ratio_condition(
    chain: SubspaceChain,
    d: ErrorSequence,
    profile: SeparationProfile | None = None,
) -> ConditionReport:
    """Check ||q|| <= (d_{k-1}/d_k) rho(q, Y_k) on tail spans, k = 2..N.

    Equivalently the tail-span ratio at k must reach d_k/d_{k-1}. The ratios
    are the ones behind ``profile``, the chain's separation profile (computed
    here when not given), and a failure's witness is the direction that
    attained the ratio. Euclidean ratios are exact principal angles
    (certified); sampled ones are attained at concrete directions, so they
    can only falsify.
    """
    if profile is None:
        profile = separation_profile(chain)
    ratios = profile.ratios
    if ratios is None or len(ratios) != len(chain.staircase):
        raise ValueError("profile must carry one tail-span ratio per "
                         "staircase vector of the chain")
    k_max = min(len(chain.staircase), d.N)
    if np.any(d.values[:k_max] <= 0):
        raise ValueError("d must be strictly positive over the checked range")
    failures: list[ConditionFailure] = []
    margins: list[float] = []
    for k in range(2, k_max + 1):
        required = float(d.values[k - 1] / d.values[k - 2])
        ratio = ratios[k - 1]
        margins.append(ratio.value - required)
        if ratio.value < required - 1e-12:
            q = ratio.witness
            rho = distance(chain.space, q, chain.subspaces[k - 1]).value
            failures.append(ConditionFailure(
                k, chain.space.norm_of(q), rho / required, q,
            ))
    margin = min(margins) if margins else None
    exact = profile.certified
    return ConditionReport("span-ratio", not failures, failures, margin,
                           certified=exact, mode="exact" if exact else "sampled")
