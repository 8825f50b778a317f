"""Anchor-index recursion, merged step indices, step targets, and the upper constant.

Given non-increasing errors d and a separation profile a, anchors are chosen
recursively: n_1 = 1 and n_{i+1} is the first admissible n with
d_n / a_n^2 <= d_{n_i}. The map n -> d_n / a_n^2 is non-increasing (d falls,
a rises), so the admissible set is an up-set and the minimum is well defined;
this is asserted before every search.

Two modes: ``literal`` searches from n = 1 (and therefore stalls with
n_{i+1} = n_i whenever a_{n_i} = 1, e.g. on orthogonal chains), ``strict``
searches from n_i + 1, which keeps the merged index sequence strictly
increasing. The merged indices interleave each anchor n_i with n_{i+1} - 1;
when the gap is a single step that middle index would duplicate the anchor,
so it is skipped (amended j-rule, flagged in every serialization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .errors import (
    HorizonExhausted,
    InvariantViolation,
    NoContributors,
    PlanStalled,
)
from .separation import SeparationProfile
from .spaces import ErrorSequence

STEP_SLACK = 1e-12  # relative to a e_j


@dataclass
class IndexPlan:
    n: list[int]
    j: list[int]
    m: list[int]
    mode: str  # "literal" | "strict"
    stalled: bool
    stall_index: int | None
    horizon: int
    amended_j_rule: bool = True

    @property
    def anchors(self) -> list[int]:
        """Strictly increasing anchor prefix (drops a stalled repeat)."""
        return self.n[:-1] if self.stalled else self.n

    def anchor_ordinal_at(self, position: int) -> int | None:
        """Anchor ordinal i (0-based) whose m-position is ``position``, else None."""
        try:
            return self.j.index(position + 1)
        except ValueError:
            return None

    def as_dict(self) -> dict:
        return {
            "n": list(self.n),
            "j": list(self.j),
            "m": list(self.m),
            "mode": self.mode,
            "stalled": self.stalled,
            "stall_index": self.stall_index,
            "horizon": self.horizon,
            "amended_j_rule": self.amended_j_rule,
        }


def _merge_indices(anchors: list[int]) -> tuple[list[int], list[int]]:
    j = [1]
    m = [anchors[0]]
    for prev, nxt in pairwise(anchors):
        if nxt > prev + 1:
            m.append(nxt - 1)
            j.append(j[-1] + 2)
        else:
            j.append(j[-1] + 1)
        m.append(nxt)
    return j, m


def build_index_plan(
    d: ErrorSequence,
    profile: SeparationProfile,
    mode: str = "strict",
) -> IndexPlan:
    """Run the anchor recursion over the finite horizon.

    The horizon is the largest index with both a d-value, an a-value, and
    d > 0 (trailing zeros fall outside the plan). A literal-mode stall keeps
    the offending repeat in ``n`` for inspection; merged indices cover the
    healthy strictly-increasing prefix only.
    """
    if mode not in ("literal", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    values = d.values
    a = profile.a
    positive = np.flatnonzero(values > 0)
    if positive.size == 0:
        raise ValueError("d has no positive entries")
    horizon = int(min(values.size, a.size, positive[-1] + 1))
    if horizon < 1:
        raise ValueError("empty plan horizon")

    ratio_map = values[:horizon] / a[:horizon] ** 2
    if np.any(ratio_map[1:] > ratio_map[:-1] * (1 + 1e-12) + 1e-15):
        raise InvariantViolation("d_n / a_n^2 must be non-increasing")

    n = [1]
    stalled = False
    stall_index = None
    while True:
        threshold = values[n[-1] - 1]
        start = 1 if mode == "literal" else n[-1] + 1
        candidates = np.flatnonzero(ratio_map[start - 1:] <= threshold)
        if candidates.size == 0:
            break
        nxt = int(candidates[0]) + start
        if mode == "literal" and nxt <= n[-1]:
            n.append(nxt)
            stalled = True
            stall_index = len(n) - 1  # the i whose successor stalled
            break
        n.append(nxt)
    anchors = n[:-1] if stalled else n
    j, m = _merge_indices(anchors)
    if any(b <= a_ for a_, b in pairwise(m)):
        raise InvariantViolation("merged indices must be strictly increasing")
    return IndexPlan(n, j, m, mode, stalled, stall_index, horizon)


@dataclass
class StepSequence:
    """Targets e_j on the relabeled subspaces Z_j = Y_{z_j}."""

    e: list[float]
    z: list[int]
    c: float
    anchor_flags: list[bool] | None = None
    plan: IndexPlan | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        out = {
            "e": list(self.e),
            "z": list(self.z),
            "c": self.c,
            "anchor_flags": None if self.anchor_flags is None else list(self.anchor_flags),
            "amended_j_rule": True,
        }
        return out


def build_step_sequence(
    plan: IndexPlan,
    d: ErrorSequence,
    profile: SeparationProfile,
    c: float,
) -> StepSequence:
    """Fill the step targets: e_j = (c / a_{m_{j+1}}) d_{n_i} at anchors and
    e_j = c d_{n_i} at middles.

    The final index would reference an a-value beyond the last merged index,
    so that step is dropped; if nothing remains the horizon is exhausted.
    """
    if plan.stalled:
        raise PlanStalled(f"literal-mode plan stalled at i={plan.stall_index}")
    if not (0 < c <= 1):
        raise ValueError("c must lie in (0, 1]")
    m = plan.m
    if len(m) < 2:
        raise HorizonExhausted("plan produced a single index; no step survives the drop")
    e: list[float] = []
    z: list[int] = []
    flags: list[bool] = []
    owner = -1
    for pos in range(len(m) - 1):
        ordinal = plan.anchor_ordinal_at(pos)
        if ordinal is not None:
            owner = ordinal
            d_anchor = float(d.values[plan.anchors[owner] - 1])
            e.append(c / profile.a_value(m[pos + 1]) * d_anchor)
            flags.append(True)
        else:
            d_anchor = float(d.values[plan.anchors[owner] - 1])
            e.append(c * d_anchor)
            flags.append(False)
        z.append(m[pos])
    if any(val <= 0 for val in e):
        raise InvariantViolation("step targets must be positive")
    return StepSequence(e, z, c, flags, plan)


@dataclass
class StepCheck:
    j: int
    case: int | None
    lhs: float
    rhs: float
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return {"j": self.j, "case": self.case, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack, "pass": self.passed}


def verify_step_inequality(
    steps: StepSequence,
    profile: SeparationProfile,
) -> list[StepCheck]:
    """Check the contraction e_{j+1} <= a_{z_{j+1}} e_j (within a relative
    1e-12) per j.

    Each j is labeled with which construction case applies when anchor flags
    are available: 1 = middle followed by an anchor, 2 = anchor followed by a
    middle (exact equality), 3 = consecutive anchors.
    """
    checks = []
    for idx in range(len(steps.e) - 1):
        a_val = profile.a_value(steps.z[idx + 1])
        lhs = steps.e[idx + 1]
        rhs = a_val * steps.e[idx]
        case = None
        if steps.anchor_flags is not None:
            here = steps.anchor_flags[idx]
            after = steps.anchor_flags[idx + 1]
            case = 1 if not here else (2 if not after else 3)
        checks.append(StepCheck(idx + 1, case, lhs, rhs, rhs - lhs,
                                lhs <= rhs * (1 + STEP_SLACK)))
    return checks


@dataclass
class TildeA:
    """Finite-family lower bound on the sandwich upper constant.

    ``value`` = max over supplied plans and anchor ordinals i of
    a_{n_{i+1}-1}^{-3}; always >= 1 since a <= 1. Out-of-horizon and zero
    indices are skipped and counted.
    """

    value: float
    contributors: list[tuple[int, int, float]]  # (plan id, i, a-value)
    skipped: int = 0

    @property
    def capped(self) -> float:
        return min(4.0, self.value)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "capped": self.capped,
            "contributors": [
                {"plan": pid, "i": i, "a": a_val}
                for pid, i, a_val in self.contributors
            ],
            "skipped": self.skipped,
            "lower_bound_only": True,
        }


def compute_tilde_a(plans: list[tuple[IndexPlan, SeparationProfile]]) -> TildeA:
    """Evaluate the upper constant over a finite family of plans.

    The result is a lower bound on the supremum over all admissible
    staircase sequences, which is not computable; it is labeled as such.
    """
    best = -np.inf
    entries: list[tuple[int, int, float]] = []
    skipped = 0
    for pid, (plan, profile) in enumerate(plans):
        for i in range(len(plan.n) - 1):
            idx = plan.n[i + 1] - 1
            if idx < 1 or idx > profile.a.size:
                skipped += 1
                continue
            a_val = profile.a_value(idx)
            entries.append((pid, i + 1, a_val))
            best = max(best, a_val ** -3)
    if not entries:
        raise NoContributors("every candidate index fell outside the horizon")
    contributors = [
        (pid, i, a_val) for pid, i, a_val in entries
        if abs(a_val ** -3 - best) <= 1e-12 * max(1.0, best)
    ]
    return TildeA(float(best), contributors, skipped)
