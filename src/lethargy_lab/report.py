"""Two-sided bound verification and report emission.

For a witness x built against errors d at scale c, every reported row checks

    c d_n (1 - tol)  <=  rho(x, Y_n)  <=  min(4, a~) c d_n (1 + tol)

with a~ the finite-family upper constant. The tolerance is relative, so a
row keeps its meaning when c d_n is far below 1. The konyagin_upper column
lists the classical factor-8 guarantee 8 d_n for scale comparison only: that
bound belongs to a different witness construction, so no row asserts it for x.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MismatchedInputs
from .machinery import IndexPlan, TildeA
from .separation import SeparationProfile
from .spaces import ErrorSequence, SubspaceChain
from .witness import Witness, achieved_distances

REPORT_TOL = 1e-9

CSV_COLUMNS = ("n", "d_n", "lower", "achieved", "upper", "konyagin_upper", "pass")


@dataclass
class SandwichRow:
    n: int
    d_n: float
    lower: float
    achieved: float
    upper: float
    konyagin_upper: float
    passed: bool

    @property
    def upper_ratio(self) -> float:
        """achieved / upper; surfaces how loose the sandwich is (no sharpness claim)."""
        return self.achieved / self.upper if self.upper > 0 else float("nan")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d_n": self.d_n,
            "lower": self.lower,
            "achieved": self.achieved,
            "upper": self.upper,
            "konyagin_upper": self.konyagin_upper,
            "upper_ratio": self.upper_ratio,
            "pass": self.passed,
        }


@dataclass
class IntermediateCheck:
    n: int
    kind: str  # "lower-route" | "upper-route"
    lhs: float
    rhs: float
    passed: bool

    def as_dict(self) -> dict:
        return {"n": self.n, "kind": self.kind, "lhs": self.lhs,
                "rhs": self.rhs, "pass": self.passed}


@dataclass
class SandwichReport:
    rows: list[SandwichRow]
    c: float
    tilde_a_value: float
    upper_factor: float  # min(4, tilde_a)
    plan_mode: str | None
    coverage: int
    overall_passed: bool
    intermediate: list[IntermediateCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    amended_j_rule: bool = True

    def as_dict(self) -> dict:
        return {
            "rows": [r.as_dict() for r in self.rows],
            "constants": {
                "c": self.c,
                "tilde_a": self.tilde_a_value,
                "upper_factor": self.upper_factor,
            },
            "plan": {"mode": self.plan_mode, "amended_j_rule": self.amended_j_rule,
                     "coverage": self.coverage},
            "intermediate": [ch.as_dict() for ch in self.intermediate],
            "notes": list(self.notes),
            "pass": self.overall_passed,
        }


def sandwich_check(
    witness: Witness,
    chain: SubspaceChain,
    d: ErrorSequence,
    c: float,
    tilde_a: TildeA,
    plan: IndexPlan | None = None,
    profile: SeparationProfile | None = None,
    n_rows: int | None = None,
    tol: float = REPORT_TOL,
) -> SandwichReport:
    """Fill the per-n bound table for a witness built over this chain and d.

    Rows run over the plan's coverage: the largest n any target constrains.
    Beyond it the witness has no mass outside Y_n, so a row there would be
    vacuously violated rather than meaningful; the truncation is recorded.
    With a plan and a certified profile the construction's intermediate
    inequalities at non-anchor rows are checked too; their slack, ``tol``
    plus the witness's largest relative miss of a positive target, is
    relative to the compared bound.
    """
    if witness.vector.shape != (chain.space.dim,):
        raise MismatchedInputs("witness and chain live in different spaces")
    if not witness.targets:
        raise MismatchedInputs("witness carries no targets")
    coverage = max(zj for zj, _ in witness.targets)
    limit = min(d.N, chain.horizon, coverage)
    if n_rows is None:
        n_rows = limit
    if n_rows > limit:
        raise MismatchedInputs(
            f"requested {n_rows} rows but inputs only support {limit}")

    dist_all = achieved_distances(witness, chain)
    upper_factor = min(4.0, tilde_a.value)
    rows = []
    for n in range(1, n_rows + 1):
        d_n = float(d.values[n - 1])
        achieved = float(dist_all[n - 1])
        lower = c * d_n
        upper = upper_factor * c * d_n
        konyagin = 8.0 * d_n
        passed = (lower * (1 - tol) <= achieved) and (achieved <= upper * (1 + tol))
        rows.append(SandwichRow(n, d_n, lower, achieved, upper, konyagin, passed))

    intermediate: list[IntermediateCheck] = []
    if plan is not None and not plan.stalled:
        slack = tol + max((abs(a - e) / e for a, (_, e)
                           in zip(witness.achieved, witness.targets) if e > 0),
                          default=0.0)
        anchors = plan.anchors
        for row in rows:
            n = row.n
            if n in anchors:
                continue
            below = max(i for i, av in enumerate(anchors) if av < n)
            if below + 1 >= len(anchors):
                continue  # beyond the last bracketed block
            d_anchor = float(d.values[anchors[below] - 1])
            intermediate.append(IntermediateCheck(
                n, "lower-route", c * d_anchor, row.achieved,
                row.achieved >= c * d_anchor * (1 - slack),
            ))
            if profile is not None and profile.certified:
                edge = anchors[below + 1] - 1
                a_val = profile.a_value(edge)
                bound = c / a_val ** 3 * row.d_n
                intermediate.append(IntermediateCheck(
                    n, "upper-route", row.achieved, bound,
                    row.achieved <= bound * (1 + slack),
                ))

    notes = [
        "konyagin_upper is the factor-8 guarantee of a different witness "
        "construction, shown for scale only",
        f"finite-horizon truncation: rows cover n = 1..{n_rows} "
        f"of the d horizon {d.N}",
    ]
    overall = all(r.passed for r in rows)
    return SandwichReport(rows, c, tilde_a.value, upper_factor,
                          plan.mode if plan is not None else None,
                          coverage, overall, intermediate, notes)


def write_sandwich_csv(report: SandwichReport, path) -> None:
    """Fixed column order keeps diffs stable across runs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([
                row.n, repr(row.d_n), repr(row.lower), repr(row.achieved),
                repr(row.upper), repr(row.konyagin_upper),
                "true" if row.passed else "false",
            ])


def write_json(payload: dict, path) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def rows_from_csv(path) -> list[dict]:
    """Parse a sandwich CSV back into typed dicts (for downstream checks)."""
    out = []
    with open(path, newline="") as fh:
        for record in csv.DictReader(fh):
            out.append({
                "n": int(record["n"]),
                "d_n": float(record["d_n"]),
                "lower": float(record["lower"]),
                "achieved": float(record["achieved"]),
                "upper": float(record["upper"]),
                "konyagin_upper": float(record["konyagin_upper"]),
                "pass": record["pass"] == "true",
            })
    return out
