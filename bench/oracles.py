"""Checks of each workload's report files against independent references.

The package's own verdict (``pass`` flags, exit status) is never trusted.
Each function returns ``(attempted, failed, notes)`` where one output is one
sandwich row, one demo degree row or one profile value. A row the program
should have reported but did not counts as failed.

Tolerances are relative to the quantity checked (1e-9), never absolute: the
seed's absolute ``REPORT_TOL`` is what lets ``verify-tilted`` report ``pass``
on rows whose achieved distance is far outside ``[c*d_n, upper]``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sandwich_rows(out: Path, name: str) -> tuple[dict, dict]:
    """JSON report and its rows by n, keeping only rows the CSV repeats
    digit for digit."""
    doc = _json(out / f"{name}.json")
    csv_rows = {int(r["n"]): r for r in _csv(out / f"{name}.csv")}
    rows = {}
    for row in doc["sandwich"]["rows"]:
        twin = csv_rows.get(row["n"])
        if twin is not None and float(twin["achieved"]) == row["achieved"]:
            rows[row["n"]] = row
    return doc, rows


def _count(flags, label, notes, limit=6):
    bad = [key for key, ok in flags if not ok]
    if bad:
        shown = ", ".join(str(b) for b in bad[:limit])
        more = f" (+{len(bad) - limit} more)" if len(bad) > limit else ""
        notes.append(f"{len(bad)} {label} failed: {shown}{more}")
    return len(flags), len(bad)


def check_verify_orthogonal(out: Path, cfg: dict) -> tuple[int, int, list]:
    """|achieved - c d_n| <= 1e-9 c d_n on every requested row; certified a == 1."""
    notes: list[str] = []
    doc, rows = _sandwich_rows(out, cfg["name"])
    c, ratio = cfg["c"], cfg["d"]["ratio"]
    flags = []
    for n in range(1, cfg["d"]["N"] + 1):
        target = c * ratio ** (n - 1)
        row = rows.get(n)
        flags.append((f"n={n}", row is not None
                      and abs(row["achieved"] - target) <= REL_TOL * target))
    a1, f1 = _count(flags, "sandwich rows", notes)
    profile = doc["profile"]
    flags = [(f"a_{l}", profile["certified"] and abs(a - 1.0) <= REL_TOL)
             for l, a in enumerate(profile["a"], start=1)]
    a2, f2 = _count(flags, "profile values", notes)
    return a1 + a2, f1 + f2, notes


def reference_profile(cfg: dict) -> np.ndarray:
    """a_l = min over l' >= l of sin(smallest principal angle between
    span<q_l' ...> and Y_l'), from scipy's principal-angle routine."""
    from scipy.linalg import subspace_angles

    bases = [np.asarray(b, float) for b in cfg["chain"]["bases"]]
    stair = np.asarray(cfg["chain"]["staircase"], float)
    ratios = np.array([
        np.sin(subspace_angles(bases[l].T, stair[l:].T).min())
        for l in range(len(stair))
    ])
    return np.minimum.accumulate(ratios[::-1])[::-1]


def check_verify_tilted(out: Path, cfg: dict) -> tuple[int, int, list]:
    """c d_n <= achieved <= min(4, a~) c d_n on every requested row, each side
    within a relative 1e-9; the profile against scipy's principal angles."""
    notes: list[str] = []
    doc, rows = _sandwich_rows(out, cfg["name"])
    c, ratio = cfg["c"], cfg["d"]["ratio"]
    factor = doc["sandwich"]["constants"]["upper_factor"]
    factor_ok = 1.0 <= factor <= 4.0 and factor == min(4.0, doc["tilde_a"]["value"])
    if not factor_ok:
        notes.append(f"upper factor {factor!r} is not min(4, a~)")
    flags, worst = [], 0.0
    for n in range(1, cfg["d"]["N"] + 1):
        lower = c * ratio ** (n - 1)
        upper = factor * lower
        row = rows.get(n)
        ok = (factor_ok and row is not None
              and lower * (1 - REL_TOL) <= row["achieved"] <= upper * (1 + REL_TOL))
        if row is not None:
            worst = max(worst, row["achieved"] / upper)
        flags.append((f"n={n}", ok))
    a1, f1 = _count(flags, "sandwich rows", notes)
    if f1:
        notes.append(f"largest achieved/upper {worst:.3g}")
    profile = doc["profile"]
    reference = reference_profile(cfg)
    got = np.asarray(profile["a"], float)
    if got.shape != reference.shape:
        notes.append(f"profile has {got.size} values, reference {reference.size}")
        flags = [(f"a_{l}", False) for l in range(1, reference.size + 1)]
    else:
        flags = [(f"a_{l}", profile["certified"]
                  and abs(g - r) <= REL_TOL * r)
                 for l, (g, r) in enumerate(zip(got, reference), start=1)]
    a2, f2 = _count(flags, "profile values", notes)
    return a1 + a2, f1 + f2, notes


def reference_demo(grid: int, degrees: int) -> np.ndarray:
    """Sup-norm distance from the step target to polynomials of degree < n,
    n = 1..degrees, each as one LP solved by HiGHS."""
    from scipy.optimize import linprog

    t = np.linspace(0.0, 1.0, grid)
    f = (t >= 0.5).astype(float)
    cheb = np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, degrees - 1)
    values = []
    for n in range(1, degrees + 1):
        cols = cheb[:, :n]
        ones = np.ones((grid, 1))
        a_ub = np.block([[cols, -ones], [-cols, -ones]])
        res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=np.r_[f, -f],
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference LP for degree {n}: {res.message}")
        values.append(res.fun)
    return np.array(values)


def check_demo_dense(out: Path, grid: int, degrees: int) -> tuple[int, int, list]:
    """Each degree's distance within 1e-9 of HiGHS, JSON and CSV agreeing."""
    notes: list[str] = []
    doc = _json(out / "demo-dense-step.json")
    csv_rows = {int(r["degree"]): float(r["distance"])
                for r in _csv(out / "demo-dense-step.csv")}
    rows = {r["degree"]: r for r in doc["rows"]}
    reference = reference_demo(grid, degrees)
    flags = []
    for n, ref in enumerate(reference, start=1):
        row = rows.get(n)
        flags.append((f"degree {n}", row is not None and row["certified"]
                      and csv_rows.get(n) == row["distance"]
                      and abs(row["distance"] - ref) <= REL_TOL))
    attempted, failed = _count(flags, "degree rows", notes)
    return attempted, failed, notes


def check_l1_sampled(out: Path, cfg: dict) -> tuple[int, int, list]:
    """Tail staircase is coordinate-orthogonal: a_l = 1 for l >= 2 within
    1e-9, 0 < a_1 <= 1, and the sampled profile is labelled uncertified."""
    notes: list[str] = []
    profile = _json(out / f"{cfg['name']}.analyze.json")["profile"]
    expected = len(cfg["chain"]["staircase"])
    a = list(profile["a"])
    flags = []
    for l in range(1, expected + 1):
        value = a[l - 1] if l <= len(a) else None
        ok = value is not None and not profile["certified"] and (
            0.0 < value <= 1.0 if l == 1 else abs(value - 1.0) <= REL_TOL)
        flags.append((f"a_{l}", ok))
    attempted, failed = _count(flags, "profile values", notes)
    return attempted, failed, notes


def check(workload: str, out: Path, cfg: dict | None, size: dict) -> tuple[int, int, list]:
    if workload == "verify-orthogonal":
        return check_verify_orthogonal(out, cfg)
    if workload == "verify-tilted":
        return check_verify_tilted(out, cfg)
    if workload == "demo-dense":
        return check_demo_dense(out, size["grid"], size["degrees"])
    return check_l1_sampled(out, cfg)


def nominal_outputs(workload: str, cfg: dict | None, size: dict) -> int:
    """Outputs a run is charged with when it raises or exits non-zero: the
    requested rows or degrees plus one profile value per staircase vector
    the config lists."""
    if workload == "demo-dense":
        return size["degrees"]
    profile = len(cfg["chain"].get("staircase") or ())
    return profile if workload == "l1-sampled" else cfg["d"]["N"] + profile
