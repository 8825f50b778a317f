"""Scenario configs, the end-to-end verification pipeline, and the dense-grid demo.

A scenario wires chain -> profile -> plan -> steps -> witness -> sandwich
deterministically from (config, seed). Geometric error sequences are
extended internally by a margin so the anchor recursion covers every
requested report row; the extension and all estimated quantities are
labeled in the provenance block.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .distances import distance
from .errors import (
    ConfigInvalid,
    DegreeExceedsGrid,
    NoProgress,
    NotGeometricSequence,
)
from .machinery import (
    build_index_plan,
    build_step_sequence,
    compute_tilde_a,
    verify_step_inequality,
)
from .report import sandwich_check, write_json, write_sandwich_csv
from .separation import (
    check_geometric_condition,
    check_span_ratio_condition,
    separation_profile,
)
from .spaces import (
    ErrorSequence,
    NormedSpace,
    Subspace,
    SubspaceChain,
    make_chain_from_bases,
    make_coordinate_chain,
    reject_nonfinite,
    space_from_json,
)
from .witness import witness_coordinate_exact, witness_solve

DEFAULT_MARGIN = 4
MAX_EXTENSION_ATTEMPTS = 4

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["space", "chain", "d", "c"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "space": {
            "type": "object",
            "required": ["dim", "p"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "p": {
                    "oneOf": [
                        {"type": "number", "minimum": 1},
                        {"const": "inf"},
                    ]
                },
                "weights": {
                    "oneOf": [
                        {"type": "null"},
                        {"type": "array",
                         "items": {"type": "number", "exclusiveMinimum": 0}},
                    ]
                },
            },
        },
        "chain": {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"enum": ["coordinate", "bases", "polynomial-grid"]},
                "bases": {"type": "array"},
                "staircase": {"oneOf": [{"type": "null"}, {"type": "array"}]},
                "grid": {"type": "integer", "minimum": 2},
                "max_degree": {"type": "integer", "minimum": 1},
            },
        },
        "d": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["geometric", "explicit"]},
                "ratio": {
                    "oneOf": [
                        {"type": "null"},
                        {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    ]
                },
                "values": {
                    "oneOf": [
                        {"type": "null"},
                        {"type": "array", "items": {"type": "number", "minimum": 0}},
                    ]
                },
                "N": {"type": "integer", "minimum": 1},
            },
        },
        "c": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mode": {"enum": ["literal", "strict"]},
        "estimation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sphere_samples": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "horizon_margin": {"type": "integer", "minimum": 0},
    },
}


def validate_config(config: dict) -> None:
    """Schema, finiteness and cross-field checks; failures carry the field path."""
    import jsonschema

    try:
        jsonschema.validate(config, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(part) for part in exc.absolute_path)
        raise ConfigInvalid(f"{path or '<root>'}: {exc.message}", path=path) from exc
    reject_nonfinite(config)

    d = config["d"]
    if d["kind"] == "geometric":
        if d.get("ratio") is None:
            raise ConfigInvalid("d/ratio: required for geometric sequences",
                                path="d/ratio")
        if d.get("N") is None:
            raise ConfigInvalid("d/N: required for geometric sequences", path="d/N")
    else:
        if not d.get("values"):
            raise ConfigInvalid("d/values: required for explicit sequences",
                                path="d/values")
    chain = config["chain"]
    if chain["type"] == "bases" and not chain.get("bases"):
        raise ConfigInvalid("chain/bases: required for bases chains",
                            path="chain/bases")
    if chain["type"] == "polynomial-grid":
        if chain.get("grid") is None or chain.get("max_degree") is None:
            raise ConfigInvalid(
                "chain/grid: polynomial-grid chains need grid and max_degree",
                path="chain/grid")


def _normalized(config: dict) -> dict:
    cfg = json.loads(json.dumps(config))  # deep copy, JSON-clean
    cfg.setdefault("name", "scenario")
    cfg.setdefault("mode", "strict")
    cfg["space"].setdefault("weights", None)
    cfg["d"].setdefault("ratio", None)
    cfg["d"].setdefault("values", None)
    if cfg["d"]["kind"] == "explicit":
        cfg["d"].setdefault("N", len(cfg["d"]["values"]))
    est = cfg.setdefault("estimation", {})
    est.setdefault("sphere_samples", 4096)
    est.setdefault("tol", 1e-10)
    cfg.setdefault("horizon_margin", DEFAULT_MARGIN)
    return cfg


def _error_values(cfg_d: dict, extra: int) -> np.ndarray:
    if cfg_d["kind"] == "geometric":
        n = cfg_d["N"] + extra
        return float(cfg_d["ratio"]) ** np.arange(n)
    return np.asarray(cfg_d["values"], float)


def _build_chain(space: NormedSpace, cfg_chain: dict, d_len: int) -> SubspaceChain:
    kind = cfg_chain["type"]
    if kind == "coordinate":
        n_sub = min(space.dim - 1, d_len + 1)
        return make_coordinate_chain(space, n_sub)
    if kind == "bases":
        return make_chain_from_bases(space, cfg_chain["bases"],
                                     cfg_chain.get("staircase"))
    grid = cfg_chain["grid"]
    max_degree = cfg_chain["max_degree"]
    if space.dim != grid:
        raise ConfigInvalid("space/dim: must equal the grid size for "
                            "polynomial-grid chains", path="space/dim")
    basis = _chebyshev_columns(grid, max_degree)
    bases = [basis[:, :n].T for n in range(1, max_degree + 1)]
    staircase = [basis[:, n] for n in range(1, max_degree)]
    return make_chain_from_bases(space, bases, staircase)


def _chebyshev_columns(grid: int, count: int) -> np.ndarray:
    if count >= grid:
        raise DegreeExceedsGrid(f"{count} polynomial degrees on a {grid}-point grid")
    t = np.linspace(0.0, 1.0, grid)
    return np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, count - 1)


def _finish(bundle: dict, status: str, exit_code: int, out_dir, fmt: str,
            report=None) -> dict:
    """Record the run's status and write its reports when ``out_dir`` is set."""
    bundle["status"] = status
    bundle["exit_code"] = exit_code
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = bundle["name"]
        if bundle.get("stage", "verify") != "verify":
            name = f"{name}.{bundle['stage']}"  # keep stages from clobbering verify runs
        if fmt in ("json", "both"):
            write_json(bundle, out / f"{name}.json")
        if fmt in ("csv", "both") and report is not None:
            write_sandwich_csv(report, out / f"{name}.csv")
    return bundle


def run_scenario(
    config: dict,
    seed: int = 42,
    out_dir=None,
    fmt: str = "both",
    stage: str = "verify",
    mode: str | None = None,
) -> dict:
    """Run the pipeline up to ``stage`` (analyze | plan | witness | verify).

    Deterministic given (config, seed). Returns the report bundle with a
    ``status`` and ``exit_code``: 0 pass, 2 bound violation, 4 solver or
    plan stall. Config errors raise :class:`ConfigInvalid` (exit 3 in the
    CLI). Every estimated quantity is labeled under ``provenance``.
    """
    if stage not in ("analyze", "plan", "witness", "verify"):
        raise ValueError(f"unknown stage {stage!r}")
    validate_config(config)
    cfg = _normalized(config)
    if mode is not None:
        cfg["mode"] = mode
    space = space_from_json(cfg["space"])
    if stage in ("witness", "verify") and space.p != 2.0:
        raise ConfigInvalid(
            "space/p: witness construction requires the Euclidean norm; "
            "run the analyze or plan stages instead", path="space/p")

    rows_wanted = cfg["d"]["N"]
    est = cfg["estimation"]
    extendable = cfg["d"]["kind"] == "geometric"
    margin = cfg["horizon_margin"] if extendable else 0

    chain = profile = plan = steps = None
    d_full = None
    for _ in range(MAX_EXTENSION_ATTEMPTS):
        d_full = ErrorSequence(_error_values(cfg["d"], margin), cfg["c"])
        chain = _build_chain(space, cfg["chain"], d_full.N)
        profile = separation_profile(chain, samples=est["sphere_samples"], seed=seed)
        if stage == "analyze":
            break
        plan = build_index_plan(d_full, profile, cfg["mode"])
        if plan.stalled:
            break
        steps = build_step_sequence(plan, d_full, profile, cfg["c"])
        coverage = steps.z[-1]
        if coverage >= rows_wanted or not extendable:
            break
        if d_full.N >= profile.a.size:
            break  # the chain, not d, limits the horizon; extending d is futile
        margin += 3

    bundle = {
        "name": cfg["name"],
        "seed": seed,
        "stage": stage,
        "config": cfg,
        "profile": profile.as_dict(),
        "provenance": {
            "seed": seed,
            "certified_profile": profile.certified,
            "amended_j_rule": True,
            "estimated_quantities": [] if profile.certified else
                ["separation profile (sampled, upper-bound semantics)"],
            "horizons": {
                "requested_rows": rows_wanted,
                "d_internal": d_full.N,
                "chain": chain.horizon,
            },
        },
    }
    if extendable and d_full.N != rows_wanted:
        bundle["provenance"]["estimated_quantities"].append(
            f"d extended internally from {rows_wanted} to {d_full.N} values "
            "(geometric formula) so the plan covers every reported row")

    if stage == "analyze":
        # the geometric-tail checks describe the alternative existence route
        # and are informational; the span-ratio condition is the hypothesis
        # the step construction actually relies on, so it gates the status
        reports = {
            "geometric_truncated": check_geometric_condition(
                d_full, "truncated").as_dict(),
        }
        try:
            reports["geometric_idealized"] = check_geometric_condition(
                d_full, "idealized-geometric").as_dict()
        except NotGeometricSequence:
            pass
        span = check_span_ratio_condition(chain, d_full, profile)
        reports["span_ratio"] = span.as_dict()
        reports["uniform_separation"] = {
            "min_a": float(profile.a.min()),
            "positive": bool(profile.a.min() > 1e-12),
        }
        bundle["conditions"] = reports
        passed = span.passed and reports["uniform_separation"]["positive"]
        return _finish(bundle, "pass" if passed else "condition-failure",
                       0 if passed else 2, out_dir, fmt)

    bundle["plan"] = plan.as_dict()
    if plan.stalled:
        bundle["provenance"]["note"] = (
            "literal-mode recursion repeated an anchor; no witness was built")
        return _finish(bundle, "stalled", 4, out_dir, fmt)

    tilde = compute_tilde_a([(plan, profile)])
    bundle["steps"] = steps.as_dict()
    bundle["step_checks"] = [ch.as_dict() for ch in verify_step_inequality(steps, profile)]
    bundle["tilde_a"] = tilde.as_dict()
    if stage == "plan":
        return _finish(bundle, "pass", 0, out_dir, fmt)

    orthogonal = (
        cfg["chain"]["type"] == "coordinate"
        and not space.weighted
        and profile.certified
        and bool(np.all(profile.a == 1.0))
        and chain.horizon >= rows_wanted
        and space.dim > rows_wanted
    )
    if orthogonal:
        wit = witness_coordinate_exact(
            ErrorSequence(d_full.values[:rows_wanted]), cfg["c"], space.dim)
    else:
        try:
            wit = witness_solve(chain, list(zip(steps.z, steps.e)), tol=est["tol"])
        except NoProgress as exc:
            bundle["witness"] = None if exc.witness is None else exc.witness.as_dict()
            bundle["provenance"]["note"] = str(exc)
            return _finish(bundle, "no-progress", 4, out_dir, fmt)
    bundle["witness"] = wit.as_dict()
    bundle["provenance"]["solver_methods"] = [wit.method]
    if not wit.converged:
        bundle["provenance"]["estimated_quantities"].append(
            "witness residual above acceptance threshold")
    if stage == "witness":
        return _finish(bundle, "pass" if wit.converged else "unconverged",
                       0 if wit.converged else 4, out_dir, fmt)

    coverage = max(zj for zj, _ in wit.targets)
    n_rows = min(rows_wanted, coverage, chain.horizon, d_full.N)
    report = sandwich_check(wit, chain, d_full, cfg["c"], tilde,
                            plan=plan, profile=profile, n_rows=n_rows)
    bundle["sandwich"] = report.as_dict()
    bundle["provenance"]["horizons"]["coverage"] = coverage
    bundle["provenance"]["horizons"]["reported_rows"] = n_rows
    status = "pass" if report.overall_passed else "bound-violation"
    return _finish(bundle, status, 0 if report.overall_passed else 2, out_dir, fmt,
                   report)


# ---------------------------------------------------------------------------
# Bundled and randomized scenario configs
# ---------------------------------------------------------------------------

def orthogonal_geometric_config(rows: int = 12, dim: int = 16, ratio: float = 0.5,
                                c: float = 1.0) -> dict:
    return {
        "name": "orthogonal-geometric",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "coordinate"},
        "d": {"kind": "geometric", "ratio": ratio, "values": None, "N": rows},
        "c": c,
        "mode": "strict",
    }


def _tilted_frame(dim: int, n_sub: int, tilts: dict[int, float]) -> tuple[list, list]:
    """Identity-frame chain with staircase vectors tilted into Y_1.

    Tilting q_k by tau along the first frame direction keeps the component
    outside every Y_l orthonormal across k, so the separation values have a
    closed form: a_n = (1 + sum_{k >= n} tau_k^2)^(-1/2).
    """
    eye = np.eye(dim)
    bases = [eye[:k].tolist() for k in range(1, n_sub + 1)]
    staircase = []
    for k in range(1, n_sub):
        q = eye[k] + tilts.get(k, 0.0) * eye[0]
        staircase.append((q / np.linalg.norm(q)).tolist())
    return bases, staircase


def tilted_chain_config(rows: int = 10, dim: int = 16, ratio: float = 0.5,
                        c: float = 1.0) -> dict:
    n_sub = dim - 2
    bases, staircase = _tilted_frame(dim, n_sub, {1: 1.0})
    return {
        "name": "tilted-chain",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {"kind": "geometric", "ratio": ratio, "values": None, "N": rows},
        "c": c,
        "mode": "strict",
    }


def bundled_scenarios() -> dict[str, dict]:
    return {
        "orthogonal-geometric": orthogonal_geometric_config(),
        "tilted-chain": tilted_chain_config(),
    }


def random_tilted_config(seed: int, rows: int = 8, dim: int | None = None) -> dict:
    """Randomized Euclidean chain with certified separation bounded away
    from both 1 and the sandwich-critical value 4^(-1/3)."""
    rng = np.random.default_rng([913, seed])
    n_sub = rows + 6
    if dim is None:
        dim = n_sub + 2
    gauss = rng.normal(size=(dim, dim))
    qmat, rmat = np.linalg.qr(gauss)
    qmat = qmat * np.sign(np.diag(rmat))
    frame = qmat.T

    n_tilt = int(rng.integers(1, 4))
    positions = rng.choice(np.arange(1, n_sub - 1), size=n_tilt, replace=False)
    raw = rng.uniform(0.3, 0.8, size=n_tilt)
    total = float(np.sum(raw ** 2))
    cap = 0.7
    if total > cap:
        raw *= math.sqrt(cap / total)
    tilts = {int(pos): float(tau) for pos, tau in zip(positions, raw)}

    bases = [frame[:k].tolist() for k in range(1, n_sub + 1)]
    staircase = []
    for k in range(1, n_sub):
        q = frame[k] + tilts.get(k, 0.0) * frame[0]
        staircase.append((q / np.linalg.norm(q)).tolist())

    return {
        "name": f"random-tilted-{seed:03d}",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {
            "kind": "geometric",
            "ratio": float(rng.uniform(0.5, 0.68)),
            "values": None,
            "N": rows,
        },
        "c": float(rng.choice([1.0, 0.5, 0.1])),
        "mode": "strict",
    }


# ---------------------------------------------------------------------------
# Dense-grid demo: sup-norm distances to polynomial subspaces
# ---------------------------------------------------------------------------

# The smooth default sits off-center: a symmetric bump would make odd-degree
# terms useless and flatten consecutive distances into equal pairs.
DEMO_TARGETS = {
    "step": lambda t: (t >= 0.5).astype(float),
    "runge": lambda t: 1.0 / (1.0 + 25.0 * (t - 0.3) ** 2),
    "exp": np.exp,
}

DEMO_LABEL = (
    "finite-resolution illustration: on a finite grid polynomial density "
    "eventually wins, so a plateau is only demonstrated over the declared "
    "degree range"
)


def demo_dense_chain(grid: int = 257, degrees: int = 12, target: str = "step",
                     out_dir=None, fmt: str = "both") -> dict:
    """Sup-norm distances from a sampled target to polynomial subspaces.

    Y_n holds polynomials of degree < n evaluated on a uniform grid of
    [0, 1] (Chebyshev-basis columns for conditioning). The step target keeps
    a positive plateau over the declared degrees; smooth targets decay.
    """
    if target not in DEMO_TARGETS:
        raise ValueError(f"unknown target {target!r}; "
                         f"choose from {sorted(DEMO_TARGETS)}")
    if degrees < 1 or degrees >= grid:
        raise DegreeExceedsGrid(f"degrees 1..{degrees} on a {grid}-point grid")
    t = np.linspace(0.0, 1.0, grid)
    columns = _chebyshev_columns(grid, degrees)
    f = DEMO_TARGETS[target](t)
    space = NormedSpace(grid, math.inf)
    rows = []
    for n in range(1, degrees + 1):
        res = distance(space, f, Subspace(columns[:, :n].T))
        rows.append({"degree": n, "distance": res.value, "certified": res.certified})
    payload = {
        "name": f"demo-dense-{target}",
        "demo": "dense-grid",
        "target": target,
        "grid": grid,
        "degrees": degrees,
        "label": DEMO_LABEL,
        "rows": rows,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if fmt in ("json", "both"):
            write_json(payload, out / f"{payload['name']}.json")
        if fmt in ("csv", "both"):
            import csv as _csv

            with open(out / f"{payload['name']}.csv", "w", newline="") as fh:
                writer = _csv.writer(fh)
                writer.writerow(["degree", "distance", "certified"])
                for row in rows:
                    writer.writerow([row["degree"], repr(row["distance"]),
                                     "true" if row["certified"] else "false"])
    return payload
