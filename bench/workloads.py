"""The benchmark's four workloads: inputs made from a seed, argv, reach sets.

Each workload is one ``lethargy_lab.cli.main(argv)`` call. Configs are built
here, not by the package's own ``*_config`` helpers, so that a change to
those helpers cannot silently change what the benchmark measures; the
smoke test checks that both still agree at the commit being measured.

Why each workload exists, which layers it exercises and which it bypasses,
is recorded in ``bench/README.md`` and, in one line each, in BENCHMARK.json
for the three it lists (not ``verify-tilted``, on which the program fails).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
# A change that claims a gain is worked out on DEFAULT_SEED; it must hold here too.
HOLDOUT_SEED = 2


def orthogonal_config(rows: int, dim: int) -> dict:
    """Coordinate chain with d_n = 0.5^(n-1); same as the package's
    ``orthogonal_geometric_config(rows, dim)``."""
    return {
        "name": "orthogonal-geometric",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "coordinate"},
        "d": {"kind": "geometric", "ratio": 0.5, "values": None, "N": rows},
        "c": 1.0,
        "mode": "strict",
    }


def _tilted_bases(frame: np.ndarray, n_sub: int, tilts: dict) -> tuple[list, list]:
    bases = [frame[:k].tolist() for k in range(1, n_sub + 1)]
    staircase = []
    for k in range(1, n_sub):
        q = frame[k] + tilts.get(k, 0.0) * frame[0]
        staircase.append((q / np.linalg.norm(q)).tolist())
    return bases, staircase


def tilted_config(seed: int, rows: int) -> dict:
    """Random orthonormal frame with 1-3 staircase vectors tilted into Y_1;
    same as the package's ``random_tilted_config(seed, rows)``. Every level
    repeats the lower basis, so the file grows as O(rows^2 * dim)."""
    rng = np.random.default_rng([913, seed])
    n_sub = rows + 6
    dim = n_sub + 2
    qmat, rmat = np.linalg.qr(rng.normal(size=(dim, dim)))
    frame = (qmat * np.sign(np.diag(rmat))).T
    n_tilt = int(rng.integers(1, 4))
    positions = rng.choice(np.arange(1, n_sub - 1), size=n_tilt, replace=False)
    raw = rng.uniform(0.3, 0.8, size=n_tilt)
    total = float(np.sum(raw ** 2))
    if total > 0.7:
        raw *= math.sqrt(0.7 / total)
    tilts = {int(pos): float(tau) for pos, tau in zip(positions, raw)}
    bases, staircase = _tilted_bases(frame, n_sub, tilts)
    return {
        "name": f"random-tilted-{seed:03d}",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {"kind": "geometric", "ratio": float(rng.uniform(0.5, 0.68)),
              "values": None, "N": rows},
        "c": float(rng.choice([1.0, 0.5, 0.1])),
        "mode": "strict",
    }


def l1_config(samples: int, dim: int) -> dict:
    """The package's ``tilted_chain_config(dim=dim)`` under the l^1 norm with
    ``samples`` Sobol directions per sampled ratio."""
    bases, staircase = _tilted_bases(np.eye(dim), dim - 2, {1: 1.0})
    return {
        "name": "tilted-chain",
        "space": {"dim": dim, "p": 1, "weights": None},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {"kind": "geometric", "ratio": 0.5, "values": None, "N": 10},
        "c": 1.0,
        "mode": "strict",
        "estimation": {"sphere_samples": samples},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # (seed, size) -> config; None for demo-dense, which takes argv only
    make_config: Callable[[int, dict], dict] | None
    # modules the program imports on first use; set-up imports them so the
    # timed runs do not pay for them
    lazy_imports: tuple[str, ...]
    # traced spans every run of this workload must enter
    reaches: tuple[str, ...]
    # input sizes: the measured run, the smoke run, the untimed warm-up. The
    # verify workloads warm up at full size: their first full run grows the
    # heap by ~100 MB and reads 10-30% slower than the runs after it.
    sizes: dict
    smoke_sizes: dict
    warm_sizes: dict

    def write_inputs(self, seed: int, size: dict, directory: Path,
                     tag: str = "config") -> tuple[dict | None, list[str]]:
        """Write the config (if any) and return it with the argv that reads it."""
        if self.make_config is None:
            return None, [self.command, "--grid", str(size["grid"]),
                          "--degrees", str(size["degrees"]), "--target", "step"]
        cfg = self.make_config(seed, size)
        path = directory / f"{tag}.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return cfg, [self.command, "--config", str(path), "--seed", str(seed)]


_VERIFY_REACHES = (
    "cli.main", "cli.load_config", "scenarios.run", "scenarios.validate",
    "scenarios.normalize", "scenarios.chain_build", "spaces.subspace_new",
    "spaces.orthonormal_rows", "distances.distance", "distances.projection",
    "separation.profile", "separation.exact_ratio", "machinery.plan",
    "machinery.steps", "machinery.tilde_a", "machinery.step_checks",
    "witness.achieved", "report.sandwich", "report.write_json",
    "report.write_csv",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-orthogonal", "verify",
            lambda seed, size: orthogonal_config(size["rows"], size["dim"]),
            ("jsonschema",),
            _VERIFY_REACHES + ("witness.exact",),
            {"rows": 200, "dim": 210}, {"rows": 20, "dim": 24},
            {"rows": 200, "dim": 210}),
        Workload(
            "verify-tilted", "verify",
            lambda seed, size: tilted_config(seed, size["rows"]),
            ("jsonschema", "scipy.linalg"),
            _VERIFY_REACHES + ("witness.solve",),
            {"rows": 96}, {"rows": 12}, {"rows": 96}),
        Workload(
            "demo-dense", "demo-dense", None, (),
            ("cli.main", "scenarios.demo", "spaces.subspace_new",
             "distances.distance", "distances.lp", "simplex.solve",
             "report.write_json"),
            {"grid": 129, "degrees": 12}, {"grid": 65, "degrees": 6},
            {"grid": 33, "degrees": 4}),
        Workload(
            "l1-sampled", "analyze",
            lambda seed, size: l1_config(size["samples"], size["dim"]),
            ("jsonschema", "scipy.stats", "scipy.stats.qmc", "scipy.optimize"),
            ("cli.main", "cli.load_config", "scenarios.run", "scenarios.validate",
             "scenarios.normalize", "scenarios.chain_build",
             "spaces.subspace_new", "spaces.orthonormal_rows",
             "distances.distance", "distances.lp", "simplex.solve",
             "separation.profile", "separation.sampled_ratio",
             "separation.span_check", "report.write_json"),
            {"samples": 64, "dim": 16}, {"samples": 16, "dim": 8},
            {"samples": 8, "dim": 6}),
    )
}
