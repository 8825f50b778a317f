"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest -q bench/test_bench.py

They start the benchmark as a separate process, the way it is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, l1_config, orthogonal_config, tilted_config  # noqa: E402

# counts that must repeat exactly between two traced passes on one seed
REPEATING = ("spaces.svd.calls", "simplex.pivots", "distances.lp.calls",
             "separation.sampled.distance_calls")


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_match_the_package_generators():
    from lethargy_lab.scenarios import (
        orthogonal_geometric_config,
        random_tilted_config,
        tilted_chain_config,
    )

    assert orthogonal_config(200, 210) == orthogonal_geometric_config(rows=200, dim=210)
    for seed in (1, 2, 7):
        assert tilted_config(seed, 96) == random_tilted_config(seed, rows=96)
    for dim in (8, 16):
        expected = tilted_chain_config(dim=dim)
        expected["space"]["p"] = 1
        expected["estimation"] = {"sphere_samples": 256}
        assert l1_config(256, dim) == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_every_layer_is_reached(name):
    passes = []
    for _ in range(2):
        line = _last_json(_bench("--workload", name, "--seed", "3", "--smoke",
                                 "--seconds", "0", "--trace", "1"))
        with open(HERE / "_work" / f"{name}-seed3.spans.json") as fh:
            passes.append((line, json.load(fh)))
    (line, first), (_, second) = passes
    assert line["correct"] and line["attempted"] > 0
    for key in REPEATING:
        assert first["layers"][key] == second["layers"][key], key
    assert first["report_bytes"] == second["report_bytes"]
    assert first["layers"]["trace.counts_repeat"]
    calls = first["layers"]["calls"]
    missing = [span for span in WORKLOADS[name].reaches if not calls.get(span)]
    assert not missing, f"{name} never entered {missing}"
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(line["metrics"]) == listed


def test_untraced_line_has_every_end_to_end_metric():
    line = _last_json(_bench("--workload", "demo-dense", "--smoke", "--seconds", "0"))
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", "demo-dense", "--smoke", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
