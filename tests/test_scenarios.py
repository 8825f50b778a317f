import json
import math

import numpy as np
import pytest

from lethargy_lab import (
    ConfigInvalid,
    DegreeExceedsGrid,
    NormedSpace,
    Subspace,
    distance,
    make_coordinate_chain,
)
from lethargy_lab import separation
from lethargy_lab.cli import main
from lethargy_lab.scenarios import (
    _chebyshev_columns,
    _tilted_frame,
    bundled_scenarios,
    demo_dense_chain,
    orthogonal_geometric_config,
    random_tilted_config,
    run_scenario,
    tilted_chain_config,
    validate_config,
)


def test_orthogonal_geometric_scenario_collapses():
    bundle = run_scenario(orthogonal_geometric_config(), seed=42)
    assert bundle["status"] == "pass"
    assert bundle["exit_code"] == 0
    assert bundle["tilde_a"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert bundle["witness"]["method"] == "telescoping-exact"
    rows = bundle["sandwich"]["rows"]
    assert len(rows) == 12
    for row in rows:
        assert row["lower"] == pytest.approx(row["achieved"], abs=1e-9)
        assert row["upper"] == pytest.approx(row["lower"], abs=1e-15)


def test_tilted_scenario_constant_and_bounds():
    bundle = run_scenario(tilted_chain_config(), seed=42)
    assert bundle["status"] == "pass"
    assert bundle["tilde_a"]["value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    for row in bundle["sandwich"]["rows"]:
        assert row["lower"] - 1e-9 <= row["achieved"] <= row["upper"] + 1e-9


def test_literal_mode_surfaces_stall_without_witness():
    bundle = run_scenario(orthogonal_geometric_config(), seed=42, mode="literal")
    assert bundle["status"] == "stalled"
    assert bundle["exit_code"] == 4
    assert bundle["plan"]["stalled"]
    assert "witness" not in bundle


def test_analyze_stage_reports_conditions():
    bundle = run_scenario(orthogonal_geometric_config(), seed=42, stage="analyze")
    conditions = bundle["conditions"]
    assert conditions["geometric_truncated"]["pass"]
    assert not conditions["geometric_idealized"]["pass"]  # ratio 1/2
    assert conditions["span_ratio"]["pass"]
    assert conditions["uniform_separation"]["positive"]
    # the geometric checks are informational; span-ratio gates the status
    assert bundle["status"] == "pass"


def test_analyze_fails_on_a_sampled_ratio_of_the_profile():
    # the profile's l^1 ratio at level 2 (a_2 = 0.50004) is below d_2/d_1 = 0.55
    bases, staircase = _tilted_frame(8, 6, {2: 1.0, 3: 0.5})
    cfg = {
        "space": {"dim": 8, "p": 1},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {"kind": "geometric", "ratio": 0.55, "N": 4},
        "c": 1.0,
        "estimation": {"sphere_samples": 512},
    }
    bundle = run_scenario(cfg, seed=1, stage="analyze")
    assert bundle["status"] == "condition-failure" and bundle["exit_code"] == 2
    span = bundle["conditions"]["span_ratio"]
    assert [f["index"] for f in span["failures"]] == [2]
    assert span["margin"] < 0


def test_plan_stage_stops_before_witness():
    bundle = run_scenario(orthogonal_geometric_config(), seed=42, stage="plan")
    assert "witness" not in bundle
    assert bundle["steps"]["z"][0] == 1
    assert all(ch["pass"] for ch in bundle["step_checks"])


def test_witness_stage_stops_before_sandwich(tmp_path):
    bundle = run_scenario(tilted_chain_config(), seed=42, stage="witness",
                          out_dir=tmp_path)
    assert bundle["status"] == "pass"
    assert bundle["witness"]["converged"]
    assert "sandwich" not in bundle
    assert (tmp_path / "tilted-chain.witness.json").exists()


def test_randomized_family_covers_requested_rows():
    for seed in (0, 5, 11):
        cfg = random_tilted_config(seed)
        bundle = run_scenario(cfg, seed=42)
        assert bundle["status"] == "pass"
        assert len(bundle["sandwich"]["rows"]) == cfg["d"]["N"]
        assert bundle["witness"]["method"] == "damped-iteration"


def test_run_is_deterministic(tmp_path):
    cfg = random_tilted_config(4)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_scenario(cfg, seed=42, out_dir=a_dir)
    run_scenario(cfg, seed=42, out_dir=b_dir)
    name = cfg["name"]
    assert (a_dir / f"{name}.json").read_bytes() == (b_dir / f"{name}.json").read_bytes()
    assert (a_dir / f"{name}.csv").read_bytes() == (b_dir / f"{name}.csv").read_bytes()


def test_config_validation_paths():
    with pytest.raises(ConfigInvalid) as excinfo:
        validate_config({"space": {"dim": 4, "p": 2}, "chain": {"type": "coordinate"},
                         "d": {"kind": "geometric", "N": 4}, "c": 1.0})
    assert excinfo.value.path == "d/ratio"

    with pytest.raises(ConfigInvalid):
        validate_config({"space": {"dim": 0, "p": 2}, "chain": {"type": "coordinate"},
                         "d": {"kind": "geometric", "ratio": 0.5, "N": 4}, "c": 1.0})

    with pytest.raises(ConfigInvalid) as excinfo:
        validate_config({"space": {"dim": 4, "p": 2}, "chain": {"type": "bases"},
                         "d": {"kind": "explicit", "values": [1.0, 0.5]}, "c": 1.0})
    assert excinfo.value.path == "chain/bases"

    cfg = orthogonal_geometric_config()
    cfg["c"] = 1.5
    with pytest.raises(ConfigInvalid):
        validate_config(cfg)

    cfg = orthogonal_geometric_config()
    cfg["estimation"] = {"descent_iters": 10_000}  # removed: nothing read it
    with pytest.raises(ConfigInvalid) as excinfo:
        validate_config(cfg)
    assert excinfo.value.path == "estimation"


# Each of these passed the JSON schema, whose bounds are false for NaN, and
# then crashed, misreported a dependent basis or ran to a bogus verdict.
NON_FINITE = [  # (field path, value put there)
    ("chain/staircase/0/1", math.nan),
    ("chain/bases/2/0/0", math.inf),
    ("chain/bases/1/1/2", None),  # loads as NaN
    ("space/weights/3", math.nan),
    ("c", math.nan),
    ("d/ratio", math.nan),
    ("d/values/2", math.nan),
]


@pytest.mark.parametrize("path, value", NON_FINITE, ids=[p for p, _ in NON_FINITE])
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, path, value):
    cfg = tilted_chain_config(rows=4, dim=8)
    cfg["space"]["weights"] = [1.0] * 8
    if path.startswith("d/values"):
        cfg["d"] = {"kind": "explicit", "values": [1.0, 0.5, 0.25, 0.125]}
    validate_config(cfg)
    *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ConfigInvalid) as excinfo:
        validate_config(cfg)
    assert excinfo.value.path == path

    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))  # json writes NaN and Infinity literals
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("tilted-chain*"))


def test_each_subspace_is_orthonormalised_once(monkeypatch):
    calls = {"svd": 0, "levels": 0}
    real_svd, real_ratio = np.linalg.svd, separation._exact_ratio

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return real_svd(*args, **kwargs)

    def counting_ratio(*args, **kwargs):
        calls["levels"] += 1
        return real_ratio(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # matrix_rank looks svd up in the globals of its own module
    rank = getattr(np.linalg.matrix_rank, "__wrapped__", np.linalg.matrix_rank)
    monkeypatch.setitem(rank.__globals__, "svd", counting_svd)
    monkeypatch.setattr(separation, "_exact_ratio", counting_ratio)

    # coordinate subspaces come with their frame; distances only read it
    dim = 48
    space = NormedSpace(dim, 2.0)
    chain = make_coordinate_chain(space, 41)
    x = np.linspace(-1.0, 1.0, dim)
    for sub in chain.subspaces:
        distance(space, x, sub)
    assert calls["svd"] == 0

    # a weighted frame is factored once per subspace and then reused
    w = np.linspace(1.0, 2.0, dim)
    weighted = NormedSpace(dim, 2.0, w)
    for _ in range(2):
        for sub in chain.subspaces:
            distance(weighted, x, sub)
    assert calls["svd"] == len(chain.subspaces)
    sub = chain.subspaces[5]
    assert sub.orthonormal_basis(w.copy()) is sub.orthonormal_basis(w)

    # verify: a span frame and the cross-Gram SVD per separation level, no more
    calls["svd"] = 0
    bundle = run_scenario(orthogonal_geometric_config(rows=40, dim=dim))
    assert bundle["status"] == "pass"
    assert calls["levels"] >= 40
    assert calls["svd"] <= 2 * calls["levels"]


def test_witness_stage_requires_euclidean_norm():
    cfg = orthogonal_geometric_config(rows=4, dim=8)
    cfg["space"]["p"] = "inf"
    with pytest.raises(ConfigInvalid):
        run_scenario(cfg, stage="verify")
    # analyze still works for non-Euclidean norms (estimated profile)
    cfg["estimation"] = {"sphere_samples": 64}
    cfg["horizon_margin"] = 0
    bundle = run_scenario(cfg, stage="analyze")
    assert not bundle["profile"]["certified"]


def test_weighted_euclidean_scenario():
    cfg = {
        "name": "weighted-orthogonal",
        "space": {"dim": 12, "p": 2, "weights": [1.0 + 0.3 * i for i in range(12)]},
        "chain": {"type": "coordinate"},
        "d": {"kind": "geometric", "ratio": 0.5, "values": None, "N": 8},
        "c": 0.5,
    }
    bundle = run_scenario(cfg, seed=42)
    assert bundle["status"] == "pass"
    # weights keep the chain orthogonal in the scaled frame, so the damped
    # iteration starts exact and the sandwich still collapses
    assert bundle["witness"]["method"] == "damped-iteration"
    for row in bundle["sandwich"]["rows"]:
        assert abs(row["achieved"] - row["lower"]) <= 1e-9


def test_literal_mode_full_pipeline_on_tilted_chain():
    from lethargy_lab.scenarios import _tilted_frame

    dim = 14
    bases, staircase = _tilted_frame(dim, dim - 2, {k: 0.25 for k in range(1, dim - 2)})
    cfg = {
        "name": "literal-tilted",
        "space": {"dim": dim, "p": 2, "weights": None},
        "chain": {"type": "bases", "bases": bases, "staircase": staircase},
        "d": {"kind": "geometric", "ratio": 0.35, "values": None, "N": 6},
        "c": 1.0,
        "mode": "literal",
    }
    bundle = run_scenario(cfg, seed=42)
    assert bundle["status"] == "pass"
    assert bundle["plan"]["mode"] == "literal"
    assert not bundle["plan"]["stalled"]


def test_trailing_zero_errors_covered_exactly():
    cfg = {
        "name": "trailing-zero",
        "space": {"dim": 10, "p": 2, "weights": None},
        "chain": {"type": "coordinate"},
        "d": {"kind": "explicit", "ratio": None,
              "values": [1.0, 0.5, 0.25, 0.0, 0.0], "N": 5},
        "c": 1.0,
    }
    bundle = run_scenario(cfg, seed=42)
    assert bundle["status"] == "pass"
    rows = bundle["sandwich"]["rows"]
    assert len(rows) == 5
    assert rows[3]["achieved"] == pytest.approx(0.0, abs=1e-12)


def test_explicit_d_values_accepted():
    cfg = orthogonal_geometric_config()
    cfg["d"] = {"kind": "explicit", "values": [1.0, 0.5, 0.25, 0.1], "N": 4}
    bundle = run_scenario(cfg, seed=42)
    assert bundle["status"] == "pass"
    # explicit sequences cannot be extended: rows stop at the plan's coverage
    assert len(bundle["sandwich"]["rows"]) <= 4


def test_polynomial_grid_chain_type():
    cfg = {
        "name": "poly-grid-smoke",
        "space": {"dim": 17, "p": "inf", "weights": None},
        "chain": {"type": "polynomial-grid", "grid": 17, "max_degree": 4},
        "d": {"kind": "explicit", "values": [1.0, 0.5, 0.25, 0.1], "N": 4},
        "c": 1.0,
        "estimation": {"sphere_samples": 32},
    }
    bundle = run_scenario(cfg, stage="analyze")
    assert bundle["profile"]["certified"] is False
    assert len(bundle["profile"]["a"]) == 3


def test_demo_membership_of_polynomial_target():
    # a sampled quadratic lies in Y_3, so its distance vanishes from degree 3 on
    grid = 65
    columns = _chebyshev_columns(grid, 6)
    t = np.linspace(0.0, 1.0, grid)
    f = (2.0 * t - 1.0) ** 2
    space = NormedSpace(grid, math.inf)
    values = [distance(space, f, Subspace(columns[:, :n].T)).value
              for n in range(1, 7)]
    assert values[0] > 0.1
    for v in values[2:]:
        assert v <= 1e-9


def test_demo_small_grid_smoke(tmp_path):
    payload = demo_dense_chain(grid=65, degrees=5, target="step",
                               out_dir=tmp_path, fmt="both")
    assert (tmp_path / "demo-dense-step.csv").exists()
    assert (tmp_path / "demo-dense-step.json").exists()
    vals = [row["distance"] for row in payload["rows"]]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.3  # plateau from the jump


def test_demo_exp_decays_fast():
    # entire target: roughly factorial decay while the values stay above
    # the solver's numerical floor (deeper degrees flatten into roundoff)
    payload = demo_dense_chain(grid=65, degrees=6, target="exp")
    vals = [row["distance"] for row in payload["rows"]]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.5 and vals[-1] < 1e-5


def test_demo_rejects_degree_overflow():
    with pytest.raises(DegreeExceedsGrid):
        demo_dense_chain(grid=8, degrees=8)


def test_bundled_names():
    assert set(bundled_scenarios()) == {"orthogonal-geometric", "tilted-chain"}


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(orthogonal_geometric_config()))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "orthogonal-geometric.json").exists()
    assert (tmp_path / "orthogonal-geometric.csv").exists()

    assert main(["verify", "--config", str(cfg_path), "--mode", "literal"]) == 4
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 3

    bad = orthogonal_geometric_config()
    bad["c"] = 2.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["verify", "--config", str(bad_path)]) == 3

    assert main(["analyze", "--config", "tilted-chain"]) == 0
    assert main(["demo-dense", "--grid", "33", "--degrees", "4",
                 "--target", "step", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo-dense-step.csv").exists()
