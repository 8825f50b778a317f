import numpy as np
import pytest

from lethargy_lab import (
    ErrorSequence,
    HorizonTooLarge,
    NoProgress,
    NormedSpace,
    TargetsNotMonotonic,
    achieved_distances,
    build_index_plan,
    build_step_sequence,
    make_chain_from_bases,
    make_coordinate_chain,
    run_scenario,
    separation_profile,
    witness_coordinate_exact,
    witness_solve,
)
from lethargy_lab.scenarios import _tilted_frame, random_tilted_config, tilted_chain_config

SQRT3 = np.sqrt(3.0)


def test_telescoping_coefficients_by_hand():
    d = ErrorSequence(np.array([1.0, 0.5, 0.25]))
    wit = witness_coordinate_exact(d, 1.0, dim=5)
    np.testing.assert_allclose(
        wit.coefficients, [SQRT3 / 2, SQRT3 / 4, 0.25], atol=1e-12
    )
    np.testing.assert_allclose(wit.achieved, [1.0, 0.5, 0.25], atol=1e-12)
    assert wit.residual <= 1e-12
    assert wit.method == "telescoping-exact"


def test_constant_d_puts_mass_on_last_direction():
    d = ErrorSequence(np.ones(3))
    wit = witness_coordinate_exact(d, 1.0, dim=5)
    np.testing.assert_allclose(wit.coefficients, [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(wit.achieved, [1.0, 1.0, 1.0], atol=1e-12)


def test_homogeneity_in_c():
    d = ErrorSequence(np.array([1.0, 0.7, 0.4, 0.1]))
    full = witness_coordinate_exact(d, 1.0, dim=6)
    half = witness_coordinate_exact(d, 0.5, dim=6)
    np.testing.assert_allclose(half.coefficients, 0.5 * full.coefficients, atol=1e-12)
    np.testing.assert_allclose(half.achieved, 0.5 * np.asarray(full.achieved),
                               atol=1e-12)


def test_dimension_guard():
    d = ErrorSequence(np.array([1.0, 0.5, 0.25]))
    with pytest.raises(HorizonTooLarge):
        witness_coordinate_exact(d, 1.0, dim=3)


def test_trailing_zeros_zero_out_late_coefficients():
    d = ErrorSequence(np.array([1.0, 0.5, 0.0, 0.0]))
    wit = witness_coordinate_exact(d, 1.0, dim=6)
    np.testing.assert_allclose(wit.coefficients[2:], 0.0, atol=1e-15)
    np.testing.assert_allclose(wit.achieved, [1.0, 0.5, 0.0, 0.0], atol=1e-12)


def test_tiny_d_keeps_every_coefficient():
    # d_n = 0.5^(n-1) reaches 1.7e-180 at n = 600, where d_n^2 underflows;
    # each achieved distance must still hit its target to a relative 1e-12
    d = ErrorSequence(0.5 ** np.arange(600))
    wit = witness_coordinate_exact(d, 1.0, dim=610)
    assert np.all(wit.coefficients > 0)
    targets = np.array([t for _, t in wit.targets])
    np.testing.assert_allclose(wit.achieved, targets, rtol=1e-12, atol=0)


def test_achieved_match_independent_recomputation():
    d = ErrorSequence(np.array([0.9, 0.6, 0.3, 0.05]))
    wit = witness_coordinate_exact(d, 0.5, dim=6)
    chain = make_coordinate_chain(NormedSpace(6, 2.0), 4)
    recomputed = achieved_distances(wit, chain)
    np.testing.assert_allclose(recomputed, wit.achieved, atol=1e-9)
    # distances along the full chain are non-increasing
    assert np.all(recomputed[:-1] >= recomputed[1:] - 1e-12)


def test_solve_matches_telescoping_on_orthogonal_chain():
    space = NormedSpace(6, 2.0)
    chain = make_coordinate_chain(space, 5)
    d = ErrorSequence(np.array([1.0, 0.6, 0.35, 0.2]))
    exact = witness_coordinate_exact(d, 1.0, dim=6)
    targets = [(k, float(d.values[k - 1])) for k in range(1, 5)]
    solved = witness_solve(chain, targets)
    np.testing.assert_allclose(solved.coefficients[:4], exact.coefficients,
                               atol=1e-14)
    assert solved.residual <= 1e-9
    assert solved.method == "anchor-recurrence"
    assert solved.converged


def test_solve_tilted_chain_example():
    # q_1 = (1,1,0)/|.|, q_2 = e3, targets (0.8, 0.3)
    space = NormedSpace(3, 2.0)
    eye = np.eye(3)
    q1 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    chain = make_chain_from_bases(space, [eye[:1], eye[:2], eye[:3]], [q1, eye[2]])
    wit = witness_solve(chain, [(1, 0.8), (2, 0.3)])
    assert wit.residual <= 1e-8
    np.testing.assert_allclose(wit.achieved, [0.8, 0.3], atol=1e-8)
    # independent verification through the projection path
    recomputed = achieved_distances(wit, chain)
    np.testing.assert_allclose(recomputed[:2], [0.8, 0.3], atol=1e-8)


def test_solve_single_target_scales_a_unit_direction():
    space = NormedSpace(4, 2.0)
    chain = make_coordinate_chain(space, 3)
    wit = witness_solve(chain, [(1, 0.7)])
    assert wit.achieved[0] == pytest.approx(0.7, abs=1e-10)


def test_solve_membership_in_staircase_span():
    space = NormedSpace(5, 2.0)
    chain = make_coordinate_chain(space, 4)
    d = ErrorSequence(np.array([1.0, 0.5, 0.25]))
    wit = witness_solve(chain, [(k, float(d.values[k - 1])) for k in range(1, 4)])
    stair = np.vstack(chain.staircase)
    onb = np.linalg.qr(stair.T)[0]
    residual = wit.vector - onb @ (onb.T @ wit.vector)
    assert np.linalg.norm(residual) <= 1e-10
    np.testing.assert_allclose(wit.vector, wit.coefficients @ stair, atol=1e-12)


def test_solve_rejects_bad_targets():
    space = NormedSpace(4, 2.0)
    chain = make_coordinate_chain(space, 3)
    with pytest.raises(TargetsNotMonotonic):
        witness_solve(chain, [(1, 0.5), (2, 0.8)])  # increasing
    with pytest.raises(TargetsNotMonotonic):
        witness_solve(chain, [(2, 0.5), (1, 0.3)])  # indices not increasing
    with pytest.raises(TargetsNotMonotonic):
        witness_solve(chain, [(1, 0.5), (2, -0.1)])  # nonpositive
    with pytest.raises(TargetsNotMonotonic):
        witness_solve(chain, [])


def test_solve_requires_euclidean_norm():
    import math

    space = NormedSpace(4, math.inf)
    chain = make_coordinate_chain(space, 3)
    with pytest.raises(ValueError):
        witness_solve(chain, [(1, 0.5)])


def test_no_progress_on_infeasible_targets():
    # dim jump of 2 into Y_2 with the tail staircase vector tilted into the
    # new directions: any x with rho(x, Y_2) = 0.399 forces rho(x, Y_1) >> 0.4
    space = NormedSpace(4, 2.0)
    eye = np.eye(4)
    bases = [eye[:1], eye[:3], eye[:4]]
    q2 = (eye[3] + 5.0 * eye[2]) / np.sqrt(26.0)
    chain = make_chain_from_bases(space, bases, [eye[1], q2])
    with pytest.raises(NoProgress, match="anchor 1 ") as excinfo:
        witness_solve(chain, [(1, 0.4), (2, 0.399)])
    partial = excinfo.value.witness
    assert partial is not None
    assert partial.residual > 1e-8
    assert not partial.converged


def _relative_errors(wit):
    return [abs(a - e) / e for a, (_, e) in zip(wit.achieved, wit.targets)]


def _chain_of(bases, staircase):
    dim = len(bases[0][0])
    return make_chain_from_bases(NormedSpace(dim, 2.0), [np.array(b) for b in bases],
                                 [np.array(q) for q in staircase])


def test_solve_nearly_equal_targets_on_a_tilted_frame():
    chain = _chain_of(*_tilted_frame(5, 4, {1: 1.0}))
    wit = witness_solve(chain, [(1, 1.0), (2, 0.99)])
    assert max(_relative_errors(wit)) <= 1e-14


def test_bundled_tilted_chain_anchors_are_exact():
    bundle = run_scenario(tilted_chain_config(), seed=42, stage="witness")
    wit = bundle["witness"]
    errors = [abs(a - e) / e for a, (_, e) in zip(wit["achieved"], wit["targets"])]
    assert max(errors) <= 1e-14


def test_equal_consecutive_targets_are_met():
    # with e_{j+1} = e_j the anchor quadratic has a double root at zero room,
    # which rounding pushes to about -1e-31; that must not count as infeasible
    for seed in range(5):
        cfg = random_tilted_config(seed)
        chain = _chain_of(cfg["chain"]["bases"], cfg["chain"]["staircase"])
        K = len(chain.staircase)
        wit = witness_solve(chain, [(1, 1.0), (K - 1, 0.3), (K, 0.3)])
        assert max(_relative_errors(wit)) <= 1e-14


def _random_chain(rng, jumps):
    """Chain in a random orthonormal frame whose dimension grows by ``jumps``,
    each staircase vector tilted into the lower levels."""
    dims = np.cumsum(np.concatenate([[int(rng.integers(1, 3))], jumps]))
    dim = int(dims[-1]) + 1
    frame = np.linalg.qr(rng.normal(size=(dim, dim)))[0].T
    staircase = []
    for lo, hi in zip(dims, dims[1:]):
        q = rng.normal(size=hi - lo) @ frame[lo:hi]
        q /= np.linalg.norm(q)
        q += rng.uniform(0.0, 0.6) * (rng.normal(size=lo) @ frame[:lo]) / np.sqrt(lo)
        staircase.append(q / np.linalg.norm(q))
    return make_chain_from_bases(NormedSpace(dim, 2.0), [frame[:m] for m in dims],
                                 staircase)


def test_plan_targets_met_on_unit_and_multi_dimensional_steps():
    # the smallest target stays above 1e-5 |x|: an ambient vector carries a
    # distance only to about eps |x|, so the recomputed achieved values could
    # not show 1e-10 relative accuracy below that
    for seed in range(40):
        rng = np.random.default_rng([7, seed])
        levels = int(rng.integers(6, 11))
        jumps = np.ones(levels, int) if seed % 2 else rng.integers(1, 4, size=levels)
        chain = _random_chain(rng, jumps)
        profile = separation_profile(chain)
        d = ErrorSequence.geometric(float(rng.uniform(0.3, 0.5)), levels)
        plan = build_index_plan(d, profile)
        steps = build_step_sequence(plan, d, profile, float(rng.choice([1.0, 0.5, 0.1])))
        wit = witness_solve(chain, list(zip(steps.z, steps.e)))
        assert max(_relative_errors(wit)) <= 1e-10, seed


def test_zero_vector_distances():
    space = NormedSpace(5, 2.0)
    chain = make_coordinate_chain(space, 4)
    d = ErrorSequence(np.array([1.0, 0.5]))
    wit = witness_coordinate_exact(d, 1.0, dim=5)
    zeroed = type(wit)(
        coefficients=np.zeros_like(wit.coefficients),
        vector=np.zeros_like(wit.vector),
        targets=wit.targets,
        achieved=wit.achieved,
        residual=wit.residual,
        method=wit.method,
    )
    np.testing.assert_allclose(achieved_distances(zeroed, chain), 0.0, atol=1e-12)
