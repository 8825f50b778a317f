import numpy as np
import pytest

from lethargy_lab import (
    ErrorSequence,
    HorizonExhausted,
    InvariantViolation,
    NoContributors,
    PlanStalled,
    SeparationProfile,
    StepSequence,
    build_index_plan,
    build_step_sequence,
    compute_tilde_a,
    verify_step_inequality,
)

INV_SQRT2 = 0.7071067811865476


def flat_profile(n, value=1.0):
    return SeparationProfile(np.full(n, value), horizon=n + 1)


def test_literal_mode_stalls_on_orthogonal_profile():
    d = ErrorSequence.geometric(0.5, 6)
    plan = build_index_plan(d, flat_profile(6), mode="literal")
    assert plan.stalled
    assert plan.stall_index == 1
    assert plan.n == [1, 1]
    assert plan.m == [1]  # merged indices cover the healthy prefix only


def test_strict_mode_walks_every_index():
    d = ErrorSequence.geometric(0.5, 6)
    plan = build_index_plan(d, flat_profile(6), mode="strict")
    assert not plan.stalled
    assert plan.n == [1, 2, 3, 4, 5, 6]
    assert plan.j == [1, 2, 3, 4, 5, 6]
    assert plan.m == [1, 2, 3, 4, 5, 6]


def test_literal_mode_without_stall():
    # with a bounded below 1 the literal minimum stays ahead of the previous
    # anchor until the horizon runs out, so no stall is recorded
    d = ErrorSequence(np.array([1.0, 0.5, 0.25, 0.125]))
    profile = SeparationProfile(np.full(4, 0.5), horizon=5)
    plan = build_index_plan(d, profile, mode="literal")
    assert not plan.stalled
    assert plan.n == [1, 3]  # next anchor would need d_n <= 1/16


def test_plan_horizon_skips_trailing_zeros():
    d = ErrorSequence(np.array([1.0, 0.5, 0.0, 0.0]))
    plan = build_index_plan(d, flat_profile(4), mode="strict")
    assert plan.horizon == 2
    assert plan.n == [1, 2]


def test_recursion_example_with_mixed_profile():
    d = ErrorSequence(np.array([1.0, 0.5, 0.25, 0.125]))
    profile = SeparationProfile(np.array([0.5, 0.5, 0.5, 1.0]), horizon=5)
    plan = build_index_plan(d, profile, mode="strict")
    # n_2 = min{n > 1 : d_n / a_n^2 <= 1} = 3 (d_2/0.25 = 2 > 1; d_3/0.25 = 1)
    assert plan.n == [1, 3, 4]
    assert plan.j == [1, 3, 4]
    assert plan.m == [1, 2, 3, 4]


def test_merged_indices_are_dedup_merge_of_anchors_and_predecessors():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = np.sort(rng.uniform(0.5, 1.0, size=12))
        ratio = rng.uniform(0.15, 0.45)
        d = ErrorSequence.geometric(ratio, 12)
        plan = build_index_plan(d, SeparationProfile(a, horizon=13), mode="strict")
        assert all(x < y for x, y in zip(plan.n, plan.n[1:]))
        assert all(x < y for x, y in zip(plan.m, plan.m[1:]))
        expected = sorted(set(plan.n) | {n - 1 for n in plan.n[1:]})
        assert plan.m == expected
        assert all(j2 - j1 in (1, 2) for j1, j2 in zip(plan.j, plan.j[1:]))
        # anchors sit at their merged positions: m[j_i] = n_i
        assert [plan.m[j - 1] for j in plan.j] == plan.n


def test_monotonicity_of_ratio_map_is_asserted():
    d = ErrorSequence(np.array([1.0, 1.0]))
    profile = SeparationProfile(np.array([0.5, 1.0]), horizon=3)
    # d_n / a_n^2 = (4, 1) is fine; force a violation with a decreasing map check
    bad_profile = SeparationProfile.__new__(SeparationProfile)
    bad_profile.a = np.array([1.0, 0.5])  # bypass validation to hit the assert
    bad_profile.horizon = 3
    bad_profile.certified = True
    bad_profile.ratios = None
    with pytest.raises(InvariantViolation):
        build_index_plan(d, bad_profile)
    assert build_index_plan(d, profile).n[0] == 1


def test_step_sequence_orthogonal_collapses_to_cd():
    d = ErrorSequence.geometric(0.5, 6)
    profile = flat_profile(6)
    plan = build_index_plan(d, profile, mode="strict")
    for c in (1.0, 0.5):
        steps = build_step_sequence(plan, d, profile, c)
        assert steps.z == [1, 2, 3, 4, 5]
        np.testing.assert_allclose(steps.e, c * d.values[:5], atol=1e-15)
    full = build_step_sequence(plan, d, profile, 1.0)
    half = build_step_sequence(plan, d, profile, 0.5)
    np.testing.assert_allclose(np.asarray(half.e), 0.5 * np.asarray(full.e), atol=1e-15)


def test_step_sequence_mixed_profile_values():
    d = ErrorSequence(np.array([1.0, 0.5, 0.25, 0.125]))
    profile = SeparationProfile(np.array([0.5, 0.5, 0.5, 1.0]), horizon=5)
    plan = build_index_plan(d, profile, mode="strict")
    steps = build_step_sequence(plan, d, profile, 1.0)
    # anchors at m-positions 1 and 3; middle carries c*d_{n_i}
    np.testing.assert_allclose(steps.e, [2.0, 1.0, 0.25], atol=1e-15)
    assert steps.z == [1, 2, 3]
    assert steps.anchor_flags == [True, False, True]
    checks = verify_step_inequality(steps, profile)
    assert all(ch.passed for ch in checks)
    assert [ch.case for ch in checks] == [2, 1]
    assert checks[0].slack == pytest.approx(0.0, abs=1e-15)  # equality case


def test_step_sequence_rejects_stalled_plan():
    d = ErrorSequence.geometric(0.5, 4)
    profile = flat_profile(4)
    plan = build_index_plan(d, profile, mode="literal")
    with pytest.raises(PlanStalled):
        build_step_sequence(plan, d, profile, 1.0)


def test_step_sequence_horizon_exhausted():
    d = ErrorSequence(np.array([1.0]))
    profile = flat_profile(1)
    plan = build_index_plan(d, profile, mode="strict")
    with pytest.raises(HorizonExhausted):
        build_step_sequence(plan, d, profile, 1.0)


def test_verify_step_inequality_hand_built():
    profile = SeparationProfile(np.array([0.8, 0.8, 0.9]), horizon=4)
    failing = StepSequence(e=[1.0, 2.0], z=[1, 2], c=1.0)
    checks = verify_step_inequality(failing, profile)
    assert not checks[0].passed
    equality = StepSequence(e=[1.0, 0.8], z=[1, 2], c=1.0)
    checks = verify_step_inequality(equality, profile)
    assert checks[0].passed
    assert checks[0].slack == pytest.approx(0.0, abs=1e-15)
    assert checks[0].case is None  # no anchor structure supplied


def test_step_slack_scales_with_the_targets():
    # the same contraction and the same violation by 1e-6 relative, at the
    # scale of 1 and of 1e-20: both fail
    profile = SeparationProfile(np.array([0.8, 0.8, 0.9]), horizon=4)
    for scale in (1.0, 1e-20):
        steps = StepSequence(e=[scale, 0.8 * scale * (1 + 1e-6)], z=[1, 2], c=1.0)
        assert not verify_step_inequality(steps, profile)[0].passed
        steps = StepSequence(e=[scale, 0.8 * scale], z=[1, 2], c=1.0)
        assert verify_step_inequality(steps, profile)[0].passed


def test_tilde_a_values():
    d = ErrorSequence.geometric(0.5, 6)
    profile = flat_profile(6)
    plan = build_index_plan(d, profile, mode="strict")
    ta = compute_tilde_a([(plan, profile)])
    assert ta.value == pytest.approx(1.0, abs=1e-12)
    assert ta.capped == 1.0

    tilted = SeparationProfile(np.array([INV_SQRT2] + [1.0] * 5), horizon=7)
    plan2 = build_index_plan(d, tilted, mode="strict")
    ta2 = compute_tilde_a([(plan2, tilted)])
    assert ta2.value == pytest.approx(2.0 ** 1.5, abs=1e-9)

    both = compute_tilde_a([(plan, profile), (plan2, tilted)])
    assert both.value == pytest.approx(2.8284271247461903, abs=1e-9)
    assert both.capped == pytest.approx(2.8284271247461903, abs=1e-9)


def test_tilde_a_skips_zero_index_and_raises_when_empty():
    d = ErrorSequence.geometric(0.5, 4)
    profile = flat_profile(4)
    stalled = build_index_plan(d, profile, mode="literal")
    # only contribution would be n_2 - 1 = 0, which is skipped
    with pytest.raises(NoContributors):
        compute_tilde_a([(stalled, profile)])


def test_random_plans_satisfy_proof_invariants():
    rng = np.random.default_rng(77)
    for _ in range(60):
        a = np.sort(rng.uniform(0.5, 1.0, size=10))
        d = ErrorSequence.geometric(float(rng.uniform(0.15, 0.45)), 10)
        profile = SeparationProfile(a, horizon=11)
        ratio_map = d.values[:10] / a ** 2
        assert np.all(ratio_map[1:] <= ratio_map[:-1] * (1 + 1e-12))
        plan = build_index_plan(d, profile, mode="strict")
        steps = build_step_sequence(plan, d, profile, float(rng.uniform(0.1, 1.0)))
        checks = verify_step_inequality(steps, profile)
        assert all(ch.slack >= -1e-12 for ch in checks)
        assert all(ch.passed for ch in checks)
