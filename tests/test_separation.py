import math

import numpy as np
import pytest

from lethargy_lab import (
    EmptySpan,
    ErrorSequence,
    NormedSpace,
    NotGeometricSequence,
    SeparationProfile,
    check_geometric_condition,
    check_span_ratio_condition,
    check_uniform_separation,
    make_chain_from_bases,
    make_coordinate_chain,
    min_ratio_over_span,
    separation_profile,
)

INV_SQRT2 = 0.7071067811865476


def tilted_chain(dim=3, tilts=None):
    """Identity-frame chain with staircase tilts into Y_1."""
    tilts = tilts or {}
    eye = np.eye(dim)
    bases = [eye[:k] for k in range(1, dim + 1)]
    staircase = []
    for k in range(1, dim):
        q = eye[k] + tilts.get(k, 0.0) * eye[0]
        staircase.append(q / np.linalg.norm(q))
    return make_chain_from_bases(NormedSpace(dim, 2.0), bases, staircase)


def test_orthogonal_span_has_ratio_one():
    chain = make_coordinate_chain(NormedSpace(5, 2.0), 4)
    for l in range(1, 4):
        r = min_ratio_over_span(chain, l)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.certified and r.method == "principal-angle"


def test_tilted_span_ratio_matches_hand_value():
    # Y_1 = span{e1}, q_1 = (1,1,0)/|.|, q_2 = e3: minimize over the span at beta=0
    chain = tilted_chain(3, {1: 1.0})
    r = min_ratio_over_span(chain, 1, 2)
    assert r.value == pytest.approx(INV_SQRT2, abs=1e-9)
    # sphere-sampling cross-check (upper-bound semantics)
    est = min_ratio_over_span(chain, 1, 2, method="estimate", samples=2048)
    assert est.value >= r.value - 1e-9
    assert abs(est.value - r.value) <= 1e-3


def test_single_vector_span_is_plain_ratio():
    chain = tilted_chain(3, {1: 1.0})
    r = min_ratio_over_span(chain, 1, 1)
    assert r.value == pytest.approx(INV_SQRT2, abs=1e-12)


def test_empty_span_rejected():
    chain = make_coordinate_chain(NormedSpace(4, 2.0), 3)
    with pytest.raises(EmptySpan):
        min_ratio_over_span(chain, 3, 1)
    with pytest.raises(EmptySpan):
        min_ratio_over_span(chain, 0)


def test_profile_coordinate_chain_all_ones():
    chain = make_coordinate_chain(NormedSpace(8, 2.0), 6)
    prof = separation_profile(chain)
    np.testing.assert_allclose(prof.a, 1.0, atol=1e-12)
    assert prof.certified


def test_profile_tilted_values_and_monotonicity():
    chain = tilted_chain(3, {1: 1.0})
    prof = separation_profile(chain)
    assert prof.a[0] == pytest.approx(INV_SQRT2, abs=1e-9)
    assert prof.a[1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(prof.a[:-1] <= prof.a[1:] + 1e-12)


def test_profile_scale_invariance():
    chain = tilted_chain(4, {1: 0.7, 2: 0.3})
    prof = separation_profile(chain)
    scaled = make_chain_from_bases(
        chain.space,
        [10.0 * sub.basis for sub in chain.subspaces],
        [10.0 * q for q in chain.staircase],
    )
    prof_scaled = separation_profile(scaled)
    np.testing.assert_allclose(prof.a, prof_scaled.a, atol=1e-9)


def test_profile_closed_form_for_common_tilts():
    # tilts along Y_1 give a_n = (1 + sum_{k>=n} tau_k^2)^(-1/2)
    tilts = {1: 0.8, 3: 0.5}
    chain = tilted_chain(6, tilts)
    prof = separation_profile(chain)
    taus = np.zeros(5)
    for k, tau in tilts.items():
        taus[k - 1] = tau
    expected = 1.0 / np.sqrt(1.0 + np.cumsum((taus ** 2)[::-1])[::-1])
    np.testing.assert_allclose(prof.a, expected, atol=1e-9)


def test_uniform_separation_threshold():
    chain = tilted_chain(3, {1: 1.0})
    prof = separation_profile(chain)
    assert check_uniform_separation(prof, 0.5)
    assert not check_uniform_separation(prof, 0.8)
    assert check_uniform_separation(prof, prof.a[0])  # boundary inclusive
    with pytest.raises(ValueError):
        check_uniform_separation(prof, 0.0)


def test_geometric_condition_truncated():
    report = check_geometric_condition(ErrorSequence(np.array([1.0, 0.4, 0.3, 0.0])))
    assert report.passed
    assert report.margin == pytest.approx(0.1, abs=1e-12)

    # ratio 1/2 passes the literal finite sums by the truncation remainder:
    # d_n - tail = 2^-11 for every n when d starts at 1 with 12 values
    half = check_geometric_condition(ErrorSequence.geometric(0.5, 12))
    assert half.passed
    assert half.margin == pytest.approx(2.0 ** -11, abs=1e-15)


def test_geometric_condition_idealized():
    half = check_geometric_condition(ErrorSequence.geometric(0.5, 12),
                                     mode="idealized-geometric")
    assert not half.passed
    assert len(half.failures) == 12  # fails at every index

    third = check_geometric_condition(ErrorSequence.geometric(1.0 / 3.0, 12),
                                      mode="idealized-geometric")
    assert third.passed

    with pytest.raises(NotGeometricSequence):
        check_geometric_condition(ErrorSequence(np.array([1.0, 0.4, 0.3])),
                                  mode="idealized-geometric")


def test_geometric_condition_failure_indices():
    # d = (1, 0.6, 0.5): n=1 fails (1 <= 1.1), n=2 passes (0.6 > 0.5)
    report = check_geometric_condition(ErrorSequence(np.array([1.0, 0.6, 0.5])))
    assert not report.passed
    assert [f.index for f in report.failures] == [1]
    assert report.failures[0].rhs == pytest.approx(1.1, abs=1e-12)


def test_span_ratio_condition_orthogonal_passes():
    chain = make_coordinate_chain(NormedSpace(6, 2.0), 5)
    d = ErrorSequence(np.array([1.0, 0.9, 0.85, 0.5, 0.5]))
    report = check_span_ratio_condition(chain, d)
    assert report.passed and report.certified


def test_span_ratio_condition_constant_d_zero_margin():
    chain = make_coordinate_chain(NormedSpace(6, 2.0), 5)
    d = ErrorSequence(np.ones(5))
    report = check_span_ratio_condition(chain, d)
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_span_ratio_condition_certified_failure():
    # tilt at q_2 makes the k=2 tail ratio 1/sqrt(2) < d_2/d_1 = 0.9
    chain = tilted_chain(4, {2: 1.0})
    d = ErrorSequence(np.array([1.0, 0.9, 0.8]))
    report = check_span_ratio_condition(chain, d)
    assert not report.passed
    assert report.certified
    failure = report.failures[0]
    assert failure.index == 2
    assert failure.witness is not None
    # the witness violates the inequality: ||q|| > (d_1/d_2) rho(q, Y_2)
    assert failure.lhs > failure.rhs


def test_span_ratio_margin_reads_the_profile():
    # l^1 chain: the ratios are sampled, and the check must use the profile's
    bases = [np.eye(6)[:k] for k in range(1, 7)]
    staircase = tilted_chain(6, {2: 1.0, 3: 0.5}).staircase
    chain = make_chain_from_bases(NormedSpace(6, 1.0), bases, staircase)
    d = ErrorSequence(0.55 ** np.arange(4))
    profile = separation_profile(chain, samples=64, seed=1)
    report = check_span_ratio_condition(chain, d, profile)
    assert report.margin == min(profile.ratios[k - 1].value - d.values[k - 1] / d.values[k - 2]
                                for k in range(2, 5))
    for failure in report.failures:
        assert failure.witness is profile.ratios[failure.index - 1].witness

    euclidean = tilted_chain(5, {2: 1.0})
    d = ErrorSequence(np.array([1.0, 0.9, 0.8, 0.5]))
    ratios = separation_profile(euclidean).ratios
    assert check_span_ratio_condition(euclidean, d).margin == min(
        ratios[k - 1].value - d.values[k - 1] / d.values[k - 2] for k in range(2, 5))


def test_span_ratio_condition_rejects_foreign_profile():
    chain = make_coordinate_chain(NormedSpace(6, 2.0), 5)
    d = ErrorSequence(np.ones(5))
    with pytest.raises(ValueError):  # no ratios to read
        check_span_ratio_condition(chain, d, SeparationProfile(np.ones(4), horizon=5))
    shorter = separation_profile(make_coordinate_chain(NormedSpace(6, 2.0), 4))
    with pytest.raises(ValueError):  # one ratio per staircase vector
        check_span_ratio_condition(chain, d, shorter)


def test_span_ratio_consistency_with_uniform_separation():
    rng = np.random.default_rng(17)
    for _ in range(5):
        tilts = {int(k): float(rng.uniform(0.1, 0.6))
                 for k in rng.choice(np.arange(1, 5), size=2, replace=False)}
        chain = tilted_chain(6, tilts)
        prof = separation_profile(chain)
        vals = np.sort(rng.uniform(0.1, 1.0, size=5))[::-1]
        d = ErrorSequence(vals)
        ratios = d.values[1:] / d.values[:-1]
        if check_uniform_separation(prof, float(ratios.max())):
            assert check_span_ratio_condition(chain, d).passed


def test_weighted_euclidean_profile_stays_exact():
    # weights rescale coordinates; the coordinate chain stays orthogonal
    space = NormedSpace(5, 2.0, weights=np.array([2.0, 1.0, 0.5, 3.0, 1.0]))
    chain = make_coordinate_chain(space, 4)
    prof = separation_profile(chain)
    assert prof.certified
    np.testing.assert_allclose(prof.a, 1.0, atol=1e-12)


def test_sampled_path_for_non_euclidean_norm():
    eye = np.eye(4)
    bases = [eye[:k] for k in range(1, 4)]
    chain = make_chain_from_bases(NormedSpace(4, math.inf), bases)
    r = min_ratio_over_span(chain, 1, samples=128)
    assert r.method == "sampled-descent"
    assert not r.certified
    assert 0 < r.value <= 1.0 + 1e-12


def test_sampled_lps_warm_start_without_changing_values(monkeypatch):
    # l^1 chain: each LP on a level warm-starts from the last optimal basis
    from lethargy_lab import distances
    from lethargy_lab.distances import distance

    bases = [np.eye(8)[:k] for k in range(1, 7)]
    staircase = tilted_chain(8, {1: 1.0}).staircase[:5]
    chain = make_chain_from_bases(NormedSpace(8, 1.0), bases, staircase)
    solve = distances.solve_from_basis

    def profile_and_pivots(drop_warm):
        pivots = []

        def counted(*args, **kwargs):
            if drop_warm:
                kwargs.pop("warm", None)
            res = solve(*args, **kwargs)
            pivots.append(res.iterations)
            return res

        monkeypatch.setattr(distances, "solve_from_basis", counted)
        profile = separation_profile(chain, samples=16, seed=1)
        monkeypatch.setattr(distances, "solve_from_basis", solve)
        return profile, sum(pivots)

    warm, warm_pivots = profile_and_pivots(drop_warm=False)
    cold, cold_pivots = profile_and_pivots(drop_warm=True)
    np.testing.assert_array_equal(cold.a, warm.a)
    assert cold_pivots >= 3 * warm_pivots
    for target, ratio in zip(chain.subspaces, warm.ratios):
        q = ratio.witness
        value = distance(chain.space, q, target).value / chain.space.norm_of(q)
        assert ratio.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("a", [1e-6, 1e-7, 1e-8])
def test_small_angle_ratio_is_relatively_accurate(a):
    # below sin^2 = 1/4 the sine comes from the residual off Y_l, not from
    # sqrt(1 - cos^2), which lost 4.4e-5 relative at a = 1e-6 and 1.2e-2 at
    # 1e-7, and rounded to 0 at 1e-8
    from lethargy_lab.scenarios import _tilted_frame

    tau = math.sqrt(1.0 / (a * a) - 1.0)
    bases, staircase = _tilted_frame(8, 6, {1: tau})
    chain = make_chain_from_bases(NormedSpace(8, 2.0), bases, staircase)
    prof = separation_profile(chain)
    exact = 1.0 / math.sqrt(1.0 + tau * tau)
    assert prof.certified
    assert abs(prof.a[0] - exact) <= 1e-14 * exact
    q = prof.ratios[0].witness
    assert chain.subspaces[0].residual_of(q) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_single_span_ratio_matches_the_profile(seed, weighted):
    # min_ratio_over_span builds its own tail frame; the profile slices one
    from lethargy_lab.scenarios import random_tilted_config

    cfg = random_tilted_config(seed)
    dim = cfg["space"]["dim"]
    weights = np.array([1.0 + 0.1 * i for i in range(dim)]) if weighted else None
    chain = make_chain_from_bases(NormedSpace(dim, 2.0, weights),
                                  cfg["chain"]["bases"], cfg["chain"]["staircase"])
    ratios = separation_profile(chain).ratios
    for l in range(1, len(chain.staircase) + 1):
        single = min_ratio_over_span(chain, l)
        assert single.method == "principal-angle" and single.certified
        assert abs(single.value - ratios[l - 1].value) <= 1e-15 * ratios[l - 1].value
