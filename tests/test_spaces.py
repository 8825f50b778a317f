import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lethargy_lab import (
    BadStaircase,
    DimensionMismatch,
    ErrorSequence,
    HorizonTooLarge,
    NormedSpace,
    NotNested,
    NotNonIncreasing,
    NotStrict,
    RankDeficientBasis,
    Subspace,
    SubspaceChain,
    chain_from_json,
    distance,
    make_chain_from_bases,
    make_coordinate_chain,
    norm_of,
    validate_chain,
)


def test_euclidean_pythagorean_triple():
    space = NormedSpace(3, 2.0)
    assert norm_of(space, (3.0, 4.0, 0.0)) == pytest.approx(5.0, abs=1e-15)


def test_max_norm_is_largest_magnitude():
    space = NormedSpace(3, math.inf)
    assert norm_of(space, (1.0, -7.0, 2.0)) == 7.0


def test_weighted_l1():
    space = NormedSpace(2, 1.0, weights=np.array([2.0, 1.0]))
    assert norm_of(space, (1.0, 1.0)) == pytest.approx(3.0, abs=1e-15)


def test_norm_rejects_wrong_length():
    space = NormedSpace(3, 2.0)
    with pytest.raises(DimensionMismatch):
        space.norm_of((1.0, 2.0))


def test_space_validation():
    with pytest.raises(ValueError):
        NormedSpace(0, 2.0)
    with pytest.raises(ValueError):
        NormedSpace(2, 0.5)
    with pytest.raises(ValueError):
        NormedSpace(2, 2.0, weights=np.array([1.0, -1.0]))
    with pytest.raises(DimensionMismatch):
        NormedSpace(2, 2.0, weights=np.array([1.0, 1.0, 1.0]))


finite_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
)


@settings(deadline=None, max_examples=60)
# entries whose p-th powers underflow or overflow: the norm must still scale
@example(u=[0.0, 0.0, 0.0, 6.03e-214], v=[0.0] * 4, lam=1.0, p=2.0)
@example(u=[1e-200, 0.0, 0.0, 0.0], v=[0.0] * 4, lam=1.0, p=3.5)
@example(u=[5e-324, 0.0, 0.0, 0.0], v=[0.0] * 4, lam=0.0, p=1.0)  # 0.5 * u underflows
@example(u=[1e200, 1e200, 0.0, 0.0], v=[1e200, 1e200, 0.0, 0.0], lam=1.0, p=2.0)
@example(u=[1e200, 1e200, 0.0, 0.0], v=[1e200, 1e200, 0.0, 0.0], lam=1.0, p=3.5)
@given(u=finite_vec, v=finite_vec,
       lam=st.floats(min_value=-5, max_value=5),
       p=st.sampled_from([1.0, 2.0, 3.5, math.inf]))
def test_norm_axioms_sampled(u, v, lam, p):
    space = NormedSpace(4, p, weights=np.array([0.5, 1.0, 2.0, 1.5]))
    u = np.array(u)
    v = np.array(v)
    nu, nv = space.norm_of(u), space.norm_of(v)
    scale = max(1.0, nu, nv)
    assert abs(space.norm_of(lam * u) - abs(lam) * nu) <= 1e-12 * scale * max(1.0, abs(lam))
    assert space.norm_of(u + v) <= nu + nv + 1e-12 * scale
    if np.all(u == 0):
        assert nu == 0.0
    else:
        assert nu > 0


def test_coordinate_chain_shape():
    space = NormedSpace(4, 2.0)
    chain = make_coordinate_chain(space, 3)
    assert [sub.dim for sub in chain.subspaces] == [1, 2, 3]
    np.testing.assert_allclose(chain.staircase[0], np.eye(4)[1])
    np.testing.assert_allclose(chain.staircase[1], np.eye(4)[2])


def test_coordinate_chain_views_one_identity():
    chain = make_coordinate_chain(NormedSpace(8, 2.0), 6)
    eye = chain.subspaces[0].basis.base
    np.testing.assert_array_equal(eye, np.eye(8))
    for sub in chain.subspaces:
        assert np.shares_memory(sub.basis, eye)
        assert np.shares_memory(sub.orthonormal_basis(), eye)


def test_coordinate_chain_horizon_guard():
    with pytest.raises(HorizonTooLarge):
        make_coordinate_chain(NormedSpace(2, 2.0), 2)


def test_coordinate_chain_validates():
    chain = make_coordinate_chain(NormedSpace(10, 2.0), 3)
    assert validate_chain(chain).passed


def test_chain_from_bases_synthesizes_staircase():
    space = NormedSpace(3, 2.0)
    chain = make_chain_from_bases(
        space, [[(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0)]]
    )
    # component of (1,1,0) outside Y_1, normalized
    np.testing.assert_allclose(chain.staircase[0], [0.0, 1.0, 0.0], atol=1e-12)


def test_chain_from_bases_rejects_equal_spans():
    space = NormedSpace(2, 2.0)
    with pytest.raises(NotStrict):
        make_chain_from_bases(space, [[(1.0, 0.0)], [(2.0, 0.0)]])


def test_chain_from_bases_rejects_incomparable_spans():
    space = NormedSpace(2, 2.0)
    with pytest.raises(NotNested):
        make_chain_from_bases(space, [[(0.0, 1.0)], [(1.0, 0.0)]])


def test_chain_from_bases_rejects_bad_staircase():
    space = NormedSpace(3, 2.0)
    bases = [[(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]]
    with pytest.raises(BadStaircase):
        make_chain_from_bases(space, bases, staircase=[(1.0, 0.0, 0.0)])  # inside Y_1
    with pytest.raises(BadStaircase):
        make_chain_from_bases(space, bases, staircase=[(0.0, 0.0, 1.0)])  # outside Y_2


def test_subspace_rejects_dependent_basis():
    with pytest.raises(RankDeficientBasis):
        Subspace(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_validator_flags_duplicated_subspace():
    space = NormedSpace(4, 2.0)
    eye = np.eye(4)
    chain = SubspaceChain(
        space,
        [Subspace(eye[:2]), Subspace(eye[:2].copy()), Subspace(eye[:3])],
        [eye[2], eye[2]],
    )
    report = validate_chain(chain)
    assert not report.passed
    assert report.rows[0].strictness_margin == 0
    assert not report.rows[0].passed


def test_validator_flags_staircase_inside_lower_subspace():
    space = NormedSpace(4, 2.0)
    eye = np.eye(4)
    chain = SubspaceChain(
        space,
        [Subspace(eye[:1]), Subspace(eye[:2])],
        [eye[0]],  # q_1 in Y_1
    )
    report = validate_chain(chain)
    assert not report.passed
    assert report.rows[0].staircase_distance == pytest.approx(0.0, abs=1e-12)


def test_chain_json_round_trip(tmp_path):
    doc = {
        "dim": 3,
        "p": "inf",
        "weights": None,
        "bases": [[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
        "staircase": [[0.0, 1.0, 0.0]],
    }
    path = tmp_path / "chain.json"
    path.write_text(__import__("json").dumps(doc))
    chain = chain_from_json(path)
    assert chain.space.p == math.inf
    assert chain.horizon == 2
    assert validate_chain(chain).passed


def test_chain_json_weights_and_finiteness():
    doc = {
        "dim": 2,
        "p": 2,
        "weights": [2.0, 0.5],
        "bases": [[[1.0, 0.0]]],
        "staircase": None,
    }
    chain = chain_from_json(doc)
    assert chain.space.weighted
    assert chain.space.norm_of((1.0, 0.0)) == pytest.approx(2.0)

    doc["bases"] = [[[math.nan, 0.0]]]
    with pytest.raises(ValueError):
        chain_from_json(doc)


def test_staircase_synthesis_with_dimension_jump():
    # Y_2 adds two directions; the synthesized q_1 must leave Y_1 cleanly
    space = NormedSpace(4, 2.0)
    chain = make_chain_from_bases(
        space,
        [np.eye(4)[:1], np.vstack([np.eye(4)[0], [0.0, 1.0, 1.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0]])],
    )
    q = chain.staircase[0]
    assert chain.subspaces[1].contains(q)
    assert chain.subspaces[0].residual_of(q) > 0.9
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


def test_orthonormal_cache_spans_basis():
    rng = np.random.default_rng(8)
    basis = rng.normal(size=(3, 6))
    sub = Subspace(basis)
    onb = sub.orthonormal_basis()
    np.testing.assert_allclose(onb @ onb.T, np.eye(3), atol=1e-12)
    # mutual containment: every basis row projects onto the cache and back
    for row in basis:
        assert np.linalg.norm(row - (row @ onb.T) @ onb) <= 1e-10


def test_error_sequence_validation():
    with pytest.raises(NotNonIncreasing):
        ErrorSequence(np.array([1.0, 2.0]))
    with pytest.raises(NotNonIncreasing):
        ErrorSequence(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        ErrorSequence(np.array([1.0, 0.5]), c=0.0)
    d = ErrorSequence.geometric(0.5, 4)
    np.testing.assert_allclose(d.values, [1.0, 0.5, 0.25, 0.125])


def test_distances_non_increasing_along_chain():
    rng = np.random.default_rng(5)
    space = NormedSpace(6, 2.0)
    chain = make_coordinate_chain(space, 5)
    for _ in range(10):
        x = rng.normal(size=6)
        dists = [distance(space, x, sub).value for sub in chain.subspaces]
        assert all(a >= b - 1e-9 for a, b in zip(dists, dists[1:]))
