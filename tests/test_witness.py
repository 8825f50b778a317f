import numpy as np
import pytest

from lethargy_lab import (
    ErrorSequence,
    HorizonTooLarge,
    NoProgress,
    NormedSpace,
    TargetsNotMonotonic,
    achieved_distances,
    make_chain_from_bases,
    make_coordinate_chain,
    witness_coordinate_exact,
    witness_solve,
)

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
                               atol=1e-8)
    assert solved.residual <= 1e-9
    assert solved.method == "damped-iteration"
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
    with pytest.raises(NoProgress) as excinfo:
        witness_solve(chain, [(1, 0.4), (2, 0.399)])
    partial = excinfo.value.witness
    assert partial is not None
    assert partial.residual > 1e-8
    assert not partial.converged


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
