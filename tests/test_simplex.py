import math

import numpy as np
import pytest

from lethargy_lab import NormedSpace, SimplexCycleGuard, Subspace
from lethargy_lab.distances import _lp_infinity, _lp_one
from lethargy_lab.simplex import solve_from_basis

# Iteration counts below are pinned: a change to the entering rule, its tie
# breaks or the ratio test's tie break shows up as a different count.


def test_single_constraint_lp():
    # max x1 + x2 s.t. x1 + x2 <= 1  ->  objective -1 in min form
    res = solve_from_basis(
        c=[-1.0, -1.0, 0.0],
        A=[[1.0, 1.0, 1.0]],
        b=[1.0],
        basis=[2],
    )
    assert res.status == "optimal"
    assert res.iterations == 1
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
    assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_two_variable_vertex():
    # max 2x + 3y s.t. x <= 4, y <= 3, x + y <= 5 -> (2, 3), value 13
    c = np.array([-2.0, -3.0, 0.0, 0.0, 0.0])
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 3.0, 5.0])
    res = solve_from_basis(c, A, b, basis=[2, 3, 4])
    assert res.status == "optimal"
    assert res.iterations == 2
    assert res.objective == pytest.approx(-13.0, abs=1e-10)
    np.testing.assert_allclose(res.x[:2], [2.0, 3.0], atol=1e-10)


def test_unbounded_detection():
    # min -x with x unconstrained above
    res = solve_from_basis(c=[-1.0, 0.0], A=[[-1.0, 1.0]], b=[1.0], basis=[1])
    assert res.status == "unbounded"
    assert res.iterations == 0


def test_iteration_cap_raises_with_best():
    c = np.array([-2.0, -3.0, 0.0, 0.0, 0.0])
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 3.0, 5.0])
    with pytest.raises(SimplexCycleGuard) as excinfo:
        solve_from_basis(c, A, b, basis=[2, 3, 4], max_iter=1)
    assert excinfo.value.best is not None
    assert excinfo.value.best.status == "iteration-cap"


def test_infeasible_start_rejected():
    with pytest.raises(ValueError):
        solve_from_basis(c=[0.0, 0.0], A=[[1.0, 1.0]], b=[-1.0], basis=[1])


def test_unit_columns_sharing_a_row_rejected():
    # columns 0 and 1 are +e_0 and -e_0: a basis holding both is singular
    A = np.array([
        [1.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    with pytest.raises(ValueError):
        solve_from_basis(c=[0.0, 0.0, 0.0, 1.0], A=A, b=[1.0, 1.0], basis=[0, 1])


def test_degenerate_ties_terminate():
    # multiple rows tie at ratio zero; Bland tie-break must still terminate
    c = np.array([-1.0, 0.0, 0.0, 0.0])
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_from_basis(c, A, b, basis=[1, 2, 3])
    assert res.status == "optimal"
    assert res.iterations == 1
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def _distance_lp(seed, p):
    """A distance LP as the distance path builds it, up to 2m = 130 rows,
    with its builder and inputs."""
    rng = np.random.default_rng(seed)
    m = 65 if seed < 2 else int(rng.integers(2, 65))
    k = int(rng.integers(1, min(m, 14)))
    weights = rng.uniform(0.2, 3.0, m) if seed % 2 else None
    space = NormedSpace(m, p, weights)
    subspace = Subspace(rng.normal(size=(k, m)))
    x = rng.normal(size=m)
    build = _lp_one if p == 1.0 else _lp_infinity
    return build, space, subspace, x, rng


def _highs(c, A, rhs):
    from scipy.optimize import linprog

    ref = linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_distance_lps_match_highs(seed, p):
    build, space, subspace, x, _ = _distance_lp(seed, p)
    c, A, rhs, basis, _ = build(space, x, subspace)
    res = solve_from_basis(c, A, rhs, basis)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(_highs(c, A, rhs), rel=1e-9)
    np.testing.assert_allclose(A @ res.x, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))
    assert res.x.min() >= 0.0


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_warm_start_from_a_perturbed_optimum(seed, p):
    # the optimal basis for a nearby x: optimal again, or the cold start
    build, space, subspace, x, rng = _distance_lp(seed, p)
    near = x + 1e-3 * rng.normal(size=x.size)
    warm = solve_from_basis(*build(space, near, subspace)[:4]).basis
    c, A, rhs, basis, _ = build(space, x, subspace)
    cold = solve_from_basis(c, A, rhs, basis)
    res = solve_from_basis(c, A, rhs, basis, warm=warm)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(_highs(c, A, rhs), rel=1e-9)
    assert res.iterations <= cold.iterations
    assert res.x.min() >= 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_warm_start_at_the_optimum_makes_no_pivot(seed, p):
    # a right-hand side for which the optimal basis of the distance LP has
    # a strictly positive basic solution; its reduced costs do not depend on
    # the right-hand side, so it is optimal there as it stands. (At the
    # distance LP's own rhs the optimum is degenerate and a fresh
    # factorization may put -1e-16 on a zero entry, which a warm start
    # refuses.)
    build, space, subspace, x, rng = _distance_lp(seed, p)
    c, A, rhs, basis, _ = build(space, x, subspace)
    optimal = solve_from_basis(c, A, rhs, basis).basis
    rhs = A[:, optimal] @ rng.uniform(0.5, 1.5, optimal.size)
    res = solve_from_basis(c, A, rhs, basis, warm=optimal)
    assert res.status == "optimal"
    assert res.iterations == 0
    np.testing.assert_array_equal(np.sort(res.basis), np.sort(optimal))
    assert res.objective == pytest.approx(_highs(c, A, rhs), rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_infeasible_warm_start_is_the_cold_solve(seed, p):
    # the start basis built for -x puts a negative entry in B^-1 b
    build, space, subspace, x, _ = _distance_lp(seed, p)
    c, A, rhs, basis, _ = build(space, x, subspace)
    warm = build(space, -x, subspace)[3]
    assert np.linalg.solve(A[:, warm], rhs).min() < 0.0
    cold = solve_from_basis(c, A, rhs, basis)
    res = solve_from_basis(c, A, rhs, basis, warm=warm)
    np.testing.assert_array_equal(res.x, cold.x)
    assert res.iterations == cold.iterations


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_malformed_warm_basis_rejected(p):
    build, space, subspace, x, _ = _distance_lp(3, p)
    c, A, rhs, basis, _ = build(space, x, subspace)
    for warm in (basis[:-1], np.append(basis, basis[0]),
                 np.append(basis[:-1], basis[0]), np.append(basis[:-1], A.shape[1])):
        with pytest.raises(ValueError):
            solve_from_basis(c, A, rhs, basis, warm=warm)
