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


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_distance_lps_match_highs(seed, p):
    # the LPs the distance path builds, up to 2m = 130 rows, against HiGHS
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    m = 65 if seed < 2 else int(rng.integers(2, 65))
    k = int(rng.integers(1, min(m, 14)))
    weights = rng.uniform(0.2, 3.0, m) if seed % 2 else None
    space = NormedSpace(m, p, weights)
    subspace = Subspace(rng.normal(size=(k, m)))
    x = rng.normal(size=m)
    build = _lp_one if p == 1.0 else _lp_infinity
    c, A, rhs, basis, _ = build(space, x, subspace)
    res = solve_from_basis(c, A, rhs, basis)
    ref = linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-9)
    np.testing.assert_allclose(A @ res.x, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))
    assert res.x.min() >= 0.0
