import dataclasses

import numpy as np
import pytest

from lethargy_lab import (
    ErrorSequence,
    MismatchedInputs,
    NormedSpace,
    build_index_plan,
    build_step_sequence,
    compute_tilde_a,
    make_coordinate_chain,
    sandwich_check,
    separation_profile,
    witness_coordinate_exact,
)
from lethargy_lab.report import rows_from_csv, write_sandwich_csv


def orthogonal_setup(n=6, dim=8, ratio=0.5, c=1.0):
    space = NormedSpace(dim, 2.0)
    chain = make_coordinate_chain(space, dim - 1)
    profile = separation_profile(chain)
    d = ErrorSequence.geometric(ratio, n)
    plan = build_index_plan(d, profile, mode="strict")
    tilde = compute_tilde_a([(plan, profile)])
    wit = witness_coordinate_exact(d, c, dim)
    return wit, chain, d, c, tilde, plan, profile


def test_sandwich_collapses_on_orthogonal_chain():
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup()
    report = sandwich_check(wit, chain, d, c, tilde, plan, profile)
    assert report.overall_passed
    assert report.tilde_a_value == pytest.approx(1.0, abs=1e-12)
    for row in report.rows:
        assert row.lower == pytest.approx(row.achieved, abs=1e-9)
        assert row.upper == pytest.approx(row.lower, abs=1e-15)
        assert row.konyagin_upper == pytest.approx(8.0 * row.d_n, abs=1e-15)
        assert row.upper <= row.konyagin_upper


def test_sandwich_upper_never_exceeds_four_cd():
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup()
    report = sandwich_check(wit, chain, d, c, tilde)
    for row in report.rows:
        assert row.upper <= 4.0 * c * row.d_n + 1e-12


def test_perturbed_witness_fails_first_row():
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup()
    q1 = np.eye(chain.space.dim)[1]
    broken = dataclasses.replace(wit, vector=wit.vector + 5.0 * d.values[0] * q1)
    report = sandwich_check(broken, chain, d, c, tilde)
    assert not report.overall_passed
    assert not report.rows[0].passed
    assert report.rows[0].achieved > report.rows[0].upper


def test_intermediate_checks_cover_non_anchor_rows():
    # mixed profile creates a gap with a genuine middle index
    from lethargy_lab import SeparationProfile, witness_solve

    space = NormedSpace(8, 2.0)
    chain = make_coordinate_chain(space, 7)
    d = ErrorSequence(np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]))
    profile = SeparationProfile(np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0]), horizon=8)
    plan = build_index_plan(d, profile, mode="strict")
    assert plan.n == [1, 3, 4, 5, 6]
    steps = build_step_sequence(plan, d, profile, 1.0)
    wit = witness_solve(chain, list(zip(steps.z, steps.e)))
    tilde = compute_tilde_a([(plan, profile)])
    report = sandwich_check(wit, chain, d, 1.0, tilde, plan, profile)
    assert report.overall_passed
    kinds = {(ch.n, ch.kind) for ch in report.intermediate}
    assert (2, "lower-route") in kinds
    assert (2, "upper-route") in kinds
    assert all(ch.passed for ch in report.intermediate)


def test_intermediate_slack_is_relative_to_the_targets():
    # the setup above with d scaled by 1e8: the witness misses its targets by
    # an absolute 1.5e-8 but a relative 1e-16, so a lower route 5e-9 short
    # must fail; rows n >= 3 and hence the sandwich itself stay intact
    from lethargy_lab import SeparationProfile, witness_solve

    space = NormedSpace(8, 2.0)
    chain = make_coordinate_chain(space, 7)
    d = ErrorSequence(1e8 * np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]))
    profile = SeparationProfile(np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0]), horizon=8)
    plan = build_index_plan(d, profile, mode="strict")
    steps = build_step_sequence(plan, d, profile, 1.0)
    wit = witness_solve(chain, list(zip(steps.z, steps.e)))
    tilde = compute_tilde_a([(plan, profile)])
    vector = wit.vector.copy()
    lowered = d.values[0] * (1 - 5e-9)  # rho(x, Y_2) = |x[2:]|, with c = 1
    vector[2] = np.sqrt(lowered ** 2 - np.sum(vector[3:] ** 2))
    report = sandwich_check(dataclasses.replace(wit, vector=vector),
                            chain, d, 1.0, tilde, plan, profile)
    assert report.overall_passed
    checks = {(ch.n, ch.kind): ch.passed for ch in report.intermediate}
    assert checks[(2, "lower-route")] is False
    assert checks[(2, "upper-route")] is True


def test_row_count_respects_coverage_and_requests():
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup(n=6)
    report = sandwich_check(wit, chain, d, c, tilde, n_rows=4)
    assert len(report.rows) == 4
    with pytest.raises(MismatchedInputs):
        sandwich_check(wit, chain, d, c, tilde, n_rows=40)


def test_mismatched_witness_rejected():
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup()
    other_chain = make_coordinate_chain(NormedSpace(12, 2.0), 5)
    with pytest.raises(MismatchedInputs):
        sandwich_check(wit, other_chain, d, c, tilde)


def test_csv_round_trip(tmp_path):
    wit, chain, d, c, tilde, plan, profile = orthogonal_setup()
    report = sandwich_check(wit, chain, d, c, tilde, plan, profile)
    path = tmp_path / "rows.csv"
    write_sandwich_csv(report, path)
    header = path.read_text().splitlines()[0]
    assert header == "n,d_n,lower,achieved,upper,konyagin_upper,pass"
    parsed = rows_from_csv(path)
    assert len(parsed) == len(report.rows)
    for row, rec in zip(report.rows, parsed):
        assert rec["achieved"] == row.achieved  # repr round-trips exactly
        assert rec["pass"] is True


def test_rows_fail_where_the_witness_tail_vanishes():
    # exact coordinate witness for d = 0.5^n, N = 40, truncated after the
    # 30th coefficient: rho(x, Y_n) = c d_n up to n = 30 and 0 from n = 31,
    # where c d_n < 1e-9 is below any absolute tolerance
    n, dim, c = 40, 42, 1.0
    space = NormedSpace(dim, 2.0)
    chain = make_coordinate_chain(space, dim - 1)
    d = ErrorSequence.geometric(0.5, n, first=0.5)
    wit = witness_coordinate_exact(d, c, dim)
    vector = wit.vector.copy()
    vector[30] = c * d.values[29]  # carries the whole tail from Y_30 on
    vector[31:] = 0.0
    profile = separation_profile(chain)
    tilde = compute_tilde_a([(build_index_plan(d, profile), profile)])
    report = sandwich_check(dataclasses.replace(wit, vector=vector),
                            chain, d, c, tilde)
    assert [row.n for row in report.rows if not row.passed] == list(range(31, 41))
    assert all(row.achieved == 0.0 for row in report.rows[30:])
    assert not report.overall_passed
