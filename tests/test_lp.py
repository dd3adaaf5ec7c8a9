import collections
import dataclasses
import functools
import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from inattention import brp, predict, sbrp
from inattention import lp as lp_module
from inattention.errors import NumericalFailure
from inattention.lp import LinearProgram, LpBasis, LpSolution, LpStatus, solve_lp

# HiGHS at feasibility tolerances near the in-house 1e-9, for comparisons at
# 1e-9 relative; its 1e-7 default leaves gaps of that order on margin LPs.
TIGHT_HIGHS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def scipy_optimum(lp, options=None):
    """Independent optimum from a different solver family (HiGHS)."""
    if lp.num_rows:
        a, b = lp.dense_rows()
        res = linprog(
            -lp.objective,
            A_ub=a,
            b_ub=b,
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
            options=options,
        )
    else:
        res = linprog(
            -lp.objective,
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
            options=options,
        )
    return res


class TestExamples:
    def test_simple_bound(self):
        lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[2.0])
        lp.add_leq([1.0], 1.0)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[2.0])
        lp.add_leq([1.0], -1.0)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.INFEASIBLE

    def test_tie_break_prefers_lowest_index(self):
        # max x + y, x + y <= 1: the documented rule enters x first.
        lp = LinearProgram(objective=[1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
        lp.add_leq([1.0, 1.0], 1.0)
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sol.point, [1.0, 0.0], atol=1e-12)

    def test_a_solve_ends_optimal_or_infeasible(self):
        # Every variable is boxed, so no program is unbounded; numerical
        # trouble raises NumericalFailure instead of taking a status.
        assert [status.name for status in LpStatus] == ["OPTIMAL", "INFEASIBLE"]

    def test_a_solve_optimal_at_its_start_counts_no_iteration(self):
        # Iterations count steps (pivots and bound flips), not pricing passes.
        assert solve_lp(LinearProgram([-1.0], [0.0], [1.0])).iterations == 0

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], lower=[0.0], upper=[np.inf])

    @pytest.mark.parametrize(
        "objective, lower, upper",
        [
            ([1.0, 1.0], [0.0], [1.0, 1.0]),
            ([1.0], [0.0], [1.0, 2.0]),
            ([np.nan], [0.0], [1.0]),
            ([1.0], [2.0], [1.0]),
        ],
        ids=["lower of another length", "upper of another length", "nan objective",
             "lower above upper"],
    )
    def test_malformed_program_rejected(self, objective, lower, upper):
        with pytest.raises(ValueError):
            LinearProgram(objective=objective, lower=lower, upper=upper)

    @pytest.mark.parametrize("coeffs, rhs", [([np.inf], 1.0), ([1.0], np.nan)])
    def test_non_finite_row_rejected(self, coeffs, rhs):
        lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[1.0])
        with pytest.raises(ValueError):
            lp.add_leq(coeffs, rhs)

    def test_program_without_variables_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(LinearProgram(objective=[], lower=[], upper=[]))

    def test_equality_rows(self):
        lp = LinearProgram(objective=[1.0, 0.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
        lp.add_eq([1.0, 1.0], 1.0)
        sol = solve_lp(lp)
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.point[0] + sol.point[1] == pytest.approx(1.0, abs=1e-9)


def _defect(what: str) -> str:
    """The one message of a program that did not end optimal, as a pattern."""
    return re.escape(
        f"{what} reported infeasible; the program is feasible by construction, "
        "so this is a solver defect, not a verdict"
    )


def _fit(fit):
    """A setup that binds ``fit`` to the dataset."""
    return lambda d: functools.partial(fit, d)


def _after(first, fit):
    """A setup that runs ``first`` on the dataset, then binds ``fit`` to it."""

    def setup(d):
        first(d)
        return functools.partial(fit, d)

    return setup


def _query(d):
    """A query on a fresh family: it solves its interval's midpoint, then its
    own first program, then the refinement."""
    return functools.partial(predict.predict_at, predict.fit_family(d, [1.0, 1.1]), 1.05)


# Each place the package solves a program: (the module whose solve_lp it
# calls, a setup on a dataset returning the call, the solves before that
# program's, what its failure names).
SOLVE_SITES = {
    "umri margin stage": (brp, _fit(brp.brp_max_margin), 0, "feasibility program"),
    "umri sparsity stage": (
        brp, _after(brp.brp_max_margin, brp.brp_sparsest), 0, "feasibility program"
    ),
    "s-umri anchor stage": (sbrp, _fit(sbrp.sbrp_max_margin), 0, "s-UMRI anchor stage"),
    "s-umri sensitivity stage": (
        sbrp, _fit(sbrp.sbrp_max_margin), 1, "s-UMRI sensitivity stage"
    ),
    "s-umri utility stage": (
        sbrp, _after(sbrp.sbrp_max_margin, sbrp.sbrp_sparsest), 0, "s-UMRI utility stage"
    ),
    "prediction program": (predict, _query, 1, "prediction program"),
    "prediction refinement": (predict, _query, 2, "prediction refinement"),
}


class TestRequireOptimal:
    def test_an_optimal_solution_comes_back_unchanged(self):
        lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[2.0])
        sol = solve_lp(lp)
        assert sol.require_optimal("toy program") is sol

    def test_an_infeasible_one_is_a_numerical_failure_naming_the_program(self):
        lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[2.0])
        lp.add_leq([1.0], -1.0)
        with pytest.raises(NumericalFailure, match=f"^{_defect('toy program')}$"):
            solve_lp(lp).require_optimal("toy program")

    @pytest.mark.parametrize("site", sorted(SOLVE_SITES))
    def test_every_program_the_package_solves_holds_the_contract(self, d2, monkeypatch, site):
        module, setup, solved, what = SOLVE_SITES[site]
        call, solve, calls = setup(d2), module.solve_lp, []

        def reported_infeasible(lp, start=None):
            calls.append(lp)
            if len(calls) > solved:
                return LpSolution(LpStatus.INFEASIBLE)
            return solve(lp, start=start)

        monkeypatch.setattr(module, "solve_lp", reported_infeasible)
        with pytest.raises(NumericalFailure, match=f"^{_defect(what)}$"):
            call()
        assert len(calls) == solved + 1


class TestInvariants:
    def test_objective_scaling_keeps_point(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lp1 = random_lp(rng)
            lp2 = LinearProgram(3.0 * lp1.objective, lp1.lower, lp1.upper)
            lp2.add_leq(lp1.a, lp1.b)
            s1, s2 = solve_lp(lp1), solve_lp(lp2)
            if s1.status is LpStatus.OPTIMAL:
                assert s2.status is LpStatus.OPTIMAL
                assert np.array_equal(s1.point, s2.point)
                assert s2.objective_value == pytest.approx(
                    3.0 * s1.objective_value, rel=1e-9, abs=1e-12
                )

    def test_duplicated_constraint_keeps_point(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            lp1 = random_lp(rng)
            lp2 = LinearProgram(lp1.objective, lp1.lower, lp1.upper)
            lp2.add_leq(lp1.a, lp1.b)
            lp2.add_leq(lp1.a[:1], lp1.b[:1])
            s1, s2 = solve_lp(lp1), solve_lp(lp2)
            assert s1.status == s2.status
            if s1.status is LpStatus.OPTIMAL:
                assert np.allclose(s1.point, s2.point, atol=1e-12)

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status is LpStatus.OPTIMAL:
                a, b = lp.dense_rows()
                assert np.all(a @ sol.point <= b + 1e-9)
                assert np.all(sol.point >= lp.lower - 1e-12)
                assert np.all(sol.point <= lp.upper + 1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        lp = random_lp(rng)
        s1 = solve_lp(lp)
        s2 = solve_lp(lp)
        assert s1.status == s2.status
        if s1.status is LpStatus.OPTIMAL:
            assert np.array_equal(s1.point, s2.point)


def random_lp(rng, n=None, m=None):
    n = n or int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(0, 9))
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.1, 3.0, size=n)
    lp = LinearProgram(rng.normal(size=n), lower, upper)
    for _ in range(m):
        coeffs = rng.normal(size=n)
        coeffs[rng.random(n) < 0.3] = 0.0
        lp.add_leq(coeffs, float(rng.normal()))
    return lp


def larger_lp(rng):
    """Up to 12 variables and 30 rows, up to three of them equality pairs.
    Every row holds at a random point of the box up to an offset drawn
    around +0.5, so the equality rows hold there and some inequality rows
    may not: a little over half the draws are feasible."""
    n = int(rng.integers(1, 13))
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.1, 3.0, size=n)
    lp = LinearProgram(rng.normal(size=n), lower, upper)
    center = rng.uniform(lower, upper)
    pairs = int(rng.integers(0, 4))
    rows = rng.normal(size=(int(rng.integers(0, 31 - 2 * pairs)), n))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    lp.add_leq(rows, rows @ center + rng.normal(0.5, 0.5, size=rows.shape[0]))
    equal = rng.normal(size=(pairs, n))
    lp.add_eq(equal, equal @ center)
    return lp


def _matches_reference_solver(lp):
    """Assert the solve's status and optimum are HiGHS's; returns the status."""
    sol = solve_lp(lp)
    ref = scipy_optimum(lp)
    if sol.status is LpStatus.OPTIMAL:
        assert ref.status == 0
        scale = max(1.0, abs(ref.fun))
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-8 * scale)
    elif sol.status is LpStatus.INFEASIBLE:
        assert ref.status == 2
    else:
        pytest.fail("finite boxes cannot be unbounded")
    return sol.status


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_matches_reference_solver(seed):
    _matches_reference_solver(random_lp(np.random.default_rng(seed)))


def test_matches_reference_solver_on_larger_programs():
    statuses = [
        _matches_reference_solver(larger_lp(np.random.default_rng(seed)))
        for seed in range(60)
    ]
    # Both ends of a solve are exercised: the optimum and the proof that
    # no point satisfies the rows.
    assert statuses.count(LpStatus.OPTIMAL) >= 20
    assert statuses.count(LpStatus.INFEASIBLE) >= 20


def _apart(lp):
    """A program equal to ``lp`` but built anew: no solve's final state
    carries into it, so a warm run on it rebuilds its start."""
    out = LinearProgram(lp.objective, lp.lower, lp.upper)
    out.add_leq(lp.a, lp.b)
    return out


def _bare(basis):
    """``basis`` without the final state of the solve that ended on it: a
    run rebuilds it from its program's rows."""
    return dataclasses.replace(basis)


def _extended(lp, point, rng, count):
    """A fresh copy of ``lp`` with ``count`` random rows appended, each
    violated at ``point`` (the old optimum) by up to 0.5."""
    out = lp.copy()
    for _ in range(count):
        row = rng.normal(size=lp.num_vars)
        out.add_leq(row, float(row @ point - rng.uniform(0.0, 0.5)))
    return out


class TestRowStorage:
    def test_rows_are_read_only_and_full_length(self):
        lp = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        lp.add_leq(np.array([2.0, 0.0, -1.5]), 1.0)
        for stored in (lp.a, lp.b, lp.objective, lp.lower, lp.upper):
            with pytest.raises(ValueError):
                stored[0] = 3.0
        with pytest.raises(ValueError):
            lp.add_leq([2.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            lp.add_leq(np.zeros((2, 2)), 1.0)

    def test_block_rows_match_rows_appended_one_at_a_time(self):
        rows = np.array([[2.0, -0.0, -1.5], [0.0, 1.0, -0.0], [-3.0, 0.5, 4.0]])
        rhs = np.array([1.0, -0.0, 2.5])
        block = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        block.add_leq(rows[:1], rhs[:1])
        block.add_leq(rows[1:], rhs[1:])
        single = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        for row, bound in zip(rows, rhs):
            single.add_leq(row, bound)
        assert block.a.tobytes() == single.a.tobytes()
        assert block.b.tobytes() == single.b.tobytes()
        assert not np.any(np.signbit(block.a[block.a == 0.0]))
        # A scalar rhs stands for every row of the block.
        shared = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        shared.add_leq(rows, 2.0)
        assert np.array_equal(shared.b, [2.0, 2.0, 2.0])

    def test_rhs_needs_one_value_per_row(self):
        lp = LinearProgram([1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            lp.add_leq(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            lp.add_leq(np.eye(2), [1.0])
        with pytest.raises(ValueError):
            lp.add_eq(np.eye(2), [1.0])
        with pytest.raises(ValueError):
            lp.add_leq([1.0, 0.0], [1.0, 2.0])
        assert lp.num_rows == 0

    def test_equality_rows_negate_without_negative_zeros(self):
        lp = LinearProgram([1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_eq(np.array([1.0, 0.0]), 1.0)
        a, b = lp.dense_rows()
        assert np.array_equal(a, [[1.0, 0.0], [-1.0, 0.0]])
        assert not np.signbit(a[1, 1])
        assert np.array_equal(b, [1.0, -1.0])

    def test_equality_block_interleaves_each_row_with_its_negation(self):
        lp = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        lp.add_eq(np.array([[1.0, 0.0, -0.0], [0.0, 2.0, 1.0]]), [1.0, 0.5])
        a, b = lp.dense_rows()
        assert np.array_equal(
            a,
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, -2.0, -1.0]],
        )
        assert not np.any(np.signbit(a[a == 0.0]))
        assert np.array_equal(b, [1.0, -1.0, 0.5, -0.5])

    def test_a_program_derived_for_a_new_objective_stores_read_only_copies(self):
        base = LinearProgram([1.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        base.add_leq([1.0, 1.0, 0.0], 1.0)
        objective = np.array([0.0, -1.0, 2.0])
        rows = np.asfortranarray([[-0.0, 1.0, -1.0], [2.0, -0.0, 0.5]])
        rhs = np.array([0.5, 2.0])
        derived = base._maximizing(objective)
        derived.add_leq(rows, rhs)
        # A first block on a program with no rows is stored as one too.
        fresh = LinearProgram(objective, [0.0] * 3, [1.0] * 3)
        fresh.add_leq(rows, rhs)
        assert derived.lower is base.lower and derived.upper is base.upper
        assert np.array_equal(base.objective, [1.0, 0.0, 0.0]) and base.num_rows == 1
        assert derived.a[1:].tobytes() == fresh.a.tobytes()
        stored = [derived.objective, derived.a, derived.b, fresh.objective, fresh.a, fresh.b]
        for arr in stored:
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous
        assert not np.any(np.signbit(fresh.a[fresh.a == 0.0]))
        before = [arr.tobytes() for arr in stored]
        objective[:], rows[:], rhs[:] = 7.0, 7.0, 7.0
        assert [arr.tobytes() for arr in stored] == before
        for bad in ([1.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
            with pytest.raises(ValueError):
                base._maximizing(bad)

    def test_copy_shares_rows_but_appends_apart(self):
        lp = LinearProgram([1.0], [0.0], [2.0])
        lp.add_leq([1.0], 1.0)
        solved = solve_lp(lp)
        copy = lp.copy()
        assert copy.a is lp.a and copy.b is lp.b
        copy.add_leq([2.0], 1.0)
        copy.add_eq([1.0], 0.25)
        assert (lp.num_rows, copy.num_rows) == (1, 4)
        assert np.array_equal(copy.a[:1], lp.a)
        assert np.array_equal(lp.a, [[1.0]]) and np.array_equal(lp.b, [1.0])
        assert solve_lp(lp).point.tobytes() == solved.point.tobytes()


class TestWarmStart:
    def test_appended_row_cuts_off_the_old_optimum(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        cut = lp.copy()
        cut.add_leq([2.0, 1.0], 2.0)
        warm = solve_lp(cut, start=first.basis)
        assert warm.warm and not first.warm
        assert warm.objective_value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert np.allclose(warm.point, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_warm_matches_cold_and_reference_on_random_programs(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(80):
            lp = random_lp(rng, m=int(rng.integers(1, 6)))
            first = solve_lp(lp)
            if first.status is not LpStatus.OPTIMAL:
                continue
            grown = _extended(lp, first.point, rng, int(rng.integers(1, 5)))
            warm, cold = solve_lp(grown, start=first.basis), solve_lp(grown)
            assert warm.status is cold.status
            if cold.status is not LpStatus.OPTIMAL:
                continue
            ref = scipy_optimum(grown, TIGHT_HIGHS)
            scale = max(1.0, abs(ref.fun))
            tol = 1e-9 * scale
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)
            assert warm.objective_value == pytest.approx(-ref.fun, abs=tol)
            checked += 1
        assert checked >= 20

    def test_warm_run_optimizes_the_cold_runs_perturbed_rhs(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        cut = lp.copy()
        cut.add_leq([2.0, 1.0], 2.0)
        cold, warm = lp_module._Simplex(cut), lp_module._Simplex(cut, first.basis)
        cold.begin(), warm.begin()
        assert np.array_equal(warm.b, cold.b)
        assert not np.array_equal(warm.b, cut.b)

    def test_start_must_be_optimal_over_the_same_variables_and_no_more_rows(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        lp.add_leq([2.0, 1.0], 2.0)
        basis = solve_lp(lp).basis
        fewer_vars = LinearProgram([1.0], [0.0], [1.0])
        fewer_vars.add_leq([[1.0], [2.0], [3.0]], [2.0, 2.0, 2.0])
        more_rows = LinearProgram(lp.objective, lp.lower, lp.upper)
        more_rows.add_leq(lp.a[:1], lp.b[:1])
        for bad in (fewer_vars, more_rows):
            with pytest.raises(ValueError):
                solve_lp(bad, start=basis)
        # A bare basis: a bound code for each variable and each of its rows,
        # over no more rows than the program has.
        short_status = LpBasis(basis.basic, basis.status[:-1])
        more_basic = LpBasis(np.arange(2, 5), np.zeros(5, dtype=np.int8))
        for bad in (short_status, more_basic):
            with pytest.raises(ValueError):
                solve_lp(lp, start=bad)

    def test_start_from_any_program_over_the_same_variables_matches_cold(self):
        # Other rows, other rhs, another objective or other bounds: the
        # start's basis is rebuilt from the new rows, and where it is not
        # dual feasible there the first dual pass runs on shifted costs.
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        lp.add_leq([2.0, 1.0], 2.0)
        start = solve_lp(lp)

        def program(rows, rhs, objective=lp.objective, upper=lp.upper):
            out = LinearProgram(objective, lp.lower, upper)
            out.add_leq(rows, rhs)
            return out

        others = [
            program([[1.0, 1.0], *lp.a], [1.5, *lp.b]),  # a row before the start's
            program(lp.a[::-1], lp.b[::-1]),  # the start's rows reordered
            program(lp.a, [lp.b[0], 3.0]),  # another rhs
            program(lp.a, lp.b, objective=[1.0, 2.0]),  # another objective
            program(lp.a, lp.b, upper=[1.0, 2.0]),  # other bounds
        ]
        for other in others:
            warm, cold = solve_lp(other, start=start.basis), solve_lp(other)
            assert warm.status is cold.status is LpStatus.OPTIMAL
            assert warm.objective_value == pytest.approx(
                cold.objective_value, abs=1e-12
            )
        # An equal program that is a different object extends the start.
        rebuilt = program(lp.a, lp.b)
        assert solve_lp(rebuilt, start=start.basis).warm

        # A program over an 11 x 4 x 4 first prediction program's rows plus
        # its objective-slack row, maximizing accuracy over the optimal face,
        # warm from the first optimum: primal feasible, not dual feasible.
        from conftest import make_noise_family
        from inattention import predict

        etas, d, _ = make_noise_family(seed=0, num_classes=4)
        family = predict.fit_family(d, etas)
        pivoted = 0
        for eta in (1.025, 1.325, 1.675, 1.975):
            first_lp = predict._first_program(
                family, predict.interpolate_utility(family, eta)
            )
            first = solve_lp(first_lp)
            accuracy = np.append((d.prior[:, None] * np.eye(4)).ravel(), 0.0)
            face = LinearProgram(accuracy, first_lp.lower, first_lp.upper)
            kept = first.objective_value - predict._OBJECTIVE_SLACK
            face.add_leq(
                np.vstack([first_lp.a, -first_lp.objective]), np.append(first_lp.b, -kept)
            )
            warm = solve_lp(face, start=first.basis)
            ref = scipy_optimum(face, TIGHT_HIGHS)
            assert warm.warm and warm.is_optimal and ref.status == 0
            assert warm.objective_value == pytest.approx(-ref.fun, rel=1e-9)
            pivoted += warm.iterations > 0
        assert pivoted >= 2

    def test_warm_from_a_perturbed_sibling_matches_cold_on_random_programs(self):
        rng = np.random.default_rng(23)
        checked = warm_runs = 0
        for _ in range(80):
            lp = random_lp(rng, m=int(rng.integers(1, 9)))
            a, b = lp.dense_rows()
            sibling = LinearProgram(
                lp.objective + rng.normal(scale=0.1, size=lp.num_vars),
                lp.lower,
                lp.upper + rng.uniform(0.0, 0.2, size=lp.num_vars),
            )
            sibling.add_leq(a + rng.normal(scale=0.1, size=a.shape), b + 0.1)
            start = solve_lp(sibling)
            if not start.is_optimal:
                continue
            warm, cold = solve_lp(lp, start=start.basis), solve_lp(lp)
            assert warm.status is cold.status
            warm_runs += warm.warm
            if cold.status is not LpStatus.OPTIMAL:
                continue
            ref = scipy_optimum(lp, TIGHT_HIGHS)
            tol = 1e-9 * max(1.0, abs(ref.fun))
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)
            assert warm.objective_value == pytest.approx(-ref.fun, abs=tol)
            checked += 1
        assert checked >= 20 and warm_runs >= 20

    def test_slack_basis_with_any_bound_codes_matches_cold_and_reference(self):
        # A bare slack basis over some leading rows, the rest's slacks
        # entering basic, each variable at a random bound: B = I is never
        # singular or ill-conditioned, so the run stays warm.
        rng = np.random.default_rng(47)
        seen = collections.Counter()
        for draw in range(120):
            lp = (random_lp, larger_lp)[draw % 2](rng)
            n, m = lp.num_vars, lp.num_rows
            rows = int(rng.integers(0, m + 1))
            status = np.zeros(n + rows, dtype=np.int8)
            status[:n] = rng.integers(0, 2, size=n)
            start = LpBasis(np.arange(n, n + rows), status)
            warm, cold = solve_lp(lp, start=start), solve_lp(lp)
            assert warm.warm and warm.status is cold.status
            ref = scipy_optimum(lp, TIGHT_HIGHS)
            if cold.is_optimal:
                assert ref.status == 0
                tol = 1e-9 * max(1.0, abs(ref.fun))
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)
                assert warm.objective_value == pytest.approx(-ref.fun, abs=tol)
            else:
                assert ref.status == 2
            seen[warm.status, rows < m] += 1
        assert seen[LpStatus.OPTIMAL, True] >= 10 and seen[LpStatus.OPTIMAL, False] >= 10
        assert seen[LpStatus.INFEASIBLE, True] + seen[LpStatus.INFEASIBLE, False] >= 20

    def test_start_basis_singular_on_the_new_rows_falls_back_cold(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([[1.0, 2.0], [2.0, 1.0]], 2.0)
        start = solve_lp(lp)  # both structurals basic, both slacks nonbasic
        assert sorted(start.basis.basic.tolist()) == [0, 1]
        # The same basis over rows [1, 1] and [2, 2]: an exactly singular block.
        other = LinearProgram(lp.objective, lp.lower, lp.upper)
        other.add_leq([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        again, cold = solve_lp(other, start=start.basis), solve_lp(other)
        assert not again.warm
        # The failed attempt's one rebuild is counted beside the cold run's.
        assert again.refactorizations == cold.refactorizations + 1
        assert again.objective_value == pytest.approx(1.0, abs=1e-12)
        assert again.point.tobytes() == cold.point.tobytes()

    @pytest.mark.parametrize("gap, warm", [(1e-13, False), (1e-6, True)])
    def test_start_basis_ill_conditioned_on_the_new_rows_falls_back_cold(
        self, gap, warm
    ):
        # Rows [1, 1] and [1, 1 + gap]: a block that np.linalg.solve accepts,
        # with κ∞ about 4 / gap; above 1e12 the cold run takes over.
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([[1.0, 2.0], [2.0, 1.0]], 2.0)
        start = solve_lp(lp)
        assert sorted(start.basis.basic.tolist()) == [0, 1]
        other = LinearProgram(lp.objective, lp.lower, lp.upper)
        other.add_leq([[1.0, 1.0], [1.0, 1.0 + gap]], [1.0, 2.0])
        if not warm:
            with pytest.raises(NumericalFailure, match="ill-conditioned"):
                lp_module._Simplex(other, start.basis).begin()
        again, cold = solve_lp(other, start=start.basis), solve_lp(other)
        assert again.warm is warm
        assert again.objective_value == pytest.approx(1.0, abs=1e-9)
        if not warm:
            assert again.refactorizations == cold.refactorizations + 1
            assert again.point.tobytes() == cold.point.tobytes()

    def test_long_warm_run_that_rebuilds_an_ill_conditioned_basis_falls_back_cold(
        self, monkeypatch
    ):
        # The modal start of an 11 x 4 x 4 margin stage: a slack basis, with
        # no block to check at its start, whose run takes more than
        # _REFACTOR_EVERY steps.  With the bound at 1, its first rebuild past
        # them refuses the basis and the cold run takes over.
        from conftest import make_noise_family
        from inattention import brp

        d = make_noise_family(0, 11, 4)[1]
        program = brp._BrpProgram(d, brp._seed_cuts(d))
        lp = program.build()
        start = program.modal_start(lp)
        warm, cold = solve_lp(lp, start=start), solve_lp(lp)
        assert warm.warm and warm.iterations > lp_module._REFACTOR_EVERY
        monkeypatch.setattr(lp_module, "_MAX_CONDITION", 1.0)
        again = solve_lp(lp, start=start)
        assert not again.warm
        assert again.iterations > cold.iterations + lp_module._REFACTOR_EVERY
        assert again.point.tobytes() == cold.point.tobytes()

    def test_numerical_failure_falls_back_to_the_cold_solve(self, monkeypatch):
        # A start carried into a program that extends its own and one
        # rebuilt from an equal program built apart.
        rng = np.random.default_rng(3)
        lp = random_lp(rng, n=4, m=0)
        first = solve_lp(lp)
        grown = _extended(lp, first.point, rng, 2)
        cold = solve_lp(grown)
        begin, taken = lp_module._Simplex.begin, []

        def fail(self):
            if self.start is None:  # the cold run
                return begin(self)
            taken.append(self.start._extended_by(self.lp))
            self.iterations, self.refactorizations = 5, 2
            raise NumericalFailure("injected")

        for carried, program in ((True, grown), (False, _apart(grown))):
            taken.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lp_module._Simplex, "begin", fail)
                retried = solve_lp(program, start=first.basis)
            assert taken == [carried]
            assert not retried.warm
            assert retried.status is cold.status
            assert retried.iterations == cold.iterations + 5
            assert retried.refactorizations == cold.refactorizations + 2
            if cold.status is LpStatus.OPTIMAL:
                assert np.array_equal(retried.point, cold.point)

    def test_start_that_is_not_dual_feasible_runs_warm(self):
        from dataclasses import replace

        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([2.0, 1.0], 2.5)
        first = solve_lp(lp)  # x = 0.75 basic, y nonbasic at its upper bound
        assert first.basis.basic.tolist() == [0] and first.basis.status[1] == 1
        # y at its lower bound, where raising it gains 1 - 1/2 per unit: the
        # first dual pass runs on y's cost shifted by that gain.
        basis = replace(first.basis, status=np.array([0, 0, 0], dtype=np.int8))
        grown = lp.copy()
        grown.add_leq([1.0, 2.0], 2.0)
        again = solve_lp(grown, start=basis)
        cold = solve_lp(grown)
        ref = scipy_optimum(grown, TIGHT_HIGHS)
        assert again.warm and again.iterations > 0
        assert np.allclose(again.point, cold.point, rtol=0.0, atol=1e-12)
        assert np.allclose(again.point, ref.x, rtol=0.0, atol=1e-9)
        assert again.objective_value == pytest.approx(-ref.fun, abs=1e-9)

    def test_first_dual_pass_runs_on_the_shifted_costs(self, monkeypatch):
        # Each movable nonbasic column that would improve the objective at
        # the start has its reduced cost taken off its cost, which leaves the
        # start dual feasible; at the cold slack basis that is min(c, 0).
        rng = np.random.default_rng(29)
        dual = lp_module._Simplex._dual
        seen = collections.Counter()

        def checked(self, cost):
            if "first_cost" not in self.__dict__:  # the run's first pass
                self.first_cost = cost
                reduced = self._reduced_costs(cost)
                assert not (self.movable & (self.direction * reduced > 1e-9)).any()
                if self.start is None:
                    expected = np.minimum(self.obj, 0.0)
                    assert np.array_equal(cost, expected)
                seen[self.start is None, cost is self.obj] += 1
            return dual(self, cost)

        monkeypatch.setattr(lp_module._Simplex, "_dual", checked)
        for _ in range(40):
            lp = random_lp(rng, m=int(rng.integers(1, 8)))
            a, b = lp.dense_rows()
            sibling = LinearProgram(
                lp.objective + rng.normal(scale=0.3, size=lp.num_vars),
                lp.lower,
                lp.upper,
            )
            sibling.add_leq(a + rng.normal(scale=0.1, size=a.shape), b + 0.1)
            downhill = LinearProgram(-np.abs(lp.objective), lp.lower, lp.upper)
            downhill.add_leq(a, b)
            solve_lp(downhill)
            start, first = solve_lp(sibling), solve_lp(lp)
            if start.is_optimal:
                solve_lp(lp, start=start.basis)
            if first.is_optimal:
                solve_lp(_extended(lp, first.point, rng, 2), start=first.basis)
        # Shifted and unshifted starts, warm and cold.
        assert all(seen[key] >= 5 for key in itertools.product([True, False], repeat=2))

    def test_kept_value_off_its_box_is_repaired_warm(self):
        from dataclasses import replace

        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([2.0, 1.0], 2.5)
        first = solve_lp(lp)
        # The slack basic with x and y at their upper bounds: dual feasible,
        # but the kept slack is 2.5 - 3 = -0.5, below its box.
        basis = replace(
            first.basis, basic=np.array([2]), status=np.array([1, 1, 0], dtype=np.int8)
        )
        grown = lp.copy()
        grown.add_leq([1.0, 2.0], 2.0)
        again = solve_lp(grown, start=basis)
        cold = solve_lp(grown)
        ref = scipy_optimum(grown, TIGHT_HIGHS)
        assert again.warm
        assert np.allclose(again.point, cold.point, rtol=0.0, atol=1e-12)
        assert np.allclose(again.point, ref.x, rtol=0.0, atol=1e-9)
        assert again.objective_value == pytest.approx(1.5, abs=1e-12)

    def test_appended_row_that_already_holds_costs_no_iteration(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        grown = lp.copy()
        grown.add_leq([1.0, 1.0], 5.0)
        again = solve_lp(grown, start=first.basis)
        assert again.warm and again.iterations == 0
        assert again.point.tobytes() == first.point.tobytes()

    def test_warm_resolve_of_an_optimum_stops_before_any_pass(self, monkeypatch):
        # The start, carried into a copy of its program or rebuilt from an
        # equal program built apart, is dual feasible and its basic values
        # lie in their boxes at the true rhs: the solve returns it as it
        # stands, after the one rebuild of a rebuilt start that holds a
        # structural (a slack basis is B = I: nothing to rebuild).
        rng = np.random.default_rng(19)
        solved = [
            (lp, solve_lp(lp))
            for lp in (make(rng) for _ in range(60) for make in (random_lp, larger_lp))
        ]
        passes = []
        monkeypatch.setattr(lp_module._Simplex, "_pass", lambda *args: passes.append(args))
        checked = rebuilt = 0
        for lp, first in solved:
            if not first.is_optimal:
                continue
            held = int((first.basis.basic < lp.num_vars).any())
            rebuilt += held
            for same, rebuilds in ((lp.copy(), 0), (_apart(lp), held)):
                again = solve_lp(same, start=first.basis)
                assert again.warm and again.is_optimal
                assert (again.iterations, again.refactorizations) == (0, rebuilds)
                assert np.allclose(again.point, first.point, rtol=0.0, atol=1e-12)
            checked += 1
        assert not passes and checked >= 50 and rebuilt >= 10

    def test_appended_row_that_empties_the_program_is_infeasible_warm(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        grown = lp.copy()
        grown.add_leq([-1.0, -1.0], -2.5)  # x + y >= 2.5 in the unit box
        warm = solve_lp(grown, start=first.basis)
        assert warm.warm and warm.status is LpStatus.INFEASIBLE
        assert solve_lp(grown).status is LpStatus.INFEASIBLE
        assert scipy_optimum(grown).status == 2


def _carried(basis: LpBasis) -> list:
    """A basis's arrays, then the final state it keeps (nonbasic order,
    held-row positions, held rows)."""
    return [basis.basic, basis.status, *basis._final[5:]]


class TestCarriedStart:
    """A start whose program ``lp`` extends by appended rows (the same
    objective and bounds objects, the same leading rows and rhs) carries its
    final simplex state over and rebuilds nothing at its start; any other
    start is rebuilt from ``lp``'s rows."""

    @staticmethod
    def _spy_starts(monkeypatch):
        """A list that each warm run's start appends to: whether it
        carries over into the run's program and the rebuilds its engine had
        made by the end of :meth:`_Simplex.begin`."""
        starts, begin = [], lp_module._Simplex.begin

        def spied(self):
            begin(self)
            if self.start is not None:
                starts.append((self.start._extended_by(self.lp), self.refactorizations))

        monkeypatch.setattr(lp_module._Simplex, "begin", spied)
        return starts

    def test_appended_rows_carry_the_start_over(self, monkeypatch):
        # Rows that cut off the old optimum, a row that empties the program
        # (below its least value over the box) or none at all.
        rng = np.random.default_rng(37)
        starts = self._spy_starts(monkeypatch)
        seen = collections.Counter()
        for draw in range(120):
            lp = (random_lp, larger_lp)[draw % 2](rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            kind = ("cut", "empty", "none")[draw % 3]
            grown = lp.copy()
            if kind == "cut":
                grown = _extended(lp, first.point, rng, int(rng.integers(1, 5)))
            elif kind == "empty":
                row = rng.normal(size=lp.num_vars)
                least = np.minimum(row * lp.lower, row * lp.upper).sum()
                grown.add_leq(row, least - rng.uniform(0.01, 0.5))
            starts.clear()
            warm, cold = solve_lp(grown, start=first.basis), solve_lp(grown)
            assert starts == [(True, 0)]
            assert warm.warm and warm.status is cold.status
            ref = scipy_optimum(grown, TIGHT_HIGHS)
            if cold.is_optimal:
                assert ref.status == 0
                tol = 1e-9 * max(1.0, abs(ref.fun))
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)
                assert warm.objective_value == pytest.approx(-ref.fun, abs=tol)
            else:
                assert ref.status == 2
            seen[kind, warm.status] += 1
        assert seen["cut", LpStatus.OPTIMAL] >= 10 and seen["none", LpStatus.OPTIMAL] >= 10
        assert seen["cut", LpStatus.INFEASIBLE] + seen["empty", LpStatus.INFEASIBLE] >= 20

    def test_other_programs_rebuild_the_start(self, monkeypatch):
        # Leading rows or rhs one ulp apart, or equal objective or bounds in
        # other arrays: the carry's test is exact and the start is rebuilt.
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([[1.0, 2.0], [2.0, 1.0]], [2.0, 2.0])
        first = solve_lp(lp)
        starts = self._spy_starts(monkeypatch)

        def appended(**arrays):
            out = lp.copy()
            for name, values in arrays.items():
                setattr(out, name, lp_module._frozen(np.array(values, dtype=float)))
            out.add_leq([1.0, 1.0], 1.25)
            return out

        nudged = np.nextafter(2.0, 3.0)
        others = [
            appended(a=[[1.0, 2.0], [nudged, 1.0]]),
            appended(b=[2.0, nudged]),
            appended(objective=lp.objective),
            appended(lower=lp.lower),
            appended(upper=lp.upper),
            _apart(appended()),
        ]
        for other, carried in [(appended(), True)] + [(other, False) for other in others]:
            starts.clear()
            warm, cold = solve_lp(other, start=first.basis), solve_lp(other)
            assert [taken for taken, _ in starts] == [carried]
            assert warm.warm and warm.is_optimal and cold.is_optimal
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)

    def test_slack_basis_start_is_the_cold_run(self):
        # The cold start is the slack basis at the lower bounds: given as a
        # bare basis it makes the same run, with no rebuild at its start.
        rng = np.random.default_rng(53)
        seen = collections.Counter()
        for draw in range(300):
            lp = (random_lp, larger_lp)[draw % 2](rng)
            n, m = lp.num_vars, lp.num_rows
            start = LpBasis(np.arange(n, n + m), np.zeros(n + m, dtype=np.int8))
            warm, cold = solve_lp(lp, start=start), solve_lp(lp)
            assert warm.warm and warm.status is cold.status
            assert (warm.iterations, warm.refactorizations) == (
                cold.iterations, cold.refactorizations
            )
            if cold.is_optimal:
                assert warm.point.tobytes() == cold.point.tobytes()
            seen[cold.status, cold.refactorizations > 0] += 1
        assert all(seen[key] >= 10 for key in itertools.product(LpStatus, [True, False])), seen

    def test_a_slack_basis_in_any_order_is_read_by_position(self):
        # Position p of a slack basis holds the slack of row basic[p] - n,
        # whichever row that is: here position 0 holds row 1's, which starts
        # at -0.5, and the run must still find x = 0.5.
        lp = LinearProgram([-1.0], [0.0], [2.0])
        lp.add_leq([[1.0], [-1.0]], [1.0, -0.5])
        swapped = solve_lp(lp, start=LpBasis(np.array([2, 1]), np.zeros(3, dtype=np.int8)))
        assert swapped.warm and swapped.is_optimal
        assert swapped.point == pytest.approx([0.5], abs=1e-12)
        rng = np.random.default_rng(61)
        for draw in range(300):
            lp = (random_lp, larger_lp)[draw % 2](rng)
            n, m = lp.num_vars, lp.num_rows
            status = np.zeros(n + m, dtype=np.int8)
            status[:n] = rng.random(n) < 0.5
            start = LpBasis(n + rng.permutation(m), status)
            warm, cold = solve_lp(lp, start=start), solve_lp(lp)
            assert warm.warm and warm.status is cold.status
            if cold.is_optimal:
                tol = 1e-9 * max(1.0, abs(cold.objective_value))
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)

    def test_a_carried_slack_basis_in_any_order_is_read_by_position(self, monkeypatch):
        # Rows slack over the whole box: the optimum from a permuted slack
        # start is a corner, its basis that permuted slack basis.  Rows that
        # cut the corner off then carry it over, B = I, into a run that
        # must pivot.
        rng = np.random.default_rng(67)
        starts = self._spy_starts(monkeypatch)
        checked = 0
        for _ in range(60):
            n, m = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            lower = rng.uniform(-2.0, 0.0, size=n)
            upper = lower + rng.uniform(0.1, 3.0, size=n)
            lp = LinearProgram(rng.normal(size=n), lower, upper)
            rows = rng.normal(size=(m, n))
            most = np.maximum(rows * lower, rows * upper).sum(axis=1)
            lp.add_leq(rows, most + rng.uniform(0.1, 1.0, size=m))
            order = n + rng.permutation(m)
            first = solve_lp(lp, start=LpBasis(order, np.zeros(n + m, dtype=np.int8)))
            assert first.is_optimal and np.array_equal(first.basis.basic, order)
            if np.array_equal(order, np.arange(n, n + m)):
                continue
            grown = _extended(lp, first.point, rng, int(rng.integers(1, 4)))
            starts.clear()
            warm, cold = solve_lp(grown, start=first.basis), solve_lp(grown)
            assert starts == [(True, 0)]
            assert warm.warm and warm.status is cold.status
            if cold.is_optimal:
                tol = 1e-9 * max(1.0, abs(cold.objective_value))
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=tol)
            checked += 1
        assert checked >= 30

    def test_a_solutions_basis_carries_and_an_edited_one_does_not(self, monkeypatch):
        # The final state rides on the basis, so the basis carries it over;
        # a basis edited with dataclasses.replace keeps none.
        rng = np.random.default_rng(59)
        starts = self._spy_starts(monkeypatch)
        checked = 0
        for _ in range(40):
            lp = larger_lp(rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            grown = _extended(lp, first.point, rng, 3)
            starts.clear()
            assert solve_lp(grown, start=first.basis).warm
            assert starts == [(True, 0)]
            edited = dataclasses.replace(first.basis, status=first.basis.status.copy())
            starts.clear()
            solve_lp(grown, start=edited)
            held = int((first.basis.basic < lp.num_vars).any())
            assert starts == [(False, held)]
            checked += held
        assert checked >= 10

    def test_a_start_used_twice_gives_byte_equal_solutions(self):
        rng = np.random.default_rng(41)
        pivoted = 0
        for _ in range(40):
            lp = larger_lp(rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            basis = first.basis
            kept = [value.tobytes() for value in _carried(basis)]
            grown = _extended(lp, first.point, rng, 3)
            once, twice = solve_lp(grown, start=first.basis), solve_lp(grown, start=first.basis)
            assert once.warm and twice.warm
            assert once.status is twice.status
            assert (once.iterations, once.refactorizations) == (
                twice.iterations, twice.refactorizations
            )
            if once.is_optimal:
                assert once.point.tobytes() == twice.point.tobytes()
                assert once.basis.basic.tobytes() == twice.basis.basic.tobytes()
                assert once.basis.status.tobytes() == twice.basis.status.tobytes()
                assert once.basis._final[7].tobytes() == twice.basis._final[7].tobytes()
            # Nothing is consumed: the start's state is as it was.
            assert [value.tobytes() for value in _carried(basis)] == kept
            pivoted += once.iterations > 0
        assert pivoted >= 10


def _all_rows_binding_lp(rng, m):
    """m variables and m rows, all binding at the unique optimum, a point
    inside the box: the optimal basis holds every structural and no slack."""
    rows = rng.normal(size=(m, m))
    center = rng.uniform(0.2, 0.8, size=m)
    lp = LinearProgram(rows.T @ rng.uniform(0.5, 1.5, size=m), np.zeros(m), np.ones(m))
    lp.add_leq(rows, rows @ center)
    return lp


def _dense(engine):
    """B⁻¹N and the basic values of ``engine``'s basis, from a dense solve
    with the whole basis matrix."""
    cols = np.hstack([engine.a, np.eye(engine.m)])
    nonbasic = engine.x.copy()
    nonbasic[engine.basis] = 0.0
    rhs = engine.b - cols @ nonbasic
    dense = np.linalg.solve(
        cols[:, engine.basis], np.column_stack([cols[:, engine.nonbasic], rhs])
    )
    return dense[:, :-1], dense[:, -1]


def _assert_tableau(engine, tableau):
    """``engine``'s held rows, every derived slack row and every derived
    column equal ``tableau`` within 1e-9, over a consistent layout: each
    held row at a basic structural's position, with that column of A."""
    n, m, r = engine.n, engine.m, engine.r
    owner = engine.owner[:r]
    assert np.array_equal(np.sort(owner), np.flatnonzero(engine.basis < n))
    assert np.array_equal(engine.where[owner], m + np.arange(r))
    slack = np.flatnonzero(engine.basis >= n)
    assert np.array_equal(engine.where[slack], engine.basis[slack] - n)
    assert np.array_equal(engine.a_s[:r], engine.a[:, engine.basis[owner]].T)
    assert np.array_equal(engine.picked, np.minimum(engine.nonbasic, n))
    held = tableau[owner]
    assert np.allclose(engine.rows[:r], held, rtol=0.0, atol=1e-9)
    rows = np.array([engine._row(p) for p in range(m)]).reshape(m, n)
    columns = np.array([engine._column(k) for k in range(n)]).reshape(n, m).T
    assert np.allclose(rows, tableau, rtol=0.0, atol=1e-9)
    assert np.allclose(columns, tableau, rtol=0.0, atol=1e-9)


class TestBlockRebuild:
    """The rebuild through the basic-structural block, and every pivot
    after it, give the rows and columns of B⁻¹N and the basic values of a
    dense solve with the whole basis matrix."""

    @staticmethod
    def _rebuild_matches_dense(engine):
        """Rebuild ``engine``'s held rows and assert them, the derived rows
        and columns and the basic values against the dense solve; returns
        r, the basic structurals' count."""
        tableau, values = _dense(engine)
        # The rebuild reads neither the old rows nor the old basic values.
        engine.rows[:] = np.nan
        engine.x[engine.basis] = np.nan
        engine._refactorize()
        assert engine.rows.shape == (min(engine.m, engine.n), engine.n)
        _assert_tableau(engine, tableau)
        assert np.allclose(engine.x[engine.basis], values, rtol=0.0, atol=1e-9)
        return engine.r

    @pytest.mark.parametrize("seed", range(5))
    def test_slack_basis(self, seed):
        lp = random_lp(np.random.default_rng(seed), n=4, m=6)
        engine = lp_module._Simplex(lp)
        engine.begin()
        # The cold start holds no row: every row is A's own.
        _assert_tableau(engine, _dense(engine)[0])
        assert self._rebuild_matches_dense(engine) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_every_slack_nonbasic(self, seed):
        lp = _all_rows_binding_lp(np.random.default_rng(seed), 6)
        solution = solve_lp(lp)
        engine = lp_module._Simplex(lp, _bare(solution.basis))
        engine.begin()
        assert self._rebuild_matches_dense(engine) == lp.num_rows

    def test_warm_basis_with_appended_rows(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            lp = random_lp(rng, m=int(rng.integers(1, 6)))
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            grown = _extended(lp, first.point, rng, int(rng.integers(1, 5)))
            engine = lp_module._Simplex(grown, _bare(first.basis))
            engine.begin()
            # The appended rows' slacks are basic, so r <= the old row count.
            assert 0 <= self._rebuild_matches_dense(engine) <= lp.num_rows
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("make", [random_lp, larger_lp])
    def test_reduced_costs_with_costed_basic_slacks(self, make):
        # A shifted cost can put a cost on a slack that then turns basic;
        # the reduced costs read it off that slack's derived row.
        rng = np.random.default_rng(31)
        mixed = 0
        for _ in range(30):
            lp = make(rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            engine = lp_module._Simplex(lp, _bare(first.basis))
            engine.begin()
            tableau = _dense(engine)[0]
            for slack_costs in (False, True):
                cost = rng.normal(size=engine.n + engine.m)
                cost[engine.n :] *= slack_costs
                expected = cost[engine.nonbasic] - cost[engine.basis] @ tableau
                reduced = engine._reduced_costs(cost)
                assert np.allclose(reduced, expected, rtol=0.0, atol=1e-9)
            mixed += 0 < engine.r < engine.m
        assert mixed >= 5

    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("make", [random_lp, larger_lp])
    def test_tableau_after_every_pivot(self, monkeypatch, make, block):
        # Rank-one updates of the held rows, appends and drops included, keep
        # every row and column at B⁻¹N, as rebuilds do; blocks of two rows
        # split the update into several, as paper-scale programs do.
        if block is not None:
            monkeypatch.setattr(lp_module, "_UPDATE_ROWS", block)
        seen = collections.Counter()
        apply_step, rebuild = lp_module._Simplex._apply_step, lp_module._Simplex._refactorize

        def checked(self, k, step, row, upper):
            if row is None:
                return apply_step(self, k, step, row, upper)
            # (a structural enters, a structural leaves)
            kind = (self.nonbasic[k] < self.n, self.basis[row] < self.n)
            apply_step(self, k, step, row, upper)
            tableau, _ = _dense(self)
            _assert_tableau(self, tableau)
            assert np.allclose(self.pivot_row, tableau[row], rtol=0.0, atol=1e-9)
            seen[kind] += 1

        def rebuilt(self):
            rebuild(self)
            _assert_tableau(self, _dense(self)[0])
            seen["rebuilds"] += 1

        monkeypatch.setattr(lp_module._Simplex, "_apply_step", checked)
        monkeypatch.setattr(lp_module._Simplex, "_refactorize", rebuilt)
        for seed in range(100):
            solve_lp(make(np.random.default_rng(seed)))
        kinds = itertools.product([False, True], repeat=2)
        assert all(seen[kind] >= 10 for kind in kinds), seen
        assert sum(seen.values()) - seen["rebuilds"] >= 200 and seen["rebuilds"] >= 100

    def test_basic_values_after_the_rhs_restore(self, monkeypatch):
        # Only the final dual pass runs on the true rhs; on entry its basic
        # values are read off the held rows the primal pass left rebuilt,
        # which are kept, not rebuilt again.
        restored = []
        optimize, dual = lp_module._Simplex._optimize, lp_module._Simplex._dual

        def optimized(self):
            optimize(self)
            self.rebuilt_by_primal = self.refactorizations

        def checked(self, cost):
            if self.b is self.b_true:
                tableau, values = _dense(self)
                _assert_tableau(self, tableau)
                assert np.allclose(self.x[self.basis], values, rtol=0.0, atol=1e-9)
                assert self.refactorizations == self.rebuilt_by_primal
                restored.append(self.r)
            return dual(self, cost)

        monkeypatch.setattr(lp_module._Simplex, "_optimize", optimized)
        monkeypatch.setattr(lp_module._Simplex, "_dual", checked)
        for seed in range(100):
            for make in (random_lp, larger_lp):
                solve_lp(make(np.random.default_rng(seed)))
        # Restores with basic structurals and basic slacks alike.
        assert len(restored) >= 100 and max(restored) >= 5

    def test_refactorizations_count_every_rebuild(self, monkeypatch):
        rebuilds = []
        rebuild = lp_module._Simplex._refactorize

        def counted(self):
            rebuilds.append(self)
            rebuild(self)

        monkeypatch.setattr(lp_module._Simplex, "_refactorize", counted)
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        # The primal pass's pivot is confirmed on a rebuilt tableau; the
        # restore of the true rhs reads the basic values off it and is no
        # rebuild.
        assert first.refactorizations == len(rebuilds) >= 1
        grown = lp.copy()
        grown.add_leq([2.0, 1.0], 2.0)
        rebuilds.clear()
        again = solve_lp(grown, start=first.basis)
        # A start carried into the program it extends rebuilds nothing: the
        # one rebuild confirms the dual pass's pivot.
        assert again.warm and again.refactorizations == len(rebuilds) == 1
        rebuilds.clear()
        again = solve_lp(_apart(grown), start=first.basis)
        # A start rebuilt from another program's rows is rebuilt too.
        assert again.warm and again.refactorizations == len(rebuilds) == 2

    def test_every_basis_solve_is_a_counted_rebuild(self, monkeypatch):
        # The restore of the true rhs and the warm start's optimality test
        # read the basic values off the rebuilt tableau: every LU solve in a
        # run is one of its counted rebuilds.
        calls, solve = [], np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        rng = np.random.default_rng(17)
        runs = collections.Counter()
        for _ in range(60):
            for make in (random_lp, larger_lp):
                lp = make(rng)
                calls.clear()
                first = solve_lp(lp)
                assert len(calls) == first.refactorizations
                if not first.is_optimal:
                    continue
                grown = _extended(lp, first.point, rng, int(rng.integers(0, 4)))
                calls.clear()
                again = solve_lp(grown, start=first.basis)
                assert len(calls) == again.refactorizations
                runs["warm", again.warm] += 1
        assert runs["warm", True] >= 40, runs


def _reference_rebuild(engine):
    """The held rows, ``a_s`` and basic values of ``engine``'s basis, written
    out in full: zero-fill the whole m×(n+1) block [N | rhs], scatter every
    nonbasic column into it, solve its R rows against A[R, S], S in the held
    rows' order, and take a basic slack's value off its row less A[:, S]
    x_S.  It hands LAPACK and BLAS the same matrices as
    :meth:`_Simplex._refactorize`, so their bytes must agree."""
    n, m = engine.n, engine.m
    structural = engine.nonbasic < n
    columns = np.zeros((m, n + 1))
    columns[:, np.flatnonzero(structural)] = engine.a[:, engine.nonbasic[structural]]
    columns[engine.nonbasic[~structural] - n, np.flatnonzero(~structural)] = 1.0
    nonbasic_x = np.zeros(n + m)
    nonbasic_x[engine.nonbasic] = engine.x[engine.nonbasic]
    columns[:, n] = engine.b - engine.a @ nonbasic_x[:n] - nonbasic_x[n:]
    held, slack = engine.owner[: engine.r], np.flatnonzero(engine.basis >= n)
    rows_r = np.sort(engine.nonbasic[engine.nonbasic >= n]) - n
    a_s = np.ascontiguousarray(engine.a[:, engine.basis[held]].T)
    z = np.linalg.solve(a_s.T[rows_r], columns[rows_r])
    values = np.empty(m)
    values[held] = z[:, n]
    values[slack] = (columns[:, n] - z[:, n] @ a_s)[engine.basis[slack] - n]
    return z[:, :n].copy(), a_s, values


class TestLeanKernel:
    """The pivot loop's lean forms choose and compute what their longer
    forms did, to the bit."""

    @staticmethod
    def _first_choice(engine, bland):
        """The dual chooser's first answer at the engine's start, under
        Bland's rule or not."""
        engine.begin()
        engine._pass = lambda cost, sense, choose: choose(
            engine._reduced_costs(cost), bland, None
        )
        return engine._dual(engine.obj)

    @pytest.mark.parametrize("bland", [False, True])
    def test_dual_verdict_without_rows(self, bland):
        engine = lp_module._Simplex(LinearProgram([1.0, -1.0], [0.0, 0.0], [1.0, 1.0]))
        assert engine.m == 0
        assert self._first_choice(engine, bland) is True

    @pytest.mark.parametrize("bland", [False, True])
    @pytest.mark.parametrize("below, verdict", [(0.5e-9, True), (2e-9, False)])
    def test_dual_verdict_at_the_feasibility_tolerance(self, bland, below, verdict):
        # Two slacks start ``below`` under their lower bound 0, less the rhs
        # perturbation; within _FEAS_TOL the basis is done, beyond it the
        # first row proves the program infeasible (x, y >= 0 cannot fall).
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-below, -below, 1.0])
        engine = lp_module._Simplex(lp)
        assert self._first_choice(engine, bland) is verdict
        assert solve_lp(lp).status is (LpStatus.OPTIMAL if verdict else LpStatus.INFEASIBLE)

    def test_warm_nonbasic_columns_are_the_set_difference(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            lp = larger_lp(rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            grown = _extended(lp, first.point, rng, int(rng.integers(0, 5)))
            engine = lp_module._Simplex(grown, _bare(first.basis))
            engine.begin()
            reference = np.setdiff1d(np.arange(engine.n + engine.m), engine.basis)
            assert engine.nonbasic.dtype == reference.dtype
            assert np.array_equal(engine.nonbasic, reference)
            checked += 1
        assert checked >= 20

    def test_rebuild_bytes_match_the_reference_rebuild(self, monkeypatch):
        # Every rebuild of warm and cold solves, on warm bases and on the
        # bases met between pivots.  A start carried into the program it
        # extends makes no rebuild of its own, so the warm bases come from
        # starts rebuilt over equal programs built apart; nor does a slack
        # basis, whose rebuild is made here by hand.
        rebuild, seen = lp_module._Simplex._refactorize, []

        def compared(self):
            rows, a_s, values = _reference_rebuild(self)
            rebuild(self)
            r = self.r
            assert self.rows[:r].tobytes() == rows.tobytes()
            assert self.a_s[:r].tobytes() == a_s.tobytes()
            assert self.x[self.basis].tobytes() == values.tobytes()
            seen.append(r)

        monkeypatch.setattr(lp_module._Simplex, "_refactorize", compared)
        rng = np.random.default_rng(12)
        for _ in range(60):
            lp = larger_lp(rng)
            first = solve_lp(lp)
            if first.is_optimal:
                grown = _extended(lp, first.point, rng, 3)
                solve_lp(grown, start=first.basis)
                solve_lp(_apart(grown), start=first.basis)
            slack = lp_module._Simplex(lp)
            slack.begin()
            slack._refactorize()
        # Some rebuilds had basic structurals, some none.
        assert len(seen) >= 100 and min(seen) == 0 and max(seen) >= 5


_FITS_AND_PREDICTIONS = """
import sys
from inattention.brp import brp_max_margin, brp_sparsest
from inattention.predict import fit_family, predict_at
from inattention.synth import generate_feasible_dataset

d = generate_feasible_dataset(3, 3, 3, margin=0.01, seed=4).dataset
brp_max_margin(d)
brp_sparsest(d, 0.5)
predict_at(fit_family(d, [1.0, 1.5, 2.0]), 1.25)
assert "numpy.ma" not in sys.modules, "a solve imported numpy.ma"
"""


def test_fits_and_predictions_leave_numpy_ma_unimported():
    # Its first import costs 9-26 ms; a warm round used to pay it through
    # np.setdiff1d.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lp_module.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _FITS_AND_PREDICTIONS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


class TestSingularBasis:
    """A basis that turns singular once a run is feasible is a numerical
    failure: the warm solve falls back to the cold one, and the cold solve
    raises."""

    @staticmethod
    def _cut_program(carried=True):
        """A program's optimum and the program with a row appended that cuts
        it off, which the optimum's final state carries into (``carried``),
        or an equal program built apart."""
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        grown = lp.copy()
        grown.add_leq([2.0, 1.0], 2.0)
        return solve_lp(lp), grown if carried else _apart(grown)

    @staticmethod
    def _fail_once_after(monkeypatch, method):
        """Make the first ``np.linalg.solve`` after the first call of the
        ``_Simplex`` method ``method`` (``_dual``: the pass that makes a run
        feasible; ``begin``: the run's start, carried over or rebuilt) raise
        LinAlgError; returns the pivots its engine had made by then."""
        failed, armed = [], []
        feasible, solve = getattr(lp_module._Simplex, method), np.linalg.solve

        def arming(self, *args):
            done = feasible(self, *args)
            if not failed:
                armed[:] = [self]
            return done

        def failing_solve(*args, **kwargs):
            if armed:
                failed.append(armed.pop().iterations)
                raise np.linalg.LinAlgError("injected singular basis")
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp_module._Simplex, method, arming)
        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        return failed

    def test_warm_solve_falls_back_to_the_cold_solve(self, monkeypatch):
        for carried in (True, False):
            first, grown = self._cut_program(carried)
            cold = solve_lp(grown)
            with monkeypatch.context() as patch:
                failed = self._fail_once_after(patch, "begin")
                again = solve_lp(grown, start=first.basis)
            [spent] = failed  # in the warm attempt, which runs first
            # At the dual pass's verdict rebuild, once it repaired the
            # appended row.
            assert spent > 0
            assert not again.warm
            assert again.iterations == spent + cold.iterations
            assert again.point.tobytes() == cold.point.tobytes()

    def test_cold_solve_raises(self, monkeypatch):
        _, grown = self._cut_program()
        failed = self._fail_once_after(monkeypatch, "_dual")
        with pytest.raises(NumericalFailure):
            solve_lp(grown)
        assert len(failed) == 1


def _branch_spy(monkeypatch):
    """Count what the pivot loop does: ``pivots`` and ``rebuilds`` over every
    pass, and by pass sense (+1 primal, -1 dual) the choices made under
    Bland's rule and the pivots taken below the safe size, which only the
    least-bad fallback takes."""
    seen = collections.Counter()
    senses = []
    simplex = lp_module._Simplex
    run_pass, apply_step, rebuild = simplex._pass, simplex._apply_step, simplex._refactorize

    def spied_pass(self, cost, sense, choose):
        def spied_choose(reduced, bland, banned):
            seen["bland", sense] += bland
            return choose(reduced, bland, banned)

        senses.append(sense)
        try:
            return run_pass(self, cost, sense, spied_choose)
        finally:
            senses.pop()

    def spied_apply_step(self, k, step, row, upper):
        if row is not None:
            seen["pivots"] += 1
            seen["tiny", senses[-1]] += abs(self._row(row)[k]) < lp_module._SAFE_PIVOT
        apply_step(self, k, step, row, upper)

    def spied_rebuild(self):
        seen["rebuilds"] += 1
        rebuild(self)

    monkeypatch.setattr(simplex, "_pass", spied_pass)
    monkeypatch.setattr(simplex, "_apply_step", spied_apply_step)
    monkeypatch.setattr(simplex, "_refactorize", spied_rebuild)
    return seen


class TestRareBranches:
    """Policy constants set so that the pivot loop takes the branches the
    solver's own traffic rarely reaches; every solve still agrees with
    HiGHS."""

    @pytest.mark.parametrize(
        "constant, value, reached",
        [
            # Bland's rule from the first stalled pivot on.
            ("_BLAND_TRIGGER", 0, lambda seen: seen["bland", -1] > 0),
            # Most pivots count as tiny: bans and the least-bad fallback.
            ("_SAFE_PIVOT", 0.3, lambda seen: seen["tiny", 1] * seen["tiny", -1] > 0),
            # A rebuild after every pivot.
            ("_REFACTOR_EVERY", 1, lambda seen: seen["rebuilds"] >= seen["pivots"] > 0),
        ],
    )
    def test_solves_match_the_reference(self, monkeypatch, constant, value, reached):
        monkeypatch.setattr(lp_module, constant, value)
        seen = _branch_spy(monkeypatch)
        statuses = [
            _matches_reference_solver(make(np.random.default_rng(seed)))
            for seed in range(200)
            for make in (random_lp, larger_lp)
        ]
        assert reached(seen), seen
        assert statuses.count(LpStatus.OPTIMAL) >= 150
        assert statuses.count(LpStatus.INFEASIBLE) >= 150

    def test_bland_takes_the_lowest_column_id(self, monkeypatch):
        # Pivots permute the nonbasic positions; Bland's cycle-free guarantee
        # needs the lowest column id among the candidates, not position.
        monkeypatch.setattr(lp_module, "_BLAND_TRIGGER", 0)
        # Without the rhs perturbation primal pivots stall too.
        monkeypatch.setattr(lp_module, "_PERTURBATION", 0.0)
        checked = collections.Counter()
        run_pass = lp_module._Simplex._pass

        def spied_pass(self, cost, sense, choose):
            def checked_choose(reduced, bland, banned):
                choice = choose(reduced, bland, banned)
                if bland and not isinstance(choice, bool):
                    k, row = choice[:2]
                    pick = _bland_pick(self, sense, reduced, banned, row)
                    assert self.nonbasic[k] == pick
                    checked[sense, bool(np.any(np.diff(self.nonbasic) < 0))] += 1
                return choice

            return run_pass(self, cost, sense, checked_choose)

        monkeypatch.setattr(lp_module._Simplex, "_pass", spied_pass)
        for seed in range(200):
            for make in (random_lp, larger_lp):
                solve_lp(make(np.random.default_rng(seed)))
        assert checked[1, True] > 0 and checked[-1, True] > 0, checked

    def test_primal_pass_switches_to_bland(self, monkeypatch):
        # The first larger_lp draw whose primal pass stalls: the perturbed
        # rhs makes a stalled primal pivot rare.
        monkeypatch.setattr(lp_module, "_BLAND_TRIGGER", 0)
        seen = _branch_spy(monkeypatch)
        _matches_reference_solver(larger_lp(np.random.default_rng(218)))
        assert seen["bland", 1] > 0


def _bland_pick(engine, sense, reduced, banned, row):
    """The lowest column id Bland's rule may enter, read column by column
    from the bounds and values; for a dual pass (``sense`` -1) also check
    that ``row`` holds the lowest violated basic column id."""
    banned = np.zeros(engine.n + engine.m, bool) if banned is None else banned
    columns = engine.nonbasic
    lo, hi = engine.lo[columns], engine.hi[columns]
    at_upper = engine.x[columns] == hi
    gain = np.where(at_upper, -reduced, reduced)
    movable = hi > lo
    if sense == 1:  # a primal ban bars the entering column, a dual one the row
        improving = movable & ~banned[columns] & (gain > lp_module._COST_TOL)
        return columns[improving].min()
    values = engine.x[engine.basis]
    lo_b, hi_b = engine.lo[engine.basis], engine.hi[engine.basis]
    excess = np.maximum(lo_b - values, values - hi_b)
    violated = (excess > lp_module._FEAS_TOL) & ~banned[engine.basis]
    assert engine.basis[row] == engine.basis[violated].min()
    # Columns that move the leaving value toward its box, by their ratios.
    alpha = engine._row(row)
    moves = np.where(at_upper, -1.0, 1.0) * alpha
    up = values[row] > hi_b[row]
    tol = lp_module._PIVOT_TOL
    toward = movable & ((moves > tol) if up else (moves < -tol))
    ratios = np.maximum(-gain[toward], 0.0) / np.abs(alpha[toward])
    least = ratios.min()
    return columns[toward][ratios <= least + 1e-12 * (1.0 + least)].min()


class TestIterationCap:
    """Past ``max_iterations`` a run raises; a warm run that does falls back
    to the cold one."""

    @staticmethod
    def _cap_first_engine(monkeypatch, cap):
        """Cap the first engine made at ``cap`` iterations; returns it."""
        made = []
        init = lp_module._Simplex.__init__

        def capped(self, lp, start=None):
            init(self, lp, start)
            if not made:
                self.max_iterations = cap
            made.append(self)

        monkeypatch.setattr(lp_module._Simplex, "__init__", capped)
        return made

    @staticmethod
    def _warm_case():
        """A program, its optimum, and the program with rows appended, whose
        warm and cold solves each take more than two iterations."""
        rng = np.random.default_rng(0)
        while True:
            lp = larger_lp(rng)
            first = solve_lp(lp)
            if not first.is_optimal or first.iterations <= 2:
                continue
            grown = _extended(lp, first.point, rng, 3)
            warm = solve_lp(grown, start=first.basis)
            if warm.is_optimal and warm.warm and warm.iterations > 2:
                return lp, first, grown

    def test_cold_solve_raises(self, monkeypatch):
        lp, _, _ = self._warm_case()
        self._cap_first_engine(monkeypatch, 2)
        with pytest.raises(NumericalFailure, match="exceeded 2 iterations"):
            solve_lp(lp)

    def test_warm_solve_falls_back_to_the_cold_solve(self, monkeypatch):
        _, first, grown = self._warm_case()
        cold = solve_lp(grown)
        made = self._cap_first_engine(monkeypatch, 2)
        again = solve_lp(grown, start=first.basis)
        warm_attempt, _ = made
        assert warm_attempt.iterations == 3
        assert not again.warm
        assert again.iterations == 3 + cold.iterations
        assert again.refactorizations == (
            warm_attempt.refactorizations + cold.refactorizations
        )
        assert again.point.tobytes() == cold.point.tobytes()
