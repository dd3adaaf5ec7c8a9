import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from inattention import lp as lp_module
from inattention.errors import NumericalFailure
from inattention.lp import LinearProgram, LpStatus, solve_lp

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

    def test_equality_rows(self):
        lp = LinearProgram(objective=[1.0, 0.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
        lp.add_eq([1.0, 1.0], 1.0)
        sol = solve_lp(lp)
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.point[0] + sol.point[1] == pytest.approx(1.0, abs=1e-9)


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

    def test_copy_shares_rows_but_appends_apart(self):
        lp = LinearProgram([1.0], [0.0], [2.0])
        lp.add_leq([1.0], 1.0)
        solved = solve_lp(lp)
        copy = lp.copy()
        assert copy.a is lp.a and copy.b is lp.b
        assert solved.basis.program.a is lp.a
        copy.add_leq([2.0], 1.0)
        copy.add_eq([1.0], 0.25)
        assert (lp.num_rows, copy.num_rows) == (1, 4)
        assert np.array_equal(copy.a[:1], lp.a)
        for kept in (lp, solved.basis.program):
            assert np.array_equal(kept.a, [[1.0]]) and np.array_equal(kept.b, [1.0])


class TestWarmStart:
    def test_appended_row_cuts_off_the_old_optimum(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        cut = lp.copy()
        cut.add_leq([2.0, 1.0], 2.0)
        warm = solve_lp(cut, start=first)
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
            warm, cold = solve_lp(grown, start=first), solve_lp(grown)
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
        cold, warm = lp_module._Simplex(cut), lp_module._Simplex(cut)
        warm.warm_start(first.basis)
        assert np.array_equal(warm.b, cold.b)
        assert not np.array_equal(warm.b, cut.b)

    def test_start_must_be_a_row_prefix(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        lp.add_leq([2.0, 1.0], 2.0)
        start = solve_lp(lp)

        def program(rows, rhs, objective=lp.objective, upper=lp.upper):
            out = LinearProgram(objective, lp.lower, upper)
            out.add_leq(rows, rhs)
            return out

        non_prefix = program([[1.0, 1.0], *lp.a], [1.5, *lp.b])
        reordered = program(lp.a[::-1], lp.b[::-1])
        shorter = program(lp.a[:1], lp.b[:1])
        other_rhs = program(lp.a, [lp.b[0], 3.0])
        other_objective = program(lp.a, lp.b, objective=[1.0, 2.0])
        other_bounds = program(lp.a, lp.b, upper=[1.0, 2.0])
        for bad in (
            non_prefix, reordered, shorter, other_rhs, other_objective, other_bounds
        ):
            with pytest.raises(ValueError):
                solve_lp(bad, start=start)
        # An equal row that is a different object still makes a prefix.
        rebuilt = LinearProgram(lp.objective, lp.lower, lp.upper)
        rebuilt.add_leq([1.0, 2.0], 2.0)
        rebuilt.add_leq([2.0, 1.0], 2.0)
        assert solve_lp(rebuilt, start=start).warm

    def test_start_must_be_optimal(self):
        lp = LinearProgram([1.0], [0.0], [2.0])
        lp.add_leq([1.0], -1.0)
        infeasible = solve_lp(lp)
        with pytest.raises(ValueError):
            solve_lp(lp.copy(), start=infeasible)

    def test_numerical_failure_falls_back_to_the_cold_solve(self, monkeypatch):
        rng = np.random.default_rng(3)
        lp = random_lp(rng, n=4, m=0)
        first = solve_lp(lp)
        grown = _extended(lp, first.point, rng, 2)
        cold = solve_lp(grown)

        def fail(self, start):
            self.iterations, self.refactorizations = 5, 2
            raise NumericalFailure("injected")

        monkeypatch.setattr(lp_module._Simplex, "warm_start", fail)
        retried = solve_lp(grown, start=first)
        assert not retried.warm
        assert retried.status is cold.status
        assert retried.iterations == cold.iterations + 5
        assert retried.refactorizations == cold.refactorizations + 2
        if cold.status is LpStatus.OPTIMAL:
            assert np.array_equal(retried.point, cold.point)

    @pytest.mark.parametrize("defect", ["not dual feasible"])
    def test_unusable_start_basis_means_a_cold_solve(self, defect):
        from dataclasses import replace

        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([2.0, 1.0], 2.5)
        first = solve_lp(lp)  # x = 0.75 basic, y nonbasic at its upper bound
        assert first.basis.basic.tolist() == [0] and first.basis.status[1] == 1
        # y at its lower bound, where raising it gains 1 - 1/2 per unit.
        basis = replace(first.basis, status=np.array([0, 0, 0], dtype=np.int8))
        grown = lp.copy()
        grown.add_leq([1.0, 2.0], 2.0)
        again = solve_lp(grown, start=replace(first, basis=basis))
        assert not again.warm
        assert np.array_equal(again.point, solve_lp(grown).point)

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
        again = solve_lp(grown, start=replace(first, basis=basis))
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
        again = solve_lp(grown, start=first)
        assert again.warm and again.iterations == 0
        assert again.point.tobytes() == first.point.tobytes()

    def test_appended_row_that_empties_the_program_is_infeasible_warm(self):
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        first = solve_lp(lp)
        grown = lp.copy()
        grown.add_leq([-1.0, -1.0], -2.5)  # x + y >= 2.5 in the unit box
        warm = solve_lp(grown, start=first)
        assert warm.warm and warm.status is LpStatus.INFEASIBLE
        assert solve_lp(grown).status is LpStatus.INFEASIBLE
        assert scipy_optimum(grown).status == 2


def _all_rows_binding_lp(rng, m):
    """m variables and m rows, all binding at the unique optimum, a point
    inside the box: the optimal basis holds every structural and no slack."""
    rows = rng.normal(size=(m, m))
    center = rng.uniform(0.2, 0.8, size=m)
    lp = LinearProgram(rows.T @ rng.uniform(0.5, 1.5, size=m), np.zeros(m), np.ones(m))
    lp.add_leq(rows, rows @ center)
    return lp


class TestBlockRebuild:
    """The rebuild through the basic-structural block gives the tableau and
    basic values of a dense solve with the whole basis matrix."""

    @staticmethod
    def _rebuild_matches_dense(engine):
        """Rebuild ``engine``'s tableau and assert it and the basic values
        match the dense solve; returns r, the basic structurals' count."""
        cols = np.hstack([engine.a, np.eye(engine.m)])
        nonbasic = engine.x.copy()
        nonbasic[engine.basis] = 0.0
        rhs = engine.b - cols @ nonbasic
        dense = np.linalg.solve(cols[:, engine.basis], np.column_stack([cols, rhs]))
        # The rebuild reads neither the old tableau nor the old basic values.
        engine.tableau[:] = np.nan
        engine.x[engine.basis] = np.nan
        engine._refactorize()
        assert np.allclose(engine.tableau, dense[:, :-1], rtol=0.0, atol=1e-9)
        assert np.allclose(engine.x[engine.basis], dense[:, -1], rtol=0.0, atol=1e-9)
        return int(np.count_nonzero(engine.basis < engine.n))

    @pytest.mark.parametrize("seed", range(5))
    def test_slack_basis(self, seed):
        lp = random_lp(np.random.default_rng(seed), n=4, m=6)
        assert self._rebuild_matches_dense(lp_module._Simplex(lp)) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_every_slack_nonbasic(self, seed):
        lp = _all_rows_binding_lp(np.random.default_rng(seed), 6)
        solution = solve_lp(lp)
        engine = lp_module._Simplex(lp)
        engine.warm_start(solution.basis)
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
            engine = lp_module._Simplex(grown)
            engine.warm_start(first.basis)
            # The appended rows' slacks are basic, so r <= the old row count.
            assert 0 <= self._rebuild_matches_dense(engine) <= lp.num_rows
            checked += 1
        assert checked >= 10

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
        # The restored rhs is always rebuilt.
        assert first.refactorizations == len(rebuilds) >= 1
        grown = lp.copy()
        grown.add_leq([2.0, 1.0], 2.0)
        rebuilds.clear()
        again = solve_lp(grown, start=first)
        # The warm start is rebuilt too.
        assert again.warm and again.refactorizations == len(rebuilds) >= 2


class TestSingularBasis:
    """A basis that turns singular once a run is feasible is a numerical
    failure: the warm solve falls back to the cold one, and the cold solve
    raises."""

    @staticmethod
    def _cut_program():
        lp = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        lp.add_leq([1.0, 2.0], 2.0)
        grown = lp.copy()
        grown.add_leq([2.0, 1.0], 2.0)
        return solve_lp(lp), grown

    @staticmethod
    def _fail_once_after(monkeypatch, method):
        """Make the first ``np.linalg.solve`` after the first call of the
        ``_Simplex`` method ``method`` (``_dual``: the pass that makes a run,
        cold or warm, feasible) raise LinAlgError; returns the pivots its
        engine had made by then."""
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
        first, grown = self._cut_program()
        cold = solve_lp(grown)
        failed = self._fail_once_after(monkeypatch, "_dual")
        again = solve_lp(grown, start=first)
        [spent] = failed  # in the warm attempt, which runs first
        assert spent > 0  # after the dual pass repaired the appended row
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

    def spied_apply_step(self, j, step, row, upper):
        if row is not None:
            seen["pivots"] += 1
            seen["tiny", senses[-1]] += abs(self.tableau[row, j]) < lp_module._SAFE_PIVOT
        apply_step(self, j, step, row, upper)

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

    def test_primal_pass_switches_to_bland(self, monkeypatch):
        # The first larger_lp draw whose primal pass stalls: the perturbed
        # rhs makes a stalled primal pivot rare.
        monkeypatch.setattr(lp_module, "_BLAND_TRIGGER", 0)
        seen = _branch_spy(monkeypatch)
        _matches_reference_solver(larger_lp(np.random.default_rng(218)))
        assert seen["bland", 1] > 0


class TestIterationCap:
    """Past ``max_iterations`` a run raises; a warm run that does falls back
    to the cold one."""

    @staticmethod
    def _cap_first_engine(monkeypatch, cap):
        """Cap the first engine made at ``cap`` iterations; returns it."""
        made = []
        init = lp_module._Simplex.__init__

        def capped(self, lp):
            init(self, lp)
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
            warm = solve_lp(grown, start=first)
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
        again = solve_lp(grown, start=first)
        warm_attempt, _ = made
        assert warm_attempt.iterations == 3
        assert not again.warm
        assert again.iterations == 3 + cold.iterations
        assert again.refactorizations == (
            warm_attempt.refactorizations + cold.refactorizations
        )
        assert again.point.tobytes() == cold.point.tobytes()
