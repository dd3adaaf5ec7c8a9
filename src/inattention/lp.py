"""Deterministic bounded-variable linear-program solver.

Maximizes ``c @ z`` subject to ``A z <= b`` and finite per-variable boxes.
Every feasibility, margin, and sparsity computation in the package runs
through this engine, so the priorities are correctness and determinism at
desk scale, not raw speed: a dense bounded dual simplex reaches a feasible
basis and a dense bounded primal simplex optimizes from it, each with
largest-violation or Dantzig pricing and a switch to Bland's rule (pure
lowest-index, provably cycle-free) after a run of degenerate pivots.
A rebuild of the tableau solves only the basis's r×r basic-structural
block, basic slacks being unit columns.  Identical inputs produce
bit-identical solutions.

Only this module knows how a program stores its rows: one read-only matrix
``a`` and rhs vector ``b``, grown a whole block at a time (see
:class:`LinearProgram`) and read by the solver and its post-check as stored.

A cold run starts from the slack basis, every variable at its lower bound.
There the reduced costs are the costs, so the basis is dual feasible for
``min(c, 0)``, the objective's nonpositive part, and the dual simplex on
that cost pivots every slack the rows leave negative back into its box, or
proves the program infeasible, with no artificial column.  The run then
optimizes ``c`` on a slightly perturbed rhs and restores the true one.  The
optimal basis stays dual feasible there (reduced costs do not involve the
rhs), so the dual simplex pivots any basic value the true rhs leaves outside
its box back inside, ending at the true program's optimum or proving it
infeasible.

Cutting-plane loops re-solve a program after appending rows.  Such a solve
can start warm from the earlier optimum (``solve_lp(lp, start=solution)``).
A warm solve keeps the old basis, each appended row's slack entering it
basic; that basis is dual feasible for ``c`` itself, so the dual simplex
repairs the rows the old optimum violates, and the run goes on as a cold
one does.  A start whose basis is not dual feasible, or a warm run that
loses its footing numerically, falls back to the cold solve, which stays
the one canonical path for a program solved on its own.

A solve ends optimal or infeasible, or raises :class:`NumericalFailure`.
Every variable is boxed, so no program is unbounded: an improving direction
without limit or a singular basis can only come from rounding, and each
raises.  The one recovery path is the cold solve that takes over when a
warm run raises.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericalFailure

__all__ = ["LinearProgram", "LpBasis", "LpSolution", "LpStatus", "solve_lp"]

# Working tolerances.  Feasibility 1e-9 on the rows is what the solution
# post-check certifies (returned points are clipped exactly into their
# boxes); the pivot tolerance guards against dividing by garbage.
_FEAS_TOL = 1e-9
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BLAND_TRIGGER = 40
_REFACTOR_EVERY = 40
_SAFE_PIVOT = 1e-7
_PERTURBATION = 1e-10


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class LinearProgram:
    """A maximization LP with inequality rows and finite variable boxes.

    The rows are one read-only matrix ``a`` and rhs vector ``b``, the program
    being ``a @ z <= b``.  :meth:`add_leq` / :meth:`add_eq` append a whole
    block of dense rows (one row is a one-row block) by binding new arrays,
    never writing into the old ones, so a :meth:`copy` or a solve's
    :class:`LpBasis` shares them as they stood.  The objective and bounds
    are read-only too; every bound must be finite.
    """

    def __init__(
        self,
        objective: Sequence[float] | np.ndarray,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
    ):
        self.objective = _frozen(np.array(objective, dtype=float))
        self.lower = _frozen(np.array(lower, dtype=float))
        self.upper = _frozen(np.array(upper, dtype=float))
        n = self.objective.shape[0]
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("objective and bounds must have the same length")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("all variable bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        self.a = _frozen(np.zeros((0, n)))
        self.b = _frozen(np.zeros(0))

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.b.shape[0]

    def _block(self, coeffs, rhs) -> tuple[np.ndarray, np.ndarray]:
        """``coeffs`` as a (rows, variables) block, -0.0 made +0.0, and ``rhs``
        as one value per row, a scalar standing for every row."""
        block = np.array(coeffs, dtype=float, ndmin=2)
        if block.ndim != 2 or block.shape[1] != self.num_vars:
            raise ValueError("dense row has wrong length")
        bound = np.asarray(rhs, dtype=float)
        if bound.ndim == 0:
            bound = np.full(block.shape[0], bound)
        elif bound.shape != block.shape[:1]:
            raise ValueError("need one rhs per row")
        if not (np.all(np.isfinite(block)) and np.all(np.isfinite(bound))):
            raise ValueError("row coefficients and rhs must be finite")
        block += 0.0
        return block, bound

    def add_leq(self, coeffs: Sequence | np.ndarray, rhs) -> None:
        """Append ``coeffs @ z <= rhs``: one dense row over the variables or a
        block of them, with one rhs per row or a scalar rhs for every row."""
        block, bound = self._block(coeffs, rhs)
        self.a = _frozen(np.concatenate([self.a, block]))
        self.b = _frozen(np.concatenate([self.b, bound]))

    def add_eq(self, coeffs: Sequence | np.ndarray, rhs) -> None:
        """Append equality rows, each stored as the row then its negation."""
        block, bound = self._block(coeffs, rhs)
        pairs = np.stack([block, -block], axis=1).reshape(-1, self.num_vars)
        self.add_leq(pairs, np.stack([bound, -bound], axis=1).ravel())

    def copy(self) -> "LinearProgram":
        """A new program sharing these read-only arrays; appends stay apart."""
        return copy.copy(self)

    def dense_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a, self.b


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values``, an array nothing else writes to, made read-only."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class LpBasis:
    """The optimal basis a solve ended on, with the program it solved.

    ``basic[r]`` is the column basic at position r, over the column set
    [structural | slack]; ``status`` holds each column's bound code (0
    lower, 1 upper), meaningful where the column is nonbasic.  ``program``
    is a copy of the program solved; it shares that program's read-only
    arrays, so extending the program later leaves the copy as it was solved.

    Only an optimal solve has a basis.  A warm solve from it keeps this
    basis, which stays dual feasible with rows appended, and repairs the
    appended rows by the dual simplex before it goes on as the cold solve
    does, on the same perturbed rhs; it ends optimal or infeasible like a
    cold one.  Where the warm run raises :class:`NumericalFailure`, the cold
    solve takes over, and only the cold solve's failure reaches the caller.
    """

    basic: np.ndarray
    status: np.ndarray
    program: LinearProgram


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome.

    ``status`` is optimal or infeasible; a solve that fails numerically
    raises instead.  ``warm`` says the solve started from an earlier optimal
    basis and finished from there, whether optimal or infeasible (after a
    fallback to the cold solve it is False); ``iterations`` counts every
    step made, pivots and bound flips, and ``refactorizations`` every
    rebuild of the tableau, a failed warm attempt's included in both.
    ``basis`` is set on optimal solutions; pass the solution as ``start`` to
    re-solve the program with rows appended.
    """

    status: LpStatus
    point: np.ndarray | None = None
    objective_value: float | None = None
    max_violation: float = 0.0
    iterations: int = 0
    refactorizations: int = 0
    warm: bool = False
    basis: LpBasis | None = field(default=None, repr=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


# Nonbasic status codes.
_AT_LOWER = 0
_AT_UPPER = 1


class _Simplex:
    """Dense bounded-variable simplex over the column set [structural |
    slack], which stays n + m columns for the whole run."""

    def __init__(self, lp: LinearProgram):
        self.m = lp.num_rows
        self.n = lp.num_vars
        n, m = self.n, self.m
        self.lo = np.concatenate([lp.lower, np.zeros(m)])
        self.hi = np.concatenate([lp.upper, np.full(m, np.inf)])
        self.a = lp.a
        self.obj = np.concatenate([lp.objective, np.zeros(m)])
        # Nonbasic structural variables start at their lower bound; slacks
        # start basic.  This is the canonical deterministic start.
        self.status = np.zeros(n + m, dtype=np.int8)
        self.x = self.lo.copy()
        self.basis = np.arange(n, n + m)
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[self.basis] = True
        self.tableau = np.hstack([lp.a, np.eye(m)])  # B^{-1} [A | I], B = I
        # Deterministic right-hand-side perturbation: the margin programs
        # here are massively primal-degenerate (whole residual families tie
        # at zero), and unperturbed pivoting crawls through the tie plateaus.
        # Distinct tiny offsets break the ties; the true rhs is restored at
        # optimality, where the basis stays optimal because reduced costs do
        # not involve the rhs.
        self.b_true = lp.b
        self.b = lp.b + _PERTURBATION * (np.arange(m) + 1.0)
        self.x[self.basis] = self.b - lp.a @ self.x[:n]
        self.iterations = 0
        self.refactorizations = 0
        self.max_iterations = max(2000, 60 * (n + m))

    def warm_start(self, start: LpBasis) -> None:
        """Take over ``start``'s basis, its rows being this program's first
        rows; each appended row's slack enters basic at the appended position.

        The perturbed rhs that ``__init__`` set stays, so the run that
        follows optimizes the program the cold run optimizes.  The basis
        matrix is block lower-triangular with an identity block for the
        appended slacks, so it stays nonsingular, and the appended slacks
        carry no cost, so the start's reduced costs are this basis's: it stays
        dual feasible.  Basic values may lie outside their boxes (appended
        rows the old optimum violates, or kept values off their boxes at this
        rhs); :meth:`_dual` repairs them.  A basis that is not dual feasible
        at ``_COST_TOL`` raises NumericalFailure, and the caller solves cold.
        """
        n, m0 = self.n, start.basic.size
        self.basis = np.concatenate([start.basic, np.arange(n + m0, n + self.m)])
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.status[: n + m0] = start.status
        self.x = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        self._refactorize()
        reduced = self._reduced_costs(self.obj)
        if self._select_entering(reduced, bland=False) is not None:
            raise NumericalFailure("the start's basis is not dual feasible here")

    # -- phase drivers ------------------------------------------------------

    def run(self, start: LpBasis | None = None) -> LpStatus:
        """Optimal or infeasible; raises NumericalFailure otherwise.

        Both reach a feasible basis by the dual simplex: a cold run from the
        slack basis on ``min(c, 0)``, for which that basis is dual feasible,
        a run from ``start`` (see :meth:`warm_start`) on ``c``.  Either way
        the run then optimizes ``c`` against the perturbed rhs and restores
        the true one at the optimum.  Reduced costs do not involve the rhs,
        so the basis stays dual feasible, and where the restored rhs leaves
        basic values outside their boxes the dual simplex repairs them,
        which ends at an optimum of the true program or proves it
        infeasible.
        """
        if start is None:
            feasible = self._dual(np.minimum(self.obj, 0.0))
        else:
            self.warm_start(start)
            feasible = self._dual(self.obj)
        if not feasible:
            return LpStatus.INFEASIBLE
        self._optimize()
        self.b = self.b_true
        self._refactorize()
        if not self._dual(self.obj):
            # Feasible only under the perturbation: the true program is not.
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL

    def _dual(self, cost: np.ndarray) -> bool:
        """Bounded dual simplex: from a basis dual feasible for ``cost``,
        pivot every basic value into its box; False when a violated row
        proves the program infeasible.  ``cost`` is the objective on a warm
        run and on the restored rhs, and its nonpositive part ``min(c, 0)``
        at a cold run's slack basis.

        The leaving row holds the basic value furthest outside its box, and
        the leaving variable lands on the bound it violated.  The entering
        column is the one that moves that value toward its box at the
        smallest ratio |d_j / alpha_rj|, so no reduced cost changes sign;
        near-ties go to the largest |alpha_rj|, then the lowest index.  A
        missing or tiny pivot on an updated tableau is redone on a rebuilt
        one; a tiny pivot on a rebuilt one sets its row aside for this
        iteration, the least-bad such pivot being taken when no row offers
        a healthy one.  These programs are dual degenerate too (many zero
        reduced costs), so after a run of pivots that leave the objective
        where it was, Bland's rule takes over (lowest basic index among the
        violated rows, lowest index among the ratio ties) until it moves.
        """
        reduced = self._reduced_costs(cost)
        best_value = float(cost @ self.x)
        stall = 0
        bland = False
        since_refactor = 0
        banned = np.zeros(self.m, dtype=bool)
        fallback = None
        while True:
            if since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                reduced = self._reduced_costs(cost)
                since_refactor = 0
            values = self.x[self.basis]
            lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
            excess = np.maximum(lo_b - values, values - hi_b)
            excess[banned] = 0.0
            violated = np.flatnonzero(excess > _FEAS_TOL)
            if violated.size:
                if bland:
                    row = int(violated[np.argmin(self.basis[violated])])
                else:
                    row = int(np.argmax(excess))
                below = values[row] < lo_b[row]
                j = self._dual_ratio_test(row, below, reduced, bland)
                if since_refactor > 0 and (
                    j is None or abs(self.tableau[row, j]) < _SAFE_PIVOT
                ):
                    # Maybe drift on the updated tableau; decide on exact data.
                    self._refactorize()
                    reduced = self._reduced_costs(cost)
                    since_refactor = 0
                    continue
                if j is None:
                    return False
                size = abs(float(self.tableau[row, j]))
                if size < _SAFE_PIVOT:
                    banned[row] = True
                    if fallback is None or size > fallback[0]:
                        fallback = (size, row, j)
                    continue
            elif fallback is not None:
                _, row, j = fallback
            elif since_refactor > 0:
                # Confirm on an exactly rebuilt tableau before declaring the
                # basis feasible.
                self._refactorize()
                reduced = self._reduced_costs(cost)
                since_refactor = 0
                continue
            else:
                return True
            banned[:] = False
            fallback = None
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            leaving = self.basis[row]
            above = bool(self.x[leaving] > self.hi[leaving])
            bound = self.hi[leaving] if above else self.lo[leaving]
            direction = 1 if self.status[j] == _AT_LOWER else -1
            column = self.tableau[:, j]
            step = (self.x[leaving] - bound) / (direction * column[row])
            self._apply_step(j, direction, step, row, column, above)
            reduced = reduced - reduced[j] * self.tableau[row, :]
            reduced[j] = 0.0
            since_refactor += 1
            if bland:
                reduced = self._reduced_costs(cost)
            # Each pivot lowers the objective or, dual degenerate, keeps it.
            value = float(cost @ self.x)
            if value < best_value - 1e-12 * (1.0 + abs(best_value)):
                best_value = value
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > _BLAND_TRIGGER and not bland:
                    bland = True
                    self._refactorize()
                    reduced = self._reduced_costs(cost)
                    since_refactor = 0

    def _dual_ratio_test(
        self, row: int, below: bool, reduced: np.ndarray, bland: bool
    ) -> int | None:
        """Entering column for the dual simplex's leaving ``row``; None when
        no nonbasic column moves the row's basic value toward its box."""
        alpha = self.tableau[row, :]
        direction = np.where(self.status == _AT_LOWER, 1.0, -1.0)
        moves = direction * alpha
        toward = moves < -_PIVOT_TOL if below else moves > _PIVOT_TOL
        idx = np.flatnonzero(~self.in_basis & (self.hi > self.lo) & toward)
        if idx.size == 0:
            return None
        magnitudes = np.abs(alpha[idx])
        ratios = np.maximum(-direction[idx] * reduced[idx], 0.0) / magnitudes
        best = float(ratios.min())
        ties = ratios <= best + 1e-12 * (1.0 + best)
        if bland:
            return int(idx[ties][0])
        return int(idx[ties][int(np.argmax(magnitudes[ties]))])

    # -- core iteration -----------------------------------------------------

    def _refactorize(self) -> None:
        """Rebuild the tableau and basic values from the basis.

        Rank-one pivot updates drift; long degenerate runs accumulate enough
        error to flip reduced-cost signs, so the tableau is recomputed from
        scratch at intervals and whenever the anti-cycling rule is active.
        Basic slacks are unit columns, so only the r×r block A[R, S] of the
        basis is solved: R the rows whose slack is nonbasic, S the basic
        structurals.  Solved against [A_R | I_r | rhs_R], it gives Z, the
        structural rows of B⁻¹[A | I | rhs], zero under the basic slacks'
        columns; the basic slack of row i has row [A_i | e_i | rhs_i] −
        A[i, S] Z.  A singular basis can only come from rounding and raises
        NumericalFailure.
        """
        self.refactorizations += 1
        n, m = self.n, self.m
        slack = self.basis >= n
        rows_l, rows_r = self.basis[slack] - n, np.flatnonzero(~self.in_basis[n:])
        r = rows_r.size
        a_s = self.a[:, self.basis[~slack]]
        nonbasic_x = np.where(self.in_basis, 0.0, self.x)
        rhs = self.b - self.a @ nonbasic_x[:n] - nonbasic_x[n:]
        narrow = np.concatenate([self.a[rows_r], np.eye(r), rhs[rows_r, None]], axis=1)
        try:
            z = np.linalg.solve(a_s[rows_r], narrow)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("the simplex basis became singular") from exc
        solved = np.empty((m, n + r + 1))
        solved[~slack] = z
        solved[slack] = np.concatenate(
            [self.a[rows_l], np.zeros((m - r, r)), rhs[rows_l, None]], axis=1
        ) - a_s[rows_l] @ z
        self.tableau[:, n:] = 0.0
        self.tableau[:, :n] = solved[:, :n]
        self.tableau[:, n + rows_r] = solved[:, n:-1]
        self.tableau[np.flatnonzero(slack), n + rows_l] = 1.0
        self.x[self.basis] = solved[:, -1]

    def _optimize(self) -> None:
        """Maximize the objective from the current feasible basis; each
        pivot or bound flip counts one iteration."""
        cost = self.obj
        reduced = self._reduced_costs(cost)
        best_value = float(cost @ self.x)
        stall = 0
        bland = False
        since_refactor = 0
        while True:
            if since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                reduced = self._reduced_costs(cost)
                since_refactor = 0
            banned = None
            fallback = None
            while True:
                j = self._select_entering(reduced, bland, banned)
                if j is not None:
                    direction = 1 if self.status[j] == _AT_LOWER else -1
                    column = self.tableau[:, j]
                    step, row, flip = self._ratio_test(j, direction, column)
                    if flip or abs(column[row]) >= _SAFE_PIVOT:
                        break
                    if since_refactor > 0:
                        # A pivot this small is untrustworthy on an
                        # incrementally updated tableau (it may be an exact
                        # zero that drifted); redo selection on exact data.
                        self._refactorize()
                        reduced = self._reduced_costs(cost)
                        since_refactor = 0
                        continue
                    # Exact but tiny: prefer any entering candidate with a
                    # healthy pivot; keep the least-bad as a fallback.
                    if banned is None:
                        banned = np.zeros_like(self.in_basis)
                    banned[j] = True
                    size = abs(float(column[row]))
                    if fallback is None or size > fallback[0]:
                        fallback = (size, j, direction, step, row, flip, column.copy())
                    continue
                if fallback is not None:
                    _, j, direction, step, row, flip, column = fallback
                    break
                # Confirm on an exactly rebuilt tableau before declaring
                # optimality; incremental updates drift, and the returned
                # point must satisfy the rows at certification tolerance.
                if since_refactor > 0:
                    self._refactorize()
                    reduced = self._reduced_costs(cost)
                    since_refactor = 0
                j = self._select_entering(reduced, bland, None)
                if j is None:
                    return
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            if flip:
                self.x[self.basis] -= direction * step * column
                self.x[j] = self.hi[j] if self.status[j] == _AT_LOWER else self.lo[j]
                self.status[j] ^= 1
            else:
                leaves_at_upper = direction * column[row] < 0
                self._apply_step(j, direction, step, row, column, leaves_at_upper)
                dj = reduced[j]
                reduced = reduced - dj * self.tableau[row, :]
                reduced[j] = 0.0
                since_refactor += 1
            if bland:
                # Bland's termination guarantee needs exact reduced costs;
                # incremental updates drift on long degenerate runs.
                reduced = self._reduced_costs(cost)
            # Dantzig pricing can stall on degenerate vertices; switch to the
            # cycle-free lowest-index rule until the objective moves again.
            value = float(cost @ self.x)
            if value > best_value + 1e-12 * (1.0 + abs(best_value)):
                best_value = value
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > _BLAND_TRIGGER and not bland:
                    bland = True
                    self._refactorize()
                    reduced = self._reduced_costs(cost)
                    since_refactor = 0

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        if not np.any(cb):
            return cost.copy()
        return cost - cb @ self.tableau

    def _select_entering(
        self, reduced: np.ndarray, bland: bool, banned: np.ndarray | None = None
    ) -> int | None:
        free = ~self.in_basis & (self.hi > self.lo)
        improving = free & (
            ((self.status == _AT_LOWER) & (reduced > _COST_TOL))
            | ((self.status == _AT_UPPER) & (reduced < -_COST_TOL))
        )
        if banned is not None:
            improving &= ~banned
        idx = np.flatnonzero(improving)
        if idx.size == 0:
            return None
        if bland:
            return int(idx[0])
        gains = np.abs(reduced[idx])
        return int(idx[int(np.argmax(gains))])

    def _ratio_test(self, j: int, direction: int, column: np.ndarray):
        """Largest step for entering variable j; returns (step, row, flip).

        Every variable is boxed, so a step without limit can only come from
        rounding and raises NumericalFailure."""
        d = direction * column
        values = self.x[self.basis]
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        steps = np.full(self.m, np.inf)
        toward_lower = d > _PIVOT_TOL
        steps[toward_lower] = (values[toward_lower] - lo_b[toward_lower]) / d[toward_lower]
        toward_upper = (d < -_PIVOT_TOL) & np.isfinite(hi_b)
        steps[toward_upper] = (hi_b[toward_upper] - values[toward_upper]) / (
            -d[toward_upper]
        )
        steps = np.maximum(steps, 0.0)
        row_step = float(steps.min(initial=np.inf))
        flip_step = self.hi[j] - self.lo[j]
        if not np.isfinite(row_step) and not np.isfinite(flip_step):
            raise NumericalFailure("an improving direction has no limit")
        if flip_step <= row_step:
            return float(flip_step), -1, True
        ties = np.flatnonzero(steps <= row_step + 1e-12 * (1.0 + row_step))
        # Degenerate vertices produce large tie sets; pivoting on a tiny
        # element there wrecks the tableau, so stability comes first: take
        # the largest pivot magnitude, then the lowest basic-variable index.
        magnitudes = np.abs(d[ties])
        stable = ties[magnitudes >= 0.5 * float(magnitudes.max())]
        row = int(stable[int(np.argmin(self.basis[stable]))])
        return row_step, row, False

    def _apply_step(
        self,
        j: int,
        direction: int,
        step: float,
        row: int,
        column: np.ndarray,
        leaves_at_upper: bool,
    ) -> None:
        """Move entering ``j`` by ``step`` in ``direction`` and swap it for
        the basic variable at ``row``, which leaves at the given bound."""
        self.x[self.basis] -= direction * step * column
        entering_value = self.x[j] + direction * step
        leaving = self.basis[row]
        self.x[leaving] = self.hi[leaving] if leaves_at_upper else self.lo[leaving]
        self.status[leaving] = _AT_UPPER if leaves_at_upper else _AT_LOWER
        self.in_basis[leaving] = False
        self.basis[row] = j
        self.in_basis[j] = True
        self.x[j] = entering_value
        piv = self.tableau[row, j]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        self.tableau[row, :] /= piv
        col = self.tableau[:, j].copy()
        col[row] = 0.0
        self.tableau -= np.outer(col, self.tableau[row, :])
        self.tableau[:, j] = 0.0
        self.tableau[row, j] = 1.0


def _warm_basis(lp: LinearProgram, start: LpSolution) -> LpBasis:
    """``start``'s basis, to seed ``lp``.  Raises ValueError unless ``lp``
    has ``start``'s variables, bounds and objective and its rows begin with
    ``start``'s rows."""
    basis = start.basis
    if basis is None:
        raise ValueError("a warm start needs an optimal solution")
    old = basis.program
    if not (
        np.array_equal(lp.objective, old.objective)
        and np.array_equal(lp.lower, old.lower)
        and np.array_equal(lp.upper, old.upper)
    ):
        raise ValueError("the start solved a program over other variables")
    m0 = old.num_rows
    if not (np.array_equal(lp.a[:m0], old.a) and np.array_equal(lp.b[:m0], old.b)):
        raise ValueError("the program's rows do not begin with the start's rows")
    return basis


def solve_lp(lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
    """Solve the program; deterministic across runs for identical inputs.

    With ``start``, the optimal solution of an earlier program that this one
    extends by appending rows, the solve keeps that basis and repairs the
    appended rows by the dual simplex (module docstring); it falls back to
    the cold solve when the start's basis is not dual feasible here, or when
    the warm run fails numerically.  Without ``start`` the solve is cold:
    the dual simplex from the slack basis, then optimization.  Raises
    ValueError when ``lp`` does not extend the start's program.

    The solution is optimal or infeasible.  Raises :class:`NumericalFailure`
    when the cold solve fails numerically (a singular basis, a pivot or
    direction that rounding produced, the iteration cap); that condition is
    never reported as infeasible.
    """
    if lp.num_vars == 0:
        raise ValueError("program has no variables")
    basis = None if start is None else _warm_basis(lp, start)
    spent = (0, 0)
    if basis is not None:
        engine = _Simplex(lp)
        try:
            status = engine.run(basis)
        except NumericalFailure:
            spent = (engine.iterations, engine.refactorizations)
            basis = None
    if basis is None:
        engine = _Simplex(lp)
        status = engine.run()
    counts = dict(
        iterations=spent[0] + engine.iterations,
        refactorizations=spent[1] + engine.refactorizations,
        warm=basis is not None,
    )
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, **counts)

    point = engine.x[: lp.num_vars].copy()
    # Snap values that drifted within certification tolerance back onto the box.
    below = point < lp.lower
    above = point > lp.upper
    if np.any(point[below] < lp.lower[below] - _FEAS_TOL) or np.any(
        point[above] > lp.upper[above] + _FEAS_TOL
    ):
        raise NumericalFailure("optimal point violates variable bounds")
    point = np.clip(point, lp.lower, lp.upper)

    max_violation = float((lp.a @ point - lp.b).max(initial=0.0))
    if max_violation > _FEAS_TOL:
        raise NumericalFailure(
            f"optimal point violates a constraint by {max_violation:.3e}"
        )
    return LpSolution(
        status=LpStatus.OPTIMAL,
        point=point,
        objective_value=float(lp.objective @ point),
        max_violation=max_violation,
        **counts,
        basis=LpBasis(
            basic=_frozen(engine.basis),
            status=_frozen(engine.status),
            program=lp.copy(),
        ),
    )
