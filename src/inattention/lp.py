"""Deterministic bounded-variable linear-program solver.

Maximizes ``c @ z`` subject to ``A z <= b`` and finite per-variable boxes.
Every feasibility, margin, and sparsity computation in the package runs
through this engine, so the priorities are correctness and determinism at
desk scale, not raw speed: dense two-phase primal simplex over bounded
variables, Dantzig pricing with lowest-index tie-breaking, and a switch to
Bland's rule (pure lowest-index, provably cycle-free) after a run of
degenerate pivots.  Identical inputs produce bit-identical solutions.

Only this module knows how a program stores its rows: one read-only matrix
``a`` and rhs vector ``b``, grown a whole block at a time (see
:class:`LinearProgram`) and read by the solver and its post-check as stored.

Cutting-plane loops re-solve a program after appending rows.  Such a solve
can start warm from the earlier optimum (``solve_lp(lp, start=solution)``).
A warm solve is the cold solve started from another basis: the old basis is
kept, each appended row's slack enters it basic, and from there the run
optimizes the same perturbed right-hand side, restores the true one and
checks the optimum exactly as a cold run does.  A start the new program
cannot reuse (an artificial left basic) or a warm run that loses its footing
numerically falls back to the cold solve, which stays the one canonical path
for a program solved on its own.

A solve ends optimal or infeasible, or raises :class:`NumericalFailure`.
Every variable is boxed, so no program is unbounded: an improving direction
without limit, a singular basis or a phase one that cannot evict its
artificials can only come from rounding, and each raises.  Two recovery
paths stay: a run whose optimum leaves rows violated snaps onto the slack
basis and restarts phase one (up to six rounds), and a warm run that raises
falls back to the cold solve.
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

    ``basic[r]`` is the column basic at position r, over the extended column
    set [structural | slack | artificial]; ``status`` holds each structural
    and slack column's bound code (0 lower, 1 upper), meaningful where the
    column is nonbasic.  ``program`` is a copy of the program solved; it
    shares that program's read-only arrays, so extending the program later
    leaves the copy as it was solved.

    Only an optimal solve has a basis.  A warm solve from it is the cold
    solve started from this basis, on the same perturbed rhs, and ends
    optimal or infeasible like a cold one; where the warm run raises
    :class:`NumericalFailure`, the cold solve takes over, and only the cold
    solve's failure reaches the caller.
    """

    basic: np.ndarray
    status: np.ndarray
    program: LinearProgram


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome.

    ``status`` is optimal or infeasible; a solve that fails numerically
    raises instead.  ``warm`` says the solve started from an earlier optimal
    basis and finished from there (after a fallback to the cold solve it is
    False); ``iterations`` counts every pivot made, a failed warm attempt's
    included.  ``basis`` is set on optimal solutions; pass the solution as
    ``start`` to re-solve the program with rows appended.
    """

    status: LpStatus
    point: np.ndarray | None = None
    objective_value: float | None = None
    max_violation: float = 0.0
    iterations: int = 0
    warm: bool = False
    basis: LpBasis | None = field(default=None, repr=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


# Nonbasic status codes.
_AT_LOWER = 0
_AT_UPPER = 1


class _Simplex:
    """Dense bounded-variable simplex over the extended column set
    [structural | slack | artificial]."""

    def __init__(self, lp: LinearProgram):
        self.m = lp.num_rows
        self.n = lp.num_vars
        n, m = self.n, self.m
        self.lo = np.concatenate([lp.lower, np.zeros(m)])
        self.hi = np.concatenate([lp.upper, np.full(m, np.inf)])
        self.cols = np.hstack([lp.a, np.eye(m)])
        self.obj = np.concatenate([lp.objective, np.zeros(m)])
        self.total = n + m
        # Nonbasic structural variables start at their lower bound; slacks
        # start basic.  This is the canonical deterministic start.
        self.status = np.zeros(self.total, dtype=np.int8)
        self.x = self.lo.copy()
        self.basis = np.arange(n, n + m)
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        self.tableau = self.cols.copy()  # B^{-1} A, with B = I initially
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
        self.max_iterations = max(2000, 60 * (n + m))

    def warm_start(self, start: LpBasis) -> None:
        """Take over ``start``'s basis, its rows being this program's first
        rows; each appended row's slack enters basic at the appended position.

        The perturbed rhs that ``__init__`` set stays, so the run that follows
        is the cold run from another basis.  The basis matrix is block
        lower-triangular with an identity block for the appended slacks, so
        it stays nonsingular; the first rows carry the perturbation of the
        start's own solve, so only appended slacks should leave their boxes,
        which phase one repairs.  A kept value outside its box (a start found
        after a snap restart, on the true rhs, can leave one) raises
        NumericalFailure, and the caller solves cold.
        """
        n, m0 = self.n, start.basic.size
        self.basis = np.concatenate([start.basic, np.arange(n + m0, n + self.m)])
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.status[: n + m0] = start.status
        self.x = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        self._refactorize()
        if np.any(self._violated_rows() < m0):
            raise NumericalFailure("the start's basis is not primal feasible here")

    # -- phase drivers ------------------------------------------------------

    def run(self) -> LpStatus:
        """Optimal or infeasible; raises NumericalFailure otherwise.

        Cold or warm, the first phase one and optimization run against the
        perturbed rhs; restoring the true rhs at its optimum keeps the basis
        dual-feasible, so when the basic values still sit inside their boxes
        the same vertex is optimal for the true program and the run ends.
        Otherwise (and likewise when degenerate pivot runs leave the exact
        vertex slightly outside a box) the point is snapped onto the slack
        basis, phase one restores feasibility on the true rhs, and
        optimization resumes on the true program, for up to six rounds.  That
        restart is one of the two recovery paths; the other, the cold solve
        after a warm run raises, is :func:`solve_lp`'s.
        """
        if not self._phase_one():
            return LpStatus.INFEASIBLE
        for _ in range(6):
            self._optimize(self.obj)
            self.b = self.b_true
            self._refactorize()
            if self._violated_rows().size == 0:
                return LpStatus.OPTIMAL
            self._snap_restart()
            if not self._phase_one():
                # Feasible only under the perturbation: the true program is
                # infeasible (phase one just certified it from a clean basis).
                return LpStatus.INFEASIBLE
        raise NumericalFailure("feasibility restoration did not converge")

    def _violated_rows(self) -> np.ndarray:
        """Basis positions whose value lies outside its box."""
        values = self.x[self.basis]
        below = values < self.lo[self.basis] - _FEAS_TOL
        above = values > self.hi[self.basis] + _FEAS_TOL
        return np.flatnonzero(below | above)

    def _snap_restart(self) -> None:
        """Rebuild the slack basis at the nearest-bound snap of the point.

        Basic structural variables move to their nearest finite bound, every
        slack re-enters the basis (identity, trivially nonsingular), and any
        rows left violated are handed back to phase one.
        """
        for i in range(self.m):
            v = int(self.basis[i])
            self.in_basis[v] = False
            if v < self.n:
                near_upper = (
                    np.isfinite(self.hi[v])
                    and self.hi[v] - self.x[v] < self.x[v] - self.lo[v]
                )
                self.x[v] = self.hi[v] if near_upper else self.lo[v]
                self.status[v] = _AT_UPPER if near_upper else _AT_LOWER
            else:
                self.x[v] = self.lo[v]
                self.status[v] = _AT_LOWER
        self.basis = np.arange(self.n, self.n + self.m)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.x[self.n : self.n + self.m] = 0.0
        self.status[self.n : self.n + self.m] = _AT_LOWER
        self.tableau = self.cols.copy()
        self.x[self.basis] = self.b - self.cols[:, : self.n] @ self.x[: self.n]

    def _phase_one(self) -> bool:
        """Drive negative basic slacks to zero via artificials; True if done.

        A negative basic slack sits at its own row's basis position: a cold
        start or a snap restart leaves the slack basis, and a warm start puts
        the appended rows' slacks at their rows (having checked the kept
        basic variables against their boxes).  Each such slack swaps for an
        artificial whose column, in the rows and in the tableau alike, is
        minus that unit vector; the swap flips the sign of the tableau row.
        The sum of artificials is minimized, and the artificials are then
        pivoted out and frozen.
        """
        slack = (self.basis >= self.n) & (self.basis < self.n + self.m)
        bad = np.flatnonzero(slack & (self.x[self.basis] < -_FEAS_TOL))
        if bad.size == 0:
            return True
        k = bad.size
        art = np.zeros((self.m, k))
        art_cost = np.zeros(self.total + k)
        first_art = self.total
        for slot, i in enumerate(bad):
            art[i, slot] = -1.0
            art_cost[first_art + slot] = -1.0
        self.cols = np.hstack([self.cols, art])
        self.tableau = np.hstack([self.tableau, art])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.hi = np.concatenate([self.hi, np.full(k, np.inf)])
        self.obj = np.concatenate([self.obj, np.zeros(k)])
        self.x = np.concatenate([self.x, np.zeros(k)])
        self.status = np.concatenate([self.status, np.zeros(k, dtype=np.int8)])
        self.in_basis = np.concatenate([self.in_basis, np.zeros(k, dtype=bool)])
        self.total += k
        for slot, i in enumerate(bad):
            slack = self.basis[i]
            value = self.x[slack]
            self.x[slack] = 0.0
            self.status[slack] = _AT_LOWER
            self.in_basis[slack] = False
            j = first_art + slot
            self.basis[i] = j
            self.in_basis[j] = True
            self.x[j] = -value
            self.tableau[i, :] *= -1.0
        self._optimize(art_cost)
        infeasibility = float(self.x[first_art:].sum())
        if infeasibility > _FEAS_TOL * max(1.0, float(np.abs(self.b).sum())):
            return False
        self._evict_artificials(first_art)
        return True

    def _evict_artificials(self, first_art: int) -> None:
        for i in range(self.m):
            leaving = self.basis[i]
            if leaving < first_art:
                continue
            row = self.tableau[i, :first_art]
            candidates = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
            candidates = candidates[
                ~self.in_basis[candidates]
                & (self.hi[candidates] > self.lo[candidates])
            ]
            if candidates.size == 0:
                # The row's own slack is parallel to its artificial, so it is
                # nonbasic with entry -1 here; only rounding can hide it.
                raise NumericalFailure("an artificial cannot leave the basis")
            entering = int(candidates[0])
            # Zero-length pivot: shift exactly enough to park the artificial
            # at 0, then swap it out of the basis.
            theta = self.x[leaving] / self.tableau[i, entering]
            self.x[self.basis] -= theta * self.tableau[:, entering]
            entering_value = self.x[entering] + theta
            self.in_basis[leaving] = False
            self.x[leaving] = 0.0
            self.status[leaving] = _AT_LOWER
            self._pivot(i, entering, entering_value)
        self.lo[first_art:] = 0.0
        self.hi[first_art:] = 0.0
        self.obj[first_art:] = 0.0

    # -- core iteration -----------------------------------------------------

    def _refactorize(self) -> None:
        """Rebuild the tableau and basic values from the basis.

        Rank-one pivot updates drift; long degenerate runs accumulate enough
        error to flip reduced-cost signs, so the tableau is recomputed from
        scratch at intervals and whenever the anti-cycling rule is active.
        A singular basis can only come from rounding and raises
        NumericalFailure.
        """
        basis_matrix = self.cols[:, self.basis]
        nonbasic_x = self.x.copy()
        nonbasic_x[self.basis] = 0.0
        rhs = self.b - self.cols @ nonbasic_x
        try:
            solved = np.linalg.solve(
                basis_matrix, np.concatenate([self.cols, rhs[:, None]], axis=1)
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("the simplex basis became singular") from exc
        self.tableau = solved[:, :-1]
        self.x[self.basis] = solved[:, -1]

    def _optimize(self, cost: np.ndarray) -> None:
        """Maximize ``cost`` from the current feasible basis."""
        reduced = self._reduced_costs(cost)
        best_value = float(cost @ self.x)
        stall = 0
        bland = False
        since_refactor = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
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
                        banned = np.zeros(self.total, dtype=bool)
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
            if flip:
                self.x[self.basis] -= direction * step * column
                self.x[j] = self.hi[j] if self.status[j] == _AT_LOWER else self.lo[j]
                self.status[j] ^= 1
            else:
                self._apply_step(j, direction, step, row, column)
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
        self, j: int, direction: int, step: float, row: int, column: np.ndarray
    ) -> None:
        self.x[self.basis] -= direction * step * column
        entering_value = self.x[j] + direction * step
        leaving = self.basis[row]
        leaves_at_upper = direction * column[row] < 0
        self.x[leaving] = self.hi[leaving] if leaves_at_upper else self.lo[leaving]
        self.status[leaving] = _AT_UPPER if leaves_at_upper else _AT_LOWER
        self.in_basis[leaving] = False
        self._pivot(row, j, entering_value)

    def _pivot(self, row: int, j: int, entering_value: float) -> None:
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


def _warm_basis(lp: LinearProgram, start: LpSolution) -> LpBasis | None:
    """``start``'s basis if it can seed ``lp``; None when it holds an
    artificial, which ``lp`` has no column for.  Raises ValueError unless
    ``lp`` has ``start``'s variables, bounds and objective and its rows begin
    with ``start``'s rows."""
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
    if np.any(basis.basic >= lp.num_vars + m0):
        return None
    return basis


def solve_lp(lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
    """Solve the program; deterministic across runs for identical inputs.

    With ``start``, the optimal solution of an earlier program that this one
    extends by appending rows, the solve starts from that basis (module
    docstring) and falls back to the cold solve when the start holds an
    artificial or the warm run fails numerically.  Raises ValueError when
    ``lp`` does not extend the start's program.

    The solution is optimal or infeasible.  Raises :class:`NumericalFailure`
    when the cold solve fails numerically (a singular basis, a pivot or
    direction that rounding produced, the iteration cap, restoration that
    does not converge); that condition is never reported as infeasible.
    """
    if lp.num_vars == 0:
        raise ValueError("program has no variables")
    basis = None if start is None else _warm_basis(lp, start)
    spent = 0
    if basis is not None:
        engine = _Simplex(lp)
        try:
            engine.warm_start(basis)
            status = engine.run()
        except NumericalFailure:
            spent = engine.iterations
            basis = None
    if basis is None:
        engine = _Simplex(lp)
        status = engine.run()
    warm = basis is not None
    iterations = spent + engine.iterations
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, iterations=iterations, warm=warm)

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
        iterations=iterations,
        warm=warm,
        basis=LpBasis(
            basic=_frozen(engine.basis),
            status=_frozen(engine.status[: lp.num_vars + lp.num_rows]),
            program=lp.copy(),
        ),
    )
