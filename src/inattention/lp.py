"""Deterministic bounded-variable linear-program solver.

Maximizes ``c @ z`` subject to ``A z <= b`` and finite per-variable boxes.
Every feasibility, margin, and sparsity computation in the package runs
through this engine, so the priorities are correctness and determinism at
desk scale, not raw speed.  Identical inputs produce bit-identical solutions.

Only this module knows how a program stores its rows: one read-only matrix
``a`` and rhs vector ``b``, grown a whole block at a time (see
:class:`LinearProgram`) and read by the solver and its post-check as stored.

A run is three passes of a dense bounded simplex over the columns
[structural | slack].  A dual pass reaches a feasible basis; a primal pass
optimizes ``c`` on a slightly perturbed rhs; once the true rhs is restored, a
second dual pass pivots back into its box any basic value it moves out,
ending at the true program's optimum or proving it infeasible (the basis
stays dual feasible, as reduced costs do not involve the rhs).  A cold run
starts from the slack basis, every variable at its lower bound, where the
reduced costs are the costs: the basis is dual feasible for ``min(c, 0)``,
and the first dual pass runs on that cost, with no artificial column.  A
warm run (``solve_lp(lp, start=solution)``) keeps an earlier optimum's
basis, each appended row's slack entering it basic, and runs every pass on
``c``; when that basis is not dual feasible or the run fails numerically,
the cold run takes over.

Every pass runs one pivot loop, which owns the numerical policy; the passes
differ only in how they choose a pivot.  The policy:

- the tableau is rebuilt every ``_REFACTOR_EVERY`` pivots, rank-one updates
  drifting, and a verdict or a pivot below ``_SAFE_PIVOT`` found on an
  updated tableau is redone on a rebuilt one;
- a pivot that tiny on a rebuilt tableau is set aside while another
  candidate offers a healthy one, the least-bad being taken when none does;
- the programs here are massively degenerate, so after ``_BLAND_TRIGGER``
  pivots that leave the objective where it was, Bland's rule (lowest index,
  provably cycle-free) takes over until it moves;
- past the iteration cap the run raises.

A rebuild solves only the basis's r×r basic-structural block, basic slacks
being unit columns.

A solve ends optimal or infeasible, or raises :class:`NumericalFailure`.
Every variable is boxed, so no program is unbounded: an improving direction
without limit or a singular basis can only come from rounding, and each
raises.  The one recovery path is the cold run that takes over when a warm
run raises.
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

    Only an optimal solve has a basis; a warm solve starts from it.
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

        The rhs stays the cold run's perturbed one.  The basis matrix is
        block lower-triangular with an identity block for the appended
        slacks, so it stays nonsingular, and the appended slacks carry no
        cost, so it stays dual feasible; basic values it leaves outside their
        boxes are the first dual pass's to repair.  A basis that is not dual
        feasible at ``_COST_TOL`` raises NumericalFailure.
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

    # -- passes -------------------------------------------------------------

    def run(self, start: LpBasis | None = None) -> LpStatus:
        """Optimal or infeasible; raises NumericalFailure otherwise.  The
        passes are the module docstring's: dual to a feasible basis (cold on
        ``min(c, 0)``, warm from ``start`` on ``c``), primal on the perturbed
        rhs, dual again on the true one."""
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

    def _pass(self, cost: np.ndarray, sense: int, choose) -> bool:
        """Pivot by ``choose`` under the module's policy until it gives a
        verdict, and return the verdict.

        ``sense`` is +1 for a pass that raises ``cost @ x`` (primal) and -1
        for one that lowers it (dual).  ``choose(reduced, bland, banned)``
        returns True (done) or False (infeasible), or a step ``(j, row, step,
        upper)``: column j moves ``step`` away from its bound and enters at
        ``row``, whose basic variable leaves at its upper bound if ``upper``,
        else its lower; ``row`` None moves j to its other bound instead.  It
        picks by lowest index under ``bland`` and passes over the columns
        ``banned`` marks (None while there are none), where a tiny pivot bans
        both of its columns.
        """
        reduced = self._reduced_costs(cost)
        best = float(cost @ self.x)
        stall = since_rebuild = 0
        bland = rebuild = False
        banned = fallback = None
        while True:
            if rebuild or since_rebuild >= _REFACTOR_EVERY:
                self._refactorize()
                reduced = self._reduced_costs(cost)
                since_rebuild, rebuild = 0, False
            choice = choose(reduced, bland, banned)
            if isinstance(choice, bool):
                size = None
            else:
                j, row = choice[:2]
                size = np.inf if row is None else abs(float(self.tableau[row, j]))
            # A proof of infeasibility stands over a tiny pivot set aside.
            if choice is True and fallback is not None:
                choice = fallback[1]
            elif size is None or size < _SAFE_PIVOT:
                if since_rebuild > 0:
                    # Maybe drift on the updated tableau; decide on exact data.
                    rebuild = True
                    continue
                if size is None:
                    return choice
                if banned is None:
                    banned = np.zeros(self.n + self.m, dtype=bool)
                banned[[j, self.basis[row]]] = True
                if fallback is None or size > fallback[0]:
                    fallback = (size, choice)
                continue
            banned = fallback = None
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            j, row, step, upper = choice
            self._apply_step(j, step, row, upper)
            if row is not None:
                reduced = reduced - reduced[j] * self.tableau[row, :]
                reduced[j] = 0.0
                since_rebuild += 1
            if bland:
                # Bland's termination guarantee needs exact reduced costs;
                # incremental updates drift on long degenerate runs.
                reduced = self._reduced_costs(cost)
            value = float(cost @ self.x)
            if sense * value > sense * best + 1e-12 * (1.0 + abs(best)):
                best, stall, bland = value, 0, False
            else:
                stall += 1
                if stall > _BLAND_TRIGGER and not bland:
                    bland = rebuild = True

    def _dual(self, cost: np.ndarray) -> bool:
        """Dual pass: from a basis dual feasible for ``cost``, pivot every
        basic value into its box; False when a violated row proves the
        program infeasible.

        The leaving row holds the basic value furthest outside its box (under
        Bland, the lowest basic index among the violated rows) and leaves at
        the bound it violates.  The entering column moves that value toward
        its box at the smallest ratio |d_j / alpha_rj|, so no reduced cost
        changes sign; near-ties go to the largest |alpha_rj| (under Bland, the
        lowest index).
        """

        def choose(reduced, bland, banned):
            values = self.x[self.basis]
            lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
            excess = np.maximum(lo_b - values, values - hi_b)
            if banned is not None:
                excess[banned[self.basis]] = 0.0
            violated = np.flatnonzero(excess > _FEAS_TOL)
            if violated.size == 0:
                return True
            if bland:
                row = int(violated[np.argmin(self.basis[violated])])
            else:
                row = int(np.argmax(excess))
            upper = bool(values[row] > hi_b[row])
            alpha = self.tableau[row, :]
            direction = np.where(self.status == _AT_LOWER, 1.0, -1.0)
            moves = direction * alpha
            toward = moves > _PIVOT_TOL if upper else moves < -_PIVOT_TOL
            idx = np.flatnonzero(~self.in_basis & (self.hi > self.lo) & toward)
            if idx.size == 0:
                return False
            magnitudes = np.abs(alpha[idx])
            ratios = np.maximum(-direction[idx] * reduced[idx], 0.0) / magnitudes
            least = float(ratios.min())
            ties = ratios <= least + 1e-12 * (1.0 + least)
            if bland:
                j = int(idx[ties][0])
            else:
                j = int(idx[ties][int(np.argmax(magnitudes[ties]))])
            bound = hi_b[row] if upper else lo_b[row]
            return j, row, (values[row] - bound) / moves[j], upper

        return self._pass(cost, -1, choose)

    def _optimize(self) -> None:
        """Primal pass: from a feasible basis, maximize the objective.  The
        entering column has the largest improving reduced cost (under Bland,
        the lowest index); :meth:`_ratio_test` picks the leaving row."""

        def choose(reduced, bland, banned):
            j = self._select_entering(reduced, bland, banned)
            return True if j is None else (j, *self._ratio_test(j))

        self._pass(self.obj, 1, choose)

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

    def _ratio_test(self, j: int) -> tuple[int | None, float, bool]:
        """(row, step, upper) of entering column j, as ``_pass`` takes them;
        ``row`` None when j reaches its other bound first.

        Every variable is boxed, so a step without limit can only come from
        rounding and raises NumericalFailure."""
        direction = 1 if self.status[j] == _AT_LOWER else -1
        d = direction * self.tableau[:, j]
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
            return None, float(flip_step), False
        ties = np.flatnonzero(steps <= row_step + 1e-12 * (1.0 + row_step))
        # Degenerate vertices produce large tie sets; pivoting on a tiny
        # element there wrecks the tableau, so stability comes first: take
        # the largest pivot magnitude, then the lowest basic-variable index.
        magnitudes = np.abs(d[ties])
        stable = ties[magnitudes >= 0.5 * float(magnitudes.max())]
        row = int(stable[int(np.argmin(self.basis[stable]))])
        return row, row_step, bool(d[row] < 0)

    def _apply_step(self, j: int, step: float, row: int | None, upper: bool) -> None:
        """Move ``j`` by ``step`` away from its bound.  With ``row`` None, j
        lands on its other bound; otherwise it enters the basis at ``row``,
        whose variable leaves at its upper bound if ``upper``, else its lower."""
        direction = 1 if self.status[j] == _AT_LOWER else -1
        self.x[self.basis] -= direction * step * self.tableau[:, j]
        if row is None:
            self.x[j] = self.hi[j] if direction > 0 else self.lo[j]
            self.status[j] ^= 1
            return
        entering_value = self.x[j] + direction * step
        leaving = self.basis[row]
        self.x[leaving] = self.hi[leaving] if upper else self.lo[leaving]
        self.status[leaving] = _AT_UPPER if upper else _AT_LOWER
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

    ``start``, the optimal solution of an earlier program that this one
    extends by appending rows, makes the solve warm (module docstring).
    Raises ValueError when ``lp`` does not extend the start's program.

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
