"""Deterministic bounded-variable linear-program solver.

Maximizes ``c @ z`` subject to ``A z <= b`` and finite per-variable boxes.
Every feasibility, margin, and sparsity computation in the package runs
through this engine, so the priorities are correctness and determinism at
desk scale, not raw speed: dense two-phase primal simplex over bounded
variables, Dantzig pricing with lowest-index tie-breaking, and a switch to
Bland's rule (pure lowest-index, provably cycle-free) after a run of
degenerate pivots.  Identical inputs produce bit-identical solutions.

Unboundedness cannot occur when every structural variable has finite bounds,
which is how the rest of the package always calls it; it is still detected
and reported defensively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalFailure

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "solve_lp"]

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


class _SingularBasis(Exception):
    """Internal: the working basis lost invertibility; recover and retry."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """A maximization LP with inequality rows and finite variable boxes.

    Rows are held sparsely as ``(coefficient mapping, rhs)`` pairs; use
    :meth:`add_leq` / :meth:`add_eq` to build them.  Bounds must be finite in
    both directions for every variable.
    """

    def __init__(
        self,
        objective: Sequence[float] | np.ndarray,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
        var_names: Sequence[str] | None = None,
    ):
        self.objective = np.asarray(objective, dtype=float).copy()
        self.lower = np.asarray(lower, dtype=float).copy()
        self.upper = np.asarray(upper, dtype=float).copy()
        n = self.objective.shape[0]
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("objective and bounds must have the same length")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("all variable bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if var_names is not None and len(var_names) != n:
            raise ValueError("var_names length must match variable count")
        self.var_names = list(var_names) if var_names is not None else None
        self.rows: list[tuple[dict[int, float], float]] = []

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_leq(self, coeffs: Mapping[int, float] | np.ndarray, rhs: float) -> None:
        """Append one row ``sum_j coeffs[j] * z_j <= rhs``."""
        if isinstance(coeffs, Mapping):
            row = {int(j): float(v) for j, v in coeffs.items() if v != 0.0}
        else:
            dense = np.asarray(coeffs, dtype=float)
            if dense.shape != (self.num_vars,):
                raise ValueError("dense row has wrong length")
            row = {int(j): float(dense[j]) for j in np.flatnonzero(dense)}
        for j in row:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"coefficient index {j} out of range")
        if not np.isfinite(rhs) or not all(np.isfinite(v) for v in row.values()):
            raise ValueError("row coefficients and rhs must be finite")
        self.rows.append((row, float(rhs)))

    def add_eq(self, coeffs: Mapping[int, float] | np.ndarray, rhs: float) -> None:
        """Equality row, stored as a pair of opposing inequalities."""
        self.add_leq(coeffs, rhs)
        if isinstance(coeffs, Mapping):
            flipped = {j: -v for j, v in coeffs.items()}
        else:
            flipped = -np.asarray(coeffs, dtype=float)
        self.add_leq(flipped, -rhs)

    def dense_rows(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros((self.num_rows, self.num_vars))
        b = np.empty(self.num_rows)
        for i, (row, rhs) in enumerate(self.rows):
            for j, v in row.items():
                a[i, j] = v
            b[i] = rhs
        return a, b


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    point: np.ndarray | None = None
    objective_value: float | None = None
    max_violation: float = 0.0
    iterations: int = 0

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
        a, b = lp.dense_rows()
        self.m = a.shape[0]
        self.n = lp.num_vars
        n, m = self.n, self.m
        self.lo = np.concatenate([lp.lower, np.zeros(m)])
        self.hi = np.concatenate([lp.upper, np.full(m, np.inf)])
        self.cols = np.hstack([a, np.eye(m)]) if m else np.zeros((0, n))
        self.b = b
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
        self.b_true = b.copy()
        self.b = b + _PERTURBATION * (np.arange(m) + 1.0)
        self.perturbed = True
        self.true_feasible_seen = False
        self.x[self.basis] = self.b - a @ self.x[:n]
        self.iterations = 0
        self.max_iterations = max(2000, 60 * (n + m))

    # -- phase drivers ------------------------------------------------------

    def run(self) -> LpStatus:
        """Alternate optimization with feasibility restoration.

        The first optimization runs against the perturbed rhs; restoring the
        true rhs at its optimum keeps the basis dual-feasible, so when the
        basic values still sit inside their boxes the same vertex is optimal
        for the true program and the run ends.  Otherwise (and likewise when
        degenerate pivot runs leave the exact vertex slightly outside a box,
        or a chain of unavoidable small pivots wrecks the basis) the point is
        snapped onto the slack basis, phase one restores feasibility, and
        optimization resumes on the true program.
        """
        if not self._phase_one():
            return LpStatus.INFEASIBLE
        for _ in range(6):
            try:
                status = self._optimize(self.obj)
                if status is not LpStatus.OPTIMAL:
                    return status
                if self.perturbed:
                    self.b = self.b_true
                    self.perturbed = False
                self._refactorize()
            except _SingularBasis:
                self._snap_restart()
                if not self._phase_one():
                    raise NumericalFailure("recovery from singular basis failed")
                continue
            if self._violated_rows().size == 0:
                self.true_feasible_seen = True
                return LpStatus.OPTIMAL
            self._snap_restart()
            if not self._phase_one():
                if self.true_feasible_seen:
                    # The program was feasible a moment ago; losing that is a
                    # numerical event, not a property of the input.
                    raise NumericalFailure("feasibility restoration failed")
                # Feasible only under the perturbation: the true program is
                # infeasible (phase one just certified it from a clean basis).
                return LpStatus.INFEASIBLE
        raise NumericalFailure("feasibility restoration did not converge")

    def _violated_rows(self) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0, dtype=int)
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

        Expects a slack basis.  Rows whose slack is negative swap it for an
        artificial (the basis stays the identity up to sign flips), the sum
        of artificials is minimized, and the artificials are then pivoted out
        and frozen.
        """
        if self.m == 0:
            return True
        bad = np.flatnonzero(self.x[self.basis] < -_FEAS_TOL)
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
        status = self._optimize(art_cost)
        if status is not LpStatus.OPTIMAL:
            raise NumericalFailure("phase-1 subproblem did not terminate cleanly")
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
                # Redundant row; the artificial stays basic at (numerical)
                # zero and is frozen below so it can never move again.
                continue
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
        """
        if self.m == 0:
            return
        basis_matrix = self.cols[:, self.basis]
        nonbasic_x = self.x.copy()
        nonbasic_x[self.basis] = 0.0
        rhs = self.b - self.cols @ nonbasic_x
        try:
            solved = np.linalg.solve(
                basis_matrix, np.concatenate([self.cols, rhs[:, None]], axis=1)
            )
        except np.linalg.LinAlgError as exc:
            raise _SingularBasis from exc
        self.tableau = solved[:, :-1]
        self.x[self.basis] = solved[:, -1]

    def _optimize(self, cost: np.ndarray) -> LpStatus:
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
                    if step is None:
                        return LpStatus.UNBOUNDED
                    if flip or abs(column[row]) >= _SAFE_PIVOT:
                        break
                    if since_refactor > 0:
                        # A pivot this small is untrustworthy on an
                        # incrementally updated tableau (it may be an exact
                        # zero that drifted); redo selection on exact data.
                        self._refactorize()
                        reduced = self._reduced_costs(cost)
                        since_refactor = 0
                        banned = None
                        fallback = None
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
                if since_refactor > 0 or banned is not None:
                    self._refactorize()
                    reduced = self._reduced_costs(cost)
                    since_refactor = 0
                    banned = None
                    fallback = None
                j = self._select_entering(reduced, bland, None)
                if j is None:
                    return LpStatus.OPTIMAL
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
        if self.m == 0:
            return cost.copy()
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
        """Largest step for entering variable j; returns (step, row, flip)."""
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
        row_step = float(steps.min()) if self.m else np.inf
        flip_step = self.hi[j] - self.lo[j]
        if not np.isfinite(row_step) and not np.isfinite(flip_step):
            return None, -1, False
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program; deterministic across runs for identical inputs.

    Raises :class:`NumericalFailure` when the pivot tolerances are exhausted;
    that condition is never silently reported as infeasible.
    """
    if lp.num_vars == 0:
        raise ValueError("program has no variables")
    engine = _Simplex(lp)
    try:
        status = engine.run()
    except _SingularBasis as exc:
        # Raised where no recovery is attempted (a refactorization inside
        # phase one outside run's retry loop).
        raise NumericalFailure("the simplex basis became singular") from exc
    if status is LpStatus.INFEASIBLE:
        return LpSolution(status=LpStatus.INFEASIBLE, iterations=engine.iterations)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED, iterations=engine.iterations)

    point = engine.x[: lp.num_vars].copy()
    # Snap values that drifted within certification tolerance back onto the box.
    below = point < lp.lower
    above = point > lp.upper
    if np.any(point[below] < lp.lower[below] - _FEAS_TOL) or np.any(
        point[above] > lp.upper[above] + _FEAS_TOL
    ):
        raise NumericalFailure("optimal point violates variable bounds")
    point = np.clip(point, lp.lower, lp.upper)

    a, b = lp.dense_rows()
    residual = a @ point - b if lp.num_rows else np.zeros(0)
    max_violation = float(residual.max()) if residual.size else 0.0
    if max_violation > _FEAS_TOL:
        raise NumericalFailure(
            f"optimal point violates a constraint by {max_violation:.3e}"
        )
    return LpSolution(
        status=LpStatus.OPTIMAL,
        point=point,
        objective_value=float(lp.objective @ point),
        max_violation=max(max_violation, 0.0),
        iterations=engine.iterations,
    )
