"""Deterministic bounded-variable linear-program solver.

Maximizes ``c @ z`` subject to ``A z <= b`` and finite per-variable boxes.
Every feasibility, margin, and sparsity computation in the package runs
through this engine, so the priorities are correctness and determinism:
for a fixed BLAS build and thread count, identical inputs produce
bit-identical solutions.  At desk scale (tens to a
few hundred rows) a pivot costs its numpy calls, not its arithmetic, so the
hot loop makes few of them: ndarray methods (``.nonzero()``, ``.argmin()``)
and direct ufunc reductions (``np.maximum.reduce``) in place of the Python
wrappers behind ``np.flatnonzero``, ``np.argmin`` and ``ndarray.max``, and
``.take()`` in place of fancy indexing to gather rows or columns of a matrix.

Only this module knows how a program stores its rows: one read-only matrix
``a`` and rhs vector ``b``, grown a whole block at a time (see
:class:`LinearProgram`) and read by the solver and its post-check as stored.

A run is three passes of a dense bounded simplex over the columns
[structural | slack] whose tableau is B⁻¹N over the n nonbasic columns, of
which it holds only the rows of the basic structurals (see
:class:`_Simplex`): a basic slack's row, and a nonbasic column, are each
one product with A away, and a pivot's rank-one update touches the held
rows alone.  Every run starts the same way, from a start basis: a dual pass
on shifted costs reaches a feasible basis; a primal pass optimizes ``c`` on
a slightly perturbed rhs; the true rhs restored (only the basic values
change), a second dual pass on ``c`` pivots back into its box any basic
value it moves out, ending at the true program's optimum or proving it
infeasible (reduced costs do not involve the rhs, so the basis stays dual
feasible).  The shifted costs make the start dual feasible with no
artificial column: each movable nonbasic column whose reduced cost would
still improve ``c`` has that reduced cost taken off its cost (Koberstein
2005, ch. 3), and the primal pass, on ``c`` itself, undoes the shift.  A
start that is already primal feasible makes no dual pivots.  One routine,
:meth:`_Simplex.begin`, sets every run up from its start.  A cold run
starts from the slack basis, every variable at its lower bound, where the
reduced costs are the costs and the shifted cost is ``min(c, 0)``.  A warm
run (``solve_lp(lp, start=basis)``) takes an :class:`LpBasis` over the
same variables and no more rows, an earlier optimum's ``solution.basis``
or a bare one, each further row's slack entering it basic.  When ``lp``
extends the program an optimum's basis was solved on by appending rows
(the same objective and bounds, the same leading rows and rhs), the run
carries on from the final state kept on that basis: its held rows, which
depend only on the rows whose slack is nonbasic and on the basic
structurals, stand as they are, so the start costs no rebuild.  Any other
start is rebuilt from ``lp``'s own rows, save a slack basis (B = I).
A start that needs no shift and whose basic values already lie in their
boxes at the true rhs is optimal as it stands, and the run returns it
before any pass.  When ``lp`` extends the start's program, its basis is
nonsingular and needs no shift; over other rows or another objective it
may need one, and it may be singular or ill-conditioned.  When it is, or
the warm run fails numerically, the cold run takes over, and the
post-check certifies whatever point a warm run returns.  So it does when a
warm run that has gone on past ``_REFACTOR_EVERY`` steps rebuilds an
ill-conditioned basis: there a dual pass can wander, its basic values far
outside their boxes, until the iteration cap.

Every pass runs one pivot loop, which owns the numerical policy; the passes
differ only in how they choose a pivot.  The policy:

- a pivot is tiny below ``_SAFE_PIVOT`` times its row's largest magnitude
  (the basic column's 1 included): rounding there can pass for a true zero;
- the tableau is rebuilt every ``_REFACTOR_EVERY`` pivots, and a verdict or
  a tiny pivot found on an updated tableau is redone on a rebuilt one;
- a tiny pivot on a rebuilt tableau is set aside while another candidate
  offers a healthy one, the least-bad being taken when none does;
- the programs here are massively degenerate, so after ``_BLAND_TRIGGER``
  pivots that leave the objective where it was, Bland's rule (lowest column
  id) takes over until it moves.  Its proof of finiteness holds only for
  exact pivots on one unchanged tableau, and the bans on tiny pivots and
  the rebuild every ``_REFACTOR_EVERY`` pivots void it: here Bland's rule
  makes cycling unlikely, not impossible, and the iteration cap is the
  backstop;
- past the iteration cap the run raises.

A rebuild solves only the basis's r×r basic-structural block, basic slacks
being unit columns, for the held rows, and it is the only LU solve a run
makes.  A pass ends on held rows no pivot has touched since they were built
(bound flips leave them as they are), whose column at a nonbasic slack is
the block's inverse times that slack's unit column, so the basic values at
the true rhs are read off them; so does a carried start, whose rows an
optimal run ended on.  A solve ends optimal or infeasible, or
raises :class:`NumericalFailure`.  Every variable is boxed, so no program
is unbounded: an improving direction without limit or a singular basis can
only come from rounding, and each raises.  The one recovery path is the
cold run that takes over when a warm run raises, a start rejected by its
rebuild included.  Every program the package builds is feasible by
construction, so its caller takes the solution through
:meth:`LpSolution.require_optimal`: a numerical failure is never a verdict.
"""

from __future__ import annotations

import enum
import math
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
_UPDATE_ROWS = 64
# A warm start's basis block with a larger κ∞ is refused (_Simplex.begin),
# and so is one a warm run rebuilds past its first _REFACTOR_EVERY steps: at
# this conditioning 1e-16 rounding reaches the 1e-4 level, far above
# every working tolerance.
_MAX_CONDITION = 1e12

_largest, _smallest = np.maximum.reduce, np.minimum.reduce  # module docstring
_ZERO = np.zeros(1)  # concatenated on: the same bits as np.append, without its wrapper


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class LinearProgram:
    """A maximization LP with inequality rows and finite variable boxes.

    The rows are one read-only matrix ``a`` and rhs vector ``b``, the program
    being ``a @ z <= b``.  :meth:`add_leq` / :meth:`add_eq` append a whole
    block of dense rows (one row is a one-row block) by binding new arrays,
    never writing into the old ones, so a :meth:`copy` shares them as they
    stood.  The objective and bounds are read-only too; every bound must be
    finite.  Each is stored as a copy, so no caller's later write reaches
    the program.
    """

    def __init__(
        self,
        objective: Sequence[float] | np.ndarray,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
    ):
        self.lower = _frozen(np.array(lower, dtype=float))
        self.upper = _frozen(np.array(upper, dtype=float))
        if self.lower.ndim != 1 or self.upper.shape != self.lower.shape:
            raise ValueError("objective and bounds must have the same length")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("all variable bounds must be finite")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")
        self.objective = self._objective(objective)
        self.a = _frozen(np.zeros((0, self.lower.shape[0])))
        self.b = _frozen(np.zeros(0))

    def _objective(self, values) -> np.ndarray:
        """``values`` stored as an objective over these variables."""
        objective = _frozen(np.array(values, dtype=float))
        if objective.shape != self.lower.shape:
            raise ValueError("objective and bounds must have the same length")
        if not np.isfinite(objective).all():
            raise ValueError("objective coefficients must be finite")
        return objective

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.b.shape[0]

    def _block(self, coeffs, rhs) -> tuple[np.ndarray, np.ndarray]:
        """``coeffs`` as a (rows, variables) block, -0.0 made +0.0, and ``rhs``
        as one value per row, a scalar standing for every row."""
        block = np.array(coeffs, dtype=float, ndmin=2, order="C")
        if block.ndim != 2 or block.shape[1] != self.num_vars:
            raise ValueError("dense row has wrong length")
        bound = np.array(rhs, dtype=float)
        if bound.ndim == 0:
            bound = np.full(block.shape[0], bound)
        elif bound.shape != block.shape[:1]:
            raise ValueError("need one rhs per row")
        if not (np.isfinite(block).all() and np.isfinite(bound).all()):
            raise ValueError("row coefficients and rhs must be finite")
        block += 0.0
        return block, bound

    def add_leq(self, coeffs: Sequence | np.ndarray, rhs) -> None:
        """Append ``coeffs @ z <= rhs``: one dense row over the variables or a
        block of them, with one rhs per row or a scalar rhs for every row."""
        block, bound = self._block(coeffs, rhs)
        if self.num_rows:
            block, bound = np.concatenate([self.a, block]), np.concatenate([self.b, bound])
        self.a, self.b = _frozen(block), _frozen(bound)

    def add_eq(self, coeffs: Sequence | np.ndarray, rhs) -> None:
        """Append equality rows, each stored as the row then its negation."""
        block, bound = self._block(coeffs, rhs)
        pairs = np.stack([block, -block], axis=1).reshape(-1, self.num_vars)
        self.add_leq(pairs, np.stack([bound, -bound], axis=1).ravel())

    def copy(self) -> "LinearProgram":
        """A new program sharing these read-only arrays; appends stay apart."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def _maximizing(self, objective) -> "LinearProgram":
        """A copy of this program, its bounds and rows shared, that
        maximizes ``objective`` instead."""
        lp = self.copy()
        lp.objective = self._objective(objective)
        return lp

    def dense_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a, self.b


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values``, an array nothing else writes to, made read-only."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class LpBasis:
    """A simplex basis: the optimal one a solve ended on, or one to start at.

    ``basic[r]`` is the column basic at position r, over the column set
    [structural | slack]; ``status`` holds each column's bound code (0
    lower, 1 upper), meaningful where the column is nonbasic.

    Only an optimal solve has a basis; a warm solve starts from it.  That
    basis also keeps, privately and read-only in ``_final``, the solved
    program's arrays (objective, lower, upper, a, b) and the run's final
    state (its nonbasic order, the held rows' positions and the held rows),
    for a run on a program that extends that one by rows to carry over
    (:meth:`_Simplex.begin`).  It is not an argument: a basis made by hand
    or with ``dataclasses.replace`` keeps none and is rebuilt.
    """

    basic: np.ndarray
    status: np.ndarray
    _final: tuple | None = field(default=None, init=False, repr=False)

    def _extended_by(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` is the program this basis's solve ended on with
        rows appended: the same objective and bounds, the same leading rows
        and rhs."""
        if self._final is None:
            return False
        objective, lower, upper, a, b = self._final[:5]
        m = b.shape[0]
        return (
            lp.objective is objective
            and lp.lower is lower
            and lp.upper is upper
            and np.array_equal(lp.b[:m], b)
            and (lp.a is a or np.array_equal(lp.a[:m], a))
        )


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A solve's outcome.

    ``status`` is optimal or infeasible; a solve that fails numerically
    raises instead.  ``warm`` says the solve started from its start's basis,
    an earlier optimum's or a bare one, and finished from there, whether
    optimal or infeasible and whether or not that basis was dual feasible
    here (after a fallback to the cold solve, when the start is singular or
    ill-conditioned here or the warm run fails numerically, it is False);
    ``iterations`` counts every step made, pivots and bound flips, and
    ``refactorizations`` every rebuild of the tableau, each the run's one
    kind of LU solve (the restore of the true rhs reads the basic values off
    the rebuilt tableau), a failed warm attempt's included in both.  A start
    rebuilt from ``lp``'s rows counts one rebuild; one carried into a
    program that extends its own counts none, and so does a slack basis.
    ``basis`` is set on optimal solutions; pass it as ``start`` to solve a
    program over the same variables with no fewer rows.
    ``point``, set on optimal solutions too, is read-only.
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

    def require_optimal(self, what: str) -> "LpSolution":
        """This solution if optimal, else :class:`NumericalFailure` naming ``what``:
        every program the package builds is feasible by construction."""
        if not self.is_optimal:
            raise NumericalFailure(
                f"{what} reported {self.status.value}; the program is feasible by "
                "construction, so this is a solver defect, not a verdict"
            )
        return self


# Nonbasic status codes, and the direction a column at each moves in.
_AT_LOWER = 0
_AT_UPPER = 1
_DIRECTION = np.array([1.0, -1.0])


class _Simplex:
    """Dense bounded-variable simplex over the columns [structural | slack].

    ``basis[p]`` is the column basic at position p and ``nonbasic[k]`` the
    column at nonbasic position k.  Of the tableau B⁻¹N over the nonbasic
    positions only the rows of the r basic structurals are held: ``rows[i]``
    for i < r, the row at position ``owner[i]``, whose column of A is
    ``a_s[i]`` (A[:, S] stored column by column).  ``where[p]`` is m + i for
    the position holding row i, else the row whose slack is basic at p.  A
    basic slack's row and a nonbasic column are derived from A when a pivot
    needs them (:meth:`_row`, :meth:`_column`), each once per pivot.  A
    pivot swaps the entering and leaving columns' positions, so ties go by
    column id, the order Bland's rule and determinism need.  Each step keeps
    ``direction`` (+1 at the lower bound, -1 at the upper), ``movable`` (a
    box of positive width) and ``picked`` (the structural id, n for a slack)
    of each nonbasic position and ``lo_b``/``hi_b`` of each basic one
    current."""

    # Attribute reads are the pivot loop's commonest operation.  Slots keep
    # them fast however many the engine holds: CPython 3.11 moves an
    # instance past 29 attributes to a plain dict, which made a cold solve
    # 2% slower.  ``__dict__`` stays for attributes a caller attaches.
    __slots__ = (
        "lp", "m", "n", "a", "b", "b_true", "obj", "lo", "hi", "start",
        "basis", "nonbasic", "status", "x", "direction", "movable", "picked",
        "lo_b", "hi_b", "r", "rows", "a_s", "owner", "where", "pivot_row",
        "_derived_row", "_derived_column", "_derived_reduced",
        "iterations", "refactorizations", "max_iterations", "__dict__",
    )

    def __init__(self, lp: LinearProgram, start: LpBasis | None = None):
        self.lp = lp
        self.m = lp.num_rows
        self.n = lp.num_vars
        n, m = self.n, self.m
        # Over [structural | slack]: each slack in [0, inf), at no cost.
        self.lo, self.hi, self.obj = np.zeros(n + m), np.empty(n + m), np.zeros(n + m)
        self.lo[:n], self.hi[:n], self.obj[:n] = lp.lower, lp.upper, lp.objective
        self.hi[n:] = np.inf
        self.a = lp.a
        self.status = np.zeros(n + m, dtype=np.int8)
        # Deterministic right-hand-side perturbation: the margin programs
        # here are massively primal-degenerate (whole residual families tie
        # at zero), and unperturbed pivoting crawls through the tie plateaus.
        # Distinct tiny offsets break the ties; the true rhs is restored at
        # optimality, where the basis stays optimal because reduced costs do
        # not involve the rhs.
        self.b_true = lp.b
        self.b = lp.b + _PERTURBATION * np.arange(1.0, m + 1.0)
        # The basis for begin() to set the run up from; None: the cold start.
        self.start = start
        # A basis holds at most min(n, m) structurals.
        self.rows = np.empty((min(n, m), n))
        self.a_s = np.empty((min(n, m), m))
        self.owner = np.empty(min(n, m), dtype=np.intp)
        self._forget()
        self.iterations = 0
        self.refactorizations = 0
        self.max_iterations = max(2000, 60 * (n + m))

    def _index_positions(self, held: np.ndarray | None = None) -> None:
        """Set the per-position state from ``basis``, ``nonbasic``, ``status``,
        and the held rows' layout: the basic structurals' positions in
        ``held`` order, by position if None; the rows themselves are
        :meth:`_refactorize`'s to compute."""
        n = self.n
        self.direction = _DIRECTION.take(self.status.take(self.nonbasic))
        self.movable = self.hi[self.nonbasic] > self.lo[self.nonbasic]
        self.picked = np.minimum(self.nonbasic, n)
        self.lo_b, self.hi_b = self.lo[self.basis], self.hi[self.basis]
        if held is None:
            held = (self.basis < n).nonzero()[0]
        self.r = r = held.size
        self.where = self.basis - n
        if r:  # a slack basis holds no row
            self.owner[:r] = held
            self.a_s[:r] = self.a.take(self.basis.take(held), 1).T
            self.where[held] = np.arange(self.m, self.m + r)

    def begin(self) -> None:
        """Set the run up from ``start``, None being the slack basis with
        every variable at its lower bound.

        A start keeps its positions and bound codes, the slack of each row
        past its own entering basic at its own position, on the cold run's
        perturbed rhs.  When ``lp`` extends the start's program by appending
        rows, its layout stands and so do its held rows: Z = A[R, S]⁻¹N_R
        depends on the rows R whose slack is nonbasic and the basic
        structurals S alone, neither of which changes; the start's last
        verdict was made on them as rebuilt, so the basic values are read off
        them.  That basis matrix is block lower-triangular with an identity
        block for the appended slacks, which carry no cost, so it is
        nonsingular and dual feasible.  Any
        other start is rebuilt from ``lp``'s rows, save a basis that holds no
        structural: B = I, each slack's value its row's b − A x.  Over other
        rows or another objective a start may be neither: :meth:`run` shifts
        the costs that are not dual feasible, and a singular or
        ill-conditioned block (κ∞ = ‖A[R, S]‖∞‖A[R, S]⁻¹‖∞ above
        ``_MAX_CONDITION``, the inverse read off the held rows at the
        nonbasic slacks) raises NumericalFailure, and the cold run takes
        over.  Basic values left outside their boxes are the first dual
        pass's to repair.
        """
        n, m, start = self.n, self.m, self.start
        carried = start is not None and start._extended_by(self.lp)
        if start is None:
            self.basis, self.nonbasic = np.arange(n, n + m), np.arange(n)
            self.x = self.lo.copy()
        else:
            m0 = start.basic.size
            self.basis = np.concatenate([start.basic, np.arange(n + m0, n + m)])
            if carried:
                nonbasic, held, rows = start._final[5:]
                self.nonbasic = nonbasic.copy()
            else:
                nonbasic = np.ones(n + m, dtype=bool)
                nonbasic[self.basis] = False
                self.nonbasic = nonbasic.nonzero()[0]
            self.status[: n + m0] = start.status
            self.x = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        self._index_positions(held if carried else None)
        if not self.r:  # B = I: no row held, each position its row's slack
            self.x[self.basis] = (self.b - self.a @ self.x[:n]).take(self.where)
        elif carried:
            self.rows[: self.r] = rows
            self._check_condition()
            self.x[self.basis] = self._basic_values(self.b)
        else:
            self._refactorize()
            self._check_condition()

    def _check_condition(self) -> None:
        """Raise NumericalFailure when the basic-structural block's κ∞ =
        ‖A[R, S]‖∞‖A[R, S]⁻¹‖∞ exceeds ``_MAX_CONDITION``, the inverse read
        off rebuilt rows at the nonbasic slacks."""
        n, r = self.n, self.r
        if r:
            at = (self.nonbasic >= n).nonzero()[0]
            inverse = np.abs(self.rows[:r].take(at, 1)).sum(axis=1)
            block = np.abs(self.a_s[:r].take(self.nonbasic.take(at) - n, 1)).sum(axis=0)
            if _largest(inverse) * _largest(block) > _MAX_CONDITION:
                raise NumericalFailure("a warm run's basis is ill-conditioned here")

    # -- passes -------------------------------------------------------------

    def run(self) -> LpStatus:
        """Optimal or infeasible, else raises NumericalFailure; the passes
        are the module docstring's, from the engine's ``start``."""
        self.begin()
        # The first dual pass's cost: c shifted to make the start dual
        # feasible (module docstring).
        reduced = self._reduced_costs(self.obj)
        shift = self.movable & (self.direction * reduced > _COST_TOL)
        cost = self.obj
        if shift.any():
            cost = cost.copy()
            cost[self.nonbasic[shift]] -= reduced[shift]
        elif self.start is not None:
            values = self._basic_values(self.b_true)
            if _largest(self._excess(values), initial=0.0) <= _FEAS_TOL:
                # Optimal as it stands: a dual feasible start in its boxes.
                self.b, self.x[self.basis] = self.b_true, values
                return LpStatus.OPTIMAL
        if not self._dual(cost):
            return LpStatus.INFEASIBLE
        self._optimize()
        self.b = self.b_true
        self.x[self.basis] = self._basic_values(self.b)
        if not self._dual(self.obj):
            # Feasible only under the perturbation: the true program is not.
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL

    def _pass(self, cost: np.ndarray, sense: int, choose) -> bool:
        """Pivot by ``choose`` under the module's policy to its verdict.

        ``sense`` is +1 for a pass that raises ``cost @ x`` (primal) and -1
        for one that lowers it (dual).  ``choose(reduced, bland, banned)``,
        ``reduced`` being over the nonbasic positions, returns True (done) or
        False (infeasible), or a step ``(k, row, step, upper)``: the column at
        nonbasic position k moves ``step`` away from its bound and enters at
        ``row``, whose basic variable leaves at its upper bound if ``upper``,
        else its lower (``row`` None: to its other bound instead).  Under
        ``bland`` it picks the lowest column id, and it passes over the
        columns ``banned`` marks (None if none), a tiny pivot banning both.
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
            size, tiny = None, False
            if not isinstance(choice, bool):
                (k, row), size = choice[:2], np.inf
                if row is not None:  # tiny (module docstring): maybe a zero
                    alpha = np.abs(self._row(row))
                    size = float(alpha[k])
                    tiny = size < _SAFE_PIVOT * max(1.0, float(_largest(alpha)))
            # A proof of infeasibility stands over a tiny pivot set aside.
            if choice is True and fallback is not None:
                choice = fallback[1]
            elif size is None or tiny:
                if since_rebuild > 0:
                    # Maybe drift on the updated tableau; decide on exact data.
                    rebuild = True
                    continue
                if size is None:
                    return choice
                if banned is None:
                    banned = np.zeros(self.n + self.m, dtype=bool)
                banned[[self.nonbasic[k], self.basis[row]]] = True
                if fallback is None or size > fallback[0]:
                    fallback = (size, choice)
                continue
            banned = fallback = None
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            k, row, step, upper = choice
            entering = reduced[k]
            self._apply_step(k, step, row, upper)
            if row is not None:
                reduced = reduced - entering * self.pivot_row
                reduced[k] = -entering * self.pivot_row[k]
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
        program infeasible.  The leaving row holds the basic value furthest
        outside its box (under Bland, the lowest basic column id among the
        violated rows) and leaves at the bound it violates.  The entering
        column moves that value toward its box at the smallest ratio
        |d_j / alpha_rj|, so no reduced cost changes sign; near-ties go to the
        largest |alpha_rj| (not under Bland), then to the lowest column id."""

        def choose(reduced, bland, banned):
            values = self.x[self.basis]
            excess = self._excess(values)
            if banned is not None:
                excess[banned[self.basis]] = 0.0
            row = int(excess.argmax()) if self.m else -1
            if row < 0 or excess[row] <= _FEAS_TOL:
                return True
            if bland:
                violated = (excess > _FEAS_TOL).nonzero()[0]
                row = int(violated[self.basis[violated].argmin()])
            upper = bool(values[row] > self.hi_b[row])
            alpha = self._row(row)
            moves = self.direction * alpha
            toward = moves > _PIVOT_TOL if upper else moves < -_PIVOT_TOL
            idx = (self.movable & toward).nonzero()[0]
            if idx.size == 0:
                return False
            ratios = np.maximum(-self.direction[idx] * reduced[idx], 0.0)
            ratios /= np.abs(alpha[idx])
            least = float(_smallest(ratios))
            ties = idx[ratios <= least + 1e-12 * (1.0 + least)]
            if ties.size > 1 and not bland:
                magnitudes = np.abs(alpha[ties])
                ties = ties[magnitudes == _largest(magnitudes)]
            k = int(ties[self.nonbasic[ties].argmin()] if ties.size > 1 else ties[0])
            bound = self.hi_b[row] if upper else self.lo_b[row]
            return k, row, (values[row] - bound) / moves[k], upper

        return self._pass(cost, -1, choose)

    def _optimize(self) -> None:
        """Primal pass: from a feasible basis, maximize the objective, entering
        the largest improving reduced cost (not under Bland), then the lowest
        column id; :meth:`_ratio_test` picks the leaving row."""

        def choose(reduced, bland, banned):
            k = self._select_entering(reduced, bland, banned)
            return True if k is None else (k, *self._ratio_test(k))

        self._pass(self.obj, 1, choose)

    # -- the tableau ----------------------------------------------------------

    def _forget(self) -> None:
        """Drop the derived row, column and reduced costs: the tableau
        changed."""
        self._derived_row = self._derived_column = self._derived_reduced = (-1, None)

    def _by_position(self, held: np.ndarray, by_row: np.ndarray) -> np.ndarray:
        """Values over the basis positions from one per held row and one
        per row of A, read at the row whose slack is basic there."""
        return np.concatenate([by_row, held]).take(self.where)

    def _row(self, p: int) -> np.ndarray:
        """The tableau row at basis position p.  At the basic slack of row l
        it is A[l, picked] − A[l, S] Z, a nonbasic slack picking a zero."""
        i = int(self.where[p]) - self.m
        if i >= 0:
            return self.rows[i]
        if self._derived_row[0] != p:
            l, r = i + self.m, self.r
            row = np.concatenate([self.a[l], _ZERO]).take(self.picked)
            if r:
                row -= self.a_s[:r, l] @ self.rows[:r]
            self._derived_row = (p, row)
        return self._derived_row[1]

    def _column(self, k: int) -> np.ndarray:
        """The tableau column at nonbasic position k over the basis
        positions: Z[:, k] at the held rows, and at a basic slack's row the
        entering column's entry of A less A[:, S] Z[:, k] (a slack column
        has none there: its own row's slack is nonbasic)."""
        if self._derived_column[0] != k:
            r, j = self.r, int(self.nonbasic[k])
            z = self.rows[:r, k]
            by_row = self.a[:, j] if j < self.n else np.zeros(self.m)
            if r:
                by_row = by_row - z @ self.a_s[:r]
            self._derived_column = (k, self._by_position(z, by_row))
        return self._derived_column[1]

    def _nonbasic_rhs(self, b: np.ndarray) -> np.ndarray:
        """b less the nonbasic columns at their values: B times x_B."""
        nonbasic_x = self.x.copy()
        nonbasic_x[self.basis] = 0.0
        return b - self.a @ nonbasic_x[: self.n] - nonbasic_x[self.n :]

    def _excess(self, values: np.ndarray) -> np.ndarray:
        """How far each basic value lies outside its box (negative inside)."""
        return np.maximum(self.lo_b - values, values - self.hi_b)

    def _basic_values(self, b: np.ndarray) -> np.ndarray:
        """The basic values at rhs ``b``, B⁻¹(b − N x_N), read off freshly
        rebuilt rows: a nonbasic slack's column there is A[R, S]⁻¹eᵢ for its
        row i, so x_S takes one product, and the basic slacks the rows'
        values less A[:, S] x_S."""
        n, r = self.n, self.r
        rhs = self._nonbasic_rhs(b)
        at = (self.nonbasic >= n).nonzero()[0]
        values = self.rows[:r].take(at, 1) @ rhs.take(self.nonbasic.take(at) - n)
        return self._by_position(values, rhs - values @ self.a_s[:r])

    def _refactorize(self) -> None:
        """Rebuild the held rows and the basic values from the basis: with R
        the rows whose slack is nonbasic and S the basic structurals, in the
        held rows' order, the rows are Z = A[R, S]⁻¹ C[R], C = [N |
        b − N x_N] gathered from A's rows in R alone, and a basic slack's
        value is its row of C less A[i, S] x_S.  Rank-one updates drift;
        long degenerate runs gather enough error to flip reduced-cost signs.
        A singular basis can only come from rounding and raises
        NumericalFailure."""
        self.refactorizations += 1
        n, r = self.n, self.r
        basic = self.basis.take(self.owner[:r])
        at = (self.nonbasic >= n).nonzero()[0]
        at = at.take(self.nonbasic.take(at).argsort())  # R ascending
        rows = self.nonbasic.take(at) - n
        rhs = self._nonbasic_rhs(self.b)
        a = self.a.take(rows, 0)
        # Over [A | 0 | rhs] a nonbasic slack's column reads the 0 column.
        top = np.concatenate([a, np.zeros((r, 1)), rhs.take(rows)[:, None]], axis=1)
        top = top.take(np.concatenate([self.picked, [n + 1]]), 1)
        top[np.arange(r), at] = 1.0
        try:
            z = np.linalg.solve(a.take(basic, 1), top)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("the simplex basis became singular") from exc
        self.rows[:r] = z[:, :-1]
        self._forget()
        values = z[:, -1]
        self.x[self.basis] = self._by_position(values, rhs - values @ self.a_s[:r])
        if self.start is not None and self.iterations > _REFACTOR_EVERY:
            self._check_condition()  # a long warm run (module docstring)

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs of the nonbasic positions, c_N − c_B B⁻¹N: c_S Z
        over the held rows, and over each basic slack that carries a cost
        (a shifted one, :meth:`run`) its row A[l, picked] − A[l, S] Z.  Kept
        for ``cost`` until the tableau changes, so that a pass hands its
        verdict's reduced costs to the next pass on the same cost, and the
        shift test its own to a first pass on unshifted costs."""
        if self._derived_reduced[0] is cost:
            return self._derived_reduced[1]
        n, r = self.n, self.r
        cs = cost.take(self.basis.take(self.owner[:r]))
        reduced = cost.take(self.nonbasic)
        by_row = cost[n:]
        # The objective charges no slack; a shifted cost may.
        if cost is not self.obj and by_row.any():
            by_row = by_row.copy()
            by_row[self.nonbasic[self.nonbasic >= n] - n] = 0.0
            reduced -= np.concatenate([by_row @ self.a, _ZERO]).take(self.picked)
            cs = cs - self.a_s[:r] @ by_row
        if cs.any():
            reduced = reduced - cs @ self.rows[:r]
        self._derived_reduced = (cost, reduced)
        return reduced

    def _select_entering(self, reduced, bland: bool, banned=None) -> int | None:
        improving = self.movable & (self.direction * reduced > _COST_TOL)
        if banned is not None:
            improving &= ~banned[self.nonbasic]
        idx = improving.nonzero()[0]
        if idx.size <= 1:
            return int(idx[0]) if idx.size else None
        if not bland:
            gains = np.abs(reduced[idx])
            idx = idx[gains == _largest(gains)]
        return int(idx[self.nonbasic[idx].argmin()])

    def _ratio_test(self, k: int) -> tuple[int | None, float, bool]:
        """(row, step, upper) of the column entering from nonbasic position
        k, as ``_pass`` takes them; ``row`` None when it reaches its other
        bound first.  Every variable is boxed, so a step without limit can
        only come from rounding and raises NumericalFailure."""
        d = self.direction[k] * self._column(k)
        values = self.x[self.basis]
        # A step toward an infinite upper bound divides to inf: no limit.
        steps = np.full(self.m, np.inf)
        np.divide(values - self.lo_b, d, out=steps, where=d > _PIVOT_TOL)
        np.divide(self.hi_b - values, -d, out=steps, where=d < -_PIVOT_TOL)
        np.maximum(steps, 0.0, out=steps)
        row_step = float(_smallest(steps, initial=np.inf))
        flip_step = float(self.hi[self.nonbasic[k]] - self.lo[self.nonbasic[k]])
        if not math.isfinite(row_step) and not math.isfinite(flip_step):
            raise NumericalFailure("an improving direction has no limit")
        if flip_step <= row_step:
            return None, flip_step, False
        ties = (steps <= row_step + 1e-12 * (1.0 + row_step)).nonzero()[0]
        if ties.size > 1:
            # Degenerate vertices produce large tie sets; pivoting on a tiny
            # element there wrecks the tableau, so stability comes first: take
            # the largest pivot magnitude, then the lowest basic column id.
            magnitudes = np.abs(d[ties])
            ties = ties[magnitudes >= 0.5 * float(_largest(magnitudes))]
        row = int(ties[self.basis[ties].argmin()] if ties.size > 1 else ties[0])
        return row, row_step, bool(d[row] < 0)

    def _apply_step(self, k: int, step: float, row: int | None, upper: bool) -> None:
        """Move the column at nonbasic position ``k`` by ``step`` away from
        its bound.  With ``row`` None, it lands on its other bound; otherwise
        it enters the basis at ``row``, whose variable leaves at its upper
        bound if ``upper``, else its lower, taking position k, and
        ``pivot_row`` is the entering column's row."""
        j = int(self.nonbasic[k])
        direction = float(self.direction[k])
        column = self._column(k)
        self.x[self.basis] -= direction * step * column
        if row is None:
            self.x[j] = self.hi[j] if direction > 0 else self.lo[j]
            self.status[j] ^= 1
            self.direction[k] = -direction
            return
        piv = column[row]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        # Position k takes the leaving column: e_row pushed through the pivot.
        pivot = self._row(row) / piv
        pivot[k] = 1.0 / piv
        n, m, r = self.n, self.m, self.r
        if r:
            rows, change = self.rows[:r], column.take(self.owner[:r])
            rows[:, k] = 0.0
            # By blocks of rows, so that each block's update stays in cache.
            for start in range(0, r, _UPDATE_ROWS):
                block = slice(start, start + _UPDATE_ROWS)
                rows[block] -= change[block, None] * pivot
        i = int(self.where[row]) - m
        if j < n:  # a structural enters: its row is the pivot row
            if i < 0:
                i, self.r = r, r + 1
                self.owner[i], self.where[row] = row, m + i
            self.rows[i], self.a_s[i] = pivot, self.a[:, j]
        else:
            if i >= 0:  # a structural leaves: the last held row takes its place
                last = self.r = r - 1
                self.rows[i], self.a_s[i] = self.rows[last], self.a_s[last]
                self.owner[i] = self.owner[last]
                self.where[self.owner[i]] = m + i
            self.where[row] = j - n
        self.pivot_row = pivot
        self._forget()
        self.x[j] += direction * step
        leaving = int(self.basis[row])
        self.x[leaving] = self.hi[leaving] if upper else self.lo[leaving]
        self.status[leaving] = _AT_UPPER if upper else _AT_LOWER
        self.basis[row], self.nonbasic[k] = j, leaving
        self.picked[k] = min(leaving, n)
        self.direction[k] = -1.0 if upper else 1.0
        self.movable[k] = self.hi[leaving] > self.lo[leaving]
        self.lo_b[row], self.hi_b[row] = self.lo[j], self.hi[j]


def solve_lp(lp: LinearProgram, start: LpBasis | None = None) -> LpSolution:
    """Solve the program; deterministic across runs for identical inputs,
    for a fixed BLAS build and thread count.

    ``start``, a basis over the same variables with no more rows (the
    ``basis`` of an earlier optimal solution, or a bare one), makes the
    solve warm (module docstring).  Any earlier program will do, with other
    rows, rhs, bounds or objective: where the start is not dual feasible
    here the first dual pass runs on shifted costs, and where it is
    singular or ill-conditioned here the cold solve takes over.  The basis
    of a program that this one extends by appending rows (``lp`` a copy of
    it with rows added, so the same objective and bounds arrays, equal
    leading rows and rhs) is sure to be usable, and the solve carries on
    from the final simplex state kept on it, with no rebuild at its start;
    the start is left as it was, so it serves any number of solves alike.
    A bare basis is rebuilt; a slack basis, whatever its bound codes, is
    B = I, needs no rebuild and never falls back.  Raises ValueError when
    the start is a basis over other variables or more rows than ``lp``, or
    a bare one that repeats a basic column, names one out of range or holds
    a bound code other than 0 or 1.

    The solution is optimal or infeasible.  Raises :class:`NumericalFailure`
    when the cold solve fails numerically (a singular basis, a pivot or
    direction that rounding produced, the iteration cap); that condition is
    never reported as infeasible.  A program feasible by construction takes
    its solution through :meth:`LpSolution.require_optimal`.
    """
    if lp.num_vars == 0:
        raise ValueError("program has no variables")
    warm, spent = start is not None, (0, 0)
    if warm:
        if start.status.size != lp.num_vars + start.basic.size:
            raise ValueError("the start is a basis over other variables")
        if start.basic.size > lp.num_rows:
            raise ValueError("the start is a basis over more rows")
        basic = start.basic  # a solve's own basis is valid by construction
        if start._final is None and not (
            basic.dtype.kind in "iu" and np.all(np.diff(np.sort(basic)) > 0)
            and np.all((basic >= 0) & (basic < start.status.size))
            and np.all((start.status == 0) | (start.status == 1))
        ):
            raise ValueError("the start's basic columns or bound codes are invalid")
        engine = _Simplex(lp, start)
        try:
            status = engine.run()
        except NumericalFailure:
            spent = (engine.iterations, engine.refactorizations)
            warm = False
    if not warm:
        engine = _Simplex(lp)
        status = engine.run()
    counts = dict(
        iterations=spent[0] + engine.iterations,
        refactorizations=spent[1] + engine.refactorizations,
        warm=warm,
    )
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, **counts)

    point = engine.x[: lp.num_vars]
    # Snap values that drifted within certification tolerance back onto the box.
    if _largest(np.maximum(lp.lower - point, point - lp.upper)) > _FEAS_TOL:
        raise NumericalFailure("optimal point violates variable bounds")
    point = _frozen(np.minimum(np.maximum(point, lp.lower), lp.upper))

    max_violation = float(_largest(lp.a @ point - lp.b, initial=0.0))
    if max_violation > _FEAS_TOL:
        raise NumericalFailure(
            f"optimal point violates a constraint by {max_violation:.3e}"
        )
    basis = LpBasis(basic=_frozen(engine.basis), status=_frozen(engine.status))
    # The run's final state (LpBasis): held rows a rebuild made, as a
    # verdict needs no pivot since.
    object.__setattr__(basis, "_final", (
        lp.objective, lp.lower, lp.upper, lp.a, lp.b, _frozen(engine.nonbasic),
        _frozen(engine.owner[: engine.r]), _frozen(engine.rows[: engine.r]),
    ))
    return LpSolution(
        status=LpStatus.OPTIMAL,
        point=point,
        objective_value=float(lp.objective @ point),
        max_violation=max_violation,
        **counts,
        basis=basis,
    )
