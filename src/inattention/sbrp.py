"""Rationality test with one shared utility and per-agent cost sensitivities.

The compact model explains all agents with a single utility matrix; agents
differ only in how strongly the information cost bites, one positive scalar
each.  The swap residual couples that scalar with the cost difference, making
the program bilinear, so the margin is maximized by alternating two linear
stages: optimize (utility, costs) at fixed sensitivities, then optimize the
sensitivities at the fixed rest.  Each stage re-optimizes a superset of the
incumbent, so the margin sequence never decreases; global optimality is not
claimed.  Sensitivities start at one, which makes the first stage exactly the
shared-utility version of the private-utility test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brp import (
    MarginReport,
    _margin_of,
    _nias_rows,
    _realized,
    _unit_box_program,
    _worst_nias,
    nias_residuals,
)
from .constants import DEGENERATE_MARGIN, LAMBDA_HI, LAMBDA_LO, MARGIN_CAP
from .costs import PiecewiseAffineCost, _anchored_cost
from .dataset import DecisionDataset, read_json, write_json
# Unused here but kept bound: the benchmark tracer patches these names.
from .dataset import atomic_write_text, joint_and_posterior  # noqa: F401
from .errors import (
    DegenerateDataset,
    DimensionMismatch,
    IoFailure,
    NumericalFailure,
    ProfileMismatch,
    TooFewAgents,
)
from .lp import LinearProgram, LpStatus, solve_lp

__all__ = [
    "SharedUtilitySolution",
    "sbrp_residuals",
    "sbrp_max_margin",
    "sbrp_sparsest",
    "reconstruct_cost_compact",
    "save_solution",
    "load_solution",
]

_ALTERNATION_TOL = 1e-8
_MAX_ROUNDS = 50


@dataclass(frozen=True)
class SharedUtilitySolution:
    """Shared utility, per-agent sensitivities and costs, achieved margin.

    ``margin_history`` records the stage optima of the alternating fit in
    order; ``scheme`` says how the bilinear coupling was handled.
    """

    utility: np.ndarray
    sensitivities: np.ndarray
    costs: np.ndarray
    margin: float
    scheme: str = "alternating"
    margin_history: tuple[float, ...] = ()

    def __post_init__(self):
        u = np.asarray(self.utility, dtype=float)
        lam = np.asarray(self.sensitivities, dtype=float)
        c = np.asarray(self.costs, dtype=float)
        if u.ndim != 2 or not np.all(np.isfinite(u)):
            raise DimensionMismatch("utility must be a finite matrix")
        if lam.shape != c.shape or lam.ndim != 1:
            raise DimensionMismatch("need one sensitivity and one cost per agent")
        if np.any(lam <= 0):
            raise DimensionMismatch("sensitivities must be positive")
        for arr in (u, lam, c):
            arr.setflags(write=False)
        object.__setattr__(self, "utility", u)
        object.__setattr__(self, "sensitivities", lam)
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "margin_history", tuple(self.margin_history))

    @property
    def num_agents(self) -> int:
        return self.costs.shape[0]

    def squared_norm(self) -> float:
        return float((self.utility * self.utility).sum())

    def scaled(self, factor: float) -> "SharedUtilitySolution":
        """Rescale utility, costs, and margin jointly at fixed sensitivities."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return SharedUtilitySolution(
            utility=factor * self.utility,
            sensitivities=self.sensitivities,
            costs=factor * self.costs,
            margin=factor * self.margin,
            scheme=self.scheme,
            margin_history=self.margin_history,
        )


def _check_solution(d: DecisionDataset, sol: SharedUtilitySolution) -> None:
    if sol.utility.shape != (d.num_states, d.num_actions):
        raise DimensionMismatch(
            f"utility shape {sol.utility.shape}, dataset needs "
            f"({d.num_states}, {d.num_actions})"
        )
    if sol.num_agents != d.num_agents:
        raise DimensionMismatch(
            f"solution covers {sol.num_agents} agents, dataset has {d.num_agents}"
        )


def _residual_arrays(d, utility, sensitivities, costs):
    nias = nias_residuals(d, [utility] * d.num_agents)
    realized = _realized(d, utility)
    coupling = (
        realized[:, None]
        - realized[None, :]
        + sensitivities[None, :] * (costs[None, :] - costs[:, None])
    )
    return nias, coupling


def sbrp_residuals(
    d: DecisionDataset, sol: SharedUtilitySolution
) -> tuple[np.ndarray, np.ndarray]:
    """Best-response and sensitivity-coupled swap residuals.

    The first array is (K, A, A): best-response gains under the shared
    utility, NaN rows for never-taken actions.  The second is (K, K) with
    entry (j, k) linear in the utility at fixed (sensitivities, costs) and
    linear in (sensitivities, costs) at fixed utility; its diagonal is zero.
    """
    _check_solution(d, sol)
    return _residual_arrays(d, sol.utility, sol.sensitivities, sol.costs)


class _SbrpStages:
    def __init__(self, d: DecisionDataset):
        if d.num_agents < 2:
            raise TooFewAgents("margin test needs at least two agents")
        self.d = d
        self.K, self.X, self.A = d.num_agents, d.num_states, d.num_actions
        self.block = self.X * self.A
        self.joints = d._stack.joint.reshape(self.K, self.block)
        # All agents' best-response rows act on the one shared utility block.
        self.nias_rows = _nias_rows(d)[1]

    def _rows(self, n: int, core: np.ndarray, margin: bool) -> np.ndarray:
        """``core`` rows over the utility block widened to ``n`` variables,
        with coefficient one on the margin (the last variable) if asked."""
        rows = np.zeros((core.shape[0], n))
        rows[:, : self.block] = core
        if margin:
            rows[:, -1] = 1.0
        return rows

    def _program(self, *, margin: bool, rhs: float) -> LinearProgram:
        """Shared utility, K costs and, with ``margin``, the margin variable
        (maximized; without it the utility mass is minimized), holding the
        best-response rows at ``rhs``."""
        objective = np.zeros(self.block + self.K + (1 if margin else 0))
        if margin:
            objective[-1] = 1.0
        else:
            objective[: self.block] = -1.0
        lp = _unit_box_program(objective, margin)
        for row in self._rows(lp.num_vars, self.nias_rows, margin):
            lp.add_leq(row, rhs)
        return lp

    def _solve(self, lp: LinearProgram, failure: str):
        """(utility, costs, point) at the optimum; ``failure`` is the error
        message, formatted with the solver status."""
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalFailure(failure.format(sol.status.value))
        utility = sol.point[: self.block].reshape(self.X, self.A).copy()
        return utility, sol.point[self.block : self.block + self.K].copy(), sol.point

    def anchor_stage(self):
        """Best zero-margin certificate at unit sensitivities.

        With all sensitivities equal, opposite swap residuals sum to zero, so
        feasibility forces every agent's realized value net of cost to be one
        shared constant and pins the margin at exactly zero.  Imposing that
        equality and maximizing the best-response slack instead picks a
        deterministic, informative certificate out of the (huge) zero-margin
        face, which is what gives the sensitivity stage traction.
        """
        lp = self._program(margin=True, rhs=0.0)
        equal = self._rows(lp.num_vars, self.joints[:-1] - self.joints[1:], False)
        for k, row in enumerate(equal):
            row[self.block + k + 1] = 1.0
            row[self.block + k] = -1.0
            lp.add_eq(row, 0.0)
        utility, costs, _ = self._solve(
            lp, "anchor stage failed; the all-floor point is feasible"
        )
        return utility, costs

    def utility_stage(self, sensitivities, *, rhs_offset=0.0, sparse=False):
        """Fix sensitivities; optimize (utility, costs) and, unless sparse,
        the margin variable."""
        lp = self._program(margin=not sparse, rhs=rhs_offset)
        # One swap row per ordered pair j != k, in that order.
        j, k = np.nonzero(~np.eye(self.K, dtype=bool))
        swaps = self._rows(lp.num_vars, self.joints[j] - self.joints[k], not sparse)
        for row, jj, kk in zip(swaps, j, k):
            row[self.block + kk] = sensitivities[kk]
            row[self.block + jj] = -sensitivities[kk]
            lp.add_leq(row, rhs_offset)
        utility, costs, point = self._solve(
            lp,
            "shared-utility stage reported {}; the all-floor certificate is "
            "always feasible, so this is a solver defect",
        )
        return utility, costs, None if sparse else float(point[-1])

    def sensitivity_stage(self, utility, costs):
        """Fix (utility, costs); optimize the sensitivities and the margin."""
        n = self.K + 1
        lower = np.full(n, LAMBDA_LO)
        upper = np.full(n, LAMBDA_HI)
        lower[-1], upper[-1] = 0.0, MARGIN_CAP
        objective = np.zeros(n)
        objective[-1] = 1.0
        lp = LinearProgram(objective, lower, upper)
        worst = _worst_nias(nias_residuals(self.d, [utility] * self.K)).max()
        realized = _realized(self.d, utility)
        j, k = np.nonzero(~np.eye(self.K, dtype=bool))
        rows = np.zeros((j.size + 1, n))
        rows[:, -1] = 1.0
        rows[np.arange(1, j.size + 1), k] = costs[k] - costs[j]
        rhs = [-worst if np.isfinite(worst) else MARGIN_CAP, *(realized[k] - realized[j])]
        for row, bound in zip(rows, rhs):
            lp.add_leq(row, float(bound))
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalFailure("sensitivity stage failed to solve")
        return sol.point[: self.K].copy(), float(sol.point[-1])


def sbrp_max_margin(
    d: DecisionDataset,
    *,
    fix_sensitivities: bool = False,
    max_rounds: int = _MAX_ROUNDS,
) -> tuple[SharedUtilitySolution, MarginReport]:
    """Alternating max-margin fit of the shared-utility model.

    With ``fix_sensitivities`` the sensitivities stay pinned at one and only
    the first stage runs, which is the restriction used when comparing
    against the private-utility margin.  The returned margin history is the
    sequence of stage optima; it is nondecreasing because each stage keeps
    the incumbent feasible.
    """
    stages = _SbrpStages(d)
    lam = np.ones(d.num_agents)
    utility, costs = stages.anchor_stage()
    history = [max(_margin_of(*_residual_arrays(d, utility, lam, costs)), 0.0)]
    scheme = "fixed-sensitivities" if fix_sensitivities else "alternating"
    if not fix_sensitivities:
        for _ in range(max_rounds):
            lam_candidate, margin_b = stages.sensitivity_stage(utility, costs)
            if margin_b - history[-1] < _ALTERNATION_TOL:
                # No real improvement: keep the incumbent sensitivities
                # instead of adopting an equivalent but arbitrary vertex.
                break
            lam = lam_candidate
            history.append(margin_b)
            utility, costs, margin_a = stages.utility_stage(lam)
            history.append(margin_a)
    solution = SharedUtilitySolution(
        utility=utility,
        sensitivities=lam,
        costs=costs,
        margin=_margin_of(*_residual_arrays(d, utility, lam, costs)),
        scheme=scheme,
        margin_history=tuple(history),
    )
    report = MarginReport.from_solution(
        solution.margin, np.array([solution.squared_norm()])
    )
    return solution, report


def sbrp_sparsest(
    d: DecisionDataset,
    margin_fraction: float = 0.5,
    *,
    normalize: bool = True,
) -> SharedUtilitySolution:
    """Sparsest shared utility keeping a fraction of the fitted margin.

    Sensitivities are pinned at their max-margin values (they carry no
    sparsity penalty); the utility mass is minimized subject to all strict
    residuals staying below the retained margin, then the result is rescaled
    to unit squared norm (valid because the residuals are homogeneous in
    utility and costs at fixed sensitivities).
    """
    if not 0.0 < margin_fraction < 1.0:
        raise ValueError("margin_fraction must lie strictly between 0 and 1")
    best, _ = sbrp_max_margin(d)
    if best.margin <= DEGENERATE_MARGIN:
        raise DegenerateDataset(
            f"max margin {best.margin!r} is numerically zero; sparsity is undefined"
        )
    stages = _SbrpStages(d)
    utility, costs, _ = stages.utility_stage(
        best.sensitivities,
        rhs_offset=-margin_fraction * best.margin,
        sparse=True,
    )
    solution = SharedUtilitySolution(
        utility=utility,
        sensitivities=best.sensitivities,
        costs=costs,
        margin=_margin_of(*_residual_arrays(d, utility, best.sensitivities, costs)),
        scheme=best.scheme + "+sparse",
        margin_history=best.margin_history,
    )
    if normalize:
        norm = float(np.sqrt(solution.squared_norm()))
        if norm <= 0:
            raise ProfileMismatch("cannot normalize an all-zero utility")
        solution = solution.scaled(1.0 / norm)
    return solution


def reconstruct_cost_compact(
    d: DecisionDataset, sol: SharedUtilitySolution
) -> PiecewiseAffineCost:
    """Cost pieces anchored at the in-sample strategies for the compact model.

    Each agent's piece is scaled by the inverse of its sensitivity, which is
    what makes the envelope return the fitted costs exactly at the anchors
    under the fitted residuals; with all sensitivities equal to one this is
    the same construction as the private-utility cost with a shared matrix.
    """
    if _margin_of(*sbrp_residuals(d, sol)) < -1e-7:
        raise ProfileMismatch(
            "solution violates the feasibility residuals; its cost is not defined"
        )
    return _anchored_cost(
        d, [sol.utility] * d.num_agents, sol.costs, scales=sol.sensitivities
    )


# ---------------------------------------------------------------------------
# Solution files


def solution_to_dict(
    d: DecisionDataset, sol: SharedUtilitySolution, report: MarginReport | None = None,
    metadata: dict | None = None,
) -> dict:
    out = {
        "model": "s-umri",
        "margin": sol.margin,
        "degenerate": sol.margin <= DEGENERATE_MARGIN,
        "scheme": sol.scheme,
        "utility": sol.utility.tolist(),
        "agents": [
            {
                "agent_id": d.agents[k].agent_id,
                "lambda": float(sol.sensitivities[k]),
                "cost": float(sol.costs[k]),
            }
            for k in range(sol.num_agents)
        ],
    }
    if report is not None:
        out["robustness"] = report.robustness
    if metadata:
        out["metadata"] = metadata
    return out


def save_solution(
    path: str,
    d: DecisionDataset,
    sol: SharedUtilitySolution,
    report: MarginReport | None = None,
    metadata: dict | None = None,
) -> None:
    write_json(path, solution_to_dict(d, sol, report, metadata))


def _solution_from_dict(raw: dict) -> SharedUtilitySolution:
    if raw.get("model") != "s-umri":
        raise IoFailure("not an s-umri solution file")
    return SharedUtilitySolution(
        utility=np.asarray(raw["utility"], dtype=float),
        sensitivities=np.asarray([a["lambda"] for a in raw["agents"]], dtype=float),
        costs=np.asarray([a["cost"] for a in raw["agents"]], dtype=float),
        margin=float(raw["margin"]),
        scheme=str(raw.get("scheme", "alternating")),
    )


def load_solution(path: str) -> tuple[SharedUtilitySolution, dict]:
    return read_json(path, lambda raw: (_solution_from_dict(raw), raw))
