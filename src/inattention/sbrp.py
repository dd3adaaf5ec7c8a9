"""Rationality test with one shared utility and per-agent cost sensitivities.

The compact model explains all agents with a single utility matrix; agents
differ only in how strongly the information cost bites, one positive scalar
each.  The swap residual couples that scalar with the cost difference, making
the program bilinear, so the margin is maximized by alternating two linear
stages: optimize (utility, costs) at fixed sensitivities, then optimize the
sensitivities at the fixed rest.  Each stage re-optimizes a superset of the
incumbent, so the margin sequence never decreases; global optimality is not
claimed.  Sensitivities start at one, where the first LP is the anchor stage:
every agent's realized value net of cost held equal, the best-response slack
maximized.  With three or more agents that leaves the sensitivity stage no
positive margin: net values equal, coupling residual (j, k) is
(lambda_k - 1)(c_k - c_j), so an agent whose cost lies between two others'
needs its sensitivity both below and above one.  The fit then stops after
one sensitivity stage, every sensitivity one, the margin degenerate.  The
verdict on a margin, the fit-file fields both models share and the LP rows
come from :mod:`inattention.brp`: the anchor and utility stages are its
programs over one shared utility block.  This module keeps what differs
between the models: the sensitivity stage, the alternation and the coupling
residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brp import (
    MarginReport,
    _BrpProgram,
    _check_profile_dims,
    _fit_dict,
    _identity_cuts,
    _margin_of,
    _margin_rows,
    _realized,
    _stored_fit,
    _worst_nias,
    nias_residuals,
)
from .constants import LAMBDA_HI, LAMBDA_LO, MARGIN_CAP
from .costs import PiecewiseAffineCost, _anchored_cost
from .dataset import DecisionDataset, _frozen_array
# Unused here but kept bound: the benchmark tracer patches these names.
from .dataset import atomic_write_text, joint_and_posterior  # noqa: F401
from .errors import DimensionMismatch
from .lp import LinearProgram, solve_lp

__all__ = [
    "SharedUtilitySolution",
    "sbrp_residuals",
    "sbrp_max_margin",
    "sbrp_sparsest",
    "reconstruct_cost_compact",
]

_ALTERNATION_TOL = 1e-8
_MAX_ROUNDS = 50


@dataclass(frozen=True, eq=False)
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
        u = _frozen_array(self.utility)
        lam = _frozen_array(self.sensitivities)
        c = _frozen_array(self.costs)
        if u.ndim != 2 or not np.all(np.isfinite(u)):
            raise DimensionMismatch("utility must be a finite matrix")
        if lam.shape != c.shape or lam.ndim != 1:
            raise DimensionMismatch("need one sensitivity and one cost per agent")
        if not np.all(np.isfinite(c) & np.isfinite(lam) & (lam > 0)):
            raise DimensionMismatch("need finite costs and finite positive sensitivities")
        if not np.isfinite(float(self.margin)):
            raise DimensionMismatch(f"margin {self.margin!r} is not finite")
        object.__setattr__(self, "utility", u)
        object.__setattr__(self, "sensitivities", lam)
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "margin_history", tuple(self.margin_history))

    @classmethod
    def from_certificate(cls, dataset, utility, sensitivities, costs, **fields):
        """The solution at these arrays, its margin taken on ``dataset``."""
        margin = _margin_of(*_residual_arrays(dataset, utility, sensitivities, costs))
        return cls(utility, sensitivities, costs, margin, **fields)

    @property
    def num_agents(self) -> int:
        return self.costs.shape[0]

    @property
    def utilities(self) -> np.ndarray:
        """Every agent's utility: a read-only (K, X, A) view of ``utility``."""
        return np.broadcast_to(self.utility, (self.num_agents, *self.utility.shape))

    def squared_norm(self) -> float:
        return float((self.utility * self.utility).sum())


def _residual_arrays(d, utility, sensitivities, costs):
    nias = nias_residuals(d, np.broadcast_to(utility, (d.num_agents, *utility.shape)))
    realized = _realized(d, utility)
    coupling = realized[:, None] - realized[None, :] + sensitivities * (costs - costs[:, None])
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
    _check_profile_dims(d, sol.utilities)
    return _residual_arrays(d, sol.utility, sol.sensitivities, sol.costs)


def _anchor_stage(d: DecisionDataset):
    """Best zero-margin certificate at unit sensitivities.

    With all sensitivities equal, opposite swap residuals sum to zero, so
    feasibility forces every agent's realized value net of cost to be one
    shared constant and pins the margin at exactly zero.  Imposing that
    equality and maximizing the best-response slack instead picks a
    deterministic, informative certificate out of the (huge) zero-margin
    face.  At K = 2 it gives the sensitivity stage traction; at K >= 3 none
    (module docstring).  The equality rows are the unit-weight swap rows
    (k, k + 1), each (realized - cost)_k - (realized - cost)_{k+1}.
    """
    k = np.arange(d.num_agents - 1)
    program = _BrpProgram(d, _identity_cuts(d, k[:0], k[:0]), shared=True)
    lp = program.build()
    equal = program.swap_rows(_identity_cuts(d, k, k + 1))
    lp.add_eq(_margin_rows(lp, equal, False), 0.0)
    sol = solve_lp(lp).require_optimal("s-UMRI anchor stage")
    utilities, costs, _ = program.extract(sol.point)
    return utilities[0], costs


def _utility_stage(d: DecisionDataset, sensitivities, keep=None):
    """Fix sensitivities; optimize (utility, costs) in the stage ``keep``
    names (:meth:`_BrpProgram.build`): with the margin variable, whose
    optimum is returned, or, keeping ``keep``, with none."""
    # At one shared utility the best-response rows make each agent's own
    # actions its best responses: one identity cut per pair j != k is all.
    pairs = np.nonzero(~np.eye(d.num_agents, dtype=bool))
    program = _BrpProgram(d, _identity_cuts(d, *pairs), shared=True)
    lp = program.build(keep, weights=sensitivities)
    sol = solve_lp(lp).require_optimal("s-UMRI utility stage")
    utilities, costs, margin = program.extract(sol.point)
    return utilities[0], costs, margin


def _sensitivity_stage(d: DecisionDataset, utility, costs):
    """Fix (utility, costs); optimize the sensitivities and the margin."""
    K = d.num_agents
    lo, hi = np.append(np.full(K, LAMBDA_LO), 0.0), np.append(np.full(K, LAMBDA_HI), MARGIN_CAP)
    lp = LinearProgram(np.append(np.zeros(K), 1.0), lo, hi)
    every = np.broadcast_to(utility, (K, *utility.shape))
    worst = _worst_nias(nias_residuals(d, every)).max()
    realized = _realized(d, utility)
    j, k = np.nonzero(~np.eye(K, dtype=bool))
    rows = np.zeros((j.size + 1, lp.num_vars))
    rows[:, -1] = 1.0
    rows[np.arange(1, j.size + 1), k] = costs[k] - costs[j]
    first = -worst if np.isfinite(worst) else MARGIN_CAP
    lp.add_leq(rows, np.append(first, realized[k] - realized[j]))
    sol = solve_lp(lp).require_optimal("s-UMRI sensitivity stage")
    return sol.point[:K], float(sol.point[-1])


def sbrp_max_margin(d: DecisionDataset) -> tuple[SharedUtilitySolution, MarginReport]:
    """Alternating max-margin fit of the shared-utility model.

    The returned margin history is the sequence of stage optima; it is
    nondecreasing because each stage keeps the incumbent feasible.  Its first
    entry, the anchor stage's margin at unit sensitivities floored at zero,
    never exceeds the private-utility margin.  Always solves, and stores the
    solution in ``d``'s memo for :func:`sbrp_sparsest`.
    """
    lam = np.ones(d.num_agents)
    utility, costs = _anchor_stage(d)
    history = [max(_margin_of(*_residual_arrays(d, utility, lam, costs)), 0.0)]
    for _ in range(_MAX_ROUNDS):
        lam_candidate, margin_b = _sensitivity_stage(d, utility, costs)
        if margin_b - history[-1] < _ALTERNATION_TOL:
            # No real improvement: keep the incumbent sensitivities
            # instead of adopting an equivalent but arbitrary vertex.
            break
        lam = lam_candidate
        history.append(margin_b)
        utility, costs, margin_a = _utility_stage(d, lam)
        history.append(margin_a)
    solution = SharedUtilitySolution.from_certificate(
        d, utility, lam, costs, margin_history=tuple(history)
    )
    d._fits["s-umri"] = solution
    report = MarginReport.from_solution(solution.margin, np.array([solution.squared_norm()]))
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
    utility and costs at fixed sensitivities) and its strict margin taken.
    The max-margin fit is the one stored in ``d``'s memo, when there is one.
    """
    best, keep = _stored_fit(d, "s-umri", sbrp_max_margin, margin_fraction)
    utility, costs, _ = _utility_stage(d, best.sensitivities, keep)
    if normalize:
        norm = float(np.sqrt((utility * utility).sum()))
        utility, costs = utility * (1.0 / norm), costs * (1.0 / norm)
    return SharedUtilitySolution.from_certificate(
        d,
        utility,
        best.sensitivities,
        costs,
        scheme=best.scheme + "+sparse",
        margin_history=best.margin_history,
    )


def reconstruct_cost_compact(
    d: DecisionDataset, sol: SharedUtilitySolution
) -> PiecewiseAffineCost:
    """Cost pieces anchored at the in-sample strategies for the compact model.

    Each agent's piece is scaled by the inverse of its sensitivity, which is
    what makes the envelope return the fitted costs exactly at the anchors
    under the fitted residuals; with all sensitivities equal to one this is
    the same construction as the private-utility cost with a shared matrix.
    """
    margin = _margin_of(*sbrp_residuals(d, sol))
    return _anchored_cost(d, sol.utilities, sol.costs, margin, scales=sol.sensitivities)


# ---------------------------------------------------------------------------
# Solution files


def solution_to_dict(
    d: DecisionDataset, sol: SharedUtilitySolution, report: MarginReport | None = None,
    metadata: dict | None = None,
) -> dict:
    shared = {"scheme": sol.scheme, "utility": sol.utility.tolist()}
    agents = [
        {"lambda": float(lam), "cost": float(c)}
        for lam, c in zip(sol.sensitivities, sol.costs)
    ]
    return _fit_dict(d, "s-umri", sol.utilities, sol.margin, shared, agents, report, metadata)


def _solution_from_dict(raw: dict) -> SharedUtilitySolution:
    return SharedUtilitySolution(
        utility=np.asarray(raw["utility"], dtype=float),
        sensitivities=np.asarray([a["lambda"] for a in raw["agents"]], dtype=float),
        costs=np.asarray([a["cost"] for a in raw["agents"]], dtype=float),
        margin=float(raw["margin"]),
        scheme=str(raw.get("scheme", "alternating")),
    )
