"""Rationality test for a collection of agents with private utilities.

The test asks whether there exist per-agent utility matrices and scalar
information costs under which (a) every agent's action is a best response to
its own revealed posterior and (b) no agent would gain by swapping to another
agent's information net of the cost difference.  Both families of residuals
are linear in the utilities once the per-observation best responses are
pinned, so maximizing the common slack margin is a linear program; the best
responses themselves are generated lazily as cutting planes.

A margin of zero is always attainable (constant utilities satisfy everything
with equality), so "passes" means the optimal margin is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import DEGENERATE_MARGIN, MARGIN_CAP, UNIT_FLOOR
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
    "UtilityProfile",
    "MarginReport",
    "nias_residuals",
    "niac_residuals",
    "brp_max_margin",
    "brp_sparsest",
    "reconstruct_cost",
    "normalize_profile",
    "save_profile",
    "load_profile",
]

_CUT_TOL = 1e-10
_MAX_CUT_ROUNDS = 100


@dataclass(frozen=True)
class UtilityProfile:
    """A rationality certificate: per-agent utilities, costs, and the margin.

    ``margin`` is the negated maximum of the strict-set residuals, computed
    at construction by :meth:`from_certificate`; solver outputs are
    nonnegative, normalized profiles may carry any positive scale (their
    entries routinely leave the unit box the solver searched).
    """

    utilities: tuple[np.ndarray, ...]
    costs: np.ndarray
    margin: float

    def __post_init__(self):
        utilities = []
        for u in self.utilities:
            arr = np.asarray(u, dtype=float)
            if arr.ndim != 2 or not np.all(np.isfinite(arr)):
                raise DimensionMismatch("utilities must be finite 2-D matrices")
            arr.setflags(write=False)
            utilities.append(arr)
        costs = np.asarray(self.costs, dtype=float)
        if costs.shape != (len(utilities),) or not np.all(np.isfinite(costs)):
            raise DimensionMismatch("need one finite cost per agent")
        costs.setflags(write=False)
        object.__setattr__(self, "utilities", tuple(utilities))
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "margin", float(self.margin))

    @classmethod
    def from_certificate(
        cls,
        dataset: DecisionDataset,
        utilities: Sequence[np.ndarray],
        costs: Sequence[float],
    ) -> "UtilityProfile":
        utilities = tuple(np.asarray(u, dtype=float) for u in utilities)
        costs = np.asarray(costs, dtype=float)
        margin = strict_margin(dataset, utilities, costs)
        return cls(utilities=utilities, costs=costs, margin=margin)

    @property
    def num_agents(self) -> int:
        return len(self.utilities)

    def scaled(self, factor: float) -> "UtilityProfile":
        """Rescale utilities, costs, and margin jointly.

        Valid because every residual is positively homogeneous of degree one
        in (utilities, costs) jointly.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return UtilityProfile(
            utilities=tuple(factor * u for u in self.utilities),
            costs=factor * self.costs,
            margin=factor * self.margin,
        )

    def squared_norms(self) -> np.ndarray:
        return np.array([float((u * u).sum()) for u in self.utilities])

    def total_l1(self) -> float:
        return float(sum(np.abs(u).sum() for u in self.utilities))


@dataclass(frozen=True)
class MarginReport:
    """Goodness-of-fit summary for a max-margin run.

    ``robustness`` is the margin normalized by the mean squared utility norm
    at the optimizer.  The margin itself is maximized inside the unit boxes
    and the ratio is evaluated afterwards; maximizing the ratio directly is
    scale-degenerate, see ``method``.
    """

    epsilon_star: float
    robustness: float
    utility_norms: np.ndarray
    degenerate: bool
    method: str = "max margin in unit box, ratio reported at optimizer"

    def __post_init__(self):
        norms = np.asarray(self.utility_norms, dtype=float)
        norms.setflags(write=False)
        object.__setattr__(self, "utility_norms", norms)

    @classmethod
    def from_solution(
        cls, margin: float, utility_norms: np.ndarray
    ) -> "MarginReport":
        eps = max(float(margin), 0.0)
        total = float(np.sum(utility_norms))
        robustness = eps * len(utility_norms) / total if total > 0 else 0.0
        return cls(
            epsilon_star=eps,
            robustness=robustness,
            utility_norms=np.asarray(utility_norms, dtype=float),
            degenerate=eps <= DEGENERATE_MARGIN,
        )


# ---------------------------------------------------------------------------
# Residuals: the package's one residual kernel.  Batched ``np.matmul`` runs
# the same 2-D product per agent as ``@``, so values match a per-agent loop
# bit for bit (``einsum`` does not).


def _check_profile_dims(d: DecisionDataset, utilities) -> np.ndarray:
    """The utilities as one (K, X, A) stack, after checking their shapes."""
    mats = [np.asarray(u, dtype=float) for u in utilities]
    if len(mats) != d.num_agents:
        raise DimensionMismatch(
            f"{len(mats)} utility matrices for {d.num_agents} agents"
        )
    for k, u in enumerate(mats):
        if u.shape != (d.num_states, d.num_actions):
            raise DimensionMismatch(
                f"utility {k} has shape {u.shape}, expected "
                f"({d.num_states}, {d.num_actions})"
            )
    return np.array(mats)


def nias_residuals(d: DecisionDataset, utilities) -> np.ndarray:
    """Best-response residuals, shape (K, A, A).

    Entry (k, a, b) is the gain agent k would see from answering b instead of
    a under its revealed posterior after a; nonpositive everywhere (off the
    diagonal) means every observed action is a best response.  Rows of
    actions an agent never takes are NaN: there is no posterior to test.
    """
    u = _check_profile_dims(d, utilities)
    jp = d._stack
    scores = np.matmul(jp.posterior.swapaxes(1, 2), u)  # (K, A, A)
    out = scores - np.diagonal(scores, axis1=1, axis2=2)[:, :, None]
    out[~jp.defined_actions] = np.nan
    return out


def _swap_scores(d: DecisionDataset, u: np.ndarray) -> np.ndarray:
    """scores[j, k, a, b] = sum_x joint_j(x, a) * u_k(x, b), shape (K, K, A, A)."""
    return np.matmul(d._stack.joint.swapaxes(1, 2)[:, None], u[None])


def _realized(d: DecisionDataset, u: np.ndarray) -> np.ndarray:
    """Value each agent realizes with its own actions under ``u`` (one
    (X, A) utility for all, or a (K, X, A) stack), shape (K,)."""
    return (d._stack.joint * u).reshape(d.num_agents, -1).sum(axis=1)


def niac_residuals(d: DecisionDataset, utilities, costs) -> np.ndarray:
    """Information-swap residuals, shape (K, K).

    Entry (j, k) compares agent k's realized value against adopting agent j's
    information (with re-optimized actions), net of the cost difference.
    The diagonal carries no cost terms and is always nonnegative.
    """
    u = _check_profile_dims(d, utilities)
    c = np.asarray(costs, dtype=float)
    if c.shape != (d.num_agents,):
        raise DimensionMismatch(f"costs shape {c.shape}, expected ({d.num_agents},)")
    gain = _swap_scores(d, u).max(axis=3).sum(axis=2)
    return gain - c[:, None] - _realized(d, u)[None, :] + c[None, :]


def _worst_nias(nias: np.ndarray) -> np.ndarray:
    """Each agent's largest off-diagonal best-response residual, shape (K,);
    -inf for an agent with none defined."""
    off_action = ~np.eye(nias.shape[-1], dtype=bool)
    return np.fmax.reduce(nias[:, off_action], axis=1, initial=-np.inf)


def _margin_of(nias: np.ndarray, swaps: np.ndarray) -> float:
    """Negated maximum residual over the strict sets (b != a, j != k)."""
    off_agent = ~np.eye(swaps.shape[0], dtype=bool)
    return -float(max(_worst_nias(nias).max(), swaps[off_agent].max()))


def strict_margin(d: DecisionDataset, utilities, costs) -> float:
    """Negated maximum residual over the strict sets (b != a, j != k)."""
    return _margin_of(
        nias_residuals(d, utilities), niac_residuals(d, utilities, costs)
    )


# ---------------------------------------------------------------------------
# Max-margin / sparsity programs


def _nias_rows(d: DecisionDataset) -> tuple[np.ndarray, np.ndarray]:
    """Best-response LP rows, shared by the UMRI and s-UMRI programs.

    One row per agent k, action a it takes and deviation b != a, in that
    order.  Returns the agent of each row and its coefficients over one
    (X, A) utility block, flattened: q on column b and -q on column a, where
    q is agent k's posterior after a.  At utility u_k, a row evaluates to
    ``nias_residuals[k, a, b]``.
    """
    jp = d._stack
    X, A = d.num_states, d.num_actions
    agent, taken = np.nonzero(jp.defined_actions)
    deviation = np.nonzero(~np.eye(A, dtype=bool)[taken])[1]
    agent, taken = np.repeat(agent, A - 1), np.repeat(taken, A - 1)
    q = jp.posterior[agent, :, taken]  # (rows, X)
    rows = np.arange(agent.size)
    coeffs = np.zeros((agent.size, X, A))
    coeffs[rows, :, deviation] = q
    coeffs[rows, :, taken] = -q
    return agent, coeffs.reshape(agent.size, X * A)


def _unit_box_program(objective: np.ndarray, with_margin: bool) -> LinearProgram:
    """Program over utilities and costs in [UNIT_FLOOR, 1], the last variable
    being the margin, in [0, MARGIN_CAP], when ``with_margin``."""
    lower = np.full(objective.shape[0], UNIT_FLOOR)
    upper = np.ones(objective.shape[0])
    if with_margin:
        lower[-1], upper[-1] = 0.0, MARGIN_CAP
    return LinearProgram(objective, lower, upper)


class _BrpProgram:
    """Shared LP assembly for the margin and sparsity stages.

    Variables: K utility matrices (flattened), K costs, and optionally the
    margin.  Best-response rows for the swap residuals are added lazily: a
    candidate solution is scored exactly, and any observation whose true best
    response beats the responses already modelled contributes a new row.
    """

    def __init__(self, d: DecisionDataset):
        if d.num_agents < 2:
            raise TooFewAgents("margin test needs at least two agents")
        self.d = d
        self.K, self.X, self.A = d.num_agents, d.num_states, d.num_actions
        self.block = self.X * self.A
        agent, coeffs = _nias_rows(d)
        self.nias_rows = np.zeros((agent.size, self.num_core_vars))
        columns = agent[:, None] * self.block + np.arange(self.block)
        np.put_along_axis(self.nias_rows, columns, coeffs, axis=1)
        # selections[(j, k)] = list of response maps already modelled
        self.selections: dict[tuple[int, int], list[tuple[int, ...]]] = {
            (j, k): [tuple(range(self.A))]
            for j in range(self.K)
            for k in range(self.K)
            if j != k
        }

    @property
    def num_core_vars(self) -> int:
        return self.K * self.block + self.K

    def swap_row(self, j: int, k: int, sigma: tuple[int, ...]) -> np.ndarray:
        """Row over the core variables whose value is the swap residual
        (j, k) with agent j's observations answered by ``sigma``."""
        row = np.zeros(self.num_core_vars)
        u_k = row[k * self.block : (k + 1) * self.block].reshape(self.X, self.A)
        joint_j, joint_k = self.d._stack.joint[j], self.d._stack.joint[k]
        # A fixed order (a ascending, the sigma(a) term first) rounds a cell
        # hit twice the same way in every build.
        for a in range(self.A):
            u_k[:, sigma[a]] += joint_j[:, a]
            u_k[:, a] -= joint_k[:, a]
        row[self.K * self.block + k] = 1.0
        row[self.K * self.block + j] = -1.0
        return row

    def build(self, *, with_margin: bool, rhs_offset: float, objective: np.ndarray):
        lp = _unit_box_program(objective, with_margin)
        swaps = [
            self.swap_row(j, k, sigma)
            for (j, k), sigmas in self.selections.items()
            for sigma in sigmas
        ]
        rows = np.vstack([self.nias_rows, *swaps])
        if with_margin:
            rows = np.hstack([rows, np.ones((rows.shape[0], 1))])
        for row in rows:
            lp.add_leq(row, rhs_offset)
        return lp

    def extract(self, point: np.ndarray):
        stack = self.K * self.block
        utilities = tuple(point[:stack].reshape(self.K, self.X, self.A).copy())
        return utilities, point[stack : stack + self.K].copy()

    def add_violated_selections(self, utilities, costs, bound: float) -> bool:
        """Score the candidate exactly; model any better response found.

        ``bound`` is what every swap residual must stay below; a pair whose
        exact residual exceeds it (beyond tolerance) gets its current best
        response appended as a new row.  Returns True if anything was added.
        """
        exact = niac_residuals(self.d, utilities, costs)
        best = _swap_scores(self.d, np.array(utilities)).argmax(axis=3)
        added = False
        for (j, k), sigmas in self.selections.items():
            sigma = tuple(int(b) for b in best[j, k])
            if sigma not in sigmas and exact[j, k] > bound + _CUT_TOL:
                sigmas.append(sigma)
                added = True
        return added

    def solve_with_cuts(self, *, with_margin: bool, rhs_offset: float, objective):
        for _ in range(_MAX_CUT_ROUNDS):
            lp = self.build(
                with_margin=with_margin, rhs_offset=rhs_offset, objective=objective
            )
            sol = solve_lp(lp)
            if sol.status is not LpStatus.OPTIMAL:
                # The all-floor certificate satisfies every residual with
                # equality, so the margin stage cannot be infeasible; the
                # sparsity stage inherits feasibility from the margin stage.
                raise NumericalFailure(
                    f"feasibility program reported {sol.status.value}; "
                    "this indicates a solver defect, not an infeasible dataset"
                )
            utilities, costs = self.extract(sol.point)
            margin = float(sol.point[-1]) if with_margin else None
            bound = -margin if with_margin else rhs_offset
            if not self.add_violated_selections(utilities, costs, bound):
                return utilities, costs, margin
        raise NumericalFailure("best-response row generation did not converge")

    def max_margin(self):
        """Stage one: (utilities, costs, margin) maximizing the margin."""
        objective = np.zeros(self.num_core_vars + 1)
        objective[-1] = 1.0
        return self.solve_with_cuts(
            with_margin=True, rhs_offset=0.0, objective=objective
        )


def brp_max_margin(d: DecisionDataset) -> tuple[UtilityProfile, MarginReport]:
    """Maximize the common slack by which the dataset passes the test.

    Returns the optimizing certificate and a report with the normalized
    robustness value.  Never returns "infeasible": constant utilities with
    equal costs always satisfy the residuals with zero slack.
    """
    utilities, costs, _ = _BrpProgram(d).max_margin()
    profile = UtilityProfile.from_certificate(d, utilities, costs)
    report = MarginReport.from_solution(profile.margin, profile.squared_norms())
    return profile, report


def brp_sparsest(
    d: DecisionDataset,
    margin_fraction: float = 0.5,
    *,
    normalize: bool = True,
) -> UtilityProfile:
    """Sparsest certificate that keeps a fixed fraction of the best margin.

    Stage one finds the max margin; stage two minimizes the total utility
    mass (the entrywise L1 norm, which is just the entry sum inside the
    nonnegative box) subject to every strict residual staying below
    ``-margin_fraction * margin``.  With ``normalize`` the result is rescaled
    so the squared utility norms sum to the number of agents, the gauge in
    which profiles are compared; rescaling preserves feasibility because the
    residuals are homogeneous in (utilities, costs).
    """
    if not 0.0 < margin_fraction < 1.0:
        raise ValueError("margin_fraction must lie strictly between 0 and 1")
    program = _BrpProgram(d)
    _, _, margin = program.max_margin()
    if margin <= DEGENERATE_MARGIN:
        raise DegenerateDataset(
            f"max margin {margin!r} is numerically zero; sparsity is undefined"
        )
    target = -margin_fraction * margin
    sparse_objective = np.zeros(program.num_core_vars)
    sparse_objective[: program.K * program.block] = -1.0
    utilities, costs, _ = program.solve_with_cuts(
        with_margin=False, rhs_offset=target, objective=sparse_objective
    )
    profile = UtilityProfile.from_certificate(d, utilities, costs)
    return normalize_profile(profile) if normalize else profile


def normalize_profile(profile: UtilityProfile) -> UtilityProfile:
    """Rescale so the squared utility norms sum to the number of agents."""
    total = float(profile.squared_norms().sum())
    if total <= 0:
        raise ProfileMismatch("cannot normalize an all-zero profile")
    return profile.scaled(float(np.sqrt(profile.num_agents / total)))


def reconstruct_cost(d: DecisionDataset, prof: UtilityProfile) -> PiecewiseAffineCost:
    """Anchor one cost piece at each agent's strategy.

    Evaluating the result at an in-sample strategy returns that agent's
    fitted cost exactly, and each agent's strategy maximizes value minus
    cost over all strategies (the envelope uses re-optimized actions).
    """
    if prof.num_agents != d.num_agents:
        raise ProfileMismatch(
            f"profile has {prof.num_agents} agents, dataset {d.num_agents}"
        )
    for u in prof.utilities:
        if u.shape != (d.num_states, d.num_actions):
            raise ProfileMismatch("profile utilities do not match dataset shape")
    if strict_margin(d, prof.utilities, prof.costs) < -1e-7:
        raise ProfileMismatch(
            "profile violates the feasibility residuals; its cost is not defined"
        )
    return _anchored_cost(d, prof.utilities, prof.costs)


# ---------------------------------------------------------------------------
# Profile files


def profile_to_dict(
    d: DecisionDataset, prof: UtilityProfile, report: MarginReport | None = None,
    metadata: dict | None = None,
) -> dict:
    out = {
        "model": "umri",
        "margin": prof.margin,
        "degenerate": prof.margin <= DEGENERATE_MARGIN,
        "agents": [
            {
                "agent_id": d.agents[k].agent_id,
                "utility": prof.utilities[k].tolist(),
                "cost": float(prof.costs[k]),
            }
            for k in range(prof.num_agents)
        ],
    }
    if report is not None:
        out["robustness"] = report.robustness
    if metadata:
        out["metadata"] = metadata
    return out


def save_profile(
    path: str,
    d: DecisionDataset,
    prof: UtilityProfile,
    report: MarginReport | None = None,
    metadata: dict | None = None,
) -> None:
    write_json(path, profile_to_dict(d, prof, report, metadata))


def _profile_from_dict(raw: dict) -> UtilityProfile:
    if raw.get("model") != "umri":
        raise IoFailure("not a umri profile file")
    return UtilityProfile(
        utilities=tuple(np.asarray(a["utility"], dtype=float) for a in raw["agents"]),
        costs=np.asarray([a["cost"] for a in raw["agents"]], dtype=float),
        margin=float(raw["margin"]),
    )


def load_profile(path: str) -> tuple[UtilityProfile, dict]:
    """Read a profile file; returns the profile and the raw payload."""
    return read_json(path, lambda raw: (_profile_from_dict(raw), raw))
