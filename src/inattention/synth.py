"""Ground-truth generators and independent oracles.

Everything here exists to exercise the fitting code from the outside: build
datasets whose rationality status is known by construction (feasible at a
target margin, exactly on the boundary, or degenerate), assign costs through
a shortest-path potential argument rather than the LP engine, and brute-force
tiny instances over a utility grid.  The cost machinery and the grid oracle
deliberately share no code path with the LP solver so they can check it.

All generators take explicit seeds and are bit-for-bit reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .brp import _worst_nias, niac_residuals, nias_residuals, strict_margin
from .constants import SYNTH_COST_FLOOR
from .dataset import (
    AgentChoiceMatrix,
    DecisionDataset,
    dataset_to_dict,
    expected_value,
    read_json,
    validate_dataset,
    write_json,
)
# Unused here but kept bound: the benchmark tracer patches these names.
from .dataset import atomic_write_text, joint_and_posterior  # noqa: F401
from .errors import (
    DimensionMismatch,
    InfeasibleCosts,
    InstanceTooLarge,
    NegativeCycle,
    NumericalFailure,
    RejectionExhausted,
)

__all__ = [
    "GroundTruth",
    "OracleResult",
    "generate_strategies",
    "strategy_from_posteriors",
    "assign_costs",
    "generate_feasible_dataset",
    "generate_boundary_dataset",
    "grid_oracle",
    "save_ground_truth",
    "load_ground_truth",
]

_DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0)
_ORACLE_SIZE_CAP = 20
_ORACLE_COMBO_CAP = 300_000
_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class GroundTruth:
    """A dataset bundled with the parameters that generated it.

    The certificate (utilities, costs) satisfies every strict residual at
    slack ``construction_margin`` or better, which is verified before the
    object is built.
    """

    dataset: DecisionDataset
    utilities: tuple[np.ndarray, ...]
    costs: np.ndarray
    construction_margin: float
    seed: int

    def __post_init__(self):
        utilities = tuple(np.asarray(u, dtype=float) for u in self.utilities)
        for u in utilities:
            u.setflags(write=False)
        costs = np.asarray(self.costs, dtype=float)
        costs.setflags(write=False)
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "costs", costs)
        achieved = strict_margin(self.dataset, utilities, costs)
        if achieved < self.construction_margin - 1e-9:
            raise NumericalFailure(
                f"generator certificate achieves {achieved:.3e}, "
                f"below the promised {self.construction_margin:.3e}"
            )


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    best_margin: float
    witness: dict | None


# ---------------------------------------------------------------------------
# Strategy generation


def strategy_from_posteriors(prior, posteriors, utility) -> np.ndarray:
    """Turn candidate posteriors into a choice matrix that best-responds.

    Mixture weights are the projection of the uniform weights onto the
    affine slice where the posteriors average back to the prior; candidates
    whose weights leave [0, 1] (or crowd an action out entirely) are
    rejected.  Actions are then relabelled so each posterior answers with its
    own best action (ties to the lowest index), which builds the
    best-response property in; a relabelling that is not one-to-one is
    rejected too.
    """
    mu = np.asarray(prior, dtype=float)
    q = np.asarray(posteriors, dtype=float)  # columns are posteriors
    if q.ndim != 2 or q.shape[0] != mu.shape[0]:
        raise DimensionMismatch("posteriors must be stacked as columns over states")
    u = np.asarray(utility, dtype=float)
    if np.any(mu <= 0):
        raise DimensionMismatch("prior must be strictly positive")
    num_actions = u.shape[1]
    m = q.shape[1]
    if m > num_actions:
        raise DimensionMismatch("more posteriors than actions")

    if m == 1:
        weights = np.array([1.0])
        if not np.allclose(q[:, 0], mu, atol=1e-9):
            raise RejectionExhausted("a single posterior must equal the prior")
    else:
        target = np.full(m, 1.0 / m)
        correction = np.linalg.pinv(q @ q.T, rcond=1e-10) @ (mu - q @ target)
        weights = target + q.T @ correction
        if np.any(weights < _WEIGHT_FLOOR) or np.any(weights > 1.0):
            raise RejectionExhausted("projected mixture weights leave the box")
        if not np.allclose(q @ weights, mu, atol=1e-9):
            raise RejectionExhausted("posteriors cannot average back to the prior")

    scores = q.T @ u  # (m, A)
    best = scores.argmax(axis=1)
    if len(set(int(b) for b in best)) != m:
        raise RejectionExhausted("two posteriors share a best action")
    strategy = np.zeros((mu.shape[0], num_actions))
    for i in range(m):
        strategy[:, int(best[i])] = weights[i] * q[:, i] / mu
    sums = strategy.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise RejectionExhausted("numerically inconsistent mixture")
    return np.clip(strategy, 0.0, None) / sums[:, None]


def generate_strategies(
    num_states: int,
    num_actions: int,
    prior,
    utility,
    rng: np.random.Generator,
    *,
    sharpness: float = 0.5,
    max_attempts: int = 1000,
    agent_id: str = "synthetic",
) -> AgentChoiceMatrix:
    """Sample a choice matrix that best-responds to ``utility``.

    Posteriors and their mixture weights are drawn jointly: a random
    row-stochastic seed matrix supplies one posterior per action with the
    action marginals as weights, so the weighted posteriors average back to
    the prior exactly by construction.  Actions are then relabelled so each
    posterior answers with its own best action (a column permutation); draws
    whose best responses collide are rejected and retried.  Lower
    ``sharpness`` concentrates the rows and yields more informative
    strategies.
    """
    mu = np.asarray(prior, dtype=float)
    if mu.shape != (num_states,) or np.any(mu <= 0):
        raise DimensionMismatch("prior must be strictly positive with one entry per state")
    u = np.asarray(utility, dtype=float)
    if u.shape != (num_states, num_actions):
        raise DimensionMismatch("utility shape must be (num_states, num_actions)")
    for _ in range(max_attempts):
        seed_matrix = rng.dirichlet(np.full(num_actions, sharpness), size=num_states)
        joint = mu[:, None] * seed_matrix
        weights = joint.sum(axis=0)
        if np.any(weights < _WEIGHT_FLOOR):
            continue
        posteriors = joint / weights
        best = (posteriors.T @ u).argmax(axis=1)
        if len(set(int(b) for b in best)) != num_actions:
            continue
        strategy = np.zeros_like(seed_matrix)
        strategy[:, best] = seed_matrix
        return AgentChoiceMatrix(agent_id=agent_id, choice_prob=strategy)
    raise RejectionExhausted(
        f"no admissible strategy in {max_attempts} attempts; retry with a new seed"
    )


# ---------------------------------------------------------------------------
# Cost assignment via shortest-path potentials


def _potentials(weights: np.ndarray) -> np.ndarray | None:
    """Shortest-path distances from a virtual source on the digraph with edge
    weights ``weights[j, k]``; None if a negative cycle exists.

    Plain relaxation; improvements at rounding scale do not count as a
    negative cycle (zero-sum cycles are legitimate boundary cases).
    """
    dist = np.zeros(weights.shape[0])
    for _ in range(weights.shape[0] + 1):
        relaxed = np.minimum(dist, (dist[:, None] + weights).min(axis=0))
        if float(np.max(dist - relaxed)) <= 1e-12:
            return dist
        dist = relaxed
    return None


def assign_costs(d: DecisionDataset, utilities, target_margin: float) -> np.ndarray:
    """Costs making every swap residual at most ``-target_margin``.

    The swap inequalities say cost differences must dominate value
    differences, a potential system on the complete agent digraph: a valid
    cost vector exists exactly when no cycle of value differences is
    negative.  Potentials come from shortest paths (so the certificate is a
    negative cycle, found by plain relaxation, independent of the LP
    engine), then get shifted to a fixed floor.  Shifting is the only gauge
    freedom: scaling would change cost differences and break the margin.
    """
    K = d.num_agents
    if len(utilities) != K:
        raise DimensionMismatch(f"{len(utilities)} utilities for {K} agents")
    if K == 1:
        return np.array([SYNTH_COST_FLOOR])
    # Edge j -> k bounds c_k - c_j from above: by the swap residual at zero
    # costs, realized_k - gain_jk.
    weights = -niac_residuals(d, utilities, np.zeros(K)) - target_margin
    np.fill_diagonal(weights, 0.0)
    dist = _potentials(weights)
    if dist is None:
        raise NegativeCycle(
            "value differences contain a negative cycle at this margin"
        )
    costs = dist - dist.min() + SYNTH_COST_FLOOR
    if costs.max() > 1.0:
        raise InfeasibleCosts(
            f"potential spread {costs.max() - costs.min():.3f} does not fit the "
            "unit cost box at this margin"
        )
    residuals = niac_residuals(d, utilities, costs)
    off = ~np.eye(K, dtype=bool)
    worst = float(residuals[off].max())
    if worst > -target_margin + 1e-9:
        raise NumericalFailure(
            f"assigned costs verify at {worst:.3e}, above {-target_margin:.3e}"
        )
    return costs


# ---------------------------------------------------------------------------
# Dataset generators


def _sample_base_utility(rng, num_states, num_actions, prior):
    """Diagonal-dominant utility whose columns are equally good on average.

    Column balance (prior-weighted column sums all equal) means a fully
    garbled agent is exactly indifferent, so degrading a best-responding
    strategy toward noise never flips a best response; without it, deep
    garbling always breaks some action's optimality.
    """
    u = rng.uniform(0.02, 0.08, size=(num_states, num_actions))
    for x in range(min(num_states, num_actions)):
        u[x, x] = rng.uniform(0.85, 0.95)
    col = prior @ u
    target = float(col.max()) + 0.02
    for a in range(num_actions):
        off = np.array([x != a for x in range(num_states)], dtype=bool)
        mass = float(prior[off].sum())
        u[off, a] += (target - col[a]) / mass
    if np.any(u <= 0.0) or np.any(u > 1.0):
        return None
    return u


def generate_feasible_dataset(
    num_agents: int,
    num_states: int,
    num_actions: int,
    margin: float,
    seed: int,
    *,
    max_attempts: int = 200,
) -> GroundTruth:
    """Dataset guaranteed to pass the rationality test at slack ``margin``.

    Construction: a column-balanced base utility shared by all agents with
    per-agent scales shrinking along the ladder, and strategies obtained by
    garbling an informative root toward pure noise (a chain of
    uniform-mixing channels).  Column balance keeps every partially garbled
    agent best-responding, and the information value decays linearly along
    the chain, so the noise levels can be spaced to give the cost potentials
    of :func:`assign_costs` exactly the slack the margin demands.  Draws
    failing any of the verified gap, range, or potential checks are
    rejected and resampled.  With ``margin`` zero a constant-utility
    fallback makes failure impossible.
    """
    if num_agents < 1:
        raise DimensionMismatch("need at least one agent")
    if margin < 0:
        raise DimensionMismatch("margin must be nonnegative")
    rng = np.random.default_rng(seed)
    prior = np.full(num_states, 1.0 / num_states)
    if num_agents > 1:
        scales = np.linspace(1.0, 0.25, num_agents)
        scale_step = float(scales[0] - scales[1])
    else:
        scales = np.ones(1)
        scale_step = 1.0

    last_dataset = None
    for _ in range(max_attempts):
        base = _sample_base_utility(rng, num_states, num_actions, prior)
        if base is None:
            continue
        utilities = [scales[k] * base for k in range(num_agents)]
        try:
            root_agent = generate_strategies(
                num_states,
                num_actions,
                prior,
                base,
                rng,
                sharpness=0.05,
                max_attempts=300,
                agent_id="agent-0",
            )
        except RejectionExhausted:
            continue
        root = root_agent.choice_prob
        root_data = DecisionDataset(num_states, num_actions, prior, (root_agent,))
        # Linear value decay along the segment from the root to pure noise:
        # a step of the noise parameter costs exactly that step times the
        # root's information value.
        info_value = expected_value(root_data, 0, base) - float((prior @ base).max())
        if info_value <= 0:
            continue
        noise_step = 2.3 * margin / (scale_step * info_value) if margin > 0 else 0.0
        noise = noise_step * np.arange(num_agents)
        if margin > 0 and noise[-1] > 0.9:
            continue
        flat = np.full((num_states, num_actions), 1.0 / num_actions)
        chain = [
            (1.0 - noise[k]) * root + noise[k] * flat for k in range(num_agents)
        ]
        agents = tuple(
            AgentChoiceMatrix(agent_id=f"agent-{k}", choice_prob=chain[k])
            for k in range(num_agents)
        )
        dataset = DecisionDataset(
            num_states=num_states,
            num_actions=num_actions,
            prior=prior,
            agents=agents,
        )
        gaps = -_worst_nias(nias_residuals(dataset, [base] * num_agents))
        if np.any(gaps * scales < 1.05 * margin):
            continue
        last_dataset = dataset
        try:
            costs = assign_costs(dataset, utilities, margin)
        except InfeasibleCosts:
            continue
        return GroundTruth(
            dataset=dataset,
            utilities=tuple(utilities),
            costs=costs,
            construction_margin=margin,
            seed=seed,
        )
    if margin == 0.0 and last_dataset is not None:
        # Constant utilities and equal costs satisfy everything with zero
        # slack regardless of the strategies.
        flat = [np.full((num_states, num_actions), 0.5) for _ in range(num_agents)]
        costs = np.full(num_agents, 0.5)
        return GroundTruth(
            dataset=last_dataset,
            utilities=tuple(flat),
            costs=costs,
            construction_margin=0.0,
            seed=seed,
        )
    raise RejectionExhausted(
        f"no feasible collection at margin {margin} within {max_attempts} attempts"
    )


def generate_boundary_dataset(
    num_agents: int,
    num_states: int,
    num_actions: int,
    seed: int,
    *,
    garble_strength: float = 0.3,
) -> GroundTruth:
    """Dataset sitting exactly on the rationality boundary.

    One shared utility; the strategies form a chain where each agent's is a
    garbled copy of the next, more informative one; costs absorb the value
    differences so every agent nets the same payoff.  All swap residuals are
    then exactly zero: feasible, with no slack to spare.
    """
    if num_agents < 1:
        raise DimensionMismatch("need at least one agent")
    rng = np.random.default_rng(seed)
    prior = np.full(num_states, 1.0 / num_states)
    utility = None
    while utility is None:
        utility = _sample_base_utility(rng, num_states, num_actions, prior)
    top = generate_strategies(
        num_states,
        num_actions,
        prior,
        utility,
        rng,
        sharpness=0.35,
        agent_id=f"agent-{num_agents - 1}",
    ).choice_prob

    chain = [top]
    for step in range(num_agents - 1):
        gamma = garble_strength
        for _ in range(60):
            mix = rng.dirichlet(np.ones(num_actions), size=num_actions)
            channel = (1.0 - gamma) * np.eye(num_actions) + gamma * mix
            candidate = chain[-1] @ channel
            alone = DecisionDataset(
                num_states, num_actions, prior, (AgentChoiceMatrix("candidate", candidate),)
            )
            if _worst_nias(nias_residuals(alone, [utility]))[0] <= 1e-12:
                chain.append(candidate)
                break
            gamma *= 0.5
        else:
            raise RejectionExhausted("could not garble while keeping best responses")
    chain.reverse()  # index 0 is now the most garbled, least informative

    agents = tuple(
        AgentChoiceMatrix(agent_id=f"agent-{k}", choice_prob=chain[k])
        for k in range(num_agents)
    )
    dataset = DecisionDataset(
        num_states=num_states, num_actions=num_actions, prior=prior, agents=agents
    )
    values = np.array(
        [expected_value(dataset, k, utility) for k in range(num_agents)]
    )
    costs = values - (values.min() - SYNTH_COST_FLOOR)
    if costs.max() > 1.0:
        raise RejectionExhausted(
            "value spread too wide for the unit cost box; lower garble_strength"
        )
    return GroundTruth(
        dataset=dataset,
        utilities=tuple(utility.copy() for _ in range(num_agents)),
        costs=costs,
        construction_margin=0.0,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle


def _enumerate_utilities(levels, num_states, num_actions):
    combos = np.array(
        list(itertools.product(levels, repeat=num_states * num_actions))
    )
    return combos.reshape(-1, num_states, num_actions)


def grid_oracle(d: DecisionDataset, grid_levels=None) -> OracleResult:
    """Exhaustive search over utilities restricted to a small value grid.

    For every assignment of grid values the best-response slack is computed
    directly and cost feasibility is decided through the potential system of
    :func:`assign_costs` (with its cost box), so the result is a fully
    independent lower bound on what the LP search can achieve.  Tiny
    instances only.
    """
    levels = tuple(sorted(grid_levels)) if grid_levels else _DEFAULT_GRID
    K, X, A = d.num_agents, d.num_states, d.num_actions
    if X * A * K > _ORACLE_SIZE_CAP:
        raise InstanceTooLarge(f"oracle limit is {_ORACLE_SIZE_CAP} total cells")
    options = _enumerate_utilities(levels, X, A)
    m = options.shape[0]
    if m**K > _ORACLE_COMBO_CAP and K != 2:
        raise InstanceTooLarge(
            f"{m}^{K} grid combinations exceed the enumeration cap"
        )

    # Per agent and option: the best-response margin, the value the agent
    # realizes, and the value of its information with re-optimized actions.
    jp = d._stack
    nias_margin = np.empty((K, m))
    realized = np.empty((K, m))
    gain = np.empty((K, m))
    for k in range(K):
        # Rows of actions agent k never takes are NaN, which the worst-gap
        # reduction skips.
        scores = np.einsum("xa,mxb->mab", jp.posterior[k], options)
        nias_margin[k] = -_worst_nias(scores - np.einsum("maa->ma", scores)[:, :, None])
        realized[k] = np.einsum("xa,mxa->m", jp.joint[k], options)
        gain[k] = np.einsum("xa,mxb->mab", jp.joint[k], options).max(axis=2).sum(axis=1)

    box_span = 1.0 - SYNTH_COST_FLOOR

    if K == 2:
        head = realized[1][None, :] - gain[0][None, :]  # depends on m2
        tail = realized[0][:, None] - gain[1][:, None]  # depends on m1
        cycle_cap = (head + tail) / 2.0
        margin_cap = np.minimum(cycle_cap, np.minimum(head + box_span, tail + box_span))
        margin_grid = np.minimum(
            margin_cap, np.minimum(nias_margin[0][:, None], nias_margin[1][None, :])
        )
        best = float(margin_grid.max())
        flat = int(margin_grid.argmax())
        pick = (flat // margin_grid.shape[1], flat % margin_grid.shape[1])
        best_utils = [options[pick[0]], options[pick[1]]]
    else:
        best = -np.inf
        best_utils = None
        for combo in itertools.product(range(m), repeat=K):
            floor_margin = float(min(nias_margin[k][combo[k]] for k in range(K)))
            if floor_margin <= best:
                continue
            feasible_at = _max_cost_margin(
                gain, realized, combo, ceiling=floor_margin, box_span=box_span
            )
            if feasible_at > best:
                best = feasible_at
                best_utils = [options[i] for i in combo]

    best = float(best)
    feasible = best >= 0.0
    witness = None
    if feasible and best_utils is not None:
        try:
            costs = assign_costs(d, best_utils, max(best, 0.0))
        except InfeasibleCosts as exc:  # pragma: no cover - caps prevent this
            raise NumericalFailure(f"oracle witness failed to verify: {exc}") from exc
        witness = {
            "utilities": [u.tolist() for u in best_utils],
            "costs": costs.tolist(),
            "margin": max(best, 0.0),
        }
    return OracleResult(
        feasible=feasible, best_margin=max(best, 0.0), witness=witness
    )


def _max_cost_margin(gain, realized, combo, ceiling, box_span):
    """Largest margin at which costs exist for this utility assignment."""
    K = len(combo)
    pick = np.array(combo)
    diff = realized[np.arange(K), pick][None, :] - gain[:, pick]
    np.fill_diagonal(diff, 0.0)

    def feasible(margin):
        weights = diff - margin
        np.fill_diagonal(weights, 0.0)
        dist = _potentials(weights)
        return dist is not None and dist.max() - dist.min() <= box_span

    if not feasible(0.0):
        return -np.inf
    if ceiling <= 0.0:
        return 0.0
    if feasible(ceiling):
        return ceiling
    lo, hi = 0.0, ceiling
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Ground-truth files


def save_ground_truth(gt: GroundTruth, path: str) -> None:
    payload = {
        "dataset": dataset_to_dict(gt.dataset),
        "utilities": [u.tolist() for u in gt.utilities],
        "costs": gt.costs.tolist(),
        "construction_margin": gt.construction_margin,
        "seed": gt.seed,
    }
    write_json(path, payload)


def _ground_truth_from_dict(raw: dict) -> GroundTruth:
    return GroundTruth(
        dataset=validate_dataset(raw["dataset"]),
        utilities=tuple(np.asarray(u, dtype=float) for u in raw["utilities"]),
        costs=np.asarray(raw["costs"], dtype=float),
        construction_margin=float(raw["construction_margin"]),
        seed=int(raw["seed"]),
    )


def load_ground_truth(path: str) -> GroundTruth:
    return read_json(path, _ground_truth_from_dict)
