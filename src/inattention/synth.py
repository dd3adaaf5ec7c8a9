"""Ground-truth generators and independent oracles.

Everything here exists to exercise the fitting code from the outside: build
datasets whose rationality status is known by construction (feasible at a
target margin, degenerate, or holding a certificate of margin exactly zero,
which other utilities can beat), assign costs through a shortest-path
potential argument rather than the LP engine, and brute-force tiny two-agent
instances over a utility grid.  The cost machinery and the
grid oracle deliberately share no code path with the LP solver so they can
check it.

All generators take explicit seeds and are bit-for-bit reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .brp import _worst_nias, niac_residuals, nias_residuals, strict_margin
from .constants import SYNTH_COST_FLOOR
from .dataset import (
    DecisionDataset,
    _frozen_array,
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
    "assign_costs",
    "generate_feasible_dataset",
    "generate_boundary_dataset",
    "grid_oracle",
    "save_ground_truth",
    "load_ground_truth",
]

_DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0)
_ORACLE_SIZE_CAP = 20
_WEIGHT_FLOOR = 1e-3
_MAX_ATTEMPTS = 200
_GARBLE_STRENGTH = 0.3


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A dataset bundled with the parameters that generated it.

    The certificate, utilities held as one read-only (K, X, A) stack and
    costs, satisfies every strict residual at slack ``construction_margin``
    or better, which is verified before the object is built.
    """

    dataset: DecisionDataset
    utilities: np.ndarray
    costs: np.ndarray
    construction_margin: float
    seed: int

    def __post_init__(self):
        # Checked first, so a ragged sequence is a ProfileMismatch naming its agent.
        achieved = strict_margin(self.dataset, self.utilities, self.costs)
        object.__setattr__(self, "utilities", _frozen_array(self.utilities))
        object.__setattr__(self, "costs", _frozen_array(self.costs))
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


def generate_strategies(
    num_states: int,
    num_actions: int,
    prior,
    utility,
    rng: np.random.Generator,
    *,
    sharpness: float = 0.5,
    max_attempts: int = 1000,
) -> np.ndarray:
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
        return strategy
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
    # Edge j -> k bounds c_k - c_j from above: by the swap residual at zero
    # costs, realized_k - gain_jk.
    weights = -niac_residuals(d, utilities, np.zeros(K)) - target_margin
    if K == 1:
        return np.array([SYNTH_COST_FLOOR])
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

    It also means that, under the generators' uniform prior, with more
    actions than states an action a >= X is never a posterior's strict best
    response, and argmax ties go to the diagonal columns.  Up to six states
    this is proved: at a posterior mu + d, such a column gains at most
    0.03 |d|_1 over its prior value (its entries differ by under 0.06),
    while the diagonal column of the state with the largest d_x gains at
    least 0.63 max(d) - 0.03 |d|_1 (diagonal at least 0.85, balancing shift
    at most 0.2), and max(d) >= |d|_1 / (2 (X - 1)).  Beyond, it is measured:
    30 utilities x 300 draws found none at seven shapes, (7, 8) to (30, 31).

    With A <= X (see :func:`_check_request`) and that prior every entry lies
    in [0.02, 0.95]: off-diagonal draws in [0.02, 0.08) gain a positive shift
    of at most (0.04 + 0.08 X) / (X - 1) <= 0.2, and diagonal draws in
    [0.85, 0.95) are never shifted.
    """
    u = rng.uniform(0.02, 0.08, size=(num_states, num_actions))
    for x in range(min(num_states, num_actions)):
        u[x, x] = rng.uniform(0.85, 0.95)
    col = prior @ u
    target = float(col.max()) + 0.02
    for a in range(num_actions):
        off = np.array([x != a for x in range(num_states)], dtype=bool)
        if off.any():  # a lone state's own column has nothing to balance
            u[off, a] += (target - col[a]) / float(prior[off].sum())
    return u


def _check_request(num_agents: int, num_states: int, num_actions: int, seed: int):
    """Raise DimensionMismatch unless the generators can draw this shape
    from this seed.  More actions than states cannot all be best responses
    (proved up to six states, measured beyond: :func:`_sample_base_utility`)."""
    if num_agents < 1:
        raise DimensionMismatch("need at least one agent")
    if num_states < 1 or num_actions < 1:
        raise DimensionMismatch("need at least one state and one action")
    if num_states < num_actions:
        raise DimensionMismatch(
            f"{num_actions} actions cannot all be best responses over "
            f"{num_states} states"
        )
    if seed < 0:
        raise DimensionMismatch("seed must be nonnegative")


def generate_feasible_dataset(
    num_agents: int,
    num_states: int,
    num_actions: int,
    margin: float,
    seed: int,
) -> GroundTruth:
    """Dataset guaranteed to pass the rationality test at slack ``margin``.

    Construction: a column-balanced base utility shared by all agents with
    per-agent scales shrinking along the ladder, and strategies obtained by
    garbling an informative root toward pure noise (a chain of
    uniform-mixing channels).  Column balance keeps every partially garbled
    agent best-responding, and the information value decays linearly along
    the chain, so the noise levels can be spaced to give the cost potentials
    of :func:`assign_costs` exactly the slack the margin demands.  Draws
    failing any of the verified gap, noise-range, or potential checks are
    rejected and resampled.  At ``margin`` zero every agent gets the root
    strategy, so a draw passing the best-response and information-value
    checks returns floor costs.  A shape no draw passes raises
    :class:`DimensionMismatch`: a single action (no information value), or
    more actions than states (see :func:`_check_request`; proved up to six
    states, measured beyond).
    """
    _check_request(num_agents, num_states, num_actions, seed)
    if num_actions < 2:
        raise DimensionMismatch("one action carries no information value")
    if not (np.isfinite(margin) and margin >= 0):
        raise DimensionMismatch("margin must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    prior = np.full(num_states, 1.0 / num_states)
    if num_agents > 1:
        scales = np.linspace(1.0, 0.25, num_agents)
        scale_step = float(scales[0] - scales[1])
    else:
        scales = np.ones(1)
        scale_step = 1.0

    for _ in range(_MAX_ATTEMPTS):
        base = _sample_base_utility(rng, num_states, num_actions, prior)
        utilities = scales[:, None, None] * base
        try:
            root = generate_strategies(
                num_states, num_actions, prior, base, rng, sharpness=0.05, max_attempts=300
            )
        except RejectionExhausted:
            continue
        root_data = DecisionDataset(prior, root[None], ["agent-0"])
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
        chain = (1.0 - noise)[:, None, None] * root + noise[:, None, None] * flat
        dataset = DecisionDataset(prior, chain, [f"agent-{k}" for k in range(num_agents)])
        gaps = -_worst_nias(nias_residuals(dataset, np.broadcast_to(base, utilities.shape)))
        if np.any(gaps * scales < 1.05 * margin):
            continue
        try:
            costs = assign_costs(dataset, utilities, margin)
        except InfeasibleCosts:
            continue
        return GroundTruth(
            dataset=dataset,
            utilities=utilities,
            costs=costs,
            construction_margin=margin,
            seed=seed,
        )
    raise RejectionExhausted(
        f"no feasible collection at margin {margin} within {_MAX_ATTEMPTS} attempts"
    )


def generate_boundary_dataset(
    num_agents: int, num_states: int, num_actions: int, seed: int
) -> GroundTruth:
    """Dataset with a rationalizing certificate of strict margin exactly zero.

    One shared utility; the strategies form a chain where each agent's is a
    garbled copy of the next, more informative one (through the channel
    (1 - g) I + g M, M a random stochastic matrix, g ``_GARBLE_STRENGTH``
    halved until the copy's best responses hold); costs absorb the value
    differences so every agent nets the same payoff.  Under this certificate
    all swap residuals are exactly zero: feasible, with no slack to spare.

    The dataset is not on the boundary of the UMRI model, which lets each
    agent have its own utility: ``brp_max_margin`` finds a positive margin on
    it, ε* of 7.9e-3 to 1.8e-2 at 5 agents × 4 × 4 and 8.0e-4 to 2.2e-3 at
    11 × 4 × 4 (seeds 0-2).
    """
    _check_request(num_agents, num_states, num_actions, seed)
    rng = np.random.default_rng(seed)
    prior = np.full(num_states, 1.0 / num_states)
    utility = _sample_base_utility(rng, num_states, num_actions, prior)
    top = generate_strategies(num_states, num_actions, prior, utility, rng, sharpness=0.35)

    chain = [top]
    for step in range(num_agents - 1):
        gamma = _GARBLE_STRENGTH
        for _ in range(60):
            mix = rng.dirichlet(np.ones(num_actions), size=num_actions)
            channel = (1.0 - gamma) * np.eye(num_actions) + gamma * mix
            candidate = chain[-1] @ channel
            alone = DecisionDataset(prior, candidate[None], ["candidate"])
            if _worst_nias(nias_residuals(alone, utility[None]))[0] <= 1e-12:
                chain.append(candidate)
                break
            gamma *= 0.5
        else:
            raise RejectionExhausted("could not garble while keeping best responses")
    # Reversed, index 0 is the most garbled, least informative agent.
    dataset = DecisionDataset(prior, chain[::-1], [f"agent-{k}" for k in range(num_agents)])
    values = np.array(
        [expected_value(dataset, k, utility) for k in range(num_agents)]
    )
    costs = values - (values.min() - SYNTH_COST_FLOOR)
    if costs.max() > 1.0:
        raise RejectionExhausted(
            "value spread too wide for the unit cost box; try another seed"
        )
    return GroundTruth(
        dataset=dataset,
        utilities=np.broadcast_to(utility, (num_agents, *utility.shape)),
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

    For every pair of grid utilities the best-response slack is computed
    directly and the cost margin is read off the two-agent cycle and the
    cost box of :func:`assign_costs`, so the result is a fully independent
    lower bound on what the LP search can achieve.  Tiny two-agent instances
    only; any other agent count raises InstanceTooLarge.
    """
    levels = tuple(sorted(grid_levels)) if grid_levels else _DEFAULT_GRID
    K, X, A = d.num_agents, d.num_states, d.num_actions
    if X * A * K > _ORACLE_SIZE_CAP:
        raise InstanceTooLarge(f"oracle limit is {_ORACLE_SIZE_CAP} total cells")
    if K != 2:
        raise InstanceTooLarge(f"the oracle handles two agents, not {K}")
    options = _enumerate_utilities(levels, X, A)
    m = options.shape[0]

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
    best_utils = options[list(pick)]

    feasible = best >= 0.0
    witness = None
    if feasible:
        try:
            costs = assign_costs(d, best_utils, max(best, 0.0))
        except InfeasibleCosts as exc:  # pragma: no cover - caps prevent this
            raise NumericalFailure(f"oracle witness failed to verify: {exc}") from exc
        witness = {
            "utilities": best_utils.tolist(),
            "costs": costs.tolist(),
            "margin": max(best, 0.0),
        }
    return OracleResult(
        feasible=feasible, best_margin=max(best, 0.0), witness=witness
    )


# ---------------------------------------------------------------------------
# Ground-truth files


def save_ground_truth(gt: GroundTruth, path: str) -> None:
    payload = {
        "dataset": dataset_to_dict(gt.dataset),
        "utilities": gt.utilities.tolist(),
        "costs": gt.costs.tolist(),
        "construction_margin": gt.construction_margin,
        "seed": gt.seed,
    }
    write_json(path, payload)


def _ground_truth_from_dict(raw: dict) -> GroundTruth:
    # A generator's truth may hold one agent; only rationality tests need two.
    return GroundTruth(
        dataset=validate_dataset(raw["dataset"], min_agents=1),
        utilities=raw["utilities"],
        costs=raw["costs"],
        construction_margin=float(raw["construction_margin"]),
        seed=int(raw["seed"]),
    )


def load_ground_truth(path: str) -> GroundTruth:
    return read_json(path, _ground_truth_from_dict)
