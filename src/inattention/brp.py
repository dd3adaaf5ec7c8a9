"""Rationality test for a collection of agents with private utilities.

The test asks whether there exist per-agent utility matrices and scalar
information costs under which (a) every agent's action is a best response to
its own revealed posterior and (b) no agent would gain by swapping to another
agent's information net of the cost difference.  Both families of residuals
are linear in the utilities once the per-observation best responses are
pinned, so maximizing the common slack margin is a linear program; the best
responses themselves are generated lazily as cutting planes, kept as integer
rows (j, k, sigma): sigma answers each of agent j's actions under k's utility.
The program takes its cut pool as input: the margin stage seeds it from the
agents' spanning tree, and the sparsity stage starts from the memo's pool.
The margin stage's first program starts from a crash basis, each agent
rewarded for its modal action in each state; each later round, warm.  The
loop stops once no pair is violated by more than ``_CUT_TOL`` (1e-10,
absolute), so a fit's eps* can sit about that far below the optimum of the
program holding every selection: on 5x4x4 feasible draws, margins near
0.017, by up to 1.4e-10 (8.4e-9 relative); at 11 agents, within 4e-11
relative.
The same builder assembles the shared-utility model's programs
(:mod:`inattention.sbrp`): there every agent's utility is one shared block,
and each swap row's cost difference is weighted by the agent's sensitivity.

A margin of zero is always attainable (constant utilities satisfy everything
with equality), so "passes" means the optimal margin is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEGENERATE_MARGIN, MARGIN_CAP, UNIT_FLOOR
from .costs import PiecewiseAffineCost, _anchored_cost
from .dataset import DecisionDataset, JointPosterior, _frozen_array
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
from .lp import LinearProgram, LpBasis, solve_lp

__all__ = [
    "UtilityProfile",
    "MarginReport",
    "nias_residuals",
    "niac_residuals",
    "brp_max_margin",
    "brp_sparsest",
    "reconstruct_cost",
    "normalize_profile",
]

_CUT_TOL = 1e-10
_MAX_CUT_ROUNDS = 100


@dataclass(frozen=True, eq=False)
class UtilityProfile:
    """A rationality certificate: per-agent utilities, costs, and the margin.

    ``utilities`` is one read-only (K, X, A) stack, agent k's utility at
    ``utilities[k]``; ``costs`` holds one per agent.  ``margin`` is the
    negated maximum of the strict-set residuals; a fit gets it only from
    :meth:`from_certificate` (the constructor's argument is for files).
    Solver outputs are nonnegative; normalized profiles may carry any
    positive scale, often leaving the solver's unit box.
    """

    utilities: np.ndarray
    costs: np.ndarray
    margin: float

    def __post_init__(self):
        utilities, costs = _frozen_array(_stacked(self.utilities)), _frozen_array(self.costs)
        if utilities.ndim != 3 or not np.all(np.isfinite(utilities)):
            raise DimensionMismatch("utilities must be a finite (K, X, A) stack")
        if costs.shape != utilities.shape[:1] or not np.all(np.isfinite(costs)):
            raise DimensionMismatch("need one finite cost per agent")
        if not np.isfinite(float(self.margin)):
            raise DimensionMismatch(f"margin {self.margin!r} is not finite")
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "margin", float(self.margin))

    @classmethod
    def from_certificate(cls, dataset: DecisionDataset, utilities, costs) -> "UtilityProfile":
        """The profile at these utilities and costs, its margin taken on ``dataset``."""
        return cls(utilities, costs, strict_margin(dataset, utilities, costs))

    @property
    def num_agents(self) -> int:
        return self.utilities.shape[0]

    def squared_norms(self) -> np.ndarray:
        return np.square(self.utilities).reshape(self.num_agents, -1).sum(axis=1)

    def total_l1(self) -> float:
        return float(np.abs(self.utilities).sum())


@dataclass(frozen=True, eq=False)
class MarginReport:
    """Goodness-of-fit summary for a max-margin run.

    ``robustness`` is the margin, maximized inside the unit boxes, over the
    mean squared utility norm at the optimizer; maximizing the ratio itself
    is scale-degenerate.  Only ``epsilon_star`` is a property of the data:
    ``robustness`` and the norms belong to the vertex the solver returns.
    """

    epsilon_star: float
    robustness: float
    utility_norms: np.ndarray
    degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "utility_norms", _frozen_array(self.utility_norms))

    @classmethod
    def from_solution(
        cls, margin: float, utility_norms: np.ndarray
    ) -> "MarginReport":
        eps, degenerate = _verdict(margin)
        total = float(np.sum(utility_norms))
        robustness = eps * len(utility_norms) / total if total > 0 else 0.0
        return cls(
            epsilon_star=eps,
            robustness=robustness,
            utility_norms=utility_norms,
            degenerate=degenerate,
        )


def _verdict(margin: float) -> tuple[float, bool]:
    """(eps*, degenerate) of either model's margin."""
    eps = max(float(margin), 0.0)
    return eps, eps <= DEGENERATE_MARGIN


def _stored_fit(d: DecisionDataset, model: str, fit, margin_fraction: float):
    """Both models' door to the sparsity stage: ``d``'s stored ``model`` fit, made by
    ``fit(d)`` if missing, and ``margin_fraction`` of its margin to keep.  Raises
    ValueError, before any solve, unless 0 < margin_fraction < 1; raises if degenerate."""
    if not 0.0 < margin_fraction < 1.0:
        raise ValueError("margin_fraction must lie strictly between 0 and 1")
    if model not in d._fits:
        fit(d)
    stored = d._fits[model]
    if _verdict(stored.margin)[1]:
        raise DegenerateDataset(
            f"max margin {stored.margin!r} is numerically zero; sparsity is undefined"
        )
    return stored, margin_fraction * stored.margin


# ---------------------------------------------------------------------------
# Residuals: the package's one residual kernel.  Batched ``np.matmul`` runs
# the same 2-D product per agent as ``@``, so values match a per-agent loop
# bit for bit (``einsum`` does not).


def _stacked(utilities, shape=None) -> np.ndarray:
    """Per-agent ``utilities`` (a list, tuple, stack or view) as one
    (K, X, A) float stack, not copied if they are one; ProfileMismatch
    naming the first whose shape is not ``shape`` (default: the first
    one's).  This is the one check of the per-agent layout."""
    shapes = [np.shape(u) for u in utilities]
    for k, found in enumerate(shapes):
        expected = shape or shapes[0]
        if found != expected:
            raise ProfileMismatch(f"utility {k} has shape {found}, expected {expected}")
    return np.asarray(utilities, dtype=float)


def _check_profile_dims(d: DecisionDataset, utilities) -> np.ndarray:
    """:func:`_stacked` of ``utilities``; ProfileMismatch unless there is
    one of ``d``'s (X, A) shape per agent.  This is the one check that a
    fitted model matches its dataset."""
    if len(utilities) != d.num_agents:
        raise ProfileMismatch(f"profile has {len(utilities)} agents, dataset {d.num_agents}")
    return _stacked(utilities, (d.num_states, d.num_actions))


def nias_residuals(d: DecisionDataset, utilities) -> np.ndarray:
    """Best-response residuals, shape (K, A, A).

    Entry (k, a, b) is the gain agent k would see from answering b instead of
    a under its revealed posterior after a; nonpositive everywhere (off the
    diagonal) means every observed action is a best response.  Rows of
    actions an agent never takes are NaN: there is no posterior to test.
    """
    return _nias(d._stack, _check_profile_dims(d, utilities))


def _nias(jp: JointPosterior, u: np.ndarray) -> np.ndarray:
    """:func:`nias_residuals` of the (K, X, A) stacks ``jp`` and ``u``."""
    scores = np.matmul(jp.posterior.swapaxes(1, 2), u)  # (K, A, A)
    out = scores - scores.diagonal(0, 1, 2)[:, :, None]
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
    return _niac(d, u, c, _swap_scores(d, u))


def _niac(d: DecisionDataset, u: np.ndarray, c: np.ndarray, scores) -> np.ndarray:
    """:func:`niac_residuals` of the (K, X, A) stack ``u`` and costs ``c``,
    given ``scores``, their :func:`_swap_scores`."""
    gain = scores.max(axis=3).sum(axis=2)
    return gain - c[:, None] - _realized(d, u)[None, :] + c[None, :]


def _worst_nias(nias: np.ndarray) -> np.ndarray:
    """Each agent's largest off-diagonal best-response residual, shape (K,);
    -inf for an agent with none defined."""
    off_action = ~np.eye(nias.shape[-1], dtype=bool)
    return np.fmax.reduce(nias[:, off_action], axis=1, initial=-np.inf)


def _margin_of(nias: np.ndarray, swaps: np.ndarray) -> float:
    """Negated maximum residual over the strict sets (b != a, j != k); a
    lone agent has no swap residual."""
    off_agent = ~np.eye(swaps.shape[0], dtype=bool)
    worst_swap = swaps[off_agent].max(initial=-np.inf)
    return -float(max(_worst_nias(nias).max(), worst_swap))


def strict_margin(d: DecisionDataset, utilities, costs) -> float:
    """Negated maximum residual over the strict sets (b != a, j != k)."""
    return _margin_of(
        nias_residuals(d, utilities), niac_residuals(d, utilities, costs)
    )


# ---------------------------------------------------------------------------
# Max-margin / sparsity programs


def _margin_rows(lp: LinearProgram, core: np.ndarray, with_margin: bool) -> np.ndarray:
    """``core`` rows over ``lp``'s leading variables, widened with zeros to
    all of them, with coefficient one on the margin (the last variable) when
    ``with_margin``."""
    rows = np.zeros((core.shape[0], lp.num_vars))
    rows[:, : core.shape[1]] = core
    if with_margin:
        rows[:, -1] = 1.0
    return rows


def _spanning_tree(choices: np.ndarray) -> np.ndarray:
    """A minimum spanning tree of the (K, X, A) choice matrices under the
    entrywise L1 distance, as a (K, K) mask of its edges (parent, child).

    Prim's algorithm from agent 0; ties go to the lowest index, both for the
    next agent to join and for its parent.
    """
    K = choices.shape[0]
    dist = np.abs(choices[:, None] - choices[None]).sum(axis=(2, 3))
    tree = np.zeros((K, K), dtype=bool)
    joined = np.zeros(K, dtype=bool)
    joined[0] = True
    nearest, parent = dist[0].copy(), np.zeros(K, dtype=int)
    for _ in range(K - 1):
        child = int(np.argmin(np.where(joined, np.inf, nearest)))
        tree[parent[child], child] = joined[child] = True
        step = dist[child]
        closer = (step < nearest) | ((step == nearest) & (child < parent))
        nearest[closer], parent[closer] = step[closer], child
    return tree


def _identity_cuts(d: DecisionDataset, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """One cut per pair (j[i], k[i]) that answers each of agent j's actions
    with the same action."""
    return np.column_stack([j, k, np.tile(np.arange(d.num_actions), (j.size, 1))])


def _seed_cuts(d: DecisionDataset) -> np.ndarray:
    """Stage one's first cut pool: the identity both ways along each edge of
    the agents' spanning tree, which ties every cost to every other through
    c_k - c_j; the cut loop adds any other pair it finds violated."""
    tree = _spanning_tree(d.choices)
    return _identity_cuts(d, *np.nonzero(tree | tree.T))


class _BrpProgram:
    """LP assembly for the margin and sparsity stages of both models.

    Variables: utility blocks (flattened), K costs, and optionally the
    margin.  Agent k's utility is block ``blocks[k]``: its own (UMRI) or,
    with ``shared``, the one block all agents share (s-UMRI).  The rows are
    the best-response rows, then one swap row per cut of the pool.  For
    UMRI the pool grows lazily: a candidate solution is scored exactly, and
    any observation whose true best response beats the responses already
    modelled contributes a new row.
    """

    def __init__(self, d: DecisionDataset, cuts: np.ndarray, *, shared: bool = False):
        if d.num_agents < 2:
            raise TooFewAgents("margin test needs at least two agents")
        self.d = d
        self.K, self.X, self.A = d.num_agents, d.num_states, d.num_actions
        self.block = self.X * self.A
        self.blocks = np.zeros(self.K, dtype=int) if shared else np.arange(self.K)
        self.num_utility_vars = (1 if shared else self.K) * self.block
        self.unit_weights = np.ones(self.K)
        # One best-response row per agent k, action a it takes and deviation
        # b != a, in that order: q on u_k[:, b] and -q on u_k[:, a], where q
        # is k's posterior after a, so it evaluates to nias_residuals[k, a, b].
        jp = d._stack
        agent, taken = np.nonzero(jp.defined_actions)
        deviation = np.nonzero(~np.eye(self.A, dtype=bool)[taken])[1]
        agent, taken = np.repeat(agent, self.A - 1), np.repeat(taken, self.A - 1)
        q = jp.posterior[agent, :, taken]  # (rows, X)
        u_k = (self.blocks[agent] * self.block)[:, None] + np.arange(self.X) * self.A
        which = np.arange(agent.size)[:, None]
        self.nias_rows = np.zeros((agent.size, self.num_core_vars))
        self.nias_rows[which, u_k + deviation[:, None]] = q
        self.nias_rows[which, u_k + taken[:, None]] = -q
        # Rows are appended, never written: the memo shares the array.
        self.cuts = cuts

    @property
    def num_core_vars(self) -> int:
        return self.num_utility_vars + self.K

    def swap_rows(self, cuts: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """One row over the core variables per row (j, k, sigma) of
        ``cuts``, whose value is the swap residual (j, k) with agent j's
        observations answered by ``sigma`` and the cost difference
        c_k - c_j weighted by ``weights[k]`` (by default one)."""
        if not cuts.shape[0]:
            return np.zeros((0, self.num_core_vars))
        if weights is None:
            weights = self.unit_weights
        j, k, sigma = cuts[:, 0], cuts[:, 1], cuts[:, 2:]
        joint = self.d._stack.joint
        which = np.arange(cuts.shape[0])
        rows = np.zeros((which.size, self.num_core_vars))
        # u_k[x, 0] of each row as an index into the flattened rows: 1-D
        # fancy indexing runs about twice as fast as the 2-D form.
        cell = (which * self.num_core_vars + self.blocks[k] * self.block)[:, None]
        cell = cell + np.arange(self.X) * self.A
        flat = rows.reshape(-1)
        # A fixed order (a ascending, the sigma(a) term first) rounds a cell
        # hit twice the same way in every build.
        for a in range(self.A):
            flat[cell + sigma[:, a, None]] += joint[j, :, a]
            flat[cell + a] -= joint[k, :, a]
        rows[which, self.num_utility_vars + k] = weights[k]
        rows[which, self.num_utility_vars + j] = -weights[k]
        return rows

    def build(self, keep: float | None = None, *, weights: np.ndarray | None = None):
        """A stage's first program over utilities and costs in [UNIT_FLOOR, 1].
        ``keep`` names the stage: None, the margin stage, which maximizes the
        margin (the last variable, in [0, MARGIN_CAP]); a float, the sparsity
        stage, which minimizes the utility mass with every row at most -keep.
        Rows: the best-response rows, then every cut's swap row (``weights``
        as in :meth:`swap_rows`), grouped by pair in (j, k) order."""
        margin = keep is None
        n = self.num_core_vars + int(margin)
        objective, lower, upper = np.zeros(n), np.full(n, UNIT_FLOOR), np.ones(n)
        if margin:
            objective[-1], lower[-1], upper[-1] = 1.0, 0.0, MARGIN_CAP
        else:
            objective[: self.num_utility_vars] = -1.0
        lp = LinearProgram(objective, lower, upper)
        pair = self.cuts[:, 0] * self.K + self.cuts[:, 1]
        by_pair = self.cuts[np.argsort(pair, kind="stable")]
        rows = np.vstack([self.nias_rows, self.swap_rows(by_pair, weights)])
        lp.add_leq(_margin_rows(lp, rows, margin), 0.0 if margin else -keep)
        return lp

    def extract(self, point: np.ndarray):
        """(each agent's utility as one (K, X, A) stack, costs, margin or None) at ``point``."""
        stack = point[: self.num_utility_vars].reshape(-1, self.X, self.A)
        costs = point[self.num_utility_vars : self.num_core_vars].copy()
        margin = float(point[-1]) if point.shape[0] > self.num_core_vars else None
        return stack[self.blocks], costs, margin

    def add_violated_selections(self, utilities, costs, bound: float) -> np.ndarray:
        """Score the candidate, its (K, X, A) ``utilities`` and ``costs``,
        exactly; model any better response found.

        ``bound`` is what every swap residual must stay below; a pair whose
        exact residual exceeds it (beyond tolerance) gets its current best
        response appended as a new cut, unless the pair already holds it.
        Returns the new cuts' swap rows in (j, k) order (none: zero rows).
        """
        scores = _swap_scores(self.d, utilities)
        violated = _niac(self.d, utilities, costs, scores) > bound + _CUT_TOL
        np.fill_diagonal(violated, False)
        best = scores.argmax(axis=3)
        # Only a violated pair's own cuts can already hold its best response.
        own = self.cuts[violated[self.cuts[:, 0], self.cuts[:, 1]]]
        held = (own[:, 2:] == best[own[:, 0], own[:, 1]]).all(axis=1)
        violated[own[held, 0], own[held, 1]] = False
        j, k = np.nonzero(violated)
        new = np.column_stack([j, k, best[j, k]])
        self.cuts = np.vstack([self.cuts, new])
        return self.swap_rows(new)

    def modal_start(self, lp: LinearProgram) -> LpBasis:
        """``lp``'s slack basis with each agent's utility for its modal action
        in each state (argmax_a P_k(a|x), ties to the lowest) at its upper
        bound, every other column at its lower: a crash start where the
        best-response rows hold with room, not tight as at the all-floor
        vertex; the first dual pass repairs the swap rows it violates."""
        n, m = lp.num_vars, lp.num_rows
        modal = self.d.choices.argmax(axis=2)
        cells = (self.blocks * self.block)[:, None] + np.arange(self.X) * self.A + modal
        status = np.zeros(n + m, dtype=np.int8)
        status[cells] = 1
        return LpBasis(np.arange(n, n + m), status)

    def solve_with_cuts(self, keep: float | None = None):
        """Solve the first program of the stage ``keep`` names (:meth:`build`),
        then, while the optimum misses a best response, solve a copy with the
        new rows appended, warm from the previous optimal basis; the margin
        stage's first from :meth:`modal_start`, the sparsity stage's cold
        (each utility's cost favours its floor).  Every round's program is a
        fresh object that is never changed after it is solved.  Returns
        (utilities, costs, margin, rounds), one round per solve; the margin
        is None in the sparsity stage."""
        margin_stage = keep is None
        rhs = 0.0 if margin_stage else -keep
        lp = self.build(keep)
        start = self.modal_start(lp) if margin_stage else None
        for rounds in range(1, _MAX_CUT_ROUNDS + 1):
            solution = solve_lp(lp, start=start).require_optimal("feasibility program")
            utilities, costs, margin = self.extract(solution.point)
            bound = -margin if margin_stage else rhs
            cuts = self.add_violated_selections(utilities, costs, bound)
            if not cuts.shape[0]:
                return utilities, costs, margin, rounds
            lp, start = lp.copy(), solution.basis
            lp.add_leq(_margin_rows(lp, cuts, margin_stage), rhs)
        pairs = ", ".join(f"({j}, {k})" for j, k in self.cuts[-cuts.shape[0] :, :2])
        raise NumericalFailure(
            f"best-response row generation did not converge in {rounds} rounds; "
            f"agent pairs (j, k) still violated: {pairs}"
        )


@dataclass(frozen=True, eq=False)
class _MarginStage:
    """What stage one on a dataset leaves for the sparsity stage: its margin
    and its cut pool, read-only, and the cut rounds (LP solves) it took."""

    margin: float
    cuts: np.ndarray
    rounds: int


def _solve_margin_stage(d: DecisionDataset):
    """Solve stage one on ``d`` and return its optimal (utilities, costs).

    The outcome depends on the read-only dataset alone (the solver is
    deterministic), so its margin and cuts are stored at ``d._fits["umri"]``;
    a stage that raises stores nothing.
    """
    program = _BrpProgram(d, _seed_cuts(d))
    utilities, costs, margin, rounds = program.solve_with_cuts()
    cuts = _frozen_array(program.cuts, dtype=int)
    d._fits["umri"] = _MarginStage(margin, cuts, rounds)
    return utilities, costs


def brp_max_margin(d: DecisionDataset) -> tuple[UtilityProfile, MarginReport]:
    """Maximize the common slack by which the dataset passes the test.

    Returns the optimizing certificate and a report with the normalized
    robustness value.  Always solves, and stores the stage in ``d``'s memo
    for :func:`brp_sparsest`.
    """
    profile = UtilityProfile.from_certificate(d, *_solve_margin_stage(d))
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
    ``-margin_fraction * margin``.  With ``normalize`` the result is put in
    the gauge profiles are compared in by :func:`normalize_profile`.

    Stage one is solved only when ``d``'s memo has none stored: after
    :func:`brp_max_margin` or :func:`brp_sparsest` on the same ``d``, stage
    two starts from the stored margin and cuts exactly as after a solve, so
    the result is the same bit for bit.
    """
    stage, keep = _stored_fit(d, "umri", _solve_margin_stage, margin_fraction)
    utilities, costs, *_ = _BrpProgram(d, stage.cuts).solve_with_cuts(keep)
    profile = UtilityProfile.from_certificate(d, utilities, costs)
    return normalize_profile(d, profile) if normalize else profile


def normalize_profile(d: DecisionDataset, profile: UtilityProfile) -> UtilityProfile:
    """Rescale so the squared utility norms sum to the number of agents.

    The residuals are homogeneous in (utilities, costs), so feasibility is
    kept; the margin is recomputed on ``d`` (scaling it rounds differently).
    """
    total = float(profile.squared_norms().sum())
    if total <= 0:
        raise ProfileMismatch("cannot normalize an all-zero profile")
    factor = float(np.sqrt(profile.num_agents / total))
    return UtilityProfile.from_certificate(d, factor * profile.utilities, factor * profile.costs)


def reconstruct_cost(d: DecisionDataset, prof: UtilityProfile) -> PiecewiseAffineCost:
    """Anchor one cost piece at each agent's strategy.

    Evaluating the result at an in-sample strategy returns that agent's
    fitted cost exactly, and each agent's strategy maximizes value minus
    cost over all strategies (the envelope uses re-optimized actions).
    """
    margin = strict_margin(d, prof.utilities, prof.costs)
    return _anchored_cost(d, prof.utilities, prof.costs, margin)


# ---------------------------------------------------------------------------
# Profile files


def profile_to_dict(
    d: DecisionDataset, prof: UtilityProfile, report: MarginReport | None = None,
    metadata: dict | None = None,
) -> dict:
    """JSON form of ``prof``.  Its utilities and ``robustness`` are those of
    the vertex the solver returned; only a max-margin fit's ``margin`` (eps*)
    is a property of the data."""
    utilities, costs = prof.utilities.tolist(), prof.costs.tolist()
    agents = [{"utility": u, "cost": c} for u, c in zip(utilities, costs)]
    return _fit_dict(d, "umri", prof.utilities, prof.margin, {}, agents, report, metadata)


def _fit_dict(d, model, utilities, margin, shared, agents, report, metadata) -> dict:
    """Either model's fit file: its verdict, then ``shared``, then each
    agent's id and ``agents`` fields; ``utilities`` must fit ``d``."""
    _check_profile_dims(d, utilities)
    out = {
        "model": model,
        "margin": margin,
        "degenerate": _verdict(margin)[1],
        **shared,
        "agents": [
            {"agent_id": agent_id, **fields}
            for agent_id, fields in zip(d.agent_ids, agents)
        ],
    }
    if report is not None:
        out["robustness"] = report.robustness
    if metadata:
        out["metadata"] = metadata
    return out


def _profile_from_dict(raw: dict) -> UtilityProfile:
    if raw.get("model") != "umri":
        raise IoFailure("not a umri profile file")
    return UtilityProfile(
        utilities=[a["utility"] for a in raw["agents"]],
        costs=[a["cost"] for a in raw["agents"]],
        margin=float(raw["margin"]),
    )
