"""Prediction across a noise-indexed family of agents.

The family's agents are classifiers trained at increasing noise variances.
Fitting recovers per-agent utilities and costs.  A family's constructor is
its one door: its profile's strict margin must pass the cost's certificate
rule and not be degenerate, and its utilities must be nonnegative.  A query
has one path, :func:`predict_at`: it linearly interpolates the two
surrounding utilities and re-solves the strategy choice problem against the
cost envelope anchored at the fitted profile, read directly from it.  The
choice is a single LP once the value term scores each observation with its
labelled action.  That surrogate is exact when every labelled action is a
best response to its posterior; the LP holds the best-response rows that
make it so, and a certificate re-checks it after the fact.  The cost pieces
are scored with the labelled action too, so the envelope the LP optimizes
meets ``PiecewiseAffineCost.value`` (scored with the best response) at the
anchors and can lie below it between them.  A second LP takes the optimum
nearest the observed behavior, over deviations.

A family answers many queries, so it builds the prediction program's rows
that no utility enters once, and each grid interval's queries start their
first program from one optimal basis: the interval midpoint's, kept on the
family.  Queries in one interval solve related programs, whose optimal
bases barely differ, so a warm solve from the midpoint's basis takes a few
pivots where a cold one takes dozens.  Neighbouring midpoints are related
the same way, so the midpoints form a chain: interval 0's solves cold, and
each later one warm from the interval before it, which is solved first when
a query needs it (a single query on a fresh family pays up to g warm
interval starts, g its interval).  Each start depends on its interval
alone, so no answer depends on earlier queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brp import (
    UtilityProfile,
    _nias,
    _profile_from_dict,
    _verdict,
    _worst_nias,
    brp_max_margin,
    profile_to_dict,
    strict_margin,
)
from .costs import PiecewiseAffineCost, _anchored_cost
from .dataset import (
    DecisionDataset,
    _frozen_array,
    _joint_posterior,
    dataset_to_dict,
    read_json,
    validate_dataset,
    write_json,
)
# Unused here but kept bound: the benchmark tracer patches this name.
from .dataset import atomic_write_text  # noqa: F401
from .errors import (
    DegenerateDataset,
    DimensionMismatch,
    NonSquare,
    NumericalFailure,
    OutOfRange,
    ShapeMismatch,
    TooFewAgents,
)
from .lp import LinearProgram, LpSolution, solve_lp

__all__ = [
    "NoiseFamily",
    "PredictionOutcome",
    "fit_family",
    "check_eta",
    "interpolate_utility",
    "predict_at",
    "score_prediction",
    "save_family",
    "load_family",
    "prediction_to_dict",
]

_NIAS_CERT_TOL = 1e-9
_OBJECTIVE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class NoiseFamily:
    """Fitted model for agents indexed by an increasing noise grid of at
    least two levels (TooFewAgents), one grid interval.  Every family's
    profile is admitted here: its strict margin must pass the cost's
    certificate rule (ProfileMismatch), not be degenerate (DegenerateDataset)
    and have nonnegative utilities (DimensionMismatch), so every interpolated
    utility is nonnegative too.

    Privately it keeps the prediction program at zero utility (its boxes and
    the rows no utility enters), the best-response (action, deviation) pairs
    with the positions of their rows' coefficients, the refinement's cost
    and lower bounds, and the memo of grid interval starts, a list holding
    intervals 0..g of the chain once a query has reached interval g (module
    docstring)."""

    etas: np.ndarray
    dataset: DecisionDataset
    fitted: UtilityProfile
    _base: LinearProgram = field(init=False, repr=False)
    _pairs: tuple = field(init=False, repr=False)
    _deviation: tuple = field(init=False, repr=False)
    _starts: list = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        d = self.dataset
        margin = strict_margin(d, self.fitted.utilities, self.fitted.costs)
        object.__setattr__(self, "etas", _noise_grid(self.etas, d.num_agents))
        cost = _anchored_cost(d, self.fitted.utilities, self.fitted.costs, margin)
        if _verdict(margin)[1]:
            raise DegenerateDataset(
                "max-margin fit is numerically zero; predictions are meaningless"
            )
        if np.any(self.fitted.utilities < 0):
            raise DimensionMismatch("utility entries must be finite and nonnegative")
        base = _base_program(d, cost)
        object.__setattr__(self, "_base", base)
        taken, deviation = np.nonzero(~np.eye(d.num_actions, dtype=bool))
        # Where each pair's best-response row takes its coefficients, by
        # state, in the flattened block of those rows (_first_program).
        cells = d.num_states * d.num_actions
        at = np.arange(taken.size)[:, None] * (cells + 1) + np.arange(0, cells, d.num_actions)
        pairs = (taken, deviation, at + taken[:, None])
        object.__setattr__(self, "_pairs", tuple(_frozen_array(i, dtype=int) for i in pairs))
        # The refinement's cost and lower bounds (_refine_toward_anchor).
        refine_cost = np.concatenate([-np.ones(2 * cells), np.zeros(base.num_vars - cells)])
        refine_lower = np.concatenate([np.zeros(2 * cells), base.lower[cells:]])
        refine = (_frozen_array(refine_cost), _frozen_array(refine_lower))
        object.__setattr__(self, "_deviation", refine)

    @property
    def num_agents(self) -> int:
        return self.dataset.num_agents


@dataclass(frozen=True, eq=False)
class PredictionOutcome:
    """One query: interpolated utility, predicted strategy, and scores."""

    eta: float
    interpolated_utility: np.ndarray
    predicted_choice: np.ndarray
    nias_consistent: bool
    per_class_error: np.ndarray | None = None
    kl_score: float | None = None

    def __post_init__(self):
        for name in ("interpolated_utility", "predicted_choice", "per_class_error"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def fit_family(d: DecisionDataset, etas) -> NoiseFamily:
    """Fit the family: max-margin utilities and costs, one per agent.

    Prediction reads the fitted profile directly: its cost envelope has one
    piece per agent, offset at the fitted cost with gradient the
    prior-weighted fitted utility.
    """
    etas = _noise_grid(etas, d.num_agents)
    return NoiseFamily(etas=etas, dataset=d, fitted=brp_max_margin(d)[0])


def _noise_grid(etas, num_agents: int) -> np.ndarray:
    """A read-only float copy of ``etas``; raises DimensionMismatch unless
    they are one finite noise level per agent, strictly increasing, and
    TooFewAgents unless they span one grid interval."""
    etas = _frozen_array(etas)
    if etas.shape != (num_agents,):
        raise DimensionMismatch(
            f"{etas.shape[0] if etas.ndim == 1 else 'malformed'} noise levels "
            f"for {num_agents} agents"
        )
    if num_agents < 2:
        raise TooFewAgents("a noise grid needs two levels, one interval to interpolate in")
    if not np.all(np.isfinite(etas)):
        raise DimensionMismatch("noise levels must be finite")
    if np.any(np.diff(etas) <= 0):
        raise DimensionMismatch("noise levels must be strictly increasing")
    return etas


def check_eta(etas: np.ndarray, eta: float) -> None:
    """Raise OutOfRange unless ``eta`` lies in the increasing noise grid
    ``etas``; NaN lies nowhere in it."""
    if not etas[0] <= eta <= etas[-1]:
        raise OutOfRange(
            f"noise level {eta} outside the fitted grid "
            f"[{etas[0]}, {etas[-1]}]; no extrapolation"
        )


def _bracket(f: NoiseFamily, eta: float) -> tuple[int, float]:
    """Grid interval g holding ``eta``, and eta's weight on its upper end."""
    etas = f.etas
    check_eta(etas, eta)
    g = min(int(etas.searchsorted(eta, side="right")) - 1, etas.shape[0] - 2)
    return g, (eta - etas[g]) / (etas[g + 1] - etas[g])


def interpolate_utility(f: NoiseFamily, eta: float) -> np.ndarray:
    """Linear interpolation of the fitted utilities at ``eta``.

    The two bracketing utilities mix with weights proportional to distance
    over the local spacing (so non-uniform grids work unchanged).  At a grid
    point the weight is exactly 0 or 1, so the fitted utility comes back bit
    for bit.
    """
    return _interpolated(f, *_bracket(f, eta))


def _interpolated(f: NoiseFamily, g: int, w_hi: float) -> np.ndarray:
    """The fitted utilities of grid interval g mixed with weight ``w_hi`` on
    its upper end."""
    return (1.0 - w_hi) * f.fitted.utilities[g] + w_hi * f.fitted.utilities[g + 1]


def _base_program(d: DecisionDataset, cost: PiecewiseAffineCost) -> LinearProgram:
    """The prediction program at zero utility: the strategy boxes and the
    epigraph scalar's, one simplex row per state, then one epigraph row per
    piece of ``cost`` (its labelled-action value, linear in the strategy)."""
    X, A = d.num_states, d.num_actions
    gradients = cost.gradients.reshape(-1, X * A)
    anchored = (gradients * cost.anchors.reshape(-1, X * A)).sum(axis=1)
    offsets = cost.offsets - anchored
    bound = float((np.abs(offsets) + np.abs(gradients).sum(axis=1)).max()) + 1.0
    lp = LinearProgram(
        np.append(np.zeros(X * A), -1.0),
        np.append(np.zeros(X * A), -bound),
        np.append(np.ones(X * A), bound),
    )
    lp.add_eq(np.hstack([np.repeat(np.eye(X), A, axis=1), np.zeros((X, 1))]), 1.0)
    lp.add_leq(np.hstack([gradients, -np.ones((len(offsets), 1))]), -offsets)
    return lp


def _first_program(f: NoiseFamily, u_hat: np.ndarray) -> LinearProgram:
    """The prediction program at utility ``u_hat``: the family's base
    program, its boxes and rows shared, with the objective at ``u_hat`` and
    one best-response row per action a and deviation b != a appended:
    sum_x mu(x) P(x, a) (u(x, b) - u(x, a)) <= 0."""
    base, (taken, deviation, at), prior = f._base, f._pairs, f.dataset.prior
    lp = base._maximizing(np.concatenate([(prior[:, None] * u_hat).ravel(), [-1.0]]))
    nias = np.zeros((taken.size, base.num_vars))  # the epigraph scalar's column stays zero
    nias.put(at, (prior[:, None] * (u_hat.take(deviation, 1) - u_hat.take(taken, 1))).T)
    lp.add_leq(nias, 0.0)
    return lp


def _interval_start(f: NoiseFamily, g: int) -> LpSolution | None:
    """The optimal first program at grid interval g's midpoint, utility
    (u_g + u_{g+1}) / 2, kept on the family; None when that solve does not
    end optimal, and the query solves cold.  Interval g solves warm from
    interval g - 1's start, which is solved first when missing (interval 0,
    and an interval whose predecessor's start is None, solve cold), so each
    start depends on the family and g alone."""
    for h in range(len(f._starts), g + 1):
        u = _interpolated(f, h, 0.5)
        try:
            solved = solve_lp(_first_program(f, u), start=f._starts[-1] if h else None)
            solved = solved.require_optimal(f"interval {h}'s midpoint program")
        except NumericalFailure:
            solved = None
        f._starts.append(solved)
    return f._starts[g]


def _refine_toward_anchor(f: NoiseFamily, lp, first, g, w_hi) -> np.ndarray:
    """Within ``_OBJECTIVE_SLACK`` of the first optimum, take the strategy
    L1-closest to the interpolated in-sample one, z = target + up - down:
    deviation columns up in [0, 1 - target] and down in [0, target] cost -1,
    the first program's other columns follow at zero cost, and its rows and
    kept objective become [A_z | -A_z | A_rest] <= b - A_z target.  This
    moves even a unique optimum (2.0e-9 per entry, 2x2 identity utility).
    ``g`` and ``w_hi`` are the query's grid interval and upper weight."""
    target = (1.0 - w_hi) * f.dataset.choice(g) + w_hi * f.dataset.choice(g + 1)
    # A choice entry may exceed 1 by 1e-12; the deviation boxes need it in [0, 1].
    target = np.minimum(np.maximum(target, 0.0), 1.0).ravel()
    cells, (m, columns) = target.shape[0], lp.a.shape
    refined = LinearProgram(
        *f._deviation, np.concatenate([1.0 - target, target, lp.upper[cells:]])
    )
    # One array holds [A_z | -A_z | A_rest] over the first program's rows and
    # its negated objective: they land after the first cells columns, and
    # their A_z block is copied in front, then negated in place.  The rhs
    # product runs over that stacked A_z; split by row blocks, it could round
    # differently.
    rows = np.empty((m + 1, cells + columns))
    a_z, minus_a_z = rows[:, :cells], rows[:, cells : 2 * cells]
    rows[:m, cells:] = lp.a
    np.negative(lp.objective, out=rows[m, cells:])
    a_z[...] = minus_a_z
    np.negative(minus_a_z, out=minus_a_z)
    refined.add_leq(
        rows,
        np.concatenate([lp.b, [-(first.objective_value - _OBJECTIVE_SLACK)]]) - a_z @ target,
    )
    second = solve_lp(refined).require_optimal("prediction refinement")
    up, down = second.point[:cells], second.point[cells : 2 * cells]
    return target + up - down


def predict_at(
    f: NoiseFamily, eta: float, truth: np.ndarray | None = None
) -> PredictionOutcome:
    """The strategy predicted at noise level ``eta`` (module docstring),
    scored against the true choice matrix ``truth`` when given.

    The first program starts warm from its grid interval's midpoint optimum
    (:func:`_interval_start`).  Its optimum is often a face rather than a
    point (exactly at grid etas the whole piece-dominance region ties), so
    :func:`_refine_toward_anchor` picks the optimal strategy closest to the
    noise-interpolated in-sample one, which keeps grid queries pinned to the
    observed behavior.  The best-response rows make the strategy
    NIAS-consistent by construction; ``nias_consistent`` is the independent
    re-check of that on the returned strategy.
    """
    g, w_hi = _bracket(f, eta)
    u_hat = _interpolated(f, g, w_hi)
    lp = _first_program(f, u_hat)
    first = solve_lp(lp, start=_interval_start(f, g)).require_optimal("prediction program")
    point = _refine_toward_anchor(f, lp, first, g, w_hi)
    strategy = np.maximum(point, 0.0).reshape(u_hat.shape)
    strategy /= strategy.sum(axis=1, keepdims=True)
    # Certify the surrogate: every action the strategy takes must be a best
    # response to its posterior under the interpolated utility.
    predicted = _joint_posterior(f.dataset.prior, strategy[None])
    worst = _worst_nias(_nias(predicted, u_hat[None]))[0]
    per_class = kl = None
    if truth is not None:
        per_class, kl = score_prediction(strategy, truth, f.dataset.prior)
    return PredictionOutcome(
        eta=float(eta),
        interpolated_utility=u_hat,
        predicted_choice=strategy,
        nias_consistent=bool(worst <= _NIAS_CERT_TOL),
        per_class_error=per_class,
        kl_score=kl,
    )


def score_prediction(
    predicted: np.ndarray, truth: np.ndarray, prior
) -> tuple[np.ndarray, float]:
    """Per-class diagonal error and prior-weighted divergence.

    The error vector compares correct-classification probabilities class by
    class (defined only when actions and states coincide); the divergence is
    the prior-weighted relative entropy of the true rows against the
    predicted ones, with predicted entries floored away from zero inside the
    logarithm.
    """
    p_hat = np.asarray(predicted, dtype=float)
    p_true = np.asarray(truth, dtype=float)
    mu = np.asarray(prior, dtype=float)
    if p_hat.shape != p_true.shape:
        raise ShapeMismatch(f"predicted {p_hat.shape} vs true {p_true.shape}")
    if p_hat.shape[0] != p_hat.shape[1]:
        raise NonSquare("per-class accuracy needs as many actions as states")
    if mu.shape != (p_hat.shape[0],):
        raise ShapeMismatch("prior length must match the number of states")
    delta = np.abs(p_hat.diagonal() - p_true.diagonal())
    ratio = np.zeros_like(p_true)
    mask = p_true > 0
    observed = p_true[mask]
    ratio[mask] = observed * (np.log(observed) - np.log(np.maximum(p_hat[mask], 1e-12)))
    kl = float(mu @ ratio.sum(axis=1))
    return delta, max(kl, 0.0)


# ---------------------------------------------------------------------------
# Files


def save_family(path: str, f: NoiseFamily) -> None:
    payload = {
        "etas": f.etas.tolist(),
        "dataset": dataset_to_dict(f.dataset),
        "profile": profile_to_dict(f.dataset, f.fitted),
    }
    write_json(path, payload)


def load_family(path: str) -> NoiseFamily:
    """The family saved at ``path``.  An error in the file names it; the
    family is built after the read, so a profile it refuses gets the message
    ``cost`` prints for it, with no file name in front."""

    def parts(raw):
        return raw["etas"], validate_dataset(raw["dataset"]), _profile_from_dict(raw["profile"])

    etas, d, fitted = read_json(path, parts)
    return NoiseFamily(etas=etas, dataset=d, fitted=fitted)


def prediction_to_dict(
    outcome: PredictionOutcome, truth: np.ndarray | None = None, labels=None
) -> dict:
    """JSON payload for one query, including the per-class table rows."""
    out = {
        "eta": outcome.eta,
        "kl": outcome.kl_score,
        "nias_consistent": outcome.nias_consistent,
        "per_class": [],
    }
    diag = np.diag(outcome.predicted_choice)
    for x in range(outcome.predicted_choice.shape[0]):
        row = {
            "class": labels[x] if labels else str(x),
            "predicted_diag": float(diag[x]),
            "true_diag": float(truth[x, x]) if truth is not None else None,
            "delta": (
                float(outcome.per_class_error[x])
                if outcome.per_class_error is not None
                else None
            ),
        }
        out["per_class"].append(row)
    return out
