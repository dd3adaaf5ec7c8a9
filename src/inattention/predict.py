"""Prediction across a noise-indexed family of agents.

The family's agents are classifiers trained at increasing noise variances.
Fitting recovers per-agent utilities and costs plus the anchored cost
envelope; a query at a new noise level linearly interpolates the two
surrounding utilities and re-solves the strategy choice problem against the
cost envelope, a single LP once the value term scores each observation with
its labelled action.  That surrogate is exact when every labelled action is
a best response to its posterior; the LP holds the best-response rows that
make it so, and a certificate re-checks it after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brp import (
    UtilityProfile,
    _profile_from_dict,
    _worst_nias,
    brp_max_margin,
    nias_residuals,
    profile_to_dict,
)
from .costs import PiecewiseAffineCost, _anchored_cost
from .dataset import (
    AgentChoiceMatrix,
    DecisionDataset,
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
)
from .lp import LinearProgram, LpStatus, solve_lp

__all__ = [
    "NoiseFamily",
    "PredictionOutcome",
    "fit_family",
    "check_eta",
    "interpolate_utility",
    "predict_choice",
    "predict_at",
    "score_prediction",
    "save_family",
    "load_family",
    "prediction_to_dict",
]

_NIAS_CERT_TOL = 1e-9
_OBJECTIVE_SLACK = 1e-9


@dataclass(frozen=True)
class NoiseFamily:
    """Fitted model for agents indexed by an increasing noise grid."""

    etas: np.ndarray
    dataset: DecisionDataset
    fitted: UtilityProfile
    cost: PiecewiseAffineCost

    def __post_init__(self):
        etas = _noise_grid(self.etas, self.dataset.num_agents)
        etas.setflags(write=False)
        object.__setattr__(self, "etas", etas)

    @property
    def num_agents(self) -> int:
        return self.dataset.num_agents


@dataclass(frozen=True)
class PredictionOutcome:
    """One query: interpolated utility, predicted strategy, and scores."""

    eta: float
    interpolated_utility: np.ndarray
    predicted_choice: np.ndarray
    nias_consistent: bool
    per_class_error: np.ndarray | None = None
    kl_score: float | None = None


def fit_family(d: DecisionDataset, etas) -> NoiseFamily:
    """Fit the family: max-margin utilities plus the anchored cost envelope.

    The envelope pieces are the per-agent linearized ones (offset at the
    fitted cost, gradient prior-weighted fitted utility), which is what the
    prediction LP optimizes against.
    """
    etas = _noise_grid(etas, d.num_agents)
    profile, report = brp_max_margin(d)
    if report.degenerate:
        raise DegenerateDataset(
            "max-margin fit is numerically zero; predictions are meaningless"
        )
    return _family(etas, d, profile)


def _noise_grid(etas, num_agents: int) -> np.ndarray:
    """``etas`` as floats; raises DimensionMismatch unless they are one
    finite noise level per agent, strictly increasing."""
    etas = np.asarray(etas, dtype=float)
    if etas.shape != (num_agents,):
        raise DimensionMismatch(
            f"{etas.shape[0] if etas.ndim == 1 else 'malformed'} noise levels "
            f"for {num_agents} agents"
        )
    if not np.all(np.isfinite(etas)):
        raise DimensionMismatch("noise levels must be finite")
    if np.any(np.diff(etas) <= 0):
        raise DimensionMismatch("noise levels must be strictly increasing")
    return etas


def _family(etas, d: DecisionDataset, profile: UtilityProfile) -> NoiseFamily:
    cost = _anchored_cost(d, profile.utilities, profile.costs, linearized=True)
    return NoiseFamily(etas=etas, dataset=d, fitted=profile, cost=cost)


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
    g = min(int(np.searchsorted(etas, eta, side="right") - 1), etas.shape[0] - 2)
    return g, (eta - etas[g]) / (etas[g + 1] - etas[g])


def interpolate_utility(f: NoiseFamily, eta: float) -> np.ndarray:
    """Linear interpolation of the fitted utilities at ``eta``.

    Grid points reproduce their fitted utility exactly; interior points mix
    the two bracketing utilities with weights proportional to distance over
    the local spacing (so non-uniform grids work unchanged).
    """
    g, w_hi = _bracket(f, eta)
    if eta == f.etas[g]:
        return f.fitted.utilities[g].copy()
    if eta == f.etas[g + 1]:
        return f.fitted.utilities[g + 1].copy()
    return (1.0 - w_hi) * f.fitted.utilities[g] + w_hi * f.fitted.utilities[g + 1]


def predict_choice(
    f: NoiseFamily, interpolated: np.ndarray, *, eta: float | None = None
) -> tuple[np.ndarray, bool]:
    """Strategy maximizing interpolated value minus the fitted cost envelope.

    Variables are the choice probabilities plus the envelope's epigraph
    scalar.  Best-response rows (linear in the strategy at the fixed
    ``interpolated`` utility) keep every action the strategy takes a best
    response to its posterior, so the strategy is NIAS-consistent by
    construction and the labelled-action value surrogate is exact.  The
    optimum is often a face rather than a point (exactly at grid etas the
    whole piece-dominance region ties), so when ``eta`` is given, a second
    stage picks the optimal strategy closest (entrywise L1) to the
    noise-interpolated in-sample strategy, within the same rows, which keeps
    grid queries pinned to the observed behavior.  The returned flag is the
    independent re-check of NIAS consistency on the returned strategy.
    """
    u_hat = np.asarray(interpolated, dtype=float)
    X, A = f.dataset.num_states, f.dataset.num_actions
    if u_hat.shape != (X, A):
        raise DimensionMismatch(f"interpolated utility must be ({X}, {A})")
    if not np.all(np.isfinite(u_hat)) or np.any(u_hat < 0):
        raise DimensionMismatch("interpolated utility must be finite and nonnegative")

    gradients = np.array([piece.gradient.ravel() for piece in f.cost.pieces])
    offsets = [
        piece.offset - float((piece.gradient * piece.anchor).sum())
        for piece in f.cost.pieces
    ]
    bound = max(
        abs(o) + float(np.abs(g).sum()) for o, g in zip(offsets, gradients)
    ) + 1.0

    lp = LinearProgram(
        np.append((f.dataset.prior[:, None] * u_hat).ravel(), -1.0),
        np.append(np.zeros(X * A), -bound),
        np.append(np.ones(X * A), bound),
    )
    # One simplex row per state, then one epigraph row per cost piece, then
    # one best-response row per action a and deviation b != a:
    # sum_x mu(x) P(x, a) (u(x, b) - u(x, a)) <= 0.
    lp.add_eq(np.hstack([np.repeat(np.eye(X), A, axis=1), np.zeros((X, 1))]), 1.0)
    lp.add_leq(np.hstack([gradients, -np.ones((len(offsets), 1))]), -np.array(offsets))
    taken, deviation = np.nonzero(~np.eye(A, dtype=bool))
    pairs = taken.size
    nias = np.zeros((pairs, X, A))
    nias[np.arange(pairs), :, taken] = (
        f.dataset.prior[:, None] * (u_hat[:, deviation] - u_hat[:, taken])
    ).T
    lp.add_leq(np.hstack([nias.reshape(pairs, X * A), np.zeros((pairs, 1))]), 0.0)
    first = solve_lp(lp)
    if first.status is not LpStatus.OPTIMAL:
        raise NumericalFailure(f"prediction program reported {first.status.value}")

    point = first.point
    if eta is not None:
        point = _refine_toward_anchor(f, lp, first, eta)
    strategy = point[: X * A].reshape(X, A)
    strategy = np.clip(strategy, 0.0, None)
    strategy /= strategy.sum(axis=1, keepdims=True)
    # Certify the surrogate: every action the strategy takes must be a best
    # response to its posterior under the interpolated utility.
    predicted = DecisionDataset(
        X, A, f.dataset.prior, (AgentChoiceMatrix("predicted", strategy),)
    )
    worst = _worst_nias(nias_residuals(predicted, [u_hat]))[0]
    return strategy, bool(worst <= _NIAS_CERT_TOL)


def _refine_toward_anchor(f: NoiseFamily, lp, first, eta: float) -> np.ndarray:
    """Among optimal strategies, take the L1-closest to the interpolated
    in-sample strategy; inert when the first-stage optimum is unique."""
    g, w_hi = _bracket(f, eta)
    target = ((1.0 - w_hi) * f.dataset.choice(g) + w_hi * f.dataset.choice(g + 1)).ravel()

    base = lp.num_vars
    cells = target.shape[0]
    refined = LinearProgram(
        np.append(np.zeros(base), -np.ones(cells)),
        np.append(lp.lower, np.zeros(cells)),
        np.append(lp.upper, np.ones(cells)),
    )
    # The first program's rows and its objective kept within the slack ...
    kept = np.vstack([lp.a, -lp.objective])
    refined.add_leq(
        np.hstack([kept, np.zeros((kept.shape[0], cells))]),
        np.append(lp.b, -(first.objective_value - _OBJECTIVE_SLACK)),
    )
    # ... then |z_i - target_i| <= t_i, as two adjacent rows per cell.
    cell, gap = np.eye(cells, base), -np.eye(cells)
    pairs = np.stack([np.hstack([cell, gap]), np.hstack([-cell, gap])], axis=1)
    bounds = np.stack([target, -target], axis=1)
    refined.add_leq(pairs.reshape(2 * cells, -1), bounds.ravel())
    second = solve_lp(refined)
    if second.status is not LpStatus.OPTIMAL:
        raise NumericalFailure("prediction refinement failed to solve")
    return second.point[:base]


def predict_at(
    f: NoiseFamily, eta: float, truth: np.ndarray | None = None
) -> PredictionOutcome:
    """Full query pipeline: interpolate, optimize, optionally score."""
    u_hat = interpolate_utility(f, eta)
    strategy, consistent = predict_choice(f, u_hat, eta=eta)
    per_class = None
    kl = None
    if truth is not None:
        per_class, kl = score_prediction(strategy, truth, f.dataset.prior)
    return PredictionOutcome(
        eta=float(eta),
        interpolated_utility=u_hat,
        predicted_choice=strategy,
        nias_consistent=consistent,
        per_class_error=per_class,
        kl_score=kl,
    )


def score_prediction(
    predicted: np.ndarray, truth, prior
) -> tuple[np.ndarray, float]:
    """Per-class diagonal error and prior-weighted divergence.

    The error vector compares correct-classification probabilities class by
    class (defined only when actions and states coincide); the divergence is
    the prior-weighted relative entropy of the true rows against the
    predicted ones, with predicted entries floored away from zero inside the
    logarithm.
    """
    p_hat = np.asarray(predicted, dtype=float)
    p_true = np.asarray(getattr(truth, "choice_prob", truth), dtype=float)
    mu = np.asarray(prior, dtype=float)
    if p_hat.shape != p_true.shape:
        raise ShapeMismatch(f"predicted {p_hat.shape} vs true {p_true.shape}")
    if p_hat.shape[0] != p_hat.shape[1]:
        raise NonSquare("per-class accuracy needs as many actions as states")
    if mu.shape != (p_hat.shape[0],):
        raise ShapeMismatch("prior length must match the number of states")
    delta = np.abs(np.diag(p_hat) - np.diag(p_true))
    ratio = np.zeros_like(p_true)
    mask = p_true > 0
    ratio[mask] = p_true[mask] * (
        np.log(p_true[mask]) - np.log(np.maximum(p_hat[mask], 1e-12))
    )
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
    def build(raw):
        d = validate_dataset(raw["dataset"])
        return _family(
            np.asarray(raw["etas"], dtype=float), d, _profile_from_dict(raw["profile"])
        )

    return read_json(path, build)


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
