"""Reconstructed information-acquisition costs.

A fitted model anchors one affine piece at each in-sample strategy; the cost
of an arbitrary strategy is the upper envelope of the pieces, which is convex
by construction and returns exactly the fitted cost scalar at each anchor.

A piece scores a strategy with the best response to each observation: column
a of the strategy is scored against the best gradient column, so the piece is
still piecewise affine, and each agent's own strategy is optimal net of cost
against *every* alternative strategy, not just convex combinations of the
anchors.

This is the rule of :meth:`PiecewiseAffineCost.value`.  The prediction
program (``predict.predict_at``) keeps each piece linear instead, scoring
column a against gradient column a, the labelled action.  That envelope is
never above this one and meets it at the anchors of a fit whose labelled
actions are best responses, but between anchors it can be lower, so a
predicted strategy is chosen against a cost below the one ``value`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEGENERATE_MARGIN
from .dataset import _frozen_array
from .errors import ProfileMismatch

__all__ = ["PiecewiseAffineCost"]


@dataclass(frozen=True, eq=False)
class PiecewiseAffineCost:
    """Max-of-affine cost anchored at the in-sample strategies: piece k has
    offset ``offsets[k]``, anchor ``anchors[k]`` and gradient ``gradients[k]``,
    stacked as (K,), (K, X, A) and (K, X, A)."""

    offsets: np.ndarray
    anchors: np.ndarray
    gradients: np.ndarray

    def __post_init__(self):
        offsets, anchors, gradients = (
            _frozen_array(arr) for arr in (self.offsets, self.anchors, self.gradients)
        )
        if offsets.ndim != 1 or not offsets.shape[0]:
            raise ProfileMismatch("cost needs a vector of at least one piece offset")
        stacked = offsets.shape + anchors.shape[1:]
        if anchors.ndim != 3 or not anchors.shape == gradients.shape == stacked:
            raise ProfileMismatch(
                f"{offsets.shape[0]} piece offsets, anchors {anchors.shape} "
                f"and gradients {gradients.shape} disagree"
            )
        for name, arr in (("offsets", offsets), ("anchors", anchors), ("gradients", gradients)):
            if not np.all(np.isfinite(arr)):
                raise ProfileMismatch(f"piece {name} have non-finite entries")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "gradients", gradients)

    @property
    def strategy_shape(self) -> tuple[int, int]:
        return self.anchors.shape[1:]

    def _check(self, strategy: np.ndarray) -> np.ndarray:
        p = np.asarray(strategy, dtype=float)
        if p.shape != self.strategy_shape:
            raise ProfileMismatch(
                f"strategy shape {p.shape}, cost expects {self.strategy_shape}"
            )
        return p

    def piece_values(self, strategy: np.ndarray) -> np.ndarray:
        """Value of every piece at ``strategy``."""
        p = self._check(strategy)
        products = (self.gradients * self.anchors).reshape(len(self.offsets), -1)
        anchored = products.sum(axis=1)
        # (K, A, A) scores, rows = observation a; the best response per row.
        moved = np.matmul(p.T, self.gradients).max(axis=2).sum(axis=1)
        return self.offsets + moved - anchored

    def value(self, strategy: np.ndarray) -> float:
        """Upper envelope over the pieces; convex in the strategy."""
        return float(self.piece_values(strategy).max())


def _anchored_cost(d, utilities, costs, margin, *, scales=None):
    """One piece per agent of dataset ``d``, anchored at its strategy, with
    offset ``costs[k]`` and gradient prior * ``utilities[k]`` / ``scales[k]``
    (the s-UMRI model scales by inverse sensitivity; default one).  The one
    certificate rule: no cost when the model's strict ``margin`` < -DEGENERATE_MARGIN."""
    if margin < -DEGENERATE_MARGIN:
        raise ProfileMismatch(
            "profile violates the feasibility residuals; its cost is not defined"
        )
    scales = np.ones(len(costs)) if scales is None else np.asarray(scales, dtype=float)
    gradients = d.prior[None, :, None] * utilities
    return PiecewiseAffineCost(
        offsets=costs,
        anchors=d.choices,
        gradients=gradients / scales[:, None, None],
    )
