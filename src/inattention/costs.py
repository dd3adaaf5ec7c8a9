"""Reconstructed information-acquisition costs.

A fitted model anchors one affine piece at each in-sample strategy; the cost
of an arbitrary strategy is the upper envelope of the pieces, which is convex
by construction and returns exactly the fitted cost scalar at each anchor.

Two envelope rules are supported.  The ``linearized`` rule scores a candidate
strategy with the labelled action of each observation (piece value is affine
in the strategy); it is what the prediction step optimizes, since it keeps
that step a single LP.  The default rule re-optimizes the action for each
observation before scoring (the per-action best response), which is still
piecewise affine but additionally makes each agent's own strategy optimal
net of cost against *every* alternative strategy, not just convex
combinations of the anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProfileMismatch

__all__ = ["CostPiece", "PiecewiseAffineCost"]


@dataclass(frozen=True)
class CostPiece:
    """One anchored affine piece: offset + <gradient, p - anchor>."""

    offset: float
    anchor: np.ndarray
    gradient: np.ndarray

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        gradient = np.asarray(self.gradient, dtype=float)
        if anchor.shape != gradient.shape or anchor.ndim != 2:
            raise ProfileMismatch(
                f"piece anchor {anchor.shape} and gradient {gradient.shape} disagree"
            )
        for name, arr in (("anchor", anchor), ("gradient", gradient)):
            if not np.all(np.isfinite(arr)):
                raise ProfileMismatch(f"piece {name} has non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "gradient", gradient)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class PiecewiseAffineCost:
    """Max-of-affine cost anchored at the in-sample strategies."""

    pieces: tuple[CostPiece, ...]
    linearized: bool = False

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ProfileMismatch("cost needs at least one piece")
        shape = pieces[0].anchor.shape
        if any(p.anchor.shape != shape for p in pieces):
            raise ProfileMismatch("cost pieces disagree on strategy shape")
        object.__setattr__(self, "pieces", pieces)

    @property
    def strategy_shape(self) -> tuple[int, int]:
        return self.pieces[0].anchor.shape

    def _check(self, strategy: np.ndarray) -> np.ndarray:
        p = np.asarray(strategy, dtype=float)
        if p.shape != self.strategy_shape:
            raise ProfileMismatch(
                f"strategy shape {p.shape}, cost expects {self.strategy_shape}"
            )
        return p

    def piece_values(self, strategy: np.ndarray) -> np.ndarray:
        """Value of every piece at ``strategy`` under the cost's rule."""
        p = self._check(strategy)
        out = np.empty(len(self.pieces))
        for i, piece in enumerate(self.pieces):
            anchored = float((piece.gradient * piece.anchor).sum())
            if self.linearized:
                moved = float((piece.gradient * p).sum())
            else:
                # Re-optimize the action per observation: column a of the
                # strategy is scored against the best gradient column.
                scores = p.T @ piece.gradient  # (A, A): rows = observation a
                moved = float(scores.max(axis=1).sum())
            out[i] = piece.offset + moved - anchored
        return out

    def value(self, strategy: np.ndarray) -> float:
        """Upper envelope over the pieces; convex in the strategy."""
        return float(self.piece_values(strategy).max())


def _anchored_cost(d, utilities, costs, *, scales=None, linearized=False):
    """One piece per agent of dataset ``d``, anchored at its strategy, with
    offset ``costs[k]`` and gradient prior * ``utilities[k]`` / ``scales[k]``
    (the s-UMRI model scales by inverse sensitivity; default one)."""
    scales = np.ones(len(costs)) if scales is None else scales
    pieces = tuple(
        CostPiece(float(c), d.choice(k), d.prior[:, None] * utilities[k] / float(s))
        for k, (c, s) in enumerate(zip(costs, scales))
    )
    return PiecewiseAffineCost(pieces=pieces, linearized=linearized)
