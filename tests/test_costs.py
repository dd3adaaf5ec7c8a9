import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inattention.brp import brp_max_margin, reconstruct_cost
from inattention.costs import PiecewiseAffineCost
from inattention.errors import ProfileMismatch
from inattention.sbrp import reconstruct_cost_compact, sbrp_max_margin
from inattention.synth import generate_feasible_dataset


def build_cost(rng, num_pieces=3, shape=(3, 3)):
    anchors = rng.uniform(0.05, 1.0, size=(num_pieces, *shape))
    anchors /= anchors.sum(axis=2, keepdims=True)
    gradients = rng.uniform(0.0, 0.4, size=(num_pieces, *shape))
    offsets = rng.uniform(0.05, 0.8, size=num_pieces)
    return PiecewiseAffineCost(offsets=offsets, anchors=anchors, gradients=gradients)


def test_shape_validation():
    one, empty = [np.eye(2)], np.zeros((0, 2, 2))
    with pytest.raises(ProfileMismatch):
        PiecewiseAffineCost(offsets=[0.1], anchors=one, gradients=np.ones((1, 2, 3)))
    with pytest.raises(ProfileMismatch):
        PiecewiseAffineCost(offsets=[0.1, 0.2], anchors=one, gradients=one)
    with pytest.raises(ProfileMismatch):
        PiecewiseAffineCost(offsets=[], anchors=empty, gradients=empty)
    cost = build_cost(np.random.default_rng(0))
    with pytest.raises(ProfileMismatch):
        cost.value(np.eye(2))


@pytest.mark.parametrize("field", ["offsets", "anchors", "gradients"])
def test_non_finite_pieces_rejected(field):
    pieces = {"offsets": [0.1], "anchors": [np.eye(2)], "gradients": [np.eye(2)]}
    pieces[field] = np.full(np.shape(pieces[field]), np.nan)
    with pytest.raises(ProfileMismatch, match=f"piece {field} have non-finite"):
        PiecewiseAffineCost(**pieces)


def test_envelope_dominates_every_piece():
    rng = np.random.default_rng(1)
    cost = build_cost(rng)
    p = rng.uniform(0.05, 1.0, size=(3, 3))
    p /= p.sum(axis=1, keepdims=True)
    values = cost.piece_values(p)
    assert cost.value(p) == values.max()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), theta=st.floats(0.0, 1.0))
def test_convex_along_segments(seed, theta):
    rng = np.random.default_rng(seed)
    cost = build_cost(rng)
    p = rng.uniform(0.05, 1.0, size=(3, 3))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.uniform(0.05, 1.0, size=(3, 3))
    q /= q.sum(axis=1, keepdims=True)
    blend = theta * p + (1 - theta) * q
    assert cost.value(blend) <= theta * cost.value(p) + (1 - theta) * cost.value(q) + 1e-10


def per_piece_values(d, utilities, costs, scales, p):
    """The envelope one piece at a time: offset c_k plus the best-response
    score of ``p`` against gradient prior * u_k / s_k, minus that gradient's
    score at agent k's strategy."""
    out = np.empty(len(costs))
    for k, (u, c, s) in enumerate(zip(utilities, costs, scales)):
        gradient = d.prior[:, None] * u / float(s)
        anchored = float((gradient * d.choice(k)).sum())
        moved = float((p.T @ gradient).max(axis=1).sum())
        out[k] = float(c) + moved - anchored
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_pieces_match_the_per_piece_loop_bit_for_bit(seed):
    d = generate_feasible_dataset(4, 3, 3, margin=0.01, seed=seed).dataset
    profile, _ = brp_max_margin(d)
    solution, _ = sbrp_max_margin(d)
    cases = [
        (reconstruct_cost(d, profile), profile.utilities, profile.costs, np.ones(4)),
        (
            reconstruct_cost_compact(d, solution),
            [solution.utility] * 4,
            solution.costs,
            solution.sensitivities,
        ),
    ]
    rng = np.random.default_rng(seed)
    strategies = [d.choice(k) for k in range(d.num_agents)]
    for _ in range(10):
        p = rng.uniform(0.0, 1.0, size=(3, 3))
        strategies.append(p / p.sum(axis=1, keepdims=True))
    for cost, utilities, costs, scales in cases:
        for p in strategies:
            want = per_piece_values(d, utilities, costs, scales, p)
            assert cost.piece_values(p).tobytes() == want.tobytes()


def test_anchors_are_the_dataset_choice_stack():
    d = generate_feasible_dataset(4, 3, 3, margin=0.01, seed=0).dataset
    profile, _ = brp_max_margin(d)
    solution, _ = sbrp_max_margin(d)
    for cost in (reconstruct_cost(d, profile), reconstruct_cost_compact(d, solution)):
        assert cost.anchors.shape == d.choices.shape
        assert cost.anchors.tobytes() == d.choices.tobytes()
