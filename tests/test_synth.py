import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inattention.brp import brp_max_margin, nias_residuals, niac_residuals, strict_margin
from inattention.constants import DEGENERATE_MARGIN, SYNTH_COST_FLOOR
from inattention.dataset import expected_value
from inattention.errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NegativeCycle,
)
from inattention.synth import (
    _sample_base_utility,
    assign_costs,
    generate_boundary_dataset,
    generate_feasible_dataset,
    generate_strategies,
    grid_oracle,
    load_ground_truth,
    save_ground_truth,
)

from conftest import D2_CERTIFICATE, dataset_from_matrices


class TestStrategyConstruction:
    def test_sampled_strategy_best_responds(self):
        rng = np.random.default_rng(42)
        mu = np.full(3, 1 / 3)
        u = np.eye(3) * 0.8 + 0.1
        strategy = generate_strategies(3, 3, mu, u, rng)
        assert np.allclose(strategy.sum(axis=1), 1.0)
        d = dataset_from_matrices(mu, [strategy, strategy])
        res = nias_residuals(d, [u, u])
        assert np.nanmax(res) <= 1e-12

    def test_deterministic_given_seed(self):
        mu = np.full(3, 1 / 3)
        u = np.eye(3) * 0.8 + 0.1
        a = generate_strategies(3, 3, mu, u, np.random.default_rng(7))
        b = generate_strategies(3, 3, mu, u, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestAssignCosts:
    def test_hand_certificate_interval(self, d2):
        costs = assign_costs(d2, D2_CERTIFICATE["utilities"], 0.04)
        diff = float(costs[0] - costs[1])
        assert 0.10 - 1e-9 <= diff <= 0.26 + 1e-9
        niac = niac_residuals(d2, D2_CERTIFICATE["utilities"], costs)
        off = ~np.eye(2, dtype=bool)
        assert np.all(niac[off] <= -0.04 + 1e-9)

    def test_identical_strategies_distinct_utilities_cycle(self):
        p = [[0.8, 0.2], [0.3, 0.7]]
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        us = [np.eye(2), np.array([[0.2, 0.9], [0.9, 0.2]])]
        with pytest.raises(NegativeCycle):
            assign_costs(d, us, 0.01)

    def test_single_agent_gets_floor_cost(self):
        from inattention.dataset import DecisionDataset

        d = DecisionDataset(prior=np.array([0.5, 0.5]), choices=np.eye(2)[None], agent_ids=["solo"])
        costs = assign_costs(d, [np.eye(2)], 0.04)
        assert costs.tolist() == [0.05]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), states=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_base_utility_entries_stay_in_the_drawn_range(data, states, seed):
    # Both generators draw at A <= X under a uniform prior; every entry then
    # stays in [0.02, 0.95], so no draw needs rejecting.
    actions = data.draw(st.integers(1, states))
    prior = np.full(states, 1.0 / states)
    u = _sample_base_utility(np.random.default_rng(seed), states, actions, prior)
    assert u.shape == (states, actions)
    assert 0.02 <= u.min() and u.max() <= 0.95


class TestFeasibleGenerator:
    def test_construction_margin_verified(self):
        gt = generate_feasible_dataset(5, 4, 4, 0.01, seed=3)
        assert gt.construction_margin == 0.01
        assert (
            strict_margin(gt.dataset, gt.utilities, gt.costs) >= 0.01 - 1e-9
        )

    def test_fit_beats_construction_margin(self):
        gt = generate_feasible_dataset(3, 4, 4, 0.02, seed=9)
        prof, _ = brp_max_margin(gt.dataset)
        assert prof.margin >= 0.02 - 1e-9

    def test_zero_margin_always_succeeds(self):
        # At margin 0 every agent gets the root strategy, so the first draw
        # returns the scaled base utilities with floor costs.
        for K in (1, 2, 3, 5):
            gt = generate_feasible_dataset(K, 3, 3, 0.0, seed=1)
            assert gt.construction_margin == 0.0
            root = gt.dataset.choice(0)
            assert all(np.array_equal(gt.dataset.choice(k), root) for k in range(K))
            scales = np.linspace(1.0, 0.25, K) if K > 1 else np.ones(1)
            base = gt.utilities[0]
            assert all(
                np.array_equal(u, s * base) for u, s in zip(gt.utilities, scales)
            )
            assert np.all(gt.costs == SYNTH_COST_FLOOR)

    def test_bit_for_bit_determinism(self):
        a = generate_feasible_dataset(3, 3, 3, 0.01, seed=77)
        b = generate_feasible_dataset(3, 3, 3, 0.01, seed=77)
        assert a.dataset.approx_equal(b.dataset, tol=0.0)
        assert all(np.array_equal(x, y) for x, y in zip(a.utilities, b.utilities))
        assert np.array_equal(a.costs, b.costs)


@pytest.mark.parametrize("generate", [
    lambda *shape, seed: generate_feasible_dataset(*shape, 0.01, seed=seed),
    lambda *shape, seed: generate_boundary_dataset(*shape, seed=seed),
], ids=["feasible", "boundary"])
class TestGeneratorRequests:
    def test_a_lone_agent_keeps_the_construction_margin(self, generate):
        gt = generate(1, 3, 3, seed=1)
        assert gt.dataset.num_agents == 1
        margin = strict_margin(gt.dataset, gt.utilities, gt.costs)
        assert margin >= gt.construction_margin - 1e-9

    @pytest.mark.parametrize(
        "shape, seed",
        [
            ((2, 0, 3), 1), ((2, 3, 0), 1), ((2, 3, 3), -5),
            # More actions than states: they cannot all be best responses.
            ((2, 2, 4), 0), ((3, 2, 4), 1), ((2, 1, 3), 0), ((2, 6, 7), 0),
            ((2, 7, 8), 0), ((3, 10, 11), 1),
        ],
    )
    def test_a_shape_or_seed_it_cannot_draw_is_rejected(self, generate, shape, seed):
        with pytest.raises(DimensionMismatch):
            generate(*shape, seed=seed)


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_a_non_finite_margin_is_rejected(margin):
    with pytest.raises(DimensionMismatch):
        generate_feasible_dataset(2, 3, 3, margin, seed=1)


@pytest.mark.parametrize("states", [1, 3])
def test_one_action_is_rejected_by_the_feasible_generator_only(states):
    # One action has no information value, so no feasible draw passes; the
    # boundary generator needs none and still draws the shape.
    with pytest.raises(DimensionMismatch):
        generate_feasible_dataset(2, states, 1, 0.0, seed=0)
    assert generate_boundary_dataset(2, states, 1, seed=0).dataset.num_actions == 1


class TestBoundaryGenerator:
    def test_hand_garbling_example(self):
        # Identity strategy garbled through a 0.8/0.2 mixing channel under an
        # identity-like utility: the values differ by exactly the cost gap.
        top = np.eye(2)
        channel = np.array([[0.8, 0.2], [0.2, 0.8]])
        d = dataset_from_matrices([0.5, 0.5], [top @ channel, top])
        u = np.eye(2)
        values = [expected_value(d, k, u) for k in range(2)]
        assert values == [pytest.approx(0.8), pytest.approx(1.0)]
        costs = values[1] - values[0]
        assert costs == pytest.approx(0.2)

    def test_boundary_residuals_and_ordering(self):
        gt = generate_boundary_dataset(4, 3, 3, seed=7)
        achieved = strict_margin(gt.dataset, gt.utilities, gt.costs)
        assert abs(achieved) <= 1e-9
        values = [
            expected_value(gt.dataset, k, gt.utilities[0])
            for k in range(gt.dataset.num_agents)
        ]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        niac = niac_residuals(gt.dataset, list(gt.utilities), gt.costs)
        assert np.allclose(niac, 0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_certificate_is_not_a_umri_boundary(self, seed):
        # The certificate has no slack, yet per-agent utilities find some.
        gt = generate_boundary_dataset(5, 4, 4, seed=seed)
        assert abs(strict_margin(gt.dataset, gt.utilities, gt.costs)) <= 1e-9
        _, report = brp_max_margin(gt.dataset)
        assert report.epsilon_star > DEGENERATE_MARGIN


class TestGridOracle:
    def test_d2_with_witness_grid(self, d2):
        result = grid_oracle(d2, grid_levels=(0.2, 0.4, 0.6, 1.0))
        assert result.feasible
        assert result.best_margin >= 0.04 - 1e-9
        assert result.witness is not None
        us = [np.asarray(u) for u in result.witness["utilities"]]
        costs = np.asarray(result.witness["costs"])
        assert strict_margin(d2, us, costs) >= result.best_margin - 1e-9

    def test_uniform_dataset_is_boundary(self):
        p = np.full((2, 2), 0.5)
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        result = grid_oracle(d)
        assert result.feasible
        assert result.best_margin == pytest.approx(0.0, abs=1e-12)

    def test_identical_strategies_are_boundary(self, identical_pair):
        result = grid_oracle(identical_pair)
        assert result.best_margin == pytest.approx(0.0, abs=1e-12)

    def test_oracle_never_beats_the_full_search(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            prior = rng.dirichlet(np.ones(2))
            mats = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
            d = dataset_from_matrices(prior, mats)
            result = grid_oracle(d)
            prof, _ = brp_max_margin(d)
            assert prof.margin >= result.best_margin - 1e-9

    def test_size_guard(self):
        p = np.full((3, 3), 1 / 3)
        d = dataset_from_matrices([1 / 3] * 3, [p, p, p])
        with pytest.raises(InstanceTooLarge):
            grid_oracle(d)  # 3 * 3 * 3 = 27 > 20 cells

    def test_only_two_agents(self):
        # Three 2x2 agents stay under the cell cap; the agent count rejects them.
        rng = np.random.default_rng(1)
        mats = [rng.dirichlet(np.ones(2), size=2) for _ in range(3)]
        d = dataset_from_matrices([0.5, 0.5], mats)
        with pytest.raises(InstanceTooLarge):
            grid_oracle(d, grid_levels=(0.5, 1.0))


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        gt = generate_feasible_dataset(3, 2, 2, 0.01, seed=21)
        path = tmp_path / "gt.json"
        save_ground_truth(gt, str(path))
        again = load_ground_truth(str(path))
        assert again.seed == 21
        assert again.construction_margin == 0.01
        assert again.dataset.approx_equal(gt.dataset)
        raw = json.loads(path.read_text())
        assert set(raw) == {
            "dataset",
            "utilities",
            "costs",
            "construction_margin",
            "seed",
        }
