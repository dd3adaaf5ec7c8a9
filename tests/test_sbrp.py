from dataclasses import replace

import numpy as np
import pytest

from inattention import cli, sbrp
from inattention.brp import (
    UtilityProfile,
    _margin_of,
    brp_max_margin,
    niac_residuals,
    reconstruct_cost,
)
from inattention.dataset import read_json, write_json
from inattention.errors import (
    DegenerateDataset,
    DimensionMismatch,
    NumericalFailure,
    ProfileMismatch,
)
from inattention.sbrp import (
    SharedUtilitySolution,
    _anchor_stage,
    reconstruct_cost_compact,
    sbrp_max_margin,
    sbrp_residuals,
    sbrp_sparsest,
    solution_to_dict,
)

from conftest import random_dataset


def make_solution(u, lam, c, margin=0.0):
    return SharedUtilitySolution(
        utility=np.asarray(u, dtype=float),
        sensitivities=np.asarray(lam, dtype=float),
        costs=np.asarray(c, dtype=float),
        margin=margin,
    )


def anchor_fit(d):
    """The alternating fit's first stage: sensitivities pinned at one."""
    utility, costs = _anchor_stage(d)
    unit = make_solution(utility, np.ones(d.num_agents), costs)
    return make_solution(
        utility, unit.sensitivities, costs, _margin_of(*sbrp_residuals(d, unit))
    )


class TestResiduals:
    def test_constant_utility_equal_costs_all_zero(self, d2):
        sol = make_solution(np.full((2, 2), 0.4), [1.0, 1.0], [0.3, 0.3])
        nias, coupling = sbrp_residuals(d2, sol)
        assert np.allclose(nias, 0.0)
        assert np.allclose(coupling, 0.0)

    def test_hand_coupling_value(self, d2):
        sol = make_solution(np.eye(2), [1.0, 1.0], [0.5, 0.2])
        _, coupling = sbrp_residuals(d2, sol)
        #

        # Realized values 0.9 and 0.6; swapping the blurry agent's strategy
        # onto the sharp agent's books nets (0.6 - 0.9) + (0.5 - 0.2) = 0.
        assert coupling[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_sensitivities_match_private_residuals(self, d2):
        # With unit sensitivities and best responses holding, the coupling
        # matrix equals the private-utility swap residuals with a shared
        # matrix.
        u = np.eye(2)
        sol = make_solution(u, [1.0, 1.0], [0.4, 0.3])
        nias, coupling = sbrp_residuals(d2, sol)
        assert np.nanmax(nias) <= 1e-12
        private = niac_residuals(d2, [u, u], sol.costs)
        assert np.allclose(coupling, private, atol=1e-12)

    def test_diagonal_is_zero(self, d2):
        sol = make_solution(np.eye(2), [2.0, 0.5], [0.9, 0.1])
        _, coupling = sbrp_residuals(d2, sol)
        assert np.all(np.diag(coupling) == 0.0)

    def test_dimension_checks(self, d2):
        with pytest.raises(DimensionMismatch):
            sbrp_residuals(d2, make_solution(np.eye(3), [1, 1], [0.1, 0.1]))
        with pytest.raises(DimensionMismatch):
            sbrp_residuals(d2, make_solution(np.eye(2), [1], [0.1]))


class TestSolutionChecks:
    def test_a_non_finite_utility_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_solution([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.1, 0.1])

    def test_sensitivities_and_costs_of_different_shapes_are_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_solution(np.eye(2), [1.0, 1.0], [0.1])

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_a_nonpositive_sensitivity_is_rejected(self, lam):
        with pytest.raises(DimensionMismatch):
            make_solution(np.eye(2), [1.0, lam], [0.1, 0.1])


class TestMaxMargin:
    def test_d2_lifts_off(self, d2):
        sol, report = sbrp_max_margin(d2)
        assert sol.margin > 1e-7
        assert sol.scheme == "alternating"
        assert report.robustness == pytest.approx(sol.margin / sol.squared_norm())

    def test_margin_history_nondecreasing(self, d2):
        sol, _ = sbrp_max_margin(d2)
        hist = np.array(sol.margin_history)
        assert np.all(np.diff(hist) >= -1e-9)

    def test_identical_strategies_stay_degenerate(self, identical_pair):
        sol, report = sbrp_max_margin(identical_pair)
        assert sol.margin <= 1e-7
        assert report.degenerate

    def test_uniform_dataset_zero_robustness(self, uniform_dataset):
        _, report = sbrp_max_margin(uniform_dataset)
        assert abs(report.robustness) <= 1e-6

    def test_fixed_sensitivities_bounded_by_private_margin(self, d2):
        fixed = anchor_fit(d2)
        assert np.all(fixed.sensitivities == 1.0)
        prof, _ = brp_max_margin(d2)
        assert fixed.margin <= prof.margin + 1e-9

    def test_unit_sensitivity_solution_converts_to_private_certificate(self, d2):
        fixed = anchor_fit(d2)
        prof = UtilityProfile.from_certificate(
            d2, [fixed.utility] * 2, fixed.costs
        )
        assert prof.margin >= fixed.margin - 1e-9

    def test_boundary_chain_residuals_are_zero_at_unit_sensitivities(self):
        from inattention.synth import generate_boundary_dataset

        gt = generate_boundary_dataset(3, 3, 3, seed=11)
        sol = make_solution(gt.utilities[0], np.ones(3), gt.costs)
        nias, coupling = sbrp_residuals(gt.dataset, sol)
        assert np.nanmax(nias) <= 1e-9
        assert np.allclose(coupling, 0.0, atol=1e-9)

    def test_homogeneity_at_fixed_sensitivities(self, d2):
        sol, _ = sbrp_max_margin(d2)
        scaled = make_solution(2.0 * sol.utility, sol.sensitivities, 2.0 * sol.costs)
        nias_a, coup_a = sbrp_residuals(d2, sol)
        nias_b, coup_b = sbrp_residuals(d2, scaled)
        assert np.allclose(nias_b, 2.0 * nias_a, atol=1e-9, equal_nan=True)
        assert np.allclose(coup_b, 2.0 * coup_a, atol=1e-9)
        assert _margin_of(nias_b, coup_b) == pytest.approx(2.0 * sol.margin)


class TestSparsest:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_outside_the_open_unit_interval_rejected(self, d2, fraction, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_lp ran before the fraction was checked")

        monkeypatch.setattr(sbrp, "solve_lp", no_solve)
        with pytest.raises(ValueError):
            sbrp_sparsest(d2, margin_fraction=fraction)

    def test_unit_norm_gauge(self, d2):
        sparse = sbrp_sparsest(d2)
        assert sparse.squared_norm() == pytest.approx(1.0)

    def test_l1_dominance_before_normalization(self, d2):
        best, _ = sbrp_max_margin(d2)
        sparse = sbrp_sparsest(d2, normalize=False)
        assert np.abs(sparse.utility).sum() <= np.abs(best.utility).sum() + 1e-8

    def test_sensitivities_are_pinned(self, d2):
        best, _ = sbrp_max_margin(d2)
        sparse = sbrp_sparsest(d2)
        assert np.array_equal(sparse.sensitivities, best.sensitivities)

    def test_degenerate_rejected(self, identical_pair):
        with pytest.raises(DegenerateDataset):
            sbrp_sparsest(identical_pair)

    def test_normalized_margin_is_the_strict_margin_of_the_solution(self):
        fits = 0
        for seed in range(200):
            d = random_dataset(np.random.default_rng(seed), 2, 3, 3)
            try:
                sparse = sbrp_sparsest(d)
            except DegenerateDataset:
                continue
            fits += 1
            assert sparse.margin == _margin_of(*sbrp_residuals(d, sparse))
        assert fits > 100


def _same_solution(a, b):
    return (
        np.array_equal(a.utility, b.utility)
        and np.array_equal(a.sensitivities, b.sensitivities)
        and np.array_equal(a.costs, b.costs)
        and a.margin == b.margin
        and a.margin_history == b.margin_history
    )


def _count_solves(monkeypatch, fail_first=False):
    """Spy on the module's LP solves; with ``fail_first`` the first one
    raises ``NumericalFailure``.  Returns the programs it is given, in order."""
    real, solved = sbrp.solve_lp, []

    def spy(lp):
        solved.append(lp)
        if fail_first and len(solved) == 1:
            raise NumericalFailure("injected")
        return real(lp)

    monkeypatch.setattr(sbrp, "solve_lp", spy)
    return solved


class TestStoredFit:
    # ``replace`` constructs a new dataset object, whose memo is empty.

    def test_sparsest_after_max_margin_solves_only_the_sparsity_stage(
        self, monkeypatch, d2
    ):
        fresh = sbrp_sparsest(replace(d2))
        sbrp_max_margin(d2)
        solved = _count_solves(monkeypatch)
        sparse = sbrp_sparsest(d2)
        assert len(solved) == 1
        assert _same_solution(sparse, fresh)

    def test_a_max_margin_that_raises_stores_nothing(self, monkeypatch, d2):
        solved = _count_solves(monkeypatch)
        fresh = sbrp_sparsest(replace(d2))
        from_scratch = len(solved)
        monkeypatch.undo()
        solved = _count_solves(monkeypatch, fail_first=True)
        with pytest.raises(NumericalFailure):
            sbrp_max_margin(d2)
        assert _same_solution(sbrp_sparsest(d2), fresh)
        assert len(solved) == 1 + from_scratch


class TestCompactCost:
    def test_anchoring(self, d2):
        sol, _ = sbrp_max_margin(d2)
        cost = reconstruct_cost_compact(d2, sol)
        for k in range(2):
            assert cost.value(d2.choice(k)) == pytest.approx(
                float(sol.costs[k]), abs=1e-8
            )

    def test_unit_sensitivities_match_private_cost(self, d2):
        fixed = anchor_fit(d2)
        compact = reconstruct_cost_compact(d2, fixed)
        prof = UtilityProfile.from_certificate(d2, [fixed.utility] * 2, fixed.costs)
        private = reconstruct_cost(d2, prof)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(0.01, 1.0, size=(2, 2))
            p /= p.sum(axis=1, keepdims=True)
            assert compact.value(p) == pytest.approx(private.value(p), abs=1e-12)

    def test_midpoint_convexity(self, d2):
        sol, _ = sbrp_max_margin(d2)
        cost = reconstruct_cost_compact(d2, sol)
        p, q = d2.choice(0), d2.choice(1)
        mid = 0.5 * (p + q)
        assert cost.value(mid) <= 0.5 * cost.value(p) + 0.5 * cost.value(q) + 1e-12

    def test_infeasible_solution_rejected(self, d2):
        bad = make_solution(np.eye(2), [1.0, 1.0], [0.9, 0.1])
        _, coupling = sbrp_residuals(d2, bad)
        assert coupling.max() > 1e-7  # genuinely infeasible certificate
        with pytest.raises(ProfileMismatch):
            reconstruct_cost_compact(d2, bad)


class TestSolutionFiles:
    def test_round_trip(self, tmp_path, d2):
        sol, report = sbrp_max_margin(d2)
        path = tmp_path / "solution.json"
        write_json(str(path), solution_to_dict(d2, sol, report, metadata={"dataset": "d2"}))
        again, raw = read_json(str(path), lambda raw: (cli._fitted_model(raw), raw))
        assert raw["model"] == "s-umri"
        assert raw["scheme"] == sol.scheme
        assert np.array_equal(again.utility, sol.utility)
        assert np.array_equal(again.sensitivities, sol.sensitivities)
        assert again.margin == sol.margin

    def test_solution_with_one_agent_more_is_rejected(self, tmp_path, d2):
        sol, report = sbrp_max_margin(d2)
        more = make_solution(
            sol.utility, [*sol.sensitivities, 1.0], [*sol.costs, 0.0], sol.margin
        )
        path = tmp_path / "solution.json"
        with pytest.raises(DimensionMismatch, match="profile has 3 agents, dataset 2"):
            write_json(str(path), solution_to_dict(d2, more, report))
        assert not path.exists()
