import json

import numpy as np
import pytest

from inattention import predict as predict_module
from inattention.brp import UtilityProfile
from inattention.costs import CostPiece, PiecewiseAffineCost
from inattention.errors import (
    DegenerateDataset,
    DimensionMismatch,
    NonSquare,
    OutOfRange,
    ShapeMismatch,
)
from inattention.predict import (
    NoiseFamily,
    fit_family,
    interpolate_utility,
    load_family,
    predict_at,
    predict_choice,
    save_family,
    score_prediction,
)

from conftest import dataset_from_matrices, make_noise_family


@pytest.fixture(scope="module")
def family():
    etas, dataset, truth_at = make_noise_family(seed=1)
    return fit_family(dataset, etas), dataset, truth_at


# (position, value) of a non-finite noise level in an 11-point grid.
NON_FINITE_GRIDS = [(5, np.nan), (10, np.inf), (0, -np.inf)]


class TestFitFamily:
    def test_eleven_point_grid_gives_eleven_pieces(self, family):
        fam, dataset, _ = family
        assert len(fam.cost.pieces) == 11
        assert fam.cost.linearized

    def test_in_sample_cost_anchoring(self, family):
        fam, dataset, _ = family
        for k in range(dataset.num_agents):
            assert fam.cost.value(dataset.choice(k)) == pytest.approx(
                float(fam.fitted.costs[k]), abs=1e-8
            )

    def test_non_increasing_grid_rejected(self, family):
        _, dataset, _ = family
        bad = np.array([1.0 + 0.1 * g for g in range(11)])
        bad[3] = bad[2]
        with pytest.raises(DimensionMismatch):
            fit_family(dataset, bad)

    @pytest.mark.parametrize("index, bad", NON_FINITE_GRIDS, ids=["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected_before_the_fit(
        self, family, monkeypatch, index, bad
    ):
        _, dataset, _ = family
        etas = np.array([1.0 + 0.1 * g for g in range(11)])
        etas[index] = bad

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran on a non-finite grid")

        monkeypatch.setattr(predict_module, "brp_max_margin", no_fit)
        with pytest.raises(DimensionMismatch, match="finite"):
            fit_family(dataset, etas)

    @pytest.mark.parametrize("index, bad", NON_FINITE_GRIDS, ids=["nan", "inf", "-inf"])
    def test_family_with_non_finite_grid_rejected(self, family, tmp_path, index, bad):
        fam, _, _ = family
        etas = fam.etas.copy()
        etas[index] = bad
        with pytest.raises(DimensionMismatch, match="finite"):
            NoiseFamily(etas=etas, dataset=fam.dataset, fitted=fam.fitted, cost=fam.cost)
        path = tmp_path / "family.json"
        save_family(str(path), fam)
        raw = json.loads(path.read_text())
        raw["etas"] = etas.tolist()
        path.write_text(json.dumps(raw))
        with pytest.raises(DimensionMismatch, match="finite"):
            load_family(str(path))

    def test_degenerate_dataset_rejected(self, identical_pair):
        with pytest.raises(DegenerateDataset):
            fit_family(identical_pair, np.array([1.0, 1.1]))


class TestInterpolate:
    def test_grid_point_is_exact(self, family):
        fam, _, _ = family
        for g in (0, 4, 10):
            u = interpolate_utility(fam, float(fam.etas[g]))
            assert np.array_equal(u, fam.fitted.utilities[g])

    def test_midpoint_is_average(self, family):
        fam, _, _ = family
        u = interpolate_utility(fam, 1.05)
        expected = 0.5 * (fam.fitted.utilities[0] + fam.fitted.utilities[1])
        assert np.allclose(u, expected, atol=1e-15)

    def test_weights_bound_the_result(self, family):
        fam, _, _ = family
        u = interpolate_utility(fam, 1.37)
        lo = np.minimum(fam.fitted.utilities[3], fam.fitted.utilities[4])
        hi = np.maximum(fam.fitted.utilities[3], fam.fitted.utilities[4])
        assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)

    def test_out_of_range_rejected(self, family):
        fam, _, _ = family
        with pytest.raises(OutOfRange):
            interpolate_utility(fam, 2.01)
        with pytest.raises(OutOfRange):
            interpolate_utility(fam, 0.99)
        with pytest.raises(OutOfRange):
            interpolate_utility(fam, float("nan"))


def zero_cost_family():
    mats = [np.full((2, 2), 0.5), [[0.6, 0.4], [0.4, 0.6]]]
    d = dataset_from_matrices([0.5, 0.5], mats)
    profile = UtilityProfile.from_certificate(
        d, [np.full((2, 2), 0.5)] * 2, np.array([0.5, 0.5])
    )
    pieces = (
        CostPiece(offset=0.0, anchor=d.choice(0), gradient=np.zeros((2, 2))),
    )
    cost = PiecewiseAffineCost(pieces=pieces, linearized=True)
    return NoiseFamily(
        etas=np.array([1.0, 1.1]), dataset=d, fitted=profile, cost=cost
    )


class TestPredictChoice:
    def test_free_information_with_identity_utility(self):
        fam = zero_cost_family()
        strategy, consistent = predict_choice(fam, np.eye(2))
        assert np.allclose(strategy, np.eye(2), atol=1e-9)
        assert consistent

    def test_constant_utility_minimizes_the_cost_envelope(self, family):
        fam, dataset, _ = family
        strategy, _ = predict_choice(fam, np.full(dataset.choice(0).shape, 0.5))
        # The value term is flat, so the optimizer must sit at the bottom of
        # the envelope, at or below every in-sample cost.
        floor = min(float(c) for c in fam.fitted.costs)
        assert fam.cost.value(strategy) <= floor + 1e-9
        assert np.allclose(strategy.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_dominates_in_sample_strategies(self, family):
        fam, dataset, _ = family
        u_hat = interpolate_utility(fam, 1.23)
        strategy, _ = predict_choice(fam, u_hat, eta=1.23)
        mu = dataset.prior
        achieved = float((mu[:, None] * u_hat * strategy).sum()) - fam.cost.value(
            strategy
        )
        for k in range(dataset.num_agents):
            p_k = dataset.choice(k)
            alt = float((mu[:, None] * u_hat * p_k).sum()) - fam.cost.value(p_k)
            assert achieved >= alt - 1e-8

    def test_grid_query_reproduces_observed_behavior(self, family):
        fam, dataset, _ = family
        for g in (0, 5, 10):
            outcome = predict_at(fam, float(fam.etas[g]))
            tv = 0.5 * np.abs(
                outcome.predicted_choice - dataset.choice(g)
            ).sum(axis=1)
            assert float(tv.max()) <= 2e-2
            assert outcome.nias_consistent

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_off_grid_predictions_are_nias_consistent(self, seed):
        # The prediction program holds the best-response rows, so every
        # query's predicted actions are best responses to their posteriors.
        etas, dataset, _ = make_noise_family(seed=seed)
        fam = fit_family(dataset, etas)
        for eta in etas[:-1]:
            for offset in (0.025, 0.075):
                assert predict_at(fam, round(eta + offset, 3)).nias_consistent

    def test_rows_are_stochastic(self, family):
        fam, _, _ = family
        outcome = predict_at(fam, 1.41)
        assert np.allclose(outcome.predicted_choice.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(outcome.predicted_choice >= 0)


class TestScoring:
    def test_perfect_prediction_scores_zero(self):
        p = np.array([[0.8, 0.2], [0.3, 0.7]])
        delta, kl = score_prediction(p, p, np.array([0.5, 0.5]))
        assert np.allclose(delta, 0.0)
        assert kl == 0.0

    def test_single_term_divergence(self):
        truth = np.array([[1.0, 0.0], [0.5, 0.5]])
        predicted = np.array([[0.9, 0.1], [0.5, 0.5]])
        delta, kl = score_prediction(predicted, truth, np.array([1.0, 0.0]))
        assert kl == pytest.approx(np.log(1 / 0.9))
        assert delta[0] == pytest.approx(0.1)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            score_prediction(np.eye(2), np.eye(3), np.array([0.5, 0.5]))
        with pytest.raises(NonSquare):
            score_prediction(
                np.full((2, 3), 1 / 3), np.full((2, 3), 1 / 3), np.array([0.5, 0.5])
            )

    def test_midpoint_errors_are_small(self, family):
        fam, _, truth_at = family
        outcome = predict_at(fam, 1.15, truth=truth_at(1.15))
        assert outcome.per_class_error is not None
        assert float(outcome.per_class_error.max()) <= 0.06
        assert outcome.kl_score <= 0.02


class TestFamilyFiles:
    def test_round_trip(self, tmp_path, family):
        fam, dataset, _ = family
        path = tmp_path / "family.json"
        save_family(str(path), fam)
        again = load_family(str(path))
        assert np.array_equal(again.etas, fam.etas)
        assert again.dataset.approx_equal(dataset, tol=0.0)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(again.fitted.utilities, fam.fitted.utilities)
        )
        out_a = predict_at(fam, 1.25)
        out_b = predict_at(again, 1.25)
        assert np.array_equal(out_a.predicted_choice, out_b.predicted_choice)
