import json

import numpy as np
import pytest

from inattention import predict as predict_module
from inattention.brp import UtilityProfile, nias_residuals, reconstruct_cost, strict_margin
from inattention.dataset import DecisionDataset
from inattention.errors import (
    DegenerateDataset,
    DimensionMismatch,
    NonSquare,
    NumericalFailure,
    OutOfRange,
    ProfileMismatch,
    ShapeMismatch,
    TooFewAgents,
)
from inattention.lp import LinearProgram, LpSolution, LpStatus, solve_lp
from inattention.predict import (
    NoiseFamily,
    fit_family,
    interpolate_utility,
    load_family,
    predict_at,
    save_family,
    score_prediction,
)
from inattention.synth import generate_feasible_dataset

from conftest import dataset_from_matrices, make_noise_family
from test_lp import TIGHT_HIGHS, scipy_optimum


@pytest.fixture(scope="module")
def family():
    etas, dataset, truth_at = make_noise_family(seed=1)
    return fit_family(dataset, etas), dataset, truth_at


# (position, value) of a non-finite noise level in an 11-point grid.
NON_FINITE_GRIDS = [(5, np.nan), (10, np.inf), (0, -np.inf)]


def linearized_cost(fam, p):
    """The envelope the prediction program optimizes against: the max over
    agents k of c_k + <prior * u_k, p - choice_k>, each observation scored
    with its labelled action."""
    d, fitted = fam.dataset, fam.fitted
    return max(
        float(c) + float((d.prior[:, None] * u * (p - d.choice(k))).sum())
        for k, (u, c) in enumerate(zip(fitted.utilities, fitted.costs))
    )


class TestFitFamily:
    def test_in_sample_cost_anchoring(self, family):
        fam, dataset, _ = family
        for k in range(dataset.num_agents):
            assert linearized_cost(fam, dataset.choice(k)) == pytest.approx(
                float(fam.fitted.costs[k]), abs=1e-8
            )

    def test_a_one_agent_family_is_rejected(self):
        # One level spans no grid interval to interpolate in.
        d = DecisionDataset([0.5, 0.5], [[[0.9, 0.1], [0.1, 0.9]]], ["a"])
        profile = UtilityProfile.from_certificate(d, [np.eye(2)], [0.1])
        with pytest.raises(TooFewAgents, match="two levels"):
            NoiseFamily(etas=[1.0], dataset=d, fitted=profile)
        with pytest.raises(TooFewAgents, match="two levels"):
            fit_family(d, [1.0])

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
            NoiseFamily(etas=etas, dataset=fam.dataset, fitted=fam.fitted)
        path = tmp_path / "family.json"
        save_family(str(path), fam)
        raw = json.loads(path.read_text())
        raw["etas"] = etas.tolist()
        path.write_text(json.dumps(raw))
        with pytest.raises(DimensionMismatch, match="finite"):
            load_family(str(path))

    @pytest.mark.parametrize(
        "mismatch", ["one agent short", "one agent more", "another shape"]
    )
    def test_profile_that_does_not_match_the_dataset_is_rejected(
        self, family, tmp_path, mismatch
    ):
        fam, dataset, _ = family
        utilities, costs = fam.fitted.utilities, fam.fitted.costs
        if mismatch == "one agent short":
            utilities, costs = utilities[:-1], costs[:-1]
        elif mismatch == "one agent more":
            utilities = np.concatenate([utilities, utilities[-1:]])
            costs = np.append(costs, costs[-1])
        else:
            utilities = tuple(u[:, :-1] for u in utilities)
        profile = UtilityProfile(utilities=utilities, costs=costs, margin=1.0)
        with pytest.raises(ProfileMismatch):
            NoiseFamily(etas=fam.etas, dataset=dataset, fitted=profile)
        path = tmp_path / "family.json"
        save_family(str(path), fam)
        raw = json.loads(path.read_text())
        raw["profile"]["agents"] = [
            {"agent_id": f"a{k}", "utility": u.tolist(), "cost": float(c)}
            for k, (u, c) in enumerate(zip(utilities, costs))
        ]
        path.write_text(json.dumps(raw))
        with pytest.raises(ProfileMismatch):
            load_family(str(path))

    def test_grid_that_is_not_a_vector_rejected(self, d2):
        with pytest.raises(DimensionMismatch, match="malformed noise levels"):
            fit_family(d2, [[1.0, 1.1]])

    def test_degenerate_dataset_rejected(self, identical_pair):
        with pytest.raises(DegenerateDataset):
            fit_family(identical_pair, np.array([1.0, 1.1]))


class TestInterpolate:
    def test_grid_point_is_exact(self, family):
        fam, _, _ = family
        for g in range(fam.num_agents):
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


# Edits of a fitted family's profile that no family admits: agent 0's cost
# raised to 0.9 violates the residuals (strict margin -0.798 on the family
# below), every utility and cost at 0.5 leaves a strict margin of zero, and
# every utility shifted by -1 leaves the residuals as they were but negative.
def _costlier_agent_zero(utilities, costs):
    return utilities, np.concatenate([[0.9], costs[1:]])


def _flat(utilities, costs):
    return [np.full_like(u, 0.5) for u in utilities], np.full_like(costs, 0.5)


def _shifted_down(utilities, costs):
    return [u - 1.0 for u in utilities], costs


REFUSED_EDITS = {
    "violating": (_costlier_agent_zero, ProfileMismatch),
    "degenerate": (_flat, DegenerateDataset),
    "negative": (_shifted_down, DimensionMismatch),
}


@pytest.fixture(scope="module")
def small_family():
    """The family ``synth --agents 3 --states 2 --actions 2 --seed 1`` and
    ``predict --etas 1,1.5,2`` fit."""
    d = generate_feasible_dataset(3, 2, 2, 0.01, 1).dataset
    return fit_family(d, [1.0, 1.5, 2.0])


class TestFamilyAdmission:
    """Every family passes one check on its profile, however it is made."""

    @staticmethod
    def _edited(fam, edit):
        utilities, costs = edit(fam.fitted.utilities, fam.fitted.costs)
        # The claimed margin is the fit's: the check reads the residuals.
        return UtilityProfile(tuple(utilities), costs, margin=fam.fitted.margin)

    @pytest.mark.parametrize("name", REFUSED_EDITS)
    def test_constructor_refuses_the_edited_profile(self, small_family, name):
        edit, error = REFUSED_EDITS[name]
        profile = self._edited(small_family, edit)
        d = small_family.dataset
        with pytest.raises(error) as refused:
            NoiseFamily(etas=small_family.etas, dataset=d, fitted=profile)
        if error is ProfileMismatch:
            # The same refusal as the cost curve's.
            with pytest.raises(ProfileMismatch) as cost_refused:
                reconstruct_cost(d, profile)
            assert str(refused.value) == str(cost_refused.value)
            assert "violates the feasibility residuals" in str(refused.value)
        elif error is DegenerateDataset:
            assert str(refused.value) == (
                "max-margin fit is numerically zero; predictions are meaningless"
            )
        else:
            # The shift keeps every residual: only the nonnegativity rule refuses.
            margin = strict_margin(d, profile.utilities, profile.costs)
            assert margin == pytest.approx(small_family.fitted.margin, abs=1e-12)
            assert str(refused.value) == "utility entries must be finite and nonnegative"

    @pytest.mark.parametrize("name", REFUSED_EDITS)
    def test_load_family_refuses_the_edited_file(self, small_family, tmp_path, name):
        edit, error = REFUSED_EDITS[name]
        path = tmp_path / "family.json"
        save_family(str(path), small_family)
        raw = json.loads(path.read_text())
        profile = self._edited(small_family, edit)
        for agent, u, c in zip(raw["profile"]["agents"], profile.utilities, profile.costs):
            agent["utility"], agent["cost"] = u.tolist(), float(c)
        path.write_text(json.dumps(raw))
        with pytest.raises(error):
            load_family(str(path))

    def test_constant_utilities_at_equal_costs_are_refused(self):
        # Their envelope is flat on strategies: every strategy costs the
        # same, and the fit's margin is zero, so nothing is predicted.
        mats = [np.full((2, 2), 0.5), [[0.6, 0.4], [0.4, 0.6]]]
        d = dataset_from_matrices([0.5, 0.5], mats)
        profile = UtilityProfile.from_certificate(
            d, [np.full((2, 2), 0.5)] * 2, np.array([0.5, 0.5])
        )
        with pytest.raises(DegenerateDataset, match="numerically zero"):
            NoiseFamily(etas=np.array([1.0, 1.1]), dataset=d, fitted=profile)


class TestPredictChoice:

    def test_constant_utility_minimizes_the_cost_envelope(self, family):
        fam, dataset, _ = family
        flat = np.full(dataset.choice(0).shape, 0.5)
        solution = solve_lp(predict_module._first_program(fam, flat))
        strategy = solution.point[: flat.size].reshape(flat.shape)
        # The value term is flat, so the optimizer must sit at the bottom of
        # the envelope, at or below every in-sample cost.
        floor = min(float(c) for c in fam.fitted.costs)
        assert linearized_cost(fam, strategy) <= floor + 1e-9
        assert np.allclose(strategy.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_dominates_in_sample_strategies(self, family):
        fam, dataset, _ = family
        outcome = predict_at(fam, 1.23)
        u_hat, strategy = outcome.interpolated_utility, outcome.predicted_choice
        mu = dataset.prior
        achieved = float((mu[:, None] * u_hat * strategy).sum()) - linearized_cost(
            fam, strategy
        )
        for k in range(dataset.num_agents):
            p_k = dataset.choice(k)
            alt = float((mu[:, None] * u_hat * p_k).sum()) - linearized_cost(fam, p_k)
            assert achieved >= alt - 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_program_envelope_never_exceeds_the_cost_envelope(self, seed):
        # Each epigraph row scores its piece with the labelled action; the
        # cost envelope's value scores with the best response, which is never
        # lower.  At the anchors the fitted actions are best responses, so
        # the two agree there.
        etas, dataset, _ = make_noise_family(seed=seed, num_classes=4)
        fam = fit_family(dataset, etas)
        cost = reconstruct_cost(dataset, fam.fitted)
        for k in range(dataset.num_agents):
            p_k = dataset.choice(k)
            assert abs(cost.value(p_k) - linearized_cost(fam, p_k)) <= 1e-12
        for eta in etas[:-1]:
            strategy = predict_at(fam, round(eta + 0.025, 3)).predicted_choice
            assert linearized_cost(fam, strategy) <= cost.value(strategy) + 1e-12

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

    def test_certificate_matches_the_residuals_of_a_dataset(self, family, monkeypatch):
        # The NIAS re-check runs the residual kernel on the strategy's own
        # joint and posterior; a dataset built around the strategy gives the
        # same residuals to the bit.
        fam, _, _ = family
        seen = []
        worst_nias = predict_module._worst_nias

        def spy(nias):
            seen.append(nias)
            return worst_nias(nias)

        monkeypatch.setattr(predict_module, "_worst_nias", spy)
        for eta in (1.05, 1.41, 1.5, 1.93):
            outcome = predict_at(fam, eta)
            u, strategy = outcome.interpolated_utility, outcome.predicted_choice
            d = DecisionDataset(fam.dataset.prior, strategy[None], ["predicted"])
            assert seen.pop().tobytes() == nias_residuals(d, [u]).tobytes()

    def test_rows_are_stochastic(self, family):
        fam, _, _ = family
        outcome = predict_at(fam, 1.41)
        assert np.allclose(outcome.predicted_choice.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(outcome.predicted_choice >= 0)


def row_pair_refinement(first_lp, first, target):
    """The refinement stated with |z - target| <= t as two rows per cell:
    variables [first program's | t], cost -1 on t, the first program's rows
    and its objective kept within the slack."""
    base, cells = first_lp.num_vars, target.shape[0]
    lp = LinearProgram(
        np.append(np.zeros(base), -np.ones(cells)),
        np.append(first_lp.lower, np.zeros(cells)),
        np.append(first_lp.upper, np.ones(cells)),
    )
    kept = np.vstack([first_lp.a, -first_lp.objective])
    slack = predict_module._OBJECTIVE_SLACK
    lp.add_leq(
        np.hstack([kept, np.zeros((kept.shape[0], cells))]),
        np.append(first_lp.b, slack - first.objective_value),
    )
    cell, gap = np.eye(cells, base), -np.eye(cells)
    lp.add_leq(np.hstack([cell, gap]), target)
    lp.add_leq(np.hstack([-cell, gap]), -target)
    return lp


class TestRefinement:
    def test_paper_shape_query_that_once_hit_the_iteration_cap(self):
        # At 11x7x7 the refinement once ran its cold first dual pass over
        # zero-cost strategy columns, where every ratio ties, into the cap.
        etas, dataset, _ = make_noise_family(seed=0, num_classes=7)
        outcome = predict_at(fit_family(dataset, etas), 1.475)
        assert outcome.nias_consistent

    def test_choice_entry_just_above_one_is_a_valid_target(self):
        # A dataset admits entries up to 1 + 1e-12; the refinement's
        # deviation boxes must not go negative at such a target.
        etas, dataset, _ = make_noise_family(seed=1)
        choices = dataset.choices.copy()
        choices[0, 0] = [1.0 + 2.0**-52, 0.0, 0.0]
        d = DecisionDataset(dataset.prior, choices, dataset.agent_ids)
        assert predict_at(fit_family(d, etas), 1.0).nias_consistent

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deviation_columns_reach_the_row_pair_optimum(self, monkeypatch, seed):
        solves = []

        def spy(lp, *args, **kwargs):
            solves.append((lp, solve_lp(lp, *args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(predict_module, "solve_lp", spy)
        etas, dataset, _ = make_noise_family(seed=seed, num_classes=4)
        fam = fit_family(dataset, etas)
        for g in range(etas.shape[0] - 1):
            for w_hi in (0.25, 0.75):
                eta = (1.0 - w_hi) * etas[g] + w_hi * etas[g + 1]
                del solves[:]
                strategy = predict_at(fam, eta).predicted_choice
                # The interval's first query also solves its midpoint start.
                (first_lp, first), (_, second) = solves[-2:]
                g_eta, w = predict_module._bracket(fam, eta)
                target = (
                    (1.0 - w) * dataset.choice(g_eta) + w * dataset.choice(g_eta + 1)
                ).ravel()
                ref = scipy_optimum(
                    row_pair_refinement(first_lp, first, target), TIGHT_HIGHS
                )
                assert ref.status == 0
                distance = float(np.abs(strategy.ravel() - target).sum())
                assert distance == pytest.approx(ref.fun, abs=1e-9)
                # target + up - down, with the first program's other columns,
                # satisfies the first program's rows and keeps its objective.
                cells = target.shape[0]
                up, down = second.point[:cells], second.point[cells : 2 * cells]
                point = np.concatenate([target + up - down, second.point[2 * cells :]])
                assert float((first_lp.a @ point - first_lp.b).max()) <= 1e-9
                kept = first.objective_value - predict_module._OBJECTIVE_SLACK
                assert first_lp.objective @ point >= kept - 1e-9


def reference_first_program(fam, u_hat):
    """The first program built whole from arrays: fresh boxes, then the
    family's base rows stacked over the best-response rows in one block."""
    base, prior = fam._base, fam.dataset.prior
    X, A = u_hat.shape
    taken, deviation = np.nonzero(~np.eye(A, dtype=bool))
    lp = LinearProgram(
        np.concatenate([(prior[:, None] * u_hat).ravel(), [-1.0]]), base.lower, base.upper
    )
    pairs = taken.size
    nias = np.zeros((pairs, X * A + 1))
    nias[np.arange(pairs)[:, None], np.arange(X) * A + taken[:, None]] = (
        prior[:, None] * (u_hat[:, deviation] - u_hat[:, taken])
    ).T
    lp.add_leq(np.vstack([base.a, nias]), np.concatenate([base.b, np.zeros(pairs)]))
    return lp


def reference_refinement(fam, first_lp, first, g, w_hi):
    """The refinement built whole from arrays by hstack and vstack, and its
    target."""
    target = (1.0 - w_hi) * fam.dataset.choice(g) + w_hi * fam.dataset.choice(g + 1)
    target = np.clip(target, 0.0, 1.0).ravel()
    cells = target.shape[0]
    lp = LinearProgram(
        np.concatenate([-np.ones(2 * cells), np.zeros(first_lp.num_vars - cells)]),
        np.concatenate([np.zeros(2 * cells), first_lp.lower[cells:]]),
        np.concatenate([1.0 - target, target, first_lp.upper[cells:]]),
    )
    kept = np.vstack([first_lp.a, -first_lp.objective])
    a_z = kept[:, :cells]
    slack = predict_module._OBJECTIVE_SLACK
    lp.add_leq(
        np.hstack([a_z, -a_z, kept[:, cells:]]),
        np.concatenate([first_lp.b, [-(first.objective_value - slack)]]) - a_z @ target,
    )
    return lp, target


def _program_bytes(lp):
    return [arr.tobytes() for arr in (lp.objective, lp.lower, lp.upper, lp.a, lp.b)]


def _family_arrays(fam):
    base = fam._base
    return [base.objective, base.lower, base.upper, base.a, base.b, *fam._pairs, *fam._deviation]


class TestDerivedPrograms:
    """A query builds its first program from the family's base program and
    its refinement from the family's refinement cost and bounds: the same
    programs, byte for byte, as built whole from arrays."""

    @pytest.mark.parametrize("classes", [3, 6])
    def test_programs_and_strategies_match_the_whole_construction(
        self, monkeypatch, classes
    ):
        solves = []

        def spy(lp, *args, **kwargs):
            solves.append((lp, solve_lp(lp, *args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(predict_module, "solve_lp", spy)
        etas, dataset, _ = make_noise_family(0, 11, classes)
        fam = fit_family(dataset, etas)
        held = [arr.tobytes() for arr in _family_arrays(fam)]
        queries = [float(eta) for eta in etas] + [
            (1.0 - w) * etas[g] + w * etas[g + 1]
            for g in range(etas.shape[0] - 1)
            for w in (0.25, 0.5, 0.75)
        ]
        for eta in queries:
            strategy = predict_at(fam, eta).predicted_choice
            (first_lp, first), (refined_lp, _) = solves[-2:]
            g, w_hi = predict_module._bracket(fam, eta)
            ref_lp = reference_first_program(fam, interpolate_utility(fam, eta))
            assert _program_bytes(first_lp) == _program_bytes(ref_lp)
            ref_first = solve_lp(ref_lp, start=fam._starts[g])
            assert ref_first.point.tobytes() == first.point.tobytes()
            ref_refined, target = reference_refinement(fam, ref_lp, ref_first, g, w_hi)
            assert _program_bytes(refined_lp) == _program_bytes(ref_refined)
            second = solve_lp(ref_refined)
            cells = target.shape[0]
            point = target + second.point[:cells] - second.point[cells : 2 * cells]
            expected = np.clip(point, 0.0, None).reshape(dataset.num_states, -1)
            expected /= expected.sum(axis=1, keepdims=True)
            assert strategy.tobytes() == expected.tobytes()
        assert len(queries) >= 30
        arrays = _family_arrays(fam)
        assert [arr.tobytes() for arr in arrays] == held
        assert not any(arr.flags.writeable for arr in arrays)


@pytest.fixture(scope="module")
def family4():
    """``make_noise_family(0, num_classes=4)`` fitted, and 30 query etas:
    0.025, 0.05 and 0.075 past each grid point but the last."""
    etas, dataset, _ = make_noise_family(seed=0, num_classes=4)
    offsets = (0.025, 0.05, 0.075)
    queries = [round(eta + offset, 3) for eta in etas[:-1] for offset in offsets]
    return fit_family(dataset, etas), queries


def fresh(fam):
    """The same fitted family with no interval start solved yet."""
    return NoiseFamily(etas=fam.etas, dataset=fam.dataset, fitted=fam.fitted)


class TestIntervalStart:
    def test_answers_do_not_depend_on_earlier_queries(self, family4):
        fam, queries = family4
        alone = {eta: predict_at(fresh(fam), eta) for eta in queries}
        shared = fresh(fam)
        for eta in reversed(queries):
            outcome, expected = predict_at(shared, eta), alone[eta]
            choice = outcome.predicted_choice
            assert choice.tobytes() == expected.predicted_choice.tobytes()
            assert outcome.nias_consistent == expected.nias_consistent

    def test_each_query_solves_its_first_program_warm_from_the_midpoint(
        self, family4, monkeypatch
    ):
        fam, queries = family4
        fam = fresh(fam)
        solves = []

        def spy(lp, *args, **kwargs):
            solves.append((lp, solve_lp(lp, *args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(predict_module, "solve_lp", spy)
        seen = set()
        for eta in queries:
            del solves[:]
            g = predict_module._bracket(fam, eta)[0]
            assert predict_at(fam, eta).nias_consistent
            # The interval's first query also solves the midpoint, warm from
            # the previous interval's (queries run in interval order here),
            # interval 0's cold.
            assert len(solves) == (2 if g in seen else 3)
            if g not in seen:
                assert solves[0][1].warm == (g > 0)
            seen.add(g)
            first_lp, first = solves[-2]
            assert first.warm
            ref = scipy_optimum(first_lp, TIGHT_HIGHS)
            assert ref.status == 0
            scale = max(1.0, abs(ref.fun))
            assert first.objective_value == pytest.approx(-ref.fun, abs=1e-9 * scale)
        assert len(seen) == fam.num_agents - 1
        # On a fresh family a query in the last interval solves the whole
        # chain of midpoints first, each warm from the one before.
        last = fresh(fam)
        del solves[:]
        predict_at(last, queries[-1])
        g = fam.num_agents - 2
        assert [s.warm for _, s in solves] == [False] + [True] * g + [True, False]
        assert len(last._starts) == g + 1
        for h in range(g + 1):
            for name in ("basic", "status"):
                kept = getattr(last._starts[h], name), getattr(fam._starts[h], name)
                assert kept[0].tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("failure", ["raised", "reported infeasible"])
    def test_a_midpoint_that_fails_leaves_its_interval_cold(self, family4, monkeypatch, failure):
        fam, _ = family4
        fam = fresh(fam)
        solves = []

        def spy(lp, *args, **kwargs):
            # The fourth solve is interval 3's midpoint, after intervals 0-2.
            if len(solves) == 3:
                solves.append(LpSolution(LpStatus.INFEASIBLE))
                if failure == "raised":
                    raise NumericalFailure("injected at the midpoint")
            else:
                solves.append(solve_lp(lp, *args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(predict_module, "solve_lp", spy)
        for eta in (1.325, 1.375):
            assert predict_at(fam, eta).nias_consistent
            # The first program and the refinement, both cold; no retry.
            assert [s.warm for s in solves[-2:]] == [False, False]
        assert len(solves) == 8 and fam._starts[3] is None
        # The next interval's midpoint then solves cold, and its query warm.
        assert predict_at(fam, 1.425).nias_consistent
        assert [s.warm for s in solves[8:]] == [False, True, False]


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

    def test_prior_of_another_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            score_prediction(np.eye(2), np.eye(2), np.array([0.2, 0.3, 0.5]))

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
