import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import inattention
from inattention.brp import (
    MarginReport,
    UtilityProfile,
    brp_max_margin,
    brp_sparsest,
    niac_residuals,
    nias_residuals,
    normalize_profile,
    profile_to_dict,
    reconstruct_cost,
    strict_margin,
)
from inattention import brp, cli, sbrp
from inattention import lp as lp_module
from inattention.brp import _BrpProgram
from inattention.constants import MARGIN_CAP, UNIT_FLOOR
from inattention.dataset import (
    dataset_to_dict,
    expected_value,
    joint_and_posterior,
    read_json,
    realized_value,
    save_dataset,
    write_json,
)
from inattention.errors import (
    DegenerateDataset,
    DimensionMismatch,
    NumericalFailure,
    ProfileMismatch,
)
from inattention.lp import LpBasis, solve_lp
from inattention.predict import NoiseFamily, load_family
from inattention.synth import (
    GroundTruth,
    generate_boundary_dataset,
    generate_feasible_dataset,
    load_ground_truth,
    save_ground_truth,
)

from conftest import (
    D2_CERTIFICATE,
    dataset_from_matrices,
    make_noise_family,
    random_dataset,
)
from test_lp import TIGHT_HIGHS, scipy_optimum


def stochastic(rng, shape):
    m = rng.uniform(0.01, 1.0, size=shape)
    return m / m.sum(axis=1, keepdims=True)


class TestResiduals:
    def test_constant_utility_zeroes_everything(self, d2):
        u = [np.full((2, 2), 0.3)] * 2
        res = nias_residuals(d2, u)
        assert np.allclose(res, 0.0)
        niac = niac_residuals(d2, u, np.array([0.1, 0.1]))
        assert np.allclose(niac, 0.0, atol=1e-15)

    def test_identity_utility_example(self, d2):
        res = nias_residuals(d2, [np.eye(2), np.eye(2)])
        # Sharp agent, answering 1 when the posterior favors state 1:
        # switching to action 2 loses 0.8.
        assert res[0, 0, 1] == pytest.approx(-0.8)
        assert res[0, 1, 0] == pytest.approx(-0.8)

    def test_diagonal_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, num_agents=3, num_states=3, num_actions=3)
        res = nias_residuals(d, [stochastic(rng, (3, 3)) for _ in range(3)])
        for k in range(3):
            assert np.all(np.diag(res[k]) == 0.0)

    def test_absent_posterior_rows_are_nan(self):
        p = [[1.0, 0.0], [1.0, 0.0]]
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        res = nias_residuals(d, [np.eye(2), np.eye(2)])
        assert np.all(np.isnan(res[0, 1, :]))
        assert not np.any(np.isnan(res[0, 0, :]))

    def test_hand_certificate_values(self, d2):
        c = D2_CERTIFICATE
        niac = niac_residuals(d2, c["utilities"], c["costs"])
        assert niac[1, 0] == pytest.approx(-0.15)
        assert niac[0, 1] == pytest.approx(-0.09)
        assert strict_margin(d2, c["utilities"], c["costs"]) == pytest.approx(0.04)

    def test_diagonal_residuals_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = random_dataset(rng, num_agents=3, num_states=2, num_actions=3)
            us = [rng.uniform(0, 1, size=(2, 3)) for _ in range(3)]
            niac = niac_residuals(d, us, rng.uniform(0.01, 1.0, size=3))
            assert np.all(np.diag(niac) >= -1e-12)

    def test_identical_strategies_shared_utility(self):
        p = [[0.7, 0.3], [0.2, 0.8]]
        d = dataset_from_matrices([0.5, 0.5], [p, p, p])
        u = np.array([[0.9, 0.1], [0.2, 0.8]])
        niac = niac_residuals(d, [u] * 3, np.full(3, 0.2))
        # Same strategies and equal costs: every entry is the optimality gap
        # of the shared strategy, which best responses make zero.
        assert np.all(niac >= -1e-12)
        assert np.allclose(niac, niac[0, 0])

    def test_dimension_mismatch(self, d2):
        with pytest.raises(DimensionMismatch):
            nias_residuals(d2, [np.eye(2)])
        with pytest.raises(DimensionMismatch):
            niac_residuals(d2, [np.eye(2), np.eye(3)], [0.1, 0.1])

    def test_cost_count_other_than_the_agent_count_rejected(self, d2):
        with pytest.raises(DimensionMismatch, match="costs shape"):
            niac_residuals(d2, [np.eye(2)] * 2, [0.1])


class TestMaxMargin:
    def test_hand_certificate_is_beaten(self, d2):
        prof, report = brp_max_margin(d2)
        assert prof.margin >= 0.04 - 1e-12
        assert not report.degenerate
        assert strict_margin(d2, prof.utilities, prof.costs) == pytest.approx(
            prof.margin, abs=1e-9
        )

    def test_identical_strategies_have_zero_margin(self, identical_pair):
        prof, report = brp_max_margin(identical_pair)
        assert prof.margin <= 1e-7
        assert report.degenerate

    def test_uniform_dataset_has_zero_robustness(self, uniform_dataset):
        _, report = brp_max_margin(uniform_dataset)
        assert abs(report.robustness) <= 1e-6
        assert report.degenerate

    def test_margin_is_deterministic(self, d2):
        p1, _ = brp_max_margin(d2)
        p2, _ = brp_max_margin(d2)
        assert np.array_equal(p1.costs, p2.costs)
        assert all(np.array_equal(a, b) for a, b in zip(p1.utilities, p2.utilities))

    def test_report_normalization(self, d2):
        prof, report = brp_max_margin(d2)
        total = float(prof.squared_norms().sum())
        assert report.robustness == pytest.approx(
            prof.margin * prof.num_agents / total
        )

    def test_strict_constraint_count(self):
        # Residual sets exclude the identically nonnegative diagonals, so the
        # strict family has K^2 + K(A^2 - A - 1) members.
        rng = np.random.default_rng(3)
        d = random_dataset(rng, num_agents=3, num_states=3, num_actions=3)
        K, A = 3, 3
        nias = nias_residuals(d, [np.eye(3)] * 3)
        strict_nias = sum(
            int(not np.isnan(nias[k, a, b]))
            for k in range(K)
            for a in range(A)
            for b in range(A)
            if a != b
        )
        assert strict_nias + K * (K - 1) == K**2 + K * (A**2 - A - 1)


class TestHomogeneity:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_residuals_scale_linearly(self, d2, factor):
        c = D2_CERTIFICATE
        base_nias = nias_residuals(d2, c["utilities"])
        base_niac = niac_residuals(d2, c["utilities"], c["costs"])
        scaled_nias = nias_residuals(d2, [factor * u for u in c["utilities"]])
        scaled_niac = niac_residuals(
            d2, [factor * u for u in c["utilities"]], factor * c["costs"]
        )
        assert np.allclose(scaled_nias, factor * base_nias, atol=1e-9, equal_nan=True)
        assert np.allclose(scaled_niac, factor * base_niac, atol=1e-9)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_normalized_robustness_is_scale_invariant(self, d2, factor):
        prof = UtilityProfile.from_certificate(
            d2, D2_CERTIFICATE["utilities"], D2_CERTIFICATE["costs"]
        )
        scaled = UtilityProfile.from_certificate(
            d2, [factor * u for u in prof.utilities], factor * prof.costs
        )
        a = normalize_profile(d2, prof)
        b = normalize_profile(d2, scaled)
        ra = MarginReport.from_solution(a.margin, a.squared_norms())
        rb = MarginReport.from_solution(b.margin, b.squared_norms())
        assert ra.robustness == pytest.approx(rb.robustness, abs=1e-9)


class TestCertificateChecks:
    def test_non_finite_utilities_are_rejected(self):
        with pytest.raises(DimensionMismatch):
            UtilityProfile(
                utilities=(np.eye(2), np.array([[0.5, np.nan], [0.1, 0.2]])),
                costs=np.array([0.1, 0.2]),
                margin=0.0,
            )

    def test_a_cost_count_other_than_the_agent_count_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            UtilityProfile(
                utilities=(np.eye(2), np.eye(2)), costs=np.array([0.1]), margin=0.0
            )

    def test_an_all_zero_profile_is_not_normalized(self, d2):
        zero = UtilityProfile.from_certificate(d2, [np.zeros((2, 2))] * 2, [0.0, 0.0])
        with pytest.raises(ProfileMismatch):
            normalize_profile(d2, zero)


class TestSparsest:
    def test_sparse_l1_never_exceeds_margin_l1(self, d2):
        prof, _ = brp_max_margin(d2)
        sparse = brp_sparsest(d2, normalize=False)
        assert sparse.total_l1() <= prof.total_l1() + 1e-8

    def test_normalized_gauge(self, d2):
        sparse = brp_sparsest(d2)
        assert float(sparse.squared_norms().sum()) == pytest.approx(2.0)

    def test_sparse_profile_keeps_margin_fraction(self, d2):
        prof, _ = brp_max_margin(d2)
        sparse = brp_sparsest(d2, margin_fraction=0.5, normalize=False)
        assert sparse.margin >= 0.5 * prof.margin - 1e-9

    def test_degenerate_dataset_rejected(self, identical_pair):
        with pytest.raises(DegenerateDataset):
            brp_sparsest(identical_pair)

    def test_symmetric_dataset_symmetry_properties(self):
        # Swapping both states and actions maps the dataset to itself, so the
        # permuted copy of any optimum is optimal too: same sparsity mass,
        # same margin.  The returned vertex itself need not be symmetric
        # (the symmetric point is a midpoint of optima, not a vertex), but it
        # must be reproducible.
        def mirrored_pair():
            return dataset_from_matrices(
                [0.5, 0.5],
                [
                    [[0.9, 0.1], [0.1, 0.9]],
                    [[0.7, 0.3], [0.3, 0.7]],
                ],
            )

        d = mirrored_pair()
        sparse = brp_sparsest(d, normalize=False)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mirrored = UtilityProfile.from_certificate(
            d, [swap @ u @ swap for u in sparse.utilities], sparse.costs
        )
        assert mirrored.total_l1() == pytest.approx(sparse.total_l1(), abs=1e-9)
        assert mirrored.margin == pytest.approx(sparse.margin, abs=1e-9)
        # A fresh object, so that both fits solve both stages.
        again = brp_sparsest(mirrored_pair(), normalize=False)
        assert all(
            np.array_equal(a, b) for a, b in zip(sparse.utilities, again.utilities)
        )

    def test_bad_fraction_rejected(self, d2):
        with pytest.raises(ValueError):
            brp_sparsest(d2, margin_fraction=1.5)


class TestReconstructCost:
    def test_anchoring_on_hand_certificate(self, d2):
        prof = UtilityProfile.from_certificate(
            d2, D2_CERTIFICATE["utilities"], D2_CERTIFICATE["costs"]
        )
        cost = reconstruct_cost(d2, prof)
        assert cost.value(d2.choice(0)) == pytest.approx(0.2, abs=1e-12)
        assert cost.value(d2.choice(1)) == pytest.approx(0.05, abs=1e-12)

    def test_anchoring_on_fitted_profile(self, d2):
        prof, _ = brp_max_margin(d2)
        cost = reconstruct_cost(d2, prof)
        for k in range(2):
            assert cost.value(d2.choice(k)) == pytest.approx(
                float(prof.costs[k]), abs=1e-8
            )

    def test_segment_convexity(self, d2):
        prof, _ = brp_max_margin(d2)
        cost = reconstruct_cost(d2, prof)
        p, q = d2.choice(0), d2.choice(1)
        for theta in (0.25, 0.5, 0.75):
            blend = theta * p + (1 - theta) * q
            assert cost.value(blend) <= theta * cost.value(p) + (
                1 - theta
            ) * cost.value(q) + 1e-12

    def test_own_strategy_is_optimal_net_of_cost(self, d2):
        # Value minus cost is maximized by each agent's own strategy, over
        # the other in-sample strategies and random alternatives.
        prof, _ = brp_max_margin(d2)
        cost = reconstruct_cost(d2, prof)
        rng = np.random.default_rng(7)
        for k in range(2):
            own = realized_value(d2, k, prof.utilities[k]) - cost.value(d2.choice(k))
            for j in range(2):
                other = expected_value(d2, j, prof.utilities[k]) - cost.value(
                    d2.choice(j)
                )
                assert own >= other - 1e-9
            for _ in range(100):
                p = stochastic(rng, (2, 2))
                trial = dataset_from_matrices(d2.prior, [p, p])
                alt = expected_value(trial, 0, prof.utilities[k]) - cost.value(p)
                assert own >= alt - 1e-9

    def test_profile_that_violates_the_residuals_has_no_cost(self, d2):
        # The utility pays for naming the other state, so no agent's labelled
        # action is a best response.
        swapped = UtilityProfile(
            utilities=(np.eye(2)[::-1],) * 2, costs=np.zeros(2), margin=0.0
        )
        with pytest.raises(ProfileMismatch, match="violates the feasibility residuals"):
            reconstruct_cost(d2, swapped)

    def test_profile_mismatch(self, d2):
        prof, _ = brp_max_margin(d2)
        other = dataset_from_matrices(
            [1 / 3] * 3, [np.eye(3), np.full((3, 3), 1 / 3)]
        )
        with pytest.raises(ProfileMismatch):
            reconstruct_cost(other, prof)


class TestProfileFiles:
    def test_round_trip(self, tmp_path, d2):
        prof, report = brp_max_margin(d2)
        path = tmp_path / "profile.json"
        write_json(str(path), profile_to_dict(d2, prof, report, metadata={"dataset": "d2"}))
        again, raw = read_json(str(path), lambda raw: (cli._fitted_model(raw), raw))
        assert raw["model"] == "umri"
        assert raw["metadata"]["dataset"] == "d2"
        assert again.margin == prof.margin
        assert np.array_equal(again.costs, prof.costs)
        assert all(np.array_equal(a, b) for a, b in zip(again.utilities, prof.utilities))

    @pytest.mark.parametrize("extra", [1, -1], ids=["one agent more", "one agent short"])
    def test_profile_of_another_agent_count_is_rejected(self, tmp_path, extra):
        d = generate_feasible_dataset(3, 2, 2, margin=0.01, seed=1).dataset
        prof, report = brp_max_margin(d)
        keep = [0, 1, 2, 2][: 3 + extra]
        other = UtilityProfile(
            utilities=tuple(prof.utilities[k] for k in keep),
            costs=prof.costs[keep],
            margin=prof.margin,
        )
        path = tmp_path / "profile.json"
        with pytest.raises(ProfileMismatch, match=f"profile has {3 + extra} agents, dataset 3"):
            write_json(str(path), profile_to_dict(d, other, report))
        assert not path.exists()


def _profile_payload(prof):
    return {
        "model": "umri",
        "margin": prof.margin,
        "agents": [
            {"agent_id": f"a{k}", "utility": u.tolist(), "cost": float(c)}
            for k, (u, c) in enumerate(zip(prof.utilities, prof.costs))
        ],
    }


def _load_family_of(tmp_path, d, prof):
    path = tmp_path / "family.json"
    etas = [1.0 + 0.1 * k for k in range(d.num_agents)]
    payload = {"etas": etas, "dataset": dataset_to_dict(d), "profile": _profile_payload(prof)}
    write_json(str(path), payload)
    return load_family(str(path))


# Every consumer of a fitted model, called with ``d`` and a UMRI profile or
# s-UMRI solution that does not match it.
FIT_CONSUMERS = {
    "nias_residuals": lambda d, prof, sol, tmp: nias_residuals(d, prof.utilities),
    "niac_residuals": lambda d, prof, sol, tmp: niac_residuals(d, prof.utilities, prof.costs),
    "reconstruct_cost": lambda d, prof, sol, tmp: reconstruct_cost(d, prof),
    "profile_to_dict": lambda d, prof, sol, tmp: profile_to_dict(d, prof),
    "NoiseFamily": lambda d, prof, sol, tmp: NoiseFamily(
        etas=[1.0 + 0.1 * k for k in range(d.num_agents)], dataset=d, fitted=prof
    ),
    "load_family": lambda d, prof, sol, tmp: _load_family_of(tmp, d, prof),
    "sbrp_residuals": lambda d, prof, sol, tmp: sbrp.sbrp_residuals(d, sol),
    "solution_to_dict": lambda d, prof, sol, tmp: sbrp.solution_to_dict(d, sol),
    "reconstruct_cost_compact": lambda d, prof, sol, tmp: sbrp.reconstruct_cost_compact(
        d, sol
    ),
}

# (extra agents, extra actions) of the fit against its dataset.
FIT_MISMATCHES = {
    "one agent short": (-1, 0),
    "one agent more": (1, 0),
    "wrong utility shape": (0, 1),
}


def _mismatched_fit(d, mismatch):
    """A UMRI profile and an s-UMRI solution off ``d`` by ``mismatch``."""
    extra_agents, extra_actions = FIT_MISMATCHES[mismatch]
    agents = d.num_agents + extra_agents
    u = np.full((d.num_states, d.num_actions + extra_actions), 0.5)
    prof = UtilityProfile(utilities=(u,) * agents, costs=np.full(agents, 0.1), margin=0.0)
    sol = sbrp.SharedUtilitySolution(
        utility=u, sensitivities=np.ones(agents), costs=np.full(agents, 0.1), margin=0.0
    )
    return prof, sol


class TestFitMatchesItsDataset:
    """One check, the residual kernel's, decides whether a fit matches its
    dataset, so every consumer rejects a mismatch the same way."""

    @pytest.mark.parametrize("mismatch", FIT_MISMATCHES)
    @pytest.mark.parametrize("consumer", FIT_CONSUMERS)
    def test_every_consumer_rejects_a_mismatched_fit(self, d2, tmp_path, consumer, mismatch):
        prof, sol = _mismatched_fit(d2, mismatch)
        with pytest.raises(ProfileMismatch, match="profile has|has shape") as raised:
            FIT_CONSUMERS[consumer](d2, prof, sol, tmp_path)
        assert isinstance(raised.value, DimensionMismatch)

    @pytest.mark.parametrize("mismatch", FIT_MISMATCHES)
    def test_cost_subcommand_exits_one(self, d2, tmp_path, capsys, mismatch):
        prof, _ = _mismatched_fit(d2, mismatch)
        data, profile, out = (tmp_path / n for n in ("d.json", "profile.json", "cost.csv"))
        save_dataset(d2, str(data))
        write_json(str(profile), _profile_payload(prof))
        argv = ["cost", "--profile", profile, "--dataset", data, "--out", out]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "profile has" in err or "has shape" in err
        assert not out.exists()


# The sequences a caller may hold a fit's utilities in, made from their
# (K, X, A) stack; a broadcast view holds one utility shared by every agent.
UTILITY_LAYOUTS = {
    "list": list,
    "tuple": tuple,
    "stack": np.copy,
    "broadcast view": lambda stack: np.broadcast_to(stack[0], stack.shape),
}
SHARED_UTILITY = np.array([[0.7, 0.2], [0.1, 0.8]])


class TestOneLayout:
    """A fit's utilities are one (K, X, A) stack from solver to file, and the
    residual kernel's check is the one door every layout passes through."""

    @pytest.mark.parametrize("layout", UTILITY_LAYOUTS)
    def test_every_layout_gives_the_stack_bits(self, d2, layout):
        costs = D2_CERTIFICATE["costs"]
        stacks = [np.stack([SHARED_UTILITY] * 2)]
        if layout != "broadcast view":  # which holds a shared utility only
            stacks.append(np.stack(D2_CERTIFICATE["utilities"]))
        for stack in stacks:
            given = UTILITY_LAYOUTS[layout](stack)
            margin = strict_margin(d2, stack, costs)
            profile = UtilityProfile.from_certificate(d2, given, costs)
            truth = GroundTruth(d2, given, costs, construction_margin=margin, seed=0)
            for got, want in (
                (nias_residuals(d2, given), nias_residuals(d2, stack)),
                (niac_residuals(d2, given, costs), niac_residuals(d2, stack, costs)),
                (strict_margin(d2, given, costs), margin),
                (profile.margin, margin),
                (profile.utilities, stack),
                (truth.utilities, stack),
            ):
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not profile.utilities.flags.writeable and not truth.utilities.flags.writeable

    @pytest.mark.parametrize(
        "ragged, text",
        [
            ([np.eye(2), np.ones((2, 1))], r"^utility 1 has shape \(2, 1\), expected \(2, 2\)$"),
            ([np.eye(2), np.eye(2), np.ones(2)], "^profile has 3 agents, dataset 2$"),
        ],
        ids=["one matrix off the shape", "one agent more"],
    )
    def test_a_ragged_sequence_is_a_profile_mismatch(self, d2, ragged, text):
        costs = [0.1] * len(ragged)
        for call in (
            lambda: nias_residuals(d2, ragged),
            lambda: niac_residuals(d2, ragged, costs),
            lambda: strict_margin(d2, ragged, costs),
            lambda: UtilityProfile.from_certificate(d2, ragged, costs),
            lambda: GroundTruth(d2, ragged, costs, construction_margin=0.0, seed=0),
        ):
            with pytest.raises(ProfileMismatch, match=text):
                call()

    def test_a_profile_of_two_shapes_names_the_first_agent_off(self, d2, tmp_path):
        # Without a dataset, the first agent's shape is the expected one.
        ragged = [np.eye(2), np.eye(2), np.ones((1, 2))]
        with pytest.raises(ProfileMismatch, match=r"^utility 2 has shape \(1, 2\), expected \(2, 2\)$"):
            UtilityProfile(ragged, np.zeros(3), margin=0.0)
        path = tmp_path / "truth.json"
        save_ground_truth(generate_feasible_dataset(2, 2, 2, 0.01, seed=1), str(path))
        raw = json.loads(path.read_text())
        raw["utilities"][1] = [[0.5]]
        path.write_text(json.dumps(raw))
        # Read from a file, the error names it.
        expected = re.escape(f"{path}: utility 1 has shape (1, 1), expected (2, 2)")
        with pytest.raises(ProfileMismatch, match=f"^{expected}$"):
            load_ground_truth(str(path))

    def test_files_round_trip_the_stack_bit_for_bit(self, d2, tmp_path):
        profile = brp_sparsest(d2)
        path = str(tmp_path / "profile.json")
        write_json(path, profile_to_dict(d2, profile))
        again = read_json(path, brp._profile_from_dict)
        assert again.utilities.shape == profile.utilities.shape
        assert again.utilities.tobytes() == profile.utilities.tobytes()
        for truth in (
            generate_feasible_dataset(3, 3, 3, 0.01, seed=1),
            generate_boundary_dataset(3, 3, 3, seed=1),
        ):
            path = str(tmp_path / "truth.json")
            save_ground_truth(truth, path)
            again = load_ground_truth(path)
            assert again.utilities.shape == truth.utilities.shape == (3, 3, 3)
            assert again.utilities.tobytes() == truth.utilities.tobytes()
            assert again.costs.tobytes() == truth.costs.tobytes()

    def test_squared_norms_sum_each_agent_as_its_own_matrix(self):
        # 100 entries an agent: numpy sums them pairwise, in one order either way.
        utilities = np.random.default_rng(5).uniform(size=(4, 10, 10))
        profile = UtilityProfile(utilities, np.zeros(4), margin=0.0)
        assert profile.squared_norms().tolist() == [float((u * u).sum()) for u in utilities]

    def test_a_shared_solution_views_its_utility_as_every_agents(self):
        sol = sbrp.SharedUtilitySolution(
            utility=SHARED_UTILITY, sensitivities=np.ones(3), costs=np.full(3, 0.1), margin=0.0
        )
        stack = sol.utilities
        assert stack.shape == (3, 2, 2) and not stack.flags.writeable
        assert np.shares_memory(stack, sol.utility)
        assert all(np.array_equal(u, SHARED_UTILITY) for u in stack)


def _row_draws():
    """Seeded random datasets (K = 2-4, X = A = 2-4) with random utilities,
    costs and epsilon; every third draw has an action one agent never takes."""
    rng = np.random.default_rng(20240)
    for draw in range(18):
        K, X = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mats = [stochastic(rng, (X, X)) for _ in range(K)]
        if draw % 3 == 0:
            mats[0][:, 0] = 0.0
            mats[0] /= mats[0].sum(axis=1, keepdims=True)
        d = dataset_from_matrices(rng.dirichlet(np.ones(X)), mats)
        utilities = rng.uniform(0.0, 1.0, size=(K, X, X))
        yield d, utilities, rng.uniform(0.0, 1.0, size=K), float(rng.uniform(0.0, 0.1))


def _looped_swap_row(program, j, k, sigma):
    """Swap row (j, k) under ``sigma`` by a loop over actions: a ascending,
    the sigma(a) term first."""
    row = np.zeros(program.num_core_vars)
    block = program.block
    u_k = row[k * block : (k + 1) * block].reshape(program.X, program.A)
    joint = program.d._stack.joint
    for a in range(program.A):
        u_k[:, sigma[a]] += joint[j][:, a]
        u_k[:, a] -= joint[k][:, a]
    row[program.K * block + k], row[program.K * block + j] = 1.0, -1.0
    return row


def _nias_expected(d, nias, eps):
    """Best-response residual plus eps per row, in row order: agent k,
    action a it takes, deviation b != a."""
    out = []
    for k in range(d.num_agents):
        defined = joint_and_posterior(d, k).defined_actions
        for a in np.flatnonzero(defined):
            out += [nias[k, a, b] + eps for b in range(d.num_actions) if b != a]
    return out


class TestKernelMatchesLoop:
    """The batched kernel keeps the per-agent loop's arithmetic bit for bit,
    which is what keeps every LP built from it unchanged."""

    @pytest.mark.parametrize("K, X", [(2, 2), (5, 4), (11, 3), (11, 10)])
    def test_bit_identical_to_per_agent_loop(self, K, X):
        rng = np.random.default_rng(K * 100 + X)
        d = random_dataset(rng, num_agents=K, num_states=X, num_actions=X)
        utilities = rng.uniform(0.0, 1.0, size=(K, X, X))
        costs = rng.uniform(0.0, 1.0, size=K)
        jps = [joint_and_posterior(d, k) for k in range(K)]
        nias = np.empty((K, X, X))
        gain, realized = np.empty((K, K)), np.empty(K)
        for k, u in enumerate(utilities):
            scores = jps[k].posterior.T @ u
            nias[k] = scores - np.diag(scores)[:, None]
            realized[k] = float((jps[k].joint * u).sum())
            for j in range(K):
                gain[j, k] = float((jps[j].joint.T @ u).max(axis=1).sum())
        niac = gain - costs[:, None] - realized[None, :] + costs[None, :]
        assert np.array_equal(nias_residuals(d, utilities), nias)
        assert np.array_equal(niac_residuals(d, utilities, costs), niac)


class TestProgramRows:
    """Each LP row, evaluated at a point, equals the residual it encodes."""

    def test_swap_rows_match_the_per_selection_loop(self):
        # All swap rows are built in one pass over actions; a cell that a
        # selection hits twice rounds as in the per-selection loop.  Cuts
        # arrive out of pair order, as across cut rounds; the program
        # groups them by pair in (j, k) order, each pair's in arrival order.
        rng = np.random.default_rng(31)
        for _ in range(12):
            K, X, A = (int(v) for v in rng.integers(2, 5, size=3))
            d = dataset_from_matrices(
                rng.dirichlet(np.ones(X)), [stochastic(rng, (X, A)) for _ in range(K)]
            )
            seed = brp._seed_cuts(d)
            extra = [
                [j, k, *rng.integers(0, A, size=A)]
                for j, k in seed[:, :2]
                for _ in range(int(rng.integers(0, 3)))
            ]
            rng.shuffle(extra)
            program = _BrpProgram(d, np.vstack([seed, np.reshape(extra, (-1, 2 + A))]))
            lp = program.build()
            swaps = [
                _looped_swap_row(program, j, k, cut[2:])
                for j in range(K)
                for k in range(K)
                for cut in program.cuts
                if j != k and (cut[0], cut[1]) == (j, k)
            ]
            core = np.vstack([program.nias_rows, *swaps])
            expected = np.hstack([core, np.ones((core.shape[0], 1))]) + 0.0
            assert lp.a.tobytes() == expected.tobytes()
        # An empty pool, as on a stage's last round, with and without weights.
        no_cuts = np.zeros((0, 2 + program.A), dtype=int)
        for weights in (None, np.full(program.K, 2.0)):
            empty = program.swap_rows(no_cuts, weights)
            assert empty.shape == (0, program.num_core_vars) and empty.dtype == float
        lp = _BrpProgram(d, no_cuts).build()
        expected = np.hstack([program.nias_rows, np.ones((len(program.nias_rows), 1))])
        assert lp.a.tobytes() == (expected + 0.0).tobytes()

    def test_umri_rows_match_residuals(self):
        # Every pair's row, not just the seeded pool's: one cut per pair j != k.
        for d, utilities, costs, eps in _row_draws():
            K = d.num_agents
            j, k = np.nonzero(~np.eye(K, dtype=bool))
            best = [
                (joint_and_posterior(d, jj).joint.T @ utilities[kk]).argmax(axis=1)
                for jj, kk in zip(j, k)
            ]
            program = _BrpProgram(d, np.column_stack([j, k, best]))
            lp = program.build()
            a, _ = lp.dense_rows()
            values = a @ np.concatenate([utilities.ravel(), costs, [eps]])
            niac = niac_residuals(d, utilities, costs)
            expected = _nias_expected(d, nias_residuals(d, utilities), eps)
            expected += [niac[j, k] + eps for j in range(K) for k in range(K) if j != k]
            assert values.shape == (len(expected),)
            assert np.allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_shared_utility_rows_match_residuals(self, monkeypatch):
        class Captured(Exception):
            pass

        def capture(lp):
            raise Captured(lp)

        monkeypatch.setattr(sbrp, "solve_lp", capture)
        rng = np.random.default_rng(7)
        for d, utilities, costs, eps in _row_draws():
            K = d.num_agents
            lam = rng.uniform(0.5, 2.0, size=K)
            with pytest.raises(Captured) as caught:
                sbrp._SbrpStages(d).utility_stage(lam)
            a, _ = caught.value.args[0].dense_rows()
            values = a @ np.concatenate([utilities[0].ravel(), costs, [eps]])
            solution = sbrp.SharedUtilitySolution(
                utility=utilities[0], sensitivities=lam, costs=costs, margin=0.0
            )
            nias, coupling = sbrp.sbrp_residuals(d, solution)
            expected = _nias_expected(d, nias, eps)
            expected += [coupling[j, k] + eps for j in range(K) for k in range(K) if j != k]
            assert values.shape == (len(expected),)
            assert np.allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_anchor_rows_match_net_value_differences(self, monkeypatch):
        # The best-response rows, then each equality row (k, k + 1) and its
        # negation: (realized - cost)_k - (realized - cost)_{k+1}.
        class Captured(Exception):
            pass

        def capture(lp):
            raise Captured(lp)

        monkeypatch.setattr(sbrp, "solve_lp", capture)
        for d, utilities, costs, eps in _row_draws():
            with pytest.raises(Captured) as caught:
                sbrp._SbrpStages(d).anchor_stage()
            a, b = caught.value.args[0].dense_rows()
            u = utilities[0]
            values = a @ np.concatenate([u.ravel(), costs, [eps]])
            nias = nias_residuals(d, [u] * d.num_agents)
            net = brp._realized(d, u) - costs
            expected = _nias_expected(d, nias, eps)
            expected += [
                sign * (net[k] - net[k + 1])
                for k in range(d.num_agents - 1)
                for sign in (1, -1)
            ]
            assert values.shape == (len(expected),)
            assert np.allclose(values, expected, rtol=0.0, atol=1e-12)
            assert not b.any()


def test_singular_basis_is_a_numerical_failure():
    # Dataset 9 of the umri-cuts benchmark workload at seed 1106607643: a
    # refactorization inside phase one once leaked the solver's private
    # singular-basis exception.
    d = generate_feasible_dataset(5, 4, 4, margin=0.01, seed=3527685849).dataset
    try:
        profile = brp_sparsest(d, 0.5)
    except NumericalFailure:
        return
    assert profile.margin == strict_margin(d, profile.utilities, profile.costs)


def _feasible(seed):
    return generate_feasible_dataset(5, 4, 4, margin=0.01, seed=seed).dataset


def test_normalized_sparse_margin_is_the_strict_margin_of_its_utilities():
    for seed in range(6):
        d = _feasible(seed)
        profile = brp_sparsest(d)
        assert profile.margin == strict_margin(d, profile.utilities, profile.costs)


def _same_profile(a, b):
    return (
        all(np.array_equal(u, v) for u, v in zip(a.utilities, b.utilities))
        and np.array_equal(a.costs, b.costs)
        and a.margin == b.margin
    )


def test_normalized_sparse_fit_is_the_normalized_raw_fit():
    for seed in range(6):
        d = _feasible(seed)
        raw = brp_sparsest(d, normalize=False)
        assert _same_profile(brp_sparsest(d), normalize_profile(d, raw))


def test_fits_on_one_object_match_fits_on_fresh_copies():
    # The sparsity stages that follow the stored margin stage must start
    # from its cuts alone, not from cuts an earlier sparsity stage added.
    fits = (
        lambda d: brp_max_margin(d)[0],
        lambda d: brp_sparsest(d, 0.5),
        lambda d: brp_sparsest(d, 0.3),
    )
    for seed in range(4):
        d = _feasible(seed)
        for fit in fits:
            assert _same_profile(fit(d), fit(_feasible(seed)))


@pytest.mark.parametrize("first", [brp_max_margin, brp_sparsest])
def test_a_margin_stage_that_raises_is_solved_again(monkeypatch, first):
    d = _feasible(0)
    real, starts = brp.solve_lp, []

    def fail_first(lp, start=None):
        starts.append(start)
        if len(starts) == 1:
            raise NumericalFailure("injected")
        return real(lp, start=start)

    monkeypatch.setattr(brp, "solve_lp", fail_first)
    with pytest.raises(NumericalFailure):
        first(d)
    profile = brp_sparsest(d)
    # Both stages solved from their first program: the margin stage's from
    # the modal basis it failed on, the sparsity stage's cold.  A later
    # round's start is a solve's basis, which keeps its final state.
    firsts = [start for start in starts if start is None or start._final is None]
    assert [type(start) for start in firsts] == [LpBasis, LpBasis, type(None)]
    assert firsts[1].status.tobytes() == firsts[0].status.tobytes()
    assert _same_profile(profile, brp_sparsest(_feasible(0)))


_STALLED_SPARSE_FIT = """
from inattention.brp import brp_max_margin, brp_sparsest, strict_margin
from inattention.synth import generate_feasible_dataset

d = generate_feasible_dataset(5, 4, 4, margin=0.01, seed=2089814968).dataset
profile = brp_sparsest(d, 0.5, normalize=False)
best, _ = brp_max_margin(d)
assert profile.margin == strict_margin(d, profile.utilities, profile.costs)
assert profile.margin >= 0.5 * best.margin - 1e-9
"""


def _run_on_one_blas_thread(code):
    """Run ``code`` in a child with BLAS on one thread, as the benchmark
    runs; BLAS fixes its thread count at start-up, hence the child."""
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, **{name: "1" for name in threads})
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(inattention.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_cut_rounds_that_stalled_the_cold_solver_converge():
    # With BLAS on one thread, cold re-solves of this dataset's sparsity
    # rounds ran into the iteration cap; warm rounds certify it.
    _run_on_one_blas_thread(_STALLED_SPARSE_FIT)


_RECOVERED_SPARSE_FIT = """
from inattention.brp import brp_max_margin, brp_sparsest
from inattention.synth import generate_feasible_dataset

d = generate_feasible_dataset(5, 4, 4, margin=0.01, seed={seed}).dataset
profile = brp_sparsest(d, 0.5)
best, _ = brp_max_margin(d)
assert profile.margin >= 0.5 * best.margin - 1e-9
"""


@pytest.mark.parametrize(
    "seed",
    [
        # Three warm sparsity rounds leave a row violated once the true rhs
        # is restored, and the dual simplex repairs it there.
        2279322413,
        # A warm sparsity round here once used up all six snap restarts of
        # the primal-only solver and fell back to the cold solve.  A cold
        # dual feasibility pass on a zero cost, all its ratios tied, pivots
        # on 1e-6 once Bland's rule takes over and loses the basis.
        1417942177,
        # A cold dual feasibility pass whose Bland rule skips small pivots
        # cycles here with period 26 until the iteration cap; the pass on
        # the objective's nonpositive part keeps Bland's rule as it is.
        3580069461,
        2491704864,
        # Dataset 38 of the umri-cuts pool at workload seed 2001: a dual pass
        # pivoted on 6.2e-7, small against its row, on an updated tableau
        # where the true value is 0 (the basis block has rank 29 of 30), and
        # the next rebuild found the basis singular.
        805974902,
    ],
)
def test_sparse_fits_that_need_the_solver_recovery_paths(seed):
    _run_on_one_blas_thread(_RECOVERED_SPARSE_FIT.format(seed=seed))


class TestWarmCutRounds:
    """Each cut round solves a fresh program that extends the previous
    round's by appended rows, continuing from that round's final simplex
    state: no round after a stage's first rebuilds its start.  The margin
    stage's first program starts from the modal basis (rebuilt, as a bare
    basis is), the sparsity stage's cold."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def spy(lp, start=None):
            sol = solve_lp(lp, start=start)
            calls.append((lp, lp.num_rows, start, sol))
            return sol

        monkeypatch.setattr(brp, "solve_lp", spy)
        return calls

    def test_rounds_after_the_first_solve_warm(self, solves):
        for seed in range(3):
            del solves[:]
            brp_sparsest(_feasible(seed))
            modal, *later = [start for _, _, start, _ in solves]
            # Two stages, the max margin and the sparsity stage; the first
            # program of the one starts from the modal basis, a bare one, of
            # the other cold, and every later round from the basis of the
            # round before.
            assert isinstance(modal, LpBasis) and modal._final is None
            assert sum(start is None for start in later) == 1
            for start, (*_, before) in zip(later, solves):
                assert start is None or start is before.basis
            assert len(solves) > 2
            for lp, rows, start, sol in solves:
                assert sol.warm == (start is not None)
                assert lp.num_rows == rows  # never extended once solved
            assert len({id(lp) for lp, *_ in solves}) == len(solves)

    def test_warm_rounds_carry_the_previous_round_over(self, solves, monkeypatch):
        taken, begin = [], lp_module._Simplex.begin

        def spied(self):
            begin(self)
            if self.start is not None:  # a warm run: did it carry?
                taken.append(self.start._extended_by(self.lp))

        monkeypatch.setattr(lp_module._Simplex, "begin", spied)
        for seed in range(3):
            del solves[:], taken[:]
            brp_sparsest(_feasible(seed))
            warm = [sol for _, _, start, sol in solves if start is not None]
            assert len(warm) > 1 and all(sol.warm for sol in warm)
            # The modal basis is a bare one; every round after a first carries on.
            assert taken == [False] + [True] * (len(warm) - 1)

    def test_sparsest_after_max_margin_solves_the_sparsity_stage_alone(self, solves):
        for seed in range(3):
            d = _feasible(seed)
            core_vars = _BrpProgram(d, brp._seed_cuts(d)).num_core_vars
            del solves[:]
            brp_sparsest(_feasible(seed))
            # The sparsity stage has no margin variable.
            fresh = [
                (rows, start is None)
                for lp, rows, start, _ in solves
                if lp.num_vars == core_vars
            ]
            assert 0 < len(fresh) < len(solves)
            del solves[:]
            brp_max_margin(d)
            once = len(solves)
            brp_max_margin(d)
            # max_margin always solves: two full margin stages, each from
            # the modal basis.
            assert len(solves) == 2 * once
            assert sum(start is None for _, _, start, _ in solves) == 0
            assert sum(start._final is None for _, _, start, _ in solves) == 2
            del solves[:]
            brp_sparsest(d)
            assert [(rows, start is None) for _, rows, start, _ in solves] == fresh

    def test_warm_rounds_match_cold_and_reference_solves(self, solves):
        warm_rounds = 0
        for seed in range(5):
            del solves[:]
            brp_max_margin(_feasible(100 + seed))
            for lp, _, start, sol in solves:
                if start is None:
                    continue
                warm_rounds += 1
                cold = solve_lp(lp)
                ref = scipy_optimum(lp, TIGHT_HIGHS)
                assert ref.status == 0
                value = sol.objective_value
                assert value == pytest.approx(cold.objective_value, rel=1e-9)
                assert value == pytest.approx(-ref.fun, rel=1e-9)
        assert warm_rounds >= 10

    def test_dual_degenerate_rounds_stay_warm(self, solves):
        # A warm round of this fit cycles through zero reduced costs in the
        # dual simplex until Bland's rule takes over; without it the round
        # runs into the iteration cap and is re-solved cold.
        d = generate_feasible_dataset(5, 6, 6, margin=0.01, seed=0).dataset
        brp_max_margin(d)
        assert len(solves) > 5
        assert all(sol.warm == (start is not None) for _, _, start, sol in solves)

    def test_the_memo_counts_stage_one_rounds(self, solves):
        for seed in range(3):
            d = _feasible(seed)
            del solves[:]
            brp_max_margin(d)
            assert d._fits["umri"].rounds == len(solves) > 1

    def test_the_round_cap_names_the_rounds_and_the_pairs_still_violated(
        self, monkeypatch
    ):
        d = _feasible(0)
        brp_max_margin(d)
        rounds = d._fits["umri"].rounds
        monkeypatch.setattr(brp, "_MAX_CUT_ROUNDS", rounds - 1)
        added = []
        separate = _BrpProgram.add_violated_selections

        def spy(program, *args):
            rows = separate(program, *args)
            added.append(program.cuts[program.cuts.shape[0] - rows.shape[0] :])
            return rows

        monkeypatch.setattr(_BrpProgram, "add_violated_selections", spy)
        with pytest.raises(NumericalFailure, match="did not converge") as caught:
            brp_max_margin(_feasible(0))
        # The last round's new cuts, one per pair it found violated.
        assert len(added) == rounds - 1 and added[-1].shape[0] > 0
        pairs = ", ".join(f"({j}, {k})" for j, k in added[-1][:, :2])
        assert str(caught.value).endswith(
            f"in {rounds - 1} rounds; agent pairs (j, k) still violated: {pairs}"
        )

    @staticmethod
    def _rounds_match_the_reference(solves, d):
        """Fit ``d``; every round and the margin agree with tight HiGHS."""
        profile, _ = brp_max_margin(d)
        for lp, _, _, sol in solves:
            ref = scipy_optimum(lp, TIGHT_HIGHS)
            assert ref.status == 0
            assert sol.objective_value == pytest.approx(-ref.fun, rel=1e-9)
        assert profile.margin == pytest.approx(-ref.fun, rel=1e-9)

    def test_small_margin_rounds_reach_the_reference_optimum(self, solves):
        # Family 19 of the noise-family benchmark pool at seed 7: its margin
        # is about 1e-3, so an improving reduced cost under the absolute
        # optimality tolerance can stop a round 1e-8 relative short.
        _, d, _ = make_noise_family(2727964093, 11, 3)
        self._rounds_match_the_reference(solves, d)

    def test_rounds_at_11_agents_by_6_classes_match_the_reference(self, solves):
        # 408 variables; the rounds grow from 440 rows to over 700.
        _, d, _ = make_noise_family(0, 11, 6)
        self._rounds_match_the_reference(solves, d)
        assert len(solves) > 10


    def test_epsilon_star_at_11_agents_by_6_classes_is_the_reference_optimum(self):
        _, d, _ = make_noise_family(0, 11, 6)
        _assert_epsilon_star_is_the_reference_optimum(d)


def _assert_epsilon_star_is_the_reference_optimum(d):
    """Fit ``d``; its eps* matches HiGHS on the final cut program, rebuilt
    from the memo's cut pool rather than taken from the rounds solved."""
    _, report = brp_max_margin(d)
    program = _BrpProgram(d, d._fits["umri"].cuts)
    lp = program.build()
    ref = scipy_optimum(lp, TIGHT_HIGHS)
    assert ref.status == 0
    assert report.epsilon_star > 0.0
    assert report.epsilon_star == pytest.approx(-ref.fun, rel=1e-9)


def _compact_optimum(d) -> float:
    """eps* of the UMRI program with every selection present at once, built
    from ``d._stack`` alone (no cut pool, no ``_BrpProgram``) and solved by
    HiGHS's dual simplex.  Columns: u (K, X, A) and c (K) in [UNIT_FLOOR,
    1], eps in [0, MARGIN_CAP], and t[p, a] in [0, 1] for each ordered pair
    p = (j, k), j != k, and action a.  Rows: the best-response rows plus
    eps; sum_x joint_j(x, a) u_k(x, b) - t[p, a] <= 0 for every b; and
    sum_a t[p, a] - realized_k(u_k) - c_j + c_k + eps <= 0.  At an optimum
    t[p, a] is the max over b, so no selection is left out.  HiGHS's
    interior-point method stops short: 1.4e-9 relative below the certified
    fit of the 11x6x6 family 2."""
    jp = d._stack
    K, X, A = jp.joint.shape
    u = np.arange(K * X * A).reshape(K, X, A)
    c = K * X * A + np.arange(K)
    eps = K * X * A + K
    j, k = np.nonzero(~np.eye(K, dtype=bool))
    t = eps + 1 + np.arange(j.size * A).reshape(j.size, A)
    blocks, row = [], 0

    def add(cols, vals):
        """Append one row per row of the matching 2-D ``cols`` and ``vals``."""
        nonlocal row
        count, width = cols.shape
        blocks.append((np.repeat(row + np.arange(count), width), cols.ravel(), vals.ravel()))
        row += count

    agent, taken = np.nonzero(jp.defined_actions)
    agent, taken, other = np.repeat(agent, A), np.repeat(taken, A), np.tile(np.arange(A), agent.size)
    agent, taken, other = (v[taken != other] for v in (agent, taken, other))
    q = jp.posterior[agent, :, taken]
    add(
        np.column_stack([u[agent, :, other], u[agent, :, taken], np.full(agent.size, eps)]),
        np.column_stack([q, -q, np.ones(agent.size)]),
    )
    p, a, b = (v.ravel() for v in np.indices((j.size, A, A)))
    add(
        np.column_stack([u[k[p], :, b], t[p, a]]),
        np.column_stack([jp.joint[j[p], :, a], -np.ones(p.size)]),
    )
    ones = np.ones(j.size)
    add(
        np.column_stack([t, u[k].reshape(j.size, -1), c[j], c[k], np.full(j.size, eps)]),
        np.column_stack([np.ones(t.shape), -jp.joint[k].reshape(j.size, -1), -ones, ones, ones]),
    )
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*blocks))
    n = eps + 1 + t.size
    lower, upper = np.full(n, UNIT_FLOOR), np.ones(n)
    lower[eps:], upper[eps] = 0.0, MARGIN_CAP
    objective = np.zeros(n)
    objective[eps] = -1.0
    res = linprog(
        objective,
        A_ub=sparse.csr_matrix((vals, (rows, cols)), shape=(row, n)),
        b_ub=np.zeros(row),
        bounds=np.column_stack([lower, upper]),
        method="highs-ds",
        options=TIGHT_HIGHS,
    )
    assert res.status == 0, res.message
    return -res.fun


class TestCompactOptimum:
    """A fit's eps* is the optimum of the program that holds every selection
    at once, a program no cut pool built.  The cut loop stops once no pair
    is violated by more than ``_CUT_TOL`` = 1e-10 absolute, so a fit can sit
    about that far below the optimum: within 1e-9 absolute, not 1e-9
    relative, at the 5x4x4 shape, whose margins are near 0.01."""

    @staticmethod
    def _assert_fit_reaches_the_compact_optimum(d):
        optimum = _compact_optimum(d)
        eps = brp_max_margin(d)[1].epsilon_star
        assert optimum > 0.0
        assert abs(eps - optimum) <= 1e-9 * max(1.0, abs(optimum))

    @pytest.mark.parametrize("seed", range(3))
    def test_at_11_agents_by_6_classes(self, seed):
        self._assert_fit_reaches_the_compact_optimum(make_noise_family(seed, 11, 6)[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_at_5_agents_by_4_classes(self, seed):
        self._assert_fit_reaches_the_compact_optimum(_feasible(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_at_11_agents_by_3_classes(self, seed):
        self._assert_fit_reaches_the_compact_optimum(make_noise_family(seed, 11, 3)[1])


class TestCutPool:
    """The cut pool is one integer array, shared read-only by the memo."""

    def test_a_repeated_candidate_adds_no_cut(self):
        rng = np.random.default_rng(5)
        d = _feasible(0)
        program = _BrpProgram(d, brp._seed_cuts(d))
        utilities = rng.uniform(0.0, 1.0, size=(d.num_agents, d.num_states, d.num_actions))
        costs = rng.uniform(0.0, 1.0, size=d.num_agents)
        # Utilities and costs in [0, 1] keep every swap residual at -2 or
        # above, so every pair is violated.
        first = program.add_violated_selections(utilities, costs, -3.0)
        assert first.shape[0] > 0
        cuts = program.cuts.copy()
        again = program.add_violated_selections(utilities, costs, -3.0)
        assert again.shape == (0, program.num_core_vars)
        assert program.cuts.tobytes() == cuts.tobytes()

    @pytest.mark.parametrize("bound", [-3.0, -0.05, 0.0])
    def test_separation_reads_the_residual_kernel(self, bound):
        # One swap-score stack gives both the violated pairs and their best
        # responses: the cuts are those of niac_residuals and the scores'
        # argmax, each a pair's best response its pool does not hold yet.
        rng = np.random.default_rng(9)
        d = _feasible(2)
        program = _BrpProgram(d, brp._seed_cuts(d))
        utilities = rng.uniform(0.0, 1.0, size=(d.num_agents, d.num_states, d.num_actions))
        costs = rng.uniform(0.0, 1.0, size=d.num_agents)
        pool = {tuple(cut) for cut in program.cuts.tolist()}
        start = program.cuts.shape[0]
        program.add_violated_selections(utilities, costs, bound)
        violated = niac_residuals(d, utilities, costs) > bound + brp._CUT_TOL
        np.fill_diagonal(violated, False)
        best = brp._swap_scores(d, utilities).argmax(axis=3)
        expected = [
            [j, k, *best[j, k]]
            for j, k in zip(*np.nonzero(violated))
            if (j, k, *best[j, k]) not in pool
        ]
        assert program.cuts[start:].tolist() == expected

    def test_the_memo_cuts_stay_as_the_margin_stage_left_them(self, monkeypatch):
        d = _feasible(1)
        brp_max_margin(d)
        cuts = d._fits["umri"].cuts
        assert not cuts.flags.writeable
        before = cuts.tobytes()
        added = []
        separate = _BrpProgram.add_violated_selections

        def spy(program, *args):
            rows = separate(program, *args)
            added.append(rows.shape[0])
            return rows

        monkeypatch.setattr(_BrpProgram, "add_violated_selections", spy)
        brp_sparsest(d)
        brp_sparsest(d)
        assert sum(added) > 0  # the sparsity stage cuts beyond the memo's pool
        assert d._fits["umri"].cuts is cuts
        assert cuts.tobytes() == before


def _permuted(d, perm):
    """``d`` with its agents reordered: agent i is ``d``'s agent perm[i]."""
    return dataset_from_matrices(
        d.prior, [d.choice(i) for i in perm], ids=[d.agents[i].agent_id for i in perm]
    )


def _seeded_pairs(d):
    """The pairs (j, k) of stage one's seed pool, as a (K, K) mask; every
    seeded cut answers with the identity."""
    cuts = brp._seed_cuts(d)
    assert (cuts[:, 2:] == np.arange(d.num_actions)).all()
    mask = np.zeros((d.num_agents, d.num_agents), dtype=bool)
    mask[cuts[:, 0], cuts[:, 1]] = True
    assert mask.sum() == cuts.shape[0]  # one cut per pair
    return mask


def _kruskal_weight(dist):
    """Weight of a minimum spanning tree of the complete graph ``dist``."""
    K = dist.shape[0]
    component = list(range(K))
    total = 0.0
    for w, j, k in sorted((dist[j, k], j, k) for j in range(K) for k in range(j + 1, K)):
        if component[j] != component[k]:
            old = component[k]
            component = [component[j] if c == old else c for c in component]
            total += w
    return total


_CHAIN = np.eye(11, k=1, dtype=bool) | np.eye(11, k=-1, dtype=bool)


class TestCutPoolSeed:
    """The first program holds, for each edge of a minimum spanning tree of
    the agents' choice matrices, the identity swap row in both directions."""

    def test_the_seed_is_the_trees_pairs_in_both_directions(self):
        rng = np.random.default_rng(43)
        for _ in range(12):
            K, X, A = (int(v) for v in rng.integers(2, 7, size=3))
            mats = [stochastic(rng, (X, A)) for _ in range(K)]
            d = dataset_from_matrices(rng.dirichlet(np.ones(X)), mats)
            tree = brp._spanning_tree(np.array(mats))
            edges = np.argwhere(tree)
            assert edges.shape[0] == K - 1
            reached = {0}
            for _ in range(K):
                reached |= {int(v) for p, c in edges for v in (p, c) if {p, c} & reached}
            assert reached == set(range(K))
            dist = np.abs(np.array(mats)[:, None] - np.array(mats)[None]).sum(axis=(2, 3))
            assert dist[tree].sum() == pytest.approx(_kruskal_weight(dist), rel=1e-12)
            # Both directions of each edge, in (j, k) order.
            pairs = sorted({(int(a), int(b)) for p, c in edges for a, b in ((p, c), (c, p))})
            assert brp._seed_cuts(d).tolist() == [[j, k, *range(A)] for j, k in pairs]

    def test_the_tree_is_built_once_per_dataset(self, monkeypatch):
        # Stage one seeds its pool; the sparsity stage starts from the memo's.
        trees = []
        spanning_tree = brp._spanning_tree

        def spy(choices):
            trees.append(choices.shape)
            return spanning_tree(choices)

        monkeypatch.setattr(brp, "_spanning_tree", spy)
        d = _feasible(0)
        brp_max_margin(d)
        brp_sparsest(d)
        assert trees == [(d.num_agents, d.num_states, d.num_actions)]

    def test_two_agents_seed_both_pairs(self, d2):
        assert brp._seed_cuts(d2).tolist() == [
            [0, 1, *range(d2.num_actions)],
            [1, 0, *range(d2.num_actions)],
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_agents_seed_the_permuted_tree(self, seed):
        # A ladder's tree joins each agent to its neighbours in eta order.
        _, d, _ = make_noise_family(seed, 11, 4)
        assert np.array_equal(_seeded_pairs(d), _CHAIN)
        perm = np.random.default_rng(seed).permutation(11)
        shuffled = _permuted(d, perm)
        assert np.array_equal(_seeded_pairs(shuffled), _CHAIN[np.ix_(perm, perm)])
        eps = brp_max_margin(d)[1].epsilon_star
        assert brp_max_margin(shuffled)[1].epsilon_star == pytest.approx(eps, rel=1e-9)

    @pytest.mark.parametrize("seed, classes", [(0, 3), (1, 4), (2, 5), (0, 6)])
    def test_shuffled_ladders_reach_the_reference_optimum(self, seed, classes):
        _, d, _ = make_noise_family(seed, 11, classes)
        perm = np.random.default_rng(100 + seed).permutation(11)
        _assert_epsilon_star_is_the_reference_optimum(_permuted(d, perm))


def _relabeled(d, perm):
    """``d`` with its classes relabeled, states and actions together: class
    i is ``d``'s class perm[i]."""
    grid = np.ix_(perm, perm)
    return dataset_from_matrices(
        d.prior[perm], [d.choice(k)[grid] for k in range(d.num_agents)]
    )


class TestModalStart:
    """The margin stage's first program starts from its slack basis with
    each agent's utility for its modal action in each state at its upper
    bound, every other column at its lower."""

    def test_the_start_raises_each_agents_modal_action_ties_to_the_lowest(self):
        # Agent 0 ties actions 0 and 1 in state 0, agent 1 actions 0 and 1
        # in state 1.
        d = dataset_from_matrices(
            [0.5, 0.5],
            [[[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]], [[0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]],
        )
        program = _BrpProgram(d, brp._seed_cuts(d))
        lp = program.build()
        start = program.modal_start(lp)
        n, m = lp.num_vars, lp.num_rows
        assert start.basic.tolist() == list(range(n, n + m))
        # u_k(x, a) is variable 6k + 3x + a.
        assert np.flatnonzero(start.status).tolist() == [0, 5, 7, 11]
        assert start.status.size == n + m
        warm, cold = solve_lp(lp, start=start), solve_lp(lp)
        assert warm.warm and warm.is_optimal
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)

    @pytest.mark.parametrize("agents", [5, 11])
    def test_epsilon_star_is_invariant_under_relabeled_classes_and_reordered_agents(
        self, agents
    ):
        # The modal rule reads the labels and breaks ties by index, so the
        # start moves with them; the optimum does not.
        for seed in range(3):
            if agents == 5:
                d = _feasible(seed)
            else:
                d = make_noise_family(seed, agents, 4)[1]
            rng = np.random.default_rng(seed)
            eps = brp_max_margin(d)[1].epsilon_star
            assert eps > 0
            for other in (
                _relabeled(d, rng.permutation(4)),
                _permuted(d, rng.permutation(agents)),
            ):
                assert brp_max_margin(other)[1].epsilon_star == pytest.approx(
                    eps, rel=1e-9
                )


_PAYLOAD_REPORT = MarginReport(
    epsilon_star=0.04, robustness=0.25, utility_norms=np.ones(2), degenerate=False
)


class TestFitPayloads:
    """Both models' fit files, key for key and in key order."""

    @staticmethod
    def _assert_payload(payload, expected):
        assert payload == expected
        assert json.dumps(payload) == json.dumps(expected)

    @pytest.mark.parametrize("extras", [False, True])
    @pytest.mark.parametrize("margin, degenerate", [(0.04, False), (1e-7, True), (-0.5, True)])
    def test_umri(self, d2, extras, margin, degenerate):
        prof = UtilityProfile(
            utilities=(np.eye(2), np.array([[0.6, 0.4], [0.4, 0.6]])),
            costs=np.array([0.2, 0.05]),
            margin=margin,
        )
        expected = {
            "model": "umri",
            "margin": margin,
            "degenerate": degenerate,
            "agents": [
                {"agent_id": "sharp", "utility": [[1.0, 0.0], [0.0, 1.0]], "cost": 0.2},
                {"agent_id": "blurry", "utility": [[0.6, 0.4], [0.4, 0.6]], "cost": 0.05},
            ],
        }
        if extras:
            payload = profile_to_dict(d2, prof, _PAYLOAD_REPORT, metadata={"dataset": "d2"})
            expected.update(robustness=0.25, metadata={"dataset": "d2"})
        else:
            payload = profile_to_dict(d2, prof)
        self._assert_payload(payload, expected)

    @pytest.mark.parametrize("extras", [False, True])
    @pytest.mark.parametrize("margin, degenerate", [(0.04, False), (1e-7, True), (-0.5, True)])
    def test_s_umri(self, d2, extras, margin, degenerate):
        sol = sbrp.SharedUtilitySolution(
            utility=np.eye(2),
            sensitivities=np.array([1.0, 2.0]),
            costs=np.array([0.2, 0.05]),
            margin=margin,
        )
        expected = {
            "model": "s-umri",
            "margin": margin,
            "degenerate": degenerate,
            "scheme": "alternating",
            "utility": [[1.0, 0.0], [0.0, 1.0]],
            "agents": [
                {"agent_id": "sharp", "lambda": 1.0, "cost": 0.2},
                {"agent_id": "blurry", "lambda": 2.0, "cost": 0.05},
            ],
        }
        if extras:
            payload = sbrp.solution_to_dict(
                d2, sol, _PAYLOAD_REPORT, metadata={"dataset": "d2"}
            )
            expected.update(robustness=0.25, metadata={"dataset": "d2"})
        else:
            payload = sbrp.solution_to_dict(d2, sol)
        self._assert_payload(payload, expected)
