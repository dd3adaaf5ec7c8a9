import numpy as np
import pytest

from inattention.brp import (
    MarginReport,
    UtilityProfile,
    brp_max_margin,
    brp_sparsest,
    load_profile,
    niac_residuals,
    nias_residuals,
    normalize_profile,
    reconstruct_cost,
    save_profile,
    strict_margin,
)
from inattention import sbrp
from inattention.brp import _BrpProgram
from inattention.dataset import expected_value, joint_and_posterior, realized_value
from inattention.errors import (
    DegenerateDataset,
    DimensionMismatch,
    NumericalFailure,
    ProfileMismatch,
)
from inattention.synth import generate_feasible_dataset

from conftest import D2_CERTIFICATE, dataset_from_matrices, random_dataset


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
        a = normalize_profile(prof)
        b = normalize_profile(prof.scaled(factor))
        ra = MarginReport.from_solution(a.margin, a.squared_norms())
        rb = MarginReport.from_solution(b.margin, b.squared_norms())
        assert ra.robustness == pytest.approx(rb.robustness, abs=1e-9)


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
        d = dataset_from_matrices(
            [0.5, 0.5],
            [
                [[0.9, 0.1], [0.1, 0.9]],
                [[0.7, 0.3], [0.3, 0.7]],
            ],
        )
        sparse = brp_sparsest(d, normalize=False)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mirrored = UtilityProfile.from_certificate(
            d, [swap @ u @ swap for u in sparse.utilities], sparse.costs
        )
        assert mirrored.total_l1() == pytest.approx(sparse.total_l1(), abs=1e-9)
        assert mirrored.margin == pytest.approx(sparse.margin, abs=1e-9)
        again = brp_sparsest(d, normalize=False)
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
        save_profile(str(path), d2, prof, report, metadata={"dataset": "d2"})
        again, raw = load_profile(str(path))
        assert raw["model"] == "umri"
        assert raw["metadata"]["dataset"] == "d2"
        assert again.margin == prof.margin
        assert np.array_equal(again.costs, prof.costs)
        assert all(np.array_equal(a, b) for a, b in zip(again.utilities, prof.utilities))


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

    def test_umri_rows_match_residuals(self):
        for d, utilities, costs, eps in _row_draws():
            K = d.num_agents
            program = _BrpProgram(d)
            for j, k in program.selections:
                scores = joint_and_posterior(d, j).joint.T @ utilities[k]
                program.selections[(j, k)] = [tuple(scores.argmax(axis=1))]
            lp = program.build(
                with_margin=True, rhs_offset=0.0, objective=np.zeros(program.num_core_vars + 1)
            )
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
