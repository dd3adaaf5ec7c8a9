import csv
import dataclasses
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inattention.brp import MarginReport, UtilityProfile, _MarginStage
from inattention.costs import PiecewiseAffineCost
from inattention.dataset import (
    AgentChoiceMatrix,
    DecisionDataset,
    JointPosterior,
    _check_stochastic,
    _repaired_rows,
    dataset_to_dict,
    expected_value,
    ingest_softmax,
    joint_and_posterior,
    load_dataset,
    read_json,
    read_softmax_log,
    realized_value,
    save_dataset,
    validate_dataset,
)
from inattention.errors import (
    DimensionMismatch,
    EmptyClass,
    IoFailure,
    NotStochastic,
    NumericalFailure,
    ProfileMismatch,
    RaggedAgents,
    TooFewAgents,
)
from inattention.lp import LinearProgram, LpBasis, LpSolution, solve_lp
from inattention.predict import NoiseFamily, PredictionOutcome, predict_at
from inattention.sbrp import SharedUtilitySolution
from inattention.synth import GroundTruth

from conftest import dataset_from_matrices, random_dataset


def stochastic_rows(rng, shape):
    m = rng.uniform(0.05, 1.0, size=shape)
    return m / m.sum(axis=1, keepdims=True)


class TestValidate:
    def test_well_formed_accepted(self):
        p = [[0.9, 0.1], [0.1, 0.9]]
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        assert d.num_agents == 2
        assert np.allclose(d.choice(0), p)

    def test_row_within_tolerance_renormalized(self):
        p = np.array([[0.899999, 0.1], [0.1, 0.9]])  # row sum 0.999999
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        assert np.allclose(d.choice(0).sum(axis=1), 1.0, atol=1e-12)

    def test_row_beyond_tolerance_rejected(self):
        p = np.array([[0.85, 0.1], [0.1, 0.9]])
        with pytest.raises(NotStochastic):
            dataset_from_matrices([0.5, 0.5], [p, p])

    def test_single_agent_rejected(self):
        p = [[0.9, 0.1], [0.1, 0.9]]
        with pytest.raises(TooFewAgents):
            dataset_from_matrices([0.5, 0.5], [p])

    @pytest.mark.parametrize("min_agents", [0, 1])
    def test_no_agents_rejected_whatever_the_minimum(self, min_agents):
        with pytest.raises(TooFewAgents, match="got 0 agent"):
            validate_dataset({"prior": [1.0], "agents": []}, min_agents=min_agents)

    def test_shape_mismatch_rejected(self):
        # Agent 0's row sum defect comes first in agent order, but shapes are
        # checked before any probability.
        shape = r"^agent 'agent-1' has shape \(2, 3\), expected \(2, 2\)$"
        with pytest.raises(DimensionMismatch, match=shape):
            dataset_from_matrices(
                [0.5, 0.5],
                [[[0.9, 0.2], [0.1, 0.9]], [[0.3, 0.3, 0.4], [0.2, 0.4, 0.4]]],
            )

    def test_declared_num_actions_checked_on_its_own(self):
        p = [[0.9, 0.1], [0.1, 0.9]]
        raw = {"num_actions": 3, "prior": [0.5, 0.5], "agents": [{"choice_prob": p}] * 2}
        with pytest.raises(DimensionMismatch, match="num_actions 3"):
            validate_dataset(raw)

    def test_declared_num_states_alone_is_enough(self):
        p = [[0.9, 0.1], [0.1, 0.9]]
        raw = {"num_states": 2, "prior": [0.5, 0.5], "agents": [{"choice_prob": p}] * 2}
        assert validate_dataset(raw).num_actions == 2
        with pytest.raises(DimensionMismatch, match="num_states 3"):
            validate_dataset({**raw, "num_states": 3})

    def test_negative_entry_rejected(self):
        p = np.array([[1.1, -0.1], [0.1, 0.9]])
        with pytest.raises(NotStochastic):
            dataset_from_matrices([0.5, 0.5], [p, p])

    def test_a_later_choice_matrix_that_is_not_2d_is_rejected(self):
        agents = [{"choice_prob": np.eye(2)}, {"choice_prob": [0.5, 0.5]}]
        raw = {"prior": [0.5, 0.5], "agents": agents}
        with pytest.raises(DimensionMismatch, match="every choice matrix must be 2-D"):
            validate_dataset(raw)

    @pytest.mark.parametrize(
        "prior, text",
        [
            ([0.5, np.nan], r"entries non-finite or outside \[0, 1\]"),
            ([1.5, -0.5], r"entries non-finite or outside \[0, 1\]"),
            ([0.5, 0.4], r"row sums deviate from 1 by 1\.000e-01"),
        ],
        ids=["nan", "negative", "sum off"],
    )
    def test_invalid_prior_rejected(self, prior, text):
        # The prior is named before a defective agent.
        agents = [{"choice_prob": [[0.9, 0.1], [0.1, 0.9]]}, {"choice_prob": [[np.nan, 1.0]] * 2}]
        with pytest.raises(NotStochastic, match=f"^prior: {text}$"):
            validate_dataset({"prior": prior, "agents": agents})

    def test_only_the_mapping_form_is_accepted(self, d2):
        for other in (d2, (d2.prior, [d2.choice(0), d2.choice(1)])):
            with pytest.raises(TypeError):
                validate_dataset(other)


    def test_array_labels_are_taken(self, d2):
        raw = {**dataset_to_dict(d2), "labels": np.array(["a", "b"])}
        assert validate_dataset(raw).labels == ("a", "b")

    def test_empty_labels_mean_none(self, d2):
        assert validate_dataset({**dataset_to_dict(d2), "labels": []}).labels is None

    @pytest.mark.parametrize(
        "labels", ["ab", b"ab", {"a": 0, "b": 1}, np.array([["a", "b"]])],
        ids=["str", "bytes", "mapping", "2-D array"],
    )
    def test_labels_that_are_not_a_list_are_rejected(self, d2, labels):
        # Read as a sequence, "ab" would name the states "a" and "b".
        with pytest.raises(DimensionMismatch, match="field 'labels'"):
            validate_dataset({**dataset_to_dict(d2), "labels": labels})


_GOOD = [[0.9, 0.1], [0.2, 0.8]]
_DEFECTS = {
    "non-finite": [[0.9, 0.1], [np.nan, 0.8]],
    "negative": [[1.1, -0.1], [0.2, 0.8]],
    "row sum off": [[0.9, 0.1], [0.2, 0.7]],
}
_DEFECT_TEXT = {
    "non-finite": r"entries non-finite or outside \[0, 1\]",
    "negative": r"entries non-finite or outside \[0, 1\]",
    "row sum off": r"row sums deviate from 1 by 1\.000e-01",
}


def _raw(prior, mats):
    ids = "abc"[: len(mats)]
    return {"prior": prior, "agents": [{"agent_id": i, "choice_prob": m} for i, m in zip(ids, mats)]}


class TestOneRule:
    """The prior and every choice matrix go through one probability rule."""

    @pytest.mark.parametrize("defect", list(_DEFECTS))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_a_single_defect_names_its_agent(self, defect, k):
        mats = [_GOOD] * 3
        mats[k] = _DEFECTS[defect]
        agent = "abc"[k]
        with pytest.raises(NotStochastic, match=f"^agent '{agent}': {_DEFECT_TEXT[defect]}$"):
            validate_dataset(_raw([0.5, 0.5], mats))

    def test_the_first_of_several_defective_agents_is_named(self):
        mats = [_GOOD, _DEFECTS["row sum off"], _DEFECTS["non-finite"]]
        with pytest.raises(NotStochastic, match="^agent 'b': row sums deviate"):
            validate_dataset(_raw([0.5, 0.5], mats))

    def test_within_an_agent_invalid_entries_come_before_sums(self):
        # Row 0's sum is off, row 1 holds a negative entry.
        mats = [_GOOD, [[0.9, 0.0], [1.1, -0.1]]]
        text = r"^agent 'b': entries non-finite or outside \[0, 1\]$"
        with pytest.raises(NotStochastic, match=text):
            validate_dataset(_raw([0.5, 0.5], mats))

    def test_a_prior_is_renormalized_as_a_row_is(self):
        # Clipped to zero, the -5e-13 entry leaves a sum that differs from
        # the unclipped one; both are divided by the clipped sum.
        v = [0.3, 0.7 + 1e-8, -5e-13]
        as_prior = validate_dataset(_raw(v, [np.eye(3)] * 2))
        as_row = validate_dataset(_raw([1.0], [[v]] * 2))
        assert as_prior.prior.tobytes() == as_row.choice(0)[0].tobytes()
        clipped = np.clip(v, 0.0, None)
        assert as_prior.prior.tobytes() == (clipped / clipped.sum()).tobytes()
        assert as_prior.prior.tobytes() != (clipped / np.sum(v)).tobytes()

    def test_the_choice_stack_is_read_only_and_holds_the_agents(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, num_agents=3, num_states=4, num_actions=3)
        assert d.choices.shape == (d.num_agents, d.num_states, d.num_actions) == (3, 4, 3)
        assert [a.agent_id for a in d.agents] == list(d.agent_ids)
        for k, agent in enumerate(d.agents):
            assert agent.choice_prob.tobytes() == d.choice(k).tobytes()
        assert not d.choices.flags.writeable
        with pytest.raises(ValueError):
            d.choices[0, 0, 0] = 0.5

    def test_choice_and_agents_are_views_of_the_one_copy(self):
        caller = np.stack([np.eye(2), np.full((2, 2), 0.5)])
        before = caller.copy()
        d = DecisionDataset([0.5, 0.5], caller, ["a", "b"])
        assert not np.shares_memory(d.choices, caller)
        assert caller.flags.writeable and caller.tobytes() == before.tobytes()
        for k, agent in enumerate(d.agents):
            for view in (d.choice(k), agent.choice_prob):
                assert np.shares_memory(view, d.choices)
                assert not view.flags.writeable


# Added to one entry: 0 and steps either side of the door's tolerance
# (1e-6); or the entry replaced by a NaN or by -0.1.
_EDITS = [0.0, 1e-13, -1e-13, 1e-8, -1e-8, 5e-7, -5e-7, 1e-5, -1e-5, "nan", "-0.1"]


def _is_near(row) -> bool:
    return bool(np.all(row >= -1e-12) and abs(row.sum() - 1.0) <= 1e-6 + 1e-12)


def _repaired(row):
    clipped = np.clip(row, 0.0, None)
    return clipped / clipped.sum() if abs(clipped.sum() - 1.0) > 1e-15 else clipped


class TestTheDoor:
    """A dataset mapping is only repaired; the constructor's one rule rejects."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(2, 4), st.integers(1, 4), st.integers(1, 4)),
        # (member, row, entry, edit), each index taken modulo its size.
        edits=st.lists(st.tuples(*[st.integers(0, 4)] * 3, st.sampled_from(_EDITS)), max_size=4),
    )
    def test_accepts_exactly_near_rows_and_repairs_them(self, seed, shape, edits):
        rng = np.random.default_rng(seed)
        num_agents, num_states, num_actions = shape
        prior = rng.dirichlet(np.ones(num_states))
        stack = rng.dirichlet(np.ones(num_actions), size=(num_agents, num_states))
        stack[rng.random((num_agents, num_states)) < 0.2] = np.eye(num_actions)[-1]  # exact zeros
        # Member 0 is the prior as one row, member k + 1 agent k's matrix:
        # views, so an edit reaches the mapping.
        members = [prior[None], *stack]
        for m, x, a, edit in edits:
            rows = members[m % len(members)]
            x, a = x % rows.shape[0], a % rows.shape[1]
            rows[x, a] = np.nan if edit == "nan" else -0.1 if edit == "-0.1" else rows[x, a] + edit
        ids = [f"agent-{k}" for k in range(num_agents)]
        agents = [{"agent_id": i, "choice_prob": c} for i, c in zip(ids, stack)]
        raw = {"prior": prior, "agents": agents}

        bad = [not all(map(_is_near, rows)) for rows in members]
        if not any(bad):
            d = validate_dataset(raw)
            assert d.prior.tobytes() == _repaired(prior).tobytes()
            for k, x in np.ndindex(num_agents, num_states):
                assert d.choices[k, x].tobytes() == _repaired(stack[k, x]).tobytes()
            return
        j = bad.index(True)
        far = [row for row in members[j] if not _is_near(row)]
        if any(not np.all((row >= 0.0) & (row <= 1.0 + 1e-12)) for row in far):
            text = "entries non-finite or outside [0, 1]"
        else:
            text = f"row sums deviate from 1 by {max(abs(row.sum() - 1.0) for row in far):.3e}"
        name = "prior" if j == 0 else f"agent {ids[j - 1]!r}"
        with pytest.raises(NotStochastic) as caught:
            validate_dataset(raw)
        assert str(caught.value) == f"{name}: {text}"
        # The message is the constructor's on the repaired rows.
        repaired = [[_repaired(r) if _is_near(r) else r for r in rows] for rows in members]
        with pytest.raises(NotStochastic) as direct:
            DecisionDataset(repaired[0][0], repaired[1:], ids)
        assert str(direct.value) == str(caught.value)

    def test_a_near_row_that_clipping_alone_leaves_above_one_is_divided(self):
        # Its sum is 1 to the last bit, but clipped at zero it sums to
        # 1 + 2e-12, and its first entry lies above 1 + 1e-12.
        row = [1.0 + 2e-12, -1e-12, -1e-12]
        d = validate_dataset(_raw([1.0], [[row]] * 2))
        clipped = np.clip(row, 0.0, None)
        assert d.choice(0)[0].tobytes() == (clipped / clipped.sum()).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        positives=st.integers(1, 4),
        negatives=st.integers(0, 4),
        tiny=st.sampled_from([1e-13, 1e-12]),
        off=st.sampled_from([None, 0.0, 1e-13, 1e-9, 9e-7]),
    )
    def test_every_near_row_is_repaired_to_a_stochastic_row(
        self, seed, positives, negatives, tiny, off
    ):
        rng = np.random.default_rng(seed)
        # A stochastic row, then entries up to ``tiny`` below zero.
        row = np.concatenate(
            [rng.dirichlet(np.ones(positives)), -tiny * rng.uniform(0.5, 1.0, negatives)]
        )
        if off is None:  # the first entry makes up for the negative ones
            row[0] -= row[positives:].sum()
        else:
            row[:positives] += rng.uniform(-off, off, positives)
        assume(_is_near(row))
        _check_stochastic(_repaired_rows(row[None]), ["row"])

    @pytest.mark.parametrize(
        "prior, matrix, shape",
        [
            (1.0, [[1.0]], r"\(\), expected \(1,\)"),
            ([[0.5, 0.5]], np.eye(2), r"\(1, 2\), expected \(2,\)"),
        ],
        ids=["scalar", "2-D"],
    )
    def test_a_prior_keeps_its_shape(self, prior, matrix, shape):
        raw = {"prior": prior, "agents": [{"choice_prob": matrix}] * 2}
        with pytest.raises(DimensionMismatch, match=f"^prior has shape {shape}$"):
            validate_dataset(raw)

    def test_a_one_agent_log_is_too_few(self, tmp_path):
        groups = read_log(tmp_path, "a,i0,0,0.9,0.1", "a,i1,1,0.2,0.8")
        text = r"^got 1 agent\(s\); need a collection of at least 2$"
        with pytest.raises(TooFewAgents, match=text):
            ingest_softmax(groups)


def _stack(*mats):
    return np.array(mats, dtype=float)


class TestConstructorChecks:
    """Direct construction: the shapes, then one probability rule over the
    prior and every row of the stack."""

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ([0.5, 0.5], DimensionMismatch),
            ([[0.5, np.nan], [0.5, 0.5]], NotStochastic),
            ([[1.5, -0.5], [0.5, 0.5]], NotStochastic),
            ([[0.5, 0.4], [0.5, 0.5]], NotStochastic),
        ],
        ids=["not 2-D", "non-finite", "outside [0, 1]", "row sum off"],
    )
    def test_bad_choice_matrix_rejected(self, matrix, error):
        with pytest.raises(error):
            DecisionDataset([0.5, 0.5], [matrix], ["a"])

    @pytest.mark.parametrize(
        "prior, stack, text",
        [
            ([0.5, 0.6], _stack(np.eye(2), [[0.5, 0.4], [0.5, 0.5]]), "^prior: row sums"),
            (
                [0.5, 0.5],
                _stack(np.eye(2), [[0.5, 0.4], [0.5, 0.5]], [[np.nan, 1.0], [0.0, 1.0]]),
                "^agent 'b': row sums",
            ),
            ([0.5, 0.5], _stack([[np.inf, 0.0], [0.0, 1.0]]), "^agent 'a': entries non-finite"),
            ([0.5, 0.5], _stack([[1.0, -1e-13], [0.0, 1.0]]), "^agent 'a': entries .* outside"),
            ([0.5, 0.5], _stack([[1.0 + 1e-11, 0.0], [0.0, 1.0]]), "^agent 'a': entries .* outside"),
            (
                [0.5, 0.5],
                _stack([[0.5, 0.5 + 1e-8], [0.0, 1.0]]),
                r"^agent 'a': row sums deviate from 1 by 1\.000e-08$",
            ),
        ],
        ids=[
            "prior before agent", "first agent in order", "non-finite",
            "negative", "above 1 + 1e-12", "row off by 1e-8",
        ],
    )
    def test_one_rule_names_the_first_defect(self, prior, stack, text):
        with pytest.raises(NotStochastic, match=text):
            DecisionDataset(prior, stack, "abc"[: len(stack)])

    def test_repeated_agent_id_rejected(self, d2):
        # Tables key their rows by agent id, so two agents need two ids.
        with pytest.raises(DimensionMismatch, match="^agent id 'b' names more than one agent$"):
            DecisionDataset([0.5, 0.5], _stack(*[np.eye(2)] * 4), ["a", "b", "b", "a"])
        raw = dataset_to_dict(d2)
        raw["agents"][1]["agent_id"] = "sharp"
        with pytest.raises(DimensionMismatch, match="^agent id 'sharp' names more than one"):
            validate_dataset(raw)

    def test_repeated_state_label_rejected(self, d2):
        # Tables key their rows by state label, so two states need two labels.
        text = "^state label 'cat' names more than one state$"
        with pytest.raises(DimensionMismatch, match=text):
            DecisionDataset([0.25] * 4, _stack(np.eye(4)), ["a"], labels=["cat", "dog"] * 2)
        with pytest.raises(DimensionMismatch, match=text):
            validate_dataset({**dataset_to_dict(d2), "labels": ["cat", "cat"]})

    @pytest.mark.parametrize(
        "prior, agents, error",
        [
            ([1.2, -0.2], 1, NotStochastic),
            ([0.5, np.nan], 1, NotStochastic),
            ([0.5, 0.6], 1, NotStochastic),
            ([0.5, 0.5], 0, TooFewAgents),
        ],
        ids=["negative prior", "non-finite prior", "prior sum off", "no agents"],
    )
    def test_bad_dataset_rejected(self, prior, agents, error):
        with pytest.raises(error):
            DecisionDataset(prior, np.tile(np.eye(2), (agents, 1, 1)), "ab"[:agents])

    def test_prior_of_the_wrong_shape_rejected(self):
        shape = r"prior has shape \(3,\), expected \(2,\)"
        with pytest.raises(DimensionMismatch, match=shape):
            DecisionDataset(np.full(3, 1 / 3), _stack(np.eye(2), np.eye(2)), ["a", "b"])


class TestJointPosterior:
    @pytest.mark.parametrize("k", [-1, 2])
    def test_agent_index_out_of_range_rejected(self, d2, k):
        with pytest.raises(DimensionMismatch):
            joint_and_posterior(d2, k)

    def test_hand_example(self):
        d = dataset_from_matrices(
            [0.5, 0.5], [[[0.8, 0.2], [0.4, 0.6]], [[0.8, 0.2], [0.4, 0.6]]]
        )
        jp = joint_and_posterior(d, 0)
        assert np.allclose(jp.joint, [[0.4, 0.1], [0.2, 0.3]])
        assert np.allclose(jp.posterior[:, 0], [2 / 3, 1 / 3])
        assert np.allclose(jp.action_marginal, [0.6, 0.4])

    def test_identity_channel_gives_identity_posterior(self):
        eye = np.eye(3)
        d = dataset_from_matrices([1 / 3] * 3, [eye, eye])
        jp = joint_and_posterior(d, 0)
        assert np.allclose(jp.posterior, np.eye(3))
        assert not jp.has_zero_marginal

    def test_zero_marginal_column_is_absent(self):
        p = [[1.0, 0.0], [1.0, 0.0]]
        d = dataset_from_matrices([0.5, 0.5], [p, p])
        jp = joint_and_posterior(d, 0)
        assert jp.has_zero_marginal
        assert np.all(np.isnan(jp.posterior[:, 1]))
        assert np.all(~np.isnan(jp.posterior[:, 0]))

    def test_posterior_times_marginal_reconstructs_joint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dataset(rng, num_agents=2, num_states=3, num_actions=4)
            jp = joint_and_posterior(d, 0)
            defined = jp.defined_actions
            rebuilt = jp.posterior[:, defined] * jp.action_marginal[defined]
            assert np.allclose(rebuilt, jp.joint[:, defined], atol=1e-12)

    def test_slices_match_the_per_agent_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        mats = [stochastic_rows(rng, (4, 3)) for _ in range(3)]
        mats[1][:, 2] = 0.0  # agent 1 never takes action 2
        mats[1] /= mats[1].sum(axis=1, keepdims=True)
        d = dataset_from_matrices(rng.dirichlet(np.ones(4)), mats)
        for k in range(d.num_agents):
            joint = d.prior[:, None] * d.choice(k)
            marginal = joint.sum(axis=0)
            posterior = np.full_like(joint, np.nan)
            defined = marginal > 0.0
            posterior[:, defined] = joint[:, defined] / marginal[defined]
            jp = joint_and_posterior(d, k)
            for got, want in (
                (jp.joint, joint),
                (jp.posterior, posterior),
                (jp.action_marginal, marginal),
            ):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
        assert joint_and_posterior(d, 1).has_zero_marginal


def _value_types():
    """One case per value type: ``build(d2)`` returns an object made from
    caller-owned float64 arrays, and those arrays."""

    def profile(d):
        u0, u1, c = np.eye(2), np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.2, 0.05])
        return UtilityProfile(utilities=(u0, u1), costs=c, margin=0.04), [u0, u1, c]

    def report(d):
        norms = np.array([1.0, 2.0])
        return MarginReport(0.1, 0.1, utility_norms=norms, degenerate=False), [norms]

    def shared(d):
        u, lam, c = np.eye(2), np.array([1.0, 2.0]), np.array([0.2, 0.05])
        sol = SharedUtilitySolution(utility=u, sensitivities=lam, costs=c, margin=0.01)
        return sol, [u, lam, c]

    def cost(d):
        arrays = np.array([0.5]), np.array([d.choice(0)]), np.eye(2)[None]
        return PiecewiseAffineCost(*arrays), list(arrays)

    def ground_truth(d):
        _, (u0, u1, c) = profile(d)  # the d2 certificate
        gt = GroundTruth(d, (u0, u1), c, construction_margin=0.0, seed=0)
        return gt, [u0, u1, c]

    def family(d):
        fitted, _ = profile(d)
        etas = np.array([1.0, 1.1])
        return NoiseFamily(etas=etas, dataset=d, fitted=fitted), [etas]

    def dataset(d):
        prior, choices = np.array([0.5, 0.5]), np.array([[[0.9, 0.1], [0.1, 0.9]]] * 2)
        return DecisionDataset(prior, choices, agent_ids=("a", "b")), [prior, choices]

    def prediction(d):
        truth = np.array(d.choice(1))
        return predict_at(family(d)[0], 1.05, truth=truth), [truth]

    def lp_solution(d):
        objective, lower, upper = np.ones(2), np.zeros(2), np.ones(2)
        lp = LinearProgram(objective, lower, upper)
        lp.add_leq([1.0, 2.0], 2.0)
        return solve_lp(lp), [objective, lower, upper]

    builders = [
        profile, report, shared, cost, ground_truth, family, dataset, prediction, lp_solution,
    ]
    return [pytest.param(build, id=build.__name__) for build in builders]


@pytest.mark.parametrize("build", _value_types())
def test_value_types_compare_and_hash_by_identity(d2, build):
    # Array fields have no one truth value, so equality is identity.
    obj, twin = build(d2)[0], build(d2)[0]
    assert obj == obj and obj != twin
    assert hash(obj) == hash(obj) and obj in {obj} and twin not in {obj}


def test_every_value_type_holding_arrays_compares_by_identity():
    for cls in (
        DecisionDataset, AgentChoiceMatrix, JointPosterior, UtilityProfile, MarginReport,
        SharedUtilitySolution, GroundTruth, PiecewiseAffineCost, NoiseFamily,
        PredictionOutcome, LpBasis, LpSolution, _MarginStage,
    ):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__


def _stored_arrays(obj):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield f.name, item


@pytest.mark.parametrize("build", _value_types())
def test_value_types_hold_read_only_copies(d2, build):
    obj, caller = build(d2)
    assert all(arr.dtype == np.float64 and arr.flags.writeable for arr in caller)
    stored = list(_stored_arrays(obj))
    assert stored
    for name, arr in stored:
        assert not arr.flags.writeable, name
        assert not any(np.shares_memory(arr, c) for c in caller), name


class TestValues:
    def test_constant_utility_gives_one(self, d2):
        u = np.ones((2, 2))
        assert expected_value(d2, 0, u) == pytest.approx(1.0)
        assert realized_value(d2, 0, u) == pytest.approx(1.0)

    def test_hand_values(self, d2):
        eye = np.eye(2)
        assert expected_value(d2, 0, eye) == pytest.approx(0.9)
        assert expected_value(d2, 1, eye) == pytest.approx(0.6)
        assert realized_value(d2, 0, eye) == pytest.approx(0.9)
        u2 = np.array([[0.6, 0.4], [0.4, 0.6]])
        assert realized_value(d2, 1, u2) == pytest.approx(0.52)

    def test_dimension_mismatch(self, d2):
        with pytest.raises(DimensionMismatch):
            expected_value(d2, 0, np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            realized_value(d2, 0, np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [-0.1, np.inf, np.nan])
    @pytest.mark.parametrize("value", [expected_value, realized_value])
    def test_negative_or_non_finite_utility_rejected(self, d2, value, bad):
        u = np.ones((2, 2))
        u[1, 0] = bad
        entries = "utility entries must be finite and nonnegative"
        with pytest.raises(DimensionMismatch, match=entries):
            value(d2, 0, u)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_expected_dominates_realized(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, num_agents=2, num_states=3, num_actions=3)
        u = rng.uniform(0.0, 1.0, size=(3, 3))
        assert expected_value(d, 0, u) >= realized_value(d, 0, u) - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_garbling_never_raises_value(self, seed):
        # Post-processing actions through any stochastic channel cannot make
        # the information more valuable.
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(3))
        p = stochastic_rows(rng, (3, 4))
        garble = stochastic_rows(rng, (4, 4))
        u = rng.uniform(0.0, 1.0, size=(3, 4))
        d = dataset_from_matrices(prior, [p, p @ garble])
        assert expected_value(d, 1, u) <= expected_value(d, 0, u) + 1e-10


def read_log(tmp_path, *lines, name="log.csv", num_classes=2):
    """``lines`` written as a softmax log under ``tmp_path`` with a header of
    ``num_classes`` softmax columns, then read back by ``read_softmax_log``."""
    path = tmp_path / name
    columns = ",".join(f"p{a}" for a in range(num_classes))
    path.write_text("\n".join([f"agent_id,image_id,true_label,{columns}", *lines]) + "\n")
    return read_softmax_log(str(path))


class TestIngest:
    def test_two_record_example(self, tmp_path):
        groups = read_log(
            tmp_path,
            "net,img0,0,0.8,0.2",
            "net,img1,1,0.3,0.7",
            "net2,img0,0,0.6,0.4",
            "net2,img1,1,0.5,0.5",
        )
        d = ingest_softmax(groups)
        assert d.agent_ids == ("net", "net2")
        assert np.allclose(d.prior, [0.5, 0.5])
        assert np.allclose(d.choice(0), [[0.8, 0.2], [0.3, 0.7]])

    def test_agent_with_no_records_rejected(self, tmp_path):
        groups = read_log(tmp_path, "a,i,0,0.9,0.1", "a,j,1,0.2,0.8", "b,i,0,0.9,0.1")
        groups["b"] = groups["b"][:0]
        with pytest.raises(RaggedAgents, match="agent 'b' has no records"):
            ingest_softmax(groups)

    @pytest.mark.parametrize(
        "records",
        [
            [("i0", 0, [0.9, 0.1]), ("i1", 1, [0.2, 0.8])],
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array(
                [("i0", 0.0, (0.9, 0.1)), ("i1", 1.0, (0.2, 0.8))],
                dtype=[("image_id", object), ("true_label", "f8"), ("softmax", "f8", (2,))],
            ),
        ],
        ids=["triples", "plain array", "float labels"],
    )
    def test_records_not_in_the_reader_format_are_refused(self, tmp_path, records):
        groups = read_log(tmp_path, "a,i0,0,0.9,0.1", "a,i1,1,0.2,0.8")
        groups["b"] = records
        with pytest.raises(TypeError, match="agent 'b': records are a structured array"):
            ingest_softmax(groups)

    def test_softmax_width_differing_between_agents_rejected(self, tmp_path):
        # One log has one width, so the second agent's records are built by hand.
        groups = read_log(tmp_path, "a,i0,0,0.9,0.1", "a,i1,1,0.2,0.8")
        record = [("image_id", object), ("true_label", "i8"), ("softmax", "f8", (3,))]
        rows = [("i0", 0, (0.1, 0.2, 0.7)), ("i1", 1, (0.2, 0.2, 0.6))]
        groups["b"] = np.array(rows, dtype=record)
        message = "record 'i0' of agent 'b' has 3 softmax entries, expected 2"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            ingest_softmax(groups)

    def test_empty_class_rejected(self, tmp_path):
        groups = read_log(tmp_path, "a,i,0,0.9,0.1", "b,i,0,0.9,0.1")
        with pytest.raises(EmptyClass):
            ingest_softmax(groups, num_states=2)

    def test_ragged_agents_rejected(self, tmp_path):
        groups = read_log(tmp_path, "a,i0,0,0.9,0.1", "a,i1,1,0.2,0.8", "b,i0,0,0.9,0.1")
        with pytest.raises(RaggedAgents):
            ingest_softmax(groups)

    def test_huge_label_sizes_nothing(self, tmp_path):
        # Without num_states the largest label sets the class count; the
        # empty classes are named by count and the first ten, and memory
        # follows the records, not that count.
        groups = read_log(tmp_path, "a,i0,0,0.9,0.1", "a,i1,10000000,0.2,0.8")
        tracemalloc.start()
        try:
            with pytest.raises(EmptyClass) as caught:
                ingest_softmax(groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        message = str(caught.value)
        assert len(message) < 1000
        assert "9999999 of 10000001 classes" in message
        assert str(list(range(1, 11))) in message

    def test_ragged_agents_are_named_before_empty_classes(self, tmp_path):
        groups = read_log(
            tmp_path,
            "a,i0,0,0.9,0.1",
            "a,i1,10000000,0.2,0.8",
            "b,i0,0,0.9,0.1",
            "b,i1,0,0.2,0.8",
        )
        with pytest.raises(RaggedAgents, match="'b' saw 2 records of class 0 .* 'a' saw 1"):
            ingest_softmax(groups)

    def test_few_empty_classes_are_all_named(self, tmp_path):
        groups = read_log(tmp_path, "a,i0,1,0.9,0.1", "a,i1,4,0.2,0.8")
        listed = "3 of 5 classes have no records (the first: [0, 2, 3])"
        with pytest.raises(EmptyClass, match=re.escape(listed)):
            ingest_softmax(groups)

    def test_balanced_classes_give_uniform_prior(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [
            f"{agent},img{i},{i % 10}," + ",".join(map(repr, rng.dirichlet(np.ones(10)).tolist()))
            for agent in "ab"
            for i in range(100)
        ]
        d = ingest_softmax(read_log(tmp_path, *lines, num_classes=10))
        assert np.allclose(d.prior, 0.1)

    def test_record_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = [f"img{i},{i % 2},{p!r},{1 - p!r}" for i, p in enumerate(rng.uniform(size=12).tolist())]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        d1 = ingest_softmax(read_log(tmp_path, *(f"{a},{r}" for a in "ab" for r in rows)))
        d2 = ingest_softmax(
            read_log(tmp_path, *(f"{a},{r}" for a in "ab" for r in shuffled), name="shuffled.csv")
        )
        assert d1.approx_equal(d2)

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("b,i1,1,-0.1,1.1", NotStochastic, "record 'i1': invalid softmax entries"),
            ("b,i1,1,nan,1.0", NotStochastic, "record 'i1': invalid softmax entries"),
            ("b,i1,1,0.25,0.5", NotStochastic, "record 'i1': softmax sums to 0.75"),
            ("b,i1,-1,0.2,0.8", DimensionMismatch, "record 'i1': negative true label"),
            ("b,i1,2,0.2,0.8", DimensionMismatch, "true label 2 outside declared 2 states"),
        ],
    )
    def test_defective_record_is_named(self, tmp_path, line, error, message):
        good = ["i0,0,0.9,0.1", "i1,1,0.2,0.8", "i2,1,0.4,0.6"]
        lines = [f"a,{r}" for r in good] + [f"b,{good[0]}", line, f"b,{good[2]}"]
        with pytest.raises(error, match=re.escape(message)):
            ingest_softmax(read_log(tmp_path, *lines), num_states=2)

    def test_first_defect_in_agent_order_is_named(self, tmp_path):
        # Agent a's last record is named, not agent b's earlier one.
        lines = ["a,i0,0,0.9,0.1", "a,i1,1,0.5,0.6", "b,i0,-1,0.9,0.1", "b,i1,1,0.2,0.8"]
        with pytest.raises(NotStochastic, match="record 'i1': softmax sums to 1.1"):
            ingest_softmax(read_log(tmp_path, *lines))

    def test_rows_are_sums_in_file_order(self, tmp_path):
        """Bit for bit the mean of each class's rows added one by one in
        file order, on logs big enough for summation order to show, whether
        each agent's rows are one run, alternate, or come back in a second run."""
        rng = np.random.default_rng(5)
        for num_classes in (3, 10):
            true_labels = rng.integers(0, num_classes, size=600)
            columns = ",".join(f"p{a}" for a in range(num_classes))
            lines = {}
            for agent in ("a", "b"):
                for i, label in enumerate(true_labels):
                    probs = rng.dirichlet(np.full(num_classes, 0.3))
                    line = f"{agent},img{i},{label}," + ",".join(map(repr, probs.tolist()))
                    lines.setdefault(agent, []).append(line)
            first, second = lines["a"], lines["b"]
            layouts = {
                "agent by agent": first + second,
                "interleaved": [line for pair in zip(first, second) for line in pair],
                "agent returns": first[:250] + second + first[250:],
            }
            for layout, body in layouts.items():
                path = tmp_path / f"log{num_classes}-{layout.replace(' ', '-')}.csv"
                header = f"agent_id,image_id,true_label,{columns}"
                path.write_text("\n".join([header, *body]) + "\n")

                sums = {a: np.zeros((num_classes, num_classes)) for a in "ab"}
                for agent, records in csv_reader_groups(path).items():
                    for _, label, probs in records:
                        sums[agent][label] += np.array(probs)
                counts = np.bincount(true_labels, minlength=num_classes)
                reference = validate_dataset(
                    {
                        "prior": counts / counts.sum(),
                        "agents": [
                            {"agent_id": a, "choice_prob": sums[a] / counts[:, None]}
                            for a in "ab"
                        ],
                    }
                )

                d = ingest_softmax(read_softmax_log(str(path)))
                assert d.agent_ids == ("a", "b"), layout
                assert np.array_equal(d.prior, reference.prior), layout
                for k in range(2):
                    assert np.array_equal(d.choice(k), reference.choice(k)), layout


def csv_reader_groups(path):
    """A softmax log as ``csv.reader``, ``int()`` and ``float()`` read it:
    each agent's (image_id, label, softmax) triples in file order."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for agent, image_id, label, *probs in filter(None, list(csv.reader(fh))[1:]):
            groups.setdefault(agent, []).append((image_id, int(label), list(map(float, probs))))
    return groups


HEADER = "agent_id,image_id,true_label,p0,p1"


class TestSoftmaxLogParse:
    """``read_softmax_log`` gives what ``csv.reader`` with ``int()`` and
    ``float()`` gives, and names the line of a misshapen row."""

    @pytest.mark.parametrize(
        "body",
        [
            '"q""r,s",img0,0,0.8,0.2\n"q""r,s",img1,1,0.3,0.7\nb,img0,0,0.7,0.3\nb,img1,1,0.4,0.6\n',
            "\r\na,img0,0,0.8,0.2\r\n\r\na,img1,1,0.3,0.7\r\nb,img0,0,0.7,0.3\r\n"
            "\r\n\r\nb,img1,1,0.4,0.6\r\n\r\n",
            " a , img0 ,0, 0.8 ,0.2\n a , img1 , 1 ,0.3 , 0.7\nb,img0,0,0.7,0.3\nb,img1,1,0.4,0.6",
            "a,img0,0,0.8,0.2\nb,img0,0,0.7,0.3\na,img1,1,0.3,0.7\nb,img1,1,0.4,0.6\n",
            "a,img0,0,0.8,0.2\na,img1,1,0.3,0.7\nb,img0,0,0.7,0.3\nb,img1,1,0.4,0.6\n"
            "b,img2,1,0.2,0.8\na,img2,1,0.1,0.9\n",
        ],
        ids=["quoted id", "crlf and blank lines", "padded fields", "interleaved", "agent returns"],
    )
    def test_parse_matches_csv_reader(self, tmp_path, body):
        newline = "\r\n" if "\r\n" in body else "\n"
        path = tmp_path / "log.csv"
        path.write_bytes((HEADER + newline + body).encode())
        want = csv_reader_groups(path)
        groups = read_softmax_log(str(path))
        assert list(groups) == list(want)
        for agent, records in groups.items():
            got = [(image_id, int(label), softmax.tolist()) for image_id, label, softmax in records]
            assert got == want[agent]
            probs = np.array([softmax for _, _, softmax in want[agent]])
            assert records["softmax"].tobytes() == probs.tobytes()
        assert ingest_softmax(groups).agent_ids == tuple(want)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newline_in_a_quoted_field_reads_as_lf(self, tmp_path, newline):
        """The reader opens the log with universal newlines: the one place
        where a text field is not kept as written."""
        path = tmp_path / "log.csv"
        path.write_bytes(
            f'{HEADER}\r\n"a{newline}z",img0,0,0.8,0.2\r\nb,img0,0,0.7,0.3\r\n'.encode()
        )
        assert list(csv_reader_groups(path)) == [f"a{newline}z", "b"]
        assert list(read_softmax_log(str(path))) == ["a\nz", "b"]

    def test_header_with_a_quoted_line_break_is_skipped_whole(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text('agent_id,image_id,true_label,"p\n0",p1\na,i0,0,0.5,0.5\nb,i0,0,0.5,0.5\n')
        assert list(read_softmax_log(str(path))) == ["a", "b"]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_log_named_like_a_compressed_file_is_read_as_text(self, tmp_path, suffix):
        """numpy unpacks a path by its suffix; a log is plain text whatever its name."""
        path = tmp_path / f"log.csv{suffix}"
        path.write_text(f"{HEADER}\na,img0,0,0.8,0.2\nb,img0,0,0.7,0.3\n")
        groups = read_softmax_log(str(path))
        got = {a: [(i, int(y), p.tolist()) for i, y, p in r] for a, r in groups.items()}
        assert got == csv_reader_groups(path)

    def test_field_count_error_names_the_line_counting_blank_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(f"{HEADER}\na,i0,0,0.5,0.5\n\n\na,i1,1,0.5\nb,i0,0,0.5,0.5\n")
        with pytest.raises(IoFailure, match=re.escape(f"{path}:5: expected 5 fields")):
            read_softmax_log(str(path))

    @pytest.mark.parametrize("row", ["a,i0,0,0.5,half", "a,i0,1.5,0.5,0.5", "a,i0,,0.5,0.5"])
    def test_malformed_number_is_io_failure(self, tmp_path, row):
        path = tmp_path / "log.csv"
        path.write_text(f"{HEADER}\nb,i0,0,0.5,0.5\n{row}\n")
        with pytest.raises(IoFailure, match="malformed numeric field"):
            read_softmax_log(str(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,i0,0,0.5,half\n\na,i1,1,0.5\n", "could not convert string to float: 'half'"),
            ("a,i0,1.5,0.5,0.5\n\na,i1,1,0.5\n", "invalid literal for int() with base 10: '1.5'"),
            ("a,i1,1,0.5\n\na,i0,0,0.5,half\n", "log.csv:2: expected 5 fields"),
        ],
        ids=["number first", "label first", "field count first"],
    )
    def test_first_defect_in_file_order_is_named(self, tmp_path, body, message):
        path = tmp_path / "log.csv"
        path.write_text(f"{HEADER}\n{body}")
        with pytest.raises(IoFailure, match=re.escape(message)):
            read_softmax_log(str(path))

    @pytest.mark.parametrize("int_via_float", [False, True], ids=["this numpy", "numpy 1.23-1.26"])
    def test_fractional_label_fails_under_default_warning_filters(
        self, tmp_path, monkeypatch, int_via_float
    ):
        """numpy 1.23-1.26 parse an integer field of 1.5 as 1 after a
        DeprecationWarning, which Python hides by default in library code."""
        real_loadtxt = np.loadtxt

        def int_via_float_loadtxt(fname, dtype, **kwargs):
            with open(fname, encoding=kwargs["encoding"]) as fh:
                text = fh.read()
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            except DeprecationWarning as exc:  # how loadtxt reports a failed field
                raise ValueError("could not convert string '1.5' to int64") from exc
            return real_loadtxt(io.StringIO(text.replace(",1.5,", ",1,")), dtype, **kwargs)

        if int_via_float:
            monkeypatch.setattr(np, "loadtxt", int_via_float_loadtxt)
        path = tmp_path / "log.csv"
        path.write_text(f"{HEADER}\na,i0,0,0.5,0.5\na,i1,1.5,0.5,0.5\n")
        with warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(IoFailure, match=re.escape("base 10: '1.5'")):
                read_softmax_log(str(path))

    def test_text_that_is_not_utf8_is_io_failure(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(f"{HEADER}\na,i0,0,0.5,0.5\n".encode() + b"\xff,i1,1,0.5,0.5\n")
        with pytest.raises(IoFailure, match="log.csv"):
            read_softmax_log(str(path))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with one."""
        text = f"{HEADER}\na,img0,0,0.8,0.2\na,img1,1,0.3,0.7\nb,img0,0,0.7,0.3\nb,img1,1,0.4,0.6\n"
        written = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.csv"
            path.write_text(text, encoding=encoding)
            save_dataset(ingest_softmax(read_softmax_log(str(path))), str(tmp_path / "d.json"))
            written.append((tmp_path / "d.json").read_bytes())
        assert (tmp_path / "utf-8-sig.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert written[0] == written[1]

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["empty", "blank", "crlf"])
    def test_header_only_log_has_no_agents(self, tmp_path, body):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "\n" + body, newline="")
        groups = read_softmax_log(str(path))  # no loadtxt warning: warnings are errors
        assert groups == {}
        with pytest.raises(RaggedAgents, match="no agent groups"):
            ingest_softmax(groups)


class TestFiles:
    def test_dataset_round_trip(self, tmp_path, d2):
        path = tmp_path / "d2.json"
        save_dataset(d2, str(path))
        again = load_dataset(str(path))
        assert again.approx_equal(d2)
        assert again.agent_ids == d2.agent_ids

    def test_dataset_file_schema(self, tmp_path, d2):
        path = tmp_path / "d2.json"
        save_dataset(d2, str(path))
        raw = json.loads(path.read_text())
        assert set(raw) == {"num_states", "num_actions", "prior", "agents"}
        assert raw["agents"][0]["agent_id"] == "sharp"

    def test_softmax_log_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "agent_id,image_id,true_label,p0,p1\n"
            "a,img0,0,0.8,0.2\n"
            "a,img1,1,0.3,0.7\n"
            "b,img0,0,0.7,0.3\n"
            "b,img1,1,0.4,0.6\n"
        )
        groups = read_softmax_log(str(path))
        assert sorted(groups) == ["a", "b"]
        d = ingest_softmax(groups)
        assert np.allclose(d.choice(1), [[0.7, 0.3], [0.4, 0.6]])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(IoFailure):
            read_softmax_log(str(path))

    def test_dict_round_trip_exact(self, d2):
        rng = np.random.default_rng(11)
        for d in [d2, *(random_dataset(rng, *shape) for shape in [(3, 4, 3), (5, 10, 10)])]:
            again = validate_dataset(dataset_to_dict(d))
            assert again.agent_ids == d.agent_ids
            assert again.prior.tobytes() == d.prior.tobytes()
            assert again.choices.tobytes() == d.choices.tobytes()

    def test_labels_round_trip_byte_identically(self, tmp_path, d2):
        raw = {**dataset_to_dict(d2), "labels": ["cat", "dog"]}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(raw))
        d = load_dataset(str(first))
        assert d.labels == ("cat", "dog")
        save_dataset(d, str(first))
        save_dataset(load_dataset(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()
        assert json.loads(second.read_text())["labels"] == ["cat", "dog"]

    def test_labels_of_the_wrong_length_are_rejected(self, tmp_path, d2):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**dataset_to_dict(d2), "labels": ["a", "b", "c"]}))
        with pytest.raises(DimensionMismatch, match="3 labels for 2 states"):
            load_dataset(str(path))

    def test_prior_within_tolerance_is_renormalized(self, tmp_path, d2):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**dataset_to_dict(d2), "prior": [0.5, 0.5 + 1e-7]}))
        prior = load_dataset(str(path)).prior
        assert abs(prior.sum() - 1.0) <= 1e-15
        assert prior[1] > prior[0]

    def test_prior_beyond_tolerance_is_rejected(self, tmp_path, d2):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**dataset_to_dict(d2), "prior": [0.5, 0.5 + 1e-5]}))
        with pytest.raises(NotStochastic, match="prior: row sums deviate from 1 by 1.000e-05"):
            load_dataset(str(path))


def _loaders():
    from inattention import brp, cli
    from inattention.predict import load_family
    from inattention.synth import load_ground_truth

    # Profile and solution files are read as the CLI reads them.
    def load_profile(path):
        return read_json(path, brp._profile_from_dict)

    def load_solution(path):
        return read_json(path, cli._fitted_model)

    return [load_dataset, load_profile, load_solution, load_family, load_ground_truth]


@pytest.mark.parametrize("loader", _loaders(), ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "{}", "\x00\xff"])
def test_unreadable_artifacts_are_io_failures(tmp_path, loader, text):
    path = tmp_path / "artifact.json"
    path.write_text(text, encoding="latin-1")
    # An empty mapping is a dataset with no fields: validation rejects it.
    expected = DimensionMismatch if (loader is load_dataset and text == "{}") else IoFailure
    with pytest.raises(expected, match="artifact.json"):
        loader(str(path))


@pytest.mark.parametrize("error", [NotStochastic, ProfileMismatch, NumericalFailure])
def test_a_build_error_names_the_file_and_keeps_its_type(tmp_path, error):
    # So its exit code stays, and a command over several files names the bad one.
    path = tmp_path / "artifact.json"
    path.write_text("{}")

    def build(raw):
        raise error("bad field")

    with pytest.raises(error) as raised:
        read_json(str(path), build)
    assert type(raised.value) is error and str(raised.value) == f"{path}: bad field"
