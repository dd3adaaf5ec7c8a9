import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inattention.dataset import (
    dataset_to_dict,
    expected_value,
    ingest_softmax,
    joint_and_posterior,
    load_dataset,
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
    RaggedAgents,
    TooFewAgents,
)

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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            dataset_from_matrices(
                [0.5, 0.5],
                [[[0.9, 0.1], [0.1, 0.9]], [[0.3, 0.3, 0.4], [0.2, 0.4, 0.4]]],
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

    def test_only_the_mapping_form_is_accepted(self, d2):
        for other in (d2, (d2.prior, [d2.choice(0), d2.choice(1)])):
            with pytest.raises(TypeError):
                validate_dataset(other)


class TestJointPosterior:
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


class TestIngest:
    def test_two_record_example(self):
        groups = {
            "net": [
                ("img0", 0, [0.8, 0.2]),
                ("img1", 1, [0.3, 0.7]),
            ],
            "net2": [
                ("img0", 0, [0.6, 0.4]),
                ("img1", 1, [0.5, 0.5]),
            ],
        }
        d = ingest_softmax(groups)
        assert np.allclose(d.prior, [0.5, 0.5])
        assert np.allclose(d.choice(0), [[0.8, 0.2], [0.3, 0.7]])

    def test_empty_class_rejected(self):
        groups = {
            "a": [("i", 0, [0.9, 0.1])],
            "b": [("i", 0, [0.9, 0.1])],
        }
        with pytest.raises(EmptyClass):
            ingest_softmax(groups, num_states=2)

    def test_ragged_agents_rejected(self):
        groups = {
            "a": [
                ("i0", 0, [0.9, 0.1]),
                ("i1", 1, [0.2, 0.8]),
            ],
            "b": [("i0", 0, [0.9, 0.1])],
        }
        with pytest.raises(RaggedAgents):
            ingest_softmax(groups)

    def test_balanced_classes_give_uniform_prior(self):
        rng = np.random.default_rng(3)
        records = []
        for i in range(100):
            label = i % 10
            vec = rng.dirichlet(np.ones(10))
            records.append((f"img{i}", label, vec))
        d = ingest_softmax({"a": records, "b": records})
        assert np.allclose(d.prior, 0.1)

    def test_record_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        records = [(f"img{i}", i % 2, rng.dirichlet(np.ones(2))) for i in range(12)]
        shuffled = list(records)
        rng.shuffle(shuffled)
        d1 = ingest_softmax({"a": records, "b": records})
        d2 = ingest_softmax({"a": shuffled, "b": shuffled})
        assert d1.approx_equal(d2)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            (("i1", 1, [0.1, 0.2, 0.7]), DimensionMismatch, "record 'i1' of agent 'b' has 3"),
            (("i1", 1, [[0.2, 0.8]]), DimensionMismatch, "record 'i1': softmax must be 1-D"),
            (("i1", 1, [-0.1, 1.1]), NotStochastic, "record 'i1': invalid softmax entries"),
            (("i1", 1, [np.nan, 1.0]), NotStochastic, "record 'i1': invalid softmax entries"),
            (("i1", 1, [0.25, 0.5]), NotStochastic, "record 'i1': softmax sums to 0.75"),
            (("i1", -1, [0.2, 0.8]), DimensionMismatch, "record 'i1': negative true label"),
            (("i1", 2, [0.2, 0.8]), DimensionMismatch, "true label 2 outside declared 2 states"),
        ],
    )
    def test_defective_record_is_named(self, record, error, message):
        good = [("i0", 0, [0.9, 0.1]), ("i1", 1, [0.2, 0.8]), ("i2", 1, [0.4, 0.6])]
        groups = {"a": good, "b": [good[0], record, good[2]]}
        with pytest.raises(error, match=re.escape(message)):
            ingest_softmax(groups, num_states=2)

    def test_rows_are_sums_in_file_order(self, tmp_path):
        """Bit for bit the mean of each class's rows added one by one in
        file order, on a log big enough for summation order to show."""
        rng = np.random.default_rng(5)
        true_labels = rng.integers(0, 3, size=600)
        lines = ["agent_id,image_id,true_label,p0,p1,p2"]
        for agent in ("a", "b"):
            for i, label in enumerate(true_labels):
                probs = ",".join(repr(float(p)) for p in rng.dirichlet(np.full(3, 0.3)))
                lines.append(f"{agent},img{i},{label},{probs}")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")

        sums = {"a": np.zeros((3, 3)), "b": np.zeros((3, 3))}
        with open(path, newline="") as fh:
            for agent, _, label, *probs in list(csv.reader(fh))[1:]:
                sums[agent][int(label)] += np.array([float(p) for p in probs])
        counts = np.bincount(true_labels, minlength=3)
        reference = validate_dataset(
            {
                "prior": counts / counts.sum(),
                "agents": [
                    {"agent_id": a, "choice_prob": sums[a] / counts[:, None]} for a in "ab"
                ],
            }
        )

        d = ingest_softmax(read_softmax_log(str(path)))
        assert np.array_equal(d.prior, reference.prior)
        for k in range(2):
            assert np.array_equal(d.choice(k), reference.choice(k))


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
        again = validate_dataset(dataset_to_dict(d2))
        assert again.approx_equal(d2, tol=0.0)


def _loaders():
    from inattention.brp import load_profile
    from inattention.predict import load_family
    from inattention.sbrp import load_solution
    from inattention.synth import load_ground_truth

    return [load_dataset, load_profile, load_solution, load_family, load_ground_truth]


@pytest.mark.parametrize("loader", _loaders(), ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "{}", "\x00\xff"])
def test_unreadable_artifacts_are_io_failures(tmp_path, loader, text):
    path = tmp_path / "artifact.json"
    path.write_text(text, encoding="latin-1")
    # An empty mapping is a dataset with no fields: validation rejects it.
    expected = DimensionMismatch if (loader is load_dataset and text == "{}") else IoFailure
    with pytest.raises(expected, match="artifact.json" if expected is IoFailure else None):
        loader(str(path))
