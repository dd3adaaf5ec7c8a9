"""Decision datasets for collections of stochastic classifiers.

A decision dataset is a prior over ground-truth states plus one row-stochastic
choice matrix per agent: entry (x, a) of agent k's matrix is the probability
that agent k picks action a when the true state is x.  Everything downstream
(rationality tests, cost reconstruction, prediction) consumes this object, so
this module owns its validation rules, the derived probability objects (joint,
revealed posterior, action marginal), the two value functionals, and ingestion
from raw per-image softmax logs.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .constants import ROW_SUM_TOLERANCE
from .errors import (
    DimensionMismatch,
    EmptyClass,
    IoFailure,
    NotStochastic,
    RaggedAgents,
    TooFewAgents,
)

__all__ = [
    "AgentChoiceMatrix",
    "DecisionDataset",
    "JointPosterior",
    "validate_dataset",
    "joint_and_posterior",
    "expected_value",
    "realized_value",
    "ingest_softmax",
    "load_dataset",
    "save_dataset",
    "read_softmax_log",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AgentChoiceMatrix:
    """One agent's conditional choice probabilities p(action | state).

    Rows index states, columns actions; each row is a probability vector.
    """

    agent_id: str
    choice_prob: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.choice_prob, dtype=float)
        if mat.ndim != 2:
            raise DimensionMismatch(
                f"agent {self.agent_id!r}: choice matrix must be 2-D, got ndim={mat.ndim}"
            )
        if not np.all(np.isfinite(mat)):
            raise NotStochastic(f"agent {self.agent_id!r}: non-finite choice probabilities")
        if np.any(mat < 0) or np.any(mat > 1 + 1e-12):
            raise NotStochastic(f"agent {self.agent_id!r}: entries outside [0, 1]")
        sums = mat.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise NotStochastic(
                f"agent {self.agent_id!r}: row sums deviate from 1 by {worst:.3e}"
            )
        object.__setattr__(self, "choice_prob", _frozen_array(mat))

    @property
    def num_states(self) -> int:
        return self.choice_prob.shape[0]

    @property
    def num_actions(self) -> int:
        return self.choice_prob.shape[1]


@dataclass(frozen=True)
class DecisionDataset:
    """Prior over states plus the ordered choice matrices of all agents.

    Agent order is significant and preserved: downstream it indexes training
    epochs or noise levels.  Construction checks shapes and stochasticity;
    the two-agent minimum for rationality testing is enforced by
    :func:`validate_dataset` (synthetic machinery occasionally builds
    single-agent datasets for cost assignment).

    Construction also stacks every agent's :func:`joint_and_posterior` into
    one (K, X, A) :class:`JointPosterior`, held as ``_stack``: the residual
    kernel in ``brp`` and every LP builder read it instead of recomputing.
    """

    num_states: int
    num_actions: int
    prior: np.ndarray
    agents: tuple[AgentChoiceMatrix, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (self.num_states,):
            raise DimensionMismatch(
                f"prior has shape {prior.shape}, expected ({self.num_states},)"
            )
        if np.any(prior < 0) or not np.all(np.isfinite(prior)):
            raise NotStochastic("prior entries must be finite and nonnegative")
        if abs(float(prior.sum()) - 1.0) > 1e-9:
            raise NotStochastic(f"prior sums to {float(prior.sum())!r}, not 1")
        agents = tuple(self.agents)
        if not agents:
            raise TooFewAgents("dataset has no agents")
        for agent in agents:
            if agent.choice_prob.shape != (self.num_states, self.num_actions):
                raise DimensionMismatch(
                    f"agent {agent.agent_id!r} has shape {agent.choice_prob.shape}, "
                    f"expected ({self.num_states}, {self.num_actions})"
                )
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.num_states:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {self.num_states} states"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", _frozen_array(prior))
        object.__setattr__(self, "agents", agents)
        jps = [joint_and_posterior(self, k) for k in range(len(agents))]
        fields = ("joint", "posterior", "action_marginal")
        stack = {f: _frozen_array([getattr(jp, f) for jp in jps]) for f in fields}
        object.__setattr__(self, "_stack", JointPosterior(**stack))

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a.agent_id for a in self.agents)

    def choice(self, k: int) -> np.ndarray:
        return self.agents[k].choice_prob

    def approx_equal(self, other: "DecisionDataset", tol: float = 1e-9) -> bool:
        """Entrywise comparison at the package-wide dataset tolerance."""
        if (self.num_states, self.num_actions, self.num_agents) != (
            other.num_states,
            other.num_actions,
            other.num_agents,
        ):
            return False
        if not np.allclose(self.prior, other.prior, rtol=0.0, atol=tol):
            return False
        return all(
            np.allclose(a.choice_prob, b.choice_prob, rtol=0.0, atol=tol)
            for a, b in zip(self.agents, other.agents)
        )


@dataclass(frozen=True)
class JointPosterior:
    """Joint p(x, a), revealed posterior p(x | a), and action marginal p(a).

    Posterior columns of actions with zero marginal are undefined; they are
    filled with NaN rather than silently imputed, and ``defined_actions``
    marks the columns that exist.
    """

    joint: np.ndarray
    posterior: np.ndarray
    action_marginal: np.ndarray

    @property
    def defined_actions(self) -> np.ndarray:
        return self.action_marginal > 0.0

    @property
    def has_zero_marginal(self) -> bool:
        return bool(np.any(~self.defined_actions))


def validate_dataset(raw, min_agents: int = 2) -> DecisionDataset:
    """Normalize and verify a dataset mapping in the JSON schema.

    The mapping holds ``prior``, ``agents`` (each a ``choice_prob`` matrix
    and an optional ``agent_id``) and optionally ``labels``, ``num_states``
    and ``num_actions``; input of any other type raises TypeError.
    Choice-matrix rows whose sums deviate from 1 by at most 1e-6 are
    renormalized; larger deviations reject the input.  Collections of fewer
    than ``min_agents`` agents are rejected: by default two, since a single
    agent is rationalizable by construction, so testing it is vacuous.
    """
    if not isinstance(raw, Mapping):
        raise TypeError(f"a dataset is a mapping, not {type(raw).__name__}")
    try:
        prior = np.asarray(raw["prior"], dtype=float)
        mats = [np.asarray(a["choice_prob"], dtype=float) for a in raw["agents"]]
        ids = [str(a.get("agent_id", i)) for i, a in enumerate(raw["agents"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed dataset mapping: {exc}") from exc
    labels = tuple(raw["labels"]) if raw.get("labels") else None
    if mats and mats[0].ndim == 2:
        for name, size in zip(("num_states", "num_actions"), mats[0].shape):
            if raw.get(name) is not None and raw[name] != size:
                raise DimensionMismatch(
                    f"declared {name} {raw[name]!r} does not match matrices "
                    f"{mats[0].shape}"
                )

    if len(mats) < min_agents:
        raise TooFewAgents(
            f"got {len(mats)} agent(s); need a collection of at least {min_agents}"
        )
    if prior.ndim != 1:
        raise DimensionMismatch("prior must be a vector")
    num_states = prior.shape[0]
    if any(m.ndim != 2 for m in mats):
        raise DimensionMismatch("every choice matrix must be 2-D")
    num_actions = mats[0].shape[1]
    for m, agent_id in zip(mats, ids):
        if m.shape != (num_states, num_actions):
            raise DimensionMismatch(
                f"agent {agent_id!r} has shape {m.shape}, expected "
                f"({num_states}, {num_actions})"
            )

    prior = _renormalize_vector(prior, "prior")
    agents = []
    for m, agent_id in zip(mats, ids):
        if np.any(m < -1e-12) or not np.all(np.isfinite(m)):
            raise NotStochastic(f"agent {agent_id!r}: invalid probabilities")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE + 1e-12):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise NotStochastic(
                f"agent {agent_id!r}: row sum off by {worst:.3e} "
                f"(> {ROW_SUM_TOLERANCE:g}); input considered corrupt"
            )
        # Renormalize only rows that need it, so validation is idempotent and
        # file round-trips are bit-stable.
        m = np.clip(m, 0.0, None)
        needs = np.abs(sums - 1.0) > 1e-15
        if np.any(needs):
            m = m.copy()
            m[needs] /= m[needs].sum(axis=1, keepdims=True)
        agents.append(AgentChoiceMatrix(agent_id=agent_id, choice_prob=m))
    return DecisionDataset(
        num_states=num_states,
        num_actions=num_actions,
        prior=prior,
        agents=tuple(agents),
        labels=labels,
    )


def _renormalize_vector(vec: np.ndarray, what: str) -> np.ndarray:
    if np.any(vec < -1e-12) or not np.all(np.isfinite(vec)):
        raise NotStochastic(f"{what}: invalid probabilities")
    total = float(vec.sum())
    if abs(total - 1.0) > ROW_SUM_TOLERANCE + 1e-12:
        raise NotStochastic(f"{what}: sums to {total!r}, outside tolerance")
    vec = np.clip(vec, 0.0, None)
    if abs(total - 1.0) > 1e-15:
        vec = vec / total
    return vec


def joint_and_posterior(d: DecisionDataset, k: int) -> JointPosterior:
    """Joint distribution, revealed posterior, and action marginal of agent k.

    joint(x, a) = prior(x) * choice(a | x).  The posterior column for action a
    is joint(:, a) / marginal(a) when marginal(a) > 0; a never-chosen action
    has no revealed posterior and its column is NaN.
    """
    if not 0 <= k < d.num_agents:
        raise DimensionMismatch(f"agent index {k} out of range for K={d.num_agents}")
    joint = d.prior[:, None] * d.choice(k)
    marginal = joint.sum(axis=0)
    posterior = np.full_like(joint, np.nan)
    defined = marginal > 0.0
    posterior[:, defined] = joint[:, defined] / marginal[defined]
    return JointPosterior(
        joint=_frozen_array(joint),
        posterior=_frozen_array(posterior),
        action_marginal=_frozen_array(marginal),
    )


def _check_utility(d: DecisionDataset, utility: np.ndarray) -> np.ndarray:
    u = np.asarray(utility, dtype=float)
    if u.shape != (d.num_states, d.num_actions):
        raise DimensionMismatch(
            f"utility has shape {u.shape}, expected ({d.num_states}, {d.num_actions})"
        )
    if not np.all(np.isfinite(u)) or np.any(u < 0):
        raise DimensionMismatch("utility entries must be finite and nonnegative")
    return u


def expected_value(d: DecisionDataset, k: int, utility: np.ndarray) -> float:
    """Value of agent k's information under ``utility`` with optimal actions.

    For each observed action the best response is re-chosen:
    sum_a max_b sum_x joint_k(x, a) * utility(x, b).  Ties in the inner max
    resolve to the lowest action index, which never changes the value.
    """
    u = _check_utility(d, utility)
    # scores[a, b] = sum_x joint(x, a) * u(x, b)
    scores = d._stack.joint[k].T @ u
    return float(scores.max(axis=1).sum())


def realized_value(d: DecisionDataset, k: int, utility: np.ndarray) -> float:
    """Value agent k actually realizes: sum_{x,a} joint_k(x, a) * utility(x, a).

    Never exceeds :func:`expected_value` for the same agent and utility.
    """
    u = _check_utility(d, utility)
    return float((d._stack.joint[k] * u).sum())


def ingest_softmax(
    groups: Mapping[str, Sequence[tuple[str, int, Sequence[float]]]],
    num_states: int | None = None,
    labels: Sequence[str] | None = None,
) -> DecisionDataset:
    """Aggregate per-image softmax outputs into a decision dataset.

    ``groups`` maps agent id to that agent's records over the shared test
    set, each an ``(image_id, true_label, softmax)`` triple as
    :func:`read_softmax_log` returns them: ``image_id`` names the record in
    error messages, ``true_label`` is a nonnegative int below ``num_states``,
    and ``softmax`` is a sequence of finite nonnegative floats, one per
    action, that sums to 1 within ``ROW_SUM_TOLERANCE``.  This is where the
    records are validated.

    The prior is the empirical label frequency; agent k's row x is the mean
    softmax over its records with true label x, summed in record order.  All
    agents must have scored the same test set, which is enforced as identical
    per-class record counts; anything else raises :class:`RaggedAgents`.
    """
    if not groups:
        raise RaggedAgents("no agent groups supplied")
    agent_ids = list(groups.keys())
    for agent_id in agent_ids:
        if not groups[agent_id]:
            raise RaggedAgents(f"agent {agent_id!r} has no records")

    num_actions = np.size(groups[agent_ids[0]][0][2])
    stacked = [
        _stack_records(agent_id, groups[agent_id], num_actions) for agent_id in agent_ids
    ]
    max_label = max(int(true_labels.max()) for true_labels, _ in stacked)
    if num_states is None:
        num_states = max_label + 1
    elif max_label >= num_states:
        raise DimensionMismatch(
            f"true label {max_label} outside declared {num_states} states"
        )

    counts = [np.bincount(true_labels, minlength=num_states) for true_labels, _ in stacked]
    reference = counts[0]
    for agent_id, count in zip(agent_ids[1:], counts[1:]):
        if not np.array_equal(count, reference):
            raise RaggedAgents(
                f"agent {agent_id!r} saw per-class counts {count.tolist()} "
                f"but agent {agent_ids[0]!r} saw {reference.tolist()}; "
                "all agents must share the test set"
            )
    empty = np.flatnonzero(reference == 0)
    if empty.size:
        raise EmptyClass(
            f"classes {empty.tolist()} have no records; their prior mass is undefined"
        )

    total = int(reference.sum())
    prior = reference.astype(float) / total

    agents = []
    for agent_id, (true_labels, probs) in zip(agent_ids, stacked):
        acc = np.zeros((num_states, num_actions))
        # Unbuffered and in record order: the same sums as adding row by row.
        np.add.at(acc, true_labels, probs)
        acc /= reference[:, None]
        agents.append({"agent_id": agent_id, "choice_prob": acc})

    return validate_dataset(
        {
            "num_states": num_states,
            "num_actions": num_actions,
            "prior": prior,
            "labels": list(labels) if labels is not None else None,
            "agents": agents,
        }
    )


def _stack_records(agent_id: str, records, num_actions: int):
    """One agent's triples as (true labels, softmax rows) arrays, after
    checking every record; an error names the first bad record."""
    true_labels = np.array([label for _, label, _ in records])
    try:
        probs = np.array([softmax for _, _, softmax in records], dtype=float)
    except ValueError:  # ragged rows: the loop below names the first
        probs = None
    if probs is None or probs.shape != (len(records), num_actions):
        for image_id, _, softmax in records:
            if np.ndim(softmax) != 1:
                raise DimensionMismatch(f"record {image_id!r}: softmax must be 1-D")
            if len(softmax) != num_actions:
                raise DimensionMismatch(
                    f"record {image_id!r} of agent {agent_id!r} has "
                    f"{len(softmax)} softmax entries, expected {num_actions}"
                )
        probs = np.array([softmax for _, _, softmax in records], dtype=float)
    sums = probs.sum(axis=1)
    invalid = np.any(probs < 0, axis=1) | ~np.all(np.isfinite(probs), axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE + 1e-12
    negative = true_labels < 0
    bad = np.flatnonzero(invalid | off | negative)
    if bad.size:
        i = bad[0]
        image_id = records[i][0]
        if invalid[i]:
            raise NotStochastic(f"record {image_id!r}: invalid softmax entries")
        if off[i]:
            raise NotStochastic(f"record {image_id!r}: softmax sums to {float(sums[i])!r}")
        raise DimensionMismatch(f"record {image_id!r}: negative true label")
    return true_labels, probs


# ---------------------------------------------------------------------------
# File formats


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via a temp file plus rename so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def dataset_to_dict(d: DecisionDataset) -> dict:
    out = {
        "num_states": d.num_states,
        "num_actions": d.num_actions,
        "prior": d.prior.tolist(),
        "agents": [
            {"agent_id": a.agent_id, "choice_prob": a.choice_prob.tolist()}
            for a in d.agents
        ],
    }
    if d.labels is not None:
        out["labels"] = list(d.labels)
    return out


def write_json(path: str, payload) -> None:
    """Write an artifact as indented, key-sorted JSON (atomically)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str, build: Callable[[Any], Any]):
    """Read a JSON artifact and ``build`` the object it describes.

    Every way an artifact can be unreadable raises :class:`IoFailure`
    naming the file: it cannot be opened, it is not JSON, or ``build`` finds
    a field missing or of the wrong type.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except ValueError as exc:
        raise IoFailure(f"{path} is not valid JSON: {exc}") from exc
    try:
        return build(raw)
    except IoFailure as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise IoFailure(f"{path}: missing or ill-typed field {exc!r}") from exc


def save_dataset(d: DecisionDataset, path: str) -> None:
    write_json(path, dataset_to_dict(d))


def load_dataset(path: str) -> DecisionDataset:
    return read_json(path, validate_dataset)


def read_softmax_log(path: str) -> dict[str, list[tuple[str, int, list[float]]]]:
    """Parse a softmax log CSV: agent_id,image_id,true_label,p0,...,p{A-1}.

    Returns each agent's ``(image_id, true_label, softmax)`` triples in file
    order, the input of :func:`ingest_softmax`, which validates them.
    """
    groups: dict[str, list[tuple[str, int, list[float]]]] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 4 or header[:3] != [
                "agent_id",
                "image_id",
                "true_label",
            ]:
                raise IoFailure(
                    f"{path}: expected header agent_id,image_id,true_label,p0,..."
                )
            width = len(header) - 3
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3 + width:
                    raise IoFailure(f"{path}:{lineno}: expected {3 + width} fields")
                groups.setdefault(row[0], []).append(
                    (row[1], int(row[2]), [float(v) for v in row[3:]])
                )
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except ValueError as exc:
        raise IoFailure(f"{path}: malformed numeric field: {exc}") from exc
    return groups
