"""Decision datasets for collections of stochastic classifiers.

A decision dataset is a prior over ground-truth states plus the (K, X, A)
stack of its agents' row-stochastic choice matrices: entry (k, x, a) is the
probability that agent k picks action a when the true state is x.  Everything downstream
(rationality tests, cost reconstruction, prediction) consumes this object, so
this module owns its validation rules, the derived probability objects (joint,
revealed posterior, action marginal), the two value functionals, and ingestion
from raw per-image softmax logs.  Only the constructor's rule rejects a prior
or choice row: the JSON form and the softmax log are parsed and their near
rows repaired, and every other row is left to that rule.

All values are read-only after construction and all operations are pure.  A
dataset object also carries a private memo of the stages fitted on it, which
saves a repeated solve and never changes a result.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .constants import ROW_SUM_TOLERANCE
from .errors import (
    DimensionMismatch,
    EmptyClass,
    InattentionError,
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
    """A read-only copy of ``values``.

    Every value type takes its array fields through here, so it holds
    read-only copies and never touches the caller's arrays.
    """
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AgentChoiceMatrix:
    """One agent's id and conditional choice probabilities p(action | state),
    as :attr:`DecisionDataset.agents` returns them: ``choice_prob`` is a view
    of the dataset's ``choices``.  Rows index states, columns actions.
    """

    agent_id: str
    choice_prob: np.ndarray


@dataclass(frozen=True, eq=False)
class DecisionDataset:
    """Prior over states plus the ordered choice matrices of all agents.

    ``choices`` is the read-only (K, X, A) stack of the agents' matrices,
    agent k's named ``agent_ids[k]``: the one copy every reader of the
    choice probabilities takes.  Agent order is significant and preserved:
    downstream it indexes training epochs or noise levels.  Construction
    copies the prior and the stack and checks them under one rule,
    :func:`_check_stochastic`, the only rule that rejects their rows: the
    file and log doors only repair near rows before they get here.  The
    two-agent minimum for rationality testing is enforced by those doors
    (synthetic machinery occasionally builds single-agent datasets for cost
    assignment).

    Construction also computes the joints, posteriors and marginals of all
    agents from the stack in one batched pass, held as the (K, X, A)
    :class:`JointPosterior` ``_stack``: the residual kernel in ``brp`` and
    every LP builder read it, and :func:`joint_and_posterior` returns one
    agent's slices of it.  Beside it, ``_fits`` maps a model name to what a
    fitting module stored of a stage it solved on this object.

    Like every value type holding arrays, a dataset compares and hashes by
    identity; :meth:`approx_equal` compares two by their entries.
    """

    prior: np.ndarray
    choices: np.ndarray
    agent_ids: tuple[str, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        prior, choices = _frozen_array(self.prior), _frozen_array(self.choices)
        ids = tuple(str(agent_id) for agent_id in self.agent_ids)
        if choices.ndim != 3:
            raise DimensionMismatch(f"choices must be a (K, X, A) stack, got ndim={choices.ndim}")
        if not len(choices):
            raise TooFewAgents("dataset has no agents")
        if len(ids) != len(choices):
            raise DimensionMismatch(f"{len(ids)} agent ids for {len(choices)} agents")
        _check_unique(ids, "agent id", "agent")
        if prior.shape != (choices.shape[1],):
            raise DimensionMismatch(f"prior has shape {prior.shape}, expected ({choices.shape[1]},)")
        _check_stochastic(prior[None, None], ["prior"])
        _check_stochastic(choices, [f"agent {agent_id!r}" for agent_id in ids])
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != choices.shape[1]:
                raise DimensionMismatch(f"{len(labels)} labels for {choices.shape[1]} states")
            _check_unique(labels, "state label", "state")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "agent_ids", ids)
        object.__setattr__(self, "_stack", _joint_posterior(prior, choices))
        object.__setattr__(self, "_fits", {})

    @property
    def num_agents(self) -> int:
        return self.choices.shape[0]

    @property
    def num_states(self) -> int:
        return self.choices.shape[1]

    @property
    def num_actions(self) -> int:
        return self.choices.shape[2]

    @property
    def agents(self) -> tuple[AgentChoiceMatrix, ...]:
        return tuple(map(AgentChoiceMatrix, self.agent_ids, self.choices))

    def choice(self, k: int) -> np.ndarray:
        return self.choices[k]

    def approx_equal(self, other: "DecisionDataset", tol: float = 1e-9) -> bool:
        """Entrywise comparison at the package-wide dataset tolerance."""
        if self.choices.shape != other.choices.shape:
            return False
        return np.allclose(self.prior, other.prior, rtol=0.0, atol=tol) and np.allclose(
            self.choices, other.choices, rtol=0.0, atol=tol
        )


def _check_unique(names: tuple[str, ...], kind: str, named: str) -> None:
    """Raise DimensionMismatch naming the first of ``names`` repeated."""
    if len(set(names)) < len(names):
        repeated = next(name for n, name in enumerate(names) if name in names[:n])
        raise DimensionMismatch(f"{kind} {repeated!r} names more than one {named}")


def _check_stochastic(stack: np.ndarray, names: list[str]) -> None:
    """Raise :class:`NotStochastic` naming the first member of ``stack``
    (one per name along axis 0, rows along the last axis) with an entry
    non-finite or outside [0, 1 + 1e-12], or a row sum off 1 by more than
    1e-9."""
    entries = stack.reshape(len(names), -1)
    invalid = ~np.all((entries >= 0.0) & (entries <= 1.0 + 1e-12), axis=1)  # NaN too
    off = np.abs(stack.sum(axis=-1) - 1.0).reshape(len(names), -1).max(axis=1, initial=0.0)
    bad = invalid | (off > 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        if invalid[k]:
            raise NotStochastic(f"{names[k]}: entries non-finite or outside [0, 1]")
        raise NotStochastic(f"{names[k]}: row sums deviate from 1 by {off[k]:.3e}")


@dataclass(frozen=True, eq=False)
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


def _joint_posterior(prior: np.ndarray, choices: np.ndarray) -> JointPosterior:
    """The read-only (K, X, A) joints, posteriors and action marginals of
    the stacked choice matrices ``choices`` under ``prior``, in one batched
    pass: a dataset's ``_stack``, or a predicted strategy's."""
    joint = prior[None, :, None] * choices
    marginal = joint.sum(axis=1)
    posterior, by_action = np.empty_like(joint), marginal[:, None, :]
    posterior.fill(np.nan)
    np.divide(joint, by_action, out=posterior, where=by_action > 0.0)
    for arr in (joint, posterior, marginal):  # made here, so frozen in place
        arr.setflags(write=False)
    return JointPosterior(joint, posterior, marginal)


def validate_dataset(raw, min_agents: int = 2) -> DecisionDataset:
    """Normalize and verify a dataset mapping in the JSON schema.

    The mapping holds ``prior``, ``agents`` (each a ``choice_prob`` matrix
    and an optional ``agent_id``) and optionally ``labels``, ``num_states``
    and ``num_actions``; input of any other type raises TypeError.
    Collections of fewer than ``min_agents`` agents are rejected: by default
    two, since a single agent is rationalizable by construction, so testing
    it is vacuous.  An empty collection is rejected whatever ``min_agents``
    says.

    Every matrix must be 2-D and of the first one's shape, or the first
    agent of another shape is named.  Then :func:`_repaired_rows` repairs
    the near rows of the prior, as a (1, X) stack, and of all matrices, as
    one (K, X, A) stack, and passes every other row on unchanged.  The
    result goes to :class:`DecisionDataset`, whose one rule rejects any row
    still not stochastic, naming the prior, or else the first defective
    agent in agent order, and also rejects a repeated agent id or state
    label.
    """
    if not isinstance(raw, Mapping):
        raise TypeError(f"a dataset is a mapping, not {type(raw).__name__}")
    try:
        prior = np.asarray(raw["prior"], dtype=float)
        mats = [np.asarray(a["choice_prob"], dtype=float) for a in raw["agents"]]
        ids = [str(a.get("agent_id", i)) for i, a in enumerate(raw["agents"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed dataset mapping: {exc}") from exc
    labels = raw.get("labels")
    if not isinstance(labels, (list, tuple, np.ndarray, type(None))) or np.ndim(labels) > 1:
        # A string would read as its characters, a mapping as its keys.
        raise DimensionMismatch("field 'labels' must be a flat list of state names")
    labels = tuple(labels) if labels is not None and len(labels) else None
    if mats and mats[0].ndim == 2:
        for name, size in zip(("num_states", "num_actions"), mats[0].shape):
            if raw.get(name) is not None and raw[name] != size:
                raise DimensionMismatch(
                    f"declared {name} {raw[name]!r} does not match matrices {mats[0].shape}"
                )

    least = max(min_agents, 1)  # a dataset holds at least one agent
    if len(mats) < least:
        raise TooFewAgents(f"got {len(mats)} agent(s); need a collection of at least {least}")
    if any(m.ndim != 2 for m in mats):
        raise DimensionMismatch("every choice matrix must be 2-D")
    _check_shapes(mats, ids, mats[0].shape)

    prior = _repaired_rows(prior.reshape(1, -1)).reshape(prior.shape)
    return DecisionDataset(prior, _repaired_rows(np.stack(mats)), ids, labels)


def _check_shapes(mats, ids, shape: tuple[int, int]) -> None:
    """Raise naming the first agent whose choice matrix is not of ``shape``."""
    for m, agent_id in zip(mats, ids):
        if m.shape != shape:
            raise DimensionMismatch(
                f"agent {agent_id!r} has shape {m.shape}, expected ({shape[0]}, {shape[1]})"
            )


def _repaired_rows(stack: np.ndarray) -> np.ndarray:
    """The probability rows of ``stack`` (along its last axis), each near
    row repaired and every other row kept for the constructor to reject.

    A row is near when its entries are at least -1e-12 and its sum is off 1
    by at most ``ROW_SUM_TOLERANCE`` + 1e-12 (a non-finite entry fails one
    of the two).  A near row is clipped at zero, then divided by its clipped
    sum only if that sum is off 1 by more than 1e-15, so every near row
    comes out stochastic, repair is idempotent and file round-trips are
    bit-stable.
    """
    near = np.all(stack >= -1e-12, axis=-1)
    near &= np.abs(stack.sum(axis=-1) - 1.0) <= ROW_SUM_TOLERANCE + 1e-12
    rows = np.where(near[..., None], np.clip(stack, 0.0, None), stack)
    needs = near & (np.abs(rows.sum(axis=-1) - 1.0) > 1e-15)
    rows[needs] /= rows[needs].sum(axis=-1, keepdims=True)
    return rows


def joint_and_posterior(d: DecisionDataset, k: int) -> JointPosterior:
    """Joint distribution, revealed posterior, and action marginal of agent k.

    joint(x, a) = prior(x) * choice(a | x).  The posterior column for action a
    is joint(:, a) / marginal(a) when marginal(a) > 0; a never-chosen action
    has no revealed posterior and its column is NaN.  The arrays are agent
    k's read-only slices of the dataset's ``_stack``.
    """
    if not 0 <= k < d.num_agents:
        raise DimensionMismatch(f"agent index {k} out of range for K={d.num_agents}")
    s = d._stack
    return JointPosterior(s.joint[k], s.posterior[k], s.action_marginal[k])


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
    groups: Mapping[str, np.ndarray], num_states: int | None = None
) -> DecisionDataset:
    """Aggregate per-image softmax outputs into a decision dataset.

    ``groups`` maps agent id to that agent's records over the shared test
    set in the format :func:`read_softmax_log` returns: a structured array
    with the fields ``image_id``, which names the record in errors, an
    integer ``true_label`` in [0, ``num_states``) and a 2-D float
    ``softmax`` of finite nonnegative rows, one entry per action, summing to
    1 within ``ROW_SUM_TOLERANCE``.  Any other value raises TypeError naming
    the agent.  This is where records are validated, all agents at once: an
    error names the first bad record in agent order, then record order.

    The prior is the empirical label frequency; agent k's row x is the mean
    softmax over its records with true label x.  One ``np.bincount`` counts
    the records of every (agent, class) pair and one sums every (agent,
    class, action) cell, in record order.  All agents must have scored the
    same test set, which is enforced as identical per-class record counts;
    anything else raises :class:`RaggedAgents`.  A log of one agent raises
    :class:`TooFewAgents`.  The prior and the means are repaired as
    :func:`validate_dataset` repairs rows and go to :class:`DecisionDataset`.
    """
    if not groups:
        raise RaggedAgents("no agent groups supplied")
    agent_ids = list(groups)
    columns = [_record_columns(agent_id, groups[agent_id]) for agent_id in agent_ids]
    num_actions = columns[0][2].shape[1]
    for agent_id, (image_ids, _, probs) in zip(agent_ids, columns):
        if not len(probs):
            raise RaggedAgents(f"agent {agent_id!r} has no records")
        if probs.shape[1] != num_actions:
            raise DimensionMismatch(
                f"record {image_ids[0]!r} of agent {agent_id!r} has "
                f"{probs.shape[1]} softmax entries, expected {num_actions}"
            )
    sizes = [len(probs) for _, _, probs in columns]
    true_labels = np.concatenate([labels for _, labels, _ in columns], dtype=np.int64)
    probs = np.concatenate([probs for _, _, probs in columns], dtype=float)

    sums = probs.sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE + 1e-12)  # NaN and inf sums too
    if off.any() or probs.min() < 0 or true_labels.min() < 0:
        # Only a defect pays for finding its record.
        invalid = np.any(probs < 0, axis=1) | ~np.all(np.isfinite(probs), axis=1)
        i = int(np.flatnonzero(invalid | off | (true_labels < 0))[0])
        starts = np.cumsum([0, *sizes])
        k = int(np.searchsorted(starts, i, side="right")) - 1
        image_id = columns[k][0][i - starts[k]]
        if invalid[i]:
            raise NotStochastic(f"record {image_id!r}: invalid softmax entries")
        if off[i]:
            raise NotStochastic(f"record {image_id!r}: softmax sums to {float(sums[i])!r}")
        raise DimensionMismatch(f"record {image_id!r}: negative true label")

    # Counts run over the labels present, so one huge label sizes nothing.
    present = np.unique(true_labels)
    max_label = int(present[-1])
    if num_states is None:
        num_states = max_label + 1
    elif max_label >= num_states:
        raise DimensionMismatch(f"true label {max_label} outside declared {num_states} states")

    num_agents = len(agent_ids)
    agent_of = np.repeat(np.arange(num_agents), sizes)
    pair = agent_of * present.size + np.searchsorted(present, true_labels)
    counts = np.bincount(pair, minlength=num_agents * present.size).reshape(num_agents, -1)
    reference = counts[0]
    ragged = np.argwhere(counts != reference)  # (agent, class) pairs, agent first
    if ragged.size:
        k, i = ragged[0]
        raise RaggedAgents(
            f"agent {agent_ids[k]!r} saw {counts[k, i]} records of class {present[i]} "
            f"but agent {agent_ids[0]!r} saw {reference[i]}; all agents must share the test set"
        )
    if present.size < num_states:
        # The first present.size + 10 classes hold the first ten empty ones.
        empty = np.ones(min(num_states, present.size + 10), dtype=bool)
        empty[present[present < empty.size]] = False
        raise EmptyClass(
            f"{num_states - present.size} of {num_states} classes have no records "
            f"(the first: {np.flatnonzero(empty)[:10].tolist()}); "
            "their prior mass is undefined"
        )
    if num_agents < 2:
        raise TooFewAgents(f"got {num_agents} agent(s); need a collection of at least 2")

    # Every label is present now, so a label is its class's index.  bincount
    # adds its weights in record order: the sums of adding row by row.
    cell = (agent_of * num_states + true_labels)[:, None] * num_actions + np.arange(num_actions)
    acc = np.bincount(cell.ravel(), probs.ravel(), minlength=num_agents * num_states * num_actions)
    acc = acc.reshape(num_agents, num_states, num_actions) / reference[:, None]
    prior = _repaired_rows(reference[None] / int(reference.sum()))[0]
    return DecisionDataset(prior, _repaired_rows(acc), agent_ids)


def _record_columns(agent_id: str, records):
    """The ``image_id``, ``true_label`` and ``softmax`` columns of one agent's
    records, which must be a structured array as the log reader returns."""
    names = records.dtype.names if isinstance(records, np.ndarray) and records.ndim == 1 else None
    if names and {"image_id", "true_label", "softmax"} <= set(names):
        labels, probs = records["true_label"], records["softmax"]
        if labels.dtype.kind in "iu" and probs.dtype.kind == "f" and probs.ndim == 2:
            return records["image_id"], labels, probs
    raise TypeError(
        f"agent {agent_id!r}: records are a structured array of image_id, integer "
        f"true_label and 2-D float softmax fields, as read_softmax_log returns, "
        f"not {type(records).__name__}"
    )


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
            {"agent_id": agent_id, "choice_prob": choice.tolist()}
            for agent_id, choice in zip(d.agent_ids, d.choices)
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
    a field missing or of the wrong type.  Any other domain error ``build``
    raises is raised again, of its type, with the file's name in front.
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
    except InattentionError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise IoFailure(f"{path}: missing or ill-typed field {exc!r}") from exc


def save_dataset(d: DecisionDataset, path: str) -> None:
    write_json(path, dataset_to_dict(d))


def load_dataset(path: str) -> DecisionDataset:
    return read_json(path, validate_dataset)


def read_softmax_log(path: str) -> dict[str, np.ndarray]:
    """Parse a softmax log CSV: agent_id,image_id,true_label,p0,...,p{A-1}.

    The log is UTF-8 text; a leading byte-order mark, which spreadsheet
    exports write, is dropped.  ``np.loadtxt`` reads the body from the path
    in chunks, with universal newlines, so a CR or CRLF inside a quoted
    field reads as LF; a log named like a compressed file, which numpy would
    unpack, is read line by line.

    Returns each agent, in first-seen order, with its records in file order
    as a structured array of the fields ``image_id`` (text), ``true_label``
    (int64) and ``softmax`` (A float64 entries): the one input format of
    :func:`ingest_softmax`, which validates the records.  Agents are grouped
    by runs of equal ids: an agent of one run gets a view of the parsed
    rows; any other gathers its runs.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if len(header) < 4 or header[:3] != ["agent_id", "image_id", "true_label"]:
                raise IoFailure(f"{path}: expected header agent_id,image_id,true_label,p0,...")
            width = len(header) - 3
            record = [("image_id", object), ("true_label", "i8"), ("softmax", "f8", (width,))]
            dtype = [("agent_id", object), ("record", record)]
            fh.seek(0)  # for the handle, as for the path, skiprows counts from the top
            source = fh if os.path.splitext(path)[1] in (".gz", ".bz2", ".xz", ".lzma") else path
            try:
                with warnings.catch_warnings():
                    # A header-only log has no records.  numpy 1.23-1.26 parse
                    # an integer field of 1.5 as 1 with a DeprecationWarning.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    warnings.filterwarnings("error", category=DeprecationWarning)
                    rows = np.loadtxt(
                        source, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1,
                        skiprows=reader.line_num, encoding="utf-8",
                    )
            except ValueError:
                # loadtxt counts records, not lines: parse row by row up to the
                # first defect, so its error names the line as csv.reader does.
                fh.seek(0)
                for lineno, row in enumerate(csv.reader(fh), start=1):
                    if lineno > 1 and row:
                        if len(row) != 3 + width:
                            raise IoFailure(f"{path}:{lineno}: expected {3 + width} fields")
                        try:  # Python also reads 0_5 and non-ASCII digits; loadtxt does not.
                            int(row[2]), [float(v) for v in row[3:]]
                            for v in (v for v in row[2:] if "_" in v or not v.isascii()):
                                raise ValueError(f"not a plain decimal number: {v!r}")
                        except ValueError as exc:
                            raise IoFailure(f"{path}:{lineno}: malformed numeric field: {exc}")
                raise
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except ValueError as exc:
        raise IoFailure(f"{path}: malformed numeric field: {exc}") from exc
    if not rows.size:
        return {}
    agents, records = rows["agent_id"], rows["record"]
    starts = np.flatnonzero(np.r_[True, agents[1:] != agents[:-1]])
    ends = np.r_[starts[1:], agents.size]
    ids, first, of_run = np.unique(agents[starts], return_index=True, return_inverse=True)
    runs, of_row = np.bincount(of_run), np.repeat(of_run, ends - starts)
    return {
        ids[g]: records[starts[first[g]] : ends[first[g]]] if runs[g] == 1 else records[of_row == g]
        for g in np.argsort(first)
    }
