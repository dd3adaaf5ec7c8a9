"""Seeded inputs of the benchmark workloads.

Every generator here is a pure function of the workload seed: the same seed
gives the same datasets and the same softmax-log bytes.  The program under
test only ever receives these generated inputs.
"""

from __future__ import annotations

import numpy as np

from inattention import synth
from inattention.dataset import validate_dataset

# Pool sizes are set by run length: one pass over a pool takes about 22 s
# on a 2-core box at its nominal speed, and up to 1.7x that in its slow mode.

# umri-cuts: feasible datasets whose fits need many lazy best-response cut
# rounds.  5x4x4 rather than 5x5x5 buys enough instances per pass for the
# per-call medians to hold steady from one workload seed to the next.
UMRI_SHAPE = (5, 4, 4)
UMRI_MARGIN = 0.01
UMRI_INSTANCES = 40
SPARSE_FRACTION = 0.5

# noise-family: 11 agents on the eta grid 1.0..2.0, as in the paper.  Fit
# times vary by a quarter from one family to the next, so a pass needs many
# families; three classes rather than the paper's five keep one fit near
# 0.4 s.
NOISE_AGENTS = 11
NOISE_CLASSES = 3
NOISE_FAMILIES = 36
# Off-grid queries: 0.025, 0.05 and 0.075 past each grid anchor but the
# last, 30 per family.  Near an anchor some predictions fail their NIAS
# certificate (see bench/README.md); the check counts each as failed.
QUERY_ETAS = tuple(
    round(1.0 + 0.1 * g + offset, 3)
    for g in range(NOISE_AGENTS - 1)
    for offset in (0.025, 0.05, 0.075)
)

# cli-pipeline: a CIFAR-10-test-sized softmax log (10 000 images) for 11
# checkpoints, held at 3 classes so the fits stay small.
LOG_AGENTS = 11
LOG_IMAGES = 10_000
LOG_CLASSES = 3

_TAG_UMRI, _TAG_NOISE, _TAG_LOG = 1, 2, 3


def grid_etas(num_agents: int) -> np.ndarray:
    return np.array([1.0 + 0.1 * g for g in range(num_agents)])


def derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    """``count`` independent instance seeds derived from one workload seed."""
    children = np.random.SeedSequence([seed, tag]).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def umri_instances(seed: int, count: int = UMRI_INSTANCES) -> list[synth.GroundTruth]:
    """Feasible datasets, each certified at slack ``UMRI_MARGIN``."""
    return [
        synth.generate_feasible_dataset(*UMRI_SHAPE, margin=UMRI_MARGIN, seed=s)
        for s in derived_seeds(seed, _TAG_UMRI, count)
    ]


def make_noise_family(seed, num_grid=11, num_classes=3):
    """Smoothly varying synthetic agent family.

    A frozen copy of the test-suite helper of the same name, so the
    benchmark input stays fixed if that helper moves or changes.  Each class
    x mislabels with probability tau_x(eta), a gently curved function of the
    noise level, spread over a fixed per-class error profile.  Returns
    (etas, dataset, truth_fn).
    """
    rng = np.random.default_rng(seed)
    etas = grid_etas(num_grid)
    base = rng.uniform(0.08, 0.15, size=num_classes)
    slope = rng.uniform(0.12, 0.25, size=num_classes)
    curve = rng.uniform(-0.1, 0.1, size=num_classes)
    off_profiles = np.zeros((num_classes, num_classes))
    for x in range(num_classes):
        others = [a for a in range(num_classes) if a != x]
        weights = rng.uniform(0.3, 0.7, size=len(others))
        weights /= weights.sum()
        off_profiles[x, others] = weights

    def truth_at(eta):
        t = eta - 1.0
        tau = base + slope * t + curve * t * t
        mat = off_profiles * tau[:, None]
        np.fill_diagonal(mat, 1.0 - tau)
        return mat

    dataset = validate_dataset(
        {
            "num_states": num_classes,
            "num_actions": num_classes,
            "prior": [1.0 / num_classes] * num_classes,
            "agents": [
                {"agent_id": f"eta-{eta:.2f}", "choice_prob": truth_at(eta).tolist()}
                for eta in etas
            ],
        }
    )
    return etas, dataset, truth_at


def noise_families(seed: int, count: int = NOISE_FAMILIES):
    return [
        make_noise_family(s, NOISE_AGENTS, NOISE_CLASSES)
        for s in derived_seeds(seed, _TAG_NOISE, count)
    ]


def log_ladder() -> np.ndarray:
    """Mean softmax per (agent, true class) of the log: shape (K, X, A).

    The logit-noise model ``2 * onehot(label) + eta_k * noise``, estimated
    once with a fixed seed.  It is the same for every workload seed, so the
    ingested dataset, and with it the fits' LP work, does not change with
    the seed: cli-pipeline measures the path from log to tables, while
    umri-cuts and noise-family vary the LP inputs.
    """
    rng = np.random.default_rng(_TAG_LOG)
    ladder = np.empty((LOG_AGENTS, LOG_CLASSES, LOG_CLASSES))
    for k, eta in enumerate(grid_etas(LOG_AGENTS)):
        for x in range(LOG_CLASSES):
            logits = eta * rng.standard_normal((20_000, LOG_CLASSES))
            logits[:, x] += 2.0
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            ladder[k, x] = (probs / probs.sum(axis=1, keepdims=True)).mean(axis=0)
    return ladder


def _rows_with_mean(rng, target: np.ndarray, count: int) -> np.ndarray:
    """``count`` softmax rows whose mean is exactly ``target``.

    Rows come in antithetic pairs target +/- s (q - target), with q a random
    point of the simplex and s small enough to keep both rows nonnegative;
    an odd count adds one row equal to the target.
    """
    half = count // 2
    q = rng.dirichlet(np.ones(target.shape[0]), size=half)
    delta = q - target
    with np.errstate(divide="ignore"):
        room = np.where(delta > 0, target / delta, np.inf).min(axis=1)
    delta *= (rng.uniform(size=half) * np.minimum(room, 1.0))[:, None]
    odd = np.repeat(target[None, :], count - 2 * half, axis=0)
    rows = np.concatenate([target + delta, target - delta, odd])
    return rows[rng.permutation(count)]


def softmax_log_text(seed: int, num_images: int = LOG_IMAGES) -> str:
    """CSV softmax log (agent_id,image_id,true_label,p0,...) of a noise ladder.

    The seed draws the label order and every per-image softmax row; each
    agent's per-class mean row is the fixed :func:`log_ladder`.  Every
    agent scores the same images, as ``ingest`` requires.
    """
    rng = np.random.default_rng([seed, _TAG_LOG])
    labels = np.arange(num_images) % LOG_CLASSES
    rng.shuffle(labels)
    ladder = log_ladder()
    header = "agent_id,image_id,true_label," + ",".join(
        f"p{a}" for a in range(LOG_CLASSES)
    )
    lines = [header]
    for k, eta in enumerate(grid_etas(LOG_AGENTS)):
        probs = np.empty((num_images, LOG_CLASSES))
        for x in range(LOG_CLASSES):
            members = labels == x
            probs[members] = _rows_with_mean(rng, ladder[k, x], int(members.sum()))
        agent = f"eta-{eta:.2f}"
        for i in range(num_images):
            lines.append(
                f"{agent},img-{i:05d},{labels[i]},"
                + ",".join(f"{v:.12f}" for v in probs[i])
            )
    return "\n".join(lines) + "\n"
