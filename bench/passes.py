"""Workload passes: the fixed call list of each workload and its output checks.

A pass is one closed loop with one caller: each call starts when the
previous one has returned.  Every result is checked by a path independent of
the one that produced it; a call that raises or fails its check counts as
failed, and its time still counts in the pass.

Failed calls are of three kinds.  A call is *wrong* when its output
contradicts the independent check: a margin the residuals do not give, rows
that are not stochastic, a prediction far from the truth, a NIAS flag the
recheck does not confirm, a nonzero exit code, changed bytes.  A call
*raises* when it returns no output at all.  A call *falls short* when its
output is right but lacks a property the workload asks of it: a prediction
that is not NIAS-consistent, which ``predict_at`` itself reports and the
recheck confirms.  All three count as failed; only wrong calls, whose
outputs are incorrect, make the run incorrect.
"""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import time

import numpy as np

from inattention import brp, cli, predict
from inattention.brp import niac_residuals, nias_residuals
from inattention.constants import DEGENERATE_MARGIN

import workloads as wl

# Bound on the prior-weighted KL divergence of the true choice rows from a
# prediction at an off-grid query.  Measured at the workload's queries: at
# most 1.3e-4 over 180 queries; a uniform prediction would score about 0.5.
KL_BOUND = 1e-3
# Tolerances of the independent re-checks.
MARGIN_RECHECK_TOL = 1e-12
ROW_SUM_TOL = 1e-9
NIAS_TOL = 1e-9


# The host's speed drifts by up to 1.7x between modes that last from a
# fraction of a second to minutes, and CPU time drifts with it.  A fixed
# kernel with the interpreter-heavy mix of small LP work (dict-built rows,
# small numpy row updates) is timed before every call, after the last one,
# and every TICK_S while a call runs (on a timer signal; the ticks' own time
# is taken out of the call's).  A call's scaled time is its wall time times
# the mean of NOMINAL_REF_S / sample over the samples before, during and
# after it: its wall time at nominal host speed.  Sampling during a call
# lets a call of seconds be scaled by the speed over its own length, where
# the samples at its ends catch only the modes at its ends.
NOMINAL_REF_S = 6.0e-4
# A sample before or after a call is the median of this many kernel runs,
# which drops interrupts; a tick is one run.
REF_RUNS = 5
TICK_S = 0.025


def nominal_share(samples) -> float:
    """Mean host speed over reference samples, as a share of nominal speed."""
    return statistics.fmean(NOMINAL_REF_S / s for s in samples)


def host_reference() -> float:
    """Median wall time of the reference kernel (0.45-0.9 ms on a 2-core
    box, depending on the host's mode)."""
    return statistics.median(_reference_kernel() for _ in range(REF_RUNS))


def _reference_kernel() -> float:
    start = time.perf_counter()
    rows = []
    for i in range(40):
        row: dict[int, float] = {}
        for j in range(0, 40, 3):
            row[j] = row.get(j, 0.0) + 0.5 * i - j
        rows.append(row)
    table = np.zeros((40, 100))
    for i, row in enumerate(rows):
        for j, v in row.items():
            table[i, j] = v
    for p in range(20):
        column = table[:, p].copy()
        table -= np.outer(column, table[p % 40]) * 1e-3
        np.flatnonzero(table[:, p] > 0)
    return time.perf_counter() - start


class Ticker:
    """Times the reference kernel every TICK_S of wall time while entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the ticks

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_reference_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class PassLog:
    """Per-call times, failure accounting, and the results that must repeat
    exactly from pass to pass."""

    def __init__(self, ticks: bool = True):
        self.calls: list[tuple[str, float]] = []  # (kind, wall seconds without ticks)
        self.refs: list[float] = []  # host_reference() before each call, and after the last
        self.ticks: list[list[float]] = []  # kernel times sampled during each call
        self._ticking = ticks
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0  # calls that were wrong, raised or fell short
        self.wrong = 0  # calls whose output the check contradicts
        self.failures: list[str] = []
        self.results: list = []

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one call; returns (ok, result).  A raise counts as failed,
        not as wrong: it gives no output to be incorrect."""
        self.attempted += 1
        self.refs.append(host_reference())
        ticker = Ticker()
        error = None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if self._ticking:
                with ticker:
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none ends the pass
            error = exc
        self.calls.append((kind, time.perf_counter() - wall - ticker.spent))
        self.cpu += time.process_time() - cpu - ticker.spent
        self.ticks.append(ticker.samples)
        if error is not None:
            self.fail(kind, [], [f"raised {type(error).__name__}: {error}"])
            return False, None
        return True, result

    def close(self) -> None:
        self.refs.append(host_reference())

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.calls)

    def times(self, kinds: tuple[str, ...] | None = None) -> list[float]:
        """Wall times of the calls of the given kinds, or of every call."""
        return [t for k, t in self.calls if kinds is None or k in kinds]

    def scaled(self, kinds: tuple[str, ...] | None = None) -> list[float]:
        """Wall times at nominal host speed, of the given kinds or of every call."""
        out = []
        for i, (k, t) in enumerate(self.calls):
            if kinds is None or k in kinds:
                out.append(t * nominal_share([self.refs[i], *self.ticks[i], self.refs[i + 1]]))
        return out

    def fail(self, kind: str, wrong: list[str], short: list[str] = ()) -> None:
        """Count one failed call: wrong, or only raising or falling short."""
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.failures.append(f"{kind}: {'; '.join([*wrong, *short])}")

    def check(self, kind: str, wrong: list[str], short: list[str] = ()) -> None:
        """Count a returned call as failed when its check found problems."""
        if wrong or short:
            self.fail(kind, wrong, short)


# ---------------------------------------------------------------------------
# Independent checks


def strict_margin_recheck(d, profile) -> float:
    """Negated max of the strict residuals from the public residual kernels."""
    nias = nias_residuals(d, profile.utilities)
    niac = niac_residuals(d, profile.utilities, profile.costs)
    off_action = ~np.eye(d.num_actions, dtype=bool)
    best_response = nias[:, off_action]
    best_response = best_response[~np.isnan(best_response)]
    swaps = niac[~np.eye(d.num_agents, dtype=bool)]
    return -float(max(best_response.max(initial=-np.inf), swaps.max()))


def check_margin(d, profile, floor: float) -> list[str]:
    problems = []
    recheck = strict_margin_recheck(d, profile)
    if abs(recheck - profile.margin) > MARGIN_RECHECK_TOL * max(1.0, abs(recheck)):
        problems.append(f"margin {profile.margin!r} but residuals give {recheck!r}")
    if not profile.margin >= floor:
        problems.append(f"margin {profile.margin!r} below {floor!r}")
    return problems


def check_prediction(family, outcome, truth) -> tuple[list[str], list[str]]:
    """(wrong, short) problems of one prediction; see the module docstring."""
    wrong, short = [], []
    p = np.asarray(outcome.predicted_choice, dtype=float)
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        wrong.append("prediction is not row-stochastic")
    joint = family.dataset.prior[:, None] * p
    marginal = joint.sum(axis=0)
    not_best = None
    for a in np.flatnonzero(marginal > 0):
        scores = (joint[:, a] / marginal[a]) @ outcome.interpolated_utility
        if scores.max() - scores[a] > NIAS_TOL:
            not_best = a
            break
    if (not_best is None) != bool(outcome.nias_consistent):
        wrong.append(
            f"NIAS flag {outcome.nias_consistent} but the recheck finds "
            + ("no violation" if not_best is None else f"action {not_best} not a best response")
        )
    elif not_best is not None:
        short.append(f"not NIAS-consistent: action {not_best} is not a best response")
    terms = np.zeros_like(truth)
    mask = truth > 0
    terms[mask] = truth[mask] * np.log(truth[mask] / np.maximum(p[mask], 1e-12))
    kl = float(family.dataset.prior @ terms.sum(axis=1))
    if not kl <= KL_BOUND:
        wrong.append(f"KL {kl:.3e} above {KL_BOUND:.1e}")
    return wrong, short


# ---------------------------------------------------------------------------
# umri-cuts


def umri_pass(instances, log: PassLog) -> None:
    margins = []
    for gt in instances:
        d = gt.dataset
        ok, result = log.call("max_margin", brp.brp_max_margin, d)
        if ok:
            profile, _ = result
            log.check("max_margin", check_margin(d, profile, gt.construction_margin - 1e-9))
            margins.append(profile.margin)
        ok, profile = log.call(
            "sparsest", brp.brp_sparsest, d, margin_fraction=wl.SPARSE_FRACTION
        )
        if ok:
            log.check("sparsest", check_margin(d, profile, DEGENERATE_MARGIN))
            margins.append(profile.margin)
    log.results.append(tuple(margins))


# ---------------------------------------------------------------------------
# noise-family


def noise_pass(families, log: PassLog) -> None:
    margins = []
    for etas, dataset, truth_at in families:
        ok, family = log.call("fit_family", predict.fit_family, dataset, etas)
        if not ok:
            continue
        margin = family.fitted.margin
        log.check("fit_family", [] if margin > DEGENERATE_MARGIN else [f"degenerate fit {margin!r}"])
        margins.append(margin)
        for eta in wl.QUERY_ETAS:
            truth = truth_at(eta)
            ok, outcome = log.call("predict_at", predict.predict_at, family, eta, truth=truth)
            if ok:
                log.check("predict_at", *check_prediction(family, outcome, truth))
    log.results.append(tuple(margins))


# ---------------------------------------------------------------------------
# cli-pipeline


def cli_steps(workdir: str, log_path: str) -> list[tuple[str, list[str], list[str]]]:
    """(kind, argv, outputs) of the pipeline from softmax log to report tables."""

    def p(name):
        return os.path.join(workdir, name)

    etas = ",".join(f"{eta:.1f}" for eta in wl.grid_etas(wl.LOG_AGENTS))
    report = ["robustness", "sparse_utility", "cost_curve", "predictions"]
    return [
        ("ingest", ["ingest", "--softmax", log_path, "--out", p("data.json")], [p("data.json")]),
        (
            "test_umri",
            ["test", "--dataset", p("data.json"), "--model", "umri", "--out", p("umri.json")],
            [p("umri.json")],
        ),
        (
            "test_sumri",
            ["test", "--dataset", p("data.json"), "--model", "s-umri", "--out", p("sumri.json")],
            [p("sumri.json")],
        ),
        (
            "sparse",
            ["sparse", "--dataset", p("data.json"), "--out", p("sparse.json"), "--table", p("sparse.csv")],
            [p("sparse.json"), p("sparse.csv")],
        ),
        (
            "cost",
            ["cost", "--profile", p("umri.json"), "--dataset", p("data.json"), "--out", p("cost.csv")],
            [p("cost.csv")],
        ),
        (
            "predict_fit",
            [
                "predict", "--dataset", p("data.json"), "--etas", etas, "--eta", "1.55",
                "--save-family", p("family.json"), "--out", p("pred_fit.json"),
            ],
            [p("family.json"), p("pred_fit.json")],
        ),
        (
            "predict_family",
            [
                "predict", "--family", p("family.json"), "--eta", "1.25",
                "--out", p("pred_family.json"), "--table", p("pred_family.csv"),
            ],
            [p("pred_family.json"), p("pred_family.csv")],
        ),
        (
            "report",
            [
                "report", "--profiles", p("umri.json"), p("sumri.json"), p("sparse.json"),
                "--predictions", p("pred_fit.json"), p("pred_family.json"),
                "--out-dir", p("report"),
            ],
            [os.path.join(p("report"), f"{name}.csv") for name in report],
        ),
    ]


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_pass(steps, log: PassLog) -> None:
    """Run the pipeline once, recording each step's output digests; the
    runner requires them to match the first pass byte for byte."""
    digests = []
    for kind, argv, outputs in steps:
        ok, code = log.call(kind, cli.main, argv)
        if not ok:
            digests.append(None)
            continue
        try:
            digests.append(tuple(_digest(path) for path in outputs))
        except OSError as exc:
            digests.append(None)
            log.check(kind, [f"missing output: {exc}"])
        else:
            log.check(kind, [] if code == 0 else [f"exit code {code}"])
    log.results.append(tuple(digests))
