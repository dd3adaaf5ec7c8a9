"""In-memory span tracer that wraps the package's public functions.

Spans are recorded from the benchmark's side only: each public function is
replaced, at every module attribute through which the package calls it, by
a wrapper that records (name, start, end, parent) and restores the original
on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.  Per-layer
metrics are derived from the spans after the traced pass ends, and the spans
themselves are written to the result file (:func:`span_records`).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

# Span name -> the module attributes through which the package calls it.
SPAN_POINTS = {
    "lp.solve": [
        ("inattention.brp", "solve_lp"),
        ("inattention.sbrp", "solve_lp"),
        ("inattention.predict", "solve_lp"),
    ],
    "brp.max_margin": [
        ("inattention.brp", "brp_max_margin"),
        ("inattention.predict", "brp_max_margin"),
    ],
    "brp.sparsest": [("inattention.brp", "brp_sparsest")],
    "sbrp.max_margin": [("inattention.sbrp", "sbrp_max_margin")],
    "sbrp.sparsest": [("inattention.sbrp", "sbrp_sparsest")],
    "predict.fit_family": [("inattention.predict", "fit_family")],
    "predict.predict_at": [("inattention.predict", "predict_at")],
    "dataset.read": [("inattention.dataset", "read_softmax_log")],
    "dataset.ingest": [("inattention.dataset", "ingest_softmax")],
    "dataset.io": [
        ("inattention.dataset", "load_dataset"),
        ("inattention.dataset", "save_dataset"),
    ],
    "costs.value": [("inattention.costs", "PiecewiseAffineCost.value")],
    "synth.generate": [("inattention.synth", "generate_feasible_dataset")],
    "cli.main": [("inattention.cli", "main")],
}
# ``build_parser`` resolves the subcommands from the module on every call.
CLI_COMMANDS = ("ingest", "test", "robustness", "sparse", "cost", "synth", "predict", "report")
for _sub in CLI_COMMANDS:
    SPAN_POINTS[f"cli.{_sub}"] = [("inattention.cli", f"cmd_{_sub}")]

# Counted, not spanned: these run too often for a span each.
COUNT_POINTS = {
    "dataset.joint_posterior_calls": [
        ("inattention.dataset", "joint_and_posterior"),
        ("inattention.brp", "joint_and_posterior"),
        ("inattention.sbrp", "joint_and_posterior"),
        ("inattention.synth", "joint_and_posterior"),
    ],
    "lp.rows_added": [("inattention.lp", "LinearProgram.add_leq")],
    "cli.bytes_written": [
        ("inattention.dataset", "atomic_write_text"),
        ("inattention.brp", "atomic_write_text"),
        ("inattention.sbrp", "atomic_write_text"),
        ("inattention.predict", "atomic_write_text"),
        ("inattention.synth", "atomic_write_text"),
    ],
}


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for ``module`` plus dotted ``attr``."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans and counts in memory; optionally keeps every solved LP."""

    def __init__(self, capture_lps: bool = False):
        self.capture_lps = capture_lps
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.lps: list = []  # (LinearProgram, in-house objective value)
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if name == "lp.solve":
                # Shape first, so a solve that raises still has its rows.
                span.info = (args[0].num_rows, args[0].num_vars, 0, False)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self._close(span)
            self._annotate(span, args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts
        if key == "cli.bytes_written":

            @functools.wraps(fn)
            def wrapper(path, text):
                counts[key] += len(text.encode("utf-8"))
                return fn(path, text)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return wrapper

    def _annotate(self, span: Span, args, result) -> None:
        if span.name == "lp.solve":
            lp = args[0]
            span.info = (lp.num_rows, lp.num_vars, result.iterations, result.is_optimal)
            if self.capture_lps and result.is_optimal:
                self.lps.append((lp, result.objective_value))
        elif span.name == "predict.predict_at":
            span.info = bool(result.nias_consistent)
        elif span.name == "dataset.read":
            span.info = sum(len(records) for records in result.values())

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, points in SPAN_POINTS.items():
            for module_name, attr in points:
                self._patch(module_name, attr, lambda fn, n=name: self._spanned(n, fn))
        for key, points in COUNT_POINTS.items():
            for module_name, attr in points:
                self._patch(module_name, attr, lambda fn, k=key: self._counted(k, fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        owner, name = _resolve(module_name, attr)
        original = owner.__dict__[name]
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def _self_time(spans, kids, i) -> float:
    return spans[i].duration - sum(spans[c].duration for c in kids[i])


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _stages(spans, kids, i) -> list[list[int]]:
    """Split a brp call's LP solves into stages.

    A stage is a run of consecutive solves over the same variable count:
    the max-margin stage carries one more variable (the margin) than the
    sparsity stage that follows it in ``brp_sparsest``.
    """
    stages: list[list[int]] = []
    last_vars = None
    for c in kids[i]:
        if spans[c].name != "lp.solve":
            continue
        num_vars = spans[c].info[1]
        if num_vars != last_vars:
            stages.append([])
            last_vars = num_vars
        stages[-1].append(c)
    return stages


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, keyed by metric name."""
    spans = tracer.spans
    kids = _children(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def named(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def busy(idx):
        return float(sum(spans[i].duration for i in idx))

    def self_time(idx):
        return float(sum(_self_time(spans, kids, i) for i in idx))

    def lp_children(idx):
        return [c for i in idx for c in kids[i] if spans[c].name == "lp.solve"]

    m: dict[str, float] = {}
    lps = named("lp.solve")
    rows = [spans[i].info[0] for i in lps]
    pivots = sum(spans[i].info[2] for i in lps)
    m["lp.solves"] = len(lps)
    m["lp.pivots"] = pivots
    m["lp.busy_s"] = busy(lps)
    m["lp.us_per_pivot"] = 1e6 * m["lp.busy_s"] / pivots if pivots else 0.0
    m["lp.rows_mean"] = _mean(rows)
    m["lp.rows_max"] = max(rows, default=0)
    m["lp.vars_max"] = max((spans[i].info[1] for i in lps), default=0)
    m["lp.rows_added"] = tracer.counts["lp.rows_added"]
    m["lp.failures"] = sum(1 for i in lps if spans[i].error or not spans[i].info[3])

    brp = named("brp.max_margin", "brp.sparsest")
    stages = [stage for i in brp for stage in _stages(spans, kids, i)]
    rounds = [len(stage) for stage in stages]
    cut_rows = [spans[s[-1]].info[0] - spans[s[0]].info[0] for s in stages]
    m["brp.calls"] = len(brp)
    m["brp.busy_s"] = busy(brp)
    m["brp.self_s"] = self_time(brp)
    m["brp.cut_rounds_mean"] = _mean(rounds)
    m["brp.cut_rounds_max"] = max(rounds, default=0)
    m["brp.cut_rows_mean"] = _mean(cut_rows)
    m["brp.cap_hits"] = sum(
        1 for i in brp if spans[i].error and "did not converge" in spans[i].error
    )

    sbrp_all = named("sbrp.max_margin", "sbrp.sparsest")
    sbrp_outer = [i for i in sbrp_all if not _inside(spans, i, "sbrp.")]
    sbrp_fits = named("sbrp.max_margin")
    m["sbrp.calls"] = len(sbrp_outer)
    m["sbrp.busy_s"] = busy(sbrp_outer)
    m["sbrp.self_s"] = self_time(sbrp_all)
    m["sbrp.stages_mean"] = _mean([len(lp_children([i])) for i in sbrp_fits])

    fits = named("predict.fit_family")
    queries = named("predict.predict_at")
    query_lps = lp_children(queries)
    m["predict.fit_self_s"] = self_time(fits)
    m["predict.query_busy_s"] = busy(queries)
    m["predict.lp_solves_per_query"] = len(query_lps) / len(queries) if queries else 0.0
    m["predict.pivots_per_query"] = (
        sum(spans[c].info[2] for c in query_lps) / len(queries) if queries else 0.0
    )
    m["predict.nias_consistent_share"] = (
        sum(1 for i in queries if spans[i].info) / len(queries) if queries else 0.0
    )

    reads = named("dataset.read")
    m["dataset.read_s"] = busy(reads)
    m["dataset.rows_parsed"] = sum(spans[i].info or 0 for i in reads)
    m["dataset.ingest_s"] = busy(named("dataset.ingest"))
    m["dataset.io_s"] = busy(named("dataset.io"))
    m["dataset.joint_posterior_calls"] = tracer.counts["dataset.joint_posterior_calls"]

    values = named("costs.value")
    m["costs.value_calls"] = len(values)
    m["costs.value_s"] = busy(values)

    m["synth.generate_s"] = busy(named("synth.generate"))

    for sub in ("ingest", "test", "sparse", "cost", "predict", "report"):
        m[f"cli.{sub}_s"] = busy(named(f"cli.{sub}"))
    m["cli.self_s"] = self_time(named("cli.main", *(f"cli.{s}" for s in CLI_COMMANDS)))
    m["cli.bytes_written"] = tracer.counts["cli.bytes_written"]
    return m


def span_records(tracer: Tracer) -> list[list]:
    """Every span as [name, start, end, parent, info, error], in opening
    order; ``parent`` is the index of the enclosing span, or None, and the
    times are seconds from the first span's start."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return [
        [
            span.name,
            span.start - origin,
            span.end - origin,
            span.parent,
            list(span.info) if isinstance(span.info, tuple) else span.info,
            span.error,
        ]
        for span in tracer.spans
    ]


def _inside(spans, i, prefix: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def counter_fingerprint(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly: the solver is deterministic."""
    keys = (
        "lp.solves",
        "lp.pivots",
        "lp.rows_added",
        "brp.cut_rounds_mean",
        "brp.cut_rounds_max",
        "brp.cut_rows_mean",
        "dataset.joint_posterior_calls",
        "dataset.rows_parsed",
    )
    return {k: metrics[k] for k in keys}


# ---------------------------------------------------------------------------
# HiGHS reference

# The in-house and HiGHS objectives must agree to this gap, relative to
# max(1, |objective|).  HiGHS runs at feasibility tolerances near the in-house
# solver's 1e-9: at its default 1e-7 its optima on umri-cuts LPs exceed the
# exact ones by up to 1e-7 relative, which would swamp the comparison.
HIGHS_REL_TOL = 1e-9
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs_reference(lps) -> dict | None:
    """Re-solve captured LPs with SciPy's HiGHS; None when SciPy is missing.

    Returns the summed HiGHS solve time (a lower bound on the LP time the
    workload needs), the worst relative objective gap, and the LPs whose
    objectives disagree.
    """
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    total = 0.0
    worst = 0.0
    mismatches = []
    for index, (lp, objective) in enumerate(lps):
        a, b = lp.dense_rows()
        bounds = list(zip(lp.lower, lp.upper))
        start = time.perf_counter()
        res = linprog(
            -lp.objective,
            A_ub=a if lp.num_rows else None,
            b_ub=b if lp.num_rows else None,
            bounds=bounds,
            method="highs",
            options=HIGHS_OPTIONS,
        )
        total += time.perf_counter() - start
        if res.status != 0:
            mismatches.append({"lp": index, "highs_status": int(res.status)})
            continue
        reference = -float(res.fun)
        gap = abs(reference - objective) / max(1.0, abs(reference))
        worst = max(worst, gap)
        if gap > HIGHS_REL_TOL:
            mismatches.append({"lp": index, "ours": objective, "highs": reference})
    return {
        "lps": len(lps),
        "seconds": total,
        "worst_rel_gap": worst,
        "mismatches": mismatches,
    }

