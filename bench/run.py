"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload umri-cuts --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times passes untraced and prints the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one traced
pass over part of the workload's inputs and prints the per-layer metrics.
The metric names and units are those of ``BENCHMARK.json``.  Every result
is checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment and, for a traced run, every span, goes to
``bench/results/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

# Setup is repeated this many times per run; setup_s is the median.
SETUP_REPS = 3

@dataclass(frozen=True)
class Workload:
    generate: Callable  # (seed, workdir) -> inputs
    run: Callable  # (inputs, PassLog) -> None
    fit: tuple[str, ...]  # call kinds behind fit_p50_s
    follow: tuple[str, ...]  # call kinds behind follow_p50_s
    # Passes per untraced run: 1 over a large pool of seeded inputs, or 3
    # over the one softmax log of cli-pipeline.
    passes: int
    # The inputs of the traced run's two passes: a quarter of a pool, or
    # the whole pipeline, so that the run with its HiGHS re-solves takes
    # about as long as an untraced one.
    traced: Callable


def workloads(passes, wl) -> dict[str, Workload]:
    def write_log(seed, workdir):
        path = os.path.join(workdir, "softmax.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(wl.softmax_log_text(seed))
        return passes.cli_steps(workdir, path)

    return {
        "umri-cuts": Workload(
            generate=lambda seed, workdir: wl.umri_instances(seed),
            run=passes.umri_pass,
            fit=("max_margin",),
            follow=("sparsest",),
            passes=1,
            traced=_quarter,
        ),
        "noise-family": Workload(
            generate=lambda seed, workdir: wl.noise_families(seed),
            run=passes.noise_pass,
            fit=("fit_family",),
            follow=("predict_at",),
            passes=1,
            traced=_quarter,
        ),
        "cli-pipeline": Workload(
            generate=write_log,
            run=passes.cli_pass,
            fit=("test_umri",),
            follow=("sparse",),
            passes=3,
            traced=lambda steps: steps,
        ),
    }


def _quarter(pool):
    return pool[: max(1, len(pool) // 4)]


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and the metric names and units."""
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Measurement


def import_seconds() -> float:
    """Time ``import inattention`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import inattention; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def setup(passes, workload: Workload, seed: int, workdir: str):
    """Set up SETUP_REPS times; returns (inputs, per-rep records).

    Each set-up is scaled to nominal host speed by reference samples taken
    before, during and after it, as the calls of a pass are.  The import is
    timed inside the child interpreter, so the parent's ticks stay out of it.
    """
    reps = []
    inputs = None
    for _ in range(SETUP_REPS):
        before = passes.host_reference()
        with passes.Ticker() as ticker:
            imported = import_seconds()
            start, ticked = time.perf_counter(), ticker.spent
            inputs = workload.generate(seed, workdir)
            generated = time.perf_counter() - start - (ticker.spent - ticked)
        after = passes.host_reference()
        total = imported + generated
        samples = [before, *ticker.samples, after]
        reps.append(
            {
                "import_s": imported,
                "generate_s": generated,
                "total_s": total,
                "scaled_s": total * passes.nominal_share(samples),
                "host_samples_s": samples,
            }
        )
    return inputs, reps


def one_pass(passes, workload: Workload, inputs, first, ticks=True):
    """Run one pass; its results must equal those of pass ``first``.  The
    traced run's passes take no ticks, which would land in the spans."""
    log = passes.PassLog(ticks)
    workload.run(inputs, log)
    log.close()
    if first is not None and log.results != first.results:
        log.fail("repeat", ["results differ from the first pass"])
    return log


def run_passes(passes, workload: Workload, inputs, budget: float):
    """Up to ``workload.passes`` passes, while the next one still fits in
    ``budget`` seconds; at least one."""
    logs = []
    lengths = []
    start = time.perf_counter()
    while len(logs) < workload.passes:
        began = time.perf_counter()
        logs.append(one_pass(passes, workload, inputs, logs[0] if logs else None))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(lengths) > budget:
            break
    return logs


def summary(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "n": len(values),
        "q1": q1,
        "q3": q3,
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
    }


def pass_record(log) -> dict:
    return {
        "wall_s": log.wall,
        "cpu_s": log.cpu,
        "attempted": log.attempted,
        "failed": log.failed,
        "calls": [[kind, seconds] for kind, seconds in log.calls],
        "host_reference_s": log.refs,
        "host_ticks_s": log.ticks,
    }


# ---------------------------------------------------------------------------
# Entry


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "inattention", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import passes
    import tracing
    import workloads as wl

    workload = workloads(passes, wl)[args.workload]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = os.path.join(RESULTS_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = measure(args, spec, workload, workdir, passes, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for line in record["lines"]:
        print(line)
    print(f"result file: {os.path.relpath(out_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["reported"],
            }
        )
    )
    return 0


def measure(args, spec: dict, workload: Workload, workdir: str, passes, tracing) -> dict:
    inputs, setup_reps = setup(passes, workload, args.seed, workdir)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup": setup_reps,
    }
    lines = []
    if args.trace:
        logs, layers, highs, spans = traced_run(args, workload, inputs, workdir, passes, tracing)
        if highs is None:
            lines.append("notice: SciPy is not installed; HiGHS reference skipped")
        else:
            lines.append(
                f"HiGHS reference: {highs['lps']} LPs, worst relative gap "
                f"{highs['worst_rel_gap']:.2e}, {len(highs['mismatches'])} disagreements"
            )
        record.update(
            highs=highs, layers=layers, counters=tracing.counter_fingerprint(layers), spans=spans
        )
        # Layer times that only some workloads exercise are printed and
        # stored beside the metrics of BENCHMARK.json; all of them are times.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(layers):
            lines.append(f"{name:<34} {layers[name]:.6g} {units.get(name, 's')}")
        reported = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        checks_ok = highs is None or not highs["mismatches"]
    else:
        logs = run_passes(passes, workload, inputs, args.seconds)

        values = {
            "setup_s": [rep["scaled_s"] for rep in setup_reps],
            "pass_s": [sum(log.scaled()) for log in logs],
            "fit_p50_s": [t for log in logs for t in log.scaled(workload.fit)],
            "follow_p50_s": [t for log in logs for t in log.scaled(workload.follow)],
        }
        raw = {
            "setup_s": [rep["total_s"] for rep in setup_reps],
            "pass_s": [log.wall for log in logs],
            "fit_p50_s": [t for log in logs for t in log.times(workload.fit)],
            "follow_p50_s": [t for log in logs for t in log.times(workload.follow)],
        }
        stats = {name: summary(v) for name, v in values.items()}
        record["metrics"] = stats
        record["raw_wall"] = {name: summary(v) for name, v in raw.items()}
        what = {
            "setup_s": "set-ups",
            "pass_s": "passes",
            "fit_p50_s": f"{'/'.join(workload.fit)} calls",
            "follow_p50_s": f"{'/'.join(workload.follow)} calls",
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, st in stats.items():
            unit = units[name]
            line = (
                f"{name:<14} {st['value']:.6g} {unit}  median of {st['n']} {what[name]}; "
                f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g}"
            )
            line += f"; at nominal host speed, raw wall median {record['raw_wall'][name]['value']:.6g} {unit}"
            lines.append(line)
        reported = {name: {"value": stats[name]["value"], "unit": unit} for name, unit in units.items()}
        checks_ok = True
    lines.append(
        "passes: "
        + ", ".join(
            f"wall {log.wall:.3f} s / cpu {log.cpu:.3f} s / host reference median "
            f"{1e3 * statistics.median(log.refs):.3f} ms"
            for log in logs
        )
    )

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    wrong = sum(log.wrong for log in logs)
    failures = [f for log in logs for f in log.failures]
    lines.append(
        f"failed_share {failed / attempted:.6g} ({failed} of {attempted} calls; "
        f"{wrong} wrong, {failed - wrong} raised or falling short)"
    )
    for failure in failures[:20]:
        lines.append(f"failure: {failure}")
    record.update(
        passes=[pass_record(log) for log in logs],
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        wrong=wrong,
        failures=failures,
        correct=wrong == 0 and checks_ok,
        reported=reported,
        lines=lines,
    )
    return record


def traced_run(args, workload: Workload, inputs, workdir: str, passes, tracing):
    """One untraced pass, then one traced pass, over ``workload.traced``
    inputs; the per-layer metrics, the HiGHS comparison and the spans.

    The traced pass's LPs are re-solved by HiGHS.  Tracing overhead compares
    the two passes' times, scaled by the samples around each call.
    """
    tracer = tracing.Tracer()
    with tracer:
        workload.generate(args.seed, workdir)
    synth_s = tracing.layer_metrics(tracer)["synth.generate_s"]
    inputs = workload.traced(inputs)
    untraced = one_pass(passes, workload, inputs, None, ticks=False)
    tracer = tracing.Tracer(capture_lps=True)
    with tracer:
        traced = one_pass(passes, workload, inputs, untraced, ticks=False)
    layers = tracing.layer_metrics(tracer)
    layers["synth.generate_s"] = synth_s
    layers["trace.overhead_share"] = sum(traced.scaled()) / sum(untraced.scaled()) - 1.0
    highs = tracing.highs_reference(tracer.lps)
    layers["lp.highs_ref_s"] = highs["seconds"] if highs is not None else 0.0
    return [untraced, traced], layers, highs, tracing.span_records(tracer)


if __name__ == "__main__":
    raise SystemExit(main())
