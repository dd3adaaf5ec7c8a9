"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import passes  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_LOG_IMAGES = 3000


def _same_datasets(a, b) -> bool:
    return np.array_equal(a.prior, b.prior) and all(
        np.array_equal(x.choice_prob, y.choice_prob) for x, y in zip(a.agents, b.agents)
    )


def test_generation_is_a_pure_function_of_the_seed():
    first = wl.umri_instances(7, count=3)
    again = wl.umri_instances(7, count=3)
    other = wl.umri_instances(8, count=3)
    assert all(_same_datasets(a.dataset, b.dataset) for a, b in zip(first, again))
    assert not _same_datasets(first[0].dataset, other[0].dataset)

    fam = wl.noise_families(7, count=2)
    fam_again = wl.noise_families(7, count=2)
    for (etas, d, truth), (etas2, d2, truth2) in zip(fam, fam_again):
        assert np.array_equal(etas, etas2) and _same_datasets(d, d2)
        assert np.array_equal(truth(1.55), truth2(1.55))

    text = wl.softmax_log_text(7, num_images=60)
    assert text == wl.softmax_log_text(7, num_images=60)
    assert text != wl.softmax_log_text(8, num_images=60)


def _cli_steps(tmp_path, seed=3):
    log_path = tmp_path / "softmax.csv"
    log_path.write_text(wl.softmax_log_text(seed, num_images=SMALL_LOG_IMAGES))
    return passes.cli_steps(str(tmp_path), str(log_path))


def _run(run_pass, inputs):
    log = passes.PassLog()
    run_pass(inputs, log)
    log.close()
    return log


def _traced(run_pass):
    tracer = tracing.Tracer()
    with tracer:
        log = run_pass()
    return log, tracer


def test_traced_pass_matches_untraced(tmp_path):
    instances = wl.umri_instances(5, count=2)
    plain = _run(passes.umri_pass, instances)
    traced, _ = _traced(lambda: _run(passes.umri_pass, instances))
    assert plain.failed == traced.failed == 0
    assert plain.results == traced.results

    steps = _cli_steps(tmp_path)
    plain = _run(passes.cli_pass, steps)
    traced, tracer = _traced(lambda: _run(passes.cli_pass, steps))
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert plain.results == traced.results
    assert tracing.layer_metrics(tracer)["dataset.rows_parsed"] == wl.LOG_AGENTS * SMALL_LOG_IMAGES
    spans = json.loads(json.dumps(tracing.span_records(tracer)))
    assert {"cli.main", "dataset.read", "lp.solve"} <= {span[0] for span in spans}


def test_counters_repeat_exactly():
    instances = wl.umri_instances(5, count=2)
    families = wl.noise_families(5, count=1)
    prints = []
    for _ in range(2):
        _, tracer = _traced(lambda: _run(passes.umri_pass, instances))
        _, fam_tracer = _traced(lambda: _run(passes.noise_pass, families))
        prints.append(
            (
                tracing.counter_fingerprint(tracing.layer_metrics(tracer)),
                tracing.counter_fingerprint(tracing.layer_metrics(fam_tracer)),
            )
        )
    assert prints[0] == prints[1]
    assert prints[0][0]["lp.solves"] > 0 and prints[0][1]["lp.pivots"] > 0


def test_tracer_restores_every_wrapped_attribute():
    import inattention.brp as brp_module
    import inattention.lp as lp_module

    before = (brp_module.solve_lp, lp_module.LinearProgram.__dict__["add_leq"])
    with tracing.Tracer():
        assert brp_module.solve_lp is not before[0]
    assert (brp_module.solve_lp, lp_module.LinearProgram.__dict__["add_leq"]) == before


def test_solve_that_raises_counts_as_an_lp_failure():
    import inattention.brp as brp_module
    from inattention.lp import LinearProgram

    tracer = tracing.Tracer()
    with tracer, pytest.raises(ValueError):
        brp_module.solve_lp(LinearProgram([], [], []))
    metrics = tracing.layer_metrics(tracer)
    assert (metrics["lp.solves"], metrics["lp.failures"]) == (1, 1)


def test_corrupted_result_is_counted(monkeypatch):
    instances = wl.umri_instances(5, count=1)
    real = passes.brp.brp_max_margin

    def with_wrong_margin(d):
        profile, report = real(d)
        wrong = type(profile)(utilities=profile.utilities, costs=profile.costs, margin=profile.margin + 1e-3)
        return wrong, report

    monkeypatch.setattr(passes.brp, "brp_max_margin", with_wrong_margin)
    log = _run(passes.umri_pass, instances)
    assert log.attempted == 2
    assert log.failed == 1
    assert log.failures[0].startswith("max_margin: margin")


def test_prediction_checks_separate_wrong_from_falling_short():
    etas, dataset, truth_at = wl.noise_families(5, count=1)[0]
    family = passes.predict.fit_family(dataset, etas)
    outcome = passes.predict.predict_at(family, 1.55, truth=truth_at(1.55))
    assert passes.check_prediction(family, outcome, truth_at(1.55)) == ([], [])

    # Every state on the action worst under the prior fails the NIAS recheck:
    # counted as falling short while the flag says so, as wrong while it does not.
    worst = int(np.argmin(dataset.prior @ outcome.interpolated_utility))
    lumped = np.zeros_like(outcome.predicted_choice)
    lumped[:, worst] = 1.0
    honest = replace(outcome, predicted_choice=lumped, nias_consistent=False)
    wrong, short = passes.check_prediction(family, honest, lumped)
    assert wrong == [] and short[0].startswith("not NIAS-consistent")
    liar = replace(outcome, predicted_choice=lumped, nias_consistent=True)
    wrong, _ = passes.check_prediction(family, liar, lumped)
    assert wrong[0].startswith("NIAS flag True")

    log = passes.PassLog()
    log.check("predict_at", [], short)
    log.check("predict_at", wrong)
    assert (log.failed, log.wrong) == (2, 1)


def test_raising_call_is_counted_and_timed():
    log = passes.PassLog()

    def boom():
        raise ValueError("bad input")

    ok, result = log.call("fit", boom)
    log.close()
    assert (ok, result) == (False, None)
    assert log.attempted == log.failed == 1 and log.wrong == 0
    assert log.failures == ["fit: raised ValueError: bad input"]
    assert len(log.times(("fit",))) == 1 and len(log.scaled(("fit",))) == 1


def test_long_call_is_sampled_during_and_ticks_are_not_timed():
    log = passes.PassLog()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    log.call("busy", busy, 0.3)
    log.close()
    assert len(log.ticks[0]) >= 3
    # The busy loop ends on the clock, so the ticks inside it shorten the
    # work it does, and the call's time reads 0.3 s less the ticks.
    assert log.times()[0] == pytest.approx(0.3 - sum(log.ticks[0]), abs=0.02)
