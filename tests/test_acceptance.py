"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from inattention.brp import (
    MarginReport,
    UtilityProfile,
    brp_max_margin,
    brp_sparsest,
    niac_residuals,
    nias_residuals,
    normalize_profile,
    reconstruct_cost,
)
from inattention.cli import main as cli_main
from inattention.dataset import expected_value, realized_value
from inattention.predict import fit_family, interpolate_utility, predict_at
from inattention.sbrp import sbrp_max_margin, sbrp_sparsest
from inattention.synth import generate_boundary_dataset, generate_feasible_dataset, grid_oracle

from conftest import D2_CERTIFICATE, dataset_from_matrices, make_noise_family, random_dataset


def verdict(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def fixture_datasets():
    """Named fixtures shared by the certificate-level criteria."""
    d2 = dataset_from_matrices(
        [0.5, 0.5],
        [[[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.4, 0.6]]],
    )
    symmetric = dataset_from_matrices(
        [0.5, 0.5],
        [[[0.9, 0.1], [0.1, 0.9]], [[0.7, 0.3], [0.3, 0.7]]],
    )
    p = [[0.8, 0.2], [0.3, 0.7]]
    identical = dataset_from_matrices([0.4, 0.6], [p, p])
    uniform = dataset_from_matrices(
        [0.25] * 4, [np.full((4, 4), 0.25)] * 3
    )
    feasible = generate_feasible_dataset(4, 3, 3, 0.01, seed=3).dataset
    boundary = generate_boundary_dataset(4, 3, 3, seed=7).dataset
    return {
        "d2": d2,
        "symmetric": symmetric,
        "identical": identical,
        "uniform": uniform,
        "feasible": feasible,
        "boundary": boundary,
    }


def test_criterion_1_feasible_round_trip():
    started = time.monotonic()
    worst = np.inf
    for seed in range(100):
        truth = generate_feasible_dataset(5, 4, 4, 0.01, seed)
        profile, _ = brp_max_margin(truth.dataset)
        worst = min(worst, profile.margin)
    elapsed = time.monotonic() - started
    ok = worst >= 0.01 - 1e-12 and elapsed < 60.0
    verdict(1, ok, f"100/100 seeds, min margin {worst:.4f} >= 0.01, {elapsed:.1f}s < 60s")


def test_criterion_2_degenerate_boundary():
    fixtures = fixture_datasets()
    _, rep_b = brp_max_margin(fixtures["uniform"])
    _, rep_s = sbrp_max_margin(fixtures["uniform"])
    prof_i, _ = brp_max_margin(fixtures["identical"])
    sol_i, _ = sbrp_max_margin(fixtures["identical"])
    ok = (
        abs(rep_b.robustness) <= 1e-6
        and abs(rep_s.robustness) <= 1e-6
        and prof_i.margin <= 1e-7
        and sol_i.margin <= 1e-7
    )
    verdict(
        2,
        ok,
        f"uniform robustness ({rep_b.robustness:.2e}, {rep_s.robustness:.2e}) = 0 "
        f"within 1e-6; identical-strategy margins "
        f"({prof_i.margin:.2e}, {sol_i.margin:.2e}) <= 1e-7",
    )


def test_criterion_3_hand_certificate():
    d2 = fixture_datasets()["d2"]
    profile, _ = brp_max_margin(d2)
    nias = nias_residuals(d2, profile.utilities)
    niac = niac_residuals(d2, profile.utilities, profile.costs)
    strict = [
        nias[k, a, b]
        for k in range(2)
        for a in range(2)
        for b in range(2)
        if a != b and not np.isnan(nias[k, a, b])
    ] + [niac[j, k] for j in range(2) for k in range(2) if j != k]
    reverified = max(strict) <= -profile.margin + 1e-9
    ok = profile.margin >= 0.04 - 1e-12 and reverified
    verdict(
        3,
        ok,
        f"margin {profile.margin:.4f} >= 0.04 (hand witness), residuals "
        f"re-verify at -margin + 1e-9",
    )


def test_criterion_4_oracle_soundness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    positives = 0
    for _ in range(200):
        d = random_dataset(rng, num_agents=2, num_states=2, num_actions=2)
        oracle = grid_oracle(d)
        profile, _ = brp_max_margin(d)
        if oracle.best_margin > 0:
            positives += 1
            if profile.margin < oracle.best_margin - 1e-9:
                violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 120.0
    verdict(
        4,
        ok,
        f"200 datasets, {positives} positive grid margins, {violations} "
        f"violations, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_cost_anchoring():
    fixtures = fixture_datasets()
    rng = np.random.default_rng(55)
    worst_anchor = 0.0
    worst_slack = np.inf
    for name, d in fixtures.items():
        profile, _ = brp_max_margin(d)
        cost = reconstruct_cost(d, profile)
        for k in range(d.num_agents):
            worst_anchor = max(
                worst_anchor,
                abs(cost.value(d.choice(k)) - float(profile.costs[k])),
            )
        # Rationality of each agent's own strategy against in-sample and
        # random alternatives, net of the reconstructed cost.
        for k in range(d.num_agents):
            own = realized_value(d, k, profile.utilities[k]) - cost.value(d.choice(k))
            for j in range(d.num_agents):
                alt = expected_value(d, j, profile.utilities[k]) - cost.value(
                    d.choice(j)
                )
                worst_slack = min(worst_slack, own - alt)
            for _ in range(100):
                p = rng.uniform(0.01, 1.0, size=(d.num_states, d.num_actions))
                p /= p.sum(axis=1, keepdims=True)
                joint = d.prior[:, None] * p
                value = float((joint.T @ profile.utilities[k]).max(axis=1).sum())
                worst_slack = min(worst_slack, own - (value - cost.value(p)))
        from inattention.sbrp import reconstruct_cost_compact

        solution, _ = sbrp_max_margin(d)
        compact = reconstruct_cost_compact(d, solution)
        for k in range(d.num_agents):
            worst_anchor = max(
                worst_anchor,
                abs(compact.value(d.choice(k)) - float(solution.costs[k])),
            )
    ok = worst_anchor <= 1e-8 and worst_slack >= -1e-9
    verdict(
        5,
        ok,
        f"anchoring error {worst_anchor:.2e} <= 1e-8 across all fixtures and "
        f"models; own-strategy optimality slack {worst_slack:.2e} >= -1e-9 "
        f"over in-sample plus 100 random alternatives per fixture",
    )


def test_criterion_6_homogeneity():
    d2 = fixture_datasets()["d2"]
    base = UtilityProfile.from_certificate(
        d2, D2_CERTIFICATE["utilities"], D2_CERTIFICATE["costs"]
    )
    worst_residual = 0.0
    robustness_values = []
    for factor in (0.5, 1.0, 2.0):
        utilities = [factor * u for u in base.utilities]
        costs = factor * base.costs
        nias = nias_residuals(d2, utilities)
        niac = niac_residuals(d2, utilities, costs)
        ref_nias = nias_residuals(d2, base.utilities)
        ref_niac = niac_residuals(d2, base.utilities, base.costs)
        worst_residual = max(
            worst_residual,
            float(np.nanmax(np.abs(nias - factor * ref_nias))),
            float(np.max(np.abs(niac - factor * ref_niac))),
        )
        normalized = normalize_profile(
            d2, UtilityProfile.from_certificate(d2, utilities, costs)
        )
        robustness_values.append(
            MarginReport.from_solution(
                normalized.margin, normalized.squared_norms()
            ).robustness
        )
    spread = max(robustness_values) - min(robustness_values)
    ok = worst_residual <= 1e-9 and spread <= 1e-9
    verdict(
        6,
        ok,
        f"residual scaling error {worst_residual:.2e} <= 1e-9 for t in "
        f"{{0.5, 2}}; normalized robustness spread {spread:.2e} <= 1e-9",
    )


def test_criterion_7_sparsity_dominance():
    fixtures = fixture_datasets()
    checked = []
    ok = True
    for name, d in fixtures.items():
        profile, report = brp_max_margin(d)
        if not report.degenerate:
            sparse = brp_sparsest(d, normalize=False)
            ok &= sparse.total_l1() <= profile.total_l1() + 1e-8
            checked.append(f"{name}:umri")
        solution, s_report = sbrp_max_margin(d)
        if not s_report.degenerate:
            s_sparse = sbrp_sparsest(d, normalize=False)
            ok &= float(np.abs(s_sparse.utility).sum()) <= float(
                np.abs(solution.utility).sum()
            ) + 1e-8
            checked.append(f"{name}:s-umri")
    verdict(
        7,
        ok and checked,
        f"sparse mass <= max-margin mass under identical scaling on "
        f"{', '.join(checked)}",
    )


def test_criterion_8_alternation():
    fixtures = fixture_datasets()
    ok = True
    details = []
    for name, d in fixtures.items():
        solution, _ = sbrp_max_margin(d)
        history = np.array(solution.margin_history)
        ok &= bool(np.all(np.diff(history) >= -1e-9))
        profile, _ = brp_max_margin(d)
        ok &= solution.margin_history[0] <= profile.margin + 1e-9
        details.append(f"{name}({len(history)} stages)")
    verdict(
        8,
        ok,
        "margin sequences nondecreasing and unit-sensitivity margins bounded "
        f"by private-utility margins on {', '.join(details)}",
    )


def test_criterion_9_prediction_self_consistency():
    started = time.monotonic()
    worst_tv = 0.0
    worst_delta = 0.0
    worst_kl = 0.0
    exact_endpoints = True
    for seed in range(1, 11):
        etas, dataset, truth_at = make_noise_family(seed)
        family = fit_family(dataset, etas)
        for g in range(len(etas)):
            u = interpolate_utility(family, float(etas[g]))
            exact_endpoints &= bool(np.array_equal(u, family.fitted.utilities[g]))
            outcome = predict_at(family, float(etas[g]))
            tv = 0.5 * np.abs(outcome.predicted_choice - dataset.choice(g)).sum(axis=1)
            worst_tv = max(worst_tv, float(tv.max()))
        deltas = []
        kls = []
        for g in range(10):
            eta = 1.05 + 0.1 * g
            outcome = predict_at(family, eta, truth=truth_at(eta))
            deltas.append(outcome.per_class_error)
            kls.append(outcome.kl_score)
        worst_delta = max(worst_delta, float(np.array(deltas).mean(axis=0).max()))
        worst_kl = max(worst_kl, float(np.mean(kls)))
    elapsed = time.monotonic() - started
    ok = (
        exact_endpoints
        and worst_tv <= 2e-2
        and worst_delta <= 0.06
        and worst_kl <= 0.02
    )
    verdict(
        9,
        ok,
        f"seeds 1-10: endpoint utilities exact, endpoint strategy TV "
        f"{worst_tv:.2e} <= 2e-2, per-class mean error {worst_delta:.4f} <= "
        f"0.06, mean divergence {worst_kl:.5f} <= 0.02 ({elapsed:.1f}s)",
    )


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        monkeypatch.chdir(base)
        assert cli_main([
            "synth", "--agents", "5", "--states", "3", "--actions", "3",
            "--margin", "0.01", "--seed", "9",
            "--out", "gt.json", "--dataset-out", "data.json",
        ]) == 0
        assert cli_main(["test", "--dataset", "data.json", "--out", "profile.json"]) == 0
        assert cli_main([
            "sparse", "--dataset", "data.json",
            "--out", "sparse.json", "--table", "sparse.csv",
        ]) == 0
        assert cli_main([
            "predict", "--dataset", "data.json",
            "--etas", "1.0,1.1,1.2,1.3,1.4",
            "--eta", "1.25", "--out", "pred.json", "--table", "pred.csv",
        ]) == 0
        assert cli_main([
            "report", "--profiles", "profile.json", "sparse.json",
            "--predictions", "pred.json", "--out-dir", "reports",
        ]) == 0
        names = [
            "gt.json", "data.json", "profile.json", "sparse.json", "sparse.csv",
            "pred.json", "pred.csv",
            "reports/robustness.csv", "reports/sparse_utility.csv",
            "reports/cost_curve.csv", "reports/predictions.csv",
        ]
        outputs[tag] = {name: (base / name).read_bytes() for name in names}
    mismatched = [k for k in outputs["first"] if outputs["first"][k] != outputs["second"][k]]
    verdict(
        10,
        not mismatched,
        "full pipeline (synth -> test -> sparse -> predict -> report) "
        f"byte-identical across runs ({len(outputs['first'])} files)"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
