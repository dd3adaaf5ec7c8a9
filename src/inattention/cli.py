"""Command-line front end.

One job per invocation; composition happens through files, so pipelines over
many datasets are plain shell scripts.  All outputs are written atomically
(temporary file plus rename), all diagnostics go to standard error, and the
same command on the same inputs produces byte-identical files.

Exit codes: 0 success, 1 domain error (degenerate dataset, out-of-range
query, unreadable artifact), 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import brp, dataset as ds, predict as pred, sbrp, synth
from .constants import DEGENERATE_MARGIN, UNIT_FLOOR
from .errors import InattentionError, NumericalFailure

log = logging.getLogger("inattention")


class _Usage(Exception):
    """Bad invocation detected after argument parsing (e.g. missing input)."""


def _require_inputs(*paths: str) -> None:
    for path in paths:
        if path and not os.path.exists(path):
            raise _Usage(f"input file does not exist: {path}")


def _solver_metadata(**extra) -> dict:
    meta = {
        "unit_floor": UNIT_FLOOR,
        "degenerate_tolerance": DEGENERATE_MARGIN,
    }
    meta.update(extra)
    return meta


# Columns of the tables written by more than one subcommand.
_ROBUSTNESS_COLUMNS = ["dataset", "model", "epsilon", "robustness", "degenerate"]
_UTILITY_COLUMNS = ["agent_id", "state", "action", "value"]
_PREDICTION_COLUMNS = ["eta", "class", "predicted_diag", "true_diag", "delta"]
_COST_COLUMNS = ["agent_id", "cost"]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    ds.atomic_write_text(path, "\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    _require_inputs(args.softmax)
    groups = ds.read_softmax_log(args.softmax)
    data = ds.ingest_softmax(groups, num_states=args.num_states)
    ds.save_dataset(data, args.out)
    log.info("wrote dataset with %d agents to %s", data.num_agents, args.out)
    return 0


def _analyze(data, model: str, dataset_path: str):
    meta = _solver_metadata(dataset=dataset_path)
    if model == "umri":
        profile, report = brp.brp_max_margin(data)
        return brp.profile_to_dict(data, profile, report, metadata=meta), report
    solution, report = sbrp.sbrp_max_margin(data)
    return sbrp.solution_to_dict(data, solution, report, metadata=meta), report


def cmd_test(args) -> int:
    _require_inputs(args.dataset)
    data = ds.load_dataset(args.dataset)
    payload, report = _analyze(data, args.model, args.dataset)
    ds.write_json(args.out, payload)
    log.info(
        "%s margin %.3e (degenerate=%s) -> %s",
        args.model,
        report.epsilon_star,
        report.degenerate,
        args.out,
    )
    return 0


def cmd_robustness(args) -> int:
    _require_inputs(*args.datasets)
    models = ["umri", "s-umri"] if args.model == "both" else [args.model]
    rows = []
    for path in args.datasets:
        data = ds.load_dataset(path)
        for model in models:
            _, report = _analyze(data, model, path)
            rows.append(
                [
                    path,
                    model,
                    float(report.epsilon_star),
                    float(report.robustness),
                    bool(report.degenerate),
                ]
            )
    _write_csv(args.out, _ROBUSTNESS_COLUMNS, rows)
    return 0


def cmd_sparse(args) -> int:
    _require_inputs(args.dataset)
    data = ds.load_dataset(args.dataset)
    meta = _solver_metadata(
        dataset=args.dataset, margin_fraction=args.margin_fraction
    )
    if args.model == "umri":
        profile = brp.brp_sparsest(data, args.margin_fraction)
        payload = brp.profile_to_dict(data, profile, metadata=meta)
        tables = list(zip(data.agent_ids, profile.utilities))
    else:
        solution = sbrp.sbrp_sparsest(data, args.margin_fraction)
        payload = sbrp.solution_to_dict(data, solution, metadata=meta)
        tables = [("shared", solution.utility)]
    ds.write_json(args.out, payload)
    if args.table:
        _write_csv(args.table, _UTILITY_COLUMNS, _utility_rows(tables))
    return 0


def _utility_rows(tables) -> list[list]:
    """(agent_id, state, action, value) rows of (agent_id, utility) pairs."""
    rows = []
    for agent_id, utility in tables:
        u = np.asarray(utility)
        for x in range(u.shape[0]):
            rows += [[agent_id, x, a, float(u[x, a])] for a in range(u.shape[1])]
    return rows


def _fitted_model(raw):
    """The profile or solution a ``test``/``sparse`` output file holds."""
    if raw.get("model") == "umri":
        return brp._profile_from_dict(raw)
    return sbrp._solution_from_dict(raw)


def cmd_cost(args) -> int:
    _require_inputs(args.profile, args.dataset)
    data = ds.load_dataset(args.dataset)
    model = ds.read_json(args.profile, _fitted_model)
    if isinstance(model, brp.UtilityProfile):
        cost = brp.reconstruct_cost(data, model)
    else:
        cost = sbrp.reconstruct_cost_compact(data, model)
    rows = [
        [data.agents[k].agent_id, float(cost.value(data.choice(k)))]
        for k in range(data.num_agents)
    ]
    _write_csv(args.out, _COST_COLUMNS, rows)
    return 0


def cmd_synth(args) -> int:
    if args.kind == "feasible":
        truth = synth.generate_feasible_dataset(
            args.agents, args.states, args.actions, args.margin, args.seed
        )
    else:
        truth = synth.generate_boundary_dataset(
            args.agents, args.states, args.actions, args.seed
        )
    synth.save_ground_truth(truth, args.out)
    if args.dataset_out:
        ds.save_dataset(truth.dataset, args.dataset_out)
    log.info("wrote ground truth (margin %g) to %s", truth.construction_margin, args.out)
    return 0


def cmd_predict(args) -> int:
    if args.family:
        _require_inputs(args.family)
        family = pred.load_family(args.family)
    else:
        if not args.dataset or args.etas is None:
            raise _Usage("predict needs either --family or --dataset with --etas")
        _require_inputs(args.dataset)
        data = ds.load_dataset(args.dataset)
        etas = np.array([float(v) for v in args.etas.split(",")])
        family = pred.fit_family(data, etas)
        if args.save_family:
            pred.save_family(args.save_family, family)
    truth = None
    if args.truth_dataset:
        _require_inputs(args.truth_dataset)
        truth_data = ds.load_dataset(args.truth_dataset)
        truth = truth_data.choice(args.truth_agent)
    outcome = pred.predict_at(family, args.eta, truth=truth)
    payload = pred.prediction_to_dict(
        outcome, truth=truth, labels=family.dataset.labels
    )
    ds.write_json(args.out, payload)
    if args.table:
        _write_csv(args.table, _PREDICTION_COLUMNS, _prediction_rows(payload))
    return 0


def _profile_rows(raw, path: str):
    """(robustness row, utility rows, cost rows) of one profile/solution file."""
    robustness = [
        raw.get("metadata", {}).get("dataset", path),
        raw.get("model", "?"),
        float(raw["margin"]),
        float(raw["robustness"]) if raw.get("robustness") is not None else None,
        bool(raw.get("degenerate", False)),
    ]
    if raw.get("model") == "s-umri":
        tables = [("shared", raw["utility"])]
    else:
        tables = [(agent["agent_id"], agent["utility"]) for agent in raw["agents"]]
    costs = [[agent["agent_id"], float(agent["cost"])] for agent in raw["agents"]]
    return robustness, _utility_rows(tables), costs


def _prediction_rows(raw) -> list[list]:
    eta = float(raw["eta"])
    return [
        [eta, e["class"], e["predicted_diag"], e.get("true_diag"), e.get("delta")]
        for e in raw["per_class"]
    ]


def cmd_report(args) -> int:
    _require_inputs(*(args.profiles + args.predictions))
    os.makedirs(args.out_dir, exist_ok=True)
    robustness_rows = []
    utility_rows = []
    cost_rows = []
    for path in args.profiles:
        robustness, utilities, costs = ds.read_json(
            path, lambda raw: _profile_rows(raw, path)
        )
        robustness_rows.append(robustness)
        utility_rows += utilities
        cost_rows += costs
    prediction_rows = []
    for path in args.predictions:
        prediction_rows += ds.read_json(path, _prediction_rows)
    if robustness_rows:
        _write_csv(
            os.path.join(args.out_dir, "robustness.csv"),
            _ROBUSTNESS_COLUMNS,
            robustness_rows,
        )
        _write_csv(
            os.path.join(args.out_dir, "sparse_utility.csv"),
            _UTILITY_COLUMNS,
            utility_rows,
        )
        _write_csv(os.path.join(args.out_dir, "cost_curve.csv"), _COST_COLUMNS, cost_rows)
    if prediction_rows:
        _write_csv(
            os.path.join(args.out_dir, "predictions.csv"),
            _PREDICTION_COLUMNS,
            prediction_rows,
        )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inattention",
        description=(
            "Test collections of stochastic classifiers for rationality, "
            "recover sparse utility models, and predict accuracy at unseen "
            "training-noise levels."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="more logging to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate a softmax log into a dataset file")
    p.add_argument("--softmax", required=True, help="CSV softmax log")
    p.add_argument("--out", required=True, help="dataset JSON to write")
    p.add_argument("--num-states", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("test", help="max-margin rationality test")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=["umri", "s-umri"], default="umri")
    p.add_argument("--out", required=True, help="profile/solution JSON to write")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("robustness", help="margin table over datasets")
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--model", choices=["umri", "s-umri", "both"], default="umri")
    p.add_argument("--out", required=True, help="CSV to write")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("sparse", help="sparsest model at a retained margin")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=["umri", "s-umri"], default="umri")
    p.add_argument("--margin-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None, help="optional utility table CSV")
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("cost", help="information-cost curve of a fitted model")
    p.add_argument("--profile", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("synth", help="generate a ground-truth dataset")
    p.add_argument("--kind", choices=["feasible", "boundary"], default="feasible")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="ground-truth JSON")
    p.add_argument("--dataset-out", default=None, help="also write the bare dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("predict", help="predict behavior at a noise level")
    p.add_argument("--family", default=None, help="fitted family JSON")
    p.add_argument("--dataset", default=None, help="dataset to fit instead")
    p.add_argument("--etas", default=None, help="comma-separated grid for --dataset")
    p.add_argument("--save-family", default=None)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--truth-dataset", default=None)
    p.add_argument("--truth-agent", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON summary")
    p.add_argument("--table", default=None, help="optional per-class CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="aggregate artifacts into report tables")
    p.add_argument("--profiles", nargs="*", default=[])
    p.add_argument("--predictions", nargs="*", default=[])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    env_level = os.environ.get("INATTENTION_LOG")
    if env_level:
        level = getattr(logging, env_level.upper(), level)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InattentionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
