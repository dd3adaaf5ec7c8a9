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
import csv
import functools
import logging
import os
import sys
from types import SimpleNamespace

from . import brp, dataset as ds, predict as pred, sbrp, synth
from .constants import DEGENERATE_MARGIN, UNIT_FLOOR
from .errors import DimensionMismatch, InattentionError, IoFailure, NumericalFailure

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
    """Write an RFC 4180 table with LF row ends.  The writer quotes a cell
    holding a comma, a quote or a character of its terminator, so rows are
    written with CRLF, which quotes every CR and LF, and then end in LF."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows([header, *([_cell(v) for v in row] for row in rows)])
    ds.atomic_write_text(path, "".join(line[:-2] + "\n" for line in lines))


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
    if args.num_states is not None and args.num_states < 1:
        raise _Usage(f"--num-states {args.num_states} is not a positive class count")
    _require_inputs(args.softmax)
    groups = ds.read_softmax_log(args.softmax)
    data = ds.ingest_softmax(groups, num_states=args.num_states)
    ds.save_dataset(data, args.out)
    log.info("wrote dataset with %d agents to %s", data.num_agents, args.out)
    return 0


def _analyze(data, model: str, dataset_path: str) -> dict:
    """The profile/solution payload ``test`` writes for ``model``."""
    meta = _solver_metadata(dataset=os.path.basename(dataset_path))
    if model == "umri":
        profile, report = brp.brp_max_margin(data)
        return brp.profile_to_dict(data, profile, report, metadata=meta)
    solution, report = sbrp.sbrp_max_margin(data)
    return sbrp.solution_to_dict(data, solution, report, metadata=meta)


def cmd_test(args) -> int:
    _require_inputs(args.dataset)
    payload = _analyze(ds.load_dataset(args.dataset), args.model, args.dataset)
    ds.write_json(args.out, payload)
    log.info(
        "%s margin %.3e (degenerate=%s) -> %s",
        args.model,
        payload["margin"],
        payload["degenerate"],
        args.out,
    )
    return 0


def cmd_robustness(args) -> int:
    _require_inputs(*args.datasets)
    models = ["umri", "s-umri"] if args.model == "both" else [args.model]
    rows = []
    for path in args.datasets:
        data = ds.load_dataset(path)
        rows += [_profile_rows(_analyze(data, model, path), path)[0] for model in models]
    _write_csv(args.out, _ROBUSTNESS_COLUMNS, rows)
    return 0


def cmd_sparse(args) -> int:
    if not 0.0 < args.margin_fraction < 1.0:
        raise _Usage(f"--margin-fraction {args.margin_fraction} is not in (0, 1)")
    _require_inputs(args.dataset)
    data = ds.load_dataset(args.dataset)
    meta = _solver_metadata(
        dataset=os.path.basename(args.dataset), margin_fraction=args.margin_fraction
    )
    if args.model == "umri":
        profile = brp.brp_sparsest(data, args.margin_fraction)
        payload = brp.profile_to_dict(data, profile, metadata=meta)
    else:
        solution = sbrp.sbrp_sparsest(data, args.margin_fraction)
        payload = sbrp.solution_to_dict(data, solution, metadata=meta)
    ds.write_json(args.out, payload)
    if args.table:
        _write_csv(args.table, _UTILITY_COLUMNS, _profile_rows(payload, args.dataset)[1])
    return 0


def _fitted_model(raw):
    """The profile or solution a ``test``/``sparse`` output file holds."""
    model = raw.get("model")
    if model == "umri":
        return brp._profile_from_dict(raw)
    if model == "s-umri":
        return sbrp._solution_from_dict(raw)
    raise IoFailure(f"field 'model' is {model!r}, neither 'umri' nor 's-umri'")


def cmd_cost(args) -> int:
    _require_inputs(args.profile, args.dataset)
    data = ds.load_dataset(args.dataset)
    model = ds.read_json(args.profile, _fitted_model)
    if isinstance(model, brp.UtilityProfile):
        cost = brp.reconstruct_cost(data, model)
    else:
        cost = sbrp.reconstruct_cost_compact(data, model)
    rows = [
        [agent_id, float(cost.value(choice))]
        for agent_id, choice in zip(data.agent_ids, data.choices)
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
    # Every argument is checked before the fit, which can take minutes, and
    # before anything is written.
    if args.family:
        for flag in ("dataset", "etas", "save_family"):
            if getattr(args, flag) is not None:
                raise _Usage(f"--{flag.replace('_', '-')} does not apply with --family")
    elif not args.dataset or args.etas is None:
        raise _Usage("predict needs either --family or --dataset with --etas")
    truth = None
    if args.truth_dataset:
        _require_inputs(args.truth_dataset)
        truth_data = ds.load_dataset(args.truth_dataset)
        agents = truth_data.num_agents
        if not 0 <= args.truth_agent < agents:
            raise _Usage(f"--truth-agent {args.truth_agent} is not in [0, {agents})")
        truth = truth_data.choice(args.truth_agent)
    family = None
    if args.family:
        _require_inputs(args.family)
        family = pred.load_family(args.family)
        data = family.dataset
    else:
        _require_inputs(args.dataset)
        data = ds.load_dataset(args.dataset)
        try:
            etas = pred._noise_grid([float(v) for v in args.etas.split(",")], data.num_agents)
        except (ValueError, DimensionMismatch) as exc:
            raise _Usage(f"--etas {args.etas!r}: {exc}") from None
    shape = (data.num_states, data.num_actions)
    if truth is not None and truth.shape != shape:
        raise _Usage(
            f"--truth-dataset is {truth.shape[0]}x{truth.shape[1]}, "
            f"the fitted dataset {shape[0]}x{shape[1]}"
        )
    if truth is not None and shape[0] != shape[1]:
        raise _Usage(
            f"--truth-dataset scores per-class accuracy, which needs as many "
            f"actions as states; the fitted dataset is {shape[0]}x{shape[1]}"
        )
    pred.check_eta(etas if family is None else family.etas, args.eta)
    if family is None:
        family = pred.fit_family(data, etas)
        if args.save_family:
            pred.save_family(args.save_family, family)
    outcome = pred.predict_at(family, args.eta, truth=truth)
    payload = pred.prediction_to_dict(
        outcome, truth=truth, labels=family.dataset.labels
    )
    ds.write_json(args.out, payload)
    if args.table:
        _write_csv(args.table, _PREDICTION_COLUMNS, _prediction_rows(payload))
    return 0


def _profile_rows(raw, path: str):
    """(robustness row, utility rows, cost rows) of a profile/solution
    payload, just fitted or read back from a file, which must read as
    ``cost`` reads it.  Both verdict cells derive from the payload's strict
    margin, as in ``MarginReport.from_solution``: epsilon is
    eps* = max(margin, 0), and degenerate is eps* <= DEGENERATE_MARGIN."""
    _fitted_model(raw)
    epsilon, degenerate = brp._verdict(raw["margin"])
    robustness = [
        raw.get("metadata", {}).get("dataset", os.path.basename(path)),
        raw["model"],
        epsilon,
        float(raw["robustness"]) if raw.get("robustness") is not None else None,
        degenerate,
    ]
    if raw["model"] == "s-umri":
        tables = [("shared", raw["utility"])]
    else:
        tables = [(agent["agent_id"], agent["utility"]) for agent in raw["agents"]]
    utilities = [
        [agent_id, x, a, float(v)]
        for agent_id, utility in tables
        for x, values in enumerate(utility)
        for a, v in enumerate(values)
    ]
    costs = [[agent["agent_id"], float(agent["cost"])] for agent in raw["agents"]]
    return robustness, utilities, costs


def _prediction_rows(raw) -> list[list]:
    eta = float(raw["eta"])
    return [
        [eta, e["class"], e["predicted_diag"], e.get("true_diag"), e.get("delta")]
        for e in raw["per_class"]
    ]


def cmd_report(args) -> int:
    _require_inputs(*(args.profiles + args.predictions))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"could not write {args.out_dir}: {exc}") from exc
    profiles = [
        ds.read_json(path, lambda raw: _profile_rows(raw, path)) for path in args.profiles
    ]
    predictions = [
        row for path in args.predictions for row in ds.read_json(path, _prediction_rows)
    ]
    tables = []
    if profiles:
        robustness, utilities, costs = zip(*profiles)
        tables += [
            ("robustness", _ROBUSTNESS_COLUMNS, list(robustness)),
            ("sparse_utility", _UTILITY_COLUMNS, [r for rows in utilities for r in rows]),
            ("cost_curve", _COST_COLUMNS, [r for rows in costs for r in rows]),
        ]
    if predictions:
        tables.append(("predictions", _PREDICTION_COLUMNS, predictions))
    for name, columns, rows in tables:
        _write_csv(os.path.join(args.out_dir, f"{name}.csv"), columns, rows)
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

    p = sub.add_parser("test", help="max-margin rationality test")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=["umri", "s-umri"], default="umri")
    p.add_argument("--out", required=True, help="profile/solution JSON to write")

    p = sub.add_parser("robustness", help="margin table over datasets")
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--model", choices=["umri", "s-umri", "both"], default="umri")
    p.add_argument("--out", required=True, help="CSV to write")

    p = sub.add_parser("sparse", help="sparsest model at a retained margin")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=["umri", "s-umri"], default="umri")
    p.add_argument("--margin-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None, help="optional utility table CSV")

    p = sub.add_parser("cost", help="information-cost curve of a fitted model")
    p.add_argument("--profile", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a ground-truth dataset")
    p.add_argument(
        "--kind",
        choices=["feasible", "boundary"],
        default="feasible",
        help="feasible: a certificate of margin --margin; boundary: a certificate of margin "
        "0, though the data can still admit a positive UMRI margin",
    )
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="ground-truth JSON")
    p.add_argument("--dataset-out", default=None, help="also write the bare dataset")

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

    p = sub.add_parser("report", help="aggregate artifacts into report tables")
    p.add_argument("--profiles", nargs="*", default=[])
    p.add_argument("--predictions", nargs="*", default=[])
    p.add_argument("--out-dir", required=True)

    return parser


_parser = functools.cache(build_parser)  # parsing leaves it unchanged: one per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # basicConfig acts once per process; the level is set on every call.
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    log.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    try:
        # Looked up at call time, so a replaced ``cmd_*`` is the one run.
        return globals()[f"cmd_{args.command}"](args)
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
