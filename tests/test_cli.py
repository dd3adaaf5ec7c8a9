import argparse
import csv
import json
import logging
import tracemalloc

import pytest

from inattention import brp, cli, predict as pred, sbrp
from inattention.cli import main
from inattention.dataset import dataset_to_dict, load_dataset, save_dataset
from inattention.errors import NumericalFailure, TooFewAgents
from inattention.lp import LpSolution, LpStatus
from inattention.synth import generate_feasible_dataset, load_ground_truth


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset_file(tmp_path, d2):
    path = tmp_path / "d2.json"
    save_dataset(d2, str(path))
    return path


@pytest.fixture
def identical_file(tmp_path, identical_pair):
    path = tmp_path / "identical.json"
    save_dataset(identical_pair, str(path))
    return path


class TestIngest:
    def test_ingest_writes_dataset(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(
            "agent_id,image_id,true_label,p0,p1\n"
            "a,i0,0,0.8,0.2\n"
            "a,i1,1,0.3,0.7\n"
            "b,i0,0,0.7,0.3\n"
            "b,i1,1,0.4,0.6\n"
        )
        out = tmp_path / "data.json"
        assert run("ingest", "--softmax", log, "--out", out) == 0
        data = load_dataset(str(out))
        assert data.num_agents == 2

    def test_huge_label_exits_one_with_a_short_line(self, tmp_path, capsys):
        # Its classes count from the label, not from the records: no
        # allocation per class and no line listing every empty one.
        log = tmp_path / "log.csv"
        log.write_text(
            "agent_id,image_id,true_label,p0,p1\na,i0,0,0.9,0.1\na,i1,10000000,0.2,0.8\n"
        )
        out = tmp_path / "data.json"
        tracemalloc.start()
        try:
            code = run("ingest", "--softmax", log, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1 and "have no records" in err
        assert len(err) < 1000
        assert peak < 5_000_000
        assert not out.exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        assert (
            run("ingest", "--softmax", tmp_path / "nope.csv", "--out", tmp_path / "o")
            == 2
        )

    @pytest.mark.parametrize("num_states", [0, -3])
    def test_num_states_below_one_is_usage_error(self, tmp_path, capsys, num_states):
        log = tmp_path / "log.csv"
        log.write_text("agent_id,image_id,true_label,p0,p1\na,i0,0,0.8,0.2\na,i1,1,0.3,0.7\n")
        out = tmp_path / "data.json"
        assert run("ingest", "--softmax", log, "--num-states", num_states, "--out", out) == 2
        assert f"error: --num-states {num_states} is not" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "b,i1,1,-0.1,1.1",  # negative entry
            "b,i1,1,0.4,0.5",  # row sum off by 0.1
            "b,i1,-1,0.4,0.6",  # negative label
            "b,i1,1,0.4",  # wrong field count
            "b,i1,1,0.4,x",  # malformed number
            "b,i1,2,0.4,0.6",  # label outside --num-states
            "b,i1,1.5,0.4,0.6",  # fractional label, not truncated to 1
        ],
    )
    def test_defective_log_is_domain_error(self, tmp_path, capsys, line):
        log = tmp_path / "log.csv"
        log.write_text(
            "agent_id,image_id,true_label,p0,p1\n"
            "a,i0,0,0.8,0.2\n"
            "a,i1,1,0.3,0.7\n"
            "b,i0,0,0.7,0.3\n"
            f"{line}\n"
        )
        out = tmp_path / "data.json"
        assert run("ingest", "--softmax", log, "--num-states", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        if line == "b,i1,1,0.4":
            assert f"{log}:5:" in err  # the field-count error names the line
        assert not out.exists()


class TestTest:
    def test_umri_profile(self, tmp_path, dataset_file):
        out = tmp_path / "profile.json"
        assert run("test", "--dataset", dataset_file, "--out", out) == 0
        raw = json.loads(out.read_text())
        assert raw["model"] == "umri"
        assert raw["margin"] >= 0.04
        assert raw["degenerate"] is False
        assert raw["metadata"]["dataset"] == dataset_file.name == "d2.json"

    def test_degenerate_dataset_still_exits_zero(self, tmp_path, identical_file):
        out = tmp_path / "profile.json"
        assert run("test", "--dataset", identical_file, "--out", out) == 0
        raw = json.loads(out.read_text())
        assert raw["degenerate"] is True
        assert raw["margin"] <= 1e-7

    def test_s_umri_solution(self, tmp_path, dataset_file):
        out = tmp_path / "solution.json"
        assert run("test", "--dataset", dataset_file, "--model", "s-umri", "--out", out) == 0
        raw = json.loads(out.read_text())
        assert raw["model"] == "s-umri"
        assert "utility" in raw

    def test_numerical_failure_exits_three_and_writes_nothing(
        self, tmp_path, dataset_file, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise NumericalFailure("injected")

        monkeypatch.setattr(brp, "brp_max_margin", fail)
        out = tmp_path / "profile.json"
        assert run("test", "--dataset", dataset_file, "--out", out) == 3
        assert "numerical failure: injected" in capsys.readouterr().err
        assert not out.exists()

    def test_an_infeasible_solve_exits_three_and_writes_nothing(
        self, tmp_path, dataset_file, capsys, monkeypatch
    ):
        # Every program a fit builds is feasible, so "infeasible" is never a verdict.
        monkeypatch.setattr(brp, "solve_lp", lambda lp, start=None: LpSolution(LpStatus.INFEASIBLE))
        out = tmp_path / "profile.json"
        assert run("test", "--dataset", dataset_file, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: feasibility program reported infeasible; ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestRobustness:
    def test_two_fixtures_two_rows(self, tmp_path, dataset_file, identical_file):
        out = tmp_path / "rob.csv"
        assert (
            run(
                "robustness",
                "--datasets",
                dataset_file,
                identical_file,
                "--out",
                out,
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "dataset,model,epsilon,robustness,degenerate"
        assert len(lines) == 3

    def test_table_equals_the_report_of_the_test_outputs(self, tmp_path):
        d = tmp_path / "d.json"
        assert run(
            "synth", "--agents", 3, "--states", 2, "--actions", 2, "--seed", 1,
            "--out", tmp_path / "gt.json", "--dataset-out", d,
        ) == 0
        profiles = [tmp_path / "umri.json", tmp_path / "s-umri.json"]
        for path in profiles:
            assert run("test", "--dataset", d, "--model", path.stem, "--out", path) == 0
        # The degenerate s-UMRI fit's strict margin is a rounding error
        # below zero; its epsilon cell reads eps* = 0.0 in both tables.
        assert json.loads(profiles[1].read_text())["margin"] < 0
        rob = tmp_path / "rob.csv"
        assert run("robustness", "--datasets", d, "--model", "both", "--out", rob) == 0
        assert run("report", "--profiles", *profiles, "--out-dir", tmp_path / "r") == 0
        assert rob.read_bytes() == (tmp_path / "r" / "robustness.csv").read_bytes()
        assert rob.read_text().splitlines()[2].split(",")[2] == "0.0"


class TestSparseAndCost:
    def test_sparse_table_shape(self, tmp_path, dataset_file):
        out = tmp_path / "sparse.json"
        table = tmp_path / "sparse.csv"
        assert (
            run(
                "sparse", "--dataset", dataset_file, "--out", out, "--table", table
            )
            == 0
        )
        lines = table.read_text().strip().splitlines()
        # header + K * X * A rows
        assert len(lines) == 1 + 2 * 2 * 2

    def test_s_umri_sparse_table_has_shared_rows(self, tmp_path, dataset_file):
        out = tmp_path / "sparse.json"
        table = tmp_path / "sparse.csv"
        code = run(
            "sparse", "--dataset", dataset_file, "--model", "s-umri",
            "--out", out, "--table", table,
        )
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "agent_id,state,action,value"
        # header + X * A rows of the one shared utility
        assert len(lines) == 1 + 2 * 2
        assert {line.split(",")[0] for line in lines[1:]} == {"shared"}
        utility = json.loads(out.read_text())["utility"]
        assert [float(line.split(",")[3]) for line in lines[1:]] == sum(utility, [])

    def test_sparse_on_degenerate_exits_one(self, tmp_path, identical_file):
        assert (
            run("sparse", "--dataset", identical_file, "--out", tmp_path / "s.json")
            == 1
        )

    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.2])
    def test_margin_fraction_outside_unit_interval_is_usage_error(
        self, tmp_path, dataset_file, capsys, monkeypatch, fraction
    ):
        monkeypatch.setattr(brp, "brp_sparsest", _no_fit)
        out = tmp_path / "s.json"
        code = run(
            "sparse", "--dataset", dataset_file, "--margin-fraction", fraction,
            "--out", out,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cost_curve(self, tmp_path, dataset_file):
        profile = tmp_path / "profile.json"
        run("test", "--dataset", dataset_file, "--out", profile)
        out = tmp_path / "cost.csv"
        assert (
            run("cost", "--profile", profile, "--dataset", dataset_file, "--out", out)
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "agent_id,cost"
        assert len(lines) == 3
        raw = json.loads(profile.read_text())
        fitted = {a["agent_id"]: a["cost"] for a in raw["agents"]}
        for line in lines[1:]:
            agent_id, value = line.split(",")
            assert float(value) == pytest.approx(fitted[agent_id], abs=1e-8)

    def test_cost_curve_of_an_s_umri_solution(self, tmp_path, dataset_file):
        solution = tmp_path / "solution.json"
        run("test", "--dataset", dataset_file, "--model", "s-umri", "--out", solution)
        out = tmp_path / "cost.csv"
        assert (
            run("cost", "--profile", solution, "--dataset", dataset_file, "--out", out)
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "agent_id,cost"
        agents = json.loads(solution.read_text())["agents"]
        assert [line.split(",")[0] for line in lines[1:]] == [
            a["agent_id"] for a in agents
        ]
        for line, agent in zip(lines[1:], agents):
            assert float(line.split(",")[1]) == pytest.approx(agent["cost"], abs=1e-8)

    def test_cost_of_a_file_of_neither_model_exits_one(
        self, tmp_path, d2, dataset_file, capsys
    ):
        family = tmp_path / "family.json"
        pred.save_family(str(family), pred.fit_family(d2, [1.0, 1.1]))
        out = tmp_path / "cost.csv"
        code = run("cost", "--profile", family, "--dataset", dataset_file, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "field 'model' is None" in err
        assert not out.exists()


class TestSynthPredict:
    def test_synth_and_predict_pipeline(self, tmp_path):
        gt = tmp_path / "gt.json"
        data = tmp_path / "data.json"
        assert (
            run(
                "synth",
                "--agents", 5, "--states", 3, "--actions", 3,
                "--margin", 0.01, "--seed", 11,
                "--out", gt, "--dataset-out", data,
            )
            == 0
        )
        summary = tmp_path / "pred.json"
        table = tmp_path / "pred.csv"
        code = run(
            "predict",
            "--dataset", data,
            "--etas", "1.0,1.1,1.2,1.3,1.4",
            "--eta", 1.25,
            "--out", summary,
            "--table", table,
            "--save-family", tmp_path / "family.json",
        )
        assert code == 0
        raw = json.loads(summary.read_text())
        assert raw["eta"] == 1.25
        assert raw["nias_consistent"] in (True, False)
        assert len(raw["per_class"]) == 3
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "eta,class,predicted_diag,true_diag,delta"

    def test_boundary_synth_writes_both_files(self, tmp_path):
        gt, data = tmp_path / "gt.json", tmp_path / "data.json"
        code = run(
            "synth", "--kind", "boundary", "--agents", 3, "--states", 2,
            "--actions", 2, "--seed", 13, "--out", gt, "--dataset-out", data,
        )
        assert code == 0
        truth = load_ground_truth(str(gt))
        assert truth.construction_margin == 0.0
        assert load_dataset(str(data)).approx_equal(truth.dataset)

    @pytest.mark.parametrize("kind", ["feasible", "boundary"])
    def test_synth_of_a_lone_agent(self, tmp_path, kind):
        gt = tmp_path / "gt.json"
        code = run(
            "synth", "--kind", kind, "--agents", 1, "--states", 3,
            "--actions", 3, "--seed", 1, "--out", gt,
        )
        assert code == 0
        truth = load_ground_truth(str(gt))
        assert truth.dataset.num_agents == 1 and len(truth.utilities) == 1
        # The file reads back, but rationality tests still need two agents.
        with pytest.raises(TooFewAgents):
            brp.brp_max_margin(truth.dataset)
        with pytest.raises(TooFewAgents):
            sbrp.sbrp_max_margin(truth.dataset)

    @pytest.mark.parametrize(
        "bad",
        [
            ("--agents", 0),
            ("--states", 0),
            ("--actions", 0),
            ("--seed", -5),
        ],
    )
    def test_synth_of_a_bad_shape_exits_one(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.json"
        code = run(
            "synth", "--agents", 2, "--states", 3, "--actions", 3,
            "--seed", 1, *bad, "--out", gt,
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not gt.exists()

    def test_predict_without_family_or_dataset_is_usage_error(
        self, tmp_path, capsys
    ):
        out = tmp_path / "p.json"
        assert run("predict", "--eta", 1.05, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--dataset", "--family"])
    @pytest.mark.parametrize("eta", ["1.5", "nan", "0.5"])
    def test_eta_off_the_grid_exits_one_before_any_fit(
        self, tmp_path, d2, dataset_file, capsys, monkeypatch, source, eta
    ):
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        inputs = ["--dataset", dataset_file, "--etas", "1.0,1.1", "--save-family", family]
        if source == "--family":
            fitted = tmp_path / "fitted.json"
            pred.save_family(str(fitted), pred.fit_family(d2, [1.0, 1.1]))
            inputs = ["--family", fitted]
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        code = run("predict", *inputs, "--eta", eta, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: noise level {float(eta)} outside the fitted grid" in err
        assert not out.exists() and not family.exists()

    @pytest.mark.parametrize("index, bad", [(1, "nan"), (2, "inf")])
    def test_family_with_non_finite_grid_exits_one(self, tmp_path, capsys, index, bad):
        d3 = generate_feasible_dataset(3, 3, 3, margin=0.01, seed=2).dataset
        fitted = tmp_path / "fitted.json"
        pred.save_family(str(fitted), pred.fit_family(d3, [1.0, 1.1, 1.2]))
        raw = json.loads(fitted.read_text())
        raw["etas"][index] = float(bad)
        fitted.write_text(json.dumps(raw))
        out = tmp_path / "p.json"
        assert run("predict", "--family", fitted, "--eta", 1.05, "--out", out) == 1
        assert "noise levels must be finite" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _saved_family(tmp_path):
        """The (dataset, family) files of a 3x2x2 synth and its fitted family."""
        data, family = tmp_path / "data.json", tmp_path / "family.json"
        run(
            "synth", "--agents", 3, "--states", 2, "--actions", 2, "--seed", 1,
            "--out", tmp_path / "gt.json", "--dataset-out", data,
        )
        code = run(
            "predict", "--dataset", data, "--etas", "1,1.5,2", "--eta", 1.25,
            "--save-family", family, "--out", tmp_path / "fit.json",
        )
        assert code == 0
        return data, family

    @pytest.mark.parametrize("edit", ["violating", "degenerate", "negative"])
    def test_family_whose_profile_no_family_admits_exits_one(self, tmp_path, capsys, edit):
        # Agent 0's cost at 0.9 violates the residuals (strict margin
        # -0.798); every utility and cost at 0.5 leaves a zero margin; every
        # utility shifted by -1 keeps the residuals but is negative.
        data, family = self._saved_family(tmp_path)
        raw = json.loads(family.read_text())
        for k, agent in enumerate(raw["profile"]["agents"]):
            if edit == "degenerate":
                agent["utility"], agent["cost"] = [[0.5, 0.5], [0.5, 0.5]], 0.5
            elif edit == "negative":
                agent["utility"] = [[v - 1.0 for v in row] for row in agent["utility"]]
            elif k == 0:
                agent["cost"] = 0.9
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(raw))
        capsys.readouterr()
        out = tmp_path / "p.json"
        assert run("predict", "--family", edited, "--eta", 1.75, "--out", out) == 1
        first = capsys.readouterr().err.splitlines()[0]
        assert not out.exists()
        if edit == "degenerate":
            assert first == (
                "error: max-margin fit is numerically zero; predictions are meaningless"
            )
            return
        if edit == "negative":
            assert first == "error: utility entries must be finite and nonnegative"
            return
        # The same line as the cost curve of the edited profile.
        profile, cost = tmp_path / "profile.json", tmp_path / "cost.csv"
        profile.write_text(json.dumps(raw["profile"]))
        assert run("cost", "--profile", profile, "--dataset", data, "--out", cost) == 1
        assert capsys.readouterr().err.splitlines()[0] == first
        assert "violates the feasibility residuals" in first
        assert not cost.exists()

    @classmethod
    def _predict_from_miscounted_family(cls, tmp_path, capsys, miscount):
        _, family = cls._saved_family(tmp_path)
        raw = json.loads(family.read_text())
        agents = raw["profile"]["agents"]
        miscount(agents)
        miscounted = tmp_path / "miscounted.json"
        miscounted.write_text(json.dumps(raw))
        out = tmp_path / "p.json"
        assert run("predict", "--family", miscounted, "--eta", 1.75, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: profile has {len(agents)} agents, dataset 3" in err
        assert "IndexError" not in err
        assert not out.exists()

    def test_family_whose_profile_is_one_agent_short_exits_one(self, tmp_path, capsys):
        self._predict_from_miscounted_family(tmp_path, capsys, lambda agents: agents.pop())

    def test_family_whose_profile_is_one_agent_more_exits_one(self, tmp_path, capsys):
        self._predict_from_miscounted_family(
            tmp_path, capsys, lambda agents: agents.append(dict(agents[-1], agent_id="extra"))
        )

    @pytest.mark.parametrize("flag", ["--dataset", "--etas", "--save-family"])
    def test_fit_flag_next_to_family_is_usage_error(
        self, tmp_path, d2, dataset_file, capsys, monkeypatch, flag
    ):
        fitted, saved, out = (tmp_path / n for n in ("fitted.json", "fam2.json", "p.json"))
        pred.save_family(str(fitted), pred.fit_family(d2, [1.0, 1.1]))
        value = {"--dataset": dataset_file, "--etas": "5,6,7", "--save-family": saved}

        def no_read(*args, **kwargs):
            raise AssertionError("the family was read before the arguments were checked")

        monkeypatch.setattr(pred, "load_family", no_read)
        code = run(
            "predict", "--family", fitted, flag, value[flag], "--eta", 1.05, "--out", out
        )
        assert code == 2
        assert f"error: {flag} does not apply with --family" in capsys.readouterr().err
        assert not out.exists() and not saved.exists()

    def test_out_of_range_eta_exits_one(self, tmp_path):
        data = tmp_path / "data.json"
        run(
            "synth", "--agents", 3, "--states", 3, "--actions", 3,
            "--margin", 0.01, "--seed", 2, "--out", tmp_path / "gt.json",
            "--dataset-out", data,
        )
        family = tmp_path / "family.json"
        assert (
            run(
                "predict", "--dataset", data, "--etas", "1.0,1.1,1.2",
                "--eta", 1.1, "--out", tmp_path / "p.json",
                "--save-family", family,
            )
            == 0
        )
        assert (
            run(
                "predict", "--family", family, "--eta", 2.5,
                "--out", tmp_path / "p2.json",
            )
            == 1
        )


    @pytest.mark.parametrize(
        "args",
        [
            ["--etas", "1.0,x"],
            ["--etas", "1.0,,1.1"],
            ["--etas", "1.0,nan"],
            ["--etas", "1.0,1.1", "--truth-agent", 7],
            ["--etas", "1.0,1.1", "--truth-agent", 2],
            ["--etas", "1.0,1.1", "--truth-agent", -1],
            ["--etas", "1.1,1.0"],
            ["--etas", "1.0,1.0"],
            ["--etas", "1.0,1.1,1.2"],
        ],
        ids=[
            "letter", "empty entry", "nan", "agent 7", "agent K", "agent -1",
            "decreasing", "repeated", "one level too many",
        ],
    )
    def test_bad_grid_or_truth_agent_is_usage_error_before_any_fit(
        self, tmp_path, dataset_file, capsys, monkeypatch, args
    ):
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        code = run(
            "predict", "--dataset", dataset_file, "--eta", 1.05,
            "--truth-dataset", dataset_file, "--save-family", family,
            "--out", out, *args,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not family.exists()


    @pytest.mark.parametrize("source", ["--dataset", "--family"])
    def test_truth_of_another_shape_is_usage_error_before_any_fit(
        self, tmp_path, dataset_file, capsys, monkeypatch, source
    ):
        d3 = generate_feasible_dataset(3, 3, 3, margin=0.01, seed=2).dataset
        data = tmp_path / "d3.json"
        save_dataset(d3, str(data))
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        inputs = ["--dataset", data, "--etas", "1.0,1.1,1.2", "--save-family", family]
        if source == "--family":
            fitted = tmp_path / "fitted.json"
            pred.save_family(str(fitted), pred.fit_family(d3, [1.0, 1.1, 1.2]))
            inputs = ["--family", fitted]
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        code = run(
            "predict", *inputs, "--eta", 1.05, "--truth-dataset", dataset_file,
            "--out", out,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not family.exists()

    @pytest.mark.parametrize("source", ["--dataset", "--family"])
    def test_non_square_truth_is_usage_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # Per-class accuracy pairs class x with action x.
        d32 = generate_feasible_dataset(3, 3, 2, margin=0.01, seed=1).dataset
        data = tmp_path / "d32.json"
        save_dataset(d32, str(data))
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        inputs = ["--dataset", data, "--etas", "1.0,1.5,2.0", "--save-family", family]
        if source == "--family":
            fitted = tmp_path / "fitted.json"
            pred.save_family(str(fitted), pred.fit_family(d32, [1.0, 1.5, 2.0]))
            inputs = ["--family", fitted]
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        code = run(
            "predict", *inputs, "--eta", 1.25, "--truth-dataset", data, "--out", out
        )
        assert code == 2
        assert "as many actions as states" in capsys.readouterr().err
        assert not out.exists() and not family.exists()

    def test_dataset_labels_name_the_table_rows(self, tmp_path, d2):
        data = tmp_path / "labelled.json"
        data.write_text(json.dumps({**dataset_to_dict(d2), "labels": ["cat", "dog"]}))
        family = tmp_path / "family.json"
        fitted, read_back = tmp_path / "fitted.csv", tmp_path / "family.csv"
        code = run(
            "predict", "--dataset", data, "--etas", "1.0,1.1", "--eta", 1.05,
            "--save-family", family, "--out", tmp_path / "p.json", "--table", fitted,
        )
        assert code == 0
        code = run(
            "predict", "--family", family, "--eta", 1.05,
            "--out", tmp_path / "q.json", "--table", read_back,
        )
        assert code == 0
        for table in (fitted, read_back):
            rows = table.read_text().strip().splitlines()[1:]
            assert [row.split(",")[1] for row in rows] == ["cat", "dog"]

    def test_repeated_labels_exit_one_before_any_fit(self, tmp_path, d2, capsys, monkeypatch):
        # Two states under one label would share one row of the table.
        data = tmp_path / "labelled.json"
        data.write_text(json.dumps({**dataset_to_dict(d2), "labels": ["cat", "cat"]}))
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        out, table = tmp_path / "p.json", tmp_path / "p.csv"
        code = run(
            "predict", "--dataset", data, "--etas", "1.0,1.1", "--eta", 1.05,
            "--out", out, "--table", table,
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: state label 'cat' names more than one state"
        ]
        assert not out.exists() and not table.exists()

    def test_truth_agent_scores_against_that_agent(self, tmp_path, dataset_file):
        out = tmp_path / "p.json"
        code = run(
            "predict", "--dataset", dataset_file, "--etas", "1.0,1.1", "--eta", 1.05,
            "--truth-dataset", dataset_file, "--truth-agent", 1, "--out", out,
        )
        assert code == 0
        truth = load_dataset(str(dataset_file)).choice(1)
        rows = json.loads(out.read_text())["per_class"]
        assert [row["true_diag"] for row in rows] == truth.diagonal().tolist()


def _no_fit(*args, **kwargs):
    raise AssertionError("a fit ran before the arguments were checked")


# A file that is not JSON, a profile whose "agents" key is missing, and a
# table-ready profile whose "model" is missing or neither "umri" nor "s-umri".
_TABLE_READY = {
    "margin": 0.1,
    "degenerate": False,
    "agents": [{"agent_id": "a", "utility": [[0.5, 0.1], [0.1, 0.5]], "cost": 0.1}],
}
BAD_PROFILES = {
    "malformed": '{"model": "umri", "margin": ',
    "missing_key": '{"model": "umri", "margin": 0.1, "degenerate": false}',
    "no_model": json.dumps(_TABLE_READY),
    "unknown_model": json.dumps({"model": "xyz", **_TABLE_READY}),
    # A fit's utilities are one (K, X, A) stack: matrices of two shapes are none.
    "ragged": json.dumps(
        {
            "model": "umri",
            **_TABLE_READY,
            "agents": [*_TABLE_READY["agents"], {"agent_id": "b", "utility": [[0.5]], "cost": 0.1}],
        }
    ),
}


class TestUnreadableProfile:
    """An unreadable artifact is a domain error: exit 1, "error:" on stderr."""

    @pytest.mark.parametrize("kind", sorted(BAD_PROFILES))
    def test_cost(self, tmp_path, dataset_file, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_PROFILES[kind])
        code = run(
            "cost", "--profile", bad, "--dataset", dataset_file, "--out", tmp_path / "c.csv"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_ragged_names_the_first_agent_off_the_shape(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_PROFILES["ragged"])
        code = run(
            "cost", "--profile", bad, "--dataset", dataset_file, "--out", tmp_path / "c.csv"
        )
        assert code == 1
        expected = f"error: {bad}: utility 1 has shape (1, 1), expected (2, 2)\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("kind", sorted(BAD_PROFILES))
    def test_report(self, tmp_path, dataset_file, capsys, kind):
        """``report`` rejects what ``cost`` rejects, with the same message."""
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_PROFILES[kind])
        run("cost", "--profile", bad, "--dataset", dataset_file, "--out", tmp_path / "c.csv")
        cost_err = capsys.readouterr().err
        assert run("report", "--profiles", bad, "--out-dir", tmp_path / "r") == 1
        assert capsys.readouterr().err == cost_err
        assert not (tmp_path / "r" / "robustness.csv").exists()


# A fit file with one number made non-finite: (model, edit of the payload).
NON_FINITE_FITS = {
    "umri margin": ("umri", lambda raw: raw.update(margin=float("inf"))),
    "s-umri margin": ("s-umri", lambda raw: raw.update(margin=float("nan"))),
    "s-umri cost": ("s-umri", lambda raw: raw["agents"][0].update(cost=float("nan"))),
    "s-umri lambda": ("s-umri", lambda raw: raw["agents"][1].update({"lambda": float("nan")})),
}


class TestNonFiniteFit:
    """``cost`` and ``report`` reject a fit file holding NaN or infinity,
    with the same message."""

    @pytest.mark.parametrize("kind", sorted(NON_FINITE_FITS))
    def test_cost_and_report_exit_one(self, tmp_path, dataset_file, capsys, kind):
        model, edit = NON_FINITE_FITS[kind]
        fit = tmp_path / "fit.json"
        assert run("test", "--dataset", dataset_file, "--model", model, "--out", fit) == 0
        raw = json.loads(fit.read_text())
        edit(raw)
        fit.write_text(json.dumps(raw))
        capsys.readouterr()
        code = run("cost", "--profile", fit, "--dataset", dataset_file, "--out", tmp_path / "c.csv")
        cost_err = capsys.readouterr().err
        assert code == 1 and "finite" in cost_err
        assert run("report", "--profiles", fit, "--out-dir", tmp_path / "r") == 1
        assert capsys.readouterr().err == cost_err
        assert not (tmp_path / "c.csv").exists()
        assert not (tmp_path / "r" / "cost_curve.csv").exists()


class TestUnusablePath:
    """A path that cannot be read or written is a domain error: exit 1 with
    one "error:" line, and no temporary file left behind."""

    def test_out_naming_a_directory(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run("test", "--dataset", dataset_file, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not write") and err.count("\n") == 1
        assert list(tmp_path.glob(".tmp-*~")) == []

    def test_report_out_dir_naming_a_file(self, tmp_path, dataset_file, capsys):
        profile, taken = tmp_path / "profile.json", tmp_path / "taken"
        assert run("test", "--dataset", dataset_file, "--out", profile) == 0
        taken.write_text("kept\n")
        capsys.readouterr()
        assert run("report", "--profiles", profile, "--out-dir", taken) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not write") and err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("cost", "--profile", "{dir}", "--dataset", "{data}", "--out", "{dir}/c.csv"),
            ("ingest", "--softmax", "{dir}", "--out", "{dir}/d.json"),
        ],
        ids=["cost --profile", "ingest --softmax"],
    )
    def test_input_naming_a_directory(self, tmp_path, dataset_file, capsys, argv):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        argv = [a.format(dir=inputs, data=dataset_file) for a in argv]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not read") and err.count("\n") == 1
        assert list(inputs.iterdir()) == []


def test_repeated_agent_id_exits_one_before_any_fit(tmp_path, capsys, monkeypatch):
    # Two agents under one id would share one row of every table.
    data, profile = tmp_path / "d.json", tmp_path / "profile.json"
    run(
        "synth", "--agents", 5, "--states", 4, "--actions", 4, "--seed", 7,
        "--out", tmp_path / "gt.json", "--dataset-out", data,
    )
    assert run("test", "--dataset", data, "--out", profile) == 0
    raw = json.loads(data.read_text())
    raw["agents"][1]["agent_id"] = "agent-0"
    data.write_text(json.dumps(raw))
    for module, fit in ((brp, "brp_max_margin"), (brp, "brp_sparsest"), (sbrp, "sbrp_max_margin")):
        monkeypatch.setattr(module, fit, _no_fit)
    out = tmp_path / "out"
    for argv in (
        ("test", "--dataset", data, "--out", out),
        ("sparse", "--dataset", data, "--out", out, "--table", tmp_path / "sparse.csv"),
        ("cost", "--profile", profile, "--dataset", data, "--out", out),
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {data}: agent id 'agent-0' names more than one agent"], argv
        assert not out.exists()
    assert not (tmp_path / "sparse.csv").exists()


class TestErrorsNameTheFile:
    """An error in one of several input files names that file, keeping its
    exit code."""

    def test_report_names_the_bad_profile(self, tmp_path, dataset_file, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert run("test", "--dataset", dataset_file, "--out", good) == 0
        bad.write_text(json.dumps({**json.loads(good.read_text()), "margin": float("nan")}))
        capsys.readouterr()
        assert run("report", "--profiles", good, bad, "--out-dir", tmp_path / "r") == 1
        assert capsys.readouterr().err == f"error: {bad}: margin nan is not finite\n"
        assert not (tmp_path / "r" / "robustness.csv").exists()

    def test_robustness_names_the_bad_dataset(self, tmp_path, dataset_file, d2, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**dataset_to_dict(d2), "labels": ["cat"]}))
        out = tmp_path / "rob.csv"
        assert run("robustness", "--datasets", dataset_file, bad, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: 1 labels for 2 states\n"
        assert not out.exists()


class TestReport:
    def test_report_tables(self, tmp_path, dataset_file):
        profile = tmp_path / "profile.json"
        run("test", "--dataset", dataset_file, "--out", profile)
        out_dir = tmp_path / "reports"
        assert run("report", "--profiles", profile, "--out-dir", out_dir) == 0
        assert (out_dir / "robustness.csv").exists()
        assert (out_dir / "sparse_utility.csv").exists()
        assert (out_dir / "cost_curve.csv").exists()
        rows = (out_dir / "robustness.csv").read_text().strip().splitlines()
        assert len(rows) == 2


class TestTables:
    @pytest.mark.parametrize(
        "agent_id",
        ["ckpt,1", 'say "hi"', "two\nlines", "a\rb"],
        ids=["comma", "quote", "line break", "carriage return"],
    )
    def test_every_row_reads_back_with_the_header_field_count(self, tmp_path, d2, agent_id):
        raw = dataset_to_dict(d2)
        raw["agents"][0]["agent_id"] = agent_id
        data, profile, sparse = tmp_path / "d,1.json", tmp_path / "umri.json", tmp_path / "s.json"
        data.write_text(json.dumps(raw))
        assert run("test", "--dataset", data, "--out", profile) == 0
        assert run("sparse", "--dataset", data, "--out", sparse, "--table", tmp_path / "s.csv") == 0
        assert run("cost", "--profile", profile, "--dataset", data, "--out", tmp_path / "c.csv") == 0
        assert run("report", "--profiles", profile, sparse, "--out-dir", tmp_path / "report") == 0
        tables = sorted(tmp_path.rglob("*.csv"))
        assert len(tables) == 5
        for table in tables:
            with open(table, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), table.name
        with open(tmp_path / "c.csv", newline="", encoding="utf-8") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["agent_id", agent_id, "blurry"]
        with open(tmp_path / "report" / "robustness.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1][0] == "d,1.json"

    @pytest.mark.parametrize("fixture", ["dataset_file", "identical_file"])
    def test_report_derives_the_degenerate_cell_from_the_margin(self, tmp_path, request, fixture):
        data, profile = request.getfixturevalue(fixture), tmp_path / "profile.json"
        assert run("test", "--dataset", data, "--out", profile) == 0
        raw = json.loads(profile.read_text())
        degenerate = brp._verdict(raw["margin"])[1]
        assert raw["degenerate"] is degenerate
        raw["degenerate"] = not degenerate
        profile.write_text(json.dumps(raw))
        assert run("report", "--profiles", profile, "--out-dir", tmp_path / "r") == 0
        with open(tmp_path / "r" / "robustness.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["degenerate"] == ("true" if degenerate else "false")


class TestMain:
    """``main`` can be called again in one process, as the benchmark does."""

    def test_second_call_builds_no_parser(self, tmp_path, monkeypatch):
        argv = ("ingest", "--softmax", tmp_path / "missing.csv", "--out", tmp_path / "d.json")
        assert run(*argv) == 2
        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(*argv) == 2
        assert built == []

    def test_replaced_subcommand_is_the_one_run(self, tmp_path, monkeypatch):
        argv = ("cost", "--profile", tmp_path / "p.json", "--dataset", tmp_path / "d.json",
                "--out", tmp_path / "c.csv")
        assert run(*argv) == 2
        calls = []
        monkeypatch.setattr(cli, "cmd_cost", lambda args: calls.append(args) or 7)
        assert run(*argv) == 7
        assert [(args.command, args.out) for args in calls] == [("cost", str(tmp_path / "c.csv"))]

    def test_verbose_applies_per_call(self, tmp_path, caplog, request):
        request.addfinalizer(lambda: cli.log.setLevel(logging.NOTSET))
        synth = ("synth", "--agents", 2, "--states", 2, "--actions", 2, "--seed", 1,
                 "--out", tmp_path / "gt.json")
        for verbose in (True, False, True):
            caplog.clear()
            assert run(*(("-v",) if verbose else ()), *synth) == 0
            logged = [r.getMessage() for r in caplog.records if r.name == "inattention"]
            assert len(logged) == verbose and all("wrote ground truth" in m for m in logged)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        # The two runs sit in directories whose paths differ in length; the
        # outputs name inputs by file name only, so every byte matches.
        outputs = {}
        for tag in ("a", "a-much-longer-directory-name"):
            base = tmp_path / tag
            base.mkdir()

            def p(name):
                return base / name

            steps = [
                ("synth", "--agents", 3, "--states", 2, "--actions", 2,
                 "--margin", 0.01, "--seed", 42,
                 "--out", p("gt.json"), "--dataset-out", p("data.json")),
                ("test", "--dataset", p("data.json"), "--out", p("profile.json")),
                ("robustness", "--datasets", p("data.json"), "--out", p("rob.csv")),
                ("sparse", "--dataset", p("data.json"), "--out", p("sparse.json"),
                 "--table", p("sparse.csv")),
                ("cost", "--profile", p("profile.json"), "--dataset", p("data.json"),
                 "--out", p("cost.csv")),
                ("report", "--profiles", p("profile.json"), p("sparse.json"),
                 "--out-dir", p("report")),
            ]
            for argv in steps:
                assert run(*argv) == 0
            outputs[tag] = {
                str(path.relative_to(base)): path.read_bytes()
                for path in sorted(base.rglob("*")) if path.is_file()
            }
        first, second = outputs.values()
        assert len(first) == 10
        assert first == second
