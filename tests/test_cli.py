import json

import pytest

from inattention import brp, predict as pred, sbrp
from inattention.cli import main
from inattention.dataset import load_dataset, save_dataset
from inattention.errors import NumericalFailure, TooFewAgents
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

    def test_missing_input_is_usage_error(self, tmp_path):
        assert (
            run("ingest", "--softmax", tmp_path / "nope.csv", "--out", tmp_path / "o")
            == 2
        )

    @pytest.mark.parametrize(
        "line",
        [
            "b,i1,1,-0.1,1.1",  # negative entry
            "b,i1,1,0.4,0.5",  # row sum off by 0.1
            "b,i1,-1,0.4,0.6",  # negative label
            "b,i1,1,0.4",  # wrong field count
            "b,i1,1,0.4,x",  # malformed number
            "b,i1,2,0.4,0.6",  # label outside --num-states
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
        inputs = ["--dataset", dataset_file, "--etas", "1.0,1.1"]
        if source == "--family":
            fitted = tmp_path / "fitted.json"
            pred.save_family(str(fitted), pred.fit_family(d2, [1.0, 1.1]))
            inputs = ["--family", fitted]
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        code = run(
            "predict", *inputs, "--eta", eta, "--save-family", family,
            "--out", out,
        )
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
        inputs = ["--dataset", data, "--etas", "1.0,1.1,1.2"]
        if source == "--family":
            fitted = tmp_path / "fitted.json"
            pred.save_family(str(fitted), pred.fit_family(d3, [1.0, 1.1, 1.2]))
            inputs = ["--family", fitted]
        monkeypatch.setattr(pred, "fit_family", _no_fit)
        out, family = tmp_path / "p.json", tmp_path / "family.json"
        code = run(
            "predict", *inputs, "--eta", 1.05, "--truth-dataset", dataset_file,
            "--save-family", family, "--out", out,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not family.exists()

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


# A file that is not JSON, and a profile whose "agents" key is missing.
BAD_PROFILES = {
    "malformed": '{"model": "umri", "margin": ',
    "missing_key": '{"model": "umri", "margin": 0.1, "degenerate": false}',
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

    @pytest.mark.parametrize("kind", sorted(BAD_PROFILES))
    def test_report(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_PROFILES[kind])
        assert run("report", "--profiles", bad, "--out-dir", tmp_path / "r") == 1
        assert "error:" in capsys.readouterr().err


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
