import json

import pytest

from inattention.cli import main
from inattention.dataset import load_dataset, save_dataset


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


class TestTest:
    def test_umri_profile(self, tmp_path, dataset_file):
        out = tmp_path / "profile.json"
        assert run("test", "--dataset", dataset_file, "--out", out) == 0
        raw = json.loads(out.read_text())
        assert raw["model"] == "umri"
        assert raw["margin"] >= 0.04
        assert raw["degenerate"] is False
        assert raw["metadata"]["dataset"] == str(dataset_file)

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

    def test_sparse_on_degenerate_exits_one(self, tmp_path, identical_file):
        assert (
            run("sparse", "--dataset", identical_file, "--out", tmp_path / "s.json")
            == 1
        )

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
        files = {}
        for tag in ("first", "second"):
            base = tmp_path / tag
            base.mkdir()
            run(
                "synth", "--agents", 3, "--states", 2, "--actions", 2,
                "--margin", 0.01, "--seed", 42,
                "--out", base / "gt.json", "--dataset-out", base / "data.json",
            )
            run("test", "--dataset", base / "data.json", "--out", base / "profile.json")
            files[tag] = [
                (base / "gt.json").read_bytes(),
                (base / "data.json").read_bytes(),
            ]
            # Metadata embeds the dataset path, which differs across the two
            # directories by construction, so compare the profile without it.
            raw = json.loads((base / "profile.json").read_text())
            raw["metadata"].pop("dataset")
            files[tag].append(json.dumps(raw, sort_keys=True))
        assert files["first"] == files["second"]
