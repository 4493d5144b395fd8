"""Command-line workflows: artifacts, manifests, failure reporting."""

import json
import os

import pytest

from proxrank.cli import main
from proxrank.corpus import load_corpus
from proxrank.evaluation import read_report, read_run
from proxrank.training import load_model


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "data")
    code = main(
        [
            "synth", "--out", out, "--seed", "11", "--queries", "4",
            "--count-skew", "1.0", "--proximity-skew", "0.5",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(synth_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "model")
    code = main(
        [
            "train",
            "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
            "--queries", os.path.join(synth_dir, "queries.jsonl"),
            "--qrels", os.path.join(synth_dir, "qrels.txt"),
            "--out", out,
            "--window", "30", "--max-iters", "40",
        ]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_all_artifacts(self, synth_dir):
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.txt", "manifest.json"):
            assert os.path.exists(os.path.join(synth_dir, name))
        manifest = manifest_of(synth_dir)
        assert manifest["status"] == "ok"
        assert manifest["command"] == "synth"
        assert "corpus.jsonl" in manifest["artifacts"]

    def test_corpus_is_loadable(self, synth_dir):
        index = load_corpus(os.path.join(synth_dir, "corpus.jsonl"))
        assert index.stats.num_docs > 0


class TestTrainCommand:
    def test_model_artifact(self, model_dir):
        model = load_model(os.path.join(model_dir, "model.json"))
        assert model.meta["system"] == "features"
        assert model.meta["window"] == 30
        assert model.meta["bm25"] == {"k1": 1.2, "b": 0.75}
        assert manifest_of(model_dir)["status"] == "ok"

    def test_macdonald_system(self, synth_dir, tmp_path):
        out = str(tmp_path / "mac")
        code = main(
            [
                "train", "--system", "macdonald",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30", "--max-iters", "15",
            ]
        )
        assert code == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.layout is None
        assert model.weights.shape == (7,)

    def test_cutoff_stage(self, synth_dir, tmp_path):
        out = str(tmp_path / "cut")
        code = main(
            [
                "train",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30", "--max-iters", "15",
                "--with-cutoff", "1.0",
            ]
        )
        assert code == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.spec.operator == "softcutoff"
        assert len(model.spec.decay) == 10
        assert model.meta["cutoff_ridge"] == 1.0

    def test_missing_input_fails_with_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "broken")
        code = main(
            [
                "train", "--corpus", str(tmp_path / "nope.jsonl"),
                "--queries", str(tmp_path / "nope2.jsonl"),
                "--qrels", str(tmp_path / "nope3.txt"),
                "--out", out,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "load-corpus" in err
        manifest = manifest_of(out)
        assert manifest["status"] == "failed"
        assert "error" in manifest

    @pytest.mark.parametrize("flag, value", [("--k1", "nan"), ("--k1", "inf"), ("--b", "5")])
    def test_bad_bm25_parameters_fail_at_featurize(self, synth_dir, tmp_path, capsys, flag, value):
        out = str(tmp_path / "bad-bm25")
        code = main(
            [
                "train",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out,
                flag, value,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "proxrank train: featurize: BM25" in err
        assert manifest_of(out)["status"] == "failed"

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--smooth", "-1", "smooth_weight"),
            ("--tol", "nan", "tol"),
            ("--ridge", "nan", "ridge_width"),
        ],
    )
    def test_bad_train_config_fails_at_train(self, synth_dir, tmp_path, capsys, flag, value, field):
        out = str(tmp_path / "bad-config")
        code = main(
            [
                "train",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
                flag, value,
            ]
        )
        assert code == 1
        assert f"proxrank train: train: {field} must be finite" in capsys.readouterr().err
        assert manifest_of(out)["status"] == "failed"
        assert not os.path.exists(os.path.join(out, "model.json"))


class TestRankCommand:
    def test_model_run(self, synth_dir, model_dir, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            [
                "rank",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--model", os.path.join(model_dir, "model.json"),
                "--out", out,
            ]
        )
        assert code == 0
        rankings = read_run(os.path.join(out, "run.txt"))
        assert len(rankings) == 4
        assert all(r.items for r in rankings)

    def test_non_finite_model_weight_fails_at_rank(self, synth_dir, model_dir, tmp_path, capsys):
        with open(os.path.join(model_dir, "model.json")) as fh:
            data = json.load(fh)
        data["weights"][3] = float("nan")
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "run")
        code = main(
            [
                "rank",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--model", model_path,
                "--out", out,
            ]
        )
        assert code == 1
        assert "proxrank rank: rank: model weight 3 must be finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "run.txt"))

    @pytest.mark.parametrize("baseline", ["count", "balog2", "petkova"])
    def test_baseline_runs(self, synth_dir, tmp_path, baseline):
        out = str(tmp_path / baseline)
        code = main(
            [
                "rank",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--baseline", baseline,
                "--window", "30",
                "--out", out,
            ]
        )
        assert code == 0
        assert read_run(os.path.join(out, "run.txt"))

    def test_model_and_baseline_conflict(self, synth_dir, model_dir, tmp_path):
        code = main(
            [
                "rank",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--model", os.path.join(model_dir, "model.json"),
                "--baseline", "count",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2


class TestEvalCommand:
    def test_report_artifact(self, synth_dir, model_dir, tmp_path):
        run_dir = str(tmp_path / "run")
        assert (
            main(
                [
                    "rank",
                    "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                    "--queries", os.path.join(synth_dir, "queries.jsonl"),
                    "--model", os.path.join(model_dir, "model.json"),
                    "--out", run_dir,
                ]
            )
            == 0
        )
        out = str(tmp_path / "rep")
        code = main(
            [
                "eval",
                "--run", os.path.join(run_dir, "run.txt"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--system", "trained",
                "--out", out,
            ]
        )
        assert code == 0
        report = read_report(os.path.join(out, "report.tsv"))
        assert report.system == "trained"
        assert len(report.per_query) == 4
        # Count-skewed data is easy for the trained ranker.
        assert report.macro().ap > 0.8


class TestXvalCommand:
    def test_trained_system_loocv(self, synth_dir, tmp_path):
        out = str(tmp_path / "xv")
        code = main(
            [
                "xval",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30", "--max-iters", "15",
            ]
        )
        assert code == 0
        report = read_report(os.path.join(out, "report.tsv"))
        assert len(report.per_query) == 4

    def test_baseline_system_kfold(self, synth_dir, tmp_path):
        out = str(tmp_path / "xvb")
        code = main(
            [
                "xval", "--system", "count",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
                "--protocol", "kfold", "--folds", "2",
            ]
        )
        assert code == 0
        report = read_report(os.path.join(out, "report.tsv"))
        assert report.system == "count"
        assert report.macro().ap > 0.8  # count channel is the planted signal


class TestCompareCommand:
    def test_comparison_table(self, synth_dir, tmp_path):
        rep_dirs = []
        for system in ("count", "balog2"):
            out = str(tmp_path / system)
            assert (
                main(
                    [
                        "xval", "--system", system,
                        "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                        "--queries", os.path.join(synth_dir, "queries.jsonl"),
                        "--qrels", os.path.join(synth_dir, "qrels.txt"),
                        "--out", out, "--window", "30",
                    ]
                )
                == 0
            )
            rep_dirs.append(os.path.join(out, "report.tsv"))
        out = str(tmp_path / "cmp")
        code = main(["compare", "--reports", *rep_dirs, "--out", out])
        assert code == 0
        with open(os.path.join(out, "comparison.tsv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("system\t")
        assert {ln.split("\t")[0] for ln in lines[1:]} == {"count", "balog2"}


class TestUsage:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--bogus"]) == 2

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "proxrank" in capsys.readouterr().out
