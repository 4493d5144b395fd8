"""Command-line workflows: artifacts, manifests, failure reporting."""

import json
import os
import re
import subprocess
import sys

import pytest

import proxrank
import proxrank.training
from proxrank.cli import main
from proxrank.corpus import load_corpus
from proxrank.evaluation import EvalReport, read_report, read_run, write_report
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

    @pytest.mark.parametrize("command", ["train", "xval"])
    @pytest.mark.parametrize("aggregator", ["softor", "softmax", "avg"])
    def test_macdonald_rejects_other_aggregators(
        self, synth_dir, tmp_path, capsys, command, aggregator
    ):
        # macdonald fits sum only; any other request is refused, not
        # silently replaced by sum under a manifest that names it.
        out = str(tmp_path / "mac-agg")
        code = main(
            [
                command, "--system", "macdonald", "--aggregator", aggregator,
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30", "--max-iters", "15",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{command}: featurize:" in err and aggregator in err
        manifest = manifest_of(out)
        assert manifest["status"] == "failed"
        assert manifest["config"]["aggregator"] == aggregator
        assert manifest["artifacts"] == []
        assert not os.path.exists(os.path.join(out, "model.json"))

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

    @pytest.mark.parametrize("command, stage", [("train", "train"), ("xval", "cross-validate")])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_bad_cutoff_ridge_fails_before_any_evaluation(
        self, synth_dir, tmp_path, capsys, monkeypatch, command, stage, value
    ):
        evaluations = []
        monkeypatch.setattr(
            proxrank.training, "objective_and_gradient", lambda *args: evaluations.append(args)
        )
        out = str(tmp_path / "bad-cutoff")
        code = main(
            [
                command,
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30", f"--with-cutoff={value}",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"proxrank {command}: {stage}: cutoff ridge must be finite and positive" in err
        assert manifest_of(out)["status"] == "failed"
        assert sorted(os.listdir(out)) == ["manifest.json"]
        assert evaluations == []

    def test_nan_idf_boundary_fails_at_featurize(self, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "bad-layout")
        code = main(
            [
                "train",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--idf-boundaries", "nan,1.0",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "proxrank train: featurize: IDF fraction boundaries must lie in (0, 1]" in err
        assert manifest_of(out)["status"] == "failed"


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

    @staticmethod
    def _rank_with_weights(synth_dir, model_dir, tmp_path, edit):
        """Exit code and output directory of ``rank`` with the trained
        model's weight list passed through ``edit``."""
        with open(os.path.join(model_dir, "model.json")) as fh:
            data = json.load(fh)
        data["weights"] = edit(data["weights"])
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
        return code, out

    def test_non_finite_model_weight_fails_at_rank(self, synth_dir, model_dir, tmp_path, capsys):
        code, out = self._rank_with_weights(
            synth_dir, model_dir, tmp_path, lambda w: w[:3] + [float("nan")] + w[4:]
        )
        assert code == 1
        assert "proxrank rank: rank: model weight 3 must be finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "run.txt"))

    def test_overflowing_entity_score_fails_at_rank(self, synth_dir, model_dir, tmp_path, capsys):
        code, out = self._rank_with_weights(
            synth_dir, model_dir, tmp_path, lambda w: [1e308] * len(w)
        )
        assert code == 1
        err = capsys.readouterr().err
        named = r"proxrank rank: rank: query '[^']+': entity '[^']+' has a non-finite score inf"
        assert re.search(named, err)
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

    @pytest.mark.parametrize(
        "field, value", [("target_type", ["person"]), ("required", "false")]
    )
    def test_malformed_query_field_fails_at_load_queries(
        self, synth_dir, tmp_path, capsys, field, value
    ):
        record = {"query_id": "q", "terms": [{"text": "a"}]}
        if field == "target_type":
            record["target_type"] = value
        else:
            record["terms"][0]["required"] = value
        queries = str(tmp_path / "queries.jsonl")
        with open(queries, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        out = str(tmp_path / "run")
        code = main(
            [
                "rank",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", queries,
                "--baseline", "count",
                "--out", out,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "proxrank rank: load-queries: query record 1: query 'q':" in err
        assert "Traceback" not in err
        manifest = manifest_of(out)
        assert manifest["status"] == "failed" and "query record 1" in manifest["error"]
        assert not os.path.exists(os.path.join(out, "run.txt"))

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

    @pytest.mark.parametrize("system", ["count", "balog2", "petkova"])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--aggregator", "nosuch"], "--aggregator"),
            (["--with-cutoff", "1.0"], "--with-cutoff"),
            (["--aggregator", "softor", "--max-iters", "5"], "--aggregator, --max-iters"),
            (["--ridge", "3", "--smooth", "2", "--tol", "nan"], "--ridge, --smooth, --tol"),
            (["--pair-cap", "7", "--ridge-grid", "1,10"], "--pair-cap, --ridge-grid"),
        ],
    )
    def test_baseline_system_refuses_training_flags(
        self, synth_dir, tmp_path, capsys, system, flags, named
    ):
        # A baseline is not trained; a training flag is refused, not
        # recorded unused in an "ok" manifest.
        out = str(tmp_path / "xvb-flags")
        code = main(
            [
                "xval", "--system", system, *flags,
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"xval: featurize: --system {system} is not trained; it takes no {named}\n" in err
        manifest = manifest_of(out)
        assert manifest["status"] == "failed"
        assert manifest["config"]["system"] == system
        assert manifest["artifacts"] == []
        assert not os.path.exists(os.path.join(out, "report.tsv"))

    def test_baseline_system_takes_default_training_values_and_a_seed(self, synth_dir, tmp_path):
        out = str(tmp_path / "xvb-defaults")
        code = main(
            [
                "xval", "--system", "balog2", "--aggregator", "sum", "--max-iters", "200",
                "--seed", "3", "--protocol", "kfold", "--folds", "2",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
            ]
        )
        assert code == 0
        assert manifest_of(out)["status"] == "ok"

    @pytest.mark.parametrize(
        "command, system, flags, message",
        [
            (
                "xval", "balog2", ["--families", "nosuch", "--idf-boundaries", "0.5,nan", "--k1", "3"],
                "--system balog2 takes no --families, --idf-boundaries, --k1",
            ),
            ("xval", "balog2", ["--kernel-width", "3"], "--system balog2 takes no --kernel-width"),
            (
                "xval", "petkova", ["--distance-boundaries", "1,2", "--b", "0.5"],
                "--system petkova takes no --distance-boundaries, --b",
            ),
            (
                "xval", "count", ["--kernel-width", "3", "--lm-lambda", "0.9", "--k1", "2"],
                "--system count takes no --k1, --lm-lambda, --kernel-width",
            ),
            (
                "xval", "count", ["--families", "pad", "--ridge", "3"],
                "--system count is not trained; it takes no --ridge, --families",
            ),
            (
                "xval", "macdonald",
                ["--families", "noprox", "--distance-boundaries", "1,2", "--idf-boundaries", "0.5,1"],
                "--system macdonald takes no --families, --distance-boundaries, --idf-boundaries",
            ),
            ("xval", "macdonald", ["--smooth", "2"], "--system macdonald takes no --smooth"),
            ("train", "macdonald", ["--families", "pad"], "--system macdonald takes no --families"),
            (
                "xval", "features", ["--kernel-width", "3", "--lm-lambda", "0.9"],
                "--system features takes no --lm-lambda, --kernel-width",
            ),
            # Only the grid and rectangle blocks are smoothed, only noprox reads BM25.
            (
                "xval", "features", ["--families", "noprox,pad", "--smooth", "5"],
                "--system features takes no --smooth",
            ),
            (
                "xval", "features", ["--families", "rectangle,pad", "--k1", "3"],
                "--system features takes no --k1",
            ),
            (
                "train", "features", ["--families", "idfupto,pad", "--smooth", "2", "--b", "0.5"],
                "--system features takes no --smooth, --b",
            ),
            # Only idfupto, grid and rectangle read the distance boundaries,
            # only grid and rectangle the IDF-fraction ones.
            (
                "xval", "features", ["--families", "noprox,pad", "--distance-boundaries", "1,2"],
                "--system features takes no --distance-boundaries",
            ),
            (
                "xval", "features", ["--families", "noprox,pad", "--idf-boundaries", "0.5,1"],
                "--system features takes no --idf-boundaries",
            ),
            (
                "xval", "features",
                ["--families", "idfupto,pad", "--distance-boundaries", "1,2", "--idf-boundaries", "0.5,1"],
                "--system features takes no --idf-boundaries",
            ),
        ],
    )
    def test_system_refuses_flags_it_does_not_read(
        self, synth_dir, tmp_path, capsys, command, system, flags, message
    ):
        # A flag the system never reads is refused, not recorded unused in
        # an "ok" manifest.
        out = str(tmp_path / "unread-flags")
        code = main(
            [
                command, "--system", system, *flags,
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"proxrank {command}: featurize: {message}\n"
        manifest = manifest_of(out)
        assert manifest["status"] == "failed"
        assert manifest["error"] == message
        assert manifest["artifacts"] == []
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize(
        "system, flags",
        [
            ("balog2", ["--lm-lambda", "0.7", "--families", "noprox,rectangle,pad", "--k1", "1.2"]),
            ("petkova", ["--lm-lambda", "0.7", "--kernel-width", "10"]),
            ("count", ["--lm-lambda", "0.5", "--b", "0.75"]),
            ("macdonald", ["--k1", "1.5", "--b", "0.5", "--max-iters", "10"]),
            ("features", ["--families", "noprox,grid", "--smooth", "2", "--max-iters", "10"]),
            ("features", ["--families", "idfupto,pad", "--distance-boundaries", "1,2,4", "--max-iters", "10"]),
        ],
    )
    def test_system_takes_flags_it_reads_and_defaults(self, synth_dir, tmp_path, system, flags):
        out = str(tmp_path / "read-flags")
        code = main(
            [
                "xval", "--system", system, *flags,
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
            ]
        )
        assert code == 0
        assert manifest_of(out)["status"] == "ok"

    def test_loocv_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Each process draws its own string-hash seed, which orders set
        # iteration; an unordered float sum over a set changed the last
        # digit of NDCG@10 in report.tsv on this data.
        data = str(tmp_path / "data")
        assert main(["synth", "--out", data, "--seed", "101", "--good", "6", "--bad", "6"]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(proxrank.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            out = str(tmp_path / f"xval{hash_seed}")
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [
                    sys.executable, "-m", "proxrank.cli", "xval", "--protocol", "loocv",
                    "--corpus", os.path.join(data, "corpus.jsonl"),
                    "--queries", os.path.join(data, "queries.jsonl"),
                    "--qrels", os.path.join(data, "qrels.txt"),
                    "--out", out,
                ],
                env=env, check=True, capture_output=True,
            )
            artifacts = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    artifacts[name] = fh.read()
            outputs.append(artifacts)
        assert "report.tsv" in outputs[0]
        assert sorted(outputs[0]) == sorted(outputs[1])
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name


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
        assert "warnings" not in manifest_of(out)

    def test_report_over_other_queries_is_named_in_a_warning(self, synth_dir, tmp_path):
        # A report over other query ids than the first gets no t-test; the
        # manifest says so, and comparison.tsv is written as before.
        out = str(tmp_path / "xv")
        assert main(
            [
                "xval", "--system", "balog2",
                "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
                "--queries", os.path.join(synth_dir, "queries.jsonl"),
                "--qrels", os.path.join(synth_dir, "qrels.txt"),
                "--out", out, "--window", "30",
            ]
        ) == 0
        full = read_report(os.path.join(out, "report.tsv"))
        kept = full.query_ids()[:2]
        subset = EvalReport("subset", {qid: full.per_query[qid] for qid in kept})
        reports = [os.path.join(out, "report.tsv"), str(tmp_path / "subset.tsv")]
        write_report(subset, reports[1])
        cmp_dir = str(tmp_path / "cmp")
        assert main(["compare", "--reports", *reports, "--out", cmp_dir]) == 0
        manifest = manifest_of(cmp_dir)
        assert manifest["status"] == "ok"
        differing = len(full.query_ids()) - len(kept)
        assert manifest["warnings"] == [
            f"subset.tsv (system subset): {differing} query ids differ from report.tsv; "
            "no t-test was run against it"
        ]
        with open(os.path.join(cmp_dir, "comparison.tsv")) as fh:
            rows = fh.read().splitlines()
        assert [row.split("\t")[0] for row in rows[1:]] == ["balog2", "subset"]
        assert "*" not in rows[2]


class TestUsage:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--bogus"]) == 2

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "proxrank" in capsys.readouterr().out


def _rank(synth_dir, out, *flags):
    return main(
        [
            "rank",
            "--corpus", os.path.join(synth_dir, "corpus.jsonl"),
            "--queries", os.path.join(synth_dir, "queries.jsonl"),
            "--out", out,
            *flags,
        ]
    )


def _run_bytes(out):
    with open(os.path.join(out, "run.txt"), "rb") as fh:
        return fh.read()


class TestRankSettings:
    """rank --model takes retrieval and BM25 settings from the model; an
    explicit flag must agree with it.  The model was trained with
    --window 30 and the defaults for the rest."""

    @pytest.mark.parametrize(
        "flag, value, stored",
        [
            ("--window", "20", "30"),
            ("--granularity", "best-per-document", "per-mention"),
            ("--k1", "2.0", "1.2"),
            ("--b", "0.5", "0.75"),
        ],
    )
    def test_conflicting_flag_fails_naming_both_values(
        self, synth_dir, model_dir, tmp_path, capsys, flag, value, stored
    ):
        out = str(tmp_path / "run")
        model = os.path.join(model_dir, "model.json")
        assert _rank(synth_dir, out, "--model", model, flag, value) == 1
        err = capsys.readouterr().err
        assert f"proxrank rank: rank: {flag} {value} differs from the model's" in err
        assert err.rstrip().endswith(f"{flag[2:]} {stored}")
        assert manifest_of(out)["status"] == "failed"
        assert not os.path.exists(os.path.join(out, "run.txt"))

    def test_agreeing_flags_change_nothing(self, synth_dir, model_dir, tmp_path):
        model = os.path.join(model_dir, "model.json")
        plain, flagged = str(tmp_path / "plain"), str(tmp_path / "flagged")
        assert _rank(synth_dir, plain, "--model", model) == 0
        explicit = ["--window", "30", "--granularity", "per-mention", "--k1", "1.2", "--b", "0.75"]
        assert _rank(synth_dir, flagged, "--model", model, *explicit) == 0
        assert _run_bytes(plain) == _run_bytes(flagged)

    @pytest.mark.parametrize(
        "ranker, flags, message",
        [
            (["--baseline", "count"], ["--k1", "3", "--lm-lambda", "0.9"],
             "--baseline count takes no --k1, --lm-lambda"),
            (["--baseline", "balog2"], ["--k1", "3", "--kernel-width", "7"],
             "--baseline balog2 takes no --k1, --kernel-width"),
            (["--baseline", "petkova"], ["--b", "0.5"], "--baseline petkova takes no --b"),
            (["--model"], ["--lm-lambda", "0.9"], "--model takes no --lm-lambda"),
        ],
    )
    def test_ranker_refuses_flags_it_does_not_read(
        self, synth_dir, model_dir, tmp_path, capsys, ranker, flags, message
    ):
        if ranker == ["--model"]:
            ranker = ["--model", os.path.join(model_dir, "model.json")]
        out = str(tmp_path / "run")
        assert _rank(synth_dir, out, *ranker, *flags) == 1
        assert capsys.readouterr().err == f"proxrank rank: featurize: {message}\n"
        manifest = manifest_of(out)
        assert manifest["status"] == "failed"
        assert manifest["error"] == message
        assert os.listdir(out) == ["manifest.json"]

    def test_ranker_takes_flags_it_reads(self, synth_dir, model_dir, tmp_path):
        model = os.path.join(model_dir, "model.json")
        for k, flags in enumerate(
            [
                ["--baseline", "petkova", "--lm-lambda", "0.7", "--kernel-width", "10"],
                ["--baseline", "balog2", "--lm-lambda", "0.7", "--k1", "1.2"],
                ["--model", model, "--lm-lambda", "0.5", "--k1", "1.2", "--window", "30"],
            ]
        ):
            out = str(tmp_path / f"run{k}")
            assert _rank(synth_dir, out, *flags) == 0, flags
            assert manifest_of(out)["status"] == "ok"

    def test_baseline_still_follows_the_flags(self, synth_dir, tmp_path):
        default, explicit, narrow = (str(tmp_path / n) for n in ("default", "explicit", "narrow"))
        assert _rank(synth_dir, default, "--baseline", "balog2") == 0
        defaults = ["--window", "50", "--granularity", "per-mention", "--k1", "1.2", "--b", "0.75"]
        assert _rank(synth_dir, explicit, "--baseline", "balog2", *defaults) == 0
        assert _rank(synth_dir, narrow, "--baseline", "balog2", "--window", "5") == 0
        assert _run_bytes(default) == _run_bytes(explicit)
        assert _run_bytes(default) != _run_bytes(narrow)
