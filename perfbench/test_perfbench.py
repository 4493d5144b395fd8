"""Tiny-scale smoke run of every workload, untraced and traced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from proxrank import corpus, training  # noqa: E402
from proxrank.synth import SynthParams  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY = {
    name: dataclasses.replace(
        w,
        params=dataclasses.replace(
            w.params,
            num_queries=4,
            num_docs=4,
            num_filler_docs=8,
            filler_len=40,
            num_good=2,
            num_bad=2,
        ),
    )
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture(autouse=True)
def _tiny_run(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_REQUESTS", 8)


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_workloads_and_metrics_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    info, result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and info["details"]["failed_share"] == 0.0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["details"]["passes"] >= run.MIN_PASSES
    assert len(info["details"]["digests"]) == 1
    assert info["environment"]["blas_threads"] == "1"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    info, result = _run(capsys, workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.spans"] > 0
    assert metrics["corpus.retrieve_calls"] > 0 and metrics["features.rows"] > 0
    if workload == "baseline-read":
        assert metrics["aggregators.baseline_calls"] > 0 and metrics["training.train_s"] == 0
    else:
        assert metrics["training.objective_evals"] > 0 and metrics["training.pairs"] > 0
    if workload == "xval-loocv":
        assert metrics["evaluation.folds"] == 3 * 4
    assert 0 < metrics["features.doc_score_reuse"] <= 1
    assert len(info["details"]["digests"]) == 1


def test_traced_run_fails_when_a_wrapper_never_fires(capsys):
    never = dataclasses.replace(TINY["baseline-read"], uses=TINY["baseline-read"].uses | {"train_model"})
    argv = ["--workload", "baseline-read", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv, workloads={"baseline-read": never}) != 0
    captured = capsys.readouterr()
    assert "train_model" in captured.err and captured.out == ""


def test_tracer_replaces_every_binding_and_restores_it():
    original = corpus.find_candidates
    with Tracer() as tracer:
        assert training.find_candidates is corpus.find_candidates is workloads.find_candidates
        assert corpus.find_candidates is not original
    assert training.find_candidates is corpus.find_candidates is original
    assert tracer.fired() == set()
    assert set(TARGETS) >= set().union(*(w.uses for w in workloads.WORKLOADS.values()))


def test_generator_bound_refuses_instead_of_hanging(capsys):
    with pytest.raises(workloads.BenchError, match="loop forever"):
        workloads.check_generator_bound(SynthParams(num_queries=96))
    workloads.check_generator_bound(SynthParams(num_queries=96, filler_len=288))
    hangs = dataclasses.replace(TINY["xval-loocv"], params=SynthParams(num_queries=96))
    argv = ["--workload", "xval-loocv", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, workloads={"xval-loocv": hangs}) != 0
    captured = capsys.readouterr()
    assert "filler_planted" in captured.err and captured.out == ""
