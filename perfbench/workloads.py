"""The three benchmark workloads and the closed loop that drives them.

Each workload generates its inputs with ``generate_synthetic`` from the
run seed, writes them as the CLI's input files, loads them the way every
CLI invocation does, and then runs passes.  A pass calls the public API
in the order ``cmd_train`` + ``cmd_rank`` (train-rank), ``cmd_xval``
(xval-loocv) or ``cmd_rank --baseline`` + ``cmd_eval`` (baseline-read)
do.  There is one caller: each request or fold starts only after the
previous one returned.  Why each workload exists, which layers it loads
and which it bypasses is written in ``NOTES.md``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from proxrank.aggregators import AggregatorSpec
from proxrank.cli import QueryCandidates, baseline_ranker
from proxrank.corpus import (
    CorpusIndex,
    Judgments,
    Query,
    RetrievalConfig,
    find_candidates,
    load_corpus,
    read_qrels,
    read_queries,
    write_corpus,
    write_qrels,
    write_queries,
)
from proxrank.evaluation import EvalReport, compute_metrics, cross_validate, rank_entities
from proxrank.features import Bm25Params, FeatureLayout
from proxrank.synth import SynthParams, generate_synthetic
from proxrank.training import (
    Model,
    TrainConfig,
    model_scores,
    prepare_queries,
    train_model,
    train_soft_cutoff,
)

from checks import Digest, ranking_problems, weight_problems

__all__ = ["BenchError", "WORKLOADS", "Workload", "check_generator_bound", "write_inputs", "setup"]

clock = time.perf_counter

# The CLI defaults for features, BM25 and training; the retrieval window
# matches the generator's block radius (SynthParams.window = 30).
LAYOUT = FeatureLayout(families=("noprox", "rectangle", "pad"))
RETRIEVAL = RetrievalConfig(window=30)
BM25 = Bm25Params()
TRAIN = TrainConfig()
# LOOCV folds stop at 30 iterations.  Under the default cap of 200, sum and
# softmax stop on the tolerance after a number of iterations that depends
# on the seed's data, which moves xval-loocv's stage time by about 30%
# from seed to seed; at 30 nearly every sum and softmax fold runs to the
# cap, so the work per seed is close to constant.
XVAL_TRAIN = TrainConfig(max_iters=30)
CUTOFF_RIDGE = 1.0
XVAL_AGGREGATORS = ("sum", "softmax", "softor")
BASELINES = ("count", "balog2", "petkova")
# Low skews on every channel, so that MAP stays below 1 and a loss of
# ranking quality can show.
SKEWS = {"count_skew": 0.1, "rarity_skew": 0.1, "proximity_skew": 0.2}


class BenchError(RuntimeError):
    """The benchmark refuses to run on these settings."""


def check_generator_bound(params: SynthParams) -> None:
    """Refuse settings on which ``generate_synthetic`` never returns.

    The generator plants each query term at a free position of a filler
    document, probing ``while pos in filler_planted[d]``; once every
    position of a filler document is taken, that loop never exits.  Each
    term is planted at most once per filler document, so
    ``num_queries * terms_per_query <= filler_len`` rules the hang out.
    """
    planted = params.num_queries * params.terms_per_query
    if params.num_filler_docs and planted > params.filler_len:
        raise BenchError(
            "generate_synthetic would loop forever: its filler-planting probe "
            "(`while pos in filler_planted[d]` in proxrank/synth.py) never exits once a "
            f"filler document is full; num_queries * terms_per_query = {planted} exceeds "
            f"filler_len = {params.filler_len}"
        )


@dataclass
class Inputs:
    corpus: str
    queries: str
    qrels: str


def write_inputs(params: SynthParams, seed: int, directory: str) -> Inputs:
    """Generate the workload's corpus, queries and qrels and write the CLI's files."""
    check_generator_bound(params)
    documents, queries, judgments = generate_synthetic(params, seed=seed)
    inputs = Inputs(
        corpus=os.path.join(directory, "corpus.jsonl"),
        queries=os.path.join(directory, "queries.jsonl"),
        qrels=os.path.join(directory, "qrels.txt"),
    )
    write_corpus(documents, inputs.corpus)
    write_queries(queries, inputs.queries)
    write_qrels(judgments, inputs.qrels)
    return inputs


@dataclass
class Loaded:
    index: CorpusIndex
    queries: list[Query]
    judgments: Judgments


def setup(inputs: Inputs) -> tuple[Loaded, float]:
    """Load what every CLI invocation loads; returns the data and the seconds it took."""
    start = clock()
    index = load_corpus(inputs.corpus)
    queries = read_queries(inputs.queries)
    judgments = read_qrels(inputs.qrels)
    return Loaded(index, queries, judgments), clock() - start


@dataclass
class PassResult:
    """What one pass measured and how its outputs fared."""

    stage_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    maps: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    iterations: list[int] = field(default_factory=list)  # per fitted model

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def map(self) -> float:
        return sum(self.maps) / len(self.maps)


def _mark(tracer, request) -> None:
    if tracer is not None:
        tracer.request = request


def _fit(prepared, spec: AggregatorSpec, config: TrainConfig) -> Model:
    """``train_model`` then the rank-cutoff LP, as ``_fit_with_optional_cutoff`` does."""
    model = train_model(prepared, spec, LAYOUT, config)
    cutoff = train_soft_cutoff(model, prepared, ridge=CUTOFF_RIDGE, config=config)
    return Model(
        weights=model.weights,
        spec=cutoff.spec(),
        layout=LAYOUT,
        meta={**model.meta, "cutoff_ridge": CUTOFF_RIDGE},
    )


def train_rank_pass(data: Loaded, tracer=None) -> PassResult:
    """``train --with-cutoff 1.0``, then ``rank --model`` one query per request."""
    out = PassResult()
    digest = Digest()
    _mark(tracer, "train")
    start = clock()
    try:
        prepared = prepare_queries(
            data.index, data.queries, data.judgments, LAYOUT, RETRIEVAL, BM25
        )
        model = _fit(prepared, AggregatorSpec.from_name("sum"), TRAIN)
    except Exception as exc:  # a failed fit is a failed operation, not a crash
        out.record([f"train: {exc!r}"])
        return out
    out.stage_s = clock() - start
    out.record(weight_problems(model))
    out.iterations.append(model.meta["iterations"])
    digest.model(model)

    empty = Judgments()
    per_query = {}
    for query in data.queries:
        _mark(tracer, query.query_id)
        start = clock()
        try:
            [pq] = prepare_queries(data.index, [query], empty, model.layout, RETRIEVAL, BM25)
            ranking = rank_entities(pq.query_id, model_scores(model, pq))
        except Exception as exc:
            out.record([f"{query.query_id}: {exc!r}"])
            continue
        out.latencies.append(clock() - start)
        out.record(ranking_problems(ranking, pq.entity_ids))
        digest.ranking(ranking)
        qid = query.query_id
        per_query[qid] = compute_metrics(
            ranking, data.judgments.good_for(qid), data.judgments.bad_for(qid)
        )
    out.maps.append(EvalReport("trained", per_query).macro().ap)
    out.digest = digest.hexdigest()
    return out


def xval_pass(data: Loaded, tracer=None) -> PassResult:
    """``xval --protocol loocv --max-iters 30 --with-cutoff 1.0`` for sum, softmax, softor.

    Features are prepared once; every fold fits the aggregator and the
    cutoff, then ranks its held-out query (the timed request).
    """
    out = PassResult()
    digest = Digest()
    start = clock()
    _mark(tracer, "prepare")
    prepared = prepare_queries(data.index, data.queries, data.judgments, LAYOUT, RETRIEVAL, BM25)
    checked = 0.0  # seconds spent in the benchmark's own checks, kept out of stage_s
    for name in XVAL_AGGREGATORS:
        spec = AggregatorSpec.from_name(name)

        def fit(train):
            nonlocal checked
            _mark(tracer, f"{name}:fit:{len(out.latencies)}")
            model = _fit(train, spec, XVAL_TRAIN)
            t0 = clock()
            out.record(weight_problems(model))
            out.iterations.append(model.meta["iterations"])
            digest.model(model)
            checked += clock() - t0

            def rank(pq):
                nonlocal checked
                _mark(tracer, f"{name}:{pq.query_id}")
                t0 = clock()
                ranking = rank_entities(pq.query_id, model_scores(model, pq))
                t1 = clock()
                out.latencies.append(t1 - t0)
                out.record(ranking_problems(ranking, pq.entity_ids))
                digest.ranking(ranking)
                checked += clock() - t1
                return ranking

            return rank

        try:
            report = cross_validate(
                prepared, data.judgments, fit, protocol="loocv", seed=XVAL_TRAIN.seed, system=name
            )
        except Exception as exc:
            out.record([f"xval {name}: {exc!r}"])
            continue
        out.maps.append(report.macro().ap)
    out.stage_s = clock() - start - checked
    out.digest = digest.hexdigest()
    return out


def baseline_pass(data: Loaded, tracer=None) -> PassResult:
    """``rank --baseline`` for count, balog2 and petkova, then ``eval``.

    A request is one ``find_candidates`` followed by the three rankers.
    """
    out = PassResult()
    digest = Digest()
    rankers = [baseline_ranker(name, data.index, bm25=BM25) for name in BASELINES]
    per_system = [{} for _ in BASELINES]
    eval_s = 0.0
    for query in data.queries:
        _mark(tracer, query.query_id)
        start = clock()
        try:
            candidates = find_candidates(data.index, query, RETRIEVAL)
            qc = QueryCandidates(query.query_id, query, candidates.support)
            rankings = [ranker(qc) for ranker in rankers]
        except Exception as exc:
            out.record([f"{query.query_id}: {exc!r}"])
            continue
        out.latencies.append(clock() - start)
        problems = []
        for ranking in rankings:
            problems += ranking_problems(ranking, candidates.support)
            digest.ranking(ranking)
        out.record(problems)
        qid = query.query_id
        good, bad = data.judgments.good_for(qid), data.judgments.bad_for(qid)
        start = clock()
        for ranking, per_query in zip(rankings, per_system):
            per_query[qid] = compute_metrics(ranking, good, bad)
        eval_s += clock() - start
    out.maps.extend(EvalReport(name, pq).macro().ap for name, pq in zip(BASELINES, per_system))
    out.stage_s = sum(out.latencies) + eval_s
    out.digest = digest.hexdigest()
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    params: SynthParams
    run_pass: Callable[..., PassResult]
    # Traced functions a pass must reach; the traced run fails if one never fires.
    uses: frozenset[str]
    # Layers predicted to carry the most self time, checked by the traced run.
    dominant: frozenset[str]


_SETUP_CALLS = {"generate_synthetic", "load_corpus", "read_queries", "read_qrels"}
_PREPARE = {"prepare_queries", "find_candidates", "context_matrix", "document_scores"}
_FIT = {"train_model", "objective_and_gradient", "train_soft_cutoff"}
_RANK = {"model_scores", "aggregate_score", "rank_entities", "compute_metrics"}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train-rank",
            params=SynthParams(
                num_queries=32,
                num_docs=32,
                num_filler_docs=80,
                filler_len=384,
                num_good=8,
                num_bad=8,
                **SKEWS,
            ),
            run_pass=train_rank_pass,
            uses=frozenset(_SETUP_CALLS | _PREPARE | _FIT | _RANK),
            dominant=frozenset({"features"}),
        ),
        Workload(
            name="xval-loocv",
            params=SynthParams(num_queries=16, num_good=6, num_bad=6, **SKEWS),
            run_pass=xval_pass,
            uses=frozenset(_SETUP_CALLS | _PREPARE | _FIT | _RANK | {"cross_validate"}),
            dominant=frozenset({"training"}),
        ),
        Workload(
            name="baseline-read",
            params=SynthParams(
                num_queries=256,
                num_docs=256,
                num_filler_docs=400,
                filler_len=800,
                **SKEWS,
            ),
            run_pass=baseline_pass,
            uses=frozenset(
                _SETUP_CALLS
                | {"find_candidates", "context_matrix", "document_scores"}
                | {"aggregate_score", "balog2_score", "petkova_score"}
                | {"rank_entities", "compute_metrics"}
            ),
            dominant=frozenset({"aggregators", "corpus"}),
        ),
    )
}
