"""Command-line interface.

Every subcommand writes its artifacts under a fixed name inside --out,
plus a manifest.json describing the invocation.  Manifests carry no
timestamps and record input files by basename, so identical runs produce
byte-identical output trees wherever they execute.

Subcommands:

    ingest    validate a raw corpus and write its normalized form
    synth     generate a synthetic corpus with controllable signal
    train     fit aggregation weights (optionally plus a rank-cutoff decay)
    rank      score queries with a trained model or a fixed baseline
    eval      score a run file against judgments
    xval      cross-validated train/evaluate in one step
    compare   merge evaluation reports and mark significant differences
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from proxrank import __version__
from proxrank.aggregators import (
    AggregationError,
    AggregatorSpec,
    aggregate_score,
    balog2_score,
    petkova_score,
)
from proxrank.corpus import (
    BEST_PER_DOCUMENT,
    PER_MENTION,
    Context,
    CorpusError,
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
from proxrank.evaluation import (
    EvalError,
    EvalReport,
    Ranking,
    compute_metrics,
    cross_validate,
    rank_entities,
    read_report,
    read_run,
    write_comparison,
    write_report,
    write_run,
)
from proxrank.features import Bm25Params, FeatureError, FeatureLayout
from proxrank.synth import SynthError, SynthParams, generate_synthetic
from proxrank.training import (
    Model,
    PreparedQuery,
    TrainConfig,
    TrainingError,
    load_model,
    model_scores,
    prepare_macdonald,
    prepare_queries,
    save_model,
    support_matrix,
    train_model,
)

__all__ = [
    "QueryCandidates",
    "baseline_ranker",
    "collect_candidates",
    "count_model",
    "main",
]

MANIFEST_NAME = "manifest.json"
TRAINED_SYSTEMS = ("features", "macdonald")
BASELINE_SYSTEMS = ("count", "balog2", "petkova")

_PATH_KEYS = {"corpus", "queries", "qrels", "catalog", "docs", "run", "model"}


@dataclass
class QueryCandidates:
    """One query's retrieved entities with raw supporting contexts."""

    query_id: str
    query: Query
    support: dict[str, list[Context]]


def collect_candidates(
    index: CorpusIndex, queries: Sequence[Query], retrieval: RetrievalConfig
) -> list[QueryCandidates]:
    out = []
    for query in queries:
        cand = find_candidates(index, query, retrieval)
        out.append(QueryCandidates(query.query_id, query, cand.support))
    return out


def count_model() -> Model:
    """Support-size ranker expressed in the standard aggregation form:
    a single always-one feature, counted once per context."""
    layout = FeatureLayout(families=("pad",))
    return Model(
        weights=np.ones(1),
        spec=AggregatorSpec.from_name("count"),
        layout=layout,
        meta={"system": "count"},
    )


def baseline_ranker(
    name: str,
    index: CorpusIndex,
    bm25: Bm25Params = Bm25Params(),
    lm_lambda: float = 0.5,
    kernel_width: float = 25.0,
) -> Callable[[QueryCandidates], Ranking]:
    """Ranker over raw candidate sets for the untrained reference systems.

    A scorer takes a query's whole support, in entity-id order: ``count``
    featurizes every context with one :func:`support_matrix` call and
    scores the entities with one :func:`aggregate_score` call, which gives
    each entity the bits of a call over its own rows alone.
    """
    count = count_model()

    def count_scores(query, support, entity_ids):
        rows, offsets = support_matrix(index, query, support, entity_ids, count.layout, bm25)
        return aggregate_score(count.spec, count.weights, rows, offsets).tolist()

    scorers = {
        "count": count_scores,
        "balog2": lambda query, support, entity_ids: [
            balog2_score(index, query, support[eid], smoothing=lm_lambda) for eid in entity_ids
        ],
        "petkova": lambda query, support, entity_ids: [
            petkova_score(index, query, support[eid], kernel_width=kernel_width, smoothing=lm_lambda)
            for eid in entity_ids
        ],
    }
    if name not in scorers:
        raise EvalError(f"unknown baseline {name!r} (expected one of {BASELINE_SYSTEMS})")
    score = scorers[name]

    def rank(qc: QueryCandidates) -> Ranking:
        entity_ids = sorted(qc.support)
        scores = score(qc.query, qc.support, entity_ids) if entity_ids else []
        return rank_entities(qc.query_id, dict(zip(entity_ids, scores)))

    return rank


# -- argument plumbing ---------------------------------------------------------


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _layout_from_args(args: argparse.Namespace) -> FeatureLayout:
    kwargs = {"families": _names(args.families)}
    if args.distance_boundaries:
        kwargs["distance_boundaries"] = _ints(args.distance_boundaries)
    if args.idf_boundaries:
        kwargs["idf_fraction_boundaries"] = _floats(args.idf_boundaries)
    return FeatureLayout(**kwargs)


def _train_config_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        ridge_width=args.ridge,
        smooth_weight=args.smooth,
        max_iters=args.max_iters,
        tol=args.tol,
        pair_cap=args.pair_cap,
        seed=args.seed,
        folds=getattr(args, "folds", 5),
        ridge_ladder=_floats(args.ridge_grid) if args.ridge_grid else None,
    )


def _add_retrieval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=50, help="context window radius in tokens")
    p.add_argument(
        "--granularity",
        choices=(PER_MENTION, BEST_PER_DOCUMENT),
        default=PER_MENTION,
        help="keep every mention context or only the best one per document",
    )


# Flags that some system does not read, with their defaults.
_FEATURE_DEFAULTS = {"families": "noprox,rectangle,pad", "distance_boundaries": None, "idf_boundaries": None}
_BM25_DEFAULTS = {"k1": 1.2, "b": 0.75}
_LM_DEFAULTS = {"lm_lambda": 0.5, "kernel_width": 25.0}


def _add_feature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--families",
        help="comma list of feature families (noprox, idfupto, grid, rectangle, pad)",
    )
    p.add_argument("--distance-boundaries", help="comma list of window splits")
    p.add_argument("--idf-boundaries", help="comma list of IDF-fraction splits")
    p.add_argument("--k1", type=float, help="BM25 k1")
    p.add_argument("--b", type=float, help="BM25 b")
    p.set_defaults(**_FEATURE_DEFAULTS, **_BM25_DEFAULTS)


def _add_lm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lm-lambda", type=float, help="language-model smoothing")
    p.add_argument("--kernel-width", type=float, help="positional kernel width")
    p.set_defaults(**_LM_DEFAULTS)


# The training flags and their defaults; a baseline system takes none of them.
_TRAIN_DEFAULTS = {
    "aggregator": "sum",
    "ridge": 10.0,
    "smooth": 1.0,
    "max_iters": 200,
    "tol": 1e-6,
    "pair_cap": 10_000,
    "ridge_grid": None,
    "with_cutoff": None,
}


def _add_train_args(p: argparse.ArgumentParser, systems: tuple[str, ...] = TRAINED_SYSTEMS) -> None:
    p.add_argument("--system", choices=systems, default="features")
    p.add_argument("--aggregator", help="sum, avg, softmax, softcount, or softor")
    p.add_argument("--ridge", type=float, help="ridge width (weaker when larger)")
    p.add_argument("--smooth", type=float, help="grid smoothness multiplier")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--pair-cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ridge-grid",
        help="comma list of ridge widths to select from by inner k-fold MAP",
    )
    p.add_argument(
        "--with-cutoff",
        type=float,
        metavar="RIDGE",
        help="additionally fit a rank-cutoff decay with this ridge",
    )
    p.set_defaults(**_TRAIN_DEFAULTS)


_FLAG_DEFAULTS = {**_TRAIN_DEFAULTS, **_FEATURE_DEFAULTS, **_BM25_DEFAULTS, **_LM_DEFAULTS}
_BASELINE_UNREAD = (*_TRAIN_DEFAULTS, *_FEATURE_DEFAULTS, *_BM25_DEFAULTS)

# The flags each system does not read.  macdonald has no feature layout,
# so no grid-shaped weights to smooth; count scores one constant feature.
# A features layout adds its own (see _unread_flags).
_UNREAD_FLAGS = {
    "features": tuple(_LM_DEFAULTS),
    "macdonald": ("smooth", *_FEATURE_DEFAULTS, *_LM_DEFAULTS),
    "count": (*_BASELINE_UNREAD, *_LM_DEFAULTS),
    "balog2": (*_BASELINE_UNREAD, "kernel_width"),
    "petkova": _BASELINE_UNREAD,
}


# The families of a features layout that read each layout-dependent flag.
_FAMILIES_READING = {
    "smooth": ("grid", "rectangle"),
    "k1": ("noprox",),
    "b": ("noprox",),
    "distance_boundaries": ("idfupto", "grid", "rectangle"),
    "idf_boundaries": ("grid", "rectangle"),
}


def _unread_flags(args: argparse.Namespace, system: str) -> tuple[str, ...]:
    """The flags ``system`` does not read.  A features layout reads a
    flag of ``_FAMILIES_READING`` only when it has one of its families."""
    if system != "features" or "families" not in args:  # rank --model has no layout flags
        return _UNREAD_FLAGS[system]
    families = set(_names(args.families))
    layout_unread = tuple(
        flag for flag, readers in _FAMILIES_READING.items() if families.isdisjoint(readers)
    )
    return (*layout_unread, *_UNREAD_FLAGS[system])


def _refuse_unread_flags(args: argparse.Namespace, system: str, who: str) -> None:
    """Refuse any flag that ``system`` does not read, set away from its
    default, rather than record it in the manifest unused; ``who`` names
    the ranker in the message.  A flag left at None was not given."""
    given = [
        name for name in _unread_flags(args, system)
        if getattr(args, name, None) not in (None, _FLAG_DEFAULTS[name])
    ]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        untrained = system in BASELINE_SYSTEMS and not set(given).isdisjoint(_TRAIN_DEFAULTS)
        reason = " is not trained; it" if untrained else ""
        raise TrainingError(f"{who}{reason} takes no {flags}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxrank",
        description="Entity search: train, rank, and evaluate proximity-aware rankers.",
    )
    parser.add_argument("--version", action="version", version=f"proxrank {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", help="validate a corpus and write its normalized form")
    p.add_argument("--docs", required=True, help="raw corpus JSONL")
    p.add_argument("--catalog", default=None, help="entity catalog JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=16, dest="num_queries")
    p.add_argument("--docs", type=int, default=12, dest="num_docs")
    p.add_argument("--filler-docs", type=int, default=40)
    p.add_argument("--good", type=int, default=4)
    p.add_argument("--bad", type=int, default=4)
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--base-contexts", type=int, default=2)
    p.add_argument("--context-spread", type=int, default=2)
    p.add_argument("--count-boost", type=int, default=5)
    p.add_argument("--count-skew", type=float, default=0.0)
    p.add_argument("--rarity-skew", type=float, default=0.0)
    p.add_argument("--proximity-skew", type=float, default=0.0)
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--max-distance", type=int, default=25)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit aggregation weights")
    p.add_argument("--corpus", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True)
    _add_retrieval_args(p)
    _add_feature_args(p)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank candidates for a query set")
    p.add_argument("--corpus", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", default=None, help="model.json from train")
    source.add_argument("--baseline", choices=BASELINE_SYSTEMS, default=None)
    _add_lm_args(p)
    p.add_argument("--tag", default="proxrank", help="run tag written to the run file")
    _add_retrieval_args(p)
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    # None marks a setting not given, so that rank --model can tell an
    # explicit flag from the default; _retrieval_settings supplies the defaults.
    p.set_defaults(func=cmd_rank, **dict.fromkeys(_RANK_SETTINGS))

    p = sub.add_parser("eval", help="score a run file against judgments")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--system", default="run", help="system name recorded in the report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("xval", help="cross-validated train and evaluate")
    p.add_argument("--corpus", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--protocol", choices=("loocv", "kfold"), default="loocv")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--name", default=None, help="system name in the report (defaults to system)")
    _add_lm_args(p)
    _add_retrieval_args(p)
    _add_feature_args(p)
    _add_train_args(p, systems=TRAINED_SYSTEMS + BASELINE_SYSTEMS)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("compare", help="merge reports and mark significant gaps")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in vars(args).items():
        if key in ("func", "command", "out"):
            continue
        if key in _PATH_KEYS and isinstance(value, str):
            value = os.path.basename(value)
        if key == "reports":
            value = [os.path.basename(v) for v in value]
        config[key] = value
    return config


def write_manifest(
    out_dir: str,
    command: str,
    config: dict,
    artifacts: Sequence[str],
    status: str,
    error: str | None = None,
    warnings: Sequence[str] = (),
) -> None:
    manifest = {
        "tool": "proxrank",
        "version": __version__,
        "command": command,
        "config": config,
        "status": status,
        "artifacts": sorted(artifacts),
    }
    if error is not None:
        manifest["error"] = error
    if warnings:
        manifest["warnings"] = list(warnings)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- command handlers ----------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, stage: dict) -> list[str]:
    stage["name"] = "load-corpus"
    index = load_corpus(args.docs, args.catalog)
    stage["name"] = "write-artifacts"
    docs = [index.documents[d] for d in sorted(index.documents)]
    write_corpus(docs, os.path.join(args.out, "corpus.jsonl"))
    return ["corpus.jsonl"]


def cmd_synth(args: argparse.Namespace, stage: dict) -> list[str]:
    stage["name"] = "generate"
    params = SynthParams(
        num_queries=args.num_queries,
        num_docs=args.num_docs,
        num_filler_docs=args.filler_docs,
        terms_per_query=args.terms,
        num_good=args.good,
        num_bad=args.bad,
        base_contexts=args.base_contexts,
        context_spread=args.context_spread,
        count_boost=args.count_boost,
        count_skew=args.count_skew,
        rarity_skew=args.rarity_skew,
        proximity_skew=args.proximity_skew,
        window=args.window,
        max_distance=args.max_distance,
    )
    documents, queries, judgments = generate_synthetic(params, seed=args.seed)
    stage["name"] = "write-artifacts"
    write_corpus(documents, os.path.join(args.out, "corpus.jsonl"))
    write_queries(queries, os.path.join(args.out, "queries.jsonl"))
    write_qrels(judgments, os.path.join(args.out, "qrels.txt"))
    return ["corpus.jsonl", "queries.jsonl", "qrels.txt"]


def _load_inputs(
    args: argparse.Namespace, stage: dict
) -> tuple[CorpusIndex, list[Query], Judgments]:
    """The corpus, the queries, and the judgments where the command reads any."""
    stage["name"] = "load-corpus"
    index = load_corpus(args.corpus, args.catalog)
    stage["name"] = "load-queries"
    queries = read_queries(args.queries)
    if "qrels" not in args:
        return index, queries, Judgments()
    stage["name"] = "load-qrels"
    return index, queries, read_qrels(args.qrels)


def _prepare_system(
    args: argparse.Namespace,
    stage: dict,
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
) -> tuple[list[PreparedQuery], FeatureLayout | None, AggregatorSpec]:
    stage["name"] = "featurize"
    _refuse_unread_flags(args, args.system, f"--system {args.system}")
    if args.system == "macdonald" and args.aggregator != "sum":
        raise TrainingError(
            f"--system macdonald fits the sum aggregator only, got --aggregator {args.aggregator}"
        )
    spec = AggregatorSpec.from_name(args.aggregator)
    retrieval, bm25 = _retrieval_settings(args)
    prepared, layout = _prepare(
        args.system, partial(_layout_from_args, args), index, queries, judgments, retrieval, bm25
    )
    return prepared, layout, spec


def _prepare(
    system: str | None,
    make_layout: Callable[[], FeatureLayout | None],
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    retrieval: RetrievalConfig,
    bm25: Bm25Params,
) -> tuple[list[PreparedQuery], FeatureLayout | None]:
    """The one choice between the trained systems: macdonald's voting rows,
    one per entity and with no layout, or context rows under
    ``make_layout()``, which macdonald never calls.  Returns the prepared
    queries and the layout."""
    if system == "macdonald":
        return prepare_macdonald(index, queries, judgments, retrieval, bm25), None
    layout = make_layout()
    if layout is None:
        raise TrainingError("model carries no feature layout and no known system")
    return prepare_queries(index, queries, judgments, layout, retrieval, bm25), layout


def cmd_train(args: argparse.Namespace, stage: dict) -> list[str]:
    index, queries, judgments = _load_inputs(args, stage)
    prepared, layout, spec = _prepare_system(args, stage, index, queries, judgments)
    stage["name"] = "train"
    config = _train_config_from_args(args)
    model = train_model(prepared, spec, layout, config, args.with_cutoff)
    model.meta.update(
        {
            "system": args.system,
            "bm25": {"k1": args.k1, "b": args.b},
            "window": args.window,
            "granularity": args.granularity,
        }
    )
    stage["name"] = "write-artifacts"
    save_model(model, os.path.join(args.out, "model.json"))
    return ["model.json"]


_RANK_SETTINGS = ("window", "granularity", "k1", "b")


def _retrieval_settings(
    args: argparse.Namespace, meta: Mapping | None = None
) -> tuple[RetrievalConfig, Bm25Params]:
    """Retrieval and BM25 settings: the model's where its ``meta`` records
    them (rank --model), else the flags, else the defaults.  A flag given
    explicitly that disagrees with the model is an error."""
    meta = meta or {}
    kept = {"window": meta.get("window"), "granularity": meta.get("granularity")}
    kept.update(meta.get("bm25", {}))
    values = {**asdict(RetrievalConfig()), **asdict(Bm25Params())}
    for name in _RANK_SETTINGS:
        given, stored = getattr(args, name), kept.get(name)
        if stored is not None:
            stored = type(values[name])(stored)
            if given is not None and given != stored:
                raise ValueError(f"--{name} {given} differs from the model's {name} {stored}")
        values[name] = next((v for v in (stored, given) if v is not None), values[name])
    return (
        RetrievalConfig(window=values["window"], granularity=values["granularity"]),
        Bm25Params(k1=values["k1"], b=values["b"]),
    )


def cmd_rank(args: argparse.Namespace, stage: dict) -> list[str]:
    index, queries, no_judgments = _load_inputs(args, stage)
    stage["name"] = "featurize"
    # A model supplies the retrieval and BM25 settings (a given flag must
    # agree with it); of rank's flags, no trained system reads the LM ones.
    if args.model is not None:
        _refuse_unread_flags(args, "features", "--model")
    else:
        _refuse_unread_flags(args, args.baseline, f"--baseline {args.baseline}")
    stage["name"] = "rank"
    if args.model is not None:
        model = load_model(args.model)
        retrieval, bm25 = _retrieval_settings(args, model.meta)
        system, make_layout = model.meta.get("system"), lambda: model.layout
        prepared, _ = _prepare(system, make_layout, index, queries, no_judgments, retrieval, bm25)
        rankings = [rank_entities(pq.query_id, model_scores(model, pq)) for pq in prepared]
    else:
        retrieval, bm25 = _retrieval_settings(args)
        ranker = baseline_ranker(args.baseline, index, bm25, args.lm_lambda, args.kernel_width)
        rankings = [ranker(qc) for qc in collect_candidates(index, queries, retrieval)]
    stage["name"] = "write-artifacts"
    write_run(rankings, os.path.join(args.out, "run.txt"), tag=args.tag)
    return ["run.txt"]


def cmd_eval(args: argparse.Namespace, stage: dict) -> list[str]:
    stage["name"] = "load-run"
    rankings = read_run(args.run)
    stage["name"] = "load-qrels"
    judgments = read_qrels(args.qrels)
    stage["name"] = "evaluate"
    by_qid = {r.query_id: r for r in rankings}
    per_query = {}
    for qid in judgments.query_ids():
        ranking = by_qid.get(qid, Ranking(query_id=qid, items=()))
        per_query[qid] = compute_metrics(
            ranking, judgments.good_for(qid), judgments.bad_for(qid)
        )
    report = EvalReport(system=args.system, per_query=per_query)
    stage["name"] = "write-artifacts"
    write_report(report, os.path.join(args.out, "report.tsv"))
    return ["report.tsv"]


def cmd_xval(args: argparse.Namespace, stage: dict) -> list[str]:
    index, queries, judgments = _load_inputs(args, stage)
    name = args.name or args.system
    stage["name"] = "featurize"
    if args.system in BASELINE_SYSTEMS:
        _refuse_unread_flags(args, args.system, f"--system {args.system}")
        retrieval, bm25 = _retrieval_settings(args)
        items: Sequence = collect_candidates(index, queries, retrieval)
        ranker = baseline_ranker(args.system, index, bm25, args.lm_lambda, args.kernel_width)

        def fit(_train: Sequence) -> Callable:
            return ranker

    else:
        prepared, layout, spec = _prepare_system(args, stage, index, queries, judgments)
        items = prepared
        config = _train_config_from_args(args)

        def fit(train: Sequence) -> Callable:
            model = train_model(train, spec, layout, config, args.with_cutoff)
            return lambda pq: rank_entities(pq.query_id, model_scores(model, pq))

    stage["name"] = "cross-validate"
    report = cross_validate(
        items,
        judgments,
        fit,
        protocol=args.protocol,
        folds=args.folds,
        seed=args.seed,
        system=name,
    )
    stage["name"] = "write-artifacts"
    write_report(report, os.path.join(args.out, "report.tsv"))
    return ["report.tsv"]


def cmd_compare(args: argparse.Namespace, stage: dict) -> list[str]:
    stage["name"] = "load-reports"
    reports = [read_report(p) for p in args.reports]
    stage["name"] = "write-artifacts"
    untested = write_comparison(reports, os.path.join(args.out, "comparison.tsv"))
    first = os.path.basename(args.reports[0])
    stage["warnings"] = [
        f"{os.path.basename(args.reports[k])} (system {reports[k].system}): {n} query ids "
        f"differ from {first}; no t-test was run against it"
        for k, n in sorted(untested.items())
    ]
    return ["comparison.tsv"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2

    stage = {"name": "startup"}
    config = _config_dict(args)
    try:
        os.makedirs(args.out, exist_ok=True)
        artifacts = args.func(args, stage)
    except (
        AggregationError,
        CorpusError,
        EvalError,
        FeatureError,
        SynthError,
        TrainingError,
        OSError,
        ValueError,
    ) as exc:
        print(f"proxrank {args.command}: {stage['name']}: {exc}", file=sys.stderr)
        try:
            write_manifest(args.out, args.command, config, [], "failed", str(exc))
        except OSError:
            pass
        return 1
    write_manifest(
        args.out, args.command, config, [*artifacts, MANIFEST_NAME], "ok",
        warnings=stage.get("warnings", ()),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
