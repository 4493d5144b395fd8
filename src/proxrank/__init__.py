"""Trainable entity ranking over annotated text corpora.

The package turns pre-tokenized documents with annotated entity mentions
into ranked entity lists for keyword queries.  Evidence for an entity is
the set of contexts where it is mentioned near query terms; each context
is featurized (document scores, proximity-bucketed term matches) and the
per-context scores are combined by a configurable aggregation operator
whose weights are trained from pairwise relevance preferences.
"""

from proxrank.aggregators import (
    AggregatorSpec,
    aggregate_gradient,
    aggregate_score,
    balog2_score,
    petkova_score,
    transform_eval,
    voting_aggregates,
)
from proxrank.corpus import (
    CandidateSet,
    Context,
    CorpusError,
    CorpusIndex,
    CorpusStats,
    Document,
    Judgments,
    Mention,
    Query,
    QueryTerm,
    RetrievalConfig,
    compute_idf,
    extract_context,
    find_candidates,
    ingest_corpus,
    load_corpus,
)
from proxrank.evaluation import (
    EvalError,
    EvalReport,
    MetricSet,
    Ranking,
    compute_metrics,
    cross_validate,
    paired_ttest,
    rank_entities,
)
from proxrank.features import (
    Bm25Params,
    FeatureLayout,
    document_scores,
    rectangle_features,
)
from proxrank.synth import SynthParams, generate_synthetic
from proxrank.training import (
    CutoffModel,
    Model,
    PreparedQuery,
    TrainConfig,
    TrainingError,
    load_model,
    objective_and_gradient,
    prepare_queries,
    save_model,
    soft_hinge,
    train_model,
    train_soft_cutoff,
)

__version__ = "0.1.0"
