"""Evidence aggregation: combine per-context scores into entity scores.

Given an entity's feature matrix F (one row per supporting context) and
weights w, the raw context scores are s = F @ w and the entity score is

    V(e) = op over contexts of T(s_x)

with transform T in {identity, exp, log1p, indicator} and operator in:

* ``sum`` / ``avg`` -- plain (or length-normalized) sum of T(s_x);
* ``softor``        -- noisy-or, V = 1 - prod_x (1 - sigmoid(s_x)),
                       computed in log space; the transform is ignored;
* ``softcutoff``    -- rank contexts by raw score, weight each by a
                       learned non-increasing decile decay D, and sum
                       D(decile(rank)) * s_x.

Familiar configurations: sum+exp is a soft maximum, sum+log1p a soft
count, sum+indicator the plain support-set size (evaluation only, no
derivative).  This module also hosts the rank-fusion aggregates and two
language-model baselines used for comparison runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from proxrank.corpus import Context, CorpusIndex, Query
from proxrank.features import Bm25Params, bm25_score

__all__ = [
    "AggregationError",
    "AggregatorSpec",
    "OPERATORS",
    "TRANSFORMS",
    "TransformError",
    "VOTING_FEATURE_NAMES",
    "aggregate_gradient",
    "aggregate_score",
    "balog2_score",
    "macdonald_features",
    "petkova_score",
    "positional_term_distribution",
    "rank_deciles",
    "segment_aggregate",
    "segment_deciles",
    "transform_eval",
    "transform_value",
    "voting_aggregates",
]

TRANSFORMS = ("identity", "exp", "log1p", "indicator")
OPERATORS = ("sum", "avg", "softor", "softcutoff")
EXP_CLAMP = 500.0  # keeps exp() finite; raw scores this large are already broken

NUM_DECILES = 10


class AggregationError(ValueError):
    """Invalid aggregation request."""


class TransformError(AggregationError):
    """Invalid transform evaluation (e.g. derivative of the indicator)."""


def transform_value(transform: str, a):
    """Evaluate T(a); scalar in, scalar out, array in, array out."""
    arr = np.asarray(a, dtype=float)
    if transform == "identity":
        out = arr
    elif transform == "exp":
        out = np.exp(np.clip(arr, -EXP_CLAMP, EXP_CLAMP))
    elif transform == "log1p":
        if np.any(arr <= -1.0):
            raise TransformError("log1p transform requires inputs > -1")
        out = np.log1p(arr)
    elif transform == "indicator":
        out = (arr > 0.0).astype(float)
    else:
        raise TransformError(f"unknown transform {transform!r}")
    return float(out) if np.ndim(a) == 0 else out


def transform_eval(transform: str, a):
    """Evaluate (T(a), T'(a)).  The indicator has no derivative."""
    arr = np.asarray(a, dtype=float)
    if transform == "identity":
        value, deriv = arr, np.ones_like(arr)
    elif transform == "exp":
        value = np.exp(np.clip(arr, -EXP_CLAMP, EXP_CLAMP))
        deriv = value
    elif transform == "log1p":
        if np.any(arr <= -1.0):
            raise TransformError("log1p transform requires inputs > -1")
        value, deriv = np.log1p(arr), 1.0 / (1.0 + arr)
    elif transform == "indicator":
        raise TransformError("indicator transform is evaluation-only; it has no derivative")
    else:
        raise TransformError(f"unknown transform {transform!r}")
    if np.ndim(a) == 0:
        return float(value), float(deriv)
    return value, deriv


@dataclass(frozen=True)
class AggregatorSpec:
    """Operator plus transform (plus the decile decay for softcutoff)."""

    operator: str
    transform: str = "identity"
    decay: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.operator not in OPERATORS:
            raise AggregationError(f"unknown operator {self.operator!r}")
        if self.transform not in TRANSFORMS:
            raise AggregationError(f"unknown transform {self.transform!r}")
        if self.operator == "softcutoff":
            if self.decay is None or len(self.decay) != NUM_DECILES:
                raise AggregationError(
                    f"softcutoff needs a decay vector of length {NUM_DECILES}"
                )
            if any(d < 0.0 for d in self.decay):
                raise AggregationError("softcutoff decay must be non-negative")
            if any(b > a + 1e-12 for a, b in zip(self.decay, self.decay[1:])):
                raise AggregationError("softcutoff decay must be non-increasing")
        elif self.decay is not None:
            raise AggregationError(f"decay is only meaningful for softcutoff")

    @classmethod
    def from_name(cls, name: str, decay: Sequence[float] | None = None) -> "AggregatorSpec":
        named = {
            "sum": ("sum", "identity"),
            "avg": ("avg", "identity"),
            "softmax": ("sum", "exp"),
            "softcount": ("sum", "log1p"),
            "count": ("sum", "indicator"),
            "softor": ("softor", "identity"),
            "softcutoff": ("softcutoff", "identity"),
        }
        if name not in named:
            raise AggregationError(f"unknown aggregator name {name!r}")
        op, transform = named[name]
        if op == "softcutoff":
            return cls(op, transform, tuple(float(d) for d in decay or ()))
        if decay is not None:
            raise AggregationError(f"aggregator {name!r} takes no decay")
        return cls(op, transform)

    @property
    def name(self) -> str:
        reverse = {
            ("sum", "identity"): "sum",
            ("avg", "identity"): "avg",
            ("sum", "exp"): "softmax",
            ("sum", "log1p"): "softcount",
            ("sum", "indicator"): "count",
        }
        if self.operator == "softor":
            return "softor"
        if self.operator == "softcutoff":
            return "softcutoff"
        return reverse.get((self.operator, self.transform), f"{self.operator}+{self.transform}")


def _check_matrix(weights: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=float)
    F = np.asarray(features, dtype=float)
    if F.ndim != 2 or F.shape[0] == 0:
        raise AggregationError("feature matrix must be 2-D with at least one context row")
    if w.ndim != 1 or w.shape[0] != F.shape[1]:
        raise AggregationError(
            f"weight length {w.shape} does not match feature width {F.shape}"
        )
    return w, F


def rank_deciles(scores: np.ndarray) -> np.ndarray:
    """Decile of each context's rank position under descending raw score.

    Position p (0-based, ties broken by original index) maps to
    floor(10 p / n), clamped to [0, 9].  Returned per original index.
    """
    s = np.asarray(scores, dtype=float)
    n = s.shape[0]
    order = np.lexsort((np.arange(n), -s))
    deciles = np.minimum((NUM_DECILES * np.arange(n)) // n, NUM_DECILES - 1)
    out = np.empty(n, dtype=int)
    out[order] = deciles
    return out


def aggregate_score(spec: AggregatorSpec, weights, features) -> float:
    """Entity score V(e) from the context feature matrix.

    Per-context terms are summed in sorted order, so the result is
    bit-identical under any permutation of the contexts.
    """
    w, F = _check_matrix(weights, features)
    s = F @ w
    if spec.operator == "softor":
        # log(1 - sigmoid(s)) = -softplus(s); V = 1 - exp(sum)
        log_one_minus = -np.logaddexp(0.0, s)
        value = -np.expm1(np.sum(np.sort(log_one_minus)))
        if value >= 1.0:  # exact value is < 1; clamp the rounded-up case
            value = np.nextafter(1.0, 0.0)
        return float(value)
    if spec.operator == "softcutoff":
        decay = np.asarray(spec.decay, dtype=float)
        terms = decay[rank_deciles(s)] * s
        return float(np.sum(np.sort(terms)))
    values = transform_value(spec.transform, s)
    total = float(np.sum(np.sort(values)))
    if spec.operator == "avg":
        total /= s.shape[0]
    return total


def aggregate_gradient(spec: AggregatorSpec, weights, features) -> np.ndarray:
    """dV/dw for the entity: the one-segment case of :func:`segment_aggregate`."""
    w, F = _check_matrix(weights, features)
    n = F.shape[0]
    _, coef = segment_aggregate(spec, F @ w, np.array([0, n]), np.zeros(n, dtype=int))
    return F.T @ coef(np.ones(1))


def segment_deciles(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """:func:`rank_deciles` of every segment scores[offsets[k]:offsets[k+1]]
    at once, returned per original row."""
    s = np.asarray(scores, dtype=float)
    counts = np.diff(offsets)
    rows = np.arange(s.shape[0])
    # Segments are contiguous, so ordering by segment id first leaves
    # each segment's rank positions inside its own row range.
    order = np.lexsort((rows, -s, np.repeat(np.arange(counts.shape[0]), counts)))
    position = rows - np.repeat(offsets[:-1], counts)
    deciles = np.minimum((NUM_DECILES * position) // np.repeat(counts, counts), NUM_DECILES - 1)
    out = np.empty(s.shape[0], dtype=int)
    out[order] = deciles
    return out


def segment_aggregate(
    spec: AggregatorSpec, s: np.ndarray, offsets: np.ndarray, segments: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Segment-wise entity scores and their chain rule.

    Segment k holds the raw context scores s[offsets[k]:offsets[k+1]] and
    ``segments`` gives each row's segment id.  Returns V (one score per
    segment) and a builder mapping per-segment coefficients c to
    per-context coefficients, so that sum_k c_k dV_k/dw = F.T @ build(c)
    when s = F @ w.  Sum/avg differentiate the transform chain; softor
    uses d/dw [1 - prod(1 - sigmoid(s_x))] = sum_x sigmoid(s_x) *
    prod_all(1 - sigmoid) * f_x (the (1 - sigmoid(s_x)) factor of the
    usual product rule folds into the full product); softcutoff holds the
    rank-derived deciles fixed.  Segments are summed in row order, not
    sorted as in :func:`aggregate_score`.
    """
    starts = offsets[:-1]
    if spec.operator == "softor":
        log_one_minus = -np.logaddexp(0.0, s)
        seg_log = np.add.reduceat(log_one_minus, starts)
        V = -np.expm1(seg_log)
        product = np.exp(seg_log)
        sig = expit(s)

        def build(entity_coef: np.ndarray) -> np.ndarray:
            return sig * (entity_coef * product)[segments]

        return V, build
    if spec.operator == "softcutoff":
        weights_ctx = np.asarray(spec.decay, dtype=float)[segment_deciles(s, offsets)]
        V = np.add.reduceat(weights_ctx * s, starts)

        def build(entity_coef: np.ndarray) -> np.ndarray:
            return weights_ctx * entity_coef[segments]

        return V, build
    value, deriv = transform_eval(spec.transform, s)
    V = np.add.reduceat(value, starts)
    scale = np.ones(starts.shape[0])
    if spec.operator == "avg":
        scale = 1.0 / np.diff(offsets)
        V = V * scale

    def build(entity_coef: np.ndarray) -> np.ndarray:
        return deriv * (entity_coef * scale)[segments]

    return V, build


# -- rank-fusion aggregates -------------------------------------------------

VOTING_FEATURE_NAMES = (
    "combsum",
    "combmax",
    "combmin",
    "combanz",
    "votes",
    "combmnz",
    "expcombmnz",
)


def voting_aggregates(scores: Sequence[float], support_size: int) -> dict[str, float]:
    """Data-fusion aggregates of an entity's per-context retrieval scores.

    ``votes`` is the support-set size; CombMNZ multiplies the score sum by
    it, and ExpCombMNZ does the same with exponentiated scores.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.shape[0] == 0:
        raise AggregationError("voting aggregates need at least one context score")
    if support_size < 1:
        raise AggregationError(f"support size must be >= 1, got {support_size}")
    exp_scores = np.exp(np.clip(s, -EXP_CLAMP, EXP_CLAMP))
    total = float(np.sum(np.sort(s)))
    return {
        "combsum": total,
        "combmax": float(np.max(s)),
        "combmin": float(np.min(s)),
        "combanz": total / s.shape[0],
        "votes": float(support_size),
        "combmnz": support_size * total,
        "expcombmnz": support_size * float(np.sum(np.sort(exp_scores))),
    }


def macdonald_features(
    index: CorpusIndex,
    query: Query,
    support: Mapping[str, Sequence[Context]],
    params: Bm25Params = Bm25Params(),
) -> dict[str, np.ndarray]:
    """Entity-level voting feature rows (one 7-vector per entity).

    Context scores are BM25 over each context's window slice; the seven
    aggregates then feed the standard pairwise trainer as a linear model.
    """
    out: dict[str, np.ndarray] = {}
    for eid in sorted(support):
        contexts = support[eid]
        if not contexts:
            raise AggregationError(f"entity {eid!r} has an empty support set")
        scores = []
        for ctx in contexts:
            lo, hi = ctx.window
            tokens = index.documents[ctx.doc_id].tokens[lo:hi]
            scores.append(bm25_score(tokens, query, index.stats, params))
        agg = voting_aggregates(scores, len(contexts))
        out[eid] = np.array([agg[k] for k in VOTING_FEATURE_NAMES], dtype=float)
    return out


# -- language-model baselines ----------------------------------------------


def _unigram_multiplicity(query: Query) -> dict[str, int]:
    # LM baselines work over unigrams: phrases contribute their
    # constituent tokens, each with the phrase's multiplicity.
    counts: dict[str, int] = {}
    for term in query.terms:
        for tok in term.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    return counts


def balog2_score(
    index: CorpusIndex,
    query: Query,
    contexts: Sequence[Context],
    smoothing: float = 0.5,
) -> float:
    """Sum over contexts of the smoothed unigram likelihood of the query.

    Each context is scored as a document: prod_t Pr(t | context)^n(t, q)
    with Jelinek-Mercer smoothing (1 - lam) * tf/len + lam * cf/collection.
    Boolean entity-context association, so context scores just add up.
    """
    if not contexts:
        raise AggregationError("balog2 needs a non-empty support set")
    if not (0.0 <= smoothing <= 1.0):
        raise AggregationError(f"smoothing must be in [0, 1], got {smoothing}")
    stats = index.stats
    counts_q = _unigram_multiplicity(query)
    clen = max(stats.collection_len, 1)
    scores = []
    for ctx in contexts:
        lo, hi = ctx.window
        tokens = index.documents[ctx.doc_id].tokens[lo:hi]
        counts = Counter(tokens)
        length = max(len(tokens), 1)
        log_prob = 0.0
        for term, n in counts_q.items():
            p = (1.0 - smoothing) * counts.get(term, 0) / length
            p += smoothing * stats.cf.get(term, 0) / clen
            if p <= 0.0:
                log_prob = -math.inf
                break
            log_prob += n * math.log(p)
        scores.append(math.exp(log_prob) if log_prob > -math.inf else 0.0)
    return float(np.sum(np.sort(np.asarray(scores))))


def positional_term_distribution(
    tokens: Sequence[str], center: int, width: float, terms: Iterable[str]
) -> dict[str, float]:
    """Unsmoothed position-weighted language model around ``center``.

    Each occurrence of a term at position i contributes a Gaussian kernel
    weight exp(-(i - center)^2 / (2 width^2)); the denominator sums the
    kernel over every position, so the result is the probability mass the
    model puts on each requested term.  Only relative offsets i - center
    matter, which is exactly the baseline's blind spot: translating the
    whole geometry leaves the distribution unchanged.
    """
    if width <= 0.0:
        raise AggregationError(f"kernel width must be positive, got {width}")
    positions = np.arange(len(tokens), dtype=float)
    kernel = np.exp(-((positions - float(center)) ** 2) / (2.0 * width * width))
    denom = float(kernel.sum())
    out: dict[str, float] = {}
    token_arr = np.asarray(tokens, dtype=object)
    for term in terms:
        mask = token_arr == term
        numer = float(kernel[mask].sum()) if mask.any() else 0.0
        out[term] = numer / denom if denom > 0.0 else 0.0
    return out


def petkova_score(
    index: CorpusIndex,
    query: Query,
    contexts: Sequence[Context],
    kernel_width: float = 25.0,
    smoothing: float = 0.5,
) -> float:
    """Positional language-model baseline.

    Builds a kernel-weighted term distribution around each mention (over
    the full document), smooths it against the collection, averages the
    per-context models into one entity model, and takes the query
    likelihood under that single model (product over terms outside the
    sum over contexts).
    """
    if not contexts:
        raise AggregationError("petkova needs a non-empty support set")
    if kernel_width <= 0.0:
        raise AggregationError(f"kernel width must be positive, got {kernel_width}")
    if not (0.0 <= smoothing <= 1.0):
        raise AggregationError(f"smoothing must be in [0, 1], got {smoothing}")
    stats = index.stats
    counts_q = _unigram_multiplicity(query)
    terms = sorted(counts_q)
    clen = max(stats.collection_len, 1)
    per_term = {t: [] for t in terms}
    for ctx in contexts:
        tokens = index.documents[ctx.doc_id].tokens
        positional = positional_term_distribution(tokens, ctx.mention_offset, kernel_width, terms)
        for t in terms:
            p = (1.0 - smoothing) * positional[t] + smoothing * stats.cf.get(t, 0) / clen
            per_term[t].append(p)
    log_prob = 0.0
    for t in terms:
        mean_p = float(np.sum(np.sort(np.asarray(per_term[t])))) / len(contexts)
        if mean_p <= 0.0:
            return 0.0
        log_prob += counts_q[t] * math.log(mean_p)
    return math.exp(log_prob)
