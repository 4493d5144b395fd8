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
derivative).  One row product (:func:`context_scores`) and one sorted
segment kernel (:func:`segment_aggregate`) serve ranking, training, the
cutoff profiles and the gradient, so a score's bits depend neither on the
order nor on the stack position of an entity's contexts.  This module also
hosts the rank-fusion aggregates and the language-model baselines.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

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
    "context_scores",
    "macdonald_features",
    "petkova_score",
    "positional_term_distribution",
    "segment_aggregate",
    "segment_deciles",
    "transform_eval",
    "voting_aggregates",
]

TRANSFORMS = ("identity", "exp", "log1p", "indicator")
OPERATORS = ("sum", "avg", "softor", "softcutoff")
EXP_CLAMP = 500.0  # keeps exp() finite; raw scores this large are already broken

NUM_DECILES = 10

# Each aggregator name and its (operator, transform), for AggregatorSpec.
_NAMED = {
    "sum": ("sum", "identity"),
    "avg": ("avg", "identity"),
    "softmax": ("sum", "exp"),
    "softcount": ("sum", "log1p"),
    "count": ("sum", "indicator"),
    "softor": ("softor", "identity"),
    "softcutoff": ("softcutoff", "identity"),
}


class AggregationError(ValueError):
    """Invalid aggregation request."""


class TransformError(AggregationError):
    """Invalid transform evaluation (e.g. derivative of the indicator)."""


def transform_eval(transform: str, a, derivative: bool = True):
    """Evaluate (T(a), T'(a)); scalar in, scalars out, array in, arrays out.

    The indicator is value-only: T' is None when ``derivative`` is false,
    and a request for it raises.
    """
    arr = np.asarray(a, dtype=float)
    if transform == "indicator":
        if derivative:
            raise TransformError("indicator transform is evaluation-only; it has no derivative")
        value, deriv = (arr > 0.0).astype(float), None
    elif transform == "identity":
        value, deriv = arr, np.ones_like(arr)
    elif transform == "exp":
        value = np.exp(np.clip(arr, -EXP_CLAMP, EXP_CLAMP))
        deriv = value
    elif transform == "log1p":
        if np.any(arr <= -1.0):
            raise TransformError("log1p transform requires inputs > -1")
        value, deriv = np.log1p(arr), 1.0 / (1.0 + arr)
    else:
        raise TransformError(f"unknown transform {transform!r}")
    if np.ndim(a) == 0:
        return float(value), None if deriv is None else float(deriv)
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
        if name not in _NAMED:
            raise AggregationError(f"unknown aggregator name {name!r}")
        op, transform = _NAMED[name]
        if op == "softcutoff":
            return cls(op, transform, tuple(float(d) for d in decay or ()))
        if decay is not None:
            raise AggregationError(f"aggregator {name!r} takes no decay")
        return cls(op, transform)

    @property
    def name(self) -> str:
        """The :meth:`from_name` name of this operator and transform;
        softor and softcutoff keep their names under any transform."""
        if self.operator in ("softor", "softcutoff"):
            return self.operator
        pair = (self.operator, self.transform)
        return next((n for n, p in _NAMED.items() if p == pair), "+".join(pair))


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


def context_scores(weights, features) -> np.ndarray:
    """Raw context scores s = F @ w, with bits that depend only on each row.

    A BLAS matrix-vector product gives a row different bits depending on
    where it sits in the block; ``np.vecdot`` over a C-contiguous matrix
    does not (a Fortran-ordered one would, hence the copy).
    """
    return np.vecdot(np.ascontiguousarray(features, dtype=float), np.asarray(weights, dtype=float))


def aggregate_score(spec: AggregatorSpec, weights, features, offsets=None):
    """Entity scores V(e): :func:`context_scores`, then :func:`segment_aggregate`.

    With ``offsets`` omitted, ``features`` holds one entity's context rows
    and V is a float; otherwise entity k's rows are
    features[offsets[k]:offsets[k+1]] and V holds one score per entity.
    """
    w, F = _check_matrix(weights, features)
    n = F.shape[0]
    if offsets is None:
        V, _ = segment_aggregate(spec, context_scores(w, F), np.array([0, n]), np.zeros(n, int))
        return float(V[0])
    offsets = np.asarray(offsets, dtype=int)
    counts = offsets[1:] - offsets[:-1]
    if offsets[0] != 0 or offsets[-1] != n or np.any(counts <= 0):
        raise AggregationError(f"offsets must rise from 0 to {n} rows, got {offsets}")
    segments = np.repeat(np.arange(counts.shape[0]), counts)
    return segment_aggregate(spec, context_scores(w, F), offsets, segments)[0]


def aggregate_gradient(spec: AggregatorSpec, weights, features) -> np.ndarray:
    """dV/dw for the entity: the one-segment case of :func:`segment_aggregate`."""
    w, F = _check_matrix(weights, features)
    n = F.shape[0]
    _, coef = segment_aggregate(spec, context_scores(w, F), np.array([0, n]), np.zeros(n, int))
    return F.T @ coef(np.ones(1))


def segment_deciles(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Decile of each row's rank in its segment scores[offsets[k]:offsets[k+1]]:
    ranked by descending score, ties by row, 0-based position p of n maps
    to min(10 p // n, 9).  Returned per original row."""
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


def sigmoid(a):
    """scipy's ``expit``, imported on the first call: only gradients need
    it, so ranking and the baselines run without loading scipy."""
    from scipy.special import expit

    return expit(a)


def _sorted_sums(terms: np.ndarray, offsets: np.ndarray, segments: np.ndarray) -> np.ndarray:
    return np.add.reduceat(terms[np.lexsort((terms, segments))], offsets[:-1])


def segment_aggregate(
    spec: AggregatorSpec, s: np.ndarray, offsets: np.ndarray, segments: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Segment-wise entity scores and their chain rule: the one kernel.

    Segment k holds the raw context scores s[offsets[k]:offsets[k+1]] and
    ``segments`` gives each row's segment id.  Each segment's per-context
    terms are summed in sorted order, so V (one score per segment) is
    bit-identical under any permutation of a segment's rows.  Also
    returns a builder mapping per-segment coefficients c to
    per-context coefficients, so that sum_k c_k dV_k/dw = F.T @ build(c)
    when s = F @ w.  Sum/avg differentiate the transform chain (the
    indicator has no derivative: building raises); softor uses
    d/dw [1 - prod(1 - sigmoid(s_x))] = sum_x sigmoid(s_x) *
    prod_all(1 - sigmoid) * f_x (the (1 - sigmoid(s_x)) factor of the
    usual product rule folds into the full product); softcutoff holds the
    rank-derived deciles fixed.
    """
    if spec.operator == "softor":
        # log(1 - sigmoid(s)) = -softplus(s); V = 1 - exp(sum)
        seg_log = _sorted_sums(-np.logaddexp(0.0, s), offsets, segments)
        # The exact value is below 1; clamp the rounded-up case.
        V = np.minimum(-np.expm1(seg_log), np.nextafter(1.0, 0.0))
        product = np.exp(seg_log)

        def build(entity_coef: np.ndarray) -> np.ndarray:
            return sigmoid(s) * (entity_coef * product)[segments]

        return V, build
    if spec.operator == "softcutoff":
        weights_ctx = np.asarray(spec.decay, dtype=float)[segment_deciles(s, offsets)]
        V = _sorted_sums(weights_ctx * s, offsets, segments)

        def build(entity_coef: np.ndarray) -> np.ndarray:
            return weights_ctx * entity_coef[segments]

        return V, build
    value, deriv = transform_eval(spec.transform, s, derivative=False)
    V = _sorted_sums(value, offsets, segments)
    divisor = np.diff(offsets) if spec.operator == "avg" else 1.0
    V = V / divisor

    def build(entity_coef: np.ndarray) -> np.ndarray:
        if deriv is None:
            raise TransformError("the indicator transform has no derivative")
        return deriv * (entity_coef / divisor)[segments]

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


def _starts(index: CorpusIndex, ctx: Context, term: str) -> Sequence[int]:
    # The term's starts in the context's document, from the read that came
    # with the context, or from the postings for a hand-built context.
    read = ctx.starts.get(term)
    if read is None:
        return index.postings.term(term).starts(ctx.doc_id)
    return read.get(ctx.doc_id, ())


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
    A window's term counts are found by bisection in the starts that the
    context carries (:attr:`Context.starts`), or that are read from the
    postings for a context that carries none.
    """
    if not contexts:
        raise AggregationError("balog2 needs a non-empty support set")
    if not (0.0 <= smoothing <= 1.0):
        raise AggregationError(f"smoothing must be in [0, 1], got {smoothing}")
    stats = index.stats
    counts_q = _unigram_multiplicity(query)
    clen = max(stats.collection_len, 1)
    # Each term's multiplicity and smoothing mass.
    terms = [(term, n, smoothing * stats.cf.get(term, 0) / clen) for term, n in counts_q.items()]
    scores = []
    for ctx in contexts:
        # The window's token positions, clipped to the document as a slice is.
        span = range(len(index.documents[ctx.doc_id].tokens))[slice(*ctx.window)]
        length = max(len(span), 1)
        log_prob = 0.0
        for term, n, background in terms:
            post = _starts(index, ctx, term)
            tf = bisect_left(post, span.stop) - bisect_left(post, span.start) if span else 0
            p = (1.0 - smoothing) * tf / length + background
            if p <= 0.0:
                log_prob = -math.inf
                break
            log_prob += n * math.log(p)
        scores.append(math.exp(log_prob) if log_prob > -math.inf else 0.0)
    return _sorted_total(scores)


# np.sum adds fewer float64 values than this one by one, in order (a test
# in tests/test_index_reads.py pins it); from here on it sums pairwise.
_PAIRWISE_FROM = 8


def _in_order_sum(values: Iterable[float]) -> float:
    # 0.0 + v1 + v2 + ..., one rounding per addition, as np.sum adds fewer
    # than _PAIRWISE_FROM values.  Not the built-in sum(), which compensates
    # float rounding from Python 3.12 on.
    total = 0.0
    for v in values:
        total += v
    return total


def _sorted_total(values: list[float]) -> float:
    """``float(np.sum(np.sort(values)))``, bit for bit: below
    ``_PAIRWISE_FROM`` values, the in-order sum of the sorted list."""
    if len(values) < _PAIRWISE_FROM:
        return _in_order_sum(sorted(values))
    return float(np.sum(np.sort(np.asarray(values))))


def _gaussian(offsets: np.ndarray, width: float) -> np.ndarray:
    # The one copy of the kernel formula, at the offsets i - center.
    return np.exp(-(offsets**2) / (2.0 * width * width))


@lru_cache(maxsize=32)
def _kernel_table(width: float, reach: int) -> np.ndarray:
    # The kernel at the offsets -reach, ..., reach.  Read-only, since every
    # caller shares it; the cache keeps the 32 most recent (width, reach).
    table = _gaussian(np.arange(-reach, reach + 1, dtype=float), width)
    table.flags.writeable = False
    return table


def _kernel(length: int, center: int, width: float) -> np.ndarray:
    # The kernel at positions 0 .. length-1.  A center inside the document
    # reads a slice of the width's table, whose reach covers every offset
    # (a power of two, so that each width keeps a table per doubling of the
    # length, not per length).  The offsets are exact integers in float, so
    # each entry has the bits the formula gives for this center alone, and
    # so does the slice's sum.
    if not (isinstance(center, int) and 0 <= center < length):
        return _gaussian(np.arange(length, dtype=float) - float(center), width)
    reach = 1 << (length - 1).bit_length()
    start = reach - center
    return _kernel_table(width, reach)[start : start + length]


def _positional_masses(
    length: int, center: int, width: float, positions: Iterable[Sequence[int]]
) -> list[float]:
    # Each term's kernel mass at its positions over the mass of every
    # position of the document.  The positions must ascend, so that a mass
    # has the same bits whether they come from the postings or from a pass
    # over the tokens.  Fewer than _PAIRWISE_FROM positions are read one by
    # one through a view of the shared kernel and added in order, as np.sum
    # adds them.
    kernel = _kernel(length, center, width)
    denom = float(kernel.sum())
    if not denom > 0.0:
        return [0.0 for _ in positions]
    values = memoryview(kernel)
    return [
        (
            _in_order_sum([values[p] for p in where])
            if len(where) < _PAIRWISE_FROM
            else float(kernel[np.asarray(where, dtype=np.intp)].sum())
        )
        / denom
        for where in positions
    ]


def positional_term_distribution(
    tokens: Sequence[str], center: int, width: float, terms: Iterable[str]
) -> dict[str, float]:
    """Unsmoothed position-weighted language model around ``center``.

    Each occurrence of a term at position i contributes a Gaussian kernel
    weight exp(-(i - center)^2 / (2 width^2)); the denominator sums the
    kernel over every position, so the result is the probability mass the
    model puts on each requested term.  Only relative offsets i - center
    matter, which is exactly the baseline's blind spot: translating the
    whole geometry leaves the distribution unchanged.  This function
    finds the occurrences in ``tokens``; :func:`petkova_score` reads them
    from the postings and shares the kernel, read from one table per width
    and document-length class rather than built per context.
    """
    if width <= 0.0:
        raise AggregationError(f"kernel width must be positive, got {width}")
    where: dict[str, list[int]] = {term: [] for term in terms}
    for i, tok in enumerate(tokens):
        if tok in where:
            where[tok].append(i)
    return dict(zip(where, _positional_masses(len(tokens), center, width, where.values())))


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
    sum over contexts).  Term positions are read as in :func:`balog2_score`.
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
    background = [smoothing * stats.cf.get(t, 0) / clen for t in terms]
    scale = 1.0 - smoothing
    per_term = [[] for _ in terms]
    for ctx in contexts:
        where = [_starts(index, ctx, t) for t in terms]
        length = len(index.documents[ctx.doc_id].tokens)
        masses = _positional_masses(length, ctx.mention_offset, kernel_width, where)
        for out, positional, mass in zip(per_term, masses, background):
            out.append(scale * positional + mass)
    log_prob = 0.0
    for t, ps in zip(terms, per_term):
        mean_p = _sorted_total(ps) / len(contexts)
        if mean_p <= 0.0:
            return 0.0
        log_prob += counts_q[t] * math.log(mean_p)
    return math.exp(log_prob)
