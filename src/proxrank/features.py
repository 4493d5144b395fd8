"""Per-context feature families producing non-negative feature rows.

A feature layout fixes which families are active and how their cells map
into one flat index space.  Families, in layout order:

* ``noprox``    -- two whole-document scores (BM25, TF-IDF cosine) that
                   ignore mention positions entirely;
* ``idfupto``   -- for each distance boundary L, the fraction of the
                   query's total IDF matched within L tokens;
* ``grid``      -- a (rarity x proximity) histogram: each matched term
                   adds 1 to the single cell for its IDF-fraction bucket
                   and distance bucket;
* ``rectangle`` -- like grid, but each match also fires every cell that
                   is at most as rare and at most as close, so a cell
                   counts matches "at least this rare, at least this
                   near" and cell counts are additive across matches;
* ``pad``       -- a constant 1.0, which lets sum-style aggregation see
                   plain evidence counts.

:func:`context_matrix` builds the finite, non-negative rows of many contexts
at once; :func:`rectangle_features` is a sparse view (index -> value,
absent means zero) of one context's rectangle block.

The ``noprox`` scores of an indexed document read its query-independent
term state (:class:`~proxrank.corpus.TermState`: token counts, squared
unigram TF-IDF weights and their sum) from the index's statistics, which
build it on the document's first whole-document scoring, not at ingest.
:func:`bm25_score` and :func:`cosine_score` score any token sequence with
the same per-term code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from proxrank.corpus import (
    Context,
    CorpusIndex,
    CorpusStats,
    Document,
    Query,
    TermState,
    compute_idf,
    phrase_starts,
)

__all__ = [
    "Bm25Params",
    "FAMILY_ORDER",
    "FeatureError",
    "FeatureLayout",
    "bm25_score",
    "context_matrix",
    "cosine_score",
    "document_scores",
    "rectangle_features",
    "to_dense",
]

FAMILY_ORDER = ("noprox", "idfupto", "grid", "rectangle", "pad")
_NOPROX_SIZE = 2  # bm25, cosine

FeatureVector = dict[int, float]


class FeatureError(ValueError):
    """Invalid layout or feature request."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and self.k1 >= 0.0):
            raise FeatureError(f"BM25 k1 must be finite and >= 0, got {self.k1}")
        if not (0.0 <= self.b <= 1.0):
            raise FeatureError(f"BM25 b must lie in [0, 1], got {self.b}")


@dataclass(frozen=True)
class FeatureLayout:
    """Active families plus the bucket boundaries shared by grid-style
    families.

    ``distance_boundaries`` are ascending token distances; a match at
    distance l falls into the bucket of the first boundary >= l, and
    anything beyond the last boundary clamps to it.  Bucket index is then
    flipped so that higher j means closer.  ``idf_fraction_boundaries``
    are ascending in (0, 1]; higher bucket i means rarer.
    """

    families: tuple[str, ...] = ("noprox", "rectangle", "pad")
    distance_boundaries: tuple[int, ...] = (2, 4, 8, 16, 32, 50)
    idf_fraction_boundaries: tuple[float, ...] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    )

    def __post_init__(self) -> None:
        if not self.families:
            raise FeatureError("layout with no active families")
        unknown = [f for f in self.families if f not in FAMILY_ORDER]
        if unknown:
            raise FeatureError(f"unknown feature families: {unknown}")
        if len(set(self.families)) != len(self.families):
            raise FeatureError("duplicate families in layout")
        if not self.distance_boundaries or any(
            b2 <= b1 for b1, b2 in zip(self.distance_boundaries, self.distance_boundaries[1:])
        ):
            raise FeatureError("distance boundaries must be non-empty and strictly ascending")
        if any(b < 1 for b in self.distance_boundaries):
            raise FeatureError("distance boundaries must be >= 1")
        fracs = self.idf_fraction_boundaries
        if not fracs or any(b2 <= b1 for b1, b2 in zip(fracs, fracs[1:])):
            raise FeatureError("IDF fraction boundaries must be non-empty and strictly ascending")
        if not all(0.0 < b <= 1.0 for b in fracs):  # false for NaN
            raise FeatureError(f"IDF fraction boundaries must lie in (0, 1], got {fracs}")

    # -- geometry --------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (len(self.idf_fraction_boundaries), len(self.distance_boundaries))

    def family_size(self, family: str) -> int:
        rows, cols = self.grid_shape
        return {
            "noprox": _NOPROX_SIZE,
            "idfupto": cols,
            "grid": rows * cols,
            "rectangle": rows * cols,
            "pad": 1,
        }[family]

    @cached_property
    def _offsets(self) -> dict[str, int]:
        # Each active family's first column, worked out once per layout:
        # document_scores looks offsets up once per document.
        offsets: dict[str, int] = {}
        offset = 0
        for f in FAMILY_ORDER:
            if f in self.families:
                offsets[f] = offset
                offset += self.family_size(f)
        return offsets

    def family_offset(self, family: str) -> int:
        if family not in self._offsets:
            raise FeatureError(f"family {family!r} not active in this layout")
        return self._offsets[family]

    @property
    def dimension(self) -> int:
        return sum(self.family_size(f) for f in FAMILY_ORDER if f in self.families)

    def has(self, family: str) -> bool:
        return family in self.families

    @property
    def needs_context(self) -> bool:
        return any(f in self.families for f in ("idfupto", "grid", "rectangle"))

    def cell_index(self, family: str, i: int, j: int) -> int:
        """Flat index of grid/rectangle cell (i, j): i rarity, j proximity."""
        rows, cols = self.grid_shape
        if family not in ("grid", "rectangle"):
            raise FeatureError(f"{family!r} has no cells")
        if not (0 <= i < rows and 0 <= j < cols):
            raise FeatureError(f"cell ({i}, {j}) outside {rows}x{cols} grid")
        return self.family_offset(family) + i * cols + j

    def buckets(
        self, fractions: Sequence[float], distances: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rarity and proximity coordinates (i, j) of each match, given its
        IDF fraction in (0, 1] and its token distance >= 1.  The first match
        out of range, in order, raises."""
        fraction = np.asarray(fractions, dtype=float)
        distance = np.asarray(distances)
        bad_fraction = ~((fraction > 0.0) & (fraction <= 1.0 + 1e-12))  # true for NaN
        bad = bad_fraction | (distance < 1)
        if bad.any():
            k = int(np.argmax(bad))
            if bad_fraction[k]:
                raise FeatureError(f"IDF fraction out of range: {fractions[k]}")
            raise FeatureError(f"distance must be >= 1, got {distances[k]}")
        rows, cols = self.grid_shape
        i = np.searchsorted(self.idf_fraction_boundaries, np.minimum(fraction, 1.0))
        np.minimum(i, rows - 1, out=i)
        # A distance beyond the last boundary clamps to the farthest bucket.
        j = np.searchsorted(self.distance_boundaries, distance)
        np.minimum(j, cols - 1, out=j)
        return i, cols - 1 - j

    def distance_bucket(self, distance: int) -> int:
        """Proximity coordinate j: larger means closer to the mention."""
        return int(self.buckets([1.0], [distance])[1][0])

    def idf_bucket(self, fraction: float) -> int:
        """Rarity coordinate i: larger means a rarer matched term."""
        return int(self.buckets([fraction], [1])[0][0])

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "families": list(self.families),
            "distance_boundaries": list(self.distance_boundaries),
            "idf_fraction_boundaries": list(self.idf_fraction_boundaries),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FeatureLayout":
        return cls(
            families=tuple(data["families"]),
            distance_boundaries=tuple(int(b) for b in data["distance_boundaries"]),
            idf_fraction_boundaries=tuple(float(b) for b in data["idf_fraction_boundaries"]),
        )


# -- whole-document scores ------------------------------------------------


def bm25_score(
    tokens: Sequence[str],
    query: Query,
    stats: CorpusStats,
    params: Bm25Params = Bm25Params(),
) -> float:
    """BM25 of a token sequence against the query.

    Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)),
    corpus-wide length normalization, and query-term multiplicity as a
    per-term multiplier.  Phrases count as single units with their own
    document frequency.
    """
    if stats.num_docs == 0:
        return 0.0
    terms = _QueryTerms(query, stats, params)
    return terms.bm25(len(tokens), terms.frequencies(tokens, Counter(tokens)))


def cosine_score(tokens: Sequence[str], query: Query, stats: CorpusStats) -> float:
    """TF-IDF cosine between the token sequence and the query.

    The document vector spans its own unigrams plus any query phrases;
    both sides weight tf by the corpus IDF (num_docs / df).
    """
    if stats.num_docs == 0:
        return 0.0
    state = TermState.of(tokens, stats)
    terms = _QueryTerms(query, stats)
    return terms.cosine(state, terms.frequencies(state.tokens, state.counts))


class _QueryTerms:
    """The query-level constants of whole-document BM25 and cosine.

    ``keys`` are the distinct token tuples of the query's terms, in
    first-occurrence order; a document's tf is counted once per key (each
    phrase scanned once).  BM25 keeps ``multiplicity * idf`` per distinct
    term text.  Cosine keeps one query weight per key: terms whose texts
    split into the same tokens share the first one's key and the last
    one's weight, as a dict keyed by token tuple would.
    """

    def __init__(
        self, query: Query, stats: CorpusStats, params: Bm25Params = Bm25Params()
    ) -> None:
        distinct = query.distinct_terms()
        multiplicity = query.multiplicity()
        position: dict[tuple[str, ...], int] = {}
        for term in distinct:
            position.setdefault(term.tokens, len(position))
        self.keys = list(position)
        n = stats.num_docs
        self.bm25_terms: list[tuple[int, float]] = []
        weights: dict[int, float] = {}
        idfs: dict[int, float] = {}
        for term in distinct:
            k = position[term.tokens]
            df = stats.doc_frequency(term.tokens)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            self.bm25_terms.append((k, multiplicity[term.text] * idf))
            idfs[k] = compute_idf(stats, term.text)
            weights[k] = multiplicity[term.text] * idfs[k]
        # Per key, in key order (the dicts were filled in that order).
        self.query_weights = list(weights.values())
        self.idfs = list(idfs.values())
        self.is_phrase = [len(key) > 1 for key in self.keys]
        self.query_norm = math.sqrt(sum(w * w for w in self.query_weights))
        self.k1, self.b = params.k1, params.b
        self.avg = stats.avg_doc_len or 1.0

    def frequencies(self, tokens: Sequence[str], counts: Mapping[str, int]) -> list[int]:
        """tf of each key in ``tokens``; a phrase is scanned once."""
        return [
            len(phrase_starts(tokens, key, range(len(tokens)))) if len(key) > 1 else counts[key[0]]
            for key in self.keys
        ]

    def bm25(self, dl: int, tfs: Sequence[int]) -> float:
        length_norm = self.k1 * (1.0 - self.b + self.b * dl / self.avg)
        score = 0.0
        for k, weight in self.bm25_terms:
            tf = tfs[k]
            if tf:
                score += weight * tf * (self.k1 + 1.0) / (tf + length_norm)
        return score

    def cosine(self, state: TermState, tfs: Sequence[int]) -> float:
        doc_weights = [tf * idf if tf else 0.0 for tf, idf in zip(tfs, self.idfs)]
        dot = sum(w * d for w, d in zip(self.query_weights, doc_weights))
        if dot == 0.0:
            return 0.0
        # The document norm adds the matched phrases after the unigrams, in one
        # sum, so its bits do not depend on whether the state was cached.
        phrases = [d * d for d, phrase in zip(doc_weights, self.is_phrase) if phrase and d]
        doc_norm = math.sqrt(sum(state.squares + phrases) if phrases else state.sum_squares)
        return dot / (doc_norm * self.query_norm)


def document_scores(
    document: Document,
    query: Query,
    stats: CorpusStats,
    layout: FeatureLayout,
    params: Bm25Params = Bm25Params(),
    terms: _QueryTerms | None = None,
) -> FeatureVector:
    """Whole-document features: BM25 and cosine (noprox) plus the pad.

    Both scores read the document's term state from ``stats``, which
    builds it on the first call for that document, and one tf per
    distinct query term: each phrase is scanned once per call.
    ``terms`` holds the query's constants for ``params``;
    :func:`context_matrix` builds them once for all its documents, and a
    call without them builds its own.
    """
    out: FeatureVector = {}
    if layout.has("noprox") and stats.num_docs:
        offset = layout.family_offset("noprox")
        if terms is None:
            terms = _QueryTerms(query, stats, params)
        state = stats.term_state(document)
        tfs = terms.frequencies(state.tokens, state.counts)
        bm25 = terms.bm25(len(state.tokens), tfs)
        cos = terms.cosine(state, tfs)
        if bm25:
            out[offset] = bm25
        if cos:
            out[offset + 1] = cos
    if layout.has("pad"):
        out[layout.family_offset("pad")] = 1.0
    return out


def _checked(rows: np.ndarray, query: Query, doc_ids: Sequence[str]) -> np.ndarray:
    """``rows`` itself, once every value is known to be finite and >= 0."""
    # A NaN makes the minimum NaN, so two reductions catch every bad value.
    if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=0.0) < math.inf):
        r, k = np.argwhere(~(np.isfinite(rows) & (rows >= 0.0)))[0]
        raise FeatureError(
            f"query {query.query_id!r}, document {doc_ids[r]!r}: "
            f"feature {k} has invalid value {rows[r, k]!r}"
        )
    return rows


# -- proximity families -----------------------------------------------------


def _proximity_rows(
    contexts: Sequence[Context], query: Query, stats: CorpusStats, layout: FeatureLayout
) -> np.ndarray:
    """The idfupto, grid and rectangle columns of every context, as one
    ``(len(contexts), layout.dimension)`` array; other columns are zero."""
    n = len(contexts)
    out = np.zeros((n, layout.dimension))
    if n == 0 or not layout.needs_context:
        return out
    total_idf = compute_idf(stats, query)
    fraction: dict[str, float] = {}
    owner: list[int] = []
    shares: list[float] = []
    distances: list[int] = []
    for c, ctx in enumerate(contexts):
        for text, distance in ctx.matches.items():
            if text not in fraction:
                fraction[text] = compute_idf(stats, text) / total_idf
            owner.append(c)
            shares.append(fraction[text])
            distances.append(distance)
    rows, cols = layout.grid_shape
    i, j = layout.buckets(shares, distances)
    cells = (np.array(owner, dtype=np.intp) * rows + i) * cols + j
    grid = np.bincount(cells, minlength=n * rows * cols).reshape(n, rows, cols).astype(float)
    # A rectangle cell counts the matches at least as rare and at least as
    # close as itself: a suffix sum over both grid axes.
    rectangle = grid[:, ::-1, ::-1].cumsum(axis=1).cumsum(axis=2)[:, ::-1, ::-1]
    for family, block in (("grid", grid), ("rectangle", rectangle)):
        if layout.has(family):
            start = layout.family_offset(family)
            out[:, start : start + layout.family_size(family)] = block.reshape(n, -1)
    if layout.has("idfupto"):
        # Python's sum in match order, so the shares add up as they always have.
        start = layout.family_offset("idfupto")
        for c, ctx in enumerate(contexts):
            for b, bound in enumerate(layout.distance_boundaries):
                out[c, start + b] = sum(fraction[t] for t, d in ctx.matches.items() if d <= bound)
    return out


def rectangle_features(
    context: Context, query: Query, stats: CorpusStats, layout: FeatureLayout
) -> FeatureVector:
    """Cumulative histogram: a match at (i, j) fires all cells (i', j')
    with i' <= i and j' <= j, one count each, additive across matches."""
    start = layout.family_offset("rectangle")
    row = _proximity_rows([context], query, stats, layout)[0]
    block = row[start : start + layout.family_size("rectangle")]
    return {start + int(k): float(block[k]) for k in np.flatnonzero(block)}


def to_dense(vector: Mapping[int, float], dimension: int) -> np.ndarray:
    out = np.zeros(dimension, dtype=float)
    for idx, value in vector.items():
        out[idx] = value
    return out


def context_matrix(
    index: CorpusIndex,
    query: Query,
    contexts: Iterable[Context],
    layout: FeatureLayout,
    params: Bm25Params = Bm25Params(),
) -> np.ndarray:
    """Feature rows of any contexts, one entity's or many, as an (n, M) array.
    Whole-document scores are computed once per distinct document, and
    ``prepare_queries`` passes a whole query's contexts in one call; the
    query's constants are built once per call."""
    contexts = list(contexts)
    rows = _proximity_rows(contexts, query, index.stats, layout)
    if not contexts:
        return rows
    lexical = layout.has("noprox") and index.stats.num_docs
    terms = _QueryTerms(query, index.stats, params) if lexical else None
    doc_ids = [ctx.doc_id for ctx in contexts]
    position = {doc_id: k for k, doc_id in enumerate(dict.fromkeys(doc_ids))}
    doc_rows = np.zeros((len(position), rows.shape[1]))
    for doc_id, k in position.items():
        scores = document_scores(
            index.documents[doc_id], query, index.stats, layout, params, terms
        )
        for column, value in scores.items():
            doc_rows[k, column] = value
    rows += doc_rows[[position[doc_id] for doc_id in doc_ids]]
    return _checked(rows, query, doc_ids)
