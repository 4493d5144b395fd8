"""Corpus model: annotated documents, term statistics, candidate retrieval.

Documents arrive pre-tokenized, with entity mentions annotated as token
spans.  Ingestion lowercases tokens and builds a positional inverted
index so retrieval can measure how far each query-term occurrence sits
from an entity mention.  All distances are token counts, measured from
the nearest edge of the mention span, floored at 1.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BEST_PER_DOCUMENT",
    "CandidateSet",
    "Context",
    "CorpusError",
    "CorpusIndex",
    "CorpusStats",
    "Document",
    "Judgments",
    "Mention",
    "MentionGeometry",
    "PER_MENTION",
    "Postings",
    "Query",
    "QueryTerm",
    "RetrievalConfig",
    "TermPostings",
    "TermState",
    "compute_idf",
    "extract_context",
    "find_candidates",
    "ingest_corpus",
    "load_corpus",
    "matched_idf_fraction",
    "phrase_starts",
    "read_catalog",
    "read_qrels",
    "read_queries",
    "write_corpus",
    "write_qrels",
    "write_queries",
]

PER_MENTION = "per-mention"
BEST_PER_DOCUMENT = "best-per-document"


class CorpusError(ValueError):
    """Malformed corpus, query, or judgment input."""


@dataclass(frozen=True)
class Mention:
    """Entity mention as a half-open token span [start, end) of a document."""

    entity_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise CorpusError("mention with empty entity_id")
        if self.start < 0 or self.end <= self.start:
            raise CorpusError(
                f"bad mention span [{self.start}, {self.end}) for {self.entity_id!r}"
            )


@dataclass
class Document:
    doc_id: str
    tokens: tuple[str, ...]
    mentions: tuple[Mention, ...] = ()

    def __post_init__(self) -> None:
        self.tokens = tuple(self.tokens)
        self.mentions = tuple(self.mentions)

    def validate(self) -> None:
        if not self.doc_id:
            raise CorpusError("document with empty doc_id")
        for m in self.mentions:
            if m.end > len(self.tokens):
                raise CorpusError(
                    f"doc {self.doc_id!r}: mention [{m.start}, {m.end}) "
                    f"exceeds document length {len(self.tokens)}"
                )


@dataclass(frozen=True)
class QueryTerm:
    """One query term; a text containing spaces is a phrase matched as a
    consecutive token sequence."""

    text: str
    required: bool = False

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise CorpusError("query term with empty text")

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        # Kept in the instance dict, outside the fields that equality,
        # hashing and the query files see.
        return tuple(self.text.split())

    @property
    def is_phrase(self) -> bool:
        return len(self.tokens) > 1


@dataclass
class Query:
    query_id: str
    terms: list[QueryTerm]
    target_type: str | None = None

    def __post_init__(self) -> None:
        if not self.query_id:
            raise CorpusError("query with empty query_id")
        if not self.terms:
            raise CorpusError(f"query {self.query_id!r} has no terms")

    def distinct_terms(self) -> list[QueryTerm]:
        """Unique terms by text, in first-occurrence order."""
        seen: dict[str, QueryTerm] = {}
        for t in self.terms:
            seen.setdefault(t.text, t)
        return list(seen.values())

    def multiplicity(self) -> dict[str, int]:
        """Number of times each term text occurs in the query."""
        counts: dict[str, int] = {}
        for t in self.terms:
            counts[t.text] = counts.get(t.text, 0) + 1
        return counts


@dataclass
class Judgments:
    """Per-query judged-good and judged-bad entity sets."""

    good: dict[str, frozenset[str]] = field(default_factory=dict)
    bad: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qid in set(self.good) & set(self.bad):
            overlap = self.good[qid] & self.bad[qid]
            if overlap:
                raise CorpusError(
                    f"query {qid!r}: entities judged both good and bad: {sorted(overlap)}"
                )

    def good_for(self, query_id: str) -> frozenset[str]:
        return self.good.get(query_id, frozenset())

    def bad_for(self, query_id: str) -> frozenset[str]:
        return self.bad.get(query_id, frozenset())

    def query_ids(self) -> list[str]:
        return sorted(set(self.good) | set(self.bad))


@dataclass(frozen=True)
class TermState:
    """The query-independent term statistics of one token sequence.

    ``squares`` holds each distinct token's squared TF-IDF weight
    (tf times :func:`compute_idf`, squared) in ``counts`` order and
    ``sum_squares`` their sum, the squared unigram norm of whole-document
    cosine.
    """

    tokens: tuple[str, ...]
    counts: Counter[str]
    squares: list[float]
    sum_squares: float

    @classmethod
    def of(cls, tokens: Sequence[str], stats: "CorpusStats") -> "TermState":
        counts = Counter(tokens)
        weights = [tf * compute_idf(stats, tok) for tok, tf in counts.items()]
        squares = [w * w for w in weights]
        return cls(tuple(tokens), counts, squares, sum(squares))


@dataclass(frozen=True)
class MentionGeometry:
    """A document's mentions by start, for finding the mentions that a
    query-term occurrence can reach.

    ``starts`` holds the mention starts in ascending order, ``order`` the
    index in ``mentions`` of each, and ``reach`` the widest span.
    """

    mentions: tuple[Mention, ...]
    starts: list[int]
    order: list[int]
    reach: int

    @classmethod
    def of(cls, mentions: Sequence[Mention]) -> "MentionGeometry":
        starts = [m.start for m in mentions]
        order = sorted(range(len(starts)), key=starts.__getitem__)
        reach = max((m.end - m.start for m in mentions), default=0)
        return cls(tuple(mentions), [starts[i] for i in order], order, reach)

    def reachable(
        self, occurrences: Iterable[tuple[int, Sequence[int]]], window: int
    ) -> list[Mention]:
        """Every mention within ``window`` of some occurrence (and perhaps a
        few more), each once, in document order.

        An occurrence [p, p + length) lies within the window of mention
        [start, end) when start <= p + length - 1 + window and
        end >= p - window + 1.  No span is wider than ``reach``, so such a
        mention starts in [p - window + 1 - reach, p + length - 1 + window]:
        a range of the sorted starts.  The result is the union of those
        ranges; a term's occurrences ascend, so each of its ranges starts
        where the last one ended.
        """
        starts, order = self.starts, self.order
        reached: set[int] = set()
        for length, positions in occurrences:
            top = 0
            for p in positions:
                lo = max(bisect_left(starts, p - window + 1 - self.reach), top)
                hi = bisect_right(starts, p + length - 1 + window)
                if lo < hi:
                    reached.update(order[lo:hi])
                    top = hi
        return [self.mentions[i] for i in sorted(reached)]


@dataclass
class CorpusStats:
    """Collection-level term statistics.

    ``df``/``cf`` cover single tokens; phrase statistics are filled on
    demand by :meth:`CorpusIndex.phrase_df` and cached here, keyed by the
    token tuple.  Per-document :class:`TermState` is filled on demand by
    :meth:`term_state` and cached here, keyed by doc id.
    """

    num_docs: int
    df: dict[str, int]
    cf: dict[str, int]
    collection_len: int
    doc_len: dict[str, int]
    phrase_df: dict[tuple[str, ...], int] = field(default_factory=dict)
    term_states: dict[str, TermState] = field(default_factory=dict, repr=False, compare=False)

    @property
    def avg_doc_len(self) -> float:
        return self.collection_len / self.num_docs if self.num_docs else 0.0

    def doc_frequency(self, tokens: Sequence[str]) -> int:
        """Documents containing the token or phrase; a phrase must be cached."""
        key = tuple(tokens)
        if len(key) == 1:
            return self.df.get(key[0], 0)
        if key not in self.phrase_df:
            raise CorpusError(
                f"phrase {' '.join(key)!r} has no cached statistics; "
                "resolve it through CorpusIndex.phrase_df first"
            )
        return self.phrase_df[key]

    def term_state(self, document: Document) -> TermState:
        """The document's term state, built on first use and kept.

        A kept state serves only the very token tuple it was built from,
        so another document under the same id gets (and keeps) its own.
        """
        state = self.term_states.get(document.doc_id)
        if state is None or state.tokens is not document.tokens:
            state = self.term_states[document.doc_id] = TermState.of(document.tokens, self)
        return state


@dataclass
class Context:
    """One supporting context: an entity mention with query terms nearby.

    ``matches`` maps each matched query-term text to its distance, the
    minimum over in-window occurrences of the token gap between the
    occurrence and the nearest mention-span edge (floored at 1).
    ``window`` is the half-open token range the context covers.
    ``starts`` maps each query token to its starts in each document that
    :func:`find_candidates` read, by doc id, so that scoring the context
    (the language-model baselines) need not read the postings again.
    The contexts of one retrieval share it; it takes no part in equality.
    """

    doc_id: str
    entity_id: str
    mention_offset: int
    window: tuple[int, int]
    matches: dict[str, int]
    starts: Mapping[str, Mapping[str, Sequence[int]]] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass
class CandidateSet:
    """Candidate entities for one query with their supporting contexts."""

    query_id: str
    support: dict[str, list[Context]]


@dataclass
class RetrievalConfig:
    window: int = 50
    granularity: str = PER_MENTION

    def __post_init__(self) -> None:
        if self.window < 1:
            raise CorpusError(f"window radius must be >= 1, got {self.window}")
        if self.granularity not in (PER_MENTION, BEST_PER_DOCUMENT):
            raise CorpusError(f"unknown granularity {self.granularity!r}")


@dataclass(frozen=True, eq=False)
class Postings:
    """A corpus's positional postings as compressed sparse rows.

    The documents' tokens, in ingest order, form one stream: document k
    (``doc_ids[k]``) covers stream offsets [doc_starts[k], doc_starts[k+1]).
    Token id t (``tokens[text]``, numbered in first-occurrence order)
    occurs at the stream offsets positions[offsets[t]:offsets[t+1]], in
    ascending order.  ``doc_starts``, ``offsets`` and ``positions`` are
    int32 arrays, so a stream holds at most 2**31 - 1 tokens.
    """

    tokens: dict[str, int]
    doc_ids: tuple[str, ...]
    doc_starts: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray

    @cached_property
    def numbers(self) -> dict[str, int]:
        """Each doc id's document number k."""
        return {doc_id: k for k, doc_id in enumerate(self.doc_ids)}

    @cached_property
    def bounds(self) -> list[int]:
        """``doc_starts`` as a list, for scalar reads."""
        return self.doc_starts.tolist()

    def term(self, text: str) -> "TermPostings":
        """The postings of one token; an unknown token has none."""
        t = self.tokens.get(text)
        if t is None:
            return TermPostings(self, self.positions[:0])
        return TermPostings(self, self.positions[self.offsets[t] : self.offsets[t + 1]])


def _among(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """A mask of the ``values`` that occur in ``keys`` (ascending)."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    at = np.searchsorted(keys, values)
    np.minimum(at, len(keys) - 1, out=at)
    return keys[at] == values


class TermPostings:
    """One term's occurrences: ``stream`` holds its start offsets in the
    corpus stream, ascending.  A document's starts are counted from its
    first token, ascending; every reader groups them with :meth:`starts_in`.
    """

    def __init__(self, postings: Postings, stream: np.ndarray) -> None:
        self.postings = postings
        self.stream = stream

    @cached_property
    def documents(self) -> np.ndarray:
        """The document number of each start, ascending."""
        return np.searchsorted(self.postings.doc_starts[1:], self.stream, side="right")

    def starts_in(self, numbers: np.ndarray | None = None) -> dict[int, list[int]]:
        """The term's starts in each document that holds it, by document
        number, ascending: in the documents numbered ``numbers`` (an
        ascending array), or in every document when None.

        A few array operations pick the documents' starts out of
        ``stream``, so the Python work grows with the starts returned.
        """
        documents, stream = self.documents, self.stream
        if numbers is not None:
            held = _among(documents, numbers)
            documents, stream = documents[held], stream[held]
        bounds = self.postings.bounds
        found: dict[int, list[int]] = {}
        for k, p in zip(documents.tolist(), stream.tolist()):
            found.setdefault(k, []).append(p - bounds[k])
        return found

    def starts(self, doc_id: str) -> list[int]:
        """The term's starts in one document (none for an unknown doc id)."""
        k = self.postings.numbers.get(doc_id)
        return [] if k is None else self.starts_in(np.array([k])).get(k, [])

    def grouped(self) -> dict[str, list[int]]:
        """The starts of every document holding the term, in ingest order."""
        doc_ids = self.postings.doc_ids
        return {doc_ids[k]: found for k, found in self.starts_in().items()}


class CorpusIndex:
    """Positional inverted index over an ingested corpus.

    ``postings`` is a :class:`Postings`: a few int32 arrays over the
    concatenated token stream.  Readers get a term's occurrences from
    :meth:`term_postings`.  As :func:`ingest_corpus` builds it, every
    token text is one ``str`` shared by every document that holds it.
    On the benchmark's baseline-read corpus (656 documents with 6,176
    mentions, 768k tokens, 3,016 distinct) the postings take 3.1 MB and
    a load raises RSS by about 19 MB, against 27 MB with a tuple of
    shared ints per (token, document).  The cyclic garbage collector
    tracks about 7.1k objects of a loaded index (its documents, mentions
    and mention tuples) and runs 11 times during the load, in 8 ms,
    against 524 times in 120 ms with those 215k tuples.

    Immutable after construction apart from three caches, each filled on
    first use: phrase statistics (:meth:`phrase_df`), never changed after,
    and two per-document caches, rebuilt only for a document whose tokens
    or mentions were replaced:
    term state (:meth:`CorpusStats.term_state`, built on a document's
    first whole-document scoring, not at ingest) and mention geometry
    (:meth:`mention_geometry`, built on a document's first retrieval).
    Postings and starts come from ingest, whatever a document's tokens
    are replaced by.  Concurrent readers are safe.
    """

    def __init__(
        self,
        documents: dict[str, Document],
        postings: Postings,
        stats: CorpusStats,
        entity_types: dict[str, frozenset[str]],
    ) -> None:
        self.documents = documents
        self.postings = postings
        self.stats = stats
        self.entity_types = entity_types
        self._geometry: dict[str, MentionGeometry] = {}

    # -- statistics ----------------------------------------------------

    def phrase_df(self, tokens: Sequence[str]) -> int:
        """Document frequency of a consecutive token sequence, cached."""
        key = tuple(tokens)
        if not key:
            return 0
        if len(key) > 1 and key not in self.stats.phrase_df:
            self.term_postings(key)  # caches the phrase's document frequency
        return self.stats.doc_frequency(key)

    def mention_geometry(self, document: Document) -> MentionGeometry:
        """The document's mention geometry, built on first use and kept.

        A kept geometry serves only the very mention tuple it was built
        from, so a document whose mentions are replaced gets a new one.
        """
        geometry = self._geometry.get(document.doc_id)
        if geometry is None or geometry.mentions is not document.mentions:
            geometry = self._geometry[document.doc_id] = MentionGeometry.of(document.mentions)
        return geometry

    @cached_property
    def _numbered(self) -> list[Document]:
        # The documents by document number (see Postings).
        return [self.documents[doc_id] for doc_id in self.postings.doc_ids]

    # -- occurrence lookup ---------------------------------------------

    def term_postings(self, term_tokens: Sequence[str]) -> TermPostings:
        """The occurrences of a term (or phrase).

        A token's are a slice of the postings.  A phrase is checked once
        at each posting of its first token, on every call, and its
        document frequency is cached on the way.
        """
        if len(term_tokens) == 1:
            return self.postings.term(term_tokens[0])
        key = tuple(term_tokens)
        if not key:
            return TermPostings(self.postings, self.postings.positions[:0])
        documents, bounds = self._numbered, self.postings.bounds
        stream: list[int] = []
        holding = 0
        for k, candidates in self.postings.term(key[0]).starts_in().items():
            starts = phrase_starts(documents[k].tokens, key, candidates)
            holding += bool(starts)
            stream += [bounds[k] + p for p in starts]
        self.stats.phrase_df.setdefault(key, holding)
        return TermPostings(self.postings, np.array(stream, dtype=np.int32))

    def occurrences(self, doc_id: str, term_tokens: Sequence[str]) -> list[int]:
        """Start positions of the term (or phrase) in the document."""
        if not term_tokens:
            return []
        first = self.postings.term(term_tokens[0]).starts(doc_id)
        if len(term_tokens) == 1:  # a token's postings are its starts
            return first
        return phrase_starts(self.documents[doc_id].tokens, term_tokens, first)

    def term_starts(self, term_tokens: Sequence[str]) -> Mapping[str, Sequence[int]]:
        """Start positions of the term (or phrase) in each document holding it,
        in ingest order (see :meth:`term_postings`)."""
        return self.term_postings(term_tokens).grouped()


def ingest_corpus(
    records: Iterable[Mapping | str | bytes],
    catalog: Iterable[Mapping | str | bytes] | None = None,
) -> CorpusIndex:
    """Build a :class:`CorpusIndex` from document records.

    ``records`` yields either parsed mappings or raw JSON lines of the form
    ``{"doc_id": ..., "tokens": [...], "mentions": [{"entity_id", "start",
    "end"}, ...]}``.  Tokens are lowercased; an empty token or one holding
    whitespace makes the record malformed.  Malformed records, duplicate
    doc_ids, and out-of-bounds mention spans are rejected with the
    offending record number.  Ingestion is idempotent: the same input
    always yields an identical index.

    Each raw token is lowercased once, at its first occurrence, and mapped
    to a token id; every document's tokens are then one shared ``str`` per
    text.  The postings come from one sort of the stream's (token id,
    position) pairs, and ``df``/``cf`` from ``np.bincount``, so the work
    per token is two dict lookups and array passes (see :class:`Postings`
    and :class:`CorpusIndex` for the sizes).
    """
    documents: dict[str, Document] = {}
    vocabulary = _Vocabulary()
    stream: list[int] = []  # every document's token ids, in ingest order

    for lineno, rec in enumerate(records, 1):
        rec = _parse_record(rec, lineno)
        if rec is None:
            continue
        known = len(vocabulary.texts)
        try:
            doc, token_ids = _document_from_record(rec, vocabulary)
        except CorpusError as exc:
            raise CorpusError(f"record {lineno}: {exc}") from None
        if doc.doc_id in documents:
            raise CorpusError(f"record {lineno}: duplicate doc_id {doc.doc_id!r}")
        # Each distinct text is checked once, in the record that first holds it.
        bad = [t for t in vocabulary.texts[known:] if t.split() != [t]]
        if bad:
            k = min(doc.tokens.index(t) for t in bad)
            raise CorpusError(
                f"record {lineno}: doc {doc.doc_id!r}: token {k} is empty or contains "
                f"whitespace: {doc.tokens[k]!r}"
            )
        documents[doc.doc_id] = doc
        stream += token_ids

    if len(stream) > np.iinfo(np.int32).max:
        raise CorpusError(f"corpus of {len(stream)} tokens exceeds the int32 postings")
    token_ids = np.fromiter(stream, dtype=np.int32, count=len(stream))
    del stream
    lengths = [len(doc.tokens) for doc in documents.values()]
    doc_starts = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=doc_starts[1:])
    texts = vocabulary.texts
    postings, df, cf = _postings(token_ids, vocabulary.ids, tuple(documents), doc_starts)
    stats = CorpusStats(
        num_docs=len(documents),
        df=dict(zip(texts, df.tolist())),
        cf=dict(zip(texts, cf.tolist())),
        collection_len=len(token_ids),
        doc_len=dict(zip(documents, lengths)),
    )
    entity_types: dict[str, frozenset[str]] = {}
    if catalog is not None:
        entity_types = _parse_catalog(catalog)
    return CorpusIndex(documents, postings, stats, entity_types)


def _postings(
    token_ids: np.ndarray, tokens: dict[str, int], doc_ids: tuple[str, ...], doc_starts: np.ndarray
) -> tuple[Postings, np.ndarray, np.ndarray]:
    # The postings, then each token's document and collection frequency.
    cf = np.bincount(token_ids, minlength=len(tokens))
    offsets = np.zeros(len(tokens) + 1, dtype=np.int32)
    np.cumsum(cf, out=offsets[1:])
    # Sorting (token id, position) pairs, packed into one int64 each,
    # groups the positions by token, ascending within each.
    pairs = token_ids.astype(np.int64) << 32
    pairs += np.arange(len(token_ids), dtype=np.int32)
    pairs.sort()
    positions = pairs.astype(np.int32)  # the low half
    del pairs
    # A posting opens a (token, document) pair when it is its token's first
    # or lies in another document than the posting before it.
    docs = np.repeat(np.arange(len(doc_ids), dtype=np.int32), np.diff(doc_starts))[positions]
    opens = np.ones(len(positions), dtype=bool)
    np.not_equal(docs[1:], docs[:-1], out=opens[1:])
    del docs
    opens[offsets[:-1][cf > 0]] = True
    df = np.bincount(token_ids[positions[opens]], minlength=len(tokens))
    return Postings(tokens, doc_ids, doc_starts, offsets, positions), df, cf


@dataclass
class _Vocabulary:
    """Token ids for raw tokens.  A raw token is lowercased once, at its
    first occurrence, and each lowercased text is numbered in order of
    first occurrence and kept as the one copy that documents share."""

    ids: dict[str, int] = field(default_factory=dict)  # text -> token id
    texts: list[str] = field(default_factory=list)  # token id -> text
    raw: dict[str, int] = field(default_factory=dict)  # raw token -> token id

    def encode(self, doc_id: str, tokens: list) -> list[int]:
        try:
            return list(map(self.raw.__getitem__, tokens))
        except (KeyError, TypeError):  # an unseen token, or not a string
            pass
        for tok in tokens:
            if not isinstance(tok, str):
                raise CorpusError(f"doc {doc_id!r}: tokens must be a list of strings")
            if tok not in self.raw:
                text = tok.lower()
                t = self.raw[tok] = self.ids.setdefault(text, len(self.texts))
                if t == len(self.texts):
                    self.texts.append(text)
        return list(map(self.raw.__getitem__, tokens))


def _parse_record(rec: Mapping | str | bytes, lineno: int) -> Mapping | None:
    if isinstance(rec, (str, bytes)):
        text = rec.decode("utf-8") if isinstance(rec, bytes) else rec
        if not text.strip():
            return None
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"record {lineno}: invalid JSON: {exc}") from None
    if not isinstance(rec, Mapping):
        raise CorpusError(f"record {lineno}: expected a JSON object")
    return rec


def _document_from_record(rec: Mapping, vocabulary: _Vocabulary) -> tuple[Document, list[int]]:
    doc_id = rec.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError("missing or invalid doc_id")
    tokens = rec.get("tokens")
    if not isinstance(tokens, list):
        raise CorpusError(f"doc {doc_id!r}: tokens must be a list of strings")
    token_ids = vocabulary.encode(doc_id, tokens)
    mentions = []
    for m in rec.get("mentions", []):
        if not isinstance(m, Mapping):
            raise CorpusError(f"doc {doc_id!r}: mention must be an object")
        try:
            mention = Mention(
                entity_id=str(m["entity_id"]), start=int(m["start"]), end=int(m["end"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"doc {doc_id!r}: bad mention record: {exc}") from None
        mentions.append(mention)
    tokens = tuple(map(vocabulary.texts.__getitem__, token_ids))
    doc = Document(doc_id=doc_id, tokens=tokens, mentions=mentions)
    doc.validate()
    return doc, token_ids


def _parse_catalog(catalog: Iterable[Mapping | str | bytes]) -> dict[str, frozenset[str]]:
    types: dict[str, set[str]] = defaultdict(set)
    for lineno, rec in enumerate(catalog, 1):
        rec = _parse_record(rec, lineno)
        if rec is None:
            continue
        eid = rec.get("entity_id")
        if not isinstance(eid, str) or not eid:
            raise CorpusError(f"catalog record {lineno}: missing entity_id")
        listed = rec.get("types", [])
        if not isinstance(listed, list):
            raise CorpusError(f"catalog record {lineno}: types must be a list")
        types[eid].update(str(t) for t in listed)
    return {e: frozenset(ts) for e, ts in types.items()}


def compute_idf(stats: CorpusStats, term_or_query: str | Query) -> float:
    """Inverse document fraction: num_docs / df.

    For a :class:`Query`, sums the IDF of its distinct terms.  Unseen
    terms get df 1, i.e. IDF equal to the number of documents.  Phrase
    statistics must already be cached (see :meth:`CorpusIndex.phrase_df`).
    """
    if stats.num_docs == 0:
        raise CorpusError("IDF undefined for an empty corpus")
    if isinstance(term_or_query, Query):
        return float(sum(compute_idf(stats, t.text) for t in term_or_query.distinct_terms()))
    tokens = term_or_query.split()
    if not tokens:
        raise CorpusError("IDF of empty term")
    return stats.num_docs / max(stats.doc_frequency(tokens), 1)


# -- context extraction ------------------------------------------------


def phrase_starts(
    tokens: Sequence[str], phrase: Sequence[str], candidates: Iterable[int]
) -> list[int]:
    """The candidate positions at which ``phrase`` starts in ``tokens``.

    This is the one phrase scanner: retrieval passes the postings of the
    phrase's first token as candidates, whole-sequence counts pass every
    position.  A single token is a phrase of length one.
    """
    key = tuple(phrase)
    return [p for p in candidates if tuple(tokens[p : p + len(key)]) == key]


def _context_from_occurrences(
    document: Document,
    mention: Mention,
    occurrences: Mapping[str, tuple[int, Sequence[int]]],
    window: int,
    starts: Mapping[str, Mapping[str, Sequence[int]]] | None = None,
) -> Context | None:
    # Distances are token gaps between an occurrence [p, p + length) and
    # the mention [start, end), edge to edge, with overlap floored at 1.
    # Positions are sorted: those before k end before the mention, at a
    # distance that falls towards k, and from k on the distance rises, so
    # the nearest is positions[k - 1] or positions[k].
    start, end = mention.start, mention.end
    matches: dict[str, int] = {}
    for text, (length, positions) in occurrences.items():
        k = bisect_left(positions, start - length + 1)
        best = start - (positions[k - 1] + length - 1) if k else window + 1
        if k < len(positions):
            best = min(best, max(positions[k] - (end - 1), 1))
        if best <= window:
            matches[text] = best
    if not matches:
        return None
    lo = max(0, mention.start - window)
    hi = min(len(document.tokens), mention.end + window)
    offset = (mention.start + mention.end - 1) // 2
    return Context(
        doc_id=document.doc_id,
        entity_id=mention.entity_id,
        mention_offset=offset,
        window=(lo, hi),
        matches=matches,
        starts={} if starts is None else starts,
    )


def extract_context(
    document: Document, mention: Mention, query: Query, window: int = 50
) -> Context | None:
    """Context around one mention, or None when no query term is in range."""
    if window < 1:
        raise CorpusError(f"window radius must be >= 1, got {window}")
    if mention.end > len(document.tokens):
        raise CorpusError(
            f"doc {document.doc_id!r}: mention [{mention.start}, {mention.end}) out of bounds"
        )
    everywhere = range(len(document.tokens))
    occurrences = {
        t.text: (len(t.tokens), phrase_starts(document.tokens, t.tokens, everywhere))
        for t in query.distinct_terms()
    }
    return _context_from_occurrences(document, mention, occurrences, window)


def matched_idf_fraction(stats: CorpusStats, query: Query, context: Context) -> float:
    """Share of the query's total IDF carried by the context's matches."""
    total = compute_idf(stats, query)
    got = sum(compute_idf(stats, text) for text in context.matches)
    return got / total


def find_candidates(
    index: CorpusIndex, query: Query, config: RetrievalConfig | None = None
) -> CandidateSet:
    """Candidate entities with their supporting contexts.

    An entity qualifies when at least one of its mentions has a query
    term within the window, every required term occurs somewhere in the
    same document, and (given a target type and a catalog) the entity
    carries the query's target type.  Output is independent of document
    processing order.

    Reads come from the postings arrays, not from document scans: each
    term's documents are found by one search (a phrase is checked token
    by token once per posting of its first token, see
    :meth:`CorpusIndex.term_postings`), documents without mentions are
    dropped before any per-document work, and the starts in the others
    are read with one :meth:`TermPostings.starts_in` per query token and
    phrase.  Every context carries that read (:attr:`Context.starts`).
    Only the mentions some occurrence can reach are visited (found in
    the document's :class:`MentionGeometry`, built once per document),
    and each term's nearest occurrence is found by bisection.
    """
    config = config or RetrievalConfig()
    terms = query.distinct_terms()

    # One phrase check per posting of its first token; this also caches
    # the phrase statistics that IDF reads.
    postings = [index.term_postings(t.tokens) for t in terms]
    # The documents that hold every required term, or some term when none
    # is required, ascending.
    required = [p.documents for t, p in zip(terms, postings) if t.required]
    hit = np.concatenate(required[:1] or [p.documents for p in postings])
    hit.sort()
    fresh = np.ones(len(hit), dtype=bool)
    np.not_equal(hit[1:], hit[:-1], out=fresh[1:])
    hit = hit[fresh]
    for holding in required[1:]:
        hit = hit[_among(hit, holding)]
    # A document without mentions holds no context, so only the others'
    # starts are read.  Mentions may be replaced after ingest, so this
    # reads each candidate's own.
    documents = index._numbered
    mentioned = [k for k in hit.tolist() if documents[k].mentions]
    numbers = np.array(mentioned, dtype=np.intp)
    found = [p.starts_in(numbers) for p in postings]
    lengths = [len(t.tokens) for t in terms]
    texts = [t.text for t in terms]
    # Each query token's starts by doc id, handed over with the contexts;
    # a token that is no term of its own (a phrase's) is read here.
    by_token = {text: f for text, n, f in zip(texts, lengths, found) if n == 1}
    for t in terms:
        for tok in t.tokens:
            if tok not in by_token:
                by_token[tok] = index.postings.term(tok).starts_in(numbers)
    doc_ids = index.postings.doc_ids
    read = {tok: {doc_ids[k]: s for k, s in f.items()} for tok, f in by_token.items()}

    check_type = bool(query.target_type) and bool(index.entity_types)
    support: dict[str, list[Context]] = defaultdict(list)
    for k in mentioned:
        doc = documents[k]
        occurrences = {text: (n, f.get(k, ())) for text, n, f in zip(texts, lengths, found)}
        here: list[Context] = []
        for mention in index.mention_geometry(doc).reachable(occurrences.values(), config.window):
            if check_type and query.target_type not in index.entity_types.get(
                mention.entity_id, frozenset()
            ):
                continue
            ctx = _context_from_occurrences(doc, mention, occurrences, config.window, read)
            if ctx is not None:
                here.append(ctx)
        if config.granularity == BEST_PER_DOCUMENT:
            here = _best_per_entity(index.stats, query, here)
        for ctx in here:
            support[ctx.entity_id].append(ctx)

    for contexts in support.values():
        contexts.sort(key=lambda c: (c.doc_id, c.mention_offset))
    return CandidateSet(query_id=query.query_id, support=dict(sorted(support.items())))


def _best_per_entity(stats: CorpusStats, query: Query, contexts: list[Context]) -> list[Context]:
    # Static selection: keep, per entity, the mention with the highest
    # matched-IDF fraction; ties fall to smaller total distance, then to
    # the earlier mention offset.
    best: dict[str, tuple[tuple[float, int, int], Context]] = {}
    for ctx in contexts:
        key = (
            -matched_idf_fraction(stats, query, ctx),
            sum(ctx.matches.values()),
            ctx.mention_offset,
        )
        kept = best.get(ctx.entity_id)
        if kept is None or key < kept[0]:
            best[ctx.entity_id] = (key, ctx)
    return [pair[1] for _, pair in sorted(best.items())]


# -- file formats --------------------------------------------------------


def load_corpus(path: str, catalog_path: str | None = None) -> CorpusIndex:
    with open(path, "r", encoding="utf-8") as fh:
        if catalog_path is None:
            return ingest_corpus(fh)
        with open(catalog_path, "r", encoding="utf-8") as cat:
            return ingest_corpus(fh, catalog=cat)


def write_corpus(documents: Iterable[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in documents:
            rec = {
                "doc_id": doc.doc_id,
                "tokens": doc.tokens,
                "mentions": [
                    {"entity_id": m.entity_id, "start": m.start, "end": m.end}
                    for m in doc.mentions
                ],
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_queries(path: str) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            rec = _parse_record(line, lineno)
            if rec is None:
                continue
            qid = rec.get("query_id")
            if not isinstance(qid, str) or not qid:
                raise CorpusError(f"query record {lineno}: missing query_id")
            if qid in seen:
                raise CorpusError(f"query record {lineno}: duplicate query_id {qid!r}")
            seen.add(qid)
            raw_terms = rec.get("terms")
            if not isinstance(raw_terms, list) or not raw_terms:
                raise CorpusError(f"query record {lineno}: terms must be a non-empty list")
            terms = []
            for t in raw_terms:
                if not isinstance(t, Mapping) or "text" not in t:
                    raise CorpusError(f"query record {lineno}: bad term entry")
                required = t.get("required", False)
                if not isinstance(required, bool):
                    raise CorpusError(
                        f"query record {lineno}: query {qid!r}: a term's required must be "
                        f"true or false, got {required!r}"
                    )
                terms.append(QueryTerm(text=str(t["text"]).lower(), required=required))
            target = rec.get("target_type")
            if target is not None and not isinstance(target, str):
                raise CorpusError(
                    f"query record {lineno}: query {qid!r}: target_type must be a string "
                    f"or null, got {target!r}"
                )
            queries.append(Query(query_id=qid, terms=terms, target_type=target))
    return queries


def write_queries(queries: Iterable[Query], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            rec: dict = {
                "query_id": q.query_id,
                "terms": [{"text": t.text, "required": t.required} for t in q.terms],
            }
            if q.target_type is not None:
                rec["target_type"] = q.target_type
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_qrels(path: str) -> Judgments:
    """Read TREC-style qrels: ``query_id 0 entity_id rel`` with rel in {0, 1}."""
    good: dict[str, set[str]] = defaultdict(set)
    bad: dict[str, set[str]] = defaultdict(set)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise CorpusError(f"qrels line {lineno}: expected 4 fields, got {len(parts)}")
            qid, _, eid, rel = parts
            if rel not in ("0", "1"):
                raise CorpusError(f"qrels line {lineno}: relevance must be 0 or 1, got {rel!r}")
            target = good if rel == "1" else bad
            other = bad if rel == "1" else good
            if eid in other[qid]:
                raise CorpusError(
                    f"qrels line {lineno}: conflicting judgments for ({qid}, {eid})"
                )
            target[qid].add(eid)
    return Judgments(
        good={q: frozenset(es) for q, es in good.items()},
        bad={q: frozenset(es) for q, es in bad.items()},
    )


def write_qrels(judgments: Judgments, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in judgments.query_ids():
            for eid in sorted(judgments.good_for(qid)):
                fh.write(f"{qid} 0 {eid} 1\n")
            for eid in sorted(judgments.bad_for(qid)):
                fh.write(f"{qid} 0 {eid} 0\n")


def read_catalog(path: str) -> dict[str, frozenset[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_catalog(fh)
