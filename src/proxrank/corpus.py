"""Corpus model: annotated documents, term statistics, candidate retrieval.

Documents arrive pre-tokenized, with entity mentions annotated as token
spans.  Ingestion lowercases tokens and builds a positional inverted
index so retrieval can measure how far each query-term occurrence sits
from an entity mention.  All distances are token counts, measured from
the nearest edge of the mention span, floored at 1.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Mapping, Sequence

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
    "PER_MENTION",
    "Query",
    "QueryTerm",
    "RetrievalConfig",
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

    @property
    def tokens(self) -> tuple[str, ...]:
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


@dataclass
class CorpusStats:
    """Collection-level term statistics.

    ``df``/``cf`` cover single tokens; phrase statistics are filled on
    demand by :meth:`CorpusIndex.phrase_df` and cached here, keyed by the
    token tuple.
    """

    num_docs: int
    df: dict[str, int]
    cf: dict[str, int]
    collection_len: int
    doc_len: dict[str, int]
    phrase_df: dict[tuple[str, ...], int] = field(default_factory=dict)

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


@dataclass
class Context:
    """One supporting context: an entity mention with query terms nearby.

    ``matches`` maps each matched query-term text to its distance, the
    minimum over in-window occurrences of the token gap between the
    occurrence and the nearest mention-span edge (floored at 1).
    ``window`` is the half-open token range the context covers.
    """

    doc_id: str
    entity_id: str
    mention_offset: int
    window: tuple[int, int]
    matches: dict[str, int]


@dataclass
class CandidateSet:
    """Candidate entities for one query with their supporting contexts."""

    query_id: str
    support: dict[str, list[Context]]

    def entity_ids(self) -> list[str]:
        return sorted(self.support)


@dataclass
class RetrievalConfig:
    window: int = 50
    granularity: str = PER_MENTION

    def __post_init__(self) -> None:
        if self.window < 1:
            raise CorpusError(f"window radius must be >= 1, got {self.window}")
        if self.granularity not in (PER_MENTION, BEST_PER_DOCUMENT):
            raise CorpusError(f"unknown granularity {self.granularity!r}")


class CorpusIndex:
    """Positional inverted index over an ingested corpus.

    Immutable after construction apart from the phrase-statistics cache,
    so concurrent readers are safe.
    """

    def __init__(
        self,
        documents: dict[str, Document],
        postings: dict[str, dict[str, list[int]]],
        stats: CorpusStats,
        entity_mentions: dict[str, list[tuple[str, Mention]]],
        entity_types: dict[str, frozenset[str]],
    ) -> None:
        self.documents = documents
        self.postings = postings
        self.stats = stats
        self.entity_mentions = entity_mentions
        self.entity_types = entity_types

    # -- statistics ----------------------------------------------------

    def phrase_df(self, tokens: Sequence[str]) -> int:
        """Document frequency of a consecutive token sequence, cached."""
        key = tuple(tokens)
        if not key:
            return 0
        if len(key) > 1 and key not in self.stats.phrase_df:
            self.stats.phrase_df[key] = sum(
                1 for doc_id in self.postings.get(key[0], ()) if self.occurrences(doc_id, key)
            )
        return self.stats.doc_frequency(key)

    def warm_query(self, query: Query) -> None:
        """Ensure phrase statistics for every phrase term are cached."""
        for term in query.distinct_terms():
            if term.is_phrase:
                self.phrase_df(term.tokens)

    # -- occurrence lookup ---------------------------------------------

    def occurrences(self, doc_id: str, term_tokens: Sequence[str]) -> list[int]:
        """Start positions of the term (or phrase) in the document."""
        if not term_tokens:
            return []
        first = self.postings.get(term_tokens[0], {}).get(doc_id, [])
        if len(term_tokens) == 1:  # a token's postings are its starts
            return list(first)
        return phrase_starts(self.documents[doc_id].tokens, term_tokens, first)

    def docs_containing(self, term: QueryTerm) -> set[str]:
        key = term.tokens
        first = set(self.postings.get(key[0], ())) if key else set()
        if len(key) == 1:
            return first
        return {d for d in first if self.occurrences(d, key)}


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
    """
    documents: dict[str, Document] = {}
    postings: dict[str, dict[str, list[int]]] = defaultdict(dict)
    entity_mentions: dict[str, list[tuple[str, Mention]]] = defaultdict(list)
    doc_len: dict[str, int] = {}
    cf: dict[str, int] = defaultdict(int)

    for lineno, rec in enumerate(records, 1):
        rec = _parse_record(rec, lineno)
        if rec is None:
            continue
        try:
            doc = _document_from_record(rec)
        except CorpusError as exc:
            raise CorpusError(f"record {lineno}: {exc}") from None
        if doc.doc_id in documents:
            raise CorpusError(f"record {lineno}: duplicate doc_id {doc.doc_id!r}")
        documents[doc.doc_id] = doc
        doc_len[doc.doc_id] = len(doc.tokens)
        known = len(postings)
        for pos, tok in enumerate(doc.tokens):
            postings[tok].setdefault(doc.doc_id, []).append(pos)
            cf[tok] += 1
        # Each distinct token is checked once, in the record that first holds it.
        bad = [t for t in islice(reversed(postings), len(postings) - known) if t.split() != [t]]
        if bad:
            k = min(doc.tokens.index(t) for t in bad)
            raise CorpusError(
                f"record {lineno}: doc {doc.doc_id!r}: token {k} is empty or contains "
                f"whitespace: {doc.tokens[k]!r}"
            )
        for m in doc.mentions:
            entity_mentions[m.entity_id].append((doc.doc_id, m))

    stats = CorpusStats(
        num_docs=len(documents),
        df={t: len(d) for t, d in postings.items()},
        cf=dict(cf),
        collection_len=sum(doc_len.values()),
        doc_len=doc_len,
    )
    entity_types: dict[str, frozenset[str]] = {}
    if catalog is not None:
        entity_types = _parse_catalog(catalog)
    return CorpusIndex(documents, dict(postings), stats, dict(entity_mentions), entity_types)


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


def _document_from_record(rec: Mapping) -> Document:
    doc_id = rec.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError("missing or invalid doc_id")
    tokens = rec.get("tokens")
    if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
        raise CorpusError(f"doc {doc_id!r}: tokens must be a list of strings")
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
    doc = Document(doc_id=doc_id, tokens=[t.lower() for t in tokens], mentions=mentions)
    doc.validate()
    return doc


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


def _span_distance(pos: int, length: int, start: int, end: int) -> int:
    # Token gap between occupied span [pos, pos+length) and mention
    # [start, end), measured edge to edge; overlap floors at 1.
    if pos + length <= start:
        return start - (pos + length - 1)
    if pos >= end:
        return pos - (end - 1)
    return 1


def _context_from_occurrences(
    document: Document,
    mention: Mention,
    occurrences: Mapping[str, tuple[int, list[int]]],
    window: int,
) -> Context | None:
    matches: dict[str, int] = {}
    for text, (length, positions) in occurrences.items():
        best: int | None = None
        for p in positions:
            d = _span_distance(p, length, mention.start, mention.end)
            if d <= window and (best is None or d < best):
                best = d
        if best is not None:
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
    """
    config = config or RetrievalConfig()
    index.warm_query(query)
    terms = query.distinct_terms()

    term_docs = {t.text: index.docs_containing(t) for t in terms}
    cand_docs: set[str] = set()
    for docs in term_docs.values():
        cand_docs |= docs
    for t in terms:
        if t.required:
            cand_docs &= term_docs[t.text]

    check_type = bool(query.target_type) and bool(index.entity_types)
    support: dict[str, list[Context]] = defaultdict(list)
    for doc_id in sorted(cand_docs):
        doc = index.documents[doc_id]
        occurrences = {
            t.text: (len(t.tokens), index.occurrences(doc_id, t.tokens)) for t in terms
        }
        here: list[Context] = []
        for mention in doc.mentions:
            if check_type and query.target_type not in index.entity_types.get(
                mention.entity_id, frozenset()
            ):
                continue
            ctx = _context_from_occurrences(doc, mention, occurrences, config.window)
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
                terms.append(QueryTerm(text=str(t["text"]).lower(), required=bool(t.get("required", False))))
            target = rec.get("target_type")
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
