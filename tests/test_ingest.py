"""Ingest builds a compact index that equals the one it replaced.

``oracles.ingest_scan`` is the ingest before the index was made compact.
On random corpora the package must build the same documents, postings,
statistics and mentions, in the same key orders, and every malformed
input must fail with the same message.  The compact form itself is
checked directly: postings in a few int32 arrays, one shared object per
token text, objects for the cyclic garbage collector per document rather
than per token, and no reference cycle that keeps a dropped index alive.
"""

import gc
import json
import platform
import weakref

import numpy as np
import pytest

from proxrank.aggregators import balog2_score, petkova_score
from proxrank.corpus import (
    CorpusError,
    Query,
    QueryTerm,
    RetrievalConfig,
    find_candidates,
    ingest_corpus,
)

import oracles

# Mixed case, so that distinct raw tokens share one lowercased text.
WORDS = ("a", "A", "b", "B", "ab", "Ab", "AB", "city", "City", "CITY", "Straße", "ÉTÉ", "été")
# Longer than the small ints CPython keeps, so positions are real objects.
LONG = 300


def random_record(rng, doc_id):
    n = int(rng.integers(LONG, LONG + 60)) if rng.random() < 0.1 else int(rng.integers(0, 40))
    tokens = [WORDS[i] for i in rng.integers(0, len(WORDS), n)]
    mentions = []
    for _ in range(int(rng.integers(0, 4)) if n else 0):
        start = int(rng.integers(0, n))
        end = min(n, start + int(rng.integers(1, 4)))
        mentions.append({"entity_id": f"e{rng.integers(0, 5)}", "start": start, "end": end})
    return {"doc_id": doc_id, "tokens": tokens, "mentions": mentions}


def as_input(rng, record):
    """A record as a mapping, a JSON line, or a JSON line in bytes."""
    r = rng.random()
    if r < 0.4:
        return record
    line = json.dumps(record, ensure_ascii=bool(rng.random() < 0.5)) + "\n"
    return line.encode("utf-8") if r < 0.6 else line


def random_inputs(rng):
    records = []
    for k in range(int(rng.integers(0, 9))):
        records.append(as_input(rng, random_record(rng, f"d{k}")))
        if rng.random() < 0.2:
            records.append(["", "\n", "  \n", b"\n"][int(rng.integers(0, 4))])
    catalog = None
    if rng.random() < 0.3:
        catalog = [{"entity_id": f"e{e}", "types": ["t"]} for e in range(5)]
    return records, catalog


def nested(postings):
    """The package's CSR postings in the oracle's nested form: each token
    to each document holding it to its positions there."""
    if isinstance(postings, dict):  # the oracle's own
        return postings
    return {text: postings.term(text).grouped() for text in postings.tokens}


def content(index):
    """Everything an index holds, in its order, dict orders included."""
    return (
        [(d, doc.doc_id, doc.tokens, doc.mentions) for d, doc in index.documents.items()],
        [(t, [(d, list(p)) for d, p in docs.items()]) for t, docs in nested(index.postings).items()],
        list(index.stats.df.items()),
        list(index.stats.cf.items()),
        list(index.stats.doc_len.items()),
        (index.stats.num_docs, index.stats.collection_len),
        sorted(index.entity_types.items()),
    )


def error_of(ingest, records, catalog=None):
    with pytest.raises(CorpusError) as info:
        ingest(records, catalog)
    return str(info.value)


# Each breaks a valid record in one way.
def no_list(rng, rec):
    rec["tokens"] = ["abc", None, 3, {"a": 1}][int(rng.integers(0, 4))]


def no_tokens(rng, rec):
    rec.pop("tokens", None)


def insert_token(rng, rec, token):
    tokens = rec.get("tokens")
    if isinstance(tokens, list):
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), token)


def non_string_token(rng, rec):
    insert_token(rng, rec, [3, None, 1.5, ["x"]][int(rng.integers(0, 4))])


def blank_token(rng, rec):
    insert_token(rng, rec, ["", " ", "new york", "tab\there", "x\n", " A"][int(rng.integers(0, 6))])


def duplicate_id(rng, rec):
    rec["doc_id"] = "d0"


def bad_id(rng, rec):
    rec["doc_id"] = ["", None, 7][int(rng.integers(0, 3))]


def bad_mention(rng, rec):
    tokens = rec.get("tokens")
    n = len(tokens) if isinstance(tokens, list) else 0
    bad = [
        {"entity_id": "e", "start": 0},
        {"entity_id": "e", "start": "x", "end": 1},
        {"entity_id": "e", "start": 2, "end": 1},
        {"entity_id": "", "start": 0, "end": 1},
        {"entity_id": "e", "start": n, "end": n + 1},
        "not an object",
    ][int(rng.integers(0, 6))]
    rec["mentions"].append(bad)


BREAKS = (no_list, no_tokens, non_string_token, blank_token, duplicate_id, bad_id, bad_mention)
# The type checks come first and would decide most messages at equal odds.
BREAK_ODDS = np.array([1, 0.5, 1, 4, 2, 0.5, 3]) / 12
MESSAGES = ("list of strings", "doc_id", "whitespace", "mention")


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        shared = 0
        for _ in range(60):
            records, catalog = random_inputs(rng)
            got = ingest_corpus(records, catalog)
            want = oracles.ingest_scan(records, catalog)
            assert content(got) == content(want)
            tokens = sum(len(doc.tokens) for doc in got.documents.values())
            shared += tokens - len(got.postings.tokens)
        assert shared > 1000  # repeated tokens are common

    @pytest.mark.parametrize("seed", range(4))
    def test_malformed_inputs_fail_alike(self, seed):
        # One to three broken records, each broken in one to three ways;
        # the first broken record and its first check decide the message.
        rng = np.random.default_rng(50 + seed)
        seen = dict.fromkeys(MESSAGES, 0)
        for _ in range(60):
            records = [random_record(rng, f"d{k}") for k in range(int(rng.integers(1, 7)))]
            for _ in range(int(rng.integers(1, 4))):
                rec = random_record(rng, f"x{rng.integers(0, 1000)}")
                for i in rng.choice(len(BREAKS), int(rng.integers(1, 4)), p=BREAK_ODDS):
                    BREAKS[i](rng, rec)
                records.insert(int(rng.integers(0, len(records) + 1)), rec)
            records = [as_input(rng, rec) for rec in records]
            got = error_of(ingest_corpus, records)
            assert got == error_of(oracles.ingest_scan, records)
            for kind in MESSAGES:
                seen[kind] += kind in got
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize(
        "line", ["{not json", "[1, 2]", '"text"', '{"tokens": ["a"]}']
    )
    def test_malformed_lines_fail_alike(self, line):
        records = ['{"doc_id": "d0", "tokens": ["a"]}', line]
        assert error_of(ingest_corpus, records) == error_of(oracles.ingest_scan, records)


class TestCompactForm:
    @staticmethod
    def records(repeat=1):
        rng = np.random.default_rng(0)
        records = [random_record(rng, f"d{k}") for k in range(12)]
        records.append({"doc_id": "long", "tokens": ["A", "b"] * LONG, "mentions": []})
        for rec in records:
            rec["tokens"] = rec["tokens"] * repeat
        return records

    def test_postings_are_a_few_int32_arrays(self):
        index = ingest_corpus(self.records())
        postings, stats = index.postings, index.stats
        arrays = (postings.doc_starts, postings.offsets, postings.positions)
        assert all(type(a) is np.ndarray and a.dtype == np.int32 for a in arrays)
        assert postings.positions.shape == (stats.collection_len,)
        assert postings.offsets.shape == (len(stats.df) + 1,)
        assert postings.doc_starts.shape == (stats.num_docs + 1,)
        vocabulary_and_documents = 4 * (len(stats.df) + stats.num_docs + 2)
        assert sum(a.nbytes for a in arrays) <= 4 * stats.collection_len + vocabulary_and_documents

    def test_equal_token_texts_are_one_object(self):
        index = ingest_corpus(self.records())
        keys = {k: k for k in index.postings.tokens}
        assert list(keys) == list(index.stats.df)
        for doc in index.documents.values():
            assert all(tok is keys[tok] for tok in doc.tokens)

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython", reason="counts CPython's GC-tracked objects"
    )
    def test_a_load_leaves_objects_per_document_not_per_token(self):
        # Documents and mentions are tracked; token tuples, the vocabulary,
        # the statistics and the postings arrays are not.
        def tracked_by_a_load(repeat):
            gc.collect()
            before = len(gc.get_objects())
            index = ingest_corpus(self.records(repeat))
            gc.collect()
            return len(gc.get_objects()) - before, index

        small, index = tracked_by_a_load(1)
        large, larger = tracked_by_a_load(10)
        assert larger.stats.collection_len == 10 * index.stats.collection_len
        assert large == small
        mentions = sum(len(doc.mentions) for doc in index.documents.values())
        assert small <= 3 * len(index.documents) + mentions + 10

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython", reason="relies on reference counting"
    )
    def test_a_read_index_is_freed_without_a_collection(self):
        index = ingest_corpus(self.records())
        query = Query("q", [QueryTerm("a"), QueryTerm("ab city")])
        support = find_candidates(index, query, RetrievalConfig(window=5)).support
        assert support
        for contexts in support.values():
            balog2_score(index, query, contexts)
            petkova_score(index, query, contexts)
        freed = weakref.ref(index)
        gc.disable()
        try:
            del index, support, contexts
            assert freed() is None
        finally:
            gc.enable()
