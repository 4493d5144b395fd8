"""Corpus ingestion, statistics, context extraction, candidate retrieval.

Expected numbers are hand-derived from the fixture corpus: 8 documents,
token df: python 4 (d01 d02 d06 d08), created 3 (d01 d03 d08),
programming 3 (d01 d04 d05), phrase "programming language" 2 (d01 d04).
"""

import json
import os

import pytest

from proxrank.corpus import (
    BEST_PER_DOCUMENT,
    CorpusError,
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
    matched_idf_fraction,
    phrase_starts,
    read_qrels,
    read_queries,
    write_corpus,
    write_qrels,
    write_queries,
)

import oracles
from util import tiny_corpus, documents_to_index


class TestStats:
    def test_document_counts(self, fixture_index):
        assert fixture_index.stats.num_docs == 8

    def test_token_document_frequencies(self, fixture_index):
        df = fixture_index.stats.df
        assert df["python"] == 4
        assert df["created"] == 3
        assert df["programming"] == 3
        assert "zebra" not in df

    def test_unigram_idf(self, fixture_index):
        assert compute_idf(fixture_index.stats, "python") == 8 / 4
        assert compute_idf(fixture_index.stats, "created") == 8 / 3

    def test_unseen_term_gets_full_idf(self, fixture_index):
        # df floors at 1, so an unseen term is worth num_docs.
        assert compute_idf(fixture_index.stats, "zebra") == 8.0

    def test_phrase_df_by_consecutive_scan(self, fixture_index):
        # "programming languages" in d05 must not count for the phrase.
        assert fixture_index.phrase_df(("programming", "language")) == 2

    def test_phrase_idf_requires_warmed_cache(self, fixture_index):
        query = Query("qp", [QueryTerm("programming language")])
        fixture_index.warm_query(query)
        assert compute_idf(fixture_index.stats, "programming language") == 8 / 2

    def test_query_idf_sums_distinct_terms(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python"), QueryTerm("created")])
        expected = 8 / 3 + 8 / 4
        assert compute_idf(fixture_index.stats, query) == pytest.approx(expected, rel=1e-12)

    def test_multiplicity_counts_repeats(self):
        query = Query("q", [QueryTerm("a"), QueryTerm("b"), QueryTerm("a")])
        assert query.multiplicity() == {"a": 2, "b": 1}
        assert [t.text for t in query.distinct_terms()] == ["a", "b"]


class TestContexts:
    def test_distances_measured_to_nearest_span_edge(self, fixture_index):
        doc = fixture_index.documents["d01"]
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        ctx = extract_context(doc, doc.mentions[0], query)
        assert ctx.matches == {"created": 1, "python": 3}
        assert ctx.mention_offset == 1

    def test_distance_left_of_mention(self, fixture_index):
        doc = fixture_index.documents["d02"]
        query = Query("q", [QueryTerm("designed"), QueryTerm("python")])
        ctx = extract_context(doc, doc.mentions[1], query)  # guido [6, 9)
        assert ctx.matches == {"designed": 2, "python": 5}

    def test_overlapping_occurrence_floors_at_one(self):
        doc = Document("d", ("alpha", "beta"), (Mention("e", 0, 2),))
        ctx = extract_context(doc, doc.mentions[0], Query("q", [QueryTerm("beta")]))
        assert ctx.matches == {"beta": 1}

    def test_no_term_in_window_gives_no_context(self, fixture_index):
        doc = fixture_index.documents["d07"]
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        assert extract_context(doc, doc.mentions[0], query) is None

    def test_window_clips_to_document_bounds(self, fixture_index):
        doc = fixture_index.documents["d01"]
        query = Query("q1", [QueryTerm("python")])
        ctx = extract_context(doc, doc.mentions[0], query, window=50)
        assert ctx.window == (0, 12)

    def test_window_radius_limits_matches(self):
        tokens = tuple(["pad"] * 30) + ("target",) + tuple(["pad"] * 30)
        doc = Document("d", tokens, (Mention("e", 0, 1),))
        query = Query("q", [QueryTerm("target")])
        assert extract_context(doc, doc.mentions[0], query, window=10) is None
        ctx = extract_context(doc, doc.mentions[0], query, window=30)
        assert ctx.matches == {"target": 30}

    def test_matched_idf_fraction(self, fixture_index):
        doc = fixture_index.documents["d01"]
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        ctx = extract_context(doc, doc.mentions[1], query)  # python mention
        frac = matched_idf_fraction(fixture_index.stats, query, ctx)
        assert frac == pytest.approx(1.0, rel=1e-12)


class TestCandidates:
    def test_union_retrieval(self, fixture_index):
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        assert cand.entity_ids() == ["gosling", "guido", "java", "python"]
        assert len(cand.support["guido"]) == 3
        assert len(cand.support["python"]) == 6

    def test_required_term_and_type_filter(self, fixture_index, fixture_queries):
        q3 = [q for q in fixture_queries if q.query_id == "q3"][0]
        cand = find_candidates(fixture_index, q3)
        assert cand.entity_ids() == ["guido"]
        assert len(cand.support["guido"]) == 3

    def test_phrase_query_retrieval(self, fixture_index, fixture_queries):
        q2 = [q for q in fixture_queries if q.query_id == "q2"][0]
        cand = find_candidates(fixture_index, q2)
        # d01 and d04 contain the phrase; their entities qualify.
        assert cand.entity_ids() == ["c", "guido", "python", "ritchie"]

    def test_best_per_document_keeps_one_context(self, fixture_index):
        query = Query("q", [QueryTerm("python")])
        config = RetrievalConfig(granularity=BEST_PER_DOCUMENT)
        cand = find_candidates(fixture_index, query, config)
        by_doc = {}
        for ctx in cand.support["python"]:
            assert ctx.doc_id not in by_doc
            by_doc[ctx.doc_id] = ctx
        # d06 has three python mentions; the tie breaks to the earliest offset.
        assert by_doc["d06"].mention_offset == 0

    def test_support_is_sorted_and_deterministic(self, fixture_index):
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        for contexts in cand.support.values():
            keys = [(c.doc_id, c.mention_offset) for c in contexts]
            assert keys == sorted(keys)


class TestIngestion:
    def test_tokens_are_lowercased(self):
        index = ingest_corpus(
            [{"doc_id": "d", "tokens": ["Python", "ROCKS"], "mentions": []}]
        )
        assert index.documents["d"].tokens == ("python", "rocks")

    def test_duplicate_doc_id_rejected(self):
        records = [
            {"doc_id": "d", "tokens": ["a"], "mentions": []},
            {"doc_id": "d", "tokens": ["b"], "mentions": []},
        ]
        with pytest.raises(CorpusError, match="duplicate"):
            ingest_corpus(records)

    def test_out_of_bounds_mention_rejected(self):
        records = [
            {
                "doc_id": "d",
                "tokens": ["a", "b"],
                "mentions": [{"entity_id": "e", "start": 1, "end": 3}],
            }
        ]
        with pytest.raises(CorpusError, match="record 1"):
            ingest_corpus(records)

    @pytest.mark.parametrize("bad", ["", "new york", "tab\there", " a"])
    def test_empty_or_whitespace_token_rejected(self, bad):
        records = [
            {"doc_id": "d0", "tokens": ["a"], "mentions": []},
            {"doc_id": "d1", "tokens": ["a", bad, "b"], "mentions": []},
        ]
        with pytest.raises(CorpusError, match=r"record 2: doc 'd1': token 1 "):
            ingest_corpus(records)

    def test_empty_span_rejected(self):
        with pytest.raises(CorpusError):
            Mention("e", 2, 2)

    def test_judgment_overlap_rejected(self):
        with pytest.raises(CorpusError, match="both good and bad"):
            Judgments(good={"q": frozenset({"e"})}, bad={"q": frozenset({"e"})})


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        documents, _, _ = tiny_corpus()
        path = os.path.join(tmp_path, "corpus.jsonl")
        write_corpus(documents, path)
        index = load_corpus(path)
        assert sorted(index.documents) == ["a", "b", "c"]
        assert index.documents["a"].mentions[0] == Mention("fox", 2, 3)

    def test_queries_round_trip(self, tmp_path, fixture_queries):
        path = os.path.join(tmp_path, "queries.jsonl")
        write_queries(fixture_queries, path)
        back = read_queries(path)
        assert [q.query_id for q in back] == ["q1", "q2", "q3"]
        assert back[2].terms[0].required is True
        assert back[2].target_type == "person"
        assert back[1].terms[0].is_phrase

    def test_qrels_round_trip(self, tmp_path, fixture_qrels):
        path = os.path.join(tmp_path, "qrels.txt")
        write_qrels(fixture_qrels, path)
        back = read_qrels(path)
        assert back.good == fixture_qrels.good
        assert back.bad == fixture_qrels.bad

    def test_qrels_conflict_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "qrels.txt")
        with open(path, "w") as fh:
            fh.write("q 0 e 1\nq 0 e 0\n")
        with pytest.raises(CorpusError, match="conflict"):
            read_qrels(path)

    def test_qrels_bad_label_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "qrels.txt")
        with open(path, "w") as fh:
            fh.write("q 0 e 2\n")
        with pytest.raises(CorpusError):
            read_qrels(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "queries.jsonl")
        with open(path, "w") as fh:
            for _ in range(2):
                fh.write(json.dumps({"query_id": "q", "terms": [{"text": "a"}]}) + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            read_queries(path)


class TestHelpers:
    def test_documents_to_index_round_trip(self):
        documents, query, _ = tiny_corpus()
        index = documents_to_index(documents)
        cand = find_candidates(index, query)
        assert cand.entity_ids() == ["dog", "fox"]


class TestPhraseScanner:
    @pytest.mark.parametrize(
        "text, phrase",
        [
            ("a a a", "a a"),  # overlapping repeats both count
            ("x a b y a b", "a b"),  # the last match ends at the last token
            ("programming languages and a programming language", "programming language"),
            ("b a c a a", "a"),
            ("a b", "a b c"),  # longer than the sequence
        ],
    )
    def test_matches_brute_force_scan(self, text, phrase):
        tokens, key = tuple(text.split()), tuple(phrase.split())
        expected = oracles.phrase_starts_brute(tokens, key)
        assert phrase_starts(tokens, key, range(len(tokens))) == expected
        index = documents_to_index([Document(doc_id="d", tokens=tokens)])
        assert index.occurrences("d", key) == expected

    def test_fixture_documents_match_brute_force_scan(self, fixture_index):
        # d05 holds the near miss "programming languages".
        keys = [("programming", "language"), ("programming",), ("python",), ("the", "python")]
        for doc_id, doc in fixture_index.documents.items():
            for key in keys:
                expected = oracles.phrase_starts_brute(doc.tokens, key)
                assert fixture_index.occurrences(doc_id, key) == expected, (doc_id, key)
        assert fixture_index.occurrences("d05", ("programming", "language")) == []
