"""Feature families: bucket geometry, lexical scores, vector assembly.

The bucket placements asserted below are hand-derived: with fraction
splits {0.25, 0.5, 0.75, 1.0} a matched-IDF share of 0.35 falls in band
1, and with distance splits {2, 4, 8} a distance of 3 falls in column 1
(columns count toward the mention, so column 2 is distance <= 2).
"""

import itertools
import math
import os

import numpy as np
import pytest

from proxrank import features
from proxrank.corpus import (
    BEST_PER_DOCUMENT,
    PER_MENTION,
    Context,
    CorpusError,
    Document,
    Mention,
    Query,
    QueryTerm,
    RetrievalConfig,
    compute_idf,
    extract_context,
    find_candidates,
    load_corpus,
    phrase_starts,
)
from proxrank.features import (
    FAMILY_ORDER,
    Bm25Params,
    FeatureError,
    FeatureLayout,
    bm25_score,
    context_matrix,
    cosine_score,
    document_scores,
    rectangle_features,
)
from proxrank.synth import SynthParams, generate_synthetic

import oracles
from util import documents_to_index

SMALL = FeatureLayout(
    families=("noprox", "idfupto", "grid", "rectangle", "pad"),
    distance_boundaries=(2, 4, 8),
    idf_fraction_boundaries=(0.25, 0.5, 0.75, 1.0),
)


def _row(index, query, ctx, layout=SMALL):
    """One context's feature row, as ``context_matrix`` builds it."""
    return context_matrix(index, query, [ctx], layout)[0]


def _sparse_family(row, layout, family):
    """The nonzero cells of one family's block of a row: index -> value."""
    start = layout.family_offset(family)
    block = row[start : start + layout.family_size(family)]
    return {start + int(k): float(block[k]) for k in np.flatnonzero(block)}


def _context(index, doc_id, mention_index, query, window=50):
    doc = index.documents[doc_id]
    ctx = extract_context(doc, doc.mentions[mention_index], query, window)
    assert ctx is not None
    return ctx


class TestLayoutGeometry:
    def test_family_offsets_follow_canonical_order(self):
        # 2 noprox + 3 idfupto + 12 grid + 12 rectangle + 1 pad
        assert SMALL.family_offset("noprox") == 0
        assert SMALL.family_offset("idfupto") == 2
        assert SMALL.family_offset("grid") == 5
        assert SMALL.family_offset("rectangle") == 17
        assert SMALL.family_offset("pad") == 29
        assert SMALL.dimension == 30

    def test_default_layout_dimension(self):
        assert FeatureLayout().dimension == 2 + 10 * 6 + 1

    def test_distance_buckets_count_toward_mention(self):
        assert SMALL.distance_bucket(1) == 2
        assert SMALL.distance_bucket(2) == 2
        assert SMALL.distance_bucket(3) == 1
        assert SMALL.distance_bucket(4) == 1
        assert SMALL.distance_bucket(5) == 0
        assert SMALL.distance_bucket(8) == 0
        assert SMALL.distance_bucket(9) == 0  # beyond the last split: farthest

    def test_idf_buckets(self):
        assert SMALL.idf_bucket(0.1) == 0
        assert SMALL.idf_bucket(0.25) == 0
        assert SMALL.idf_bucket(0.35) == 1
        assert SMALL.idf_bucket(0.75) == 2
        assert SMALL.idf_bucket(0.76) == 3
        assert SMALL.idf_bucket(1.0) == 3

    def test_bucket_ranges(self):
        # A share a rounding step above 1 still lands in the rarest row.
        assert SMALL.idf_bucket(1.0 + 1e-13) == 3
        for share in (0.0, -0.1, 1.0 + 1e-11, math.nan):
            with pytest.raises(FeatureError, match=r"^IDF fraction out of range: "):
                SMALL.idf_bucket(share)
        with pytest.raises(FeatureError, match=r"^distance must be >= 1, got 0$"):
            SMALL.distance_bucket(0)
        # Many matches at once: the first one out of range raises its error.
        with pytest.raises(FeatureError, match=r"^distance must be >= 1, got -2$"):
            SMALL.buckets([0.5, 0.5, 2.0], [3, -2, 1])
        i, j = SMALL.buckets([0.1, 0.35, 1.0], [1, 3, 100])
        assert i.tolist() == [0, 1, 3] and j.tolist() == [2, 1, 0]

    def test_worked_example_cell(self):
        # share 0.35 at distance 3 lands in grid cell (1, 1)
        i = SMALL.idf_bucket(0.35)
        j = SMALL.distance_bucket(3)
        assert (i, j) == (1, 1)

    def test_layout_validation(self):
        with pytest.raises(FeatureError):
            FeatureLayout(families=())
        with pytest.raises(FeatureError):
            FeatureLayout(families=("noprox", "noprox"))
        with pytest.raises(FeatureError):
            FeatureLayout(families=("sideways",))
        with pytest.raises(FeatureError):
            FeatureLayout(distance_boundaries=(4, 2))
        with pytest.raises(FeatureError):
            FeatureLayout(idf_fraction_boundaries=(0.5, 1.5))
        with pytest.raises(FeatureError):
            FeatureLayout(idf_fraction_boundaries=())

    def test_round_trip(self):
        assert FeatureLayout.from_dict(SMALL.to_dict()) == SMALL

    def test_cell_index_bounds(self):
        with pytest.raises(FeatureError):
            SMALL.cell_index("grid", 4, 0)
        with pytest.raises(FeatureError):
            SMALL.cell_index("pad", 0, 0)


class TestLexicalScores:
    def test_bm25_matches_direct_formula(self, fixture_index):
        stats = fixture_index.stats
        doc = fixture_index.documents["d01"]
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        got = bm25_score(doc.tokens, query, stats)
        expected = oracles.bm25(1, 3, 8, 12, stats.avg_doc_len) + oracles.bm25(
            1, 4, 8, 12, stats.avg_doc_len
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bm25_term_multiplicity_scales_contribution(self, fixture_index):
        stats = fixture_index.stats
        doc = fixture_index.documents["d01"]
        single = bm25_score(doc.tokens, Query("q", [QueryTerm("python")]), stats)
        doubled = bm25_score(
            doc.tokens, Query("q", [QueryTerm("python"), QueryTerm("python")]), stats
        )
        assert doubled == pytest.approx(2.0 * single, rel=1e-12)

    def test_bm25_is_nonnegative_even_for_common_terms(self, fixture_index):
        # "the" appears in most documents; the idf variant must not go negative.
        stats = fixture_index.stats
        doc = fixture_index.documents["d01"]
        assert bm25_score(doc.tokens, Query("q", [QueryTerm("the")]), stats) >= 0.0

    def test_cosine_matches_direct_computation(self, fixture_index):
        stats = fixture_index.stats
        doc = fixture_index.documents["d02"]
        query = Query("q", [QueryTerm("python"), QueryTerm("designed")])
        got = cosine_score(doc.tokens, query, stats)

        def weight(term, tf):
            return tf * (stats.num_docs / max(stats.df.get(term, 0), 1))

        doc_tf = {}
        for tok in doc.tokens:
            doc_tf[tok] = doc_tf.get(tok, 0) + 1
        q_tf = {"python": 1, "designed": 1}
        dot = sum(weight(t, doc_tf.get(t, 0)) * weight(t, q_tf[t]) for t in q_tf)
        doc_norm = math.sqrt(sum(weight(t, c) ** 2 for t, c in doc_tf.items()))
        q_norm = math.sqrt(sum(weight(t, c) ** 2 for t, c in q_tf.items()))
        assert got == pytest.approx(dot / (doc_norm * q_norm), rel=1e-12)

    def test_cosine_zero_when_no_overlap(self, fixture_index):
        stats = fixture_index.stats
        doc = fixture_index.documents["d03"]
        assert cosine_score(doc.tokens, Query("q", [QueryTerm("zebra")]), stats) == 0.0


class TestProximityFamilies:
    def test_idfupto_is_cumulative_and_capped(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        ctx = _context(fixture_index, "d01", 0, query)  # created at 1, python at 3
        vec = _row(fixture_index, query, ctx)
        base = SMALL.family_offset("idfupto")
        idf_created = 8 / 3
        idf_python = 8 / 4
        share = idf_created / (idf_created + idf_python)
        assert vec[base + 0] == pytest.approx(share, rel=1e-12)  # within 2
        assert vec[base + 1] == pytest.approx(1.0, rel=1e-12)  # within 4
        assert vec[base + 2] == pytest.approx(1.0, rel=1e-12)  # within 8
        values = list(vec[base : base + 3])
        assert values == sorted(values)
        assert max(values) <= 1.0 + 1e-12

    def test_grid_adds_one_per_match(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        ctx = _context(fixture_index, "d01", 0, query)
        vec = _sparse_family(_row(fixture_index, query, ctx), SMALL, "grid")
        idf_created = 8 / 3
        idf_python = 8 / 4
        total = idf_created + idf_python
        cell_created = SMALL.cell_index(
            "grid", SMALL.idf_bucket(idf_created / total), SMALL.distance_bucket(1)
        )
        cell_python = SMALL.cell_index(
            "grid", SMALL.idf_bucket(idf_python / total), SMALL.distance_bucket(3)
        )
        assert vec == {cell_created: 1.0, cell_python: 1.0}

    def test_rectangle_fires_dominated_cells(self, fixture_index):
        # A single match in cell (2, 1) of a 4x3 grid covers rows 0..2
        # and columns 0..1: six cells, each incremented once.
        query = Query("q", [QueryTerm("python")])
        ctx = _context(fixture_index, "d01", 0, query)  # python at distance 3
        assert ctx.matches == {"python": 3}
        vec = rectangle_features(ctx, query, fixture_index.stats, SMALL)
        # share 1.0 -> row 3; distance 3 -> column 1; fires 4 * 2 = 8 cells
        expected = {
            SMALL.cell_index("rectangle", i, j): 1.0 for i in range(4) for j in range(2)
        }
        assert vec == expected

    def test_rectangle_accumulates_counts(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        ctx = _context(fixture_index, "d01", 0, query)
        vec = rectangle_features(ctx, query, fixture_index.stats, SMALL)
        # Both matches dominate the far-common corner cell (0, 0).
        corner = SMALL.cell_index("rectangle", 0, 0)
        assert vec[corner] == 2.0


class TestVectorAssembly:
    def test_full_vector_contents(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        doc = fixture_index.documents["d01"]
        ctx = _context(fixture_index, "d01", 0, query)
        row = _row(fixture_index, query, ctx)
        assert row.shape == (SMALL.dimension,)
        assert row[SMALL.family_offset("pad")] == 1.0
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        noprox = document_scores(doc, query, fixture_index.stats, SMALL)
        assert row[0] == noprox[0]
        assert row[1] == noprox[1]

    def test_noprox_only_layout_row(self, fixture_index):
        layout = FeatureLayout(families=("noprox", "pad"))
        query = Query("q", [QueryTerm("python")])
        ctx = _context(fixture_index, "d01", 0, query)
        row = _row(fixture_index, query, ctx, layout)
        assert layout.dimension == 3
        assert row[2] == 1.0

    def test_context_matrix_rows_match_single_context_rows(self, fixture_index):
        query = Query("q", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        contexts = cand.support["guido"]
        matrix = context_matrix(fixture_index, query, contexts, SMALL)
        assert matrix.shape == (len(contexts), SMALL.dimension)
        for row, ctx in zip(matrix, contexts):
            assert row.tobytes() == _row(fixture_index, query, ctx).tobytes()

    def test_empty_context_list_gives_empty_matrix(self, fixture_index):
        query = Query("q", [QueryTerm("python")])
        matrix = context_matrix(fixture_index, query, [], SMALL)
        assert matrix.shape == (0, SMALL.dimension)


ORACLE_LAYOUTS = {
    "all-small": SMALL,
    "all-default": FeatureLayout(families=FAMILY_ORDER),
    "default": FeatureLayout(),
    "pad-only": FeatureLayout(families=("pad",)),
}


@pytest.fixture(scope="module")
def synthetic_corpus():
    params = SynthParams(
        num_queries=4, terms_per_query=5, count_skew=0.5, rarity_skew=0.5, proximity_skew=0.5
    )
    documents, queries, _ = generate_synthetic(params, seed=7)
    return documents_to_index(documents), queries


class TestDenseRowsMatchDictOracle:
    """``context_matrix`` against the per-context dict featurizer it
    replaced, bit for bit."""

    @staticmethod
    def _check(index, queries, layout, granularity, params):
        rows = 0
        for query in queries:
            cand = find_candidates(index, query, RetrievalConfig(granularity=granularity))
            for eid, contexts in cand.support.items():
                got = context_matrix(index, query, contexts, layout, params)
                want = oracles.feature_stack(index, query, contexts, layout, params.k1, params.b)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (query.query_id, eid)
                rows += len(contexts)
        assert rows > 0

    @pytest.mark.parametrize("granularity", [PER_MENTION, BEST_PER_DOCUMENT])
    @pytest.mark.parametrize("layout", ORACLE_LAYOUTS.values(), ids=ORACLE_LAYOUTS.keys())
    def test_fixture_queries(self, fixture_index, fixture_queries, layout, granularity):
        # q2 is the phrase "programming language"; d05's "programming
        # languages" must not count for it.
        assert fixture_queries[1].terms[0].is_phrase
        self._check(fixture_index, fixture_queries, layout, granularity, Bm25Params())

    def test_whole_document_scores_on_every_fixture_document(self, fixture_index, fixture_queries):
        # Includes documents no context comes from, such as d05 with its
        # near miss "programming languages".
        stats = fixture_index.stats
        for query in fixture_queries:
            for term in query.distinct_terms():
                fixture_index.phrase_df(term.tokens)
            for doc in fixture_index.documents.values():
                assert bm25_score(doc.tokens, query, stats) == oracles.bm25_document(
                    doc.tokens, query, stats
                ), (query.query_id, doc.doc_id)
                assert cosine_score(doc.tokens, query, stats) == oracles.cosine_document(
                    doc.tokens, query, stats
                ), (query.query_id, doc.doc_id)

    @pytest.mark.parametrize("granularity", [PER_MENTION, BEST_PER_DOCUMENT])
    @pytest.mark.parametrize("layout", ORACLE_LAYOUTS.values(), ids=ORACLE_LAYOUTS.keys())
    def test_synthetic_corpus(self, synthetic_corpus, layout, granularity):
        index, queries = synthetic_corpus
        self._check(index, queries, layout, granularity, Bm25Params(k1=0.9, b=0.4))


class TestBm25Params:
    @pytest.mark.parametrize(
        "k1, b",
        [
            (math.nan, 0.75), (math.inf, 0.75), (-0.1, 0.75),
            (1.2, -0.1), (1.2, 5.0), (1.2, math.nan),
        ],
    )
    def test_out_of_range_rejected(self, k1, b):
        with pytest.raises(FeatureError, match="BM25"):
            Bm25Params(k1=k1, b=b)

    def test_range_edges_accepted(self):
        assert Bm25Params(k1=0.0, b=0.0).b == 0.0
        assert Bm25Params(k1=0.0, b=1.0).b == 1.0


class TestStatisticsAndValidation:
    def test_unwarmed_phrase_raises_from_every_idf_user(self):
        index = documents_to_index([Document(doc_id="d", tokens=("a", "b", "c"))])
        query = Query("q", [QueryTerm("a b")])
        tokens = index.documents["d"].tokens
        for call in (
            lambda: compute_idf(index.stats, "a b"),
            lambda: bm25_score(tokens, query, index.stats),
            lambda: cosine_score(tokens, query, index.stats),
        ):
            with pytest.raises(CorpusError, match="no cached statistics"):
                call()
        for term in query.distinct_terms():
            index.phrase_df(term.tokens)
        assert bm25_score(tokens, query, index.stats) > 0.0

    def test_invalid_document_score_names_query_and_document(self, fixture_index, monkeypatch):
        query = Query("qnan", [QueryTerm("python")])
        contexts = find_candidates(fixture_index, query).support["guido"]
        monkeypatch.setattr(features, "document_scores", lambda *args: {0: math.nan})
        with pytest.raises(FeatureError, match=r"'qnan'.*'d01'.*nan"):
            context_matrix(fixture_index, query, contexts, SMALL)


class TestIdfBoundaryValues:
    @pytest.mark.parametrize(
        "fracs",
        [(math.nan, 1.0), (0.5, math.nan), (math.nan,), (0.0, 1.0), (0.5, math.inf)],
    )
    def test_nan_or_out_of_range_boundary_rejected(self, fracs):
        # Every comparison with NaN is false, so (nan, 1.0) passed the
        # ascending and range checks and sent every match to bucket 0.
        with pytest.raises(FeatureError, match=r"IDF fraction boundaries must lie in \(0, 1\]"):
            FeatureLayout(idf_fraction_boundaries=fracs)

    def test_from_dict_rejects_nan_boundary(self):
        data = FeatureLayout().to_dict()
        data["idf_fraction_boundaries"][0] = math.nan
        with pytest.raises(FeatureError, match="IDF fraction"):
            FeatureLayout.from_dict(data)


TRAIN_RANK_LAYOUT = FeatureLayout(families=("noprox", "rectangle", "pad"))


class TestDocumentTermState:
    """Each document's query-independent term state is built on its first
    whole-document scoring and read back afterwards; every score is
    compared bit for bit with the oracle, which recounts everything."""

    @staticmethod
    def _fresh_index(data_dir):
        return load_corpus(
            os.path.join(data_dir, "fixture_corpus.jsonl"),
            os.path.join(data_dir, "fixture_catalog.jsonl"),
        )

    @staticmethod
    def _assert_matches_oracle(index, query, contexts, layout, params=Bm25Params()):
        got = context_matrix(index, query, contexts, layout, params)
        want = oracles.feature_stack(index, query, contexts, layout, params.k1, params.b)
        assert got.tobytes() == want.tobytes(), (query.query_id, contexts[0].entity_id)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_state_built_for_one_query_serves_the_next(self, data_dir, fixture_queries, order):
        index = self._fresh_index(data_dir)
        kept = {}
        reused = set()
        for k in order:
            query = fixture_queries[k]
            for contexts in find_candidates(index, query).support.values():
                self._assert_matches_oracle(index, query, contexts, TRAIN_RANK_LAYOUT)
                reused |= {ctx.doc_id for ctx in contexts} & set(kept)
            for doc_id, state in kept.items():
                assert index.stats.term_states[doc_id] is state
            kept.update(index.stats.term_states)
        assert reused  # some document was scored for two queries

    def test_phrase_query_through_the_cached_state(self, data_dir, fixture_queries):
        index = self._fresh_index(data_dir)
        query = fixture_queries[1]
        assert query.terms[0].is_phrase  # "programming language"
        for term in query.distinct_terms():
            index.phrase_df(term.tokens)
        offset = TRAIN_RANK_LAYOUT.family_offset("noprox")
        matched = 0
        for doc in index.documents.values():
            bm25 = oracles.bm25_document(doc.tokens, query, index.stats)
            cos = oracles.cosine_document(doc.tokens, query, index.stats)
            for _ in range(2):  # builds the state, then reads it
                got = document_scores(doc, query, index.stats, TRAIN_RANK_LAYOUT)
                assert got.get(offset, 0.0) == bm25, doc.doc_id
                assert got.get(offset + 1, 0.0) == cos, doc.doc_id
            assert index.stats.term_states[doc.doc_id].tokens is doc.tokens
            matched += bool(oracles.phrase_starts_brute(doc.tokens, query.terms[0].tokens))
        assert matched

    def test_several_phrases_add_to_the_cached_unigram_norm_in_order(self):
        # With two or more matched phrases, adding them to the cached total
        # rounds differently from one sum over unigrams then phrases.
        rng = np.random.default_rng(5)
        vocab = ("a", "b", "c", "d", "e", "f")
        documents = [
            Document(doc_id=f"d{k}", tokens=tuple(rng.choice(vocab, int(rng.integers(20, 60)))))
            for k in range(40)
        ]
        index = documents_to_index(documents)
        query = Query("q", [QueryTerm("a b"), QueryTerm("c d"), QueryTerm("e f a"), QueryTerm("b")])
        for term in query.distinct_terms():
            index.phrase_df(term.tokens)
        offset = TRAIN_RANK_LAYOUT.family_offset("noprox")
        for doc in index.documents.values():
            cos = oracles.cosine_document(doc.tokens, query, index.stats)
            for _ in range(2):
                got = document_scores(doc, query, index.stats, TRAIN_RANK_LAYOUT)
                assert got.get(offset + 1, 0.0) == cos, doc.doc_id

    def test_each_phrase_is_scanned_once_per_call(self, data_dir, monkeypatch):
        index = self._fresh_index(data_dir)
        # Two distinct phrases, one of them twice, and a unigram.
        query = Query(
            "q", [QueryTerm("programming language"), QueryTerm("was created"),
                  QueryTerm("programming language"), QueryTerm("python")]
        )
        for term in query.distinct_terms():
            index.phrase_df(term.tokens)
        scanned = []

        def counting(tokens, phrase, candidates):
            scanned.append(tuple(phrase))
            return phrase_starts(tokens, phrase, candidates)

        monkeypatch.setattr(features, "phrase_starts", counting)
        for doc in index.documents.values():
            for _ in range(2):  # builds the state, then reads it
                document_scores(doc, query, index.stats, TRAIN_RANK_LAYOUT)
                assert sorted(scanned) == [("programming", "language"), ("was", "created")]
                scanned.clear()

    def test_other_document_under_an_indexed_id_gets_its_own_state(
        self, data_dir, fixture_queries
    ):
        index = self._fresh_index(data_dir)
        query = fixture_queries[0]
        indexed = index.documents["d01"]
        other = Document(doc_id="d01", tokens=("python", "was", "created", "python"))
        want = {
            id(doc): (
                oracles.bm25_document(doc.tokens, query, index.stats),
                oracles.cosine_document(doc.tokens, query, index.stats),
            )
            for doc in (indexed, other)
        }
        assert want[id(indexed)] != want[id(other)]
        offset = TRAIN_RANK_LAYOUT.family_offset("noprox")
        for doc in (indexed, other, indexed, other, other, indexed):
            got = document_scores(doc, query, index.stats, TRAIN_RANK_LAYOUT)
            assert (got.get(offset, 0.0), got.get(offset + 1, 0.0)) == want[id(doc)]

    def test_nothing_built_at_ingest_or_for_layouts_without_noprox(
        self, data_dir, fixture_queries
    ):
        index = self._fresh_index(data_dir)
        assert index.stats.term_states == {}
        for layout in (FeatureLayout(families=("pad",)), FeatureLayout(families=("grid",))):
            for query in fixture_queries:
                for contexts in find_candidates(index, query).support.values():
                    self._assert_matches_oracle(index, query, contexts, layout)
        assert index.stats.term_states == {}
        query = fixture_queries[0]
        contexts = find_candidates(index, query).support["guido"]
        context_matrix(index, query, contexts, TRAIN_RANK_LAYOUT)
        assert set(index.stats.term_states) == {ctx.doc_id for ctx in contexts}

    def test_train_rank_shaped_corpus(self):
        # The benchmark's train-rank generator settings, with fewer queries
        # and documents: long filler documents and 16 judged entities.
        params = SynthParams(
            num_queries=4, num_docs=8, num_filler_docs=12, filler_len=384,
            num_good=8, num_bad=8, count_skew=0.1, rarity_skew=0.1, proximity_skew=0.2,
        )
        documents, queries, _ = generate_synthetic(params, seed=101)
        index = documents_to_index(documents)
        retrieval = RetrievalConfig(window=30)
        for query in queries:
            for contexts in find_candidates(index, query, retrieval).support.values():
                self._assert_matches_oracle(index, query, contexts, TRAIN_RANK_LAYOUT)
        assert len(index.stats.term_states) > 1


def _random_case(rng):
    """A small random corpus with overlapping mentions and a query with
    phrases, repeated terms and, now and then, two texts that split into
    one token tuple ("a b" and "a  b")."""
    vocab = ("a", "b", "c", "d", "e")
    documents = []
    for k in range(int(rng.integers(1, 7))):
        n = int(rng.integers(1, 80))
        draws = rng.choice(len(vocab), size=n, p=(0.35, 0.3, 0.15, 0.12, 0.08))
        tokens = tuple(vocab[i] for i in draws)
        mentions = []
        for _ in range(int(rng.integers(0, 8))):
            start = int(rng.integers(0, n))
            end = min(n, start + int(rng.integers(1, 5)))
            mentions.append(Mention(f"e{rng.integers(0, 5)}", start, end))
        documents.append(Document(f"d{k}", tokens, tuple(mentions)))
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        r = rng.random()
        if r < 0.3:
            text = " ".join(vocab[i] for i in rng.integers(0, 3, int(rng.integers(2, 4))))
        elif r < 0.45 and terms:
            text = terms[int(rng.integers(0, len(terms)))].text  # a repeated term
        else:
            text = vocab[int(rng.integers(0, len(vocab)))]
        terms.append(QueryTerm(text))
    if rng.random() < 0.4:
        k = int(rng.integers(0, len(terms) + 1))
        terms[k:k] = [QueryTerm("a b"), QueryTerm("a  b")]
    return documents_to_index(documents), Query("q", terms)


def _random_layout(rng, families):
    """Random boundaries, so that matches clamp on both grid axes."""
    distances = rng.choice(np.arange(1, 21), int(rng.integers(1, 6)), replace=False)
    fractions = rng.choice(np.arange(1, 11) / 10, int(rng.integers(1, 6)), replace=False)
    return FeatureLayout(
        families=families,
        distance_boundaries=tuple(sorted(int(d) for d in distances)),
        idf_fraction_boundaries=tuple(sorted(float(f) for f in fractions)),
    )


ALL_MIXES = [
    mix for r in range(1, len(FAMILY_ORDER) + 1) for mix in itertools.combinations(FAMILY_ORDER, r)
]


class TestQueryScopedFeaturizer:
    """``context_matrix`` builds the query's constants once and hands them
    to every ``document_scores`` call; the rows must keep the bits of the
    dict oracle, for every family mix."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora_every_family_mix(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = shared = 0
        for _ in range(12):
            index, query = _random_case(rng)
            config = RetrievalConfig(window=int(rng.integers(1, 12)))
            support = find_candidates(index, query, config).support
            contexts = [ctx for eid in support for ctx in support[eid]]
            shared += len({t.tokens for t in query.terms}) < len({t.text for t in query.terms})
            params = Bm25Params(k1=float(rng.uniform(0.0, 3.0)), b=float(rng.uniform(0.0, 1.0)))
            for mix in ALL_MIXES:
                layout = _random_layout(rng, mix)
                got = context_matrix(index, query, contexts, layout, params)
                want = oracles.feature_stack(index, query, contexts, layout, params.k1, params.b)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (seed, mix, [t.text for t in query.terms])
                rows += len(contexts)
        assert rows > 500 and shared > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_lone_document_scores_call_equals_its_row(self, seed):
        rng = np.random.default_rng(400 + seed)
        checked = 0
        for _ in range(15):
            index, query = _random_case(rng)
            support = find_candidates(index, query, RetrievalConfig(window=8)).support
            contexts = [ctx for eid in support for ctx in support[eid]]
            for mix in ALL_MIXES:
                layout = _random_layout(rng, mix)
                rows = context_matrix(index, query, contexts, layout)
                whole = [
                    layout.family_offset(family) + k
                    for family in ("noprox", "pad")
                    if layout.has(family)
                    for k in range(layout.family_size(family))
                ]
                for row, ctx in zip(rows, contexts):
                    alone = document_scores(index.documents[ctx.doc_id], query, index.stats, layout)
                    dense = features.to_dense(alone, layout.dimension)
                    assert dense[whole].tobytes() == row[whole].tobytes()
                    assert set(alone) <= set(whole)
                    checked += 1
        assert checked > 100

    def test_shared_token_tuple_keeps_the_later_weight_at_the_first_key(self):
        # Cosine keys query weights by token tuple: "a b" and "a  b" share
        # one key, at the first one's position, with the last one's weight.
        documents = [
            Document("d0", ("a", "b", "c", "a", "b", "x")),
            Document("d1", ("c", "d", "a", "b")),
            Document("d2", ("d", "d", "c")),
        ]
        index = documents_to_index(documents)
        query = Query("q", [QueryTerm("a b"), QueryTerm("c"), QueryTerm("a  b"), QueryTerm("a  b")])
        for term in query.distinct_terms():
            index.phrase_df(term.tokens)
        layout = FeatureLayout(families=("noprox",))
        for doc in documents:
            got = document_scores(doc, query, index.stats, layout)
            assert got.get(0, 0.0) == oracles.bm25_document(doc.tokens, query, index.stats)
            assert got.get(1, 0.0) == oracles.cosine_document(doc.tokens, query, index.stats)
            assert cosine_score(doc.tokens, query, index.stats) == got.get(1, 0.0)

    def test_bucket_range_checks_keep_their_messages(self, fixture_index):
        # The first match out of range, in match order, raises the error
        # FeatureLayout.idf_bucket or distance_bucket would raise for it.
        query = Query("q", [QueryTerm("python")])
        ctx = find_candidates(fixture_index, query).support["guido"][0]
        rare = max(fixture_index.stats.df, key=lambda tok: -fixture_index.stats.df[tok])
        assert compute_idf(fixture_index.stats, rare) > compute_idf(fixture_index.stats, query)
        def bad(matches):
            return Context(ctx.doc_id, ctx.entity_id, ctx.mention_offset, ctx.window, matches)

        with pytest.raises(FeatureError, match=r"^distance must be >= 1, got 0$"):
            context_matrix(fixture_index, query, [ctx, bad({"python": 0, rare: 3})], SMALL)
        with pytest.raises(FeatureError, match=r"^IDF fraction out of range: "):
            context_matrix(fixture_index, query, [ctx, bad({rare: 2, "python": 0})], SMALL)
