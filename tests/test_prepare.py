"""One preparation path: every query is retrieved, featurized with one
``context_matrix`` call and stacked once.

``oracles.prepare_per_entity`` is the per-entity preparation this path
replaced.  Every prepared query must equal it bit for bit: same entity
ids, judged indices, offsets and stack bytes.
"""

import dataclasses

import numpy as np
import pytest

from proxrank import features
from proxrank.aggregators import macdonald_features
from proxrank.corpus import (
    BEST_PER_DOCUMENT,
    PER_MENTION,
    Judgments,
    Query,
    QueryTerm,
    RetrievalConfig,
    find_candidates,
)
from proxrank.features import FeatureLayout
from proxrank.synth import SynthParams, generate_synthetic
from proxrank.training import prepare_macdonald, prepare_queries

import oracles
from test_index_reads import random_corpus, random_query
from util import documents_to_index

LAYOUTS = (
    FeatureLayout(),
    FeatureLayout(families=("noprox", "idfupto", "grid", "rectangle", "pad")),
    FeatureLayout(families=("idfupto",), distance_boundaries=(1, 3, 9)),
    FeatureLayout(families=("noprox",)),
)
# The train-rank benchmark's corpus shape, with fewer queries and documents.
TRAIN_RANK_SHAPE = SynthParams(
    num_queries=8,
    num_docs=16,
    num_filler_docs=20,
    filler_len=384,
    num_good=8,
    num_bad=8,
    count_skew=0.1,
    rarity_skew=0.1,
    proximity_skew=0.2,
)


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.query_id == w.query_id
        assert g.entity_ids == w.entity_ids
        assert (g.good, g.bad) == (w.good, w.bad)
        assert (g.judged_good, g.judged_bad) == (w.judged_good, w.judged_bad)
        assert g.offsets.dtype == w.offsets.dtype and np.array_equal(g.offsets, w.offsets)
        assert g.stack.dtype == w.stack.dtype and g.stack.shape == w.stack.shape
        assert g.stack.tobytes() == w.stack.tobytes()


def random_judgments(rng, queries):
    good, bad = {}, {}
    for query in queries:
        labels = rng.integers(0, 3, 6)  # 0 unjudged, 1 good, 2 bad
        good[query.query_id] = frozenset(f"e{e}" for e in np.flatnonzero(labels == 1))
        bad[query.query_id] = frozenset(f"e{e}" for e in np.flatnonzero(labels == 2))
    return Judgments(good=good, bad=bad)


@pytest.fixture(scope="module")
def train_rank_data():
    documents, queries, judgments = generate_synthetic(TRAIN_RANK_SHAPE, seed=101)
    return documents_to_index(documents), queries, judgments


class TestAgainstPerEntity:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fixture(self, fixture_index, fixture_queries, fixture_qrels, layout):
        args = (fixture_index, fixture_queries, fixture_qrels, layout)
        got = prepare_queries(*args)
        assert_same(got, oracles.prepare_per_entity(*args))
        assert sum(pq.stack.shape[0] for pq in got) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(200 + seed)
        rows = 0
        for _ in range(25):
            _, index = random_corpus(rng)
            queries = [
                dataclasses.replace(random_query(rng), query_id=f"q{k}")
                for k in range(int(rng.integers(1, 4)))
            ]
            judgments = random_judgments(rng, queries)
            layout = LAYOUTS[int(rng.integers(0, len(LAYOUTS)))]
            for granularity in (PER_MENTION, BEST_PER_DOCUMENT):
                window = int(rng.integers(1, 16))
                retrieval = RetrievalConfig(window=window, granularity=granularity)
                got = prepare_queries(index, queries, judgments, layout, retrieval)
                want = oracles.prepare_per_entity(index, queries, judgments, layout, retrieval)
                assert_same(got, want)
                rows += sum(pq.stack.shape[0] for pq in got)
        assert rows > 100

    def test_train_rank_shaped_corpus(self, train_rank_data):
        index, queries, judgments = train_rank_data
        retrieval = RetrievalConfig(window=30)
        got = prepare_queries(index, queries, judgments, FeatureLayout(), retrieval)
        want = oracles.prepare_per_entity(index, queries, judgments, FeatureLayout(), retrieval)
        assert_same(got, want)
        assert all(pq.trainable for pq in got)

    def test_query_without_candidates(self, fixture_index, fixture_qrels):
        query = Query("none", [QueryTerm("zzzz")])
        args = (fixture_index, [query], fixture_qrels, FeatureLayout())
        [pq] = prepare_queries(*args)
        assert pq.entity_ids == () and pq.stack.shape == (0, 0)
        assert pq.offsets.tolist() == [0]
        assert_same([pq], oracles.prepare_per_entity(*args))


class TestMacdonald:
    def test_fixture_rows(self, fixture_index, fixture_queries, fixture_qrels):
        prepared = prepare_macdonald(fixture_index, fixture_queries, fixture_qrels)
        assert [pq.query_id for pq in prepared] == [q.query_id for q in fixture_queries]
        for pq, query in zip(prepared, fixture_queries):
            support = find_candidates(fixture_index, query).support
            rows = macdonald_features(fixture_index, query, support)
            ids = sorted(rows)
            assert ids and pq.entity_ids == tuple(ids)
            assert pq.offsets.tolist() == list(range(len(ids) + 1))
            assert pq.stack.tobytes() == np.vstack([rows[e] for e in ids]).tobytes()
            good = fixture_qrels.good_for(query.query_id)
            assert pq.good == tuple(k for k, e in enumerate(ids) if e in good)


class TestDocumentScoresCalls:
    @staticmethod
    def count_calls(monkeypatch, prepare):
        calls = []
        real = features.document_scores

        def counting(document, query, *args, **kwargs):
            calls.append((query.query_id, document.doc_id))
            return real(document, query, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(features, "document_scores", counting)
            prepare()
        return calls

    def test_once_per_query_and_document(self, monkeypatch, train_rank_data):
        index, queries, judgments = train_rank_data
        retrieval = RetrievalConfig(window=30)
        args = (index, queries, judgments, FeatureLayout(), retrieval)
        calls = self.count_calls(monkeypatch, lambda: prepare_queries(*args))
        held = {
            (query.query_id, ctx.doc_id)
            for query in queries
            for contexts in find_candidates(index, query, retrieval).support.values()
            for ctx in contexts
        }
        assert len(calls) == len(set(calls)) and set(calls) == held
        # Entities share documents here, so scoring per entity repeats pairs.
        per_entity = self.count_calls(monkeypatch, lambda: oracles.prepare_per_entity(*args))
        assert set(per_entity) == held and len(per_entity) > len(calls)
