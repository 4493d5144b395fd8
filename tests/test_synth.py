"""Synthetic corpus generator: determinism, structure, signal channels."""

import numpy as np
import pytest

from proxrank.corpus import RetrievalConfig, compute_idf, find_candidates
from proxrank.synth import SynthError, SynthParams, generate_synthetic

from util import documents_to_index

SMALL = SynthParams(num_queries=4, num_docs=6, num_filler_docs=20)


def build(params=SMALL, seed=0):
    documents, queries, judgments = generate_synthetic(params, seed=seed)
    index = documents_to_index(documents)
    return documents, queries, judgments, index


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        docs_a, queries_a, judg_a = generate_synthetic(SMALL, seed=5)
        docs_b, queries_b, judg_b = generate_synthetic(SMALL, seed=5)
        assert [d.tokens for d in docs_a] == [d.tokens for d in docs_b]
        assert [d.mentions for d in docs_a] == [d.mentions for d in docs_b]
        assert queries_a == queries_b
        assert judg_a.good == judg_b.good

    def test_different_seed_different_corpus(self):
        docs_a, _, _ = generate_synthetic(SMALL, seed=5)
        docs_b, _, _ = generate_synthetic(SMALL, seed=6)
        assert [d.tokens for d in docs_a] != [d.tokens for d in docs_b]


class TestStructure:
    def test_every_judged_entity_is_retrievable(self):
        _, queries, judgments, index = build()
        config = RetrievalConfig(window=SMALL.window)
        for query in queries:
            cand = find_candidates(index, query, config)
            judged = judgments.good_for(query.query_id) | judgments.bad_for(query.query_id)
            assert judged <= set(cand.entity_ids())
            for eid in judged:
                assert len(cand.support[eid]) >= SMALL.base_contexts

    def test_queries_do_not_share_candidates(self):
        _, queries, _, index = build()
        config = RetrievalConfig(window=SMALL.window)
        for query in queries:
            cand = find_candidates(index, query, config)
            prefix = query.query_id
            assert all(eid.startswith(prefix) for eid in cand.entity_ids())

    def test_filler_documents_carry_no_mentions(self):
        documents, _, _, _ = build()
        for doc in documents:
            if doc.doc_id.startswith("f"):
                assert doc.mentions == ()

    def test_rarity_ladder_orders_document_frequencies(self):
        _, queries, _, index = build()
        for query in queries:
            dfs = [index.stats.df.get(t.text, 0) for t in query.terms]
            assert dfs[0] > dfs[-1] > 0
            idfs = [compute_idf(index.stats, t.text) for t in query.terms]
            assert idfs == sorted(idfs)


class TestSignalChannels:
    def test_count_skew_separates_support_sizes(self):
        params = SynthParams(num_queries=4, num_docs=6, count_skew=1.0)
        _, queries, judgments, index = build(params)
        config = RetrievalConfig(window=params.window)
        for query in queries:
            cand = find_candidates(index, query, config)
            good = judgments.good_for(query.query_id)
            bad = judgments.bad_for(query.query_id)
            smallest_good = min(len(cand.support[e]) for e in good)
            largest_bad = max(len(cand.support[e]) for e in bad)
            assert smallest_good > largest_bad

    def test_zero_count_skew_keeps_sizes_exchangeable(self):
        _, queries, judgments, index = build()
        config = RetrievalConfig(window=SMALL.window)
        sizes = {True: [], False: []}
        for query in queries:
            cand = find_candidates(index, query, config)
            good = judgments.good_for(query.query_id)
            for eid in cand.entity_ids():
                sizes[eid in good].append(len(cand.support[eid]))
        lo, hi = SMALL.base_contexts, SMALL.base_contexts + SMALL.context_spread
        assert all(lo <= n <= hi for group in sizes.values() for n in group)

    def test_proximity_skew_separates_distances(self):
        params = SynthParams(num_queries=4, num_docs=6, proximity_skew=1.0)
        _, queries, judgments, index = build(params)
        config = RetrievalConfig(window=params.window)
        for query in queries:
            cand = find_candidates(index, query, config)
            good = judgments.good_for(query.query_id)
            bad = judgments.bad_for(query.query_id)
            good_distances = [
                d for e in good for ctx in cand.support[e] for d in ctx.matches.values()
            ]
            bad_distances = [
                d for e in bad for ctx in cand.support[e] for d in ctx.matches.values()
            ]
            assert max(good_distances) < min(bad_distances)

    def test_rarity_skew_shifts_matched_terms(self):
        params = SynthParams(num_queries=6, num_docs=6, rarity_skew=1.0)
        _, queries, judgments, index = build(params)
        config = RetrievalConfig(window=params.window)
        rare_share = {True: 0, False: 0}
        totals = {True: 0, False: 0}
        for query in queries:
            cand = find_candidates(index, query, config)
            good = judgments.good_for(query.query_id)
            rarest = query.terms[-1].text
            for eid in cand.entity_ids():
                for ctx in cand.support[eid]:
                    totals[eid in good] += 1
                    if rarest in ctx.matches:
                        rare_share[eid in good] += 1
        good_rate = rare_share[True] / totals[True]
        bad_rate = rare_share[False] / totals[False]
        assert good_rate > bad_rate + 0.2


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SynthError):
            SynthParams(num_queries=0)
        with pytest.raises(SynthError):
            SynthParams(terms_per_query=1)
        with pytest.raises(SynthError):
            SynthParams(count_skew=1.5)
        with pytest.raises(SynthError):
            SynthParams(max_distance=30, window=30)
        with pytest.raises(SynthError):
            SynthParams(base_contexts=0)

    def test_full_filler_document_raises_instead_of_hanging(self):
        # 3 queries x 3 terms each plant one term per filler document,
        # 9 terms for 8 slots: the ninth finds the document full.
        params = SynthParams(num_filler_docs=1, filler_len=8, num_queries=3)
        with pytest.raises(SynthError, match="f000 has no free slot"):
            generate_synthetic(params, seed=0)
