"""Retrieval and the language-model baselines read from the positional
index, checked against the document scanners they replaced.

``oracles.find_candidates_scan``, ``oracles.context_scan``,
``oracles.balog2_scan`` and ``oracles.petkova_scan`` visit every mention,
compare every occurrence and count every window and document token, and
build Petkova's kernel afresh for every context.  The package must return
the same contexts in the same order, and scores with the same bits
(compared through ``float.hex``).  The baseline rankers score a query's
whole support at once; ``oracles.count_per_entity`` and the per-entity
scanners are their references.
"""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

from proxrank import aggregators, corpus
from proxrank.aggregators import balog2_score, petkova_score, positional_term_distribution
from proxrank.cli import QueryCandidates, baseline_ranker
from proxrank.corpus import (
    BEST_PER_DOCUMENT,
    MentionGeometry,
    PER_MENTION,
    Context,
    Document,
    Mention,
    Query,
    QueryTerm,
    RetrievalConfig,
    extract_context,
    find_candidates,
    phrase_starts,
    read_queries,
    write_queries,
)
from proxrank.evaluation import rank_entities
from proxrank.features import Bm25Params
from proxrank.synth import SynthParams, generate_synthetic

import oracles
from util import documents_to_index

VOCAB = ("a", "b", "c", "d", "e")
VOCAB_P = (0.4, 0.3, 0.15, 0.1, 0.05)
TYPES = ("person", "place")


def random_mentions(rng, n):
    """Overlapping, nested, duplicate-offset and unsorted mention spans;
    now and then one much wider than the rest."""
    mentions = []
    for _ in range(int(rng.integers(0, 9))):
        start = int(rng.integers(0, n))
        width = int(rng.integers(1, 25)) if rng.random() < 0.1 else int(rng.integers(1, 6))
        mentions.append(Mention(f"e{rng.integers(0, 6)}", start, min(n, start + width)))
    for m in list(mentions):
        r = rng.random()
        if r < 0.2:  # same start, maybe another end and another entity
            end = min(n, m.start + int(rng.integers(1, 4)))
            mentions.append(Mention(f"e{rng.integers(0, 6)}", m.start, end))
        elif r < 0.35 and m.end - m.start > 2:
            mentions.append(Mention(f"e{rng.integers(0, 6)}", m.start + 1, m.end - 1))
    order = rng.permutation(len(mentions))
    return tuple(mentions[i] for i in order)


def random_corpus(rng):
    documents = []
    for k in range(int(rng.integers(1, 7))):
        n = int(rng.integers(1, 90))
        tokens = tuple(VOCAB[i] for i in rng.choice(len(VOCAB), size=n, p=VOCAB_P))
        documents.append(Document(f"d{k}", tokens, random_mentions(rng, n)))
    catalog = None
    if rng.random() < 0.6:
        catalog = [
            {"entity_id": f"e{e}", "types": [t for t in TYPES if rng.random() < 0.5]}
            for e in range(6)
        ]
    return documents, documents_to_index(documents, catalog)


def random_query(rng):
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.3:
            text = " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), int(rng.integers(2, 4))))
        elif rng.random() < 0.1:
            text = "zz"  # in no document
        else:
            text = VOCAB[int(rng.choice(len(VOCAB), p=VOCAB_P))]
        terms.append(QueryTerm(text, required=bool(rng.random() < 0.25)))
    target = TYPES[int(rng.integers(0, 2))] if rng.random() < 0.3 else None
    return Query("q", terms, target_type=target)


def listing(candidates):
    """Everything a candidate set holds, in its order, dict orders included."""
    return [(eid, [context_key(c) for c in ctxs]) for eid, ctxs in candidates.support.items()]


def context_key(ctx):
    if ctx is None:
        return None
    return (ctx.doc_id, ctx.entity_id, ctx.mention_offset, ctx.window, list(ctx.matches.items()))


def assert_scores_match(index, query, support, smoothing, width):
    for eid, contexts in support.items():
        got = balog2_score(index, query, contexts, smoothing=smoothing)
        want = oracles.balog2_scan(index, query, contexts, smoothing=smoothing)
        assert got.hex() == want.hex(), ("balog2", eid)
        got = petkova_score(index, query, contexts, kernel_width=width, smoothing=smoothing)
        want = oracles.petkova_scan(index, query, contexts, kernel_width=width, smoothing=smoothing)
        assert got.hex() == want.hex(), ("petkova", eid)


class TestAgainstScanners:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        contexts = 0
        for _ in range(40):
            documents, index = random_corpus(rng)
            query = random_query(rng)
            for granularity in (PER_MENTION, BEST_PER_DOCUMENT):
                config = RetrievalConfig(window=int(rng.integers(1, 16)), granularity=granularity)
                got = find_candidates(index, query, config)
                want = oracles.find_candidates_scan(index, query, config)
                assert got.query_id == want.query_id
                assert listing(got) == listing(want)
                contexts += sum(len(c) for c in got.support.values())
                smoothing = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
                width = float(rng.choice([0.5, 3.0, 25.0]))
                assert_scores_match(index, query, got.support, smoothing, width)
        assert contexts > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_extract_context(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(40):
            documents, _ = random_corpus(rng)
            query = random_query(rng)
            window = int(rng.integers(1, 16))
            for doc in documents:
                occurrences = {
                    t.text: (len(t.tokens), oracles.phrase_starts_brute(doc.tokens, t.tokens))
                    for t in query.distinct_terms()
                }
                for mention in doc.mentions:
                    got = extract_context(doc, mention, query, window)
                    want = oracles.context_scan(doc, mention, occurrences, window)
                    assert context_key(got) == context_key(want)

    def test_windows_clipped_as_slices(self):
        # Hand-built contexts may hold windows a retrieval never makes;
        # the counts follow the slice tokens[lo:hi].
        rng = np.random.default_rng(7)
        tokens = tuple(VOCAB[i] for i in rng.choice(len(VOCAB), size=30, p=VOCAB_P))
        index = documents_to_index([Document("d", tokens, (Mention("e", 3, 4),))])
        query = Query("q", [QueryTerm("a"), QueryTerm("b c"), QueryTerm("a")])
        windows = [
            (0, 30), (0, 1), (29, 30), (-5, 10), (-40, 40), (10, 5), (25, 99), (30, 31), (-3, -1)
        ]
        for window in windows:
            contexts = [Context("d", "e", 3, window, {"a": 1})]
            for smoothing in (0.0, 0.5):
                got = balog2_score(index, query, contexts, smoothing=smoothing)
                want = oracles.balog2_scan(index, query, contexts, smoothing=smoothing)
                assert got.hex() == want.hex(), (window, smoothing)

    def test_positional_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 120))
            tokens = [VOCAB[i] for i in rng.choice(len(VOCAB), size=n, p=VOCAB_P)]
            center = int(rng.integers(-10, n + 10))
            width = float(rng.choice([0.5, 1.0, 7.0, 25.0]))
            terms = ["a", "e", "zz", "a"]
            got = positional_term_distribution(tokens, center, width, terms)
            want = oracles.positional_distribution_scan(tokens, center, width, terms)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    @pytest.mark.parametrize("granularity", [PER_MENTION, BEST_PER_DOCUMENT])
    def test_baseline_read_shaped_corpus(self, granularity):
        index, queries = baseline_read_shaped()
        config = RetrievalConfig(window=30, granularity=granularity)
        contexts = 0
        for query in queries:
            got = find_candidates(index, query, config)
            assert listing(got) == listing(oracles.find_candidates_scan(index, query, config))
            assert_scores_match(index, query, got.support, 0.5, 25.0)
            contexts += sum(len(c) for c in got.support.values())
        assert contexts > 50


def baseline_read_shaped(seed=101, num_queries=8):
    """The benchmark's baseline-read generator settings with fewer queries
    and documents: long filler documents without mentions."""
    params = SynthParams(
        num_queries=num_queries, num_docs=16, num_filler_docs=24, filler_len=800,
        count_skew=0.1, rarity_skew=0.1, proximity_skew=0.2,
    )
    documents, queries, _ = generate_synthetic(params, seed=seed)
    return documents_to_index(documents), queries


class TestKernelTable:
    @pytest.mark.parametrize("width", [0.5, 1.0, 7.0, 25.0])
    def test_petkova_at_the_document_edges(self, width):
        # Centers at the first and the last position read the ends of the
        # table, and the retrieved contexts everything between.
        index, queries = baseline_read_shaped()
        config = RetrievalConfig(window=30)
        checked = 0
        for query in queries:
            support = find_candidates(index, query, config).support
            for eid, contexts in support.items():
                edges = [
                    Context(ctx.doc_id, eid, offset, ctx.window, ctx.matches)
                    for ctx in contexts
                    for offset in (0, len(index.documents[ctx.doc_id].tokens) - 1)
                ]
                for group in (edges, edges[:1], edges[1:2], contexts + edges):
                    got = petkova_score(index, query, group, kernel_width=width)
                    want = oracles.petkova_scan(index, query, group, kernel_width=width)
                    assert got.hex() == want.hex(), (query.query_id, eid)
                    checked += 1
        assert checked > 100

    def test_kernel_slices_match_a_fresh_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            length = int(rng.integers(1, 2100))
            center = int(rng.integers(-20, length + 20))
            width = float(rng.choice([0.5, 1.0, 7.0, 25.0, 333.0]))
            fresh = np.exp(-((np.arange(length, dtype=float) - center) ** 2) / (2 * width * width))
            kernel = aggregators._kernel(length, center, width)
            assert kernel.tobytes() == fresh.tobytes()
            assert float(kernel.sum()).hex() == float(fresh.sum()).hex()

    def test_table_cache_is_bounded_and_read_only(self):
        maxsize = aggregators._kernel_table.cache_info().maxsize
        assert maxsize is not None
        for k in range(3 * maxsize):
            length = 40 + 7 * k
            kernel = aggregators._kernel(length, k % length, 0.5 + k)
            assert kernel.base is not None and kernel.base.size <= 4 * length
            assert not kernel.flags.writeable and not kernel.base.flags.writeable
            with pytest.raises(ValueError):
                kernel[0] = 1.0
        assert aggregators._kernel_table.cache_info().currsize == maxsize


class TestBaselineRankers:
    def rankings_match(self, index, query, support):
        # Every baseline ranks a query's support at once; each entity's
        # score must keep the bits of a per-entity call.
        qc = QueryCandidates(query.query_id, query, support)
        bm25 = Bm25Params()
        want = {
            "count": oracles.count_per_entity(index, qc, bm25),
            "balog2": rank_entities(
                qc.query_id, {e: oracles.balog2_scan(index, query, c) for e, c in support.items()}
            ),
            "petkova": rank_entities(
                qc.query_id, {e: oracles.petkova_scan(index, query, c) for e, c in support.items()}
            ),
        }
        for name, ranking in want.items():
            got = baseline_ranker(name, index, bm25)(qc)
            assert got.query_id == ranking.query_id
            assert [(e, s.hex()) for e, s in got.items] == [
                (e, s.hex()) for e, s in ranking.items
            ], name
            assert all(type(s) is float for _, s in got.items)
        return len(support)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(200 + seed)
        entities = 0
        for _ in range(40):
            _, index = random_corpus(rng)
            query = random_query(rng)
            config = RetrievalConfig(window=int(rng.integers(1, 16)))
            entities += self.rankings_match(index, query, find_candidates(index, query, config).support)
        assert entities > 40

    def test_baseline_read_shaped_corpus(self):
        index, queries = baseline_read_shaped(seed=104, num_queries=12)
        entities = 0
        for query in queries:
            support = find_candidates(index, query, RetrievalConfig(window=30)).support
            entities += self.rankings_match(index, query, support)
        assert entities > 50

    @pytest.mark.parametrize("seed", range(3))
    def test_retrieved_contexts_are_scored_without_reading_the_postings(self, seed, monkeypatch):
        # Retrieval hands its read of every query token (a phrase's too)
        # to the contexts, so the language-model baselines score them in
        # any order, here after every query is retrieved, without a read.
        rng = np.random.default_rng(300 + seed)
        retrieved = []
        for _ in range(30):
            _, index = random_corpus(rng)
            query = random_query(rng)
            config = RetrievalConfig(window=int(rng.integers(1, 16)))
            retrieved.append((index, query, find_candidates(index, query, config).support))

        def no_read(*args):
            raise AssertionError("the postings were read again")

        monkeypatch.setattr(corpus.Postings, "term", no_read)
        monkeypatch.setattr(corpus.CorpusIndex, "term_postings", no_read)
        entities = 0
        for index, query, support in retrieved:
            for eid, contexts in support.items():
                got = balog2_score(index, query, contexts)
                assert got.hex() == oracles.balog2_scan(index, query, contexts).hex(), eid
                got = petkova_score(index, query, contexts)
                assert got.hex() == oracles.petkova_scan(index, query, contexts).hex(), eid
                entities += 1
        assert entities > 20

    def test_query_without_candidates(self):
        index = documents_to_index([Document("d", ("a", "b"), (Mention("e", 0, 1),))])
        qc = QueryCandidates("q", Query("q", [QueryTerm("zz")]), {})
        for name in ("count", "balog2", "petkova"):
            assert baseline_ranker(name, index)(qc).items == ()


class TestMentionGeometry:
    def test_kept_per_document_until_its_mentions_are_replaced(self):
        doc = Document("d", ("a", "b", "c", "a"), (Mention("e2", 3, 4), Mention("e1", 0, 2)))
        index = documents_to_index([doc])
        doc = index.documents["d"]
        geometry = index.mention_geometry(doc)
        assert (geometry.starts, geometry.order, geometry.reach) == ([0, 3], [1, 0], 2)
        assert index.mention_geometry(doc) is geometry
        doc.mentions = (Mention("e3", 1, 2),)
        assert index.mention_geometry(doc).mentions is doc.mentions
        assert MentionGeometry.of(()).reach == 0

    def test_replaced_mentions_change_what_retrieval_returns(self):
        index = documents_to_index([Document("d", ("x", "a", "y"), (Mention("e1", 1, 2),))])
        query = Query("q", [QueryTerm("a")])
        config = RetrievalConfig(window=2)
        assert list(find_candidates(index, query, config).support) == ["e1"]
        index.documents["d"].mentions = (Mention("e2", 0, 1), Mention("e3", 2, 3))
        assert list(find_candidates(index, query, config).support) == ["e2", "e3"]
        index.documents["d"].mentions = ()
        assert find_candidates(index, query, config).support == {}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_replacements(self, seed):
        rng = np.random.default_rng(300 + seed)
        changed = 0
        for _ in range(40):
            _, index = random_corpus(rng)
            query = random_query(rng)
            config = RetrievalConfig(window=int(rng.integers(1, 16)))
            before = listing(find_candidates(index, query, config))
            for doc in index.documents.values():
                doc.mentions = random_mentions(rng, len(doc.tokens))
            after = listing(find_candidates(index, query, config))
            assert after == listing(oracles.find_candidates_scan(index, query, config))
            changed += after != before
        assert changed > 10


class TestPhraseChecks:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_each_phrase_is_checked_once_per_first_token_document(self, warm, monkeypatch):
        # Building the candidate set and the contexts share one check of
        # each document the phrase's first token occurs in, and a cold
        # call caches the phrase's document frequency from that check.
        rng = np.random.default_rng(31)
        checked = []

        def counting(tokens, phrase, candidates):
            checked.append(tuple(phrase))
            return phrase_starts(tokens, phrase, candidates)

        monkeypatch.setattr(corpus, "phrase_starts", counting)
        total = 0
        for _ in range(60):
            documents, index = random_corpus(rng)
            query = random_query(rng)
            if warm:
                for term in query.distinct_terms():
                    index.phrase_df(term.tokens)
            checked.clear()
            config = RetrievalConfig(window=int(rng.integers(1, 16)))
            got = find_candidates(index, query, config)
            phrases = [t.tokens for t in query.distinct_terms() if t.is_phrase]
            want = Counter({p: len(index.term_starts(p[:1])) for p in phrases})
            assert Counter(checked) == +want
            total += len(checked)
            for p in phrases:
                brute = sum(bool(oracles.phrase_starts_brute(d.tokens, p)) for d in documents)
                assert index.stats.phrase_df[p] == brute
            assert listing(got) == listing(oracles.find_candidates_scan(index, query, config))
        assert total > 50


class TestPhrasesAtDocumentBoundaries:
    """The postings address one stream of every document's tokens, so a
    phrase's first tokens at the end of one document are followed there by
    the next document's opening tokens.  A phrase matches inside one
    document only."""

    @staticmethod
    def planted_corpus(rng):
        # Documents that end with a phrase's head, followed (now and then
        # past empty documents) by one that opens with its tail; mentions
        # sit at both sides of each boundary.
        phrase = tuple(VOCAB[i] for i in rng.integers(0, len(VOCAB), int(rng.integers(2, 4))))
        documents, last = [], None
        for k in range(int(rng.integers(2, 8))):
            if rng.random() < 0.15:
                documents.append([])
                continue
            n = int(rng.integers(0, 30))
            documents.append([VOCAB[i] for i in rng.choice(len(VOCAB), size=n, p=VOCAB_P)])
            if last is not None and rng.random() < 0.7:
                cut = int(rng.integers(1, len(phrase)))
                documents[last] += phrase[:cut]
                documents[k][:0] = phrase[cut:]
            last = k
        built = []
        for k, tokens in enumerate(documents):
            n = len(tokens)
            mentions = ()
            if n:
                mentions = random_mentions(rng, n) + (Mention("e0", 0, 1), Mention("e1", n - 1, n))
            built.append(Document(f"d{k}", tuple(tokens), mentions))
        return phrase, built, documents_to_index(built)

    @pytest.mark.parametrize("seed", range(4))
    def test_phrases_do_not_run_across_documents(self, seed):
        rng = np.random.default_rng(500 + seed)
        spanning = 0
        for _ in range(60):
            phrase, documents, index = self.planted_corpus(rng)
            stream = [tok for doc in documents for tok in doc.tokens]
            inside = sum(len(oracles.phrase_starts_brute(doc.tokens, phrase)) for doc in documents)
            spanning += len(oracles.phrase_starts_brute(stream, phrase)) - inside
            want = {
                doc.doc_id: oracles.phrase_starts_brute(doc.tokens, phrase)
                for doc in documents
                if oracles.phrase_starts_brute(doc.tokens, phrase)
            }
            assert index.term_starts(phrase) == want
            assert index.phrase_df(phrase) == len(want)
            for doc in documents:
                assert index.occurrences(doc.doc_id, phrase) == want.get(doc.doc_id, [])
            query = Query("q", [QueryTerm(" ".join(phrase), required=bool(rng.random() < 0.5))])
            if rng.random() < 0.5:
                query.terms.append(QueryTerm(VOCAB[int(rng.integers(0, len(VOCAB)))]))
            config = RetrievalConfig(window=int(rng.integers(1, 6)))
            got = find_candidates(index, query, config)
            assert listing(got) == listing(oracles.find_candidates_scan(index, query, config))
            assert_scores_match(index, query, got.support, 0.5, 3.0)
        assert spanning > 50  # the stream holds many matches no document does


class TestQueryTermTokens:
    def test_tokens_are_split_once(self):
        term = QueryTerm("new york")
        assert term.tokens == ("new", "york")
        assert term.tokens is term.tokens
        assert term.is_phrase and not QueryTerm("york").is_phrase

    def test_equality_hashing_and_repr_ignore_the_cached_tokens(self):
        seen, fresh = QueryTerm("new york", required=True), QueryTerm("new york", required=True)
        assert seen.tokens == ("new", "york")
        assert seen == fresh and hash(seen) == hash(fresh) and repr(seen) == repr(fresh)
        assert {fresh: 1}[seen] == 1
        assert seen != QueryTerm("new york") and seen != QueryTerm("new  york", required=True)
        assert dataclasses.astuple(seen) == ("new york", True)
        assert dataclasses.replace(seen, text="boston").tokens == ("boston",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            seen.text = "boston"

    def test_query_files_round_trip(self, tmp_path):
        queries = [
            Query("q1", [QueryTerm("new york", required=True), QueryTerm("city")], "place"),
            Query("q2", [QueryTerm("a"), QueryTerm("a")]),
        ]
        before = os.path.join(tmp_path, "before.jsonl")
        after = os.path.join(tmp_path, "after.jsonl")
        write_queries(queries, before)
        for query in queries:
            for term in query.terms:
                assert term.tokens
        write_queries(queries, after)
        with open(before) as fh, open(after) as gh:
            assert fh.read() == gh.read()
        back = read_queries(after)
        assert back == queries
        assert [t.tokens for t in back[0].terms] == [("new", "york"), ("city",)]


def dense_corpus(rng):
    """Long documents over four tokens, three of them common, so a query
    term occurs many times in one document, with many mentions of few
    entities, so most entities hold many contexts and a rare one few."""
    documents = []
    for k in range(int(rng.integers(2, 6))):
        n = int(rng.integers(20, 240))
        draws = rng.choice(4, size=n, p=(0.45, 0.3, 0.2, 0.05))
        tokens = tuple(("a", "b", "c", "d")[i] for i in draws)
        mentions = []
        for _ in range(int(rng.integers(1, 30))):
            start = int(rng.integers(0, n))
            width = int(rng.integers(1, 12)) if rng.random() < 0.1 else int(rng.integers(1, 4))
            entity = rng.choice(5, p=(0.4, 0.3, 0.2, 0.06, 0.04))
            mentions.append(Mention(f"e{entity}", start, min(n, start + width)))
        documents.append(Document(f"d{k}", tokens, tuple(mentions)))
    return documents_to_index(documents)


class TestDenseOccurrences:
    """Documents where one term occurs dozens of times and an entity has
    dozens of contexts: the mentions that occurrences reach are a union of
    many overlapping ranges, and both of the LM baselines' sums (in order
    below eight values, pairwise from eight) run."""

    @pytest.mark.parametrize("seed", range(4))
    def test_retrieval_and_baselines_against_the_scanners(self, seed):
        rng = np.random.default_rng(500 + seed)
        sizes = Counter()
        for _ in range(10):
            index = dense_corpus(rng)
            terms = [QueryTerm(t) for t in rng.choice(["a", "b", "c", "d", "b c", "a a"], 3)]
            query = Query("q", terms)
            for window in (1, 3, 12):
                config = RetrievalConfig(window=window)
                got = find_candidates(index, query, config)
                assert listing(got) == listing(oracles.find_candidates_scan(index, query, config))
                for eid, contexts in got.support.items():
                    sizes["contexts", len(contexts) >= aggregators._PAIRWISE_FROM] += 1
                    for ctx in contexts:
                        for read in ctx.starts.values():
                            found = len(read.get(ctx.doc_id, ()))
                            sizes["positions", found >= aggregators._PAIRWISE_FROM] += bool(found)
                for smoothing, width in ((0.5, 25.0), (0.1, 2.0), (1.0, 0.5)):
                    assert_scores_match(index, query, got.support, smoothing, width)
        assert min(sizes[kind, many] for kind in ("contexts", "positions") for many in (0, 1)) > 5

    def test_reachable_is_the_union_of_the_occurrence_ranges(self):
        # Each occurrence [p, p + length) reaches the mentions that start in
        # [p - window + 1 - reach, p + length - 1 + window], reach being the
        # widest span: every mention within the window, and maybe more.
        # reachable returns each such mention once, in document order.
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            mentions = random_mentions(rng, n)
            geometry = MentionGeometry.of(mentions)
            occurrences = []
            for _ in range(int(rng.integers(0, 4))):
                positions = rng.choice(n, int(rng.integers(0, n + 1)), replace=False)
                occurrences.append((int(rng.integers(1, 4)), sorted(positions.tolist())))
            window = int(rng.integers(1, 20))
            pairs = [(length, p) for length, positions in occurrences for p in positions]
            want = [
                m
                for m in mentions
                if any(
                    p - window + 1 - geometry.reach <= m.start <= p + length - 1 + window
                    for length, p in pairs
                )
            ]
            got = geometry.reachable(occurrences, window)
            assert got == want
            near = [
                m
                for m in mentions
                if any(
                    m.start <= p + length - 1 + window and m.end >= p - window + 1
                    for length, p in pairs
                )
            ]
            assert all(m in got for m in near)


def test_np_sum_adds_fewer_than_eight_values_in_order():
    # The LM baselines add short lists one by one and keep np.sum from
    # _PAIRWISE_FROM values on; that holds only while np.sum adds fewer
    # float64 values one by one, in order.
    rng = np.random.default_rng(0)
    assert aggregators._PAIRWISE_FROM == 8
    # A compensated sum (the built-in sum() from Python 3.12 on) gives
    # 1e16 + 2 here; one rounding per addition keeps 1e16.
    assert float(np.sum([1e16, 1.0, 1.0])) == 1e16
    assert aggregators._in_order_sum([1e16, 1.0, 1.0]) == 1e16
    for n in range(1, aggregators._PAIRWISE_FROM):
        for _ in range(2000):
            values = np.sort(rng.random(n) * 10.0 ** rng.integers(-8, 8, n))
            total = 0.0
            for v in values.tolist():
                total += v
            assert float(np.sum(values)).hex() == total.hex(), values.tolist()
            assert aggregators._sorted_total(values[::-1].tolist()).hex() == total.hex()
            assert aggregators._in_order_sum(values.tolist()).hex() == total.hex()
