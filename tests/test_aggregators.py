"""Aggregation operators, voting fusion, and the language-model baselines."""

import math

import numpy as np
import pytest

from proxrank.aggregators import (
    AggregationError,
    AggregatorSpec,
    TransformError,
    VOTING_FEATURE_NAMES,
    aggregate_gradient,
    aggregate_score,
    balog2_score,
    macdonald_features,
    petkova_score,
    positional_term_distribution,
    rank_deciles,
    segment_deciles,
    transform_eval,
    transform_value,
    voting_aggregates,
)
from proxrank.corpus import Query, QueryTerm, find_candidates
from proxrank.features import bm25_score

import oracles

NAMED = ("sum", "avg", "softmax", "softcount", "softor")


def random_instance(rng, max_contexts=10, dimension=6, scale=1.0):
    n = int(rng.integers(1, max_contexts + 1))
    F = scale * rng.random((n, dimension))
    w = scale * rng.random(dimension)
    return w, F


class TestTransforms:
    def test_values(self):
        assert transform_value("identity", 2.5) == 2.5
        assert transform_value("exp", 1.0) == pytest.approx(math.e, rel=1e-15)
        assert transform_value("log1p", 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert transform_value("indicator", 0.3) == 1.0
        assert transform_value("indicator", 0.0) == 0.0

    def test_exp_is_clamped(self):
        assert np.isfinite(transform_value("exp", 1e9))

    def test_log1p_domain(self):
        with pytest.raises(TransformError):
            transform_value("log1p", -1.0)

    def test_indicator_has_no_derivative(self):
        with pytest.raises(TransformError, match="indicator"):
            transform_eval("indicator", 1.0)

    def test_derivatives(self):
        value, deriv = transform_eval("exp", 0.5)
        assert deriv == value
        value, deriv = transform_eval("log1p", 1.0)
        assert deriv == pytest.approx(0.5, rel=1e-15)


class TestSpec:
    def test_named_configurations(self):
        assert AggregatorSpec.from_name("softmax") == AggregatorSpec("sum", "exp")
        assert AggregatorSpec.from_name("softcount") == AggregatorSpec("sum", "log1p")
        assert AggregatorSpec.from_name("count") == AggregatorSpec("sum", "indicator")
        for name in NAMED + ("count",):
            assert AggregatorSpec.from_name(name).name == name

    def test_softcutoff_requires_valid_decay(self):
        with pytest.raises(AggregationError):
            AggregatorSpec("softcutoff", "identity", None)
        with pytest.raises(AggregationError):
            AggregatorSpec("softcutoff", "identity", (1.0,) * 9)
        with pytest.raises(AggregationError, match="non-increasing"):
            AggregatorSpec("softcutoff", "identity", (0.1,) * 9 + (0.2,))
        with pytest.raises(AggregationError, match="non-negative"):
            AggregatorSpec("softcutoff", "identity", (-1.0,) + (0.0,) * 9)
        AggregatorSpec("softcutoff", "identity", tuple(float(10 - k) for k in range(10)))

    def test_decay_rejected_elsewhere(self):
        with pytest.raises(AggregationError):
            AggregatorSpec("sum", "identity", (1.0,) * 10)


class TestRankDeciles:
    def test_two_contexts_split_at_the_median(self):
        assert rank_deciles(np.array([5.0, 3.0])).tolist() == [0, 5]
        assert rank_deciles(np.array([3.0, 5.0])).tolist() == [5, 0]

    def test_ten_contexts_cover_all_deciles(self):
        scores = np.arange(10, 0, -1, dtype=float)
        assert rank_deciles(scores).tolist() == list(range(10))

    def test_ties_break_by_original_index(self):
        deciles = rank_deciles(np.array([1.0, 1.0]))
        assert deciles.tolist() == [0, 5]

    def test_large_support_clamps_to_last_decile(self):
        deciles = rank_deciles(-np.arange(25, dtype=float))
        assert deciles.min() == 0
        assert deciles.max() == 9

    def test_segment_deciles_match_per_segment_rank_deciles(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            counts = rng.integers(1, 25, size=int(rng.integers(1, 8)))
            offsets = np.concatenate([[0], np.cumsum(counts)])
            # few distinct values, so most segments contain ties
            s = rng.integers(-2, 3, size=offsets[-1]).astype(float)
            want = np.concatenate(
                [rank_deciles(s[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
            )
            assert segment_deciles(s, offsets).tolist() == want.tolist()


class TestAggregateScore:
    @pytest.mark.parametrize("name", NAMED)
    def test_matches_direct_definition(self, name):
        rng = np.random.default_rng(1234)
        spec = AggregatorSpec.from_name(name)
        for _ in range(200):
            w, F = random_instance(rng)
            got = aggregate_score(spec, w, F)
            want = oracles.aggregate(spec.operator, spec.transform, list(F @ w))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_count_equals_support_size(self):
        rng = np.random.default_rng(7)
        spec = AggregatorSpec.from_name("count")
        w, F = random_instance(rng, scale=1.0)
        assert aggregate_score(spec, w, F) == F.shape[0]

    def test_softcutoff_matches_direct_definition(self):
        rng = np.random.default_rng(99)
        decay = tuple(float(x) for x in np.linspace(1.0, 0.0, 10))
        spec = AggregatorSpec("softcutoff", "identity", decay)
        for _ in range(100):
            w, F = random_instance(rng)
            got = aggregate_score(spec, w, F)
            want = oracles.aggregate("softcutoff", "identity", list(F @ w), decay=decay)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_permutation_returns_identical_bits(self):
        rng = np.random.default_rng(5)
        for name in NAMED:
            spec = AggregatorSpec.from_name(name)
            w, F = random_instance(rng, max_contexts=8)
            base = aggregate_score(spec, w, F)
            for _ in range(10):
                perm = rng.permutation(F.shape[0])
                assert aggregate_score(spec, w, F[perm]) == base

    def test_empty_matrix_rejected(self):
        spec = AggregatorSpec.from_name("sum")
        with pytest.raises(AggregationError):
            aggregate_score(spec, np.ones(3), np.zeros((0, 3)))

    def test_width_mismatch_rejected(self):
        spec = AggregatorSpec.from_name("sum")
        with pytest.raises(AggregationError):
            aggregate_score(spec, np.ones(3), np.ones((2, 4)))


class TestSoftOr:
    def test_matches_product_form(self):
        rng = np.random.default_rng(42)
        spec = AggregatorSpec.from_name("softor")
        for _ in range(200):
            w, F = random_instance(rng, scale=2.0)
            got = aggregate_score(spec, w, F)
            want = oracles.aggregate("softor", "identity", list(F @ w))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_stays_below_one_even_for_huge_scores(self):
        spec = AggregatorSpec.from_name("softor")
        F = np.full((50, 2), 1e3)
        w = np.array([1.0, 1.0])
        value = aggregate_score(spec, w, F)
        assert 0.0 <= value < 1.0

    def test_adding_a_context_never_decreases_the_score(self):
        rng = np.random.default_rng(31)
        spec = AggregatorSpec.from_name("softor")
        for _ in range(100):
            w, F = random_instance(rng, max_contexts=6, scale=2.0)
            extra = rng.random((1, F.shape[1])) * 2.0
            bigger = aggregate_score(spec, w, np.vstack([F, extra]))
            assert bigger >= aggregate_score(spec, w, F)

    def test_gradient_uses_the_product_rule(self):
        # d/ds_x [1 - prod(1 - sig)] = sig(s_x) * prod_{y != x}(1 - sig(s_y))
        rng = np.random.default_rng(8)
        spec = AggregatorSpec.from_name("softor")
        for _ in range(50):
            w, F = random_instance(rng, max_contexts=6)
            got = aggregate_gradient(spec, w, F)
            fd = oracles.fd_gradient(lambda v: aggregate_score(spec, v, F), w)
            assert np.allclose(got, fd, rtol=1e-5, atol=1e-8)


class TestAggregateGradient:
    @pytest.mark.parametrize("name", NAMED)
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(2024)
        spec = AggregatorSpec.from_name(name)
        for _ in range(50):
            w, F = random_instance(rng)
            got = aggregate_gradient(spec, w, F)
            fd = oracles.fd_gradient(lambda v: aggregate_score(spec, v, F), w)
            assert np.allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_softcutoff_gradient_holds_deciles_fixed(self):
        rng = np.random.default_rng(77)
        decay = tuple(float(x) for x in np.linspace(1.0, 0.1, 10))
        spec = AggregatorSpec("softcutoff", "identity", decay)
        w, F = random_instance(rng, max_contexts=8)
        got = aggregate_gradient(spec, w, F)
        deciles = rank_deciles(F @ w)
        want = F.T @ np.asarray(decay)[deciles]
        assert np.allclose(got, want, rtol=1e-12)

    def test_count_gradient_rejected(self):
        spec = AggregatorSpec.from_name("count")
        with pytest.raises(TransformError):
            aggregate_gradient(spec, np.ones(2), np.ones((3, 2)))


class TestVoting:
    def test_expcombmnz_frozen_example(self):
        # Two contexts scoring ln 2 and ln 3: 2 * (2 + 3) = 10.
        agg = voting_aggregates([math.log(2.0), math.log(3.0)], 2)
        assert agg["expcombmnz"] == pytest.approx(10.0, rel=1e-12)

    def test_matches_direct_definitions(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scores = list(rng.normal(size=rng.integers(1, 12)))
            agg = voting_aggregates(scores, len(scores))
            want = oracles.voting(scores)
            for key in VOTING_FEATURE_NAMES:
                assert agg[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12)

    def test_macdonald_rows_are_window_bm25_fusion(self, fixture_index):
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        rows = macdonald_features(fixture_index, query, cand.support)
        assert set(rows) == set(cand.support)
        for eid, contexts in cand.support.items():
            scores = []
            for ctx in contexts:
                lo, hi = ctx.window
                tokens = fixture_index.documents[ctx.doc_id].tokens[lo:hi]
                scores.append(bm25_score(tokens, query, fixture_index.stats))
            want = oracles.voting(scores)
            for k, key in enumerate(VOTING_FEATURE_NAMES):
                assert rows[eid][k] == pytest.approx(want[key], rel=1e-10)


class TestBalog:
    def test_collection_only_smoothing(self, fixture_index):
        # With smoothing 1.0 every context scores prod_t cf_t / collection_len.
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        stats = fixture_index.stats
        clen = stats.collection_len
        per_context = (stats.cf["created"] / clen) * (stats.cf["python"] / clen)
        for eid, contexts in cand.support.items():
            got = balog2_score(fixture_index, query, contexts, smoothing=1.0)
            assert got == pytest.approx(len(contexts) * per_context, rel=1e-12)

    def test_window_slice_likelihood(self, fixture_index):
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        contexts = cand.support["guido"]
        stats = fixture_index.stats
        want = 0.0
        for ctx in contexts:
            lo, hi = ctx.window
            tokens = fixture_index.documents[ctx.doc_id].tokens[lo:hi]
            p = 1.0
            for term in ("created", "python"):
                tf = sum(1 for t in tokens if t == term)
                p *= oracles.jelinek_mercer(tf, len(tokens), stats.cf[term], clen := stats.collection_len, 0.5)
            want += p
        got = balog2_score(fixture_index, query, contexts, smoothing=0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_probability_context_contributes_nothing(self, fixture_index):
        query = Query("q", [QueryTerm("zebra")])
        cand = find_candidates(fixture_index, Query("q", [QueryTerm("python")]))
        contexts = cand.support["python"][:1]
        # "zebra" never occurs: cf 0, so the unsmoothed part is 0 everywhere.
        assert balog2_score(fixture_index, query, contexts, smoothing=1.0) == 0.0

    def test_validation(self, fixture_index):
        query = Query("q", [QueryTerm("python")])
        with pytest.raises(AggregationError):
            balog2_score(fixture_index, query, [])
        cand = find_candidates(fixture_index, query)
        with pytest.raises(AggregationError):
            balog2_score(fixture_index, query, cand.support["python"], smoothing=1.5)


class TestPetkova:
    def test_positional_distribution_matches_direct_formula(self):
        tokens = ["a", "b", "a", "c", "b", "a"]
        got = positional_term_distribution(tokens, 2, 1.5, ["a", "b", "missing"])
        want = oracles.gaussian_position_lm(tokens, 2, 1.5, ["a", "b", "missing"])
        for term in want:
            assert got[term] == pytest.approx(want[term], rel=1e-12, abs=1e-15)

    def test_width_must_be_positive(self):
        with pytest.raises(AggregationError):
            positional_term_distribution(["a"], 0, 0.0, ["a"])

    def test_score_composes_smoothing_mean_and_product(self, fixture_index):
        query = Query("q1", [QueryTerm("created"), QueryTerm("python")])
        cand = find_candidates(fixture_index, query)
        contexts = cand.support["guido"]
        stats = fixture_index.stats
        clen = stats.collection_len
        want = 1.0
        for term in ("created", "python"):
            ps = []
            for ctx in contexts:
                tokens = list(fixture_index.documents[ctx.doc_id].tokens)
                positional = oracles.gaussian_position_lm(
                    tokens, ctx.mention_offset, 25.0, [term]
                )
                ps.append(0.5 * positional[term] + 0.5 * stats.cf[term] / clen)
            want *= sum(ps) / len(ps)
        got = petkova_score(fixture_index, query, contexts)
        assert got == pytest.approx(want, rel=1e-12)

    def test_phrases_decompose_into_tokens(self, fixture_index):
        phrase = Query("q", [QueryTerm("programming language")])
        unigrams = Query("q", [QueryTerm("programming"), QueryTerm("language")])
        cand = find_candidates(fixture_index, phrase)
        contexts = cand.support["guido"]
        assert petkova_score(fixture_index, phrase, contexts) == pytest.approx(
            petkova_score(fixture_index, unigrams, contexts), rel=1e-12
        )
