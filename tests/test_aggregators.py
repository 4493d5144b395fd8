"""Aggregation operators, voting fusion, and the language-model baselines."""

import math

import numpy as np
import pytest

from proxrank.aggregators import (
    OPERATORS,
    TRANSFORMS,
    AggregationError,
    AggregatorSpec,
    TransformError,
    VOTING_FEATURE_NAMES,
    aggregate_gradient,
    aggregate_score,
    balog2_score,
    context_scores,
    macdonald_features,
    petkova_score,
    positional_term_distribution,
    segment_deciles,
    transform_eval,
    voting_aggregates,
)
from proxrank.corpus import Query, QueryTerm, find_candidates
from proxrank.evaluation import rank_entities
from proxrank.features import bm25_score

import oracles

NAMED = ("sum", "avg", "softmax", "softcount", "softor")
DECAY = tuple(float(x) for x in np.linspace(1.0, 0.0, 10))
EVERY_OPERATOR = [AggregatorSpec.from_name(n) for n in NAMED + ("count",)] + [
    AggregatorSpec("softcutoff", "identity", DECAY)
]


def random_instance(rng, max_contexts=10, dimension=6, scale=1.0):
    n = int(rng.integers(1, max_contexts + 1))
    F = scale * rng.random((n, dimension))
    w = scale * rng.random(dimension)
    return w, F


def value(transform, a):
    return transform_eval(transform, a, derivative=False)[0]


def deciles(scores):
    return segment_deciles(scores, np.array([0, len(scores)]))


class TestTransforms:
    def test_values(self):
        assert value("identity", 2.5) == 2.5
        assert value("exp", 1.0) == pytest.approx(math.e, rel=1e-15)
        assert value("log1p", 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert value("indicator", 0.3) == 1.0
        assert value("indicator", 0.0) == 0.0

    def test_exp_is_clamped(self):
        assert np.isfinite(value("exp", 1e9))

    def test_log1p_domain(self):
        with pytest.raises(TransformError):
            value("log1p", -1.0)

    def test_indicator_value_without_its_derivative(self):
        assert transform_eval("indicator", 0.5, derivative=False) == (1.0, None)

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

    def test_names_of_every_operator_and_transform(self):
        names = {
            ("sum", "identity"): "sum",
            ("sum", "exp"): "softmax",
            ("sum", "log1p"): "softcount",
            ("sum", "indicator"): "count",
            ("avg", "identity"): "avg",
            ("avg", "exp"): "avg+exp",
            ("avg", "log1p"): "avg+log1p",
            ("avg", "indicator"): "avg+indicator",
        }
        for transform in TRANSFORMS:
            names["softor", transform] = "softor"
            names["softcutoff", transform] = "softcutoff"
        assert sorted(names) == sorted((o, t) for o in OPERATORS for t in TRANSFORMS)
        for (operator, transform), name in names.items():
            decay = DECAY if operator == "softcutoff" else None
            assert AggregatorSpec(operator, transform, decay).name == name
        for name in NAMED + ("count", "softcutoff"):
            decay = DECAY if name == "softcutoff" else None
            spec = AggregatorSpec.from_name(name, decay)
            assert spec.name == name
            assert AggregatorSpec.from_name(spec.name, decay) == spec

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
        assert deciles(np.array([5.0, 3.0])).tolist() == [0, 5]
        assert deciles(np.array([3.0, 5.0])).tolist() == [5, 0]

    def test_ten_contexts_cover_all_deciles(self):
        scores = np.arange(10, 0, -1, dtype=float)
        assert deciles(scores).tolist() == list(range(10))

    def test_ties_break_by_original_index(self):
        assert deciles(np.array([1.0, 1.0])).tolist() == [0, 5]

    def test_large_support_clamps_to_last_decile(self):
        got = deciles(-np.arange(25, dtype=float))
        assert got.min() == 0
        assert got.max() == 9

    def test_segment_deciles_match_per_segment_rank_deciles(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            counts = rng.integers(1, 25, size=int(rng.integers(1, 8)))
            offsets = np.concatenate([[0], np.cumsum(counts)])
            # few distinct values, so most segments contain ties
            s = rng.integers(-2, 3, size=offsets[-1]).astype(float)
            want = np.concatenate(
                [oracles.rank_deciles(s[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
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

    def test_offsets_must_cover_the_rows(self):
        spec = AggregatorSpec.from_name("sum")
        for offsets in ([0, 3], [1, 4], [0, 0, 4], [0, 3, 2, 4]):
            with pytest.raises(AggregationError, match="offsets"):
                aggregate_score(spec, np.ones(2), np.ones((4, 2)), offsets)


def random_wide(rng, scale=1.0):
    """An entity at full width: up to 60 contexts of up to 70 features."""
    n, d = int(rng.integers(1, 61)), int(rng.integers(1, 71))
    return scale * rng.random(d), scale * rng.random((n, d))


def random_stack(rng, n_entities):
    counts = rng.integers(1, 61, size=n_entities)
    d = int(rng.integers(1, 71))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return rng.random(d), rng.random((int(offsets[-1]), d)), offsets


def spec_id(spec):
    return spec.name


class TestOneScorer:
    """One row product and one sorted kernel, at the shapes real stacks have."""

    def test_row_product_ignores_position_and_memory_order(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            w, F = random_wide(rng)
            s = context_scores(w, F)
            a = int(rng.integers(0, F.shape[0]))
            assert context_scores(w, F[a : a + 2]).tobytes() == s[a : a + 2].tobytes()
            assert context_scores(w, np.asfortranarray(F)).tobytes() == s.tobytes()

    @pytest.mark.parametrize("spec", EVERY_OPERATOR, ids=spec_id)
    def test_permutation_returns_identical_bits_at_full_width(self, spec):
        rng = np.random.default_rng(103)
        for _ in range(150):
            w, F = random_wide(rng)
            base = aggregate_score(spec, w, F)
            for _ in range(3):
                assert aggregate_score(spec, w, F[rng.permutation(F.shape[0])]) == base

    @pytest.mark.parametrize("spec", EVERY_OPERATOR, ids=spec_id)
    def test_stacked_scores_equal_single_entity_scores(self, spec):
        rng = np.random.default_rng(107)
        for _ in range(40):
            w, F, offsets = random_stack(rng, int(rng.integers(1, 6)))
            stacked = aggregate_score(spec, w, F, offsets)
            single = [aggregate_score(spec, w, F[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
            assert stacked.tolist() == single

    @pytest.mark.parametrize("spec", EVERY_OPERATOR, ids=spec_id)
    def test_within_stated_ulps_of_the_former_scorer(self, spec):
        # Both sides sum the same sorted terms, so they differ only through
        # the row products: BLAS and vecdot add <= 70 non-negative products
        # in different orders, a relative difference of a few eps (measured
        # <= 3.3).  Sums of non-negative terms keep that relative size,
        # log1p and softor shrink it, and exp scales it by s: so 8 eps,
        # times max(1, max s) under exp (measured 2.6 and 1.7).
        rng = np.random.default_rng(109)
        eps = np.finfo(float).eps
        for _ in range(150):
            w, F = random_wide(rng, scale=0.3 if spec.operator == "softor" else 1.0)
            s = F @ w
            bound = 8 * eps * (max(1.0, float(s.max())) if spec.transform == "exp" else 1.0)
            want = oracles.entity_score(spec, w, F)
            assert abs(aggregate_score(spec, w, F) - want) <= bound * abs(want)

    @pytest.mark.parametrize("spec", EVERY_OPERATOR, ids=spec_id)
    def test_rankings_match_the_former_scorer_except_at_exact_ties(self, spec):
        rng = np.random.default_rng(113)
        ties = 0
        for _ in range(20):
            w, F, offsets = random_stack(rng, 8)
            # Append a row-permuted copy of entity 0: an exact tie by design.
            first = F[: offsets[1]]
            F = np.vstack([F, first[rng.permutation(first.shape[0])]])
            offsets = np.append(offsets, F.shape[0])
            ids = [f"e{k}" for k in range(offsets.shape[0] - 1)]
            new = dict(zip(ids, aggregate_score(spec, w, F, offsets).tolist()))
            old = {
                eid: oracles.entity_score(spec, w, F[a:b])
                for eid, a, b in zip(ids, offsets[:-1], offsets[1:])
            }
            ties += len(set(new.values())) < len(new)
            # Reordering entities inside a group of equal new scores is the
            # only freedom: the score sequences along both rankings agree.
            new_order = [new[e] for e, _ in rank_entities("q", new).items]
            old_order = [new[e] for e, _ in rank_entities("q", old).items]
            assert new_order == old_order
        assert ties == 20


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
        want = F.T @ np.asarray(decay)[oracles.rank_deciles(F @ w)]
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
