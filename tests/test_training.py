"""Pairwise objective, L-BFGS-B fitting and its stop record, model files, cutoff LP."""

import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.optimize
from scipy.special import expit

from proxrank.aggregators import NUM_DECILES, AggregatorSpec, aggregate_score, context_scores
from proxrank.features import FAMILY_ORDER, FeatureError, FeatureLayout
import proxrank.training
from proxrank.training import (
    CutoffModel,
    Model,
    PreparedQuery,
    TrainConfig,
    TrainingError,
    TrainingSet,
    cutoff_objective,
    load_model,
    model_scores,
    objective_and_gradient,
    pair_sample,
    prepare_queries,
    regularization,
    save_model,
    soft_hinge,
    select_ridge_width,
    train_model,
    train_soft_cutoff,
)

import oracles
from util import random_prepared

FULL = FeatureLayout(
    families=("noprox", "idfupto", "grid", "rectangle", "pad"),
    distance_boundaries=(2, 4, 8),
    idf_fraction_boundaries=(0.25, 0.5, 0.75, 1.0),
)


def default_config(**kwargs):
    return TrainConfig(**{"seed": 0, **kwargs})


class TestSoftHinge:
    def test_matches_formula(self):
        for a in (-3.0, -0.5, 0.0, 0.5, 3.0):
            value, deriv = soft_hinge(a)
            assert value == pytest.approx(math.log(1.0 + math.exp(a)), rel=1e-12)
            assert deriv == pytest.approx(1.0 / (1.0 + math.exp(-a)), rel=1e-12)

    def test_stable_for_large_arguments(self):
        value, deriv = soft_hinge(1000.0)
        assert value == pytest.approx(1000.0, rel=1e-12)
        assert deriv == 1.0
        value, deriv = soft_hinge(-1000.0)
        assert value == 0.0
        assert deriv == pytest.approx(0.0, abs=1e-300)

    def test_vectorized(self):
        values, derivs = soft_hinge(np.array([-1.0, 1.0]))
        assert values.shape == (2,)
        assert np.allclose(derivs, expit([-1.0, 1.0]))


class TestPairSample:
    def test_all_pairs_under_cap(self):
        gi, bi = pair_sample(3, 4, cap=12, seed=0, query_id="q")
        assert sorted(zip(gi.tolist(), bi.tolist())) == [
            (g, b) for g in range(3) for b in range(4)
        ]

    def test_subsample_is_deterministic_and_unique(self):
        gi1, bi1 = pair_sample(40, 40, cap=100, seed=3, query_id="q7")
        gi2, bi2 = pair_sample(40, 40, cap=100, seed=3, query_id="q7")
        assert np.array_equal(gi1, gi2) and np.array_equal(bi1, bi2)
        assert len(set(zip(gi1.tolist(), bi1.tolist()))) == 100

    def test_different_queries_draw_differently(self):
        a = pair_sample(40, 40, cap=100, seed=3, query_id="qa")
        b = pair_sample(40, 40, cap=100, seed=3, query_id="qb")
        assert not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))

    def test_empty_sides(self):
        gi, bi = pair_sample(0, 5, cap=10, seed=0, query_id="q")
        assert gi.size == 0 and bi.size == 0


class TestPreparedQuery:
    def test_offsets_and_segments(self):
        rng = np.random.default_rng(0)
        pq = PreparedQuery.from_matrices(
            "q",
            ["a", "b"],
            [rng.random((2, 3)), rng.random((3, 3))],
            judged_good=["a"],
            judged_bad=["b"],
        )
        assert pq.offsets.tolist() == [0, 2, 5]
        assert pq.good == (0,) and pq.bad == (1,)
        assert pq.trainable
        assert np.array_equal(pq.matrix(1), pq.stack[2:5])

    def test_entity_without_contexts_rejected(self):
        with pytest.raises(TrainingError, match="no context"):
            PreparedQuery.from_matrices("q", ["a"], [np.zeros((0, 3))])

    def test_overlapping_judgments_rejected(self):
        with pytest.raises(TrainingError, match="overlapping"):
            PreparedQuery.from_matrices(
                "q", ["a"], [np.ones((1, 2))], judged_good=["a"], judged_bad=["a"]
            )

    def test_unretrieved_judgments_kept_but_not_indexed(self):
        pq = PreparedQuery.from_matrices(
            "q", ["a"], [np.ones((1, 2))], judged_good=["ghost"], judged_bad=["a"]
        )
        assert pq.good == ()
        assert "ghost" in pq.judged_good
        assert not pq.trainable


class TestObjective:
    def objective_fn(self, prepared, spec, config, layout=None):
        return lambda w: objective_and_gradient(w, prepared, spec, config, layout)[0]

    @pytest.mark.parametrize("name", ["sum", "avg", "softmax", "softcount", "softor"])
    def test_gradient_matches_finite_differences(self, name):
        rng = np.random.default_rng(11)
        spec = AggregatorSpec.from_name(name)
        config = default_config()
        for _ in range(10):
            prepared = [random_prepared(rng, query_id=f"q{k}") for k in range(2)]
            dim = prepared[0].dimension
            prepared = [p for p in prepared if p.dimension == dim]
            w = rng.random(dim) * 0.5
            _, grad = objective_and_gradient(w, prepared, spec, config)
            fd = oracles.fd_gradient(self.objective_fn(prepared, spec, config), w)
            assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("name", ["sum", "avg", "softmax", "softcount", "softor"])
    def test_stacked_matches_per_query_oracle(self, name):
        # The stacked objective sums every pair in one pass, where the
        # per-query oracle sums each query's sorted pair losses and then the
        # queries, so the bits differ.  Over 1,500 random fits the gap was at
        # most 5.2e-16 relative for the objective and 1.6e-14 of the largest
        # gradient entry; the bounds leave about 4x room.
        rng = np.random.default_rng(71)
        spec = AggregatorSpec.from_name(name)
        for _ in range(60):
            dim = int(rng.integers(2, 12))
            prepared = [
                random_prepared(
                    rng, query_id=f"q{k}", dimension=dim, n_entities=int(rng.integers(2, 12)),
                    max_contexts=int(rng.integers(1, 30)),
                )
                for k in range(int(rng.integers(1, 6)))
            ]
            config = default_config(
                seed=int(rng.integers(0, 5)), pair_cap=int(rng.choice([3, 10, 10_000]))
            )
            w = rng.random(dim) * rng.choice([0.1, 0.5, 1.0])
            value, grad = objective_and_gradient(w, prepared, spec, config)
            want_value, want_grad = oracles.objective_per_query(w, prepared, spec, config)
            assert abs(value - want_value) <= 2e-15 * abs(want_value)
            assert np.max(np.abs(grad - want_grad)) <= 8e-14 * np.max(np.abs(want_grad))

    def test_training_set_is_accepted_in_place_of_queries(self):
        rng = np.random.default_rng(73)
        prepared = [random_prepared(rng, query_id=q, dimension=4) for q in ("qb", "qa")]
        spec = AggregatorSpec.from_name("softmax")
        config = default_config(pair_cap=3)
        ts = TrainingSet.from_prepared(prepared, config)
        w = rng.random(4)
        value, grad = objective_and_gradient(w, ts, spec, config)
        value2, grad2 = objective_and_gradient(w, prepared, spec, config)
        assert value == value2
        assert np.array_equal(grad, grad2)

    def test_training_set_draws_each_query_once_in_query_order(self, monkeypatch):
        rng = np.random.default_rng(79)
        prepared = [random_prepared(rng, query_id=q, dimension=3) for q in ("qc", "qa", "qb")]
        drawn = []
        real = proxrank.training.pair_sample

        def recording(*args):
            drawn.append(args[-1])
            return real(*args)

        monkeypatch.setattr(proxrank.training, "pair_sample", recording)
        ts = TrainingSet.from_prepared(prepared, default_config())
        assert drawn == ["qa", "qb", "qc"]
        ordered = sorted(prepared, key=lambda p: p.query_id)
        assert np.array_equal(ts.stack, np.vstack([pq.stack for pq in ordered]))
        assert ts.stack.flags.c_contiguous
        assert ts.n_entities == sum(pq.n_entities for pq in ordered)
        # Each query's pair weights add up to 1.
        assert np.sum(ts.pair_weight) == pytest.approx(3.0, rel=1e-15)

    def test_query_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        dim = 5
        prepared = [
            random_prepared(rng, query_id=q, dimension=dim) for q in ("qb", "qa", "qc")
        ]
        spec = AggregatorSpec.from_name("sum")
        config = default_config()
        w = rng.random(dim)
        value, grad = objective_and_gradient(w, prepared, spec, config)
        value2, grad2 = objective_and_gradient(w, list(reversed(prepared)), spec, config)
        assert value == value2
        assert np.array_equal(grad, grad2)

    def test_loss_is_mean_over_sampled_pairs(self):
        rng = np.random.default_rng(9)
        dim = 4
        pq = random_prepared(rng, query_id="q", n_entities=6, dimension=dim)
        spec = AggregatorSpec.from_name("sum")
        config = default_config(pair_cap=4, ridge_width=1e9)
        w = rng.random(dim)
        value, _ = objective_and_gradient(w, [pq], spec, config)
        gi, bi = pair_sample(len(pq.good), len(pq.bad), 4, config.seed, "q")
        scores = [aggregate_score(spec, w, pq.matrix(k)) for k in range(pq.n_entities)]
        direct = np.mean(
            [
                math.log(1.0 + math.exp(1.0 + scores[pq.bad[b]] - scores[pq.good[g]]))
                for g, b in zip(gi, bi)
            ]
        )
        # Ridge is negligible at width 1e9.
        assert value == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_untrainable_queries_contribute_nothing(self):
        rng = np.random.default_rng(5)
        dim = 4
        pq = random_prepared(rng, query_id="q", dimension=dim)
        ghost = PreparedQuery.from_matrices(
            "qg", ["a"], [np.ones((1, dim))], judged_good=["a"]
        )
        spec = AggregatorSpec.from_name("sum")
        config = default_config()
        w = rng.random(dim)
        assert objective_and_gradient(w, [pq], spec, config)[0] == pytest.approx(
            objective_and_gradient(w, [pq, ghost], spec, config)[0], rel=1e-15
        )


class TestRegularization:
    def test_plain_ridge_outside_grid_blocks(self):
        config = default_config(ridge_width=2.0)
        w = np.zeros(FULL.dimension)
        w[0] = 3.0  # a noprox weight
        value, grad = regularization(w, FULL, config)
        assert value == pytest.approx(9.0 / (2.0 * 4.0), rel=1e-12)
        assert grad[0] == pytest.approx(3.0 / 4.0, rel=1e-12)

    def test_grid_weights_get_smoothness_not_ridge(self):
        config = default_config(ridge_width=2.0, smooth_weight=1.0)
        w = np.zeros(FULL.dimension)
        corner = FULL.cell_index("grid", 0, 0)
        w[corner] = 3.0
        # Corner cell has one vertical and one horizontal neighbor.
        value, _ = regularization(w, FULL, config)
        assert value == pytest.approx(2.0 * 9.0 / (2.0 * 4.0), rel=1e-12)

    def test_constant_grid_block_accrues_no_penalty(self):
        config = default_config(ridge_width=2.0)
        w = np.zeros(FULL.dimension)
        rows, cols = FULL.grid_shape
        start = FULL.family_offset("grid")
        w[start : start + rows * cols] = 5.0
        value, grad = regularization(w, FULL, config)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        config = default_config(ridge_width=1.5, smooth_weight=2.0)
        w = rng.random(FULL.dimension)
        _, grad = regularization(w, FULL, config)
        fd = oracles.fd_gradient(lambda v: regularization(v, FULL, config)[0], w)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_without_layout_everything_gets_ridge(self):
        config = default_config(ridge_width=1.0)
        w = np.array([1.0, 2.0])
        value, grad = regularization(w, None, config)
        assert value == pytest.approx(2.5, rel=1e-12)
        assert np.allclose(grad, w)


    @pytest.mark.parametrize(
        "families",
        [f for n in range(1, 6) for f in itertools.combinations(FAMILY_ORDER, n)],
    )
    def test_hex_equal_to_per_block_oracle(self, families):
        rng = np.random.default_rng(len(families) * 31 + sum(map(len, families)))
        for boundaries in (((2, 4, 8), (0.25, 0.5, 0.75, 1.0)), ((5,), (1.0,)), ((3, 9), (1.0,))):
            layout = FeatureLayout(families, *boundaries)
            for config, scale in (
                (default_config(), 1.0),
                (default_config(ridge_width=0.3, smooth_weight=2.5), 50.0),
                (default_config(smooth_weight=0.0), 1.0),
            ):
                for w in (
                    scale * rng.random(layout.dimension),
                    scale * rng.standard_normal(layout.dimension),
                    np.round(rng.random(layout.dimension), 1),
                ):
                    value, grad = regularization(w, layout, config)
                    want_value, want_grad = oracles.regularization_per_block(w, layout, config)
                    assert value.hex() == want_value.hex()
                    assert [g.hex() for g in grad] == [g.hex() for g in want_grad]

    def test_hex_equal_to_per_block_oracle_without_layout(self):
        w = np.random.default_rng(3).standard_normal(7)
        config = default_config(ridge_width=0.7)
        value, grad = regularization(w, None, config)
        want_value, want_grad = oracles.regularization_per_block(w, None, config)
        assert value.hex() == want_value.hex()
        assert [g.hex() for g in grad] == [g.hex() for g in want_grad]


class TestTrainModel:
    def separable_instance(self, rng, dim=4, n_queries=3):
        prepared = []
        for k in range(n_queries):
            good = 1.0 + rng.random((3, dim))
            bad = rng.random((2, dim)) * 0.2
            prepared.append(
                PreparedQuery.from_matrices(
                    f"q{k}",
                    ["g", "b"],
                    [good, bad],
                    judged_good=["g"],
                    judged_bad=["b"],
                )
            )
        return prepared

    def test_objective_never_increases(self):
        rng = np.random.default_rng(17)
        prepared = self.separable_instance(rng)
        spec = AggregatorSpec.from_name("sum")
        config = default_config(max_iters=30)
        model = train_model(prepared, spec, None, config)
        start = np.full(prepared[0].dimension, config.init_weight)
        initial, _ = objective_and_gradient(start, prepared, spec, config)
        final, _ = objective_and_gradient(model.weights, prepared, spec, config)
        assert final <= initial + 1e-12
        assert model.meta["objective"] == pytest.approx(final, rel=1e-12)

    def test_weights_stay_nonnegative(self):
        rng = np.random.default_rng(23)
        prepared = self.separable_instance(rng)
        for name in ("sum", "softmax", "softor"):
            model = train_model(
                prepared, AggregatorSpec.from_name(name), None, default_config(max_iters=25)
            )
            assert np.all(model.weights >= 0.0)

    def test_separable_problem_ranks_good_first(self):
        rng = np.random.default_rng(29)
        prepared = self.separable_instance(rng)
        model = train_model(
            prepared, AggregatorSpec.from_name("sum"), None, default_config(max_iters=100)
        )
        for pq in prepared:
            scores = model_scores(model, pq)
            assert scores["g"] > scores["b"]

    def test_zero_iterations_returns_initial_point(self):
        rng = np.random.default_rng(31)
        prepared = self.separable_instance(rng)
        model = train_model(
            prepared, AggregatorSpec.from_name("sum"), None, default_config(max_iters=0)
        )
        assert np.all(model.weights == default_config().init_weight)
        assert model.meta["iterations"] == 0

    def test_indicator_cannot_be_trained(self):
        rng = np.random.default_rng(2)
        prepared = self.separable_instance(rng)
        with pytest.raises(TrainingError, match="indicator"):
            train_model(prepared, AggregatorSpec.from_name("count"), None, default_config())

    def test_needs_usable_pairs(self):
        pq = PreparedQuery.from_matrices(
            "q", ["a"], [np.ones((1, 2))], judged_good=["a"]
        )
        with pytest.raises(TrainingError, match="good and a retrieved bad"):
            train_model([pq], AggregatorSpec.from_name("sum"), None, default_config())

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        a = random_prepared(rng, query_id="qa", dimension=3)
        b = random_prepared(rng, query_id="qb", dimension=4)
        with pytest.raises(TrainingError, match="dimension"):
            train_model([a, b], AggregatorSpec.from_name("sum"), None, default_config())

    def test_non_finite_initial_objective_reported(self):
        # Both entities blow up, so the very first objective is nan.
        pq = PreparedQuery.from_matrices(
            "q",
            ["g", "b"],
            [np.full((1, 2), np.inf), np.full((1, 2), np.inf)],
            judged_good=["g"],
            judged_bad=["b"],
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="not finite"):
                train_model([pq], AggregatorSpec.from_name("sum"), None, default_config())

    def test_divergence_during_descent_reported_with_iteration(self):
        # The good entity alone blows up: the initial loss is finite
        # (softplus of -inf is 0) but its gradient is nan, so every line
        # search trial goes non-finite.
        pq = PreparedQuery.from_matrices(
            "q",
            ["g", "b"],
            [np.full((1, 2), np.inf), np.ones((1, 2))],
            judged_good=["g"],
            judged_bad=["b"],
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="iteration 1"):
                train_model([pq], AggregatorSpec.from_name("sum"), None, default_config())

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(ridge_width=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(pair_cap=0)
        with pytest.raises(TrainingError):
            TrainConfig(max_iters=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ridge_width", -1.0),
            ("ridge_width", math.nan),
            ("ridge_width", math.inf),
            ("smooth_weight", -1.0),
            ("smooth_weight", math.nan),
            ("tol", -1e-6),
            ("tol", math.nan),
            ("tol", math.inf),
            ("init_weight", -1.0),
            ("init_weight", math.nan),
            ("init_weight", math.inf),
        ],
    )
    def test_config_rejects_non_finite_and_out_of_range_values(self, field, value):
        with pytest.raises(TrainingError, match=field):
            TrainConfig(**{field: value})

    def test_config_accepts_zero_where_zero_is_allowed(self):
        config = TrainConfig(smooth_weight=0.0, tol=0.0, init_weight=0.0)
        assert config.smooth_weight == config.tol == config.init_weight == 0.0

    def test_converges_as_far_as_the_projected_gradient_oracle(self):
        # The old trainer (oracles.projected_gradient_descent) against
        # L-BFGS-B on 100 random fits.  Measured on this instance family
        # over 40 seeds (4,000 fits): every seed had more fits lower than
        # higher and a negative median relative change; per seed, 0 to 3
        # of 100 fits ended more than 2e-4 above the oracle.  Those come
        # from two causes: a stop on the relative-reduction test right
        # after a short line-search step (sum, worst 2.3e-2 above), and a
        # different local minimum of a non-convex aggregator (softmax,
        # worst 9.5e-2 above).  The bounds below leave headroom over those
        # figures.
        rng = np.random.default_rng(71)
        config = default_config()
        relative = []
        for name in ("sum", "avg", "softmax", "softcount", "softor"):
            spec = AggregatorSpec.from_name(name)
            for _ in range(20):
                dim = int(rng.integers(2, 21))
                prepared = [
                    random_prepared(rng, query_id=f"q{k}", dimension=dim)
                    for k in range(int(rng.integers(1, 4)))
                ]
                model = train_model(prepared, spec, None, config)
                _, reference, _ = oracles.projected_gradient_descent(
                    lambda w: objective_and_gradient(w, prepared, spec, config),
                    np.full(dim, config.init_weight),
                    config.max_iters,
                    config.tol,
                )
                at_weights, _ = objective_and_gradient(model.weights, prepared, spec, config)
                assert model.meta["objective"] == at_weights
                relative.append(model.meta["objective"] / reference - 1.0)
        relative = np.array(relative)
        assert np.sum(relative > 2e-4) <= 5
        assert relative.max() <= 0.2
        assert np.sum(relative < 0.0) > np.sum(relative > 0.0)
        assert np.median(relative) < 0.0

    def test_stop_reason_and_evaluations_are_recorded_and_deterministic(self):
        rng = np.random.default_rng(37)
        prepared = self.separable_instance(rng)
        spec = AggregatorSpec.from_name("softmax")
        first = train_model(prepared, spec, None, default_config())
        second = train_model(prepared, spec, None, default_config())
        assert first.meta["stop_reason"].startswith("CONVERGENCE")
        assert first.meta["evaluations"] >= first.meta["iterations"] >= 1
        assert first.meta == second.meta
        assert first.weights.tobytes() == second.weights.tobytes()

    def test_iteration_cap_is_the_stop_reason_when_reached(self):
        rng = np.random.default_rng(39)
        prepared = self.separable_instance(rng)
        model = train_model(
            prepared, AggregatorSpec.from_name("sum"), None, default_config(max_iters=2, tol=0.0)
        )
        assert model.meta["iterations"] == 2
        assert "ITERATIONS REACHED LIMIT" in model.meta["stop_reason"]

    def test_zero_iterations_records_one_evaluation(self):
        rng = np.random.default_rng(31)
        prepared = self.separable_instance(rng)
        spec = AggregatorSpec.from_name("sum")
        config = default_config(max_iters=0)
        model = train_model(prepared, spec, None, config)
        assert model.meta["evaluations"] == 1
        assert model.meta["objective"] == objective_and_gradient(
            model.weights, prepared, spec, config
        )[0]
        assert isinstance(model.meta["stop_reason"], str)

    @pytest.mark.parametrize("max_iters", [0, 3, 200])
    def test_projected_gradient_norm_is_that_of_the_returned_weights(self, max_iters):
        # Under w >= 0 a component counts in full where the gradient is
        # negative, and up to w where it is positive.
        rng = np.random.default_rng(47)
        config = default_config(max_iters=max_iters)
        stationary = 0
        for name in ("sum", "avg", "softmax", "softcount", "softor"):
            spec = AggregatorSpec.from_name(name)
            for _ in range(4):
                dim = int(rng.integers(2, 21))
                prepared = [
                    random_prepared(rng, query_id=f"q{k}", dimension=dim)
                    for k in range(int(rng.integers(1, 4)))
                ]
                model = train_model(prepared, spec, None, config)
                _, gradient = objective_and_gradient(model.weights, prepared, spec, config)
                want = max(
                    -g if g < 0.0 else min(w, g) for w, g in zip(model.weights, gradient)
                )
                assert model.meta["projected_gradient_norm"] == want
                if "NORM OF PROJECTED GRADIENT" in model.meta["stop_reason"]:
                    assert want <= 1e-5  # the solver's default pgtol
                    stationary += 1
        assert stationary > 0 or max_iters < 200


class TestModelFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        layout = FeatureLayout()
        model = Model(
            weights=rng.random(layout.dimension),
            spec=AggregatorSpec.from_name("softmax"),
            layout=layout,
            meta={"iterations": 12, "objective": 0.125},
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert back.spec == model.spec
        assert back.layout == model.layout
        assert back.meta == model.meta

    def test_layout_free_model(self, tmp_path):
        model = Model(
            weights=np.arange(7, dtype=float),
            spec=AggregatorSpec.from_name("sum"),
            layout=None,
            meta={"system": "macdonald"},
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert load_model(path).layout is None

    def test_softcutoff_decay_round_trip(self, tmp_path):
        decay = tuple(float(x) for x in np.linspace(0.9, 0.0, NUM_DECILES))
        model = Model(
            weights=np.ones(3),
            spec=AggregatorSpec("softcutoff", "identity", decay),
            layout=None,
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert load_model(path).spec.decay == decay

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}')
        with pytest.raises(TrainingError, match="format"):
            load_model(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        model = Model(np.ones(4), AggregatorSpec.from_name("sum"), None)
        data = model.to_dict()
        data["weights"][2] = bad
        with pytest.raises(TrainingError, match="weight 2"):
            Model.from_dict(data)

    def test_nan_idf_boundary_rejected(self):
        layout = FeatureLayout()
        data = Model(np.ones(layout.dimension), AggregatorSpec.from_name("sum"), layout).to_dict()
        data["layout"]["idf_fraction_boundaries"][0] = math.nan
        with pytest.raises(FeatureError, match="IDF fraction boundaries"):
            Model.from_dict(data)

    def test_weight_layout_mismatch_rejected(self, tmp_path):
        layout = FeatureLayout()
        model = Model(np.ones(layout.dimension), AggregatorSpec.from_name("sum"), layout)
        data = model.to_dict()
        data["weights"] = data["weights"][:-1]
        with pytest.raises(TrainingError, match="dimension"):
            Model.from_dict(data)


class TestModelScores:
    def test_matches_aggregate_score(self):
        rng = np.random.default_rng(13)
        pq = random_prepared(rng, query_id="q", n_entities=4)
        model = Model(
            weights=rng.random(pq.dimension),
            spec=AggregatorSpec.from_name("softmax"),
            layout=None,
        )
        scores = model_scores(model, pq)
        for k, eid in enumerate(pq.entity_ids):
            assert scores[eid] == aggregate_score(model.spec, model.weights, pq.matrix(k))

    @pytest.mark.parametrize(
        "spec",
        [AggregatorSpec.from_name(n) for n in ("sum", "avg", "softmax", "softcount", "softor")]
        + [AggregatorSpec("softcutoff", "identity", tuple(np.linspace(1.0, 0.1, 10)))],
        ids=lambda spec: spec.name,
    )
    def test_equal_training_scores_bit_for_bit(self, spec, monkeypatch):
        # Training ranks entities by the V that the objective's kernel call
        # computes; ranking must compute the very same bits.
        seen = []
        kernel = proxrank.training.segment_aggregate

        def recording(*args):
            V, build = kernel(*args)
            seen.append(V)
            return V, build

        monkeypatch.setattr(proxrank.training, "segment_aggregate", recording)
        rng = np.random.default_rng(17)
        for _ in range(20):
            pq = random_prepared(rng, n_entities=int(rng.integers(2, 9)), max_contexts=60)
            model = Model(rng.random(pq.dimension), spec, None)
            objective_and_gradient(model.weights, [pq], spec, default_config())
            assert seen.pop().tolist() == list(model_scores(model, pq).values())

    @pytest.mark.parametrize("name", ["sum", "avg", "softcount"])
    def test_non_finite_score_names_query_and_entity(self, name):
        pq = PreparedQuery.from_matrices(
            "q7", ["a", "b"], [np.full((1, 2), 0.5), np.full((2, 2), 4.0)]
        )
        # Entity a's context score is 1e308; entity b's overflows.
        model = Model(np.full(2, 1e308), AggregatorSpec.from_name(name), None)
        with pytest.raises(TrainingError, match="query 'q7': entity 'b' has a non-finite score"):
            model_scores(model, pq)

    def test_query_without_candidates_scores_nothing(self):
        pq = PreparedQuery.from_matrices("q", [], [])
        assert model_scores(Model(np.ones(2), AggregatorSpec.from_name("sum"), None), pq) == {}


class TestCutoff:
    def make_model_and_data(self, rng, n_queries=4):
        prepared = [
            random_prepared(rng, query_id=f"q{k}", n_entities=4, dimension=5)
            for k in range(n_queries)
        ]
        model = Model(
            weights=rng.random(5), spec=AggregatorSpec.from_name("sum"), layout=None
        )
        return model, prepared

    def test_decay_is_monotone_and_nonnegative(self):
        rng = np.random.default_rng(41)
        model, prepared = self.make_model_and_data(rng)
        cutoff = train_soft_cutoff(model, prepared, ridge=1.0, config=default_config())
        assert np.all(cutoff.decay >= 0.0)
        assert np.all(np.diff(cutoff.decay) <= 1e-12)

    def test_solution_beats_all_zero_decay(self):
        rng = np.random.default_rng(43)
        config = default_config()
        model, prepared = self.make_model_and_data(rng)
        cutoff = train_soft_cutoff(model, prepared, ridge=2.0, config=config)
        zero = cutoff_objective(np.zeros(NUM_DECILES), model, prepared, 2.0, config)
        best = cutoff_objective(cutoff.decay, model, prepared, 2.0, config)
        assert best <= zero + 1e-9

    def test_zero_decay_objective_counts_queries(self):
        rng = np.random.default_rng(47)
        config = default_config()
        model, prepared = self.make_model_and_data(rng, n_queries=3)
        # Every pair's hinge is exactly 1 when all entity scores are 0.
        zero = cutoff_objective(np.zeros(NUM_DECILES), model, prepared, 1.0, config)
        assert zero == pytest.approx(3.0, rel=1e-12)

    def dense_oracle_trials(self, pair_cap):
        """24 random cutoff fits: (model, prepared, ridge, config, per_query),
        with per_query in the dense oracle's (profiles, pairs) form."""
        rng = np.random.default_rng(59 + pair_cap)
        config = default_config(pair_cap=pair_cap)
        subsampled = 0
        for trial in range(24):
            prepared = [
                random_prepared(
                    rng, query_id=f"q{k}", n_entities=int(rng.integers(2, 9)), dimension=5,
                    max_contexts=25,
                )
                for k in range(int(rng.integers(1, 4)))
            ]
            model = Model(rng.random(5), AggregatorSpec.from_name("sum"), None)
            ridge = (0.5, 1.0, 10.0)[trial % 3]
            per_query = []
            for pq in sorted(prepared, key=lambda p: p.query_id):
                s = context_scores(model.weights, pq.stack)
                profiles = [
                    oracles.decile_profile(list(s[a:b]))
                    for a, b in zip(pq.offsets[:-1], pq.offsets[1:])
                ]
                gi, bi = pair_sample(len(pq.good), len(pq.bad), pair_cap, 0, pq.query_id)
                pairs = [(pq.good[g], pq.bad[b]) for g, b in zip(gi, bi)]
                subsampled += len(pairs) < len(pq.good) * len(pq.bad)
                per_query.append((profiles, pairs))
            yield model, prepared, ridge, config, per_query
        assert (subsampled > 0) == (pair_cap == 3)

    @pytest.mark.parametrize("pair_cap", [10_000, 3])
    def test_objective_matches_dense_oracle_within_ulps(self, pair_cap):
        # The dual and the dense primal reach the same optimum but round its
        # coordinates differently; over these 48 fits the objectives differed
        # by at most 16 ulps.
        for model, prepared, ridge, config, per_query in self.dense_oracle_trials(pair_cap):
            want = cutoff_objective(
                oracles.cutoff_decay_dense(per_query, ridge), model, prepared, ridge, config
            )
            got = cutoff_objective(
                train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay,
                model, prepared, ridge, config,
            )
            assert abs(got - want) <= 64 * np.spacing(want)

    @pytest.mark.parametrize("pair_cap", [10_000, 3])
    def test_decay_matches_dense_oracle_where_unique(self, pair_cap):
        # A degenerate optimum (tied decays) lets any point of the optimal
        # face win, so the decays are compared only where every entry's range
        # over the near-optimal face is narrow.  Where unique, they differed by
        # at most 1.2e-14 of the largest entry.
        unique = 0
        for model, prepared, ridge, config, per_query in self.dense_oracle_trials(pair_cap):
            want = oracles.cutoff_decay_dense(per_query, ridge)
            optimum = cutoff_objective(want, model, prepared, ridge, config)
            lo, hi = oracles.cutoff_decay_range(per_query, ridge, optimum * (1.0 + 1e-12))
            if np.max(hi - lo) > 1e-8 * max(1.0, np.max(hi)):
                continue
            unique += 1
            got = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(want))
        assert unique >= 12

    # How far two solves of one fit may return different decays, relative
    # to max(1, largest entry).  With the least-total-decay tie-break the
    # decay is a function of the pairs: pair-permuted, presolved, folded
    # and unfolded solves of the fits below differed by at most 1.5e-16,
    # and pair-permuted and presolved solves of every perfbench xval-loocv
    # and train-rank fit at seeds 101-104 and 109 by at most 2.9e-15.
    # Without it, permuting the pairs moved one decile by up to 0.77.
    SAME_DECAY = 1e-14

    @staticmethod
    def per_query(model, prepared, config):
        """The dense oracle's (profiles, pairs) form of a fit."""
        out = []
        for pq in sorted(prepared, key=lambda p: p.query_id):
            s = context_scores(model.weights, pq.stack)
            profiles = [
                oracles.decile_profile(list(s[a:b])) for a, b in zip(pq.offsets[:-1], pq.offsets[1:])
            ]
            gi, bi = pair_sample(len(pq.good), len(pq.bad), config.pair_cap, config.seed, pq.query_id)
            out.append((profiles, [(pq.good[g], pq.bad[b]) for g, b in zip(gi, bi)]))
        return out

    def tie_break_trials(self):
        """24 random cutoff fits: (model, prepared, ridge, config).  In every
        other fit each entity has 2 contexts, so only deciles 0 and 5 carry
        mass and the optimum is a face of tied decays."""
        rng = np.random.default_rng(61)
        config = default_config()
        for trial in range(24):
            prepared = []
            for k in range(int(rng.integers(1, 4))):
                n = int(rng.integers(2, 9))
                ids = [f"e{j}" for j in range(n)]
                # Good entities score higher, so the optimal decay is not 0.
                matrices = [
                    rng.random((2 if trial % 2 else int(rng.integers(1, 26)), 5)) * (2.0 if j < n // 2 else 1.0)
                    for j in range(n)
                ]
                prepared.append(
                    PreparedQuery.from_matrices(f"q{k}", ids, matrices, ids[: n // 2], ids[n // 2 :])
                )
            model = Model(rng.random(5), AggregatorSpec.from_name("sum"), None)
            yield model, prepared, (0.5, 1.0, 10.0)[trial % 3], config

    def test_decay_does_not_depend_on_pair_order_or_presolve(self, monkeypatch):
        solve = scipy.optimize.linprog
        rng = np.random.default_rng(67)

        def permuted(c, A_ub, b_ub, bounds, **kwargs):
            order = rng.permutation(c.shape[0])
            return solve(c[order], A_ub=A_ub[:, order], b_ub=b_ub, bounds=bounds[order], **kwargs)

        def presolved(*args, options, **kwargs):
            return solve(*args, options={**options, "presolve": True}, **kwargs)

        for model, prepared, ridge, config in self.tie_break_trials():
            want = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
            for variant in (permuted, permuted, permuted, presolved):
                with monkeypatch.context() as m:
                    m.setattr(scipy.optimize, "linprog", variant)
                    got = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
                assert np.max(np.abs(got - want)) <= self.SAME_DECAY * max(1.0, np.max(want))

    def test_decay_is_the_least_total_decay_on_the_optimal_face(self):
        # The oracle minimizes sum(decay) with the objective up to 1e-12
        # above its optimum, so it may undercut the optimal face; here it
        # differed from the fit by at most 1.6e-11 of the largest entry on
        # the 13 degenerate optima (faces 0.27-2.9 wide in some entry) and
        # 1.3e-10 elsewhere.
        degenerate = 0
        for model, prepared, ridge, config in self.tie_break_trials():
            per_query = self.per_query(model, prepared, config)
            optimum = cutoff_objective(
                oracles.cutoff_decay_dense(per_query, ridge), model, prepared, ridge, config
            )
            ceiling = optimum * (1.0 + 1e-12)
            lo, hi = oracles.cutoff_decay_range(per_query, ridge, ceiling)
            degenerate += np.max(hi - lo) > 1e-8 * max(1.0, np.max(hi))
            want = oracles.cutoff_decay_least(per_query, ridge, ceiling)
            got = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(want))
        assert degenerate >= 12

    def test_folded_program_returns_the_full_programs_decay(self):
        folded = 0
        for model, prepared, ridge, config in self.tie_break_trials():
            ts = TrainingSet.from_prepared(prepared, config)
            profiles = proxrank.training._decile_profiles(model, ts)
            cumulative = np.cumsum(profiles[ts.bad] - profiles[ts.good], axis=1)
            folded += bool(np.all(cumulative >= 0.0, axis=1).any())
            # The whole program, every pair a column of the dual.
            n_pairs = cumulative.shape[0]
            rhs = (1.0 + proxrank.training.CUTOFF_TIE_BREAK * np.arange(1, NUM_DECILES + 1)) / ridge
            result = scipy.optimize.linprog(
                -np.ones(n_pairs), A_ub=-cumulative.T, b_ub=rhs,
                bounds=np.column_stack([np.zeros(n_pairs), ts.pair_weight]),
                method="highs", options={"presolve": False},
            )
            u = np.maximum(-result.ineqlin.marginals, 0.0)
            want = np.cumsum(u[::-1])[::-1]
            got = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
            assert np.max(np.abs(got - want)) <= self.SAME_DECAY * max(1.0, np.max(want))
        assert folded >= 8

    def test_always_active_pairs_give_the_zero_decay_without_a_solve(self, monkeypatch):
        # Good entities score 0 and bad ones more in every decile, so each
        # pair's cumulative row is >= 0: its hinge is >= 1 at every decay,
        # and any decay above 0 only adds to the objective.
        rng = np.random.default_rng(71)
        prepared = [
            PreparedQuery.from_matrices(
                f"q{k}", ["g", "b1", "b2"],
                [np.zeros((3, 4)), rng.random((5, 4)), rng.random((2, 4))], ["g"], ["b1", "b2"],
            )
            for k in range(3)
        ]
        model = Model(rng.random(4) + 0.1, AggregatorSpec.from_name("sum"), None)
        config = default_config()
        want = oracles.cutoff_decay_dense(self.per_query(model, prepared, config), 1.0)
        assert np.max(want) <= 1e-12

        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", no_solve)
        cutoff = train_soft_cutoff(model, prepared, ridge=1.0, config=config)
        assert np.array_equal(cutoff.decay, np.zeros(NUM_DECILES))

    def test_forty_thousand_pairs_solve_in_seconds(self):
        # The dual's size is 10 rows whatever the pair count.  A primal block
        # program with one slack row per pair took 19 s here (2-core host),
        # the dual 1.4 s.  Good entities score higher, so the decay is not 0.
        rng = np.random.default_rng(83)
        prepared = []
        for k in range(10):
            ids = [f"e{j}" for j in range(220)]
            matrices = [
                rng.random((int(rng.integers(1, 12)), 3)) * (1.5 if j < 20 else 1.0)
                for j in range(220)
            ]
            prepared.append(PreparedQuery.from_matrices(f"q{k}", ids, matrices, ids[:20], ids[20:]))
        model = Model(np.ones(3), AggregatorSpec.from_name("sum"), None)
        config = default_config()
        assert TrainingSet.from_prepared(prepared, config).pair_weight.shape == (40_000,)
        start = time.perf_counter()
        cutoff = train_soft_cutoff(model, prepared, ridge=10.0, config=config)
        assert time.perf_counter() - start < 5.0
        assert cutoff.decay[0] > 0.0
        zero = cutoff_objective(np.zeros(NUM_DECILES), model, prepared, 10.0, config)
        assert cutoff_objective(cutoff.decay, model, prepared, 10.0, config) < zero

    def test_needs_pairs(self):
        model = Model(np.ones(2), AggregatorSpec.from_name("sum"), None)
        pq = PreparedQuery.from_matrices("q", ["a"], [np.ones((1, 2))], judged_good=["a"])
        with pytest.raises(TrainingError, match="pair"):
            train_soft_cutoff(model, [pq], config=default_config())

    def test_ridge_must_be_positive(self):
        rng = np.random.default_rng(48)
        model, prepared = self.make_model_and_data(rng)
        with pytest.raises(TrainingError, match="positive"):
            train_soft_cutoff(model, prepared, ridge=0.0, config=default_config())

    def test_cutoff_model_validation(self):
        with pytest.raises(TrainingError):
            CutoffModel(decay=np.ones(9), ridge=1.0)
        with pytest.raises(TrainingError):
            CutoffModel(decay=np.linspace(0.0, 1.0, 10), ridge=1.0)  # increasing


class TestFitWithCutoff:
    """``train_model(..., cutoff_ridge=r)`` is the one fit-with-cutoff path."""

    @staticmethod
    def random_fit(rng, ladder):
        # A one-entity query has no pairs.  Ridge selection needs pairs in
        # every inner fold, so it gets none of those.
        dim = int(rng.integers(2, 8))
        fewest = 1 if ladder is None else 2
        prepared = [
            random_prepared(
                rng, query_id=f"q{k}", dimension=dim, n_entities=int(rng.integers(fewest, 8)),
                max_contexts=int(rng.integers(1, 25)),
            )
            for k in range(int(rng.integers(2, 6)))
        ]
        config = default_config(
            seed=int(rng.integers(0, 5)), pair_cap=int(rng.choice([3, 10_000])),
            max_iters=int(rng.integers(0, 30)), folds=2, ridge_ladder=ladder,
        )
        return prepared, config, float(rng.choice([0.5, 1.0, 10.0]))

    @pytest.mark.parametrize("ladder", [None, (0.5, 5.0)], ids=["fixed", "ladder"])
    def test_hex_equal_to_train_model_then_train_soft_cutoff(self, ladder):
        rng = np.random.default_rng(83)
        nonzero = 0
        names = ["sum", "avg", "softmax", "softcount", "softor"]
        for name, _ in itertools.product(names, range(8)):
            spec = AggregatorSpec.from_name(name)
            prepared, config, ridge = self.random_fit(rng, ladder)
            if not any(pq.trainable for pq in prepared):
                continue
            got = train_model(prepared, spec, None, config, cutoff_ridge=ridge)
            model = train_model(prepared, spec, None, config)
            cutoff = train_soft_cutoff(model, prepared, ridge=ridge, config=config)
            assert got.weights.tobytes() == model.weights.tobytes()
            assert got.spec == cutoff.spec()
            assert [d.hex() for d in got.spec.decay] == [d.hex() for d in cutoff.decay]
            want_meta = {**model.meta, "cutoff_ridge": ridge}
            assert json.dumps(got.meta, sort_keys=True) == json.dumps(want_meta, sort_keys=True)
            nonzero += bool(np.any(cutoff.decay))
        assert nonzero > 10

    def test_a_fit_builds_one_training_set(self, monkeypatch):
        rng = np.random.default_rng(89)
        built = []
        real = TrainingSet.from_prepared

        def counting(prepared, config):
            built.append(config)
            return real(prepared, config)

        monkeypatch.setattr(TrainingSet, "from_prepared", staticmethod(counting))
        prepared = [random_prepared(rng, query_id=f"q{k}", dimension=4) for k in range(3)]
        train_model(prepared, AggregatorSpec.from_name("softmax"), None, default_config(), 1.0)
        assert len(built) == 1

    def test_ridge_selection_keeps_the_pair_draw(self, monkeypatch):
        # The inner folds build their own sets; every set, the final fit's
        # among them, draws with the caller's pair cap and seed.
        rng = np.random.default_rng(97)
        prepared = [random_prepared(rng, query_id=f"q{k}", dimension=4) for k in range(4)]
        config = default_config(seed=3, pair_cap=2, max_iters=5, folds=2, ridge_ladder=(0.5, 5.0))
        built, inner = [], []
        real_set, real_fit = TrainingSet.from_prepared, proxrank.training.train_model

        def counting_set(prepared, config):
            built.append(config)
            return real_set(prepared, config)

        def counting_fit(*args, **kwargs):
            inner.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(TrainingSet, "from_prepared", staticmethod(counting_set))
        monkeypatch.setattr(proxrank.training, "train_model", counting_fit)
        model = real_fit(prepared, AggregatorSpec.from_name("sum"), None, config, cutoff_ridge=1.0)
        assert inner and len(built) == len(inner) + 1
        assert {(c.pair_cap, c.seed) for c in built} == {(2, 3)}
        assert model.meta["ridge_width"] in (0.5, 5.0)

    @pytest.mark.parametrize("ridge", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_bad_cutoff_ridge_is_refused_before_any_evaluation(self, ridge, monkeypatch):
        rng = np.random.default_rng(101)
        prepared = [random_prepared(rng, query_id=f"q{k}", dimension=4) for k in range(3)]
        spec = AggregatorSpec.from_name("sum")
        model = Model(rng.random(4), spec, None)
        with pytest.raises(TrainingError, match="cutoff ridge must be finite and positive"):
            train_soft_cutoff(model, prepared, ridge=ridge, config=default_config())
        evaluations = []
        monkeypatch.setattr(
            proxrank.training, "objective_and_gradient", lambda *args: evaluations.append(args)
        )
        for config in (default_config(), default_config(ridge_ladder=(0.5, 5.0))):
            with pytest.raises(TrainingError, match="cutoff ridge must be finite and positive"):
                train_model(prepared, spec, None, config, cutoff_ridge=ridge)
        assert evaluations == []


class TestPipeline:
    def test_prepare_queries_on_fixture(self, fixture_index, fixture_queries, fixture_qrels):
        layout = FeatureLayout()
        prepared = prepare_queries(fixture_index, fixture_queries, fixture_qrels, layout)
        assert [pq.query_id for pq in prepared] == ["q1", "q2", "q3"]
        q1 = prepared[0]
        assert q1.entity_ids == ("gosling", "guido", "java", "python")
        assert q1.dimension == layout.dimension
        assert q1.judged_good == frozenset({"guido"})
        assert q1.good == (1,)
        assert q1.trainable

    def test_ridge_selection_returns_ladder_member(self):
        rng = np.random.default_rng(51)
        prepared = [
            random_prepared(rng, query_id=f"q{k}", n_entities=4, dimension=5)
            for k in range(4)
        ]
        spec = AggregatorSpec.from_name("sum")
        config = default_config(max_iters=5, folds=2)
        ladder = (0.5, 5.0)
        width = select_ridge_width(prepared, spec, None, config, ladder)
        assert width in ladder

    def test_ridge_selection_falls_back_on_tiny_data(self):
        rng = np.random.default_rng(53)
        prepared = [random_prepared(rng, query_id="q0")]
        config = default_config()
        width = select_ridge_width(
            prepared, AggregatorSpec.from_name("sum"), None, config, (0.1, 1.0)
        )
        assert width == config.ridge_width
