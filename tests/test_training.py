"""Pairwise objective, L-BFGS-B fitting and its stop record, model files, cutoff LP."""

import math

import numpy as np
import pytest
from scipy.special import expit

from proxrank.aggregators import NUM_DECILES, AggregatorSpec, aggregate_score
from proxrank.features import FeatureLayout
from proxrank.training import (
    CutoffModel,
    Model,
    PreparedQuery,
    TrainConfig,
    TrainingError,
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
        assert pq.segments.tolist() == [0, 0, 1, 1, 1]
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

    @pytest.mark.parametrize("pair_cap", [10_000, 3])
    def test_decay_matches_dense_oracle_bit_for_bit(self, pair_cap):
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
                s = pq.stack @ model.weights
                profiles = [
                    oracles.decile_profile(list(s[a:b]))
                    for a, b in zip(pq.offsets[:-1], pq.offsets[1:])
                ]
                gi, bi = pair_sample(len(pq.good), len(pq.bad), pair_cap, 0, pq.query_id)
                pairs = [(pq.good[g], pq.bad[b]) for g, b in zip(gi, bi)]
                subsampled += len(pairs) < len(pq.good) * len(pq.bad)
                per_query.append((profiles, pairs))
            want = oracles.cutoff_decay_dense(per_query, ridge)
            got = train_soft_cutoff(model, prepared, ridge=ridge, config=config).decay
            assert got.tobytes() == want.tobytes()
        assert (subsampled > 0) == (pair_cap == 3)

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
