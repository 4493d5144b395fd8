"""Pairwise training of aggregation weights, plus the rank-cutoff LP.

The objective over queries q with judged-good G and judged-bad B sets is

    sum_q  mean over sampled (g, b) pairs of  softplus(1 + V(b) - V(g))
    + ridge + grid smoothness

where V is the aggregated entity score under the current weights.  The
pair mean equals the 1/(|G||B|) normalization when all pairs are used;
over-large pair grids are subsampled with a seeded substream.  Weights
are constrained non-negative and optimized by L-BFGS-B (Byrd, Lu, Nocedal
& Zhu 1995) with bounds w >= 0; the fitted model records why the solver
stopped and how many points it evaluated.

Grid-shaped weight blocks (grid, rectangle) are regularized by neighbor
smoothness instead of the plain ridge, since their discretization is
arbitrary; all other weights get the ridge.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.sparse import block_array, csr_array, eye_array
from scipy.special import expit

from proxrank.aggregators import (
    NUM_DECILES,
    AggregatorSpec,
    aggregate_score,
    macdonald_features,
    segment_aggregate,
    segment_deciles,
)
from proxrank.corpus import (
    CorpusIndex,
    Judgments,
    Query,
    RetrievalConfig,
    find_candidates,
)
from proxrank.features import Bm25Params, FeatureLayout, context_matrix
from proxrank.seeding import substream

__all__ = [
    "CutoffModel",
    "Model",
    "PreparedQuery",
    "TrainConfig",
    "TrainingError",
    "cutoff_objective",
    "load_model",
    "model_scores",
    "objective_and_gradient",
    "pair_sample",
    "prepare_macdonald",
    "prepare_queries",
    "save_model",
    "select_ridge_width",
    "soft_hinge",
    "train_model",
    "train_soft_cutoff",
]

logger = logging.getLogger(__name__)

MODEL_FORMAT = "proxrank-model"


class TrainingError(RuntimeError):
    """Training cannot proceed or has diverged."""


@dataclass
class TrainConfig:
    ridge_width: float = 10.0        # lambda: larger means weaker regularization
    smooth_weight: float = 1.0       # multiplier on the grid-smoothness term
    init_weight: float = 0.01
    max_iters: int = 200             # solver iteration cap (L-BFGS-B maxiter)
    tol: float = 1e-6                # relative objective change at convergence (ftol)
    pair_cap: int = 10_000           # per-query ceiling on (good, bad) pairs
    folds: int = 5                   # inner folds for ridge-width selection
    seed: int = 0
    ridge_ladder: tuple[float, ...] | None = None  # enable CV ridge selection

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ridge_width) and self.ridge_width > 0.0):
            raise TrainingError(f"ridge_width must be finite and > 0, got {self.ridge_width}")
        for name in ("smooth_weight", "tol", "init_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise TrainingError(f"{name} must be finite and >= 0, got {value}")
        if self.pair_cap < 1:
            raise TrainingError(f"pair cap must be >= 1, got {self.pair_cap}")
        if self.max_iters < 0:
            raise TrainingError(f"max iterations must be >= 0, got {self.max_iters}")


@dataclass
class PreparedQuery:
    """Per-query feature tensors ready for training and ranking.

    ``stack`` holds every candidate's context rows, CSR-style: entity k's
    rows are stack[offsets[k]:offsets[k+1]].  ``good``/``bad`` index into
    ``entity_ids`` and cover only judged entities that were retrieved;
    the full judged sets are kept for evaluation.
    """

    query_id: str
    entity_ids: tuple[str, ...]
    stack: np.ndarray
    offsets: np.ndarray
    good: tuple[int, ...]
    bad: tuple[int, ...]
    judged_good: frozenset[str]
    judged_bad: frozenset[str]
    segments: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        counts = np.diff(self.offsets)
        if len(self.entity_ids) != len(counts):
            raise TrainingError(
                f"query {self.query_id!r}: {len(self.entity_ids)} entities but "
                f"{len(counts)} offset segments"
            )
        if np.any(counts <= 0):
            raise TrainingError(f"query {self.query_id!r}: entity with no context rows")
        self.segments = np.repeat(np.arange(len(counts)), counts)

    @classmethod
    def from_matrices(
        cls,
        query_id: str,
        entity_ids: Sequence[str],
        matrices: Sequence[np.ndarray],
        judged_good: Iterable[str] = (),
        judged_bad: Iterable[str] = (),
    ) -> "PreparedQuery":
        judged_good = frozenset(judged_good)
        judged_bad = frozenset(judged_bad)
        if judged_good & judged_bad:
            raise TrainingError(f"query {query_id!r}: overlapping judgments")
        if matrices:
            stack = np.vstack([np.asarray(m, dtype=float) for m in matrices])
            offsets = np.concatenate([[0], np.cumsum([m.shape[0] for m in matrices])])
        else:
            stack = np.zeros((0, 0), dtype=float)
            offsets = np.array([0])
        ids = tuple(entity_ids)
        return cls(
            query_id=query_id,
            entity_ids=ids,
            stack=stack,
            offsets=np.asarray(offsets, dtype=int),
            good=tuple(i for i, e in enumerate(ids) if e in judged_good),
            bad=tuple(i for i, e in enumerate(ids) if e in judged_bad),
            judged_good=judged_good,
            judged_bad=judged_bad,
        )

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def dimension(self) -> int:
        return self.stack.shape[1]

    def matrix(self, k: int) -> np.ndarray:
        return self.stack[self.offsets[k] : self.offsets[k + 1]]

    @property
    def trainable(self) -> bool:
        return bool(self.good) and bool(self.bad)


def prepare_queries(
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    layout: FeatureLayout,
    retrieval: RetrievalConfig | None = None,
    bm25: Bm25Params = Bm25Params(),
) -> list[PreparedQuery]:
    """Retrieve candidates and featurize them for every query."""
    retrieval = retrieval or RetrievalConfig()
    out = []
    for query in queries:
        candidates = find_candidates(index, query, retrieval)
        entity_ids = candidates.entity_ids()
        matrices = [
            context_matrix(index, query, candidates.support[eid], layout, bm25)
            for eid in entity_ids
        ]
        out.append(
            PreparedQuery.from_matrices(
                query.query_id,
                entity_ids,
                matrices,
                judgments.good_for(query.query_id),
                judgments.bad_for(query.query_id),
            )
        )
    return out


def prepare_macdonald(
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    retrieval: RetrievalConfig | None = None,
    bm25: Bm25Params = Bm25Params(),
) -> list[PreparedQuery]:
    """Entity-level voting features: each entity is one 7-feature row."""
    retrieval = retrieval or RetrievalConfig()
    out = []
    for query in queries:
        candidates = find_candidates(index, query, retrieval)
        rows = macdonald_features(index, query, candidates.support, bm25)
        entity_ids = sorted(rows)
        matrices = [rows[eid].reshape(1, -1) for eid in entity_ids]
        out.append(
            PreparedQuery.from_matrices(
                query.query_id,
                entity_ids,
                matrices,
                judgments.good_for(query.query_id),
                judgments.bad_for(query.query_id),
            )
        )
    return out


def soft_hinge(a):
    """Smooth hinge softplus(a) = log(1 + e^a) and its derivative sigmoid(a)."""
    arr = np.asarray(a, dtype=float)
    value = np.logaddexp(0.0, arr)
    deriv = expit(arr)
    if np.ndim(a) == 0:
        return float(value), float(deriv)
    return value, deriv


def pair_sample(
    n_good: int, n_bad: int, cap: int, seed: int, query_id: str
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (into the good and bad lists) of the judged pairs to score.

    All pairs when the grid fits under the cap; otherwise a uniform
    sample without replacement from a substream keyed by the query id,
    so the draw is stable across calls and across processes.
    """
    total = n_good * n_bad
    if total == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    if total <= cap:
        ks = np.arange(total)
    else:
        rng = substream(seed, f"pairs:{query_id}")
        ks = np.sort(rng.choice(total, size=cap, replace=False))
    return ks // n_bad, ks % n_bad


def _sampled_pairs(
    prepared: Sequence[PreparedQuery], config: TrainConfig
) -> Iterator[tuple[PreparedQuery, np.ndarray, np.ndarray]]:
    """(pq, good_idx, bad_idx) for every trainable query whose pair sample
    is not empty, in query-id order; the indices point into ``entity_ids``."""
    for pq in sorted(prepared, key=lambda p: p.query_id):
        if not pq.trainable:
            continue
        gi, bi = pair_sample(len(pq.good), len(pq.bad), config.pair_cap, config.seed, pq.query_id)
        if gi.size == 0:
            continue
        yield pq, np.asarray(pq.good, dtype=int)[gi], np.asarray(pq.bad, dtype=int)[bi]


def regularization(
    weights: np.ndarray, layout: FeatureLayout | None, config: TrainConfig
) -> tuple[float, np.ndarray]:
    """Ridge on plain features, neighbor smoothness on grid-shaped blocks."""
    w = np.asarray(weights, dtype=float)
    grad = np.zeros_like(w)
    lam2 = config.ridge_width**2
    smooth_ranges: list[tuple[int, int, int, int]] = []
    if layout is not None:
        rows, cols = layout.grid_shape
        for family in ("grid", "rectangle"):
            if layout.has(family):
                start = layout.family_offset(family)
                smooth_ranges.append((start, start + rows * cols, rows, cols))
    ridge_mask = np.ones(w.shape[0], dtype=bool)
    for start, stop, _, _ in smooth_ranges:
        ridge_mask[start:stop] = False

    value = float(np.sum(w[ridge_mask] ** 2)) / (2.0 * lam2)
    grad[ridge_mask] += w[ridge_mask] / lam2

    for start, stop, rows, cols in smooth_ranges:
        block = w[start:stop].reshape(rows, cols)
        dv = block[1:, :] - block[:-1, :]
        dh = block[:, 1:] - block[:, :-1]
        value += config.smooth_weight * (float(np.sum(dv**2)) + float(np.sum(dh**2))) / (2.0 * lam2)
        gg = np.zeros_like(block)
        gg[1:, :] += dv
        gg[:-1, :] -= dv
        gg[:, 1:] += dh
        gg[:, :-1] -= dh
        grad[start:stop] += (config.smooth_weight / lam2) * gg.ravel()
    return value, grad


def objective_and_gradient(
    weights,
    prepared: Sequence[PreparedQuery],
    spec: AggregatorSpec,
    config: TrainConfig,
    layout: FeatureLayout | None = None,
) -> tuple[float, np.ndarray]:
    """Full training objective and its gradient at ``weights``.

    Deterministic: queries are visited in query-id order, pair subsampling
    is seeded per query, and per-query pair losses are summed in sorted
    order.  Queries without both a retrieved good and a retrieved bad
    entity contribute nothing.
    """
    w = np.asarray(weights, dtype=float)
    loss = 0.0
    grad = np.zeros_like(w)
    for pq, good_idx, bad_idx in _sampled_pairs(prepared, config):
        V, build_coef = segment_aggregate(spec, pq.stack @ w, pq.offsets, pq.segments)
        margins = 1.0 + V[bad_idx] - V[good_idx]
        sh, sig = soft_hinge(margins)
        loss += float(np.sum(np.sort(sh))) / sh.shape[0]
        entity_coef = np.zeros(pq.n_entities)
        np.add.at(entity_coef, bad_idx, sig)
        np.add.at(entity_coef, good_idx, -sig)
        entity_coef /= sh.shape[0]
        grad += pq.stack.T @ build_coef(entity_coef)
    reg_value, reg_grad = regularization(w, layout, config)
    return loss + reg_value, grad + reg_grad


@dataclass
class Model:
    """Trained weights plus everything needed to score with them."""

    weights: np.ndarray
    spec: AggregatorSpec
    layout: FeatureLayout | None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "layout": self.layout.to_dict() if self.layout is not None else None,
            "dimension": int(self.weights.shape[0]),
            "aggregator": {
                "operator": self.spec.operator,
                "transform": self.spec.transform,
                "decay": list(self.spec.decay) if self.spec.decay is not None else None,
            },
            "weights": [float(x) for x in self.weights],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Model":
        if data.get("format") != MODEL_FORMAT:
            raise TrainingError(f"not a model file (format={data.get('format')!r})")
        layout = FeatureLayout.from_dict(data["layout"]) if data.get("layout") else None
        agg = data["aggregator"]
        spec = AggregatorSpec(
            operator=agg["operator"],
            transform=agg["transform"],
            decay=tuple(agg["decay"]) if agg.get("decay") is not None else None,
        )
        weights = np.asarray(data["weights"], dtype=float)
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
        if bad.size:
            k = int(bad[0])
            raise TrainingError(f"model weight {k} must be finite and >= 0, got {weights[k]}")
        if layout is not None and weights.shape[0] != layout.dimension:
            raise TrainingError(
                f"model has {weights.shape[0]} weights but layout dimension is {layout.dimension}"
            )
        return cls(weights=weights, spec=spec, layout=layout, meta=dict(data.get("meta", {})))


def save_model(model: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return Model.from_dict(json.load(fh))


def train_model(
    prepared: Sequence[PreparedQuery],
    spec: AggregatorSpec,
    layout: FeatureLayout | None,
    config: TrainConfig | None = None,
) -> Model:
    """Fit non-negative aggregation weights with L-BFGS-B.

    Starts from a uniform small-positive point and minimizes the
    objective under bounds w >= 0, stopping on a relative objective drop
    below ``tol`` (the solver's ``ftol``), a small projected gradient, or
    ``max_iters`` iterations.  ``meta`` records the solver's ``stop_reason``,
    its iterations and its objective evaluations.  A non-finite objective
    or gradient raises, naming the iteration.  ``max_iters=0`` returns
    the initial point after one evaluation.
    """
    config = config or TrainConfig()
    if spec.transform == "indicator":
        raise TrainingError("the indicator transform is evaluation-only and cannot be trained")
    usable = [pq for pq in prepared if pq.trainable]
    if not usable:
        raise TrainingError("no query has both a retrieved good and a retrieved bad entity")
    skipped = [pq.query_id for pq in prepared if not pq.trainable]
    if skipped:
        logger.warning("skipping %d query(ies) without usable pairs: %s", len(skipped), skipped)
    dims = {pq.dimension for pq in usable}
    if len(dims) != 1:
        raise TrainingError(f"inconsistent feature dimensions across queries: {sorted(dims)}")
    dimension = dims.pop()
    if layout is not None and layout.dimension != dimension:
        raise TrainingError(
            f"layout dimension {layout.dimension} does not match features ({dimension})"
        )
    if config.ridge_ladder:
        config = replace(
            config,
            ridge_width=select_ridge_width(prepared, spec, layout, config, config.ridge_ladder),
            ridge_ladder=None,
        )

    iterations = evaluations = 0

    def fun(w: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        value, gradient = objective_and_gradient(w, usable, spec, config, layout)
        evaluations += 1
        if evaluations == 1 and not math.isfinite(value):
            raise TrainingError(f"objective not finite at the initial point: {value}")
        if not (math.isfinite(value) and np.all(np.isfinite(gradient))):
            raise TrainingError(
                f"objective diverged (non-finite value or gradient) at iteration {iterations + 1}"
            )
        return value, gradient

    def count_iteration(_w: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    w0 = np.full(dimension, config.init_weight, dtype=float)
    if config.max_iters == 0:
        weights, objective, stop_reason = w0, fun(w0)[0], "iteration cap is 0"
    else:
        result = minimize(
            fun, w0, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * dimension,
            callback=count_iteration, options={"maxiter": config.max_iters, "ftol": config.tol},
        )
        weights, objective, stop_reason = result.x, float(result.fun), str(result.message)
        iterations = int(result.nit)

    meta = {
        "iterations": iterations,
        "evaluations": evaluations,
        "objective": objective,
        "stop_reason": stop_reason,
        "ridge_width": config.ridge_width,
        "smooth_weight": config.smooth_weight,
        "pair_cap": config.pair_cap,
        "seed": config.seed,
    }
    return Model(weights=weights, spec=spec, layout=layout, meta=meta)


def model_scores(model: Model, pq: PreparedQuery) -> dict[str, float]:
    """Score every candidate entity of a prepared query."""
    out = {}
    for k, eid in enumerate(pq.entity_ids):
        out[eid] = aggregate_score(model.spec, model.weights, pq.matrix(k))
    return out


def select_ridge_width(
    prepared: Sequence[PreparedQuery],
    spec: AggregatorSpec,
    layout: FeatureLayout | None,
    config: TrainConfig,
    ladder: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
) -> float:
    """Pick the ridge width from a ladder by inner-fold mean MAP.

    Ties and degenerate datasets fall back to the smallest /
    configured value respectively.
    """
    from proxrank.evaluation import cross_validate, rank_entities

    candidates = [pq for pq in prepared if pq.judged_good]
    if len(candidates) < 2:
        logger.warning("too few queries for ridge selection; keeping %g", config.ridge_width)
        return config.ridge_width
    folds = min(config.folds, len(candidates))
    judgments = Judgments(
        good={pq.query_id: pq.judged_good for pq in candidates},
        bad={pq.query_id: pq.judged_bad for pq in candidates},
    )
    best_width, best_map = None, -1.0
    for width in sorted(ladder):
        trial_config = replace(config, ridge_width=width, ridge_ladder=None)

        def fit(train: Sequence[PreparedQuery]):
            model = train_model(train, spec, layout, trial_config)
            return lambda pq: rank_entities(pq.query_id, model_scores(model, pq))

        report = cross_validate(
            candidates, judgments, fit, protocol="kfold", folds=folds, seed=config.seed
        )
        mean_map = report.macro().ap
        if mean_map > best_map + 1e-12:
            best_width, best_map = width, mean_map
    return best_width if best_width is not None else config.ridge_width


# -- rank-cutoff decay (linear program) --------------------------------------


@dataclass
class CutoffModel:
    """Non-increasing per-decile decay applied to rank-ordered contexts."""

    decay: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        self.decay = np.asarray(self.decay, dtype=float)
        if self.decay.shape != (NUM_DECILES,):
            raise TrainingError(f"decay must have {NUM_DECILES} entries")
        if np.any(self.decay < 0.0) or np.any(np.diff(self.decay) > 1e-12):
            raise TrainingError("decay must be non-negative and non-increasing")

    def spec(self) -> AggregatorSpec:
        return AggregatorSpec("softcutoff", "identity", tuple(float(d) for d in self.decay))


def _decile_profiles(model: Model, pq: PreparedQuery) -> np.ndarray:
    """Per-entity 10-vectors A with A[r] = sum of raw scores in decile r,
    so the cutoff-weighted entity score is decay @ A."""
    s = pq.stack @ model.weights
    profiles = np.zeros((pq.n_entities, NUM_DECILES))
    np.add.at(profiles, (pq.segments, segment_deciles(s, pq.offsets)), s)
    return profiles


def cutoff_objective(
    decay: np.ndarray,
    model: Model,
    prepared: Sequence[PreparedQuery],
    ridge: float,
    config: TrainConfig,
) -> float:
    """Objective the LP minimizes, evaluated at a given decay vector:
    decay[0]/ridge plus the mean true hinge over sampled pairs."""
    decay = np.asarray(decay, dtype=float)
    total = decay[0] / ridge
    for pq, good_idx, bad_idx in _sampled_pairs(prepared, config):
        V = _decile_profiles(model, pq) @ decay
        margins = 1.0 + V[bad_idx] - V[good_idx]
        total += float(np.sum(np.maximum(margins, 0.0))) / margins.shape[0]
    return total


def train_soft_cutoff(
    model: Model,
    prepared: Sequence[PreparedQuery],
    ridge: float = 1.0,
    config: TrainConfig | None = None,
) -> CutoffModel:
    """Fit the decile decay by linear programming.

    Variables are the ten decay values and one slack per sampled pair;
    constraints enforce slack >= hinge margin, slack >= 0, and the decay
    chain D(0) >= D(1) >= ... >= 0.  The all-zero decay is always
    feasible, so the program is never infeasible.  The constraint matrix
    is sparse, so memory grows linearly in the number of pairs.
    """
    config = config or TrainConfig()
    if ridge <= 0.0:
        raise TrainingError(f"cutoff ridge must be positive, got {ridge}")
    diffs = []
    pair_weights = []
    for pq, good_idx, bad_idx in _sampled_pairs(prepared, config):
        profiles = _decile_profiles(model, pq)
        diffs.append(profiles[bad_idx] - profiles[good_idx])
        pair_weights.append(np.full(good_idx.shape[0], 1.0 / good_idx.shape[0]))
    if not diffs:
        raise TrainingError("no usable (good, bad) pairs for the cutoff program")
    diff = np.vstack(diffs)

    n_pairs = diff.shape[0]
    cost = np.concatenate([[1.0 / ridge], np.zeros(NUM_DECILES - 1), *pair_weights])

    # slack_p >= 1 + V(b) - V(g)  <=>  (A_b - A_g) @ D - slack_p <= -1,
    # then the decay chain D(r+1) - D(r) <= 0.
    chain = np.eye(NUM_DECILES - 1, NUM_DECILES, 1) - np.eye(NUM_DECILES - 1, NUM_DECILES)
    a_ub = block_array(
        [[csr_array(diff), -eye_array(n_pairs)], [csr_array(chain), None]], format="csc"
    )
    b_ub = np.concatenate([np.full(n_pairs, -1.0), np.zeros(NUM_DECILES - 1)])

    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if not result.success:
        raise TrainingError(f"cutoff program failed: {result.message}")
    decay = np.asarray(result.x[:NUM_DECILES], dtype=float)
    # Solver feasibility is only within tolerance; snap to the exact cone.
    decay = np.minimum.accumulate(np.maximum(decay, 0.0))
    return CutoffModel(decay=decay, ridge=ridge)
