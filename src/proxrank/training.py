"""Pairwise training of aggregation weights, plus the rank-cutoff LP.

The objective over queries q with judged-good G and judged-bad B sets is

    sum_q  mean over sampled (g, b) pairs of  softplus(1 + V(b) - V(g))
    + ridge + grid smoothness

where V is the aggregated entity score under the current weights.  The
pair mean equals the 1/(|G||B|) normalization when all pairs are used;
over-large pair grids are subsampled with a seeded substream.  A fit
draws the pairs once, into a :class:`TrainingSet` that stacks every
trainable query's context rows, so each evaluation is one kernel call
over all queries.  Weights are constrained non-negative and optimized by
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) with bounds w >= 0; the fitted
model records why the solver stopped and how many points it evaluated.

The optional rank-cutoff stage fits a non-increasing decile decay on the
same stacked set by linear programming, solved as its 10-row dual.

Grid-shaped weight blocks (grid, rectangle) are regularized by neighbor
smoothness instead of the plain ridge, since their discretization is
arbitrary; all other weights get the ridge.

scipy is imported inside the functions that call it (``minimize`` in
:func:`train_model`, ``linprog`` in :func:`train_soft_cutoff`), so
importing this module, preparing queries and scoring with a model need
numpy alone; a process pays the optimizer's import on its first fit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from proxrank.aggregators import (
    NUM_DECILES,
    AggregatorSpec,
    aggregate_score,
    context_scores,
    macdonald_features,
    segment_aggregate,
    segment_deciles,
    sigmoid,
)
from proxrank.corpus import (
    Context,
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
    "TrainingSet",
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
    "support_matrix",
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
    tol: float = 1e-6                # objective drop at convergence (ftol), relative to max(|f|, 1)
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

    def __post_init__(self) -> None:
        counts = np.diff(self.offsets)
        if len(self.entity_ids) != len(counts):
            raise TrainingError(
                f"query {self.query_id!r}: {len(self.entity_ids)} entities but "
                f"{len(counts)} offset segments"
            )
        if np.any(counts <= 0):
            raise TrainingError(f"query {self.query_id!r}: entity with no context rows")

    @classmethod
    def from_stack(
        cls,
        query_id: str,
        entity_ids: Sequence[str],
        stack: np.ndarray,
        offsets: Sequence[int],
        judged_good: Iterable[str] = (),
        judged_bad: Iterable[str] = (),
    ) -> "PreparedQuery":
        """A prepared query over ``stack``, whose rows
        offsets[k]:offsets[k+1] belong to entity_ids[k]."""
        judged_good = frozenset(judged_good)
        judged_bad = frozenset(judged_bad)
        if judged_good & judged_bad:
            raise TrainingError(f"query {query_id!r}: overlapping judgments")
        ids = tuple(entity_ids)
        return cls(
            query_id=query_id,
            entity_ids=ids,
            stack=np.asarray(stack, dtype=float),
            offsets=np.asarray(offsets, dtype=int),
            good=tuple(i for i, e in enumerate(ids) if e in judged_good),
            bad=tuple(i for i, e in enumerate(ids) if e in judged_bad),
            judged_good=judged_good,
            judged_bad=judged_bad,
        )

    @classmethod
    def from_matrices(
        cls,
        query_id: str,
        entity_ids: Sequence[str],
        matrices: Sequence[np.ndarray],
        judged_good: Iterable[str] = (),
        judged_bad: Iterable[str] = (),
    ) -> "PreparedQuery":
        """:meth:`from_stack` over the entities' row blocks, stacked in order."""
        if matrices:
            stack = np.vstack([np.asarray(m, dtype=float) for m in matrices])
            offsets = np.concatenate([[0], np.cumsum([m.shape[0] for m in matrices])])
        else:
            stack, offsets = _no_rows()
        return cls.from_stack(query_id, entity_ids, stack, offsets, judged_good, judged_bad)

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


def _no_rows() -> tuple[np.ndarray, np.ndarray]:
    # The stack and offsets of a query without candidates.
    return np.zeros((0, 0), dtype=float), np.array([0])


def support_matrix(
    index: CorpusIndex,
    query: Query,
    support: Mapping[str, Sequence[Context]],
    entity_ids: Sequence[str],
    layout: FeatureLayout,
    bm25: Bm25Params = Bm25Params(),
) -> tuple[np.ndarray, np.ndarray]:
    """The context rows of every entity in ``entity_ids``, in that order,
    from one :func:`context_matrix` call, so each document's
    whole-document scores are computed once per query; entity k's rows
    are rows[offsets[k]:offsets[k+1]]."""
    contexts = [ctx for eid in entity_ids for ctx in support[eid]]
    offsets = np.cumsum([0] + [len(support[eid]) for eid in entity_ids])
    return context_matrix(index, query, contexts, layout, bm25), offsets


def _prepare(
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    retrieval: RetrievalConfig | None,
    rows: Callable[[Query, Mapping, list[str]], tuple[np.ndarray, np.ndarray]],
) -> list[PreparedQuery]:
    """The one preparation loop: per query, retrieve the candidates once,
    build the stack and offsets of every candidate, in entity-id order,
    with one ``rows(query, support, entity_ids)`` call, and keep them."""
    retrieval = retrieval or RetrievalConfig()
    out = []
    for query in queries:
        qid = query.query_id
        support = find_candidates(index, query, retrieval).support
        entity_ids = sorted(support)
        stack, offsets = rows(query, support, entity_ids) if entity_ids else _no_rows()
        good, bad = judgments.good_for(qid), judgments.bad_for(qid)
        out.append(PreparedQuery.from_stack(qid, entity_ids, stack, offsets, good, bad))
    return out


def prepare_queries(
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    layout: FeatureLayout,
    retrieval: RetrievalConfig | None = None,
    bm25: Bm25Params = Bm25Params(),
) -> list[PreparedQuery]:
    """Retrieve candidates and featurize them for every query: one
    :func:`support_matrix` call per query."""
    rows = partial(support_matrix, index, layout=layout, bm25=bm25)
    return _prepare(index, queries, judgments, retrieval, rows)


def prepare_macdonald(
    index: CorpusIndex,
    queries: Sequence[Query],
    judgments: Judgments,
    retrieval: RetrievalConfig | None = None,
    bm25: Bm25Params = Bm25Params(),
) -> list[PreparedQuery]:
    """Entity-level voting features: each entity is one 7-feature row."""

    def rows(query, support, entity_ids):
        features = macdonald_features(index, query, support, bm25)
        return np.array([features[eid] for eid in entity_ids]), np.arange(len(entity_ids) + 1)

    return _prepare(index, queries, judgments, retrieval, rows)


def soft_hinge(a):
    """Smooth hinge softplus(a) = log(1 + e^a) and its derivative sigmoid(a)."""
    arr = np.asarray(a, dtype=float)
    value = np.logaddexp(0.0, arr)
    deriv = sigmoid(arr)
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


@dataclass(frozen=True)
class TrainingSet:
    """Every trainable query's sampled pairs over one stacked matrix.

    Built once per fit by :meth:`from_prepared`.  ``stack`` holds the
    context rows of every trainable query, in query-id order, and entity
    k's rows are stack[offsets[k]:offsets[k+1]] across all queries.
    Pair p compares entities ``good[p]`` and ``bad[p]`` of one query and
    carries ``pair_weight[p]`` = 1/|pairs of its query|, so each query's
    pairs add up to weight 1.
    """

    stack: np.ndarray
    offsets: np.ndarray
    segments: np.ndarray
    good: np.ndarray
    bad: np.ndarray
    pair_weight: np.ndarray

    @classmethod
    def from_prepared(cls, prepared: Sequence[PreparedQuery], config: TrainConfig) -> "TrainingSet":
        """Stack the trainable queries and draw each one's pairs with
        :func:`pair_sample`; untrainable queries are left out."""
        usable = sorted((pq for pq in prepared if pq.trainable), key=lambda p: p.query_id)
        if not usable:
            empty = np.empty(0, dtype=int)
            return cls(np.zeros((0, 0)), np.zeros(1, dtype=int), empty, empty, empty, np.empty(0))
        base = np.cumsum([0] + [pq.n_entities for pq in usable])
        good, bad, pair_weight = [], [], []
        for pq, start in zip(usable, base):
            gi, bi = pair_sample(len(pq.good), len(pq.bad), config.pair_cap, config.seed, pq.query_id)
            good.append(start + np.asarray(pq.good, dtype=int)[gi])
            bad.append(start + np.asarray(pq.bad, dtype=int)[bi])
            pair_weight.append(np.full(gi.shape[0], 1.0 / gi.shape[0]))
        counts = np.concatenate([np.diff(pq.offsets) for pq in usable])
        return cls(
            stack=np.ascontiguousarray(np.vstack([pq.stack for pq in usable]), dtype=float),
            offsets=np.concatenate([[0], np.cumsum(counts)]),
            segments=np.repeat(np.arange(counts.shape[0]), counts),
            good=np.concatenate(good),
            bad=np.concatenate(bad),
            pair_weight=np.concatenate(pair_weight),
        )

    @property
    def n_entities(self) -> int:
        return self.offsets.shape[0] - 1


def _as_training_set(
    prepared: Sequence[PreparedQuery] | TrainingSet, config: TrainConfig
) -> TrainingSet:
    if isinstance(prepared, TrainingSet):
        return prepared
    return TrainingSet.from_prepared(prepared, config)


@dataclass(frozen=True)
class _Penalty:
    """Where the regularizer reads a layout's weights.  ``lower[p]`` and
    ``upper[p]`` are the cells of neighbor pair p, each grid-shaped
    block's vertical pairs then its horizontal ones; ``blocks`` holds each
    block's pair bounds (start, split, stop).  Contribution k adds
    ``sign[k]`` times pair ``pair[k]``'s difference to block cell
    ``cell[k]``, in the order the per-block updates would; ``cells`` maps
    block cell numbers to weight indices."""

    ridge: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]
    pair: np.ndarray
    sign: np.ndarray
    cell: np.ndarray
    cells: np.ndarray


@lru_cache(maxsize=16)
def _penalty(dimension: int, layout: FeatureLayout | None) -> _Penalty:
    """The :class:`_Penalty` of a layout: built once, not per evaluation."""
    ridge_mask = np.ones(dimension, dtype=bool)
    lower, upper, blocks, pair, sign, cell, cells = [], [], [], [], [], [], []
    for family in ("grid", "rectangle") if layout is not None else ():
        if not layout.has(family):
            continue
        rows, cols = layout.grid_shape
        start = layout.family_offset(family)
        ridge_mask[start : start + rows * cols] = False
        grid = np.arange(rows * cols).reshape(rows, cols)
        first, base = len(lower), len(cells)
        for hi, lo in ((grid[1:, :], grid[:-1, :]), (grid[:, 1:], grid[:, :-1])):
            hi, lo = hi.ravel(), lo.ravel()
            pairs = np.arange(hi.size) + len(lower)
            lower.extend(start + lo)
            upper.extend(start + hi)
            # gg[hi] += d, then gg[lo] -= d
            pair.extend([*pairs, *pairs])
            sign.extend([1.0] * hi.size + [-1.0] * hi.size)
            cell.extend([*(base + hi), *(base + lo)])
        blocks.append((first, first + (rows - 1) * cols, len(lower)))
        cells.extend(range(start, start + rows * cols))
    arrays = [np.flatnonzero(ridge_mask)] + [
        np.array(a, dtype=t) for a, t in
        ((lower, int), (upper, int), (pair, int), (sign, float), (cell, int), (cells, int))
    ]
    for a in arrays:
        a.setflags(write=False)
    ridge, lower, upper, pair, sign, cell, cells = arrays
    return _Penalty(ridge, lower, upper, tuple(blocks), pair, sign, cell, cells)


def regularization(
    weights: np.ndarray, layout: FeatureLayout | None, config: TrainConfig
) -> tuple[float, np.ndarray]:
    """Ridge on plain features, neighbor smoothness on grid-shaped blocks.

    The layout's index arrays are cached, and the smoothness terms of all
    blocks come from one gather and one bincount, with the bits of one
    block at a time: each sum covers one block's vertical or horizontal
    squares, and each cell's gradient adds its neighbor differences in
    the order of the per-block loop.
    """
    w = np.asarray(weights, dtype=float)
    grad = np.zeros_like(w)
    lam2 = config.ridge_width**2
    penalty = _penalty(w.shape[0], layout)

    ridge = w[penalty.ridge]
    value = float((ridge**2).sum()) / (2.0 * lam2)
    grad[penalty.ridge] += ridge / lam2
    if not penalty.blocks:
        return value, grad

    diff = w[penalty.upper] - w[penalty.lower]
    squares = diff**2
    for start, split, stop in penalty.blocks:
        smooth = float(squares[start:split].sum()) + float(squares[split:stop].sum())
        value += config.smooth_weight * smooth / (2.0 * lam2)
    gg = np.bincount(penalty.cell, diff[penalty.pair] * penalty.sign, penalty.cells.shape[0])
    grad[penalty.cells] += (config.smooth_weight / lam2) * gg
    return value, grad


def objective_and_gradient(
    weights,
    prepared: Sequence[PreparedQuery] | TrainingSet,
    spec: AggregatorSpec,
    config: TrainConfig,
    layout: FeatureLayout | None = None,
) -> tuple[float, np.ndarray]:
    """Full training objective and its gradient at ``weights``.

    ``prepared`` is a :class:`TrainingSet`, or queries to build one from.
    One evaluation is one row product and one kernel call over the whole
    stack, one soft hinge over every sampled pair, and two bincounts for
    the entity coefficients; pair losses are summed in set order, which is
    query-id order, so the value does not depend on the order of
    ``prepared``.  Queries without both a retrieved good and a retrieved
    bad entity contribute nothing.
    """
    w = np.asarray(weights, dtype=float)
    ts = _as_training_set(prepared, config)
    reg_value, reg_grad = regularization(w, layout, config)
    if not ts.pair_weight.size:
        return reg_value, reg_grad
    V, build = segment_aggregate(spec, context_scores(w, ts.stack), ts.offsets, ts.segments)
    sh, sig = soft_hinge(1.0 + V[ts.bad] - V[ts.good])
    weighted = sig * ts.pair_weight
    n = ts.n_entities
    entity_coef = np.bincount(ts.bad, weighted, n) - np.bincount(ts.good, weighted, n)
    loss = float(np.sum(sh * ts.pair_weight))
    return loss + reg_value, ts.stack.T @ build(entity_coef) + reg_grad


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
    cutoff_ridge: float | None = None,
) -> Model:
    """Fit non-negative aggregation weights with L-BFGS-B.

    Starts from a uniform small-positive point and minimizes the
    objective under bounds w >= 0, stopping on a relative objective drop
    below ``tol`` (the solver's ``ftol``), a small projected gradient, or
    ``max_iters`` iterations.  ``meta`` records the solver's ``stop_reason``,
    its iterations, its objective evaluations, and how far from stationary
    it stopped: ``projected_gradient_norm``, the infinity norm of the
    gradient projected onto the bounds at the returned weights, taken from
    the solver's last gradient at no extra evaluation.  A non-finite objective
    or gradient raises, naming the iteration.  ``max_iters=0`` returns
    the initial point after one evaluation.

    With ``cutoff_ridge`` set, the fit goes on to the rank-cutoff decay:
    :func:`train_soft_cutoff` on the same training set, with that ridge.
    The model then scores with the cutoff's spec and ``meta`` records
    ``cutoff_ridge``.  A ridge that is not finite and positive is refused
    before the first evaluation.
    """
    config = config or TrainConfig()
    if cutoff_ridge is not None:
        _check_cutoff_ridge(cutoff_ridge)
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

    training_set = TrainingSet.from_prepared(usable, config)
    iterations = evaluations = 0

    def fun(w: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        value, gradient = objective_and_gradient(w, training_set, spec, config, layout)
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
        objective, gradient = fun(w0)
        weights, stop_reason = w0, "iteration cap is 0"
    else:
        from scipy.optimize import minimize

        result = minimize(
            fun, w0, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * dimension,
            callback=count_iteration, options={"maxiter": config.max_iters, "ftol": config.tol},
        )
        weights, objective, stop_reason = result.x, float(result.fun), str(result.message)
        gradient, iterations = result.jac, int(result.nit)
    # The bound w >= 0 blocks a positive gradient component only up to w:
    # the infinity norm of the projected gradient, as L-BFGS-B measures it.
    projected = np.where(gradient < 0.0, gradient, np.minimum(weights, gradient))

    meta = {
        "iterations": iterations,
        "evaluations": evaluations,
        "objective": objective,
        "projected_gradient_norm": float(np.max(np.abs(projected))),
        "stop_reason": stop_reason,
        "ridge_width": config.ridge_width,
        "smooth_weight": config.smooth_weight,
        "pair_cap": config.pair_cap,
        "seed": config.seed,
    }
    model = Model(weights=weights, spec=spec, layout=layout, meta=meta)
    if cutoff_ridge is not None:
        cutoff = train_soft_cutoff(model, training_set, ridge=cutoff_ridge, config=config)
        model.spec = cutoff.spec()
        meta["cutoff_ridge"] = cutoff_ridge
    return model


def model_scores(model: Model, pq: PreparedQuery) -> dict[str, float]:
    """Score every candidate entity of a prepared query in one kernel call.
    A non-finite score (say, from an overflowing context score) raises,
    naming the query and the entity."""
    if not pq.n_entities:
        return {}
    with np.errstate(over="ignore", invalid="ignore"):
        V = aggregate_score(model.spec, model.weights, pq.stack, pq.offsets)
    bad = np.flatnonzero(~np.isfinite(V))
    if bad.size:
        k = int(bad[0])
        raise TrainingError(
            f"query {pq.query_id!r}: entity {pq.entity_ids[k]!r} has a non-finite score {V[k]}"
        )
    return dict(zip(pq.entity_ids, V.tolist()))


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


def _decile_profiles(model: Model, ts: TrainingSet) -> np.ndarray:
    """Per-entity 10-vectors A with A[r] = sum of raw scores in decile r,
    so the cutoff-weighted entity score is decay @ A."""
    s = context_scores(model.weights, ts.stack)
    cells = ts.segments * NUM_DECILES + segment_deciles(s, ts.offsets)
    return np.bincount(cells, s, ts.n_entities * NUM_DECILES).reshape(-1, NUM_DECILES)


def cutoff_objective(
    decay: np.ndarray,
    model: Model,
    prepared: Sequence[PreparedQuery] | TrainingSet,
    ridge: float,
    config: TrainConfig,
) -> float:
    """Objective the LP minimizes, evaluated at a given decay vector:
    decay[0]/ridge plus, per query, the mean true hinge over its sampled
    pairs."""
    decay = np.asarray(decay, dtype=float)
    ts = _as_training_set(prepared, config)
    if not ts.pair_weight.size:
        return decay[0] / ridge
    V = _decile_profiles(model, ts) @ decay
    hinge = np.maximum(1.0 + V[ts.bad] - V[ts.good], 0.0)
    return decay[0] / ridge + float(np.sum(hinge * ts.pair_weight))


# Weight of the cutoff LP's tie-break, (CUTOFF_TIE_BREAK/ridge) * sum(decay).
CUTOFF_TIE_BREAK = 1e-6


def _check_cutoff_ridge(ridge: float) -> None:
    if not (math.isfinite(ridge) and ridge > 0.0):
        raise TrainingError(f"cutoff ridge must be finite and positive, got {ridge}")


def train_soft_cutoff(
    model: Model,
    prepared: Sequence[PreparedQuery] | TrainingSet,
    ridge: float = 1.0,
    config: TrainConfig | None = None,
) -> CutoffModel:
    """Fit the decile decay by linear programming, through the LP dual.

    ``prepared`` is a :class:`TrainingSet`, or queries to build one from;
    :func:`train_model` hands over the set its fit used.  The ridge must
    be finite and positive.

    The decay is written as non-negative increments, D = M u with M the
    upper-triangular ones matrix and u >= 0, so D is non-negative and
    non-increasing by construction and D[0] = sum(u).  With C_p the
    cumulative sum of pair p's profile difference A_b - A_g, the
    objective is

        f(u) = sum(u)/ridge + sum_p w_p max(0, 1 + C_p @ u).

    Its optimum is often a face, not a point: with 2-4 contexts per
    entity some deciles never carry mass, and their increments are
    interchangeable.  The tie-break picks the least total decay sum(D) =
    sum_r (r+1) u_r among the optimal decays, by minimizing f(u) +
    (eps/ridge) sum(D) with eps = CUTOFF_TIE_BREAK, so the decay depends on
    the pairs alone, not on their order or on how the solver walks the
    program.  For eps below a threshold set by the data the perturbed
    minimizer lies on f's optimal face; above it, f still ends within a
    relative 10 eps of its optimum, since sum(D) <= 10 D[0] <= 10 ridge f.

    A pair whose C_p has no negative entry has hinge >= 1 at every u >= 0,
    so it is linear in u and its dual variable is w_p at every optimum; it
    is folded into the right-hand side.  The dual of the rest has ten rows
    and one column per remaining pair:

        max sum(lam)  s.t.  -C.T @ lam <= (1 + eps (r+1))/ridge + sum_fixed w_p C_p,
                            0 <= lam_p <= w_p.

    u is read from the dual's constraint marginals and clamped at 0; when
    every pair folds, the right-hand side is positive and u = 0 without a
    solve.  The all-zero decay is always primal-feasible and lam = 0
    dual-feasible, so neither program is infeasible; memory grows
    linearly in the pairs.  HiGHS runs without presolve, which costs more
    than it saves on these short, wide programs.
    """
    config = config or TrainConfig()
    _check_cutoff_ridge(ridge)
    ts = _as_training_set(prepared, config)
    if not ts.pair_weight.size:
        raise TrainingError("no usable (good, bad) pairs for the cutoff program")
    profiles = _decile_profiles(model, ts)
    cumulative = np.cumsum(profiles[ts.bad] - profiles[ts.good], axis=1)
    fixed = np.all(cumulative >= 0.0, axis=1)
    if fixed.all():
        return CutoffModel(decay=np.zeros(NUM_DECILES), ridge=ridge)
    from scipy.optimize import linprog

    rhs = (1.0 + CUTOFF_TIE_BREAK * np.arange(1, NUM_DECILES + 1)) / ridge
    rhs += ts.pair_weight[fixed] @ cumulative[fixed]
    free = cumulative[~fixed]
    n_free = free.shape[0]
    result = linprog(
        -np.ones(n_free), A_ub=-free.T, b_ub=rhs,
        bounds=np.column_stack([np.zeros(n_free), ts.pair_weight[~fixed]]),
        method="highs", options={"presolve": False},
    )
    if not result.success:
        raise TrainingError(f"cutoff program failed: {result.message}")
    # The marginals are d(-sum(lam))/d(b_ub) = -u; clamp solver noise at 0.
    u = np.maximum(-result.ineqlin.marginals, 0.0)
    return CutoffModel(decay=np.cumsum(u[::-1])[::-1], ridge=ridge)
