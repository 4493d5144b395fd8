"""Ranking construction, rank metrics, cross-validation, significance tests.

All metrics are computed per query against the full judged sets, then
macro-averaged.  Judged-good entities that the system never retrieved
count as misses (zero contribution to AP/RR/NDCG; a lost comparison in
the pair-swap rate), so systems cannot improve a score by dropping hard
entities from their candidate pool.

Only :func:`paired_ttest` needs scipy (Student's t tail); it imports
``scipy.stats`` on its first call, so ranking and metrics run on numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from proxrank.corpus import Judgments
from proxrank.seeding import substream

__all__ = [
    "EvalError",
    "EvalReport",
    "MetricSet",
    "Ranking",
    "compute_metrics",
    "cross_validate",
    "paired_ttest",
    "rank_entities",
    "read_report",
    "read_run",
    "significance_matrix",
    "write_comparison",
    "write_report",
    "write_run",
]

METRIC_COLUMNS = ("MAP", "MRR", "NDCG@5", "NDCG@10", "PAIRSWAP")


class EvalError(ValueError):
    """Evaluation input is malformed or insufficient."""


@dataclass(frozen=True)
class Ranking:
    """Entities ordered best-first; ties broken by entity id ascending."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def entity_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.items)

    def positions(self) -> dict[str, int]:
        """1-based rank of every retrieved entity."""
        return {eid: r + 1 for r, (eid, _) in enumerate(self.items)}


def rank_entities(query_id: str, scores: Mapping[str, float]) -> Ranking:
    items = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    return Ranking(query_id=query_id, items=items)


@dataclass(frozen=True)
class MetricSet:
    ap: float
    rr: float
    ndcg5: float
    ndcg10: float
    pairswap: float

    def as_row(self) -> tuple[float, ...]:
        return (self.ap, self.rr, self.ndcg5, self.ndcg10, self.pairswap)


def _ndcg(rank_of: Mapping[str, int], good: frozenset[str], k: int) -> float:
    if not good:
        return 0.0
    # Sum in sorted order: a set's iteration order follows the per-process
    # string hash seed, and float addition is not associative.
    dcg = sum(
        1.0 / math.log2(1.0 + rank_of[eid])
        for eid in sorted(good)
        if eid in rank_of and rank_of[eid] <= k
    )
    ideal = sum(1.0 / math.log2(1.0 + r) for r in range(1, min(k, len(good)) + 1))
    return dcg / ideal


def compute_metrics(ranking: Ranking, good: Iterable[str], bad: Iterable[str]) -> MetricSet:
    """Score one ranking against its judged good and bad entity sets."""
    good = frozenset(good)
    bad = frozenset(bad)
    if good & bad:
        raise EvalError(f"query {ranking.query_id!r}: an entity is judged both good and bad")
    rank_of = ranking.positions()

    if good:
        hits = 0
        precision_sum = 0.0
        first_rank = None
        for r, eid in enumerate(ranking.entity_ids(), start=1):
            if eid in good:
                hits += 1
                precision_sum += hits / r
                if first_rank is None:
                    first_rank = r
        ap = precision_sum / len(good)
        rr = 1.0 / first_rank if first_rank is not None else 0.0
    else:
        ap = 0.0
        rr = 0.0

    # Fraction of (good, bad) pairs the ranking puts in the wrong order.
    # A missing good loses to any retrieved bad; a missing bad loses to
    # any retrieved good; two missing entities are a coin flip.
    if good and bad:
        swapped = 0.0
        for g in good:
            for b in bad:
                g_in, b_in = g in rank_of, b in rank_of
                if g_in and b_in:
                    swapped += 1.0 if rank_of[b] < rank_of[g] else 0.0
                elif b_in:
                    swapped += 1.0
                elif not g_in:
                    swapped += 0.5
        pairswap = swapped / (len(good) * len(bad))
    else:
        pairswap = 0.0

    return MetricSet(
        ap=ap,
        rr=rr,
        ndcg5=_ndcg(rank_of, good, 5),
        ndcg10=_ndcg(rank_of, good, 10),
        pairswap=pairswap,
    )


def _macro(metric_sets: Sequence[MetricSet]) -> MetricSet:
    if not metric_sets:
        raise EvalError("cannot average an empty metric list")
    values = {}
    for f in fields(MetricSet):
        values[f.name] = sum(getattr(m, f.name) for m in metric_sets) / len(metric_sets)
    return MetricSet(**values)


@dataclass
class EvalReport:
    system: str
    per_query: dict[str, MetricSet]

    def macro(self) -> MetricSet:
        return _macro([self.per_query[qid] for qid in sorted(self.per_query)])

    def query_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_query))

    def metric_values(self, name: str) -> np.ndarray:
        """Per-query values of one MetricSet field, in query-id order."""
        return np.array([getattr(self.per_query[qid], name) for qid in self.query_ids()])


def cross_validate(
    prepared: Sequence,
    judgments: Judgments,
    fit: Callable[[Sequence], Callable[[object], Ranking]],
    protocol: str = "loocv",
    folds: int = 5,
    seed: int = 0,
    system: str = "model",
) -> EvalReport:
    """Held-out evaluation: train on each fold's complement, score the fold.

    ``fit`` receives the training split and returns a ranker mapping one
    held-out prepared query to a Ranking.  Fold assignment shuffles the
    query list with a dedicated substream, so it is reproducible for a
    given seed and independent of every other random draw.
    """
    items = sorted(prepared, key=lambda pq: pq.query_id)
    n = len(items)
    if n < 2:
        raise EvalError(f"cross-validation needs at least 2 queries, got {n}")
    if protocol == "loocv":
        n_folds = n
    elif protocol == "kfold":
        if folds < 2:
            raise EvalError(f"k-fold needs at least 2 folds, got {folds}")
        if folds > n:
            raise EvalError(f"cannot split {n} queries into {folds} folds")
        n_folds = folds
    else:
        raise EvalError(f"unknown protocol {protocol!r} (expected 'loocv' or 'kfold')")

    order = np.arange(n)
    substream(seed, "xval-folds").shuffle(order)
    assignment = {int(order[i]): i % n_folds for i in range(n)}

    per_query: dict[str, MetricSet] = {}
    for fold in range(n_folds):
        train = [items[i] for i in range(n) if assignment[i] != fold]
        held = [items[i] for i in range(n) if assignment[i] == fold]
        ranker = fit(train)
        for pq in held:
            ranking = ranker(pq)
            per_query[pq.query_id] = compute_metrics(
                ranking,
                judgments.good_for(pq.query_id),
                judgments.bad_for(pq.query_id),
            )
    return EvalReport(system=system, per_query=per_query)


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t statistic, p value).

    With zero variance in the differences the t statistic is undefined;
    identical samples get p = 1.0 and a constant nonzero gap gets
    p = 0.0, matching the limit behavior.
    """
    xs = np.asarray(a, dtype=float)
    ys = np.asarray(b, dtype=float)
    if xs.shape != ys.shape:
        raise EvalError(f"paired samples differ in length: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise EvalError("paired t-test needs at least 2 observations")
    diffs = xs - ys
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        return 0.0 if mean == 0.0 else math.copysign(math.inf, mean), (
            1.0 if mean == 0.0 else 0.0
        )
    from scipy.stats import t as t_dist

    t_stat = mean / (sd / math.sqrt(diffs.size))
    p = 2.0 * float(t_dist.sf(abs(t_stat), diffs.size - 1))
    return t_stat, p


def significance_matrix(
    reports: Sequence[EvalReport], metric: str = "ap"
) -> dict[tuple[str, str], float]:
    """Pairwise p-values on a per-query metric, keyed by (system_a, system_b)."""
    if len(reports) < 2:
        raise EvalError("need at least two reports to compare")
    qids = reports[0].query_ids()
    for rep in reports[1:]:
        if rep.query_ids() != qids:
            raise EvalError(
                f"reports cover different query sets: {rep.system!r} vs {reports[0].system!r}"
            )
    out = {}
    for i, ra in enumerate(reports):
        for rb in reports[i + 1 :]:
            _, p = paired_ttest(ra.metric_values(metric), rb.metric_values(metric))
            out[(ra.system, rb.system)] = p
            out[(rb.system, ra.system)] = p
    return out


# -- serialization ------------------------------------------------------------


def write_report(report: EvalReport, path: str) -> None:
    """TSV with one row per query plus a macro-average row labeled ALL."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system\tquery\t" + "\t".join(METRIC_COLUMNS) + "\n")
        for qid in report.query_ids():
            row = report.per_query[qid].as_row()
            fh.write(report.system + "\t" + qid + "\t" + "\t".join(repr(v) for v in row) + "\n")
        macro_row = report.macro().as_row()
        fh.write(report.system + "\tALL\t" + "\t".join(repr(v) for v in macro_row) + "\n")


def read_report(path: str) -> EvalReport:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0].split("\t") != ["system", "query", *METRIC_COLUMNS]:
        raise EvalError(f"{path}: not a metrics report")
    system = None
    per_query = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 2 + len(METRIC_COLUMNS):
            raise EvalError(f"{path}: malformed row {ln!r}")
        system = parts[0]
        if parts[1] == "ALL":
            continue
        values = [float(v) for v in parts[2:]]
        per_query[parts[1]] = MetricSet(*values)
    if system is None:
        raise EvalError(f"{path}: report has no rows")
    return EvalReport(system=system, per_query=per_query)


def write_comparison(reports: Sequence[EvalReport], path: str) -> dict[int, int]:
    """Macro metrics per system; values significantly different from the
    first (baseline) system at p < 0.05 are starred.  A report over other
    queries than the first is not tested; returns the position of each
    such report and the number of query ids that differ."""
    if not reports:
        raise EvalError("no reports to compare")
    baseline = reports[0]
    base_ids = set(baseline.query_ids())
    untested = {
        k: len(base_ids.symmetric_difference(rep.query_ids()))
        for k, rep in enumerate(reports)
        if rep.query_ids() != baseline.query_ids()
    }
    field_names = [f.name for f in fields(MetricSet)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system\t" + "\t".join(METRIC_COLUMNS) + "\n")
        for k, rep in enumerate(reports):
            cells = []
            for name in field_names:
                value = getattr(rep.macro(), name)
                cell = f"{value:.4f}"
                if k and k not in untested:
                    _, p = paired_ttest(rep.metric_values(name), baseline.metric_values(name))
                    if p < 0.05:
                        cell += "*"
                cells.append(cell)
            fh.write(rep.system + "\t" + "\t".join(cells) + "\n")
    return untested


def write_run(rankings: Sequence[Ranking], path: str, tag: str = "proxrank") -> None:
    """TREC run format: qid Q0 entity rank score tag."""
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in sorted(rankings, key=lambda r: r.query_id):
            for rank, (eid, score) in enumerate(ranking.items, start=1):
                fh.write(f"{ranking.query_id} Q0 {eid} {rank} {score!r} {tag}\n")


def read_run(path: str) -> list[Ranking]:
    """Read a TREC run; entities are re-ranked from their scores so the
    result is canonical even if the file's rank column disagrees."""
    by_query: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            if not ln.strip():
                continue
            parts = ln.split()
            if len(parts) != 6:
                raise EvalError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            qid, _, eid, _, score, _ = parts
            scores = by_query.setdefault(qid, {})
            if eid in scores:
                raise EvalError(f"{path}:{lineno}: duplicate entity {eid!r} for query {qid!r}")
            try:
                value = float(score)
            except ValueError:
                raise EvalError(
                    f"{path}:{lineno}: score {score!r} for {eid!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise EvalError(f"{path}:{lineno}: score {score!r} for {eid!r} is not finite")
            scores[eid] = value
    return [rank_entities(qid, scores) for qid, scores in sorted(by_query.items())]
