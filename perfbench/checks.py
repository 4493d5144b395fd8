"""Output checks the benchmark applies to every operation it times.

A ranking must hold finite scores, be sorted by score with ties broken
by entity id, and be a permutation of the query's candidate set.  A
fitted model must have finite, non-negative weights.  Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

__all__ = ["Digest", "ranking_problems", "weight_problems"]


def ranking_problems(ranking, candidates: Iterable[str]) -> list[str]:
    problems = []
    items = ranking.items
    scores = [score for _, score in items]
    if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
        problems.append(f"{ranking.query_id}: non-finite score")
    elif list(items) != sorted(items, key=lambda kv: (-kv[1], kv[0])):
        problems.append(f"{ranking.query_id}: not sorted by (-score, entity id)")
    ids = [eid for eid, _ in items]
    if len(ids) != len(set(ids)) or set(ids) != set(candidates):
        problems.append(f"{ranking.query_id}: not a permutation of the candidate set")
    return problems


def weight_problems(model) -> list[str]:
    w = np.asarray(model.weights, dtype=float)
    if not np.all(np.isfinite(w)):
        return ["model weights not finite"]
    if np.any(w < 0.0):
        return ["model weights negative"]
    return []


class Digest:
    """SHA-256 over rankings and models, with every float written exactly."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def ranking(self, ranking) -> None:
        self._hash.update(ranking.query_id.encode())
        for eid, score in ranking.items:
            self._hash.update(f"|{eid}:{float(score).hex()}".encode())
        self._hash.update(b"\n")

    def model(self, model) -> None:
        self._hash.update(repr((model.spec.operator, model.spec.transform, model.spec.decay)).encode())
        self._hash.update(",".join(float(x).hex() for x in model.weights).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
