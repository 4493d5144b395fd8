"""Span tracing around the public proxrank functions, from outside the package.

Every traced function is replaced by a wrapper in *every* module that
binds it (``training`` does ``from proxrank.corpus import find_candidates``,
the benchmark itself imports names the same way), so a call reaches the
wrapper whichever name it goes through.  A span records the function
name, start, end, the enclosing traced span and the request id the
benchmark set.  A layer's self time is its spans' time minus the time of
their direct child spans.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["TARGETS", "Tracer", "TraceError", "layer_of", "maxrss_mb"]


class TraceError(RuntimeError):
    """The instrumentation did not cover what it had to cover."""


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pair_count(prepared, config) -> int:
    """Sampled (good, bad) pairs the trainer scores: min(|G||B|, cap) per query."""
    cap = config.pair_cap if config is not None else 10_000
    return sum(min(len(pq.good) * len(pq.bad), cap) for pq in prepared if pq.trainable)


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module.attr``, plus optional hooks.

    ``pre(tracer, args, kwargs)`` runs inside the span before the call and
    its return value is passed to ``post(tracer, state, args, kwargs,
    result)``, which runs after the span has closed.
    """

    module: str
    attr: str
    pre: Callable | None = None
    post: Callable | None = None

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]


def _post_load(tracer, _state, _args, _kwargs, index) -> None:
    tracer.values["corpus.tokens"] = index.stats.collection_len
    tracer.values["corpus.documents"] = index.stats.num_docs


def _post_candidates(tracer, _state, _args, _kwargs, candidates) -> None:
    tracer.counts["corpus.candidates"] += len(candidates.support)
    tracer.counts["corpus.contexts"] += sum(len(v) for v in candidates.support.values())


def _post_matrix(tracer, _state, _args, _kwargs, matrix) -> None:
    tracer.counts["features.rows"] += matrix.shape[0]


def _post_document_scores(tracer, _state, args, kwargs, _result) -> None:
    document = _arg(args, kwargs, 0, "document")
    query = _arg(args, kwargs, 1, "query")
    tracer.doc_pairs.add((tracer.cycle, tracer.request, query.query_id, document.doc_id))


def _post_train(tracer, _state, args, kwargs, model) -> None:
    config = args[3] if len(args) > 3 else kwargs.get("config")
    max_iters = config.max_iters if config is not None else 200
    iterations = int(model.meta["iterations"])
    tracer.counts["training.iterations"] += iterations
    tracer.counts["training.iter_cap_hits"] += int(iterations >= max_iters)
    tracer.counts["training.pairs"] += _pair_count(_arg(args, kwargs, 0, "prepared"), config)
    tracer.values["training.objective"] = float(model.meta["objective"])


def _pre_cutoff(_tracer, _args, _kwargs) -> float:
    return maxrss_mb()


def _post_cutoff(tracer, rss_before, args, kwargs, _result) -> None:
    config = args[3] if len(args) > 3 else kwargs.get("config")
    tracer.counts["training.cutoff_pairs"] += _pair_count(_arg(args, kwargs, 1, "prepared"), config)
    rise = maxrss_mb() - rss_before
    tracer.values["training.cutoff_rss_mb"] = max(tracer.values.get("training.cutoff_rss_mb", 0.0), rise)


TARGETS: dict[str, Target] = {
    "generate_synthetic": Target("proxrank.synth", "generate_synthetic"),
    "load_corpus": Target("proxrank.corpus", "load_corpus", post=_post_load),
    "read_queries": Target("proxrank.corpus", "read_queries"),
    "read_qrels": Target("proxrank.corpus", "read_qrels"),
    "find_candidates": Target("proxrank.corpus", "find_candidates", post=_post_candidates),
    "context_matrix": Target("proxrank.features", "context_matrix", post=_post_matrix),
    "document_scores": Target("proxrank.features", "document_scores", post=_post_document_scores),
    "aggregate_score": Target("proxrank.aggregators", "aggregate_score"),
    "balog2_score": Target("proxrank.aggregators", "balog2_score"),
    "petkova_score": Target("proxrank.aggregators", "petkova_score"),
    "prepare_queries": Target("proxrank.training", "prepare_queries"),
    "model_scores": Target("proxrank.training", "model_scores"),
    "train_model": Target("proxrank.training", "train_model", post=_post_train),
    "objective_and_gradient": Target("proxrank.training", "objective_and_gradient"),
    "train_soft_cutoff": Target(
        "proxrank.training", "train_soft_cutoff", pre=_pre_cutoff, post=_post_cutoff
    ),
    "cross_validate": Target("proxrank.evaluation", "cross_validate"),
    "compute_metrics": Target("proxrank.evaluation", "compute_metrics"),
    "rank_entities": Target("proxrank.evaluation", "rank_entities"),
}


def layer_of(name: str) -> str:
    return TARGETS[name].layer


class Tracer:
    """In-memory spans and counters for one traced run.

    Use as a context manager: entering replaces every binding of every
    target with its wrapper, leaving restores the originals.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request: object = None
        self.cycle = 0  # which traced pass; keeps request ids of passes apart
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.doc_pairs: set[tuple] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for name, target in TARGETS.items():
            module = sys.modules.get(target.module) or __import__(target.module, fromlist=["_"])
            originals[name] = getattr(module, target.attr)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        try:
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, value in list(namespace.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and callable(value):
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, value))
            leftover = [
                f"{getattr(module, '__name__', module)}.{attr}"
                for module in list(sys.modules.values())
                if isinstance(getattr(module, "__dict__", None), dict)
                for attr, value in list(vars(module).items())
                if id(value) in wrappers
            ]
            if leftover:
                raise TraceError(f"bindings left unwrapped: {leftover}")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        target = TARGETS[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                state = target.pre(self, args, kwargs) if target.pre is not None else None
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if target.post is not None:
                target.post(self, state, args, kwargs, result)
            return result

        return traced

    # -- summaries ---------------------------------------------------------

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}

    def require_fired(self, names) -> None:
        missing = sorted(set(names) - self.fired())
        if missing:
            raise TraceError(f"wrappers that never fired: {missing}")

    def summary(self) -> dict:
        """Per function: calls, inclusive and self seconds; root-span seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        root = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[i]
            if parent is None:
                root += end - start
        return {"calls": calls, "inclusive": inclusive, "self": self_time, "root_s": root}

    def parented(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose enclosing traced span is ``parent_name``."""
        return sum(
            1
            for span in self.spans
            if span[0] == name and span[3] is not None and self.spans[span[3]][0] == parent_name
        )
