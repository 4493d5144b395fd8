"""proxrank benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Inputs are generated from the seed
into ``.bench_work/`` and removed afterwards.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced; with ``--trace 1`` they are the per-layer ones, from
cycles that run the same set-up and pass untraced, then traced.  The
line before it holds the environment (versions, cores, BLAS threads,
seed) and the run's details.  See ``NOTES.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy, so that timings
# do not depend on how many cores the machine happens to have idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

from tracing import Tracer, layer_of, maxrss_mb  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SECONDS = 0.5  # per cycle, small corpora load several times
MIN_PASSES = 2  # the digest of a pass is compared with the next one
MIN_REQUESTS = 128  # p90 then has at least 12 samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "stage_s": "s",
    "rank_query_ms_p50": "ms",
    "rank_query_ms_p90": "ms",
    "rank_qps": "1/s",
    "map": "MAP",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.read_s": "s",
    "corpus.tokens": "count",
    "corpus.documents": "count",
    "corpus.retrieve_s": "s",
    "corpus.retrieve_calls": "count",
    "corpus.contexts": "count",
    "corpus.candidates": "count",
    "features.featurize_s": "s",
    "features.rows": "count",
    "features.document_scores_s": "s",
    "features.document_scores_calls": "count",
    "features.doc_score_pairs": "count",
    "features.doc_score_reuse": "ratio",
    "aggregators.score_s": "s",
    "aggregators.scored_entities": "count",
    "aggregators.balog2_s": "s",
    "aggregators.petkova_s": "s",
    "aggregators.baseline_calls": "count",
    "training.prepare_s": "s",
    "training.model_scores_s": "s",
    "training.train_s": "s",
    "training.objective_s": "s",
    "training.objective_evals": "count",
    "training.iterations": "count",
    "training.iter_cap_share": "ratio",
    "training.pairs": "count",
    "training.objective": "loss",
    "training.cutoff_s": "s",
    "training.cutoff_pairs": "count",
    "training.cutoff_rss_mb": "MB",
    "evaluation.xval_s": "s",
    "evaluation.folds": "count",
    "evaluation.metrics_s": "s",
    "evaluation.rank_entities_s": "s",
    "synth.generate_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@contextmanager
def work_dir():
    """A fresh directory under ``.bench_work/`` of the current checkout."""
    base = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(workload, args, wl) -> tuple[dict, dict]:
    """Untraced run: cycles of set-up and one pass, for ``--seconds``."""
    clock = time.perf_counter
    with work_dir() as directory:
        inputs = wl.write_inputs(workload.params, args.seed, directory)
        setups, passes, walls = [], [], []
        start = clock()
        while True:
            # Every cycle loads the inputs afresh, as a CLI invocation does,
            # then runs one pass on them, so that set-up and pass samples are
            # spread over the whole run rather than bunched at its start.
            cycle_setup = 0.0
            while True:
                data = None
                gc.collect()  # each load starts from a heap without the last one
                data, seconds = wl.setup(inputs)
                setups.append(seconds)
                cycle_setup += seconds
                if cycle_setup >= SETUP_SECONDS:
                    break
            t0 = clock()
            passes.append(workload.run_pass(data))
            walls.append(clock() - t0)
            if len(passes) >= MIN_PASSES and not passes[-1].latencies:
                break  # no request succeeds; more passes cannot fill the sample
            requests = sum(len(p.latencies) for p in passes)
            enough = len(passes) >= MIN_PASSES and requests >= MIN_REQUESTS
            if enough and clock() - start + walls[-1] + cycle_setup > args.seconds:
                break
    latencies = [t for p in passes for t in p.latencies] or [0.0, 0.0]
    maps = [p.map for p in passes if p.maps] or [0.0]
    values = {
        "setup_s": statistics.median(setups),
        "stage_s": statistics.median(p.stage_s for p in passes),
        "rank_query_ms_p50": 1e3 * statistics.median(latencies),
        "rank_query_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "rank_qps": len(latencies) / sum(latencies) if sum(latencies) else 0.0,
        "map": statistics.median(maps),
        "peak_rss_mb": maxrss_mb(),
    }
    digests = sorted({p.digest for p in passes})
    details = {
        "passes": len(passes),
        "requests": sum(len(p.latencies) for p in passes),
        "setup_samples": len(setups),
        "stage_samples_s": [p.stage_s for p in passes],
        "pass_wall_s": walls,
        "maps": passes[0].maps,
        "iterations": passes[0].iterations,
        "digests": digests,
        "problems": [q for p in passes for q in p.problems][:20],
    }
    return _finish(passes, values, END_TO_END_UNITS, details, len(digests) == 1)


def traced(workload, args, wl) -> tuple[dict, dict]:
    """Cycles of one untraced and one traced set-up and pass, for ``--seconds``.

    Per-layer figures are per traced pass: sums over the traced passes
    divided by their number.  The tracing overhead is the median traced
    cycle minus the median untraced one.
    """
    clock = time.perf_counter
    tracer = Tracer()
    plain_walls, traced_walls, passes = [], [], []
    with work_dir() as directory:
        inputs = wl.write_inputs(workload.params, args.seed, directory)
        with tracer:
            tracer.request = "generate"
            wl.write_inputs(workload.params, args.seed, directory)
        generate_s = sum(e - b for _, b, e, _, _ in tracer.spans)
        generated = len(tracer.spans)
        start = clock()
        while True:
            for walls, active in ((plain_walls, None), (traced_walls, tracer)):
                data = None
                gc.collect()
                with active if active is not None else nullcontext():
                    if active is not None:
                        active.cycle += 1
                        active.request = "setup"
                    t0 = clock()
                    data, _ = wl.setup(inputs)
                    passes.append(workload.run_pass(data, active))
                    walls.append(clock() - t0)
            if clock() - start + plain_walls[-1] + traced_walls[-1] > args.seconds:
                break
    tracer.require_fired(workload.uses)

    n = len(traced_walls)
    traced_total = sum(traced_walls)
    s = tracer.summary()
    calls, incl, own = s["calls"], s["inclusive"], s["self"]
    counts, values = tracer.counts, tracer.values
    fits = calls["train_model"]
    doc_calls = calls["document_scores"]
    per_pass = {
        "corpus.ingest_s": incl["load_corpus"],
        "corpus.read_s": incl["read_queries"] + incl["read_qrels"],
        "corpus.retrieve_s": own["find_candidates"],
        "corpus.retrieve_calls": calls["find_candidates"],
        "corpus.contexts": counts["corpus.contexts"],
        "corpus.candidates": counts["corpus.candidates"],
        "features.featurize_s": own["context_matrix"],
        "features.rows": counts["features.rows"],
        "features.document_scores_s": own["document_scores"],
        "features.document_scores_calls": doc_calls,
        "features.doc_score_pairs": len(tracer.doc_pairs),
        "aggregators.score_s": own["aggregate_score"],
        "aggregators.scored_entities": (
            calls["aggregate_score"] + calls["balog2_score"] + calls["petkova_score"]
        ),
        "aggregators.balog2_s": own["balog2_score"],
        "aggregators.petkova_s": own["petkova_score"],
        "aggregators.baseline_calls": calls["balog2_score"] + calls["petkova_score"],
        "training.prepare_s": incl["prepare_queries"],
        "training.model_scores_s": own["model_scores"],
        "training.train_s": own["train_model"],
        "training.objective_s": own["objective_and_gradient"],
        "training.objective_evals": calls["objective_and_gradient"],
        "training.iterations": counts["training.iterations"],
        "training.pairs": counts["training.pairs"],
        "training.cutoff_s": own["train_soft_cutoff"],
        "training.cutoff_pairs": counts["training.cutoff_pairs"],
        "evaluation.xval_s": own["cross_validate"],
        "evaluation.folds": tracer.parented("train_model", "cross_validate"),
        "evaluation.metrics_s": own["compute_metrics"],
        "evaluation.rank_entities_s": own["rank_entities"],
        "trace.unattributed_s": traced_total - (s["root_s"] - generate_s),
        "trace.spans": len(tracer.spans) - generated,
    }
    untraced_wall = statistics.median(plain_walls)
    traced_wall = statistics.median(traced_walls)
    metrics = {name: value / n for name, value in per_pass.items()}
    metrics.update(
        {
            "corpus.tokens": values.get("corpus.tokens", 0),
            "corpus.documents": values.get("corpus.documents", 0),
            "features.doc_score_reuse": len(tracer.doc_pairs) / doc_calls if doc_calls else 0.0,
            "training.iter_cap_share": counts["training.iter_cap_hits"] / fits if fits else 0.0,
            "training.objective": values.get("training.objective", 0.0),
            "training.cutoff_rss_mb": values.get("training.cutoff_rss_mb", 0.0),
            "synth.generate_s": generate_s,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
    )

    # Shares of the traced set-up and pass; generation ran before that window.
    functions = {k: v for k, v in own.items() if k != "generate_synthetic"}
    layers: dict[str, float] = {}
    for name, seconds in functions.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + seconds
    ranked = sorted(layers, key=layers.get, reverse=True)
    top = set(ranked[: len(workload.dominant)])
    details = {
        "traced_passes": n,
        "layer_self_share": {k: layers[k] / traced_total for k in ranked},
        "function_self_share": {
            k: functions[k] / traced_total
            for k in sorted(functions, key=functions.get, reverse=True)
        },
        "dominant_predicted": sorted(workload.dominant),
        "dominant_measured": sorted(top),
        "dominant_match": top == set(workload.dominant),
        "overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "digests": sorted({p.digest for p in passes}),
        "maps": passes[-1].maps,
        "problems": [q for p in passes for q in p.problems][:20],
    }
    if not details["dominant_match"]:
        print(
            f"perfbench: {workload.name}: largest self time in {sorted(top)}, "
            f"predicted {sorted(workload.dominant)}",
            file=sys.stderr,
        )
    return _finish(passes, metrics, PER_LAYER_UNITS, details, len(details["digests"]) == 1)


def _finish(passes, values, units, details, digests_agree) -> tuple[dict, dict]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    details["failed_share"] = failed / attempted if attempted else 1.0
    result = {
        "correct": failed == 0 and digests_agree,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": _metrics(values, units),
    }
    return result, details


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proxrank", "__init__.py")):
        print(
            f"perfbench: no proxrank sources at {SRC}; run from the root of a proxrank checkout",
            file=sys.stderr,
        )
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads as wl

    table = wl.WORKLOADS if workloads is None else workloads
    workload = table.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(table)}", file=sys.stderr)
        return 2
    try:
        run = traced if args.trace else measure
        result, details = run(workload, args, wl)
    except Exception:  # refuse with the reason; no result line
        traceback.print_exc()
        return 1
    print(json.dumps({"environment": environment(args), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
