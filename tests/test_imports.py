"""Which scipy modules each entry point loads, in a fresh interpreter.

The read path (ingest, synth, rank, eval) needs numpy alone; scipy is
imported where a fit (L-BFGS-B), the cutoff LP or a t-test runs.  And
every name a module's ``__all__`` exports resolves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import proxrank
from proxrank.cli import main
from proxrank.evaluation import EvalReport, MetricSet, write_report

SRC = os.path.dirname(os.path.dirname(os.path.abspath(proxrank.__file__)))

# Runs the CLI with the given arguments, then prints the exit code and
# every loaded scipy module as JSON.
_RUN = """
import json, sys
from proxrank.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def loaded_scipy(script: str, *argv: str) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, modules = json.loads(result.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.fixture(scope="module")
def inputs(data_dir, tmp_path_factory):
    """Paths to the fixture data, plus a synthetic set that LOOCV can
    train on, a model and a run file on the fixture, and two differing
    reports over the same queries."""
    root = tmp_path_factory.mktemp("imports")
    paths = {
        "corpus": os.path.join(data_dir, "fixture_corpus.jsonl"),
        "catalog": os.path.join(data_dir, "fixture_catalog.jsonl"),
        "queries": os.path.join(data_dir, "fixture_queries.jsonl"),
        "qrels": os.path.join(data_dir, "fixture_qrels.txt"),
        "synth": str(root / "synth"),
        "model": str(root / "model"),
        "run": str(root / "run"),
        "out": str(root / "out"),
    }
    fixture = ["--corpus", paths["corpus"], "--catalog", paths["catalog"], "--queries", paths["queries"]]
    assert main(["synth", "--out", paths["synth"], "--seed", "11", "--queries", "4"]) == 0
    assert main(["train", *fixture, "--qrels", paths["qrels"], "--out", paths["model"]]) == 0
    assert main(["rank", *fixture, "--baseline", "count", "--out", paths["run"]]) == 0
    for system, shift in (("a", 0.0), ("b", 0.1)):
        per_query = {
            f"q{k}": MetricSet(0.5 + shift * k, 0.5, 0.5 + shift, 0.5, 0.1 * k) for k in range(4)
        }
        write_report(EvalReport(system, per_query), str(root / f"{system}.tsv"))
    paths["reports"] = [str(root / "a.tsv"), str(root / "b.tsv")]
    return paths


def command(name: str, p: dict) -> list[str]:
    fixture = ["--corpus", p["corpus"], "--catalog", p["catalog"], "--queries", p["queries"]]
    synth = [os.path.join(p["synth"], f) for f in ("corpus.jsonl", "queries.jsonl", "qrels.txt")]
    out = os.path.join(p["out"], name.replace(" ", "-"))
    return {
        "ingest": ["ingest", "--docs", p["corpus"], "--catalog", p["catalog"]],
        "synth": ["synth", "--queries", "4"],
        "rank --baseline count": ["rank", *fixture, "--baseline", "count"],
        "rank --baseline balog2": ["rank", *fixture, "--baseline", "balog2"],
        "rank --baseline petkova": ["rank", *fixture, "--baseline", "petkova"],
        "rank --model": ["rank", *fixture, "--model", os.path.join(p["model"], "model.json")],
        "eval": ["eval", "--run", os.path.join(p["run"], "run.txt"), "--qrels", p["qrels"]],
        "train": ["train", *fixture, "--qrels", p["qrels"], "--max-iters", "20"],
        "xval": [
            "xval", "--corpus", synth[0], "--queries", synth[1], "--qrels", synth[2],
            "--max-iters", "20", "--with-cutoff", "1.0",
        ],
        "compare": ["compare", "--reports", *p["reports"]],
    }[name] + ["--out", out]


def test_importing_the_package_and_cli_loads_no_scipy():
    code, modules = loaded_scipy(
        "import json, sys\nimport proxrank, proxrank.cli\n"
        "print(json.dumps([0, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    assert (code, modules) == (0, set())


@pytest.mark.parametrize(
    "name",
    [
        "ingest",
        "synth",
        "rank --baseline count",
        "rank --baseline balog2",
        "rank --baseline petkova",
        "rank --model",
        "eval",
    ],
)
def test_read_path_runs_on_numpy_alone(inputs, name):
    code, modules = loaded_scipy(_RUN, *command(name, inputs))
    assert code == 0
    assert modules == set()


@pytest.mark.parametrize("name", ["train", "xval"])
def test_fitting_loads_the_optimizer_but_not_the_t_distribution(inputs, name):
    code, modules = loaded_scipy(_RUN, *command(name, inputs))
    assert code == 0
    assert "scipy.optimize" in modules
    assert "scipy.stats" not in modules


def test_compare_loads_the_t_distribution(inputs):
    code, modules = loaded_scipy(_RUN, *command("compare", inputs))
    assert code == 0
    assert "scipy.stats" in modules
    with open(os.path.join(inputs["out"], "compare", "comparison.tsv")) as fh:
        assert "*" in fh.read()  # a t-test ran and found the shifted system


def test_every_exported_name_resolves():
    exported = 0
    for info in pkgutil.iter_modules(proxrank.__path__):
        module = importlib.import_module(f"proxrank.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            exported += 1
    assert exported > 50
