"""Pinned read-path outputs: a ranking that changes by one bit fails here.

A smoke-scale ``generate_synthetic`` corpus (``proxrank synth``) is ranked
by the three baselines and by ``rank --model`` with the model committed in
``data/pinned_model.json`` (all five feature families, a rank-cutoff
decay).  Each run file writes its scores with ``repr``, so its SHA-256 pins
every bit, and the digests are compared with ``data/pinned_digests.json``.
These paths import no scipy (``test_imports.py``), so their bits depend
on this code and numpy alone.  Training is left out: its weights depend
on the scipy build.

The digests file records the numpy version and platform it was made on.
A change that moves read-path outputs on purpose rewrites it with
``PYTHONPATH=src python tests/test_pinned_outputs.py`` and says so.
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np
import pytest

from proxrank.cli import main

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DIGESTS = os.path.join(DATA_DIR, "pinned_digests.json")
MODEL = os.path.join(DATA_DIR, "pinned_model.json")
SYNTH = [
    "--seed", "7", "--queries", "8",
    "--count-skew", "1.0", "--rarity-skew", "0.5", "--proximity-skew", "0.5",
]
RANKERS = {
    "count": ["--baseline", "count"],
    "balog2": ["--baseline", "balog2"],
    "petkova": ["--baseline", "petkova"],
    "model": ["--model", MODEL],
}


def sha256(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
        "python": platform.python_version(),
    }


def read_path_digests(root: str) -> dict[str, str]:
    """The digest of the synthetic corpus and of each ranker's run file."""
    data = os.path.join(root, "data")
    assert main(["synth", "--out", data, *SYNTH]) == 0
    inputs = [os.path.join(data, name) for name in ("corpus.jsonl", "queries.jsonl", "qrels.txt")]
    digests = {"synth": sha256(*inputs)}
    for name, flags in RANKERS.items():
        out = os.path.join(root, name)
        code = main(["rank", "--corpus", inputs[0], "--queries", inputs[1], "--out", out, *flags])
        assert code == 0
        digests[name] = sha256(os.path.join(out, "run.txt"))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return read_path_digests(str(tmp_path_factory.mktemp("pinned")))


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["synth", *RANKERS])
def test_read_path_output_is_pinned(digests, pinned, name):
    assert digests[name] == pinned["digests"][name], (
        f"{name} differs from the digest pinned on {pinned['environment']}; "
        f"this run: {environment()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        record = {"environment": environment(), "digests": read_path_digests(root)}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    print()
