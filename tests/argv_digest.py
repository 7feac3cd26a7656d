"""One digest line per CLI argv, for comparing the output of two source trees.

Runs a fixed set of 1,014 argv in process through ``qktoledo.cli.main`` and
prints, for each, the argv and the sha256 of its (exit code, stdout, stderr):

* ops 0..119 of each benchmark workload at seed 3 (``perfbench/workloads.py``);
* ``pullback`` of each embedding at ``--n 3`` and ``--n 16``;
* ``lift-check`` of both domains at seeds 0..3 with 15 samples;
* ``classify`` of each embedding, ``selftest`` and six named
  ``period-triple`` vectors (two accepted, two rejected, two usage errors);

each in text form and with ``--json``.  Compare two trees with

    PYTHONPATH=<old>/src python tests/argv_digest.py > old.txt
    PYTHONPATH=<new>/src python tests/argv_digest.py > new.txt
    diff old.txt new.txt

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import EMBEDDINGS, WORKLOADS, op_at  # noqa: E402

from qktoledo.cli import main  # noqa: E402

SEED = 3
OPS_PER_WORKLOAD = 120

PERIOD_VECTORS = {
    "base point": "0,0,1",
    "golden": "1/2 + 1/3*i,-2/5,3",
    "positive (rejected)": "1,0,0",
    "null (rejected)": "1,0,1",
    "two components (usage error)": "1,2",
    "unparsable (usage error)": "1,x,1",
}


def json_argvs():
    """Every argv of the set in its --json form."""
    for workload in WORKLOADS:
        for index in range(OPS_PER_WORKLOAD):
            yield op_at(workload, SEED, index).argv
    for embedding in EMBEDDINGS:
        for n in (3, 16):
            yield ("pullback", "--embedding", embedding, "--n", str(n), "--json")
    for domain in ("twistor", "u3u1u2"):
        for seed in range(4):
            yield ("lift-check", "--domain", domain, "--samples", "15",
                   "--seed", str(seed), "--json")
    for embedding in EMBEDDINGS:
        yield ("classify", "--embedding", embedding, "--json")
    yield ("selftest", "--json")
    for vector in PERIOD_VECTORS.values():
        yield ("period-triple", "--vector", vector, "--json")


def argvs():
    for argv in json_argvs():
        yield tuple(a for a in argv if a != "--json")
        yield argv


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    payload = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(payload).hexdigest()


if __name__ == "__main__":
    for argv in argvs():
        print(f"{digest(argv)}  {' '.join(argv)}")
