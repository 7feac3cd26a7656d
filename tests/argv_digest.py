"""One digest line per CLI argv, for comparing the output of two source trees.

Runs a fixed set of 1,065 argv in process through ``qktoledo.cli.main`` and
prints, for each, the argv and the sha256 of its (exit code, stdout, stderr);
an argv that raises is digested with the exception's type name in place of
the exit code:

* ops 0..119 of each benchmark workload at seed 3 (``perfbench/workloads.py``);
* ``pullback`` of each embedding at ``--n 3`` and ``--n 16``, and of the
  three general-n embeddings at ``--n 100``, the largest the CLI accepts;
* ``lift-check`` of both domains at seeds 0..3 with 15 samples, and at
  seed 4 with 200 samples and with 10,000, the most the CLI accepts;
* ``classify`` of each embedding, ``selftest`` and fourteen named
  ``period-triple`` vectors (six accepted, two of them with full
  Q(i, sqrt2) entries over unequal denominators, one the worst
  full-field vector at the CLI's bit cap on a component and one of
  hundreds of terms per component; two rejected; six usage errors, four
  of them past that cap, one of those a sum of 120 terms);

each in text form and with ``--json``; then twenty-one argv that reach
the parsers' own paths (no argv, an unknown verb, a leading flag, ``--``,
two extra tokens, two unknown flags, a bad ``--samples``, five options
given as ``--opt=--``, and the help of the top-level parser and of each
verb, one of them by the prefix ``--he``), each as is.

argparse wraps usage lines at ``$COLUMNS``, so the width is pinned to 80
columns while digesting and the environment restored afterwards.  The
output is committed as ``tests/golden/argv_digest.txt`` and
``tests/test_cli.py`` diffs against it; a change that alters output on
purpose regenerates it with

    PYTHONPATH=src python tests/argv_digest.py > tests/golden/argv_digest.txt

and never drops an argv to make a diff go away.  Compare two trees with

    PYTHONPATH=<old>/src python tests/argv_digest.py > old.txt
    PYTHONPATH=<new>/src python tests/argv_digest.py > new.txt
    diff old.txt new.txt

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import EMBEDDINGS, WORKLOADS, op_at  # noqa: E402

from _helpers import full_field_vector, reciprocal_sum  # noqa: E402
from qktoledo.cli import _MAX_SAMPLES, _MAX_VECTOR_BITS, main  # noqa: E402

SEED = 3
OPS_PER_WORKLOAD = 120
# the embeddings defined for every n, digested at the CLI's largest --n
MAX_N_EMBEDDINGS = ("rho", "totally-real", "phi")

PERIOD_VECTORS = {
    "base point": "0,0,1",
    "golden": "1/2 + 1/3*i,-2/5,3",
    "sqrt2 last coordinate": "1/2,0,sqrt2",
    "full entries, unequal denominators": "1/3*i - 1/5*sqrt2,2/7,3 + 1/2*i*sqrt2",
    "positive (rejected)": "1,0,0",
    "null (rejected)": "1,0,1",
    "two components (usage error)": "1,2",
    "unparsable (usage error)": "1,x,1",
    "full entries at the bit cap": full_field_vector(_MAX_VECTOR_BITS),
    "full entries past the bit cap (usage error)":
        full_field_vector(_MAX_VECTOR_BITS + 1),
    # both printed a traceback before the cap
    "2200-nines denominator (usage error)": "1/" + "9" * 2200 + ",0,1",
    "2200-nines product (usage error)": "0,0," + "9" * 2200 + "*" + "9" * 2200,
    # many terms per component: 300 terms of 1/900 are 1/3
    "many terms over few denominators":
        "+".join(["1/900"] * 300) + ","
        + " + ".join(["1/200*i - 1/500*sqrt2 + 1/700*i*sqrt2"] * 50) + ",1",
    "many terms past the bit cap (usage error)":
        reciprocal_sum(120, 60) + ",0,1",
}

# argv that the parsers handle themselves, digested as they are
PARSER_EDGE_ARGVS = (
    (),
    ("frobnicate",),
    ("--json", "pullback", "--embedding", "rho"),
    ("--", "pullback", "--embedding", "rho"),
    ("pullback", "--embedding", "rho", "extra"),
    ("pullback", "--embedding", "rho", "--frequency", "9"),
    ("lift-check", "--domain", "twistor", "--samples", "0"),
    # "--opt=--" parses into an empty list
    ("period-triple", "--vector=--"),
    ("pullback", "--embedding", "rho", "--n=--"),
    ("classify", "--embedding=--"),
    ("lift-check", "--domain", "twistor", "--seed=--"),
    ("lift-check", "--domain=--", "--samples", "1", "--json"),
    ("lift-check", "--domain", "twistor", "--samples", "3", "extra"),
    ("classify", "--embedding", "rho", "--json", "--frequency", "9"),
    # help exits 0 after printing; "--he" prefix-matches "--help"
    ("-h",),
    ("pullback", "-h"),
    ("lift-check", "-h"),
    ("classify", "-h"),
    ("period-triple", "-h"),
    ("selftest", "-h"),
    ("pullback", "--he"),
)


def json_argvs():
    """Every argv of the set in its --json form."""
    for workload in WORKLOADS:
        for index in range(OPS_PER_WORKLOAD):
            yield op_at(workload, SEED, index).argv
    for embedding in EMBEDDINGS:
        for n in (3, 16):
            yield ("pullback", "--embedding", embedding, "--n", str(n), "--json")
    for embedding in MAX_N_EMBEDDINGS:
        yield ("pullback", "--embedding", embedding, "--n", "100", "--json")
    for domain in ("twistor", "u3u1u2"):
        for seed in range(4):
            yield ("lift-check", "--domain", domain, "--samples", "15",
                   "--seed", str(seed), "--json")
    for domain in ("twistor", "u3u1u2"):
        for samples in (200, _MAX_SAMPLES):
            yield ("lift-check", "--domain", domain, "--samples", str(samples),
                   "--seed", "4", "--json")
    for embedding in EMBEDDINGS:
        yield ("classify", "--embedding", embedding, "--json")
    yield ("selftest", "--json")
    for vector in PERIOD_VECTORS.values():
        yield ("period-triple", "--vector", vector, "--json")


def argvs():
    for argv in json_argvs():
        yield tuple(a for a in argv if a != "--json")
        yield argv
    yield from PARSER_EDGE_ARGVS


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
        except Exception as exc:        # a crash is recorded, not fatal
            code = type(exc).__name__
    payload = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(payload).hexdigest()


def digest_lines():
    """One line per argv: the digest, two spaces, the argv."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return [f"{digest(argv)}  {' '.join(argv)}".rstrip() for argv in argvs()]


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
