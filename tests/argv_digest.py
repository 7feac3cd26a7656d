"""One digest line per CLI argv, for comparing the output of two source trees.

``tests/golden/argv_digest.txt`` is both the corpus and the expected
result: each line is ``<sha256>  <argv>``, the argv written by
``shlex.join``.  The script replays each argv in order through
``qktoledo.cli.main`` and prints it again with the sha256 of its (exit
code, stdout, stderr), or of the exception's type name in place of the
exit code for an argv that raises.  The 1,075 argv cover every verb and
every cap, each in text form and then with ``--json``: the first 120 ops
of each benchmark workload at seed 3 (copied, so a workload change leaves
the corpus alone); ``pullback`` of each embedding at ``--n`` 3 and 16, and
of the three general-n ones at the cap 100; ``lift-check`` of both domains
at seeds 0..3 with 15 samples and at seed 4 with 200 and 10,000 (the cap);
``classify`` of each embedding; ``selftest``; fourteen named
``period-triple`` vectors (accepted, rejected, and usage errors, at and
past the bit cap); then, as is, twenty-one argv that reach the parsers'
own paths, the help of each parser among them; a ``period-triple``
vector with a space inside a number, in text form and with ``--json``;
three size bounds overstepped by one (``pullback --n`` 1 and 101,
``lift-check --samples`` 10,001), each in text form and with ``--json``;
last, the ``period-triple`` vector ``0,1/2,1`` (v0 = 0 with v1 != 0, a
zero pattern no named vector has), in text form and with ``--json``.

argparse wraps usage lines at ``$COLUMNS``, so the width is pinned to 80
columns while digesting.  ``tests/test_cli.py`` diffs the output against
the file.  A change that alters output on purpose writes the output over
the file, through a second file since the script reads the one it
replaces; to add an argv, append a line with any placeholder hash and
regenerate.  No argv is dropped to make a diff go away.

    PYTHONPATH=src python tests/argv_digest.py > digest.new
    mv digest.new tests/golden/argv_digest.txt

Compare two trees with ``PYTHONPATH=<old>/src`` and ``PYTHONPATH=<new>/src``
runs of the script and ``diff``.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
from pathlib import Path
from unittest import mock

from qktoledo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "argv_digest.txt"


def corpus():
    """The argv column of every line of the golden file, split, in order."""
    return [shlex.split(line.partition("  ")[2])
            for line in GOLDEN.read_text().splitlines()]


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
    """One line per argv of the corpus: the digest, two spaces, the argv."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return [f"{digest(argv)}  {shlex.join(argv)}".rstrip()
                for argv in corpus()]


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
