"""A mutation run: does some test fail when a decision line is flipped?

Each mutant is a named, exact (file, old text, new text) replacement in
``src/qktoledo``.  For each one the script copies the repository, without
``.git``, caches and ``perfbench/`` (no test under ``tests/`` needs the
benchmark), into a temporary directory, applies the replacement there,
runs ``python -m pytest -q -x tests`` in the copy and prints ``killed``
with the first failing test, or ``survived`` (all passed).  At most two
copies run at once.  A mutant whose old text is missing, or occurs more
than once, stops the run before anything is copied, and so does a control
copy with no replacement that fails its tests, so neither a mutant that no
longer applies nor a broken copy can pass as killed.

Run it as

    python tests/mutants.py

It exits 0 when every mutant is killed, 1 when one survived and 2 for a
mutant that does not apply or a failing control.  One mutant takes about as
long as the test suite.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "qktoledo")
WORKERS = 2

# name: (file under src/qktoledo, old text, new text)
MUTANTS = {
    "classify-zero-allowance": (
        "lifting.py",
        "first in (CONJUGATE_LINEAR, ZERO_MAP)",
        "first in (CONJUGATE_LINEAR,)"),
    "inertia-pair-pivot": (
        "linalg.py",
        "g[i][i] = (lam * lam.conj()) * 2",
        "g[i][i] = (lam * lam.conj())"),
    "is-negative-le": (
        "lifting.py",
        "herm_form(v, v, BALL_SIG).real_sign() < 0",
        "herm_form(v, v, BALL_SIG).real_sign() <= 0"),
    "twistor-first-off-entry": (
        "lifting.py",
        "return _pattern_violations(a, _TWISTOR_OFF)",
        "return _pattern_violations(a, _TWISTOR_OFF[:1])"),
    "horizontality-p-raise-off": (
        "lifting.py",
        "if any(herm_form(vec, u, BALL_SIG) for u in basis):",
        "if False and any(herm_form(vec, u, BALL_SIG) for u in basis):"),
    "definiteness-or": (
        "linalg.py",
        "if n_plus and n_minus:",
        "if n_plus or n_minus:"),
    "real-mul-factor-2": (
        "geometry.py",
        "return u[0] * v[0] + 2 * u[1] * v[1],",
        "return u[0] * v[0] + u[1] * v[1],"),
    "unit-pairings-sign": (
        "geometry.py",
        "            ta -= pa\n",
        "            ta += pa\n"),
    "max-n-ge": (
        "cli.py",
        "if args.n > _MAX_N:",
        "if args.n >= _MAX_N:"),
    "max-samples-ge": (
        "cli.py",
        "if args.samples > _MAX_SAMPLES:",
        "if args.samples >= _MAX_SAMPLES:"),
    "vector-bits-ge": (
        "cli.py",
        "> _MAX_VECTOR_BITS:",
        ">= _MAX_VECTOR_BITS:"),
    "rref-eliminates-below-only": (
        "linalg.py",
        "if i != rank and rows[i][col]:",
        "if i > rank and rows[i][col]:"),
    "inertia-sign": (
        "linalg.py",
        "if d.real_sign() > 0:",
        "if d.real_sign() < 0:"),
    "inverse-sqrt2-sign": (
        "scalars.py",
        "(c * p - a * q) * den",
        "(c * p + a * q) * den"),
    # `return 0 if all_ok else 1` ends two handlers: each old text includes
    # the unique line before it
    "lift-check-exit-0": (
        "cli.py",
        'print(f"summary: {summary}")\n    return 0 if all_ok else 1',
        'print(f"summary: {summary}")\n    return 0'),
    "selftest-exit-0": (
        "cli.py",
        "{len(results)})\")\n    return 0 if all_ok else 1",
        "{len(results)})\")\n    return 0"),
}


def _stop(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def _check_applies(name) -> None:
    """Exit 2 unless the mutant's old text occurs exactly once."""
    path, old, _ = MUTANTS[name]
    count = (ROOT / PACKAGE / path).read_text().count(old)
    if count != 1:
        _stop(f"mutant {name}: old text occurs {count} times in "
              f"{PACKAGE / path}, expected once: {old!r}")


def run_mutant(name) -> str | None:
    """The first failing test with the mutant applied (it is killed), or None
    if every test passes; the name None runs the control copy, with no
    replacement."""
    with tempfile.TemporaryDirectory(prefix="qktoledo-mutant-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "perfbench"))
        if name is not None:
            path, old, new = MUTANTS[name]
            target = copy / PACKAGE / path
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "tests"], cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; any other nonzero code (a usage or
    # collection error) would not show that a test caught the mutant
    if result.returncode not in (0, 1):
        raise RuntimeError(f"mutant {name}: pytest exited {result.returncode}\n"
                           f"{result.stdout}{result.stderr}")
    if result.returncode == 0:
        return None
    return next((line for line in result.stdout.splitlines()
                 if line.startswith(("FAILED", "ERROR"))), "pytest exited 1")


def main() -> int:
    for name in MUTANTS:
        _check_applies(name)
    survivors = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = pool.map(run_mutant, [None, *MUTANTS])
        if control := next(runs):
            pool.shutdown(cancel_futures=True)
            _stop(f"control: the unmutated copy fails its tests: {control}")
        for name, failure in zip(MUTANTS, runs):
            survivors += failure is None
            print(f"{'survived' if failure is None else 'killed':8}  {name}  "
                  f"({MUTANTS[name][0]})  {failure or ''}".rstrip(), flush=True)
    print(f"{len(MUTANTS) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
