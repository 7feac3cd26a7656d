"""A mutation run: does some test fail when a decision line is flipped?

Each mutant is a named, exact (file, old text, new text) replacement in
``src/qktoledo``.  For each one the script copies the repository, without
``.git``, caches and ``perfbench/`` (no test under ``tests/`` needs the
benchmark), into a temporary directory, applies the replacement there, runs
``python -m pytest -q -x`` on the copy's test files in name order, except
that ``tests/test_cli.py`` comes last (its argv digest replays slow
commands, which a broken kernel can make very slow), and prints ``killed``
with the first failing test, ``survived`` (all passed), ``broken`` with
pytest's first error line when pytest exits with a code other than 0 or 1
(a collection or usage error shows no test catching the mutant, so it is
not a kill), or ``timed out`` when pytest is still running after
``TIMEOUT`` seconds; a timed out copy is stopped with everything it
started.  At most two copies run at once.  SIGTERM or SIGINT stops the
running copies the same way, removes their directories and exits with 128
plus the signal number.  A mutant whose old text is missing, or occurs more
than once, stops the run before anything is copied, and so does a control copy with no replacement
that fails its tests or times out, so neither a mutant that no longer
applies nor a broken copy can pass as killed.

Run it as

    python tests/mutants.py

It exits 0 when every mutant is killed, 1 when one survived, broke or
timed out, and 2 for a mutant that does not apply or a failing control.  One mutant
takes about as long as the test suite.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "qktoledo")
WORKERS = 2
TIMEOUT = 300      # seconds per copy; the whole suite takes about 20

# the pytest process of every running copy, and whether a signal has asked
# the run to stop; a copy starts and registers its process under the lock
_LOCK = threading.Lock()
_RUNNING = set()
_STOPPING = threading.Event()

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
    # the one orthogonality guard of period_triple and horizontality_check
    "horizontality-p-raise-off": (
        "lifting.py",
        "if any(herm_form(vec, u, BALL_SIG) for u in basis):",
        "if False and any(herm_form(vec, u, BALL_SIG) for u in basis):"),
    # the per-direction guard of horizontality_check and lift-check
    "direction-guard-off": (
        "lifting.py",
        "if herm_form(v0, w, BALL_SIG):",
        "if False and herm_form(v0, w, BALL_SIG):"),
    # the line memo stores every draw as negative: _orthocomplement raises
    # on the first draw that is not, so the rejection loop still ends
    "line-memo-skips-negativity": (
        "cli.py",
        "_orthocomplement(v0) if is_negative(v0) else None",
        "_orthocomplement(v0) if v0 else None"),
    "definiteness-or": (
        "linalg.py",
        "if n_plus and n_minus:",
        "if n_plus or n_minus:"),
    "mul-factor-2": (
        "geometry.py",
        "return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),",
        "return (a1 * a2 - b1 * b2 + (c1 * c2 - d1 * d2),"),
    "omega-i-drops-conj": (
        "geometry.py",
        "_mul((a, -b, c, -d), z_y)",
        "_mul((a, b, c, d), z_y)"),
    "hermitian-negative-signature": (
        "geometry.py",
        "(1,) * len(flat_x)",
        "(-1,) * len(flat_x)"),
    "tensor-form-row-sign-only": (
        "selftest.py",
        "tuple(s_i * s_j for s_i",
        "tuple(s_i for s_i"),
    "pair-coercion-one": (
        "scalars.py",
        "return cls(scalar, ZERO)",
        "return cls(scalar, ONE)"),
    # a Quat or JetScalar with zero second part hashes as a tuple, not as
    # the scalar it equals
    "pair-hash-flipped": (
        "scalars.py",
        "return hash(first) if not second else hash((first, second))",
        "return hash(first) if second else hash((first, second))"),
    "parser-deletes-every-space": (
        "scalars.py",
        's = _SPACES_BY_OPERATOR.sub("", text).strip(" ")',
        's = text.replace(" ", "")'),
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
    "raw-skips-given-gcd": (
        "scalars.py",
        "if den != 1 and g != 1:",
        "if den != 1 and g is None:"),
    "real-sign-positive-a-always-1": (
        "scalars.py",
        "return 1 if bigger_rational else -1",
        "return 1"),
    "real-sign-negative-a-always-minus-1": (
        "scalars.py",
        "return -1 if bigger_rational else 1",
        "return -1"),
    "real-part-unreduced": (
        "scalars.py",
        "_raw(self.na, 0, self.nc, 0, self.den)",
        "_raw(self.na, 0, self.nc, 0, self.den, 1)"),
    "sub-adds": (
        "scalars.py",
        "return self + -other",
        "return self + other"),
    "record-false-true": (
        "cli.py",
        '"pass": {"true" if ok else "false"}',
        '"pass": {"true" if ok else "true"}'),
    "record-input-before-check": (
        "cli.py",
        '{{"check": {check}, \'\n'
        '                  f\'"input": {encode(given)}, ',
        '{{"input": {encode(given)}, \'\n'
        '                  f\'"check": {check}, '),
    "str-minus-as-plus": (
        "scalars.py",
        'parts.append(" - " if n < 0 else " + ")',
        'parts.append(" + " if n < 0 else " + ")'),
    "width-off-by-one": (
        "cli.py",
        "width=shutil.get_terminal_size().columns - 2)",
        "width=shutil.get_terminal_size().columns - 1)"),
    # the kept text is never read back: the output stays right, so only a
    # test of the memo itself can see it
    "str-memo-never-read": (
        "scalars.py",
        "if text is not None:",
        "if text is not None and False:"),
    # the text is kept on another value: this one renders afresh every
    # time, and ONE reads back whatever was rendered last
    "str-memo-stores-stale": (
        "scalars.py",
        "_set_text(self, text)",
        "_set_text(ONE, text)"),
    "parse-factor-drops-den": (
        "scalars.py",
        "                den *= d\n",
        "                den *= 1\n"),
    # the flag's labels hold only under the E-map identity
    "period-triple-skips-certificate": (
        "lifting.py",
        "    if failure is not None:\n        raise ValueError(f\"the E-map",
        "    if False:\n        raise ValueError(f\"the E-map"),
    # the E-map that defines W's basis, and the identity certified on it
    "e-map-e4-drops-sqrt2": (
        "embeddings.py",
        "SQRT2 * grid[0][1]",
        "grid[0][1]"),
    "certificate-drops-half": (
        "lifting.py",
        "h[i][l] * h[j][k]) * Fraction(1, 2)",
        "h[i][l] * h[j][k])"),
    # main leaves the int digit limit at the default it runs the verb under
    "int-digit-limit-not-restored": (
        "cli.py",
        "        set_limit(caller)\n",
        "        pass\n"),
    "lolperp-label-positive": (
        "lifting.py",
        '("LoLperp", "negative")',
        '("LoLperp", "positive")'),
    # the closed-form rref bases of period_triple
    "l2-row-drops-sqrt2": (
        "lifting.py",
        "SQRT2 * u, st * u",
        "u, st * u"),
    "s2lperp-row-half-sqrt2": (
        "lifting.py",
        "(ONE, ZERO, ZERO, -(h * q01), hc0,",
        "(ONE, ZERO, ZERO, -(h * q01), SQRT2 * c0,"),
    "s2lperp-mixed-row-swaps-c0-c1": (
        "lifting.py",
        "(ZERO, ZERO, ONE, p, c1 * p, c0 * p)",
        "(ZERO, ZERO, ONE, p, c0 * p, c1 * p)"),
    "lolperp-row-minus": (
        "lifting.py",
        "h * (u + c0)",
        "h * (u - c0)"),
    "lolperp-row-conj-c0": (
        "lifting.py",
        "ht * c0)",
        "ht * c0.conj())"),
    "lolperp-row-drops-h": (
        "lifting.py",
        "h * (w + c1)",
        "(w + c1)"),
    "s2lperp-rows-out-of-pivot-order": (
        "lifting.py",
        "        ((ONE, ZERO, ZERO, -(h * q01), hc0, -(hc0 * q01)),\n"
        "         (ZERO, ONE, ZERO, -(h * q10), -(hc1 * q10), hc1),\n",
        "        ((ZERO, ONE, ZERO, -(h * q10), -(hc1 * q10), hc1),\n"
        "         (ONE, ZERO, ZERO, -(h * q01), hc0, -(hc0 * q01)),\n"),
    # the first S2Lperp row left as E(u1.u1), its E3 column not cleared
    "s2lperp-row-keeps-e3": (
        "lifting.py",
        "(ONE, ZERO, ZERO, -(h * q01), hc0, -(hc0 * q01))",
        "(ONE, ZERO, c0 * c0, ZERO, SQRT2 * c0, ZERO)"),
    "generic-flag-or": (
        "lifting.py",
        "if v0 and v1:",
        "if v0 or v1:"),
    "special-flag-skips-pivot-order": (
        "lifting.py",
        "sorted(rows, key=lambda kr: kr[0])",
        "rows"),
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


def _test_files(copy) -> list[str]:
    """The copy's test files in name order, tests/test_cli.py last."""
    names = sorted((p.name for p in (copy / "tests").glob("test_*.py")),
                   key=lambda name: (name == "test_cli.py", name))
    return [f"tests/{name}" for name in names]


def run_mutant(name) -> tuple[str, str]:
    """(verdict, detail) with the mutant applied: ("killed", first failing
    test), ("survived", "") if every test passes, ("broken", pytest's first
    error line), ("timed out", ...) or ("stopped", "") once a signal has
    asked the run to stop; the name None runs the control copy, with no
    replacement."""
    with tempfile.TemporaryDirectory(prefix="qktoledo-mutant-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "perfbench"))
        if name is not None:
            path, old, new = MUTANTS[name]
            target = copy / PACKAGE / path
            target.write_text(target.read_text().replace(old, new))
        # the copy's own temporary files go under its directory too, so
        # they go with it even when its tests are killed
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   TMPDIR=tmp)
        with _LOCK:
            if _STOPPING.is_set():
                return "stopped", ""
            # a session of its own, so a timeout or a signal stops the
            # processes tests start
            proc = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", *_test_files(copy)], cwd=copy, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True)
            _RUNNING.add(proc)
        try:
            stdout, stderr = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", f"after {TIMEOUT} s"
        finally:
            with _LOCK:
                _RUNNING.discard(proc)
    # pytest exits 1 when a test failed; any other nonzero code (a usage or
    # collection error) would not show that a test caught the mutant
    if proc.returncode not in (0, 1):
        return "broken", next(
            (line for line in (stdout + stderr).splitlines()
             if line.startswith("ERROR")),
            f"pytest exited {proc.returncode}")
    if proc.returncode == 0:
        return "survived", ""
    return "killed", next((line for line in stdout.splitlines()
                           if line.startswith(("FAILED", "ERROR"))),
                          "pytest exited 1")


def _on_signal(signum, frame):
    """Kill the process group of every running copy, so that each worker's
    temporary directory is removed as its copy ends, and let no other copy
    start; then exit through the pool's shutdown, which waits for that."""
    with _LOCK:
        _STOPPING.set()
        for proc in _RUNNING:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    print(f"stopped by signal {signum}", file=sys.stderr)
    sys.exit(128 + signum)


def main() -> int:
    for name in MUTANTS:
        _check_applies(name)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _on_signal)
    verdicts = []
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        try:
            runs = pool.map(run_mutant, [None, *MUTANTS])
            control, detail = next(runs)
            if control != "survived":
                _stop(f"control: the unmutated copy did not pass ({control}): "
                      f"{detail}")
            for name, (verdict, detail) in zip(MUTANTS, runs):
                verdicts.append(verdict)
                print(f"{verdict:9}  {name}  ({MUTANTS[name][0]})  "
                      f"{detail}".rstrip(), flush=True)
        except SystemExit:
            # a failing control or a signal: start no other copy
            pool.shutdown(cancel_futures=True)
            raise
    killed = verdicts.count("killed")
    print(f"{killed} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('broken')} broken, "
          f"{verdicts.count('timed out')} timed out")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
