"""A line census of the verb path: which source lines does some argv run?

The script imports every module of ``src/qktoledo`` under ``sys.settrace``,
then replays each argv of ``tests/golden/argv_digest.txt`` through
``qktoledo.cli.main`` with ``tests/argv_digest.py`` (output captured and
digested, ``$COLUMNS`` pinned to 80), and the first argv once more through
``qktoledo.cli.run``, the console entry point that calls ``main``, and
records each body line the argv runs.
Before each argv it clears what a fresh process would not have: every
``functools`` cache of the package and the line memo of
``cli._random_negative_line``, so a line that runs once per process counts
for every argv that reaches it, not only for the first.

For each module it prints the body lines in three classes: run by a verb
other than ``selftest`` (an argv whose first word is not ``selftest``, the
help and usage-error argv among them), run only by ``selftest``, and run
by no argv.  A body line is a line of a function or method that no module
or class body holds, so def, decorator and default-value lines are not
body lines; a nested function, lambda or comprehension counts as part of
the function that holds it.  The verb path is every module but
``selftest.py``, which only the ``selftest`` verb imports, so the lines
that run while ``qktoledo.cli`` is imported count as run by a verb and
those that run while ``selftest.py`` is imported as run by ``selftest``.
Last it lists the verb-path functions and methods whose body no
non-selftest argv runs, each with the class of its body lines:
``selftest`` when the selftest verb runs some of it, ``none`` when no
argv does.

Run it as

    PYTHONPATH=src python tests/line_census.py

It uses the standard library alone, takes about twenty seconds, and exits 0.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import pkgutil
import sys
from pathlib import Path
from unittest import mock

VERB, SELFTEST = "verb", "selftest"


def _package_dir() -> Path:
    """The directory of the qktoledo package on sys.path, found without
    importing it."""
    spec = importlib.util.find_spec("qktoledo")
    return Path(spec.origin).resolve().parent


class _Recorder:
    """A ``sys.settrace`` hook that keeps (file, line) for every line that
    runs in a file of the package, into the set ``into``."""

    def __init__(self, files):
        self.files = files
        self.into = set()

    def __call__(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        into = self.into

        def local(frame, event, arg):
            if event == "line":
                into.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        return local


def _code_lines(code) -> set:
    """Every line number of the code object and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _definitions(code, prefix=""):
    """(lines, functions) of a module's code: the lines of the module and
    class bodies, and (qualified name, first line, lines) of each function
    or method they define, with the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    functions = []
    for const in code.co_consts:
        # a comprehension or lambda is part of the statement that holds it
        if not hasattr(const, "co_lines") or const.co_name.startswith("<"):
            continue
        if const.co_flags & inspect.CO_NEWLOCALS:
            functions.append((getattr(const, "co_qualname", prefix + const.co_name),
                              const.co_firstlineno, _code_lines(const)))
        else:       # a class body, which runs in the namespace it builds
            more_lines, more = _definitions(const, prefix + const.co_name + ".")
            lines |= more_lines
            functions += more
    return lines, functions


def _module_body(path):
    """(body lines, functions) of a source file: the body lines are the
    lines of its functions that no module or class body holds, so a def,
    decorator or default-value line is not one."""
    top, functions = _definitions(compile(Path(path).read_text(), path, "exec"))
    body = set().union(*(lines for _, _, lines in functions)) - top
    return body, [(name, first, lines & body) for name, first, lines in functions]


def _fresh_process_state(modules) -> None:
    """Clear each functools cache of the package and the CLI's line memo."""
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    sys.modules["qktoledo.cli"]._LINES.clear()


def _run_entry_point(argv) -> None:
    """Run argv through ``cli.run`` as its process would, with ``sys.argv``
    set, the output discarded and the ``SystemExit`` that ends it caught."""
    with mock.patch.object(sys, "argv", ["qktoledo", *argv]), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            sys.modules["qktoledo.cli"].run()
        except SystemExit:
            pass


def census():
    """(body, seen, argv count): the body lines and functions of each source
    file, the (file, line) pairs each argv class ran, and the number of
    argv replayed."""
    package = _package_dir()
    files = {str(path) for path in package.glob("*.py")}
    recorder = _Recorder(files)
    seen = {VERB: set(), SELFTEST: set()}
    # every verb imports the verb path; only the selftest verb imports the rest
    names = sorted(info.name for info in pkgutil.iter_modules([str(package)]))
    sys.settrace(recorder)
    try:
        recorder.into = seen[VERB]
        importlib.import_module("qktoledo.cli")
        recorder.into = seen[SELFTEST]
        modules = [importlib.import_module(f"qktoledo.{name}") for name in names]
    finally:
        sys.settrace(None)
    # imported only now, since importing it imports qktoledo.cli
    import argv_digest
    corpus = argv_digest.corpus()
    # each argv is digested through main; the first is also run through
    # cli.run, the entry point of every process, which main's callers skip
    replays = [(argv, argv_digest.digest) for argv in corpus]
    replays.append((corpus[0], _run_entry_point))
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv, replay in replays:
            _fresh_process_state(modules)
            recorder.into = seen[SELFTEST if argv[:1] == ["selftest"] else VERB]
            sys.settrace(recorder)
            try:
                replay(argv)
            finally:
                sys.settrace(None)
    return {path: _module_body(path) for path in sorted(files)}, seen, len(corpus)


def report(body, seen, argv_count) -> list[str]:
    """The census table and the function list, as lines of text."""
    widths = (6, 7, 15, 6)
    lines = [f"line census of {argv_count:,} argv of argv_digest.txt; "
             "body lines are the lines of function bodies",
             "",
             f"{'module':16}{'body':>6}{'verb':>7}{'selftest-only':>15}{'none':>6}"]
    total = [0] * 4
    unrun = []
    for path in sorted(body, key=lambda p: (p.endswith("selftest.py"), p)):
        name = Path(path).name
        lines_here, functions = body[path]
        verb = {line for line in lines_here if (path, line) in seen[VERB]}
        only = {line for line in lines_here - verb if (path, line) in seen[SELFTEST]}
        row = (len(lines_here), len(verb), len(only), len(lines_here - verb - only))
        if name == "selftest.py":
            lines.append(f"{'verb path':16}" + "".join(
                f"{n:>{w}}" for n, w in zip(total, widths)))
        else:
            total = [t + n for t, n in zip(total, row)]
        lines.append(f"{name:16}" + "".join(f"{n:>{w}}" for n, w in zip(row, widths)))
        for qualname, first, fn_body in functions:
            if name != "selftest.py" and fn_body and not fn_body & verb:
                kind = SELFTEST if fn_body & only else "none"
                unrun.append(f"  {name}:{first}  {qualname}  {kind}  "
                             f"({len(fn_body)} body lines)")
    lines += ["", "verb-path functions whose body no non-selftest argv runs "
              "(selftest: only the selftest verb runs some of it; none: no argv):"]
    return lines + unrun


def main() -> int:
    for line in report(*census()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
