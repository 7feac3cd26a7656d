"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qktoledo import (BALL_SIG, CONVENTION, ONE, FieldElem, herm_form,
                      is_negative, make_embedding, negative_line_basis,
                      pullback_constant)
from qktoledo import cli, lifting, selftest
from qktoledo.cli import _MAX_VECTOR_BITS, build_parser, main

import argv_digest
from _helpers import full_field_vector, reciprocal_sum
from argv_digest import digest_lines

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("cli_name, name", [
    ("rho", "rho"), ("totally-real", "totally_real"), ("phi", "phi"),
    ("sym-square", "sym_square")])
def test_pullback_json_matches_the_report(capsys, cli_name, name):
    rep = pullback_constant(make_embedding(name))
    code, out, _ = run_cli(capsys, "pullback", "--embedding", cli_name, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"embedding", "omega_on_basis",
                            "ratio_to_OmegaB2", "convention"}
    assert payload["embedding"] == rep.embedding
    assert payload["ratio_to_OmegaB2"] == str(rep.ratio)
    assert payload["omega_on_basis"] == str(rep.omega_value)
    assert payload["convention"] == CONVENTION
    code, out, _ = run_cli(capsys, "pullback", "--embedding", cli_name)
    assert code == 0
    assert f"convention: {CONVENTION}\n" in out


def test_pullback_general_n(capsys):
    code, out, _ = run_cli(capsys, "pullback", "--embedding", "rho", "--n", "3")
    assert code == 0
    assert "ratio_to_OmegaB2: 1/4" in out


@pytest.mark.parametrize("argv", [
    ("pullback", "--embedding", "rho", "--n", "3", "--json"),
    ("lift-check", "--domain", "twistor", "--samples", "2", "--json"),
    ("classify", "--embedding", "phi"),
    ("period-triple", "--vector", "0,0,1", "--json"),
])
def test_a_verb_call_builds_only_that_verb_parser(capsys, monkeypatch, argv):
    built, widths = [], []
    init, terminal_size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_size(*args):
        widths.append(args)
        return terminal_size(*args)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(shutil, "get_terminal_size", counted_size)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert built == [f"qktoledo {argv[0]}"]
    # the parser's formatters share one read of the terminal width
    assert len(widths) == 1


def test_lift_check_u3u1u2(capsys):
    code, out, _ = run_cli(capsys, "lift-check", "--domain", "u3u1u2",
                           "--samples", "4", "--seed", "3")
    assert code == 0
    assert "summary: PASS" in out
    assert out.count("holomorphic=True, horizontal=True") == 4


def test_lift_check_u3u1u2_never_draws_a_zero_direction(capsys):
    # seed 0 once drew both orthocomplement coefficients 0 at sample 28; a
    # zero direction leaves the line still and makes horizontality vacuous
    code, out, _ = run_cli(capsys, "lift-check", "--domain", "u3u1u2",
                           "--samples", "29", "--seed", "0")
    assert code == 0
    assert out.count("horizontal=True") == 29
    assert "w=(0, 0, 0)" not in out


def test_lift_check_u3u1u2_builds_one_orthocomplement_per_line(capsys, monkeypatch):
    # a line's basis is built and checked the first time it is drawn and
    # read from cli._LINES after that, so a run builds one basis per
    # distinct v0 it prints, and a second run in the same process none
    calls = []
    real = lifting.negative_line_basis

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(lifting, "negative_line_basis", counted)
    monkeypatch.setattr(cli, "negative_line_basis", counted, raising=False)
    # an entry left by an earlier run would hide the patch
    cli._LINES.clear()
    argv = ("lift-check", "--domain", "u3u1u2", "--samples", "50", "--seed", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("horizontal=True") == 50
    lines = set(re.findall(r"v0=(\([^)]*\))", out))
    assert 1 < len(lines) < 50
    assert len(calls) == len(lines)
    assert {cli._fmt_vec(v) for v in calls} == lines
    calls.clear()
    assert run_cli(capsys, *argv) == (code, out, "")
    assert calls == []


def test_line_memo_is_bounded_and_holds_the_checked_lines(capsys):
    # 10,000 samples draw each of the 81 keys (four halves in -1..1) many
    # times, and the memo keeps one entry per key: no more than 81
    cli._LINES.clear()
    code, _, _ = run_cli(capsys, "lift-check", "--domain", "u3u1u2",
                         "--samples", "10000", "--seed", "5")
    assert code == 0
    assert set(cli._LINES) == set(itertools.product(range(-1, 2), repeat=4))
    assert sum(line is not None for line in cli._LINES.values()) == 65
    for (a1, b1, a2, b2), line in cli._LINES.items():
        # v0 = (x1, x2, 1) with x_k = (a_k + b_k*i)/2 is negative iff
        # |x1|^2 + |x2|^2 < 1
        negative = Fraction(a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2, 4) < 1
        assert (line is not None) is negative
        if negative:
            v0, basis = line
            assert v0 == (FieldElem(Fraction(a1, 2), Fraction(b1, 2)),
                          FieldElem(Fraction(a2, 2), Fraction(b2, 2)), ONE)
            assert basis == negative_line_basis(v0)[1]
            assert all(herm_form(v0, u, BALL_SIG) == 0 for u in basis)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_choice_of_a_range_draws_as_randint(bound):
    span = range(-bound, bound + 1)
    for seed in range(50):
        drawn, twin = random.Random(seed), random.Random(seed)
        got = [drawn.choice(span) for _ in range(200)]
        want = [twin.randint(-bound, bound) for _ in range(200)]
        assert got == want, (
            f"seed {seed}: choice(range) no longer advances the generator as "
            "randint does (both used to make one _randbelow call); the "
            "lift-check draws in cli.py depend on it")


def test_random_negative_line_direction_is_the_basis_combination():
    rng = random.Random(11)
    for _ in range(2000):
        v0, w = cli._random_negative_line(rng)
        assert v0[2] == ONE and is_negative(v0)
        # w against a basis built afresh, not the one cli._LINES holds
        _, (u1, u2) = negative_line_basis(v0)
        c1, c2 = w[:2]
        assert w == tuple(c1 * x + c2 * y for x, y in zip(u1, u2))
        assert herm_form(v0, w, BALL_SIG) == 0


def test_lift_check_json_deterministic(capsys):
    # one sample has no separator between records; only twistor samples
    # carry violations
    for domain in ("twistor", "u3u1u2"):
        for seed in range(20):
            samples = (1, 15, 2, 6)[seed % 4]
            args = ("lift-check", "--domain", domain, "--samples", str(samples),
                    "--seed", str(seed), "--json")
            code1, out1, _ = run_cli(capsys, *args)
            code2, out2, _ = run_cli(capsys, *args)
            assert code1 == code2 == 0
            assert out1 == out2
            payload = json.loads(out1)
            # the frame and the records written in it are json's own rendering
            assert out1 == json.dumps(payload, sort_keys=True) + "\n"
            assert (payload["check"], payload["seed"], payload["summary"]) \
                == (domain, seed, "PASS")
            assert len(payload["samples"]) == samples
            for sample in payload["samples"]:
                assert set(sample) == {"check", "input", "verdict", "violations",
                                       "pass"}
                assert bool(sample["violations"]) == (domain == "twistor")
                for violation in sample["violations"]:
                    assert set(violation) == {"row", "col", "value"}


@pytest.mark.parametrize("golden, argv", [
    ("lift_check_twistor_seed11.json",
     ("lift-check", "--domain", "twistor", "--samples", "3", "--seed", "11", "--json")),
    ("lift_check_u3u1u2_seed5.txt",
     ("lift-check", "--domain", "u3u1u2", "--samples", "2", "--seed", "5")),
    ("period_triple.json",
     ("period-triple", "--vector", "1/2 + 1/3*i,-2/5,3", "--json")),
    ("lift_check_u3u1u2_seed3.json",
     ("lift-check", "--domain", "u3u1u2", "--samples", "20", "--seed", "3", "--json")),
    *((f"classify_{embedding.replace('-', '_')}.json",
       ("classify", "--embedding", embedding, "--json"))
      for embedding in ("rho", "totally-real", "phi", "sym-square")),
    ("selftest.txt", ("selftest",)),
    *((f"pullback_{embedding.replace('-', '_')}.txt",
       ("pullback", "--embedding", embedding))
      for embedding in ("rho", "totally-real", "phi", "sym-square")),
    ("pullback_rho_n3.json", ("pullback", "--embedding", "rho", "--n", "3", "--json")),
    ("selftest.json", ("selftest", "--json")),
    *((f"classify_{embedding.replace('-', '_')}.txt",
       ("classify", "--embedding", embedding))
      for embedding in ("rho", "totally-real", "phi", "sym-square")),
])
def test_stdout_matches_the_golden_file(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


_VERB_NAMES = ("pullback", "lift-check", "classify", "period-triple", "selftest")
_TOKEN_POOL = _VERB_NAMES + (
    "pull", "--embedding", "--n", "--domain", "--samples", "--seed", "--vector",
    "--json", "-h", "--", "rho", "sym-square", "twistor", "u3u1u2", "3", "0",
    "-2", "x", "0,0,1", "1,x", "frobnicate", "--frequency", "-q", "--help",
    "--he", "--n=--", "-5")


def _parse_outcome(parse, argv):
    """The namespace or exit code of parse(argv), its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["80", "40", "200"])
def test_single_verb_parser_matches_the_full_parser(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    r = random.Random(16)
    outcomes = set()
    for _ in range(400):
        first = r.choice(_VERB_NAMES if r.random() < 0.6 else _TOKEN_POOL)
        argv = [first] + [r.choice(_TOKEN_POOL) for _ in range(r.randint(0, 6))]
        got = _parse_outcome(cli.parse_args, argv)
        assert got == _parse_outcome(build_parser().parse_args, argv), argv
        outcomes.add(got[0] if isinstance(got[0], int) else "namespace")
    assert outcomes == {"namespace", 0, 2}


def test_help_wraps_at_the_width_argparse_computes(monkeypatch):
    # oracle: the same parsers with argparse's own HelpFormatter, which
    # reads the terminal width itself, once per formatter
    argvs = [["-h"], ["pullback"], ["pullback", "--embedding", "rho", "--n", "1"]] + [
        [verb, "-h"] for verb in _VERB_NAMES]

    def outcomes():
        return [_parse_outcome(cli.main, argv) for argv in argvs]

    for columns in range(20, 121):
        monkeypatch.setenv("COLUMNS", str(columns))
        got = outcomes()
        with monkeypatch.context() as own_width:
            own_width.setattr(cli, "_formatter_class", lambda: argparse.HelpFormatter)
            assert got == outcomes(), columns


def test_argv_digest_matches_the_golden_file():
    want = (GOLDEN / "argv_digest.txt").read_text().splitlines()
    # the file is its own corpus: an argv is added, never dropped
    assert len(want) >= 1075
    got = digest_lines()
    changed = [line.split("  ", 1)[-1] for line in set(got) - set(want)]
    assert got == want, f"{len(changed)} argv changed output: {changed[:10]}"


def test_argv_digest_records_a_crash_by_its_type_name(monkeypatch):
    def crash(argv):
        print("partial")
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(argv_digest, "main", crash)
    want = hashlib.sha256(b"ZeroDivisionError\0partial\n\0").hexdigest()
    assert argv_digest.digest(("pullback",)) == want


# Imports argv_digest with the tests directory as the working directory and
# only src on PYTHONPATH, and prints the name and file of every module loaded.
_MODULES_AFTER_ARGV_DIGEST_IMPORT = """
import sys
import argv_digest
for name, module in list(sys.modules.items()):
    print(name, getattr(module, "__file__", None) or "")
"""


def test_argv_digest_loads_nothing_from_perfbench():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_ARGV_DIGEST_IMPORT],
        cwd=ROOT / "tests", capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.partition(" ")[::2] for line in proc.stdout.splitlines())
    assert "argv_digest" in loaded and "workloads" not in loaded
    perfbench = ROOT / "perfbench"
    assert not [name for name, file in loaded.items()
                if file and Path(file).resolve().is_relative_to(perfbench)]


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_selftest_exits_1_when_a_check_fails(capsys, monkeypatch, fmt):
    def broken():
        return False, "got 1, want 2"

    monkeypatch.setattr(selftest, "CHECKS", [*selftest.CHECKS[:1],
                                             ("broken", broken)])
    code, out, _ = run_cli(capsys, "selftest", *fmt)
    assert code == 1
    if fmt:
        payload = json.loads(out)
        assert payload["summary"] == "FAIL"
        assert payload["checks"][1] == {"name": "broken", "pass": False,
                                        "detail": "got 1, want 2"}
    else:
        assert out.endswith("FAIL broken: got 1, want 2\nselftest: FAIL (1/2)\n")


def test_period_triple_base(capsys):
    code, out, _ = run_cli(capsys, "period-triple", "--vector", "0,0,1")
    assert code == 0
    assert "S2Lperp: dimension 3, positive definite" in out
    assert "L2: dimension 1, positive definite" in out
    assert "LoLperp: dimension 2, negative definite" in out


def test_period_triple_exact_components(capsys):
    code, out, _ = run_cli(capsys, "period-triple", "--vector",
                           "1/2, 1/2*i, 1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["LoLperp"]["definiteness"] == "negative"
    assert payload["vector"] == ["1/2", "1/2*i", "1"]


@pytest.mark.parametrize("argv, message", [
    (("lift-check", "--domain", "twistor", "--samples", "0"),
     "--samples must be at least 1"),
    (("lift-check", "--domain", "u3u1u2", "--samples", "-5"),
     "--samples must be at least 1"),
    (("pullback", "--embedding", "rho", "--n", "0"), "--n must be at least 2"),
    (("pullback", "--embedding", "rho", "--n", "1"), "--n must be at least 2"),
    (("pullback", "--embedding", "phi", "--n", "-3"), "--n must be at least 2"),
    (("period-triple", "--vector", "0,1"), "--vector needs 3 components, got 2"),
    (("period-triple", "--vector", "0,0,1,0"),
     "--vector needs 3 components, got 4"),
    (("period-triple", "--vector", "1/0,0,1"),
     "cannot parse --vector: zero denominator in '1/0'"),
    (("pullback", "--embedding", "rho", "--n", "101"), "--n must be at most 100"),
    (("lift-check", "--domain", "twistor", "--samples", "10001"),
     "--samples must be at most 10000"),
    (("period-triple", "--vector", "1 0,0,5 0"),
     "cannot parse --vector: malformed term in '1 0'"),
    (("frobnicate",), "argument verb: invalid choice: 'frobnicate'"),
    (("pullback", "--embedding", "rho", "--frequency", "9"),
     "unrecognized arguments: --frequency 9"),
    (("period-triple", "--vector", "0,0,zebra"),
     "cannot parse --vector: malformed term in 'zebra'"),
    (("pullback", "--embedding", "sym-square", "--n", "3"),
     "sym-square is defined for --n 2 only"),
])
def test_bad_input_is_a_usage_error(capsys, monkeypatch, argv, message):
    # every usage error, the parser's or a handler's, prints the full
    # parser's usage line, then the message
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: qktoledo [-h] "
                             "{pullback,lift-check,classify,period-triple,selftest}")
    assert f"\nqktoledo: error: {message}" in stderr


# the arguments each verb needs besides the option under test
_REQUIRED = {"pullback": ("--embedding", "rho"), "lift-check": ("--domain", "twistor"),
             "classify": ("--embedding", "rho"), "period-triple": ("--vector", "0,0,1"),
             "selftest": ()}


def test_every_option_given_double_dash_is_a_usage_error(capsys):
    # argparse parses "--opt=--" into an empty list; no verb may run on it
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_REQUIRED)
    tried = []
    for verb, verb_parser in sub.choices.items():
        for action in verb_parser._actions:
            for opt in action.option_strings:
                if not opt.startswith("--"):
                    continue
                argv = [verb, *_REQUIRED[verb], f"{opt}=--"]
                with pytest.raises(SystemExit) as err:
                    main(argv)
                out, stderr = capsys.readouterr()
                assert err.value.code == 2, argv
                assert out == "" and "Traceback" not in stderr, argv
                assert f"argument {opt}" in stderr or f"/{opt}:" in stderr, stderr
                tried.append(opt)
    assert {"--vector", "--n", "--embedding", "--seed", "--samples", "--domain",
            "--json", "--help"} <= set(tried)


def test_period_triple_at_the_vector_cap_runs(capsys):
    # the worst full-field shape: every component at exactly the cap
    vector = full_field_vector(_MAX_VECTOR_BITS)
    for extra in ((), ("--json",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period-triple", "--vector", vector, *extra)
        assert code == 0 and err == ""
        assert time.perf_counter() - start < 5
        assert "positive" in out and "negative" in out


_NINES = "9" * 2200


@pytest.mark.parametrize("vector, component", [
    (full_field_vector(_MAX_VECTOR_BITS + 1), 1),
    # L2 holds v0^2, which used to print a 4,400-digit denominator
    (f"1/{_NINES},0,1", 1),
    # the value of a term, not each factor, is capped
    (f"0,0,{_NINES}*{_NINES}", 3),
    ("0," + "*".join(["1/" + "7" * 4000] * 30) + ",1", 2),
], ids=["full field", "nines denominator", "nines product", "thirty factors"])
def test_period_triple_past_the_vector_cap_is_a_usage_error(capsys, vector, component):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["period-triple", "--vector", vector])
    out, stderr = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert (f"--vector component {component} exceeds {_MAX_VECTOR_BITS} bits"
            in stderr)
    assert time.perf_counter() - start < 5


def test_period_triple_many_term_vector_is_a_prompt_usage_error(capsys):
    # about 123 KB of terms whose sum is far past the bit cap
    vector = reciprocal_sum(1000, 120) + ",0,1"
    assert len(vector) < 128 * 1024        # one argv string on Linux
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["period-triple", "--vector", vector])
    out, stderr = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert f"--vector component 1 exceeds {_MAX_VECTOR_BITS} bits" in stderr
    assert time.perf_counter() - start < 10


def test_period_triple_positive_vector_fails(capsys):
    code, out, err = run_cli(capsys, "period-triple", "--vector", "1,0,0")
    assert code == 1
    assert "negative" in err


def _fresh_python(*args, **environ):
    """Run ``python *args`` in a new interpreter with ``src`` on its path
    and the environment variables environ set, one given as None unset."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **environ)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


# Every verb runs in a fresh process, so what ``qktoledo.cli`` imports is paid
# on every call; the selftest verb loads its golden checks itself.
_ADDED_BY_CLI_IMPORT = """
import sys
before = set(sys.modules)
import qktoledo.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_selftest():
    proc = _fresh_python("-c", _ADDED_BY_CLI_IMPORT)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"qktoledo.cli", "qktoledo.lifting"} <= added
    assert not added & {"dataclasses", "inspect", "qktoledo.selftest"}


def test_verbs_run_under_the_default_int_digit_limit():
    # main runs each verb under CPython's default 4,300-digit limit on
    # int-to-str and str-to-int conversion, which the vector cap is computed
    # against, so a lower or no limit set in the environment changes no
    # output: the cap vector prints, and the nines product is read and
    # refused at the cap
    argvs = [["period-triple", "--vector", full_field_vector(_MAX_VECTOR_BITS),
              "--json"],
             ["period-triple", "--vector", f"0,0,{_NINES}*{_NINES}"]]
    assert all(argv in argv_digest.corpus() for argv in argvs)

    def outputs(digits):
        procs = [_fresh_python("-m", "qktoledo.cli", *argv,
                               PYTHONINTMAXSTRDIGITS=digits) for argv in argvs]
        return [(proc.returncode, proc.stdout, proc.stderr) for proc in procs]

    want = outputs(None)
    assert [code for code, _, _ in want] == [0, 2]
    assert want[0][2] == "" and "exceeds 1024 bits" in want[1][2]
    assert outputs("640") == want
    assert outputs("0") == want


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int digit limit in this interpreter")
def test_main_restores_the_callers_int_digit_limit(capsys):
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "period-triple", "--vector",
                                 full_field_vector(_MAX_VECTOR_BITS))
        assert (code, err) == (0, "") and "negative" in out
        assert sys.get_int_max_str_digits() == 640
        with pytest.raises(SystemExit):
            main(["period-triple", "--vector", f"0,0,{_NINES}*{_NINES}"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(caller)


def test_selftest_verb_in_a_fresh_process():
    proc = _fresh_python("-m", "qktoledo.cli", "selftest", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert payload["summary"] == "PASS"
    assert payload["checks"] and all(c["pass"] for c in payload["checks"])


# Runs lift-check in process with stdout discarded, first with 100 samples
# and then with the most the CLI accepts, and prints the process's peak RSS
# in KiB after each run.  ru_maxrss also counts the peak of the process that
# launched this one (Linux carries it across exec), so procfs's VmHWM, this
# process's own peak, is read where there is one.
_PEAK_RSS_AFTER_LIFT_CHECKS = """
import contextlib, os, resource, sys
from qktoledo.cli import _MAX_SAMPLES, main

def peak_kib():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:"))
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak // 1024 if sys.platform == "darwin" else peak

peaks = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for samples in (100, _MAX_SAMPLES):
        main([*sys.argv[1:], "--samples", str(samples)])
        peaks.append(peak_kib())
print(*peaks)
"""


@pytest.mark.parametrize("domain", ["twistor", "u3u1u2"])
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_lift_check_memory_does_not_grow_with_samples(domain, fmt):
    proc = _fresh_python("-c", _PEAK_RSS_AFTER_LIFT_CHECKS, "lift-check",
                         "--domain", domain, *fmt)
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    assert large - small <= 2 * 1024, (small, large)


def test_reader_closing_stdout_early_is_not_a_traceback():
    # 2000 samples print far more than a pipe holds, so the write fails
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qktoledo.cli", "lift-check", "--domain",
         "twistor", "--samples", "2000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert head == b'{"check": "twist'
    assert "Traceback" not in err and "Exception ignored" not in err, err


def _readme_examples():
    """(argv, expected stdout) for each ``$ qktoledo ...`` line in the README's
    Examples block; the expected output is every line after it up to the
    next blank line or the end of the block."""
    lines = README.read_text().split("Examples:", 1)[1].split("```")[1].splitlines()
    examples = []
    for k, line in enumerate(lines):
        if line.startswith("$ qktoledo "):
            out = []
            for follow in lines[k + 1:]:
                if not follow.strip():
                    break
                out.append(follow)
            examples.append((shlex.split(line[2:])[1:], "".join(f"{x}\n" for x in out)))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert len(examples) >= 3
    for argv, want in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == want, argv
