"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qktoledo import CONVENTION, make_embedding, pullback_constant
from qktoledo.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pullback_human(capsys):
    code, out, _ = run_cli(capsys, "pullback", "--embedding", "sym-square")
    assert code == 0
    assert "ratio_to_OmegaB2: 11/64" in out
    assert "omega_on_basis: 11/4" in out
    assert "convention:" in out


def test_pullback_totally_real(capsys):
    code, out, _ = run_cli(capsys, "pullback", "--embedding", "totally-real")
    assert code == 0
    assert "ratio_to_OmegaB2: 0" in out


def test_pullback_json(capsys):
    code, out, _ = run_cli(capsys, "pullback", "--embedding", "rho", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio_to_OmegaB2"] == "1/4"
    assert payload["embedding"] == "rho"
    assert set(payload) == {"embedding", "omega_on_basis",
                            "ratio_to_OmegaB2", "convention"}


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


def test_sym_square_requires_n2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["pullback", "--embedding", "sym-square", "--n", "3"])
    assert err.value.code == 2


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["pullback", "--embedding", "rho", "--frequency", "9"])
    assert err.value.code == 2


def test_lift_check_twistor(capsys):
    code, out, _ = run_cli(capsys, "lift-check", "--domain", "twistor",
                           "--samples", "5", "--seed", "7")
    assert code == 0
    assert out.count("member=false") == 5
    assert "summary: PASS" in out
    assert "seed: 7" in out


def test_lift_check_u3u1u2(capsys):
    code, out, _ = run_cli(capsys, "lift-check", "--domain", "u3u1u2",
                           "--samples", "4", "--seed", "3")
    assert code == 0
    assert "summary: PASS" in out
    assert out.count("holomorphic=True, horizontal=True") == 4


def test_lift_check_json_deterministic(capsys):
    args = ("lift-check", "--domain", "twistor", "--samples", "6",
            "--seed", "11", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["summary"] == "PASS"
    assert payload["seed"] == 11
    assert len(payload["samples"]) == 6
    for sample in payload["samples"]:
        assert set(sample) == {"check", "input", "verdict", "violations", "pass"}
        assert set(sample["violations"][0]) == {"row", "col", "value"}


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
])
def test_stdout_matches_the_golden_file(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def test_classify_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "--embedding", "totally-real")
    assert code == 0
    assert "column 1 overall: linear" in out
    assert "column 2 overall: conjugate_linear" in out
    assert "fails" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--embedding", "sym-square", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"]["1"] == "neither"
    assert payload["twistor_lift_condition"] is False


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


def test_period_triple_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["period-triple", "--vector", "0,0,zebra"])
    assert err.value.code == 2


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
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_period_triple_positive_vector_fails(capsys):
    code, out, err = run_cli(capsys, "period-triple", "--vector", "1,0,0")
    assert code == 1
    assert "negative" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_selftest_json(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == "PASS"
    assert all(check["pass"] for check in payload["checks"])


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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


def test_selftest_verb_in_a_fresh_process():
    proc = _fresh_python("-m", "qktoledo.cli", "selftest", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert payload["summary"] == "PASS"
    assert payload["checks"] and all(c["pass"] for c in payload["checks"])


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
