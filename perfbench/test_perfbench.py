"""Tests of the benchmark's own arithmetic, checks, inputs and tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the repo root.
"""

import random
import sys

import tracer as tracer_module
from qktoledo import cli
from qktoledo.embeddings import BALL_SIG
from qktoledo.linalg import Matrix, herm_form
from qktoledo.scalars import FieldElem, parse_field_elem

from run import percentile, samples_above, tail_percentile
from tracer import (Tracer, inclusive_times, layer_metrics, parse_importtime,
                    self_times)
from worker import Tally, run_in_process
from workloads import (Op, WORKLOADS, check_pullback, hermitian_21,
                       negative_vector, op_at)


# -- percentiles -----------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([5], 90) == 5
    assert percentile(range(11), 90) == 9


def test_samples_above_counts_values_above_the_percentile():
    for n in range(1, 400):
        values = list(range(n))
        for p in (50, 90, 99):
            cut = percentile(values, p)
            assert samples_above(n, p) == sum(v > cut for v in values), (n, p)


def test_tail_percentile_is_the_highest_with_ten_samples_above():
    assert tail_percentile(0) is None
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(91) == 50
    assert tail_percentile(92) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(901) == 90
    assert tail_percentile(902) == 99
    assert tail_percentile(9001) == 99
    assert tail_percentile(9002) == 99.9


# -- self time ---------------------------------------------------------------------

def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_child_spans():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 6.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("b", 4.0, 5.0, 1),
        _span("c", 7.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {"op": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("x", 2.0, 4.0, 0),
             _span("y", 3.0, 5.0, 0), _span("z", 9.0, 12.0, 0)]
    assert self_times(spans)["p"] == 10.0 - 3.0 - 1.0


def test_inclusive_time_keeps_child_spans():
    spans = [_span("f", 0.0, 4.0, -1), _span("g", 1.0, 3.0, 0),
             _span("f", 5.0, 6.0, -1, op=1)]
    assert inclusive_times(spans) == {"f": 5.0, "g": 2.0}


# -- failure counting -----------------------------------------------------------------

def test_fail_ratio_counts_wrong_values_exceptions_and_nondeterminism():
    tally = Tally()
    argv = ("pullback", "--embedding", "rho", "--json")
    _, out = tally.execute(Op(argv, check_pullback("1/4")), run_in_process)
    assert (tally.attempted, tally.failed) == (1, 0)

    tally.execute(Op(argv, check_pullback("1/3")), run_in_process)
    assert tally.failed == 1 and "want 1/3" in tally.reasons[-1]

    def raising(argv):
        raise ZeroDivisionError("boom")
    tally.execute(Op(argv, check_pullback("1/4")), raising)
    assert tally.failed == 2 and "ZeroDivisionError" in tally.reasons[-1]

    tally.execute(Op(argv, check_pullback("1/4")), run_in_process, expected=out)
    tally.execute(Op(argv, check_pullback("1/4")), run_in_process,
                  expected=out + " ")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.failed / tally.attempted == 0.6


def test_usage_error_is_a_failed_op_not_a_crash():
    tally = Tally()
    tally.execute(Op(("pullback", "--embedding", "nope", "--json"),
                     check_pullback("1/4")), run_in_process)
    assert tally.failed == 1 and "exit code 2" in tally.reasons[0]


# -- inputs ------------------------------------------------------------------------------

def test_negative_vectors_are_negative():
    rng = random.Random(20141008)
    for _ in range(2000):
        assert hermitian_21(negative_vector(rng)) < 0


def test_period_triple_ops_carry_only_negative_vectors():
    seen = 0
    for workload in ("reports", "cli-cold"):
        for seed in range(1, 6):
            for index in range(200):
                argv = op_at(workload, seed, index).argv
                if argv[0] != "period-triple":
                    continue
                seen += 1
                text = argv[1]
                assert text.startswith("--vector=")
                vec = [parse_field_elem(p) for p in text[len("--vector="):].split(",")]
                assert herm_form(vec, vec, BALL_SIG).real_sign() < 0, text
    assert seen > 100


def test_op_streams_are_seeded():
    for workload in WORKLOADS:
        first = [op_at(workload, 7, i).argv for i in range(20)]
        assert first == [op_at(workload, 7, i).argv for i in range(20)]
        assert first != [op_at(workload, 8, i).argv for i in range(20)]


# -- tracing -------------------------------------------------------------------------------

def _holders_of_function_targets():
    """{(module, name): original} for every qktoledo module name that holds a
    module-level function target, its defining module included."""
    found = [tracer_module._resolve(module, path)
             for module, path, _ in tracer_module.SPAN_TARGETS if "." not in path]
    targets = [fn for _, _, fn in filter(None, found)]
    out = {}
    for module_name, holder in list(sys.modules.items()):
        if holder is None or not module_name.startswith("qktoledo"):
            continue
        for name, value in vars(holder).items():
            if any(value is fn for fn in targets):
                out[(holder, name)] = value
    return out


def test_tracer_wraps_every_name_that_holds_a_target(monkeypatch):
    # a name imported into another module, as ``from .lifting import f`` does
    monkeypatch.setattr(cli, "_imported_by_name", cli.main, raising=False)
    holders = _holders_of_function_targets()
    assert (cli, "_imported_by_name") in holders
    tracer = Tracer()
    tracer.install()
    try:
        for (holder, name), original in holders.items():
            assert getattr(holder, name) is not original, name
        assert cli._imported_by_name is cli.main
        tracer.op_id = 0
        code, _ = tracer.wrap("op", run_in_process)(
            ["lift-check", "--domain", "twistor", "--samples", "1", "--json"])
        assert code == 0
        assert any(n.startswith("lifting.") and c > 0
                   for n, c in tracer.counts.items())
        assert tracer.counts["scalars.mul"] > 0
        assert tracer.spans[0][0] == "op" and tracer.spans[0][3] == -1
        assert all(s[3] >= 0 and s[4] == 0 for s in tracer.spans[1:])
    finally:
        tracer.uninstall()
    for (holder, name), original in holders.items():
        assert getattr(holder, name) is original, name


def test_tracer_counts_the_reflected_aliases():
    tracer = Tracer()
    tracer.install()
    try:
        2 * FieldElem(1)                       # int * FieldElem: __rmul__
        1 + FieldElem(1)                       # __radd__
        3 * Matrix.identity(2)                 # Matrix.__rmul__
    finally:
        tracer.uninstall()
    assert tracer.counts["scalars.mul"] > 0
    assert tracer.counts["scalars.add"] > 0
    assert tracer.counts["linalg.scalar_mul"] > 0


def test_tracer_skips_targets_the_program_no_longer_defines(monkeypatch):
    gone = (("lifting", "no_such_function", "lifting.gone"),
            ("linalg", "NoSuchClass.method", "linalg.gone"),
            ("no_such_module", "f", "nowhere.gone"))
    monkeypatch.setattr(tracer_module, "SPAN_TARGETS",
                        tracer_module.SPAN_TARGETS + gone)
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        tracer.op_id = 0
        code, _ = tracer.wrap("op", run_in_process)(
            ["classify", "--embedding", "rho", "--json"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert tracer.missing == ["lifting.no_such_function",
                              "linalg.NoSuchClass.method", "no_such_module.f"]
    assert all(tracer.counts[name] == 0 for _, _, name in gone)
    assert tracer.counts["cli.main"] == 1
    assert layer_metrics(tracer)["trace.op_ms"][0] > 0


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   _io\n"
            "import time:      4000 |      65000 | qktoledo\n"
            "some other line\n")
    assert parse_importtime(text) == {"_io": (120, 120), "qktoledo": (4000, 65000)}
