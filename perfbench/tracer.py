"""Per-layer tracing of qktoledo from outside, by wrapping its public functions.

Layer boundaries get spans (name, start, end, parent, op id), kept in memory
and written out when the run ends; scalar operations are only counted, since
a span per multiply would cost more than the multiply.  Nothing under
``src/`` is edited: ``install`` replaces each target in the module or class
that defines it *and* in every qktoledo module that imported it by name
(``cli`` does ``from .lifting import twistor_nonlift_check``), including the
class aliases such as ``FieldElem.__rmul__ = __mul__``.  A target the program
no longer defines is skipped and listed in ``missing``; its metrics read 0.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name): timed layer boundaries
SPAN_TARGETS = (
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Subspace.__init__", "linalg.subspace"),
    ("linalg", "Subspace.inertia", "linalg.inertia"),
    ("geometry", "omega4", "geometry.omega4"),
    ("embeddings", "sym_square_lie", "embeddings.sym_square_lie"),
    ("embeddings", "EmbeddingDiff.__call__", "embeddings.diff_apply"),
    ("embeddings", "make_embedding", "embeddings.make_embedding"),
    ("toledo", "pullback_constant", "toledo.pullback_constant"),
    ("lifting", "iota_star_bplus", "lifting.iota_star_bplus"),
    ("lifting", "twistor_nonlift_check", "lifting.twistor_nonlift_check"),
    ("lifting", "holomorphy_check_u3u1u2", "lifting.holomorphy_check_u3u1u2"),
    ("lifting", "horizontality_check", "lifting.horizontality_check"),
    ("lifting", "period_triple", "lifting.period_triple"),
    ("lifting", "classify_linearity", "lifting.classify_linearity"),
    ("cli", "main", "cli.main"),
    ("cli", "_random_negative_line", "cli.random_negative_line"),
    ("selftest", "run_selftest", "selftest.run"),
)

# (module, attribute path, counter name): counted only
COUNT_TARGETS = (
    ("linalg", "Subspace.residue", "linalg.residue"),
    ("linalg", "Matrix.__mul__", "linalg.scalar_mul"),
    ("geometry", "TangentVec.scale", "geometry.tangent_scale"),
    ("scalars", "FieldElem.inverse", "scalars.inverse"),
    ("scalars", "JetScalar.__mul__", "scalars.jet_mul"),
    # Quat.__rmul__ delegates to Quat.__mul__, so it is counted there
    ("scalars", "Quat.__mul__", "scalars.quat_mul"),
)

# (attribute, counter name): FieldElem ring operations, which also track the
# zero-operand share of multiplies and the largest coefficient bit length
FIELD_OPS = (("__mul__", "scalars.mul"), ("__add__", "scalars.add"))

OP_SPAN = "op"
# prefixes the trace a traced child process writes to stderr
TRACE_MARKER = "@@perfbench-trace@@ "


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) for "Class.attr" or "func",
    or None if the program no longer defines it."""
    try:
        owner = importlib.import_module(f"qktoledo.{module_name}")
    except ModuleNotFoundError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    return None if value is None else (owner, attr, value)


def _field_zero(x) -> bool:
    if hasattr(x, "den"):
        return not (x.na or x.nb or x.nc or x.nd)
    return not x


def _bits(x) -> int:
    return max(x.na.bit_length(), x.nb.bit_length(), x.nc.bit_length(),
               x.nd.bit_length(), x.den.bit_length())


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.mul_zero = 0
        self.max_bits = 0
        self.op_id = None
        self.missing = []        # "module.path" of targets not found
        self._stack = []
        self._saved = []         # (owner, attribute, original) for uninstall

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        """``fn`` recorded as a span named ``name`` and counted."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op_id]
                counts[name] += 1
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _field_wrapper(self, name, fn):
        counts, is_mul = self.counts, name == "scalars.mul"

        @functools.wraps(fn)
        def field_op(a, b):
            out = fn(a, b)
            if out is NotImplemented:
                return out
            counts[name] += 1
            if is_mul and (_field_zero(a) or _field_zero(b)):
                self.mul_zero += 1
            bits = _bits(out)
            if bits > self.max_bits:
                self.max_bits = bits
            return out
        return field_op

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, original, wrapper):
        """Swap ``original`` for ``wrapper`` under every name that holds it."""
        holders = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qktoledo" or n.startswith("qktoledo."))]
        replaced = 0
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, name, original))
                    setattr(holder, name, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"could not wrap {attr}")

    def _install(self, module, path, name, make_wrapper):
        found = _resolve(module, path)
        if found is None:
            self._note_missing([f"{module}.{path}"])
            return
        owner, attr, fn = found
        self._replace(owner, attr, fn, make_wrapper(name, fn))

    def _note_missing(self, targets):
        self.missing.extend(t for t in targets if t not in self.missing)

    def install(self):
        """Wrap every target; also loads the qktoledo modules it needs."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPAN_TARGETS:
            self._install(module, path, name, self.wrap)
        for module, path, name in COUNT_TARGETS:
            self._install(module, path, name, self._count_wrapper)
        for attr, name in FIELD_OPS:
            self._install("scalars", f"FieldElem.{attr}", name,
                          self._field_wrapper)
        # wraps the span wrapper of run_selftest installed above
        self._install("selftest", "run_selftest", "selftest.checks",
                      self._checks_wrapper)

    def _checks_wrapper(self, name, fn):
        # run_selftest returns (all_ok, results): count the checks it ran
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            all_ok, results = fn(*args, **kwargs)
            counts[name] += len(results)
            return all_ok, results
        return counted

    def uninstall(self):
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    # -- export --------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "mul_zero": self.mul_zero, "max_bits": self.max_bits,
                "missing": self.missing}

    def merge(self, dumped: dict):
        """Add another process's ``dump()``; its span parents are re-based."""
        offset = len(self.spans)
        for name, start, end, parent, op in dumped["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, op])
        self.counts.update(dumped["counts"])
        self.mul_zero += dumped["mul_zero"]
        self.max_bits = max(self.max_bits, dumped["max_bits"])
        self._note_missing(dumped["missing"])


# -- span arithmetic -------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Total self time per span name: duration minus what its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(index, ()), start, end)
    return dict(out)


def inclusive_times(spans) -> dict:
    """Total duration per span name, children included."""
    out = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return dict(out)


# -- per-layer metrics -------------------------------------------------------------

PER_OP_COUNTS = (
    ("scalars.mul_calls", "scalars.mul"),
    ("scalars.add_calls", "scalars.add"),
    ("scalars.inverse_calls", "scalars.inverse"),
    ("scalars.jet_mul_calls", "scalars.jet_mul"),
    ("scalars.quat_mul_calls", "scalars.quat_mul"),
    ("linalg.matmul_calls", "linalg.matmul"),
    ("linalg.scalar_mul_calls", "linalg.scalar_mul"),
    ("linalg.subspace_builds", "linalg.subspace"),
    ("linalg.residue_calls", "linalg.residue"),
    ("linalg.inertia_calls", "linalg.inertia"),
    ("geometry.omega4_calls", "geometry.omega4"),
    ("geometry.tangent_scale_calls", "geometry.tangent_scale"),
    ("embeddings.sym_square_lie_calls", "embeddings.sym_square_lie"),
    ("embeddings.diff_apply_calls", "embeddings.diff_apply"),
    ("toledo.pullback_constant_calls", "toledo.pullback_constant"),
    ("lifting.iota_star_bplus_calls", "lifting.iota_star_bplus"),
    ("lifting.horizontality_check_calls", "lifting.horizontality_check"),
    ("lifting.classify_linearity_calls", "lifting.classify_linearity"),
)

PER_OP_SELF_MS = (
    ("linalg.matmul_self_ms", "linalg.matmul"),
    ("linalg.subspace_self_ms", "linalg.subspace"),
    ("linalg.inertia_self_ms", "linalg.inertia"),
    ("geometry.omega4_self_ms", "geometry.omega4"),
    ("embeddings.sym_square_lie_self_ms", "embeddings.sym_square_lie"),
    ("embeddings.diff_apply_self_ms", "embeddings.diff_apply"),
    ("embeddings.make_embedding_self_ms", "embeddings.make_embedding"),
    ("toledo.pullback_constant_self_ms", "toledo.pullback_constant"),
    ("lifting.iota_star_bplus_self_ms", "lifting.iota_star_bplus"),
    ("lifting.twistor_nonlift_check_self_ms", "lifting.twistor_nonlift_check"),
    ("lifting.holomorphy_check_u3u1u2_self_ms", "lifting.holomorphy_check_u3u1u2"),
    ("lifting.horizontality_check_self_ms", "lifting.horizontality_check"),
    ("lifting.period_triple_self_ms", "lifting.period_triple"),
    ("cli.main_self_ms", "cli.main"),
    ("cli.random_negative_line_self_ms", "cli.random_negative_line"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced phase, as {name: (value, unit)}.

    Counts and times are per op (an op is one top-level ``op`` span).
    """
    spans = tracer.spans
    ops = max(1, tracer.counts[OP_SPAN])
    own = self_times(spans)
    incl = inclusive_times(spans)
    counts = tracer.counts
    out = {}
    for metric, name in PER_OP_COUNTS:
        out[metric] = (counts[name] / ops, "count/op")
    muls = counts["scalars.mul"]
    out["scalars.mul_zero_operand_ratio"] = (
        tracer.mul_zero / muls if muls else 0.0, "ratio")
    out["scalars.max_coeff_bits"] = (tracer.max_bits, "bits")
    for metric, name in PER_OP_SELF_MS:
        out[metric] = (own.get(name, 0.0) * 1e3 / ops, "ms/op")
    out["lifting.iota_star_bplus_incl_ms"] = (
        incl.get("lifting.iota_star_bplus", 0.0) * 1e3 / ops, "ms/op")
    out["selftest.checks"] = (counts["selftest.checks"] / ops, "count/op")
    out["selftest.run_ms"] = (incl.get("selftest.run", 0.0) * 1e3 / ops, "ms/op")
    out["trace.op_ms"] = (incl.get(OP_SPAN, 0.0) * 1e3 / ops, "ms")
    return out


def parse_importtime(stderr: str) -> dict:
    """{module: (self_us, cumulative_us)} from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue           # the header line
        out[fields[2].strip()] = (own, cumulative)
    return out
