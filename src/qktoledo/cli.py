"""Command-line front end: reproducible exact reports.

Verbs: pullback, lift-check, classify, period-triple, selftest.  All scalars
print in the canonical Q(i, sqrt2) format; --json emits deterministic JSON
(sorted keys, seed echoed back), so fixed argv gives byte-identical output.
Exit codes: 0 success, 1 failed check, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .scalars import FieldElem, ONE, ZERO, parse_field_elem
from .embeddings import W_SIG, make_embedding
from .toledo import CONVENTION, pullback_constant
from .lifting import (classify_linearity, fold_column, fold_lift_condition,
                      holomorphy_check_u3u1u2, horizontality_check,
                      negative_line_basis, period_triple, twistor_nonlift_check)

_CLI_EMBEDDINGS = {
    "rho": "rho",
    "totally-real": "totally_real",
    "phi": "phi",
    "sym-square": "sym_square",
}

# Upper bounds on the two size arguments: memory grows linearly with
# --samples (every record is kept until the report prints) and with --n
# (four images of size 2n x 2).
_MAX_SAMPLES = 10_000
_MAX_N = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qktoledo",
        description="Exact quaternionic pullback constants and period-domain checks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pullback", help="pullback constants of the 4-form")
    p.add_argument("--embedding", required=True, choices=sorted(_CLI_EMBEDDINGS))
    p.add_argument("--n", type=int, default=2, help="ball dimension (default 2)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lift-check", help="seeded holomorphic lifting checks")
    p.add_argument("--domain", required=True, choices=["twistor", "u3u1u2"])
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="linearity classification of a differential")
    p.add_argument("--embedding", required=True, choices=sorted(_CLI_EMBEDDINGS))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("period-triple", help="flag of a negative line in C^{2,1}")
    p.add_argument("--vector", required=True,
                   help='comma-separated exact components, e.g. "0,0,1" or "1/2,i,1"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="re-run every golden exact check")
    p.add_argument("--json", action="store_true")

    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _cmd_pullback(args) -> int:
    name = _CLI_EMBEDDINGS[args.embedding]
    embedding = make_embedding(name, args.n)
    report = pullback_constant(embedding)
    if args.json:
        _emit_json({"embedding": report.embedding,
                    "omega_on_basis": str(report.omega_value),
                    "ratio_to_OmegaB2": str(report.ratio),
                    "convention": CONVENTION})
        return 0
    print(f"embedding: {args.embedding}")
    print(f"convention: {CONVENTION}")
    print(f"omega_on_basis: {report.omega_value}")
    print(f"Omega0^2_on_basis: {report.omega0sq_value}")
    print(f"ratio_to_OmegaB2: {report.ratio}")
    return 0


def _random_pair(rng) -> tuple:
    """Nonzero a in Q(i)^2 with small integer coordinates."""
    while True:
        a = tuple(FieldElem(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(2))
        if any(a):
            return a


# the Gaussian halves (a + b*i)/2 with a, b in -1..1, keyed by (a, b)
_HALVES = {(a, b): FieldElem(Fraction(a, 2), Fraction(b, 2))
           for a in (-1, 0, 1) for b in (-1, 0, 1)}


def _random_negative_line(rng):
    """A negative vector for the (2,1) form plus a direction orthogonal to it."""
    while True:
        v0 = (_HALVES[rng.randint(-1, 1), rng.randint(-1, 1)],
              _HALVES[rng.randint(-1, 1), rng.randint(-1, 1)],
              ONE)
        try:
            _, basis = negative_line_basis(v0)
            break
        except ValueError:  # v0 is not negative: draw again
            continue
    acc = (ZERO, ZERO, ZERO)
    for b in basis:
        coef = FieldElem(rng.randint(-2, 2), rng.randint(-2, 2))
        acc = tuple(x + coef * y for x, y in zip(acc, b))
    return v0, acc


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def _cmd_lift_check(args) -> int:
    rng = random.Random(args.seed)
    samples = []
    all_ok = True
    for _ in range(args.samples):
        if args.domain == "twistor":
            a = _random_pair(rng)
            violations = twistor_nonlift_check(a)
            ok = bool(violations)
            record = {
                "check": "twistor-nonlift",
                "input": f"a={_fmt_vec(a)}",
                "verdict": f"member={'false' if violations else 'true'}",
                "violations": [{"row": r, "col": c, "value": str(v)}
                               for r, c, v in violations],
                "pass": ok,
            }
        else:
            a = _random_pair(rng)
            holo = holomorphy_check_u3u1u2(a)
            v0, w = _random_negative_line(rng)
            horiz = horizontality_check(v0, w)
            ok = holo and horiz
            record = {
                "check": "u3u1u2-lift",
                "input": f"a={_fmt_vec(a)}; v0={_fmt_vec(v0)}; w={_fmt_vec(w)}",
                "verdict": f"holomorphic={holo}, horizontal={horiz}",
                "violations": [],
                "pass": ok,
            }
        samples.append(record)
        all_ok = all_ok and ok
    summary = "PASS" if all_ok else "FAIL"
    if args.json:
        _emit_json({"check": args.domain, "seed": args.seed,
                    "samples": samples, "summary": summary})
    else:
        print(f"domain: {args.domain}  samples: {args.samples}  seed: {args.seed}")
        for k, record in enumerate(samples):
            status = "PASS" if record["pass"] else "FAIL"
            print(f"  sample {k}: {record['input']} -> {record['verdict']} [{status}]")
        print(f"summary: {summary}")
    return 0 if all_ok else 1


def _cmd_classify(args) -> int:
    embedding = make_embedding(_CLI_EMBEDDINGS[args.embedding])
    rows = embedding.values[0].rows
    components = [{"column": col, "row": row,
                   "verdict": classify_linearity(embedding, col, row)}
                  for col in (1, 2) for row in range(1, rows + 1)]
    columns = {str(col): fold_column(item["verdict"] for item in components
                                     if item["column"] == col) for col in (1, 2)}
    condition = fold_lift_condition(columns["1"], columns["2"])
    if args.json:
        _emit_json({"embedding": args.embedding, "components": components,
                    "columns": columns, "twistor_lift_condition": condition})
        return 0
    print(f"embedding: {args.embedding}")
    for item in components:
        print(f"  column {item['column']}, component {item['row']}: {item['verdict']}")
    print(f"column 1 overall: {columns['1']}")
    print(f"column 2 overall: {columns['2']}")
    status = "holds" if condition else "fails"
    print(f"twistor lift necessary condition (col 1 conjugate-linear, "
          f"col 2 linear): {status}")
    return 0


def _cmd_period_triple(args, parser) -> int:
    try:
        components = [parse_field_elem(part) for part in args.vector.split(",")]
    except ValueError as exc:
        parser.error(f"cannot parse --vector: {exc}")
    if len(components) != 3:
        parser.error(f"--vector needs 3 components, got {len(components)}")
    try:
        parts = period_triple(components)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"vector": [str(c) for c in components]}
        for label, space in parts:
            payload[label] = {
                "dimension": space.dim,
                "definiteness": space.definiteness(W_SIG),
                "basis": [[str(x) for x in row] for row in space.basis],
            }
        _emit_json(payload)
        return 0
    print(f"vector: {_fmt_vec(components)}")
    for label, space in parts:
        print(f"{label}: dimension {space.dim}, "
              f"{space.definiteness(W_SIG)} definite")
        for row in space.basis:
            print(f"  [{', '.join(str(x) for x in row)}]")
    return 0


def _cmd_selftest(args) -> int:
    # imported here so that the other verbs do not compile the golden checks
    from .selftest import run_selftest
    all_ok, results = run_selftest()
    if args.json:
        _emit_json({"summary": "PASS" if all_ok else "FAIL",
                    "checks": [{"name": name, "pass": ok, "detail": detail}
                               for name, ok, detail in results]})
    else:
        for name, ok, detail in results:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        print(f"selftest: {'PASS' if all_ok else 'FAIL'} "
              f"({sum(1 for _, ok, _ in results if ok)}/{len(results)})")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "pullback":
        if args.n < 2:
            parser.error("--n must be at least 2")
        if args.n > _MAX_N:
            parser.error(f"--n must be at most {_MAX_N}")
        if args.embedding == "sym-square" and args.n != 2:
            parser.error("sym-square is defined for --n 2 only")
        return _cmd_pullback(args)
    if args.verb == "lift-check":
        if args.samples < 1:
            parser.error("--samples must be at least 1")
        if args.samples > _MAX_SAMPLES:
            parser.error(f"--samples must be at most {_MAX_SAMPLES}")
        return _cmd_lift_check(args)
    if args.verb == "classify":
        return _cmd_classify(args)
    if args.verb == "period-triple":
        return _cmd_period_triple(args, parser)
    return _cmd_selftest(args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: stdout to devnull, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
