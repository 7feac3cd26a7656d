"""Command-line front end: reproducible exact reports.

Verbs: pullback, lift-check, classify, period-triple, selftest.  All scalars
print in the canonical Q(i, sqrt2) format; --json emits deterministic JSON
(sorted keys, seed echoed back), so fixed argv gives byte-identical output.
Exit codes: 0 success, 1 failed check, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import sys
from fractions import Fraction

from .scalars import FieldElem, ONE, parse_field_elem
from .embeddings import make_embedding
from .toledo import CONVENTION, pullback_constant
from .lifting import (_orthocomplement, classify, holomorphy_check_u3u1u2,
                      horizontality_along, is_negative, period_triple,
                      twistor_nonlift_check)

_CLI_EMBEDDINGS = {
    "rho": "rho",
    "totally-real": "totally_real",
    "phi": "phi",
    "sym-square": "sym_square",
}

# Upper bounds on the two size arguments.  Run time grows linearly with
# --samples (each sample is written as it is decided, so memory does not
# grow with it); pullback does the same work at every --n.
_MAX_SAMPLES = 10_000
_MAX_N = 100

# Upper bound on the bit length of each parsed --vector component's common
# denominator and numerators.  The largest integer period-triple prints has
# at most about 3.0 decimal digits per input bit (full-field vectors: four
# coordinates per component over its own common denominator), so the cap
# prints at most about 3,100 digits, a margin of 1.4 below CPython's default
# 4,300-digit limit on int-str conversion, which ``main`` sets for every
# verb.  The slowest cap vector of the argv digest takes about 0.04 s
# through ``main`` on one core.
_MAX_VECTOR_BITS = 1024
_INT_MAX_STR_DIGITS = 4300


def _embedding_arg(p) -> None:
    p.add_argument("--embedding", required=True, choices=sorted(_CLI_EMBEDDINGS))


def _pullback_args(p) -> None:
    _embedding_arg(p)
    p.add_argument("--n", type=int, default=2, help="ball dimension (default 2)")


def _lift_check_args(p) -> None:
    p.add_argument("--domain", required=True, choices=["twistor", "u3u1u2"])
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)


def _period_triple_args(p) -> None:
    p.add_argument("--vector", required=True,
                   help='comma-separated exact components, e.g. "0,0,1" or "1/2,i,1"')


def _add_verb_args(parser, verb) -> argparse.ArgumentParser:
    _VERBS[verb][1](parser)
    parser.add_argument("--json", action="store_true")
    return parser


def _formatter_class():
    """HelpFormatter at the width it would compute for itself, the terminal
    width read here once instead of once per formatter built."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top-level usage and help, and all five verbs."""
    formatter_class = _formatter_class()
    parser = argparse.ArgumentParser(
        prog="qktoledo", formatter_class=formatter_class,
        description="Exact quaternionic pullback constants and period-domain checks.")
    # with prog given, argparse formats no usage line to derive it
    sub = parser.add_subparsers(dest="verb", required=True, prog=parser.prog)
    for verb, (help_text, _, _) in _VERBS.items():
        _add_verb_args(sub.add_parser(verb, help=help_text,
                                      formatter_class=formatter_class), verb)
    return parser


def _usage_error(message):
    """Exit 2 with message under the top-level usage line."""
    build_parser().error(message)


def parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), building for a verb's argv only
    the subparser that the full parser would hand argv[1:] to.  Either way
    the parser is built afresh and reads the terminal width once."""
    if not argv or argv[0] not in _VERBS:
        return build_parser().parse_args(argv)
    verb = argv[0]
    parser = _add_verb_args(argparse.ArgumentParser(
        prog=f"qktoledo {verb}", formatter_class=_formatter_class()), verb)
    args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(verb=verb))
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_pullback(args) -> int:
    if args.n < 2:
        _usage_error("--n must be at least 2")
    if args.n > _MAX_N:
        _usage_error(f"--n must be at most {_MAX_N}")
    if args.embedding == "sym-square" and args.n != 2:
        _usage_error("sym-square is defined for --n 2 only")
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


# the Gaussian integers x + y*i with x, y in -3..3, keyed by (x, y)
_GAUSSIANS = {(x, y): FieldElem(x, y) for x in range(-3, 4) for y in range(-3, 4)}


def _random_pair(rng, bound=3) -> tuple:
    """Nonzero a in Q(i)^2 with integer coordinates in -bound..bound (at most 3).

    rng.choice(range(-bound, bound + 1)) advances rng as
    rng.randint(-bound, bound) does, by one _randbelow(2*bound + 1)."""
    span = range(-bound, bound + 1)
    while True:
        a = (_GAUSSIANS[rng.choice(span), rng.choice(span)],
             _GAUSSIANS[rng.choice(span), rng.choice(span)])
        if any(a):
            return a


# the Gaussian halves (a + b*i)/2 with a, b in -1..1, keyed by (a, b)
_HALVES = {(a, b): FieldElem(Fraction(a, 2), Fraction(b, 2))
           for a in (-1, 0, 1) for b in (-1, 0, 1)}
_UNIT_SPAN = range(-1, 2)


# the lines drawn so far in this process, keyed by their four draws: None
# for a draw that is not negative, else the line v0 with its orthocomplement
# basis (u1, u2), checked once by _orthocomplement; at most 81 keys
_LINES = {}


def _random_negative_line(rng):
    """A negative vector for the (2,1) form plus a direction orthogonal to it."""
    while True:
        key = (rng.choice(_UNIT_SPAN), rng.choice(_UNIT_SPAN),
               rng.choice(_UNIT_SPAN), rng.choice(_UNIT_SPAN))
        if key not in _LINES:
            v0 = (_HALVES[key[:2]], _HALVES[key[2:]], ONE)
            _LINES[key] = _orthocomplement(v0) if is_negative(v0) else None
        line = _LINES[key]
        if line is not None:
            break
    # w = c1*u1 + c2*u2 with nonzero coefficients, so that the direction is
    # nonzero and the line moves; the basis is in rref, (1, 0, x1) and
    # (0, 1, x2), so w is (c1, c2, c1*x1 + c2*x2).  horizontality_along
    # raises if w is not orthogonal to v0.
    v0, (u1, u2) = line
    c1, c2 = _random_pair(rng, 2)
    return v0, (c1, c2, c1 * u1[2] + c2 * u2[2])


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def _cmd_lift_check(args) -> int:
    if args.samples < 1:
        _usage_error("--samples must be at least 1")
    if args.samples > _MAX_SAMPLES:
        _usage_error(f"--samples must be at most {_MAX_SAMPLES}")
    rng = random.Random(args.seed)
    write, encode = sys.stdout.write, json.JSONEncoder(sort_keys=True).encode
    # each sample is written as it is decided; with --json inside the frame
    # that json.dumps(..., sort_keys=True) gives, "samples" sorting between
    # "check" and "seed", and each record as that call writes it
    if args.json:
        write(f'{{"check": {encode(args.domain)}, "samples": [')
        check = encode("twistor-nonlift" if args.domain == "twistor" else "u3u1u2-lift")
    else:
        print(f"domain: {args.domain}  samples: {args.samples}  seed: {args.seed}")
    all_ok = True
    for k in range(args.samples):
        a = _random_pair(rng)
        if args.domain == "twistor":
            violations = twistor_nonlift_check(a)
            ok = bool(violations)
            given = f"a={_fmt_vec(a)}"
            verdict = f"member={'false' if violations else 'true'}"
        else:
            holo = holomorphy_check_u3u1u2(a)
            v0, w = _random_negative_line(rng)
            horiz = horizontality_along(v0, w)
            ok, violations = holo and horiz, ()
            given = f"a={_fmt_vec(a)}; v0={_fmt_vec(v0)}; w={_fmt_vec(w)}"
            verdict = f"holomorphic={holo}, horizontal={horiz}"
        all_ok = all_ok and ok
        if args.json:
            # the record's keys, and each violation's, in sort_keys order
            found = ", ".join(f'{{"col": {c}, "row": {r}, "value": {encode(str(v))}}}'
                              for r, c, v in violations)
            write(f'{", " if k else ""}{{"check": {check}, '
                  f'"input": {encode(given)}, "pass": {"true" if ok else "false"}, '
                  f'"verdict": {encode(verdict)}, "violations": [{found}]}}')
        else:
            print(f"  sample {k}: {given} -> {verdict} [{'PASS' if ok else 'FAIL'}]")
    summary = "PASS" if all_ok else "FAIL"
    if args.json:
        write(f'], "seed": {encode(args.seed)}, "summary": {encode(summary)}}}\n')
    else:
        print(f"summary: {summary}")
    return 0 if all_ok else 1


def _cmd_classify(args) -> int:
    components, (first, second), condition = classify(
        make_embedding(_CLI_EMBEDDINGS[args.embedding]))
    if args.json:
        _emit_json({"embedding": args.embedding,
                    "components": [{"column": col, "row": row, "verdict": verdict}
                                   for col, row, verdict in components],
                    "columns": {"1": first, "2": second},
                    "twistor_lift_condition": condition})
        return 0
    print(f"embedding: {args.embedding}")
    for col, row, verdict in components:
        print(f"  column {col}, component {row}: {verdict}")
    print(f"column 1 overall: {first}")
    print(f"column 2 overall: {second}")
    status = "holds" if condition else "fails"
    print(f"twistor lift necessary condition (col 1 conjugate-linear, "
          f"col 2 linear): {status}")
    return 0


def _cmd_period_triple(args) -> int:
    try:
        components = [parse_field_elem(part) for part in args.vector.split(",")]
    except ValueError as exc:
        _usage_error(f"cannot parse --vector: {exc}")
    if len(components) != 3:
        _usage_error(f"--vector needs 3 components, got {len(components)}")
    for k, c in enumerate(components, 1):
        if max(n.bit_length() for n in (c.na, c.nb, c.nc, c.nd, c.den)) \
                > _MAX_VECTOR_BITS:
            _usage_error(f"--vector component {k} exceeds {_MAX_VECTOR_BITS} bits "
                         "in its common denominator or a numerator")
    try:
        parts = period_triple(components)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"vector": [str(c) for c in components]}
        for label, rows, definiteness in parts:
            payload[label] = {
                "dimension": len(rows),
                "definiteness": definiteness,
                "basis": [[str(x) for x in row] for row in rows],
            }
        _emit_json(payload)
        return 0
    print(f"vector: {_fmt_vec(components)}")
    for label, rows, definiteness in parts:
        print(f"{label}: dimension {len(rows)}, {definiteness} definite")
        for row in rows:
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


# verb -> (help, function adding its arguments before the common --json,
# handler called with the parsed args)
_VERBS = {
    "pullback": ("pullback constants of the 4-form", _pullback_args, _cmd_pullback),
    "lift-check": ("seeded holomorphic lifting checks", _lift_check_args,
                   _cmd_lift_check),
    "classify": ("linearity classification of a differential", _embedding_arg,
                 _cmd_classify),
    "period-triple": ("flag of a negative line in C^{2,1}", _period_triple_args,
                      _cmd_period_triple),
    "selftest": ("re-run every golden exact check", lambda p: None, _cmd_selftest),
}


def main(argv=None) -> int:
    # the verb runs under _INT_MAX_STR_DIGITS and the caller's limit comes
    # back after; an interpreter without the limit has neither function
    caller = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(_INT_MAX_STR_DIGITS)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        # argparse parses "--opt=--" into an empty list, which no verb expects
        for name, value in vars(args).items():
            if isinstance(value, list):
                _usage_error(f"argument --{name.replace('_', '-')}: "
                             "expected one argument")
        return _VERBS[args.verb][2](args)
    finally:
        set_limit(caller)


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
