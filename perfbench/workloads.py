"""Seeded op streams for the four benchmark workloads, and the check of each op.

An op is one invocation of a qktoledo verb, given as its argv.  Op ``i`` of a
workload is a pure function of (workload, workload seed, i), so the same seed
gives the same inputs on every run and every commit.  Each op carries a check
that states its expected result independently of the program: the paper's
exact constants, the PASS summary of a lifting check, the flag dimensions and
definiteness of a period triple.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("twistor", "flag", "reports", "cli-cold")
IN_PROCESS = ("twistor", "flag", "reports")

# Samples per lift-check op cycle through these ranges, so every run has the
# same mix of sizes and the tail percentile is set by the larger requests
# rather than by the machine's noise.
TWISTOR_SAMPLES = range(5, 16)
FLAG_SAMPLES = range(2, 9)

# The paper's pullback constants, as printed by `pullback --json`.
PULLBACK_RATIO = {"rho": "1/4", "totally-real": "0", "phi": "1/16",
                  "sym-square": "11/64"}
EMBEDDINGS = tuple(PULLBACK_RATIO)
PERIOD_PARTS = ("S2Lperp", "L2", "LoLperp")
PERIOD_DIMENSIONS = (3, 1, 2)
PERIOD_DEFINITENESS = ("positive", "positive", "negative")

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Check    # (exit code, stdout) -> None if correct, else the reason


def op_seed(workload: str, seed: int, index: int) -> int:
    """A 31-bit seed for op ``index``, derived from the workload seed."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(),
                             digest_size=4).digest()
    return int.from_bytes(digest, "big") >> 1


def _json_payload(code: int, out: str):
    """Parse a verb's --json stdout; returns (payload, None) or (None, reason)."""
    if code != 0:
        return None, f"exit code {code}, want 0"
    try:
        return json.loads(out), None
    except ValueError:
        return None, f"stdout is not JSON: {out[:80]!r}"


def check_lift(domain: str, samples: int, seed: int) -> Check:
    def check(code, out):
        payload, err = _json_payload(code, out)
        if err:
            return err
        got = (payload.get("check"), payload.get("seed"), payload.get("summary"),
               len(payload.get("samples", ())))
        want = (domain, seed, "PASS", samples)
        return None if got == want else f"lift-check got {got}, want {want}"
    return check


def check_pullback(expected_ratio: str) -> Check:
    def check(code, out):
        payload, err = _json_payload(code, out)
        if err:
            return err
        got = payload.get("ratio_to_OmegaB2")
        return None if got == expected_ratio else \
            f"pullback ratio {got}, want {expected_ratio}"
    return check


def check_classify(code, out):
    payload, err = _json_payload(code, out)
    if err:
        return err
    got = payload.get("twistor_lift_condition")
    return None if got is False else f"twistor_lift_condition {got}, want false"


def check_period_triple(code, out):
    payload, err = _json_payload(code, out)
    if err:
        return err
    try:
        dims = tuple(payload[p]["dimension"] for p in PERIOD_PARTS)
        kinds = tuple(payload[p]["definiteness"] for p in PERIOD_PARTS)
    except (KeyError, TypeError):
        return f"period-triple output lacks {PERIOD_PARTS}"
    if dims != PERIOD_DIMENSIONS or kinds != PERIOD_DEFINITENESS:
        return (f"period-triple got {dims} {kinds}, "
                f"want {PERIOD_DIMENSIONS} {PERIOD_DEFINITENESS}")
    return None


def check_selftest(code, out):
    payload, err = _json_payload(code, out)
    if err:
        return err
    got = payload.get("summary")
    return None if got == "PASS" else f"selftest summary {got}, want PASS"


# -- inputs ---------------------------------------------------------------------

def _gaussian_text(re: Fraction, im: Fraction) -> str:
    """A Gaussian rational in the CLI's scalar format, e.g. "3/7 - 2/9*i"."""
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    sign = "-" if im < 0 else "+"
    return f"{re} {sign} {abs(im)}*i"


def negative_vector(rng: random.Random, max_den: int = 97):
    """A vector (x1, x2, x3) in Q(i)^3 with |x1|^2 + |x2|^2 - |x3|^2 < 0.

    The first two components have real and imaginary parts of absolute value
    below 1, so their norms sum to less than 4; the last has real part of
    absolute value at least 2.  Returns the components as (re, im) Fractions.
    """
    def part(limit):
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(-(limit * den - 1), limit * den - 1), den)

    x1 = (part(1), part(1))
    x2 = (part(1), part(1))
    den = rng.randint(1, max_den)
    re3 = Fraction(rng.choice((-1, 1)) * (2 * den + rng.randint(0, den)), den)
    x3 = (re3, part(1))
    return x1, x2, x3


def hermitian_21(vec) -> Fraction:
    """|x1|^2 + |x2|^2 - |x3|^2 of a vector given as (re, im) Fraction pairs."""
    (a1, b1), (a2, b2), (a3, b3) = vec
    return a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2 - a3 * a3 - b3 * b3


def vector_arg(vec) -> str:
    # the `=` form, because argparse rejects a separate value starting with "-"
    return "--vector=" + ",".join(_gaussian_text(re, im) for re, im in vec)


# -- op streams -----------------------------------------------------------------

def _lift_op(domain: str, samples: int, seed: int) -> Op:
    argv = ("lift-check", "--domain", domain, "--samples", str(samples),
            "--seed", str(seed), "--json")
    return Op(argv, check_lift(domain, samples, seed))


def _pullback_op(embedding: str, n: int) -> Op:
    argv = ("pullback", "--embedding", embedding, "--n", str(n), "--json")
    return Op(argv, check_pullback(PULLBACK_RATIO[embedding]))


def _classify_op(embedding: str) -> Op:
    return Op(("classify", "--embedding", embedding, "--json"), check_classify)


def _period_op(rng: random.Random) -> Op:
    return Op(("period-triple", vector_arg(negative_vector(rng)), "--json"),
              check_period_triple)


REPORTS_PULLBACK_N = range(2, 17)
REPORTS_EACH = 5      # sym-square pullbacks, classifies and period-triples a round


@functools.lru_cache(maxsize=2)
def _reports_round(seed: int, round_index: int):
    """One round of the reports mix, in seeded order.

    Every round holds the same kinds of op in the same numbers, one pullback
    at each n in 2..16 and REPORTS_EACH of each other kind, so the mix of a
    run does not depend on the seed or on how many ops the run completes;
    the seed picks the embeddings, the vectors and the order.
    """
    rng = random.Random(op_seed("reports", seed, round_index))
    ops = [_pullback_op(rng.choice(("rho", "totally-real", "phi")), n)
           for n in REPORTS_PULLBACK_N]
    for _ in range(REPORTS_EACH):
        ops.append(_pullback_op("sym-square", 2))
        ops.append(_classify_op(rng.choice(EMBEDDINGS)))
        ops.append(_period_op(rng))
    rng.shuffle(ops)
    return tuple(ops)


REPORTS_ROUND = len(REPORTS_PULLBACK_N) + 3 * REPORTS_EACH


def _cold_op(index: int, rng: random.Random) -> Op:
    """The five verbs in turn, with small arguments.

    The kinds cycle with the index (embeddings every four rounds, lifting
    domains every two), so every run has the same mix; the seed picks the
    lifting seeds and the period-triple vectors.
    """
    verb, cycle = index % 5, index // 5
    if verb == 0:
        embedding = EMBEDDINGS[cycle % 4]
        return _pullback_op(embedding, 2 if embedding == "sym-square" else 3)
    if verb == 1:
        if cycle % 2:
            return _lift_op("u3u1u2", 1, rng.randrange(2 ** 31))
        return _lift_op("twistor", 2, rng.randrange(2 ** 31))
    if verb == 2:
        return _classify_op(EMBEDDINGS[cycle % 4])
    if verb == 3:
        return _period_op(rng)
    return Op(("selftest", "--json"), check_selftest)


def _cycle(values, index: int):
    return values[index % len(values)]


def op_at(workload: str, seed: int, index: int) -> Op:
    """Op ``index`` of the workload's seeded stream."""
    if workload == "twistor":
        return _lift_op("twistor", _cycle(TWISTOR_SAMPLES, index),
                        op_seed(workload, seed, index))
    if workload == "flag":
        return _lift_op("u3u1u2", _cycle(FLAG_SAMPLES, index),
                        op_seed(workload, seed, index))
    if workload == "reports":
        return _reports_round(seed, index // REPORTS_ROUND)[index % REPORTS_ROUND]
    if workload == "cli-cold":
        return _cold_op(index, random.Random(op_seed(workload, seed, index)))
    raise ValueError(f"unknown workload {workload!r}")
