"""Exact pullback constants of the quaternionic 4-form.

For each embedding differential the 4-form and the square of the ambient
Kahler form are evaluated on the images of the standard basis quadruple,
both from one pairing table: the 4-form is the sum of the three unit wedge
squares, and since Omega0 = 4 omega_i its square is 16 omega_i^2.  The
square of the base Kahler form on that quadruple is 16, so the reported
ratio is the constant c with (pullback of omega) = c * (base Kahler form)^2.
The four constants 1/4, 11/64, 1/16, 0 are pairwise distinct, which is what
separates the corresponding representation classes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .geometry import unit_wedge_squares
from .embeddings import EmbeddingDiff, standard_quadruple

CONVENTION = ("v1: quat x+y*j; wedge a^2(X,Y,Z,W) = "
              "a(X,Y)a(Z,W) - a(X,Z)a(Y,W) + a(X,W)a(Y,Z)")

# omega_value: the 4-form on the embedded basis quadruple; omega0sq_value: the
# ambient Kahler form squared on the same quadruple; ratio: omega_value / 16
PullbackReport = namedtuple(
    "PullbackReport", "embedding omega_value omega0sq_value ratio")


def pullback_constant(embedding: EmbeddingDiff) -> PullbackReport:
    """Evaluate the 4-form pullback on the standard quadruple, exactly.

    The named row maps send coordinate k to row pair k only, so their images
    are zero past row 4 and the value at any n >= 2 is the one at n = 2."""
    if embedding.n < 2:
        raise ValueError("the standard quadruple needs n >= 2")
    at_two = embedding._replace(n=2)
    ii, jj, kk = unit_wedge_squares(*map(at_two, standard_quadruple()))
    omega_value = ii + jj + kk
    omega0sq_value = ii * 16
    return PullbackReport(
        embedding=embedding.name,
        omega_value=omega_value,
        omega0sq_value=omega0sq_value,
        ratio=omega_value / 16,
    )


# Invariant of a representation factored through a holomorphic map.
# value: (1/16) * degree * vol(target); below_source_bound: whether
# value < (1/16) * vol(source), or None if no source volume was given
CompositionReport = namedtuple("CompositionReport", "value below_source_bound")


def _exact(x, what):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{what} must be an int or Fraction, got {x!r}")
    return x


def composition_invariant(degree: int, vol_target, vol_source=None) -> CompositionReport:
    """(1/16) * degree * vol(target), with the strict bound flag if vol(source) given.

    Every argument is an int or a Fraction, so the value is exact.
    """
    if _exact(degree, "degree") < 1 or degree.denominator != 1:
        raise ValueError("degree must be a positive integer")
    if _exact(vol_target, "target volume") <= 0:
        raise ValueError("target volume must be positive")
    value = Fraction(1, 16) * degree * vol_target
    flag = None
    if vol_source is not None:
        if _exact(vol_source, "source volume") <= 0:
            raise ValueError("source volume must be positive")
        flag = value < Fraction(1, 16) * vol_source
    return CompositionReport(value=value, below_source_bound=flag)
