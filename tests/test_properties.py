"""Property-based contract tests, drawn by hypothesis.

Every test here runs derandomized, with no deadline and no example
database, so tier-1 stays deterministic.
"""

import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qktoledo import BALL_SIG, FieldElem, Subspace, ZERO, herm_form, period_triple

from _helpers import flag_motion


# Even with database=None, hypothesis caches the constants it reads from the
# package's source under its home directory, ``.hypothesis/`` in the working
# directory by default, and its pytest plugin does so while tests are being
# collected.  So the home directory moves, on import, to a temporary one that
# is removed when the interpreter exits.
_HOME = tempfile.TemporaryDirectory(prefix="qktoledo-hypothesis-")
set_hypothesis_home_dir(_HOME.name)


_PROPERTY = settings(derandomize=True, deadline=None, database=None)

_coords = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_field_elems = st.builds(FieldElem, _coords, _coords, _coords, _coords)


@st.composite
def negative_vectors(draw):
    """A negative vector of C^{2,1} with full Q(i, sqrt2) coordinates,
    where v0 and v1 are each zero about half the time; (v0, v1) is halved
    until the vector is negative."""
    v0, v1 = (draw(st.one_of(st.just(ZERO), _field_elems)) for _ in range(2))
    v2 = draw(_field_elems.filter(bool))
    while herm_form((v0, v1, v2), (v0, v1, v2), BALL_SIG).real_sign() >= 0:
        v0, v1 = v0 * Fraction(1, 2), v1 * Fraction(1, 2)
    return v0, v1, v2


@_PROPERTY
@given(negative_vectors())
def test_period_triple_is_the_rref_of_the_e_products(v):
    # the closed-form rows against elimination on the generic E-products
    # of the factor pairs, over the generic case and every zero pattern
    gens, _ = flag_motion(v, (ZERO, ZERO, ZERO))
    assert {name: rows for name, rows, _ in period_triple(v)} == {
        name: Subspace(6, vecs).basis for name, vecs in gens.items()}
