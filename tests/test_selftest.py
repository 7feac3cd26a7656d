"""The selftest registry as pytest cases: one test per golden check.

``selftest.CHECKS`` is the only place where the frozen golden values are
written; the unit tests keep the properties and oracles around them.
"""

import pytest

from qktoledo.selftest import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS],
                         ids=[name for name, _ in CHECKS])
def test_registry_check(check):
    ok, detail = check()
    assert ok, detail
