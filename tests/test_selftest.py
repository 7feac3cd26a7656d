"""The selftest registry as pytest cases: one test per golden check.

``selftest.CHECKS`` is the only place where the frozen golden values are
written; the unit tests keep the properties and oracles around them.
"""

import pytest

from qktoledo import selftest
from qktoledo.selftest import CHECKS, run_selftest


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS],
                         ids=[name for name, _ in CHECKS])
def test_registry_check(check):
    ok, detail = check()
    assert ok, detail


def test_a_check_that_raises_fails_with_the_exception_as_detail(monkeypatch):
    def boom():
        raise ValueError("real_sign of non-real element 1*i")

    monkeypatch.setattr(selftest, "CHECKS", [*CHECKS[:1], ("raises", boom)])
    all_ok, results = run_selftest()
    assert not all_ok
    assert results[0][1] is True
    assert results[1] == ("raises", False,
                          "raised ValueError: real_sign of non-real element 1*i")
