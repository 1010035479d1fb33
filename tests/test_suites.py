"""`run_suite` builds every CheckResult on one path, for one suite or all."""

import numpy as np
import pytest

from qsum import suites
from qsum.suites import CheckResult, run_suite


def _suite_b():
    yield "third", True, "b1"


def _suite_a():
    yield "first", np.bool_(True), "a1"
    yield "second", False, "a2"


@pytest.fixture(autouse=True)
def fake_suites(monkeypatch):
    # two tiny suites, out of alphabetical order, in place of the real ones
    monkeypatch.setattr(suites, "_SUITES", {"b-suite": _suite_b, "a-suite": _suite_a})


def test_all_runs_every_suite_in_dict_order_with_its_name_stamped():
    assert run_suite("all") == [
        CheckResult("b-suite", "third", True, "b1"),
        CheckResult("a-suite", "first", True, "a1"),
        CheckResult("a-suite", "second", False, "a2"),
    ]


def test_passed_is_a_plain_bool():
    assert [type(r.passed) for r in run_suite("all")] == [bool, bool, bool]


def test_one_name_runs_only_its_suite():
    assert run_suite("a-suite") == [
        CheckResult("a-suite", "first", True, "a1"),
        CheckResult("a-suite", "second", False, "a2"),
    ]


def test_unknown_name_lists_the_choices():
    with pytest.raises(ValueError) as err:
        run_suite("nope")
    assert str(err.value) == "unknown suite 'nope'; choose from ('b-suite', 'a-suite', 'all')"
