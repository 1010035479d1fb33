import time
from dataclasses import dataclass

import pytest

from qsum.suites import SUITE_NAMES, CheckResult, run_suite


@dataclass
class SuiteRun:
    """One suite's check results and the wall seconds the run took."""

    results: list[CheckResult]
    seconds: float

    def check(self, name: str) -> CheckResult:
        (result,) = [r for r in self.results if r.name == name]
        return result


@pytest.fixture(scope="session")
def suite_runs() -> dict[str, SuiteRun]:
    """Every verification suite, run once per test session, keyed by name."""
    runs = {}
    for name in SUITE_NAMES:
        start = time.monotonic()
        results = run_suite(name)
        runs[name] = SuiteRun(results, time.monotonic() - start)
    return runs
