"""Shared test plumbing: collects acceptance verdicts for the end-of-run summary.

``--hypothesis-profile=ci`` (the CI workflow passes it) prints a blob with each
failing example, so a rare failure seen in a CI log can be replayed locally with
``@reproduce_failure``; the examples drawn stay random, as in every other run.
"""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)

ACCEPTANCE_RESULTS: list = []


def record_acceptance(ok: bool, label: str) -> None:
    ACCEPTANCE_RESULTS.append(f"[{'PASS' if ok else 'FAIL'}] {label}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
