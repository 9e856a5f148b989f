"""Collects each acceptance test's `ACCEPTANCE NN PASS` line from its captured
stdout and prints them all in the terminal summary, so the verdicts reach a
plain `pytest -q` log (with `-s` they print live instead)."""

_verdicts: list[str] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _verdicts.extend(line for line in report.capstdout.splitlines() if line.startswith("ACCEPTANCE "))


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in _verdicts:
            terminalreporter.write_line(line)
