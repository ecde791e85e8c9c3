"""Shared fixtures.

The full enumeration to h = 12 is computed once per session and reused
by the acceptance and enumeration tests; its wall time is recorded so
the acceptance budget can be asserted without rerunning the search.
"""

from __future__ import annotations

import time

import pytest

from bechex import _kernel, enumeration
from bechex.enumeration import _level_report, _levels

FULL_DEPTH = 12
KEEP_KEYS_DEPTH = 8


KERNEL_LINE = f"bechex kernel: {_kernel.BACKEND} ({_kernel.BACKEND_REASON})"


def pytest_report_header(config):
    return KERNEL_LINE


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so a quiet log states its kernel at the end.
    if config.getoption("verbose") < 0:
        terminalreporter.write_line(KERNEL_LINE)


class EnumerationSession:
    """Reports for 2..12 plus raw shape keys for the shallow levels."""

    def __init__(self):
        t0 = time.perf_counter()
        self.reports = {}
        self.keys = {}
        self.counts = {}
        for h, keys, _ in _levels(FULL_DEPTH):
            self.counts[h] = len(keys)
            if h <= KEEP_KEYS_DEPTH:
                self.keys[h] = keys
            if h >= 2:
                self.reports[h] = _level_report(h, keys)
        self.seconds = time.perf_counter() - t0


@pytest.fixture(scope="session")
def enumeration_session() -> EnumerationSession:
    return EnumerationSession()


@pytest.fixture
def no_growth(monkeypatch):
    """Fail any call that would grow a level, to show that a refusal
    comes before the enumeration starts."""

    def refuse(parents, workers):
        raise AssertionError("a level was grown")

    monkeypatch.setattr(enumeration, "_grow", refuse)
