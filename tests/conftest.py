"""Shared fixtures: parsed systems and cached heavy artifacts.

Session-scoped trees are shared for speed; tests must not mutate them
(normalize never writes its input, so the usual call patterns are safe).
"""

from __future__ import annotations

import contextlib
import pathlib
import signal
import sys

import pytest

TESTS_DIR = pathlib.Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from ludokit import dsl, reduce, tree

FIXTURES = TESTS_DIR / "fixtures"

# One verdict line per acceptance criterion, echoed in the run summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block with TimeoutError once `seconds` of wall time pass,
    so that a walk that never returns fails fast instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def systems():
    names = [
        "tictactoe", "3to15", "misere", "perturbed", "endofturn",
        "forbidden", "parity", "mixed_a", "mixed_b",
    ]
    return {name: dsl.parse_file(fixture_path(f"{name}.game")) for name in names}


@pytest.fixture(scope="session")
def ttt(systems):
    return systems["tictactoe"]


@pytest.fixture(scope="session")
def ttt_forest(systems):
    return tree.build_forest(systems["tictactoe"])


@pytest.fixture(scope="session")
def ttt_normal_forms(ttt_forest):
    return [reduce.normalize(t)[0] for t in ttt_forest]


@pytest.fixture(scope="session")
def swap_pair_left():
    return tree.import_json(fixture_text("swap_pair_left.json"))


@pytest.fixture(scope="session")
def swap_pair_right():
    return tree.import_json(fixture_text("swap_pair_right.json"))


@pytest.fixture(scope="session")
def trio_matrix_a():
    return tree.import_json(fixture_text("trio_matrix_a.json"))


@pytest.fixture(scope="session")
def trio_matrix_b():
    return tree.import_json(fixture_text("trio_matrix_b.json"))
