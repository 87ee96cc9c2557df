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

from ludokit import canon, dsl, reduce, tree

FIXTURES = TESTS_DIR / "fixtures"

# Every pin regime: which label classes a comparison keeps fixed.
PINS = [
    canon.PIN_NONE,
    frozenset({"players"}),
    frozenset({"outcomes"}),
    frozenset({"states"}),
    canon.PIN_SYMMETRY,
    canon.PIN_ALL,
]

# A two-state loop: every round toggles t, and no state is terminal.
LOOP_GAME = """\
game loop
players P
track t { a, b }
decisions go
action toggle { when t=a set t=b ; set t=a }
init t=a
legal P go when t=a or t=b
consequence (go) -> prob 1: toggle
outcome default none
"""

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


def ninety_nine_cells() -> str:
    """forbidden.game with 99 cell tracks, of which init forces nine: 3^90
    candidate initial states."""
    return fixture_text("forbidden.game").replace("forall i in 1..9 {", "forall i in 1..99 {", 1)


WIDE_GAME = """\
game wide
players P
forall i in 1..20 {
  track c$i { a, b, c }
}
decisions go
action set1 { when c1=a set c1=b }
init (all i in 1..20: c$i=a)
legal P go when c1=a
consequence (go) -> prob 1: set1
outcome default done
"""
"""Twenty three-valued tracks, all forced by init: 2 reachable states in a
track product of 3^20."""


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
