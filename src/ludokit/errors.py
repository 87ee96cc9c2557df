"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LudokitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSystemError(LudokitError):
    """A game system violates a structural invariant."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class NoRuleMatchesError(LudokitError):
    """No consequence rule covers a legal decision tuple (incomplete system)."""

    def __init__(self, state, decision_tuple):
        self.state = state
        self.decision_tuple = decision_tuple
        super().__init__(
            f"no consequence rule matches tuple {decision_tuple!r} at state {state!r}"
        )


class IllegalDecisionError(LudokitError):
    """A policy or caller supplied a decision outside the legal set."""


class TerminalStateError(LudokitError):
    """Operation requires a non-terminal state but got a terminal one."""


class NonTerminalStateError(LudokitError):
    """Operation requires a terminal state but got a non-terminal one."""


class AmbiguityWarning(UserWarning):
    """More than one rule matches in strict mode (first-match still applies)."""


class RoundLimitError(LudokitError):
    """A playthrough reached its round bound without ending (the game may cycle)."""


class TreeInvariantError(LudokitError):
    """A game tree (often an imported one) violates a structural invariant."""


class BudgetExceededError(LudokitError):
    """A node-count budget was exhausted during tree construction or rewriting."""


class LabelingLimitError(LudokitError):
    """Canonicalization would have to try more symmetric labelings than its limit."""


class StateMapError(LudokitError):
    """A state map is not a valid bijection between the two systems."""
