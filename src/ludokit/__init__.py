"""ludokit: formal game descriptions, game trees, and graded game equivalence.

Parse textual game descriptions into executable game systems, build their
game trees with exact rational chance probabilities, normalize trees via
agency-preserving reductions, decide structural / up-to-relabeling / agency
equivalence with verifiable witnesses, and estimate a sampling-based
similarity score between games.

Importing the package loads only `core`, `dsl` and `errors`.  The names it
re-exports from the tree layers (`tree`, `reduce`, `equiv`, `similarity`)
load their module on first use (PEP 562), as do those submodules
themselves, so a command that only parses and plays a game never compiles
them.
"""

import sys as _sys

from .core import (
    ActionClause,
    ActionDef,
    And,
    ConsequenceRule,
    DecisionTuple,
    GameState,
    GameSystem,
    LegalityRule,
    Lit,
    Not,
    Or,
    OutcomeRule,
    Playthrough,
    Probability,
    Ref,
    TrackSpec,
    WILDCARD,
    apply_action,
    check_completeness,
    consequences,
    enumerate_states,
    eval_state_set,
    initial_states,
    is_terminal,
    legal_decision_tuples,
    legal_set,
    outcome,
    play,
    reachable_states,
    validate_system,
)
from .dsl import Diagnostic, GameParseError, parse_file, parse_game, serialize_game
from .errors import (
    AmbiguityWarning,
    BudgetExceededError,
    IllegalDecisionError,
    InvalidSystemError,
    LabelingLimitError,
    LudokitError,
    NoRuleMatchesError,
    NonTerminalStateError,
    RoundLimitError,
    StateMapError,
    TerminalStateError,
    TreeInvariantError,
)

__version__ = "0.1.0"

# Each lazy re-export and the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "equiv": "EquivalenceWitness Skeleton agency_equivalent canonical_form "
        "compose_witnesses equivalent_up_to_relabeling invert_witness strip "
        "structural_correspondences structurally_equivalent verify_witness",
        "reduce": "ReductionTrace normalize",
        "similarity": "SimilarityReport StateMap apply_state_map exhaustive_proportion "
        "wilson_interval",
        "tree": "GameTree TreeStats build_forest build_tree export_dot export_json "
        "import_json tree_stats unfold validate_tree",
    }.items()
    for name in names.split()
}

# Submodules that the package attribute of the same name loads.  `cli` is
# not in `__all__`: `from ludokit import *` does not start the front end.
_SUBMODULES = ("tree", "canon", "reduce", "equiv", "similarity", "cli")

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | set(_LAZY)
    | set(_SUBMODULES) - {"cli"}
)


def __getattr__(name: str):
    module = _LAZY.get(name) or (name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike `importlib.import_module`, shows under `-X importtime`.
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
