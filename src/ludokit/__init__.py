"""ludokit: formal game descriptions, game trees, and graded game equivalence.

Parse textual game descriptions into executable game systems, build their
game trees with exact rational chance probabilities, normalize trees via
agency-preserving reductions, decide structural / up-to-relabeling / agency
equivalence with verifiable witnesses, and estimate a sampling-based
similarity score between games.
"""

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
from .equiv import (
    EquivalenceWitness,
    Skeleton,
    agency_equivalent,
    canonical_form,
    compose_witnesses,
    equivalent_up_to_relabeling,
    invert_witness,
    match_matrices,
    strip,
    structural_correspondences,
    structurally_equivalent,
    verify_witness,
)
from .errors import (
    AmbiguityWarning,
    BudgetExceededError,
    IllegalDecisionError,
    InvalidSystemError,
    LabelingLimitError,
    LudokitError,
    NoRuleMatchesError,
    NonTerminalStateError,
    StateMapError,
    TerminalStateError,
    TreeInvariantError,
)
from .reduce import ReductionTrace, normalize
from .similarity import (
    SimilarityReport,
    StateMap,
    apply_state_map,
    exhaustive_proportion,
    similarity,
    wilson_interval,
)
from .tree import (
    DecisionMatrix,
    GameTree,
    TreeStats,
    build_forest,
    build_tree,
    decision_matrix,
    export_dot,
    export_json,
    import_json,
    tree_stats,
    unfold,
    validate_tree,
)

__version__ = "0.1.0"
