"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed, so a seed names one exact
input set. Generation is benchmark-side work: runners call these outside the
timed region and outside any trace span.
"""

from __future__ import annotations

import pathlib
import random
import re
import sys

CORNERS = (1, 3, 7, 9)
SIDES = (2, 4, 6, 8)

# The two `forall` lists of forbidden.game: cells open on the first move, and
# cells that need a non-empty board.
_OPEN_LIST = re.compile(r"forall i in \{1, 2, 5\}")
_CLOSED_LIST = re.compile(r"forall i in \{3, 4, 6, 7, 8, 9\}")


_COIN = "consequence (flip, flip) -> prob 1/2: X_first ; prob 1/2: O_first"


def x_starts(text: str) -> str:
    """The game with its opening coin replaced by X moving first.

    The forest keeps one of the two halves of the full game: the same
    transposition-heavy play at half the size.
    """
    if text.count(_COIN) != 1:
        raise ValueError("game no longer has the opening coin flip")
    return text.replace(_COIN, "consequence (flip, flip) -> prob 1: X_first")


def forbidden_variant(base_text: str, seed: int) -> str:
    """forbidden.game with its opening corner and side chosen from the seed.

    The variant opens with one corner, one side and the center, as the base
    game does, so it is agency equivalent to it whichever cells are picked.
    """
    rng = random.Random(seed)
    corner = rng.choice(CORNERS)
    side = rng.choice(SIDES)
    return forbidden_variant_for(base_text, corner, side)


def forbidden_variant_for(base_text: str, corner: int, side: int) -> str:
    open_cells = sorted((corner, side, 5))
    closed = [i for i in range(1, 10) if i not in open_cells]
    text, n_open = _OPEN_LIST.subn(
        "forall i in {%s}" % ", ".join(map(str, open_cells)), base_text
    )
    text, n_closed = _CLOSED_LIST.subn(
        "forall i in {%s}" % ", ".join(map(str, closed)), text
    )
    if (n_open, n_closed) != (1, 1):
        raise ValueError("forbidden.game no longer has the two opening lists")
    return text.replace(
        "game forbidden_tictactoe", f"game forbidden_c{corner}_s{side}", 1
    )


def sample_seeds(seed: int, count: int) -> list[int]:
    """Similarity sample seeds 0..count-1, in an order drawn from `seed`.

    Which states are sampled is fixed and only their order follows the seed:
    per-sample cost is heavy-tailed (the slowest 1% cost 20 times the median),
    so fresh samples per seed would move the totals more than a regression
    the benchmark must catch.
    """
    seeds = list(range(count))
    random.Random(seed).shuffle(seeds)
    return seeds


OUTCOMES = ("w1", "w2", "w3")
TESTS = pathlib.Path(__file__).resolve().parent.parent / "tests"


def tree_cases(seed: int, count: int) -> list[tuple[str, dict, dict]]:
    """`count` cases (tree JSON text, player map, outcome map).

    The trees come from the test suite's `generators.random_tree`, which
    salts them with sites for every reduction. They are a fixed corpus, for
    the reason given in `sample_seeds`; the seed draws their order and the
    player and outcome permutations.
    """
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    from generators import random_tree
    from ludokit.tree import export_json

    order = list(range(count))
    random.Random(seed).shuffle(order)
    cases = []
    for k in order:
        shape = random.Random(f"corpus/{k}")
        tree = random_tree(
            shape, max_nodes=shape.randint(20, 200), n_players=shape.choice((2, 3))
        )
        maps = random.Random(f"{seed}/{k}")
        players = list(tree.players)
        outcomes = list(OUTCOMES)
        cases.append((
            export_json(tree),
            dict(zip(players, maps.sample(players, len(players)))),
            dict(zip(OUTCOMES, maps.sample(outcomes, len(outcomes)))),
        ))
    return cases
