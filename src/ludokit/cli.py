"""Command-line front end.

Exit codes follow one contract across all subcommands: 0 for success or a
positive verdict (complete / equivalent), 1 for a well-formed negative
verdict (violations found / not equivalent), 2 for usage or input errors.
Reports go to stdout, diagnostics to stderr; output is plain text (NO_COLOR
is honored trivially) and byte-stable for fixed arguments and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys as _sys
from typing import Optional

from . import dsl, equiv, reduce as reduce_mod, tree as tree_mod
from .similarity import StateMap, similarity as estimate_similarity
from .core import (
    GameSystem,
    check_completeness,
    first_policy,
    format_decision_tuple,
    format_state,
    initial_states,
    play,
)
from .errors import LudokitError
from .tree import DEFAULT_NODE_BUDGET, GameTree, build_forest, build_tree

OK, NEGATIVE, USAGE = 0, 1, 2


class _Failure(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _load_system(path: str) -> GameSystem:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return dsl.parse_game(text, path)
    except dsl.GameParseError as exc:
        raise _Failure(str(exc)) from exc


def _load_forest(path: str, budget: int) -> list[GameTree]:
    """A .game file builds its full forest; a .json file imports one tree."""
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as handle:
                return [tree_mod.import_json(handle.read())]
        except OSError as exc:
            raise _Failure(f"cannot read {path}: {exc.strerror}") from exc
        except LudokitError as exc:
            raise _Failure(f"{path}: {exc}") from exc
    sys_ = _load_system(path)
    try:
        return build_forest(sys_, node_budget=budget)
    except LudokitError as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _parse_state(sys_: GameSystem, literal: str):
    assignment = {}
    for part in literal.split(","):
        if "=" not in part:
            raise _Failure(f"bad state literal component {part!r} (want track=value)")
        track, value = part.split("=", 1)
        assignment[track.strip()] = value.strip()
    try:
        return sys_.state_from_dict(assignment)
    except ValueError as exc:
        raise _Failure(str(exc)) from exc


@contextlib.contextmanager
def _output(path: Optional[str]):
    """Yield the write of PATH opened for writing (stdout for None or "-").

    An OSError while opening, writing or closing becomes exit 2, so an
    unwritable output never reads as a negative verdict.
    """
    to_stdout = path is None or path == "-"
    try:
        handle = _sys.stdout if to_stdout else open(path, "w", encoding="utf-8")
        try:
            yield handle.write
        finally:
            if not to_stdout:
                handle.close()
    except OSError as exc:
        raise _Failure(f"cannot write {'stdout' if to_stdout else path}: {exc.strerror}") from exc


def _write_trees(forest: list[GameTree], fmt: str, write) -> None:
    """DOT of each tree, one tree's JSON document, or ``{"forest": [...]}``
    holding the documents of a nonempty forest of several trees."""
    if fmt == "dot":
        for t in forest:
            tree_mod.write_dot(t, write)
        return
    if len(forest) == 1:
        tree_mod.write_json(forest[0], write)
        write("\n")
        return
    write('{\n  "forest": [\n')
    for k, t in enumerate(forest):
        if k:
            write(",\n")
        tree_mod.write_json(t, write, level=2)
    write("\n  ]\n}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    sys_ = _load_system(args.file)
    report = check_completeness(sys_, scope=args.scope)
    if args.json:
        doc = {
            "complete": report.complete,
            "scope": report.scope,
            "states_checked": report.states_checked,
            "violations": [
                {
                    "kind": v.kind,
                    "message": v.message,
                    "state": None if v.state is None else list(v.state),
                    "tuple": None
                    if v.decision_tuple is None
                    else ["0" if d is None else d for d in v.decision_tuple],
                }
                for v in report.violations
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        if report.complete:
            print(f"complete ({report.states_checked} states checked, scope {report.scope})")
        else:
            print(f"incomplete: {len(report.violations)} violation(s)")
            for v in report.violations:
                print(f"  {v.kind}: {v.message}")
    return OK if report.complete else NEGATIVE


def cmd_play(args) -> int:
    sys_ = _load_system(args.file)
    roots = initial_states(sys_)
    policy = first_policy if args.policy == "first" else None
    try:
        result = play(sys_, roots[0], policy=policy, seed=args.seed)
    except LudokitError as exc:
        raise _Failure(str(exc)) from exc
    if args.json:
        doc = {
            "initial_state": list(result.initial_state),
            "steps": [
                {
                    "state": list(s.state),
                    "tuple": ["0" if d is None else d for d in s.decision_tuple],
                    "consequence_index": s.consequence_index,
                    "actions": list(s.actions),
                    "next_state": list(s.next_state),
                }
                for s in result.steps
            ],
            "outcome": result.outcome,
        }
        print(json.dumps(doc, indent=2))
        return OK
    print(f"start: {format_state(sys_, result.initial_state)}")
    for i, step in enumerate(result.steps, 1):
        print(
            f"{i:3d}. {format_decision_tuple(step.decision_tuple)} "
            f"[consequence {step.consequence_index}: {', '.join(step.actions)}] "
            f"-> {format_state(sys_, step.next_state)}"
        )
    print(f"outcome: {result.outcome}")
    return OK


def cmd_tree(args) -> int:
    sys_ = _load_system(args.file)
    if args.root is not None:
        roots = [_parse_state(sys_, args.root)]
    else:
        roots = initial_states(sys_)
    export = args.out is not None or not args.stats
    with _output(args.out) if export else contextlib.nullcontext() as write:
        try:
            forest = [
                build_tree(sys_, s0, depth_limit=args.depth, node_budget=args.budget)
                for s0 in roots
            ]
        except LudokitError as exc:
            raise _Failure(str(exc)) from exc
        if args.stats:
            for i, t in enumerate(forest):
                stats = tree_mod.tree_stats(t)
                print(
                    f"tree {i}: nodes={stats.nodes} state={stats.state_nodes} "
                    f"chance={stats.chance_nodes} leaves={stats.terminal_leaves} "
                    f"truncated={stats.truncated_leaves} edges={stats.edges} depth={stats.depth}"
                )
        if export:
            _write_trees(forest, args.format, write)
    return OK


def cmd_reduce(args) -> int:
    if args.trace not in (None, "-") and args.trace == args.out:
        raise _Failure(f"--trace and --out both name {args.out}")
    with _output(args.out) as write, (
        _output(args.trace) if args.trace is not None else contextlib.nullcontext()
    ) as write_trace:
        forest = _load_forest(args.file, args.budget)
        results = [reduce_mod.normalize(t, consume=True) for t in forest]
        if args.trace is not None:
            trace_doc = [json.loads(trace.to_json()) for _, trace in results]
            write_trace(
                json.dumps(trace_doc if len(trace_doc) > 1 else trace_doc[0], indent=2) + "\n"
            )
        _write_trees([form for form, _ in results], "json", write)
    return OK


def cmd_equiv(args) -> int:
    left = _load_forest(args.a, args.budget)
    right = _load_forest(args.b, args.budget)
    try:
        if args.mode == "structural":
            lskel = sorted(equiv.strip(t).digest for t in left)
            rskel = sorted(equiv.strip(t).digest for t in right)
            verdict = lskel == rskel
            witness = None
        elif args.mode == "relabel":
            witness = equiv.equivalent_up_to_relabeling(left, right, pin=args.pin)
            verdict = witness is not None
        else:
            witness = equiv.agency_equivalent(left, right)
            verdict = witness is not None
    except LudokitError as exc:
        raise _Failure(str(exc)) from exc
    if args.json:
        doc = {"mode": args.mode, "equivalent": verdict}
        if witness is not None and args.witness:
            doc["witness"] = json.loads(witness.to_json())
        print(json.dumps(doc, indent=2))
    else:
        print(f"{args.mode}: {'equivalent' if verdict else 'not equivalent'}")
        if witness is not None and args.witness:
            print(witness.to_json(), end="")
    return OK if verdict else NEGATIVE


def cmd_sim(args) -> int:
    left = _load_system(args.a)
    right = _load_system(args.b)
    if args.map is not None:
        try:
            with open(args.map, encoding="utf-8") as handle:
                psi = StateMap.from_json(handle.read())
        except OSError as exc:
            raise _Failure(f"cannot read {args.map}: {exc.strerror}") from exc
        except LudokitError as exc:
            raise _Failure(f"{args.map}: {exc}") from exc
    else:
        psi = StateMap.identity(left, right)
    try:
        psi.validate(left, right)
    except LudokitError as exc:
        hint = "" if args.map else " (tracks differ; supply a state map with --map)"
        raise _Failure(f"invalid state map: {exc}{hint}") from exc
    try:
        report = estimate_similarity(
            left,
            right,
            psi,
            samples=args.samples,
            depth=args.depth,
            seed=args.seed,
            scope=args.scope,
        )
    except LudokitError as exc:
        raise _Failure(str(exc)) from exc
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.summary())
    return OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _pin_flags(text: str) -> frozenset:
    try:
        return equiv._as_pin(p.strip() for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ludokit",
        description="Parse game descriptions, build and reduce game trees, "
        "decide game equivalences, and estimate game similarity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a game file and check completeness")
    p.add_argument("file")
    p.add_argument("--scope", choices=["reachable", "all"], default="reachable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("play", help="run one seeded playthrough")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["uniform", "first"], default="uniform")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("tree", help="build the game tree and export it")
    p.add_argument("file")
    p.add_argument("--root", help="state literal track=value,track=value,...")
    p.add_argument("--depth", type=_non_negative, help="decision rounds to expand")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--stats", action="store_true", help="print node/leaf counts")
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("reduce", help="normalize a tree (or a game's forest)")
    p.add_argument("file", help=".game source or tree .json")
    p.add_argument("--trace", nargs="?", const="-", default=None,
                   help="emit the reduction trace JSON (to PATH, or stdout)")
    p.add_argument("--out", help="output path for the normal form (default stdout)")
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("equiv", help="decide equivalence of two games or trees")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=["structural", "relabel", "agency"], default="relabel")
    p.add_argument("--pin", type=_pin_flags, default="",
                   help="comma list from players,outcomes,states")
    p.add_argument("--witness", action="store_true", help="print the witness JSON")
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("sim", help="estimate sampling-based similarity")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--map", help="state map JSON file (default: identity)")
    p.add_argument("--samples", type=_non_negative, default=500)
    p.add_argument("--depth", type=_non_negative, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scope", choices=["all", "reachable"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sim)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _Failure as exc:
        print(str(exc), file=_sys.stderr)
        return exc.code
    except LudokitError as exc:
        print(str(exc), file=_sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
