"""Command-line front end.

Exit codes follow one contract across all subcommands: 0 for success or a
positive verdict (complete / equivalent), 1 for a well-formed negative
verdict (violations found / not equivalent), 2 for usage or input errors,
refused computations, an output that cannot be written, and running out of
memory or of recursion depth.  `main` alone turns an exception into a code.
Reports go to stdout, diagnostics to stderr; output is plain text (NO_COLOR
is honored trivially) and byte-stable for fixed arguments and seeds.
Each verb imports the tree layers it runs when it runs, so `validate` and
`play` load only `core`, `dsl` and `errors`.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys as _sys
from typing import TYPE_CHECKING, Optional

from . import dsl
from .core import (
    DEFAULT_NODE_BUDGET,
    GameSystem,
    check_completeness,
    first_policy,
    format_decision_tuple,
    format_state,
    initial_states,
    play,
)
from .errors import LudokitError

if TYPE_CHECKING:
    from .tree import GameTree

OK, NEGATIVE, USAGE = 0, 1, 2


class _Failure(Exception):
    """An input or usage error the front end detects itself."""


class _ClosedStdout:
    """Stands in for a stdout the process was started without: writing fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self) -> None:
        pass


class _StdoutError(Exception):
    """An OSError from writing or flushing stdout, told apart from any other."""


class _Stdout:
    """`sys.stdout` while a verb runs: its write and flush raise
    `_StdoutError` for an OSError, so only such a failure is blamed on
    stdout."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except OSError as exc:
            raise _StdoutError(exc.strerror or exc) from exc

    def flush(self) -> None:
        try:
            self.stream.flush()
        except OSError as exc:
            raise _StdoutError(exc.strerror or exc) from exc


def _read_text(path: str) -> str:
    """The file's text; an unreadable or non-UTF-8 file is an input error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _load_system(path: str) -> GameSystem:
    return dsl.parse_game(_read_text(path), path)


def _load_forest(path: str, budget: int) -> list[GameTree]:
    """A .game file builds its full forest; a .json file imports a tree
    document or a ``{"forest": [...]}`` document of several."""
    from . import tree as tree_mod

    if path.endswith(".json"):
        try:
            return tree_mod.import_forest_json(_read_text(path))
        except LudokitError as exc:
            raise _Failure(f"{path}: {exc}") from exc
    sys_ = _load_system(path)
    try:
        return tree_mod.build_forest(sys_, node_budget=budget)
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
def _output(path: Optional[str], mode: str = "w"):
    """Yield the write of PATH opened in `mode` (stdout for None or "-").

    An OSError while opening, writing or closing PATH becomes exit 2 naming
    PATH, so an unwritable output never reads as a negative verdict.  Only
    the file's own calls are guarded: a failed write to stdout, even one made
    while PATH is open, reaches `main`, which names stdout.
    """
    if path is None or path == "-":
        yield _sys.stdout.write
        return

    def guarded(call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise _Failure(f"cannot write {path}: {exc.strerror}") from exc

    handle = guarded(lambda: open(path, mode, encoding="utf-8"))
    try:
        yield lambda text: guarded(handle.write, text)
    finally:
        guarded(handle.close)


def _write_trees(forest: list[GameTree], fmt: str, write) -> None:
    """DOT of each tree, one tree's JSON document, or ``{"forest": [...]}``
    holding the documents of a nonempty forest of several trees."""
    from . import tree as tree_mod

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
    result = play(sys_, roots[0], policy=policy, seed=args.seed)
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
    from . import tree as tree_mod

    sys_ = _load_system(args.file)
    if args.root is not None:
        roots = [_parse_state(sys_, args.root)]
    else:
        roots = initial_states(sys_)
    export = args.out is not None or not args.stats
    with _output(args.out) if export else contextlib.nullcontext() as write:
        forest = [
            tree_mod.build_tree(sys_, s0, depth_limit=args.depth, node_budget=args.budget)
            for s0 in roots
        ]
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
    from . import reduce as reduce_mod

    if (
        args.trace not in (None, "-")
        and args.out not in (None, "-")
        and os.path.realpath(args.trace) == os.path.realpath(args.out)
    ):
        raise _Failure(f"--trace and --out both name {args.out}")
    # An output may name the input, so outputs are truncated only once the
    # input is read and normalized.  Opening them to append nothing first
    # makes an unwritable one fail before that work, and truncates nothing.
    for path in (args.out, args.trace):
        with _output(path, "a"):
            pass
    forest = _load_forest(args.file, args.budget)
    results = [reduce_mod.normalize(t) for t in forest]
    with _output(args.out) as write, (
        _output(args.trace) if args.trace is not None else contextlib.nullcontext()
    ) as write_trace:
        if args.trace is not None:
            trace_doc = [json.loads(trace.to_json()) for _, trace in results]
            write_trace(
                json.dumps(trace_doc if len(trace_doc) > 1 else trace_doc[0], indent=2) + "\n"
            )
        _write_trees([form for form, _ in results], "json", write)
    return OK


def cmd_equiv(args) -> int:
    from . import equiv

    left = _load_forest(args.a, args.budget)
    right = _load_forest(args.b, args.budget)
    if args.mode == "structural":
        verdict = equiv.structurally_equivalent(left, right)
        witness = None
    elif args.mode == "relabel":
        witness = equiv.equivalent_up_to_relabeling(left, right, pin=args.pin)
        verdict = witness is not None
    else:
        witness = equiv.agency_equivalent(left, right)
        verdict = witness is not None
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
    from .similarity import StateMap, similarity as estimate_similarity

    left = _load_system(args.a)
    right = _load_system(args.b)
    if args.map is not None:
        try:
            psi = StateMap.from_json(_read_text(args.map))
        except LudokitError as exc:
            raise _Failure(f"{args.map}: {exc}") from exc
    else:
        psi = StateMap.identity(left, right)
    try:
        psi.validate(left, right)
    except LudokitError as exc:
        hint = "" if args.map else " (tracks differ; supply a state map with --map)"
        raise _Failure(f"invalid state map: {exc}{hint}") from exc
    report = estimate_similarity(
        left, right, psi, samples=args.samples, depth=args.depth, seed=args.seed, scope=args.scope
    )
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.summary())
    return OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _pin_flags(text: str) -> frozenset:
    from .equiv import _as_pin

    try:
        return _as_pin(p.strip() for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _non_negative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
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
    p.add_argument("--samples", type=_positive, default=500)
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
    stdout = _ClosedStdout() if _sys.stdout is None else _sys.stdout  # None: started closed
    _sys.stdout = _Stdout(stdout)
    try:
        code = args.fn(args)
        _sys.stdout.flush()  # a buffered report fails here, not at interpreter exit
        return code
    except (_Failure, LudokitError) as exc:
        message = str(exc)
    except _StdoutError as exc:
        message = f"cannot write stdout: {exc}"
        if stdout is _sys.__stdout__:
            # The unwritten bytes stay buffered, and the flush at interpreter
            # exit would fail on them again and make the exit status 120.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
    except OSError as exc:  # inputs and --out files are reported where opened
        message = f"operating system error: {' '.join(str(exc).split()) or type(exc).__name__}"
    except MemoryError:
        message = "out of memory"
    except RecursionError:
        message = "recursion limit reached: the input nests too deeply"
    finally:
        _sys.stdout = stdout
    print(message, file=_sys.stderr)
    return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
