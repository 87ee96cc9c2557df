"""Mutated fixtures through the command line: the exit contract holds.

Each input is a fixture under one small edit: a dropped line, a duplicated
line, two adjacent tokens swapped, or one decimal token replaced by 5,000
nines, more digits than `int()` converts.  None of these adds a track, so
the state space cannot grow.  The relation checked is the exit contract
itself (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 2018): `validate` and `tree --depth 1`
run in process on every input, each under a deadline, and must return 0, 1
or 2, with 1, a negative verdict, only from `validate`, and raise nothing.
"""

from __future__ import annotations

import contextlib
import io
import random
import re

import pytest

from conftest import FIXTURES, deadline
from ludokit import cli

SAMPLES = 150
SEED = 22

# A token of a line: an identifier, a two-character punctuator, or any
# other non-blank character.
_TOKEN = re.compile(r"[\w$]+|->|\.\.|[<>!]=|\S")


def _drop(lines: list[str], rng: random.Random) -> list[str]:
    k = rng.randrange(len(lines))
    return lines[:k] + lines[k + 1:]


def _duplicate(lines: list[str], rng: random.Random) -> list[str]:
    k = rng.randrange(len(lines))
    return lines[:k + 1] + lines[k:]


def _swap(lines: list[str], rng: random.Random) -> list[str]:
    candidates = [k for k, line in enumerate(lines) if len(_TOKEN.findall(line)) > 1]
    k = rng.choice(candidates)
    tokens = list(_TOKEN.finditer(lines[k]))
    i = rng.randrange(len(tokens) - 1)
    a, b = tokens[i], tokens[i + 1]
    line = lines[k]
    swapped = line[:a.start()] + b[0] + line[a.end():b.start()] + a[0] + line[b.end():]
    return lines[:k] + [swapped] + lines[k + 1:]


def _nines(lines: list[str], rng: random.Random) -> list[str]:
    sites = [
        (k, m) for k, line in enumerate(lines) if not line.lstrip().startswith("#")
        for m in _TOKEN.finditer(line) if m[0].isdecimal()
    ]
    k, m = rng.choice(sites)
    line = lines[k]
    return lines[:k] + [line[:m.start()] + "9" * 5000 + line[m.end():]] + lines[k + 1:]


def _mutations() -> list[tuple[str, str]]:
    """`SAMPLES` (id, text) pairs drawn with a fixed seed."""
    rng = random.Random(SEED)
    fixtures = sorted(FIXTURES.glob("*.game"))
    edits = [_drop, _duplicate, _swap, _nines]
    cases = []
    for k in range(SAMPLES):
        path = rng.choice(fixtures)
        edit = rng.choice(edits)
        lines = path.read_text(encoding="utf-8").split("\n")
        cases.append((f"{k}-{path.stem}-{edit.__name__[1:]}", "\n".join(edit(lines, rng))))
    return cases


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t in _mutations()])
def test_mutated_fixture_keeps_the_exit_contract(tmp_path, text):
    path = tmp_path / "mutant.game"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate", str(path)], ["tree", "--depth", "1", str(path)]):
        err = io.StringIO()
        with deadline(10.0), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 2)), (argv, err.getvalue())
        # stdout here never fails, so this message could only come from an
        # OSError such as the deadline's TimeoutError
        assert "cannot write stdout" not in err.getvalue()
        assert "Traceback" not in err.getvalue()
