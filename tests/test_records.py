"""The value-record contract, and that the library defines no dataclass.

The library's immutable value records are `typing.NamedTuple` classes made
type-aware by `core.typed_record`: they compare, hash and print as the
frozen dataclasses they replaced did, and building one at import costs no
generated source.  The records with mutable or lazily filled fields are
`core.SlotRecord` classes: they compare and print as the mutable
dataclasses they replaced did, and are unhashable like them.  So importing
the package needs neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import ludokit
from ludokit import core, equiv
from ludokit.core import And, Lit, Not, Or, Ref
from ludokit.dsl import RAnd, ROr, RRef


def _library_classes():
    """Every class defined in a module of the package; `__main__` runs the
    CLI on import and defines none."""
    for info in pkgutil.iter_modules(ludokit.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"ludokit.{info.name}")
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield obj


def _qualified(cls) -> str:
    return f"{cls.__module__.removeprefix('ludokit.')}.{cls.__name__}"


RECORDS = sorted(
    (cls for cls in _library_classes() if cls.__eq__ is core._record_eq),
    key=_qualified,
)

EXPECTED_RECORDS = {
    "core": "Lit Not And Or Ref TrackSpec ActionClause ActionDef ConsequenceRule "
    "LegalityRule OutcomeRule Violation CompletenessReport PlayStep Playthrough",
    "dsl": "Diagnostic Token Name RLit RRef RNot RAnd ROr Binder Comparison Guard "
    "RComprehension DGame DPlayers DTrack DDecisions DSet RActionClause DAction "
    "DInit DLegal DConsequence DOutcome DDefaultOutcome DForall",
    "canon": "CanonicalKey",
    "equiv": "Skeleton",
    "reduce": "TraceStep",
    "similarity": "StateMap SampleRecord",
    "tree": "TreeStats",
}

# The package's dataclasses: none.
KEPT_DATACLASSES: set[str] = set()


def _sample(cls):
    """An instance with a distinct string in every field."""
    return cls(*(f"{name}-{cls.__name__}" for name in cls._fields))


def test_records_are_the_expected_classes():
    expected = {f"{mod}.{name}" for mod, names in EXPECTED_RECORDS.items() for name in names.split()}
    assert {_qualified(cls) for cls in RECORDS} == expected
    assert all(issubclass(cls, tuple) and cls._fields for cls in RECORDS)


def test_dataclasses_are_only_the_kept_set():
    """A `@dataclass` costs generated, compiled methods on every import, and
    importing `dataclasses` costs `inspect` as well; the kept set is empty."""
    found = {_qualified(cls) for cls in _library_classes() if dataclasses.is_dataclass(cls)}
    assert found == KEPT_DATACLASSES


def test_import_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter without `site`, whose start-up imports depend
    on the installation."""
    code = "import sys, ludokit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(pathlib.Path(ludokit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


SLOT_RECORDS = sorted(
    (cls for cls in _library_classes() if issubclass(cls, core.SlotRecord) and cls._fields),
    key=_qualified,
)


def _slot_sample(cls, **changes):
    """An instance with a distinct string in every field (a witness's pairs
    are a list of one pair), then `changes`."""
    values = {name: f"{name}-{cls.__name__}" for name in cls._fields}
    if cls is equiv.EquivalenceWitness:
        values["pairs"] = [equiv.TreePairWitness(0, 1, {(0, 0): ((2, 3),)})]
    values.update(changes)
    return cls(**values)


def _dataclass_twin(cls):
    """The mutable dataclass a slot record replaced: the same fields, those
    in `_hidden` with ``repr=False``."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(repr=name not in cls._hidden)) for name in cls._fields],
    )


def test_slot_records_are_the_expected_classes():
    assert {_qualified(cls) for cls in SLOT_RECORDS} == {
        "core.GameSystem",
        "equiv.EquivalenceWitness",
        "equiv.TreePairWitness",
        "similarity.SimilarityReport",
    }


@pytest.mark.parametrize("cls", SLOT_RECORDS, ids=_qualified)
class TestSlotRecordContract:
    def test_repr_is_the_dataclass_repr(self, cls):
        rec = _slot_sample(cls)
        twin = _dataclass_twin(cls)
        assert repr(rec) == repr(twin(*(getattr(rec, name) for name in cls._fields)))

    def test_equality_compares_every_field(self, cls):
        rec = _slot_sample(cls)
        assert rec == _slot_sample(cls) and not rec != _slot_sample(cls)
        for name in cls._fields:
            other = _slot_sample(cls, **{name: [] if name == "pairs" else "changed"})
            assert rec != other and not rec == other
        twin = _dataclass_twin(cls)
        assert rec != twin(*(getattr(rec, name) for name in cls._fields))
        assert rec != tuple(getattr(rec, name) for name in cls._fields)

    def test_unhashable(self, cls):
        with pytest.raises(TypeError):
            hash(_slot_sample(cls))

    def test_replace(self, cls):
        rec = _slot_sample(cls)
        name = cls._fields[-1]
        assert rec._replace(**{name: "changed"}) == _slot_sample(cls, **{name: "changed"})
        assert rec._replace() == rec and rec._replace() is not rec

    def test_no_instance_dict(self, cls):
        with pytest.raises(AttributeError):
            _slot_sample(cls).unknown_field = 1


def test_engine_is_neither_compared_nor_shown(ttt):
    fresh = ttt._replace()
    assert fresh._engine is None and ttt.engine() is ttt._engine
    assert fresh == ttt and repr(fresh) == repr(ttt)


@pytest.mark.parametrize("cls", RECORDS, ids=_qualified)
class TestRecordContract:
    def test_equality_and_hash(self, cls):
        rec = _sample(cls)
        again = _sample(cls)
        assert rec is not again
        assert rec == again and not rec != again
        assert hash(rec) == hash(again)
        # the hash a frozen dataclass gave: that of its field tuple
        assert hash(rec) == hash(tuple(rec))

    def test_not_equal_to_a_plain_tuple(self, cls):
        rec = _sample(cls)
        fields = tuple(rec)
        assert rec != fields and fields != rec
        assert not rec == fields and not fields == rec
        assert rec != None  # noqa: E711
        assert rec not in {fields}

    def test_not_equal_to_another_record_with_the_same_fields(self, cls):
        rec = _sample(cls)
        fields = tuple(rec)
        for other in RECORDS:
            if other is not cls and len(other._fields) == len(fields):
                assert rec != other(*fields) and other(*fields) != rec

    def test_repr_is_the_dataclass_repr(self, cls):
        rec = _sample(cls)
        frozen = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        assert repr(rec) == repr(frozen(*rec))

    def test_fields_cannot_be_assigned(self, cls):
        rec = _sample(cls)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, "changed")


def test_equality_depends_on_the_type():
    parts = (Lit("t", "a"), Ref("s"))
    assert And(parts) != Or(parts)
    assert Not("s") != Ref("s")
    assert RAnd(parts) != ROr(parts)
    assert Lit("t", "a") != ("t", "a")
    assert And(parts) == And((Lit("t", "a"), Ref("s")))
    # a tuple field holding records compares them by type too
    assert And((Not("s"),)) != And((Ref("s"),))
    assert RRef("s") != Ref("s")


def test_pinned_repr():
    assert repr(Lit("t", "a")) == "Lit(track='t', value='a')"
    assert repr(And((Lit("t", "a"),))) == "And(parts=(Lit(track='t', value='a'),))"


def test_tuple_api_replaces_the_dataclass_api():
    lit = Lit("t", "a")
    assert lit._replace(value="b") == Lit("t", "b")
    assert lit._asdict() == {"track": "t", "value": "a"}
    with pytest.raises(TypeError):
        dataclasses.replace(lit, value="b")
