"""The value-record contract, and which classes stay dataclasses.

The library's immutable value records are `typing.NamedTuple` classes made
type-aware by `core.typed_record`: they compare, hash and print as the
frozen dataclasses they replaced did, and building one at import costs no
generated source.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ludokit
from ludokit import core
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
    "core": "Lit Not And Or Ref TrackSpec ActionClause ActionDef LegalityRule "
    "OutcomeRule Violation CompletenessReport PlayStep Playthrough",
    "dsl": "Diagnostic Token Name RLit RRef RNot RAnd ROr Binder Comparison Guard "
    "RComprehension DGame DPlayers DTrack DDecisions DSet RActionClause DAction "
    "DInit DLegal DConsequence DOutcome DDefaultOutcome DForall",
    "canon": "CanonicalKey",
    "equiv": "Skeleton",
    "similarity": "StateMap SampleRecord",
    "tree": "TreeStats",
}

# Classes that stay dataclasses, and why: the first two are rebuilt with
# `dataclasses.replace`, TraceStep is read with `dataclasses.asdict`, and the
# last three use field options (`init=False`, `repr=False`, a post-init
# hook) or are written after construction.
KEPT_DATACLASSES = {
    "core.GameSystem",
    "core.ConsequenceRule",
    "reduce.TraceStep",
    "equiv.TreePairWitness",
    "equiv.EquivalenceWitness",
    "similarity.SimilarityReport",
}


def _sample(cls):
    """An instance with a distinct string in every field."""
    return cls(*(f"{name}-{cls.__name__}" for name in cls._fields))


def test_records_are_the_expected_classes():
    expected = {f"{mod}.{name}" for mod, names in EXPECTED_RECORDS.items() for name in names.split()}
    assert {_qualified(cls) for cls in RECORDS} == expected
    assert all(issubclass(cls, tuple) and cls._fields for cls in RECORDS)


def test_dataclasses_are_only_the_kept_set():
    """A new `@dataclass` costs generated, compiled methods on every import;
    adding one means adding it here."""
    found = {_qualified(cls) for cls in _library_classes() if dataclasses.is_dataclass(cls)}
    assert found == KEPT_DATACLASSES


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
