"""The library attributes that the benchmark's traced run wraps still exist.

`perfbench/spans.py` replaces library functions by name; renaming or
deleting one of them breaks the benchmark, so installing its wrappers is
checked here, with no timer started, and they are removed again.
"""

from __future__ import annotations

import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_wrappers_install():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    lib = spans.modules()
    original = lib.equiv.verify_witness
    undo = spans.install(spans.Clock())
    try:
        # 17 library functions plus the lazily built rule engine
        assert len(undo) == 18
        assert lib.equiv.verify_witness is not original
    finally:
        spans.uninstall(undo)
    assert lib.equiv.verify_witness is original
