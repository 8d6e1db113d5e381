"""The reachability gate's classification (``tools/reach.py``).

The pass itself runs every command under a profiler (about a minute),
so tier-1 checks only the rule it applies, on a fabricated call set.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from reach import (  # noqa: E402
    RAN,
    classify,
    module_functions,
    problems,
    unreached_private,
    wrapped_functions,
)

UNREACHED = "unreached: no command, example or allowlist entry reaches it"


def check(functions, called, imported, allowlist, wrapped=()):
    """The gate's problem lines for one fabricated pass."""
    status = classify(functions, called, [*allowlist, *wrapped])
    return problems(functions, status, imported, allowlist, wrapped)


def test_classification_on_a_fabricated_call_set():
    functions = {
        "called.py": {"run": 3},
        "unreached.py": {"run": 3},
        "data.py": {},
        "kept.py": {"run": 3},
        "now_called.py": {"run": 3},
    }
    allowlist = {
        "kept.py": "a test aid",
        "now_called.py": "was unreached once",
        "gone.py": "was deleted",
    }
    lines = check(
        functions,
        called={("called.py", "run"), ("now_called.py", "run")},
        imported={"called.py", "data.py", "unreached.py"},
        allowlist=allowlist,
    )
    # unreached.py was imported, but its function did not run; data.py
    # defines none, so its import reaches it; kept.py is allowlisted.
    assert lines == [
        f"unreached.py:run: {UNREACHED}",
        "gone.py: stale allowlist entry: it names nothing that exists",
        "now_called.py: stale allowlist entry: every public function it covers ran",
    ]
    # A data-only module that was never imported is unreached.
    assert check({"data.py": {}}, set(), set(), {}) == [
        "data.py: unreached: nothing imports it"
    ]


FUNCTIONS = {
    "mod.py": {
        "Store.get": 4,
        "Store.unused": 6,
        "Store._helper": 2,
        "Store.__init__": 3,
        "_Private.run": 2,
        "orphan": 5,
    }
}
CALLED = {("mod.py", "Store.get"), ("mod.py", "Store.__init__")}


def test_classify_names_what_keeps_each_public_function():
    # The first covering entry wins; private functions are not classified.
    assert classify(FUNCTIONS, CALLED, ["mod.py:Store", "mod.py"]) == {
        ("mod.py", "Store.get"): RAN,
        ("mod.py", "Store.unused"): "mod.py:Store",
        ("mod.py", "orphan"): "mod.py",
    }
    assert classify(FUNCTIONS, CALLED, [])[("mod.py", "orphan")] is None


def test_public_unreached_functions_are_flagged_by_qualname():
    assert check(FUNCTIONS, CALLED, {"mod.py"}, {}) == [
        f"mod.py:Store.unused: {UNREACHED}",
        f"mod.py:orphan: {UNREACHED}",
    ]


def test_private_unreached_functions_are_reported_not_flagged():
    # Neither _helper nor a method of a private class fails the gate.
    lines = check(FUNCTIONS, CALLED, {"mod.py"}, {})
    assert not any("_helper" in line or "_Private" in line for line in lines)
    assert unreached_private(FUNCTIONS, CALLED) == {
        "mod.py": ["Store._helper", "_Private.run"]
    }


def test_module_and_qualname_entries_each_cover():
    assert check(FUNCTIONS, CALLED, {"mod.py"}, {"mod.py": "why"}) == []
    allowlist = {"mod.py:Store.unused": "why", "mod.py:orphan": "why"}
    assert check(FUNCTIONS, CALLED, {"mod.py"}, allowlist) == []
    # A class entry covers its methods.
    assert check(FUNCTIONS, CALLED, {"mod.py"}, {"mod.py:Store": "why"}) == [
        f"mod.py:orphan: {UNREACHED}"
    ]


def test_stale_qualname_entries_are_flagged():
    allowlist = {
        "mod.py:Store.unused": "why",
        "mod.py:orphan": "why",
        "mod.py:Store.gone": "deleted since",
        "mod.py:Store.get": "reached since",
    }
    assert check(FUNCTIONS, CALLED, {"mod.py"}, allowlist) == [
        "mod.py:Store.get: stale allowlist entry: every public function it covers ran",
        "mod.py:Store.gone: stale allowlist entry: it names nothing that exists",
    ]


def test_protocol_stubs_and_nested_functions_are_exempt():
    source = '''
from typing import Protocol
import typing

class TrackerLike(Protocol):
    def mark(self, unit: str) -> None: ...

class Generic(typing.Protocol[int]):
    def get(self) -> int: ...

class Tracker:
    def mark(self, unit):
        def inner():
            return unit
        return inner()

    @property
    def state(self):
        return 1

    @state.setter
    def state(self, value):
        pass

    class Inner:
        def deep(self):
            return [lambda: 1]

if True:
    def guarded():
        pass
'''
    assert module_functions(source) == {
        "Tracker.mark": 4,
        "Tracker.state": 6,  # getter and setter share a qualname
        "Tracker.Inner.deep": 2,
        "guarded": 2,
    }


def test_e2ebench_targets_are_covered():
    wrapped = wrapped_functions()
    assert "storage/block.py:BlockDevice.flush" in wrapped
    assert "storage/kv/compaction.py:Compactor.run" in wrapped
    functions = {"storage/block.py": {"BlockDevice.flush": 9, "BlockDevice.write_block": 9}}
    called = {("storage/block.py", "BlockDevice.write_block")}
    imported = {"storage/block.py"}
    assert check(functions, called, imported, {}) == [
        f"storage/block.py:BlockDevice.flush: {UNREACHED}"
    ]
    # A wrapped function that runs does not make its entry stale; one
    # that no longer exists does, since e2ebench would fail on it.
    present = {"storage/block.py:BlockDevice.flush", "storage/block.py:BlockDevice.write_block"}
    assert check(functions, called, imported, {}, wrapped) == [
        f"{entry}: stale allowlist entry: it names nothing that exists"
        for entry in wrapped
        if entry not in present
    ]
