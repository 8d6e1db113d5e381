"""The reachability gate's classification (``tools/reach.py``).

The pass itself runs every command under a profiler (about a minute),
so tier-1 checks only the rule it applies, on a fabricated call set.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from reach import problems  # noqa: E402


def test_classification_on_a_fabricated_call_set():
    modules = {
        "called.py": True,
        "unreached.py": True,
        "data.py": False,
        "kept.py": True,
        "now_called.py": True,
    }
    allowlist = {
        "kept.py": "a test aid",
        "now_called.py": "was unreached once",
        "gone.py": "was deleted",
    }
    lines = problems(
        modules,
        called={"called.py", "now_called.py"},
        imported={"called.py", "data.py", "unreached.py"},
        allowlist=allowlist,
    )
    # unreached.py was imported, but none of its functions ran; data.py
    # defines none, so its import reaches it; kept.py is allowlisted.
    assert lines == [
        "unreached.py: unreached: no command, example or allowlist entry reaches it",
        "gone.py: stale allowlist entry: the module no longer exists",
        "now_called.py: stale allowlist entry: a command now reaches it",
    ]
    # A data-only module that was never imported is unreached.
    assert problems({"data.py": False}, set(), set(), {}) == [
        "data.py: unreached: no command, example or allowlist entry reaches it"
    ]
