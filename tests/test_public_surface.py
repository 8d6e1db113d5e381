"""Every ``__all__`` in the package names something that exists."""

import importlib
import pkgutil

import repro
import repro.storage.kv


def test_every_all_name_resolves():
    missing = []
    checked = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert checked >= 493
    assert missing == []


def test_kv_surface_has_no_skiplist():
    assert "SkipList" not in repro.storage.kv.__all__
