"""Every public module declares ``__all__``, and every name in it exists."""

import importlib
import pathlib
import pkgutil

import repro
import repro.storage.kv

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def _walked():
    """``repro`` and every module ``pkgutil`` finds under it."""
    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def _is_public(name):
    return not any(part.startswith("_") for part in name.split("."))


def test_the_walk_finds_every_module_file():
    files = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        files.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert set(_walked()) == files


def test_every_public_module_defines_all():
    lacking = [
        name
        for name in _walked()
        if _is_public(name) and not hasattr(importlib.import_module(name), "__all__")
    ]
    assert lacking == []


def test_every_all_name_resolves():
    missing = []
    for name in _walked():
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            if not hasattr(module, attr):
                missing.append(f"{name}.{attr}")
    assert missing == []


def test_kv_surface_has_no_skiplist():
    assert "SkipList" not in repro.storage.kv.__all__
