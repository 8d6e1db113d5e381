"""Corpus DC08 good: a behaviour switch is a declared parameter, not an env read."""

import os


def cache_root(cache_dir: str = "") -> str:
    # Non-REPRO variables (the user's home) are not simulator switches.
    return cache_dir or os.path.join(os.environ.get("HOME", "."), ".cache")
