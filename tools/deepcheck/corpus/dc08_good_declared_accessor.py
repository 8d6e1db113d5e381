"""Corpus DC08 good: flags are consumed through the repro.perf accessors."""

from repro.perf import servo_cache_enabled


def use_servo_cache() -> bool:
    return servo_cache_enabled()
