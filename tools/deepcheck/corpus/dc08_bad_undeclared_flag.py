"""Corpus DC08 bad: a REPRO_* environment switch read by the simulator."""

import os

DEBUG_DUMP = os.environ.get("REPRO_DEBUG_DUMP", "0") == "1"
