"""The paper's reported numbers, transcribed for comparison.

Tests never assert equality against these (our substrate is a
simulator, not the authors' water tank); they assert the *shape*: who
wins, by roughly what factor, and where the cliffs fall.  EXPERIMENTS.md
tabulates paper-vs-measured from the same constants.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "TABLE1_PAPER",
    "TABLE2_PAPER",
    "TABLE3_PAPER",
    "FIG2_BASELINE_WRITE_MBPS",
    "FIG2_BASELINE_READ_MBPS",
    "FIG2_BAND_PLASTIC_WRITE_HZ",
    "FIG2_BAND_METAL_WRITE_HZ",
    "FIG2_BAND_METAL_READ_HZ",
    "ATTACK_TONE_HZ",
    "ATTACK_LEVEL_DB",
]

#: Best attacking parameters (Section 4.4).
ATTACK_TONE_HZ = 650.0
ATTACK_LEVEL_DB = 140.0

#: Table 1 — FIO throughput (MB/s) and latency (ms) vs distance,
#: Scenario 2 at 650 Hz.  None latency = the paper's "-" (no response).
#: distance_cm -> (read_mbps, write_mbps, read_lat_ms, write_lat_ms)
TABLE1_PAPER: Dict[Optional[int], Tuple[float, float, Optional[float], Optional[float]]] = {
    None: (18.0, 22.7, 0.2, 0.2),  # no attack
    1: (0.0, 0.0, None, None),
    5: (0.0, 0.0, None, None),
    10: (12.6, 0.3, 0.3, None),
    15: (17.6, 2.9, 0.2, 4.0),
    20: (17.6, 21.1, 0.2, 0.2),
    25: (18.0, 22.0, 0.2, 0.2),
}

#: Table 2 — RocksDB readwhilewriting vs distance, Scenario 2 at 650 Hz.
#: distance_cm -> (throughput_mbps, io_rate_ops_per_s)
TABLE2_PAPER: Dict[Optional[int], Tuple[float, float]] = {
    None: (8.7, 110_000.0),
    1: (0.0, 0.0),
    5: (0.0, 0.0),
    10: (0.0, 0.0),
    15: (3.7, 90_000.0),
    20: (8.6, 110_000.0),
    25: (8.6, 110_000.0),
}

#: Table 3 — time to crash (s) under 650 Hz / 140 dB / 1 cm, Scenario 2.
TABLE3_PAPER: Dict[str, float] = {
    "Ext4": 80.0,
    "Ubuntu": 81.0,
    "RocksDB": 81.3,
}

#: Figure 2 quiescent throughputs.
FIG2_BASELINE_WRITE_MBPS = 22.7
FIG2_BASELINE_READ_MBPS = 18.0

#: Figure 2 vulnerable bands reported in the text (Hz).
FIG2_BAND_PLASTIC_WRITE_HZ = (300.0, 1700.0)
FIG2_BAND_METAL_WRITE_HZ = (300.0, 1300.0)
FIG2_BAND_METAL_READ_HZ = (300.0, 800.0)
