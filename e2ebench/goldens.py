"""Goldens carried forward from the retired micro-gates, via the public API.

Prints one JSON object: the digest of each golden plus the package's
default seed.  ``run.py`` compares them with ``pins.json``.

* ``figure2_csv``: the Figure 2 write + read CSVs of the 100-2000 Hz
  (step 100) Scenario 2 sweep at ``fio_runtime_s=0.4``, seed 7.
* ``fleet_outcomes``: the per-rack outcomes of the 1000-drive fleet
  campaign (4 racks x 50 towers x 5 bays, one 650 Hz window).
"""

from __future__ import annotations

import hashlib
import json


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def figure2_csv() -> str:
    from repro.core.scenario import Scenario
    from repro.experiments.figure2 import run_figure2

    result = run_figure2(
        frequencies_hz=[float(f) for f in range(100, 2100, 100)],
        scenarios=[Scenario.scenario_2()],
        fio_runtime_s=0.4,
        seed=7,
    )
    return _sha256(result.to_csv("write") + result.to_csv("read"))


def fleet_outcomes() -> str:
    from repro.core.fleet import AttackWindow, FleetSim, FleetSpec

    spec = FleetSpec(
        racks=4,
        towers_per_rack=50,
        bays=5,
        duration_s=30.0,
        request_rate_hz=100.0,
        rebuild_s=5.0,
        seed=10,
        attacks=(
            AttackWindow(
                start_s=2.0,
                duration_s=10.0,
                frequency_hz=650.0,
                source_level_db=139.0,
                distance_m=0.05,
            ),
        ),
    )
    outcomes = [outcome.to_payload() for outcome in FleetSim(spec).run().outcomes]
    return _sha256(json.dumps(outcomes, sort_keys=True))


def main() -> None:
    from repro.rng import DEFAULT_SEED

    print(
        json.dumps(
            {
                "default_seed": DEFAULT_SEED,
                "figure2_csv": figure2_csv(),
                "fleet_outcomes": fleet_outcomes(),
            }
        )
    )


if __name__ == "__main__":
    main()
