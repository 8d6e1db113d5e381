#!/usr/bin/env python3
"""Attack a whole underwater datacenter as one discrete-event campaign.

This is the paper's headline scenario at fleet scale: 4 racks x 50
storage towers x 5 bays = 1000 drives behind submerged container walls,
serving an open-loop host workload, while a speaker holds the
vulnerable tone for a 30-second window.  Everything — attack edges,
service ticks, RAID rebuilds, health monitors — runs as events on one
deterministic :class:`repro.sim.EventScheduler` (docs/SIMULATION.md);
the fleet topology and availability accounting come from
:class:`repro.core.fleet.FleetSim` (docs/FLEET.md).

Three things to notice:

* **physics once per rack** — every tower shares the rack's wall and
  water column, so each attack edge evaluates the physics chain on
  one reference tower and applies it to all 250 drives;
* **common-mode failure** — when the tone stalls a bay it stalls that
  bay in *every* tower of the rack at once, so RAID's independent-
  failure math buys far less than on mechanical faults;
* **determinism** — the per-rack outcomes are a pure function of
  (FleetSpec, rack index); re-run the script and every number is
  byte-identical (`deepnote fleet` shards the same campaign across
  worker processes with identical results).

Run:  python examples/datacenter_attack.py
"""

from repro.core.fleet import AttackWindow, FleetSim, FleetSpec

# The campaign: a minute of virtual serving time, with the paper's
# 650 Hz tone held at 139 dB from 5 cm for t=10s..40s.
SPEC = FleetSpec(
    racks=4,
    towers_per_rack=50,
    bays=5,
    raid="raid5",
    duration_s=60.0,
    request_rate_hz=200.0,
    attacks=(
        AttackWindow(
            start_s=10.0,
            duration_s=30.0,
            frequency_hz=650.0,
            source_level_db=139.0,
            distance_m=0.05,
        ),
    ),
    seed=7,
)


def main() -> None:
    sim = FleetSim(SPEC)
    queued = len(sim.scheduler.queue)
    print(
        f"fleet: {SPEC.racks} racks x {SPEC.towers_per_rack} towers x "
        f"{SPEC.bays} bays = {SPEC.drive_count} drives, "
        f"{queued} events queued on one scheduler\n"
    )
    result = sim.run()
    print(result.render())

    window = SPEC.attacks[0]
    quiet_ops = sum(o.ops for o in result.outcomes) * (
        1.0 - window.duration_s / SPEC.duration_s
    )
    print(
        f"\nthe {window.frequency_hz:.0f} Hz window turned "
        f"{100.0 * (1.0 - result.availability()):.1f}% of {result.ops} host "
        f"requests into errors ({quiet_ops:.0f} ops ran outside the window); "
        f"{sum(o.rebuilds for o in result.outcomes)} RAID members rebuilt "
        f"after the tone lifted."
    )
    print(
        f"scheduler fired {sim.scheduler.fired} events to "
        f"{sim.scheduler.now:.0f}s virtual time."
    )


if __name__ == "__main__":
    main()
