"""Processes and the process table.

A deliberately small model: processes have a pid, a name, a state, and
an exit cause; the table allocates pids and answers liveness questions
for the crash monitor ("the application stops running with an error
output").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = ["ProcessState", "Process", "ProcessTable"]


class ProcessState(enum.Enum):
    """Lifecycle states."""

    RUNNING = "R"
    SLEEPING = "S"
    ZOMBIE = "Z"
    DEAD = "X"


@dataclass
class Process:
    """One process table entry."""

    pid: int
    name: str
    state: ProcessState = ProcessState.RUNNING
    exit_code: Optional[int] = None
    exit_reason: str = ""

    @property
    def alive(self) -> bool:
        """True while the process can still run."""
        return self.state in (ProcessState.RUNNING, ProcessState.SLEEPING)

    def kill(self, exit_code: int, reason: str) -> None:
        """Terminate the process with an error output."""
        if not self.alive:
            return
        self.state = ProcessState.DEAD
        self.exit_code = exit_code
        self.exit_reason = reason


class ProcessTable:
    """Allocates pids and tracks every spawned process."""

    def __init__(self, first_pid: int = 100) -> None:
        if first_pid <= 0:
            raise ConfigurationError(f"first pid must be positive: {first_pid}")
        self._next_pid = first_pid
        self._procs: Dict[int, Process] = {}

    def spawn(self, name: str) -> Process:
        """Create a new running process."""
        proc = Process(pid=self._next_pid, name=name)
        self._next_pid += 1
        self._procs[proc.pid] = proc
        return proc

    def living(self) -> List[Process]:
        """Processes still alive."""
        return [p for p in self._procs.values() if p.alive]

    def kill_all(self, exit_code: int, reason: str) -> int:
        """Terminate every living process (kernel panic path)."""
        victims = self.living()
        for proc in victims:
            proc.kill(exit_code, reason)
        return len(victims)

    def __len__(self) -> int:
        return len(self._procs)
