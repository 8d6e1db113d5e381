"""A shell whose commands need the root filesystem.

The paper's Ubuntu crash manifests as "inability to access all files,
including regular files and common Linux commands, such as ls".  The
shell models that: each command reads its binary from ``/bin`` and then
touches the filesystem, so a dead drive makes every command fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    FileNotFound,
    FilesystemError,
    KernelPanic,
    ReadOnlyFilesystem,
)
from repro.storage.fs.filesystem import SimFS

from .kernel import Kernel

__all__ = ["CommandResult", "Shell"]


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one shell command."""

    command: str
    exit_code: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        """True when the command succeeded."""
        return self.exit_code == 0


class Shell:
    """Executes a handful of coreutils-style commands on the rootfs."""

    KNOWN = ("ls", "cat", "touch", "echo", "sync")

    def __init__(self, kernel: Kernel, fs: SimFS) -> None:
        self.kernel = kernel
        self.fs = fs
        self.history: List[CommandResult] = []

    def _load_binary(self, name: str) -> None:
        """Read the command's binary, like execve would page it in."""
        self.fs.read_file(f"/bin/{name}")

    def run(self, command: str) -> CommandResult:
        """Run a command line; storage failures become exit code 1."""
        if self.kernel.panicked:
            raise KernelPanic(self.kernel.panic_reason)
        parts = command.split()
        if not parts:
            return self._done(CommandResult(command, 0))
        name, args = parts[0], parts[1:]
        if name not in self.KNOWN:
            return self._done(
                CommandResult(command, 127, stderr=f"{name}: command not found")
            )
        try:
            self._load_binary(name)
            return self._done(self._dispatch(command, name, args))
        except (BlockIOError, ReadOnlyFilesystem) as cause:
            return self._done(
                CommandResult(
                    command, 1, stderr=f"{name}: Input/output error ({cause})"
                )
            )
        except FileNotFound as cause:
            return self._done(
                CommandResult(command, 1, stderr=f"{name}: {cause}: No such file")
            )
        except FilesystemError as cause:
            return self._done(CommandResult(command, 1, stderr=f"{name}: {cause}"))

    def _dispatch(self, command: str, name: str, args: List[str]) -> CommandResult:
        if name == "ls":
            path = args[0] if args else "/"
            names = self.fs.listdir(path)
            return CommandResult(command, 0, stdout="\n".join(names))
        if name == "cat":
            if not args:
                return CommandResult(command, 1, stderr="cat: missing operand")
            data = self.fs.read_file(args[0])
            return CommandResult(command, 0, stdout=data.decode(errors="replace"))
        if name == "touch":
            if not args:
                return CommandResult(command, 1, stderr="touch: missing operand")
            self.fs.create(args[0], exist_ok=True)
            return CommandResult(command, 0)
        if name == "echo":
            return CommandResult(command, 0, stdout=" ".join(args))
        if name == "sync":
            self.fs.sync()
            return CommandResult(command, 0)
        raise ConfigurationError(f"unhandled command {name}")  # pragma: no cover

    def _done(self, result: CommandResult) -> CommandResult:
        self.history.append(result)
        return result
