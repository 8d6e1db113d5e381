"""A minimal server-OS model (the paper's Ubuntu 16.04 victim).

Provides what Section 4.4's crash analysis needs: a kernel log ring
buffer (dmesg) that accumulates buffer I/O errors, a writeback flusher
that periodically pushes dirty pages at the root filesystem, a process
table, a shell whose commands (``ls`` and friends) need the root
filesystem, and a server that panics once storage disappears — "Ubuntu
crash happens with an indication of inability to access all files,
including regular files and common Linux commands, such as ls".
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "dmesg": ("DmesgBuffer", "DmesgEntry"),
        "process": ("Process", "ProcessState", "ProcessTable"),
        "kernel": ("Kernel",),
        "shell": ("Shell", "CommandResult"),
        "server": ("UbuntuServer",),
    },
)
