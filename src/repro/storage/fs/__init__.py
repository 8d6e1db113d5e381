"""An Ext4-like journaling filesystem on the simulated block device.

Implements the pieces whose failure the paper observes: a JBD-style
journal with periodic commits (the journal aborts with error -5 when a
commit cannot reach the platter, remounting the filesystem read-only),
inodes with extent-based allocation, directories, and ordered-mode data
writes.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "inode": ("FileKind", "Inode"),
        "journal": ("Journal", "JournalStats", "Transaction"),
        "filesystem": ("SimFS", "FileHandle"),
    },
)
