"""The filesystem proper: superblock, inode table, directories, data.

Layout on the block device::

    block 0                  superblock (JSON)
    blocks 1 .. J            journal ring
    blocks J+1 .. J+I        inode table (8 inodes per block, JSON)
    blocks J+I+1 ..          data region (extent-allocated)

Metadata updates go through the journal (stage -> periodic commit ->
checkpoint); file data is written in place first, ordered-mode style.
When the journal aborts (error -5), every mutating call raises
:class:`~repro.errors.ReadOnlyFilesystem` — the crashed state of the
paper's Ext4 victim.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FileExists,
    FileNotFound,
    FilesystemError,
    NoSpace,
    ReadOnlyFilesystem,
)
from repro.storage.block import BlockDevice

from .inode import Extent, FileKind, Inode, ROOT_INO
from .journal import Journal

__all__ = ["SimFS"]

_MAGIC = "repro-ext4-sim"
_INODES_PER_BLOCK = 8


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FilesystemError(f"paths must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


class SimFS:
    """An Ext4-like filesystem instance.

    Build one with :meth:`mkfs` (format) or :meth:`mount` (attach to an
    existing formatted device, replaying the journal).
    """

    def __init__(
        self,
        device: BlockDevice,
        journal: Journal,
        inode_table_start: int,
        inode_table_blocks: int,
        data_start: int,
        page_cache: bool = True,
    ) -> None:
        self.device = device
        self.journal = journal
        self.inode_table_start = inode_table_start
        self.inode_table_blocks = inode_table_blocks
        self.data_start = data_start
        self.inodes: Dict[int, Inode] = {}
        self._dir_cache: Dict[int, Dict[str, int]] = {}
        self.next_ino = ROOT_INO
        self.alloc_cursor = data_start
        self._free_extents: List[Extent] = []
        self._free_inos: List[int] = []
        # Page cache: once a file block has been read or written it is
        # served from memory, like the Linux page cache.  This is what
        # keeps cached binaries (ls, cat ...) runnable for a while even
        # after the drive stops responding.
        self.page_cache_enabled = page_cache
        self._page_cache: Dict[Tuple[int, int], bytes] = {}
        self.page_cache_hits = 0
        self.page_cache_misses = 0

    # -- formatting and mounting -------------------------------------------------

    @classmethod
    def mkfs(
        cls,
        device: BlockDevice,
        journal_blocks: int = 256,
        inode_table_blocks: int = 256,
        commit_interval_s: float = 5.0,
    ) -> "SimFS":
        """Format ``device`` and return the mounted filesystem."""
        inode_start = 1 + journal_blocks
        data_start = inode_start + inode_table_blocks
        if data_start + 64 >= device.total_blocks:
            raise ConfigurationError("device too small for this layout")
        journal = Journal(device, 1, journal_blocks, commit_interval_s)
        fs = cls(device, journal, inode_start, inode_table_blocks, data_start)
        root = Inode(ino=ROOT_INO, kind=FileKind.DIRECTORY, nlink=2)
        fs.inodes[ROOT_INO] = root
        fs.next_ino = ROOT_INO + 1
        fs._dir_cache[ROOT_INO] = {}
        fs._write_dir_entries(root, {})
        fs._stage_inode(root)
        fs._stage_superblock()
        fs.journal.force_commit()
        return fs

    @classmethod
    def mount(cls, device: BlockDevice, commit_interval_s: float = 5.0) -> "SimFS":
        """Attach to a formatted device, replaying the journal first."""
        raw = device.read_block(0).rstrip(b"\x00")
        try:
            sb = json.loads(raw.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise FilesystemError("bad superblock: not a repro-ext4 filesystem") from exc
        if sb.get("magic") != _MAGIC:
            raise FilesystemError(f"bad superblock magic: {sb.get('magic')!r}")
        journal = Journal(device, 1, int(sb["journal_blocks"]), commit_interval_s)
        fs = cls(
            device,
            journal,
            int(sb["inode_table_start"]),
            int(sb["inode_table_blocks"]),
            int(sb["data_start"]),
        )
        journal.recover()
        # Re-read the superblock: recovery may have checkpointed a newer one.
        sb = json.loads(device.read_block(0).rstrip(b"\x00").decode())
        fs.next_ino = int(sb["next_ino"])
        fs.alloc_cursor = int(sb["alloc_cursor"])
        fs._load_inode_table()
        fs._rebuild_free_list()
        fs._free_inos = [
            ino for ino in range(ROOT_INO, fs.next_ino) if ino not in fs.inodes
        ]
        return fs

    def _load_inode_table(self) -> None:
        for slot in range(self.inode_table_blocks):
            raw = self.device.read_block(self.inode_table_start + slot).rstrip(b"\x00")
            if not raw:
                continue
            table = json.loads(raw.decode())
            for key, value in table.items():
                inode = Inode.from_dict(value)
                self.inodes[int(key)] = inode

    def _rebuild_free_list(self) -> None:
        """fsck-lite: anything below the cursor not referenced is free."""
        used = set()
        for inode in self.inodes.values():
            for extent in inode.extents:
                used.update(extent.blocks())
        self._free_extents = []
        run_start: Optional[int] = None
        for block in range(self.data_start, self.alloc_cursor):
            if block not in used:
                if run_start is None:
                    run_start = block
            elif run_start is not None:
                self._free_extents.append(Extent(run_start, block - run_start))
                run_start = None
        if run_start is not None:
            self._free_extents.append(Extent(run_start, self.alloc_cursor - run_start))

    # -- metadata staging ----------------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True once the journal has aborted."""
        return self.journal.aborted

    def _check_writable(self) -> None:
        if self.journal.aborted:
            raise ReadOnlyFilesystem(
                "filesystem remounted read-only after journal abort (-5)"
            )

    def _inode_slot(self, ino: int) -> int:
        slot = ino // _INODES_PER_BLOCK
        if slot >= self.inode_table_blocks:
            raise NoSpace(f"inode table full (inode {ino})")
        return slot

    def _stage_inode(self, inode: Inode) -> None:
        slot = self._inode_slot(inode.ino)
        table: Dict[str, object] = {}
        base = slot * _INODES_PER_BLOCK
        for offset in range(_INODES_PER_BLOCK):
            existing = self.inodes.get(base + offset)
            if existing is not None:
                table[str(existing.ino)] = existing.to_dict()
        payload = json.dumps(table).encode()
        if len(payload) > self.device.block_size:
            raise FilesystemError(f"inode table block {slot} overflow")
        self.journal.stage_metadata(
            self.inode_table_start + slot, payload.ljust(self.device.block_size, b"\x00")
        )

    def _stage_superblock(self) -> None:
        sb = {
            "magic": _MAGIC,
            "journal_blocks": self.journal.length_blocks,
            "inode_table_start": self.inode_table_start,
            "inode_table_blocks": self.inode_table_blocks,
            "data_start": self.data_start,
            "next_ino": self.next_ino,
            "alloc_cursor": self.alloc_cursor,
        }
        payload = json.dumps(sb).encode().ljust(self.device.block_size, b"\x00")
        self.journal.stage_metadata(0, payload)

    # -- allocation ------------------------------------------------------------------

    def _allocate(self, count: int) -> Extent:
        """Allocate ``count`` contiguous data blocks."""
        if count <= 0:
            raise ConfigurationError(f"allocation count must be positive: {count}")
        for index, free in enumerate(self._free_extents):
            if free.count >= count:
                taken = Extent(free.start_block, count)
                rest = free.count - count
                if rest:
                    self._free_extents[index] = Extent(free.start_block + count, rest)
                else:
                    del self._free_extents[index]
                return taken
        if self.alloc_cursor + count > self.device.total_blocks:
            raise NoSpace("data region exhausted")
        taken = Extent(self.alloc_cursor, count)
        self.alloc_cursor += count
        return taken

    def _free(self, extents: Iterable[Extent]) -> None:
        self._free_extents.extend(extents)

    # -- directories -------------------------------------------------------------------

    def _dir_entries(self, inode: Inode) -> Dict[str, int]:
        if inode.kind is not FileKind.DIRECTORY:
            raise FilesystemError(f"inode {inode.ino} is not a directory")
        cached = self._dir_cache.get(inode.ino)
        if cached is not None:
            return cached
        raw = self._read_inode_data(inode)
        entries = {k: int(v) for k, v in json.loads(raw.decode()).items()} if raw else {}
        self._dir_cache[inode.ino] = entries
        return entries

    def _write_dir_entries(self, inode: Inode, entries: Dict[str, int]) -> None:
        """Persist a directory's entries.

        Directory blocks are *metadata* (as in ext4): their images go
        through the journal so that a crash between the data write and
        the inode commit can never leave a torn directory.
        """
        payload = json.dumps(entries).encode()
        bs = self.device.block_size
        needed = max(1, (len(payload) + bs - 1) // bs)
        while inode.block_count() < needed:
            extent = self._allocate(needed - inode.block_count())
            inode.append_blocks(extent.start_block, extent.count)
        for index in range(needed):
            chunk = payload[index * bs : (index + 1) * bs]
            image = chunk.ljust(bs, b"\x00")
            block_no = inode.nth_block(index)
            self.journal.stage_metadata(block_no, image)
            if self.page_cache_enabled:
                self._page_cache[(inode.ino, index)] = image
        # Directories always hold exactly one JSON document: size tracks
        # it exactly so a shrinking directory leaves no stale JSON.
        inode.size = len(payload)
        inode.mtime = self.device.clock.now
        self._dir_cache[inode.ino] = dict(entries)

    # -- inode data I/O (used for file bytes and directory payloads) --------------------

    def _read_inode_data(self, inode: Inode) -> bytes:
        if inode.size == 0:
            return b""
        bs = self.device.block_size
        nblocks = (inode.size + bs - 1) // bs
        chunks: List[bytes] = []
        for index in range(nblocks):
            cached = (
                self._page_cache.get((inode.ino, index))
                if self.page_cache_enabled
                else None
            )
            if cached is not None:
                self.page_cache_hits += 1
                chunks.append(cached)
                continue
            self.page_cache_misses += 1
            data = self.device.read_block(inode.nth_block(index))
            if self.page_cache_enabled:
                self._page_cache[(inode.ino, index)] = data
            chunks.append(data)
        return b"".join(chunks)[: inode.size]

    def _write_inode_data(self, inode: Inode, data: bytes, offset: int = 0) -> None:
        """Write ``data`` at ``offset``, growing the inode as needed."""
        if not data:
            inode.mtime = self.device.clock.now
            return
        bs = self.device.block_size
        end = offset + len(data)
        needed_blocks = (end + bs - 1) // bs
        while inode.block_count() < needed_blocks:
            grow = needed_blocks - inode.block_count()
            extent = self._allocate(grow)
            inode.append_blocks(extent.start_block, extent.count)
        first_block = offset // bs
        last_block = (end - 1) // bs if end > 0 else first_block
        cursor = offset
        # Walk the data through a view: slicing ``data`` itself would
        # copy the rest of it once per block.
        view = memoryview(data)
        for index in range(first_block, last_block + 1):
            block_no = inode.nth_block(index)
            block_start = index * bs
            within = cursor - block_start
            take = min(bs - within, end - cursor)
            chunk = view[cursor - offset : cursor - offset + take]
            if within == 0 and take == bs:
                image = bytes(chunk)
            else:
                # Read-modify-write for partial blocks (page cache first).
                base: Optional[bytearray] = None
                if self.page_cache_enabled:
                    cached = self._page_cache.get((inode.ino, index))
                    if cached is not None:
                        base = bytearray(cached)
                if base is None:
                    if block_start < inode.size:
                        base = bytearray(self.device.read_block(block_no))
                    else:
                        base = bytearray(bs)
                base[within : within + take] = chunk
                image = bytes(base)
            self.device.write_block(block_no, image)
            if self.page_cache_enabled:
                self._page_cache[(inode.ino, index)] = image
            cursor += take
        inode.size = max(inode.size, end)
        inode.mtime = self.device.clock.now

    # -- path resolution ------------------------------------------------------------------

    def _lookup(self, path: str) -> Inode:
        node = self.inodes[ROOT_INO]
        for part in _split(path):
            entries = self._dir_entries(node)
            if part not in entries:
                raise FileNotFound(path)
            node = self.inodes[entries[part]]
        return node

    def _parent_of(self, path: str) -> Tuple[Inode, str]:
        parts = _split(path)
        if not parts:
            raise FilesystemError("cannot operate on /")
        parent = self._lookup("/" + "/".join(parts[:-1]))
        if parent.kind is not FileKind.DIRECTORY:
            raise FilesystemError(f"not a directory: {'/'.join(parts[:-1])!r}")
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves."""
        try:
            self._lookup(path)
            return True
        except FileNotFound:
            return False

    # -- public namespace operations ----------------------------------------------------------

    def _new_inode(self, kind: FileKind) -> Inode:
        if self._free_inos:
            ino = self._free_inos.pop()
        else:
            ino = self.next_ino
            self.next_ino += 1
        inode = Inode(ino=ino, kind=kind, mtime=self.device.clock.now)
        self.inodes[inode.ino] = inode
        return inode

    def _release_inode(self, inode: Inode) -> None:
        """Free an inode number and purge its cached pages."""
        self._free(inode.extents)
        del self.inodes[inode.ino]
        self._dir_cache.pop(inode.ino, None)
        if self.page_cache_enabled:
            stale = [key for key in self._page_cache if key[0] == inode.ino]
            for key in stale:
                del self._page_cache[key]
        self._free_inos.append(inode.ino)

    def mkdir(self, path: str) -> Inode:
        """Create a directory."""
        self._check_writable()
        parent, name = self._parent_of(path)
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExists(path)
        child = self._new_inode(FileKind.DIRECTORY)
        child.nlink = 2
        self._write_dir_entries(child, {})
        entries[name] = child.ino
        self._write_dir_entries(parent, entries)
        parent.nlink += 1
        self._stage_inode(child)
        self._stage_inode(parent)
        self._stage_superblock()
        self.journal.tick()
        return child

    def create(self, path: str, exist_ok: bool = False) -> Inode:
        """Create an empty regular file."""
        self._check_writable()
        parent, name = self._parent_of(path)
        entries = self._dir_entries(parent)
        if name in entries:
            if exist_ok:
                return self.inodes[entries[name]]
            raise FileExists(path)
        child = self._new_inode(FileKind.REGULAR)
        entries[name] = child.ino
        self._write_dir_entries(parent, entries)
        self._stage_inode(child)
        self._stage_inode(parent)
        self._stage_superblock()
        self.journal.tick()
        return child

    def write_file(self, path: str, data: bytes, offset: int = 0) -> int:
        """Write ``data`` into an existing file at ``offset``."""
        self._check_writable()
        if offset < 0:
            raise ConfigurationError(f"offset must be non-negative: {offset}")
        inode = self._lookup(path)
        if inode.kind is not FileKind.REGULAR:
            raise FilesystemError(f"not a regular file: {path}")
        self._write_inode_data(inode, data, offset)
        self._stage_inode(inode)
        self._stage_superblock()
        self.journal.tick()
        return len(data)

    def append(self, path: str, data: bytes) -> int:
        """Append ``data`` to a file, returning the new size."""
        inode = self._lookup(path)
        self.write_file(path, data, offset=inode.size)
        return inode.size

    def read_file(self, path: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read ``length`` bytes (default: to EOF) from ``offset``."""
        inode = self._lookup(path)
        if inode.kind is not FileKind.REGULAR:
            raise FilesystemError(f"not a regular file: {path}")
        data = self._read_inode_data(inode)
        end = inode.size if length is None else min(inode.size, offset + length)
        return data[offset:end]

    def unlink(self, path: str) -> None:
        """Remove a file, freeing its blocks."""
        self._check_writable()
        parent, name = self._parent_of(path)
        entries = self._dir_entries(parent)
        if name not in entries:
            raise FileNotFound(path)
        inode = self.inodes[entries[name]]
        if inode.kind is FileKind.DIRECTORY:
            if self._dir_entries(inode):
                raise FilesystemError(f"directory not empty: {path}")
            parent.nlink -= 1
        del entries[name]
        self._write_dir_entries(parent, entries)
        if inode.kind is FileKind.REGULAR and inode.nlink > 1:
            # Other hard links remain: just drop one reference.
            inode.nlink -= 1
            self._stage_inode(inode)
        else:
            self._release_inode(inode)
            self._stage_inode_removal(inode)
        self._stage_inode(parent)
        self._stage_superblock()
        self.journal.tick()

    def _stage_inode_removal(self, inode: Inode) -> None:
        # Re-serialize the block that used to hold it (it is gone from
        # self.inodes already, so _stage_inode of a neighbour works, but
        # the block may now be empty: stage it explicitly).
        slot = self._inode_slot(inode.ino)
        base = slot * _INODES_PER_BLOCK
        table = {
            str(self.inodes[base + i].ino): self.inodes[base + i].to_dict()
            for i in range(_INODES_PER_BLOCK)
            if (base + i) in self.inodes
        }
        payload = json.dumps(table).encode().ljust(self.device.block_size, b"\x00")
        self.journal.stage_metadata(self.inode_table_start + slot, payload)

    def link(self, existing: str, new: str) -> None:
        """Create a hard link: ``new`` names the same inode as ``existing``."""
        self._check_writable()
        inode = self._lookup(existing)
        if inode.kind is not FileKind.REGULAR:
            raise FilesystemError(f"hard links to directories are forbidden: {existing}")
        parent, name = self._parent_of(new)
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExists(new)
        entries[name] = inode.ino
        self._write_dir_entries(parent, entries)
        inode.nlink += 1
        self._stage_inode(inode)
        self._stage_inode(parent)
        self.journal.tick()

    def rename(self, old: str, new: str) -> None:
        """Atomically move ``old`` to ``new`` (replacing any file there)."""
        self._check_writable()
        inode = self._lookup(old)
        old_parent, old_name = self._parent_of(old)
        new_parent, new_name = self._parent_of(new)
        new_entries = self._dir_entries(new_parent)
        if new_name in new_entries:
            target = self.inodes[new_entries[new_name]]
            if target.kind is FileKind.DIRECTORY:
                raise FileExists(new)
            self._release_inode(target)
            self._stage_inode_removal(target)
        old_entries = self._dir_entries(old_parent)
        del old_entries[old_name]
        self._write_dir_entries(old_parent, old_entries)
        new_entries = self._dir_entries(new_parent)
        new_entries[new_name] = inode.ino
        self._write_dir_entries(new_parent, new_entries)
        self._stage_inode(old_parent)
        self._stage_inode(new_parent)
        self._stage_superblock()
        self.journal.tick()

    def listdir(self, path: str) -> List[str]:
        """Names in a directory, sorted."""
        inode = self._lookup(path)
        return sorted(self._dir_entries(inode))

    def stat(self, path: str) -> Inode:
        """The inode behind ``path`` (raises FileNotFound)."""
        return self._lookup(path)

    def truncate(self, path: str, size: int) -> None:
        """Shrink (or zero-extend) a file to exactly ``size`` bytes.

        Shrinking frees whole blocks past the new end; growing simply
        extends the logical size (reads of the gap return zeros).
        """
        self._check_writable()
        if size < 0:
            raise ConfigurationError(f"size must be non-negative: {size}")
        inode = self._lookup(path)
        if inode.kind is not FileKind.REGULAR:
            raise FilesystemError(f"not a regular file: {path}")
        bs = self.device.block_size
        keep_blocks = (size + bs - 1) // bs
        if keep_blocks < inode.block_count():
            freed: List[Extent] = []
            remaining = keep_blocks
            kept: List[Extent] = []
            for extent in inode.extents:
                if remaining >= extent.count:
                    kept.append(extent)
                    remaining -= extent.count
                elif remaining > 0:
                    kept.append(Extent(extent.start_block, remaining))
                    freed.append(
                        Extent(extent.start_block + remaining, extent.count - remaining)
                    )
                    remaining = 0
                else:
                    freed.append(extent)
            inode.extents = kept
            self._free(freed)
            if self.page_cache_enabled:
                stale = [
                    key
                    for key in self._page_cache
                    if key[0] == inode.ino and key[1] >= keep_blocks
                ]
                for key in stale:
                    del self._page_cache[key]
        inode.size = size
        inode.mtime = self.device.clock.now
        self._stage_inode(inode)
        self._stage_superblock()
        self.journal.tick()

    def statfs(self) -> Dict[str, int]:
        """Filesystem usage summary (statvfs-style)."""
        data_blocks = self.device.total_blocks - self.data_start
        used = sum(inode.block_count() for inode in self.inodes.values())
        freed = sum(extent.count for extent in self._free_extents)
        untouched = self.device.total_blocks - self.alloc_cursor
        return {
            "block_size": self.device.block_size,
            "total_blocks": data_blocks,
            "used_blocks": used,
            "free_blocks": freed + untouched,
            "inodes_total": self.inode_table_blocks * _INODES_PER_BLOCK,
            "inodes_used": len(self.inodes),
        }

    def touch_mtime(self, path: str) -> None:
        """Metadata-only update (utimes): stages the inode, no data I/O.

        This is the lightest possible journaled operation — the Table 3
        Ext4 victim uses it so that the *only* disk traffic is the
        periodic journal commit, isolating the JBD abort path.
        """
        self._check_writable()
        inode = self._lookup(path)
        inode.mtime = self.device.clock.now
        self._stage_inode(inode)
        self.journal.tick()

    def fsync(self, path: str) -> None:
        """Durably persist ``path``: data is in place; commit metadata."""
        self._check_writable()
        self._lookup(path)
        self.journal.force_commit()

    def sync(self) -> None:
        """Commit the journal now (the sync(2) path)."""
        self._check_writable()
        self.journal.force_commit()

    def tick(self) -> None:
        """Run the periodic journal commit timer."""
        self.journal.tick()
