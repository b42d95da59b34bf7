"""HDFS client operations: pipelined writes, locality-aware reads, preload.

Reads pick the closest believed replica — same node, then same site, then
remote — exactly the preference order that makes HOG's high replication
factor pay off ("The high replication factor for HOG allows for very good
data locality", §IV-D2).  A failed read (dead or zombie replica) is
reported to the namenode and retried from the next-closest replica.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..net.fabric import NetworkFabric
from ..sim.engine import Simulator
from ..sim.events import Process
from ..sim.util import expected_failure, gather_safe
from .block import Block, FileInfo
from .datanode import RECEIVE_FAILURES, BlockReadError
from .namenode import HdfsError, Namenode

__all__ = ["HdfsClient", "BlockUnavailableError", "ReadResult"]


class BlockUnavailableError(Exception):
    """No believed replica of a block could actually be read."""


class ReadResult:
    """Outcome of a successful block read."""

    __slots__ = ("block", "source", "distance")

    def __init__(self, block: Block, source: str, distance: int) -> None:
        self.block = block
        #: Host the data was streamed from.
        self.source = source
        #: Hadoop-style distance from the reader (0 node, 2 site, 4 remote).
        self.distance = distance


class HdfsClient:
    """A client bound to the host it runs on (a worker node or the
    central server)."""

    def __init__(self, sim: Simulator, namenode: Namenode,
                 fabric: NetworkFabric, host: str) -> None:
        self.sim = sim
        self.namenode = namenode
        self.fabric = fabric
        self.host = host

    # -- write --------------------------------------------------------------------
    def write_file(self, name: str, size: float,
                   replication: Optional[int] = None) -> Process:
        """Create and write ``name``; returns the writing process, which
        succeeds with the FileInfo or fails (defused) with ``HdfsError``
        / ``ValueError``.

        Each block is written through a replication pipeline: the client
        streams to the first datanode, which streams to the second, and so
        on.  The hops overlap (streaming), so the block completes when the
        slowest hop drains.  Losing pipeline members mid-write is
        tolerated as long as at least one replica lands; the replication
        monitor repairs the rest.
        """
        return self.sim.process(
            self._write_file_proc(name, size, replication),
            name=f"hdfs-write:{name}")

    def _write_file_proc(self, name: str, size: float,
                         replication: Optional[int]):
        try:
            fi = self.namenode.create_file(name, size, replication)
        except (HdfsError, ValueError) as exc:
            raise expected_failure(self.sim, exc)
        for block in fi.blocks:
            if block.size <= 0:
                continue
            try:
                yield self.sim.process(self._write_block(fi, block))
            except HdfsError as exc:
                self.namenode.delete_file(name)
                raise expected_failure(self.sim, exc)
        return fi

    def _write_block(self, fi: FileInfo, block: Block):
        targets = self.namenode.choose_write_targets(
            self.host, block.size, fi.replication)
        if not targets:
            raise HdfsError(f"no datanodes available to write {block!r}")
        # Pipeline: hop i streams from hop i-1 (hop 0 from the client).
        events = []
        prev = self.host
        for host in targets:
            dn = self.namenode.datanode(host)
            events.append(dn.receive_block(block, prev))
            prev = host
        outcomes = yield gather_safe(self.sim, events)
        for o in outcomes:
            if not o.ok and not isinstance(o.error, RECEIVE_FAILURES):
                raise o.error  # a bug, not a lost pipeline member
        if not any(o.ok for o in outcomes):
            raise HdfsError(f"entire write pipeline failed for {block!r}")

    # -- read ------------------------------------------------------------------------
    def read_block(self, block_id: int) -> Process:
        """Read one block; returns the reading process, which succeeds
        with a :class:`ReadResult` or fails (defused) with
        :class:`BlockUnavailableError`."""
        return self.sim.process(self._read_block_proc(block_id),
                                name=f"hdfs-read:{block_id}@{self.host}")

    def _read_block_proc(self, block_id: int):
        try:
            locations = self.namenode.locate(block_id)
        except HdfsError as exc:
            raise expected_failure(self.sim, BlockUnavailableError(str(exc)))
        ordered = sorted(locations,
                         key=lambda h: (self.fabric.topology.distance(self.host, h), h))
        for host in ordered:
            dn = self.namenode.datanode(host)
            try:
                block = yield dn.serve_read(block_id, self.host)
            except BlockReadError:
                # Dead/zombie replica: tell the namenode, try the next one.
                self.namenode.report_bad_replica(block_id, host)
                continue
            return ReadResult(block, host,
                              self.fabric.topology.distance(self.host, host))
        raise expected_failure(self.sim, BlockUnavailableError(
            f"block {block_id}: no readable replica among {len(ordered)} believed"))

    # -- preload ---------------------------------------------------------------------
    def preload_file(self, name: str, size: float,
                     replication: Optional[int] = None) -> FileInfo:
        """Create ``name`` and place replicas instantly (no simulated I/O).

        Used by the experiment harness for the "upload input data" step
        that happens before the measured workload starts (§IV-A).
        """
        fi = self.namenode.create_file(name, size, replication)
        for block in fi.blocks:
            if block.size <= 0:
                continue
            targets = self.namenode.choose_write_targets(None, block.size,
                                                         fi.replication)
            if not targets:
                self.namenode.delete_file(name)
                raise HdfsError(f"no capacity to preload {name}")
            for host in targets:
                self.namenode.datanode(host).add_block_instant(block)
        return fi
