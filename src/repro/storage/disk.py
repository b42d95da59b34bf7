"""Per-node local disk: capacity accounting and timed, shared-bandwidth I/O.

Two aspects matter for the paper:

- **Capacity** — map intermediate output is kept on local disk until the
  whole job finishes; with a slow WAN shuffle this accumulates and nodes
  fail with out-of-disk errors (§IV-D2 "Disk Overflow").  The disk tracks
  usage per label (``hdfs``, ``intermediate``, ...) so experiments can
  attribute overflows.
- **Availability** — preemption at a site deletes the job's working
  directory; a zombie daemon's subsequent I/O fails.  The paper's fix has
  the datanode re-check the working directory every 3 minutes by writing a
  small file and reading it back (§IV-D1).  :meth:`Disk.wipe` and
  :meth:`Disk.probe` model exactly this.

Concurrent reads (and, separately, writes) share the channel bandwidth
equally.  The sharing itself is delegated to the unified max-min core in
:mod:`repro.sim.channel`: each I/O direction is one
:class:`~repro.sim.channel.Constraint` on a :class:`~repro.sim.channel.FairQueue`.
Worker daemons (datanode, tasktracker) require a disk created on the
*fabric's* queue (``channel=fabric.channel``): streaming transfers
(shuffle serves, HDFS reads, replication pipelines) then add
:attr:`Disk.read_constraint` / :attr:`Disk.write_constraint` to their
network path and are rate-limited by disk and network at once.  A disk
on a private queue only serves its own timed :meth:`Disk.read` /
:meth:`Disk.write`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.channel import Constraint, FairQueue
from ..sim.engine import Simulator
from ..sim.events import Event

__all__ = ["DiskFullError", "DiskIOError", "Disk"]


class DiskFullError(Exception):
    """An allocation would exceed disk capacity."""


class DiskIOError(Exception):
    """An I/O operation failed (working directory wiped / disk dead)."""


class Disk:
    """A node-local disk with capacity accounting and timed I/O.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        Hostname owning the disk (diagnostics only).
    capacity:
        Usable bytes.
    read_rate / write_rate:
        Sequential bandwidth in bytes/second (defaults ≈ a 2012-era
        commodity SATA drive).
    channel:
        The :class:`~repro.sim.channel.FairQueue` to drain I/O through.
        Pass the network fabric's queue for joint disk+network rate
        limiting (required by the worker daemons); defaults to a private
        queue.
    partition:
        Optional decoupling key for the disk's constraints (the site
        name, matching the fabric's link partitions).
    """

    __slots__ = ("sim", "host", "capacity", "_usage", "channel",
                 "read_constraint", "write_constraint", "_alive")

    def __init__(self, sim: Simulator, host: str, capacity: float,
                 read_rate: float = 90e6, write_rate: float = 70e6,
                 channel: Optional[FairQueue] = None,
                 partition: Optional[str] = None) -> None:
        if capacity <= 0:
            raise ValueError("disk capacity must be positive")
        if read_rate <= 0 or write_rate <= 0:
            raise ValueError("disk I/O rates must be positive")
        self.sim = sim
        self.host = host
        self.capacity = float(capacity)
        self._usage: Dict[str, float] = {}
        self.channel = channel or FairQueue(sim)
        #: Read-direction bandwidth constraint — share it with the fabric
        #: (``extra_constraints``) for disk-limited streaming sends.
        self.read_constraint: Constraint = self.channel.constraint(
            f"disk-read:{host}", read_rate, partition)
        #: Write-direction bandwidth constraint (streaming receives).
        self.write_constraint: Constraint = self.channel.constraint(
            f"disk-write:{host}", write_rate, partition)
        self._alive = True

    # -- capacity --------------------------------------------------------------
    @property
    def used(self) -> float:
        """Bytes currently allocated, across all labels."""
        return sum(self._usage.values())

    @property
    def free(self) -> float:
        """Bytes still available."""
        return self.capacity - self.used

    @property
    def alive(self) -> bool:
        """False after :meth:`wipe` (working directory destroyed)."""
        return self._alive

    def usage_by_label(self) -> Dict[str, float]:
        """Snapshot of per-label usage (e.g. ``hdfs`` vs ``intermediate``)."""
        return dict(self._usage)

    def allocate(self, nbytes: float, label: str = "data") -> None:
        """Reserve ``nbytes`` under ``label``.

        Raises
        ------
        DiskFullError
            If the allocation exceeds capacity — the out-of-disk failure
            mode of §IV-D2.
        DiskIOError
            If the disk has been wiped.
        """
        if not self._alive:
            raise DiskIOError(f"disk on {self.host} is gone")
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        if self.used + nbytes > self.capacity + 1e-6:
            raise DiskFullError(
                f"disk on {self.host}: need {nbytes:.0f}B, only {self.free:.0f}B free"
            )
        self._usage[label] = self._usage.get(label, 0.0) + nbytes

    def release(self, nbytes: float, label: str = "data") -> None:
        """Return ``nbytes`` previously allocated under ``label``."""
        have = self._usage.get(label, 0.0)
        # A label total is a running float sum bounded by the capacity, so
        # its rounding residue scales with the capacity, not with what is
        # left: after a multi-GB history a fixed absolute slack is below
        # one ulp of the totals the sum passed through.
        if nbytes > have + 1e-9 * self.capacity:
            raise ValueError(f"releasing {nbytes}B exceeds {label!r} usage {have}B")
        new = have - nbytes
        if new <= 1e-9:
            self._usage.pop(label, None)
        else:
            self._usage[label] = new

    def release_all(self, label: str) -> float:
        """Free everything under ``label``; returns bytes freed."""
        return self._usage.pop(label, 0.0)

    # -- timed I/O ---------------------------------------------------------------
    def read(self, nbytes: float) -> Event:
        """Timed sequential read; bandwidth shared with concurrent reads."""
        if not self._alive:
            ev = self.sim.event()
            ev.fail(DiskIOError(f"read on wiped disk at {self.host}"))
            return ev
        return self.channel.request(nbytes, (self.read_constraint,))

    def write(self, nbytes: float) -> Event:
        """Timed sequential write (capacity must be allocated separately)."""
        if not self._alive:
            ev = self.sim.event()
            ev.fail(DiskIOError(f"write on wiped disk at {self.host}"))
            return ev
        return self.channel.request(nbytes, (self.write_constraint,))

    # -- failure model --------------------------------------------------------------
    def wipe(self) -> None:
        """Destroy the working directory (what a preempting site does).

        All in-flight I/O fails; subsequent probes and I/O fail.
        """
        self._alive = False
        self._usage.clear()
        exc = DiskIOError(f"working directory on {self.host} was removed")
        self.channel.abort_constraint(self.read_constraint, exc)
        self.channel.abort_constraint(self.write_constraint, exc)

    def probe(self) -> bool:
        """The zombie self-check: write a small file and read it back.

        Returns True when the disk is healthy.  (The simulated check is
        instantaneous; its 3-minute cadence lives in the datanode.)
        """
        return self._alive

    def __repr__(self) -> str:
        state = "up" if self._alive else "WIPED"
        return f"<Disk {self.host} {state} {self.used:.2e}/{self.capacity:.2e}B>"
