"""Fluid-flow network model with max-min fair bandwidth sharing.

Every byte that moves between simulated hosts — HDFS write pipelines,
remote block reads, and the MapReduce shuffle — is a :class:`Flow` through
this fabric.  A flow's path is:

- intra-site: ``src NIC(tx) → dst NIC(rx)`` (site switches assumed
  non-blocking, as Hadoop assumes for racks), or
- inter-site: ``src NIC(tx) → src site WAN uplink → dst site WAN downlink →
  dst NIC(rx)``.

Rates are the max-min fair allocation over link capacities.  This captures
the paper's central bandwidth asymmetry — "sites usually have very high
bandwidth between their worker nodes, and lower bandwidth to the outside
world" (§III-B1) — which is what makes site-aware placement and scheduling
pay off, and what makes the cross-site shuffle slow (§IV-D2).

Latency is charged once per transfer, before the fluid phase.

The rate arithmetic itself — incremental per-component progressive
filling, per-constraint virtual clocks, per-bottleneck group timers, and
per-site partitioning — lives in :mod:`repro.sim.channel`; this module is
an adapter.  It owns host naming, topology-driven path construction,
latency/handshake setup phases, and per-host flow indexes for node-death
aborts.  It keeps no per-host-pair state: in a many-to-many shuffle
almost every transfer runs between a pair it has never used before, so
a path memo would miss and only grow, and a finished flow is freed by
reference counting as soon as its waiter drops it.  Because links are plain
:class:`~repro.sim.channel.Constraint` objects on a shared
:class:`~repro.sim.channel.FairQueue`, a transfer can be *jointly*
constrained by non-network resources: pass a disk's read or write
constraint via ``extra_constraints`` and the stream is rated by the
slowest of disk and network at every instant (streaming I/O, not
store-and-forward).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim.channel import Constraint, Demand, FairQueue
from ..sim.engine import Simulator
from ..sim.events import Event
from .topology import NetworkTopology

__all__ = ["FabricConfig", "TransferFailed", "Flow", "Link", "NetworkFabric"]


@dataclass
class FabricConfig:
    """Capacities and latencies of the simulated network.

    Defaults model the paper's environment: 1 Gbps node NICs (Table III),
    multi-Gbps site uplinks shared by all of a site's workers, sub-ms LAN
    round trips and tens-of-ms WAN round trips.
    """

    #: Per-node NIC bandwidth, bytes/second (1 Gbps full duplex).
    nic_bandwidth: float = 125e6
    #: Per-site WAN uplink/downlink bandwidth, bytes/second (default 10 Gbps).
    site_uplink_bandwidth: float = 1250e6
    #: One-way latency between two nodes in the same site, seconds.
    intra_site_latency: float = 0.0005
    #: One-way latency between nodes in different sites, seconds (WAN).
    inter_site_latency: float = 0.040
    #: Extra per-transfer protocol overhead, seconds (HTTP/RPC setup; the
    #: paper notes HOG's jobtracker/tasktracker HTTP runs over the WAN).
    connection_overhead: float = 0.0
    #: Per-transfer handshake cost in round trips (TCP + HTTP setup).
    #: Charged as ``handshake_rtts * 2 * latency``, so cross-site
    #: transfers pay far more than LAN ones — "the HTTP requests and
    #: responses are over the WAN which has high latency and long
    #: transmission time compared with the LAN of a cluster ... it is
    #: expected that the startup and data transfer initiations will be
    #: increased" (§III-B2).
    handshake_rtts: float = 0.0
    #: Per-site WAN bandwidth overrides, bytes/second, keyed by topology
    #: site name (the DNS domain, e.g. ``"fnal.gov"``).  Sites not listed
    #: keep ``site_uplink_bandwidth``.  This is what heterogeneous-WAN
    #: scenarios tune: a throttled site uplink is shared by that site's
    #: shuffle traffic, HDFS replication, *and* glidein package downloads.
    site_uplink_overrides: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise ``ValueError`` on non-physical settings."""
        if self.nic_bandwidth <= 0 or self.site_uplink_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if any(v <= 0 for v in self.site_uplink_overrides.values()):
            raise ValueError("site uplink overrides must be positive")
        if self.intra_site_latency < 0 or self.inter_site_latency < 0:
            raise ValueError("latencies cannot be negative")
        if self.connection_overhead < 0 or self.handshake_rtts < 0:
            raise ValueError("connection overheads cannot be negative")


class TransferFailed(Exception):
    """A transfer was aborted (endpoint died mid-flight)."""


class Link(Constraint):
    """A directed network resource (NIC direction or WAN leg)."""

    __slots__ = ()


class Flow(Demand):
    """One in-flight transfer."""

    __slots__ = ("id", "src", "dst", "validate")

    def __init__(self, fid: int, src: str, dst: str, size: float,
                 links: Sequence[Constraint], done: Event, now: float,
                 validate: Optional[Callable[[], bool]] = None) -> None:
        super().__init__(size, links, done, now)
        self.id = fid
        self.src = src
        self.dst = dst
        #: Precondition re-checked when the setup phase ends (cleared
        #: once checked), or None.
        self.validate = validate

    def __repr__(self) -> str:
        return (f"<Flow #{self.id} {self.src}->{self.dst} "
                f"{self.remaining:.0f}/{self.size:.0f}B @{self.rate:g}B/s>")


class NetworkFabric:
    """The shared network all simulated hosts communicate over."""

    #: Residual bytes below which a flow counts as drained.
    EPSILON = FairQueue.EPSILON

    #: How long a starved flow waits before forcing another filling pass.
    STARVATION_RETRY = FairQueue.STARVATION_RETRY

    def __init__(self, sim: Simulator, topology: NetworkTopology,
                 config: Optional[FabricConfig] = None,
                 channel: Optional[FairQueue] = None) -> None:
        config = config or FabricConfig()
        config.validate()
        self.sim = sim
        self.topology = topology
        self.config = config
        #: Runtime mirror of ``config.site_uplink_overrides`` — fault
        #: injection retunes uplinks through :meth:`set_site_uplink`
        #: without mutating the (possibly shared/serialized) config.
        self._uplink_overrides: Dict[str, float] = dict(
            config.site_uplink_overrides)
        #: Sites whose WAN uplink is currently partitioned (insertion-
        #: ordered dict as a set): cross-site transfers touching one fail
        #: fast instead of queueing on a dead link.
        self._partitioned_sites: Dict[str, None] = {}
        #: The shared max-min drain engine.  Disks created with
        #: ``channel=fabric.channel`` participate in joint allocations.
        self.channel = channel or FairQueue(sim)
        self._node_tx: Dict[str, Link] = {}
        self._node_rx: Dict[str, Link] = {}
        self._site_tx: Dict[str, Link] = {}
        self._site_rx: Dict[str, Link] = {}
        # Insertion-ordered dicts used as sets: abort/iteration order must
        # not depend on the interpreter's hash seed (reproducible runs).
        self._flows: Dict[Flow, None] = {}
        #: host → flows in the fluid phase touching it (src or dst).
        self._flows_by_host: Dict[str, Dict[Flow, None]] = {}
        #: host → transfers still in their latency/handshake setup phase.
        self._pending_by_host: Dict[str, Dict[Flow, None]] = {}
        self._flow_counter = 0
        #: Highwater mark of concurrent fluid-phase flows (benchmarks).
        self.peak_flows = 0

    # -- link management -----------------------------------------------------
    def _nic(self, host: str, direction: str) -> Link:
        table = self._node_tx if direction == "tx" else self._node_rx
        link = table.get(host)
        if link is None:
            link = Link(f"nic-{direction}:{host}", self.config.nic_bandwidth,
                        partition=self.topology.site_of(host))
            table[host] = link
        return link

    def _wan(self, site: str, direction: str) -> Link:
        table = self._site_tx if direction == "tx" else self._site_rx
        link = table.get(site)
        if link is None:
            capacity = self._uplink_overrides.get(
                site, self.config.site_uplink_bandwidth)
            link = Link(f"wan-{direction}:{site}", capacity, partition=site)
            table[site] = link
        return link

    def set_site_uplink(self, site: str, bandwidth: Optional[float],
                        abort_active: bool = False) -> int:
        """Retune a site's WAN uplink capacity *live* (fault injection).

        ``bandwidth`` is the new uplink capacity in bytes/s; ``None``
        restores the config's setting for the site.  New transfers see
        the new capacity immediately (the old ``Link`` objects are
        retired); flows already in the fluid
        phase keep the reservation they were rated with — model-wise, an
        established stream rides out a routing change — unless
        ``abort_active`` is set, which fails them with
        :class:`TransferFailed` (their owners' retry paths take over).
        Returns the number of aborted flows."""
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("uplink bandwidth must be positive or None")
        if bandwidth is None:
            self._uplink_overrides.pop(site, None)
            base = self.config.site_uplink_overrides.get(site)
            if base is not None:
                self._uplink_overrides[site] = base
        else:
            self._uplink_overrides[site] = float(bandwidth)
        aborted = 0
        for table in (self._site_tx, self._site_rx):
            old = table.pop(site, None)
            if old is not None and abort_active:
                aborted += self.channel.abort_constraint(
                    old, TransferFailed(
                        f"wan uplink of {site} reconfigured"))
        return aborted

    def partition_site(self, site: str) -> int:
        """WAN-partition ``site``: every in-flight cross-site transfer
        touching it fails now, and new ones fail fast until
        :meth:`heal_site`.  Intra-site traffic (and the direct-call
        control plane — heartbeats are modelled out-of-band) continues.
        Returns the number of aborted transfers."""
        self._partitioned_sites[site] = None
        aborted = 0
        # Fluid-phase flows cross the site's WAN legs, so the uplink
        # constraints name them all.
        for table in (self._site_tx, self._site_rx):
            old = table.pop(site, None)
            if old is not None:
                aborted += self.channel.abort_constraint(
                    old, TransferFailed(f"site {site} partitioned"))
        # Setup-phase transfers are not on constraints yet: sweep the
        # pending index for cross-site ones touching the site.
        pending: Dict[Flow, None] = {}
        for bucket in self._pending_by_host.values():
            for flow in bucket:
                pending[flow] = None
        for flow in list(pending):
            src_site = self.topology.site_of(flow.src)
            dst_site = self.topology.site_of(flow.dst)
            if src_site == dst_site or site not in (src_site, dst_site):
                continue
            self._unindex_pending(flow)
            if not flow.done.triggered:
                flow.done.fail(TransferFailed(
                    f"site {site} partitioned while setting up {flow!r}"))
                flow.done.defused()
                aborted += 1
        return aborted

    def heal_site(self, site: str) -> None:
        """End a WAN partition started by :meth:`partition_site`."""
        self._partitioned_sites.pop(site, None)

    # -- public API ------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float,
                 extra_constraints: Optional[Sequence[Constraint]] = None,
                 validate: Optional[Callable[[], bool]] = None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds (value ``None``) when the
        last byte lands, or fails with :class:`TransferFailed` if an
        endpoint is torn down mid-transfer.

        ``extra_constraints`` jointly rate-limits the stream by additional
        resources (source disk read, destination disk write): the flow
        drains at the max-min share of its *whole* constraint set, which
        models streaming (disk and network overlapped), not
        store-and-forward.  Loopback transfers skip the network but still
        drain through any extra constraints; without extras they complete
        after zero network time.

        ``validate`` is re-checked when the setup (latency/handshake)
        phase ends: if it returns False the transfer fails instead of
        entering the fluid phase.  Joint streams use it to close the
        wipe-during-setup window — a disk death is otherwise only visible
        to demands already registered on its constraints.
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer {nbytes!r} bytes")
        done = self.sim.event()
        if src == dst or nbytes == 0:
            if not (nbytes > 0 and extra_constraints):
                done.succeed(None)
                return done
            # Local stream: disk-limited only.
            links: List[Constraint] = list(extra_constraints)
            delay = 0.0
        else:
            # The two endpoint sites, looked up once, give the path, the
            # partition check and the setup delay.
            src_site = self.topology.site_of(src)
            dst_site = self.topology.site_of(dst)
            links = [self._nic(src, "tx")]
            if src_site == dst_site:
                links.append(self._nic(dst, "rx"))
                delay = self._setup_delay(self.config.intra_site_latency)
            else:
                links.append(self._wan(src_site, "tx"))
                links.append(self._wan(dst_site, "rx"))
                links.append(self._nic(dst, "rx"))
                delay = self._setup_delay(self.config.inter_site_latency)
                partitioned = self._partitioned_sites
                if partitioned and (src_site in partitioned
                                    or dst_site in partitioned):
                    # Cross-site stream into a partitioned site: fail fast
                    # (after the would-be connection setup) so callers'
                    # retry paths run instead of the flow stalling on a
                    # dead link forever.
                    def refuse(_arg: Any) -> None:
                        if not done.triggered:
                            done.fail(TransferFailed(
                                f"wan partition blocks {src}->{dst}"))
                            done.defused()
                    self.sim.call_after(delay, refuse)
                    return done
            if extra_constraints:
                links.extend(extra_constraints)

        self._flow_counter += 1
        flow = Flow(self._flow_counter, src, dst, nbytes, links, done,
                    self.sim.now, validate)
        flow.on_exit = self._flow_exited
        # Index the setup-phase transfer so endpoint death during the
        # latency/handshake window aborts it instead of letting it start
        # and "deliver" bytes to a dead host.
        self._pending_by_host.setdefault(src, {})[flow] = None
        self._pending_by_host.setdefault(dst, {})[flow] = None
        # Coalescing: flow starts landing at one instant share a heap entry.
        self.sim.call_at(self.sim._now + delay, self._start_flow, flow)
        return done

    def _start_flow(self, flow: Flow) -> None:
        """End of the setup (latency/handshake) phase: enter the fluid
        phase on the shared channel, unless the transfer was aborted
        meanwhile or its precondition is lost."""
        self._unindex_pending(flow)
        if flow.done.triggered:  # aborted during the latency phase
            return
        validate = flow.validate
        if validate is not None:
            flow.validate = None
            if not validate():
                flow.done.fail(TransferFailed(
                    f"stream precondition lost while setting up {flow!r}"))
                flow.done.defused()
                return
        self._flows[flow] = None
        nflows = len(self._flows)
        if nflows > self.peak_flows:
            self.peak_flows = nflows
        self._flows_by_host.setdefault(flow.src, {})[flow] = None
        self._flows_by_host.setdefault(flow.dst, {})[flow] = None
        self.channel.start(flow)

    def _flow_exited(self, demand: Demand) -> None:
        """Channel exit hook: tear down the fabric-side indexes."""
        flow: Flow = demand  # type: ignore[assignment]
        self._flows.pop(flow, None)
        for host in (flow.src, flow.dst):
            bucket = self._flows_by_host.get(host)
            if bucket is not None:
                bucket.pop(flow, None)
                if not bucket:
                    del self._flows_by_host[host]

    def _unindex_pending(self, flow: Flow) -> None:
        for host in (flow.src, flow.dst):
            bucket = self._pending_by_host.get(host)
            if bucket is not None:
                bucket.pop(flow, None)
                if not bucket:
                    del self._pending_by_host[host]

    def _setup_delay(self, lat: float) -> float:
        """Pre-transfer delay over a one-way latency ``lat``: the latency
        plus connection setup."""
        return (lat + self.config.connection_overhead
                + self.config.handshake_rtts * 2.0 * lat)

    def serve_stream(self, src: str, dst: str, nbytes: float, disk) -> Event:
        """Stream ``nbytes`` read from ``src``'s disk to ``dst``.

        ONE jointly-constrained demand over the disk read (``disk`` drains
        through this fabric's channel), the NICs, and (cross-site) the WAN
        legs.  It fails if the disk read or any network leg fails."""
        return self.transfer(src, dst, nbytes,
                             extra_constraints=(disk.read_constraint,),
                             validate=lambda: disk.alive)

    def abort_host_flows(self, host: str) -> int:
        """Fail every transfer touching ``host`` (node death): flows in the
        fluid phase *and* transfers still in their setup delay.  Returns the
        number of aborted transfers."""
        victims = list(self._flows_by_host.get(host, ()))
        for flow in victims:
            self.channel.abort(
                flow, TransferFailed(f"endpoint {host} lost during {flow!r}"))
        pending = list(self._pending_by_host.get(host, ()))
        for flow in pending:
            self._unindex_pending(flow)
            if not flow.done.triggered:
                flow.done.fail(TransferFailed(
                    f"endpoint {host} lost while setting up {flow!r}"))
                flow.done.defused()
        return len(victims) + len(pending)

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows (fluid phase)."""
        return len(self._flows)
