"""HDFS configuration knobs, with stock-Hadoop and HOG presets.

The paper's availability changes are configuration-level:

- replication factor 3 → **10** (§III-B1),
- heartbeat timeout 15 min → **30 s** (§III-B),
- a **3-minute** datanode disk self-check (§IV-D1, the zombie fix).

Both presets are provided so the ablation benchmarks can flip each knob
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HdfsConfig", "stock_hadoop_config", "hog_config", "MB", "GB"]

MB = 1024.0 * 1024.0
GB = 1024.0 * MB


@dataclass
class HdfsConfig:
    """Tunable parameters of the simulated HDFS."""

    #: Fixed block size in bytes ("e.g., 64 MB"; one map task per block).
    block_size: float = 64 * MB
    #: Default replication factor for new files.
    replication: int = 3
    #: Datanode heartbeat period, seconds (Hadoop ``dfs.heartbeat.interval``).
    #: This is the floor; see ``heartbeats_per_second``.
    heartbeat_interval: float = 3.0
    #: Target cluster-wide heartbeat arrival rate at the namenode.  The
    #: effective per-datanode period is ``max(heartbeat_interval,
    #: live_datanodes / rate)`` — identical to the floor for clusters up
    #: to ``rate * heartbeat_interval`` nodes.  ``0`` disables scaling.
    heartbeats_per_second: float = 100.0
    #: Seconds without a heartbeat before the namenode declares a datanode
    #: dead.  Stock Hadoop's effective value is ~15 minutes
    #: (``heartbeat.recheck.interval``); HOG lowers it to 30 s.
    heartbeat_timeout: float = 15 * 60.0
    #: How often the namenode's monitor scans for expired datanodes.
    heartbeat_recheck_period: float = 5.0
    #: How often the replication monitor scans the under-replicated queue.
    replication_monitor_period: float = 3.0
    #: Max concurrent outbound re-replication streams per datanode
    #: (Hadoop ``dfs.max-repl-streams``).
    max_replication_streams: int = 2
    #: Period of the datanode working-directory self-check; ``None``
    #: disables it (stock Hadoop only checks at startup).  HOG: 180 s.
    disk_check_interval: float = None  # type: ignore[assignment]
    #: Fraction of disk the datanode refuses to fill past (headroom for
    #: non-HDFS usage, mirrors ``dfs.datanode.du.reserved``).
    disk_reserve_fraction: float = 0.05
    #: Period of the datanode's full block report to the namenode
    #: (Hadoop ``dfs.blockreport.intervalMsec``, default one hour).
    #: ``None`` disables periodic reports (registration-only).
    block_report_interval: float = 3600.0  # type: ignore[assignment]
    #: Delay from registration to the *first* periodic block report
    #: (Hadoop staggers initial reports so a mass restart does not
    #: stampede the namenode).
    block_report_initial_delay: float = 600.0
    #: Sim-time backoff before the replication monitor reconsiders a block
    #: it could not schedule (no live source / no eligible target / all
    #: sources at their stream cap).  Deferred blocks are also re-armed
    #: immediately on the next membership event (a datanode registering or
    #: re-registering), so the backoff only bounds the retry period while
    #: the cluster is static — e.g. a full-site blackout.
    replication_retry_backoff: float = 30.0
    #: Max replica invalidations dispatched to one datanode per heartbeat
    #: (drains the namenode's invalidation queue gradually, like Hadoop's
    #: ``dfs.block.invalidate.limit``).
    invalidate_work_per_heartbeat: int = 32

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat settings must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if self.heartbeats_per_second < 0:
            raise ValueError("heartbeats_per_second cannot be negative")
        if self.heartbeat_recheck_period <= 0:
            raise ValueError("heartbeat_recheck_period must be positive")
        if self.replication_monitor_period <= 0:
            raise ValueError("replication_monitor_period must be positive")
        if not (0.0 <= self.disk_reserve_fraction < 1.0):
            raise ValueError("disk_reserve_fraction must be in [0, 1)")
        if self.disk_check_interval is not None and self.disk_check_interval <= 0:
            raise ValueError("disk_check_interval must be positive or None")
        if self.block_report_interval is not None:
            if self.block_report_interval <= 0:
                raise ValueError("block_report_interval must be positive or None")
            if self.block_report_initial_delay < 0:
                raise ValueError("block_report_initial_delay cannot be negative")
        if self.replication_retry_backoff <= 0:
            raise ValueError("replication_retry_backoff must be positive")
        if self.invalidate_work_per_heartbeat < 1:
            raise ValueError("invalidate_work_per_heartbeat must be >= 1")


def stock_hadoop_config(**overrides) -> HdfsConfig:
    """Hadoop 0.20 defaults: replication 3, ~15-minute dead-node timeout."""
    return replace(HdfsConfig(), **overrides)


def hog_config(**overrides) -> HdfsConfig:
    """The paper's HOG tuning: replication 10, 30 s timeout, zombie check."""
    cfg = HdfsConfig(
        replication=10,
        heartbeat_timeout=30.0,
        heartbeat_recheck_period=3.0,
        disk_check_interval=180.0,
    )
    return replace(cfg, **overrides)
