"""MapReduce framework configuration, with stock and HOG presets.

HOG makes no API changes to MapReduce (§III-B2); its deltas are
operational: the 30-second tracker expiry (matching the HDFS heartbeat
tuning) and one-map-slot/one-reduce-slot workers ("we configure each node
to have 1 map slot and 1 reduce slot, since the job is allocated 1 core on
the remote worker node", §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MRConfig", "stock_mr_config", "hog_mr_config"]


@dataclass
class MRConfig:
    """Tunable parameters of the simulated MapReduce 1.0 framework.

    Not a knob: the jobtracker answers each tasktracker heartbeat with at
    most one map and one reduce, as Hadoop 0.20 does.
    """

    #: Tasktracker heartbeat period, seconds (the floor — see
    #: ``heartbeats_per_second``).
    heartbeat_interval: float = 3.0
    #: Target cluster-wide heartbeat arrival rate at the jobtracker.
    #: Stock Hadoop 1.x lengthens the per-tracker period as the cluster
    #: grows so the jobtracker sees a bounded RPC rate (~100/s); the
    #: effective period is ``max(heartbeat_interval, live / rate)``,
    #: identical to the floor for clusters up to ``rate *
    #: heartbeat_interval`` nodes.  ``0`` disables the scaling.
    heartbeats_per_second: float = 100.0
    #: Seconds without a heartbeat before the jobtracker declares a
    #: tasktracker lost (stock ~10 min; HOG 30 s, §III-B).  Strict: lost
    #: iff ``last_heartbeat + expiry < now``, the namenode's rule too
    #: (:class:`~repro.sim.liveness.LivenessTable`).
    tracker_expiry: float = 600.0
    #: Period of the jobtracker's expiry scan.
    expiry_check_period: float = 5.0
    #: FIFO with speculative execution is the paper's scheduler (§III-B2).
    speculative_execution: bool = True
    #: A task is speculation-eligible once its attempt has run this factor
    #: longer than the average completed-task duration ("1/3 slower than
    #: average", §IV-B → 4/3 of the average).
    speculation_slowness_factor: float = 4.0 / 3.0
    #: Minimum runtime before an attempt may be judged slow, seconds.
    speculation_min_elapsed: float = 30.0
    #: Maximum simultaneous attempts of one task ("at most two copies";
    #: the §VI future-work feature raises this).
    max_task_copies: int = 2
    #: Attempt failures before the task (and its job) is declared failed.
    max_attempts: int = 4
    #: Per-job failures on one tracker before that tracker is blacklisted
    #: for the job (Hadoop ``mapred.max.tracker.failures``).
    tracker_blacklist_failures: int = 4
    #: Fraction of a job's maps that must complete before its reduces are
    #: scheduled (``mapred.reduce.slowstart.completed.maps``).
    reduce_slowstart: float = 0.05
    #: Concurrent shuffle fetch streams per reduce attempt
    #: (``mapred.reduce.parallel.copies``).
    parallel_shuffle_copies: int = 5
    #: Merge/sort processing rate during the reduce sort phase, bytes/s.
    sort_rate: float = 120e6
    #: Replication factor for job output files (``None`` = filesystem
    #: default, which is what HOG does — all files get 10 replicas).
    output_replication: int = None  # type: ignore[assignment]
    #: Task scheduler: ``fifo`` (HOG's choice, §III-B2), ``delay``
    #: (Zaharia et al. [3]), or ``matchmaking`` (He et al. [20]).
    scheduler: str = "fifo"

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.tracker_expiry <= self.heartbeat_interval:
            raise ValueError("tracker_expiry must exceed heartbeat_interval")
        if self.heartbeats_per_second < 0:
            raise ValueError("heartbeats_per_second cannot be negative")
        if self.expiry_check_period <= 0:
            raise ValueError("expiry_check_period must be positive")
        if self.max_task_copies < 1:
            raise ValueError("max_task_copies must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (0.0 <= self.reduce_slowstart <= 1.0):
            raise ValueError("reduce_slowstart must be in [0, 1]")
        if self.parallel_shuffle_copies < 1:
            raise ValueError("parallel_shuffle_copies must be >= 1")
        if self.speculation_slowness_factor <= 1.0:
            raise ValueError("speculation_slowness_factor must exceed 1")
        if self.sort_rate <= 0:
            raise ValueError("sort_rate must be positive")
        if self.scheduler not in ("fifo", "delay", "matchmaking"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")


def stock_mr_config(**overrides) -> MRConfig:
    """Hadoop 0.20 defaults (10-minute tracker expiry)."""
    return replace(MRConfig(), **overrides)


def hog_mr_config(**overrides) -> MRConfig:
    """The paper's grid tuning: 30 s tracker expiry."""
    cfg = MRConfig(tracker_expiry=30.0, expiry_check_period=3.0)
    return replace(cfg, **overrides)
