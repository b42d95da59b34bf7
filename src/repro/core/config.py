"""Top-level HOG system configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..grid.glidein import WrapperConfig
from ..grid.site import PAPER_SITES, GridSiteConfig
from ..hdfs.config import GB, HdfsConfig, hog_config
from ..mapreduce.config import MRConfig, hog_mr_config
from ..net.fabric import FabricConfig

__all__ = ["NodeConfig", "HOGConfig"]


@dataclass
class NodeConfig:
    """Hardware model of one opportunistic worker node.

    HOG workers get one core each, hence 1 map + 1 reduce slot (§IV-A).
    Grid nodes are heterogeneous; ``speed_min``/``speed_max`` bound a
    uniform per-node CPU speed factor.
    """

    disk_capacity: float = 200 * GB
    disk_read_rate: float = 90e6
    disk_write_rate: float = 70e6
    map_slots: int = 1
    reduce_slots: int = 1
    speed_min: float = 1.0
    speed_max: float = 1.0

    def validate(self) -> None:
        """Raise ``ValueError`` on non-physical settings."""
        if self.disk_capacity <= 0:
            raise ValueError("disk_capacity must be positive")
        if self.disk_read_rate <= 0 or self.disk_write_rate <= 0:
            raise ValueError("disk rates must be positive")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ValueError("slot counts cannot be negative")
        if not (0 < self.speed_min <= self.speed_max):
            raise ValueError("need 0 < speed_min <= speed_max")


@dataclass
class HOGConfig:
    """Everything needed to stand up a HOG instance.

    Defaults reproduce the paper's deployment: the five OSG sites of
    Listing 1, replication 10, 30 s failure detection, the zombie fix on,
    and 1+1 slots per worker.
    """

    central_host: str = "hog-central.unl.edu"
    sites: List[GridSiteConfig] = field(default_factory=PAPER_SITES)
    hdfs: HdfsConfig = field(default_factory=hog_config)
    mr: MRConfig = field(default_factory=hog_mr_config)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    wrapper: WrapperConfig = field(default_factory=WrapperConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    #: Per-site hardware overrides keyed by grid site *name* (e.g.
    #: ``"UCSDT2"``).  Workers at a listed site get that hardware model
    #: instead of ``node`` — heterogeneous SSD/HDD site mixes are one
    #: entry per tier.
    site_nodes: Dict[str, NodeConfig] = field(default_factory=dict)
    #: Condor negotiation cycle period, seconds.
    negotiation_interval: float = 20.0
    #: The paper's site awareness (§III-B1).  False drops every worker
    #: into one flat failure domain — the ablation baseline: placement
    #: cannot spread replicas across sites and the scheduler cannot tell
    #: near from far.
    site_awareness: bool = True
    seed: int = 0

    def validate(self) -> None:
        """Validate every sub-config."""
        if not self.sites:
            raise ValueError("HOG needs at least one grid site")
        for s in self.sites:
            s.validate()
        self.hdfs.validate()
        self.mr.validate()
        self.fabric.validate()
        self.wrapper.validate()
        self.node.validate()
        site_names = {s.name for s in self.sites}
        for name, node in self.site_nodes.items():
            node.validate()
            if name not in site_names:
                raise ValueError(f"site_nodes names unknown site {name!r}")
        if self.negotiation_interval <= 0:
            raise ValueError("negotiation_interval must be positive")
        # The wrapper downloads its package from the central server.
        if self.wrapper.package_host != self.central_host:
            self.wrapper.package_host = self.central_host
