"""Simulated HDFS: namenode, datanodes, placement, replication, balancer."""

from .balancer import Balancer, BalancerReport
from .block import Block, BlockInfo, FileInfo
from .client import BlockUnavailableError, HdfsClient, ReadResult
from .config import GB, MB, HdfsConfig, hog_config, stock_hadoop_config
from .datanode import BlockReadError, Datanode
from .namenode import HdfsError, Namenode
from .placement import LiveHostIndex, SiteAwarePolicy

__all__ = [
    "Block",
    "BlockInfo",
    "FileInfo",
    "HdfsConfig",
    "stock_hadoop_config",
    "hog_config",
    "MB",
    "GB",
    "Namenode",
    "HdfsError",
    "Datanode",
    "BlockReadError",
    "HdfsClient",
    "ReadResult",
    "BlockUnavailableError",
    "LiveHostIndex",
    "SiteAwarePolicy",
    "Balancer",
    "BalancerReport",
]
