"""The HDFS balancer.

§IV-C: "If users want to increase the number of nodes in the HOG, they can
submit more Condor jobs for extra nodes.  They can use the HDFS balancer
to balance the data distribution."  Fresh glideins join empty; the
balancer migrates replicas from over-utilized datanodes to under-utilized
ones until every node is within ``threshold`` of the mean utilization.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.engine import Simulator
from ..sim.events import Process
from .datanode import RECEIVE_FAILURES, Datanode
from .namenode import Namenode

__all__ = ["Balancer", "BalancerReport"]


class BalancerReport:
    """Summary of one balancer run."""

    __slots__ = ("moved_blocks", "moved_bytes", "iterations", "converged")

    def __init__(self) -> None:
        self.moved_blocks = 0
        self.moved_bytes = 0.0
        self.iterations = 0
        self.converged = False

    def __repr__(self) -> str:
        return (f"<BalancerReport moved={self.moved_blocks} blocks "
                f"({self.moved_bytes:.2e}B) in {self.iterations} iterations, "
                f"converged={self.converged}>")


class Balancer:
    """Iteratively migrates block replicas toward uniform disk utilization.

    Parameters
    ----------
    threshold:
        Allowed deviation from mean utilization (fraction of capacity),
        mirroring the Hadoop balancer's ``-threshold`` (default 10%).
    max_concurrent_moves:
        Replica migrations in flight at once.
    """

    def __init__(self, sim: Simulator, namenode: Namenode,
                 threshold: float = 0.10, max_concurrent_moves: int = 5) -> None:
        if not (0.0 < threshold < 1.0):
            raise ValueError("threshold must be in (0, 1)")
        self.sim = sim
        self.namenode = namenode
        self.threshold = threshold
        self.max_concurrent_moves = max_concurrent_moves

    # -- analysis ----------------------------------------------------------------
    def utilization(self) -> Dict[str, float]:
        """HDFS bytes / capacity for every running datanode."""
        out: Dict[str, float] = {}
        for host in self.namenode.live_datanode_hosts():
            dn = self.namenode.datanode(host)
            if dn.state != Datanode.RUNNING:
                continue
            used = dn.disk.usage_by_label().get("hdfs", 0.0)
            out[host] = used / dn.disk.capacity
        return out

    def imbalance(self) -> float:
        """Largest deviation from mean utilization across datanodes."""
        util = self.utilization()
        if not util:
            return 0.0
        mean = sum(util.values()) / len(util)
        return max(abs(u - mean) for u in util.values())

    def _pick_moves(self) -> List[Tuple[str, str, int]]:
        """Propose ``(source, target, block_id)`` migrations for one pass."""
        util = self.utilization()
        if len(util) < 2:
            return []
        mean = sum(util.values()) / len(util)
        over = sorted((h for h, u in util.items() if u > mean + self.threshold),
                      key=lambda h: -util[h])
        under = sorted((h for h, u in util.items() if u < mean - self.threshold),
                       key=lambda h: util[h])
        moves: List[Tuple[str, str, int]] = []
        used_targets: Dict[str, int] = {}
        for src in over:
            if not under:
                break
            src_dn = self.namenode.datanode(src)
            for bid in sorted(src_dn.block_ids):
                if len(moves) >= self.max_concurrent_moves:
                    return moves
                info = self.namenode.block_info(bid)
                # Do not break the replica spread: target must not already
                # hold this block.
                for tgt in under:
                    if tgt in info.replicas or tgt in info.pending_targets:
                        continue
                    if used_targets.get(tgt, 0) >= 2:
                        continue
                    if not self.namenode.datanode(tgt).can_store(info.block.size):
                        continue
                    moves.append((src, tgt, bid))
                    used_targets[tgt] = used_targets.get(tgt, 0) + 1
                    break
                else:
                    continue
                break  # one block per over-utilized node per pass
        return moves

    # -- execution --------------------------------------------------------------------
    def run(self, max_iterations: int = 200) -> Process:
        """Balance until within threshold (or iteration cap); returns the
        balancer process, whose value is a :class:`BalancerReport`."""
        return self.sim.process(self._run_proc(max_iterations),
                                name="balancer")

    def _run_proc(self, max_iterations: int):
        report = BalancerReport()
        while report.iterations < max_iterations:
            report.iterations += 1
            if self.imbalance() <= self.threshold:
                report.converged = True
                break
            moves = self._pick_moves()
            if not moves:
                break
            events = []
            for src, tgt, bid in moves:
                info = self.namenode.block_info(bid)
                info.pending_targets[tgt] = None
                # Designate the source replica for invalidation: when the
                # new copy is reported, the namenode sees an excess replica
                # and drops exactly this one.
                info.balancer_drop = src
                tgt_dn = self.namenode.datanode(tgt)
                # Joint disk+network streaming: the move is rated over the
                # source disk read, the network path, and the target disk
                # write at once, so migrations genuinely compete with live
                # shuffle/read traffic at both endpoints.
                src_disk = self.namenode.datanode(src).disk
                events.append((tgt_dn.receive_block(info.block, src,
                                                    source_disk=src_disk),
                               src, tgt, bid))
            for ev, src, tgt, bid in events:
                info = self.namenode.block_info(bid)
                try:
                    yield ev
                except RECEIVE_FAILURES:
                    info.pending_targets.pop(tgt, None)
                    info.balancer_drop = None
                    continue
                report.moved_blocks += 1
                report.moved_bytes += info.block.size
        return report
