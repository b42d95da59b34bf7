"""Submission schedules: turning the Facebook job mix into timed JobSpecs.

The evaluation runs ``loadgen`` — "a test example in Hadoop source code and
used in evaluating Hadoop schedulers" — over the Table II mix.  Jobs of the
same bin share an input dataset ("creating datasets with the correct
sizes"), so the harness preloads one input file per bin and submits 88
jobs against them on an exponential schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from ..mapreduce.job import JobSpec
from ..sim.rng import RandomStream
from .facebook import (
    MEAN_INTERARRIVAL,
    FacebookBin,
    benchmark_job_mix,
    sample_interarrivals,
)

__all__ = ["LoadgenParams", "ScheduledJob", "SubmissionSchedule",
           "build_facebook_schedule"]


@dataclass
class LoadgenParams:
    """Per-task cost model for the synthetic loadgen jobs.

    These are the calibration constants (DESIGN.md §5): they set the
    absolute scale of task durations but not the system behaviours under
    study, and are shared by every system we compare (HOG, the dedicated
    cluster, HOD).
    """

    #: CPU seconds per map task at unit node speed.
    map_cpu_per_block: float = 15.0
    #: CPU seconds per reduce task at unit node speed.
    reduce_cpu: float = 10.0
    #: Intermediate bytes emitted per input byte (loadgen keep-ratio).
    map_output_ratio: float = 0.4
    #: Output bytes per shuffled byte at each reduce.
    reduce_output_ratio: float = 0.25

    def validate(self) -> None:
        """Raise ``ValueError`` on negative costs."""
        if min(self.map_cpu_per_block, self.reduce_cpu,
               self.map_output_ratio, self.reduce_output_ratio) < 0:
            raise ValueError("loadgen parameters cannot be negative")


@dataclass
class ScheduledJob:
    """One job of a submission schedule."""

    submit_time: float
    spec: JobSpec
    bin_id: int


class SubmissionSchedule:
    """An ordered list of timed job submissions plus their shared inputs."""

    def __init__(self, jobs: List[ScheduledJob],
                 inputs: Dict[str, int]) -> None:
        if any(jobs[i].submit_time > jobs[i + 1].submit_time
               for i in range(len(jobs) - 1)):
            raise ValueError("schedule must be sorted by submit time")
        self.jobs = jobs
        #: input file name → number of blocks to preload.
        self.inputs = inputs

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def duration(self) -> float:
        """Time of the last submission."""
        return self.jobs[-1].submit_time if self.jobs else 0.0


def build_facebook_schedule(
        rng: RandomStream,
        params: Optional[LoadgenParams] = None,
        mean_interarrival: float = MEAN_INTERARRIVAL,
        bins: Optional[Sequence[FacebookBin]] = None,
        scale: float = 1.0) -> SubmissionSchedule:
    """Build the §IV-A submission schedule.

    Parameters
    ----------
    rng:
        Randomness for job order and inter-arrival gaps.
    params:
        Loadgen cost model.
    mean_interarrival:
        Mean of the exponential gaps (paper: 14 s).
    bins:
        Job mix (defaults to Table II's 88 jobs).
    scale:
        Fraction of each bin's job count to keep (for quick runs); the
        mix proportions are preserved, minimum one job per bin.
    """
    params = params or LoadgenParams()
    params.validate()
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")

    mix: List[FacebookBin] = []
    from .facebook import truncated_bins
    for b in (bins if bins is not None else truncated_bins()):
        if b.reduces_in_benchmark is None:
            raise ValueError(f"bin {b.bin_id} has no reduce count (Table II "
                             "covers bins 1-6 only)")
        count = max(1, int(round(b.jobs_in_benchmark * scale)))
        mix.extend([b] * count)

    order = rng.permutation(len(mix))
    gaps = sample_interarrivals(len(mix), rng, mean_interarrival)
    submit_times = list(accumulate(gaps))

    inputs: Dict[str, int] = {}
    jobs: List[ScheduledJob] = []
    for k, idx in enumerate(order):
        b = mix[int(idx)]
        input_file = f"/benchmark/input-bin{b.bin_id}"
        inputs[input_file] = b.maps_in_benchmark
        spec = JobSpec(
            name=f"loadgen-{k:03d}-bin{b.bin_id}",
            num_maps=b.maps_in_benchmark,
            num_reduces=b.reduces_in_benchmark,
            input_file=input_file,
            map_cpu_per_block=params.map_cpu_per_block,
            reduce_cpu=params.reduce_cpu,
            map_output_ratio=params.map_output_ratio,
            reduce_output_ratio=params.reduce_output_ratio,
        )
        jobs.append(ScheduledJob(float(submit_times[k]), spec, b.bin_id))
    return SubmissionSchedule(jobs, inputs)
