"""The Facebook production workload (Tables I and II).

Zaharia et al. sampled job inter-arrival times and input sizes from a week
of Facebook's October 2009 trace; inter-arrivals were "roughly exponential
with a mean of 14 seconds", and job sizes quantize into nine bins
(Table I).  The HOG evaluation keeps the first six bins (≈89 % of
Facebook's jobs, bounded at 300 maps because the test cluster is small),
adds non-decreasing reduce counts (Table II), and draws 88 jobs on an
exponential schedule ≈21 minutes long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.rng import RandomStream

__all__ = [
    "FacebookBin",
    "FACEBOOK_BINS",
    "TRUNCATED_REDUCES",
    "truncated_bins",
    "benchmark_job_mix",
    "sample_interarrivals",
    "MEAN_INTERARRIVAL",
]

#: "the distribution of inter-arrival times is exponential with a mean of
#: 14 seconds, making our total submission schedule 21 minutes long."
MEAN_INTERARRIVAL = 14.0


@dataclass(frozen=True)
class FacebookBin:
    """One row of Table I (optionally with Table II's reduce count)."""

    bin_id: int
    #: "#Maps" group label at Facebook (e.g. "3-20").
    maps_label: str
    #: "%Jobs at Facebook".
    percent_at_facebook: float
    #: "#Maps in Benchmark" — the representative map count.
    maps_in_benchmark: int
    #: "# of jobs in Benchmark".
    jobs_in_benchmark: int
    #: Table II reduce count (None for bins 7-9, which HOG excludes).
    reduces_in_benchmark: Optional[int] = None


#: Table I verbatim.
FACEBOOK_BINS: Sequence[FacebookBin] = (
    FacebookBin(1, "1", 39.0, 1, 38, 1),
    FacebookBin(2, "2", 16.0, 2, 16, 1),
    FacebookBin(3, "3-20", 14.0, 10, 14, 5),
    FacebookBin(4, "21-60", 9.0, 50, 8, 10),
    FacebookBin(5, "61-150", 6.0, 100, 6, 20),
    FacebookBin(6, "151-300", 6.0, 200, 6, 30),
    FacebookBin(7, "301-500", 4.0, 400, 4, None),
    FacebookBin(8, "501-1500", 4.0, 800, 4, None),
    FacebookBin(9, ">1501", 3.0, 4800, 4, None),
)

#: Table II verbatim: bin → (map tasks, reduce tasks).
TRUNCATED_REDUCES = {1: 1, 2: 1, 3: 5, 4: 10, 5: 20, 6: 30}


def truncated_bins() -> List[FacebookBin]:
    """Table II: the first six bins, the HOG evaluation workload.

    "our job size distribution follows the first six bins of job sizes
    shown in Table I, which cover about 89% of the jobs at the Facebook
    production cluster ... we exclude those jobs with more than 300 map
    tasks."
    """
    return [b for b in FACEBOOK_BINS if b.bin_id <= 6]


def benchmark_job_mix() -> List[FacebookBin]:
    """One bin entry per benchmark job: 88 jobs total
    (38+16+14+8+6+6), in bin order."""
    mix: List[FacebookBin] = []
    for b in truncated_bins():
        mix.extend([b] * b.jobs_in_benchmark)
    return mix


def sample_interarrivals(n: int, rng: RandomStream,
                         mean: float = MEAN_INTERARRIVAL) -> Sequence[float]:
    """Exponential inter-arrival gaps for ``n`` submissions."""
    if n < 0:
        raise ValueError("n cannot be negative")
    return rng.exponential(mean, size=n)
