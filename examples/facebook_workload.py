#!/usr/bin/env python
"""Run the paper's Facebook workload (Table II) on HOG and on the
dedicated Table III cluster, and compare response times.

This is a scaled-down version of the Figure 4 experiment: one HOG size
vs the 100-core cluster baseline.  Use ``--scale 1.0 --nodes 100`` for the
paper-sized run (takes a minute or two of wall-clock time).

Run:  python examples/facebook_workload.py [--nodes N] [--scale S]
"""

import argparse

from repro.scenarios import calibration
from repro.experiments.common import (
    HogRunSettings,
    run_facebook_on_cluster,
    run_facebook_on_hog,
)
from repro.metrics import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=55,
                        help="HOG worker-node target (paper sweeps 40-1101)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="fraction of the 88-job workload to run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"Running {int(88 * args.scale)}-ish jobs on the dedicated "
          "100-core cluster...")
    cluster = run_facebook_on_cluster(seed=args.seed, scale=args.scale)
    print(f"  {cluster.summary()}")

    print(f"Running the same workload on HOG with {args.nodes} grid nodes...")
    hog = run_facebook_on_hog(HogRunSettings(
        n_nodes=args.nodes, seed=args.seed, scale=args.scale,
        policy=calibration.default_grid_policy()))
    print(f"  {hog.summary()}")

    rows = []
    for bin_id in sorted(set(cluster.bin_responses) | set(hog.bin_responses)):
        c = cluster.bin_responses.get(bin_id, [])
        h = hog.bin_responses.get(bin_id, [])
        rows.append([
            bin_id,
            f"{sum(c) / len(c):.0f}" if c else "-",
            f"{sum(h) / len(h):.0f}" if h else "-",
        ])
    print()
    print(format_table(
        ["Bin", "cluster mean resp (s)", "HOG mean resp (s)"], rows,
        title="Per-bin job response times"))

    ratio = hog.response_time / cluster.response_time
    print(f"\nHOG[{args.nodes}] / cluster response ratio: {ratio:.2f} "
          f"(1.0 = the paper's 'equivalent performance')")
    print(f"HOG map locality: {hog.locality}")


if __name__ == "__main__":
    main()
