#!/usr/bin/env python3
"""Per-category analysis of SD-Policy on a large workload (Figures 4-7).

Runs static backfill and SD-Policy MAXSD 10 on the CEA-Curie-like workload
(scaled), then prints:

* the slowdown / runtime / wait-time ratio heatmaps per job category
  (requested nodes x runtime) — the paper's Figures 4, 5 and 6;
* the per-day average slowdown of both policies with the number of jobs
  scheduled through malleability — the paper's Figure 7.

Run with::

    python examples/heatmap_analysis.py --scale 0.01 --maxsd 10
"""

from __future__ import annotations

import argparse

from repro.experiments.scenario import (
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.01,
                        help="fraction of the full 198K-job CEA-Curie-like workload")
    parser.add_argument("--maxsd", type=float, default=10.0)
    parser.add_argument("--workload", type=int, default=4, choices=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    def scenario(name):
        spec = builtin_scenario(name, max_slowdown=args.maxsd)
        spec.workloads = [WorkloadRef(preset=args.workload, scale=args.scale)]
        return run_scenario(spec)

    heatmaps = scenario("figure4-6")
    workload = heatmaps.workload
    print(f"Workload {args.workload} at scale {args.scale:g}: {len(workload)} jobs on "
          f"{workload.system_nodes} nodes\n")
    print(render_report(heatmaps))
    print()
    static, sd = heatmaps.baseline_run.metrics, heatmaps.cells[0].run.metrics
    print(f"Average slowdown: static {static.avg_slowdown:.1f} -> SD-Policy "
          f"{sd.avg_slowdown:.1f} ({(1 - sd.avg_slowdown / static.avg_slowdown) * 100:.1f}% "
          "reduction)\n")

    print(render_report(scenario("figure7")))
    print()
    jobs = max(1, len(workload))
    print(f"Jobs scheduled with malleability: {sd.malleable_scheduled} "
          f"({sd.malleable_scheduled / jobs * 100:.1f}% of the workload), "
          f"mates: {sd.mate_jobs} ({sd.mate_jobs / jobs * 100:.1f}%)")


if __name__ == "__main__":
    main()
