#!/usr/bin/env python3
"""MAX_SLOWDOWN parameter study (the paper's Figures 1-3) on a chosen workload.

Sweeps the MAXSD 5 / 10 / 50 / infinite and DynAVGSD settings on one of the
paper's workloads and prints the three figures (makespan, response time,
slowdown — all normalised to static backfill) as text bar charts.

Run with::

    python examples/maxsd_parameter_sweep.py --workload 3 --scale 0.03
"""

from __future__ import annotations

import argparse

from repro.experiments.scenario import builtin_scenario, render_report, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", type=int, default=3, choices=[1, 2, 3, 4, 5],
                        help="paper workload id (Table 1)")
    parser.add_argument("--scale", type=float, default=0.03,
                        help="fraction of the paper-scale workload (1.0 = full size)")
    parser.add_argument("--sharing-factor", type=float, default=0.5)
    args = parser.parse_args()

    spec = builtin_scenario("figure1-3", workload_id=args.workload, scale=args.scale,
                            sharing_factor=args.sharing_factor)
    outcome = run_scenario(spec)
    workload = outcome.workload
    print(f"Workload {args.workload} at scale {args.scale:g}: {len(workload)} jobs on "
          f"{workload.system_nodes} nodes (offered load {workload.offered_load():.2f})\n")
    print(render_report(outcome))
    print()

    best = min(outcome.normalized().items(), key=lambda kv: kv[1]["avg_slowdown"])
    print(f"Best setting for average slowdown: {best[0]} "
          f"({(1 - best[1]['avg_slowdown']) * 100:.1f}% reduction vs static backfill)")


if __name__ == "__main__":
    main()
