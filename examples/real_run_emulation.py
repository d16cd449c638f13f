#!/usr/bin/env python3
"""Emulated MareNostrum4 "real run" (the paper's Section 4.4 / Figure 9).

Replays the real-run workload (Cirne model converted to the Table 2
application mix: PILS, STREAM, CoreNeuron, NEST, Alya) on the 49-node
system with the application-aware performance, interference and energy
models, under static backfill and under SD-Policy, and prints the
improvement percentages of Figure 9.

Run with::

    python examples/real_run_emulation.py --scale 0.5
"""

from __future__ import annotations

import argparse

from repro.analysis.figures import render_bar_chart
from repro.experiments.scenario import builtin_scenario, realrun_improvements, run_scenario
from repro.workloads.applications import application_shares


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5,
                        help="fraction of the paper's 2000-job / 49-node configuration")
    parser.add_argument("--maxsd", default="dynamic",
                        help="MAX_SLOWDOWN setting: a number, 'inf' or 'dynamic'")
    parser.add_argument("--sharing-factor", type=float, default=0.5)
    args = parser.parse_args()

    maxsd = args.maxsd if args.maxsd == "dynamic" else float(args.maxsd)
    spec = builtin_scenario(
        "figure9", scale=args.scale, sharing_factor=args.sharing_factor, max_slowdown=maxsd
    )
    outcome = run_scenario(spec)
    workload = outcome.workload
    print(f"Real-run workload: {len(workload)} jobs on {workload.system_nodes} nodes "
          f"({workload.cpus_per_node} cores each)")
    print("Application mix (Table 2):")
    for app, share in application_shares(workload).items():
        print(f"  {app:12s} {share * 100:5.1f}%")
    print()

    stats = realrun_improvements(outcome)
    print(render_bar_chart(
        stats["improvements"],
        title="Figure 9 — improvement (%) of SD-Policy over static backfill",
        reference=0.0,
        fmt="{:.1f}%",
    ))
    print()
    print(f"Jobs scheduled with malleability: {stats['malleable_scheduled']}")
    print(f"Of those, using resources more efficiently than static execution: "
          f"{stats['better_runtime_jobs']}")
    print(f"Static energy: {stats['static_metrics'].energy_joules / 3.6e6:.1f} kWh, "
          f"SD-Policy energy: {stats['sd_metrics'].energy_joules / 3.6e6:.1f} kWh")
    print(f"(comparison took {outcome.sweep_wall_clock_seconds:.1f}s of wall-clock time)")


if __name__ == "__main__":
    main()
