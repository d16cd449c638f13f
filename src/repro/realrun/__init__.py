"""Emulated "real run" (Section 4.4 of the paper).

The paper validates SD-Policy on 49 nodes of MareNostrum4 by replaying a
2000-job Cirne-model workload converted into submissions of real malleable
applications (PILS, STREAM, CoreNeuron, NEST, Alya).  Hardware access is not
available to this reproduction, so the run is *emulated*: the same SD-Policy
code is driven by the simulator with

* per-application performance models (:mod:`repro.core.profiles`)
  capturing CPU- vs memory-bound scaling behaviour,
* a node-sharing interference model (:mod:`repro.core.contention`)
  reflecting socket-isolated co-scheduling, and
* an application-aware energy model (:mod:`repro.realrun.energy`).

The built-in ``figure9`` scenario (:mod:`repro.experiments.scenario`) runs
the static/SD pair, and :func:`repro.experiments.scenario.realrun_improvements`
turns it into Figure 9: the percentage improvement of makespan, average
response time, average slowdown and energy of SD-Policy over static
backfill, with this package's per-job statistics.
"""
