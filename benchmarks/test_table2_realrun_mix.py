"""Table 2 — application mix of the real-run workload.

Checks that the generated workload 5 reproduces the paper's application
shares (PILS 30.5%, STREAM 30.8%, CoreNeuron 35.5%, NEST 2.6%, Alya 0.6%).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once, save_artifact
from repro.experiments.scenario import builtin_scenario, render_report, run_scenario
from repro.workloads.applications import APPLICATION_MIX, application_shares


def test_table2_application_mix(benchmark):
    outcome = run_once(benchmark, lambda: run_scenario(builtin_scenario("table2", scale=1.0)))
    save_artifact("table2_application_mix", render_report(outcome))
    shares = application_shares(outcome.workload)
    expected = {m.name: m.share for m in APPLICATION_MIX}
    for app, share in expected.items():
        assert shares.get(app, 0.0) == pytest.approx(share, abs=0.06), app
    assert len(outcome.workload) == 2000
