"""Counter guard: the benchmark's traced harness on reduced inputs.

Each reduced input of ``harness.GUARD`` runs untraced and traced in this
process.  The simulated statistics must equal the values pinned in
``baseline.json``, the traced run must simulate exactly what the untraced
one did, the spans' self times must sum to the root span, and no work
counter may exceed its pinned upper bound.  The bounds sit a little above
the measured counts: a change that removes work passes without touching
the benchmark, while an algorithmic regression (say, profile rebuilds per
job doubling) fails on any machine, however noisy.
"""

from __future__ import annotations

import json

import bench
import harness
import pytest

BASELINE = json.loads(bench.DEFAULT_BASELINE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def guard(tmp_path_factory):
    return bench.run_guard(tmp_path_factory.mktemp("guard"))


@pytest.mark.parametrize("name", sorted(harness.GUARD))
def test_guard(guard, name):
    assert bench.guard_problems({name: guard[name]}, BASELINE) == []


def test_definition_names_every_metric(guard):
    definition = bench.load_definition()
    assert [w["name"] for w in definition["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in definition["end_to_end"]] == list(bench.END_TO_END)
    layers = set(guard["curie_sd"]["traced"]["layers"]) | {"trace.overhead_frac"}
    assert {m["name"] for m in definition["per_layer"]} == layers


def test_setup_only_children_count_in_setup_s_alone():
    definition = bench.load_definition()
    measured = {"traced": False, "jobs": 10, "measured_s": 2.0, "setup_s": 0.3,
                "peak_rss_mib": 50.0, "stats": {}, "failures": []}
    setups = [{"traced": False, "setup_s": s, "failures": []} for s in (0.1, 0.2, 0.4)]
    summary = bench.summarise([measured, *setups], definition, traced=False)
    metrics = summary["metrics"]
    assert metrics["jobs_per_s"]["values"] == [5.0]
    assert metrics["peak_rss_mib"]["values"] == [50.0]
    assert metrics["setup_s"]["n"] == 4 and metrics["setup_s"]["value"] == 0.25
    assert (summary["attempted"], summary["failed"]) == (4, 0)


def _entry(values):
    return bench.describe(values, "jobs/s")


@pytest.mark.parametrize(
    "before, after, verdict",
    [
        ([100, 101, 102, 103], [99, 100, 101, 102], "ok"),
        ([100, 101, 102, 103], [80, 81, 82, 83], "regression"),
        ([60, 100, 140, 180], [60, 100, 140, 180], "unresolved"),
        ([60, 100, 140, 180], [190, 200, 210, 220], "ok"),
    ],
)
def test_compare_verdicts(before, after, verdict):
    definition = {
        "end_to_end": [
            {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.1}
        ]
    }
    docs = [
        {"workloads": {"w": {"metrics": {"jobs_per_s": _entry(values)}}}}
        for values in (before, after)
    ]
    (row,) = bench.compare(docs[0], docs[1], definition)
    assert row["verdict"] == verdict
