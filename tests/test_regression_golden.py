"""Golden regression tests against the committed benchmark artifacts.

``benchmarks/output/*.txt`` are the regenerated paper tables/figures at the
benchmark scales committed with the repo.  These tests recompute the Table 1
rows and the Figures 1-3 MAX_SLOWDOWN sweep aggregates and compare them to
the values parsed out of those artifacts, so a hot-path refactor that
silently changes the paper numbers fails loudly here instead of drifting
into the next benchmark regeneration.

Tolerances only absorb the artifacts' print rounding (1 decimal in Table 1,
3 decimals in the figure charts); the computation itself is deterministic.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from repro.experiments.scenario import (
    MAXSD_GRID,
    builtin_scenario,
    load_spec,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import SweepRunner, read_cached_run
from repro.store import MemoryStore

OUTPUT_DIR = Path(__file__).parent.parent / "benchmarks" / "output"
EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

#: Benchmark scales the committed artifacts were generated at: raw values
#: of ``repro.experiments.scenario.BENCH_SCALES``, deliberately not honouring
#: REPRO_BENCH_SCALE_FACTOR (the goldens are pinned).
TABLE1_SCALE = 0.02
FIG13_WORKLOAD_ID = 1
FIG13_SCALE = 0.04

MAXSD_LABELS = tuple(point["label"] for point in MAXSD_GRID)


def _require(path: Path) -> str:
    if not path.exists():
        pytest.skip(f"golden artifact {path.name} not committed")
    return path.read_text(encoding="utf-8")


def parse_table1(text: str) -> dict:
    """Parse the Table 1 artifact into ``{workload_id: row dict}``."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != 9 or not cells[0].isdigit():
            continue
        rows[int(cells[0])] = {
            "log_model": cells[1],
            "jobs": int(cells[2]),
            "system_nodes": int(cells[3]),
            "system_cpus": int(cells[4]),
            "max_job_nodes": int(cells[5]),
            "avg_response_time": float(cells[6]),
            "avg_slowdown": float(cells[7]),
            "makespan": float(cells[8]),
        }
    return rows


def parse_fig13(text: str) -> dict:
    """Parse the fig1-3 artifact into ``{metric: {label: normalised value}}``."""
    titles = {
        "Figure 1": "makespan",
        "Figure 2": "avg_response_time",
        "Figure 3": "avg_slowdown",
    }
    values: dict = {}
    metric = None
    bar = re.compile(r"^(.+?)\s*\|\s*#+\s*([0-9.]+)\s*$")
    for line in text.splitlines():
        for title, key in titles.items():
            if line.startswith(title):
                metric = key
                values[metric] = {}
        match = bar.match(line)
        if metric is not None and match:
            values[metric][match.group(1).strip()] = float(match.group(2))
    return values


def assert_close(actual: float, golden: float, rel: float, abs_tol: float, what: str):
    tol = max(abs_tol, rel * abs(golden))
    assert abs(actual - golden) <= tol, (
        f"{what}: regenerated {actual!r} differs from golden {golden!r} "
        f"by more than {tol!r}"
    )


class TestTable1Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        return parse_table1(_require(OUTPUT_DIR / "table1_workloads.txt"))

    @pytest.fixture(scope="class")
    def regenerated(self):
        return run_scenario(
            builtin_scenario("table1", scale=TABLE1_SCALE, workload_ids=(1, 2, 3, 5))
        )

    def test_artifact_parses(self, golden):
        assert set(golden) == {1, 2, 3, 5}

    @pytest.mark.parametrize("wid", (1, 2, 3, 5))
    def test_row_matches_golden(self, golden, regenerated, wid):
        gold = golden[wid]
        workload = regenerated.workloads[f"workload{wid}"]
        metrics = regenerated.baselines[f"workload{wid}"].metrics
        # Exact integers: the workload composition itself must not drift.
        assert len(workload) == gold["jobs"]
        assert workload.system_nodes == gold["system_nodes"]
        assert workload.system_cpus == gold["system_cpus"]
        assert workload.max_job_nodes == gold["max_job_nodes"]
        # Aggregates within print-rounding tolerance (artifact: 1 decimal).
        for key in ("avg_response_time", "avg_slowdown", "makespan"):
            assert_close(getattr(metrics, key), gold[key], rel=1e-2, abs_tol=0.06,
                         what=f"table1 workload {wid} {key}")


class TestFig13Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        name = f"fig1-3_maxsd_sweep_workload{FIG13_WORKLOAD_ID}.txt"
        return parse_fig13(_require(OUTPUT_DIR / name))

    @pytest.fixture(scope="class")
    def regenerated(self):
        spec = builtin_scenario(
            "figure1-3", workload_id=FIG13_WORKLOAD_ID, scale=FIG13_SCALE
        )
        return run_scenario(spec).normalized()

    def test_artifact_parses(self, golden):
        assert set(golden) == {"makespan", "avg_response_time", "avg_slowdown"}
        for metric in golden.values():
            assert set(metric) == set(MAXSD_LABELS)

    @pytest.mark.parametrize("metric", ("makespan", "avg_response_time", "avg_slowdown"))
    def test_normalised_sweep_matches_golden(self, golden, regenerated, metric):
        for label in MAXSD_LABELS:
            assert_close(
                regenerated[label][metric],
                golden[metric][label],
                rel=5e-3,
                abs_tol=2e-3,  # chart prints 3 decimals
                what=f"fig1-3 {metric} {label}",
            )


class TestScenarioGolden:
    """The example scenario specs regenerate the committed Figure 4-6 and
    Figure 7 artifacts *byte for byte* through the declarative scenario
    layer (2 workers, shared on-disk cache).

    Both figures are built from the same static/SD run pair, so the second
    scenario must be served entirely from the cache the first one wrote —
    pinning the cross-scenario cache sharing as well as the rendered text.
    """

    @pytest.fixture(scope="class")
    def outcomes(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("scenario_golden_cache")
        runner = SweepRunner(max_workers=2, store=cache)
        fig46 = run_scenario(load_spec(EXAMPLES_DIR / "figure4-6_scenario.json"),
                             runner=runner)
        fig7 = run_scenario(load_spec(EXAMPLES_DIR / "figure7_scenario.json"),
                            runner=runner)
        return fig46, fig7

    def test_fig4_to_6_matches_golden_byte_for_byte(self, outcomes):
        golden = _require(OUTPUT_DIR / "fig4-6_heatmaps_workload4.txt")
        assert render_report(outcomes[0]) + "\n" == golden

    def test_fig7_matches_golden_byte_for_byte(self, outcomes):
        golden = _require(OUTPUT_DIR / "fig7_daily_slowdown_workload4.txt")
        assert render_report(outcomes[1]) + "\n" == golden

    def test_fig7_fully_served_from_fig46_cache(self, outcomes):
        assert outcomes[0].sweep_cache_hits == 0
        assert outcomes[1].sweep_cache_hits == 2


class TestRunBlobGolden:
    """The stored form of a run is pinned byte for byte: a change to the
    run-blob codec, or to any fact it stores, moves these digests."""

    #: SHA-256 of each figure1-3 run blob at scale 0.02 (envelope included,
    #: as ``sha256sum`` sees the stored file), by task key.
    BLOB_DIGESTS = {
        "workload1::DynAVGSD": "a8666bee7c049bd39490d311d3e9d3ff167d916f85553e0f361b1c7f8cf81d35",
        "workload1::MAXSD 10": "467b2b8351c13045ab3bc398592f59079e3381413e980e115312099155f86f3a",
        "workload1::MAXSD 5": "780fbf2fe50210001bbb693b9df6d0af873e4c778558e1834b159a5b96722876",
        "workload1::MAXSD 50": "07837ceb61461a1bee808b05586decb34436909d681d0a23b1830724d4b4348b",
        "workload1::MAXSD inf": "6bf2a390e1873097a1c218e65e02167971c74ee96dbf9d287941740491eb7b49",
        "workload1::baseline": "c0dcb5e8b2af5a959b98a1d80c43b5e106207de90dfa089e35bc68f6d83bf107",
    }

    def test_figure_1_to_3_blobs_match_the_pinned_digests(self):
        store = MemoryStore()
        spec = builtin_scenario("figure1-3", scale=0.02)
        run_scenario(spec, runner=SweepRunner(max_workers=1, store=store))
        digests = {
            read_cached_run(store, key)["key"]: hashlib.sha256(store.get(key)).hexdigest()
            for key in store.list()
        }
        assert digests == self.BLOB_DIGESTS
