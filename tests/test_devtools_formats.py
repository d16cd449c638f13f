"""Tests for the format-discipline checker (``repro.devtools.formats``).

The contract under test: every persisted schema is fingerprinted into the
committed ``formats.lock``; changing a schema's field layout without
bumping its paired format-version constant fails the check with
``changed-no-bump``, while a layout change *with* a bump reads as a stale
lock (refresh with ``--update``).  The declared field tuples
(``MANIFEST_FIELDS``, ``CACHE_PAYLOAD_FIELDS``, …) are additionally pinned
against the bytes a real sweep writes, so the fingerprints cannot drift
away from reality.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.devtools import formats
from repro.experiments.executors import (
    MANIFEST_FIELDS,
    MANIFEST_TASK_FIELDS,
    ShardedExecutor,
)
from repro.experiments.sweep import CACHE_PAYLOAD_FIELDS, SweepRunner, SweepTask
from repro.store import LocalFSStore, unwrap_blob
from repro.workloads.cirne import CirneWorkloadModel

REPO_ROOT = Path(__file__).resolve().parent.parent
LOCK_PATH = REPO_ROOT / "formats.lock"


# --------------------------------------------------------------------- #
# The committed lock matches the tree
# --------------------------------------------------------------------- #
class TestCommittedLock:
    def test_lock_exists_and_passes(self):
        locked = formats.load_lock(LOCK_PATH)
        problems = formats.check_lock(locked, formats.snapshot())
        assert problems == [], "\n".join(p["message"] for p in problems)

    def test_lock_covers_every_registered_schema(self):
        locked = formats.load_lock(LOCK_PATH)
        assert set(locked) == {spec.name for spec in formats.SCHEMAS}

    def test_cli_check_passes(self, capsys):
        assert formats.main(["--lock", str(LOCK_PATH)]) == 0
        assert "ok" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Drift semantics
# --------------------------------------------------------------------- #
class TestCheckSemantics:
    def test_layout_change_without_bump_fails(self):
        locked = formats.load_lock(LOCK_PATH)
        current = copy.deepcopy(formats.snapshot())
        current["cache/SimulationResult"]["fingerprint"] = "sha256:deadbeefdeadbeef"
        problems = formats.check_lock(locked, current)
        assert [p["kind"] for p in problems] == ["changed-no-bump"]
        assert "bump the version constant" in problems[0]["message"]

    def test_layout_change_with_bump_is_stale_lock(self):
        locked = formats.load_lock(LOCK_PATH)
        current = copy.deepcopy(formats.snapshot())
        entry = current["cache/SimulationResult"]
        entry["fingerprint"] = "sha256:deadbeefdeadbeef"
        entry["version"] = entry["version"] + 1
        problems = formats.check_lock(locked, current)
        assert [p["kind"] for p in problems] == ["stale-lock"]
        assert "--update" in problems[0]["message"]

    def test_registry_lock_disagreement(self):
        locked = formats.load_lock(LOCK_PATH)
        current = copy.deepcopy(formats.snapshot())
        current["records/brand-new"] = dict(current["cache/SimulationResult"])
        extra = copy.deepcopy(locked)
        extra["records/retired"] = dict(locked["cache/SimulationResult"])
        kinds = {p["kind"] for p in formats.check_lock(extra, current)}
        assert kinds == {"new-schema", "removed-schema"}

    def test_dataclass_field_change_changes_fingerprint(self):
        @dataclasses.dataclass
        class Before:
            alpha: int
            beta: str

        @dataclasses.dataclass
        class After:
            alpha: int
            beta: str
            gamma: float

        @dataclasses.dataclass
        class Retyped:
            alpha: int
            beta: bytes

        before = formats.fingerprint_schema("dataclass", Before)
        assert before != formats.fingerprint_schema("dataclass", After)
        assert before != formats.fingerprint_schema("dataclass", Retyped)

    def test_field_tuple_order_matters(self):
        first = formats.fingerprint_schema("fields", ("a", "b"))
        assert first != formats.fingerprint_schema("fields", ("b", "a"))

    def test_update_roundtrip(self, tmp_path, capsys):
        lock = tmp_path / "formats.lock"
        assert formats.main(["--lock", str(lock), "--update"]) == 0
        assert formats.main(["--lock", str(lock)]) == 0
        capsys.readouterr()

    def test_missing_lock_is_invocation_error(self, tmp_path, capsys):
        assert formats.main(["--lock", str(tmp_path / "absent.lock")]) == 2
        assert "--update" in capsys.readouterr().err

    def test_json_report(self, capsys):
        assert formats.main(["--lock", str(LOCK_PATH), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["problems"] == []


# --------------------------------------------------------------------- #
# Declared field tuples match the bytes a real sweep writes
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sharded_sweep(tmp_path_factory):
    cache = tmp_path_factory.mktemp("formats_cache")
    workload = CirneWorkloadModel(
        num_jobs=12, system_nodes=8, cpus_per_node=4, max_job_nodes=4,
        target_load=1.0, median_runtime_s=600.0, seed=3, name="formats_test",
    ).generate()
    tasks = [
        SweepTask(workload=workload, policy="static_backfill", key="static",
                  seed=0, kwargs={"runtime_model": "ideal"}),
        SweepTask(workload=workload, policy="sd_policy", key="MAXSD 10",
                  seed=0, kwargs={"runtime_model": "ideal",
                                  "max_slowdown": 10.0,
                                  "sharing_factor": 0.5}),
    ]
    runner = SweepRunner(
        max_workers=1, store=cache, executor=ShardedExecutor(0, 1)
    )
    runner.run(tasks)
    return cache


class TestDeclaredFieldsMatchReality:
    def test_manifest_fields_match_real_manifest(self, sharded_sweep):
        manifest_files = sorted(
            LocalFSStore(sharded_sweep).manifest_dir.glob("*.json")
        )
        assert manifest_files
        manifest = json.loads(manifest_files[0].read_text(encoding="utf-8"))
        assert set(manifest) == set(MANIFEST_FIELDS)
        for record in manifest["tasks"]:
            assert set(record) <= set(MANIFEST_TASK_FIELDS)
            # everything except the optional local cache_path is mandatory
            assert set(record) >= set(MANIFEST_TASK_FIELDS) - {"cache_path"}

    def test_cache_payload_fields_match_real_blob(self, sharded_sweep):
        blobs = sorted(sharded_sweep.glob("*.pkl"))
        assert blobs
        payload_bytes, _ = unwrap_blob(blobs[0].read_bytes())
        header = json.loads(payload_bytes.split(b"\n", 1)[0])
        assert set(header) == set(CACHE_PAYLOAD_FIELDS)
