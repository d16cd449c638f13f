"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runtime_model import IdealRuntimeModel, WorstCaseRuntimeModel
from repro.core.sharing import plan_node_sharing
from repro.metrics.heatmap import category_heatmap
from repro.simulator.node import Node
from repro.simulator.reservation import ReservationMap
from repro.workloads.job_record import JobRecord, Workload
from repro.workloads.swf import read_swf, write_swf
from tests.conftest import make_job
from tests.test_metrics import finished_job

# --------------------------------------------------------------------- #
# Runtime models
# --------------------------------------------------------------------- #
allocations = st.dictionaries(
    keys=st.integers(0, 7), values=st.integers(1, 48), min_size=1, max_size=8
)


@given(cpus=allocations, nodes=st.integers(1, 8))
@settings(max_examples=100)
def test_runtime_model_speed_bounds_and_ordering(cpus, nodes):
    job = make_job(nodes=nodes, cpus_per_node=48)
    ideal = IdealRuntimeModel().speed(job, cpus)
    worst = WorstCaseRuntimeModel().speed(job, cpus)
    assert 0.0 <= worst <= ideal <= 1.0


@given(base=st.floats(1.0, 1e6), fraction=st.floats(0.01, 1.0))
@settings(max_examples=100)
def test_dilated_runtime_never_shorter(base, fraction):
    model = WorstCaseRuntimeModel()
    dilated = model.dilated_runtime(base, fraction)
    assert dilated >= base * 0.999999
    assert model.shrink_increase(base, fraction) >= 0.0


@given(duration=st.floats(0.0, 1e6), kept=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_mate_increase_bounded_by_duration(duration, kept):
    increase = IdealRuntimeModel().mate_increase(duration, kept)
    assert 0.0 <= increase <= duration + 1e-9


# --------------------------------------------------------------------- #
# Sharing plans
# --------------------------------------------------------------------- #
@given(
    mate_cpus=st.integers(1, 48),
    factor=st.floats(0.05, 0.95),
    mate_ranks=st.integers(1, 8),
    guest_ranks=st.integers(1, 8),
)
@settings(max_examples=100)
def test_sharing_plan_respects_capacity_and_minimums(mate_cpus, factor, mate_ranks, guest_ranks):
    node = Node(0, sockets=2, cores_per_socket=24)
    mate = make_job(job_id=1, cpus_per_node=48, tasks_per_node=mate_ranks)
    guest = make_job(job_id=2, cpus_per_node=48, tasks_per_node=guest_ranks)
    node.allocate(1, mate_cpus)
    plan = plan_node_sharing(node, mate, guest, factor)
    if plan is None:
        return
    assert plan.mate_cpus >= mate.min_cpus_per_node
    assert plan.guest_cpus >= guest.min_cpus_per_node
    assert plan.total <= node.total_cpus
    assert plan.mate_cpus + plan.guest_cpus <= mate_cpus + node.free_cpus


# --------------------------------------------------------------------- #
# Reservation map
# --------------------------------------------------------------------- #
release_lists = st.lists(
    st.tuples(st.floats(0.0, 1e5), st.integers(1, 16)), min_size=0, max_size=12
)


@given(free=st.integers(0, 16), releases=release_lists, needed=st.integers(1, 16),
       duration=st.floats(1.0, 1e4))
@settings(max_examples=100)
def test_reservation_earliest_start_is_consistent(free, releases, needed, duration):
    profile = ReservationMap(total_nodes=16, now=0.0, free_now=free, releases=releases)
    start = profile.earliest_start(needed, duration)
    if math.isfinite(start):
        assert start >= 0.0
        # At the chosen start the profile must actually offer enough nodes.
        assert profile.free_nodes_at(start) >= needed
    # More nodes can never become available earlier.
    bigger = profile.earliest_start(min(16, needed + 1), duration)
    assert bigger >= start


@given(free=st.integers(0, 16), releases=release_lists)
@settings(max_examples=60)
def test_reservation_free_counts_within_bounds(free, releases):
    profile = ReservationMap(total_nodes=16, now=0.0, free_now=free, releases=releases)
    for t, nodes in profile.profile():
        assert 0 <= nodes <= 16


# --------------------------------------------------------------------- #
# SWF round trip
# --------------------------------------------------------------------- #
records_strategy = st.lists(
    st.builds(
        JobRecord,
        job_id=st.integers(1, 10_000),
        submit_time=st.floats(0, 1e6).map(lambda x: float(int(x))),
        run_time=st.floats(1, 1e5).map(lambda x: float(int(x)) or 1.0),
        requested_time=st.floats(1, 1e5).map(lambda x: float(int(x)) or 1.0),
        requested_procs=st.integers(1, 512),
        user_id=st.integers(0, 100),
        group_id=st.integers(0, 50),
    ),
    min_size=1,
    max_size=20,
    unique_by=lambda r: r.job_id,
)


@given(records=records_strategy)
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_swf_roundtrip_preserves_core_fields(records):
    workload = Workload("prop", records, system_nodes=64, cpus_per_node=8)
    buffer = io.StringIO()
    write_swf(workload, buffer)
    buffer.seek(0)
    back = read_swf(buffer, cpus_per_node=8)
    assert len(back) == len(workload)
    for orig, parsed in zip(workload.records, back.records):
        assert parsed.job_id == orig.job_id
        assert parsed.requested_procs == orig.requested_procs
        assert parsed.run_time == pytest.approx(orig.run_time, abs=1.0)


# --------------------------------------------------------------------- #
# Heatmap binning
# --------------------------------------------------------------------- #
@given(
    jobs=st.lists(
        st.tuples(st.integers(1, 1024), st.floats(60.0, 4 * 86400.0)),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=50)
def test_heatmap_counts_cover_all_jobs(jobs):
    finished = [
        finished_job(i, nodes=1, runtime=runtime)
        for i, (nodes, runtime) in enumerate(jobs, start=1)
    ]
    # Patch requested_nodes to the sampled value (finished_job always uses 1).
    for job, (nodes, _) in zip(finished, jobs):
        job.requested_nodes = nodes
    grid = category_heatmap(finished, metric="slowdown")
    assert int(grid.counts.sum()) == len(finished)
