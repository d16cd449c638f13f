"""The mate-selection index checked against slow references that are obviously right.

``MateSelector`` caches the structurally eligible running jobs (its mate
pool) and finds the best pair of mates by a weight lookup.  These tests hold
both against the code they replaced: a full eligibility predicate applied to
every running job on every scan, and an ``itertools`` enumeration of every
combination.  The node-count check that turns a guest down before any
candidate is built is held against an enumeration of the window mates'
node counts and against the full candidate path.  Pinned trace bytes and a
pinned scan counter catch changes in scan order and in the amount of work
the index saves.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mate_selection import MAX_CANDIDATES, MateCandidate, MateSelector
from repro.core.penalties import StaticMaxSlowdown, mate_penalty
from repro.core.policy import make_policy
from repro.core.runtime_model import mate_increase
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.core.ub_policy import UBPolicyConfig, UBPolicyScheduler
from repro.experiments import runner
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.job import JobState
from repro.simulator.simulation import Simulation
from repro.workloads.applications import assign_applications
from repro.workloads.presets import build_workload
from tests.conftest import make_job

# --------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------- #


def oracle_best_combination(candidates, nodes_needed, max_mates):
    """Minimum-PI combination by enumerating every combination of ≤ max_mates."""
    best = None
    best_pi = math.inf
    n = len(candidates)
    for r in range(1, min(max_mates, n) + 1):
        for combo in itertools.combinations(range(n), r):
            picks = [candidates[i] for i in combo]
            pi = sum(c.penalty for c in picks)
            if pi < best_pi and sum(c.weight for c in picks) == nodes_needed:
                best, best_pi = picks, pi
    return best


def structurally_eligible(sim, job):
    """The guest-independent part of mate eligibility, checked from scratch."""
    return (
        job.state is JobState.RUNNING
        and job.start_time is not None
        and job.malleable
        and not job.guest_of
        and not any(sim.cluster.node(nid).is_shared for nid in job.allocated_nodes)
    )


def oracle_is_eligible(sim, mate, guest, guest_runtime):
    """The full eligibility predicate: structure, identity and time window."""
    if not structurally_eligible(sim, mate) or mate.job_id == guest.job_id:
        return False
    return mate.start_time + mate.requested_time >= sim.now + guest_runtime


def oracle_candidate_mates(selector, sim, guest, cutoff):
    """Candidates and bandwidth rejections from a scan of every running job."""
    guest_runtime = selector.estimated_guest_runtime(guest)
    kept_fraction = 1.0 - selector.sharing_factor
    contention = selector.contention
    candidates = []
    rejections = 0
    for mate in sim.running.values():
        if not oracle_is_eligible(sim, mate, guest, guest_runtime):
            continue
        if contention is not None and not contention.allows_pairing(mate, guest):
            rejections += 1
            continue
        penalty = mate_penalty(mate, mate_increase(guest_runtime, kept_fraction))
        if cutoff.admits(penalty) and mate.allocated_nodes:
            candidates.append(MateCandidate(mate, penalty, len(mate.allocated_nodes)))
    if contention is None:
        candidates.sort(key=lambda c: (c.penalty, c.job.job_id))
    else:
        candidates.sort(
            key=lambda c: (
                contention.bandwidth_demand(contention.application(c.job.application)),
                c.penalty,
                c.job.job_id,
            )
        )
    return candidates[:MAX_CANDIDATES], rejections


def check_every_scan(selector):
    """Wrap ``selector.candidate_mates`` to hold each call against the oracle.

    Returns the list the wrapper appends one entry to per checked call.
    """
    production = selector.candidate_mates
    calls = []

    def candidate_mates(sim, guest, cutoff):
        expected, rejections = oracle_candidate_mates(selector, sim, guest, cutoff)
        got = production(sim, guest, cutoff)
        assert selector.mate_pool(sim) == [
            job for job in sim.running.values() if structurally_eligible(sim, job)
        ]
        assert got == expected
        assert selector.bandwidth_rejections == rejections
        calls.append(guest.job_id)
        return got

    selector.candidate_mates = candidate_mates
    return calls


# --------------------------------------------------------------------- #
# Combination search
# --------------------------------------------------------------------- #

#: Penalties chosen to tie exactly or to make different pairs round to the
#: same sum (0.1 + 0.2 vs 0.3 vs 0.30000000000000004; 1e16 + 1 == 1e16).
TRICKY_PENALTIES = (0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 0.5, 1.0, 1.5, 2.0, 1e16, 1e16 + 2)

penalties = st.one_of(
    st.sampled_from(TRICKY_PENALTIES),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=600, deadline=timedelta(milliseconds=500))
@given(
    pairs=st.lists(st.tuples(st.integers(1, 5), penalties), max_size=12),
    nodes_needed=st.integers(1, 10),
    max_mates=st.sampled_from((1, 2, 3)),
)
def test_best_combination_matches_enumeration(pairs, nodes_needed, max_mates):
    # Each candidate's job is its index, so equal results mean the same picks.
    candidates = [MateCandidate(job=i, penalty=p, weight=w) for i, (w, p) in enumerate(pairs)]
    selector = MateSelector(max_mates=max_mates)
    assert selector._best_combination(candidates, nodes_needed) == oracle_best_combination(
        candidates, nodes_needed, max_mates
    )


def test_pair_tie_break_prefers_the_single_and_the_first_pair():
    def candidates(*pairs):
        return [MateCandidate(job=i, penalty=p, weight=w) for i, (w, p) in enumerate(pairs)]

    selector = MateSelector()
    # 0.1 + 0.2 rounds above 0.3: the single mate keeps the win.
    c = candidates((2, 0.3), (1, 0.1), (1, 0.2))
    assert selector._best_combination(c, 2) == [c[0]]
    # 1e16 + 1.0 rounds to 1e16 + 0.0: the pairs tie and the first one wins,
    # although the second pairs the big mate with the cheaper partner.
    c = candidates((1, 1.0), (1, 0.0), (3, 1e16))
    assert selector._best_combination(c, 4) == [c[0], c[2]]


# --------------------------------------------------------------------- #
# Mate pool
# --------------------------------------------------------------------- #

APPLICATIONS = (None, "PILS", "STREAM", "CoreNeuron", "NEST", "Alya")


@st.composite
def small_runs(draw):
    num_nodes = draw(st.integers(1, 16))
    jobs = []
    for job_id in range(1, draw(st.integers(1, 50)) + 1):
        req_time = draw(st.integers(1, 40)) * 100.0
        jobs.append(make_job(
            job_id=job_id,
            submit=draw(st.integers(0, 15)) * 200.0,  # coarse grid: tied submits
            nodes=draw(st.integers(1, min(4, num_nodes))),
            req_time=req_time,
            runtime=req_time * draw(st.sampled_from((0.3, 0.7, 1.0))),
            malleable=draw(st.booleans()),
            application=draw(st.sampled_from(APPLICATIONS)),
        ))
    max_slowdown = draw(st.sampled_from((math.inf, 2.0, 10.0, "dynamic")))
    if draw(st.booleans()):
        scheduler = UBPolicyScheduler(UBPolicyConfig(max_slowdown=max_slowdown))
    else:
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=max_slowdown))
    return num_nodes, jobs, scheduler


def simulate(scheduler, num_nodes, jobs):
    cluster = Cluster(num_nodes=num_nodes, sockets=2, cores_per_socket=4)
    sim = Simulation(cluster, scheduler)
    sim.submit_jobs(jobs)
    sim.run()
    return sim.streaming.records()


@settings(
    max_examples=80,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=small_runs())
def test_pool_matches_naive_scan_at_every_selection(run):
    num_nodes, jobs, scheduler = run
    check_every_scan(scheduler.selector)
    simulate(scheduler, num_nodes, jobs)


def congested_jobs(offset=0):
    """Long 1-node jobs fill 3 nodes, then short guests keep arriving."""
    jobs = [make_job(job_id=offset + i, submit=0.0, nodes=1, req_time=20000.0,
                     runtime=15000.0) for i in range(1, 4)]
    jobs += [make_job(job_id=offset + i, submit=10.0 * i, nodes=1 + i % 2,
                      req_time=600.0, runtime=500.0) for i in range(4, 14)]
    return jobs


def test_scheduler_reused_across_simulations_never_sees_a_stale_pool():
    scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
    calls = check_every_scan(scheduler.selector)
    simulate(scheduler, 3, congested_jobs())
    first_calls, first_scanned = len(calls), scheduler.selector.mates_scanned
    assert first_calls > 0 and first_scanned > 0
    # Same shapes, different ids: the second run must not reuse the first's jobs.
    second = simulate(scheduler, 3, congested_jobs(offset=100))
    assert len(calls) == 2 * first_calls
    assert scheduler.selector.mates_scanned == first_scanned  # reset by bind
    fresh = simulate(SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf)), 3,
                     congested_jobs(offset=100))
    assert np.array_equal(second, fresh)


def test_pool_keyed_on_the_simulation_not_only_its_version():
    selector = MateSelector()
    admit_all = StaticMaxSlowdown(math.inf)
    sims = []
    for mate_id in (1, 2):
        sim = Simulation(Cluster(num_nodes=2, sockets=2, cores_per_socket=4), FCFSScheduler())
        mate = make_job(job_id=mate_id, nodes=1, req_time=10000.0)
        guest = make_job(job_id=100, nodes=1, req_time=500.0)
        for job in (mate, guest):
            sim.jobs[job.job_id] = job
            sim.pending.add(job)
        sim.start_job_static(mate)
        sims.append((sim, guest))
    assert sims[0][0].allocation_version == sims[1][0].allocation_version
    for expected, (sim, guest) in zip((1, 2), sims):
        candidates = selector.candidate_mates(sim, guest, admit_all)
        assert [c.job.job_id for c in candidates] == [expected]


# --------------------------------------------------------------------- #
# Node-count check
# --------------------------------------------------------------------- #


def oracle_counts_can_match(selector, sim, guest):
    """Whether ≤ ``max_mates`` distinct window mates cover the guest's nodes,
    by enumerating the node counts of every running job in the window."""
    guest_runtime = selector.estimated_guest_runtime(guest)
    weights = [
        len(mate.allocated_nodes) for mate in sim.running.values()
        if oracle_is_eligible(sim, mate, guest, guest_runtime)
    ]
    needed = guest.requested_nodes
    for r in range(1, selector.max_mates + 1):
        for combo in itertools.combinations(weights, r):
            if sum(combo) == needed:
                return True
    return False


def full_path(selector, sim, guest, cutoff):
    """``select`` without the node-count check: candidates, search, plan."""
    candidates = selector.candidate_mates(sim, guest, cutoff)
    picks = selector._best_combination(candidates, guest.requested_nodes)
    if picks is None:
        return None
    return selector._build_plan(sim, guest, picks)


def check_every_select(selector):
    """Wrap ``selector.select`` to hold the node-count check at each call.

    Returns the check's answers, one per call.
    """
    production = selector.select
    answers = []

    def select(sim, guest, cutoff, guest_runtime=None):
        assert guest_runtime in (None, selector.estimated_guest_runtime(guest))
        can = selector.node_counts_can_match(sim, guest)
        if selector.max_mates <= 2:
            assert can == oracle_counts_can_match(selector, sim, guest)
        else:
            assert can  # triples are left to the full path
        if not can:
            assert full_path(selector, sim, guest, cutoff) is None
        got = production(sim, guest, cutoff, guest_runtime)
        assert can or got is None
        answers.append(can)
        return got

    selector.select = select
    return answers


@st.composite
def count_check_runs(draw):
    num_nodes = draw(st.integers(1, 12))
    jobs = []
    for job_id in range(1, draw(st.integers(1, 40)) + 1):
        req_time = draw(st.integers(1, 20)) * 100.0
        jobs.append(make_job(
            job_id=job_id,
            # Coarse grids: tied submits, and mate ends that tie guest ends.
            submit=draw(st.integers(0, 15)) * 200.0,
            nodes=draw(st.integers(1, min(5, num_nodes))),
            req_time=req_time,
            runtime=req_time * draw(st.sampled_from((0.3, 0.7, 1.0))),
            malleable=draw(st.integers(0, 3)) > 0,
        ))
    config = SDPolicyConfig(
        max_slowdown=draw(st.sampled_from((10.0, math.inf, "dynamic"))),
        max_mates=draw(st.sampled_from((1, 2, 3))),
    )
    return num_nodes, jobs, SDPolicyScheduler(config)


@settings(
    max_examples=250,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=count_check_runs())
def test_node_count_check_matches_enumeration_and_full_path(run):
    num_nodes, jobs, scheduler = run
    check_every_select(scheduler.selector)
    simulate(scheduler, num_nodes, jobs)


@pytest.mark.parametrize("max_slowdown, no_mates, decided, pool_builds", [
    # Under MAXSD 10 node counts alone decide every failed selection; under
    # DynAVGSD the cut-off turns the rest down.
    (10.0, 10751, 10751, 943),
    ("dynamic", 16762, 10647, 1022),
])
def test_node_count_check_on_the_guard_input(max_slowdown, no_mates, decided, pool_builds):
    scheduler = make_policy("sd_policy", max_slowdown=max_slowdown)
    answers = check_every_select(scheduler.selector)
    run = runner.run_workload(
        build_workload(4, scale=0.005), policy=scheduler, runtime_model="worst_case",
        malleable_fraction=1.0,
    )
    stats = run.scheduler_stats
    assert len(answers) == stats["rejected_no_mates"] + stats["malleable_starts"]
    assert stats["rejected_no_mates"] == no_mates
    assert answers.count(False) == decided
    # The oracle's extra scans reuse the pool: at most one build per version.
    assert scheduler.selector.pool_builds == pool_builds


def test_extending_a_mate_moves_the_version_and_rekeys_its_release():
    # ``reconfigure_job`` sets the extended requested time before the
    # version moves, so the ends the pool keeps per version never go stale.
    sim = Simulation(Cluster(num_nodes=2, sockets=2, cores_per_socket=4), FCFSScheduler())
    mate = make_job(job_id=1, nodes=1, req_time=1000.0)
    guest = make_job(job_id=2, nodes=1, req_time=600.0)  # worst-case end 1200
    for job in (mate, guest):
        sim.jobs[job.job_id] = job
        sim.pending.add(job)
    sim.start_job_static(mate)
    selector = MateSelector()
    admit_all = StaticMaxSlowdown(math.inf)
    assert not selector.node_counts_can_match(sim, guest)
    assert selector.select(sim, guest, admit_all) is None
    version = sim.allocation_version
    sim.reconfigure_job(mate, dict(mate.assigned_cpus), requested_time=6000.0)
    assert sim.allocation_version > version
    assert sim._releases == [(6000.0, 1)] and sim._release_of == {1: (6000.0, 1)}
    assert selector.node_counts_can_match(sim, guest)
    assert selector.select(sim, guest, admit_all).mates == [mate]


def test_node_count_check_boundaries():
    # A mate ending exactly at the guest's worst-case end is in the window;
    # one mate is never paired with itself.
    sim = Simulation(Cluster(num_nodes=4, sockets=2, cores_per_socket=4), FCFSScheduler())
    mate = make_job(job_id=1, nodes=2, req_time=1200.0)
    pair_guest = make_job(job_id=2, nodes=4, req_time=600.0)
    exact_guest = make_job(job_id=3, nodes=2, req_time=600.0)
    for job in (mate, pair_guest, exact_guest):
        sim.jobs[job.job_id] = job
        sim.pending.add(job)
    sim.start_job_static(mate)
    selector = MateSelector()
    assert selector.node_counts_can_match(sim, exact_guest)
    assert not selector.node_counts_can_match(sim, pair_guest)


@pytest.mark.parametrize("policy, max_slowdown", [
    ("sd_policy", 10.0), ("sd_policy", "dynamic"), ("ub_policy", 10.0),
])
def test_traced_and_untraced_runs_decide_alike(policy, max_slowdown):
    # A trace only records: the traced run takes the untraced run's path,
    # down to the mates it scans and the pools it builds.
    workload = build_workload(4, scale=0.005)
    kwargs = {"runtime_model": "worst_case"}
    if policy == "ub_policy":
        workload = assign_applications(workload)
        kwargs = {"runtime_model": "application_aware", "profiles": "table2"}
    schedulers = [make_policy(policy, max_slowdown=max_slowdown) for _ in range(2)]
    plain, traced = (
        runner.run_workload(
            workload, policy=scheduler, malleable_fraction=1.0, trace=trace, **kwargs,
        )
        for scheduler, trace in zip(schedulers, (False, True))
    )
    assert plain.trace is None and traced.trace is not None
    plain_selector, traced_selector = (scheduler.selector for scheduler in schedulers)
    assert plain_selector.mates_scanned == traced_selector.mates_scanned > 0
    assert plain_selector.pool_builds == traced_selector.pool_builds > 0
    fields = (
        "makespan", "avg_response_time", "avg_slowdown", "avg_wait_time",
        "energy_joules", "malleable_scheduled_jobs", "mate_jobs", "total_events",
        "completed_jobs",
    )
    assert [getattr(plain.result, f) for f in fields] == [
        getattr(traced.result, f) for f in fields
    ]
    assert plain.metrics == traced.metrics
    assert plain.scheduler_stats == traced.scheduler_stats
    assert np.array_equal(plain.records.array, traced.records.array)


# --------------------------------------------------------------------- #
# Pinned scan order and scan work
# --------------------------------------------------------------------- #

#: SHA-256 of the decision traces of paper workload 4 at scale 0.005 (all
#: malleable, MAXSD 10).  They pin every rejection and pairing in order,
#: which no aggregate golden sees.  Re-taken at trace format 3: each
#: format-3 trace equals its format-2 one, first recorded before the mate
#: pool existed, with the version in its header changed and its
#: ``mate_candidate`` lines dropped.
TRACE_DIGESTS = {
    "sd_policy": "42fa5c25ff950e5e692afe933d1e0ccc66b69dfc840190e6734b6489d3309429",
    "ub_policy": "c5b0f80e845147c42e354324e86e11bd16dd8ca4fe6f1d88f75aa896d9f83ff3",
    # First recorded while the static pass still examined its whole window
    # every time; it pins the ``backfill_hole`` events, which no golden sees.
    "static_backfill": "1b9f6eff66ebb930efe87aaf7b0375de083d69d7aa8816d6df540b12e63714b1",
}


def test_traced_runs_are_byte_identical_to_the_pinned_digests():
    workload = build_workload(4, scale=0.005)
    runs = {
        # Worst-case model, penalty-only ordering.
        "sd_policy": (workload, {"runtime_model": "worst_case"}),
        # Table 2 applications: the contention ordering and bandwidth refusals.
        "ub_policy": (
            assign_applications(workload),
            {"runtime_model": "application_aware", "profiles": "table2"},
        ),
    }
    for policy, (jobs, kwargs) in runs.items():
        run = runner.run_workload(
            jobs, policy=policy, malleable_fraction=1.0, max_slowdown=10.0, trace=True,
            **kwargs,
        )
        payload = run.trace.to_bytes()
        assert b'"event":"mate_selected"' in payload
        assert hashlib.sha256(payload).hexdigest() == TRACE_DIGESTS[policy], policy


def test_static_trace_is_byte_identical_to_the_pinned_digest():
    run = runner.run_workload(
        build_workload(4, scale=0.005), policy="static_backfill", malleable_fraction=1.0,
        trace=True,
    )
    payload = run.trace.to_bytes()
    assert b'"event":"backfill_hole"' in payload
    assert hashlib.sha256(payload).hexdigest() == TRACE_DIGESTS["static_backfill"]


def test_mates_scanned_pinned_on_the_guard_curie_input():
    # The benchmark's guard-size curie_sd input.  Scanning all of
    # ``sim.running`` per selection examined 359,452 jobs here, and the
    # cached pool 44,739 before the node-count check skipped the scans of
    # guests no window mates can match.
    scheduler = make_policy("sd_policy", max_slowdown=10.0)
    run = runner.run_workload(
        build_workload(4, scale=0.005), policy=scheduler, runtime_model="worst_case",
        malleable_fraction=1.0,
    )
    assert run.scheduler_stats["rejected_no_mates"] == 10751
    assert scheduler.selector.mates_scanned == 2405
    # One pool, with its ends per node count, per allocation version that
    # a selection asked about; a rebuild per call would make one per
    # selection at least (11,091).
    assert scheduler.selector.pool_builds == 943
