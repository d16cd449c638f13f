"""Unit tests for the future-availability profile (ReservationMap)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.reservation import ReservationMap
from tests.conftest import make_job


class TestBasics:
    def test_free_now(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=4)
        assert profile.free_nodes_at(0.0) == 4
        assert profile.earliest_start(4) == 0.0
        assert profile.earliest_start(5) == math.inf

    def test_invalid_free_now(self):
        with pytest.raises(ValueError):
            ReservationMap(total_nodes=4, now=0.0, free_now=5)

    def test_release_increases_future_availability(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=2, releases=[(100.0, 4)])
        assert profile.free_nodes_at(50.0) == 2
        assert profile.free_nodes_at(100.0) == 6
        assert profile.earliest_start(5) == 100.0

    def test_zero_nodes_needed_starts_now(self):
        profile = ReservationMap(total_nodes=10, now=5.0, free_now=0)
        assert profile.earliest_start(0) == 5.0

    def test_request_larger_than_cluster_never_starts(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        assert profile.earliest_start(5) == math.inf

    def test_availability_clamped_to_total(self):
        profile = ReservationMap(
            total_nodes=4, now=0.0, free_now=4, releases=[(10.0, 100)]
        )
        assert profile.free_nodes_at(20.0) == 4


class TestReservations:
    def test_reservation_lands_where_the_probe_found_it(self, monkeypatch):
        profile = ReservationMap(
            total_nodes=6, now=0.0, free_now=1, releases=[(10.0, 2), (20.0, 3)]
        )
        fresh = profile.copy()
        splits = []
        split = ReservationMap._split
        monkeypatch.setattr(
            ReservationMap, "_split", lambda self, time: splits.append(time) or split(self, time)
        )
        start = profile.earliest_start(3, 15.0)
        assert start == 10.0
        profile.add_reservation(start, 15.0, 3)
        assert splits == []  # neither the start nor the end bisected again
        fresh.add_reservation(10.0, 15.0, 3)
        assert profile.profile() == fresh.profile() == [
            (0.0, 1), (10.0, 0), (20.0, 3), (25.0, 6)
        ]
        profile.remove_reservation(10.0, 15.0, 3)
        assert profile.profile() == [(0.0, 1), (10.0, 3), (20.0, 6), (25.0, 6)]

    def test_reservation_blocks_interval(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=10)
        profile.add_reservation(start=100.0, duration=50.0, nodes=8)
        # A short 4-node job fits entirely before the reservation.
        assert profile.earliest_start(4, duration=60.0) == 0.0
        # A 4-node 200s job would overlap the reservation window (where only
        # 2 nodes remain free), so it must start after the reservation ends.
        assert profile.earliest_start(4, duration=200.0) == 150.0
        # Same for an 8-node 200s job.
        assert profile.earliest_start(8, duration=200.0) == 150.0

    def test_duration_window_honoured(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        profile.add_reservation(start=50.0, duration=10.0, nodes=4)
        # Short job fits before the reservation.
        assert profile.earliest_start(4, duration=50.0) == 0.0
        # Longer job would collide, so it starts after the reservation.
        assert profile.earliest_start(4, duration=51.0) == 60.0

    def test_infinite_duration_ignores_window(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=2, releases=[(30.0, 2)])
        assert profile.earliest_start(3, duration=None) == 30.0
        assert profile.earliest_start(3, duration=math.inf) == 30.0

    def test_reservation_with_zero_nodes_is_noop(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        profile.add_reservation(10.0, 10.0, 0)
        assert profile.earliest_start(4) == 0.0

    def test_negative_duration_rejected(self):
        profile = ReservationMap(total_nodes=4, now=10.0, free_now=4)
        with pytest.raises(ValueError):
            profile.add_reservation(20.0, -15.0, 2)
        assert profile.profile() == [(10.0, 4)]

    def test_profile_points_sorted(self):
        profile = ReservationMap(total_nodes=8, now=0.0, free_now=3,
                                 releases=[(50.0, 2), (20.0, 3)])
        points = profile.profile()
        times = [t for t, _ in points]
        assert times == sorted(times)
        assert points[0] == (0.0, 3)


class TestFromRunningJobs:
    def _running_job(self, job_id, start, req_time, nodes):
        job = make_job(job_id=job_id, submit=0.0, nodes=nodes, req_time=req_time,
                       runtime=req_time / 2)
        job.mark_started(start)
        job.reconfigure(start, {n: 8 for n in range(nodes)}, speed=1.0)
        return job

    def test_uses_requested_time_by_default(self):
        job = self._running_job(1, start=0.0, req_time=100.0, nodes=2)
        profile = ReservationMap.from_running_jobs(
            total_nodes=4, now=10.0, free_now=2, running_jobs=[job]
        )
        assert profile.earliest_start(4) == 100.0

    def test_pending_job_ignored(self):
        pending = make_job(job_id=3, nodes=2)
        profile = ReservationMap.from_running_jobs(
            total_nodes=4, now=0.0, free_now=4, running_jobs=[pending]
        )
        assert profile.earliest_start(4) == 0.0


class TestSortedReleasesAndAdvance:
    RELEASES = [(0.0, 1), (5.0, 2), (20.0, 1), (20.0, 3), (50.0, 0), (60.0, 1)]

    def test_sorted_build_equals_the_sorting_constructor(self):
        built = ReservationMap.from_sorted_releases(12, 10.0, 2, self.RELEASES)
        reference = ReservationMap(12, 10.0, 2, list(reversed(self.RELEASES)))
        assert built.profile() == reference.profile() == [(10.0, 5), (20.0, 9), (60.0, 10)]

    @pytest.mark.parametrize("now", [10.0, 15.0, 20.0, 59.0, 60.0, 100.0])
    def test_advance_equals_a_fresh_build(self, now):
        profile = ReservationMap.from_sorted_releases(12, 10.0, 2, self.RELEASES)
        profile.advance(now)
        assert profile.now == now
        assert profile.profile() == ReservationMap(12, now, 2, self.RELEASES).profile()

    def test_advance_refuses_to_move_back(self):
        profile = ReservationMap(4, 10.0, 2)
        with pytest.raises(ValueError):
            profile.advance(5.0)


# --------------------------------------------------------------------- #
# Slow reference oracle
# --------------------------------------------------------------------- #
class NaiveProfile:
    """Deliberately naive profile: a flat ``(time, delta)`` event list.

    ``free(t)`` is recomputed from scratch at every query and
    ``earliest_start`` brute-forces every candidate start in
    ``{now} | event times``.
    """

    def __init__(self, total_nodes, now, free_now):
        self.total_nodes = total_nodes
        self.now = now
        self.free_now = free_now
        self.events = []

    def copy(self):
        clone = NaiveProfile(self.total_nodes, self.now, self.free_now)
        clone.events = list(self.events)
        return clone

    def add_release(self, time, nodes):
        if nodes > 0:
            self.events.append((max(time, self.now), nodes))

    def add_reservation(self, start, duration, nodes):
        if nodes <= 0:
            return
        start = max(start, self.now)
        self.events.append((start, -nodes))
        if math.isfinite(duration):
            self.events.append((start + duration, nodes))

    def remove_reservation(self, start, duration, nodes):
        if nodes <= 0:
            return
        start = max(start, self.now)
        self.events.append((start, nodes))
        if math.isfinite(duration):
            self.events.append((start + duration, -nodes))

    def points(self):
        return sorted({self.now} | {time for time, _ in self.events})

    def free_nodes_at(self, time):
        time = max(time, self.now)
        raw = self.free_now + sum(delta for at, delta in self.events if at <= time)
        return min(max(raw, 0), self.total_nodes)

    def profile(self):
        return [(float(t), self.free_nodes_at(t)) for t in self.points()]

    def earliest_start(self, nodes_needed, duration=None):
        if nodes_needed > self.total_nodes:
            return math.inf
        if nodes_needed <= 0:
            return self.now
        points = self.points()
        for start in points:
            if self.free_nodes_at(start) < nodes_needed:
                continue
            if duration is None or not math.isfinite(duration):
                return float(start)
            if all(
                self.free_nodes_at(t) >= nodes_needed
                for t in points
                if start < t < start + duration
            ):
                return float(start)
        return math.inf


TOTAL = 6
NOW = 10.0
# Few distinct instants, some before NOW, so duplicates are common; the
# durations are differences of those instants, so windows often end exactly
# on a change point.
INSTANTS = st.sampled_from([0.0, 5.0, 10.0, 12.5, 15.0, 20.0, 30.0])
DURATIONS = st.sampled_from([0.0, 2.5, 5.0, 10.0, 17.5, 20.0, math.inf])
# Node counts beyond TOTAL drive counts negative (reservations) or above the
# cluster size (releases); non-positive counts must be no-ops.
NODES = st.integers(-1, 2 * TOTAL)
TARGET = st.integers(0, 7)
# "probe" only looks; "place" reserves where its probe landed, as a
# backfill pass does; "unreserve" gives a slot back.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("release"), TARGET, INSTANTS, NODES),
        st.tuples(st.just("reserve"), TARGET, INSTANTS, DURATIONS, NODES),
        st.tuples(st.just("unreserve"), TARGET, INSTANTS, DURATIONS, NODES),
        st.tuples(st.just("probe"), TARGET, NODES, DURATIONS),
        st.tuples(st.just("place"), TARGET, NODES, DURATIONS),
        st.tuples(st.just("copy"), TARGET),
    ),
    max_size=14,
)


@given(free_now=st.integers(0, TOTAL), operations=OPERATIONS)
@settings(max_examples=500, deadline=None)
def test_profile_matches_naive_reference(free_now, operations):
    pairs = [(ReservationMap(TOTAL, NOW, free_now), NaiveProfile(TOTAL, NOW, free_now))]
    for kind, target, *args in operations:
        fast, slow = pairs[target % len(pairs)]
        if kind == "copy":
            pairs.append((fast.copy(), slow.copy()))
        elif kind == "release":
            fast.add_release(*args)
            slow.add_release(*args)
        elif kind == "reserve":
            fast.add_reservation(*args)
            slow.add_reservation(*args)
        elif kind == "unreserve":
            fast.remove_reservation(*args)
            slow.remove_reservation(*args)
        else:
            nodes, duration = args
            start = fast.earliest_start(nodes, duration)
            assert start == slow.earliest_start(nodes, duration)
            if kind == "place" and math.isfinite(start):
                fast.add_reservation(start, duration, nodes)
                slow.add_reservation(start, duration, nodes)
    for fast, slow in pairs:
        assert fast.profile() == slow.profile()
        probes = [NOW - 1.0] + [t for t, _ in slow.profile()] + [17.0, 100.0]
        for time in probes:
            assert fast.free_nodes_at(time) == slow.free_nodes_at(time)
        for needed in range(0, TOTAL + 2):
            for duration in (None, math.inf, 0.0, 2.5, 5.0, 7.5, 20.0):
                assert fast.earliest_start(needed, duration) == slow.earliest_start(
                    needed, duration
                ), (needed, duration, slow.profile())
