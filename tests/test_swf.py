"""Tests for the Standard Workload Format parser/writer."""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads.job_record import JobRecord, Workload
from repro.workloads.swf import SWFFormatError, read_swf, write_swf

SAMPLE_SWF = """\
; Version: 2.2
; MaxNodes: 64
; MaxProcs: 512
1 0 5 100 8 -1 -1 8 200 -1 1 10 2 3 1 1 -1 -1
2 50 -1 60 16 -1 -1 16 120 -1 1 11 2 4 1 1 -1 -1
3 80 0 0 8 -1 -1 8 100 -1 0 12 2 5 1 1 -1 -1
"""


class TestReadSWF:
    def test_parses_jobs_and_header(self):
        wl = read_swf(io.StringIO(SAMPLE_SWF), name="sample", cpus_per_node=8)
        assert wl.name == "sample"
        assert wl.system_nodes == 64
        # Job 3 has run_time 0 (cancelled) and is dropped.
        assert len(wl) == 2
        first = wl.records[0]
        assert first.job_id == 1
        assert first.run_time == 100.0
        assert first.requested_time == 200.0
        assert first.requested_procs == 8
        assert first.user_id == 10

    def test_system_nodes_override(self):
        wl = read_swf(io.StringIO(SAMPLE_SWF), system_nodes=16)
        assert wl.system_nodes == 16

    def test_max_jobs_limit(self):
        wl = read_swf(io.StringIO(SAMPLE_SWF), max_jobs=1)
        assert len(wl) == 1

    def test_short_line_rejected(self):
        with pytest.raises(SWFFormatError):
            read_swf(io.StringIO("1 2 3\n"))

    @pytest.mark.parametrize(
        "index, text, field",
        [
            (1, "x", "submit time"),  # non-numeric
            (3, "inf", "run time"),  # would crash later as a non-finite end
            (1, "nan", "submit time"),  # used to become 0.0 silently
        ],
    )
    def test_bad_field_names_line_and_field(self, index, text, field):
        fields = "1 0 5 100 8 -1 -1 8 200 -1 1 10 2 3 1 1 -1 -1".split()
        fields[index] = text
        log = "; Version: 2.2\n" + " ".join(fields) + "\n"
        with pytest.raises(SWFFormatError, match=f"line 2: field '{field}' is '{text}'"):
            read_swf(io.StringIO(log))

    def test_system_size_inferred_from_jobs_without_header(self):
        text = "1 0 5 100 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n"
        wl = read_swf(io.StringIO(text), cpus_per_node=8)
        assert wl.system_nodes == 4

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(SAMPLE_SWF)
        wl = read_swf(path)
        assert len(wl) == 2
        assert wl.name == "log.swf"


class TestWriteSWF:
    def _workload(self):
        records = [
            JobRecord(job_id=1, submit_time=0.0, run_time=100.0, requested_time=200.0,
                      requested_procs=8, user_id=3, group_id=4),
            JobRecord(job_id=2, submit_time=60.0, run_time=30.0, requested_time=60.0,
                      requested_procs=16, user_id=5, group_id=6),
        ]
        return Workload("out", records, system_nodes=8, cpus_per_node=8)

    def test_roundtrip_preserves_fields(self):
        buffer = io.StringIO()
        write_swf(self._workload(), buffer)
        buffer.seek(0)
        back = read_swf(buffer, cpus_per_node=8)
        assert len(back) == 2
        assert back.system_nodes == 8
        for orig, parsed in zip(self._workload().records, back.records):
            assert parsed.job_id == orig.job_id
            assert parsed.run_time == orig.run_time
            assert parsed.requested_time == orig.requested_time
            assert parsed.requested_procs == orig.requested_procs
            assert parsed.user_id == orig.user_id

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "out.swf"
        write_swf(self._workload(), path, comments=["generated in a test"])
        text = path.read_text()
        assert "; generated in a test" in text
        assert "; MaxNodes: 8" in text

    def test_generator_workload_roundtrip(self, tiny_workload):
        buffer = io.StringIO()
        write_swf(tiny_workload, buffer)
        buffer.seek(0)
        back = read_swf(buffer, cpus_per_node=tiny_workload.cpus_per_node)
        assert len(back) == len(tiny_workload)

    def test_extra_fields_written_out(self):
        """Fields 5/6/9 come from extra, not hard-coded -1 (regression)."""
        record = JobRecord(
            job_id=1, submit_time=0.0, run_time=100.0, requested_time=200.0,
            requested_procs=8,
            extra={"avg_cpu_time": 42.5, "used_memory": 1024.0, "requested_memory": 2048.0},
        )
        buffer = io.StringIO()
        write_swf(Workload("x", [record], system_nodes=8, cpus_per_node=8), buffer)
        line = [l for l in buffer.getvalue().splitlines() if not l.startswith(";")][0]
        fields = line.split()
        assert fields[5] == "42.5"
        assert fields[6] == "1024"
        assert fields[9] == "2048"


# ----------------------------------------------------------------------- #
# Property test: read ↔ write ↔ read round trips over randomized workloads
# ----------------------------------------------------------------------- #
_times = st.floats(min_value=0.0, max_value=1e7, allow_nan=False,
                   allow_infinity=False, width=32)
_positive_times = st.floats(min_value=0.5, max_value=1e7, allow_nan=False,
                            allow_infinity=False, width=32)
_memory = st.one_of(st.just(-1.0), st.floats(min_value=0.0, max_value=1e6,
                                             allow_nan=False, width=32))


@st.composite
def _job_records(draw, job_id):
    run_time = draw(_positive_times)
    return JobRecord(
        job_id=job_id,
        submit_time=draw(_times),
        run_time=run_time,
        requested_time=draw(_positive_times),
        requested_procs=draw(st.integers(min_value=1, max_value=256)),
        user_id=draw(st.integers(min_value=0, max_value=500)),
        group_id=draw(st.integers(min_value=0, max_value=50)),
        executable=draw(st.integers(min_value=0, max_value=99)),
        status=draw(st.integers(min_value=0, max_value=5)),
        wait_time=draw(st.one_of(st.just(-1.0), _times)),
        used_procs=draw(st.integers(min_value=-1, max_value=256)),
        extra={
            "avg_cpu_time": draw(st.one_of(st.just(-1.0), _positive_times)),
            "used_memory": draw(_memory),
            "requested_memory": draw(_memory),
            "queue": float(draw(st.integers(min_value=-1, max_value=9))),
            "partition": float(draw(st.integers(min_value=-1, max_value=9))),
            "preceding_job": float(draw(st.integers(min_value=-1, max_value=100))),
            "think_time": float(draw(st.integers(min_value=-1, max_value=3600))),
        },
    )


@st.composite
def _workloads(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    records = [draw(_job_records(job_id=i + 1)) for i in range(count)]
    return Workload(
        name="prop",
        records=records,
        system_nodes=draw(st.integers(min_value=1, max_value=128)),
        cpus_per_node=draw(st.sampled_from([8, 16, 48])),
    )


class TestRoundTripProperty:
    @given(workload=_workloads())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_read_write_read_round_trip(self, workload):
        """write → read preserves every first-class field and the extras,
        and a second write → read cycle is a fixed point."""
        first = io.StringIO()
        write_swf(workload, first)
        first.seek(0)
        once = read_swf(first, cpus_per_node=workload.cpus_per_node)
        assert len(once) == len(workload)
        assert once.system_nodes == workload.system_nodes
        for orig, parsed in zip(workload.records, once.records):
            assert parsed.job_id == orig.job_id
            assert parsed.submit_time == orig.submit_time
            assert parsed.run_time == orig.run_time
            assert parsed.requested_time == orig.requested_time
            assert parsed.requested_procs == orig.requested_procs
            assert parsed.user_id == orig.user_id
            assert parsed.group_id == orig.group_id
            assert parsed.executable == orig.executable
            # The satellite fix: the archive's optional fields round-trip
            # instead of collapsing to -1.
            for key in ("avg_cpu_time", "used_memory", "requested_memory",
                        "queue", "partition", "preceding_job", "think_time"):
                assert parsed.extra[key] == orig.extra[key], key
        second = io.StringIO()
        write_swf(once, second)
        second.seek(0)
        twice = read_swf(second, cpus_per_node=workload.cpus_per_node)
        assert [r.__dict__ for r in twice.records] == [r.__dict__ for r in once.records]


class TestStreamingSWF:
    """The streaming pass (`iter_swf`/`summarize_swf`) must agree exactly
    with materialising the workload and calling `describe()`."""

    def test_iter_swf_matches_read_swf(self):
        from repro.workloads.swf import iter_swf

        records = list(iter_swf(io.StringIO(SAMPLE_SWF)))
        wl = read_swf(io.StringIO(SAMPLE_SWF))
        assert [r.job_id for r in records] == [r.job_id for r in wl.records]

    def test_iter_swf_collects_header_and_honours_max_jobs(self):
        from repro.workloads.swf import iter_swf

        header = {}
        records = list(iter_swf(io.StringIO(SAMPLE_SWF), max_jobs=1, header=header))
        assert len(records) == 1
        assert header == {"nodes": 64, "procs": 512}

    def test_summarize_matches_describe_bit_identically(self):
        from repro.workloads.swf import summarize_swf

        assert (
            summarize_swf(io.StringIO(SAMPLE_SWF))
            == read_swf(io.StringIO(SAMPLE_SWF)).describe()
        )

    def test_summarize_matches_describe_on_generated_log(self):
        from repro.workloads.cirne import CirneWorkloadModel
        from repro.workloads.swf import summarize_swf

        wl = CirneWorkloadModel(
            num_jobs=200, system_nodes=32, cpus_per_node=8, max_job_nodes=16,
            target_load=1.0, median_runtime_s=1800.0, seed=3, name="stream",
        ).generate()
        buf = io.StringIO()
        write_swf(wl, buf)
        text = buf.getvalue()
        described = read_swf(io.StringIO(text)).describe()
        summarized = summarize_swf(io.StringIO(text))
        assert summarized == described
        # Bounded reads agree too (the iterator caps *yielded* records,
        # exactly like read_swf caps kept ones).
        assert summarize_swf(io.StringIO(text), max_jobs=37) == read_swf(
            io.StringIO(text), max_jobs=37
        ).describe()

    def test_summarize_empty_log(self):
        from repro.workloads.swf import summarize_swf

        assert summarize_swf(io.StringIO("; MaxNodes: 4\n")) == {"jobs": 0}
