"""repro.obs.tracing — span trees, sampling, CRC discipline, summaries."""

import json
import os

import pytest

from repro import durable
from repro.obs import tracing as T


@pytest.fixture(autouse=True)
def isolated_global_tracer():
    """Tests must not leak a global tracer (or its env mirror) around."""
    saved = T.current_tracer()
    yield
    T.configure(None)
    T._GLOBAL = saved


def decode_trace_line(line):
    """The trace rule: every line must carry a checksum."""
    return durable.decode_line(line, require_crc=True)


class TestLineCodec:
    def test_round_trip(self):
        line = durable.encode_line({"kind": "span", "name": "x", "dur_s": 0.5})
        record, err = decode_trace_line(line)
        assert err is None and record["name"] == "x"
        assert durable.CRC_KEY not in record

    def test_tampered_line_fails_checksum(self):
        line = durable.encode_line({"name": "x", "dur_s": 0.5})
        record, err = decode_trace_line(line.replace("0.5", "9.9"))
        assert record is None and err == "checksum"

    def test_garbage_and_empty(self, tmp_path):
        assert decode_trace_line("not json")[1] == "unparsable"
        assert decode_trace_line("[1, 2]")[1] == "unparsable"
        # blank lines are never decoded: the scan skips them
        path = tmp_path / "t.jsonl"
        path.write_text("\n   \nnot json\n")
        assert [(no, reason) for no, _, _, reason in
                durable.scan(path, require_crc=True)] == [(3, "unparsable")]

    def test_missing_crc_is_a_checksum_failure(self):
        assert decode_trace_line(json.dumps({"name": "x"}))[1] == "checksum"


def read_events(path):
    return list(T.iter_trace(path))


class TestTracer:
    def test_nested_spans_record_depth_and_parent(self, tmp_path):
        tracer = T.Tracer(tmp_path / "t.jsonl")
        with tracer.span("outer", n=3):
            with tracer.span("inner"):
                pass
        tracer.close()
        inner, outer = read_events(tmp_path / "t.jsonl")
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["parent"] is None and outer["attrs"] == {"n": 3}
        assert outer["pid"] == os.getpid()
        assert outer["dur_s"] >= inner["dur_s"] >= 0.0

    def test_exception_marks_the_span_and_propagates(self, tmp_path):
        tracer = T.Tracer(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        tracer.close()
        (event,) = read_events(tmp_path / "t.jsonl")
        assert event["error"] is True

    def test_sample_zero_writes_nothing(self, tmp_path):
        tracer = T.Tracer(tmp_path / "t.jsonl", sample=0.0, seed=1)
        for _ in range(20):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        tracer.close()
        assert not (tmp_path / "t.jsonl").exists()

    def test_sampling_keeps_trees_complete(self, tmp_path):
        tracer = T.Tracer(tmp_path / "t.jsonl", sample=0.5, seed=7)
        for _ in range(40):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        tracer.close()
        events = read_events(tmp_path / "t.jsonl")
        roots = sum(1 for e in events if e["name"] == "root")
        children = sum(1 for e in events if e["name"] == "child")
        # children inherit the root's decision: never an orphan
        assert roots == children
        assert 0 < roots < 40

    def test_torn_tail_is_stitched_and_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = T.Tracer(path)
        with tracer.span("before"):
            pass
        tracer.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "span", "name": "torn')  # killed mid-line
        tracer = T.Tracer(path)
        with tracer.span("after"):
            pass
        tracer.close()
        assert [e["name"] for e in read_events(path)] == ["before", "after"]
        assert T.summarize_trace(path)["skipped_lines"] == 1


class TestGlobalConfiguration:
    def test_span_is_shared_noop_when_unconfigured(self):
        T.configure(None)
        assert T.span("anything", k=1) is T.span("other") is T._NOOP
        with T.span("anything"):
            pass  # must be reentrant and side-effect free

    def test_configure_mirrors_into_environ(self, tmp_path):
        tracer = T.configure(tmp_path / "t.jsonl", sample=0.25)
        assert os.environ[T.ENV_TRACE] == tracer.path
        assert float(os.environ[T.ENV_SAMPLE]) == 0.25
        assert T.current_tracer() is tracer
        T.configure(None)
        assert T.ENV_TRACE not in os.environ
        assert T.current_tracer() is None

    def test_global_span_writes_through_configured_tracer(self, tmp_path):
        T.configure(tmp_path / "t.jsonl")
        with T.span("step", i=1):
            pass
        T.configure(None)
        (event,) = read_events(tmp_path / "t.jsonl")
        assert event["name"] == "step" and event["attrs"] == {"i": 1}

    def test_env_configuration_bootstraps_a_tracer(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(T.ENV_TRACE, str(tmp_path / "env.jsonl"))
        monkeypatch.setenv(T.ENV_SAMPLE, "not-a-float")
        monkeypatch.setattr(T, "_GLOBAL", None)
        T._configure_from_env()
        tracer = T.current_tracer()
        assert tracer is not None and tracer.sample == 1.0
        tracer.close()


class TestSummarize:
    def test_table_sorted_by_total_time(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            for name, dur in (("a", 0.1), ("b", 5.0), ("a", 0.2)):
                fh.write(durable.encode_line(
                    {"kind": "span", "name": name, "dur_s": dur}) + "\n")
        summary = T.summarize_trace(path)
        assert list(summary["spans"]) == ["b", "a"]
        row = summary["spans"]["a"]
        assert row["count"] == 2
        assert row["total_s"] == pytest.approx(0.3)
        assert row["mean_s"] == pytest.approx(0.15)
        assert row["max_s"] == pytest.approx(0.2)
        assert summary["total_events"] == 3
        assert summary["skipped_lines"] == 0

    def test_empty_file_has_no_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert T.summarize_trace(path) == {
            "spans": {}, "total_events": 0, "skipped_lines": 0}


def test_dynamics_run_emits_a_span(tmp_path):
    """The instrumentation seam end-to-end: one run, one dynamics span."""
    from repro.core.dynamics import run_dynamics
    from repro.core.games import SwapGame
    from repro.core.policies import MaxCostPolicy
    from repro.graphs.generators import path_network

    T.configure(tmp_path / "dyn.jsonl")
    try:
        run_dynamics(SwapGame("sum"), path_network(8), MaxCostPolicy(), seed=0)
    finally:
        T.configure(None)
    names = {e["name"] for e in read_events(tmp_path / "dyn.jsonl")}
    assert "dynamics.run" in names
