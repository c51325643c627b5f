"""The tracing subsystem: spans, metering, sinks, rendering."""

import time

import pytest

from repro.core.observe import (
    NO_TRACE,
    Span,
    Tracer,
    render_profile,
    summarize_operators,
    traced,
)


class TestSpan:
    def test_child_attaches(self):
        root = Span("root")
        child = root.child("scan", table="DPH")
        assert root.children == [child]
        assert child.attrs == {"table": "DPH"}

    def test_counters(self):
        span = Span("op")
        span.inc("rows_out", 3)
        span.inc("rows_out", 2)
        span.set("mode", "hash")
        assert span.attrs == {"rows_out": 5, "mode": "hash"}

    def test_timing_is_cumulative(self):
        span = Span("op")
        with span:
            time.sleep(0.001)
        first = span.seconds
        assert first > 0
        with span:
            time.sleep(0.001)
        assert span.seconds > first

    def test_meter_counts_and_times(self):
        span = Span("op")
        chunks = list(span.meter_batches(iter([[1, 2], [3]])))
        assert chunks == [[1, 2], [3]]
        assert span.attrs["rows_out"] == 3
        assert span.seconds >= 0

    def test_meter_partial_consumption_finalizes_on_close(self):
        span = Span("op")
        iterator = span.meter_batches(iter([[i, i] for i in range(10)]))
        next(iterator)
        next(iterator)
        iterator.close()
        assert span.attrs["rows_out"] == 4

    def test_count_only_counts(self):
        span = Span("op")
        assert list(span.count_batches(iter(["ab", "c"]), "rows_in")) == ["ab", "c"]
        assert span.attrs == {"rows_in": 3}
        assert span.seconds == 0

    def test_walk_depth_first(self):
        root = Span("a")
        b = root.child("b")
        b.child("c")
        root.child("d")
        assert [(d, s.name) for d, s in root.walk()] == [
            (0, "a"), (1, "b"), (2, "c"), (1, "d"),
        ]

    def test_find_matches_prefix_word(self):
        root = Span("root")
        root.child("seq-scan DPH")
        assert root.find("seq-scan DPH").name == "seq-scan DPH"
        assert root.find("root") is root
        assert root.find("missing") is None

    def test_to_dict_round_trips_structure(self):
        root = Span("root")
        root.child("op").inc("rows_out", 1)
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["children"][0]["attrs"] == {"rows_out": 1}


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer("query")
        with tracer.span("compile"):
            with tracer.span("parse"):
                pass
            with tracer.span("plan"):
                pass
        with tracer.span("execute"):
            pass
        names = [(d, s.name) for d, s in tracer.root.walk()]
        assert names == [
            (0, "query"), (1, "compile"), (2, "parse"),
            (2, "plan"), (1, "execute"),
        ]

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current is tracer.root
        with tracer.span("outer") as outer:
            assert tracer.current is outer
        assert tracer.current is tracer.root

    def test_finish_delivers_root_to_sinks(self):
        seen = []
        tracer = Tracer("query", sinks=[seen.append])
        tracer.add_sink(seen.append)
        root = tracer.finish()
        assert seen == [root, root]


class TestSummaries:
    def _trace(self):
        root = Span("query")
        execute = root.child("execute")
        scan = execute.child("seq-scan DPH")
        scan.set("rows_out", 7)
        fltr = execute.child("filter")
        fltr.set("rows_in", 7)
        fltr.set("rows_out", 2)
        root.child("decode")  # no row counters: not an operator
        return root

    def test_summarize_operators_selects_row_spans(self):
        ops = summarize_operators(self._trace())
        assert [o["operator"] for o in ops] == ["seq-scan DPH", "filter"]
        assert ops[1] == {
            "operator": "filter", "depth": 2, "seconds": 0.0,
            "rows_in": 7, "rows_out": 2,
        }

    def test_summarize_sums_split_rows_in(self):
        root = Span("query")
        join = root.child("hash-join")
        join.set("rows_in_left", 3)
        join.set("rows_in_right", 4)
        join.set("rows_out", 5)
        (op,) = summarize_operators(root)
        assert op["rows_in"] == 7 and op["rows_out"] == 5

    def test_render_profile_shows_tree_and_attrs(self):
        text = render_profile(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any("seq-scan DPH" in line and "rows_out=7" in line
                   for line in lines)
        assert all(line.rstrip().endswith("ms") for line in lines)

    def test_render_profile_expands_list_attrs(self):
        root = Span("execute")
        eqp = root.child("explain-query-plan")
        eqp.set("plan", ["SCAN T", "USING INDEX i"])
        text = render_profile(root)
        assert "| SCAN T" in text and "| USING INDEX i" in text


class TestNoTrace:
    def test_answers_the_span_and_tracer_surface(self):
        assert NO_TRACE.child("scan", table="DPH") is NO_TRACE
        assert NO_TRACE.span("parse") is NO_TRACE
        with NO_TRACE.span("execute") as span:
            span.set("rows_out", 3)
            span.inc("rows_in")
        assert span is NO_TRACE

    def test_metering_returns_the_input(self):
        chunks = iter([[1], [2]])
        assert NO_TRACE.meter_batches(chunks) is chunks
        assert NO_TRACE.count_batches(chunks, "rows_in") is chunks

    def test_does_not_swallow_errors(self):
        with pytest.raises(KeyError):
            with NO_TRACE.span("execute"):
                raise KeyError("boom")

    def test_traced_normalises_none_only(self):
        tracer = Tracer()
        assert traced(None) is NO_TRACE
        assert traced(tracer) is tracer
