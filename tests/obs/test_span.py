"""Span/Tracer unit tests: tree shape, LIFO discipline, null tracer."""

import pytest

from repro.obs.span import NULL_TRACER, NullTracer, Span, Tracer


class TestSpanAttrs:
    def test_set_overwrites(self):
        span = Span(name="s", span_id=1, parent_id=None, tick=0, seq=0)
        span.set(hops=3).set(hops=5, ok=True)
        assert span.attrs == {"hops": 5, "ok": True}

    def test_add_increments_and_creates(self):
        span = Span(name="s", span_id=1, parent_id=None, tick=0, seq=0)
        span.add(hops=2).add(hops=3, probes=1)
        assert span.attrs == {"hops": 5, "probes": 1}

    def test_add_rejects_non_numeric(self):
        span = Span(name="s", span_id=1, parent_id=None, tick=0, seq=0)
        span.set(label="x")
        with pytest.raises(TypeError):
            span.add(label=1)
        with pytest.raises(TypeError):
            span.add(hops=True)


class TestTracer:
    def test_parent_child_links(self):
        tracer = Tracer()
        root = tracer.start("root", tick=3)
        child = tracer.start("child", tick=4)
        tracer.end(child)
        tracer.end(root)
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert [s.seq for s in tracer.spans] == [0, 1]
        assert tracer.current() is None

    def test_span_context_manager_closes(self):
        tracer = Tracer()
        with tracer.span("op", tick=1, hops=0) as span:
            assert tracer.current() is span
        assert tracer.current() is None

    def test_context_manager_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        assert tracer.current() is None

    def test_end_enforces_lifo(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_event_is_point_child(self):
        tracer = Tracer()
        with tracer.span("op") as parent:
            tracer.event("probe", tick=2, node=7)
        event = tracer.spans[-1]
        assert event.event is True
        assert event.parent_id == parent.span_id
        assert event.attrs == {"node": 7}
        # Events never join the open stack.
        assert tracer.current() is None

    def test_roots_children_find(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            tracer.event("e")
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots()] == ["a", "b"]
        assert [s.name for s in tracer.children(a)] == ["e"]
        assert len(tracer.find("e")) == 1

    def test_clear_resets_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []
        assert tracer.start("b").span_id == 1

    def test_clear_refuses_open_spans(self):
        tracer = Tracer()
        tracer.start("open")
        with pytest.raises(RuntimeError):
            tracer.clear()


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("op", hops=1) as span:
            tracer.event("e")
            inner = tracer.start("inner")
            tracer.end(inner)
        assert tracer.spans == []
        assert tracer.current() is None
        assert span is inner  # the shared dummy span

    def test_singleton_is_null(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.spans == []
