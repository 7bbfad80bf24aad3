package telemetry

import (
	"strings"
	"testing"
)

func TestAssembleTraces(t *testing.T) {
	trace := NewTraceID()
	root := &Span{TraceID: trace, SpanID: 1, Op: "GW_BATCH"}
	client := &Span{TraceID: trace, SpanID: 2, Parent: 1, Op: "PUT"}
	server := &Span{TraceID: trace, SpanID: 3, Parent: 2, Op: "server"}
	ship := &Span{TraceID: trace, SpanID: 4, Parent: 3, Op: "REPL_SHIP"}

	// Each hop's ring contributes its own spans, in any order; a span
	// seen twice (one ring merged from two sources) is one node.
	spans := []*Span{ship, server, root, client, server, {Op: "untraced sample"}}
	traces := AssembleTraces(spans, 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != trace || tr.Spans != 4 {
		t.Fatalf("trace = %+v, want 4 spans under %x", tr, trace)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Span != root {
		t.Fatalf("want the gateway span as sole root, got %d roots", len(tr.Roots))
	}
	var ops []string
	tr.Visit(func(n *TraceNode) { ops = append(ops, n.Span.Op) })
	joined := strings.Join(ops, ",")
	if joined != "GW_BATCH,PUT,server,REPL_SHIP" {
		t.Fatalf("depth-first walk = %q", joined)
	}
}

func TestAssembleTracesPartialTree(t *testing.T) {
	trace := NewTraceID()
	// The root was evicted from its ring; two disconnected fragments
	// survive. Both must surface as roots of one well-formed trace.
	apply := &Span{TraceID: trace, SpanID: 10, Parent: 99, Op: "apply"}
	ship := &Span{TraceID: trace, SpanID: 11, Parent: 10, Op: "ship"}
	orphan := &Span{TraceID: trace, SpanID: 12, Parent: 77, Op: "orphan"}
	traces := AssembleTraces([]*Span{apply, ship, orphan}, 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Roots) != 2 {
		t.Fatalf("got %d roots, want 2 (apply-subtree and orphan)", len(tr.Roots))
	}
	if tr.Spans != 3 {
		t.Fatalf("Spans = %d, want 3", tr.Spans)
	}
	if len(tr.Roots[0].Children) != 1 || tr.Roots[0].Children[0].Span != ship {
		t.Fatal("ship span not linked under apply")
	}
}

func TestAssembleTracesLimit(t *testing.T) {
	var spans []*Span
	var last uint64
	for i := 0; i < 5; i++ {
		last = NewTraceID()
		spans = append(spans, &Span{TraceID: last, SpanID: NewSpanID()})
	}
	traces := AssembleTraces(spans, 2)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[1].TraceID != last {
		t.Fatal("limit did not keep the most recent traces")
	}
	if FindTrace(spans, last) == nil {
		t.Fatal("FindTrace missed a present trace")
	}
	if FindTrace(spans, 0xDEAD) != nil {
		t.Fatal("FindTrace invented a trace")
	}
}

func TestTraceCounts(t *testing.T) {
	trace := NewTraceID()
	a := &Span{TraceID: trace, SpanID: 1, Counts: AccessCounts{PCIeReads: 3}}
	b := &Span{TraceID: trace, SpanID: 2, Parent: 1, Counts: AccessCounts{PCIeReads: 4, DRAMHits: 1}}
	tr := FindTrace([]*Span{a, b}, trace)
	if got := tr.Counts(); got.PCIeReads != 7 || got.DRAMHits != 1 {
		t.Fatalf("Counts() = %+v", got)
	}
}

func TestSpanTraceIdentity(t *testing.T) {
	var nilSpan *Span
	if id, sp := nilSpan.Trace(); id != 0 || sp != 0 {
		t.Fatal("nil span has a trace identity")
	}
	nilSpan.BeginTrace(1, 2) // must not panic

	tr := NewTracer()
	s := tr.StartTrace(55, 7)
	if s.TraceID != 55 || s.Parent != 7 || s.SpanID == 0 {
		t.Fatalf("StartTrace span = %+v", s)
	}
	s2 := tr.StartTrace(55, s.SpanID)
	if s2.SpanID == s.SpanID {
		t.Fatal("span IDs not unique")
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("trace IDs not unique")
	}
}
