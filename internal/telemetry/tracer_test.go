package telemetry

import (
	"encoding/json"
	"errors"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer()
	if tr.Sample() != nil {
		t.Fatal("sampling off but Sample returned a span")
	}
	tr.SetSampleEvery(4)
	var sampled int
	for i := 0; i < 100; i++ {
		if s := tr.Sample(); s != nil {
			sampled++
			tr.Publish(s)
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling over 100 ops gave %d spans", sampled)
	}
	if tr.Published() != 25 {
		t.Fatalf("published = %d", tr.Published())
	}
	tr.SetSampleEvery(0)
	if tr.Sample() != nil {
		t.Fatal("sampling re-disabled but Sample returned a span")
	}
}

func TestNilSpanSafe(t *testing.T) {
	// The untraced hot path threads a nil span everywhere; every method
	// must be a no-op, not a panic.
	var s *Span
	s.SetOp("get", 1)
	s.AddStage("x", 10)
	s.AddCounts(AccessCounts{PCIeReads: 1})
	s.SetErr(errors.New("boom"))
	s.Finish()
	st := s.StartStage("y")
	st.End()
	var tr *Tracer
	tr.Publish(s)
	if tr.Spans() != nil || tr.Published() != 0 {
		t.Fatal("nil tracer not inert")
	}
}

func TestSpanStagesAndCounts(t *testing.T) {
	tr := NewTracer()
	s := tr.StartTrace(NewTraceID(), 0)
	s.SetOp("get", 1)
	st := s.StartStage("server.apply")
	st.End()
	s.AddStage("core.apply", 123)
	s.AddCounts(AccessCounts{PCIeReads: 2, DRAMHits: 1})
	s.AddCounts(AccessCounts{PCIeReads: 1, DRAMMisses: 3})
	s.SetErr(nil) // nil error must not set Err
	tr.Publish(s)

	got := tr.Spans()
	if len(got) != 1 {
		t.Fatalf("spans = %d", len(got))
	}
	sp := got[0]
	if sp.Op != "get" || sp.Ops != 1 {
		t.Errorf("op label %q/%d", sp.Op, sp.Ops)
	}
	if len(sp.Stages) != 2 || sp.Stages[0].Name != "server.apply" || sp.Stages[1].Ns != 123 {
		t.Errorf("stages = %+v", sp.Stages)
	}
	if sp.Counts.PCIeReads != 3 || sp.Counts.DRAMHits != 1 || sp.Counts.DRAMMisses != 3 {
		t.Errorf("counts = %+v", sp.Counts)
	}
	if sp.Err != "" {
		t.Errorf("err = %q", sp.Err)
	}
	if sp.TotalNs == 0 {
		t.Error("TotalNs not stamped by Publish")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer()
	tr.SetSampleEvery(1)
	for i := 0; i < tracerRing+10; i++ {
		s := tr.Sample()
		s.SetOp("op", i)
		tr.Publish(s)
	}
	spans := tr.Spans()
	if len(spans) != tracerRing {
		t.Fatalf("retained %d spans, want %d", len(spans), tracerRing)
	}
	// Oldest first: the first retained span is number 10.
	if spans[0].Ops != 10 || spans[len(spans)-1].Ops != tracerRing+9 {
		t.Fatalf("ring order wrong: first=%d last=%d", spans[0].Ops, spans[len(spans)-1].Ops)
	}
	if tr.Published() != tracerRing+10 {
		t.Fatalf("published = %d", tr.Published())
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	s := &Span{TraceID: 7, SpanID: 3, Parent: 1,
		Op: "get", Ops: 1, TotalNs: 555,
		Stages: []Stage{{Name: "server.apply", Ns: 400}},
		Counts: AccessCounts{PCIeReads: 2, DRAMHits: 1},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != "get" || back.Counts.PCIeReads != 2 || back.TraceID != 7 ||
		back.SpanID != 3 || back.Parent != 1 || back.Stages[0].Ns != 400 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
