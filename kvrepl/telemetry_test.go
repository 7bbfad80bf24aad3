package kvrepl

import (
	"testing"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
)

// TestReplicaTelemetry covers the replica's shared-registry wiring: a
// traced write against the primary, assembled from the client's and
// the primary's trace rings, reports the quorum-wait stage and sums to
// exactly the primary store's access-count delta; the wire scrape sees
// replication gauges next to server counters, and the lag gauges are
// signed.
func TestReplicaTelemetry(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prim := g.Primary()
	if prim == nil {
		t.Fatal("no primary")
	}
	c, err := kvnet.Dial(prim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("warm"), []byte("up")); err != nil {
		t.Fatal(err)
	}

	before := prim.Store().Stats()
	res, root, err := c.DoTrace([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("traced"), Value: []byte("write")},
	}, 0, 0)
	after := prim.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK() {
		t.Fatalf("traced put: %+v", res)
	}
	// Assemble from the client's and the primary's rings: client span →
	// primary apply (→ REPL_SHIP spans, which charge no accesses).
	var merged telemetry.Snapshot
	merged.Merge(c.Telemetry().Snapshot())
	merged.Merge(prim.TelemetrySnapshot())
	tr := telemetry.FindTrace(merged.Spans, root.TraceID)
	if tr == nil || len(tr.Roots) != 1 || len(tr.Roots[0].Children) != 1 {
		t.Fatalf("want client span → server span, got %+v", tr)
	}
	server := tr.Roots[0].Children[0].Span
	var sawQuorum bool
	for _, st := range server.Stages {
		if st.Name == "repl.quorum_wait" {
			sawQuorum = true
		}
	}
	if !sawQuorum {
		t.Errorf("traced write missing repl.quorum_wait stage: %+v", server.Stages)
	}
	want := kvdirect.Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts()
	if want.PCIeWrites+want.DRAMLineWrites == 0 {
		t.Errorf("traced write charged no writes: %+v", want)
	}
	if server.Counts != want {
		t.Errorf("server span counts %+v != primary model delta %+v", server.Counts, want)
	}
	if got := tr.Counts(); got != want {
		t.Errorf("trace counts %+v != primary model delta %+v", got, want)
	}

	// The wire scrape merges replication state with server counters and
	// core gauges, all from the one shared registry.
	snap, err := c.ScrapeTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["repl.acks"] == 0 {
		t.Errorf("scrape missing replication counters: %+v", snap.Counters)
	}
	if snap.Counters["server.ops"] == 0 {
		t.Errorf("scrape missing server counters: %+v", snap.Counters)
	}
	if snap.Gauges["core.keys"] == 0 {
		t.Errorf("scrape missing core gauges: %+v", snap.Gauges)
	}
	if _, ok := snap.IntGauges["repl.lag"]; !ok {
		t.Errorf("scrape missing signed repl.lag: %+v", snap.IntGauges)
	}
	if snap.Histogram("repl.quorum_wait_ns").Count == 0 {
		t.Error("quorum wait histogram empty after acked writes")
	}

	// PublishTelemetry refreshes the role frontier for snapshot paths
	// (the HTTP exporter calls it under the pipeline lock).
	prim.PublishTelemetry()
	s := prim.Telemetry().Snapshot()
	if s.IntGauges["repl.applied_seq"] < 2 {
		t.Errorf("repl.applied_seq = %d, want >= 2", s.IntGauges["repl.applied_seq"])
	}
	if s.IntGauges["repl.epoch"] == 0 {
		t.Errorf("repl.epoch missing: %+v", s.IntGauges)
	}
}
