package kvgw

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestGatewayTraceAssemblesAcrossHops drives a memcache SET through a
// gateway fronting a replicated shard with sampling on, then scrapes
// /debug/traces exactly like an operator would and asserts one tree
// spans every hop: GW_BATCH root (with the gw.decode stage) → client →
// primary apply → quorum REPL_SHIP spans, whose access counts sum to
// exactly the model delta of the replicas' stores. The /metrics scrape
// must also carry a trace-id exemplar on the gateway's batch histogram.
func TestGatewayTraceAssemblesAcrossHops(t *testing.T) {
	coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{
		LeaseTimeout: 60 * time.Millisecond,
		CheckEvery:   10 * time.Millisecond,
	})
	defer coord.Close()
	g, err := kvrepl.StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 16 << 20}, kvrepl.Options{
		Quorum:         2,
		HeartbeatEvery: 5 * time.Millisecond,
		StreamTimeout:  500 * time.Millisecond,
		AckTimeout:     2 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	reg, err := NewRegistry(twoTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := Serve(sc, reg, "127.0.0.1:0", Options{TraceSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// The scrape merges the same sources a replicated kvdserver wires
	// up: the gateway, every replica, and the loopback client's
	// registry (the middle hop of every assembled trace).
	sources := []kvnet.SnapshotSource{gw, kvnet.RegistrySource(sc.Telemetry())}
	for _, r := range g.Replicas {
		sources = append(sources, r)
	}
	ts := httptest.NewServer(kvnet.NewTelemetrySourcesHandler(sources...))
	defer ts.Close()

	c := rawDial(t, gw.Addr())
	c.mustAuth("acme", "s3cret")
	// The SET is the only batch the group applies: its trace must charge
	// exactly what it cost every replica's store, primary and backups.
	before := make([]kvdirect.Stats, len(g.Replicas))
	for i, r := range g.Replicas {
		before[i] = r.Store().Stats()
	}
	if resp := c.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("traced"))); resp.status != 0 {
		t.Fatalf("set: %#04x", resp.status)
	}

	// The GW_BATCH span publishes with the flush, but the quorum ship
	// spans land after the backups ack; poll the debug endpoint until
	// the tree is complete, both backups' apply spans included.
	var full *telemetry.Trace
	deadline := time.Now().Add(5 * time.Second)
	for full == nil {
		if time.Now().After(deadline) {
			t.Fatal("no complete GW_BATCH trace within 5s")
		}
		for _, tr := range fetchTraces(t, ts.URL) {
			if len(tr.Roots) != 1 || tr.Roots[0].Span.Op != "GW_BATCH" {
				continue
			}
			ships, applies := 0, 0
			tr.Visit(func(n *telemetry.TraceNode) {
				switch n.Span.Op {
				case "REPL_SHIP":
					ships++
				case "REPL_APPLY":
					applies++
				}
			})
			if ships >= 2 && applies >= 2 {
				full = tr
			}
		}
		if full == nil {
			time.Sleep(20 * time.Millisecond)
		}
	}

	root := full.Roots[0]
	if root.Span.Parent != 0 {
		t.Fatalf("GW_BATCH root has parent %08x", root.Span.Parent)
	}
	found := false
	for _, st := range root.Span.Stages {
		if st.Name == "gw.decode" {
			found = true
		}
	}
	if !found {
		t.Fatalf("GW_BATCH span missing gw.decode stage: %+v", root.Span.Stages)
	}
	// Root → client hop → server apply: three levels before the
	// replication fan-out.
	if len(root.Children) != 1 {
		t.Fatalf("GW_BATCH has %d children, want the client hop", len(root.Children))
	}
	client := root.Children[0]
	if len(client.Children) != 1 {
		t.Fatalf("client hop has %d children, want the server apply", len(client.Children))
	}
	var want telemetry.AccessCounts
	for i, r := range g.Replicas {
		after := r.Store().Stats()
		want.Add(kvdirect.Stats{
			Mem:      after.Mem.Sub(before[i].Mem),
			Cache:    after.Cache.Sub(before[i].Cache),
			Dispatch: after.Dispatch.Sub(before[i].Dispatch),
		}.AccessCounts())
	}
	if want == (telemetry.AccessCounts{}) {
		t.Fatal("the SET charged no hardware accesses")
	}
	if got := full.Counts(); got != want {
		t.Fatalf("assembled trace counts %+v, model delta across replicas %+v", got, want)
	}

	// The batch-latency histogram links back to a trace by exemplar.
	metrics := httpGet(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "gw_batch_latency_ns_bucket") {
		t.Fatal("metrics scrape is missing the gateway batch histogram")
	}
	if !strings.Contains(metrics, "# {trace_id=") {
		t.Fatal("metrics scrape carries no trace exemplar")
	}
}

func fetchTraces(t *testing.T, base string) []*telemetry.Trace {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer resp.Body.Close()
	var traces []*telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	return traces
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}
