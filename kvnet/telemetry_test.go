package kvnet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kvdirect"
	"kvdirect/internal/telemetry"
)

// TestTracedGetMatchesModelCharges is the acceptance check for the span
// tracer: a traced GET over a real TCP connection must report per-stage
// durations and exactly the PCIe/DRAM access counts the performance
// model charged the server's store for that operation. The trace is
// assembled from the merged client and server snapshots — the same
// path /debug/traces takes — and the whole tree must sum to the model
// delta, not a multiple of it: only the server span carries counts.
func TestTracedGetMatchesModelCharges(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("traced-key"), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	// Counter snapshot before the traced op: the span's counts must
	// equal the model's own delta across it. Nothing else touches the
	// store between the two Stats() reads except the traced GET.
	before := store.Stats()
	res, root, err := c.DoTrace([]kvdirect.Op{{Code: kvdirect.OpGet, Key: []byte("traced-key")}}, 0, 0)
	after := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK() || len(res[0].Value) != 100 {
		t.Fatalf("traced GET result: %+v", res)
	}

	var merged telemetry.Snapshot
	merged.Merge(c.Telemetry().Snapshot())
	merged.Merge(srv.TelemetrySnapshot())
	tr := telemetry.FindTrace(merged.Spans, root.TraceID)
	if tr == nil || len(tr.Roots) != 1 || tr.Roots[0].Span.SpanID != root.SpanID {
		t.Fatalf("trace not assembled under the client span: %+v", tr)
	}
	if tr.Spans != 2 || len(tr.Roots[0].Children) != 1 {
		t.Fatalf("want client span → server span, got %d spans", tr.Spans)
	}
	client, server := tr.Roots[0].Span, tr.Roots[0].Children[0].Span

	want := kvdirect.Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts()
	if server.Counts != want {
		t.Errorf("server span counts %+v != model delta %+v", server.Counts, want)
	}
	if got := tr.Counts(); got != want {
		t.Errorf("trace counts %+v != model delta %+v", got, want)
	}
	if want.PCIeReads+want.DRAMLineReads == 0 {
		t.Error("GET charged no reads at all")
	}

	// Per-stage durations: client measured encode + rtt, server
	// measured decode + apply, and both spans are finished.
	stages := func(s *telemetry.Span) map[string]uint64 {
		m := map[string]uint64{}
		for _, st := range s.Stages {
			m[st.Name] = st.Ns
		}
		return m
	}
	cl := stages(client)
	if _, ok := cl["client.rtt"]; !ok || len(cl) < 2 {
		t.Errorf("client stages missing: %+v", client.Stages)
	}
	sv := stages(server)
	if sv["server.apply"] == 0 {
		t.Errorf("server.apply stage missing or zero: %+v", server.Stages)
	}
	if server.TotalNs == 0 || client.TotalNs == 0 {
		t.Error("span totals not stamped")
	}
	if client.TotalNs < server.TotalNs {
		t.Errorf("client total %d < server total %d", client.TotalNs, server.TotalNs)
	}
	if client.Op != "GET" || server.Op != "GET" {
		t.Errorf("span labels: %q / %q", client.Op, server.Op)
	}
}

// TestMetricsEndpoint is the acceptance check for the HTTP export: a
// loaded server's /metrics must show non-zero p99 latency, and
// /debug/telemetry must be parseable JSON with the same data.
func TestMetricsEndpoint(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 200; i++ {
		key := []byte{byte(i), byte(i >> 8), 'k'}
		if err := c.Put(key, key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(NewTelemetryHandler(srv))
	defer ts.Close()

	resp := httpGet(t, ts.URL+"/metrics")
	if !strings.Contains(resp, `kvd_server_op_latency_ns_quantile{quantile="0.99"}`) {
		t.Fatalf("/metrics missing p99 line:\n%s", resp)
	}
	for _, line := range strings.Split(resp, "\n") {
		if strings.HasPrefix(line, `kvd_server_op_latency_ns_quantile{quantile="0.99"} `) {
			val := strings.TrimPrefix(line, `kvd_server_op_latency_ns_quantile{quantile="0.99"} `)
			if val == "0" {
				t.Fatalf("p99 latency is zero on a loaded server:\n%s", resp)
			}
		}
	}
	if !strings.Contains(resp, "kvd_server_ops 400") {
		t.Errorf("/metrics op counter wrong:\n%s", resp)
	}
	if !strings.Contains(resp, "kvd_core_keys 200") {
		t.Errorf("/metrics missing core gauges:\n%s", resp)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/telemetry")), &snap); err != nil {
		t.Fatalf("/debug/telemetry not JSON: %v", err)
	}
	if snap.Counters["server.ops"] != 400 {
		t.Errorf("JSON snapshot server.ops = %d", snap.Counters["server.ops"])
	}
	if snap.Histogram("server.op_latency_ns").P99() == 0 {
		t.Error("JSON snapshot p99 is zero")
	}
}

// TestWireTelemetryScrape covers the in-protocol scrape path: the same
// snapshot is reachable through OpTelemetry without HTTP.
func TestWireTelemetryScrape(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("w"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	snap, err := c.ScrapeTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.ops"] == 0 {
		t.Errorf("scrape counters: %+v", snap.Counters)
	}
	if snap.Gauges["core.keys"] != 1 {
		t.Errorf("scrape core gauges: %+v", snap.Gauges)
	}
	if snap.Histogram("server.op_latency_ns").Count == 0 {
		t.Error("scrape histogram empty")
	}
	// Client-side registry recorded RTTs independently.
	if c.Telemetry().Histogram("client.rtt_ns").Count() == 0 {
		t.Error("client rtt histogram empty")
	}
}

// TestServerSampledSpans covers server-initiated sampling: with
// TraceSampleEvery set, untraced client traffic populates the trace
// ring, visible in snapshots.
func TestServerSampledSpans(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeOptions(store, "127.0.0.1:0", ServerOptions{TraceSampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		if err := c.Put([]byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.TelemetrySnapshot()
	if len(snap.Spans) == 0 {
		t.Fatal("no sampled spans retained")
	}
	sp := snap.Spans[0]
	if sp.Op != "PUT" || sp.TotalNs == 0 {
		t.Errorf("sampled span: %+v", sp)
	}
	if sp.Counts.PCIeWrites+sp.Counts.DRAMLineWrites == 0 {
		t.Errorf("sampled PUT charged no writes: %+v", sp.Counts)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}
