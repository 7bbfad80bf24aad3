package telemetry

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 10)
	r.Gauges().Set("core.keys", 3)
	r.Gauges().Set("repl.lag", -2)
	r.Histogram("server.op_latency_ns").Observe(1000)
	r.Tracer().SetSampleEvery(1)
	r.Tracer().Publish(r.Tracer().Sample())

	s := r.Snapshot()
	if s.Counters["server.ops"] != 10 {
		t.Errorf("counter: %+v", s.Counters)
	}
	if s.Gauges["core.keys"] != 3 {
		t.Errorf("gauge: %+v", s.Gauges)
	}
	if s.Gauges["repl.lag"] != -2 {
		t.Errorf("gauge survives negative: %+v", s.Gauges)
	}
	if h := s.Histogram("server.op_latency_ns"); h.Count != 1 {
		t.Errorf("histogram: %+v", h)
	}
	if len(s.Spans) != 1 {
		t.Errorf("spans: %d", len(s.Spans))
	}
	if s.Histogram("no.such_metric").Count != 0 {
		t.Error("missing histogram not zero")
	}
}

func TestRegistryHistogramHandleStable(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("test.latency_ns")
	b := r.Histogram("test.latency_ns")
	if a != b {
		t.Fatal("histogram handle not stable")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counters().Add("server.ops", 5)
	b.Counters().Add("server.ops", 7)
	b.Counters().Add("server.panics", 1)
	a.Gauges().Set("repl.lag", 4)
	b.Gauges().Set("repl.lag", -6)
	b.Gauges().Set("repl.lag_max", 9)
	a.Histogram("server.op_latency_ns").Observe(100)
	b.Histogram("server.op_latency_ns").Observe(200)
	b.Histogram("client.rtt_ns").Observe(5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["server.ops"] != 12 || s.Counters["server.panics"] != 1 {
		t.Errorf("merged counters: %+v", s.Counters)
	}
	if s.Gauges["repl.lag"] != -2 || s.Gauges["repl.lag_max"] != 9 {
		t.Errorf("merged gauges: %+v", s.Gauges)
	}
	if h := s.Histogram("server.op_latency_ns"); h.Count != 2 || h.Sum != 300 {
		t.Errorf("merged histogram: %+v", h)
	}
	if h := s.Histogram("client.rtt_ns"); h.Count != 1 {
		t.Errorf("adopted histogram: %+v", h)
	}
	// Merge into a zero-valued snapshot works too.
	var zero Snapshot
	zero.Merge(s)
	if zero.Counters["server.ops"] != 12 {
		t.Error("merge into zero snapshot failed")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 1)
	r.Gauges().Set("repl.lag", -1)
	r.Histogram("server.op_latency_ns").Observe(77)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["server.ops"] != 1 || back.Gauges["repl.lag"] != -1 {
		t.Fatalf("round trip lost scalars: %s", data)
	}
	if h := back.Histogram("server.op_latency_ns"); h.Count != 1 || len(h.Buckets) != 1 {
		t.Fatalf("round trip lost histogram: %s", data)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 42)
	r.Gauges().Set("core.keys", 7)
	r.Gauges().Set("repl.lag", -3)
	h := r.Histogram("server.op_latency_ns")
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v * 100)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE kvd_server_ops counter",
		"kvd_server_ops 42",
		"kvd_core_keys 7",
		"kvd_repl_lag -3",
		"# TYPE kvd_server_op_latency_ns histogram",
		"kvd_server_op_latency_ns_count 100",
		`kvd_server_op_latency_ns_bucket{le="+Inf"} 100`,
		`kvd_server_op_latency_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets are non-decreasing.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "kvd_server_op_latency_ns_bucket{le=\"") &&
			!strings.Contains(line, "+Inf") {
			var n int
			if _, err := fmtSscanfSuffix(line, &n); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if n < last {
				t.Fatalf("cumulative bucket decreased at %q", line)
			}
			last = n
		}
	}
}

// fmtSscanfSuffix parses the trailing integer of a prometheus sample line.
func fmtSscanfSuffix(line string, n *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, errNoValue
	}
	v := 0
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			return 0, errNoValue
		}
		v = v*10 + int(c-'0')
	}
	*n = v
	return 1, nil
}

var errNoValue = errors.New("no trailing integer")
