package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

var workloads = []string{"read-pipelined", "write-mixed-uniform", "scan-ranges", "gw-replicated"}

// tiny is a run small enough for a unit test: 2% of the keys, a few
// hundred milliseconds of load, one set-up.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0.4, trace: trace,
		scale: 0.02, setups: 1, warm: 50 * time.Millisecond, maxReqs: 4000}
}

// contractMetrics reads the metric names BENCHMARK.json promises.
func contractMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := contractMetrics(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract names %d", w, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// corrupting serves a store but returns one GET value a version stale
// and drops one entry from one scan page.
type corrupting struct {
	s               *kvdirect.Store
	staled, dropped bool
}

func (c *corrupting) ApplyBatch(reqs []wire.Request) []wire.Response {
	resps := c.s.ApplyBatch(reqs)
	for i, r := range reqs {
		switch {
		case r.Op == wire.OpGet && !c.staled && resps[i].Status == wire.StatusOK:
			id, seq, _ := parseValue(resps[i].Value, len(resps[i].Value))
			v := append([]byte(nil), resps[i].Value...)
			stampValue(v, id, seq-1)
			resps[i].Value = v
			c.staled = true
		case r.Op == wire.OpScan && !c.dropped && resps[i].Status == wire.StatusOK:
			entries, cursor, err := wire.DecodeScanPage(resps[i].Value)
			if err != nil || len(entries) < 3 || keyID(entries[1].Key)%2 != 0 {
				continue
			}
			entries = append(entries[:1], entries[2:]...)
			resps[i].Value, _ = wire.EncodeScanPage(entries, cursor)
			c.dropped = true
		}
	}
	return resps
}

func TestCorruptedResultsAreCounted(t *testing.T) {
	for _, w := range []string{"read-pipelined", "scan-ranges"} {
		cfg := tiny(w, false)
		cfg.hook = func(s *kvdirect.Store) kvnet.Backend { return &corrupting{s: s} }
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a stale value and a dropped scan entry went unnoticed (failed=%d of %d)", w, res.Failed, res.Attempted)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := newBench(tiny(w, false))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newBench(tiny(w, false))
		other := tiny(w, false)
		other.seed = 2
		c, _ := newBench(other)
		da, db, dc := streamDigests(a), streamDigests(b), streamDigests(c)
		for i := range da {
			if da[i] != db[i] {
				t.Errorf("%s: stream %d differs between runs of one seed", w, i)
			}
			if da[i] == dc[i] {
				t.Errorf("%s: stream %d identical under another seed", w, i)
			}
		}
	}
}

func streamDigests(b bench) []uint64 {
	var out []uint64
	switch b := b.(type) {
	case *netBench:
		for _, s := range b.streams {
			out = append(out, digest(s))
		}
	case *gwBench:
		for _, t := range b.tenants {
			out = append(out, digest(t.recs))
		}
	}
	return out
}

// With one connection and one caller the op order is fixed, so the
// modeled DMA count per op must repeat exactly.
func TestSingleConnectionAccessesRepeat(t *testing.T) {
	var got []float64
	for i := 0; i < 2; i++ {
		cfg := tiny("write-mixed-uniform", false)
		cfg.conns, cfg.callers, cfg.warm, cfg.maxReqs, cfg.seconds = 1, 1, 0, 200, 30
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("run %d: %d of %d ops failed", i, res.Failed, res.Attempted)
		}
		got = append(got, res.Metrics["model_accesses_per_op"].Value)
	}
	if got[0] != got[1] {
		t.Errorf("model_accesses_per_op %v then %v", got[0], got[1])
	}
}
