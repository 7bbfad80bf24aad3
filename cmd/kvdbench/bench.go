package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"kvdirect"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// benchResult is one row of BENCH_results.json: the machine-readable
// record CI and the EXPERIMENTS log diff against.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

const benchOutFile = "BENCH_results.json"

func toResult(name string, r testing.BenchmarkResult) benchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return benchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     ns,
		OpsPerSec:   ops,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("bench-key-%05d", i%4096)) }
func benchVal() []byte      { return []byte("bench-value-0123456789abcdef") }
func benchCfg() kvdirect.Config {
	return kvdirect.Config{MemoryBytes: 32 << 20}
}

// runBenchmarks measures the replicated-write overhead against the
// single-store baseline: a plain store, then over kvnet alone and with
// a 3-replica quorum-2 group (the full kvrepl path), plus ordered-scan
// throughput. A non-empty filter selects benchmarks by name-substring
// (e.g. "scan").
func runBenchmarks(asJSON bool, filter string) error {
	var results []benchResult
	add := func(name string, fn func(b *testing.B)) {
		if filter != "" && !strings.Contains(name, filter) {
			return
		}
		results = append(results, toResult(name, testing.Benchmark(fn)))
		if !asJSON {
			r := results[len(results)-1]
			fmt.Printf("%-32s %12.0f ns/op %14.0f ops/s %6d allocs/op\n",
				r.Name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
		}
	}

	add("put/single-store", func(b *testing.B) {
		s, err := kvdirect.New(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		v := benchVal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("put/single-store-net", func(b *testing.B) {
		s, err := kvdirect.New(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		srv, err := kvnet.Serve(s, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := kvnet.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		v := benchVal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("put/replicated-3x-quorum2-net", func(b *testing.B) {
		coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{})
		defer coord.Close()
		g, err := kvrepl.StartGroup(coord, 0, 3, benchCfg(), kvrepl.Options{Quorum: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer sc.Close()
		v := benchVal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sc.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("get/single-store", func(b *testing.B) {
		s, err := kvdirect.New(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		v := benchVal()
		for i := 0; i < 4096; i++ {
			if err := s.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(benchKey(i)); !ok {
				b.Fatal("bench key missing")
			}
		}
	})

	// Ordered-scan throughput: 50-entry ranges (the YCSB-E mean) over a
	// preloaded store, direct and through the wire protocol. One op = one
	// 50-entry range, so ops/s here is ranges/s.
	const scanLimit = 50
	add("scan50/single-store", func(b *testing.B) {
		s, err := kvdirect.New(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		v := benchVal()
		for i := 0; i < 4096; i++ {
			if err := s.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, _, err := s.Scan(benchKey(i), scanLimit)
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) == 0 {
				b.Fatal("scan returned nothing")
			}
		}
	})

	add("scan50/single-store-net", func(b *testing.B) {
		s, err := kvdirect.New(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		srv, err := kvnet.Serve(s, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := kvnet.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		v := benchVal()
		for i := 0; i < 4096; i++ {
			if err := c.Put(benchKey(i), v); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, err := c.Scan(benchKey(i), scanLimit)
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) == 0 {
				b.Fatal("scan returned nothing")
			}
		}
	})

	addGatewayBenchmarks(add)

	if !asJSON {
		return nil
	}
	merged := mergeResults(results)
	f, err := os.Create(benchOutFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		_ = f.Close() // encode error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(merged), benchOutFile)
	return nil
}

// mergeResults folds fresh rows into any existing BENCH_results.json by
// name, so a filtered run (e.g. 'bench scan') updates its rows without
// dropping the rest. A missing or unreadable file just means no priors.
func mergeResults(fresh []benchResult) []benchResult {
	data, err := os.ReadFile(benchOutFile)
	if err != nil {
		return fresh
	}
	var prior []benchResult
	if json.Unmarshal(data, &prior) != nil {
		return fresh
	}
	updated := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		updated[r.Name] = true
	}
	out := make([]benchResult, 0, len(prior)+len(fresh))
	for _, r := range prior {
		if !updated[r.Name] {
			out = append(out, r)
		}
	}
	return append(out, fresh...)
}
