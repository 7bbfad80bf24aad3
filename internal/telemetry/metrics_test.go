package telemetry

import (
	"sync"
	"testing"
)

func TestCountersAddGet(t *testing.T) {
	var c Counters
	if got := c.Get("server.ops"); got != 0 {
		t.Fatalf("unregistered counter = %d", got)
	}
	c.Add("server.ops", 3)
	c.Counter("server.ops").Add(2)
	if got := c.Get("server.ops"); got != 5 {
		t.Fatalf("server.ops = %d, want 5", got)
	}
	if c.Counter("server.ops") != c.Counter("server.ops") {
		t.Fatal("counter handle not stable")
	}
}

func TestCountersOrderAndString(t *testing.T) {
	var c Counters
	c.Add("test.b", 2)
	c.Add("test.a", 1)
	c.Add("test.b", 1)
	if got, want := c.String(), "test.b=3\ntest.a=1\n"; got != want {
		t.Fatalf("String() = %q, want %q (registration order)", got, want)
	}
}

func TestGaugesNegativeLevels(t *testing.T) {
	// Regression: replication lag computed as primary-seq minus acked-seq
	// can transiently go negative when an ack races local bookkeeping.
	// An unsigned gauge wraps that to ~1.8e19; the gauge must report the
	// negative value as itself, in Get, String and a snapshot.
	r := NewRegistry()
	primarySeq, ackedSeq := int64(100), int64(103)
	r.Gauges().Set("repl.lag", primarySeq-ackedSeq)
	if got := r.Gauges().Get("repl.lag"); got != -3 {
		t.Fatalf("negative lag = %d, want -3", got)
	}
	if s := r.Gauges().String(); s != "repl.lag=-3\n" {
		t.Fatalf("String() = %q", s)
	}
	if got := r.Snapshot().Gauges["repl.lag"]; got != -3 {
		t.Fatalf("snapshot lag = %d, want -3", got)
	}
}

func TestGaugesSetGetAdd(t *testing.T) {
	var g Gauges
	if got := g.Get("repl.lag"); got != 0 {
		t.Fatalf("unregistered gauge = %d", got)
	}
	g.Set("repl.lag", 7)
	g.Add("repl.lag", -9)
	if got := g.Get("repl.lag"); got != -2 {
		t.Fatalf("lag = %d, want -2", got)
	}
	g.Set("repl.lag", 3) // gauges go down and up, unlike counters
	if got := g.Get("repl.lag"); got != 3 {
		t.Fatalf("lag = %d, want 3", got)
	}
}

func TestGaugesSetMax(t *testing.T) {
	var g Gauges
	g.SetMax("repl.lag_max", -5)
	if got := g.Get("repl.lag_max"); got != 0 {
		// A fresh gauge starts at 0; -5 must not raise it.
		t.Fatalf("lag_max = %d, want 0", got)
	}
	g.SetMax("repl.lag_max", 5)
	g.SetMax("repl.lag_max", 2)
	g.SetMax("repl.lag_max", 9)
	if got := g.Get("repl.lag_max"); got != 9 {
		t.Fatalf("lag_max = %d, want 9", got)
	}
}

func TestGaugesOrderAndString(t *testing.T) {
	var g Gauges
	g.Set("test.b", -2)
	g.Set("test.a", 1)
	g.Set("test.b", 2)
	if got, want := g.String(), "test.b=2\ntest.a=1\n"; got != want {
		t.Fatalf("String() = %q, want %q (registration order)", got, want)
	}
}

func TestGaugesConcurrent(t *testing.T) {
	var g Gauges
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set("test.x", int64(i-500))
				g.SetMax("test.x_max", int64(w*1000+i))
				g.Add("test.net", 1)
				g.Add("test.net", -1)
				c.Add("test.n", 1)
				_ = g.Get("test.x")
			}
		}(w)
	}
	wg.Wait()
	if got := g.Get("test.x_max"); got != 7999 {
		t.Fatalf("x_max = %d, want 7999", got)
	}
	if got := g.Get("test.net"); got != 0 {
		t.Fatalf("balanced adds = %d, want 0", got)
	}
	if got := c.Get("test.n"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}
