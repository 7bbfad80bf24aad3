// The named-gauge registries that once lived in this package are now
// the one signed telemetry.Gauges. These cases keep their original
// names and check the same behaviour against that type, covering both
// the former unsigned (TestGauges*) and signed (TestIntGauges*) uses.
package stats_test

import (
	"sync"
	"testing"

	"kvdirect/internal/telemetry"
)

func TestGaugesSetGet(t *testing.T) {
	var g telemetry.Gauges
	if got := g.Get("repl.lag"); got != 0 {
		t.Fatalf("unregistered gauge = %d", got)
	}
	g.Set("repl.lag", 7)
	g.Set("repl.lag", 3) // gauges go down, unlike counters
	if got := g.Get("repl.lag"); got != 3 {
		t.Fatalf("lag = %d, want 3", got)
	}
}

func TestGaugesSetMax(t *testing.T) {
	var g telemetry.Gauges
	g.SetMax("repl.lag_max", 5)
	g.SetMax("repl.lag_max", 2)
	g.SetMax("repl.lag_max", 9)
	if got := g.Get("repl.lag_max"); got != 9 {
		t.Fatalf("lag_max = %d, want 9", got)
	}
}

func TestGaugesSnapshotOrderAndString(t *testing.T) {
	var g telemetry.Gauges
	g.Set("test.b", 2)
	g.Set("test.a", 1)
	if s := g.String(); s != "test.b=2\ntest.a=1\n" {
		t.Fatalf("String() = %q, want registration order", s)
	}
}

func TestGaugesConcurrent(t *testing.T) {
	var g telemetry.Gauges
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set("test.x", int64(i))
				g.SetMax("test.x_max", int64(w*1000+i))
				_ = g.Get("test.x")
			}
		}(w)
	}
	wg.Wait()
	if got := g.Get("test.x_max"); got != 7999 {
		t.Fatalf("x_max = %d, want 7999", got)
	}
}

func TestIntGaugesSetGetAdd(t *testing.T) {
	var g telemetry.Gauges
	if got := g.Get("repl.lag"); got != 0 {
		t.Fatalf("unregistered gauge = %d", got)
	}
	g.Set("repl.lag", 7)
	g.Add("repl.lag", -9)
	if got := g.Get("repl.lag"); got != -2 {
		t.Fatalf("lag = %d, want -2", got)
	}
	g.Set("repl.lag", 3)
	if got := g.Get("repl.lag"); got != 3 {
		t.Fatalf("lag = %d, want 3", got)
	}
}

func TestIntGaugesSetMax(t *testing.T) {
	var g telemetry.Gauges
	g.SetMax("repl.lag_max", -5)
	if got := g.Get("repl.lag_max"); got != 0 {
		// A fresh gauge starts at 0; -5 must not raise it.
		t.Fatalf("lag_max = %d, want 0", got)
	}
	g.SetMax("repl.lag_max", 9)
	g.SetMax("repl.lag_max", 2)
	if got := g.Get("repl.lag_max"); got != 9 {
		t.Fatalf("lag_max = %d, want 9", got)
	}
}

func TestIntGaugesSnapshotOrder(t *testing.T) {
	var g telemetry.Gauges
	g.Set("test.b", -2)
	g.Set("test.a", 1)
	if s := g.String(); s != "test.b=-2\ntest.a=1\n" {
		t.Fatalf("String() = %q, want registration order with the negative value", s)
	}
}

func TestIntGaugesConcurrent(t *testing.T) {
	var g telemetry.Gauges
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
}
