package main

import (
	"strings"
	"testing"

	"kvdirect/internal/telemetry"
)

// TestRenderStatsFaultsLineIncludesGauges: the store publishes its ECC
// and fault-recovery totals as gauges, so the faults line must scan the
// gauge map as well as the counters.
func TestRenderStatsFaultsLineIncludesGauges(t *testing.T) {
	snap := telemetry.Snapshot{
		Counters: map[string]uint64{"server.ops": 10, "fault.host_bitflip": 2, "server.panics": 0},
		Gauges:   map[string]int64{"ecc.corrected": 3, "fault.retries": 0, "core.keys": 5},
	}
	var b strings.Builder
	renderStats(&b, snap, telemetry.Snapshot{}, 0, false)
	var faults string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "faults") {
			faults = line
		}
	}
	if want := "faults ecc.corrected=3 fault.host_bitflip=2"; strings.Join(strings.Fields(faults), " ") != want {
		t.Fatalf("faults line = %q, want %q\nfull output:\n%s", faults, want, b.String())
	}
}
