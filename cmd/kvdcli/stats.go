package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
)

// statsTable scrapes telemetry and renders it as a table. The scrape
// goes over the data wire (OpTelemetry) to one server, or — when
// httpAddr is set — over HTTP from a kvdserver -metrics endpoint's
// /debug/telemetry, which merges every replica plus the coordinator
// (the only place migration totals live once a source group is gone).
// With watch it refreshes every second, deriving ops/s from
// successive scrapes.
func statsTable(c *kvnet.Client, watch bool, httpAddr string) error {
	scrape := func() (telemetry.Snapshot, error) {
		if httpAddr == "" {
			return c.ScrapeTelemetry()
		}
		var snap telemetry.Snapshot
		err := getJSON("http://"+httpAddr+"/debug/telemetry", &snap)
		return snap, err
	}
	var prev telemetry.Snapshot
	var prevAt time.Time
	for {
		snap, err := scrape()
		if err != nil {
			return err
		}
		now := time.Now()
		if watch {
			fmt.Print("\033[H\033[2J") // home + clear, like top(1)
		}
		renderStats(os.Stdout, snap, prev, now.Sub(prevAt), !prevAt.IsZero())
		if !watch {
			return nil
		}
		prev, prevAt = snap, now
		time.Sleep(time.Second)
	}
}

func renderStats(out io.Writer, snap, prev telemetry.Snapshot, elapsed time.Duration, havePrev bool) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer w.Flush()

	ops := snap.Counters["server.ops"]
	fmt.Fprintf(w, "server.ops\t%d\n", ops)
	if havePrev && elapsed > 0 {
		rate := float64(ops-prev.Counters["server.ops"]) / elapsed.Seconds()
		fmt.Fprintf(w, "ops/s\t%.0f\n", rate)
	}

	if lat := snap.Histogram("server.op_latency_ns"); lat.Count > 0 {
		fmt.Fprintf(w, "op latency\tp50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
			ns(lat.P50()), ns(lat.P90()), ns(lat.P99()), ns(lat.P999()), ns(lat.Max))
	}
	if b := snap.Histogram("server.batch_ops"); b.Count > 0 {
		fmt.Fprintf(w, "batch size\tp50 %d  p99 %d\n", b.P50(), b.P99())
	}
	if q := snap.Histogram("repl.quorum_wait_ns"); q.Count > 0 {
		fmt.Fprintf(w, "quorum wait\tp50 %s  p99 %s\n", ns(q.P50()), ns(q.P99()))
	}

	if keys, ok := snap.Gauges["core.keys"]; ok {
		fmt.Fprintf(w, "keys\t%d\n", keys)
	}
	hits, misses := snap.Gauges["dram.hits"], snap.Gauges["dram.misses"]
	if hits+misses > 0 {
		fmt.Fprintf(w, "dram hit rate\t%.2f%%\n", 100*float64(hits)/float64(hits+misses))
	}

	if lag, ok := snap.Gauges["repl.lag"]; ok {
		fmt.Fprintf(w, "repl lag\t%d (max %d)\n", lag, snap.Gauges["repl.lag_max"])
	}

	// Migration activity, shown only once a migration has run.
	if started := snap.Counters["repl.migrations"]; started > 0 {
		fmt.Fprintf(w, "migrations\t%d started  %d completed  %d aborted\n",
			started, snap.Counters["repl.migrations_completed"], snap.Counters["repl.migrations_aborted"])
		fmt.Fprintf(w, "migration traffic\t%d entries  %d snapshot(s)  %d catch-up bytes  %d fallbacks\n",
			snap.Counters["repl.migration_entries"], snap.Counters["repl.snapshots_sent"],
			snap.Counters["repl.catchup_bytes"], snap.Counters["repl.snapshot_fallbacks"])
		if lag, ok := snap.Gauges["repl.migration_lag"]; ok && lag > 0 {
			fmt.Fprintf(w, "migration lag\t%d entries behind source\n", lag)
		}
		if d := snap.Histogram("repl.migration_duration_ns"); d.Count > 0 {
			fmt.Fprintf(w, "migration duration\tp50 %s  max %s\n", ns(d.P50()), ns(d.Max))
		}
	}

	// Fault and resilience activity only when something actually fired,
	// so a healthy server's table stays short. The store publishes its
	// ECC and fault-recovery totals as gauges, so both maps are scanned.
	var faults []string
	for name, v := range snap.Counters {
		if v > 0 && isFaultMetric(name) {
			faults = append(faults, fmt.Sprintf("%s=%d", name, v))
		}
	}
	for name, v := range snap.Gauges {
		if v > 0 && isFaultMetric(name) {
			faults = append(faults, fmt.Sprintf("%s=%d", name, v))
		}
	}
	if len(faults) > 0 {
		sort.Strings(faults)
		fmt.Fprintf(w, "faults\t%s\n", strings.Join(faults, " "))
	}
}

func isFaultMetric(name string) bool {
	return strings.HasPrefix(name, "ecc.") ||
		strings.HasPrefix(name, "fault.") ||
		strings.HasSuffix(name, "_injected") ||
		strings.HasSuffix(name, "panics") ||
		strings.HasSuffix(name, "corrupt_frames") ||
		strings.HasSuffix(name, "quorum_failures")
}

// ns renders a nanosecond quantity with a readable unit.
func ns(v uint64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	}
	return fmt.Sprintf("%dns", v)
}
