package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format. Metric names gain a "kvd_" prefix and dots become
// underscores, so "server.op_latency_ns" exports as
// "kvd_server_op_latency_ns". Histograms emit the classic trio
// (_count, _sum, cumulative _bucket{le=...}) plus precomputed quantile
// lines so a bare curl shows tail latency without a PromQL engine.
func WritePrometheus(w io.Writer, s Snapshot) error {
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	for _, name := range sortedKeys(s.Counters) {
		m := promName(name)
		emit("# TYPE %s counter\n%s %d\n", m, m, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		m := promName(name)
		emit("# TYPE %s gauge\n%s %d\n", m, m, s.Gauges[name])
	}
	for _, h := range s.Histograms {
		m := promName(h.Name)
		emit("# TYPE %s histogram\n", m)
		// Index exemplars by the bucket they landed in so the bucket
		// line for a slow octave carries the trace ID of a real sample
		// (OpenMetrics exemplar syntax: "... # {labels} value").
		exemplars := map[uint64]Exemplar{}
		for _, e := range h.Exemplars {
			exemplars[BucketLow(bucketIndex(e.Value))] = e
		}
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			// le is the bucket's upper bound (exclusive lower bound of
			// the next bucket), which Prometheus treats as inclusive —
			// close enough at 6% bucket resolution.
			hi := b.Low + bucketWidth(bucketIndex(b.Low))
			if e, ok := exemplars[b.Low]; ok {
				emit("%s_bucket{le=\"%d\"} %d # {trace_id=\"%016x\"} %d\n",
					m, hi, cum, e.TraceID, e.Value)
			} else {
				emit("%s_bucket{le=\"%d\"} %d\n", m, hi, cum)
			}
		}
		emit("%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		emit("%s_sum %d\n%s_count %d\n", m, h.Sum, m, h.Count)
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}} {
			emit("%s_quantile{quantile=\"%s\"} %d\n", m, q.label, h.Quantile(q.q))
		}
		emit("%s_max %d\n", m, h.Max)
	}
	return err
}

func promName(name string) string {
	return "kvd_" + strings.ReplaceAll(name, ".", "_")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
