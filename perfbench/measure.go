package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"kvdirect/internal/telemetry"
)

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu    time.Duration // user + system
	allocs uint64        // heap objects allocated since start
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{cpu: cpu, allocs: heapAllocs()}
}

// sampleBoundaries samples the process counters at the start and end of
// each of clk's sub-windows, or once more and early when done closes.
func sampleBoundaries(clk *clock, done <-chan struct{}) []procSample {
	out := []procSample{sampleProc()}
	for k := 1; k <= clk.n; k++ {
		t := time.NewTimer(time.Until(clk.start.Add(time.Duration(k) * clk.sub)))
		select {
		case <-t.C:
		case <-done:
			t.Stop()
			return append(out, sampleProc())
		}
		out = append(out, sampleProc())
	}
	return out
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// quantile returns the q-quantile of samples (nanoseconds) by the
// nearest-rank method; it sorts samples in place.
func quantile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(samples[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histDelta returns the observations a histogram gained between two
// snapshots, so window percentiles exclude set-up and warm-up traffic.
func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	prev := make(map[uint64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Low] = b.Count
	}
	d := telemetry.HistogramSnapshot{Name: after.Name, Count: after.Count - before.Count,
		Sum: after.Sum - before.Sum, Max: after.Max}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.Low]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.BucketCount{Low: b.Low, Count: n})
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
