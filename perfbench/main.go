// Command perfbench is the repository benchmark: one seeded workload
// driven against the real stack (kvgw → kvnet → wire → core → kvrepl)
// over loopback TCP, with every result checked.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the window untraced and half with timing shims around each
// layer's public calls, replays the traced batches through the codec
// and a twin store, and prints the per-layer metrics and the layer
// ledger. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"kvdirect"
	"kvdirect/internal/model"
	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
)

// config is one run's settings. The command line sets only the first four;
// the rest let the benchmark's own tests shrink a run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	scale   float64       // multiplies key counts (1 = full size)
	setups  int           // set-ups timed; setup_s is their median
	warm    time.Duration // load before the measured window
	maxReqs int           // cap on requests per caller stream, 0 = sized from the rate cap
	conns   int           // overrides the spec's connection count
	callers int           // overrides the spec's callers per connection
	// hook, when set, serves the store through a wrapping backend
	// (tests use it to corrupt results).
	hook func(*kvdirect.Store) kvnet.Backend
}

func defaultConfig(workload string, seed int64, seconds float64, trace bool) config {
	warm := time.Second
	if seconds < 10 {
		warm = time.Duration(seconds * float64(time.Second) / 10)
	}
	return config{workload: workload, seed: seed, seconds: seconds, trace: trace,
		scale: 1, setups: 3, warm: warm}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// subWindows splits the measured window: the end-to-end timings are
// medians over equal sub-windows, so a transient stall of the shared
// host moves one sub-window rather than the result.
const subWindows = 5

// clock is one load phase's timeline: n sub-windows of length sub from
// start. Slot n collects requests that complete after the deadline.
type clock struct {
	start time.Time
	sub   time.Duration
	n     int
}

func newClock(d time.Duration, n int) *clock {
	return &clock{start: time.Now(), sub: d / time.Duration(n), n: n}
}

func (c *clock) end() time.Time { return c.start.Add(time.Duration(c.n) * c.sub) }

func (c *clock) slot(t time.Time) uint8 {
	return uint8(min(c.n, int(t.Sub(c.start)/c.sub)))
}

// window is what one load phase produced, merged over all callers.
type window struct {
	elapsed   time.Duration
	ops       uint64
	bad       uint64   // failed or wrong op results
	lat       []uint32 // per request, ns
	slot      []uint8  // sub-window each request completed in
	slotOps   [subWindows + 1]uint64
	kinds     [8]uint64
	entries   uint64 // scan entries returned
	exhausted bool   // a precomputed stream ran out before the deadline
	gateway   bool   // requests went through the memcache gateway

	// Traced phases only.
	calls    []uint32 // kvnet call durations, ns
	callOps  uint64   // ops carried by those calls
	self     []uint32 // kvgw time per client batch minus its backend calls, ns
	tempFail uint64   // memcache TEMPORARY_FAILURE responses
}

// done records one completed request of ops operations.
func (w *window) done(clk *clock, start, end time.Time, ops int) {
	s := clk.slot(end)
	w.lat = append(w.lat, uint32(end.Sub(start)))
	w.slot = append(w.slot, s)
	w.slotOps[s] += uint64(ops)
	w.ops += uint64(ops)
}

func (w *window) merge(o *window) {
	w.ops += o.ops
	w.bad += o.bad
	w.lat = append(w.lat, o.lat...)
	w.slot = append(w.slot, o.slot...)
	for i := range w.slotOps {
		w.slotOps[i] += o.slotOps[i]
	}
	for i := range w.kinds {
		w.kinds[i] += o.kinds[i]
	}
	w.exhausted = w.exhausted || o.exhausted
	w.gateway = w.gateway || o.gateway
	w.calls = append(w.calls, o.calls...)
	w.callOps += o.callOps
	w.self = append(w.self, o.self...)
	w.tempFail += o.tempFail
}

// snap is the layers' exported counters at a quiescent instant.
type snap struct {
	st         kvdirect.Stats     // primary store
	tel        telemetry.Snapshot // primary server registry
	retries    uint64
	reconnects uint64
	redirects  uint64
	backupDMAs float64 // host-memory DMAs per backup store
	failovers  uint64
	lagMax     int64
}

// bench is one workload's system under test.
type bench interface {
	describe(w io.Writer)
	setup() error
	close()
	// run drives load for d and returns once every request has
	// completed; traced turns on the timing shims and batch recording.
	run(clk *clock, traced bool) *window
	snapshot() snap
	endChecks() []string
	// wireSizes are request and response bytes per op and ops per
	// request of this workload's traffic, from its input streams.
	wireSizes() (req, resp, opsPerReq float64)
	// latUnit names what one latency sample covers.
	latUnit() string
	twin() (*kvdirect.Store, error)
	replay(yield func(ops []kvdirect.Op, timed bool))
}

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "read-pipelined", "write-mixed-uniform", "scan-ranges":
		return newNetBench(cfg)
	case "gw-replicated":
		return newGwBench(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func main() {
	workload := flag.String("workload", "", "read-pipelined | write-mixed-uniform | scan-ranges | gw-replicated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(defaultConfig(*workload, *seed, *seconds, *trace == 1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg config, log io.Writer) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	printProvenance(log, cfg)
	b.describe(log)

	setups := cfg.setups
	if cfg.trace || setups < 1 {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			b.close()
		}
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()

	total := &window{}
	if cfg.warm > 0 {
		total.merge(b.run(newClock(cfg.warm, 1), false))
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		s0 := b.snapshot()
		clk := newClock(dur, subWindows)
		procs := make(chan []procSample)
		done := make(chan struct{})
		go func() { procs <- sampleBoundaries(clk, done) }()
		w := b.run(clk, false)
		close(done)
		s1 := b.snapshot()
		total.merge(w)
		endToEnd(res, log, b, w, clk, <-procs, s0, s1, median(setupS))
		fmt.Fprintf(log, "# latency per %s: %d samples over %d sub-windows of %v; setup_s runs %v\n",
			b.latUnit(), len(w.lat), clk.n, clk.sub, setupS)
	} else {
		plain := b.run(newClock(dur/2, 1), false)
		s1 := b.snapshot()
		tw := b.run(newClock(dur/2, 1), true)
		s2 := b.snapshot()
		total.merge(plain)
		total.merge(tw)
		if err := perLayer(res, log, b, plain, tw, s1, s2); err != nil {
			return nil, err
		}
	}
	checks := b.endChecks()
	for _, c := range checks {
		fmt.Fprintln(log, "# check failed:", c)
	}
	res.Attempted = total.ops + uint64(len(checks))
	res.Failed = total.bad + uint64(len(checks))
	res.Correct = res.Failed == 0
	if total.exhausted {
		fmt.Fprintln(log, "# note: an input stream ran out before the deadline; the window was cut short")
	}
	fmt.Fprintf(log, "# failed_frac %.6g (%d of %d ops)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	printMetrics(log, res)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	return res, nil
}

// endToEnd sets the user-visible metrics: timings and costs as medians
// over the sub-windows of clk (procs sampled at their boundaries), the
// modeled figures over the whole window (s0 → s1).
func endToEnd(res *result, log io.Writer, b bench, w *window, clk *clock, procs []procSample, s0, s1 snap, setupS float64) {
	// A stream that ran out ends the window early: use only the
	// sub-windows it filled.
	n := clk.n
	if w.exhausted {
		n = max(1, min(n, int(w.elapsed/clk.sub)))
	}
	var thr, p50, p90, p95, p99, cpu, allocs []float64
	for k := 0; k < n; k++ {
		var lat []uint32
		for i, s := range w.slot {
			if int(s) == k {
				lat = append(lat, w.lat[i])
			}
		}
		ops := float64(w.slotOps[k])
		thr = append(thr, ops/clk.sub.Seconds())
		p50 = append(p50, quantile(lat, 0.50)/1e3)
		p90 = append(p90, quantile(lat, 0.90)/1e3)
		p95 = append(p95, quantile(lat, 0.95)/1e3)
		p99 = append(p99, quantile(lat, 0.99)/1e3)
		cpu = append(cpu, ratio(float64((procs[k+1].cpu-procs[k].cpu).Microseconds()), ops))
		allocs = append(allocs, ratio(float64(procs[k+1].allocs-procs[k].allocs), ops))
	}
	fmt.Fprintf(log, "# sub-windows: throughput %.0f op/s, p50 %.1f us, p90 %.1f us, p95 %.1f us, p99 %.1f us (medians p95 %.1f us, p99 %.1f us)\n",
		thr, p50, p90, p95, p99, median(p95), median(p99))
	ops := float64(w.ops)
	mem := s1.st.Mem.Sub(s0.st.Mem)
	hits := float64(s1.st.Cache.Hits - s0.st.Cache.Hits)
	dmas := float64(mem.Accesses())
	req, resp, perReq := b.wireSizes()
	net := model.NetworkOpsPerSec(int(math.Round(req)), int(math.Round(resp)), int(math.Round(perReq)))
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("throughput_ops_s", "op/s", median(thr))
	set("lat_p50_us", "us", median(p50))
	// The gated tail is p90; p95 and p99 are printed only. On a shared
	// 2-vCPU VM the host steals a few percent of wall time in
	// multi-millisecond slices, and the percentiles above p90 measure
	// those slices more than the stack.
	set("lat_p90_us", "us", median(p90))
	set("cpu_us_per_op", "us/op", median(cpu))
	set("allocs_per_op", "allocs/op", median(allocs))
	set("peak_rss_mb", "MB", peakRSSMB())
	set("setup_s", "s", setupS)
	set("model_accesses_per_op", "dma/op", ratio(dmas, ops))
	set("model_mops", "Mop/s", model.Throughput(ratio(dmas+hits, ops), ratio(hits, dmas+hits), net)/1e6)
}

func printProvenance(w io.Writer, cfg config) {
	prov := map[string]any{
		"commit":     commitID(),
		"src_digest": sourceDigest("."),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"warm_s":     cfg.warm.Seconds(),
		"setups":     cfg.setups,
	}
	out, _ := json.Marshal(prov) // plain map of scalars: cannot fail
	fmt.Fprintf(w, "# provenance %s\n", out)
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
