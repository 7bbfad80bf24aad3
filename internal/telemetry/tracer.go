package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// AccessCounts is the per-op hardware cost the simulation charges for a
// traced operation: DMA round-trips over PCIe, NIC DRAM cache
// hits/misses, and the dispatcher's direct-vs-cached routing decisions.
// These are measured deltas of the same counters the performance model
// maintains, so a span's counts reproduce the paper's per-op breakdown
// (Figures 9–11) exactly rather than re-deriving it from a formula.
type AccessCounts struct {
	PCIeReads      uint64 `json:"pcie_reads,omitempty"`
	PCIeWrites     uint64 `json:"pcie_writes,omitempty"`
	PCIeReadLines  uint64 `json:"pcie_read_lines,omitempty"`
	PCIeWriteLines uint64 `json:"pcie_write_lines,omitempty"`
	DRAMHits       uint64 `json:"dram_hits,omitempty"`
	DRAMMisses     uint64 `json:"dram_misses,omitempty"`
	DRAMLineReads  uint64 `json:"dram_line_reads,omitempty"`
	DRAMLineWrites uint64 `json:"dram_line_writes,omitempty"`
	DispatchDirect uint64 `json:"dispatch_direct,omitempty"`
	DispatchCached uint64 `json:"dispatch_cached,omitempty"`
}

// Add accumulates o into c.
func (c *AccessCounts) Add(o AccessCounts) {
	c.PCIeReads += o.PCIeReads
	c.PCIeWrites += o.PCIeWrites
	c.PCIeReadLines += o.PCIeReadLines
	c.PCIeWriteLines += o.PCIeWriteLines
	c.DRAMHits += o.DRAMHits
	c.DRAMMisses += o.DRAMMisses
	c.DRAMLineReads += o.DRAMLineReads
	c.DRAMLineWrites += o.DRAMLineWrites
	c.DispatchDirect += o.DispatchDirect
	c.DispatchCached += o.DispatchCached
}

// Stage is one named step of a span with its wall-clock duration.
type Stage struct {
	Name string `json:"name"`
	Ns   uint64 `json:"ns"`
}

// Span records one hop of a traced operation (or batch). A span is
// built by the single goroutine of the hop that started it and is
// immutable once published to that hop's trace ring, so its fields
// need no locking. All mutating methods are nil-receiver safe: the
// untraced hot path passes a nil *Span around and every call is a no-op.
type Span struct {
	// TraceID, SpanID and Parent place this span in a distributed
	// trace: TraceID is constant across every hop of one end-to-end
	// request, SpanID names this hop, and Parent is the SpanID of the
	// hop that caused it (0 for a root). All three are zero on spans
	// from the pre-tracing sampled path; AssembleTraces ignores those.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint32 `json:"span_id,omitempty"`
	Parent  uint32 `json:"parent_id,omitempty"`

	Op      string       `json:"op"`
	Ops     int          `json:"ops,omitempty"`
	TotalNs uint64       `json:"total_ns"`
	Stages  []Stage      `json:"stages,omitempty"`
	Counts  AccessCounts `json:"counts"`
	Err     string       `json:"err,omitempty"`

	start time.Time
}

// spanIDs and traceIDs are process-wide generators. Span IDs are a
// plain counter (unique within a process is enough — assembly keys
// nodes on the (TraceID, SpanID) pair); trace IDs are mixed through
// splitmix64 so independent processes almost surely never collide on
// the IDs that end up in exemplars and trace rings.
var (
	spanIDs  atomic.Uint32
	traceIDs atomic.Uint64
)

// NewSpanID returns a fresh nonzero span ID.
func NewSpanID() uint32 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}

// NewTraceID returns a fresh nonzero trace ID.
func NewTraceID() uint64 {
	for {
		if id := splitmix64(traceIDs.Add(1)); id != 0 {
			return id
		}
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// mixer that turns a sequential counter into well-spread IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// BeginTrace places the span in a distributed trace: parented under
// parent within traceID, with a fresh span ID of its own. Nil-safe.
func (s *Span) BeginTrace(traceID uint64, parent uint32) {
	if s == nil {
		return
	}
	s.TraceID = traceID
	s.Parent = parent
	s.SpanID = NewSpanID()
}

// Trace returns the span's trace identity, (0, 0) on a nil or untraced
// span — the zero trace ID is what downstream hooks (exemplars, context
// propagation) test to stay allocation-free off the sampled path.
func (s *Span) Trace() (traceID uint64, spanID uint32) {
	if s == nil {
		return 0, 0
	}
	return s.TraceID, s.SpanID
}

// SetOp labels the span; Ops is the batch size it covers.
func (s *Span) SetOp(op string, ops int) {
	if s == nil {
		return
	}
	s.Op = op
	s.Ops = ops
}

// AddStage appends a pre-measured stage. Used by layers (like the
// simulation core) that account in deltas rather than wall clock.
func (s *Span) AddStage(name string, ns uint64) {
	if s == nil {
		return
	}
	s.Stages = append(s.Stages, Stage{Name: name, Ns: ns})
}

// AddCounts accumulates measured access counts into the span.
func (s *Span) AddCounts(c AccessCounts) {
	if s == nil {
		return
	}
	s.Counts.Add(c)
}

// SetErr records a terminal error on the span.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// Finish stamps TotalNs from the span's creation time. No-op if the
// span was built manually (zero start) or already finished.
func (s *Span) Finish() {
	if s == nil || s.start.IsZero() {
		return
	}
	s.TotalNs = uint64(time.Since(s.start).Nanoseconds())
	s.start = time.Time{}
}

// StageTimer measures one wall-clock stage. It is returned by value so
// starting and ending a stage allocates nothing beyond the span's own
// stage slice.
type StageTimer struct {
	span  *Span
	name  string
	start time.Time
}

// StartStage begins timing a named stage; call End on the returned
// timer. Nil-safe: on a nil span the timer is inert.
func (s *Span) StartStage(name string) StageTimer {
	if s == nil {
		return StageTimer{}
	}
	return StageTimer{span: s, name: name, start: time.Now()}
}

// End records the stage's elapsed time onto its span.
func (st StageTimer) End() {
	if st.span == nil {
		return
	}
	st.span.Stages = append(st.span.Stages,
		Stage{Name: st.name, Ns: uint64(time.Since(st.start).Nanoseconds())})
}

// tracerRing bounds how many finished spans a tracer retains.
const tracerRing = 64

// Tracer decides which operations get a span and retains the most
// recent finished ones for export. Sampling is 1-in-N: SetSampleEvery(0)
// disables sampling entirely, and the disabled check is a single atomic
// load with no allocation, so the tracer can sit on every hot path.
type Tracer struct {
	every atomic.Uint64 // 0 = off
	tick  atomic.Uint64

	mu   sync.Mutex
	ring [tracerRing]*Span
	next int
	seen uint64
}

// NewTracer returns a tracer with sampling off.
func NewTracer() *Tracer { return &Tracer{} }

// SetSampleEvery samples one op in n; n = 0 turns sampling off, n = 1
// traces everything.
func (t *Tracer) SetSampleEvery(n uint64) { t.every.Store(n) }

// SampleEvery reports the current sampling interval (0 = off).
func (t *Tracer) SampleEvery() uint64 { return t.every.Load() }

// Sample returns a new span if this call is selected by the sampling
// interval, else nil. The off path is one atomic load and zero
// allocations; callers thread the possibly-nil span through nil-safe
// Span methods.
//
//kvd:hotpath
func (t *Tracer) Sample() *Span {
	n := t.every.Load()
	if n == 0 {
		return nil
	}
	if t.tick.Add(1)%n != 0 {
		return nil
	}
	return t.force() //lint:allow hotalloc -- 1-in-N sampled path; the off path returns nil first, proven 0 allocs/op by the tracer bench
}

// force returns a span unconditionally, bypassing sampling.
func (t *Tracer) force() *Span {
	return &Span{start: time.Now()}
}

// StartTrace returns a span placed in a distributed trace: parented
// under parent within traceID, with a fresh span ID. Used by hops that
// received a sampled trace context from upstream and must produce a
// span regardless of local sampling.
func (t *Tracer) StartTrace(traceID uint64, parent uint32) *Span {
	s := t.force()
	s.BeginTrace(traceID, parent)
	return s
}

// Publish finishes the span (if still running) and retains it in the
// tracer's ring for export. Nil spans are ignored.
func (t *Tracer) Publish(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.Finish()
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % tracerRing
	t.seen++
	t.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, tracerRing)
	for i := 0; i < tracerRing; i++ {
		if s := t.ring[(t.next+i)%tracerRing]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Published returns the total number of spans ever published.
func (t *Tracer) Published() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}
