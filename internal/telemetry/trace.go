package telemetry

// Trace assembly: the hops of one end-to-end request each publish a
// Span carrying (TraceID, SpanID, Parent) into their own registry ring;
// a merged Snapshot concatenates those rings, and AssembleTraces
// stitches the flat span soup back into per-trace trees, indexing the
// nodes by the (TraceID, SpanID) pair. Should the same span appear
// twice in the input (two scrapes of one ring merged), the first
// occurrence wins.

// TraceNode is one span with its resolved children.
type TraceNode struct {
	Span     *Span        `json:"span"`
	Children []*TraceNode `json:"children,omitempty"`
}

// Trace is one assembled trace tree. Roots are the spans whose parent
// is unknown — normally exactly the gateway/client root, but a partial
// trace (a hop's ring already evicted the root, or a failover cut the
// chain) yields the surviving subtrees as additional roots, so the tree
// is always well-formed even when incomplete.
type Trace struct {
	TraceID uint64       `json:"trace_id"`
	Spans   int          `json:"spans"`
	Roots   []*TraceNode `json:"roots"`
}

// Visit walks every node of the trace depth-first.
func (t *Trace) Visit(fn func(*TraceNode)) {
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		fn(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
}

// Counts sums the access counts charged across every span of the trace.
func (t *Trace) Counts() AccessCounts {
	var sum AccessCounts
	t.Visit(func(n *TraceNode) { sum.Add(n.Span.Counts) })
	return sum
}

// AssembleTraces groups spans by trace ID and links each trace's spans
// into trees. Spans without a trace ID (plain sampled spans) are
// ignored.
// At most limit traces are returned (0 = no limit), preferring the most
// recently seen — rings are oldest-first, so the tail of the span list
// is the freshest. Traces are returned oldest-first.
func AssembleTraces(spans []*Span, limit int) []*Trace {
	type key struct {
		trace uint64
		span  uint32
	}
	pool := map[key]*Span{}
	var order []key // first-seen order of span keys
	for _, s := range spans {
		if s == nil || s.TraceID == 0 || s.SpanID == 0 {
			continue
		}
		k := key{s.TraceID, s.SpanID}
		if _, dup := pool[k]; !dup {
			pool[k] = s
			order = append(order, k)
		}
	}

	byTrace := map[uint64]*Trace{}
	nodes := map[key]*TraceNode{}
	var traceOrder []uint64
	for _, k := range order {
		t := byTrace[k.trace]
		if t == nil {
			t = &Trace{TraceID: k.trace}
			byTrace[k.trace] = t
			traceOrder = append(traceOrder, k.trace)
		}
		t.Spans++
		nodes[k] = &TraceNode{Span: pool[k]}
	}
	for _, k := range order {
		n := nodes[k]
		if p, ok := nodes[key{k.trace, n.Span.Parent}]; ok && n.Span.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			byTrace[k.trace].Roots = append(byTrace[k.trace].Roots, n)
		}
	}

	if limit > 0 && len(traceOrder) > limit {
		traceOrder = traceOrder[len(traceOrder)-limit:]
	}
	out := make([]*Trace, 0, len(traceOrder))
	for _, id := range traceOrder {
		out = append(out, byTrace[id])
	}
	return out
}

// FindTrace returns the assembled trace with the given ID, nil if the
// spans contain none of it.
func FindTrace(spans []*Span, traceID uint64) *Trace {
	for _, t := range AssembleTraces(spans, 0) {
		if t.TraceID == traceID {
			return t
		}
	}
	return nil
}
