// Package kvnet carries KV-Direct operations over real TCP sockets using
// the batched wire format, standing in for the paper's RDMA-framed
// 40 Gbps path: clients batch operations per packet (amortizing framing
// overhead, Figure 15) and the server plays the NIC, decoding packets and
// feeding the KV processor.
//
// The server serializes batches into the store just as the single
// hardware pipeline would; consistency across dependent operations in a
// batch is preserved.
//
// Every frame carries a CRC32C, so wire corruption is detected rather
// than decoded: a corrupt frame or batch draws an error response while
// the connection survives, and a client whose connection does die marks
// it broken and reconnects (idempotent batches retry transparently).
package kvnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// ServerOptions tunes the server's resilience behaviour. The zero value
// gives sane defaults; negative durations disable that deadline.
type ServerOptions struct {
	// ReadIdleTimeout bounds the wait for the next request frame on a
	// connection; on expiry the connection is dropped. 0 disables (idle
	// connections live until Close).
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each response write, so one stalled client
	// cannot pin a handler goroutine forever (default 1 min, negative
	// disables).
	WriteTimeout time.Duration
	// Faults optionally injects faults into the response path: NetReset
	// drops the connection before the reply, NetTruncateFrame cuts the
	// reply mid-frame, NetCorruptFrame flips payload bytes after the CRC
	// was computed.
	Faults *fault.Injector
	// Telemetry is the registry this server records into. Nil gets a
	// private registry; owners that stack layers (a replica with its
	// store and server, a multi-shard process with one /metrics page)
	// pass one shared registry so everything lands in one namespace.
	Telemetry *telemetry.Registry
	// TraceSampleEvery server-samples one batch in N for a span even
	// when clients don't request tracing (0 = off). Sampled spans are
	// retained in the registry's tracer ring and appear in snapshots.
	TraceSampleEvery uint64
}

func (o ServerOptions) withDefaults() ServerOptions {
	switch {
	case o.WriteTimeout == 0:
		o.WriteTimeout = time.Minute
	case o.WriteTimeout < 0:
		o.WriteTimeout = 0
	}
	if o.ReadIdleTimeout < 0 {
		o.ReadIdleTimeout = 0
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	return o
}

// Backend applies one decoded batch of requests — the pluggable KV
// processor behind a Server. The default backend is a Store; kvrepl's
// replicas implement Backend to interpose sequence numbering, log
// shipping and quorum acknowledgment on the same wire path.
//
// ApplyBatch is never called concurrently by one Server (the single
// hardware pipeline); a Backend shared across Servers must serialize
// itself.
type Backend interface {
	ApplyBatch(reqs []wire.Request) []wire.Response
}

// TracedBackend is optionally implemented by backends that can charge a
// span with the hardware access counts an applied batch cost (Store
// does; so do kvrepl replicas). Servers fall back to plain ApplyBatch
// when the backend doesn't implement it or the span is nil.
type TracedBackend interface {
	Backend
	ApplyBatchTraced(reqs []wire.Request, span *telemetry.Span) []wire.Response
}

// TelemetryPublisher is optionally implemented by backends that can
// refresh derived gauges (core key counts, cache hit levels) into the
// shared registry before a snapshot is taken. Called under the server's
// pipeline lock.
type TelemetryPublisher interface {
	PublishTelemetry()
}

// storeBackend adapts a Store, isolating each operation's panics: a
// fault tripping a panic (e.g. a corrupted pointer walking off the
// address space, or a registered λ misbehaving) becomes that
// operation's error response. It also times each operation into the
// server.op_latency_ns histogram — per-op, not per-batch, so tail
// percentiles reflect operation cost rather than batch size.
type storeBackend struct {
	store     *kvdirect.Store
	counters  *telemetry.Counters
	opLatency *telemetry.Histogram
}

func (b storeBackend) ApplyBatch(reqs []wire.Request) []wire.Response {
	return b.ApplyBatchTraced(reqs, nil)
}

func (b storeBackend) ApplyBatchTraced(reqs []wire.Request, span *telemetry.Span) []wire.Response {
	out := make([]wire.Response, len(reqs))
	for i, req := range reqs {
		out[i] = b.applyOne(req, span)
	}
	return out
}

func (b storeBackend) PublishTelemetry() { b.store.PublishTelemetry() }

//kvd:hotpath
func (b storeBackend) applyOne(req wire.Request, span *telemetry.Span) (resp wire.Response) {
	defer func() { //lint:allow hotalloc -- panic-isolation contract; the defer is open-coded and its closure stays on the stack
		if r := recover(); r != nil {
			b.counters.Add("server.panics", 1)
			resp = wire.Response{Status: wire.StatusError,
				Value: []byte(fmt.Sprintf("panic: %v", r))}
		}
	}()
	start := time.Now()
	resp = b.store.ApplyTraced(req, span)
	traceID, _ := span.Trace()
	b.opLatency.ObserveTraced(uint64(time.Since(start).Nanoseconds()), traceID)
	return resp
}

// Server exposes one Backend (usually a Store) over TCP.
type Server struct {
	backend Backend
	opts    ServerOptions
	ln      net.Listener

	mu sync.Mutex // serializes store access (the single KV pipeline)
	wg sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closeOnce sync.Once
	closeErr  error

	counters *telemetry.Counters
	tel      *telemetry.Registry
	batchOps *telemetry.Histogram
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with default
// options and begins accepting connections in the background.
func Serve(store *kvdirect.Store, addr string) (*Server, error) {
	return ServeOptions(store, addr, ServerOptions{})
}

// ServeOptions starts a server on addr. The store is attached to the
// server's telemetry registry, so wire scrapes (OpTelemetry) and HTTP
// exports see core gauges alongside server counters.
func ServeOptions(store *kvdirect.Store, addr string, opts ServerOptions) (*Server, error) {
	opts = opts.withDefaults()
	store.SetTelemetry(opts.Telemetry)
	return serve(storeBackend{
		store:     store,
		counters:  opts.Telemetry.Counters(),
		opLatency: opts.Telemetry.Histogram("server.op_latency_ns"),
	}, addr, opts)
}

// ServeBackend starts a server on addr fronting an arbitrary Backend
// (e.g. a kvrepl replica).
func ServeBackend(backend Backend, addr string, opts ServerOptions) (*Server, error) {
	return serve(backend, addr, opts.withDefaults())
}

func serve(backend Backend, addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvnet: %w", err)
	}
	s := &Server{
		backend:  backend,
		opts:     opts,
		ln:       ln,
		conns:    map[net.Conn]struct{}{},
		counters: opts.Telemetry.Counters(),
		tel:      opts.Telemetry,
		batchOps: opts.Telemetry.Histogram("server.batch_ops"),
	}
	s.tel.Tracer().SetSampleEvery(opts.TraceSampleEvery)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Telemetry returns the server's registry (shared with its backend).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// TelemetrySnapshot refreshes backend gauges under the pipeline lock
// and returns the full snapshot — the safe way to scrape a live server
// from another goroutine (the HTTP exporter uses it).
func (s *Server) TelemetrySnapshot() telemetry.Snapshot {
	s.mu.Lock()
	if p, ok := s.backend.(TelemetryPublisher); ok {
		p.PublishTelemetry()
	}
	s.mu.Unlock()
	return s.tel.Snapshot()
}

// Counters exposes the server's resilience counters: server.panics,
// server.corrupt_frames, server.bad_batches, server.write_timeouts,
// server.resets_injected, server.truncations_injected,
// server.corruptions_injected.
func (s *Server) Counters() *telemetry.Counters { return s.counters }

func (s *Server) track(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes active connections and waits for their
// handlers to finish.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.Close() // unblock the handler; shutdown outcome is ln.Close's
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		s.track(conn)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	// Backstop: a panic anywhere in this handler must cost one
	// connection, never the whole server.
	defer func() {
		if r := recover(); r != nil {
			s.counters.Add("server.panics", 1)
		}
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if t := s.opts.ReadIdleTimeout; t > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(t)); err != nil {
				return // connection already torn down
			}
		}
		pkt, err := readFrame(r)
		if err != nil {
			if errors.Is(err, ErrFrameCorrupt) {
				// The CRC failed but the stream is still frame-aligned:
				// reject the batch with an error response and keep serving.
				s.counters.Add("server.corrupt_frames", 1)
				if !s.reply(conn, w, errorFrame("corrupt request frame")) {
					return
				}
				continue
			}
			return // short read / reset / idle timeout: connection is gone
		}
		// A sampled trace context (FlagTraceCtx) places the span in the
		// sender's distributed trace, parented under the sender's span;
		// otherwise the server's own sampler may pick the batch. Either
		// way the span lands only in this server's trace ring.
		var span *telemetry.Span
		if tc, ok := wire.PacketTraceContext(pkt); ok && tc.Sampled {
			span = s.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
		} else {
			span = s.tel.Tracer().Sample()
		}
		st := span.StartStage("server.decode")
		reqs, err := wire.DecodeRequests(pkt)
		st.End()
		if err != nil {
			// Malformed batch inside an intact frame: graceful rejection,
			// not connection death.
			s.counters.Add("server.bad_batches", 1)
			if !s.reply(conn, w, errorFrame(err.Error())) {
				return
			}
			continue
		}
		span.SetOp(batchLabel(reqs), len(reqs))
		st = span.StartStage("server.apply")
		resps := s.apply(reqs, span)
		st.End()
		s.tel.Tracer().Publish(span)
		out, err := wire.AppendResponses(nil, resps)
		if err != nil {
			return
		}
		if !s.reply(conn, w, out) {
			return
		}
	}
}

// batchLabel names a span after its batch: the op code when uniform,
// "MIXED" otherwise.
func batchLabel(reqs []wire.Request) string {
	if len(reqs) == 0 {
		return "EMPTY"
	}
	op := reqs[0].Op
	for _, r := range reqs[1:] {
		if r.Op != op {
			return "MIXED"
		}
	}
	return op.String()
}

// apply runs a batch against the backend under the pipeline lock,
// charging a non-nil span with the batch's access counts when the
// backend supports tracing.
func (s *Server) apply(reqs []wire.Request, span *telemetry.Span) []wire.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Add("server.ops", uint64(len(reqs)))
	s.batchOps.Observe(uint64(len(reqs)))
	if tb, ok := s.backend.(TracedBackend); ok && span != nil {
		return tb.ApplyBatchTraced(reqs, span)
	}
	return s.backend.ApplyBatch(reqs)
}

// Do executes one batch in-process through the same serialized pipeline
// a network client's batch takes — same lock, same backend (and thus the
// same replication/sharding interposition), same op accounting — minus
// the wire framing and a socket. In-process front-ends (the memcache
// protocol gateway) use this as their loopback path when they run inside
// the server process; it satisfies the same Do contract as *Client.
func (s *Server) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	resps := s.apply(opsToRequests(ops), nil)
	out := make([]kvdirect.Result, len(resps))
	for i, r := range resps {
		out[i] = kvdirect.Result{Status: r.Status, Value: r.Value}
	}
	return out, nil
}

// DoTrace executes one batch through the loopback path like Do, under a
// span placed in the distributed trace (traceID, parent) — or a fresh
// trace when traceID is 0. The span is retained in the server's trace
// ring, where trace assembly finds it, and is also returned.
func (s *Server) DoTrace(ops []kvdirect.Op, traceID uint64, parent uint32) ([]kvdirect.Result, *telemetry.Span, error) {
	if traceID == 0 {
		traceID = telemetry.NewTraceID()
	}
	span := s.tel.Tracer().StartTrace(traceID, parent)
	reqs := opsToRequests(ops)
	span.SetOp(batchLabel(reqs), len(reqs))
	st := span.StartStage("server.apply")
	resps := s.apply(reqs, span)
	st.End()
	s.tel.Tracer().Publish(span)
	out := make([]kvdirect.Result, len(resps))
	for i, r := range resps {
		out[i] = kvdirect.Result{Status: r.Status, Value: r.Value}
	}
	return out, span, nil
}

func opsToRequests(ops []kvdirect.Op) []wire.Request {
	reqs := make([]wire.Request, len(ops))
	for i, op := range ops {
		reqs[i] = wire.Request{
			Op:        wire.OpCode(op.Code),
			Key:       op.Key,
			Value:     op.Value,
			FuncID:    op.FuncID,
			ElemWidth: op.ElemWidth,
			Param:     op.Param,
		}
	}
	return reqs
}

// errorFrame encodes a single-error-response frame.
func errorFrame(msg string) []byte {
	out, _ := wire.AppendResponses(nil, []wire.Response{
		{Status: wire.StatusError, Value: []byte(msg)},
	})
	return out
}

// reply writes one response frame under the write deadline, applying any
// injected response-path faults. It returns false when the connection
// must be dropped.
func (s *Server) reply(conn net.Conn, w *bufio.Writer, out []byte) bool {
	f := s.opts.Faults
	if f.Should(fault.NetReset) {
		// Connection torn down before the response gets out.
		s.counters.Add("server.resets_injected", 1)
		return false
	}
	if t := s.opts.WriteTimeout; t > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(t)); err != nil {
			return false // connection already torn down
		}
	}
	if f.Should(fault.NetTruncateFrame) {
		// Half a frame, then the wire goes dead: the client sees a short
		// read and must recover.
		s.counters.Add("server.truncations_injected", 1)
		writeTruncatedFrame(w, out)
		_ = w.Flush() //lint:allow statuserr -- the connection is being killed by design
		return false
	}
	var err error
	if f.Should(fault.NetCorruptFrame) {
		// Payload damaged after the CRC was computed: the client's
		// checksum must catch it (stream stays aligned on both sides).
		s.counters.Add("server.corruptions_injected", 1)
		err = writeCorruptFrame(w, out, f)
	} else {
		err = writeFrame(w, out)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.counters.Add("server.write_timeouts", 1)
		}
		return false
	}
	return true
}

// writeTruncatedFrame emits the header and roughly half the payload.
func writeTruncatedFrame(w *bufio.Writer, out []byte) {
	full := make([]byte, 0, frameHeaderBytes+len(out))
	buf := &appendWriter{buf: full}
	_ = writeFrame(buf, out) //lint:allow statuserr -- appendWriter sink cannot fail
	cut := frameHeaderBytes + len(out)/2
	if cut > len(buf.buf) {
		cut = len(buf.buf)
	}
	_, _ = w.Write(buf.buf[:cut]) //lint:allow statuserr -- partial bytes on a deliberately doomed connection
}

// writeCorruptFrame emits a frame whose CRC matches the pristine payload
// but whose payload bytes were flipped in flight.
func writeCorruptFrame(w *bufio.Writer, out []byte, f *fault.Injector) error {
	buf := &appendWriter{buf: make([]byte, 0, frameHeaderBytes+len(out))}
	if err := writeFrame(buf, out); err != nil {
		return err
	}
	if len(out) > 0 {
		buf.buf[frameHeaderBytes+f.Intn(len(out))] ^= 0xFF
	} else {
		// Zero-length payload: damage the CRC itself.
		buf.buf[frameHeaderBytes-1] ^= 0xFF
	}
	_, err := w.Write(buf.buf)
	return err
}

type appendWriter struct{ buf []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}
