package kvnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// Options tunes a Client's resilience behaviour. The zero value gives
// sane defaults; a negative duration or count disables that mechanism.
type Options struct {
	// DialTimeout bounds connection establishment (default 10 s).
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for each response frame (default 30 s,
	// negative disables). A stuck server surfaces as a timeout error
	// instead of a hang.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write (default 30 s, negative
	// disables).
	WriteTimeout time.Duration
	// MaxRetries is how many times an idempotent batch is retried after a
	// transport failure, with exponential backoff (default 3, negative
	// disables). Batches containing non-idempotent operations (scalar or
	// vector updates) are never retried: a lost response leaves the
	// update's fate unknown, and replaying it could apply it twice.
	MaxRetries int
	// RetryBaseDelay is the first backoff step (default 2 ms); each retry
	// doubles it up to RetryMaxDelay (default 250 ms), with jitter.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// NoReconnect keeps the client on its original connection: after a
	// transport failure the client is broken and every call fails fast.
	NoReconnect bool
	// Telemetry is the registry the client records into (request RTTs in
	// client.rtt_ns, resilience counters). Nil gets a private registry.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	def := func(d *time.Duration, v time.Duration) {
		switch {
		case *d == 0:
			*d = v
		case *d < 0:
			*d = 0 // disabled
		}
	}
	def(&o.DialTimeout, 10*time.Second)
	def(&o.ReadTimeout, 30*time.Second)
	def(&o.WriteTimeout, 30*time.Second)
	def(&o.RetryBaseDelay, 2*time.Millisecond)
	def(&o.RetryMaxDelay, 250*time.Millisecond)
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	return o
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("kvnet: client closed")

// ErrBroken is returned when the connection failed and NoReconnect
// prevents recovery.
var ErrBroken = errors.New("kvnet: connection broken")

// NotPrimaryError reports that the addressed replica is not its group's
// primary; the operation was not applied, so retrying it at Hint (or any
// other replica) is always safe — even for non-idempotent updates.
type NotPrimaryError struct {
	// Hint is the current primary's address, when the replica knows it.
	Hint string
}

func (e *NotPrimaryError) Error() string {
	if e.Hint == "" {
		return "kvnet: replica is not the primary"
	}
	return "kvnet: replica is not the primary (primary at " + e.Hint + ")"
}

// Client is a KV-Direct network client. It is safe for concurrent use;
// requests on one connection are serialized (batch multiple operations
// into one Do call for throughput, as the paper's clients do).
//
// After a mid-frame transport error the connection's state is unknown
// (the peer may interpret leftover bytes as a new frame), so the client
// marks it broken and never reuses it: the next attempt reconnects, or
// fails fast under NoReconnect.
type Client struct {
	opts Options
	addr string

	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	broken bool
	closed bool

	counters *telemetry.Counters
	tel      *telemetry.Registry
	rtt      *telemetry.Histogram
	backoff  *Backoff
}

// Dial connects to a KV-Direct server with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a KV-Direct server.
func DialOptions(addr string, opts Options) (*Client, error) {
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	c := &Client{
		opts:     opts.withDefaults(),
		addr:     addr,
		counters: tel.Counters(),
		tel:      tel,
		rtt:      tel.Histogram("client.rtt_ns"),
	}
	c.backoff = NewBackoff(c.opts.RetryBaseDelay, c.opts.RetryMaxDelay, time.Now().UnixNano())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reconnectLocked(); err != nil { //lint:allow lockorder -- mu guards the single wire connection; dialing it is the critical section
		return nil, err
	}
	return c, nil
}

// Counters exposes the client's resilience counters: client.retries,
// client.reconnects, client.broken, client.corrupt_frames.
func (c *Client) Counters() *telemetry.Counters { return c.counters }

// Telemetry returns the client's registry: the counters above plus the
// client.rtt_ns round-trip latency histogram.
func (c *Client) Telemetry() *telemetry.Registry { return c.tel }

// Close terminates the connection. Subsequent calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) reconnectLocked() error {
	if c.conn != nil || c.broken {
		if c.conn != nil {
			_ = c.conn.Close() // stale connection; dial result is what matters
			c.conn = nil
		}
		c.counters.Add("client.reconnects", 1)
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("kvnet: %w", err)
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.broken = false
	return nil
}

// markBrokenLocked poisons the connection after a transport error.
func (c *Client) markBrokenLocked() {
	c.broken = true
	c.counters.Add("client.broken", 1)
	if c.conn != nil {
		_ = c.conn.Close() // already poisoned by a transport error
		c.conn = nil
	}
}

// ensureConnLocked gets a usable connection, reconnecting if allowed.
func (c *Client) ensureConnLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil && !c.broken {
		return nil
	}
	if c.opts.NoReconnect {
		return ErrBroken
	}
	return c.reconnectLocked()
}

// backoffLocked sleeps before retry n (1-based) per the client's Backoff
// policy (exponential from RetryBaseDelay capped at RetryMaxDelay, with
// jitter so a fleet of clients doesn't retry in lockstep).
func (c *Client) backoffLocked(n int) { c.backoff.Sleep(n) }

// idempotent reports whether replaying the batch is safe. Get, Put,
// Delete, Reduce, Filter, Stats and Register all converge when repeated
// (Delete's existed-bit may differ on replay, which callers treating
// delete-of-missing as success tolerate); scalar/vector updates do not —
// a replayed fetch-add adds twice. Versioned stores bump the version on
// every success (a replayed SET double-bumps, a replayed CAS fails with
// Exists) and counters re-apply their delta, so both fail fast instead.
func idempotent(ops []kvdirect.Op) bool {
	for _, op := range ops {
		switch op.Code {
		case kvdirect.OpUpdateScalar, kvdirect.OpUpdateS2V, kvdirect.OpUpdateV2V,
			kvdirect.OpPutVer, kvdirect.OpCounterVer:
			return false
		}
	}
	return true
}

// Do sends one batch of operations and returns their results in order.
// Transport failures on idempotent batches are retried with backoff (see
// Options); non-idempotent batches fail fast with the transport error.
func (c *Client) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	pkt, err := kvdirect.EncodeBatch(ops)
	if err != nil {
		return nil, err
	}
	return c.exchange(ops, pkt, 0)
}

// DoTrace sends one batch inside a distributed trace: the client span
// is parented under parent within traceID (0 starts a fresh trace), and
// the packet carries the sampled trace context downstream, so the
// server — and, for replicated writes, the per-backup log shipping —
// parent their spans under this hop's. Each hop retains its own span in
// its own registry's trace ring; telemetry.AssembleTraces stitches the
// tree back together from the merged snapshots (/debug/traces). The
// returned client span carries the client-measured stages (encode,
// network round trip). Results are identical to Do.
func (c *Client) DoTrace(ops []kvdirect.Op, traceID uint64, parent uint32) ([]kvdirect.Result, *telemetry.Span, error) {
	if traceID == 0 {
		traceID = telemetry.NewTraceID()
	}
	span := c.tel.Tracer().StartTrace(traceID, parent)
	span.SetOp(traceLabel(ops), len(ops))
	st := span.StartStage("client.encode")
	pkt, err := kvdirect.EncodeBatch(ops)
	if err == nil {
		pkt, err = wire.MarkTraceContext(pkt, wire.TraceContext{
			TraceID: span.TraceID, Parent: span.SpanID, Sampled: true,
		})
	}
	st.End()
	if err != nil {
		return nil, nil, err
	}
	st = span.StartStage("client.rtt")
	results, err := c.exchange(ops, pkt, span.TraceID)
	st.End()
	span.SetErr(err)
	c.tel.Tracer().Publish(span) // finishes TotalNs
	if err != nil {
		return nil, span, err
	}
	return results, span, nil
}

// traceLabel mirrors the server's batch naming for client spans.
func traceLabel(ops []kvdirect.Op) string {
	if len(ops) == 0 {
		return "EMPTY"
	}
	code := ops[0].Code
	for _, op := range ops[1:] {
		if op.Code != code {
			return "MIXED"
		}
	}
	return wire.OpCode(code).String()
}

// exchange runs the retry loop for one encoded packet, expecting one
// response per op. A nonzero traceID links the RTT observation to its trace
// as a histogram exemplar.
func (c *Client) exchange(ops []kvdirect.Op, pkt []byte, traceID uint64) ([]kvdirect.Result, error) {
	retries := 0
	if idempotent(ops) {
		retries = c.opts.MaxRetries
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			c.counters.Add("client.retries", 1)
			c.backoffLocked(attempt) //lint:allow lockorder -- mu serializes the one in-flight exchange; backoff inside it is the retry contract
		}
		if err := c.ensureConnLocked(); err != nil { //lint:allow lockorder -- mu guards the single wire connection; redialing it is the critical section
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrBroken) {
				return nil, err
			}
			lastErr = err // dial failure: maybe transient, keep retrying
			continue
		}
		res, err := c.doOnceLocked(pkt, len(ops), traceID) //lint:allow lockorder -- one request in flight per client by design; mu held across the wire exchange IS the serialization
		if err == nil {
			return res, nil
		}
		lastErr = err
		c.markBrokenLocked()
	}
	return nil, lastErr
}

// doOnceLocked performs one request/response exchange on the current
// connection.
func (c *Client) doOnceLocked(pkt []byte, nops int, traceID uint64) ([]kvdirect.Result, error) {
	start := time.Now()
	if t := c.opts.WriteTimeout; t > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(t)); err != nil {
			return nil, err // connection already unusable; caller marks it broken
		}
	}
	if err := writeFrame(c.w, pkt); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if t := c.opts.ReadTimeout; t > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(t)); err != nil {
			return nil, err
		}
	}
	resp, err := readFrame(c.r)
	if err != nil {
		if errors.Is(err, ErrFrameCorrupt) {
			c.counters.Add("client.corrupt_frames", 1)
		}
		return nil, err
	}
	results, err := kvdirect.DecodeResults(resp)
	if err != nil {
		return nil, err
	}
	if len(results) != nops {
		return nil, fmt.Errorf("kvnet: %d results for %d ops", len(results), nops)
	}
	c.rtt.ObserveTraced(uint64(time.Since(start).Nanoseconds()), traceID)
	return results, nil
}

// asNotPrimary converts a replica's rejection into its typed error, nil
// for any other result.
func asNotPrimary(r kvdirect.Result) error {
	if r.NotPrimary() {
		return &NotPrimaryError{Hint: string(r.Value)}
	}
	return nil
}

// Get fetches key's value.
func (c *Client) Get(key []byte) (value []byte, found bool, err error) {
	res, err := c.Do([]kvdirect.Op{{Code: kvdirect.OpGet, Key: key}})
	if err != nil {
		return nil, false, err
	}
	r := res[0]
	switch {
	case r.OK():
		return r.Value, true, nil
	case r.NotFound():
		return nil, false, nil
	default:
		if err := asNotPrimary(r); err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("kvnet: get: %s", r.Value)
	}
}

// Put stores value under key.
func (c *Client) Put(key, value []byte) error {
	res, err := c.Do([]kvdirect.Op{{Code: kvdirect.OpPut, Key: key, Value: value}})
	if err != nil {
		return err
	}
	if !res[0].OK() {
		if err := asNotPrimary(res[0]); err != nil {
			return err
		}
		return fmt.Errorf("kvnet: put: %s", res[0].Value)
	}
	return nil
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(key []byte) (bool, error) {
	res, err := c.Do([]kvdirect.Op{{Code: kvdirect.OpDelete, Key: key}})
	if err != nil {
		return false, err
	}
	switch {
	case res[0].OK():
		return true, nil
	case res[0].NotFound():
		return false, nil
	default:
		if err := asNotPrimary(res[0]); err != nil {
			return false, err
		}
		return false, fmt.Errorf("kvnet: delete: %s", res[0].Value)
	}
}

// FetchAdd atomically adds delta to key's 8-byte counter (initializing a
// missing key from zero) and returns the previous value — the sequencer
// primitive (paper §2.1).
func (c *Client) FetchAdd(key []byte, delta uint64) (old uint64, err error) {
	param := make([]byte, 8)
	binary.LittleEndian.PutUint64(param, delta)
	res, err := c.Do([]kvdirect.Op{{
		Code: kvdirect.OpUpdateScalar, Key: key,
		FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: param,
	}})
	if err != nil {
		return 0, err
	}
	r := res[0]
	if !r.OK() {
		if err := asNotPrimary(r); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("kvnet: fetch-add: %s", r.Value)
	}
	if len(r.Value) == 8 {
		old = binary.LittleEndian.Uint64(r.Value)
	}
	return old, nil
}

// RegisterExpression compiles and installs an update λ on the server
// under fnID, making it usable in subsequent update/reduce operations —
// the remote analogue of loading a user function into the FPGA (paper
// §3.2). Pass filter=true to register a filter predicate instead.
func (c *Client) RegisterExpression(fnID uint8, expr string, filter bool) error {
	width := uint8(0)
	if filter {
		width = 1
	}
	res, err := c.Do([]kvdirect.Op{{
		Code: kvdirect.OpRegister, FuncID: fnID, ElemWidth: width,
		Param: []byte(expr),
	}})
	if err != nil {
		return err
	}
	if !res[0].OK() {
		return fmt.Errorf("kvnet: register: %s", res[0].Value)
	}
	return nil
}

// Reduce folds key's vector on the server and returns the accumulator.
func (c *Client) Reduce(key []byte, fnID, elemWidth uint8, init uint64) (uint64, error) {
	param := make([]byte, elemWidth)
	switch elemWidth {
	case 1:
		param[0] = byte(init)
	case 2:
		binary.LittleEndian.PutUint16(param, uint16(init))
	case 4:
		binary.LittleEndian.PutUint32(param, uint32(init))
	case 8:
		binary.LittleEndian.PutUint64(param, init)
	default:
		return 0, kvdirect.ErrBadWidth
	}
	res, err := c.Do([]kvdirect.Op{{
		Code: kvdirect.OpReduce, Key: key,
		FuncID: fnID, ElemWidth: elemWidth, Param: param,
	}})
	if err != nil {
		return 0, err
	}
	r := res[0]
	if !r.OK() {
		return 0, fmt.Errorf("kvnet: reduce: %s", r.Value)
	}
	return binary.LittleEndian.Uint64(r.Value), nil
}

// ScanPage fetches one page of an ordered range scan: up to limit pairs
// in ascending key order starting at the first key >= start (or at the
// continuation cursor from a prior page, when non-nil). The returned
// cursor is nil once the key space is exhausted. Scans are read-only and
// therefore retried like GETs.
func (c *Client) ScanPage(start []byte, limit int, cursor []byte) ([]kvdirect.ScanEntry, []byte, error) {
	op, err := kvdirect.ScanOp(start, limit, cursor)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.Do([]kvdirect.Op{op})
	if err != nil {
		return nil, nil, err
	}
	if err := asNotPrimary(res[0]); err != nil {
		return nil, nil, err
	}
	return kvdirect.DecodeScanResult(res[0])
}

// Scan fetches up to limit ordered pairs starting at start, following
// continuation cursors across as many pages as needed.
func (c *Client) Scan(start []byte, limit int) ([]kvdirect.ScanEntry, error) {
	var out []kvdirect.ScanEntry
	cursor := []byte(nil)
	for len(out) < limit {
		entries, next, err := c.ScanPage(start, limit-len(out), cursor)
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
		if next == nil {
			break
		}
		cursor = next
	}
	return out, nil
}

// Stats fetches the server's counters as key=value lines — the NIC's
// status registers, over the wire.
func (c *Client) Stats() (string, error) {
	res, err := c.Do([]kvdirect.Op{{Code: kvdirect.OpStats}})
	if err != nil {
		return "", err
	}
	if !res[0].OK() {
		return "", fmt.Errorf("kvnet: stats: %s", res[0].Value)
	}
	return string(res[0].Value), nil
}

// ScrapeTelemetry fetches the server's full telemetry snapshot over the
// KV protocol itself (OpTelemetry): counters, gauges, latency
// histograms and retained spans, without needing the HTTP endpoint.
func (c *Client) ScrapeTelemetry() (telemetry.Snapshot, error) {
	res, err := c.Do([]kvdirect.Op{{Code: kvdirect.OpTelemetry}})
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	if !res[0].OK() {
		return telemetry.Snapshot{}, fmt.Errorf("kvnet: telemetry: %s", res[0].Value)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(res[0].Value, &snap); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("kvnet: telemetry: %w", err)
	}
	return snap, nil
}
