package kvgw

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/telemetry"
)

// Backend executes translated operation batches. kvnet.Client,
// kvnet.ShardedClient and kvnet.Server (the in-process loopback) all
// satisfy it, so one gateway serves a single store, a sharded fleet, or
// a replicated group without knowing which.
type Backend interface {
	Do(ops []kvdirect.Op) ([]kvdirect.Result, error)
}

// TraceBackend is the optional tracing extension of Backend: execute a
// batch inside a distributed trace, parenting the backend-side spans
// under the gateway's root; each hop publishes its span to its own
// trace ring and /debug/traces assembles the tree. kvnet.Client,
// kvnet.ShardedClient and kvnet.Server all satisfy it; when the backend
// does not, sampled gateway batches fall back to Do and the trace tree
// simply ends at the gateway hop.
type TraceBackend interface {
	DoTrace(ops []kvdirect.Op, traceID uint64, parent uint32) ([]kvdirect.Result, *telemetry.Span, error)
}

// Options configures a Gateway.
type Options struct {
	// Faults is an optional injector; the gateway consults the
	// gw_decode_corrupt and gw_tenant_quota_exhausted points.
	Faults *kvdirect.FaultInjector
	// ReadTimeout bounds each wait for the next request frame (0 = none).
	ReadTimeout time.Duration
	// Now supplies time for token buckets and latency histograms;
	// defaults to time.Now. Tests inject a fake clock.
	Now func() time.Time
	// MaxValueLen caps a single stored payload (defaults to the wire
	// limit). Larger SETs are refused with E2BIG before reaching the
	// store.
	MaxValueLen int
	// TraceSampleEvery samples one backend batch in N for distributed
	// tracing (0 = off). A sampled batch becomes a GW_BATCH root span
	// whose trace context propagates through the backend — wire packet,
	// primary apply, replication ship/ack — and assembles into one tree
	// at /debug/traces.
	TraceSampleEvery uint64
}

// MaxStoredValueLen is the largest payload a gateway item can hold —
// the store's wire value cap minus the version/flags header.
const MaxStoredValueLen = 0xFFFF - 12

// Gateway is a memcache-binary-protocol listener translating onto a
// Backend. Each accepted connection authenticates as a tenant via SASL
// PLAIN, then speaks standard memcache binary. Quiet runs batch: a
// GETQ/SETQ pipeline terminated by a NOOP becomes one backend batch —
// the same shape the store's native clients send, so the gateway rides
// the wire format's batching (the paper's client-side batching, §5.4)
// instead of defeating it with per-command round trips.
type Gateway struct {
	backend  Backend
	reg      *Registry
	opts     Options
	tel      *telemetry.Registry
	batchLat *telemetry.Histogram

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts a gateway on addr ("host:port", ":0" for ephemeral).
func Serve(backend Backend, reg *Registry, addr string, opts Options) (*Gateway, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.MaxValueLen <= 0 || opts.MaxValueLen > MaxStoredValueLen {
		opts.MaxValueLen = MaxStoredValueLen
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		backend: backend,
		reg:     reg,
		opts:    opts,
		tel:     telemetry.NewRegistry(),
		ln:      ln,
		conns:   map[net.Conn]struct{}{},
	}
	g.batchLat = g.tel.Histogram("gw.batch_latency_ns")
	g.tel.Tracer().SetSampleEvery(opts.TraceSampleEvery)
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Tenants returns the gateway's tenant registry.
func (g *Gateway) Tenants() *Registry { return g.reg }

// Telemetry returns the gateway-wide registry (tenant-agnostic totals;
// per-tenant series come from the tenant Registry).
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// TelemetrySnapshot merges the gateway-wide registry with every
// tenant's prefixed series, implementing kvnet's SnapshotSource so the
// host server's /metrics endpoint exports the gateway too.
func (g *Gateway) TelemetrySnapshot() telemetry.Snapshot {
	snap := g.tel.Snapshot()
	snap.Merge(g.reg.TelemetrySnapshot())
	return snap
}

// Close stops accepting and tears down live connections.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) track(c net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.conns[c] = struct{}{}
	return true
}

func (g *Gateway) untrack(c net.Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		nc, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !g.track(nc) {
			_ = nc.Close()
			continue
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer g.untrack(nc)
			defer nc.Close()
			g.handle(nc)
		}()
	}
}

// pending is one translated-but-unexecuted step of a connection's
// pipeline. Steps with a backend op contribute to the next batch and
// complete via finish; pure-response steps (NOOP, errors detected at
// admission) hold their place in the response order via emit.
type pending struct {
	hasOp  bool
	op     kvdirect.Op
	finish func(res kvdirect.Result, up bool, lat time.Duration) error
	emit   func() error
}

// conn is per-connection state: the authenticated tenant, buffered
// framing, and the pending pipeline.
type conn struct {
	g       *Gateway
	nc      net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	tenant  *Tenant
	inbuf   []byte
	out     []byte
	pending []pending
	// decodeNs accumulates memcache-frame decode time since the last
	// flush; a sampled batch claims it as its gw.decode stage. Only
	// tracked while trace sampling is on.
	decodeNs uint64
}

func (g *Gateway) handle(nc net.Conn) {
	c := &conn{g: g, nc: nc,
		r: bufio.NewReaderSize(nc, 64<<10),
		w: bufio.NewWriterSize(nc, 64<<10)}
	g.tel.Counters().Add("gw.connections", 1)
	for {
		// Before blocking for more input, drain the pipeline: a client
		// that sent a quiet run and is now waiting must not deadlock
		// against a gateway waiting for its terminator.
		if len(c.pending) > 0 && c.r.Buffered() < HeaderSize {
			if err := c.flush(); err != nil {
				return
			}
		}
		req, fatal, err := c.readRequest()
		if err != nil {
			if fatal && !errors.Is(err, io.EOF) {
				g.tel.Counters().Add("gw.framing_errors", 1)
			}
			return
		}
		quit := c.dispatch(req)
		if quit || !Quiet(req.Opcode) {
			if err := c.flush(); err != nil || quit {
				return
			}
		}
	}
}

// flush executes the pending pipeline — one backend batch for every op
// it contains — then emits the queued responses in request order and
// pushes them onto the wire.
func (c *conn) flush() error {
	steps := c.pending
	c.pending = c.pending[:0]
	var ops []kvdirect.Op
	for _, s := range steps {
		if s.hasOp {
			ops = append(ops, s.op)
		}
	}
	var results []kvdirect.Result
	up := true
	var lat time.Duration
	if len(ops) > 0 {
		// One sampled batch in N becomes the root of a distributed trace:
		// the backend hop (and everything it causes — wire transfer,
		// primary apply, replication ship/ack) parents under GW_BATCH.
		span := c.g.tel.Tracer().Sample()
		if span != nil {
			span.BeginTrace(telemetry.NewTraceID(), 0)
			span.SetOp("GW_BATCH", len(ops))
			span.AddStage("gw.decode", c.decodeNs)
		}
		c.decodeNs = 0
		start := c.g.opts.Now()
		var err error
		if tb, ok := c.g.backend.(TraceBackend); ok && span != nil {
			results, _, err = tb.DoTrace(ops, span.TraceID, span.SpanID)
		} else {
			results, err = c.g.backend.Do(ops)
		}
		lat = c.g.opts.Now().Sub(start)
		if err != nil || len(results) != len(ops) {
			up = false
		}
		span.SetErr(err)
		traceID, _ := span.Trace()
		c.g.batchLat.ObserveTraced(uint64(lat), traceID)
		c.g.tel.Tracer().Publish(span)
		c.g.tel.Counters().Add("gw.batches", 1)
		c.g.tel.Counters().Add("gw.batched_ops", uint64(len(ops)))
	}
	next := 0
	for _, s := range steps {
		var err error
		if s.hasOp {
			var res kvdirect.Result
			if up {
				res = results[next]
			}
			next++
			err = s.finish(res, up, lat)
		} else {
			err = s.emit()
		}
		if err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// readRequest reads one frame, applying the decode-corruption fault
// point to the raw bytes first. fatal distinguishes "stream unusable"
// from a clean EOF.
func (c *conn) readRequest() (Request, bool, error) {
	if t := c.g.opts.ReadTimeout; t > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(t)); err != nil {
			return Request{}, true, err
		}
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return Request{}, true, err
	}
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > MaxBodyLen {
		return Request{}, true, ErrBodyLen
	}
	need := HeaderSize + bodyLen
	if cap(c.inbuf) < need {
		c.inbuf = make([]byte, need)
	}
	buf := c.inbuf[:need]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.r, buf[HeaderSize:]); err != nil {
		return Request{}, true, err
	}
	if f := c.g.opts.Faults; f.Should(fault.GwDecodeCorrupt) {
		// Damage one byte of the frame after it left the wire: the codec
		// must reject it (or the translated op must fail loudly), never
		// misframe the stream.
		buf[f.Intn(len(buf))] ^= 1 << uint(f.Intn(8))
	}
	if c.g.tel.Tracer().SampleEvery() != 0 {
		dstart := c.g.opts.Now()
		req, _, derr := DecodeRequest(buf)
		c.decodeNs += uint64(c.g.opts.Now().Sub(dstart))
		if derr != nil {
			return Request{}, true, derr
		}
		return req, false, nil
	}
	req, _, err := DecodeRequest(buf)
	if err != nil {
		return Request{}, true, err
	}
	return req, false, nil
}

// reply writes one response frame to the buffered writer.
func (c *conn) reply(r Response) error {
	out, err := AppendResponse(c.out[:0], r)
	if err != nil {
		return err
	}
	c.out = out
	_, err = c.w.Write(out)
	return err
}

func (c *conn) failNow(req Request, status uint16) Response {
	return Response{
		Opcode: loud(req.Opcode),
		Status: status,
		Opaque: req.Opaque,
		Value:  []byte(StatusText(status)),
	}
}

// enqueueFail queues an error response in pipeline order. Errors from
// quiet ops are still sent — only successes (and GETQ misses) elide.
func (c *conn) enqueueFail(req Request, status uint16) {
	resp := c.failNow(req, status)
	c.pending = append(c.pending, pending{emit: func() error { return c.reply(resp) }})
}

// enqueueReply queues a literal response in pipeline order.
func (c *conn) enqueueReply(resp Response) {
	c.pending = append(c.pending, pending{emit: func() error { return c.reply(resp) }})
}

// enqueueOp queues a backend op whose response finish builds.
func (c *conn) enqueueOp(op kvdirect.Op, finish func(res kvdirect.Result, up bool, lat time.Duration) error) {
	c.pending = append(c.pending, pending{hasOp: true, op: op, finish: finish})
}

// dispatch translates one request onto the pipeline. It returns true
// when the connection should close (QUIT).
func (c *conn) dispatch(req Request) (quit bool) {
	switch req.Opcode {
	case CmdQuit:
		c.enqueueReply(Response{Opcode: CmdQuit, Opaque: req.Opaque})
		return true
	case CmdQuitQ:
		return true
	case CmdNoop:
		c.enqueueReply(Response{Opcode: CmdNoop, Opaque: req.Opaque})
		return false
	case CmdVersion:
		c.enqueueReply(Response{Opcode: CmdVersion, Opaque: req.Opaque,
			Value: []byte("1.6.0-kvdirect")})
		return false
	case CmdSASLListMechs:
		c.enqueueReply(Response{Opcode: CmdSASLListMechs, Opaque: req.Opaque,
			Value: []byte("PLAIN")})
		return false
	case CmdSASLAuth, CmdSASLStep:
		c.saslAuth(req)
		return false
	case CmdFlush, CmdFlushQ:
		// Tenant flush is an admin operation, not a data-path one;
		// refuse rather than silently ignore.
		c.enqueueFail(req, StatusUnknownCommand)
		return false
	}

	// Everything below is a data op and needs an authenticated tenant.
	if c.tenant == nil {
		c.enqueueFail(req, StatusAuthError)
		return false
	}
	switch req.Opcode {
	case CmdGet, CmdGetQ, CmdGetK, CmdGetKQ:
		c.doGet(req)
	case CmdSet, CmdSetQ, CmdAdd, CmdAddQ, CmdReplace, CmdReplaceQ:
		c.doStore(req)
	case CmdAppend, CmdAppendQ, CmdPrepend, CmdPrependQ:
		c.doConcat(req)
	case CmdDelete, CmdDeleteQ:
		c.doDelete(req)
	case CmdIncr, CmdIncrQ, CmdDecr, CmdDecrQ:
		c.doCounter(req)
	case CmdStat:
		c.doStat(req)
	default:
		c.enqueueFail(req, StatusUnknownCommand)
	}
	return false
}

// saslAuth handles SASL PLAIN: value = authzid NUL authcid NUL passwd,
// authcid naming the tenant. Auth takes effect immediately — data ops
// later in the same pipeline run as the new tenant, which is why it
// resolves at dispatch time rather than flush time.
func (c *conn) saslAuth(req Request) {
	if string(req.Key) != "PLAIN" {
		c.enqueueFail(req, StatusAuthError)
		return
	}
	parts := splitNul(req.Value)
	if len(parts) != 3 {
		c.enqueueFail(req, StatusAuthError)
		return
	}
	name, secret := string(parts[1]), string(parts[2])
	tenant, ok := c.g.reg.Authenticate(name, secret)
	if !ok {
		c.g.tel.Counters().Add("gw.auth_failures", 1)
		c.enqueueFail(req, StatusAuthError)
		return
	}
	c.tenant = tenant
	c.g.tel.Counters().Add("gw.auth_success", 1)
	c.enqueueReply(Response{Opcode: req.Opcode, Opaque: req.Opaque,
		Value: []byte("Authenticated")})
}

func splitNul(v []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range v {
		if b == 0 {
			out = append(out, v[start:i])
			start = i + 1
		}
	}
	return append(out, v[start:])
}

// admit runs tenant admission for one op, queueing TEMPORARY_FAILURE on
// exhaustion. create marks ops guaranteed to grow the key count; growth
// is the pessimistic payload growth in bytes.
func (c *conn) admit(req Request, create bool, growth int) bool {
	t := c.tenant
	forced := c.g.opts.Faults.Should(fault.GwTenantQuotaExhausted)
	if forced || !t.admitOps(1, c.g.opts.Now()) ||
		(create && !t.admitCreate()) || (growth > 0 && !t.admitBytes(growth)) {
		t.tel.Counters().Add("gw.quota_rejections", 1)
		c.g.tel.Counters().Add("gw.quota_rejections", 1)
		c.g.tel.Flight().Record(telemetry.EventQuotaReject, -1, 1, 0)
		c.enqueueFail(req, StatusTempFailure)
		return false
	}
	t.tel.Counters().Add("gw.ops", 1)
	return true
}

// copyBytes detaches a slice from the connection's read buffer — every
// key/value that survives past the current frame must be copied.
func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (c *conn) doGet(req Request) {
	if !c.admit(req, false, 0) {
		return
	}
	t := c.tenant
	quiet := Quiet(req.Opcode)
	includeKey := req.Opcode == CmdGetK || req.Opcode == CmdGetKQ
	key := copyBytes(req.Key)
	c.enqueueOp(kvdirect.Op{Code: kvdirect.OpGet, Key: t.Namespace(key)},
		func(res kvdirect.Result, up bool, lat time.Duration) error {
			t.readLat.Observe(uint64(lat))
			if !up {
				return c.reply(c.failNow(req, StatusTempFailure))
			}
			if res.NotFound() {
				t.tel.Counters().Add("gw.misses", 1)
				if quiet {
					return nil // GETQ misses are silent
				}
				return c.reply(c.failNow(req, StatusKeyNotFound))
			}
			if !res.OK() {
				return c.reply(c.failNow(req, mapStatus(res.Status)))
			}
			t.tel.Counters().Add("gw.hits", 1)
			item := kvdirect.DecodeGwItem(res.Value)
			var extras [4]byte
			binary.BigEndian.PutUint32(extras[:], item.Flags)
			resp := Response{
				Opcode: loud(req.Opcode),
				Opaque: req.Opaque,
				CAS:    item.Version,
				Extras: extras[:],
				Value:  item.Payload,
			}
			if includeKey {
				resp.Key = key // the tenant's own key, not the namespaced one
			}
			return c.reply(resp)
		})
}

// doStore handles SET/ADD/REPLACE. Extras are flags u32 | expiry u32;
// expiry is accepted and ignored (the store has no TTL — documented in
// DESIGN.md). A nonzero CAS turns SET/REPLACE into a compare-and-swap;
// on ADD it is invalid (the key must not exist, so there is no version
// to compare against).
func (c *conn) doStore(req Request) {
	if len(req.Extras) != 8 {
		c.enqueueFail(req, StatusInvalidArgs)
		return
	}
	if len(req.Value) > c.g.opts.MaxValueLen {
		c.enqueueFail(req, StatusTooLarge)
		return
	}
	var mode kvdirect.PutVerMode
	create := false
	switch loud(req.Opcode) {
	case CmdSet:
		mode = kvdirect.PutVerSet
	case CmdAdd:
		mode = kvdirect.PutVerAdd
		create = true
		if req.CAS != 0 {
			c.enqueueFail(req, StatusInvalidArgs)
			return
		}
	case CmdReplace:
		mode = kvdirect.PutVerReplace
	}
	if req.CAS != 0 {
		mode = kvdirect.PutVerCAS
	}
	if !c.admit(req, create, len(req.Value)) {
		return
	}
	flags := binary.BigEndian.Uint32(req.Extras)
	op, err := kvdirect.PutVerOp(mode, c.tenant.Namespace(req.Key), req.CAS,
		flags, copyBytes(req.Value))
	if err != nil {
		c.enqueueFail(req, StatusTooLarge)
		return
	}
	c.enqueueStore(req, op, int64(len(req.Value)), false)
}

// doConcat handles APPEND/PREPEND (no extras; CAS optionally guards).
func (c *conn) doConcat(req Request) {
	if len(req.Extras) != 0 {
		c.enqueueFail(req, StatusInvalidArgs)
		return
	}
	if len(req.Value) > c.g.opts.MaxValueLen {
		c.enqueueFail(req, StatusTooLarge)
		return
	}
	if !c.admit(req, false, len(req.Value)) {
		return
	}
	mode := kvdirect.PutVerAppend
	if loud(req.Opcode) == CmdPrepend {
		mode = kvdirect.PutVerPrepend
	}
	op, err := kvdirect.PutVerOp(mode, c.tenant.Namespace(req.Key), req.CAS,
		0, copyBytes(req.Value))
	if err != nil {
		c.enqueueFail(req, StatusTooLarge)
		return
	}
	c.enqueueStore(req, op, int64(len(req.Value)), true)
}

// enqueueStore queues a PutVer op, truing up tenant accounting from the
// authoritative reply. newPayload is the stored payload length for
// SET-family ops; for concats (grow=true) it is the growth on top of
// the surviving old payload.
func (c *conn) enqueueStore(req Request, op kvdirect.Op, newPayload int64, grow bool) {
	t := c.tenant
	quiet := Quiet(req.Opcode)
	c.enqueueOp(op, func(res kvdirect.Result, up bool, lat time.Duration) error {
		t.writeLat.Observe(uint64(lat))
		if !up {
			return c.reply(c.failNow(req, StatusTempFailure))
		}
		if !res.OK() {
			return c.reply(c.failNow(req, mapStatus(res.Status)))
		}
		version, existed, oldLen, derr := kvdirect.DecodePutVerResult(res)
		if derr != nil {
			return c.reply(c.failNow(req, StatusInternalError))
		}
		keyDelta := int64(0)
		if !existed {
			keyDelta = 1
		}
		byteDelta := newPayload
		if existed && !grow {
			byteDelta = newPayload - payloadLen(oldLen)
		}
		t.account(keyDelta, byteDelta)
		if quiet {
			return nil
		}
		return c.reply(Response{Opcode: loud(req.Opcode), Opaque: req.Opaque, CAS: version})
	})
}

func (c *conn) doDelete(req Request) {
	if len(req.Extras) != 0 {
		c.enqueueFail(req, StatusInvalidArgs)
		return
	}
	if !c.admit(req, false, 0) {
		return
	}
	t := c.tenant
	quiet := Quiet(req.Opcode)
	op, err := kvdirect.DeleteVerOp(t.Namespace(req.Key), req.CAS)
	if err != nil {
		c.enqueueFail(req, StatusInternalError)
		return
	}
	c.enqueueOp(op, func(res kvdirect.Result, up bool, lat time.Duration) error {
		t.writeLat.Observe(uint64(lat))
		if !up {
			return c.reply(c.failNow(req, StatusTempFailure))
		}
		if !res.OK() {
			return c.reply(c.failNow(req, mapStatus(res.Status)))
		}
		_, _, oldLen, derr := kvdirect.DecodePutVerResult(res)
		if derr == nil {
			t.account(-1, -payloadLen(oldLen))
		}
		if quiet {
			return nil
		}
		return c.reply(Response{Opcode: loud(req.Opcode), Opaque: req.Opaque})
	})
}

// payloadLen converts a stored length from a PutVer reply to the user
// payload length (strips the version/flags header; native values
// without the header count whole).
func payloadLen(storedLen int) int64 {
	if storedLen >= 12 {
		return int64(storedLen - 12)
	}
	return int64(storedLen)
}

// doCounter handles INCR/DECR. Extras are delta u64 | initial u64 |
// expiry u32; expiry 0xffffffff means "do not vivify" per the memcache
// spec, any other value vivifies with initial.
func (c *conn) doCounter(req Request) {
	if len(req.Extras) != 20 {
		c.enqueueFail(req, StatusInvalidArgs)
		return
	}
	delta := binary.BigEndian.Uint64(req.Extras)
	initial := binary.BigEndian.Uint64(req.Extras[8:])
	expiry := binary.BigEndian.Uint32(req.Extras[16:])
	create := expiry != 0xffffffff
	if !c.admit(req, create, 20) {
		return
	}
	t := c.tenant
	quiet := Quiet(req.Opcode)
	incr := loud(req.Opcode) == CmdIncr
	op, err := kvdirect.CounterOp(t.Namespace(req.Key), incr, delta, initial, create)
	if err != nil {
		c.enqueueFail(req, StatusInternalError)
		return
	}
	c.enqueueOp(op, func(res kvdirect.Result, up bool, lat time.Duration) error {
		t.counterLat.Observe(uint64(lat))
		if !up {
			return c.reply(c.failNow(req, StatusTempFailure))
		}
		if !res.OK() {
			return c.reply(c.failNow(req, mapStatus(res.Status)))
		}
		value, version, derr := kvdirect.DecodeCounterResult(res)
		if derr != nil {
			return c.reply(c.failNow(req, StatusInternalError))
		}
		if version == 1 {
			t.account(1, int64(len(fmt.Sprint(value))))
		}
		if quiet {
			return nil
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], value)
		return c.reply(Response{Opcode: loud(req.Opcode), Opaque: req.Opaque,
			CAS: version, Value: out[:]})
	})
}

// doStat emits the tenant's view of the gateway as a stat sequence
// terminated by the standard empty-key frame.
func (c *conn) doStat(req Request) {
	t := c.tenant
	c.pending = append(c.pending, pending{emit: func() error {
		snap := t.tel.Snapshot()
		stats := []struct{ k, v string }{
			{"tenant", t.Name()},
			{"curr_items", fmt.Sprint(t.Keys())},
			{"bytes", fmt.Sprint(t.Bytes())},
			{"cmd_total", fmt.Sprint(snap.Counters["gw.ops"])},
			{"get_hits", fmt.Sprint(snap.Counters["gw.hits"])},
			{"get_misses", fmt.Sprint(snap.Counters["gw.misses"])},
			{"quota_rejections", fmt.Sprint(snap.Counters["gw.quota_rejections"])},
		}
		for _, s := range stats {
			if err := c.reply(Response{Opcode: CmdStat, Opaque: req.Opaque,
				Key: []byte(s.k), Value: []byte(s.v)}); err != nil {
				return err
			}
		}
		return c.reply(Response{Opcode: CmdStat, Opaque: req.Opaque})
	}})
}
