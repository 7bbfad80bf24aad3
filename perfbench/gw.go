package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// gw-replicated: two SASL tenants, one connection each, send
// quiet-pipelined 16-op memcache batches in a closed loop to a kvgw
// gateway whose backend is a 3-replica, quorum-2 kvrepl group.
const (
	gwTenants     = 2
	gwDataKeys    = 8192
	gwCounterKeys = 512
	gwKeyLen      = 16
	gwPayload     = 32
	gwBatch       = 16
	// gwRateCap sizes the input streams: batches per second per tenant,
	// about four times what a 2-vCPU host sustains.
	gwRateCap = 4000
	gwMem     = 32 << 20
	noopIdx   = 31 // opaque low bits of a batch's terminating NOOP
)

type gwBench struct {
	cfg     config
	keys    keyTable // tenant-local keys: data ids first, then counters
	nData   int
	nCount  int
	tenants []*gwTenant
	wire    [3]float64

	coord *kvrepl.Coordinator
	group *kvrepl.Group
	sc    *kvnet.ShardedClient
	shim  *gwShim
	gw    *kvgw.Gateway
}

type gwTenant struct {
	b      *gwBench
	name   string
	prefix []byte
	recs   []uint32 // gwBatch records per batch
	pos    int      // next batch

	nc  net.Conn
	r   *bufio.Reader
	in  []byte
	out []byte
	cur gwSent

	// Model, owned by the sender: item version (the CAS token) and
	// counter value of every key.
	ver []uint32
	cnt []uint64
}

// gwOp is what the sender expects for one op of a batch in flight.
type gwOp struct {
	kind int
	id   uint64
	cas  uint32
	cnt  uint64
}

type gwSent struct {
	seq uint32
	ops [gwBatch]gwOp
}

func newGwBench(cfg config) (*gwBench, error) {
	b := &gwBench{cfg: cfg,
		nData:  max(64, int(gwDataKeys*cfg.scale)),
		nCount: max(8, int(gwCounterKeys*cfg.scale))}
	b.keys = newKeyTable(b.nData+b.nCount, gwKeyLen)
	batches := int(math.Ceil(gwRateCap * (cfg.seconds + cfg.warm.Seconds())))
	if cfg.maxReqs > 0 {
		batches = min(batches, cfg.maxReqs)
	}
	for t := 0; t < gwTenants; t++ {
		rng := rand.New(rand.NewSource(cfg.seed*7919 + 1000 + int64(t)))
		b.tenants = append(b.tenants, &gwTenant{b: b, name: fmt.Sprintf("tenant%d", t), recs: b.gen(rng, batches)})
	}
	return b, nil
}

// gen draws batches of 16 ops: 70% GETKQ over every key, 20% SETQ of a
// data key, 10% either INCRQ of a counter or a gets+CAS pair on a data
// key (the CAS carries the token the model predicts).
func (b *gwBench) gen(rng *rand.Rand, batches int) []uint32 {
	out := make([]uint32, 0, batches*gwBatch)
	for len(out) < cap(out) {
		for i := 0; i < gwBatch; i++ {
			r := rng.Float64()
			switch {
			case r < 0.70:
				out = append(out, rec(gGet, 0, uint64(rng.Intn(b.nData+b.nCount))))
			case r < 0.90:
				out = append(out, rec(gSet, 0, uint64(rng.Intn(b.nData))))
			case r < 0.95 || i == gwBatch-1:
				out = append(out, rec(gIncr, 1+rng.Intn(100), uint64(b.nData+rng.Intn(b.nCount))))
			default:
				id := uint64(rng.Intn(b.nData))
				out = append(out, rec(gGets, 0, id), rec(gCas, 0, id))
				i++
			}
		}
	}
	return out
}

func (b *gwBench) describe(w io.Writer) {
	fmt.Fprintf(w, "# workload gw-replicated: %d tenants x (%d data + %d counter keys), key %d B, payload %d B, %d-op quiet batches, closed loop with one batch in flight per tenant, kvrepl 3 replicas quorum 2, store %d MiB each\n",
		gwTenants, b.nData, b.nCount, gwKeyLen, gwPayload, gwBatch, gwMem>>20)
	for _, t := range b.tenants {
		fmt.Fprintf(w, "# stream %s: %d ops, digest %016x\n", t.name, len(t.recs), digest(t.recs))
	}
}

func (b *gwBench) storeConfig() kvdirect.Config {
	return kvdirect.Config{MemoryBytes: gwMem, Seed: storeSeed}
}

func (b *gwBench) setup() error {
	b.coord = kvrepl.NewCoordinator(kvrepl.CoordOptions{LeaseTimeout: 2 * time.Second})
	g, err := kvrepl.StartGroup(b.coord, 0, 3, b.storeConfig(), kvrepl.Options{Quorum: 2})
	if err != nil {
		return err
	}
	b.group = g
	b.sc, err = kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		return err
	}
	b.coord.OnRoute(func(s int, a kvnet.ShardAddrs) { _ = b.sc.UpdateShard(s, a) }) // shard 0 always exists
	rc := kvgw.RegistryConfig{}
	never := kvgw.Quota{MaxKeys: 1 << 40, MaxBytes: 1 << 50, OpsPerSec: 1e12}
	for _, t := range b.tenants {
		rc.Tenants = append(rc.Tenants, kvgw.TenantConfig{Name: t.name, Secret: "s-" + t.name, Quota: never})
	}
	reg, err := kvgw.NewRegistry(rc, nil)
	if err != nil {
		return err
	}
	b.shim = &gwShim{inner: b.sc}
	b.shim.record.Store(b.cfg.trace)
	b.gw, err = kvgw.Serve(b.shim, reg, "127.0.0.1:0", kvgw.Options{})
	if err != nil {
		return err
	}
	for _, t := range b.tenants {
		tn, _ := reg.Lookup(t.name) // registered just above
		t.prefix = tn.Prefix()
		b.shim.prefixes = append(b.shim.prefixes, t.prefix)
		if err := t.connect(b.gw.Addr()); err != nil {
			return err
		}
	}
	for _, t := range b.tenants {
		if err := t.preload(); err != nil {
			return fmt.Errorf("%s preload: %w", t.name, err)
		}
	}
	return nil
}

func (b *gwBench) close() {
	for _, t := range b.tenants {
		if t.nc != nil {
			_ = t.nc.Close() // tearing down; nothing to report
			t.nc = nil
		}
	}
	if b.gw != nil {
		_ = b.gw.Close() // tearing down; nothing to report
		b.gw = nil
	}
	if b.sc != nil {
		_ = b.sc.Close() // tearing down; nothing to report
		b.sc = nil
	}
	if b.coord != nil {
		b.coord.Close()
		b.coord = nil
	}
	if b.group != nil {
		_ = b.group.Close() // tearing down; nothing to report
		b.group = nil
	}
}

func (t *gwTenant) connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	t.nc = nc
	t.r = bufio.NewReaderSize(nc, 64<<10)
	t.pos = 0
	t.ver = make([]uint32, t.b.nData+t.b.nCount)
	t.cnt = make([]uint64, t.b.nData+t.b.nCount)
	auth := append([]byte{0}, t.name...)
	auth = append(append(auth, 0), "s-"+t.name...)
	t.out, _ = kvgw.AppendRequest(t.out[:0], kvgw.Request{Opcode: kvgw.CmdSASLAuth, Key: []byte("PLAIN"), Value: auth}) // small frame: cannot fail
	if _, err := nc.Write(t.out); err != nil {
		return err
	}
	resp, err := t.read()
	if err != nil {
		return err
	}
	if resp.Status != kvgw.StatusOK {
		return fmt.Errorf("auth %s: %s", t.name, kvgw.StatusText(resp.Status))
	}
	return nil
}

func (t *gwTenant) read() (kvgw.Response, error) {
	hdr, err := t.r.Peek(kvgw.HeaderSize)
	if err != nil {
		return kvgw.Response{}, err
	}
	need := kvgw.HeaderSize + int(binary.BigEndian.Uint32(hdr[8:]))
	if cap(t.in) < need {
		t.in = make([]byte, need)
	}
	if _, err := io.ReadFull(t.r, t.in[:need]); err != nil {
		return kvgw.Response{}, err
	}
	resp, _, err := kvgw.DecodeResponse(t.in[:need])
	return resp, err
}

var zeroExtras = make([]byte, 8)

// payload is what a key holds at a model state: the stamped value for a
// data key, the ASCII decimal for a counter.
func (t *gwTenant) payload(dst []byte, id uint64) []byte {
	if int(id) >= t.b.nData {
		return strconv.AppendUint(dst[:0], t.cnt[id], 10)
	}
	dst = dst[:gwPayload]
	stampValue(dst, id, t.ver[id])
	return dst
}

// preload writes every key at version 1 through the gateway in quiet
// batches, so the group replicates it like any other write.
func (t *gwTenant) preload() error {
	var pay [gwPayload]byte
	n := t.b.nData + t.b.nCount
	for lo := 0; lo < n; lo += 128 {
		t.out = t.out[:0]
		for id := lo; id < min(n, lo+128); id++ {
			t.ver[id], t.cnt[id] = 1, 0
			t.out, _ = kvgw.AppendRequest(t.out, kvgw.Request{Opcode: kvgw.CmdSetQ, Key: t.b.keys.key(uint64(id)),
				Extras: zeroExtras, Value: t.payload(pay[:], uint64(id))}) // small frame: cannot fail
		}
		t.out, _ = kvgw.AppendRequest(t.out, kvgw.Request{Opcode: kvgw.CmdNoop}) // cannot fail
		if _, err := t.nc.Write(t.out); err != nil {
			return err
		}
		resp, err := t.read()
		if err != nil {
			return err
		}
		if resp.Opcode != kvgw.CmdNoop {
			return fmt.Errorf("preload set failed: %s", kvgw.StatusText(resp.Status))
		}
	}
	return nil
}

// build encodes batch t.pos into t.out and records what each op must
// return, advancing the model as if every op succeeds.
func (t *gwTenant) build(s *gwSent) {
	var pay [gwPayload]byte
	var ext [20]byte
	t.out = t.out[:0]
	s.seq = uint32(t.pos)
	for i, r := range t.recs[t.pos*gwBatch : (t.pos+1)*gwBatch] {
		id, kind := recID(r), recKind(r)
		key := t.b.keys.key(id)
		req := kvgw.Request{Opaque: s.seq<<5 | uint32(i), Key: key}
		s.ops[i] = gwOp{kind: kind, id: id, cas: t.ver[id], cnt: t.cnt[id]}
		switch kind {
		case gGet, gGets:
			req.Opcode = kvgw.CmdGetKQ
		case gSet, gCas:
			req.Opcode, req.Extras = kvgw.CmdSetQ, zeroExtras
			if kind == gCas {
				req.CAS = uint64(t.ver[id])
			}
			t.ver[id]++
			req.Value = t.payload(pay[:], id)
		case gIncr:
			t.cnt[id] += uint64(recArg(r))
			t.ver[id]++
			binary.BigEndian.PutUint64(ext[:], uint64(recArg(r)))
			binary.BigEndian.PutUint32(ext[16:], 0xffffffff) // never vivify: the key exists
			req.Opcode, req.Extras = kvgw.CmdIncrQ, ext[:]
		}
		t.out, _ = kvgw.AppendRequest(t.out, req) // small frame: cannot fail
	}
	t.out, _ = kvgw.AppendRequest(t.out, kvgw.Request{Opcode: kvgw.CmdNoop, Opaque: s.seq<<5 | noopIdx}) // cannot fail
}

// loop sends one batch at a time until stop and checks its responses:
// every GET answered with the model's value and CAS token, no quiet
// write answered (quiet writes reply only on failure), then the NOOP.
func (t *gwTenant) loop(clk *clock, stop *atomic.Bool, w *window, traced bool, exhausted func()) {
	var broken error
	for !stop.Load() {
		if (t.pos+1)*gwBatch > len(t.recs) {
			exhausted()
			return
		}
		t.build(&t.cur)
		t.pos++
		start := time.Now()
		bad := gwBatch
		if _, err := t.nc.Write(t.out); err == nil {
			bad = t.check(&t.cur, &broken, w)
		}
		end := time.Now()
		w.bad += uint64(bad)
		w.done(clk, start, end, gwBatch)
		if traced {
			w.self = append(w.self, uint32(end.Sub(start)))
		}
	}
}

// check reads one batch's responses up to its NOOP and returns how many
// of its ops were answered wrongly or not at all. After a read error the
// connection is gone and every later op counts as failed.
func (t *gwTenant) check(s *gwSent, broken *error, w *window) (bad int) {
	var answered uint32
	for *broken == nil {
		resp, err := t.read()
		if err != nil {
			*broken = err
			break
		}
		if resp.Opaque>>5 != s.seq&(1<<27-1) {
			bad++
			continue
		}
		i := resp.Opaque & 31
		if i == noopIdx {
			for j, op := range s.ops {
				if (op.kind == gGet || op.kind == gGets) && answered&(1<<j) == 0 {
					bad++
				}
			}
			return bad
		}
		if i >= gwBatch || answered&(1<<i) != 0 {
			bad++
			continue
		}
		answered |= 1 << i
		if resp.Status == kvgw.StatusTempFailure {
			w.tempFail++
		}
		if !t.okGet(s.ops[i], resp) {
			bad++
		}
	}
	return gwBatch
}

func (t *gwTenant) okGet(op gwOp, resp kvgw.Response) bool {
	if op.kind != gGet && op.kind != gGets || resp.Status != kvgw.StatusOK ||
		resp.CAS != uint64(op.cas) || !bytes.Equal(resp.Key, t.b.keys.key(op.id)) {
		return false
	}
	if int(op.id) >= t.b.nData {
		v, err := strconv.ParseUint(string(resp.Value), 10, 64)
		return err == nil && v == op.cnt
	}
	id, seq, ok := parseValue(resp.Value, gwPayload)
	return ok && id == op.id && seq == op.cas
}

func (b *gwBench) run(clk *clock, traced bool) *window {
	b.shim.beginWindow(traced)
	var stop atomic.Bool
	var once sync.Once
	exhausted := make(chan struct{})
	var wg sync.WaitGroup
	from := make([]int, len(b.tenants))
	ws := make([]*window, len(b.tenants))
	for i, t := range b.tenants {
		from[i], ws[i] = t.pos, &window{gateway: true}
		wg.Add(1)
		go func(t *gwTenant, w *window) {
			defer wg.Done()
			t.loop(clk, &stop, w, traced, func() { once.Do(func() { close(exhausted) }) })
		}(t, ws[i])
	}
	timer := time.NewTimer(time.Until(clk.end()))
	select {
	case <-timer.C:
	case <-exhausted:
		timer.Stop()
	}
	stop.Store(true)
	wg.Wait()
	w := &window{elapsed: time.Since(clk.start), gateway: true}
	select {
	case <-exhausted:
		w.exhausted = true
	default:
	}
	calls := b.shim.endWindow()
	if traced {
		b.shim.record.Store(false)
	}
	for i := range b.tenants {
		if traced {
			ws[i].self = b.selfTimes(i, ws[i].self, calls)
		}
		w.merge(ws[i])
	}
	for _, c := range calls {
		w.calls = append(w.calls, c.ns)
		w.callOps += uint64(c.ops)
	}
	for i, t := range b.tenants {
		for _, r := range t.recs[from[i]*gwBatch : t.pos*gwBatch] {
			w.kinds[recKind(r)]++
		}
	}
	return w
}

// selfTimes turns tenant i's client round trips into gateway self time
// by subtracting the backend calls that carried each batch's 16 ops
// (the gateway never merges two batches: each ends in a NOOP flush).
func (b *gwBench) selfTimes(i int, rtts []uint32, calls []gwCall) []uint32 {
	out := make([]uint32, 0, len(rtts))
	k := 0
	for _, rtt := range rtts {
		var ops, ns int64
		for ops < gwBatch && k < len(calls) {
			if calls[k].tenant == i {
				ops += int64(calls[k].ops)
				ns += int64(calls[k].ns)
			}
			k++
		}
		out = append(out, uint32(max(0, int64(rtt)-ns)))
	}
	return out
}

// converge waits until every replica has applied the primary's log.
func (b *gwBench) converge() error {
	p := b.group.Primary()
	if p == nil {
		return errors.New("no primary")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range b.group.Replicas {
			if r.LastApplied() != p.LastApplied() {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("backups did not catch up within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *gwBench) snapshot() snap {
	_ = b.converge() // a lagging backup shows in the end checks
	p := b.group.Primary()
	s := snap{tel: p.TelemetrySnapshot(), st: p.Store().Stats(),
		retries:    b.sc.Telemetry().Counters().Get("client.retries"),
		reconnects: b.sc.Telemetry().Counters().Get("client.reconnects"),
		redirects:  b.sc.Counters().Get("sharded.redirects"),
		failovers:  b.coord.Counters().Get("repl.failovers"),
		lagMax:     p.IntGauges().Get("repl.lag_max")}
	for _, r := range b.group.Replicas {
		if r != p {
			s.backupDMAs += float64(r.Store().Stats().Mem.Accesses()) / float64(len(b.group.Replicas)-1)
		}
	}
	return s
}

func (b *gwBench) endChecks() []string {
	var fails []string
	if err := b.converge(); err != nil {
		fails = append(fails, err.Error())
	}
	if n := b.coord.Counters().Get("repl.failovers"); n != 0 {
		fails = append(fails, fmt.Sprintf("%d failovers", n))
	}
	p := b.group.Primary()
	for _, r := range b.group.Replicas {
		s := r.Store()
		if s.NumKeys() != p.Store().NumKeys() {
			fails = append(fails, fmt.Sprintf("replica %d holds %d keys, primary %d", r.ID(), s.NumKeys(), p.Store().NumKeys()))
		}
		if h := s.Health(); !h.OK() {
			fails = append(fails, fmt.Sprintf("replica %d health: %s", r.ID(), h))
		}
	}
	return fails
}

func (b *gwBench) latUnit() string { return "batch of 16 memcache ops" }

// wireSizes samples lazily: the tenants' namespace prefixes exist only
// once the gateway's registry is built.
func (b *gwBench) wireSizes() (float64, float64, float64) {
	if b.wire[2] == 0 {
		b.wire = b.sampleWire()
	}
	return b.wire[0], b.wire[1], b.wire[2]
}

func (b *gwBench) twin() (*kvdirect.Store, error) { return kvdirect.New(b.storeConfig()) }

// replay yields every backend batch the gateway sent since set-up: the
// preload and untraced ones to bring the twin to the primary's state,
// then the traced ones.
func (b *gwBench) replay(yield func(ops []kvdirect.Op, timed bool)) {
	for i, ops := range b.shim.batches {
		yield(ops, i >= b.shim.timedFrom)
	}
}

// sampleWire translates the first batches of each tenant the way the
// gateway does and encodes them, with a correct backend's replies.
func (b *gwBench) sampleWire() [3]float64 {
	var reqB, respB, ops float64
	var pay [gwPayload]byte
	for _, t := range b.tenants {
		ver := make([]uint32, len(t.ver))
		cnt := make([]uint64, len(t.cnt))
		for id := range ver {
			ver[id] = 1
		}
		sample := t.recs[:min(len(t.recs), 256*gwBatch)]
		for lo := 0; lo < len(sample); lo += gwBatch {
			var batch []kvdirect.Op
			var resps []wire.Response
			for _, r := range sample[lo : lo+gwBatch] {
				id, kind := recID(r), recKind(r)
				key := append(append([]byte(nil), t.prefix...), b.keys.key(id)...)
				var op kvdirect.Op
				var reply []byte
				switch kind {
				case gGet, gGets:
					op = kvdirect.Op{Code: kvdirect.OpGet, Key: key}
					reply = wire.EncodeGwItem(uint64(ver[id]), 0, pay[:])
				case gSet, gCas:
					op, _ = kvdirect.PutVerOp(kvdirect.PutVerSet, key, uint64(ver[id]), 0, pay[:]) // small item: cannot fail
					ver[id]++
					reply = wire.EncodePutVerReply(uint64(ver[id]), true, len(pay)+wire.GwItemOverhead)
				case gIncr:
					op, _ = kvdirect.CounterOp(key, true, uint64(recArg(r)), 0, false) // cannot fail
					cnt[id] += uint64(recArg(r))
					ver[id]++
					reply = wire.EncodeCounterReply(cnt[id], uint64(ver[id]))
				}
				batch = append(batch, op)
				resps = append(resps, wire.Response{Value: reply})
			}
			pkt, _ := kvdirect.EncodeBatch(batch)      // well-formed ops: cannot fail
			out, _ := wire.AppendResponses(nil, resps) // small values: cannot fail
			reqB += float64(len(pkt))
			respB += float64(len(out))
			ops += gwBatch
		}
	}
	return [3]float64{reqB / ops, respB / ops, gwBatch}
}

// gwShim is the timing shim between the gateway and its kvnet backend.
type gwShim struct {
	inner  *kvnet.ShardedClient
	timed  atomic.Bool
	record atomic.Bool

	mu        sync.Mutex
	calls     []gwCall
	batches   [][]kvdirect.Op
	timedFrom int
	prefixes  [][]byte
}

type gwCall struct {
	tenant int
	ops    int
	ns     uint32
}

func (s *gwShim) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	if !s.timed.Load() && !s.record.Load() {
		return s.inner.Do(ops)
	}
	start := time.Now()
	res, err := s.inner.Do(ops)
	ns := uint32(time.Since(start))
	s.mu.Lock()
	if s.record.Load() {
		s.batches = append(s.batches, ops)
	}
	if s.timed.Load() {
		s.calls = append(s.calls, gwCall{tenant: s.tenantOf(ops), ops: len(ops), ns: ns})
	}
	s.mu.Unlock()
	return res, err
}

func (s *gwShim) tenantOf(ops []kvdirect.Op) int {
	for i, p := range s.prefixes {
		if len(ops) > 0 && bytes.HasPrefix(ops[0].Key, p) {
			return i
		}
	}
	return -1
}

func (s *gwShim) beginWindow(timed bool) {
	s.mu.Lock()
	s.calls = nil
	if timed {
		s.timedFrom = len(s.batches)
	}
	s.mu.Unlock()
	s.timed.Store(timed)
}

func (s *gwShim) endWindow() []gwCall {
	s.timed.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}
