package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// netSpec sizes one of the three workloads that drive a single Store
// through kvnet clients in a closed loop.
type netSpec struct {
	keys           int // preloaded keys
	ids            int // key id space (preloaded keys plus room to create)
	keyLen, valLen int
	conns, callers int // connections, callers sharing each connection
	batch          int // ops per request
	memBytes       uint64
	rateCap        float64 // requests/s the input streams are sized for
	unit           string
}

var netSpecs = map[string]netSpec{
	// YCSB-B over the paper's tiny KVs: one op per request, 8 callers
	// sharing each connection.
	"read-pipelined": {keys: 100000, ids: 100000, keyLen: 10, valLen: 16,
		conns: 2, callers: 8, batch: 1, memBytes: 64 << 20, rateCap: 240000, unit: "op"},
	// Uniform mixed writes in 32-op batches over a working set three
	// times the NIC DRAM cache (1/16 of the store); 128 MiB is the
	// smallest power-of-two store whose slab half holds the key set.
	"write-mixed-uniform": {keys: 300000, ids: 320000, keyLen: 16, valLen: 64,
		conns: 2, callers: 1, batch: 32, memBytes: 128 << 20, rateCap: 20000, unit: "batch of 32 ops"},
	// YCSB-E: Zipf-started range scans plus inserts. Preloaded keys take
	// the even ids, inserts the odd ones, so inserts land inside ranges.
	"scan-ranges": {keys: 100000, ids: 200000, keyLen: 10, valLen: 16,
		conns: 2, callers: 1, batch: 1, memBytes: 64 << 20, rateCap: 64000, unit: "range"},
}

// Window kind counters of the native workloads.
const (
	wGet = iota
	wOverwrite
	wDelete
	wScan
	wCreate
)

// storeSeed seeds every store's hash functions. It belongs to the
// system under test, not to the input, so it does not follow --seed:
// the spread across seeds then reflects the inputs alone.
const storeSeed = 1

// Key state, one word per key id: write sequence << 1 | live bit.
// Preloaded keys start at sequence 1; every put or delete bumps it, and
// values carry the sequence they were written with.
const preloadState = 1<<1 | 1

type netBench struct {
	cfg     config
	sp      netSpec
	keys    keyTable
	streams [][]uint32 // per caller
	wire    [3]float64

	// issued is the newest state each key's owner has sent; acked the
	// newest it has seen acknowledged. A read of another caller's key
	// must return a state between the two.
	issued, acked []atomic.Uint32

	store   *kvdirect.Store
	srv     *kvnet.Server
	clients []*kvnet.Client
	callers []*netCaller

	exhaustOnce sync.Once
	exhausted   chan struct{}
}

type netCaller struct {
	b    *netBench
	idx  int
	cl   *kvnet.Client
	recs []uint32
	pos  int
	ops  []kvdirect.Op
	exp  []uint32 // per op of the request in flight: expected state
	vbuf []byte
	w    *window
	clk  *clock

	// Stream positions of the traced phase, [traceFrom, traceTo).
	traceFrom, traceTo int
}

func newNetBench(cfg config) (*netBench, error) {
	sp := netSpecs[cfg.workload]
	if cfg.conns > 0 {
		sp.conns = cfg.conns
	}
	if cfg.callers > 0 {
		sp.callers = cfg.callers
	}
	scale := func(n int) int { return max(64, int(float64(n)*cfg.scale)) }
	sp.ids = scale(sp.ids)
	sp.keys = scale(sp.keys)
	if cfg.workload == "scan-ranges" {
		sp.ids = 2 * sp.keys
	}
	if sp.ids >= maxIDs {
		return nil, fmt.Errorf("%d keys exceed the record format", sp.ids)
	}
	b := &netBench{cfg: cfg, sp: sp, keys: newKeyTable(sp.ids, sp.keyLen),
		issued: make([]atomic.Uint32, sp.ids), acked: make([]atomic.Uint32, sp.ids)}
	n := sp.conns * sp.callers
	reqs := int(math.Ceil(sp.rateCap * (cfg.seconds + cfg.warm.Seconds()) / float64(n)))
	if cfg.maxReqs > 0 {
		reqs = min(reqs, cfg.maxReqs)
	}
	b.streams = make([][]uint32, n)
	for c := range b.streams {
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
		switch cfg.workload {
		case "read-pipelined":
			b.streams[c] = b.genRead(rng, c, n, reqs)
		case "write-mixed-uniform":
			b.streams[c] = b.genMixed(rng, c, n, reqs*sp.batch)
		default:
			b.streams[c] = b.genScan(rng, c, n, reqs)
		}
	}
	b.wire = b.sampleWire()
	return b, nil
}

// owner is the caller that writes key id; only it mutates the key.
func (b *netBench) owner(id uint64) int {
	if b.cfg.workload == "scan-ranges" {
		return int(id/2) % len(b.streams)
	}
	return int(id % uint64(len(b.streams)))
}

func (b *netBench) preloaded(id uint64) bool {
	if b.cfg.workload == "scan-ranges" {
		return id%2 == 0
	}
	return id < uint64(b.sp.keys)
}

// genRead: 95% GET / 5% PUT overwrite, both Zipf 0.99 over all keys; a
// PUT is redrawn until it hits a key this caller owns.
func (b *netBench) genRead(rng *rand.Rand, c, n, reqs int) []uint32 {
	z := newZipf(b.sp.keys, 0.99)
	out := make([]uint32, reqs)
	for i := range out {
		if rng.Float64() < 0.95 {
			out[i] = rec(kGet, 0, scramble(z.draw(rng), b.sp.keys))
			continue
		}
		id := scramble(z.draw(rng), b.sp.keys)
		for b.owner(id) != c {
			id = scramble(z.draw(rng), b.sp.keys)
		}
		out[i] = rec(kPut, 0, id)
	}
	return out
}

// genMixed: uniform over the caller's own ids; 50% GET, 40% overwrite,
// 5% create (of a dead id), 5% delete (of a live id).
func (b *netBench) genMixed(rng *rand.Rand, c, n, ops int) []uint32 {
	live, dead := &idSet{}, &idSet{}
	for id := uint64(c); id < uint64(b.sp.ids); id += uint64(n) {
		if b.preloaded(id) {
			live.add(id)
		} else {
			dead.add(id)
		}
	}
	own := (b.sp.ids - c + n - 1) / n
	out := make([]uint32, ops)
	for i := range out {
		r := rng.Float64()
		switch {
		case r < 0.50:
			out[i] = rec(kGet, 0, uint64(rng.Intn(own)*n+c))
		case r < 0.90, r < 0.95 && len(dead.ids) == 0, len(live.ids) < 2:
			// An overwrite; also stands in for a create with no dead id
			// left or a delete that would empty the live set.
			out[i] = rec(kPut, 0, live.pick(rng))
		case r < 0.95:
			id := dead.take(rng)
			live.add(id)
			out[i] = rec(kPut, 0, id)
		default:
			id := live.take(rng)
			dead.add(id)
			out[i] = rec(kDel, 0, id)
		}
	}
	return out
}

// genScan: 95% SCAN from a Zipf-drawn preloaded key with a limit uniform
// in [1,100], 5% insert of a fresh odd id owned by this caller.
func (b *netBench) genScan(rng *rand.Rand, c, n, reqs int) []uint32 {
	z := newZipf(b.sp.keys, 0.99)
	var fresh []uint64
	for _, m := range rng.Perm(b.sp.keys) {
		if m%n == c {
			fresh = append(fresh, uint64(2*m+1))
		}
	}
	out := make([]uint32, reqs)
	for i := range out {
		if rng.Float64() < 0.95 || len(fresh) == 0 {
			out[i] = rec(kScan, 1+rng.Intn(100), 2*scramble(z.draw(rng), b.sp.keys))
			continue
		}
		out[i] = rec(kPut, 0, fresh[0])
		fresh = fresh[1:]
	}
	return out
}

func (b *netBench) describe(w io.Writer) {
	sp := b.sp
	fmt.Fprintf(w, "# workload %s: %d preloaded keys of %d ids, key %d B, value %d B, %d conns x %d callers, %d ops/request, store %d MiB, closed loop\n",
		b.cfg.workload, sp.keys, sp.ids, sp.keyLen, sp.valLen, sp.conns, sp.callers, sp.batch, sp.memBytes>>20)
	for c, s := range b.streams {
		fmt.Fprintf(w, "# stream caller %d: %d ops, digest %016x\n", c, len(s), digest(s))
	}
}

func (b *netBench) storeConfig() kvdirect.Config {
	return kvdirect.Config{MemoryBytes: b.sp.memBytes, Seed: storeSeed}
}

// newLoadedStore builds a store and writes every preloaded key at
// sequence 1 through the batch apply path.
func (b *netBench) newLoadedStore() (*kvdirect.Store, error) {
	s, err := kvdirect.New(b.storeConfig())
	if err != nil {
		return nil, err
	}
	const chunk = 256
	vals := make([]byte, chunk*b.sp.valLen)
	ops := make([]kvdirect.Op, 0, chunk)
	flush := func() error {
		for _, r := range kvdirect.Execute(s, ops) {
			if !r.OK() {
				return fmt.Errorf("preload put failed: status %d %s", r.Status, r.Value)
			}
		}
		ops = ops[:0]
		return nil
	}
	for id := uint64(0); id < uint64(b.sp.ids); id++ {
		if !b.preloaded(id) {
			continue
		}
		v := vals[len(ops)*b.sp.valLen : (len(ops)+1)*b.sp.valLen]
		stampValue(v, id, 1)
		ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: b.keys.key(id), Value: v})
		if len(ops) == chunk {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return s, nil
}

func (b *netBench) setup() error {
	for id := range b.issued {
		st := uint32(0)
		if b.preloaded(uint64(id)) {
			st = preloadState
		}
		b.issued[id].Store(st)
		b.acked[id].Store(st)
	}
	b.exhausted = make(chan struct{})
	b.exhaustOnce = sync.Once{}
	s, err := b.newLoadedStore()
	if err != nil {
		return err
	}
	b.store = s
	if b.cfg.hook != nil {
		b.srv, err = kvnet.ServeBackend(b.cfg.hook(s), "127.0.0.1:0", kvnet.ServerOptions{})
	} else {
		b.srv, err = kvnet.ServeOptions(s, "127.0.0.1:0", kvnet.ServerOptions{})
	}
	if err != nil {
		return err
	}
	b.clients = nil
	for i := 0; i < b.sp.conns; i++ {
		cl, err := kvnet.DialOptions(b.srv.Addr(), kvnet.Options{})
		if err != nil {
			return err
		}
		b.clients = append(b.clients, cl)
	}
	b.callers = nil
	for c, recs := range b.streams {
		b.callers = append(b.callers, &netCaller{b: b, idx: c, cl: b.clients[c/b.sp.callers], recs: recs,
			ops: make([]kvdirect.Op, 0, b.sp.batch), exp: make([]uint32, b.sp.batch),
			vbuf: make([]byte, b.sp.batch*b.sp.valLen)})
	}
	return nil
}

func (b *netBench) close() {
	for _, cl := range b.clients {
		_ = cl.Close() // tearing down; nothing to report
	}
	b.clients = nil
	if b.srv != nil {
		_ = b.srv.Close() // tearing down; nothing to report
		b.srv = nil
	}
	if b.store != nil {
		b.store.Close()
		b.store = nil
	}
}

func (b *netBench) exhaust() { b.exhaustOnce.Do(func() { close(b.exhausted) }) }

func (b *netBench) run(clk *clock, traced bool) *window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	d := time.Until(clk.end())
	for _, c := range b.callers {
		left := (len(c.recs) - c.pos) / b.sp.batch
		est := min(left, int(float64(left)*d.Seconds()/(b.cfg.seconds+b.cfg.warm.Seconds()))+1024)
		c.w = &window{lat: make([]uint32, 0, est), slot: make([]uint8, 0, est)}
		c.clk = clk
		if traced {
			c.traceFrom = c.pos
		}
		wg.Add(1)
		go func(c *netCaller) {
			defer wg.Done()
			c.loop(&stop)
		}(c)
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-b.exhausted:
		t.Stop()
	}
	stop.Store(true)
	wg.Wait()
	w := &window{elapsed: time.Since(clk.start)}
	for _, c := range b.callers {
		if traced {
			c.traceTo = c.pos
			c.w.calls = c.w.lat
			c.w.callOps = c.w.ops
		}
		w.merge(c.w)
	}
	select {
	case <-b.exhausted:
		w.exhausted = true
	default:
	}
	return w
}

func (c *netCaller) loop(stop *atomic.Bool) {
	batch := c.b.sp.batch
	for !stop.Load() {
		if c.pos+batch > len(c.recs) {
			c.b.exhaust()
			return
		}
		recs := c.recs[c.pos : c.pos+batch]
		if recKind(recs[0]) == kScan {
			c.scan(recs[0])
		} else {
			c.do(recs)
		}
		c.pos += batch
	}
}

func (c *netCaller) do(recs []uint32) {
	b := c.b
	ops := c.ops[:0]
	for i, r := range recs {
		id := recID(r)
		key := b.keys.key(id)
		switch recKind(r) {
		case kGet:
			if b.owner(id) == c.idx {
				c.exp[i] = b.issued[id].Load()
			} else {
				c.exp[i] = b.acked[id].Load()
			}
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpGet, Key: key})
		case kPut:
			old := b.issued[id].Load()
			next := (old>>1+1)<<1 | 1
			b.issued[id].Store(next)
			c.exp[i] = old
			v := c.vbuf[i*b.sp.valLen : (i+1)*b.sp.valLen]
			stampValue(v, id, next>>1)
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: key, Value: v})
		case kDel:
			old := b.issued[id].Load()
			b.issued[id].Store((old>>1 + 1) << 1)
			c.exp[i] = old
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpDelete, Key: key})
		}
	}
	start := time.Now()
	res, err := c.cl.Do(ops)
	c.w.done(c.clk, start, time.Now(), len(ops))
	if err != nil || len(res) != len(ops) {
		c.w.bad += uint64(len(ops))
		return
	}
	for i, r := range recs {
		id := recID(r)
		old := c.exp[i]
		switch recKind(r) {
		case kGet:
			c.w.kinds[wGet]++
			hi := old
			if b.owner(id) != c.idx {
				hi = b.issued[id].Load()
			}
			if !b.checkGet(res[i], id, old, hi) {
				c.w.bad++
			}
		case kPut:
			if old&1 == 1 {
				c.w.kinds[wOverwrite]++
			} else {
				c.w.kinds[wCreate]++
			}
			if res[i].OK() {
				b.acked[id].Store((old>>1+1)<<1 | 1)
			} else {
				c.w.bad++
			}
		case kDel:
			c.w.kinds[wDelete]++
			want := kvdirect.StatusNotFound
			if old&1 == 1 {
				want = kvdirect.StatusOK
			}
			if res[i].Status == want {
				b.acked[id].Store((old>>1 + 1) << 1)
			} else {
				c.w.bad++
			}
		}
	}
}

// checkGet accepts exactly the states a linearizable store could return
// for a read issued when lo was acknowledged and answered before hi was
// issued (lo == hi for the caller's own keys).
func (b *netBench) checkGet(r kvdirect.Result, id uint64, lo, hi uint32) bool {
	if r.NotFound() {
		return lo&1 == 0 || hi&1 == 0 || hi>>1 > lo>>1+1
	}
	if !r.OK() {
		return false
	}
	vid, seq, ok := parseValue(r.Value, b.sp.valLen)
	if !ok || vid != id || seq < lo>>1 || seq > hi>>1 {
		return false
	}
	return lo&1 == 1 || seq > lo>>1
}

func (c *netCaller) scan(r uint32) {
	b := c.b
	start, limit := recID(r), recArg(r)
	t0 := time.Now()
	entries, err := c.cl.Scan(b.keys.key(start), limit)
	c.w.done(c.clk, t0, time.Now(), 1)
	c.w.kinds[wScan]++
	if err != nil || !b.checkScan(entries, start, limit) {
		c.w.bad++
	}
}

// checkScan verifies a page: at most limit entries, strictly ascending,
// none below start, every value the one its key was written with, and
// no preloaded key (they are never deleted) skipped or cut off.
func (b *netBench) checkScan(entries []kvdirect.ScanEntry, start uint64, limit int) bool {
	if len(entries) > limit {
		return false
	}
	next := start // smallest preloaded id not yet accounted for
	for i, e := range entries {
		if len(e.Key) != b.sp.keyLen {
			return false
		}
		id := keyID(e.Key)
		if id < start || i > 0 && id <= keyID(entries[i-1].Key) || next < id || id >= uint64(b.sp.ids) {
			return false
		}
		vid, seq, ok := parseValue(e.Value, b.sp.valLen)
		if !ok || vid != id || seq < 1 || seq > b.issued[id].Load()>>1 {
			return false
		}
		next = id + 2 - id%2
	}
	return len(entries) == limit || next >= uint64(b.sp.ids)
}

func (b *netBench) snapshot() snap {
	s := snap{tel: b.srv.TelemetrySnapshot()} // takes the pipeline lock: orders the store reads below after every apply
	s.st = b.store.Stats()
	for _, cl := range b.clients {
		s.retries += cl.Counters().Get("client.retries")
		s.reconnects += cl.Counters().Get("client.reconnects")
	}
	return s
}

func (b *netBench) endChecks() []string {
	b.srv.TelemetrySnapshot() // synchronize with the last apply
	if h := b.store.Health(); !h.OK() {
		return []string{"store health: " + h.String()}
	}
	return nil
}

func (b *netBench) latUnit() string { return b.sp.unit }

func (b *netBench) wireSizes() (float64, float64, float64) { return b.wire[0], b.wire[1], b.wire[2] }

// buildOps materialises records as the request the callers send, with a
// placeholder sequence in written values (same length, same cost).
func (b *netBench) buildOps(recs []uint32, vbuf []byte) []kvdirect.Op {
	ops := make([]kvdirect.Op, 0, len(recs))
	for i, r := range recs {
		id := recID(r)
		key := b.keys.key(id)
		switch recKind(r) {
		case kGet:
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpGet, Key: key})
		case kPut:
			v := vbuf[i*b.sp.valLen : (i+1)*b.sp.valLen]
			stampValue(v, id, 1)
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: key, Value: v})
		case kDel:
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpDelete, Key: key})
		case kScan:
			op, _ := kvdirect.ScanOp(key, recArg(r), nil) // limit is 1..100: cannot fail
			ops = append(ops, op)
		}
	}
	return ops
}

// sampleWire encodes the first requests of every stream with the
// program's codec, and the responses a correct store gives them, for the
// modeled network ceiling.
func (b *netBench) sampleWire() [3]float64 {
	const sample = 512
	var reqB, respB, ops float64
	vbuf := make([]byte, b.sp.batch*b.sp.valLen)
	for _, s := range b.streams {
		for p := 0; p+b.sp.batch <= len(s) && p < sample*b.sp.batch; p += b.sp.batch {
			batch := b.buildOps(s[p:p+b.sp.batch], vbuf)
			pkt, _ := kvdirect.EncodeBatch(batch) // well-formed ops: cannot fail
			reqB += float64(len(pkt))
			resps := make([]wire.Response, len(batch))
			for i, op := range batch {
				switch op.Code {
				case kvdirect.OpGet:
					resps[i].Value = vbuf[:b.sp.valLen]
				case kvdirect.OpScan:
					entries := make([]wire.ScanEntry, recArg(s[p+i]))
					for j := range entries {
						entries[j] = wire.ScanEntry{Key: op.Key, Value: vbuf[:b.sp.valLen]}
					}
					resps[i].Value, _ = wire.EncodeScanPage(entries, nil) // < 64 KiB: cannot fail
				}
			}
			out, _ := wire.AppendResponses(nil, resps) // < 64 KiB values: cannot fail
			respB += float64(len(out))
			ops += float64(len(batch))
		}
	}
	return [3]float64{reqB / ops, respB / ops, float64(b.sp.batch)}
}

func (b *netBench) twin() (*kvdirect.Store, error) { return b.newLoadedStore() }

// replay yields every request each caller sent, in stream order: the
// ones before the traced phase to bring the twin to the same state, then
// the traced ones.
func (b *netBench) replay(yield func(ops []kvdirect.Op, timed bool)) {
	vbuf := make([]byte, b.sp.batch*b.sp.valLen)
	for _, c := range b.callers {
		for p := 0; p < c.traceTo; p += b.sp.batch {
			yield(b.buildOps(c.recs[p:p+b.sp.batch], vbuf), p >= c.traceFrom)
		}
	}
}
