package kvnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"kvdirect"
	"kvdirect/internal/telemetry"
)

// ShardAddrs names one shard's replica endpoints: Primary is the
// believed write endpoint, Backups are promotion candidates tried when
// the primary stops answering or answers "not primary".
type ShardAddrs struct {
	Primary string
	Backups []string
}

// ShardedClient talks to a multi-NIC KV-Direct deployment (paper §5.2):
// one endpoint per programmable NIC, each owning a disjoint slice of the
// key space. Keys route by the same hash kvdirect.Cluster uses, so a
// Cluster fronted by per-shard Servers and a ShardedClient agree on
// placement.
//
// With replicated shards (kvrepl), each shard is a whole replica group:
// the client tracks every member's address, follows NotPrimary redirect
// hints, rotates to promotion candidates when the primary dies, and
// accepts routing republishes (UpdateShard) from the membership
// coordinator — so a failover is invisible to callers beyond retry
// latency. Non-idempotent batches are never replayed after an ambiguous
// transport failure, exactly as on a single connection; a NotPrimary
// rejection is unambiguous (nothing was applied) and is always retried.
//
// Like Client, it is safe for concurrent use.
type ShardedClient struct {
	shards []*replicaSet
	tel    *telemetry.Registry
}

// DialShards connects to every endpoint (one replica per shard). On
// failure, already-opened connections are closed.
func DialShards(addrs []string) (*ShardedClient, error) {
	shards := make([]ShardAddrs, len(addrs))
	for i, a := range addrs {
		shards[i] = ShardAddrs{Primary: a}
	}
	return DialReplicaShards(shards, Options{})
}

// DialReplicaShards connects to a deployment of replicated shards,
// eagerly dialing each shard's primary. Backup connections are opened
// lazily on first failover.
func DialReplicaShards(shards []ShardAddrs, opts Options) (*ShardedClient, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("kvnet: no shard addresses")
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
		// Propagate the fallback into the per-shard dials too: root
		// spans and per-shard client spans must share one ring or
		// assembled traces lose their middle hops.
		opts.Telemetry = tel
	}
	sc := &ShardedClient{shards: make([]*replicaSet, len(shards)), tel: tel}
	for i, sh := range shards {
		if sh.Primary == "" {
			_ = sc.Close() // best-effort cleanup; the config error is reported
			return nil, fmt.Errorf("kvnet: shard %d has no primary address", i)
		}
		rs := newReplicaSet(sh, opts, tel.Counters())
		if _, _, err := rs.client(); err != nil {
			_ = sc.Close() // best-effort cleanup; the dial error is reported
			return nil, fmt.Errorf("kvnet: shard %d (%s): %w", i, sh.Primary, err)
		}
		sc.shards[i] = rs
	}
	return sc, nil
}

// Counters exposes the routing-layer counters: sharded.redirects
// (NotPrimary hints followed), sharded.rotations (blind failover
// rotations after transport errors) and sharded.route_updates
// (coordinator republishes applied). They live in the Telemetry
// registry, so a scrape of it exports them.
func (sc *ShardedClient) Counters() *telemetry.Counters { return sc.tel.Counters() }

// Telemetry returns the routing layer's registry: when Options.Telemetry
// was set at dial time it is shared with every per-shard connection, so
// sharded-batch root spans and per-shard client spans land in one ring.
func (sc *ShardedClient) Telemetry() *telemetry.Registry { return sc.tel }

// Close closes every shard connection, returning the first error.
func (sc *ShardedClient) Close() error {
	var first error
	for _, rs := range sc.shards {
		if rs == nil {
			continue
		}
		if err := rs.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the number of shards.
func (sc *ShardedClient) NumShards() int { return len(sc.shards) }

// UpdateShard republishes shard i's routing — the coordinator calls this
// after a failover so clients jump straight to the new primary instead
// of discovering it by probing.
func (sc *ShardedClient) UpdateShard(i int, addrs ShardAddrs) error {
	if i < 0 || i >= len(sc.shards) {
		return fmt.Errorf("kvnet: shard %d out of range", i)
	}
	if addrs.Primary == "" {
		return fmt.Errorf("kvnet: shard %d republish has no primary", i)
	}
	sc.shards[i].update(addrs)
	sc.tel.Counters().Add("sharded.route_updates", 1)
	return nil
}

// Get routes a GET to the owning shard.
func (sc *ShardedClient) Get(key []byte) ([]byte, bool, error) {
	res, err := sc.shards[kvdirect.ShardIndex(key, len(sc.shards))].do([]kvdirect.Op{{Code: kvdirect.OpGet, Key: key}})
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
		return nil, false, fmt.Errorf("kvnet: get: %s", r.Value)
	}
}

// Put routes a PUT to the owning shard.
func (sc *ShardedClient) Put(key, value []byte) error {
	res, err := sc.shards[kvdirect.ShardIndex(key, len(sc.shards))].do([]kvdirect.Op{{Code: kvdirect.OpPut, Key: key, Value: value}})
	if err != nil {
		return err
	}
	if !res[0].OK() {
		return fmt.Errorf("kvnet: put: %s", res[0].Value)
	}
	return nil
}

// Delete routes a DELETE to the owning shard.
func (sc *ShardedClient) Delete(key []byte) (bool, error) {
	res, err := sc.shards[kvdirect.ShardIndex(key, len(sc.shards))].do([]kvdirect.Op{{Code: kvdirect.OpDelete, Key: key}})
	if err != nil {
		return false, err
	}
	switch {
	case res[0].OK():
		return true, nil
	case res[0].NotFound():
		return false, nil
	default:
		return false, fmt.Errorf("kvnet: delete: %s", res[0].Value)
	}
}

// FetchAdd routes an atomic fetch-and-add to the owning shard.
func (sc *ShardedClient) FetchAdd(key []byte, delta uint64) (uint64, error) {
	var param [8]byte
	binary.LittleEndian.PutUint64(param[:], delta)
	res, err := sc.shards[kvdirect.ShardIndex(key, len(sc.shards))].do([]kvdirect.Op{{
		Code: kvdirect.OpUpdateScalar, Key: key,
		FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: param[:],
	}})
	if err != nil {
		return 0, err
	}
	r := res[0]
	if !r.OK() {
		return 0, fmt.Errorf("kvnet: fetch-add: %s", r.Value)
	}
	var old uint64
	if len(r.Value) == 8 {
		old = binary.LittleEndian.Uint64(r.Value)
	}
	return old, nil
}

// ScanPage fetches one globally ordered page: up to limit pairs in
// ascending key order starting at the first key >= start. Keys are
// hash-partitioned, so the scan fans out to every shard (each scan rides
// replicaSet.do — NotPrimary redirects route it to the shard's primary)
// and the per-shard ordered pages are k-way merged. The returned cursor
// is the smallest key not yet returned; resume by passing it as start.
func (sc *ShardedClient) ScanPage(start []byte, limit int) ([]kvdirect.ScanEntry, []byte, error) {
	op, err := kvdirect.ScanOp(start, limit, nil)
	if err != nil {
		return nil, nil, err
	}
	pages := make([][]kvdirect.ScanEntry, len(sc.shards))
	cursors := make([][]byte, len(sc.shards))
	for i, rs := range sc.shards {
		res, err := rs.do([]kvdirect.Op{op})
		if err != nil {
			return nil, nil, fmt.Errorf("kvnet: shard %d scan: %w", i, err)
		}
		entries, cur, err := kvdirect.DecodeScanResult(res[0])
		if err != nil {
			return nil, nil, fmt.Errorf("kvnet: shard %d scan: %w", i, err)
		}
		pages[i] = entries
		cursors[i] = cur
	}
	entries, next := kvdirect.MergeScanPages(pages, cursors, limit)
	return entries, next, nil
}

// Scan fetches up to limit globally ordered pairs starting at start,
// following continuation cursors across as many pages as needed.
func (sc *ShardedClient) Scan(start []byte, limit int) ([]kvdirect.ScanEntry, error) {
	var out []kvdirect.ScanEntry
	cur := start
	for len(out) < limit {
		entries, next, err := sc.ScanPage(cur, limit-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
		if next == nil {
			break
		}
		cur = next
	}
	return out, nil
}

// Do splits a batch by owning shard, issues the per-shard sub-batches
// and reassembles results in the original order. Cross-key ordering
// within the batch is preserved per shard only — the same guarantee a
// real multi-NIC deployment gives, since independent NICs do not
// synchronize.
func (sc *ShardedClient) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	groups := make(map[int][]int)
	for i, op := range ops {
		s := kvdirect.ShardIndex(op.Key, len(sc.shards))
		groups[s] = append(groups[s], i)
	}
	out := make([]kvdirect.Result, len(ops))
	for s, idxs := range groups {
		sub := make([]kvdirect.Op, len(idxs))
		for j, i := range idxs {
			sub[j] = ops[i]
		}
		res, err := sc.shards[s].do(sub)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			out[i] = res[j]
		}
	}
	return out, nil
}

// DoTrace is Do placed in a distributed trace (traceID 0 starts a fresh
// one). A single-shard batch returns that shard's client span directly;
// a batch spanning shards gets a SHARDED root span with one client span
// per shard parented under it. Every span carries the trace context
// downstream, so server-apply and replication ship spans stitch in.
func (sc *ShardedClient) DoTrace(ops []kvdirect.Op, traceID uint64, parent uint32) ([]kvdirect.Result, *telemetry.Span, error) {
	if traceID == 0 {
		traceID = telemetry.NewTraceID()
	}
	groups := make(map[int][]int)
	for i, op := range ops {
		s := kvdirect.ShardIndex(op.Key, len(sc.shards))
		groups[s] = append(groups[s], i)
	}
	childParent := parent
	var root *telemetry.Span
	if len(groups) > 1 {
		root = sc.tel.Tracer().StartTrace(traceID, parent)
		root.SetOp("SHARDED", len(ops))
		childParent = root.SpanID
	}
	out := make([]kvdirect.Result, len(ops))
	var last *telemetry.Span
	for s, idxs := range groups {
		sub := make([]kvdirect.Op, len(idxs))
		for j, i := range idxs {
			sub[j] = ops[i]
		}
		res, span, err := sc.shards[s].doTrace(sub, traceID, childParent)
		if err != nil {
			if root != nil {
				root.SetErr(err)
				sc.tel.Tracer().Publish(root)
			}
			return nil, span, err
		}
		last = span
		for j, i := range idxs {
			out[i] = res[j]
		}
	}
	if root != nil {
		sc.tel.Tracer().Publish(root)
		return out, root, nil
	}
	return out, last, nil
}

// --- per-shard replica set ---

// replicaSet is one shard's view of its replica group: an ordered
// address list (front = believed primary) and cached connections.
type replicaSet struct {
	opts     Options
	counters *telemetry.Counters

	mu      sync.Mutex
	addrs   []string
	clients map[string]*Client
}

func newReplicaSet(sh ShardAddrs, opts Options, counters *telemetry.Counters) *replicaSet {
	addrs := append([]string{sh.Primary}, sh.Backups...)
	return &replicaSet{
		opts:     opts.withDefaults(),
		counters: counters,
		addrs:    addrs,
		clients:  map[string]*Client{},
	}
}

// client returns a connection to the current front address, dialing it
// if needed; on dial failure the front is rotated so the next attempt
// probes the next candidate.
func (rs *replicaSet) client() (*Client, string, error) {
	rs.mu.Lock()
	addr := rs.addrs[0]
	c := rs.clients[addr]
	rs.mu.Unlock()
	if c != nil {
		return c, addr, nil
	}
	c, err := DialOptions(addr, rs.opts)
	if err != nil {
		rs.rotate(addr)
		return nil, addr, err
	}
	rs.mu.Lock()
	if prev := rs.clients[addr]; prev != nil {
		// Another goroutine dialed concurrently; keep its connection.
		rs.mu.Unlock()
		_ = c.Close() // duplicate connection, deliberately discarded
		return prev, addr, nil
	}
	rs.clients[addr] = c
	rs.mu.Unlock()
	return c, addr, nil
}

// rotate moves addr from the front to the back, if it is still at the
// front (concurrent rotations for the same failure collapse to one).
func (rs *replicaSet) rotate(addr string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.addrs) > 1 && rs.addrs[0] == addr {
		rs.addrs = append(rs.addrs[1:], addr)
		rs.counters.Add("sharded.rotations", 1)
	}
}

// promote moves hint to the front of the address list, learning it if
// the coordinator republished before we ever saw it.
func (rs *replicaSet) promote(hint string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.addrs[0] == hint {
		return
	}
	next := make([]string, 0, len(rs.addrs)+1)
	next = append(next, hint)
	for _, a := range rs.addrs {
		if a != hint {
			next = append(next, a)
		}
	}
	rs.addrs = next
	rs.counters.Add("sharded.redirects", 1)
}

// update applies a coordinator republish: new ordered address list,
// dropping connections to members that left the group.
func (rs *replicaSet) update(sh ShardAddrs) {
	next := append([]string{sh.Primary}, sh.Backups...)
	keep := map[string]bool{}
	for _, a := range next {
		keep[a] = true
	}
	rs.mu.Lock()
	var closing []*Client
	for a, c := range rs.clients {
		if !keep[a] {
			closing = append(closing, c)
			delete(rs.clients, a)
		}
	}
	rs.addrs = next
	rs.mu.Unlock()
	for _, c := range closing {
		_ = c.Close() // member left the group; nothing to report
	}
}

// do issues one batch against the shard's current primary, following
// NotPrimary redirects and rotating across replicas on transport
// failures until the batch lands or the failover budget is exhausted.
func (rs *replicaSet) do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	res, _, err := rs.doCall(ops, func(c *Client) ([]kvdirect.Result, *telemetry.Span, error) {
		r, err := c.Do(ops)
		return r, nil, err
	})
	return res, err
}

// doTrace is do under a distributed trace: each attempt's client span is
// parented under parent, so a failover mid-trace leaves the failed
// attempts visible in the tree alongside the one that landed.
func (rs *replicaSet) doTrace(ops []kvdirect.Op, traceID uint64, parent uint32) ([]kvdirect.Result, *telemetry.Span, error) {
	return rs.doCall(ops, func(c *Client) ([]kvdirect.Result, *telemetry.Span, error) {
		return c.DoTrace(ops, traceID, parent)
	})
}

// doCall runs the retry loop shared by do and doTrace.
func (rs *replicaSet) doCall(ops []kvdirect.Op, call func(*Client) ([]kvdirect.Result, *telemetry.Span, error)) ([]kvdirect.Result, *telemetry.Span, error) {
	// The budget covers one full tour of the group plus the retries a
	// failover needs for the coordinator to detect and promote.
	rs.mu.Lock()
	budget := (len(rs.addrs) + 1) * (rs.opts.MaxRetries + 1)
	rs.mu.Unlock()
	if budget < 4 {
		budget = 4
	}
	bo := NewBackoff(rs.opts.RetryBaseDelay, rs.opts.RetryMaxDelay, int64(len(ops))+1)
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			bo.Sleep(attempt)
		}
		c, addr, err := rs.client()
		if err != nil {
			lastErr = err // dial failure: client() already rotated
			continue
		}
		res, span, err := call(c)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrClosed) {
				// Connection was closed under us by a routing update;
				// re-resolve and retry (nothing was applied... the close
				// happened before the send).
				rs.dropClient(addr, c)
				continue
			}
			if !idempotent(ops) {
				// Ambiguous failure of a non-idempotent batch: replaying
				// it elsewhere could apply an update twice. Same contract
				// as Client.Do.
				return nil, span, err
			}
			rs.dropClient(addr, c)
			rs.rotate(addr)
			continue
		}
		if hint, rejected := notPrimaryHint(res); rejected {
			// Unambiguous rejection: nothing was applied, safe to retry
			// anywhere — follow the hint when the backup knows the
			// primary, otherwise probe the next candidate.
			lastErr = &NotPrimaryError{Hint: hint}
			if hint != "" && hint != addr {
				rs.promote(hint)
			} else {
				rs.rotate(addr)
			}
			continue
		}
		return res, span, nil
	}
	return nil, nil, fmt.Errorf("kvnet: shard unavailable after %d attempts: %w", budget, lastErr)
}

// dropClient forgets a broken cached connection so the next attempt
// redials.
func (rs *replicaSet) dropClient(addr string, c *Client) {
	rs.mu.Lock()
	if rs.clients[addr] == c {
		delete(rs.clients, addr)
	}
	rs.mu.Unlock()
	_ = c.Close() // already broken; nothing to report
}

func (rs *replicaSet) close() error {
	rs.mu.Lock()
	clients := make([]*Client, 0, len(rs.clients))
	for _, c := range rs.clients {
		clients = append(clients, c)
	}
	rs.clients = map[string]*Client{}
	rs.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// notPrimaryHint reports whether the batch was rejected by a non-primary
// replica, returning the redirect hint if any result carries one.
func notPrimaryHint(res []kvdirect.Result) (string, bool) {
	for _, r := range res {
		if r.NotPrimary() {
			return string(r.Value), true
		}
	}
	return "", false
}
