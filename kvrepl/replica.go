package kvrepl

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// Replica is one member of a replica group: a Store, a client-facing
// kvnet server (with the replica interposed as the Backend), and a
// replication endpoint that receives the primary's log stream when the
// replica is a backup. Exactly one replica per group holds RolePrimary
// at any epoch; the Coordinator moves the role on failure.
type Replica struct {
	shard     int
	id        int
	groupSize int
	opts      Options
	cfg       kvdirect.Config

	log        *repllog.Log
	tel        *telemetry.Registry
	counters   *telemetry.Counters
	gauges     *telemetry.Gauges
	quorumWait *telemetry.Histogram
	faults     *fault.Injector

	clientSrv  *kvnet.Server
	replLn     net.Listener
	clientAddr string
	replAddr   string

	mu          sync.Mutex
	store       *kvdirect.Store // swapped on snapshot install
	role        Role
	epoch       uint64
	lastApplied uint64
	primaryHint string // current primary's client address, for redirects
	closed      bool
	ackWake     chan struct{}     // closed+recreated when acks advance or terms change
	conns       map[net.Conn]bool // live inbound replication streams
	peerAcked   map[int]uint64    // primary: highest seq each backup applied
	peers       map[int]*peerSync // primary: live shipping loops
	hbStop      chan struct{}     // stops the current heartbeat loop

	// beat is the coordinator heartbeat sink, deliberately outside mu:
	// the lease must keep renewing while the data path holds the replica
	// lock for long stretches (snapshot dumps), or a healthy primary
	// would be failed over mid-catch-up.
	beat atomic.Value // of beatFunc

	wg sync.WaitGroup
}

// NewReplica starts one replica: its store, its client server on
// clientAddr and its replication listener on replAddr (use
// "127.0.0.1:0" to pick free ports). The replica starts as a backup;
// the Coordinator promotes the group's first primary.
func NewReplica(shard, id, groupSize int, cfg kvdirect.Config, clientAddr, replAddr string, opts Options) (*Replica, error) {
	opts = opts.withDefaults(groupSize)
	store, err := kvdirect.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("kvrepl: replica %d/%d: %w", shard, id, err)
	}
	// One registry spans the whole replica stack — replication counters
	// and lag gauges, the client server's wire counters, and the store's
	// core/pcie/dram gauges all land in the same namespace, so a single
	// scrape (OpTelemetry or /metrics) sees the replica end to end.
	tel := telemetry.NewRegistry()
	store.SetTelemetry(tel)
	r := &Replica{
		shard:      shard,
		id:         id,
		groupSize:  groupSize,
		opts:       opts,
		cfg:        store.Config(),
		store:      store,
		log:        repllog.New(opts.LogWindow),
		tel:        tel,
		counters:   tel.Counters(),
		gauges:     tel.Gauges(),
		quorumWait: tel.Histogram("repl.quorum_wait_ns"),
		faults:     opts.Faults,
		ackWake:    make(chan struct{}),
		conns:      map[net.Conn]bool{},
		peerAcked:  map[int]uint64{},
	}
	r.replLn, err = net.Listen("tcp", replAddr)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("kvrepl: replica %d/%d repl listener: %w", shard, id, err)
	}
	r.clientSrv, err = kvnet.ServeBackend(r, clientAddr, kvnet.ServerOptions{Telemetry: tel})
	if err != nil {
		_ = r.replLn.Close() // listener never served; the serve error is reported
		store.Close()
		return nil, fmt.Errorf("kvrepl: replica %d/%d client server: %w", shard, id, err)
	}
	r.clientAddr = r.clientSrv.Addr()
	r.replAddr = r.replLn.Addr().String()
	r.wg.Add(1)
	go r.acceptRepl()
	return r, nil
}

// ClientAddr returns the address clients dial.
func (r *Replica) ClientAddr() string { return r.clientAddr }

// ReplAddr returns the address the primary's log stream dials.
func (r *Replica) ReplAddr() string { return r.replAddr }

// ID returns the replica's id within its group.
func (r *Replica) ID() int { return r.id }

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch returns the highest election epoch the replica has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// LastApplied returns the replica's applied log frontier.
func (r *Replica) LastApplied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Alive reports whether the replica has not been closed.
func (r *Replica) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed
}

// Counters exposes the replication counters: repl.entries_shipped,
// repl.entries_applied, repl.entries_dropped, repl.acks,
// repl.gap_resyncs, repl.snapshots_sent, repl.snapshots_installed,
// repl.snapshot_fallbacks, repl.catchup_bytes, repl.promotions,
// repl.demotions, repl.not_primary_rejects, repl.epoch_rejects,
// repl.quorum_failures, repl.apply_panics, repl.installs,
// repl.migration_entries.
func (r *Replica) Counters() *telemetry.Counters { return r.counters }

// IntGauges exposes the replica's gauges, shared with the store's core
// gauges: repl.lag (entries the slowest tracked backup is behind,
// transiently negative when a backup applies past a heartbeat's
// frontier), repl.lag_max (its high-water mark), repl.epoch,
// repl.applied_seq, repl.migration_lag. Every gauge is signed now, so
// the "Int" is historical; the name stays because the benchmark harness
// (the separate perfbench module, whose API use is frozen) calls it.
func (r *Replica) IntGauges() *telemetry.Gauges { return r.gauges }

// Telemetry returns the registry shared by the replica, its store and
// its client-facing server.
func (r *Replica) Telemetry() *telemetry.Registry { return r.tel }

// TelemetrySnapshot snapshots the replica's full registry — store,
// server and replication — under the server's pipeline lock, making a
// Replica a kvnet.SnapshotSource for /metrics export.
func (r *Replica) TelemetrySnapshot() telemetry.Snapshot {
	return r.clientSrv.TelemetrySnapshot()
}

// Store exposes the replica's store for inspection. The store is not
// safe for concurrent use — only read it once the group is quiesced
// (tests, post-failover verification).
func (r *Replica) Store() *kvdirect.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// beatFunc wraps the heartbeat sink for atomic.Value (which needs a
// consistent concrete type and cannot hold a bare nil func).
type beatFunc struct{ fn func(shard, id int) }

// setBeat installs the coordinator's heartbeat sink.
func (r *Replica) setBeat(fn func(shard, id int)) {
	r.beat.Store(beatFunc{fn})
}

// Close stops the replica: client server, replication listener, peer
// streams, heartbeats. Closing the current primary is exactly how a
// chaos test kills it — nothing is flushed or handed over.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.stopPeersLocked()
	r.stopHeartbeatLocked()
	r.wakeLocked()
	for c := range r.conns {
		_ = c.Close() // unblocks the stream handlers; we are dying anyway
	}
	r.conns = nil
	ln := r.replLn
	srv := r.clientSrv
	r.mu.Unlock()

	err := ln.Close()
	if serr := srv.Close(); err == nil {
		err = serr
	}
	r.wg.Wait()
	r.mu.Lock()
	r.store.Close()
	r.mu.Unlock()
	return err
}

// --- role transitions ---

// promote makes the replica the primary for epoch, shipping to peers
// (id → replication address). Called by the Coordinator; a stale epoch
// is ignored.
func (r *Replica) promote(epoch uint64, peers map[int]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || epoch < r.epoch || (epoch == r.epoch && r.role == RolePrimary) {
		return
	}
	r.epoch = epoch
	r.role = RolePrimary
	r.primaryHint = r.clientAddr
	r.stopPeersLocked()
	r.peers = map[int]*peerSync{}
	r.peerAcked = map[int]uint64{}
	for id, addr := range peers {
		if id == r.id {
			continue
		}
		p := newPeerSync(r, id, addr, epoch)
		r.peers[id] = p
		r.wg.Add(1)
		go p.run()
	}
	r.startHeartbeatLocked()
	r.wakeLocked()
	r.counters.Add("repl.promotions", 1)
}

// demoteLocked steps down to backup under a higher epoch, fencing the
// old term: peer streams stop, quorum waiters fail, heartbeats cease.
func (r *Replica) demoteLocked(epoch uint64, hint string) {
	r.epoch = epoch
	if r.role == RolePrimary {
		r.counters.Add("repl.demotions", 1)
	}
	r.role = RoleBackup
	if hint != "" {
		r.primaryHint = hint
	}
	r.stopPeersLocked()
	r.stopHeartbeatLocked()
	r.wakeLocked()
}

// maybeDemote demotes if epoch is newer than the current term (used
// when a peer rejects our stream with a higher epoch).
func (r *Replica) maybeDemote(epoch uint64, hint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.epoch {
		r.demoteLocked(epoch, hint)
	}
}

func (r *Replica) stopPeersLocked() {
	for _, p := range r.peers {
		p.stopPeer()
	}
	r.peers = nil
}

// addPeer starts a shipping loop to a newly added group member at the
// current term. A no-op unless the replica currently leads — a later
// promotion rebuilds the peer set from the coordinator's membership.
func (r *Replica) addPeer(peerID int, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.role != RolePrimary {
		return
	}
	if old := r.peers[peerID]; old != nil {
		old.stopPeer()
	}
	if r.peers == nil {
		r.peers = map[int]*peerSync{}
	}
	p := newPeerSync(r, peerID, addr, r.epoch)
	r.peers[peerID] = p
	r.wg.Add(1)
	go p.run()
}

// removePeer stops shipping to a departing member and drops its ack
// from quorum accounting so a removed replica's stale frontier can
// neither satisfy nor wedge future quorums.
func (r *Replica) removePeer(peerID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[peerID]; p != nil {
		p.stopPeer()
		delete(r.peers, peerID)
	}
	delete(r.peerAcked, peerID)
	r.wakeLocked()
}

// adoptInstall commits a migration on the destination primary: the
// migrator has proven the shard's final frontier matches ours, so we
// adopt the fenced cutover epoch and wait for the coordinator's
// promotion. A frontier mismatch refuses the install — the migrator
// must keep draining.
func (r *Replica) adoptInstall(epoch, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.lastApplied != seq || epoch < r.epoch {
		return false
	}
	r.epoch = epoch
	r.counters.Add("repl.installs", 1)
	return true
}

func (r *Replica) startHeartbeatLocked() {
	r.stopHeartbeatLocked()
	stop := make(chan struct{})
	r.hbStop = stop
	r.wg.Add(1)
	go r.heartbeatLoop(stop)
}

func (r *Replica) stopHeartbeatLocked() {
	if r.hbStop != nil {
		close(r.hbStop)
		r.hbStop = nil
	}
}

// heartbeatLoop renews the primary's lease with the coordinator. A
// ReplPartitionPrimary fault eats the beat — the lease expires and the
// coordinator elects a new primary even though this one still runs,
// which is exactly the partition scenario epoch fencing must contain.
func (r *Replica) heartbeatLoop(stop chan struct{}) {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if r.faults.Should(fault.ReplPartitionPrimary) {
				continue
			}
			if b, ok := r.beat.Load().(beatFunc); ok && b.fn != nil {
				b.fn(r.shard, r.id)
			}
		}
	}
}

// wakeLocked signals quorum waiters and idle peer loops that the
// replica's state advanced (acks, promotions, demotions, close).
func (r *Replica) wakeLocked() {
	close(r.ackWake)
	r.ackWake = make(chan struct{})
}

// --- the primary's data path (kvnet.Backend) ---

// mutating reports whether op changes replica state and must be
// sequenced and shipped. Registering a λ mutates the server's function
// table, so it replicates too.
func mutating(op wire.OpCode) bool {
	switch op {
	case wire.OpPut, wire.OpDelete, wire.OpUpdateScalar, wire.OpUpdateS2V,
		wire.OpUpdateV2V, wire.OpFilter, wire.OpRegister,
		wire.OpPutVer, wire.OpCounterVer:
		return true
	}
	return false
}

// ApplyBatch implements kvnet.Backend: the whole replication protocol
// interposed on the standard wire path. Reads apply locally; mutations
// are sequenced, logged, applied, shipped, and held until quorum.
func (r *Replica) ApplyBatch(reqs []wire.Request) []wire.Response {
	return r.ApplyBatchTraced(reqs, nil)
}

// ApplyBatchTraced implements kvnet.TracedBackend: the same path with a
// span charged for the store's access counts and staged for the quorum
// wait, so a traced write against a replica shows where replication
// time went.
func (r *Replica) ApplyBatchTraced(reqs []wire.Request, span *telemetry.Span) []wire.Response {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RolePrimary || r.closed {
		hint := []byte(r.primaryHint)
		out := make([]wire.Response, len(reqs))
		for i := range out {
			out[i] = wire.Response{Status: wire.StatusNotPrimary, Value: hint}
		}
		r.counters.Add("repl.not_primary_rejects", uint64(len(reqs)))
		r.tel.Flight().Record(telemetry.EventNotPrimary, int64(r.shard), r.epoch, uint64(len(reqs)))
		return out
	}
	epoch := r.epoch
	out := make([]wire.Response, len(reqs))
	var lastSeq uint64
	mutIdx := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if !mutating(req.Op) {
			out[i] = r.applyLocalLocked(req, span)
			continue
		}
		seq := r.lastApplied + 1
		e, err := repllog.NewEntry(seq, epoch, req)
		if err != nil {
			out[i] = wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
			continue
		}
		if traceID, spanID := span.Trace(); traceID != 0 {
			// Stamp the trace context onto the log entry's own packet so
			// it rides the replication stream (and any migration replay)
			// for free: each backup's apply and the primary's per-entry
			// ship hop stitch themselves to the originating write's trace.
			if pkt, merr := wire.MarkTraceContext(e.Packet, wire.TraceContext{
				TraceID: traceID, Parent: spanID, Sampled: true,
			}); merr == nil {
				e.Packet = pkt
			}
		}
		out[i] = r.applyLocalLocked(req, span)
		r.lastApplied = seq
		if err := r.log.Append(e); err != nil {
			// Unreachable while mu serializes appends; surface loudly
			// rather than ship a divergent log.
			out[i] = wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
		}
		lastSeq = seq
		mutIdx = append(mutIdx, i)
	}
	if lastSeq > 0 {
		// Wake shipping loops outside their own locks; they pull the new
		// tail from the log.
		for _, p := range r.peers {
			p.notify()
		}
		waitStart := time.Now()
		st := span.StartStage("repl.quorum_wait")
		quorum := r.waitQuorumLocked(lastSeq, epoch) //lint:allow lockorder -- hand-over-hand wait: it releases mu around its blocking select and re-locks before returning
		st.End()
		r.quorumWait.Observe(uint64(time.Since(waitStart).Nanoseconds()))
		if !quorum {
			r.counters.Add("repl.quorum_failures", 1)
			msg := []byte("replication quorum not reached (write fate unknown)")
			for _, i := range mutIdx {
				out[i] = wire.Response{Status: wire.StatusError, Value: msg}
			}
		}
	}
	return out
}

// applyLocalLocked runs one request on the local store, isolating
// panics the way the plain server backend does. A non-nil span is
// charged with the operation's model access counts.
func (r *Replica) applyLocalLocked(req wire.Request, span *telemetry.Span) (resp wire.Response) {
	defer func() {
		if p := recover(); p != nil {
			r.counters.Add("repl.apply_panics", 1)
			resp = wire.Response{Status: wire.StatusError,
				Value: []byte(fmt.Sprintf("panic: %v", p))}
		}
	}()
	resp = r.store.ApplyTraced(req, span)
	if req.Op == wire.OpStats && resp.Status == wire.StatusOK {
		// The status registers grow a replication section.
		text := string(resp.Value) +
			fmt.Sprintf("repl_role=%s\nrepl_epoch=%d\nrepl_seq=%d\n",
				r.role, r.epoch, r.lastApplied) +
			r.counters.String() + r.gauges.String()
		resp.Value = []byte(text)
	}
	return resp
}

// PublishTelemetry implements kvnet.TelemetryPublisher: refreshes the
// store's derived gauges plus the replica's role frontier into the
// shared registry before a snapshot is taken.
func (r *Replica) PublishTelemetry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.store.PublishTelemetry()
	r.gauges.Set("repl.epoch", int64(r.epoch))
	r.gauges.Set("repl.applied_seq", int64(r.lastApplied))
}

// quorumSeqLocked returns the highest sequence number applied by at
// least Quorum replicas (the primary counts).
func (r *Replica) quorumSeqLocked() uint64 {
	if r.opts.Quorum <= 1 {
		return r.lastApplied
	}
	seqs := make([]uint64, 0, len(r.peerAcked)+1)
	seqs = append(seqs, r.lastApplied)
	for _, s := range r.peerAcked {
		seqs = append(seqs, s)
	}
	if len(seqs) < r.opts.Quorum {
		return 0
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs[r.opts.Quorum-1]
}

// waitQuorumLocked blocks (releasing the lock while parked) until seq
// reaches quorum in this epoch, the term changes, or AckTimeout.
func (r *Replica) waitQuorumLocked(seq, epoch uint64) bool {
	deadline := time.Now().Add(r.opts.AckTimeout)
	for {
		if r.closed || r.epoch != epoch || r.role != RolePrimary {
			return false
		}
		if r.quorumSeqLocked() >= seq {
			return true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		wake := r.ackWake
		r.mu.Unlock()
		t := time.NewTimer(remaining)
		select {
		case <-wake:
		case <-t.C:
		}
		t.Stop()
		r.mu.Lock()
	}
}

// recordAck folds a backup's applied frontier into the quorum state and
// refreshes the lag gauges. Stale-term acks are ignored.
func (r *Replica) recordAck(epoch uint64, peerID int, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch != epoch || r.role != RolePrimary {
		return
	}
	if seq > r.peerAcked[peerID] {
		r.peerAcked[peerID] = seq
		r.counters.Add("repl.acks", 1)
		r.wakeLocked()
	}
	minAck := r.lastApplied
	for _, s := range r.peerAcked {
		if s < minAck {
			minAck = s
		}
	}
	// Signed gauge: here the delta cannot go negative (minAck never
	// exceeds lastApplied), but the backup-side writer in stream.go can
	// observe its own frontier past a stale heartbeat's, and both sites
	// must feed the same gauge without wrapping.
	lag := int64(r.lastApplied) - int64(minAck)
	r.gauges.Set("repl.lag", lag)
	r.gauges.SetMax("repl.lag_max", lag)
}
