package kvrepl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// Live shard migration moves a shard from its current replica group to
// a brand-new one without dropping acked writes:
//
//  1. snapshot — the source primary's Store.Dump streams to the
//     destination primary over a ReplMigrate stream while the old group
//     keeps serving clients;
//  2. tail — the source's repllog tail ships entry by entry until the
//     destination trails by no more than the drain the fence can absorb
//     (the log is pinned so a write burst cannot evict the unshipped
//     tail);
//  3. cutover — the coordinator bumps the shard epoch and swaps the
//     group membership, the old primary is fenced (it now answers
//     StatusNotPrimary with a redirect to the new primary), the frozen
//     remainder of the tail drains, and a ReplInstall proves the
//     destination's frontier matches the shard's final sequence before
//     the new primary is promoted and the route republished.
//
// Because the destination serves no client writes until it is promoted,
// and promotion happens only after the install frontier check, every
// write acked by either group is present in whichever group owns the
// shard afterwards — including every abort path: a failure before
// cutover leaves the old group untouched, and a failure during cutover
// rolls the shard back onto the old group under a fresh epoch.

// migrateRetryBudget bounds consecutive failed transfer rounds before a
// migration gives up (and, if already fenced, rolls back).
const migrateRetryBudget = 20

// migrateStall is how long a ReplMigrateStall fault delays one message
// on the transfer stream — long enough that chaos tests can reliably
// kill a node mid-migration.
const migrateStall = 2 * time.Millisecond

// MigrationState is where a migration is in its lifecycle.
type MigrationState int32

// Migration states.
const (
	// MigrateSnapshot: streaming the base snapshot to the destination.
	MigrateSnapshot MigrationState = iota
	// MigrateTail: shipping the live log tail while the old group serves.
	MigrateTail
	// MigrateCutover: membership committed and the old primary fenced;
	// draining the frozen remainder and installing.
	MigrateCutover
	// MigrateDone: the destination group owns the shard.
	MigrateDone
	// MigrateAborted: the migration failed; the old group owns the shard.
	MigrateAborted
)

func (s MigrationState) String() string {
	switch s {
	case MigrateSnapshot:
		return "snapshot"
	case MigrateTail:
		return "tail"
	case MigrateCutover:
		return "cutover"
	case MigrateDone:
		return "done"
	case MigrateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("MigrationState(%d)", int32(s))
	}
}

// MigrationTarget names the destination replica group for MigrateShard.
// The members must be freshly built replicas, disjoint from the shard's
// current group; after an aborted migration they must be closed, not
// reused (their epoch state has been polluted by the attempt).
type MigrationTarget struct {
	// Members is the destination group keyed by replica id.
	Members map[int]*Replica
	// Primary is the id promoted at cutover (the transfer's receiver).
	Primary int
	// Node optionally labels the destination for the rebalance planner.
	Node string
}

// MigrationStatus is a point-in-time view of one migration, also the
// JSON shape the admin endpoint and kvdcli serve.
type MigrationStatus struct {
	Shard         int    `json:"shard"`
	State         string `json:"state"`
	Epoch         uint64 `json:"epoch"` // shard epoch when the migration started
	CutoverEpoch  uint64 `json:"cutover_epoch,omitempty"`
	SourceSeq     uint64 `json:"source_seq"` // source applied frontier
	DestSeq       uint64 `json:"dest_seq"`   // destination acked frontier
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	Entries       uint64 `json:"entries"` // tail entries shipped
	Resyncs       uint64 `json:"resyncs"` // stream teardowns survived
	DurationNs    int64  `json:"duration_ns"`
	Error         string `json:"error,omitempty"`
}

// Migration is one live shard migration started by
// Coordinator.MigrateShard. It runs in its own goroutine; Wait blocks
// until it finishes and Status is safe to poll from anywhere.
type Migration struct {
	c      *Coordinator
	shard  int
	target MigrationTarget
	src    *Replica // source primary at migration start
	dest   *Replica // destination primary (the transfer's receiver)

	srcEpoch uint64 // shard epoch at start; cutover bumps to srcEpoch+1

	state     atomic.Int32
	cutEpoch  atomic.Uint64
	destSeq   atomic.Uint64
	entries   atomic.Uint64
	snapBytes atomic.Uint64
	resyncs   atomic.Uint64
	durNs     atomic.Int64
	start     time.Time

	// rollback state captured at cutover commit
	oldMembers map[int]*Replica
	oldPrimary int
	oldNode    string

	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	err error
}

// State returns the migration's current lifecycle state.
func (m *Migration) State() MigrationState { return MigrationState(m.state.Load()) }

// Err returns the terminal error of an aborted migration (nil while
// running or after success).
func (m *Migration) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Wait blocks until the migration finishes, returning its terminal
// error (nil on success).
func (m *Migration) Wait() error {
	<-m.done
	return m.Err()
}

// Done exposes the completion channel for select loops.
func (m *Migration) Done() <-chan struct{} { return m.done }

func (m *Migration) finished() bool {
	s := m.State()
	return s == MigrateDone || s == MigrateAborted
}

// Status snapshots the migration's progress.
func (m *Migration) Status() MigrationStatus {
	st := MigrationStatus{
		Shard:         m.shard,
		State:         m.State().String(),
		Epoch:         m.srcEpoch,
		CutoverEpoch:  m.cutEpoch.Load(),
		SourceSeq:     m.src.LastApplied(),
		DestSeq:       m.destSeq.Load(),
		SnapshotBytes: m.snapBytes.Load(),
		Entries:       m.entries.Load(),
		Resyncs:       m.resyncs.Load(),
		DurationNs:    m.durNs.Load(),
	}
	if st.DurationNs == 0 && !m.finished() {
		st.DurationNs = time.Since(m.start).Nanoseconds()
	}
	if err := m.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}

func (m *Migration) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
	}
	select {
	case <-m.c.stop:
		return true
	default:
		return false
	}
}

// Abort asks a running migration to stop at the next safe point. The
// shard stays with (or rolls back to) the old group.
func (m *Migration) Abort() {
	m.mu.Lock()
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.mu.Unlock()
}

// run drives the migration to a terminal state and finalizes metrics.
func (m *Migration) run() {
	defer m.c.wg.Done()
	defer close(m.done)
	err := m.migrate()
	m.durNs.Store(time.Since(m.start).Nanoseconds())
	m.src.log.Unpin()
	m.src.gauges.Set("repl.migration_lag", 0)
	if err == nil {
		m.state.Store(int32(MigrateDone))
		m.c.counters.Add("repl.migrations_completed", 1)
		m.c.migrationDur.Observe(uint64(m.durNs.Load()))
		return
	}
	m.mu.Lock()
	m.err = err
	m.mu.Unlock()
	fenced := MigrationState(m.state.Load()) == MigrateCutover
	m.state.Store(int32(MigrateAborted))
	if fenced {
		// The membership swap already happened; put the shard back on
		// the old group under a fresh term.
		m.rollback()
	}
	m.c.counters.Add("repl.migrations_aborted", 1)
}

// migrate retries transfer rounds until the shard is installed on the
// destination or the retry budget is spent.
func (m *Migration) migrate() error {
	bo := kvnet.NewBackoff(2*time.Millisecond, 100*time.Millisecond,
		int64(m.src.opts.Seed^0x6D696772) /* "migr" */)
	failures := 0
	var lastErr error
	for {
		if m.stopped() {
			return errors.New("migration stopped")
		}
		if !m.dest.Alive() {
			return fmt.Errorf("destination primary died (last error: %v)", lastErr)
		}
		if !m.src.Alive() && MigrationState(m.state.Load()) != MigrateCutover {
			return fmt.Errorf("source primary died before cutover (last error: %v)", lastErr)
		}
		before := m.destSeq.Load()
		installed, err := m.transferOnce()
		if installed {
			return nil
		}
		if err != nil {
			var fatal *fatalMigrationError
			if errors.As(err, &fatal) {
				return fatal.err
			}
			lastErr = err
			m.resyncs.Add(1)
		}
		if m.destSeq.Load() > before {
			// The round moved data before it died; the budget bounds
			// consecutive unproductive rounds, not total hiccups.
			failures = 0
		}
		failures++
		if failures > migrateRetryBudget {
			return fmt.Errorf("giving up after %d transfer rounds: %w", failures, lastErr)
		}
		bo.Sleep(failures)
	}
}

// fatalMigrationError aborts the retry loop immediately (the shard
// changed hands, or the destination fenced us out).
type fatalMigrationError struct{ err error }

func (e *fatalMigrationError) Error() string { return e.err.Error() }

func fatalf(format string, args ...any) error {
	return &fatalMigrationError{fmt.Errorf(format, args...)}
}

// streamEpoch is the epoch the transfer announces: the shard's starting
// epoch until cutover commits, the fenced cutover epoch after.
func (m *Migration) streamEpoch() uint64 {
	if e := m.cutEpoch.Load(); e != 0 {
		return e
	}
	return m.srcEpoch
}

// transferOnce runs one connection's lifetime of the migration stream:
// handshake, snapshot if the destination's frontier fell below the
// retained log, tail shipping, then fence + drain + install once caught
// up. It reports installed=true when the destination has committed.
func (m *Migration) transferOnce() (installed bool, err error) {
	s, err := m.src.dialStream(m.dest.ReplAddr())
	if err != nil {
		return false, err
	}
	defer s.close()

	// Handshake: announce the migration and learn the destination's
	// surviving frontier (0 on first contact, further along on resume).
	reply, err := s.handshake(wire.ReplMigrate, m.streamEpoch())
	if err != nil {
		return false, err
	}
	if reply.Kind == wire.ReplReject {
		return false, fatalf("destination rejected migration stream: %s", reply.Payload)
	}
	if reply.Kind != wire.ReplHello {
		return false, fmt.Errorf("unexpected %s in migration handshake", reply.Kind)
	}
	sent := reply.Seq
	m.destSeq.Store(sent)
	// Fence log truncation behind the unshipped tail for the rest of
	// this round; a write burst must not evict entries between rounds.
	m.src.log.Pin(sent + 1)

	for {
		if m.stopped() {
			return false, errors.New("migration stopped")
		}
		fenced := MigrationState(m.state.Load()) == MigrateCutover
		if !fenced {
			if !m.src.Alive() {
				return false, errors.New("source primary died")
			}
			if m.src.Role() != RolePrimary || m.src.Epoch() != m.srcEpoch {
				return false, fatalf("shard changed hands during migration (source no longer primary at epoch %d)", m.srcEpoch)
			}
		}

		entries, serr := m.src.log.Since(sent)
		if errors.Is(serr, repllog.ErrTruncated) {
			if m.snapBytes.Load() > 0 {
				// The destination's surviving frontier fell below the
				// retained log (crash-restart mid-tail): same fallback rule
				// as a lagging backup.
				m.src.counters.Add("repl.snapshot_fallbacks", 1)
			}
			snapSeq, snErr := m.sendSnapshot(s)
			if snErr != nil {
				return false, snErr
			}
			sent = snapSeq
			m.destSeq.Store(sent)
			continue
		}
		if serr != nil {
			return false, serr
		}

		if len(entries) == 0 {
			if !fenced {
				// Caught up while live: commit the cutover. Any write that
				// races in before the fence lands in the log and drains on
				// the next loop iteration.
				if cerr := m.beginCutover(); cerr != nil {
					return false, cerr
				}
				continue
			}
			// Fenced and drained: the source frontier is frozen and the
			// destination matches it. Install.
			if m.src.faults.Should(fault.ReplCutoverPartition) {
				return false, errors.New("injected cutover partition")
			}
			ack, aerr := s.call(wire.ReplMessage{Kind: wire.ReplInstall, Epoch: m.cutEpoch.Load(), Seq: sent})
			if aerr != nil {
				return false, aerr
			}
			if ack.Kind != wire.ReplAck || ack.Seq != sent {
				return false, fmt.Errorf("install not acked (got %s seq %d, want ACK %d)", ack.Kind, ack.Seq, sent)
			}
			m.finishCutover()
			// The shard is installed but lives on one copy until the new
			// primary's shipping loops seed its backups. Success must mean
			// quorum durability — otherwise a dest-primary crash right after
			// install would elect an empty backup — so hold the cutover
			// shield until a quorum holds the frontier, and roll back to the
			// (still complete) old group if that never happens. No dest
			// write can have quorum-acked in the meantime: a backup ack at
			// any seq implies, by dense prefixes, the whole migrated prefix.
			if derr := m.awaitDestQuorum(sent); derr != nil {
				return false, derr
			}
			m.clearCutover()
			return true, nil
		}

		for _, e := range entries {
			if m.stopped() {
				return false, errors.New("migration stopped")
			}
			ack, aerr := s.ship(m.streamEpoch(), e)
			if aerr != nil {
				return false, aerr
			}
			if ack.Kind == wire.ReplReject {
				return false, fmt.Errorf("destination rejected tail entry %d: %s", e.Seq, ack.Payload)
			}
			if ack.Kind != wire.ReplAck {
				return false, fmt.Errorf("unexpected %s acking tail entry %d", ack.Kind, e.Seq)
			}
			sent = e.Seq
			m.destSeq.Store(ack.Seq)
			m.entries.Add(1)
			m.src.counters.Add("repl.migration_entries", 1)
		}
		m.src.log.Pin(sent + 1)
		m.src.gauges.Set("repl.migration_lag", int64(m.src.LastApplied())-int64(sent))
	}
}

// sendSnapshot streams a consistent dump of the source store; replay
// resumes from the returned sequence. The dump pins the log just past
// its frontier, so the tail the destination still needs cannot be
// evicted while it installs.
func (m *Migration) sendSnapshot(s *stream) (uint64, error) {
	data, snapSeq, err := m.src.snapshot(true)
	if err != nil {
		return 0, err
	}
	ack, err := s.sendSnapshot(m.streamEpoch(), snapSeq, data)
	if err != nil {
		return 0, err
	}
	if ack.Kind != wire.ReplAck || ack.Seq != snapSeq {
		return 0, fmt.Errorf("snapshot not acked (got %s seq %d, want ACK %d)", ack.Kind, ack.Seq, snapSeq)
	}
	m.snapBytes.Add(uint64(len(data)))
	m.state.CompareAndSwap(int32(MigrateSnapshot), int32(MigrateTail))
	return snapSeq, nil
}

// beginCutover atomically swaps the shard's membership to the
// destination group under a bumped, fenced epoch, then demotes the old
// primary so post-fence writes bounce with a redirect to the new one.
// From here until finishCutover (or rollback) the coordinator's lease
// monitor leaves the shard alone — the destination primary cannot
// heartbeat before it is promoted.
func (m *Migration) beginCutover() error {
	c := m.c
	c.mu.Lock()
	g, ok := c.groups[m.shard]
	if !ok || c.closed {
		c.mu.Unlock()
		return fatalf("shard %d unregistered during migration", m.shard)
	}
	if g.epoch != m.srcEpoch || g.members[g.primary] != m.src {
		c.mu.Unlock()
		return fatalf("shard %d changed hands during migration (epoch %d != %d)", m.shard, g.epoch, m.srcEpoch)
	}
	cut := g.epoch + 1
	m.cutEpoch.Store(cut)
	m.oldMembers = g.members
	m.oldPrimary = g.primary
	m.oldNode = g.node
	members := make(map[int]*Replica, len(m.target.Members))
	for id, r := range m.target.Members {
		members[id] = r
	}
	g.members = members
	g.primary = m.target.Primary
	g.node = m.target.Node
	g.epoch = cut
	g.cutover = true
	g.lastBeat = time.Now()
	for id, r := range members {
		id := id
		r.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	}
	c.mu.Unlock()

	// Fence outside the lock: the old primary stops acking writes and
	// redirects clients to the destination primary.
	m.src.maybeDemote(cut, m.dest.ClientAddr())
	m.state.Store(int32(MigrateCutover))
	c.tel.Flight().Record(telemetry.EventMigrationCutover, int64(m.shard), cut, 0)
	return nil
}

// finishCutover promotes the destination primary and republishes the
// route; the shard now belongs to the new group. The cutover shield
// stays up until awaitDestQuorum proves the install is quorum-durable.
func (m *Migration) finishCutover() {
	peers := make(map[int]string, len(m.target.Members))
	for id, r := range m.target.Members {
		peers[id] = r.ReplAddr()
	}
	m.dest.promote(m.cutEpoch.Load(), peers)

	c := m.c
	c.mu.Lock()
	var fn func(int, kvnet.ShardAddrs)
	var addrs kvnet.ShardAddrs
	if g, ok := c.groups[m.shard]; ok && g.epoch == m.cutEpoch.Load() {
		g.lastBeat = time.Now()
		fn = c.onRoute
		addrs = routeLocked(g)
	}
	c.mu.Unlock()
	if fn != nil {
		fn(m.shard, addrs)
	}
}

// awaitDestQuorum blocks until enough destination backups hold the
// installed frontier that the shard is quorum-durable on the new group
// (the new primary plus Quorum-1 backups), failing if the primary dies
// or the ack timeout lapses.
func (m *Migration) awaitDestQuorum(frontier uint64) error {
	need := m.dest.opts.Quorum - 1
	if need <= 0 {
		return nil
	}
	deadline := time.Now().Add(m.dest.opts.AckTimeout)
	for {
		if m.stopped() {
			return errors.New("migration stopped")
		}
		if !m.dest.Alive() {
			return fatalf("destination primary died before the install became quorum-durable")
		}
		caught := 0
		for id, r := range m.target.Members {
			if id != m.target.Primary && r.Alive() && r.LastApplied() >= frontier {
				caught++
			}
		}
		if caught >= need {
			return nil
		}
		if time.Now().After(deadline) {
			return fatalf("install never reached quorum on the destination (%d/%d backups at seq %d)", caught, need, frontier)
		}
		time.Sleep(time.Millisecond)
	}
}

// clearCutover drops the cutover shield: the lease monitor resumes
// watching the (now quorum-durable) destination group.
func (m *Migration) clearCutover() {
	c := m.c
	c.mu.Lock()
	if g, ok := c.groups[m.shard]; ok && g.epoch == m.cutEpoch.Load() {
		g.cutover = false
		g.lastBeat = time.Now()
	}
	c.mu.Unlock()
}

// rollback undoes a committed cutover after the destination failed:
// the old group takes the shard back under a fresh term, led by its
// most advanced live member (the fenced old primary, unless it died
// too). Nothing was ever acked by the destination — it never served a
// client write — so the old group still holds every acknowledged write.
func (m *Migration) rollback() {
	c := m.c
	cut := m.cutEpoch.Load()
	c.mu.Lock()
	g, ok := c.groups[m.shard]
	if !ok || !g.cutover || g.epoch != cut {
		// Someone else already moved the shard on; leave it be.
		c.mu.Unlock()
		return
	}
	candID, cand := -1, (*Replica)(nil)
	var candSeq uint64
	for id, r := range m.oldMembers {
		if !r.Alive() {
			continue
		}
		seq := r.LastApplied()
		if cand == nil || seq > candSeq || (seq == candSeq && id < candID) {
			candID, cand, candSeq = id, r, seq
		}
	}
	g.members = m.oldMembers
	g.node = m.oldNode
	g.cutover = false
	g.lastBeat = time.Now()
	for id, r := range g.members {
		id := id
		r.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	}
	if cand == nil {
		// No old member survived either; the lease monitor keeps
		// watching for a revived replica.
		g.primary = m.oldPrimary
		c.mu.Unlock()
		return
	}
	g.epoch = cut + 1
	g.primary = candID
	peers := peerAddrsLocked(g)
	addrs := routeLocked(g)
	fn := c.onRoute
	c.mu.Unlock()

	cand.promote(cut+1, peers)
	// If the install had already promoted the destination primary (the
	// rollback fired because its group never became quorum-durable),
	// fence it under the old group's new term so stragglers bounce back.
	m.dest.maybeDemote(cut+1, cand.ClientAddr())
	if fn != nil {
		fn(m.shard, addrs)
	}
}

// MigrateShard starts a live migration of shard onto the target group.
// The returned Migration runs concurrently: the old group keeps serving
// until the epoch-fenced cutover, and Wait returns nil once the
// destination owns the shard. On failure the shard stays with (or rolls
// back to) the old group and the target members must be closed by the
// caller.
func (c *Coordinator) MigrateShard(shard int, target MigrationTarget) (*Migration, error) {
	if len(target.Members) == 0 {
		return nil, fmt.Errorf("kvrepl: migrate shard %d: empty target group", shard)
	}
	dest, ok := target.Members[target.Primary]
	if !ok || dest == nil {
		return nil, fmt.Errorf("kvrepl: migrate shard %d: target primary %d is not a member", shard, target.Primary)
	}
	for id, r := range target.Members {
		if r == nil || !r.Alive() {
			return nil, fmt.Errorf("kvrepl: migrate shard %d: target member %d is not alive", shard, id)
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("kvrepl: coordinator closed")
	}
	g, ok := c.groups[shard]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("kvrepl: shard %d not registered", shard)
	}
	if g.migration != nil && !g.migration.finished() {
		c.mu.Unlock()
		return nil, fmt.Errorf("kvrepl: shard %d already has a migration in flight", shard)
	}
	for _, cur := range g.members {
		for id, r := range target.Members {
			if cur == r {
				c.mu.Unlock()
				return nil, fmt.Errorf("kvrepl: migrate shard %d: target member %d already serves the shard", shard, id)
			}
		}
	}
	src := g.members[g.primary]
	if src == nil || !src.Alive() {
		c.mu.Unlock()
		return nil, fmt.Errorf("kvrepl: shard %d has no live primary to migrate from", shard)
	}
	m := &Migration{
		c:        c,
		shard:    shard,
		target:   target,
		src:      src,
		dest:     dest,
		srcEpoch: g.epoch,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	g.migration = m
	c.counters.Add("repl.migrations", 1)
	c.wg.Add(1)
	c.mu.Unlock()

	go m.run()
	return m, nil
}

// Migrations returns the latest migration status per shard (running or
// terminal), sorted by shard.
func (c *Coordinator) Migrations() []MigrationStatus {
	c.mu.Lock()
	migs := make([]*Migration, 0, len(c.groups))
	for _, g := range c.groups {
		if g.migration != nil {
			migs = append(migs, g.migration)
		}
	}
	c.mu.Unlock()
	out := make([]MigrationStatus, 0, len(migs))
	for _, m := range migs {
		out = append(out, m.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}
