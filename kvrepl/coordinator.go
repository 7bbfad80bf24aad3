package kvrepl

import (
	"fmt"
	"sync"
	"time"

	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
)

// CoordOptions tunes the lease-based failure detector.
type CoordOptions struct {
	// LeaseTimeout is how long a primary may go without a heartbeat
	// before the coordinator elects a replacement (default 150 ms; keep
	// it a small multiple of the replicas' HeartbeatEvery).
	LeaseTimeout time.Duration
	// CheckEvery is the lease-scan period (default LeaseTimeout/3).
	CheckEvery time.Duration
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 150 * time.Millisecond
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = o.LeaseTimeout / 3
	}
	return o
}

// Coordinator is the in-process membership and lease service for a set
// of replica groups — the control plane, deliberately off the data
// path (TurboKV's split): it sees heartbeats and elects primaries but
// never touches a key. When a primary's lease lapses it bumps the
// group's epoch, promotes the most-up-to-date live backup (which, with
// quorum acks and dense applied prefixes, is guaranteed to hold every
// acknowledged write), and republishes routing through OnRoute.
type Coordinator struct {
	opts         CoordOptions
	tel          *telemetry.Registry
	counters     *telemetry.Counters
	migrationDur *telemetry.Histogram

	mu      sync.Mutex
	groups  map[int]*groupState
	onRoute func(shard int, addrs kvnet.ShardAddrs)
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type groupState struct {
	members   map[int]*Replica
	primary   int
	epoch     uint64
	lastBeat  time.Time
	node      string     // planner placement label ("" until SetShardNode)
	cutover   bool       // mid-cutover: the lease monitor must not interfere
	migration *Migration // latest migration for this shard (running or terminal)
}

// NewCoordinator starts the lease monitor.
func NewCoordinator(opts CoordOptions) *Coordinator {
	tel := telemetry.NewRegistry()
	c := &Coordinator{
		opts:         opts.withDefaults(),
		tel:          tel,
		counters:     tel.Counters(),
		migrationDur: tel.Histogram("repl.migration_duration_ns"),
		groups:       map[int]*groupState{},
		stop:         make(chan struct{}),
	}
	c.wg.Add(1)
	go c.monitor()
	return c
}

// Counters exposes the control-plane counters: repl.failovers,
// repl.failovers_aborted, repl.migrations, repl.migrations_completed,
// repl.migrations_aborted, repl.member_adds and repl.member_removes.
func (c *Coordinator) Counters() *telemetry.Counters { return c.counters }

// Telemetry exposes the coordinator's registry (counters plus the
// repl.migration_duration_ns histogram) for /metrics export.
func (c *Coordinator) Telemetry() *telemetry.Registry { return c.tel }

// TelemetrySnapshot makes the Coordinator a kvnet.SnapshotSource, so
// control-plane metrics merge into the same /metrics scrape as the
// replicas it manages.
func (c *Coordinator) TelemetrySnapshot() telemetry.Snapshot { return c.tel.Snapshot() }

// OnRoute installs the routing-republish callback, invoked (without the
// coordinator's lock) at registration and after every failover —
// typically kvnet.ShardedClient.UpdateShard. Replaces any previous
// callback and immediately replays current routes so a late subscriber
// starts consistent.
func (c *Coordinator) OnRoute(fn func(shard int, addrs kvnet.ShardAddrs)) {
	c.mu.Lock()
	c.onRoute = fn
	type route struct {
		shard int
		addrs kvnet.ShardAddrs
	}
	var routes []route
	for shard, g := range c.groups {
		routes = append(routes, route{shard, routeLocked(g)})
	}
	c.mu.Unlock()
	if fn != nil {
		for _, rt := range routes {
			fn(rt.shard, rt.addrs)
		}
	}
}

// Register adds a replica group under shard, promotes members[primary]
// for epoch 1 and publishes the initial route. Every member must have
// been built with NewReplica.
func (c *Coordinator) Register(shard int, members map[int]*Replica, primary int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: coordinator closed")
	}
	if _, dup := c.groups[shard]; dup {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d already registered", shard)
	}
	if _, ok := members[primary]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d: primary %d is not a member", shard, primary)
	}
	g := &groupState{
		members:  members,
		primary:  primary,
		epoch:    1,
		lastBeat: time.Now(),
	}
	c.groups[shard] = g
	for id, m := range members {
		id := id
		m.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	}
	lead := members[primary]
	peers := peerAddrsLocked(g)
	fn := c.onRoute
	addrs := routeLocked(g)
	c.mu.Unlock()

	lead.promote(1, peers)
	if fn != nil {
		fn(shard, addrs)
	}
	return nil
}

// heartbeat renews the primary's lease; beats from deposed members are
// ignored, so a partitioned old primary cannot keep the lease alive.
func (c *Coordinator) heartbeat(shard, id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.groups[shard]; ok && g.primary == id {
		g.lastBeat = time.Now()
	}
}

// monitor scans leases and fails over expired ones.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.checkLeases()
		}
	}
}

func (c *Coordinator) checkLeases() {
	type promotion struct {
		shard int
		cand  *Replica
		epoch uint64
		peers map[int]string
		addrs kvnet.ShardAddrs
	}
	var promos []promotion
	c.mu.Lock()
	now := time.Now()
	for shard, g := range c.groups {
		if g.cutover {
			// Mid-cutover the destination primary cannot heartbeat yet (it
			// is promoted only after the install proof); electing over the
			// swapped-in membership would crown an empty backup and lose
			// acked writes. The window is bounded: the migration either
			// finishes the cutover or rolls the group back.
			continue
		}
		if now.Sub(g.lastBeat) <= c.opts.LeaseTimeout {
			continue
		}
		// Lease expired: elect the live backup with the highest applied
		// frontier (ties to the lowest id, for determinism).
		candID, cand := -1, (*Replica)(nil)
		var candSeq uint64
		for id, m := range g.members {
			if id == g.primary || !m.Alive() {
				continue
			}
			seq := m.LastApplied()
			if cand == nil || seq > candSeq || (seq == candSeq && id < candID) {
				candID, cand, candSeq = id, m, seq
			}
		}
		if cand == nil {
			// Nothing to promote; re-arm the lease and keep watching (the
			// old primary may come back, or a replica may be revived).
			c.counters.Add("repl.failovers_aborted", 1)
			g.lastBeat = now
			continue
		}
		g.epoch++
		g.primary = candID
		g.lastBeat = now // fresh lease for the new primary
		c.counters.Add("repl.failovers", 1)
		c.tel.Flight().Record(telemetry.EventFailover, int64(shard), g.epoch, uint64(candID))
		promos = append(promos, promotion{
			shard: shard,
			cand:  cand,
			epoch: g.epoch,
			peers: peerAddrsLocked(g),
			addrs: routeLocked(g),
		})
	}
	fn := c.onRoute
	c.mu.Unlock()

	// Promote outside the lock: promotion takes the replica's lock and
	// spins up shipping loops; nothing here needs coordinator state.
	for _, p := range promos {
		p.cand.promote(p.epoch, p.peers)
		if fn != nil {
			fn(p.shard, p.addrs)
		}
	}
	if len(promos) > 0 {
		// A lease failover is exactly the anomaly the flight recorder
		// exists for: freeze the event ring into a black box the moment
		// the new primary is installed, so the scene is captured before
		// later traffic scrolls it away.
		c.tel.Flight().Dump("lease_failover")
	}
}

// AddReplica grows shard's group with a fresh backup. The current
// primary immediately starts shipping its log (snapshot catch-up if the
// backup is far behind) and the route gains a fallback address. Fails
// while a migration is in flight — membership must be stable under it.
func (c *Coordinator) AddReplica(shard, id int, r *Replica) error {
	if r == nil || !r.Alive() {
		return fmt.Errorf("kvrepl: add replica %d to shard %d: replica is not alive", id, shard)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: coordinator closed")
	}
	g, ok := c.groups[shard]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d not registered", shard)
	}
	if g.migration != nil && !g.migration.finished() {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d has a migration in flight", shard)
	}
	if _, dup := g.members[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d already has member %d", shard, id)
	}
	g.members[id] = r
	r.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	lead := g.members[g.primary]
	fn := c.onRoute
	addrs := routeLocked(g)
	c.counters.Add("repl.member_adds", 1)
	c.mu.Unlock()

	lead.addPeer(id, r.ReplAddr())
	if fn != nil {
		fn(shard, addrs)
	}
	return nil
}

// RemoveReplica shrinks shard's group. Removing a backup just stops its
// feed; removing the primary first elects the most advanced remaining
// live member under a bumped epoch and fences the departing primary so
// straggler clients get redirected. The removed replica is not closed —
// it belongs to the caller. Fails while a migration is in flight.
func (c *Coordinator) RemoveReplica(shard, id int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: coordinator closed")
	}
	g, ok := c.groups[shard]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d not registered", shard)
	}
	if g.migration != nil && !g.migration.finished() {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d has a migration in flight", shard)
	}
	old, ok := g.members[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d has no member %d", shard, id)
	}
	if len(g.members) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: cannot remove shard %d's last member", shard)
	}
	if id != g.primary {
		delete(g.members, id)
		lead := g.members[g.primary]
		fn := c.onRoute
		addrs := routeLocked(g)
		c.counters.Add("repl.member_removes", 1)
		c.mu.Unlock()

		lead.removePeer(id)
		if fn != nil {
			fn(shard, addrs)
		}
		return nil
	}
	// Removing the primary: elect the most advanced remaining live
	// member (same rule as failover), then fence the departing one.
	candID, cand := -1, (*Replica)(nil)
	var candSeq uint64
	for mid, m := range g.members {
		if mid == id || !m.Alive() {
			continue
		}
		seq := m.LastApplied()
		if cand == nil || seq > candSeq || (seq == candSeq && mid < candID) {
			candID, cand, candSeq = mid, m, seq
		}
	}
	if cand == nil {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d has no live member to take over from %d", shard, id)
	}
	delete(g.members, id)
	g.epoch++
	g.primary = candID
	g.lastBeat = time.Now()
	epoch := g.epoch
	peers := peerAddrsLocked(g)
	fn := c.onRoute
	addrs := routeLocked(g)
	c.counters.Add("repl.member_removes", 1)
	c.mu.Unlock()

	cand.promote(epoch, peers)
	old.maybeDemote(epoch, cand.ClientAddr())
	if fn != nil {
		fn(shard, addrs)
	}
	return nil
}

// Adopt registers a shard whose group is already live — the successor
// path after a coordinator crash. Unlike Register it does not reset the
// epoch or promote anyone: it takes the current primary's epoch as the
// shard's (so fencing keeps working across the control-plane restart)
// and just resumes lease-watching and routing.
func (c *Coordinator) Adopt(shard int, members map[int]*Replica, primary int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: coordinator closed")
	}
	if _, dup := c.groups[shard]; dup {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d already registered", shard)
	}
	lead, ok := members[primary]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d: primary %d is not a member", shard, primary)
	}
	if lead.Role() != RolePrimary {
		c.mu.Unlock()
		return fmt.Errorf("kvrepl: shard %d: member %d is not the live primary", shard, primary)
	}
	g := &groupState{
		members:  members,
		primary:  primary,
		epoch:    lead.Epoch(),
		lastBeat: time.Now(),
	}
	c.groups[shard] = g
	for id, m := range members {
		id := id
		m.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	}
	fn := c.onRoute
	addrs := routeLocked(g)
	c.mu.Unlock()

	if fn != nil {
		fn(shard, addrs)
	}
	return nil
}

// SetShardNode labels where a shard's group lives, feeding the
// rebalance planner's load counts.
func (c *Coordinator) SetShardNode(shard int, node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.groups[shard]; ok {
		g.node = node
	}
}

// ShardNodes returns the current shard→node placement (shards with no
// label map to "").
func (c *Coordinator) ShardNodes() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.groups))
	for shard, g := range c.groups {
		out[shard] = g.node
	}
	return out
}

// Close stops the monitor. Replicas are not closed — they belong to
// their groups.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

// peerAddrsLocked maps every member id to its replication address (the
// promoted replica skips itself).
func peerAddrsLocked(g *groupState) map[int]string {
	out := make(map[int]string, len(g.members))
	for id, m := range g.members {
		out[id] = m.ReplAddr()
	}
	return out
}

// routeLocked builds the client routing entry: primary first, then the
// other live members as fallbacks.
func routeLocked(g *groupState) kvnet.ShardAddrs {
	addrs := kvnet.ShardAddrs{Primary: g.members[g.primary].ClientAddr()}
	for id, m := range g.members {
		if id != g.primary && m.Alive() {
			addrs.Backups = append(addrs.Backups, m.ClientAddr())
		}
	}
	return addrs
}
