package kvrepl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect/kvnet"
)

// startMigrationPair builds a registered 3-replica source group with
// writes applied, plus an unregistered destination group, and a sharded
// client wired to the coordinator's routes.
func startMigrationPair(t *testing.T, coord *Coordinator, opts Options, writes int) (*Group, *Group, *kvnet.ShardedClient) {
	t.Helper()
	src, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })

	destCfg := testConfig()
	destCfg.Seed = 7777
	destOpts := opts
	destOpts.Seed = opts.Seed + 100
	dest, err := NewLocalGroup(0, 3, destCfg, destOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dest.Close() })

	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{src.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) { _ = sc.UpdateShard(shard, addrs) }) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry

	for i := 0; i < writes; i++ {
		k := fmt.Sprintf("mig-%04d", i)
		if err := sc.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	return src, dest, sc
}

func TestMigrateShardBasic(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	opts := fastOpts()
	opts.LogWindow = 64 // writes outrun the window: the transfer must snapshot first
	const writes = 300
	src, dest, sc := startMigrationPair(t, coord, opts, writes)
	// Large values push the transfer's snapshot past several chunks.
	big := putBigValues(t, sc.Put)

	oldPrim := src.Primary()
	if oldPrim == nil {
		t.Fatal("no source primary")
	}
	frontier := oldPrim.LastApplied()

	mig, err := coord.MigrateShard(0, dest.Target("node-b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration failed: %v", err)
	}

	st := mig.Status()
	if st.State != "done" {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.SnapshotBytes == 0 {
		t.Fatal("expected a snapshot transfer with LogWindow < writes")
	}
	if st.SnapshotBytes <= 2*snapshotChunk {
		t.Fatalf("snapshot was %d B, want 3+ chunks (> %d B)", st.SnapshotBytes, 2*snapshotChunk)
	}
	if got := oldPrim.Counters().Get("repl.catchup_bytes"); got <= 2*snapshotChunk {
		t.Fatalf("source catch-up bytes = %d, want > %d", got, 2*snapshotChunk)
	}
	if st.DestSeq < frontier {
		t.Fatalf("destination frontier %d < source frontier %d", st.DestSeq, frontier)
	}
	if st.CutoverEpoch != 2 {
		t.Fatalf("cutover epoch = %d, want 2", st.CutoverEpoch)
	}

	newPrim := dest.Primary()
	if newPrim == nil {
		t.Fatal("destination has no primary after cutover")
	}
	if newPrim.Epoch() != 2 {
		t.Fatalf("new primary epoch = %d, want 2", newPrim.Epoch())
	}

	// The fenced old primary redirects straggler clients to the new one.
	c, err := kvnet.Dial(oldPrim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put([]byte("stale-route"), []byte("x"))
	npe, ok := err.(*kvnet.NotPrimaryError)
	if !ok {
		t.Fatalf("write to fenced source: got %v, want NotPrimaryError", err)
	}
	if npe.Hint != newPrim.ClientAddr() {
		t.Fatalf("fence hint = %q, want new primary %q", npe.Hint, newPrim.ClientAddr())
	}

	// Every write survives the move, via the (re-routed) client and on
	// the new primary's own store.
	for i := 0; i < writes; i++ {
		k := fmt.Sprintf("mig-%04d", i)
		v, found, err := sc.Get([]byte(k))
		if err != nil || !found || string(v) != "v-"+k {
			t.Fatalf("key %s after migration: %q found=%v err=%v", k, v, found, err)
		}
		if v, ok := newPrim.Store().Get([]byte(k)); !ok || string(v) != "v-"+k {
			t.Fatalf("new primary missing key %s (got %q, %v)", k, v, ok)
		}
	}

	checkBigValues(t, big, newPrim.Store().Get)
	checkBigValues(t, big, func(k []byte) ([]byte, bool) {
		v, found, err := sc.Get(k)
		return v, found && err == nil
	})

	// Writes keep flowing — onto the new group, not the old one.
	if err := sc.Put([]byte("post-migration"), []byte("y")); err != nil {
		t.Fatalf("post-migration put: %v", err)
	}
	if _, ok := newPrim.Store().Get([]byte("post-migration")); !ok {
		t.Fatal("post-migration write did not land on the new group")
	}
	if _, ok := oldPrim.Store().Get([]byte("post-migration")); ok {
		t.Fatal("post-migration write leaked to the fenced old group")
	}

	if got := coord.Counters().Get("repl.migrations_completed"); got != 1 {
		t.Fatalf("repl.migrations_completed = %d, want 1", got)
	}
	migs := coord.Migrations()
	if len(migs) != 1 || migs[0].Shard != 0 || migs[0].State != "done" {
		t.Fatalf("Migrations() = %+v, want one done entry for shard 0", migs)
	}
	if migs[0].DurationNs <= 0 {
		t.Fatal("migration duration not recorded")
	}
}

func TestMigrateShardUnderLoad(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	_, dest, sc := startMigrationPair(t, coord, fastOpts(), 50)

	// Writers hammer the shard while it moves; every acked version must
	// survive on the destination.
	const workers, perWorker = 3, 150
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]int{}
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("load-%d-%d", w, i%10)
				version := i/10 + 1
				deadline := time.Now().Add(5 * time.Second)
				for {
					if err := sc.Put([]byte(key), []byte(fmt.Sprintf("v%d", version))); err == nil {
						break
					} else if time.Now().After(deadline) {
						t.Errorf("worker %d: put %s v%d never landed: %v", w, key, version, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				mu.Lock()
				if acked[key] < version {
					acked[key] = version
				}
				mu.Unlock()
				select {
				case <-stop:
				default:
					time.Sleep(200 * time.Microsecond) // keep the tail alive during the transfer
				}
			}
		}(w)
	}

	mig, err := coord.MigrateShard(0, dest.Target("node-b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration under load failed: %v", err)
	}
	close(stop)
	wg.Wait()

	newPrim := dest.Primary()
	if newPrim == nil {
		t.Fatal("destination has no primary")
	}
	for key, version := range acked {
		want := fmt.Sprintf("v%d", version)
		v, found, err := sc.Get([]byte(key))
		if err != nil || !found {
			t.Fatalf("acked key %s lost in migration (found=%v err=%v)", key, found, err)
		}
		got := 0
		if _, err := fmt.Sscanf(string(v), "v%d", &got); err != nil || got < version {
			t.Fatalf("key %s: read %q, acked through %s", key, v, want)
		}
		if _, ok := newPrim.Store().Get([]byte(key)); !ok {
			t.Fatalf("new primary missing acked key %s", key)
		}
	}
}

func TestMigrateShardValidation(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	src, dest, _ := startMigrationPair(t, coord, fastOpts(), 5)

	if _, err := coord.MigrateShard(9, dest.Target("")); err == nil {
		t.Fatal("migrating an unregistered shard must fail")
	}
	if _, err := coord.MigrateShard(0, MigrationTarget{}); err == nil {
		t.Fatal("empty target must fail")
	}
	if _, err := coord.MigrateShard(0, MigrationTarget{Members: dest.Members(), Primary: 99}); err == nil {
		t.Fatal("target primary outside the member set must fail")
	}
	overlap := dest.Members()
	overlap[50] = src.Replicas[1] // already serves the shard
	if _, err := coord.MigrateShard(0, MigrationTarget{Members: overlap, Primary: 0}); err == nil {
		t.Fatal("target overlapping the current group must fail")
	}
}

func TestAddReplicaCatchesUp(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	opts := fastOpts()
	g, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) { _ = sc.UpdateShard(shard, addrs) }) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry

	const n = 80
	for i := 0; i < n; i++ {
		if err := sc.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	extra, err := NewReplica(0, 3, 4, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	if err := coord.AddReplica(0, 3, extra); err != nil {
		t.Fatal(err)
	}
	prim := g.Primary()
	waitFor(t, 2*time.Second, "new backup to catch up",
		func() bool { return extra.LastApplied() >= prim.LastApplied() })
	if v, ok := extra.Store().Get([]byte("k000")); !ok || string(v) != "v" {
		t.Fatalf("new backup missing replicated key (got %q, %v)", v, ok)
	}
	if got := coord.Counters().Get("repl.member_adds"); got != 1 {
		t.Fatalf("repl.member_adds = %d, want 1", got)
	}
}

func TestRemoveReplicaBackupAndPrimary(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	// Quorum 1: the group stays writable all the way down to one member,
	// so the test exercises membership mechanics, not quorum starvation.
	opts := fastOpts()
	opts.Quorum = 1
	g, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) { _ = sc.UpdateShard(shard, addrs) }) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry
	for i := 0; i < 20; i++ {
		if err := sc.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Drop a backup: the group keeps serving at quorum 2 of... now 2.
	prim := g.Primary()
	var backupID = -1
	for _, r := range g.Replicas {
		if r != prim {
			backupID = r.ID()
			break
		}
	}
	if err := coord.RemoveReplica(0, backupID); err != nil {
		t.Fatal(err)
	}
	if err := sc.Put([]byte("after-shrink"), []byte("v")); err != nil {
		t.Fatalf("put after backup removal: %v", err)
	}

	// Remove the primary: the survivor is elected under a bumped epoch
	// and the departing primary is fenced with a redirect.
	oldEpoch := prim.Epoch()
	if err := coord.RemoveReplica(0, prim.ID()); err != nil {
		t.Fatal(err)
	}
	newPrim := g.Primary()
	if newPrim == nil || newPrim == prim {
		t.Fatal("no successor after removing the primary")
	}
	if newPrim.Epoch() <= oldEpoch {
		t.Fatalf("successor epoch %d not bumped past %d", newPrim.Epoch(), oldEpoch)
	}
	if prim.Role() == RolePrimary {
		t.Fatal("removed primary was not fenced")
	}
	if err := sc.Put([]byte("after-handoff"), []byte("v")); err != nil {
		t.Fatalf("put after primary removal: %v", err)
	}
	if _, ok := newPrim.Store().Get([]byte("after-handoff")); !ok {
		t.Fatal("post-handoff write missing on the successor")
	}
	if err := coord.RemoveReplica(0, newPrim.ID()); err == nil {
		t.Fatal("removing the last member must fail")
	}
}

// TestBackupWindowEvictionSnapshotFallback pins down the catch-up
// contract when the log window has already evicted the tail a lagging
// backup needs: the primary falls back to a snapshot install instead of
// stalling, counts it, and the backup still converges.
func TestBackupWindowEvictionSnapshotFallback(t *testing.T) {
	opts := fastOpts()
	opts.Quorum = 1
	opts.LogWindow = 8
	prim, err := NewReplica(0, 0, 2, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	back, err := NewReplica(0, 1, 2, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()

	prim.promote(1, nil)
	c, err := kvnet.Dial(prim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50 // blows far past the 8-entry window before the backup exists
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	prim.addPeer(1, back.ReplAddr())
	waitFor(t, 2*time.Second, "lagging backup to converge via snapshot",
		func() bool { return back.LastApplied() >= prim.LastApplied() })
	if got := prim.Counters().Get("repl.snapshot_fallbacks"); got == 0 {
		t.Fatal("window eviction did not count a repl.snapshot_fallbacks")
	}
	if v, ok := back.Store().Get([]byte("k000")); !ok || string(v) != "v" {
		t.Fatalf("backup missing evicted-window key (got %q, %v)", v, ok)
	}

	// And the stream is live afterwards: new writes arrive as plain tail.
	// (Poll the frontier, not the store — Store is not safe to read
	// concurrently with the backup's apply loop.)
	if err := c.Put([]byte("post-snap"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "backup to apply post-snapshot tail",
		func() bool { return back.LastApplied() >= prim.LastApplied() })
	if _, ok := back.Store().Get([]byte("post-snap")); !ok {
		t.Fatal("backup missing post-snapshot write")
	}
}

// TestDoubleLeaseExpiryOneEpochBump is the coordinator double-failover
// race regression: two lease scans observing the same expired shard
// (e.g. a slow scan overlapping the next tick) must produce exactly one
// epoch bump and one route publish, not two competing promotions.
func TestDoubleLeaseExpiryOneEpochBump(t *testing.T) {
	// Park the background monitor so the test's explicit scans are the
	// only ones racing.
	coord := NewCoordinator(CoordOptions{LeaseTimeout: 30 * time.Millisecond, CheckEvery: time.Hour})
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var publishes atomic.Int64
	coord.OnRoute(func(int, kvnet.ShardAddrs) { publishes.Add(1) })
	publishes.Store(0) // OnRoute replays current routes; count only post-kill publishes

	prim := g.Primary()
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let the lease lapse

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord.checkLeases()
		}()
	}
	wg.Wait()

	if got := coord.Counters().Get("repl.failovers"); got != 1 {
		t.Fatalf("repl.failovers = %d, want exactly 1", got)
	}
	if got := publishes.Load(); got != 1 {
		t.Fatalf("route publishes = %d, want exactly 1", got)
	}
	newPrim := g.Primary()
	if newPrim == nil {
		t.Fatal("no new primary after double scan")
	}
	if newPrim.Epoch() != 2 {
		t.Fatalf("epoch = %d, want exactly 2 (one bump)", newPrim.Epoch())
	}
}

// TestAdoptPreservesEpoch covers coordinator replacement: the successor
// adopts the live primary's epoch instead of resetting it, so fencing
// keeps rejecting pre-restart stragglers.
func TestAdoptPreservesEpoch(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	defer g.Close()

	// Drive the group to epoch 2 via one failover, then lose the
	// coordinator.
	first := g.Primary()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "failover to epoch 2",
		func() bool { p := g.Primary(); return p != nil && p.Epoch() == 2 })
	coord.Close()

	prim := g.Primary()
	members := map[int]*Replica{}
	for _, r := range g.Replicas {
		if r.Alive() {
			members[r.ID()] = r
		}
	}
	succ := NewCoordinator(fastCoord())
	defer succ.Close()
	if err := succ.Adopt(0, members, prim.ID()); err != nil {
		t.Fatal(err)
	}
	// Next failover continues the epoch sequence from the adopted value.
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-adopt failover to epoch 3",
		func() bool { p := g.Primary(); return p != nil && p != prim && p.Epoch() == 3 })
}
