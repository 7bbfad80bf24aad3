// Package kvrepl layers primary–backup replication over the KV-Direct
// network stack: each shard becomes a replica group of one primary and
// N backups, so a dead shard no longer means lost data or a dead
// cluster — the missing piece between PR 1's fault injector (which can
// kill a shard) and the ROADMAP's production-scale story.
//
// The split follows TurboKV's coordination/data-path separation: all
// membership, lease and failover state lives in an in-process
// Coordinator off the data path, while the data path itself is the
// existing kvnet pipeline with one interposed Backend.
//
// # Protocol
//
// The primary serves clients through the ordinary kvnet.Server wire
// path. Every mutating operation is assigned a dense sequence number,
// appended to a bounded in-memory replication log (internal/repllog),
// applied locally, and shipped to each backup over a CRC32C-framed TCP
// stream (kvnet frames carrying wire.ReplMessage envelopes). The client
// write is acknowledged only once Quorum replicas — the primary plus
// Quorum-1 backups — have applied it, so any acknowledged write
// survives the loss of up to N-Quorum+1 replicas (the acked entry lives
// on at least Quorum-1 backups, and applied prefixes are dense, so the
// most-up-to-date surviving backup always holds it).
//
// A joining or lagging backup whose next entry has fallen out of the
// primary's log window catches up by snapshot: the primary streams a
// Store.Dump consistent as of sequence S in 64 KiB chunks, the backup
// installs it into a fresh store and resumes log replay from S+1.
//
// Backup catch-up and live shard migration (Coordinator.MigrateShard)
// share one replication stream: the same dial, framing with deadlines,
// handshake, snapshot sender and Append/Ack shipping. Only the policy
// differs — catch-up acks count toward the group's quorum, migration
// acks advance the migration's destination frontier and never do.
//
// Failure handling is lease-based: the primary heartbeats the
// Coordinator; when the lease expires the Coordinator bumps the group's
// epoch, promotes the most-up-to-date live backup, and republishes
// routing (kvnet.ShardedClient.UpdateShard), so clients redirect
// transparently. Epoch fencing closes the partition window: every
// replication stream opens with the sender's epoch, and a replica that
// has seen epoch E rejects streams from any lower epoch, so a deposed
// primary that still thinks it leads can no longer reach a quorum and
// fails its writes instead of diverging. Backups reject client
// mutations with StatusNotPrimary (carrying the primary's address as a
// redirect hint), which the sharded client follows.
package kvrepl

import (
	"time"

	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
)

// Role is a replica's current duty in its group.
type Role uint8

// Replica roles.
const (
	// RoleBackup applies the primary's log stream and rejects client
	// mutations with a redirect.
	RoleBackup Role = iota
	// RolePrimary sequences, applies and ships mutations, and
	// acknowledges them at quorum.
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// Options tunes a replica group. The zero value gives sane defaults.
type Options struct {
	// Quorum is how many replicas (the primary included) must apply a
	// mutation before the client is acknowledged. Default: a majority
	// of the group. 1 means the primary acks alone (async replication).
	Quorum int
	// LogWindow is how many log entries each replica retains for
	// replay; a peer lagging past the window catches up by snapshot
	// (default repllog.DefaultWindow).
	LogWindow int
	// AckTimeout bounds the wait for quorum acknowledgment before a
	// write fails with a replication error (default 5 s).
	AckTimeout time.Duration
	// HeartbeatEvery is the primary→coordinator heartbeat period
	// (default 25 ms; the coordinator's LeaseTimeout should be a small
	// multiple of it).
	HeartbeatEvery time.Duration
	// StreamTimeout bounds each replication-stream read/write (default
	// 2 s); a stalled peer surfaces as a timeout and a reconnect.
	StreamTimeout time.Duration
	// Faults optionally injects replication faults. Each point has one
	// scope:
	//   - ReplDropEntry: the primary skips one entry on a catch-up
	//     stream to a backup (never on a migration stream).
	//   - ReplStallBackup: a receiving replica delays applying one
	//     shipped entry.
	//   - ReplPartitionPrimary: the primary loses one heartbeat to the
	//     coordinator.
	//   - ReplMigrateStall: a migration source delays one message it
	//     sends on a migration stream (not on catch-up streams).
	//   - ReplCutoverPartition: a migration source drops the stream in
	//     the fenced cutover window, just before the install.
	//   - ReplDestCrash: a migration destination tears down one inbound
	//     migration stream mid-apply.
	Faults *fault.Injector
	// Seed drives the replication layer's deterministic jitter.
	Seed int64
}

func (o Options) withDefaults(groupSize int) Options {
	if o.Quorum <= 0 {
		o.Quorum = groupSize/2 + 1
	}
	if o.Quorum > groupSize {
		o.Quorum = groupSize
	}
	if o.LogWindow <= 0 {
		o.LogWindow = repllog.DefaultWindow
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 25 * time.Millisecond
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 2 * time.Second
	}
	return o
}
