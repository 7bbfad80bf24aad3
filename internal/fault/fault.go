// Package fault provides a deterministic, seedable fault-injection
// registry for the KV-Direct reproduction. Every simulated hardware layer
// exposes named injection points — bit flips in host and NIC DRAM lines
// (caught or escalated through internal/ecc), DMA stalls and dropped read
// tags on the PCIe model, and frame corruption/truncation/connection
// resets on the network path — all driven from one seeded stream so a
// chaos run is reproducible given the same seed and operation sequence.
//
// Injection points are cheap no-ops while no probability is configured:
// Should is a single atomic load on that path, so production-shaped code
// can keep its hooks permanently compiled in (the paper's hardware keeps
// its ECC machinery always-on for the same reason).
//
// Every injected fault is counted in a telemetry.Counters registry
// under "fault.<point>", making the whole fault history observable
// through the store's status registers and Health summary.
package fault

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"kvdirect/internal/telemetry"
)

// Point names one injection site.
type Point uint8

// Injection points, one per simulated hardware fault class.
const (
	// HostBitFlip flips one random bit in a host-DRAM line as it is read
	// over PCIe. Always corrected by the SECDED code (internal/ecc).
	HostBitFlip Point = iota
	// HostDoubleBitFlip flips two bits of one 64-bit word in a host line,
	// chosen so the widened-parity layout is guaranteed to detect (but
	// not correct) the fault: an uncorrectable error the store must
	// escalate rather than serve silently.
	HostDoubleBitFlip
	// DRAMBitFlip flips one random bit in a resident NIC-DRAM cache line.
	DRAMBitFlip
	// DRAMDoubleBitFlip is the uncorrectable variant for NIC DRAM; clean
	// lines self-heal by refetching from host, dirty lines are lost and
	// escalated.
	DRAMDoubleBitFlip
	// PCIeStall delays one DMA request (latency-only in the functional
	// model; modeled as extra latency in the PCIe event simulation).
	PCIeStall
	// PCIeDropTag loses one DMA read completion; the DMA engine recovers
	// by re-issuing the request after a timeout.
	PCIeDropTag
	// NetCorruptFrame flips a bit in a response frame's payload after the
	// checksum is computed, so the client sees a CRC mismatch.
	NetCorruptFrame
	// NetTruncateFrame cuts a response frame short and drops the
	// connection mid-write.
	NetTruncateFrame
	// NetReset abruptly closes the connection instead of responding.
	NetReset
	// ReplDropEntry silently loses one log entry on the primary→backup
	// shipping path; the backup detects the sequence gap on the next
	// entry and forces a stream resync.
	ReplDropEntry
	// ReplStallBackup delays a backup's apply of one log entry, growing
	// replication lag; quorum acks must still arrive via the remaining
	// backups.
	ReplStallBackup
	// ReplPartitionPrimary suppresses one primary→coordinator heartbeat,
	// simulating a partitioned primary: enough consecutive hits expire
	// the lease and trigger failover while the old primary still lives,
	// exercising epoch fencing.
	ReplPartitionPrimary
	// ReplMigrateStall delays one message on a live shard-migration
	// stream (snapshot chunk or tail entry), stretching the transfer so
	// chaos tests can reliably kill nodes mid-migration.
	ReplMigrateStall
	// ReplCutoverPartition drops the migration stream's connection during
	// the fenced cutover window (after the source stops acking writes,
	// before the destination is installed), forcing the migrator through
	// its redial-and-resume path at the worst possible moment.
	ReplCutoverPartition
	// ReplDestCrash makes the migration destination tear down the inbound
	// transfer stream mid-apply, simulating a crash-restart of the
	// receiving replica; the migrator must resume from the destination's
	// surviving frontier (or re-send the snapshot).
	ReplDestCrash
	// GwDecodeCorrupt flips a byte in an inbound memcache binary frame
	// after the gateway reads it off the wire, exercising the codec's
	// malformed-header and unknown-opcode rejection paths under load.
	GwDecodeCorrupt
	// GwTenantQuotaExhausted forces one gateway admission check to report
	// the tenant's quota as exhausted regardless of actual usage, so chaos
	// runs can prove a throttled tenant maps to TEMPORARY_FAILURE without
	// perturbing its neighbors.
	GwTenantQuotaExhausted

	// NumPoints is the number of injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	HostBitFlip:          "host_bitflip",
	HostDoubleBitFlip:    "host_double_bitflip",
	DRAMBitFlip:          "dram_bitflip",
	DRAMDoubleBitFlip:    "dram_double_bitflip",
	PCIeStall:            "pcie_stall",
	PCIeDropTag:          "pcie_drop_tag",
	NetCorruptFrame:      "net_corrupt_frame",
	NetTruncateFrame:     "net_truncate_frame",
	NetReset:             "net_reset",
	ReplDropEntry:        "repl_drop_entry",
	ReplStallBackup:      "repl_stall_backup",
	ReplPartitionPrimary: "repl_partition_primary",
	ReplMigrateStall:     "repl_migrate_stall",
	ReplCutoverPartition: "repl_cutover_partition",
	ReplDestCrash:        "repl_dest_crash",
	// The gateway points keep one-dot counter names ("fault.gw_…"): the
	// metric-name convention is layer.noun, with the layer here being the
	// fault registry itself.
	GwDecodeCorrupt:        "gw_decode_corrupt",
	GwTenantQuotaExhausted: "gw_tenant_quota_exhausted",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "unknown"
}

// Points returns every injection point, for iteration in tests.
func Points() []Point {
	out := make([]Point, NumPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// Injector is a seeded fault-injection registry. It is safe for
// concurrent use; decisions are drawn from one deterministic stream, so
// with a fixed seed and a fixed sequence of Should calls the same faults
// fire.
//
// A nil *Injector is valid and never injects, so components can hold one
// unconditionally.
type Injector struct {
	active atomic.Bool // fast path: any probability > 0

	mu    sync.Mutex
	rng   *rand.Rand
	probs [NumPoints]float64

	counters telemetry.Counters
	counts   [NumPoints]*atomic.Uint64
}

// NewInjector returns an injector with all probabilities zero.
func NewInjector(seed int64) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for p := Point(0); p < NumPoints; p++ {
		in.counts[p] = in.counters.Counter("fault." + p.String())
	}
	return in
}

// Set configures point p to fire with the given probability per
// opportunity (clamped to [0,1]). It returns the injector for chaining.
func (in *Injector) Set(p Point, prob float64) *Injector {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	in.mu.Lock()
	in.probs[p] = prob
	any := false
	for _, pr := range in.probs {
		if pr > 0 {
			any = true
			break
		}
	}
	in.active.Store(any)
	in.mu.Unlock()
	return in
}

// DisableAll zeroes every probability, keeping the injection counts, so
// a chaos run can end with a fault-free verification phase.
func (in *Injector) DisableAll() {
	in.mu.Lock()
	in.probs = [NumPoints]float64{}
	in.active.Store(false)
	in.mu.Unlock()
}

// Prob returns point p's configured probability.
func (in *Injector) Prob(p Point) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.probs[p]
}

// Should reports whether point p fires this opportunity, counting the
// injection if so. On a nil injector or with no probabilities configured
// it is a branch and an atomic load.
func (in *Injector) Should(p Point) bool {
	if in == nil || !in.active.Load() {
		return false
	}
	in.mu.Lock()
	pr := in.probs[p]
	hit := pr > 0 && in.rng.Float64() < pr
	in.mu.Unlock()
	if hit {
		in.counts[p].Add(1)
	}
	return hit
}

// Intn returns a deterministic value in [0, n) from the injector's
// stream, used to pick fault locations (bit positions, byte offsets).
// n <= 1 returns 0.
func (in *Injector) Intn(n int) int {
	if in == nil || n <= 1 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Injected returns how many times point p has fired.
func (in *Injector) Injected(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[p].Load()
}

// Total returns the total number of injected faults across all points.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for p := Point(0); p < NumPoints; p++ {
		n += in.counts[p].Load()
	}
	return n
}

// Counters exposes the per-point injection counters ("fault.<point>").
func (in *Injector) Counters() *telemetry.Counters {
	if in == nil {
		return nil
	}
	return &in.counters
}
