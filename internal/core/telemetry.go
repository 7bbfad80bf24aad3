package core

import (
	"encoding/json"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// The core is a simulated clock domain: the walltime analyzer bans
// wall-clock reads here, so tracing in this package charges spans with
// measured access-count deltas only. Stage durations are stamped by the
// network layer around the pipeline, where real time is honest.

// SetTelemetry attaches a registry. The store does not create one
// itself: the owner (kvnet server, replica, cluster) shares a single
// registry across layers so all metrics land in one namespace. Must be
// called before concurrent use begins, like the rest of Store
// configuration.
func (s *Store) SetTelemetry(reg *telemetry.Registry) { s.tel = reg }

// Telemetry returns the attached registry, nil if none.
func (s *Store) Telemetry() *telemetry.Registry { return s.tel }

// AccessCounts converts a Stats snapshot into span-attributable access
// counts: DMA round-trips over PCIe, NIC DRAM cache behaviour, and the
// dispatcher's routing split.
func (st Stats) AccessCounts() telemetry.AccessCounts {
	return telemetry.AccessCounts{
		PCIeReads:      st.Mem.Reads,
		PCIeWrites:     st.Mem.Writes,
		PCIeReadLines:  st.Mem.ReadLines,
		PCIeWriteLines: st.Mem.WriteLines,
		DRAMHits:       st.Cache.Hits,
		DRAMMisses:     st.Cache.Misses,
		DRAMLineReads:  st.Cache.DRAMLineReads,
		DRAMLineWrites: st.Cache.DRAMLineWrites,
		DispatchDirect: st.Dispatch.DirectReads + st.Dispatch.DirectWrites,
		DispatchCached: st.Dispatch.CachedReads + st.Dispatch.CachedWrites,
	}
}

// accessStats reads just the counters a traced op needs, skipping the
// table walks Stats() performs.
func (s *Store) accessStats() Stats {
	st := Stats{Mem: s.mem.Stats(), Dispatch: s.disp.Stats()}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}

// ApplyTraced executes req like Apply and charges the span with the
// hardware accesses the operation cost: the delta of the performance
// model's own counters across the call, so a span reports exactly what
// the model charged — not a re-derivation. A nil span degrades to
// Apply with no overhead beyond the nil check.
func (s *Store) ApplyTraced(req wire.Request, span *telemetry.Span) wire.Response {
	if span == nil {
		return s.Apply(req)
	}
	before := s.accessStats()
	resp := s.Apply(req)
	after := s.accessStats()
	span.AddCounts(Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts())
	return resp
}

// ApplyBatchTraced executes a batch like ApplyBatch, charging all
// accesses to span.
func (s *Store) ApplyBatchTraced(reqs []wire.Request, span *telemetry.Span) []wire.Response {
	if span == nil {
		return s.ApplyBatch(reqs)
	}
	out := make([]wire.Response, len(reqs))
	for i, r := range reqs {
		out[i] = s.ApplyTraced(r, span)
	}
	return out
}

// PublishTelemetry pushes the store's current component counters into
// the attached registry as gauges (levels of the simulation's
// cumulative counters, each well inside int64), so HTTP and wire
// scrapes see core state without reaching into the store. No-op without a registry. Callers must hold
// whatever lock serializes the store's pipeline.
func (s *Store) PublishTelemetry() {
	if s.tel == nil {
		return
	}
	st := s.Stats()
	g := s.tel.Gauges()
	g.Set("core.keys", int64(st.Keys))
	g.Set("core.payload_bytes", int64(st.PayloadBytes))
	g.Set("core.chain_buckets", int64(st.ChainBuckets))
	g.Set("core.corrupt_chains", int64(st.CorruptChains))
	g.Set("core.faults_injected", int64(st.FaultsInjected))
	g.Set("pcie.reads", int64(st.Mem.Reads))
	g.Set("pcie.writes", int64(st.Mem.Writes))
	g.Set("pcie.read_lines", int64(st.Mem.ReadLines))
	g.Set("pcie.write_lines", int64(st.Mem.WriteLines))
	g.Set("dram.hits", int64(st.Cache.Hits))
	g.Set("dram.misses", int64(st.Cache.Misses))
	g.Set("dram.fills", int64(st.Cache.Fills))
	g.Set("dram.line_reads", int64(st.Cache.DRAMLineReads))
	g.Set("dram.line_writes", int64(st.Cache.DRAMLineWrites))
	g.Set("dispatch.direct_reads", int64(st.Dispatch.DirectReads))
	g.Set("dispatch.direct_writes", int64(st.Dispatch.DirectWrites))
	g.Set("dispatch.cached_reads", int64(st.Dispatch.CachedReads))
	g.Set("dispatch.cached_writes", int64(st.Dispatch.CachedWrites))
	g.Set("ordered.keys", int64(st.Ordered.Keys))
	g.Set("ordered.node_bytes", int64(st.Ordered.NodeBytes))
	g.Set("ordered.inserts", int64(st.Ordered.Inserts))
	g.Set("ordered.deletes", int64(st.Ordered.Deletes))
	g.Set("ordered.seeks", int64(st.Ordered.Seeks))
	g.Set("ordered.visited", int64(st.Ordered.Visited))
	g.Set("ecc.corrected", int64(st.ECC.Corrected+st.Cache.EccCorrected))
	g.Set("ecc.healed", int64(st.Cache.EccHealed))
	g.Set("ecc.uncorrectable", int64(st.ECC.Uncorrectable+st.Cache.EccLost))
	g.Set("fault.retries", int64(st.Fault.Retries))
	g.Set("fault.stalls", int64(st.Fault.Stalls))
}

// telemetrySnapshot serves the wire OpTelemetry scrape: refresh the
// registry's core gauges and marshal the full snapshot. Runs inside the
// pipeline (already serialized by the network server), so no extra
// locking.
func (s *Store) telemetrySnapshot() wire.Response {
	if s.tel == nil {
		return wire.Response{Status: wire.StatusError,
			Value: []byte("telemetry not enabled")}
	}
	s.PublishTelemetry()
	data, err := json.Marshal(s.tel.Snapshot())
	if err != nil {
		return wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
	}
	return wire.Response{Status: wire.StatusOK, Value: data}
}
