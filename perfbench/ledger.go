package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
)

// ledgerTolerance bounds how far the twin replay's per-op apply time may
// stray from the live server's own server.op_latency_ns mean before the
// ledger is rejected: a factor of three either way. The live figure
// includes two timer reads and a deferred recover per op, and runs with
// client goroutines competing for the same two CPUs and caches; the
// replay runs alone on warm caches. On read-pipelined, whose ops take
// about a microsecond, that alone halves the replayed figure.
const ledgerTolerance = 3.0

// replayCost is what the layer calls cost when the traced batches are
// replayed one stage at a time: client encode, server decode, core
// apply on the twin, server encode, client decode.
type replayCost struct {
	batches, ops, scans    uint64
	encNs, decNs           int64
	applyNs, scanNs        int64
	wireAllocs, coreAllocs uint64
	reqBytes, respBytes    uint64
	untimedBatches         uint64
}

// replayChunk bounds how many batches are staged at once: large enough
// that timer and allocation-counter reads are amortised, small enough to
// stay cache-friendly.
const replayChunk = 256

func replayLedger(b bench) (replayCost, error) {
	var rc replayCost
	twin, err := b.twin()
	if err != nil {
		return rc, err
	}
	defer twin.Close()
	var chunk [][]kvdirect.Op
	var replayErr error
	flush := func() {
		if len(chunk) > 0 && replayErr == nil {
			replayErr = rc.stage(twin, chunk)
		}
		chunk = chunk[:0]
	}
	b.replay(func(ops []kvdirect.Op, timed bool) {
		if !timed {
			kvdirect.Execute(twin, ops)
			rc.untimedBatches++
			return
		}
		chunk = append(chunk, copyOps(ops))
		if len(chunk) == replayChunk {
			flush()
		}
	})
	flush()
	return rc, replayErr
}

// copyOps detaches a batch from buffers its producer reuses.
func copyOps(ops []kvdirect.Op) []kvdirect.Op {
	out := make([]kvdirect.Op, len(ops))
	for i, op := range ops {
		op.Value = append([]byte(nil), op.Value...)
		out[i] = op
	}
	return out
}

func (rc *replayCost) stage(twin *kvdirect.Store, chunk [][]kvdirect.Op) error {
	n := len(chunk)
	pkts := make([][]byte, n)
	reqs := make([][]wire.Request, n)
	resps := make([][]wire.Response, n)
	outs := make([][]byte, n)
	var err error

	a0, t0 := heapAllocs(), time.Now()
	for i, ops := range chunk {
		if pkts[i], err = kvdirect.EncodeBatch(ops); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
	}
	rc.encNs += int64(time.Since(t0))
	rc.wireAllocs += heapAllocs() - a0

	a0, t0 = heapAllocs(), time.Now()
	for i, pkt := range pkts {
		if reqs[i], err = wire.DecodeRequests(pkt); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
	}
	rc.decNs += int64(time.Since(t0))
	rc.wireAllocs += heapAllocs() - a0

	a0 = heapAllocs()
	for i, r := range reqs {
		t := time.Now()
		resps[i] = twin.ApplyBatch(r)
		ns := int64(time.Since(t))
		rc.applyNs += ns
		if r[0].Op == wire.OpScan {
			rc.scanNs += ns
			rc.scans++
		}
	}
	rc.coreAllocs += heapAllocs() - a0

	a0, t0 = heapAllocs(), time.Now()
	for i, r := range resps {
		if outs[i], err = wire.AppendResponses(nil, r); err != nil {
			return fmt.Errorf("replay encode responses: %w", err)
		}
	}
	rc.encNs += int64(time.Since(t0))
	rc.wireAllocs += heapAllocs() - a0

	a0, t0 = heapAllocs(), time.Now()
	for i, out := range outs {
		res, err := kvdirect.DecodeResults(out)
		if err != nil {
			return fmt.Errorf("replay decode responses: %w", err)
		}
		if chunk[i][0].Code == kvdirect.OpScan {
			if _, _, err := kvdirect.DecodeScanResult(res[0]); err != nil {
				return fmt.Errorf("replay decode scan page: %w", err)
			}
		}
	}
	rc.decNs += int64(time.Since(t0))
	rc.wireAllocs += heapAllocs() - a0

	for i := range chunk {
		rc.batches++
		rc.ops += uint64(len(chunk[i]))
		rc.reqBytes += uint64(len(pkts[i]))
		rc.respBytes += uint64(len(outs[i]))
	}
	return nil
}

// perLayer fills res with the per-layer metrics of the traced window tw
// (s1 → s2), the replay ledger, and the tracing overhead against the
// untraced window plain that ran just before it.
func perLayer(res *result, log io.Writer, b bench, plain, tw *window, s1, s2 snap) error {
	rc, err := replayLedger(b)
	if err != nil {
		return err
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	ops := float64(tw.ops)
	rops := float64(rc.ops)
	us := func(ns float64) float64 { return ns / 1e3 }

	// wire and core, from the replay.
	encOp := ratio(float64(rc.encNs), rops)
	decOp := ratio(float64(rc.decNs), rops)
	applyOp := ratio(float64(rc.applyNs), rops)
	set("wire.encode_ns_per_op", "ns/op", encOp)
	set("wire.decode_ns_per_op", "ns/op", decOp)
	set("wire.allocs_per_op", "allocs/op", ratio(float64(rc.wireAllocs), rops))
	set("wire.req_bytes_per_op", "B/op", ratio(float64(rc.reqBytes), rops))
	set("wire.resp_bytes_per_op", "B/op", ratio(float64(rc.respBytes), rops))
	set("core.apply_ns_per_op", "ns/op", applyOp)
	set("core.allocs_per_op", "allocs/op", ratio(float64(rc.coreAllocs), rops))
	set("core.scan_ns_per_range", "ns/range", ratio(float64(rc.scanNs), float64(rc.scans)))

	// core components, from the primary store's counters.
	d := s2.st
	p := s1.st
	mem := d.Mem.Sub(p.Mem)
	cache := d.Cache.Sub(p.Cache)
	disp := d.Dispatch.Sub(p.Dispatch)
	puts := float64(tw.kinds[wOverwrite] + tw.kinds[wCreate])
	scans := float64(tw.kinds[wScan])
	if tw.gateway { // memcache kinds: every set, CAS and incr writes
		puts = float64(tw.kinds[gSet] + tw.kinds[gCas] + tw.kinds[gIncr])
		scans = 0
	}
	seeks := float64(d.Ordered.Seeks - p.Ordered.Seeks)
	set("memory.read_lines_per_op", "lines/op", ratio(float64(mem.ReadLines), ops))
	set("memory.write_lines_per_op", "lines/op", ratio(float64(mem.WriteLines), ops))
	set("nicdram.hit_ratio", "ratio", ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)))
	set("dispatch.cached_share", "ratio", disp.CachedFraction())
	set("slab.allocs_per_op", "allocs/op", ratio(float64(d.Slab.Allocs-p.Slab.Allocs), ops))
	set("ooo.forward_ratio", "ratio", ratio(float64(d.Engine.Forwarded-p.Engine.Forwarded), float64(d.Engine.Submitted-p.Engine.Submitted)))
	// Every scan costs one seek; the rest are index upkeep for writes.
	set("ordered.seeks_per_put", "seeks/op", ratio(math.Max(0, seeks-scans), puts))
	set("ordered.visited_per_range", "nodes/range", ratio(float64(d.Ordered.Visited-p.Ordered.Visited), scans))

	// kvnet, from the timed client calls.
	callP50 := quantile(tw.calls, 0.50)
	opsPerCall := ratio(float64(tw.callOps), float64(len(tw.calls)))
	var callSum float64
	for _, c := range tw.calls {
		callSum += float64(c)
	}
	qw := histDelta(s2.tel.Histogram("repl.quorum_wait_ns"), s1.tel.Histogram("repl.quorum_wait_ns"))
	transport := callP50 - (encOp+decOp+applyOp)*opsPerCall - float64(qw.P50())
	set("kvnet.call_us_p50", "us", us(callP50))
	set("kvnet.call_us_p99", "us", us(quantile(tw.calls, 0.99)))
	set("kvnet.inflight_avg", "calls", callSum/float64(tw.elapsed))
	set("kvnet.transport_us_p50", "us", us(transport))
	set("kvnet.retries", "count", float64(s2.retries-s1.retries))
	set("kvnet.reconnects", "count", float64(s2.reconnects-s1.reconnects))
	set("kvnet.redirects", "count", float64(s2.redirects-s1.redirects))

	// kvgw, from the client round trips minus the timed backend calls.
	var gwBackendOps float64
	if tw.gateway {
		gwBackendOps = opsPerCall
	}
	set("kvgw.self_us_p50", "us", us(quantile(tw.self, 0.50)))
	set("kvgw.self_us_p99", "us", us(quantile(tw.self, 0.99)))
	set("kvgw.backend_ops_per_call", "ops/call", gwBackendOps)
	set("kvgw.temp_failures", "count", float64(tw.tempFail))

	// kvrepl, from the replicas' telemetry and store counters.
	writes := puts
	set("kvrepl.quorum_wait_us_p50", "us", us(float64(qw.P50())))
	set("kvrepl.quorum_wait_us_p99", "us", us(float64(qw.P99())))
	set("kvrepl.backup_accesses_per_write", "dma/op", ratio(s2.backupDMAs-s1.backupDMAs, writes))
	set("kvrepl.lag_max", "entries", float64(s2.lagMax))
	set("kvrepl.failovers", "count", float64(s2.failovers))

	// Tracing overhead: the closed loops lose throughput.
	overhead := 100 * (ratio(float64(plain.ops), plain.elapsed.Seconds())/ratio(ops, tw.elapsed.Seconds()) - 1)
	set("trace.overhead_pct", "%", overhead)

	// Ledger check: the replayed apply cost against the live server's own
	// per-op histogram, where the server keeps one.
	opLat := histDelta(s2.tel.Histogram("server.op_latency_ns"), s1.tel.Histogram("server.op_latency_ns"))
	coreRatio := 0.0
	if opLat.Count > 0 {
		coreRatio = applyOp / opLat.Mean()
	}

	fmt.Fprintf(log, "# ledger (replayed %d traced batches after %d untimed catch-up batches)\n", rc.batches, rc.untimedBatches)
	e2e := quantile(tw.lat, 0.5)
	fmt.Fprintf(log, "#   end-to-end p50 %10.2f us per request\n", us(e2e))
	if tw.gateway {
		fmt.Fprintf(log, "#   kvgw self      %10.2f us  (p50 of round trip minus backend calls)\n", us(quantile(tw.self, 0.5)))
	}
	fmt.Fprintf(log, "#   kvnet call     %10.2f us  p50, %.1f ops/call\n", us(callP50), opsPerCall)
	fmt.Fprintf(log, "#     transport    %10.2f us  (residual)\n", us(transport))
	fmt.Fprintf(log, "#     wire codec   %10.2f us  (%.0f + %.0f ns/op encode + decode)\n", us((encOp+decOp)*opsPerCall), encOp, decOp)
	fmt.Fprintf(log, "#     core apply   %10.2f us  (%.0f ns/op)\n", us(applyOp*opsPerCall), applyOp)
	if qw.Count > 0 {
		fmt.Fprintf(log, "#     kvrepl quorum%10.2f us  p50\n", us(float64(qw.P50())))
	}
	var fails []string
	if transport < 0 {
		fails = append(fails, fmt.Sprintf("transport residual %.2f us is negative", us(transport)))
	}
	if opLat.Count > 0 {
		fmt.Fprintf(log, "#   core check: replay %.0f ns/op vs server.op_latency_ns mean %.0f ns/op (ratio %.2f, tolerance x%.0f)\n",
			applyOp, opLat.Mean(), coreRatio, ledgerTolerance)
		if coreRatio > ledgerTolerance || coreRatio < 1/ledgerTolerance {
			fails = append(fails, fmt.Sprintf("replayed apply %.0f ns/op disagrees with server.op_latency_ns %.0f ns/op", applyOp, opLat.Mean()))
		}
	} else {
		fmt.Fprintln(log, "#   core check: the backend keeps no server.op_latency_ns histogram; residual check only")
	}
	fmt.Fprintf(log, "#   tracing overhead %.1f%%\n", overhead)
	for _, f := range fails {
		fmt.Fprintln(log, "# ledger check failed:", f)
	}
	if len(fails) == 0 {
		fmt.Fprintln(log, "# ledger check passed")
	}
	return nil
}
