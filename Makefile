GO ?= go

.PHONY: build vet lint lint-fix test race chaos chaos-migrate chaos-scan bench bench-build bench-scan bench-gateway gateway telemetry profile check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific invariants: counted memory access, deterministic model
# code, registry-valid fault points, atomic counter discipline, no
# dropped status/error results, lock ordering, hot-path allocation
# budgets, and goroutine tie-downs. See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/kvdlint ./...

# Apply the mechanical fixes kvdlint suggests (e.g. clock-derived rand
# seeds rewritten to constants), then report what remains.
lint-fix:
	$(GO) run ./cmd/kvdlint -fix ./...

test: build
	$(GO) test ./...

# The full suite under the race detector, chaos harness included.
race: vet
	$(GO) test -race ./...

# Just the chaos/resilience suite (fault injection across every layer,
# replication failover included).
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestServerSurvives|TestClientRe|TestNonIdempotent|TestNoReconnect|TestWriteDeadline|TestServerPanic' ./kvnet/
	$(GO) test -race -count=2 -v -run 'TestFailover|TestPartitioned|TestDropEntry|TestSnapshotCatchup' ./kvrepl/

# Migration chaos: kill the source primary, the destination, and the
# coordinator mid-migration; assert zero acked-write loss and route
# convergence. -count=2 shakes out ordering-dependent flakes.
chaos-migrate:
	$(GO) test -race -count=2 -v -run 'TestChaosMigration' ./kvnet/
	$(GO) test -race -count=2 -v -run 'TestMigrate|TestAddReplica|TestRemoveReplica|TestBackupWindowEviction|TestDoubleLeaseExpiry|TestAdopt' ./kvrepl/

# Scan chaos: the ordered-scan differential property test run through
# the sharded networked client under fault injection (scans must keep
# their ordering/phantom/cursor contract across redirects and retries).
chaos-scan:
	$(GO) test -race -count=1 -v -run 'TestScanDifferential' ./internal/core/
	$(GO) test -race -count=2 -v -run 'TestScanDifferentialSharded|TestChaosScan|TestYCSBEEndToEnd' ./kvnet/
	$(GO) test -race -count=1 -v -run 'TestScanRoutesToPrimary' ./kvrepl/

bench:
	$(GO) test -bench=BenchmarkStorePutGet -benchmem -count=5 -run '^$$' ./internal/core/

# Compile and vet the repo benchmark. perfbench/ is its own Go module
# (see BENCHMARK.json), so the root ./... never builds it; this catches
# an API change that would break the benchmark.
bench-build:
	cd perfbench && $(GO) vet ./...

# Ordered-scan throughput (50-entry ranges, direct and over the wire),
# merged into BENCH_results.json.
bench-scan:
	$(GO) run ./cmd/kvdbench -json bench scan

# Memcache-gateway translation cost (single ops and the quiet-pipelined
# batch path), merged into BENCH_results.json.
bench-gateway:
	$(GO) run ./cmd/kvdbench -json bench gateway

# The whole protocol-gateway suite under the race detector: codecs and
# fuzz seeds, tenant registry/quotas, stock-framing round trips, the
# memcache-vs-native differential, isolation and replica failover.
gateway:
	$(GO) test -race -count=1 ./kvgw/

# Telemetry smoke: the unit suite plus the overhead guards — the
# disabled-sampling and trace-off hot paths must stay at 0 allocs/op,
# and the flight recorder's Record must too (see DESIGN.md
# "Observability").
telemetry:
	$(GO) test ./internal/telemetry/
	$(GO) test -bench='BenchmarkTelemetryOff|BenchmarkTraceOff|BenchmarkFlightRecorderOn' -benchmem -run '^$$' ./internal/telemetry/

# CPU + heap profiles of a quick kvdbench run (satellite of the tracing
# PR): cpu.pprof / heap.pprof land in the repo root for
# `go tool pprof`.
profile:
	$(GO) run ./cmd/kvdbench -quick -cpuprofile cpu.pprof -memprofile heap.pprof fig11

# What CI runs.
check: vet lint bench-build
	$(GO) test -race ./...
