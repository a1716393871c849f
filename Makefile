GO ?= go

.PHONY: all build test fmt race race-plc race-faults smoke-faults smoke-metrics smoke-chaos race-chaos smoke-survival race-survival smoke-fleet race-fleet smoke-gateway race-gateway smoke-wan race-wan smoke-bitrot race-bitrot vet vet-storage test-benchmark check bench bench-json bench-scaling perf-diff experiments clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also vets the benchmark module, which has its own go.mod, so the
# root vet never reaches it.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

# fmt fails when any Go file in the tree is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

race:
	$(GO) test -race ./...

# race-plc runs the PLC register file and everything that shares it across
# goroutines — the Modbus server's view of the scan images, the simulated
# plant's scan cycle, and the insure-plcd panel — under the race detector,
# then the managers' full days over the fieldbus, which race the control
# pass's image invalidation and block coil writes against the panel server.
race-plc:
	$(GO) test -race -count=1 ./internal/plc ./internal/modbus ./internal/sim ./cmd/insure-plcd
	$(GO) test -race -count=1 -run 'Fieldbus' ./internal/core ./internal/baseline

# race-faults runs just the concurrency-heavy fault-injection and fieldbus
# suites under the race detector (dropped connections, retry/backoff, and
# server drains all cross goroutines).
race-faults:
	$(GO) test -race -count=1 ./internal/faults ./internal/modbus

# smoke-faults runs one simulated day with a battery unit and a discharge
# relay faulted mid-day and fails if the plant loses availability.
smoke-faults:
	$(GO) test -race -count=1 -run 'TestBatteryFailureIsQuarantinedMidday|TestStuckOpenRelayIsQuarantined' ./internal/core

# smoke-metrics boots the daemons' telemetry plane in-process and runs the
# scrape through the strict Prometheus exposition parser: plcd's /metrics
# and /healthz wiring, the registry's own tests (collect hooks, and a
# health check replaced by name), the zero-alloc instrumented-tick guard,
# a serving site's exposition golden and the gateway's /stats mirror, and,
# under the race detector, scrapes while the gateway daemon, an insure-sim
# -telemetry-addr day and a re-attached plant tick, and insure-fleetd's
# /healthz answering at one address across a watchdog rebuild.
smoke-metrics:
	$(GO) test -race -count=1 -run 'TestPanelMetricsEndpoint|TestPanelHealthz' ./cmd/insure-plcd
	$(GO) test -race -count=1 ./internal/telemetry/...
	$(GO) test -count=1 -run 'TestTickWithTelemetryAllocFree' ./internal/sim
	$(GO) test -count=1 -run 'TestServingExpositionGolden|TestStatsEndpointAndTelemetry' ./internal/gateway
	$(GO) test -race -count=1 -run 'TestScrapeWhileTicking|TestLiveTelemetryDayRun|TestReattachReadsNewestPlant|TestFleetdTelemetrySurvivesWatchdogRebuild' ./cmd/insure-gateway ./cmd/insure-sim ./internal/sim ./cmd/insure-fleetd

# smoke-chaos runs the quick seeded crash campaign: controller kills (clean
# and torn-tail) plus plant faults against the journal/recovery path, with
# every per-tick safety invariant checked. A failing campaign prints its
# seed; rerun it with `go test -run TestCampaign ./internal/chaos -v`.
smoke-chaos:
	$(GO) test -count=1 -run 'TestCampaignSmoke' -v ./internal/chaos

# race-chaos runs the full fieldbus campaign — 200+ seeded events including
# Modbus partitions through the flaky proxy, then a bit-identical replay —
# under the race detector.
race-chaos:
	$(GO) test -race -count=1 -run 'TestCampaignFieldbusAndReplay|TestProxyConcurrentClientsUnderChaos' ./internal/chaos ./internal/faults

# smoke-survival runs the quick survivability gates: ladder legality, a
# single storm day of orderly degradation, the survival state round trip,
# and the exposition contract for every emergency telemetry series.
smoke-survival:
	$(GO) test -count=1 -run 'TestLadderAdjacency|TestSurvivalStormDayOrderlyDegradation|TestSurvivalStateRoundTripContinuation' ./internal/core
	$(GO) test -count=1 -run 'TestSurvivalSeriesExposition|TestTickWithSurvivalAllocBound' ./internal/sim

# race-survival runs the full three-day storm campaign — surge faults, genset
# dispatch, the baseline damage comparison, and the mid-emergency kill with
# bit-identical recovery — under the race detector. A failing storm prints
# its seed; rerun with `go test -run TestStorm ./internal/chaos -v`.
race-survival:
	$(GO) test -race -count=1 -run 'TestStorm' -v ./internal/chaos

# smoke-fleet runs the quick federation gates: a deterministic 2-site storm
# handoff through the insure-sim entry point (seeded, so the line below is
# reproducible), plus the coordinator's byte-identity and
# migration-toward-surplus tests.
smoke-fleet:
	$(GO) run ./cmd/insure-sim -fleet 2 -storm-days 2 -storm-site 0 -migrate
	$(GO) test -count=1 -run 'TestCoordinatorDisabledMatchesSoloRuns|TestCoordinatorMigratesTowardSurplus' ./internal/fleet

# race-fleet runs the full federation suite — coordinator migration, log
# recovery, site-loss disposability, the heterogeneous kill/resume replay,
# and the multi-day site-loss campaign — under the race detector. A failing
# campaign prints its seed; rerun with `go test -run TestSiteLoss
# ./internal/chaos -v`.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=1 -run 'TestSiteLoss' -v ./internal/chaos

# smoke-gateway runs the serving-plane gates: admission/ladder/deadline
# unit tests, the allocation-free steady-state Offer/Advance churn, the
# exactness of the memoized admission reads (MeanSoC over a faulted day and
# a fieldbus image, the forecast's cached discount, the retry-after hint
# across a tick before Advance, a restoring Walk and a SolarNow moved with
# no scan, and every State answer and forecast hint of the two-day
# admission golden), plus a single-site load replay through the
# insure-gateway entry point (seeded; exits nonzero on any
# admitted-then-dropped request).
smoke-gateway:
	$(GO) test -count=1 -run 'TestLadderSheddingByClass|TestRetriageOnMidFlightDowngrade|TestModeChurnNeverDropsAdmitted|TestLoadTestSmoke|TestOfferAdvanceAllocFree|TestOfferOutcomesGolden|TestRetryMemoExact|TestMeanSoCMemoExact|TestConservativePredictCacheExact' ./internal/gateway ./internal/core ./internal/forecast
	$(GO) run ./cmd/insure-gateway -loadtest -loadtest-sites 1 -loadtest-qps 5

# race-gateway runs the full gateway suite — concurrent admits against a
# ticking simulated plant, HTTP handlers, and the load harness — under
# the race detector, plus the insure-gateway daemon, whose lockedPlant
# serializes admission reads against the tick loop, and the sensor
# channels, whose Value writes its decode cache on those reads. Those
# reads write two more caches: the manager's MeanSoC memo and the
# forecast estimator's cached discount (and, with no estimator,
# ForecastGen's last-seen SolarNow). The third memo on the admission path,
# the gateway's retry-after hint, is written under the gateway's lock.
race-gateway:
	$(GO) test -race -count=1 ./internal/gateway ./cmd/insure-gateway ./internal/sensor

# smoke-wan runs the quick degraded-backhaul gates: the seeded link model
# itself, the WAN-attached observer's byte-identity to solo runs, and
# exactly-once shipping across a 30%-drop link.
smoke-wan:
	$(GO) test -count=1 ./internal/wan
	$(GO) test -count=1 -run 'TestWANObserverMatchesSoloRuns|TestWANMigrationExactlyOnceUnderLoss|TestWANStormObserverIsByteIdentical' ./internal/fleet ./internal/chaos

# race-wan runs the full degraded-WAN storm campaign — partitions, chunk
# loss, reroutes, heals, and the same-seed rerun-twice bit-identity check —
# plus the fleetd kill/resume drills, all under the race detector. A failing
# campaign prints its seed; rerun with `go test -run TestWANStorm
# ./internal/chaos -v`.
race-wan:
	$(GO) test -race -count=1 -run 'TestWANStorm' -v ./internal/chaos
	$(GO) test -race -count=1 ./cmd/insure-fleetd

# smoke-bitrot runs the quick self-healing storage gates: the seeded
# disk-fault filesystem's own suite, the mirrored-journal and scrubber
# tests under the race detector (the journal fsyncs its two copies at
# once), and the clean-disk harness pin of the bit-rot storm. A failing
# storm prints its seed; rerun with `go test -run TestBitrotStorm
# ./internal/chaos -v`.
smoke-bitrot:
	$(GO) test -count=1 ./internal/diskfault
	$(GO) test -race -count=1 ./internal/journal
	$(GO) test -count=1 -run 'TestBitrotStormCleanDiskIsQuiet' -v ./internal/chaos

# race-bitrot runs the full three-day bit-rot storm — torn writes, failed
# fsyncs, sick-disk windows, at-rest decay under both the state journal
# and the fleet's migration log and checkpoint images, plus the same-seed
# bit-identity rerun — under the race detector.
race-bitrot:
	$(GO) test -race -count=1 -run 'TestBitrotStorm' -v ./internal/chaos

# vet-storage is the storage-integrity vet step: it rejects any bare
# statement-level Sync()/Close() call in the durability packages, in the
# control plane that commits to and restarts from its state journal, in
# the two daemons that open journal stores, and in the chaos campaigns and
# insure-sim, which drive journaled controllers, where a silently
# discarded fsync verdict would fake durability (see
# internal/tools/synccheck).
vet-storage:
	$(GO) run ./internal/tools/synccheck ./internal/journal ./internal/fleet ./internal/core ./cmd/insure-plcd ./cmd/insure-fleetd ./internal/chaos ./cmd/insure-sim

# test-benchmark runs the benchmark module's own tests: BENCHMARK.json's
# workload and metric names must match the code, and repeated reps of each
# workload must agree on their checked output. The module has its own
# go.mod, so the root test run never reaches it.
test-benchmark:
	$(GO) -C benchmark test ./...

# bench-scaling measures the plant-years/sec workers-scaling curve on a
# short campaign, three alternating runs per worker count, and enforces the
# speedup gate: with GOMAXPROCS N >= 2, the median speedup at N workers
# must reach 0.7*N or the target fails. With GOMAXPROCS 1 the gate is
# reported as skipped (it cannot pass vacuously).
bench-scaling:
	$(GO) run ./cmd/insure-bench -scaling -gate -scaling-cells 8

# check is the CI gate: formatting, static analysis, a clean build, the full
# test suite once without the race detector (the only run of the
# RunAllParallel == RunAll pin, which skips itself under -race) and once
# under it (the parallel experiment engine and campaign runner are
# exercised concurrently there), the PLC register file's concurrent
# fieldbus view under the race detector, the injected-fault smoke
# simulation, the telemetry-plane smoke test, the crash-recovery chaos
# campaigns, the energy-emergency survivability gates, the fleet-federation
# gates, the serving-plane gates, the degraded-WAN gates, the self-healing
# storage gates, the benchmark module's own tests, and the multicore scaling
# gate.
check: fmt vet vet-storage build test race race-plc race-faults smoke-faults smoke-metrics smoke-chaos race-chaos smoke-survival race-survival smoke-fleet race-fleet smoke-gateway race-gateway smoke-wan race-wan smoke-bitrot race-bitrot test-benchmark bench-scaling

# bench runs the simulation hot-path and experiment benchmarks.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSystemTick|BenchmarkFullDaySimulation|BenchmarkBattery' -benchmem .

# bench-json writes the machine-readable performance report.
bench-json:
	$(GO) run ./cmd/insure-bench -bench-json BENCH.json

# perf-diff times the five hot-path benchmarks (system_tick, plc_scan,
# gateway_offer, journal_commit, full_day_insure) in process and compares
# them against the committed BENCH.json. It fails only when a benchmark the
# committed report records at 0 allocs/op (system_tick, plc_scan,
# gateway_offer, journal_commit) allocates; ns/op deltas are printed but not
# judged, since one run against one run on a drifting host decides nothing.
# journal_commit fsyncs a store in a directory under the working directory
# and removes it afterwards.
perf-diff:
	$(GO) run ./cmd/insure-bench -perf-diff BENCH.json

# experiments regenerates every table/figure of the paper on the parallel
# engine (byte-identical to the serial engine).
experiments:
	$(GO) run ./cmd/insure-bench -exp all

# clean removes what building, testing and benchmarking leave behind, the
# untracked outputs .gitignore lists. It keeps BENCH.json, the committed
# baseline perf-diff compares against.
clean:
	rm -rf .bench_build .journal-commit-*
	rm -f insure-* benchmark/benchmark
	find . -name '*.test' -type f -not -path './.git/*' -delete
