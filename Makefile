# NetAgg reproduction — build/verify entry points. Stdlib-only Go module;
# no tool downloads, so every target works offline.

GO ?= go

.PHONY: build test fmt-check lint vet race fuzz-smoke verify profile bench-smoke bufpool-debug recovery-stress protocol-check bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# netagg-lint: repo-specific analyzers (determinism, docrule,
# lockdiscipline, errcheck-wire, goroutine-hygiene, lockorder, ctxflow,
# exhaustive). Exit 1 on findings; suppress audited
# false positives with //lint:ignore <analyzer> <reason>, the one
# suppression every analyzer takes. Stale suppressions — directives
# matching nothing — are findings too (DESIGN.md §17).
lint:
	$(GO) run ./cmd/netagg-lint ./...

vet:
	$(GO) vet ./...

# gofmt is a gate: a file it would rewrite fails the target. The analyzer
# fixtures under internal/lint/testdata are inputs, not code, and exempt.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Fuzzers of everything that parses bytes from the network, bounded for
# CI: the wire codec, the k-way KV, docs and items merges, which read
# partial results without decoding them, and the search backend's query
# decoder. Each target runs its seeds (f.Add, and the checked-in corpus
# under internal/{wire,agg}/testdata/fuzz) plus 10s of mutation.
# Local deep runs: `go test ./internal/wire -fuzz FuzzDecodeFrame -fuzztime=5m`.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime=10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzEncodeDecode$$' -fuzztime=10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeFanout$$' -fuzztime=10s
	$(GO) test ./internal/agg -run '^$$' -fuzz '^FuzzKVMerge$$' -fuzztime=10s
	$(GO) test ./internal/agg -run '^$$' -fuzz '^FuzzDocsMerge$$' -fuzztime=10s
	$(GO) test ./internal/agg -run '^$$' -fuzz '^FuzzConcatMerge$$' -fuzztime=10s
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzDecodeQuery$$' -fuzztime=10s

# The buffer-ownership contract is checked at run time (DESIGN.md §13):
# besides the double-release panic and the tests' pool balances, the
# netaggdebug build tag poisons released buffers (0xDB) and verifies the
# poison on reuse, turning use-after-release into a deterministic panic
# or poisoned bytes instead of silent corruption. The same tag arms wire.CheckReceive, the dynamic half of
# the protocol table (DESIGN.md §17), so the suite also covers the
# packages with annotated frame handlers, internal/search, whose
# frontend reads a Result's pooled parts and gives them back, and the two
# packages whose tests say "also under netaggdebug": internal/testbed (the
# exactly-once migration, the over-1-MiB emit, the refusals) and
# internal/mapred. Run under -race so the checker also orders the accesses.
bufpool-debug:
	$(GO) test -tags netaggdebug -race ./internal/bufpool ./internal/transport \
		./internal/wire ./internal/core ./internal/shim ./internal/cluster \
		./internal/search ./internal/testbed ./internal/mapred

# The recovery tests (DESIGN.md §15, §16) under -race, twenty runs each:
# a connection cut with frames unread, a server or box restarted on its
# own address, a stream with a gap, a lost connection to a box a request
# has left, a write wedged on a peer that stopped reading, which the
# cancelled context of NewConn must free; and the box's request state under its one lock: the idle
# load signal's decay, a crashing application's quarantine, a panic in
# the local tree, and the tree's batches and back-pressure by bytes; and
# the control loop: each box's prober — heartbeat, failover, congestion
# scoring — against Master.Supersede. They race real sockets and merge tasks against goroutines, so an
# interleaving that breaks them shows only across repeated runs.
recovery-stress:
	$(GO) test -race -count=20 ./internal/transport \
		-run '^(TestServerRestartResendAppliedOnce|TestQueuedFramesAppliedOnceAfterReconnect|TestOnLostOnlyForConnectionsThatWrote|TestOnLostRunsOffTheFlusher|TestCancelReleasesAWedgedWrite)$$'
	$(GO) test -race -count=20 ./internal/core \
		-run '^(TestBoxTakesEachSourceInOrder|TestIdleBoxFlushLatencyDecays|TestBoxQuarantinesCrashingApp|TestBoxQuarantineThreshold|TestLocalTreeMergePanicFailsRequest|TestLocalTreeMergesEachByteOnce|TestLocalTreeHoldsBoundedBytes)$$'
	$(GO) test -race -count=20 ./internal/shim \
		-run '^(TestUnreadFramesPastAnyWindowAreResent|TestBoxRestartRecoversWithoutNewAttempt|TestBoxOutboundHopStaysWithStragglerTimer|TestLostConnectionToAbandonedBoxResendsNothing|TestReannounceSendsTheArmedCounts|TestLostConnectionAfterReuseResendsTheNewRequest)$$'
	$(GO) test -race -count=20 ./internal/cluster -run '^TestMonitor'
	$(GO) test -race -count=20 ./internal/testbed \
		-run '^(TestControlLoopRecoversFromBoxFailure|TestControlLoopQuietFleet)$$'

# Protocol drift gate (DESIGN.md §17): the matrix embedded in DESIGN.md
# must be exactly what internal/wire/protocol.go renders, and the lint
# framework must survive its own analyzers (self-lint). Whether each
# role's handler follows the table is tier-1's business: the protocol
# tests in core, shim and cluster deliver every frame to a real endpoint.
protocol-check:
	$(GO) run ./cmd/protogen -check
	$(GO) run ./cmd/netagg-lint ./internal/lint

# The fabric benchmark's own vet, unit tests and smoke run of all four
# workloads (~9 s). benchmark/ is a nested module (netagg/benchmark,
# `replace netagg => ../`) that the root ./... patterns above never see,
# so without this target an internal/ API change breaks it silently. It
# is a `cd`, not a module merge, because merging would move or edit files
# under benchmark/, and no file there may change in a PR that is not a
# benchmark PR (BENCHMARK.json `paths`).
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The tier-1 gate: everything CI and pre-commit should run. The plain
# suite runs beside the race suite for the hot paths' allocation tests
# (DESIGN.md §12): under -race sync.Pool drops a share of its Puts, so
# bufpool's and wire's are built without it.
verify: build fmt-check vet lint protocol-check bench-check test race

# Flamegraph entry point for the next perf PR: profile the full-scale Fig 6
# regeneration (the allocator-bound path). Inspect with
# `go tool pprof -http=: cpu.prof`.
profile:
	$(GO) run ./cmd/netagg-sim -scale full -cpuprofile cpu.prof -memprofile mem.prof fig06

# CI bench smoke: micro-benchmarks (small, seconds) recorded as
# benchstat-compatible artifacts — each BENCH_*.json holds raw Go
# benchmark text (the input format benchstat consumes); the fixed names
# are the CI artifact convention. Compare two commits with
# `benchstat old/BENCH_simnet.json new/BENCH_simnet.json`.
#
# All six artifacts are checked in and all six are guarded by the one
# rule below: the fresh run lands in a .new file, benchguard fails the
# target if any benchmark's B/op grew >25% (or its fastest ns/op >50%)
# over the checked-in artifact — or if there is no checked-in artifact —
# and only a passing run replaces it, so regressions break CI instead of
# silently re-baselining (the BenchmarkTransportEcho 1488 B/op drift,
# CHANGES.md). A new artifact's first run is checked in by hand.
# BENCH_agg.json is the box's merge path: the k-way KV merge, one
# search_topk job's top-k merge and a sort_concat job's items merge at its
# three shapes alone (0 allocs/op at every one), and a whole mapred_kv and
# a whole sort_concat job through a local tree.
#
#                  package               -bench                                   -benchtime
bench_simnet    = ./internal/simnet     BenchmarkAllocate                        200x
bench_bufpool   = ./internal/bufpool    BenchmarkBufpool                         200x
bench_transport = ./internal/transport  BenchmarkTransport                       2000x
bench_agg       = ./internal/core       'Benchmark(KV|TopK|Concat)Merge|BenchmarkLocalTree(KV|Concat)'  100x
bench_treeplan  = ./internal/treeplan   BenchmarkPlan                            200x
bench_replan    = ./internal/strategies BenchmarkReplan                          20x

bench-smoke: bench-smoke-simnet bench-smoke-bufpool bench-smoke-transport \
	bench-smoke-agg bench-smoke-treeplan bench-smoke-replan

bench-smoke-%:
	$(GO) test $(word 1,$(bench_$*)) -run '^$$' -bench $(word 2,$(bench_$*)) \
		-benchmem -benchtime $(word 3,$(bench_$*)) -count 5 | tee BENCH_$*.json.new
	$(GO) run ./cmd/benchguard -baseline BENCH_$*.json BENCH_$*.json.new
	mv BENCH_$*.json.new BENCH_$*.json
