GO ?= go

.PHONY: check lint vet fmt build test race fuzz reach bench bench-baseline bench-check coverage integration

# The full verification gate: lint (gofmt + vet + staticcheck when
# installed), build, the plain test suite, and the race-detector pass (which
# includes the concurrency stress tests in internal/qcow and internal/rblock;
# five tests that once flaked or race a fill, a vectored read or a sendfile
# reply, four that race the dedup materializer — one of them against the
# unlink of the resident cache it copies from — and two that race guest
# copy-on-write commits against readers and Close, run 20 times more). CI's
# race and fuzz jobs run `make race` and `make fuzz`: their lists live here.
check: lint build test race

# lint fails on unformatted files and vet findings; staticcheck runs when the
# binary is on PATH (CI installs it; local runs without it still gate on
# gofmt + vet).
lint: vet fmt
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count 20 -run 'TestCopyWindowsFailureStops|TestTableSetsUnderChurn|TestFillSpansRacingReaders|TestReadBatchRacing|TestReadVSendfile|TestMaterializeRetiredPack|TestMaterializeStreamed|TestDedupPipelineStress|TestDeltaWarmResidentUnlinked|TestConcurrentOverwriteRead|TestWriteAtRacesClose' ./internal/backend/ ./internal/cachemgr/ ./internal/dedup/ ./internal/qcow/ ./internal/rblock/

# fuzz gives each native fuzz target FUZZTIME on top of its seed corpus (which
# `make test` already replays): the decoders a crash (pack records), a peer
# (chunk manifests, blob frames, OpChunkBatch replies and OpMap chunk maps),
# any container (qcow headers) or any client (OpReadV payloads, whole request
# frames) can feed arbitrary bytes. One target per invocation is a `go test -fuzz` rule.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPackScan -fuzztime $(FUZZTIME) ./internal/dedup
	$(GO) test -run '^$$' -fuzz FuzzDecodeManifest -fuzztime $(FUZZTIME) ./internal/dedup
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlob -fuzztime $(FUZZTIME) ./internal/dedup
	$(GO) test -run '^$$' -fuzz FuzzHeader -fuzztime $(FUZZTIME) ./internal/qcow
	$(GO) test -run '^$$' -fuzz FuzzReadV -fuzztime $(FUZZTIME) ./internal/rblock
	$(GO) test -run '^$$' -fuzz FuzzServerOp -fuzztime $(FUZZTIME) ./internal/rblock
	$(GO) test -run '^$$' -fuzz FuzzChunkBatch -fuzztime $(FUZZTIME) ./internal/rblock
	$(GO) test -run '^$$' -fuzz FuzzDecodeMap -fuzztime $(FUZZTIME) ./internal/swarm

# integration launches real rblockd + vmicached processes on loopback ports
# and drives a multi-node provisioning round end to end (cold warm with
# dedup publication, manifest-first delta warm, restart persistence, and a
# raw rblock manifest/chunk fetch), and checks that rblockd refuses a
# writable open and a name outside its export over the wire. No docker, no fixed ports: every daemon
# binds 127.0.0.1:0 and the test parses the bound address it prints.
integration:
	$(GO) test -tags integration -timeout 300s -count 1 ./integration/

# reach fails on any non-test function that no binary reaches: it builds
# every cmd/*, every examples/* and bench/e2e with the linker's dependency
# dump and compares what the linker kept with every function declared
# (reach_test.go, behind the reach build tag; its allowlist gives a reason
# for each exception).
reach:
	$(GO) test -tags reach -run TestReach -count 1 .

bench:
	$(GO) test -run xxx -bench . -benchtime 0.5s .

# bench-baseline regenerates the committed CI baseline from the data-path
# microbenchmarks plus the profile prewarm pipeline, swarm flash-crowd and
# dedup pipeline (manifest build, materialize, delta transfer) benchmarks. The 'WarmRead' pattern also matches the
# batched data-path benchmarks (LargeWarmRead, ContendedWarmRead) and pread
# vs the table set's mapping (WarmReadMmap); 'Translate512' is a 64 KiB and
# a 1 MiB warm read over 512 B clusters through a set-mapped image (the
# translate loop + mapped copy of warm_boot); 'ServerRead' covers the 4K round trip,
# the large vectored transfers, the sendfile-vs-copy matrix
# (ServerReadZeroCopy), and the 64-way contended serve (ContendedServerRead);
# 'NBDReplay' is internal/nbd's boot replay, direct vs through loopback NBD
# (the microbenchmark behind bench/e2e's nbd_boot); 'WarmAttach' is
# internal/cachemgr's Boot → profile replay → Close on a warm node over
# loopback rblock (the one behind warm_boot: allocs, L2 tables decoded and
# storage-node requests per op; WarmAttachPair runs two sessions per op, as
# warm_boot's two clients do); 'PeerPull' is internal/cachemgr's fresh
# node pulling a centos-warmed cache wholesale from a peer Manager, then
# Boot → Close (the one behind peer_warm: allocs and bytes per op).
# -cpu 4 pins GOMAXPROCS so benchmark names (and the stripped-suffix keys
# benchjson compares on) are machine-independent. -benchtime 2s does not
# keep run-to-run noise under the gates on a 2-core host: there single rows
# have read 20-125% over this baseline on code a change did not touch, the
# parent commit included (DedupManifestBuildSerial ns/op, ContendedWarmRead
# p99; see the FOUND lines in CHANGES.md). After refreshing, commit the new
# BENCH_pr10.json and keep ci.yml's -baseline flags pointing at it.
bench-baseline:
	( $(GO) test -run xxx \
		-bench 'WarmRead|Translate512|ColdFill|RoundTrip|PipelinedRead|SequentialColdRead|ServerRead|^BenchmarkCheck$$|NBDReplay|WarmAttach|PeerPull' \
		-benchmem -benchtime 2s -cpu 4 ./internal/qcow/ ./internal/rblock/ ./internal/nbd/ ./internal/cachemgr/ ; \
	  $(GO) test -run xxx \
		-bench 'ProfileWarm|SwarmFlashCrowd|DedupManifestBuild|DedupMaterialize|DedupDeltaTransfer' \
		-benchmem -benchtime 2s -cpu 4 . ) \
		| $(GO) run ./cmd/benchjson -out BENCH_pr10.json

# bench-check vets, builds and tests the bench/ module, which the root ./...
# skips (it is a module of its own): its test is bench/e2e's quick pass.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

coverage:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
