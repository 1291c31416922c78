# Tier-1 verify is `make verify` (fmt-check + build + vet + lint + test +
# race-checked crypto, pbft, and wal — the pooled/cached fast paths and the
# durability layer are the concurrency-sensitive code — plus race-checked
# tcpnet and the loopback-TCP scenario suite, whose writer goroutines are
# the transport's concurrency surface). `make lint` runs the protocol-
# invariant analyzer suite (internal/analysis via cmd/ringbft-vet);
# `make docs-check` keeps the docs honest against the binaries' flag
# surfaces and this Makefile's targets (scripts/docs-check.sh);
# `make race-all` puts the whole module under the race detector. The full test suite includes the
# chaos matrix (internal/chaos): 41 seeded nemesis scenarios across
# ringbft/ahl/sharper (incl. the pipelined-window frontier rows);
# `make chaos` runs just that matrix verbosely and
# `make chaos-soak` explores fresh seeds for SOAK_BUDGET (nightly CI).
#
# The benchmark trajectory lives in one repo-root document, BENCH_PR8.json:
# flat {name, unit, value, commit} entries merging the open-loop latency
# sweep (`make bench-openloop`, run at pipeline depths 1 and 8 so the
# saturation-knee comparison is part of the document) with the
# per-package micro-benchmark baselines. `make bench-consolidate` regenerates it; `make bench-check`
# validates its schema (what CI gates on — the numbers are host-dependent).
# `make bench` still runs the raw micro-benchmarks, with `bench-crypto`,
# `bench-wal`, and `bench-tcpnet` as focused subsets.
#
# `make metrics-smoke` boots a loopback-TCP cluster and asserts the
# /metrics exposition carries live series from every instrumented layer.

GO ?= go
SOAK_BUDGET ?= 10m
OPENLOOP_RATES ?= 800,1600,2400
OPENLOOP_DURATION ?= 2s
# Client requests are deliberately smaller than the consensus batch so the
# open-loop sweep exercises the adaptive batcher (requests merge toward
# BatchSize under load) and the pipeline depth actually binds.
OPENLOOP_CLIENTBATCH ?= 10

.PHONY: build test vet lint lint-fixtures fmt-check docs-check bench bench-crypto bench-wal bench-tcpnet bench-openloop bench-consolidate bench-check metrics-smoke race-crypto race-net race-all chaos chaos-soak chaos-wallclock verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Protocol-invariant analyzers (internal/analysis, driven by ringbft-vet):
# mapiter, verifyfirst, locksend, wallclock, kindswitch, codecbounds,
# lockorder. Exits non-zero on any unsuppressed finding, malformed
# //ringbft:ignore directive, or stale directive (one that no longer
# silences anything); honoured suppressions are printed as a ledger with
# their reasons.
lint:
	$(GO) run ./cmd/ringbft-vet ./...

# The analyzers' own regression suite: every rule's testdata/src/<rule>/
# fixtures (a/ shape-pinning, regress/ reproducing the original bug, the
# precise/ dominance cases) checked against their // want expectations.
lint-fixtures:
	$(GO) test ./internal/analysis/ -run 'TestFixtures|TestSuiteShape'

# gofmt must be a no-op over the whole tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The docs must track the code: documented flags exist, ringbft-node's
# knob surface is documented, referenced make targets exist, and
# ARCHITECTURE.md is present and linked from the README.
docs-check:
	sh scripts/docs-check.sh

bench:
	$(GO) test -run XXX -bench . -benchtime 300ms ./internal/sched/ ./internal/store/
	$(GO) test -run XXX -bench . -benchtime 200ms ./internal/pbft/ ./internal/crypto/ ./internal/ledger/ ./internal/workload/ ./internal/wal/ ./internal/tcpnet/

bench-crypto:
	$(GO) test -run XXX -bench 'BenchmarkMAC|BenchmarkAppendMAC|BenchmarkVerifyMAC|BenchmarkSign|BenchmarkVerifySignature|BenchmarkSignVerify|BenchmarkVerifyMemo' -benchmem -benchtime 200ms ./internal/crypto/
	$(GO) test -run XXX -bench 'BenchmarkVerifyCert|BenchmarkVerifyCommitCert' -benchmem -benchtime 200ms ./internal/pbft/

bench-wal:
	$(GO) test -run XXX -bench 'BenchmarkAppend|BenchmarkReplay|BenchmarkSnapshotEncode' -benchmem -benchtime 200ms ./internal/wal/

bench-tcpnet:
	$(GO) test -run XXX -bench 'BenchmarkTransportSend' -benchmem -benchtime 200ms ./internal/tcpnet/

# Open-loop (Poisson arrival) latency sweep on the simulated WAN: committed
# throughput plus end-to-end and per-phase latency quantiles per offered
# load, once at pipeline depth 1 (lockstep baseline) and once at depth 8
# (bounded window + adaptive batching), so the consolidated document
# carries the saturation-knee comparison. Writes openloop-d1.json and
# openloop-d8.json for bench-consolidate to merge.
bench-openloop:
	$(GO) run ./cmd/ringbft-bench -openloop -rates $(OPENLOOP_RATES) \
		-duration $(OPENLOOP_DURATION) -clientbatch $(OPENLOOP_CLIENTBATCH) \
		-pipeline 1 -o openloop-d1.json
	$(GO) run ./cmd/ringbft-bench -openloop -rates $(OPENLOOP_RATES) \
		-duration $(OPENLOOP_DURATION) -clientbatch $(OPENLOOP_CLIENTBATCH) \
		-pipeline 8 -o openloop-d8.json

# Regenerate the repo-root consolidated trajectory (BENCH_PR8.json) from
# both depth sweeps plus the per-package baseline files.
bench-consolidate: bench-openloop
	$(GO) run ./cmd/ringbft-benchmerge -openloop openloop-d1.json,openloop-d8.json -o BENCH_PR8.json

# Schema gate over the committed trajectory document (CI runs this; the
# values themselves are host-dependent, so only the shape is gated).
bench-check:
	$(GO) run ./cmd/ringbft-benchmerge -check BENCH_PR8.json

# Live-cluster observability smoke: loopback-TCP cluster, real client
# traffic, scrape /metrics, assert per-layer series (see the script).
metrics-smoke:
	sh scripts/metrics-smoke.sh

race-crypto:
	$(GO) test -race ./internal/crypto/... ./internal/pbft/... ./internal/wal/...

# The transport's writer goroutines and the loopback-TCP cluster scenarios
# (real sockets under the full replica stack) are the wire layer's
# concurrency-sensitive surface.
race-net:
	$(GO) test -race ./internal/tcpnet/
	$(GO) test -race -run 'TestTCP' ./internal/harness/

# The whole module under the race detector (CI's race job; race-crypto and
# race-net above remain the fast local subset verify runs).
race-all:
	$(GO) test -race ./...

# One deterministic pass over the chaos scenario matrix (seed-reproducible;
# any failure prints the replay command).
chaos:
	$(GO) run ./cmd/ringbft-chaos -v

# Nightly soak: fresh seeds every pass until the budget runs out.
chaos-soak:
	$(GO) run ./cmd/ringbft-chaos -mode soak -budget $(SOAK_BUDGET)

# The same schedules through the real harness (goroutines, simulated WAN).
chaos-wallclock:
	$(GO) run ./cmd/ringbft-chaos -mode wallclock -v

verify: fmt-check docs-check build vet lint test race-crypto race-net
