# Tier-1 verify is `make verify` (fmt-check + docs-check + build + vet +
# lint + test + examples + race-checked crypto, pbft, wal and store — the
# pooled MAC key schedules, the durability layer and the table read off the
# event loop are the concurrency-sensitive code — plus
# race-checked tcpnet, the loopback-TCP scenario suite and simnet, whose
# writer goroutines and delivery scheduler are the fabrics' concurrency
# surface). `make lint` runs the
# protocol-invariant analyzer suite (internal/analysis via cmd/ringbft-vet);
# `make docs-check` keeps the docs honest against the binaries' flag
# surfaces, this Makefile's targets and the source tree
# (scripts/docs-check.sh); `make race-all` puts the whole module under the
# race detector. The full test suite includes the chaos matrix
# (internal/chaos): 43 seeded nemesis scenarios across ringbft/ahl/sharper
# (incl. the pipelined-window frontier rows); `make chaos` runs just that
# matrix verbosely and `make chaos-soak` explores fresh seeds for
# SOAK_BUDGET (nightly CI).
#
# There is one benchmark, benchmark/ (declared in BENCHMARK.json), and it
# is what PRs are judged by: `make benchmark` builds it from source and
# runs its four workloads — end-to-end metrics from an untraced run,
# per-layer metrics from a traced one, a correctness check at the end of
# each — and `go run ./benchmark -compare a.txt b.txt` holds a pair of
# saved outputs to the bounds in BENCHMARK.json. `make bench` runs the
# per-package micro-benchmarks, with `bench-crypto`, `bench-wal`,
# `bench-tcpnet`, `bench-store` and `bench-ring` as focused subsets.
#
# `make metrics-smoke` boots a loopback-TCP cluster and asserts the
# /metrics exposition carries live series from every instrumented layer.
# `make examples` runs every program under examples/ to completion.

GO ?= go
SOAK_BUDGET ?= 10m

.PHONY: build test examples vet lint lint-fixtures fmt-check docs-check benchmark bench bench-crypto bench-wal bench-tcpnet bench-store bench-ring metrics-smoke race-crypto race-net race-all chaos chaos-soak chaos-wallclock verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The examples are the public Cluster API's only callers besides
# ringbft_test.go; each must exit 0 within the timeout (a few seconds each
# on a 2-vCPU host).
examples:
	@for d in examples/*/; do \
		echo "== $$d"; timeout 120 $(GO) run ./$$d || exit 1; \
	done

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
# knob surface is documented, referenced make targets, named source paths
# and named tests/benchmarks (also the Makefile's and CI's -bench/-fuzz
# patterns) exist, and ARCHITECTURE.md is present and linked from the README.
docs-check:
	sh scripts/docs-check.sh

# The repository's benchmark (benchmark/README.md): all four workloads,
# untraced then traced, 20 s windows. Arguments of benchmark/run.sh select
# one workload, a seed, a window, or one mode. Exits non-zero unless every
# run ends `correct`.
benchmark:
	bash benchmark/run.sh

bench:
	$(GO) test -run XXX -bench . -benchtime 300ms ./internal/sched/ ./internal/store/
	$(GO) test -run XXX -bench . -benchtime 200ms ./internal/types/ ./internal/pbft/ ./internal/crypto/ ./internal/ledger/ ./internal/workload/ ./internal/wal/ ./internal/tcpnet/ ./internal/ringbft/ ./internal/simnet/

bench-crypto:
	$(GO) test -run XXX -bench 'BenchmarkMAC|BenchmarkAppendMAC|BenchmarkVerifyMAC|BenchmarkSign|BenchmarkVerifySignature|BenchmarkSignVerify|BenchmarkMerkleRoot100' -benchmem -benchtime 200ms ./internal/crypto/
	$(GO) test -run XXX -bench 'BenchmarkBatchDigest' -benchmem -benchtime 200ms ./internal/types/
	$(GO) test -run XXX -bench 'BenchmarkAppend100TxnBlock' -benchmem -benchtime 200ms ./internal/ledger/
	$(GO) test -run XXX -bench 'BenchmarkVerifyCert|BenchmarkVerifyCommitCert' -benchmem -benchtime 200ms ./internal/pbft/

bench-wal:
	$(GO) test -run XXX -bench 'BenchmarkAppend|BenchmarkReplay|BenchmarkSnapshotEncode' -benchmem -benchtime 200ms ./internal/wal/

bench-tcpnet:
	$(GO) test -run XXX -bench 'BenchmarkTransportSend' -benchmem -benchtime 200ms ./internal/tcpnet/

# The checkpoint path layer by layer: the table's point read, dump, set-up
# and execution, then one checkpoint's rewind + state digest at 65,536
# records, and one in-order executor's emission at 4,096.
bench-store:
	$(GO) test -run XXX -bench 'BenchmarkGet|BenchmarkPairs|BenchmarkPreload|BenchmarkExecuteTxn' -benchmem -benchtime 300ms ./internal/store/
	$(GO) test -run XXX -bench 'BenchmarkCheckpointDigest|BenchmarkEmitCheckpoint' -benchmem -benchtime 300ms ./internal/host/

# The cross-shard path's handlers: one Forward and one Execute copy, one
# timer pass over 4,096 executed csts and 8 in flight, a Commit before and
# one after its entry committed, and the set-up of 3×4 replicas.
bench-ring:
	$(GO) test -run XXX -bench 'BenchmarkForwardCopy|BenchmarkExecuteCopy|BenchmarkHandleTick|BenchmarkReplicaSetup' -benchmem -benchtime 300ms ./internal/ringbft/
	$(GO) test -run XXX -bench 'BenchmarkCommitBeforeDecision|BenchmarkCommitAfterDecision' -benchmem -benchtime 300ms ./internal/pbft/

# Live-cluster observability smoke: loopback-TCP cluster, real client
# traffic, scrape /metrics, assert per-layer series (see the script).
metrics-smoke:
	sh scripts/metrics-smoke.sh

race-crypto:
	$(GO) test -race ./internal/crypto/... ./internal/pbft/... ./internal/wal/... ./internal/store/...

# The transport's writer goroutines, the loopback-TCP cluster scenarios
# (real sockets under the full replica stack) and simnet's delivery
# scheduler (one goroutine per network, fed by every sender) are the
# fabrics' concurrency-sensitive surface.
race-net:
	$(GO) test -race ./internal/tcpnet/ ./internal/simnet/
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

verify: fmt-check docs-check build vet lint test examples race-crypto race-net
