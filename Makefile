# Developer/CI entry points for the CC-NIC reproduction.
#
#   make check        tier-1 verify + lint + vet + race (sim) + benchmark smoke
#   make verify       tier-1: go build ./... && go test ./...
#   make lint         cclint static-analysis suite (detlint, yieldlint,
#                     probelint, alloclint, shardlint, ownlint, timelint,
#                     exhaustlint) over every module package
#   make lint-json    same run, findings as cclint.json (the CI artifact)
#   make race         race detector over the packages with real goroutines
#                     (kernel, parallel shard engine, cluster model)
#   make fuzz         30 s of native fuzzing on the coherence line index
#                     (FuzzDirectory), then 30 s on the kernel's SleepWhile
#                     steps against the Sleep loops they replace
#                     (FuzzSleepWhile); both seed corpora also run under
#                     go test
#   make bench-smoke  one-iteration pass over the kernel + headline benches,
#                     then a 1-second perfbench run of each of the four
#                     benchmark workloads; fails unless every run's output
#                     matches its golden hash ("correct":true)
#   make fabric       quick fabric matrix: fairness/invariance tests and the
#                     fabric experiment family with invariants attached
#   make chaos        quick chaos matrix: in-fabric fault classes against the
#                     reliable transport (failover, degraded mode, the
#                     no-silent-loss ledger), the fabric chaos scenario test,
#                     and the chaos experiments
#   make faults       quick fault matrix: property harness, recovery-path
#                     tests, and fault experiments with invariants attached
#   make protocols    quick protocol matrix: differential + transition tests,
#                     the protocol property sweep, and a checked CXL ccbench
#                     pass (the full UPI x CXL x seed grid runs in CI)
#   make golden-check full suite with online invariant checks, diffed against
#                     the committed golden transcript (minutes)
#   make golden-shards golden-check again on 4 concurrent workers (-shards 4):
#                     the harness-parallel path must stay bit-identical
#   make golden       regenerate the committed golden transcript and the
#                     quick-suite output hashes after an intentional model
#                     change (minutes)

GO ?= go

.PHONY: check verify lint lint-json vet race fuzz bench-smoke faults protocols fabric chaos golden-check golden-shards golden

check: verify lint vet race fuzz bench-smoke faults protocols fabric chaos golden-check

verify:
	$(GO) build ./...
	$(GO) test ./...

# Static enforcement of the simulator invariants (DESIGN.md §5): exits
# nonzero on any determinism, yield-safety, probe-guard, noalloc,
# shard-boundary, buffer-ownership, sim-time, or enum-coverage finding.
# Warm runs reuse the loader's on-disk go-list cache (.lintcache/).
lint:
	$(GO) run ./cmd/cclint ./...

# The same findings as a machine-readable artifact. The exit status still
# reflects the findings, so CI can upload the file and fail the job.
lint-json:
	$(GO) run ./cmd/cclint -json ./... > cclint.json

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/sim/shard/ ./internal/fabric/ ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/check/prop/

# Native fuzzing: random create/lookup/retire sequences against the
# directory's line index, checked against a map; then random process sets
# whose pollers use SleepWhile, checked against the same programs written
# with Sleep loops. New failing inputs are written under the package's
# testdata/fuzz/ and replay under go test.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDirectory -fuzztime 30s ./internal/coherence
	$(GO) test -run '^$$' -fuzz FuzzSleepWhile -fuzztime 30s ./internal/sim

# perfbench prints one JSON result as its last line; a run whose simulated
# output misses its golden hash reports "correct":false.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Kernel|LoopbackCCNIC' -benchtime 1x .
	for w in loopback-64b kv-ads cluster-spread cluster-chaos; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct":true' \
			|| { echo "bench-smoke: perfbench $$w failed" >&2; exit 1; }; \
	done

# Quick local fault matrix: every armed class against the invariant engine,
# the directed recovery-path tests, and the faults experiment family. The
# full seed x class grid runs in CI (fault-matrix job).
faults:
	$(GO) test -count=1 ./internal/fault/
	$(GO) test -count=1 -run 'Fault' ./internal/check/prop/
	$(GO) test -count=1 -run 'Retransmit|Stall' ./internal/rpcstack/ ./internal/kvstore/
	$(GO) run ./cmd/ccbench -quick -check -faults all=0.01 faults-rate faults-recovery > /dev/null

# Quick local protocol matrix: the CXL transition table, the UPI/CXL
# differential tests, the CXL engine self-tests, the protocol property
# sweep, and a checked quick ccbench pass under the CXL backend. The full
# UPI x CXL x seed grid runs in CI (protocol-matrix job).
protocols:
	$(GO) test -count=1 -run 'CXL|Protocol' ./internal/coherence/ ./internal/check/ ./internal/check/prop/
	$(GO) run ./cmd/ccbench -quick -check -protocol cxl fig13 fig17 proto-sweep > /dev/null

# Quick local fabric matrix: the switch model's own tests, the fairness and
# partition-invariance properties at the cluster layer, the switch engine's
# own tests (totals accounting, seeded defect), and the fabric experiment
# family with the invariant engine attached. The full ports x shards x seed
# grid runs in CI (fabric-matrix job).
fabric:
	$(GO) test -count=1 ./internal/fabric/
	$(GO) test -count=1 -run 'Fairness|Flow|Tenant|Signaling' ./internal/cluster/
	$(GO) test -count=1 -run 'Fabric' ./internal/check/
	$(GO) run ./cmd/ccbench -quick -check fabric-incast fabric-isolation fabric-crossover > /dev/null

# Quick local chaos matrix: the in-fabric fault classes (portflap, corrupt,
# blackhole, brownout) against the reliable transport — failover/fail-back,
# degraded mode, circuit breakers, and the no-silent-loss ledger; the fabric
# chaos scenario (every class x seeds 1-3 at 1 and 4 workers); and the chaos
# experiment family with the invariant engine attached. CI runs the same
# tests one class per cell (chaos-matrix job).
chaos:
	$(GO) test -count=1 -run 'Fault|Outage|Brownout' ./internal/fabric/
	$(GO) test -count=1 -run 'Reliable|Failover|Bounded|Degraded|Breaker' ./internal/cluster/
	$(GO) test -count=1 -run 'TestFabricChaos' ./internal/check/prop/
	$(GO) run ./cmd/ccbench -quick -check fabric-portflap failover-recovery > /dev/null

# Every experiment at full scale with the invariant engine attached; output
# must be bit-identical to the committed transcript. ccbench exits 1 on any
# invariant violation or golden divergence.
golden-check:
	$(GO) run ./cmd/ccbench -all -check -golden experiments_full.txt > /dev/null

# The same golden diff with the experiment harness fanned out over four
# workers: parallel scheduling must not perturb a single byte of output.
golden-shards:
	$(GO) run ./cmd/ccbench -shards 4 -all -check -golden experiments_full.txt > /dev/null

# Regenerate the goldens. Run only after an intentional model change, and
# review the transcript diff like source.
golden:
	$(GO) run ./cmd/ccbench -all -check > experiments_full.txt
	$(GO) run ./cmd/ccbench -quick -all -hashes experiments_quick_hashes.json > /dev/null
