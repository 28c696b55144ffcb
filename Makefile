GO ?= go

.PHONY: all build vet test purego fmt-check race race-short loc bench bench-test bench-json benchdiff bench-baseline bench-gate experiments examples fmt check chaos guard fuzz serve-smoke collective-smoke elastic-smoke obs-smoke

all: build vet test

# check is the CI gate: formatting, vet, build, full test suite, the
# assembly-free build of the kernel packages, the short race pass, then
# the nested benchmark module.
check: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) purego
	$(MAKE) race-short
	$(MAKE) bench-test

# The packages with a vector kernel or a path built on one, vetted and
# tested with the assembly compiled out (-tags purego is what every
# non-amd64 platform runs), so the Go reference cannot rot behind it.
KERNEL_PKGS = ./internal/cfft ./internal/f16 ./internal/sparsify ./internal/compress

purego:
	$(GO) vet -tags purego $(KERNEL_PKGS)
	$(GO) test -tags purego $(KERNEL_PKGS)

# gofmt -l prints the files it would rewrite; any is a failure.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The race detector's beat: the packages that share caches/pools across
# goroutines, mutate shared controller/registry state or run the worker
# fleet. race-short is the CI pass (dist: about a minute on two cores).
RACE_PKGS = ./internal/cfft/ ./internal/sparsify/ ./internal/compress/ ./internal/comm/ \
	./internal/collective/ ./internal/telemetry/ ./internal/adapt/ ./internal/cluster/ \
	./internal/chaos/ ./internal/guard/ ./internal/checkpoint/ ./internal/trace/ ./internal/obs/ \
	./internal/ps/ ./internal/serve/ ./internal/dist/ ./internal/feedback/ ./internal/parallel/ \
	./internal/scratch/

race:
	$(GO) test -race $(RACE_PKGS)

race-short:
	$(GO) test -race -short $(RACE_PKGS)

# bench/ is a module of its own, outside `go test ./...`: its vet and
# self-test are the compile-time check that every API the benchmark
# replays over (compress, guard, cluster, collective, dist.Config) is
# still source-compatible.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Chaos gate: the failure-policy suite plus a short fault-injected
# training run (5% drop, delays, one crash+rejoin) that must converge.
chaos:
	$(GO) test -run 'Chaos|Fault|Partition|Rejoin|Straggler|Suspect' -v ./internal/cluster/ ./internal/chaos/ ./internal/dist/
	$(GO) test -run TestSmokeChaos -v ./cmd/trainer/

# Guard gate: the integrity suite plus a training run under seeded
# single-bit wire corruption — every corrupt frame must be caught by
# the CRC and repaired, and the run must converge.
guard:
	$(GO) test -run 'Guard|Frame|Scrub|Detector|Fingerprint|Corrupt|Ring|WriteFileAtomic' -v \
		./internal/guard/ ./internal/checkpoint/ ./internal/chaos/ ./internal/dist/
	$(GO) test -run TestSmokeGuard -v ./cmd/trainer/

# Fuzz smoke: a short wall-clock-bounded pass over the compressed
# message decoders, every codec's encode→decode round trip, the fused
# transform decode against its unfused reference, the guard frame decoder
# and the framed codec decoder.
fuzz:
	$(GO) test -fuzz=FuzzDecompressRobustness -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzCompressRoundTrip -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzDecodeMatchesReference -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzUnframe -fuzztime=15s -run '^$$' ./internal/guard/
	$(GO) test -fuzz=FuzzFramedDecompress -fuzztime=15s -run '^$$' ./internal/guard/

# Non-blank, non-comment, non-test Go lines per package directory, then
# the total outside the nested bench/ module: the count the before/after
# tables in CHANGES.md use.
LOC = xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%6d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | $(LOC)) $$d; \
	done
	@printf '%6d  total outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | $(LOC))

# One pass over every benchmark (each experiment bench runs its full
# quick workload once).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Machine-readable compression benchmark: per-primitive and
# per-compressor throughput, wire ratio and allocs/op.
bench-json:
	$(GO) run ./cmd/compressbench -json BENCH_compress.json

# Compare two bench-json reports (OLD=... NEW=..., defaulting to a
# self-diff of BENCH_compress.json); exits non-zero on regression.
benchdiff:
	$(GO) run ./cmd/benchdiff -threshold 0.10 $(or $(OLD),BENCH_compress.json) $(or $(NEW),BENCH_compress.json)

# Regenerate the committed kernel baseline. Run on a quiet machine after
# an intentional kernel change, and commit the result together with it.
# Best-of-5 damps scheduler noise; -mb 8 matches the gate below (ns/op
# rows are normalised against the report's working set, so both sides
# of a diff must use the same size).
bench-baseline:
	$(GO) run ./cmd/compressbench -json BENCH_BASELINE.json -mb 8 -iters 5

# Kernel regression gate: a fresh run diffed against the committed
# baseline. Two tiers, because the baseline was recorded on a different
# machine than the one running the gate:
#   - allocs/op is hardware-independent and gated exactly (any increase
#     in a steady-state-zero path fails, whatever the threshold);
#   - ns/op is a coarse tripwire with a deliberately generous threshold
#     (default 2.0 = up to 3x slower than the baseline box) that still
#     catches algorithmic blowups — a lost fast path, accidental
#     serialisation, O(n log n) turning into O(n^2) — without flagging
#     ordinary cross-machine and scheduler variance.
bench-gate:
	$(GO) run ./cmd/compressbench -json BENCH_ci.json -mb 8 -iters 3
	$(GO) run ./cmd/benchdiff -threshold $(or $(THRESHOLD),2.0) BENCH_BASELINE.json BENCH_ci.json

# Observability gate: the profiler unit suite (clock offsets under skew,
# critical-path blame, zero-alloc commit), then a 4-rank chaos run with a
# permanent 15ms straggler on rank 2 — the exported blame ledger must
# name rank 2 and charge it at least half of all cross-rank blocked time,
# and the merged multi-process timeline must cover every rank.
obs-smoke:
	$(GO) test -run 'TestOffsetsUnderSkew|TestCriticalPathBlame|TestFaultPathBlame|TestCommitZeroAlloc|TestProfilerBitIdentical|TestProfilerBlamesChaosStraggler' -v ./internal/obs/ ./internal/dist/
	$(GO) build -o obs-smoke-bin ./cmd/trainer
	./obs-smoke-bin -model mlp -epochs 2 -workers 4 -fault-aware \
		-chaos-straggle 2 -chaos-straggle-by 15ms \
		-profile-out obs-smoke.json -trace-out obs-smoke-trace.json | tee obs-smoke.log; \
	RC=$$?; [ $$RC -eq 0 ] && \
	grep -q "profile: top blamed rank 2" obs-smoke.log && \
	python3 -c "import json; \
		doc=json.load(open('obs-smoke.json')); \
		b={e['rank']: e for e in doc['blame']}; \
		frac=b[2]['blamed_frac']; \
		assert frac >= 0.5, 'straggled rank 2 only blamed for %.0f%% of blocked time' % (100*frac); \
		assert doc['summary']['iterations'] > 0 and doc['build']['version'], doc['summary']; \
		ev=json.load(open('obs-smoke-trace.merged.json')); \
		pids={e.get('pid') for e in ev if e.get('ph')=='X'}; \
		assert pids>={1,2,3,4}, pids; \
		print('obs-smoke: rank 2 blamed for %.0f%% of %.3fs blocked time; merged timeline spans %d processes' \
			% (100*frac, doc['summary']['total_blocked_ns']/1e9, len(pids)))"; \
	RC=$$?; rm -f obs-smoke-bin obs-smoke.json obs-smoke.log obs-smoke-trace.json obs-smoke-trace.merged.json obs-smoke-trace.flight.json obs-cpu-iter*.pprof obs-anomaly-iter*.json; exit $$RC

# Service smoke: start `trainer -serve`, run two concurrent jobs with
# different compressors over the HTTP API, require both to complete and
# their metrics to stay distinguishable per job, then SIGTERM-drain.
serve-smoke:
	$(GO) build -o serve-smoke-bin ./cmd/trainer
	./serve-smoke-bin -serve -metrics-addr 127.0.0.1:19099 -pool 4 -spool serve-smoke-spool & \
	SRV=$$!; \
	sleep 2; \
	A=$$(curl -sf -X POST 127.0.0.1:19099/jobs -d '{"name":"fft","method":"fft","theta":0.85,"workers":2,"epochs":2,"samples":1024}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])') && \
	B=$$(curl -sf -X POST 127.0.0.1:19099/jobs -d '{"name":"topk","method":"topk","theta":0.9,"workers":2,"epochs":2,"samples":1024}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])') && \
	for i in $$(seq 1 60); do \
		SA=$$(curl -sf 127.0.0.1:19099/jobs/$$A | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'); \
		SB=$$(curl -sf 127.0.0.1:19099/jobs/$$B | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'); \
		[ "$$SA" = completed ] && [ "$$SB" = completed ] && break; sleep 1; \
	done && \
	[ "$$SA" = completed ] && [ "$$SB" = completed ] && \
	curl -sf 127.0.0.1:19099/jobs/metrics | grep -q "job=\"$$A\"" && \
	curl -sf 127.0.0.1:19099/jobs/metrics | grep -q "job=\"$$B\"" && \
	echo "serve-smoke: $$A and $$B completed with per-job metrics"; \
	RC=$$?; kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -rf serve-smoke-bin serve-smoke-spool; exit $$RC

# Collective gate: the Sec. 3.3 crossover-shift check (hier must lower
# k_min vs the flat ring at scale), the exact zero-alloc gates on the
# strategy schedules and traced collectives, then two chaos runs of the
# 2-group hierarchical bucketed pipeline with one rank crashing
# mid-iteration — between bucket rounds: the in-process gate that also
# enforces the 2-point accuracy envelope vs the fault-free flat-ring
# baseline, and a trainer run exercising the CLI flags end to end.
collective-smoke:
	$(GO) test -run 'TestCrossoverShift' -v ./internal/collective/
	$(GO) test -run 'ZeroAlloc' -v ./internal/collective/ ./internal/comm/
	$(GO) test -run 'TestHierBucketedChaosGate' -v ./internal/dist/
	$(GO) run ./cmd/trainer -model mlp -epochs 2 -workers 4 -fault-aware \
		-collective hier -group-size 2 -bucket-bytes 1024 \
		-chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000

# Elasticity gate: the bounded-staleness / gossip / elastic-join suites
# (these enforce the 2-point convergence envelope against the fault-free
# baseline in-process), then two seeded CLI runs under -staleness 4: a
# straggler-free one to time, and one adding a mid-run elastic join plus
# a *permanent* straggler (20ms per send — far above the per-round grace,
# well below the suspicion deadline, and never recovering). The straggled
# run must converge, must dump the timeline on the quorum-grow join, and
# must finish within 1.5x of the straggler-free run (+1s fixed slack for
# the extra rank's startup): bounded staleness folds the straggler's
# cached gradients instead of waiting, so a permanently slow rank no
# longer sets the fleet's pace.
elastic-smoke:
	$(GO) test -run 'TestBoundedStalenessGate|TestGossipGate|TestElasticJoinGate|TestAsyncConfigRejections|TestElasticJoinWorkerAccounting' -v ./internal/dist/
	$(GO) test -run 'TestBackoffJitterDeterministic|TestAwaitRejoinHaltPromptly|TestWaitWithinWindowThrottle|TestExchangeBoundedFoldsStaleCache|TestGossipExchangeMixesNeighbors|TestAdmitJoinGrowsView' -v ./internal/cluster/
	$(GO) build -o elastic-smoke-bin ./cmd/trainer
	T0=$$(date +%s%N); \
	./elastic-smoke-bin -model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 \
		-chaos-drop 0.03 -chaos-delay 5ms >/dev/null || { rm -f elastic-smoke-bin; exit 1; }; \
	T1=$$(date +%s%N); \
	./elastic-smoke-bin -model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 \
		-elastic-join 20 -chaos-drop 0.03 -chaos-delay 5ms \
		-chaos-straggle 3 -chaos-straggle-at 300 -chaos-straggle-by 20ms \
		-trace-out elastic-smoke.json | tee elastic-smoke.log || { rm -f elastic-smoke-bin elastic-smoke.log; exit 1; }; \
	T2=$$(date +%s%N); \
	grep -q "reason view_grow" elastic-smoke.log && \
	python3 -c "import json; ev=json.load(open('elastic-smoke.flight.json')); assert ev, 'empty flight dump'" && \
	python3 -c "base=($$T1-$$T0)/1e9; strag=($$T2-$$T1)/1e9; \
		print('elastic-smoke: straggler-free %.2fs, straggled+join %.2fs' % (base, strag)); \
		assert strag <= 1.5*base + 1.0, 'permanent straggler set the pace: %.2fs vs %.2fs' % (strag, base)"; \
	RC=$$?; rm -f elastic-smoke-bin elastic-smoke.log elastic-smoke.json elastic-smoke.flight.json; exit $$RC

# Regenerate every paper figure/table and ablation.
experiments:
	$(GO) run ./cmd/fftpaper -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/quantization
	$(GO) run ./examples/perfguide
	$(GO) run ./examples/tcpcluster
	$(GO) run ./examples/faulttolerance

fmt:
	gofmt -w .
