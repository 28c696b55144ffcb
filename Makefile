GO ?= go

.PHONY: all build vet test purego fmt-check race race-short loc bench bench-test experiments examples fmt check chaos guard fuzz

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
# non-amd64 platform runs), so the Go reference cannot rot behind it
# (nn: its layers' bit-identity pins then run on tensor's Go kernels;
# compress and optim: the fold and the momentum step after the exchange).
# The GOAMD64=v3 legs build the same packages and the two bit-exact
# selectors beside them where the compiler may fuse multiply-add: every
# pin must hold there too, with the assembly and without (-short: the
# pins up to 2^16, not the 2^32-pattern f16 sweep three times over). A v3
# binary aborts at startup on an amd64 host without AVX2/FMA/BMI2, so an
# empty v3 test run probes for that first and the legs are skipped there.
KERNEL_PKGS = ./internal/cfft ./internal/f16 ./internal/sparsify ./internal/compress ./internal/tensor ./internal/nn ./internal/optim
V3_PKGS = $(KERNEL_PKGS) ./internal/topk ./internal/quant

purego:
	$(GO) vet -tags purego $(KERNEL_PKGS)
	$(GO) test -tags purego $(KERNEL_PKGS)
	@if GOAMD64=v3 $(GO) test -run '^$$' ./internal/f16 >/dev/null 2>&1; then set -x; \
		GOAMD64=v3 $(GO) test -short $(V3_PKGS) && \
		GOAMD64=v3 $(GO) test -short -tags purego $(V3_PKGS); \
	else echo "purego: this host cannot run GOAMD64=v3 binaries; v3 legs skipped"; fi

# gofmt -l prints the files it would rewrite; any is a failure.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The race detector's beat: the packages that share caches/pools across
# goroutines, mutate shared controller/registry state or run the worker
# fleet (tensor and nn: the products' per-chunk scratch is written from
# pool goroutines; optim: the fused step's body runs on them too; quant:
# AppendEncoded and DecodePacked run there, on a Decoder reset in place;
# cmd/trainer: its signal watcher, -top renderer, capture worker and HTTP
# server run beside dist.Train).
# race-short is the CI pass (dist: about a minute on two cores).
RACE_PKGS = ./internal/cfft/ ./internal/sparsify/ ./internal/compress/ ./internal/comm/ \
	./internal/collective/ ./internal/telemetry/ ./internal/adapt/ ./internal/cluster/ \
	./internal/chaos/ ./internal/guard/ ./internal/checkpoint/ ./internal/trace/ ./internal/obs/ \
	./internal/serve/ ./internal/dist/ ./internal/feedback/ ./internal/parallel/ \
	./internal/scratch/ ./internal/tensor/ ./internal/nn/ ./internal/optim/ ./internal/quant/ \
	./cmd/trainer/

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
	$(GO) test -run 'Guard|Frame|Scrub|Detector|Fingerprint|Corrupt|WriteFileAtomic' -v \
		./internal/guard/ ./internal/checkpoint/ ./internal/chaos/ ./internal/dist/
	$(GO) test -run TestSmokeGuard -v ./cmd/trainer/

# Fuzz smoke: a short wall-clock-bounded pass over every fuzz target in
# the tree — the compressed message decoders, every codec's encode→decode
# round trip, the fused transform decode against its unfused reference,
# every codec's decode-accumulate against its dense decode, the fold
# kernels against their Go loop, the guard frame decoder, the framed
# codec decoder, the gradient scrub against its float64 loop, the radix
# select against the sorted order, the fused quantize-and-pack encoder against
# Encode + AppendCodes, the quantizer tuner's scoring against
# Decode(Encode(v)), the checkpoint reader (and State.Apply of every
# state it parses: an error or a restore, never a panic), the run-length bitmap
# decoder, the job description's JSON decoder, the matrix products,
# im2col and col2im against their plain loops, the ReLU and max
# pooling layers against theirs, the momentum step kernel against its Go
# loop, the TCP transport's frame reader and the cluster member's receive
# path (arbitrary frames: no panic, every lent payload released once).
fuzz:
	$(GO) test -fuzz=FuzzDecompressRobustness -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzCompressRoundTrip -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzDecodeMatchesReference -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzAccumulateMatchesDecompress -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzFoldMatchesReference -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzUnframe -fuzztime=15s -run '^$$' ./internal/guard/
	$(GO) test -fuzz=FuzzFramedDecompress -fuzztime=15s -run '^$$' ./internal/guard/
	$(GO) test -fuzz=FuzzScrubMatchesReference -fuzztime=15s -run '^$$' ./internal/guard/
	$(GO) test -fuzz=FuzzKthLargestMatchesSort -fuzztime=15s -run '^$$' ./internal/topk/
	$(GO) test -fuzz=FuzzAppendEncodedMatchesReference -fuzztime=15s -run '^$$' ./internal/quant/
	$(GO) test -fuzz=FuzzTuneMatchesReference -fuzztime=15s -run '^$$' ./internal/quant/
	$(GO) test -fuzz=FuzzRead -fuzztime=15s -run '^$$' ./internal/checkpoint/
	$(GO) test -fuzz=FuzzDecodeBitmapRLE -fuzztime=15s -run '^$$' ./internal/pack/
	$(GO) test -fuzz=FuzzSpecJSON -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzMatMulMatchesReference -fuzztime=15s -run '^$$' ./internal/tensor/
	$(GO) test -fuzz=FuzzIm2colCol2imMatchesReference -fuzztime=15s -run '^$$' ./internal/tensor/
	$(GO) test -fuzz=FuzzConvHalfMatchesReference -fuzztime=15s -run '^$$' ./internal/nn/
	$(GO) test -fuzz=FuzzSGDStepMatchesReference -fuzztime=15s -run '^$$' ./internal/optim/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=15s -run '^$$' ./internal/comm/
	$(GO) test -fuzz=FuzzMemberReceive -fuzztime=15s -run '^$$' ./internal/cluster/

# Non-blank, non-comment, non-test Go lines per package directory, then
# the total outside the nested bench/ module: the count the before/after
# tables in CHANGES.md use.
LOC = xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%6d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | $(LOC)) $$d; \
	done
	@printf '%6d  total outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | $(LOC))

# One pass over every go-test benchmark (each experiment bench in
# bench_test.go runs its full quick workload once), then the FFT codec's
# stage split at the wide_fft shape on one core and two, the bit-reversal
# pass alone at 2^18 on one core, every matrix product the benchmark's
# networks run and conv_fft's three col2im geometries, per kernel set, on
# one core, conv_fft's conv, ReLU and pooling layers forward and
# backward on one core, the local step (zero, forward, loss, backward) of
# the wide_* model and of conv_fft's on one core, and the fold and the
# momentum step after the exchange, per kernel set, on one core. Measured numbers come from
# the repository benchmark: bash bench/run.sh (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...
	$(GO) test -run '^$$' -bench BenchmarkCodecStages -cpu 1,2 ./internal/compress
	$(GO) test -run '^$$' -bench BenchmarkReorder -cpu 1 ./internal/cfft
	$(GO) test -run '^$$' -bench 'BenchmarkGEMMShapes|BenchmarkCol2imShapes' -cpu 1 ./internal/tensor
	$(GO) test -run '^$$' -bench 'BenchmarkConvLayers|BenchmarkMLPStep|BenchmarkConvStep' -benchmem -cpu 1 ./internal/nn
	$(GO) test -run '^$$' -bench BenchmarkFold -cpu 1 ./internal/compress
	$(GO) test -run '^$$' -bench BenchmarkSGDStep -cpu 1 ./internal/optim

# Regenerate every paper figure/table and ablation.
experiments:
	$(GO) run ./cmd/fftpaper -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tcpcluster

fmt:
	gofmt -w .
