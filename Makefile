GO ?= go

# Pinned third-party linter versions; CI installs exactly these.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test vet race bench bench-remote bench-load bench-ring fuzz-smoke docs smoke-remote smoke-chaos smoke-load smoke-load-nocache smoke-ring lint audit ci

build:
	$(GO) build ./...

# qbperf (the benchmark command) is its own Go module, so the root
# ./... patterns never compile it; vet and test it explicitly.
vet:
	$(GO) vet ./...
	cd qbperf && $(GO) vet ./...

test: vet
	$(GO) test ./...
	cd qbperf && $(GO) test ./...

race:
	$(GO) test -race ./...

# Documentation hygiene: vet, run every runnable Example against its
# expected output, and build the examples/ programs so the documented
# snippets cannot rot.
docs: vet
	$(GO) test -run 'Example' ./...
	$(GO) build ./examples/...

# Root-package benchmarks only: they include every paper table/figure plus
# the batch-engine throughput sweep (BenchmarkQueryBatch).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Remote-backend parallelism headline: queries/sec of QueryBatch against a
# cloud behind net.Pipe and TCP loopback at 1/4/GOMAXPROCS workers.
# Besides the human-readable output, cmd/benchjson distils the run into
# machine-readable BENCH_remote.json (ns/op, queries/sec, B/op, allocs/op
# per sub-benchmark) for dashboards and regression tracking.
bench-remote:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench=BenchmarkRemoteQueryBatch -benchmem -run='^$$' . \
		| tee /dev/stderr | bin/benchjson -o BENCH_remote.json

# Open-loop load baseline: qbload drives a real qbcloud binary with a
# Zipf-skewed 90/10 read/write mix across 4 tenants × 4 clients and
# writes the tracked perf trajectory file BENCH_load.json (committed;
# regenerate it in any PR that intends a perf change — see
# docs/BENCHMARKS.md).
bench-load:
	$(GO) build -o bin/qbcloud ./cmd/qbcloud
	$(GO) build -o bin/qbload ./cmd/qbload
	bin/qbload -qbcloud bin/qbcloud -tenants 4 -clients 4 -rate 300 -duration 10s \
		-read-frac 0.9 -check -o BENCH_load.json

# Fuzz smoke: run each binary-codec fuzz target's mutation engine briefly
# (the seed corpora already run as plain tests on every `make test`). The
# targets cover the framed-protocol attack surface: request/response body
# decoders and the length-prefixed frame reader.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinRequest -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinResponse -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeTuple -fuzztime=$(FUZZTIME) ./internal/relation

# End-to-end multi-tenant smoke: boot the real qbcloud binary, run a
# vertical client plus a second tenant against it over TCP (three
# namespaces on one server), check answers against an in-process
# reference and the per-store shutdown stats.
smoke-remote:
	$(GO) build -o bin/qbcloud ./cmd/qbcloud
	$(GO) run ./cmd/qbsmoke -qbcloud bin/qbcloud

# Crash-recovery + control-plane smoke: boot qbcloud with periodic atomic
# snapshots, drive a reconnecting client, SIGKILL the server mid-traffic,
# restart from the state file and require identical answers; then drive
# the qbadmin CLI (ping/list/stats/compact/drop + wrong-key refusal).
smoke-chaos:
	$(GO) build -o bin/qbcloud ./cmd/qbcloud
	$(GO) build -o bin/qbadmin ./cmd/qbadmin
	$(GO) run ./cmd/qbsmoke -phase chaos -qbcloud bin/qbcloud -qbadmin bin/qbadmin

# Load smoke: a seconds-long open-loop run of qbload against a real
# qbcloud binary with a mid-run SIGKILL + snapshot restart, reference
# checks on every read and the -assert gate (nonzero QPS, zero errors,
# sane percentiles). Read-only traffic because the snapshot restore is
# lossy for post-snapshot writes by design. The report goes to an
# untracked path so CI never churns the committed BENCH_load.json
# baseline. Set QBLOAD_BUILDFLAGS=-race to run the whole harness (both
# sides of the wire) under the race detector.
QBLOAD_BUILDFLAGS ?=
smoke-load:
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbcloud ./cmd/qbcloud
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbload ./cmd/qbload
	bin/qbload -qbcloud bin/qbcloud -tenants 2 -clients 3 -rate 300 -duration 4s \
		-read-frac 1 -kill-at 1500ms -restart-after 400ms -check -assert \
		-o bin/BENCH_load.json

# Cache-disabled control arm of smoke-load: the same chaos run with the
# owner-side version cache off (-cache=false), so a regression that only
# the uncached per-query-pull path would hit still fails CI, and the two
# runs together cover cached-vs-uncached observational equivalence under
# kill/restart (the -check reference bounds are identical in both).
smoke-load-nocache:
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbcloud ./cmd/qbcloud
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbload ./cmd/qbload
	bin/qbload -qbcloud bin/qbcloud -tenants 2 -clients 3 -rate 300 -duration 4s \
		-read-frac 1 -kill-at 1500ms -restart-after 400ms -check -assert \
		-cache=false -o bin/BENCH_load_nocache.json

# Multi-node ring smoke: qbload boots three real qbcloud nodes plus the
# qbring coordinator, drives the ring with reference-checked reads, and
# SIGKILLs node 0 mid-window — failover must keep every query answering
# and anti-entropy must bring the restarted node back, with the -assert
# gate (nonzero QPS, zero errors, zero check failures) enforcing it.
# Read-only traffic for the same snapshot-lossiness reason as smoke-load.
# Set QBLOAD_BUILDFLAGS=-race to race-instrument all five processes.
smoke-ring:
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbcloud ./cmd/qbcloud
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbring ./cmd/qbring
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbload ./cmd/qbload
	bin/qbload -ring 3 -qbcloud bin/qbcloud -qbring bin/qbring -tenants 2 -clients 3 \
		-rate 300 -duration 4s -read-frac 1 -kill-at 1500ms -restart-after 400ms \
		-check -assert -o bin/BENCH_ring_smoke.json

# Replication overhead trajectory: the same checked workload against one
# direct qbcloud and against a 3-node R=2 ring, merged into the committed
# BENCH_ring.json (single-node arm written first, ring arm appended), so
# the cost of R-way fan-out and routed reads is a tracked number instead
# of folklore.
bench-ring:
	$(GO) build -o bin/qbcloud ./cmd/qbcloud
	$(GO) build -o bin/qbring ./cmd/qbring
	$(GO) build -o bin/qbload ./cmd/qbload
	bin/qbload -qbcloud bin/qbcloud -tenants 4 -clients 4 -rate 300 -duration 10s \
		-read-frac 0.9 -check -run-name qbload-1node -o BENCH_ring.json
	bin/qbload -ring 3 -qbcloud bin/qbcloud -qbring bin/qbring -tenants 4 -clients 4 \
		-rate 300 -duration 10s -read-frac 0.9 -check -run-name qbload-ring3 \
		-append -o BENCH_ring.json

# Static analysis. qbvet (the repo's own go/analysis-style suite: sensleak,
# lockdiscipline, pooldiscipline, cmpconst, nakedclock) is stdlib-only and
# always runs. staticcheck and govulncheck run when installed — CI installs
# the pinned versions above; offline sandboxes skip them with a notice.
lint:
	$(GO) build -o bin/qbvet ./cmd/qbvet
	bin/qbvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Audit report: qbvet findings + per-package statement coverage, written to
# docs/AUDIT.md. COVER_FLOOR makes the run fail when total coverage drops
# below the recorded baseline (see .github/workflows/ci.yml).
COVER_FLOOR ?= 0
audit:
	$(GO) build -o bin/qbaudit ./cmd/qbaudit
	bin/qbaudit -floor $(COVER_FLOOR)

ci: build lint test race docs fuzz-smoke smoke-remote smoke-chaos smoke-load smoke-load-nocache smoke-ring
