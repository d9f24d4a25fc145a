# Mirrors .github/workflows/ci.yml: `make ci` runs the same stages the
# CI jobs run (sequentially, on the local toolchain instead of the
# stable/oldstable matrix), so a green `make ci` means a green check.
# `make nightly` mirrors .github/workflows/nightly.yml's deep checks.

GO ?= go

.PHONY: ci nightly fmt vet staticcheck build test test-full test-chaos bench bench-smoke bench-allocs bench-module bench-layers bench-record fuzz-smoke fuzz-nightly smoke smoke-cluster smoke-chaos

ci: fmt vet staticcheck build test fuzz-smoke bench-smoke bench-allocs bench-module smoke smoke-cluster smoke-chaos

nightly: test-full test-chaos fuzz-nightly

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it); skip with a notice
# when the binary is absent rather than failing offline machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

# -race covers the concurrent subsystems (engine singleflight/worker
# pool, smsd job API, store, session) — their tests run in -short mode by
# design.
test:
	$(GO) test -short -race ./...

# The full suite includes the figure-scale experiment tests and the
# sampled-vs-exact statistical validation grid (~minutes).
test-full:
	$(GO) test -timeout 50m ./...

# The full crash-point table, repeated: every journal/restart-recovery
# test and the cluster chaos suite under -race, -count=3 to shake out
# timing-dependent survivors the single-shot CI run can miss.
test-chaos:
	$(GO) test -race -count=3 -run 'TestJournal|TestRestart|TestRecovery|TestBreaker|TestStaleSuccess|Blackout' ./internal/server ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark (no unit tests — those already ran):
# catches bit-rotted benchmark code and exercises the store hit/miss
# paths without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -short ./...

# Zero-allocation gate: the hot-path benchmarks (record pipeline and
# trace generation) must report 0 B/op and 0 allocs/op at steady state.
bench-allocs:
	./scripts/bench.sh --check

# The repository benchmark's own tests (bench/ is a separate module, so
# the root `go test ./...` never compiles it): every workload at a tiny
# scale, its metric names and output checks (~8 s).
bench-module:
	$(GO) -C bench test .

# The SMS path layer by layer (ROADMAP item 3): one traced sms-tier run
# of the repository benchmark prints the ladder rungs and the per-call
# Train/Drain costs (~1 min).
bench-layers:
	bash bench/run.sh --workload sms-tier --seed 1 --seconds 20 --trace 1

# Record the headline perf numbers (ns/record, MB/s, allocs) as JSON;
# compare against BENCH_baseline.json.
bench-record:
	./scripts/bench.sh BENCH_after.json

# The fuzz targets, as package:Target. Every one guards an input the
# binaries accept from outside: both trace decoders, smsd's journal
# replay, its /v1/runs and /v1/cells request validation, fault-plan
# parsing and the store's trace upload. Corrupt/truncated input must
# return wrapped errors (ErrBadFormat, io.ErrUnexpectedEOF, "fault: ...")
# or be truncated away, an accepted run request or cell must simulate,
# an accepted trace must replay in full or latch an error, and nothing
# may panic.
FUZZ_TARGETS = \
	./internal/trace:FuzzReaderV1 \
	./internal/trace:FuzzReaderV2 \
	./internal/server:FuzzJournalReplay \
	./internal/server:FuzzRunRequest \
	./internal/server:FuzzCellRequest \
	./internal/fault:FuzzFaultLoad \
	./internal/store:FuzzPutTraceRaw

# fuzz-smoke is CI's short pass, fuzz-nightly the nightly workflow's
# longer one. Go runs one fuzz target per invocation.
fuzz-smoke: FUZZTIME = 5s
fuzz-nightly: FUZZTIME = 60s
fuzz-smoke fuzz-nightly:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# End-to-end daemon smoke: start smsd, submit a job, poll it to
# completion, cancel a second one.
smoke:
	./scripts/smoke_smsd.sh

# Distributed smoke: coordinator + two workers, a figure grid scattered
# across them, one worker SIGKILLed mid-grid; the grid must settle and
# the coordinator's /metrics must stay a valid exposition.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Chaos smoke: a journaled coordinator is SIGKILLed mid-grid and
# restarted against the same -store and -journal; the pre-kill jobs
# must settle done under the same ids and the recovered figure must be
# byte-identical to a single-node reference.
smoke-chaos:
	./scripts/smoke_chaos.sh
