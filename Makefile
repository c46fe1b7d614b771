GO ?= go
GOFMT ?= gofmt

.PHONY: all build cli-smoke fmt-check test test-shuffle test-procs test-allocs vet lint-toggles lint-topo lint-reach race bench-smoke fuzz-smoke benchmark chaos chaos-restart trace check loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The hoyan CLI end to end: both Figure 10 case studies, centralized and on a
# two-worker in-process cluster. Each plan is rejected by design, so every run
# must exit 1 and print the REJECTED verdict line, and the two deployments
# must print the same bytes. Then hoyan -configs over WAN(1)'s rendered
# configurations, as generated and with one neighbor bound to an undefined
# route map (TestConfigsWarnOnFindings): both exit 0 with the same stdout,
# and only the second prints config.Validate's finding, as one warning line
# on stderr. Last, hoyan -configs over WAN(1)'s model directory, inputs and
# flows included (TestConfigsModelDir): a plan whose verdict depends on an
# ISP input prefix, reported as an in-process Verify reports it, centralized
# and with -workers 2 alike.
cli-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/hoyan" ./cmd/hoyan || exit 1; \
	for s in fig10a fig10b; do \
		for w in 0 2; do \
			"$$dir/hoyan" -scenario $$s -workers $$w > "$$dir/$$s-$$w.out"; rc=$$?; \
			if [ $$rc -ne 1 ] || ! grep -qx 'verdict: change plan REJECTED (see counterexamples)' "$$dir/$$s-$$w.out"; then \
				echo "hoyan -scenario $$s -workers $$w: exit $$rc, want 1 and the REJECTED verdict line:"; cat "$$dir/$$s-$$w.out"; exit 1; \
			fi; \
		done; \
		cmp "$$dir/$$s-0.out" "$$dir/$$s-2.out" || exit 1; \
		echo "cli-smoke $$s: REJECTED, centralized and -workers 2 alike"; \
	done
	$(GO) test -count=1 -run '^(TestConfigsWarnOnFindings|TestConfigsModelDir)$$' ./cmd/hoyan

# Formatting: fails, listing them, when gofmt would rewrite any Go file.
fmt-check:
	@bad=$$($(GOFMT) -l .); \
	if [ -n "$$bad" ]; then echo "gofmt would reformat (run gofmt -w):"; echo "$$bad"; exit 1; fi

# Who makes a network agree with a what-if is decided in one place,
# core.Delta.Apply. Outside the packages that own topology state (netmodel)
# and apply deltas and restore snapshots (core), no non-test file under
# internal/ or cmd/ may flip a link or a node itself, fixtures included.
lint-toggles:
	@bad=$$(grep -rnE '\.Set(Link|Node)Up\(' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -vE '^internal/(core|netmodel)/'); \
	if [ -n "$$bad" ]; then echo "SetLinkUp/SetNodeUp outside internal/{core,netmodel}; build a core.Delta instead:"; echo "$$bad"; exit 1; fi

# The topology is derived from the configurations in one place,
# config.Network.Topology. Outside the packages that derive it (config) and
# own it (netmodel), no non-test file under internal/ or cmd/ may add or
# remove a node or a link itself, fixtures included: edit the
# configurations (gen.Builder, change.Plan) and derive again.
lint-topo:
	@bad=$$(grep -rnE '\.(AddLink|AddNode|RemoveLink|RemoveNode)\(' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -vE '^internal/(config|netmodel)/'); \
	if [ -n "$$bad" ]; then echo "topology built outside internal/{config,netmodel}; edit the configurations and derive instead:"; echo "$$bad"; exit 1; fi

# Every function declared in a non-test file under internal/ is linked by some
# main (cmd/*, benchmark, examples/*, built with inlining off), or is named
# with its reason in tools/lintreach/allowlist.txt: code that only tests reach
# is deleted or moved into the tests. A stale allowlist entry fails too.
lint-reach:
	$(GO) run ./tools/lintreach

test:
	$(GO) test ./...

# Non-test Go lines (wc -l) per package under internal/ and cmd/, then their
# total over the whole module outside benchmark/ (and hidden directories):
# the counts a design change cites.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done
	@printf '%7d  total outside benchmark/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -exec cat {} + | wc -l)

# Tier-1 twice in shuffled order: flushes test-order and leftover-state
# assumptions that a single in-order pass hides.
test-shuffle:
	$(GO) test -count=2 -shuffle=on ./...

# The packages whose goroutine schedule depends on the core count — the cold
# fixpoint's work units, concurrent forks, scenario fan-out, the global-RIB
# blocks concurrent queries share with their base (netmodel, intent, serve),
# and what concurrent forks read of one base while patching their own tables
# (ec's memoized expansion index, traffic's base traces, and the cold base
# result's table views, netmodel.RIBSet tables over its global RIB's rows that
# the first fork or flow to look one up builds), and the fleet, whose
# traffic subtasks build RIB tables lazily while the forwarder's goroutines
# look them up (dsim's fleet-vs-centralized tests) and whose route subtasks
# split into units of their own (pipeline's fleet-vs-centralized tests), and
# the accuracy campaign, whose forks of one truth base its golden pins
# (diagnosis) — at 1, 2 and 8 procs: results must not depend on how the units
# interleave.
test-procs:
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test -count=1 ./internal/bgp ./internal/core ./internal/kfail ./internal/netmodel ./internal/intent ./internal/serve ./internal/ec ./internal/traffic ./internal/dsim ./internal/pipeline ./internal/diagnosis || exit 1; done

# The allocation pins (the Alloc tests and TestRIBGrow) fifty times each at
# GOMAXPROCS 2 and 8: a pin that counts another goroutine's allocation fails
# here rather than now and then in tier-1.
test-allocs:
	for p in 2 8; do GOMAXPROCS=$$p $(GO) test -count=50 -run 'Alloc|TestRIBGrow' ./internal/netmodel ./internal/bgp ./internal/core ./internal/wire ./internal/rcl ./internal/intent ./internal/ec ./internal/policy ./internal/traffic || exit 1; done

# Race-detector pass over every package: the parallel engine hot paths (SPF,
# forwarding, ECs, config parse) and the concurrent-engine tests must stay
# race-clean on every PR.
race:
	$(GO) test -race ./...

# One iteration of every package benchmark, to catch bit-rot in the bench
# harnesses without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Five seconds of coverage-guided fuzzing per Fuzz* target in the repo, so CI
# runs the targets past their committed seeds. The toolchain fuzzes one target
# of one package per invocation.
fuzz-smoke:
	@grep -rlE '^func Fuzz' --include='*_test.go' . | sort | while read f; do \
		for t in $$(grep -ohE '^func Fuzz[A-Za-z0-9_]*' $$f | cut -d' ' -f2); do \
			echo "fuzz $$t ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 5s $$(dirname $$f) || exit 1; \
		done; \
	done

# The repo benchmark once over every workload, untraced and traced, as a
# goldens and cross-check smoke: it exits non-zero unless every run is
# correct (seed-42 RIB digests and row counts, fork vs from-scratch, fleet vs
# centralized, hoyand vs engine). Three seconds of timed loop per run is
# enough for that; measuring takes the default twelve.
benchmark:
	bash benchmark/run.sh --seconds 3

# Fault-tolerance pass: the chaos harness (crashed workers, >=10% injected
# substrate error rates) plus the resilience tests, under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestWorker|TestStale' -v ./internal/dsim/
	$(GO) test -race ./internal/faults/ ./internal/retry/ ./internal/rpcx/

# Crash-restart pass: kill-and-recover chaos for the durable substrates and
# the master (torn WAL tails, mid-run substrate restarts, Master.Resume),
# plus the WAL recovery and restart-wrapper unit tests, under the race
# detector.
chaos-restart:
	$(GO) test -race -run 'TestRestart|TestResume' -v ./internal/dsim/
	$(GO) test -race ./internal/durable/ ./internal/objstore/ ./internal/taskdb/ ./internal/mq/ ./internal/faults/

# Observability demo: one instrumented distributed run; prints the per-stage
# breakdown and writes the end-to-end trace to trace.json (view it in
# chrome://tracing or https://ui.perfetto.dev).
trace:
	$(GO) run ./cmd/hoyan-exp -scale 1 -trace trace.json report

# Everything CI runs except the trace demo: formatting, vet, the lints, the
# CLI smoke, then tier-1 twice shuffled and at 1, 2 and 8 procs, the
# allocation pins fifty times at 2 and 8 procs, then race, smokes, chaos and
# the benchmark.
check: fmt-check vet lint-toggles lint-topo lint-reach build cli-smoke test-shuffle test-procs test-allocs race bench-smoke fuzz-smoke chaos chaos-restart benchmark
