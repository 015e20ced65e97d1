# Development entry points. `make check` is the pre-commit gate: vet, build,
# full test suite under the race detector (covers the parallel
# BeamSearchBatch worker pool), and the decoding equivalence guard.

GO ?= go

.PHONY: check vet build test race chaos fuzz fuzz-merge bench perfbench serve fleet canary profile

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race schedule is ~10-20× slower than a plain run; the experiments
# package alone can exceed go test's 10-minute default on small machines.
race:
	$(GO) test -race -timeout 45m ./...

# Fault-tolerance gate: the deterministic fault-injection property tests,
# the 50-iteration online chaos campaign, the serve degradation E2E, and
# the fleet breaker's state machine and fault-injected E2E — all under the
# race detector.
chaos:
	$(GO) test -race -timeout 10m -v \
		-run 'Chaos|Schedule|Plan|Apply|Degrad|Breaker|Exec|RunContext' \
		./internal/faultinject/ ./internal/flow/ ./internal/online/ ./internal/serve/ \
		./internal/fleet/

# Coverage-guided corruption of the parameter loader (longer than CI's
# 10s smoke; crashes land in internal/nn/testdata/fuzz/).
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzLoadParams' -fuzztime $(FUZZTIME) ./internal/nn/

# Coverage-guided corruption of the linear weight merge's inputs: whatever the
# fuzzer feeds it, Merge must never panic, never emit a non-finite
# parameter, and reject malformed checkpoints cleanly (longer than CI's
# 30s smoke; crashes land in internal/lifecycle/testdata/fuzz/).
fuzz-merge:
	$(GO) test -run '^$$' -fuzz 'FuzzMergeCheckpoints' -fuzztime $(FUZZTIME) ./internal/lifecycle/

# Every benchmark (tables, figures, kernels); slow.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The repository's benchmark (perfbench/ and BENCHMARK.json): each
# workload once through perfbench/run.sh, which builds this checkout into
# the git-ignored .bench_build/ and checks every output against its
# oracle. Metrics are defined in perfbench/METRICS.md. Override the input
# seed and the measured seconds per run, e.g. `make perfbench SEED=3
# SECONDS=5`.
SEED ?= 1
SECONDS ?= 20
perfbench:
	@for w in serve_cold fleet_hot design_pipeline; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) || exit 1; \
	done

# Run the recommendation server. MODEL=path serves trained weights;
# without it a fresh (untrained) model is served for smoke testing.
# WATCH=dir hot-swaps the newest checkpoint in dir as it changes.
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/insightalign-serve serve -addr $(SERVE_ADDR) \
		$(if $(MODEL),-model $(MODEL)) $(if $(WATCH),-watch $(WATCH))

# One-command serving fleet: the consistent-hash router on FLEET_ADDR
# over FLEET_REPLICAS spawned in-process replicas, driven by
# `insightalign-serve loadgen` (which prints request and per-status
# counts only), then torn down. Run the router alone (foreground) with:
#   go run ./cmd/insightalign-router route -spawn 3
FLEET_ADDR ?= 127.0.0.1:8090
FLEET_REPLICAS ?= 3
LOADTEST_CLIENTS ?= 8
LOADTEST_REQUESTS ?= 200
fleet:
	@$(GO) build -o /tmp/insightalign-router ./cmd/insightalign-router
	@/tmp/insightalign-router route -spawn $(FLEET_REPLICAS) -addr $(FLEET_ADDR) & RT=$$!; \
	sleep 1.5; \
	$(GO) run ./cmd/insightalign-serve loadgen -url http://$(FLEET_ADDR) \
		-clients $(LOADTEST_CLIENTS) -requests $(LOADTEST_REQUESTS); \
	curl -s http://$(FLEET_ADDR)/healthz; echo; \
	kill -TERM $$RT 2>/dev/null; wait $$RT 2>/dev/null; \
	echo "fleet: router + $(FLEET_REPLICAS) replicas drove $(LOADTEST_REQUESTS) requests, shut down clean"

# Checkpoint-lifecycle demo: boot a lifecycle-enabled server, drop a
# jittered candidate checkpoint into the watched candidate directory,
# and drive live traffic until the shadow → canary → promote pipeline
# completes. Prints /debug/lifecycle before and after the traffic; the
# journaled verdict trail survives in $(CANARY_DIR)/lifecycle.jsonl.
# A behaviorally-regressing candidate dropped into the same directory
# would instead be rolled back and quarantined — see DESIGN.md §16.
CANARY_ADDR ?= 127.0.0.1:8085
CANARY_DIR ?= /tmp/insightalign-canary
canary:
	@$(GO) build -o /tmp/insightalign-serve ./cmd/insightalign-serve
	@$(GO) build -o /tmp/insightalign-ctl ./cmd/insightalign-ctl
	@rm -rf $(CANARY_DIR) && mkdir -p $(CANARY_DIR)/candidates $(CANARY_DIR)/quarantine
	@/tmp/insightalign-ctl mint -out $(CANARY_DIR)/live.bin -seed 7
	@/tmp/insightalign-serve serve -addr $(CANARY_ADDR) -model $(CANARY_DIR)/live.bin \
		-candidate-dir $(CANARY_DIR)/candidates -lifecycle-journal $(CANARY_DIR)/lifecycle.jsonl \
		-quarantine-dir $(CANARY_DIR)/quarantine -poll 200ms \
		-canary-weight 0.5 -shadow-samples 8 -shadow-every 1 \
		-min-canary-samples 8 -promote-samples 32 2>$(CANARY_DIR)/serve.log & SRV=$$!; \
	sleep 1.5; \
	/tmp/insightalign-ctl mint -out $(CANARY_DIR)/candidates/cand-001.bin \
		-from $(CANARY_DIR)/live.bin -jitter 0.01 -seed 11; \
	sleep 1; \
	echo "--- candidate submitted:"; \
	/tmp/insightalign-ctl status -addr http://$(CANARY_ADDR); echo; \
	$(GO) run ./cmd/insightalign-serve loadgen -url http://$(CANARY_ADDR) \
		-clients 4 -requests 600 >/dev/null; \
	echo "--- after 600 live requests:"; \
	/tmp/insightalign-ctl status -addr http://$(CANARY_ADDR); echo; \
	kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	echo "canary: verdict trail journaled in $(CANARY_DIR)/lifecycle.jsonl"

# Capture a CPU profile of the server under load: boot a fresh-model
# server on PROFILE_ADDR, drive it with the load generator while pulling
# /debug/pprof/profile for PROFILE_SECONDS, then shut the server down.
# Inspect with: go tool pprof cpu.pprof
PROFILE_ADDR ?= 127.0.0.1:8080
PROFILE_SECONDS ?= 10
profile:
	@$(GO) build -o /tmp/insightalign-serve ./cmd/insightalign-serve
	@/tmp/insightalign-serve serve -addr $(PROFILE_ADDR) & SRV=$$!; \
	sleep 1; \
	( $(GO) run ./cmd/insightalign-serve loadgen -url http://$(PROFILE_ADDR) \
		-clients $(LOADTEST_CLIENTS) -requests 100000 >/dev/null & echo $$! > /tmp/ia-loadgen.pid ); \
	curl -s -o cpu.pprof "http://$(PROFILE_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"; \
	kill $$(cat /tmp/ia-loadgen.pid) 2>/dev/null; kill $$SRV 2>/dev/null; rm -f /tmp/ia-loadgen.pid; \
	echo "wrote cpu.pprof — inspect with: go tool pprof cpu.pprof"
