# Convenience targets for the LDDP framework reproduction.

GO ?= go

.PHONY: all build test vet format check race bench bench-masks bench-server bench-wire bench-all experiments figures quick cover trace sched-smoke async-smoke serve-smoke fleet-smoke sim-smoke soak soak-server soak-sim conformance e2e clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fails when a tracked Go file is not gofmt-formatted; `gofmt -l .` lists
# the offenders.
format:
	test -z "$$(git ls-files '*.go' | xargs gofmt -l)"

# The per-PR gate: formatting, build, vet (the concurrency code leans on
# it), tests.
check: format build vet test

# Race-detector pass over the whole module; the executor tests in
# internal/core are written to stress the pool's epoch barrier and the
# tile engine's counter and ready-queue hand-offs.
race:
	$(GO) test -race ./...

# Native executor benchmarks — the tile engine vs the level-synchronous
# pool over all 15 masks — archived as BENCH_native.json (real wall-clock
# numbers — machine-dependent).
bench:
	$(GO) test -run '^$$' -bench=NativePool -benchmem -cpu 4 -benchtime 3x . | tee bench_output.txt
	$(GO) run ./cmd/benchjson < bench_output.txt > BENCH_native.json

# Mask ratio gate: each of the six masks that read NE with W or NW
# against its NE-free sibling at 1024x1024 on two workers, timed in
# alternating pairs (BenchmarkNativePoolMaskPairs); exit 1 when the
# median ne/sibling time ratio of any pair exceeds 1.35.
bench-masks:
	$(GO) test -run '^$$' -bench=NativePoolMaskPairs -cpu 2 -benchtime 15x . | tee bench_masks_output.txt
	$(GO) run ./cmd/benchjson -assert 'MaskPairs:ne/sibling<=1.35' < bench_masks_output.txt > /dev/null

# Full benchmark pass: one testing.B benchmark per paper table/figure plus
# the ablations, extensions and micro-benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table of the evaluation into results/.
experiments:
	$(GO) run ./cmd/lddpbench -exp all -out results

# Regenerate the measured figures as SVG charts into results/figures/.
figures:
	$(GO) run ./cmd/lddpbench -svg results/figures

# Fast smoke pass.
quick:
	$(GO) test ./...
	$(GO) run ./cmd/lddpbench -exp all -quick > /dev/null

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Record a runtime trace of the tile engine on the 2048x2048 anti-diagonal
# case study and print its analysis. trace.json loads in ui.perfetto.dev.
trace:
	$(GO) run ./cmd/lddprun -problem levenshtein -size 2048 -solver parallel -workers 4 -traceout trace.json
	$(GO) run ./cmd/lddptrace trace.json

# Scheduler smoke: drive 16 concurrent solves through the shared
# scheduler via the load driver (exit 1 on any unexpected outcome), then
# a mixed batch with deadlines exercising cancellation and rejection.
sched-smoke:
	$(GO) run ./cmd/lddpserve -mode compare -solves 16 -size 512
	$(GO) run ./cmd/lddpserve -mix -solves 32 -size 400 -timeout 50ms

# Tile-engine smoke: the dependency-driven tile engine's unit, fuzz-seed,
# tiled and metamorphic batteries under the race detector, then the
# stall proof — trace the same seeded 2048x2048 solve through the
# level-synchronous pool and the tile engine and require the tile
# trace's total barrier stall to be strictly below the pool's (it is
# structurally zero: the tile engine emits no barrier spans).
async-smoke:
	$(GO) test -race -count=1 -run 'Async|Tiled|BandLookahead' ./internal/core/ ./lddp/
	$(GO) run ./cmd/lddprun -problem levenshtein -size 2048 -solver pool -workers 4 -seed 7 -traceout pool_trace.json
	$(GO) run ./cmd/lddprun -problem levenshtein -size 2048 -solver parallel -workers 4 -seed 7 -traceout async_trace.json
	$(GO) run ./cmd/lddptrace -barrier-under pool_trace.json async_trace.json

# Network service smoke: boot lddpd on an ephemeral local port, fire a
# remote batch through cmd/lddpserve -url (the client's retry/backoff
# absorbs the startup window), fetch /metrics into serve_metrics.json,
# then shut the server down via SIGTERM and let it drain.
serve-smoke:
	$(GO) build -o lddpd.bin ./cmd/lddpd
	./lddpd.bin -addr 127.0.0.1:18080 -workers 4 & \
	  pid=$$!; \
	  $(GO) run ./cmd/lddpserve -url http://127.0.0.1:18080 -solves 16 -size 256 -metrics serve_metrics.json; \
	  rc=$$?; \
	  kill -TERM $$pid; wait $$pid; \
	  rm -f lddpd.bin; \
	  exit $$rc

# Fleet smoke, three layers. First the in-process recovery and trace
# stitching proofs under the race detector: three lddpd node stacks, one
# killed mid-solve, the coordinator relocates its blocks and the
# assembled digest still matches the sequential oracle. Then the
# real-process run: three lddpd binaries on local ports with per-node
# -tracedir, the driver band-sharding a batch across them over the
# binary halo protocol (every fleet digest cross-checked against a
# single-node solve) while stitching one multi-node timeline per solve;
# every node's /v1/metrics?format=prometheus scrape must pass the strict
# exposition checker. Finally the observability gate: lddptrace over a
# stitched timeline must report per-node lanes, halo spans, and a fleet
# critical path.
fleet-smoke:
	$(GO) test -race -run 'TestFleetKillNodeMidSolve|TestFleetSpreadsWork|TestFleetTraceStitching' -count=1 ./internal/fleet/
	$(GO) build -o lddpd.bin ./cmd/lddpd
	$(GO) build -o lddppromlint.bin ./cmd/lddppromlint
	$(GO) build -o lddptrace.bin ./cmd/lddptrace
	rm -rf fleet-traces && mkdir -p fleet-traces/n1 fleet-traces/n2 fleet-traces/n3
	./lddpd.bin -addr 127.0.0.1:18081 -workers 2 -tracedir fleet-traces/n1 & p1=$$!; \
	  ./lddpd.bin -addr 127.0.0.1:18082 -workers 2 -tracedir fleet-traces/n2 & p2=$$!; \
	  ./lddpd.bin -addr 127.0.0.1:18083 -workers 2 -tracedir fleet-traces/n3 & p3=$$!; \
	  $(GO) run ./cmd/lddpserve -fleet http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083 -solves 4 -size 256 -tracedir fleet-traces; \
	  rc=$$?; \
	  for port in 18081 18082 18083; do \
	    ./lddppromlint.bin -url "http://127.0.0.1:$$port/v1/metrics?format=prometheus" || rc=1; \
	  done; \
	  kill -TERM $$p1 $$p2 $$p3; wait $$p1 $$p2 $$p3; \
	  rm -f lddpd.bin; \
	  exit $$rc
	f=$$(ls fleet-traces/fleet-*.json | head -1); \
	  ./lddptrace.bin $$f | tee fleet_trace_summary.txt
	grep -q '^node ' fleet_trace_summary.txt
	grep -q 'halo' fleet_trace_summary.txt
	grep -q 'fleet critical path' fleet_trace_summary.txt
	rm -f lddppromlint.bin lddptrace.bin

# Scenario-engine smoke: the seeded, replayable fleet simulations under
# the race detector — baseline, admission saturation, kill+drain, and
# the replay-determinism proof — then the everything scenario plus one
# live lddpsim run with kills and drains, all through cmd/lddpsim's
# record/replay round trip. A failing scenario prints its seed and op
# log; `lddpsim -replay <oplog>` reproduces the exact schedule.
sim-smoke:
	$(GO) test -race -count=1 -run 'TestScenario|TestReplay|TestRun' ./internal/sim/ ./cmd/lddpsim/
	$(GO) run ./cmd/lddpsim -seed 9 -nodes 3 -ops 50 -kills 1 -drains 1 -record sim_oplog.json
	$(GO) run ./cmd/lddpsim -replay sim_oplog.json
	rm -f sim_oplog.json

# Server-mode throughput: the full network stack (codec + HTTP + handler +
# scheduler) vs direct facade submission, archived as BENCH_server.json.
bench-server:
	$(GO) test -run '^$$' -bench=ServerSolve -benchmem -cpu 4 -benchtime 3x ./internal/server/ | tee bench_server_output.txt
	$(GO) run ./cmd/benchjson -desc "Server-mode reference run: wire vs direct batch throughput. Regenerate with \`make bench-server\`." < bench_server_output.txt > BENCH_server.json

# Wire-codec benchmark gate: the json/binary/cached server variants plus
# the frame codec micro-benchmark, archived as BENCH_server.json with the
# allocation budgets asserted (exit 1 on regression). Budgets: the cold
# binary batch (8 HTTP round trips; ~180 allocs each, nearly all
# net/http), the pure frame codec (pooled; single digits) and the
# client's decode of one 512x256 fleet block (15 allocs into a buffer
# sized from the request; 48 when the cells were appended onto nil).
# 30 iterations, not 3: the first op pays the cold sync.Pool fills, so
# short runs over-report allocs/op by hundreds and flake the gate.
bench-wire:
	$(GO) test -run '^$$' -bench=ServerSolve -benchmem -cpu 4 -benchtime 30x ./internal/server/ | tee bench_server_output.txt
	$(GO) test -run '^$$' -bench=EncodeDecode -benchmem -benchtime 100x ./internal/wire/ | tee -a bench_server_output.txt
	$(GO) test -run '^$$' -bench=BandResponseDecode -benchmem -benchtime 100x ./lddp/client/ | tee -a bench_server_output.txt
	$(GO) run ./cmd/benchjson \
	  -desc "Server-mode reference run: wire (json/binary/cached) vs direct batch throughput, plus the frame codec and the client's band decode. Regenerate with \`make bench-wire\`." \
	  -assert 'wire-binary<=1600' -assert 'EncodeDecode512x512<=64' -assert 'HaloEncodeDecode2048<=16' \
	  -assert 'BandResponseDecode512x256<=32' \
	  < bench_server_output.txt > BENCH_server.json

# Wire-boundary differential suite: all 15 masks x adversarial shapes
# through lddpd's handler stack and the public client, exact equality
# against the sequential oracle, under the race detector.
e2e:
	$(GO) test -race -run 'E2EDifferential|DrainSoak|FuzzSolveRequest' -timeout 10m ./internal/server/

# Extended randomized scheduler soak under the race detector (the short
# soak runs in the normal test pass; this is the long opt-in variant).
soak:
	$(GO) test -race -tags soak -run SchedulerSoakLong -timeout 20m ./internal/sched/

# Extended server drain soak: randomized remote batches with client-side
# cancels and mid-batch drains, leak-checked, under the race detector.
soak-server:
	$(GO) test -race -tags soak -run ServerDrainSoakLong -timeout 20m ./internal/server/

# Extended scenario sweep: twelve seeds across four cluster shapes with
# the full fault mix (kills, drains, saturation bursts, wire faults),
# each run leak-checked under the race detector.
soak-sim:
	$(GO) test -race -tags soak -run TestScenarioSweepSoak -timeout 30m ./internal/sim/

# Cross-executor differential conformance suite: all 15 masks x every
# public executor path (tile engine, level-synchronous pool, the
# scheduler's tile engines at 1, 2 and 4 workers) x adversarial shapes,
# under the race detector.
conformance:
	$(GO) test -race -run 'Conformance|Metamorphic' -timeout 10m ./internal/core/ ./internal/sched/

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_masks_output.txt bench_server_output.txt trace.json pool_trace.json async_trace.json serve_metrics.json lddpd.bin lddppromlint.bin lddptrace.bin fleet_trace_summary.txt sim_oplog.json
	rm -rf fleet-traces
