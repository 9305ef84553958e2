.PHONY: verify test race vet fmt bench bench-scenarios bench-all chaos fuzz

# Full PR verify path: build, formatting, vet, tests, and race-checking of
# the concurrent engine + observability packages. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

test:
	go test ./...

race:
	go test -race ./internal/core ./internal/obs ./internal/origin ./internal/faultinject ./internal/gateway

# Chaos suite: the full client -> origin -> engine -> persistence loop under
# injected transport faults, queue saturation and snapshot corruption, with
# the race detector on. See internal/faultinject.
chaos:
	go test -race -run Chaos -v ./internal/faultinject

# Short fuzz pass over the snapshot importer and the checkpoint loader
# (hostile snapshots, state files and backups).
fuzz:
	go test -run '^$$' -fuzz FuzzImportState -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/core

vet:
	go vet ./...

fmt:
	gofmt -l -w .

# The serving benchmark (BENCHMARK.json): four loopback workloads against
# real oakd/oakgw built from this tree, end-to-end metrics plus a per-layer
# trace. This is the perf trajectory of record; see bench/README.md.
bench:
	bash bench/run.sh

# Scenario matrix + BENCH_scenarios.json (decision quality per scenario:
# violator precision/recall, time-to-mitigation, degraded pages, sheds,
# breaker trips, state recoveries). Deterministic per spec seed; exits
# non-zero if any scenario misses a floor in its expect block.
bench-scenarios:
	sh scripts/bench_scenarios.sh

# Every go-test micro-benchmark in the repo, raw output only.
bench-all:
	go test -bench=. -benchmem ./...
