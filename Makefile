# Developer entry points. `make check` is the tier-1 verification gate;
# `make race` additionally proves the concurrent data path (piece fan-out,
# parallel 2PC, buffer pooling) and the harness hot path (wire codec,
# sharded timer wheel, per-link fabric state) clean under the race detector.

RACE_PKGS := ./internal/core ./internal/segstore ./internal/provider ./internal/cluster ./internal/wire ./internal/simtime ./internal/simnet ./internal/proxy

# Data-path packages, which must not depend on encoding/gob (see nogob).
NOGOB_PKGS := ./internal/core ./internal/layout ./internal/wire ./internal/provider ./internal/segstore ./internal/proxy ./internal/transport ./internal/simnet

.PHONY: check build test vet race nogob bench bench-harness scale bench-proxy scrub-chaos bench-scrub

check: build vet test race

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race $(RACE_PKGS)

# Gob stays only in two cold on-disk formats (namespace WAL/checkpoint and
# trace files); fail if any data-path package depends on it again.
nogob:
	@for p in $(NOGOB_PKGS); do \
		deps=$$(go list -deps $$p) || exit 1; \
		if echo "$$deps" | grep -qx encoding/gob; then \
			echo "$$p depends on encoding/gob"; exit 1; \
		fi; \
	done

# Parallel data-path microbenchmarks (modeled MB/s per stripe width).
bench:
	go test -run XXX -bench 'BenchmarkParallelStriped' -benchtime 3x .

# Codec and fabric microbenchmarks (binary-vs-gob, parallel-pair scaling).
bench-harness:
	go test -run XXX -bench 'BenchmarkCodec' ./internal/wire
	go test -run XXX -bench 'BenchmarkFabricParallelPairs' ./internal/simnet

# Harness scaling sweep: CPU per modeled second, heartbeat keep-up, and
# per-node control bytes at 128/256/512 providers → BENCH_harness.json.
scale:
	go run ./cmd/sorrento-bench -exp harness -metrics-out ''

# Gateway open-loop sweep: 100k thin connections through 4 proxies, offered
# load vs p50/p99 latency and proxy CPU → BENCH_proxy.json.
bench-proxy:
	go run ./cmd/sorrento-bench -exp proxy -metrics-out ''

# Storage-corruption chaos: bit rot, torn and lost writes layered over the
# network/process storm, asserting no acked commit is ever served with wrong
# bytes and every injected corruption is scrubbed and repaired.
scrub-chaos:
	go test ./internal/cluster -run TestChaosCorruptionSeeded -race -count=1 -v

# Integrity scrub sweep: detection latency and repair time vs scrub pace
# with a batch of corrupted replicas → BENCH_integrity.json.
bench-scrub:
	go run ./cmd/sorrento-bench -exp scrub -metrics-out ''
