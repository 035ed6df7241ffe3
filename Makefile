# Build and test entry points. Tier 1 is the repository's verify gate:
# it must stay green on every change. Tier 2 layers the slower checks on
# top: vet, the race detector, a fuzz smoke per fuzz target, and the
# partitioner verification suite.

GO       ?= go
FUZZTIME ?= 5s

.PHONY: all tier1 tier2 build test vet race fuzz-smoke service route rebalance transfer store matpart commmodel verify perf-smoke e2ebench-check update-golden

all: tier1

## tier1: go build + the full test suite (the repo's verify gate)
tier1: build test

## tier2: tier1 plus vet, -race, fuzz smokes, the partition service
## gate, the routing-tier gate, the rebalancing gate, the model-transfer
## gate, the model-store gate, the 2D matrix-partitioning gate, the
## communication-model gate, the verification suite, the perf-suite smoke
## and the benchmark-module check
tier2: tier1 vet race fuzz-smoke service route rebalance transfer store matpart commmodel verify perf-smoke e2ebench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## vet: go vet, then gofmt over every tracked Go file (e2ebench/ included):
## a file gofmt would reformat fails the target
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:" $$unformatted; exit 1; fi

## race: the whole suite under the race detector, then the Student-t
## quantile memo ten times over (-count=10: every sweep's stopping rule
## reads it, and the service's pool runs sweeps concurrently)
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TQuantile' ./internal/stats

# One invocation per target: -fuzz must match exactly one fuzz function,
# and -run='^$' skips the unit tests that already ran under tier1.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadPoints$$' -fuzztime=$(FUZZTIME) ./internal/model
	$(GO) test -run='^$$' -fuzz='^FuzzModelUpdates$$' -fuzztime=$(FUZZTIME) ./internal/model
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/config
	$(GO) test -run='^$$' -fuzz='^FuzzPartition$$' -fuzztime=$(FUZZTIME) ./internal/partition
	$(GO) test -race -run='^$$' -fuzz='^FuzzCacheStore$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzMatpartTiling$$' -fuzztime=$(FUZZTIME) ./internal/matpart
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMatchesRef$$' -fuzztime=$(FUZZTIME) ./internal/service/modelstore
	$(GO) test -run='^$$' -fuzz='^FuzzStoreFile$$' -fuzztime=$(FUZZTIME) ./internal/service/modelstore
	$(GO) test -run='^$$' -fuzz='^FuzzRing$$' -fuzztime=$(FUZZTIME) ./internal/service/ring

## service: vet + race-test the partition service (incl. the on-disk model
## store), the single-flight package it coalesces with (internal/flight)
## and its CLI end to end (-count=1 forces a fresh run: these tests assert
## live concurrency — single-flight, batching, quotas, drain — that a
## cached pass would not exercise), then, ten times over, the flight
## package's tests and the tests in which requests race for one cache
## entry, store flight or batch: single-flight, a panicking fill, replicas
## sharing one store, and a request joining a run in flight
service:
	$(GO) vet ./internal/service/... ./internal/flight ./cmd/fupermod-serve
	$(GO) test -race -count=1 ./internal/service/... ./internal/flight ./cmd/fupermod-serve
	$(GO) test -race -count=10 ./internal/flight
	$(GO) test -race -count=10 -run 'SingleFlight|FillPanic|StoreCoherence|JoinsRunInFlight' ./internal/service

## route: vet + race-test the consistent-hash ring and the routing tier
## CLI end to end over real backends, then, ten times over, the failover
## storm that kills one of two backends sharing a store mid-storm (-count=1
## first: a cached pass would not exercise the race)
route:
	$(GO) vet ./internal/service/ring ./cmd/fupermod-route
	$(GO) test -race -count=1 ./internal/service/ring ./cmd/fupermod-route
	$(GO) test -race -count=10 -run 'TestRouteSpreadsAndStaysByteIdentical' ./cmd/fupermod-route

## rebalance: vet + race-test the migration planner and the elastic
## repartitioning layer above it (-count=1: the elastic strategy tests
## replay drift schedules whose call counters a cached pass would skip)
rebalance:
	$(GO) vet ./internal/rebalance ./internal/dynamic ./internal/platform
	$(GO) test -race -count=1 ./internal/rebalance ./internal/dynamic ./internal/platform

## transfer: vet + race-test the cross-device model-transfer subsystem —
## the transfer package itself, the diff-transfer differential battery in
## internal/verify, and the service/CLI wiring (-count=1: the concurrent
## cold-start-storm test asserts one transfer flight per key under live
## scheduling, which a cached pass would not exercise; the donor-index
## tests, whose queries race writers and transfer fills, and the donor
## selection test, whose snapshots hold donors in map order, run ten times)
transfer:
	$(GO) vet ./internal/transfer
	$(GO) test -race -count=1 ./internal/transfer
	$(GO) test -race -count=1 -run 'Transfer|DiffTransfer' ./internal/verify ./internal/service ./cmd/fupermod-serve ./cmd/fupermod-bench
	$(GO) test -race -count=10 -run 'DonorIndex|DonorsRank' ./internal/service ./internal/service/modelstore

## store: vet + race-test the on-disk model store — append files, the
## per-entry index, torn-tail healing — then, ten times over, the tests in
## which appends race readers and a second writer (-count=1 first: they
## assert live interleavings of locked appends and reads, which a cached
## pass would not exercise)
store:
	$(GO) vet ./internal/service/modelstore
	$(GO) test -race -count=1 ./internal/service/modelstore
	$(GO) test -race -count=10 -run 'AppendsRace|SecondWriter|ConcurrentWriters|NeverSeenEmpty' ./internal/service/modelstore

## matpart: vet + race-test the 2D matrix-partitioning layer end to end —
## the matpart package (DP oracle, enum cross-check, grid discretisation),
## the diff-matpart differential battery in internal/verify, and the
## /v1/matpart serving + CLI wiring incl. the cross-replica battery
## (-count=1: the battery asserts byte identity across live fleets of 1, 2
## and 4 servers on one store, which a cached pass would not exercise)
matpart:
	$(GO) vet ./internal/matpart
	$(GO) test -race -count=1 ./internal/matpart
	$(GO) test -race -count=1 -run 'Matpart|DiffMatpart|CrossReplica' ./internal/verify ./internal/service ./cmd/fupermod-partition

## commmodel: vet + race-test the communication models and their CLI
## (-count=1: the calibration determinism tests assert serial-vs-parallel
## byte identity under live pool scheduling)
commmodel:
	$(GO) vet ./internal/commmodel ./cmd/fupermod-commbench
	$(GO) test -race -count=1 ./internal/commmodel ./cmd/fupermod-commbench

## verify: run the partitioner verification suite (oracle + differential)
verify:
	$(GO) run ./cmd/fupermod-verify -seed 1

## perf-smoke: single-iteration run of the tracked perf suite, then a
## self-diff of the snapshot it produced — proves every tracked benchmark
## still runs and the snapshot schema round-trips. Deliberately asserts
## nothing about timings: CI machines are too noisy for that; regression
## detection is the operator-run `-perf -diff OLD NEW` against committed
## BENCH_<n>.json trajectory points.
perf-smoke:
	$(GO) run ./cmd/fupermod-bench -perf -benchtime 1x -o /tmp/fupermod-perf-smoke.json
	$(GO) run ./cmd/fupermod-bench -perf -diff /tmp/fupermod-perf-smoke.json /tmp/fupermod-perf-smoke.json

## e2ebench-check: vet + test the end-to-end benchmark module. e2ebench/
## is a Go module of its own, so `go test ./...` never compiles it against
## the service surface it drives; it runs in the environment
## e2ebench/run.sh builds in (no workspace, no module proxy)
e2ebench-check:
	cd e2ebench && export GOFLAGS= GOWORK=off GOPROXY=off && $(GO) vet ./... && $(GO) test ./...

## update-golden: rewrite the golden files under internal/trace/testdata,
## the perf-snapshot schema golden under internal/bench/testdata, and the
## /stats schema golden under internal/service/testdata
update-golden:
	$(GO) test ./internal/trace -update
	$(GO) test ./internal/bench -run TestSnapshotGolden -update
	$(GO) test ./internal/service -run TestStatsGolden -update
