GO ?= go
SCALE ?= 0.05

.PHONY: build test bench bench-smoke bench-coldstart bench-ingest bench-shards bench-memory bench-lifecycle bench-serve metrics-smoke serve vet fmt-check lint fuzz-smoke vuln

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean (CI gates on this too).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Repo-specific static analysis: the sedalint analyzers enforce the
# engine's annotated invariants (immutability after publication, nil
# gating in hot paths, sticky-error decode loops, mutex guard clauses).
# Exits non-zero on any finding. Also usable as `go vet -vettool`.
lint:
	$(GO) run ./cmd/sedalint ./...

# Short fuzzing pass over every Fuzz* target (~10s each) so the checked-in
# corpora are exercised and shallow regressions in the parsers/codecs
# surface on every push. Long exploratory runs stay manual:
#   go test -fuzz FuzzParseQuery -fuzztime 5m ./internal/query
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzContainerDecode -fuzztime 10s ./internal/snapcodec
	$(GO) test -run '^$$' -fuzz FuzzPromParse -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzParseXML -fuzztime 10s ./internal/xmldoc
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 10s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzShardDecode -fuzztime 10s ./internal/index
	$(GO) test -run '^$$' -fuzz FuzzMatchTerm -fuzztime 10s ./internal/index
	$(GO) test -run '^$$' -fuzz FuzzTombstoneDecode -fuzztime 10s ./internal/store

# Known-vulnerability scan. Skips with a notice when govulncheck is not
# on PATH (the tool needs a network fetch to install; CI installs it).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test: vet fmt-check lint
	$(GO) test -race ./...

# Micro-benchmarks plus the paper-experiment harness; the harness leaves
# machine-readable BENCH_<name>.json files at the repo root.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...
	$(GO) run ./cmd/sedabench -scale $(SCALE)

# Fast perf canary: one sedabench pass at a small scale so perf regressions
# and BENCH-writer breakage surface on every PR (this includes the
# coldstart build-vs-load comparison). CI runs this on each push.
# BENCH files go to a temp dir — the checked-in BENCH_*.json trajectory is
# recorded at scale 0.1 and must only be refreshed at that scale.
bench-smoke:
	$(GO) run ./cmd/sedabench -scale 0.05 -out "$$(mktemp -d)"

# Cold-start benchmark: build-from-XML vs load-from-snapshot per builtin
# corpus, refreshing the checked-in BENCH_coldstart.json (scale 0.1, like
# the rest of the BENCH trajectory).
bench-coldstart:
	$(GO) run ./cmd/sedabench -exp coldstart -scale 0.1

# Ingest benchmark: incremental single-document add vs full engine rebuild
# per builtin corpus, refreshing the checked-in BENCH_ingest.json (scale
# 0.1, like the rest of the BENCH trajectory).
bench-ingest:
	$(GO) run ./cmd/sedabench -exp ingest -scale 0.1

# Sharding benchmark: 1-shard vs multi-shard engine build and snapshot
# load per builtin corpus, refreshing the checked-in BENCH_shards.json
# (scale 0.1, like the rest of the BENCH trajectory). The multi-shard
# columns improve with GOMAXPROCS; single-core boxes record parity.
bench-shards:
	$(GO) run ./cmd/sedabench -exp shards -scale 0.1

# Memory benchmark: the encoded index size per corpus, plus resident heap
# and query latency percentiles at resident budgets of
# 100%/50%/25% of the index size, refreshing the checked-in
# BENCH_memory.json (scale 0.1, like the rest of the BENCH trajectory).
bench-memory:
	$(GO) run ./cmd/sedabench -exp memory -scale 0.1

# Lifecycle benchmark: single-document delete/update latency, compaction
# throughput at ~30% tombstones, and masked-vs-compacted query p50 per
# builtin corpus, refreshing the checked-in BENCH_lifecycle.json (scale
# 0.1, like the rest of the BENCH trajectory).
bench-lifecycle:
	$(GO) run ./cmd/sedabench -exp lifecycle -scale 0.1

# Serving-tier benchmark: open-loop HTTP latency percentiles (p50/p95/p99)
# against a live in-process sedad surface, refreshing the checked-in
# BENCH_serve.json (scale 0.1, like the rest of the BENCH trajectory).
# The run also validates the end-of-run /metrics exposition.
bench-serve:
	$(GO) run ./cmd/sedabench -exp serve -scale 0.1

# Boots sedad, drives one traced query, scrapes /metrics, and fails on an
# unparseable exposition or missing metric families (via promcheck). CI
# runs this as the observability gate.
metrics-smoke:
	./scripts/metrics_smoke.sh

serve:
	$(GO) run ./cmd/sedad -preload worldfactbook -scale $(SCALE)
