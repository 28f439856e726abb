GO ?= go
SCALE ?= 0.05

.PHONY: build test bench metrics-smoke serve vet fmt-check lint fuzz-smoke vuln

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

# Go micro-benchmarks. The end-to-end benchmark is `bash bench/run.sh`
# (see bench/README.md).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Boots sedad, drives one traced query, scrapes /metrics, and fails on an
# unparseable exposition or missing metric families (via promcheck). CI
# runs this as the observability gate.
metrics-smoke:
	./scripts/metrics_smoke.sh

serve:
	$(GO) run ./cmd/sedad -preload worldfactbook -scale $(SCALE)
