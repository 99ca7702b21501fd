# Developer entry points. The repository is plain `go build`/`go test`;
# these targets just bundle the flags the CI pipeline standardizes on.
# Performance is measured by `bash perfbench/run.sh` (BENCHMARK.json).

GO ?= go

.PHONY: all build test race lint cover fuzz-smoke golden-update figures clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the invariants-as-code analyzer suite (cmd/repolint,
# DESIGN.md §12) over every package in the module, production and test
# files alike. Non-zero exit on any finding; waivers need a reasoned
# //repolint:allow annotation.
lint:
	$(GO) run ./cmd/repolint

race:
	$(GO) test -race ./...

# cover mirrors the CI coverage gate locally (the ratcheted baseline lives
# in .github/workflows/ci.yml).
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# fuzz-smoke runs the CI fuzz budget against the three strict JSON
# decoders: scenario, campaign spec and cache entry.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeScenario -fuzztime=10s ./internal/experiment/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSpec -fuzztime=10s ./internal/campaign/
	$(GO) test -run='^$$' -fuzz=FuzzCacheEntry -fuzztime=10s ./internal/checkpoint/

# golden-update regenerates the byte-level regression corpus under
# testdata/golden/ after an intentional output change; commit the rewritten
# files with an explanation of why the bytes moved.
golden-update:
	$(GO) test -run TestGolden -update -count=1 .

figures:
	$(GO) run ./cmd/figures -quick

clean:
	rm -f coverage.out
