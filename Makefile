GO ?= go

.PHONY: all build lint test race fuzz bench benchsmoke benchcheck baselines

all: build lint test

build:
	$(GO) build ./...

# lint is the one definition of lint; the CI lint job runs this target.
# Formatting, go vet, the one-reverse check (graph.Graph.In is the only
# non-test caller of Transpose), then the repo's own analyzer suite (see
# internal/analysis and README "Static analysis").
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@out=$$(grep -rn '\.Transpose()' --include='*.go' internal cmd examples bpart.go | \
		grep -v '_test.go' | grep -v '^internal/graph/'); if [ -n "$$out" ]; then \
		echo "build the reverse with g.In(), not Transpose():"; echo "$$out"; exit 1; fi
	@echo "bpartlint analyzers:"
	@$(GO) run ./cmd/bpartlint -list
	$(GO) run ./cmd/bpartlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs every fuzz target for 10 s each. Seven parse bytes: the three
# gio file readers, the record-log substrate's framing (FuzzScan), the two
# format parsers on it (traceview, servestats FuzzRead) and the serving
# handlers' query strings (FuzzHandlers). Three have no parser of their
# own: commview and resview FuzzRead and partaudit FuzzReadLog feed
# whatever traceview.Read accepts through the superstep, res_* or audit.*
# decode and the summarizers. Every FuzzRead/FuzzReadLog then renders what
# it accepted as text, so no report can panic on a log its reader takes. One target per line as package:Target.
FUZZ_TARGETS = \
	internal/gio:FuzzReadBinary \
	internal/gio:FuzzReadEdgeList \
	internal/gio:FuzzReadAssignment \
	internal/recordlog:FuzzScan \
	internal/traceview:FuzzRead \
	internal/partaudit:FuzzReadLog \
	internal/commview:FuzzRead \
	internal/resview:FuzzRead \
	internal/servestats:FuzzRead \
	internal/servestats:FuzzHandlers

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 10s ./$${t%%:*}; \
	done

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# benchsmoke runs every Benchmark* in the tree for one iteration: not a
# measurement, only proof that none has rotted uncompiled or panicking
# (bench above reaches the root package alone).
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchcheck vets and tests the nested bpart/benchmark module (see
# BENCHMARK.json) against the packages in this tree; ./... above does not
# descend into it.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# baselines regenerates the committed BENCH artifact CI compares against
# with cmp (see the observability job in .github/workflows/ci.yml). Run
# after an intentional performance change and commit the result; the
# artifact holds no wall-clock field, so an unchanged simulation reproduces
# it byte for byte.
baselines:
	$(GO) run ./cmd/bench -scale 0.05 -id "Fig 13" \
		-json baselines/BENCH_bpart.json
