GO ?= go

.PHONY: all build lint test race fuzz bench benchsmoke benchcheck baselines loc

all: build lint test

build:
	$(GO) build ./...

# lint is the one definition of lint; the CI lint job runs this target.
# Formatting, go vet, the one-reverse check (graph.Graph.In is the only
# non-test caller of Transpose), then the repo's own analyzer suite (see
# internal/analysis and README "Static analysis") over this module and the
# nested benchmark module, where ./... stops.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@out=$$(grep -rn '\.Transpose()' --include='*.go' internal cmd examples bpart.go | \
		grep -v '_test.go' | grep -v '^internal/graph/'); if [ -n "$$out" ]; then \
		echo "build the reverse with g.In(), not Transpose():"; echo "$$out"; exit 1; fi
	@echo "bpartlint analyzers:"
	@$(GO) run ./cmd/bpartlint -list
	$(GO) run ./cmd/bpartlint ./... ./benchmark/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each of the ten fuzz targets for 10 s. One fuzzes what an engine
# computes: partition FuzzStream holds a stream pass over a small generated
# graph to the index-order reference scorer, and passes over one reused
# stream state to fresh one-shot streams. Seven parse bytes: the three
# gio file readers, the record-log substrate's framing (FuzzScan), the two
# format parsers on it (traceview, servestats FuzzRead) and the serving
# handlers' query strings (FuzzHandlers); traceview's also feeds what it
# accepts through the span table's res_* decode. Two have no parser of
# their own: commview FuzzRead and partaudit FuzzReadLog feed whatever
# traceview.Read accepts through the superstep or audit.* decode and the
# summarizers. Every FuzzRead/FuzzReadLog then renders what it accepted as
# text, so no report can panic on a log its reader takes. One target per line as package:Target.
FUZZ_TARGETS = \
	internal/partition:FuzzStream \
	internal/gio:FuzzReadBinary \
	internal/gio:FuzzReadEdgeList \
	internal/gio:FuzzReadAssignment \
	internal/recordlog:FuzzScan \
	internal/traceview:FuzzRead \
	internal/partaudit:FuzzReadLog \
	internal/commview:FuzzRead \
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

# loc prints the non-test line ledger: per package of this module (so not
# the nested benchmark/ module, nor testdata fixtures), the line count of
# `cat` of its non-_test.go files, then the total.
loc:
	@total=0; for p in $$($(GO) list -f '{{.ImportPath}}:{{.Dir}}' ./...); do \
		n=$$(find $${p#*:} -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%6d %s\n' $$n $${p%%:*}; total=$$((total + n)); \
	done; printf '%6d total\n' $$total
