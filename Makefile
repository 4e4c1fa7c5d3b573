# vectordb — build, test and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build test race vet fmt lint bench bench-kernels bench-batchform bench-filter bench-ooc bench-plan bench-smoke kernel-guard conformance-filter conformance-ooc ci cover stress experiments examples loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when any tracked source is not gofmt-clean (run `gofmt -w .`
# to fix). The golden-test module under internal/lint/testdata is held to
# the same standard, so no exclusions are needed.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "fmt: files need gofmt -w:"; echo "$$out"; exit 1; fi

# lint runs vectordblint, the in-tree stdlib-only static-analysis suite
# (internal/lint): poolfree, blockpin, ctxflow, kerneldispatch,
# lockdiscipline, atomicmix, metricreg, plus the
# interprocedural lockorder/lockdisciplinex/goleak call-graph analyzers.
# Intentional exceptions carry //lint:allow pragmas in the source; see
# DESIGN.md §9.
lint:
	$(GO) run ./cmd/vectordblint ./...

# ci is the gate every change must pass: vet, gofmt cleanliness, build,
# the static-analysis suite, the full test suite, the race detector over
# internal/ — which includes the seeded concurrency stress harness
# (internal/stress) with fault injection — the cancellation/leak gate,
# the filtered-search gates (ground-truth conformance plus the concurrent
# filtered stress mode), the observability coverage floor, the
# batch-kernel guard, the benchmark smoke run, and the e2ebench module
# (its own go.mod, so `go build ./... && go test ./...` at the root never
# compiles it: a signature change in internal/core that breaks the
# repository's benchmark shows up here, not when the benchmark next runs).
ci: vet fmt build lint test cover kernel-guard conformance-filter conformance-ooc bench-smoke
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race ./internal/...
	$(GO) test -race ./internal/stress -run TestStressCancel -short -faults=cancel
	$(GO) test -race ./internal/stress -run TestStressFiltered -short -faults=filtered
	$(GO) test -race ./internal/stress -run TestStressSpill -short -faults=spill
	$(GO) test -race ./internal/stress -run TestStressPlan -short -faults=plan
	$(GO) test -race ./internal/core -run 'TestSearchCtx|TestAdmission'

# conformance-ooc is the out-of-core ground-truth gate: tiered segments
# (mmap-backed extents, block-cache scans, cold copies in the object
# store) must return bit-identical results to the in-RAM path across flat,
# IVF, SQ8 and filtered searches, survive demote/promote cycles and
# restores, and tolerate truncated extent files (internal/colstore
# recovery tests). Every sealed segment is one SEGX object: it round-trips
# through DecodeSegment, is Put exactly once, and a corrupted one fails a
# restore and a cluster reader's load instead of serving altered vectors.
conformance-ooc:
	$(GO) test ./internal/core -run TestTiered
	$(GO) test ./internal/core -run TestDBTierDefaults
	$(GO) test ./internal/core -run 'TestSegmentEncodeDecodeRoundTrip|TestDecodeSegmentRejectsMutants|FuzzDecodeSegment|TestCorruptSegmentObject|TestOneStoreObjectPerSegment'
	$(GO) test ./internal/colstore -run TestExtent
	$(GO) test ./internal/cluster -run TestReaderCorruptSegmentObject
	$(GO) test ./internal/blockcache

# conformance-filter is the filtered-ANN ground-truth gate: every index
# type × metric × selectivity against the exact filter-then-scan oracle
# (internal/index), every strategy A–E against the oracle over a pushdown
# Table with the dense/sparse crossover audited from trace annotations
# (internal/query), the multi-segment + tombstone pushdown paths
# (internal/core), the positional predicate compile against "filter rows
# by raw value" (internal/colstore), and the cluster ≡ single-node gate:
# the same rows behind two readers and one collection, with and without
# tombstones, both equal to the oracle, the readers' bitsets pooled
# (internal/cluster).
conformance-filter:
	$(GO) test ./internal/index -run TestFiltered
	$(GO) test ./internal/query -run 'TestStrategyFilteredConformance|TestSelectivitySweep|TestStrategyBPushedAllocs'
	$(GO) test ./internal/core -run TestPushdown
	$(GO) test ./internal/colstore -run 'TestFillRange|TestCompilePred|FuzzPredCompile'
	$(GO) test ./internal/cluster -run 'TestClusterEqualsSingleNode|TestReaderFilteredAllocs|TestSearchRejectsBadRequest'

# kernel-guard keeps every hot read path on the blocked batch kernels.
# The static half — no per-tier kernel calls outside internal/vec — is
# the kerneldispatch analyzer in `make lint` (it replaced the old grep
# gate with a type-aware check). What remains here is the dynamic half:
# conformance tests asserting the batch-dispatch counters actually tick
# during scans — symbols being referenced is not enough, the scan must
# route through them.
kernel-guard:
	$(GO) test ./internal/index -run 'TestIndexScansUseBatchKernels|TestScanBlockedUsesBatchKernels'
	$(GO) test ./internal/core -run TestSegmentScanUsesBatchKernels

# bench-smoke compiles and runs every benchmark in the repo exactly once
# (-benchtime=1x): no timing signal, but a benchmark that panics, asserts,
# or rots against an API change fails CI instead of rotting silently. The
# dynamic-batching bench rides along at its -quick sizing for the same
# reason (it fails hard on any search error).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/benchbatchform -quick -o /dev/null
	$(GO) run ./cmd/benchfilter -quick -o /dev/null
	$(GO) run ./cmd/benchooc -quick -o /dev/null
	$(GO) run ./cmd/benchplan -quick -o /dev/null

# cover enforces a coverage floor on the observability layer: the metrics
# registry, exposition writer, tracer and query log are the eyes of every
# other subsystem, so untested branches there hide real regressions.
# -coverpkg spans the promtext parser, whose tests live in obs.
OBS_COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=obs.cover -coverpkg=./internal/obs/... ./internal/obs/...
	@$(GO) tool cover -func=obs.cover | awk -v min=$(OBS_COVER_MIN) '\
		/^total:/ { sub(/%/, "", $$3); \
			if ($$3+0 < min) { printf "obs coverage %.1f%% below floor %.1f%%\n", $$3, min; exit 1 } \
			else { printf "obs coverage %.1f%% (floor %.1f%%)\n", $$3, min } }'
	@rm -f obs.cover

# stress runs the full randomized stress/fault harness alone, race-enabled.
# Reproduce a failure with: go test -race ./internal/stress -seed <n>
stress:
	$(GO) test -race -v ./internal/stress

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-kernels regenerates BENCH_kernels.json, the Fig. 8 companion
# artifact: blocked batch kernels vs the pre-blocking scan loop, plus the
# CacheAware-vs-ThreadPerQuery multi-query tile gap.
bench-kernels:
	$(GO) run ./cmd/benchkernels -o BENCH_kernels.json

# bench-filter regenerates BENCH_filter.json: the filtered-scan pushdown
# (dense bitsets beneath the batch kernels) against the per-row callback
# filter it replaced (a private loop in the bench main; the engine has no
# callback path), swept over selectivity for both flat scans and IVF
# probes, on clustered and shuffled attribute layouts.
bench-filter:
	$(GO) run ./cmd/benchfilter -o BENCH_filter.json

# bench-ooc regenerates BENCH_ooc.json: out-of-core search under cache
# pressure — hit rate and latency swept over dataset/cache ratios 1x, 2x,
# 4x, 10x with sealed segments in mmap-backed extent files and IVF
# payloads externalized (the tiered-storage companion artifact).
bench-ooc:
	$(GO) run ./cmd/benchooc -o BENCH_ooc.json

# bench-plan regenerates BENCH_plan.json: the cost-based planner against
# every static policy it replaces — placement (pure-CPU / pure-GPU /
# always-hybrid on the virtual device clocks) swept over nq × residency,
# and filter strategy (always-A / always-pushdown, wall-clock) swept over
# selectivity × layout — reporting per-cell regret vs the best static.
bench-plan:
	$(GO) run ./cmd/benchplan -o BENCH_plan.json

# bench-batchform regenerates BENCH_batchform.json: the batch former
# coalescing live concurrent searches into tile batches vs the per-query
# path, at c = 8 / 64 / 256 (the online companion to bench-kernels'
# offline tile numbers).
bench-batchform:
	$(GO) run ./cmd/benchbatchform -o BENCH_batchform.json

# Regenerate every table and figure of the paper (Sec. 7).
experiments:
	$(GO) run ./cmd/benchmark -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagesearch
	$(GO) run ./examples/recipesearch
	$(GO) run ./examples/chemsearch
	$(GO) run ./examples/distributed
	$(GO) run ./examples/restapi

# loc prints non-test, non-testdata Go lines per package directory (the
# benchmark module e2ebench/ excluded) and their total: the table every
# refactor owes its CHANGES.md entry, before and after. The last line,
# serving, is the same count over only the packages vectordbd links
# (`go list -deps ./cmd/vectordbd`).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './e2ebench/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@$(GO) list -deps -f '{{if not .Standard}}{{.Dir}}{{end}}' ./cmd/vectordbd | grep . | \
		xargs -I{} find {} -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | \
		awk '{ printf "%7d serving\n", $$1 }'

clean:
	$(GO) clean ./...
