# vectordb — build, test and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build test race vet fmt lint bench bench-smoke bench-check kernel-guard purego repro-check conformance-filter conformance-wire conformance-ooc conformance-versions ci cover stress experiments examples loc clean

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
# metricreg, the interprocedural lockorder/lockdiscipline/goleak
# call-graph analyzers, and testonly (exported code under internal/ that
# only _test.go files refer to; the e2ebench module's references count,
# found through its replace directive). Lock copies are go vet's
# copylocks check (the vet target). Intentional exceptions carry
# //lint:allow pragmas in the source, and a pragma that suppressed
# nothing is a finding; see DESIGN.md §9.
lint:
	$(GO) run ./cmd/vectordblint ./...

# ci is the gate every change must pass: vet, gofmt cleanliness, build,
# the static-analysis suite, the full test suite, the race detector over
# internal/ — which includes the seeded concurrency stress harness
# (internal/stress) with fault injection — the cancellation/leak gate,
# the filtered-search gates (ground-truth conformance plus the concurrent
# filtered stress mode), the REST wire gate (the columnar bodies' seeds
# and fuzzing, and the JSON handler fuzzed), the segment-version gate
# (index rebuilds under -race), the observability coverage floor, the
# batch-kernel guard, the pure-Go kernel build (purego), the figure shape
# assertions, the benchmark smoke run (every `go test` benchmark
# once, the per-layer cells included), and the e2ebench module
# (its own go.mod, so `go build ./... && go test ./...` at the root never
# compiles it: a signature change in internal/core that breaks the
# repository's benchmark shows up here, not when the benchmark next runs).
ci: vet fmt build lint test cover kernel-guard purego repro-check conformance-filter conformance-wire conformance-ooc conformance-versions bench-smoke
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race ./internal/...
	$(GO) test -race ./internal/stress -run TestStressCancel -short -faults=cancel
	$(GO) test -race ./internal/stress -run TestStressFiltered -short -faults=filtered
	$(GO) test -race ./internal/stress -run TestStressSpill -short -faults=spill
	$(GO) test -race ./internal/stress -run TestStressPlan -short -faults=plan
	$(GO) test -race ./internal/core -run 'TestSearchCtx|TestAdmission'

# conformance-ooc is the out-of-core ground-truth gate: tiered segments
# (mmap-backed extents read in place, cold copies in the object store) must
# return bit-identical results to the in-RAM path across flat, IVF, SQ8 and
# filtered searches, survive demote/promote cycles and restores, and
# tolerate truncated extent files (internal/colstore recovery tests). Every
# sealed segment is one SEGX object: it round-trips through DecodeSegment,
# is Put exactly once, and a corrupted one fails a restore and a cluster
# reader's load instead of serving altered vectors. A scan reads the
# mapping only while it holds the pin it took: an externalized
# IVF_FLAT/IVF_SQ8 index — its provider handing each probe sweep a payload
# copy that is poisoned at release — must equal its resident original on
# every bucket-scan entry point, and the concurrent conformance test runs
# race-enabled with demotes and segment GC destroying tiers under the
# scans, ending with no pin held. The last release of a
# destroyed tier unmaps it, and budget enforcement passes over pinned
# tiers (both selected by -run TestTiered). Any bytes read as an HNSW or
# IVF_FLAT/SQ8/PQ index blob either fail to decode or give an index that
# answers a search without panicking — the seeds (each type's real
# MarshalIndex output), then ten seconds of fuzzing, minimizing for at
# most a second (go test's default minute of minimizing each new
# interesting input reads as a stalled exec count).
conformance-ooc:
	$(GO) test ./internal/index/ivf -run TestExternalizedMatchesResident
	$(GO) test ./internal/core -run TestTiered
	$(GO) test ./internal/core -run TestDBTierDefaults
	$(GO) test ./internal/core -run 'TestSegmentEncodeDecodeRoundTrip|TestDecodeSegmentRejectsMutants|FuzzDecodeSegment|TestCorruptSegmentObject|TestOneStoreObjectPerSegment'
	$(GO) test ./internal/colstore -run TestExtent
	$(GO) test ./internal/cluster -run TestReaderCorruptSegmentObject
	$(GO) test ./internal/index -run '^FuzzUnmarshalIndex$$'
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzUnmarshalIndex$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test -race ./internal/core -run TestTieredConcurrentRecycle

# conformance-versions is the segment-version gate: an index build installs
# a new version of its segment and never mutates a published one. Five
# race-enabled runs of: a manual build landing while an automatic one is
# parked keeps its index; a payload tier lives exactly as long as the
# snapshots holding a version that serves it; a filtered search of a
# pinned snapshot equals the full compile through rebuilds to a smaller
# nlist and to FLAT; tiered rebuilds (one payload object per live segment,
# a rebuild to FLAT deleting the blob and freeing the tier); and the tiered
# churn rebuilding the IVF field every round under running scans.
conformance-versions:
	$(GO) test -race -count=5 ./internal/core -run 'TestManualBuildSurvivesAsyncBuild|TestTrackerFreesPayloadTierOnce|TestPushdownPinnedSnapshotSurvivesRebuild|TestTieredIndexRebuild|TestTieredRebuildToBloblessIndex|TestTieredConcurrentRecycle'

# conformance-filter is the filtered-ANN ground-truth gate: every index
# type × metric × selectivity against the exact filter-then-scan oracle
# (internal/index), every strategy A–E against the oracle over a pushdown
# Table with the dense/sparse crossover audited from trace annotations
# (internal/query), the collection's two filtered runners — the
# multi-segment + tombstone pushdown paths, strategy A's scan against
# strategy B hit for hit, an IN-list naming a value twice under both, and
# A scanning an indexed segment without its index or a code copy
# (internal/core) — the positional predicate compile against "filter rows
# by raw value" (internal/colstore), and the cluster ≡ single-node gate:
# the same rows behind two readers and one collection, with and without
# tombstones, both equal to the oracle, the readers' bitsets pooled
# (internal/cluster). A filter resolved only at an IVF probe's positions
# must return, hit for hit, what the full compile returns, through the
# collection's pushdown (TestPushdownProbeResolvedEqualsFullCompile) and a
# cluster reader (TestReaderProbeResolvedEqualsFullCompile).
conformance-filter:
	$(GO) test ./internal/index -run TestFiltered
	$(GO) test ./internal/query -run 'TestStrategyFilteredConformance|TestSelectivitySweep|TestStrategyBPushedAllocs'
	$(GO) test ./internal/core -run 'TestPushdown|TestFilteredPlanResultParity|TestSearchPredPlanned|TestRepeatedInValueAnswersEachRowOnce|TestPrefilterScansIndexedSegmentWithoutCodes'
	$(GO) test ./internal/colstore -run 'TestFillRange|TestCompilePred|FuzzPredCompile'
	$(GO) test ./internal/cluster -run 'TestClusterEqualsSingleNode|TestReaderFilteredAllocs|TestReaderProbeResolvedEqualsFullCompile|TestSearchRejectsBadRequest'

# conformance-wire is the REST wire gate. Every JSON body is read by
# json.Unmarshal and written by json.Marshal: trailing bytes answer 400 on
# every endpoint, a hit JSON cannot carry (±Inf) answers 500, a declared
# 64 MiB body with nothing behind it allocates under 1 MiB, and any bytes
# posted as a JSON search and as a JSON insert answer 200, 400 or 404 —
# never a panic or a 5xx — the search and the insert seeds, then ten
# seconds of fuzzing from each. The JSON search reply writes golden bytes
# at the float format cutoffs and range ends, [] for no hits, and carries
# every hit back bit for bit (each exponent's edge significands, random
# bit patterns, any reply json.Unmarshal takes); a number literal in a
# search body is read exactly as strconv reads it — on the seeds. A
# search's k, ef or search_l sizes no allocation: a bound of 2^62 answers
# every row, as JSON and as columns, and a k of 2^28 allocates under
# 1 MiB. Every columnar body keeps one rule: bodies carry vector words as
# bits, the schema judges values by field kind, and VDBH distances are
# finite. The SDK's inserts are columnar bodies: a batch stores the same
# entities and answers the same searches whether it arrives as JSON or as
# columns (two vector fields, attributes, categories with empty strings and
# invalid UTF-8, −0, subnormals, int64 ends, zero rows); a ragged batch
# goes as JSON and the server names its entity; a batch holding a NaN or
# ±Inf in a float field goes as columns and the schema answers 400 naming
# the first entity holding one; the handler answers 400 to a bad magic or
# version, every truncation, a trailing byte, overflowing counts and any
# NaN/±Inf in a float field, a header claiming 2^32−1 rows allocating
# under 1 MiB; the decoder never panics and every body it takes
# re-encodes to the same bytes — the seeds, then ten seconds of fuzzing.
# A JSON insert body cut into 2–4 shards, each sent as the SDK sends it,
# decodes to the whole body's entities — on the seeds. Large columnar
# inserts run beside searches that keep answering right. The SDK's
# searches are columnar too, and so are their hits when Accept asks for
# them: each search shape (plain, named field, range, IN, range + IN,
# weighted multi-vector) and each refused one answers the same hits, or
# the same status and error text, as JSON and as columns; an Accept
# without the columnar type gets the JSON reply byte for byte; the
# handler answers 400 to a bad magic, version or flag, every truncation,
# a trailing byte, overrunning counts and invalid UTF-8, the decoder takes
# a NaN/±Inf query word or weight as bits and the schema answers it 400
# (so does a NaN query the SDK sends), and a header claiming 2^32−1
# vectors, values or hits allocates under 1 MiB; neither decoder panics
# and every body each takes re-encodes to the same bytes — the seeds,
# NaN-patterned words among them, then ten seconds of fuzzing each. A
# binary fingerprint holding an all-ones and a quiet-NaN word inserts and
# finds itself at distance 0 through the SDK (Hamming and Tanimoto). The
# insert body is the WAL's too (internal/wal owns the one columnar codec):
# every body the decoder takes re-encodes to the same bytes, a batch
# holding NaN/±Inf or fingerprint words comes back bit for bit from its
# body and its frame (and, for Hamming and Tanimoto rows, through the
# cluster writer, Restart's replay and a reader's search), a WAL object of insert and delete frames replays as
# the frames' batches, every cut and every flipped byte replays the whole
# frames before it and reports the tail torn, and replay allocates in
# proportion to the object — the seeds, then ten seconds of fuzzing each.
# A fuzz step minimizes a failing input for at most a second (go test's
# default is a minute, which a step spends on any new input instead of
# fuzzing).
conformance-wire:
	$(GO) test ./internal/rest -run 'FuzzSearchRequestWire|FuzzInsertRequestWire|FuzzSearchResponseWire|TestWireEncoderGolden|TestFloat32PrintSweep|TestNumberScan|FuzzFloat32Print|FuzzNumberScan|TestHugeBoundsAnswerEveryRow|TestHugeKAllocates|TestTrailingBytesAre400|TestReadBody|TestDeclaredOversizedBodyIs413|TestDeclaredLengthAllocatesAsBodyArrives|TestUnencodableResultIs500|TestInsertColumnsMatchJSON|TestInsertColumnsFailOnFirstNaN|TestInsertColumnsOnlyForUniformRows|TestRaggedWordsNameTheRow|TestInsertColumnsRejected|TestInsertColumnsHeaderAllocates|FuzzInsertColumns|FuzzInsertShards|TestLargeInsertsBesideSearches|TestSearchColumnsMatchJSON|TestSearchAccept|TestSearchColumnsRejected|TestSearchColumnsHeaderAllocates|TestSearchColumnsNonFinite|FuzzSearchColumns|FuzzHitsColumns|TestSDKNonFiniteQueryIs400|TestSDKBinaryFingerprintWords'
	$(GO) test ./internal/rest -run '^$$' -fuzz '^FuzzSearchRequestWire$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/rest -run '^$$' -fuzz '^FuzzInsertRequestWire$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/rest -run '^$$' -fuzz '^FuzzInsertColumns$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/rest -run '^$$' -fuzz '^FuzzSearchColumns$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/rest -run '^$$' -fuzz '^FuzzHitsColumns$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wal -run 'TestRecord|TestBatch|TestAppendBodyRefuses|TestBodyCarriesWordBits|FuzzBody|FuzzReplay'
	$(GO) test ./internal/cluster -run TestWriterCarriesBinaryWords
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzBody$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s -fuzzminimizetime 1s

# kernel-guard keeps every hot read path on the blocked batch kernels.
# The static half — no per-tier kernel calls outside internal/vec — is
# the kerneldispatch analyzer in `make lint` (it replaced the old grep
# gate with a type-aware check). What remains here is the dynamic half:
# conformance tests asserting the batch-dispatch counters actually tick
# during scans — symbols being referenced is not enough, the scan must
# route through them — and that IVF build and search, k-means training
# and core's multi-query engine over unindexed segments (one query-tile
# dispatch per chunk for the whole batch) leave the per-row dispatch
# counter at zero. TestRowDistanceInvariance holds every tier to row-pure
# distances: a row scores bit-identically whatever the block length, its
# offset, or the entry point (batch, bound, tile, gather), which the
# bit-identity conformance tests rely on. k-means'
# assignment step must score each block of rows in one panel-kernel
# dispatch (TestAssignAllUsesPanelKernel), so a fall-back to the tile
# kernel plus a scalar argmin fails here. The scans' blocks land in the
# threshold-and-select top-k collector: FuzzCollect holds its Results to
# a full sort of everything offered (NaN, ±Inf, ties at the k-th
# distance, k of 1, past the candidates and 2^62, block offers beside
# single pushes, folds of another bound) on its seeds, then ten seconds
# of fuzzing. The coded scan's head pass rests on FuzzCodeHead (the head
# panels hold each row's first codes, a head's S never exceeds its row's,
# and every tier's head list keeps every row its full S keeps) and
# FuzzHeadList (every tier's and assembly kernel's list, padded panels and
# up to 32 members included, is a direct sum's), each fuzzed ten
# seconds too, and TestHeadScanMatchesPlainScan holds the scan to the
# plain scan bit for bit.
kernel-guard:
	$(GO) test ./internal/vec -run TestRowDistanceInvariance
	$(GO) test ./internal/vec -run 'FuzzCodeDistance|FuzzCodeHead|FuzzHeadList|TestEncodeTiersAgree|TestCodeBoundNeverExceedsExact|TestThresholdPrunesNothingUnsafe'
	$(GO) test ./internal/vec -run '^$$' -fuzz '^FuzzCodeDistance$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/vec -run '^$$' -fuzz '^FuzzCodeHead$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/vec -run '^$$' -fuzz '^FuzzHeadList$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/kmeans -run TestAssignAllUsesPanelKernel
	$(GO) test ./internal/index -run 'TestIndexScansUseBatchKernels|TestScanBlockedUsesBatchKernels|TestCodedScan|TestHeadScan|TestScanCodedAllocs'
	$(GO) test ./internal/core -run 'TestSegmentScanUsesBatchKernels|TestSegmentScanUsesCodeKernel|TestSearchBatchUsesTileKernels'
	$(GO) test ./internal/topk -run 'FuzzCollect|TestHugeKGrowsWithWhatItKeeps'
	$(GO) test ./internal/topk -run '^$$' -fuzz '^FuzzCollect$$' -fuzztime 10s -fuzzminimizetime 1s

# purego builds the kernel packages with the assembly left out (the
# purego tag: every tier runs the pure-Go kernels, as on a non-amd64
# host) and runs their tests, so the portable fallback cannot rot on the
# amd64 hosts CI runs on; k-means (the pure-Go panel kernel with its exact
# re-check) and PQ training run here too, and so does core, whose
# bit-identity tests (tiered ≡ in-RAM, tombstoned ≡ plain scans) hold
# because every pure-Go tier scores a row in one order whatever the entry
# point (TestRowDistanceInvariance).
purego:
	$(GO) test -tags purego ./internal/vec ./internal/kmeans ./internal/quantizer ./internal/index/... ./internal/core

# repro-check asserts the paper's shapes on the figures that measure the
# served engine: each experiments *ShapeHolds test regenerates its figure
# at a small scale and checks who wins (Fig. 8: Milvus IVF_FLAT ≥ 2×
# Vearch-like at equal recall; Fig. 11: core's batch beats one SearchCtx
# per query; Fig. 13: SQ8H never the slowest plan), three times over so a
# shape that holds only on a lucky run fails.
repro-check:
	$(GO) test ./internal/experiments -run 'ShapeHolds$$' -count=3

# bench-smoke compiles and runs every benchmark in the repo exactly once
# (-benchtime=1x): no timing signal, but a benchmark that panics, asserts,
# or rots against an API change fails CI instead of rotting silently. That
# includes the per-layer cells beside the code they measure (blocked scan,
# filtered scan, batched vs per-query search, tiered cache pressure), which
# fail hard on a search error or a wrong answer.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-check runs the end-to-end benchmark at BASE and at this checkout
# alternately, PAIRS pairs per workload (comma-separated WORKLOADS, default
# all six; an even PAIRS, so each side runs first in half the pairs), and
# compares them with e2ebench -compare: it fails when a metric reads worse
# and warns on unresolved rows (scripts/bench-check.sh).
# It is CI's pull-request job, not part of ci: a timing comparison needs a
# base revision and minutes of quiet machine.
WORKLOADS ?= scan.flat,probe.c1,probe.cN,tiered.over4x,mixed.rw,cluster.filtered
PAIRS ?= 4
bench-check:
	@test -n "$(BASE)" || { echo "usage: make bench-check BASE=<rev> [WORKLOADS=a,b] [PAIRS=n]"; exit 2; }
	bash scripts/bench-check.sh "$(BASE)" "$(WORKLOADS)" "$(PAIRS)"

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
# (`go list -deps ./cmd/vectordbd`). With BASE=<rev> it counts BASE the
# same way in a git worktree under .bench_build/ and prints each row at
# BASE, now and the change (scripts/loc.sh).
loc:
	@bash scripts/loc.sh "$(BASE)"

clean:
	$(GO) clean ./...
