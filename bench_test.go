package vectordb_test

// One benchmark per table/figure of the paper's evaluation (Sec. 7). Each
// bench regenerates its experiment at a small scale through the shared
// harness (internal/experiments); `go run ./cmd/benchmark -exp <id>` runs
// the same experiments at full (laptop) scale and prints the series.
// Custom metrics attach headline numbers to the benchmark output so
// `go test -bench` logs double as a compact reproduction record.

import (
	"strconv"
	"testing"

	"vectordb/internal/experiments"
)

// benchScale keeps every experiment's in-bench runtime modest.
var benchScale = experiments.Scale{N: 4000, NQ: 32, K: 20}

func runExperiment(b *testing.B, id string, sc experiments.Scale) *experiments.Table {
	b.Helper()
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Run(id, sc)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return t
}

// cell parses a numeric table cell (strips unit suffixes).
func cell(t *experiments.Table, row, col int) float64 {
	s := t.Rows[row][col]
	for len(s) > 0 {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
		s = s[:len(s)-1]
	}
	return 0
}

func BenchmarkTable1Capabilities(b *testing.B) {
	t := runExperiment(b, "table1", benchScale)
	if len(t.Rows) != 7 {
		b.Fatalf("capability matrix has %d rows", len(t.Rows))
	}
}

func BenchmarkFig8IVF(b *testing.B) {
	t := runExperiment(b, "fig8", benchScale)
	// headline: Milvus IVF_FLAT recall/qps at the largest nprobe
	for i := range t.Rows {
		if t.Rows[i][0] == "Milvus_IVF_FLAT" {
			b.ReportMetric(cell(t, i, 2), "recall")
			b.ReportMetric(cell(t, i, 3), "qps")
		}
	}
}

func BenchmarkFig9HNSW(b *testing.B) {
	t := runExperiment(b, "fig9", benchScale)
	for i := range t.Rows {
		if t.Rows[i][0] == "Milvus_HNSW" {
			b.ReportMetric(cell(t, i, 2), "recall")
			b.ReportMetric(cell(t, i, 3), "qps")
		}
	}
}

func BenchmarkFig10aDataSize(b *testing.B) {
	t := runExperiment(b, "fig10a", benchScale)
	b.ReportMetric(cell(t, 0, 2), "qps@1k")
	b.ReportMetric(cell(t, len(t.Rows)-1, 2), "qps@80k")
}

func BenchmarkFig10bScaleOut(b *testing.B) {
	sc := benchScale
	sc.N = 8000
	t := runExperiment(b, "fig10b", sc)
	b.ReportMetric(cell(t, 0, 2), "qps@1node")
	b.ReportMetric(cell(t, len(t.Rows)-1, 2), "qps@12nodes")
}

func BenchmarkFig11Batched(b *testing.B) {
	t := runExperiment(b, "fig11", benchScale)
	// headline: batched over per-query speedup at the largest data size
	b.ReportMetric(cell(t, len(t.Rows)-1, 4), "speedup")
}

func BenchmarkFig12SIMD(b *testing.B) {
	t := runExperiment(b, "fig12", benchScale)
	b.ReportMetric(cell(t, len(t.Rows)-1, 5), "avx512/avx2")
	b.ReportMetric(cell(t, len(t.Rows)-1, 6), "avx512/sse")
}

func BenchmarkFig13SQ8H(b *testing.B) {
	t := runExperiment(b, "fig13", benchScale)
	last := len(t.Rows) - 1
	b.ReportMetric(cell(t, last, 1)/cell(t, last, 3), "cpu/sq8h@500")
	b.ReportMetric(cell(t, last, 2)/cell(t, last, 1), "gpu/cpu@500")
}

func BenchmarkFig14Filtering(b *testing.B) {
	t := runExperiment(b, "fig14", benchScale)
	// headline: strategy E vs D at the highest selectivity
	last := len(t.Rows) - 1
	d := cell(t, last, 4)
	e := cell(t, last, 5)
	if e > 0 {
		b.ReportMetric(d/e, "D/E@s0.99")
	}
}

func BenchmarkFig15FilteringSystems(b *testing.B) {
	t := runExperiment(b, "fig15", benchScale)
	last := len(t.Rows) - 1
	sysB := cell(t, last, 2)
	milvus := cell(t, last, 5)
	if milvus > 0 {
		b.ReportMetric(sysB/milvus, "SystemB/Milvus@s0.99")
	}
}

func BenchmarkFig16MultiVector(b *testing.B) {
	sc := benchScale
	sc.NQ = 16
	t := runExperiment(b, "fig16-ip", sc)
	var nra2048, img, fusion float64
	for i := range t.Rows {
		switch t.Rows[i][0] {
		case "NRA-2048":
			nra2048 = cell(t, i, 2)
		case "IMG-4096":
			img = cell(t, i, 2)
		case "vector fusion":
			fusion = cell(t, i, 2)
		}
	}
	if nra2048 > 0 {
		b.ReportMetric(img/nra2048, "IMG/NRA2048")
	}
	if img > 0 {
		b.ReportMetric(fusion/img, "fusion/IMG")
	}
}

func BenchmarkAblationPCIe(b *testing.B) {
	t := runExperiment(b, "ablation-pcie", benchScale)
	if len(t.Rows) != 2 {
		b.Fatal("unexpected rows")
	}
}

func BenchmarkAblationRho(b *testing.B) {
	sc := benchScale
	sc.N = 3000
	runExperiment(b, "ablation-rho", sc)
}

func BenchmarkAblationMerge(b *testing.B) {
	runExperiment(b, "ablation-merge", benchScale)
}

func BenchmarkAblationLargeK(b *testing.B) {
	sc := benchScale
	sc.N = 40000
	runExperiment(b, "ablation-largek", sc)
}

func BenchmarkAblationMultiGPU(b *testing.B) {
	t := runExperiment(b, "ablation-multigpu", benchScale)
	b.ReportMetric(cell(t, len(t.Rows)-1, 2), "speedup@4dev")
}
