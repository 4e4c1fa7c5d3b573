// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7) at laptop scale. Each ExpXxx function returns a Table
// whose rows correspond to the series the paper plots; cmd/benchmark prints
// them and the root bench_test.go wraps them in testing.B benchmarks.
// EXPERIMENTS.md records how each measured shape compares to the paper.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"vectordb/internal/dataset"
	"vectordb/internal/vec"
)

// Table is one experiment's result.
type Table struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v.Microseconds())/1000)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls experiment sizes. The paper runs SIFT10M/SIFT1B with
// 10,000 queries; the defaults here are ~100–500× smaller so the whole
// suite finishes in minutes of pure Go; shapes, not absolute numbers, are
// the reproduction target (DESIGN.md §1).
type Scale struct {
	N  int // dataset size; default 20000
	NQ int // query count; default 128
	K  int // top-k; default 50
}

func (s Scale) defaults() Scale {
	if s.N <= 0 {
		s.N = 20000
	}
	if s.NQ <= 0 {
		s.NQ = 128
	}
	if s.K <= 0 {
		s.K = 50
	}
	return s
}

// loadDataset maps the paper's dataset names to generators.
func loadDataset(name string, n int, seed int64) (*dataset.Dataset, vec.Metric, error) {
	switch name {
	case "sift", "SIFT10M", "sift10m":
		return dataset.SIFTLike(n, seed), vec.L2, nil
	case "deep", "Deep10M", "deep10m":
		// Deep1B evaluations use inner product on normalized CNN vectors.
		return dataset.DeepLike(n, seed), vec.IP, nil
	default:
		return nil, 0, fmt.Errorf("experiments: unknown dataset %q (sift|deep)", name)
	}
}

// timeIt measures fn's wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// bestOf returns fn's fastest wall time over n runs, stopping at the
// first run that fails.
func bestOf(n int, fn func() error) (best time.Duration, err error) {
	for i := 0; i < n; i++ {
		el := timeIt(func() { err = fn() })
		if err != nil {
			return 0, err
		}
		if i == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// qps converts a batch duration to queries/second.
func qps(nq int, d time.Duration) float64 {
	if d <= 0 {
		d = time.Nanosecond
	}
	return float64(nq) / d.Seconds()
}
